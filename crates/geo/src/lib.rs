//! Geometry substrate for the Copernicus App Lab reproduction.
//!
//! Implements the subset of the OGC Simple Features model that the App Lab
//! stack depends on: planar geometries in lon/lat coordinates, WKT reading
//! and writing (the GeoSPARQL literal serialization), topological predicates
//! (`sfIntersects`, `sfContains`, ...), measurement algorithms, an R-tree
//! spatial index, and the tile grid used by the streaming-data caches.
//!
//! Everything is hand-rolled: the offline dependency policy for this
//! reproduction does not allow geospatial crates (see `DESIGN.md` §2).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod algorithms;
pub mod coord;
pub mod geometry;
pub mod relate;
pub mod rtree;
pub mod tile;
pub mod wkt;

pub use coord::{Coord, Envelope};
pub use geometry::{Geometry, LineString, Point, Polygon};
pub use relate::SpatialRelation;
pub use rtree::RTree;
pub use wkt::{parse_wkt, write_geometry, write_wkt, WktError};

/// Convenience prelude for downstream crates.
pub mod prelude {
    pub use crate::algorithms::{area, centroid, distance, length};
    pub use crate::coord::{Coord, Envelope};
    pub use crate::geometry::{Geometry, LineString, Point, Polygon};
    pub use crate::relate::{self, SpatialRelation};
    pub use crate::rtree::RTree;
    pub use crate::wkt::{parse_wkt, write_wkt};
}
