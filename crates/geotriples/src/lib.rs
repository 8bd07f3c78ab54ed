//! GeoTriples: transforming geospatial data into RDF graphs.
//!
//! Reproduces the tool of Section 3 ("GeoTriples enables the transformation
//! of geospatial data stored in raw files (shapefiles, CSV, KML, XML, GML
//! and GeoJSON) ... into RDF graphs using well-known geospatial
//! vocabularies"):
//!
//! * [`source`] — readers producing a uniform tabular row model from CSV
//!   (with WKT columns), GeoJSON, and a binary shapefile-like format;
//! * [`mapping`] — the mapping language (the `mappingId`/`target`/`source`
//!   document format of Listing 2, restricted to its transformation parts);
//! * [`processor`] — the mapping processor, sequential or multi-core (the
//!   paper's Hadoop deployment of \[22\] becomes a thread pool; bench B5
//!   measures its scaling).
//!
//! GeoJSON is read with the workspace's one JSON parser,
//! `applab_obs::json`.
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod mapping;
pub mod processor;
pub mod source;

pub use mapping::{parse_mappings, Mapping, MappingError};
pub use processor::{for_each_triple, process, process_parallel};
pub use source::{Row, TabularSource, Value};
