//! A quadtree tile grid over a geographic domain.
//!
//! OPeNDAP serialization caches subsets "based on internal array indices"
//! (paper §5): recurrent requests for the same sub-array hit the cache. The
//! SDL reproduces this by snapping viewport requests to tiles of a fixed
//! grid; this module defines that grid. The WCS-style baseline in bench B7
//! instead caches raw bounding boxes, which almost never recur while panning.

use crate::coord::{Coord, Envelope};

/// A tile address: zoom level plus column/row in a 2^z × 2^z grid laid over
/// the domain envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId {
    pub zoom: u8,
    pub col: u32,
    pub row: u32,
}

/// A tile grid over a fixed domain (for Copernicus global products the
/// domain is the whole globe: lon −180..180, lat −90..90).
#[derive(Debug, Clone, Copy)]
pub struct TileGrid {
    pub domain: Envelope,
}

impl TileGrid {
    /// Global WGS84 grid.
    pub fn global() -> Self {
        TileGrid {
            domain: Envelope::new(-180.0, -90.0, 180.0, 90.0),
        }
    }

    pub fn new(domain: Envelope) -> Self {
        TileGrid { domain }
    }

    fn cells(zoom: u8) -> u32 {
        1u32 << zoom.min(31)
    }

    /// The tile containing a coordinate at a zoom level. Coordinates outside
    /// the domain are clamped to the border tiles.
    pub fn tile_at(&self, c: Coord, zoom: u8) -> TileId {
        let n = Self::cells(zoom) as f64;
        let fx = ((c.x - self.domain.min_x) / self.domain.width()).clamp(0.0, 1.0);
        let fy = ((c.y - self.domain.min_y) / self.domain.height()).clamp(0.0, 1.0);
        let col = ((fx * n) as u32).min(Self::cells(zoom) - 1);
        let row = ((fy * n) as u32).min(Self::cells(zoom) - 1);
        TileId { zoom, col, row }
    }

    /// The envelope covered by a tile.
    pub fn tile_envelope(&self, id: TileId) -> Envelope {
        let n = Self::cells(id.zoom) as f64;
        let w = self.domain.width() / n;
        let h = self.domain.height() / n;
        let min_x = self.domain.min_x + id.col as f64 * w;
        let min_y = self.domain.min_y + id.row as f64 * h;
        Envelope::new(min_x, min_y, min_x + w, min_y + h)
    }

    /// All tiles at `zoom` intersecting `query`, in row-major order.
    pub fn covering(&self, query: &Envelope, zoom: u8) -> Vec<TileId> {
        if query.is_empty() {
            return Vec::new();
        }
        let clipped = query.intersection(&self.domain);
        if clipped.is_empty() {
            return Vec::new();
        }
        let lo = self.tile_at(Coord::new(clipped.min_x, clipped.min_y), zoom);
        // Nudge the max corner inward so an exact-boundary query does not
        // spill into the next tile.
        let eps_x = self.domain.width() * 1e-12;
        let eps_y = self.domain.height() * 1e-12;
        let hi = self.tile_at(
            Coord::new(clipped.max_x - eps_x, clipped.max_y - eps_y),
            zoom,
        );
        let mut out = Vec::with_capacity(((hi.row - lo.row + 1) * (hi.col - lo.col + 1)) as usize);
        for row in lo.row..=hi.row {
            for col in lo.col..=hi.col {
                out.push(TileId { zoom, col, row });
            }
        }
        out
    }

    /// Pick a zoom level such that one tile is no larger than `target` on
    /// the x axis (capped at `max_zoom`).
    pub fn zoom_for_resolution(&self, target: f64, max_zoom: u8) -> u8 {
        let mut zoom = 0u8;
        let mut width = self.domain.width();
        while width > target && zoom < max_zoom {
            width /= 2.0;
            zoom += 1;
        }
        zoom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_roundtrip() {
        let grid = TileGrid::global();
        let c = Coord::new(2.3522, 48.8566); // Paris
        for zoom in 0..12 {
            let t = grid.tile_at(c, zoom);
            let env = grid.tile_envelope(t);
            assert!(env.contains_coord(c), "zoom {zoom}: {env:?} misses {c:?}");
        }
    }

    #[test]
    fn zoom_zero_single_tile() {
        let grid = TileGrid::global();
        let t = grid.tile_at(Coord::new(100.0, -45.0), 0);
        assert_eq!(
            t,
            TileId {
                zoom: 0,
                col: 0,
                row: 0
            }
        );
        assert_eq!(grid.tile_envelope(t), grid.domain);
    }

    #[test]
    fn covering_counts() {
        let grid = TileGrid::global();
        // One hemisphere at zoom 1 = 1x2 tiles (west half).
        let west = Envelope::new(-179.0, -89.0, -1.0, 89.0);
        assert_eq!(grid.covering(&west, 1).len(), 2);
        // Whole domain at zoom 2 = 16 tiles.
        assert_eq!(grid.covering(&grid.domain, 2).len(), 16);
    }

    #[test]
    fn covering_tiles_actually_cover() {
        let grid = TileGrid::global();
        let q = Envelope::new(2.0, 48.0, 3.0, 49.0);
        let tiles = grid.covering(&q, 8);
        assert!(!tiles.is_empty());
        let mut union = Envelope::EMPTY;
        for t in &tiles {
            union.expand(&grid.tile_envelope(*t));
        }
        assert!(union.contains_envelope(&q));
    }

    #[test]
    fn out_of_domain_clamps() {
        let grid = TileGrid::global();
        let t = grid.tile_at(Coord::new(500.0, 500.0), 3);
        assert_eq!(t.col, 7);
        assert_eq!(t.row, 7);
        assert!(grid
            .covering(&Envelope::new(200.0, 95.0, 210.0, 99.0), 3)
            .is_empty());
    }

    #[test]
    fn zoom_for_resolution() {
        let grid = TileGrid::global();
        assert_eq!(grid.zoom_for_resolution(360.0, 20), 0);
        assert_eq!(grid.zoom_for_resolution(180.0, 20), 1);
        assert_eq!(grid.zoom_for_resolution(1.0, 20), 9); // 360/2^9 ≈ 0.70
        assert_eq!(grid.zoom_for_resolution(0.0001, 4), 4); // capped
    }
}
