//! The simple-features geometry model.

use crate::coord::{Coord, Envelope};

/// A point geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point(pub Coord);

impl Point {
    pub fn new(x: f64, y: f64) -> Self {
        Point(Coord::new(x, y))
    }

    pub fn coord(&self) -> Coord {
        self.0
    }

    pub fn x(&self) -> f64 {
        self.0.x
    }

    pub fn y(&self) -> f64 {
        self.0.y
    }
}

/// An ordered sequence of coordinates. Used both for standalone linestrings
/// and for polygon rings (in which case the first and last coordinates must
/// coincide).
#[derive(Debug, Clone, PartialEq)]
pub struct LineString(pub Vec<Coord>);

impl LineString {
    pub fn new(coords: Vec<Coord>) -> Self {
        LineString(coords)
    }

    pub fn coords(&self) -> &[Coord] {
        &self.0
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the first and last coordinates coincide and the line has at
    /// least four coordinates (the minimum for a valid ring).
    pub fn is_closed_ring(&self) -> bool {
        self.0.len() >= 4 && self.0.first().unwrap().coincides(self.0.last().unwrap())
    }

    /// Iterator over consecutive coordinate pairs.
    pub fn segments(&self) -> impl Iterator<Item = (Coord, Coord)> + '_ {
        self.0.windows(2).map(|w| (w[0], w[1]))
    }

    pub fn envelope(&self) -> Envelope {
        Envelope::of_coords(&self.0)
    }
}

/// A polygon with one exterior ring and zero or more interior rings (holes).
/// Rings are stored as closed [`LineString`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    pub exterior: LineString,
    pub interiors: Vec<LineString>,
}

impl Polygon {
    pub fn new(exterior: LineString, interiors: Vec<LineString>) -> Self {
        Polygon {
            exterior,
            interiors,
        }
    }

    /// A polygon without holes.
    pub fn from_exterior(coords: Vec<Coord>) -> Self {
        Polygon::new(LineString::new(coords), Vec::new())
    }

    /// An axis-aligned rectangle polygon.
    pub fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Polygon::from_exterior(vec![
            Coord::new(min_x, min_y),
            Coord::new(max_x, min_y),
            Coord::new(max_x, max_y),
            Coord::new(min_x, max_y),
            Coord::new(min_x, min_y),
        ])
    }

    pub fn envelope(&self) -> Envelope {
        self.exterior.envelope()
    }

    /// All rings: the exterior first, then the interiors.
    pub fn rings(&self) -> impl Iterator<Item = &LineString> {
        std::iter::once(&self.exterior).chain(self.interiors.iter())
    }
}

/// Any simple-features geometry.
#[derive(Debug, Clone, PartialEq)]
pub enum Geometry {
    Point(Point),
    MultiPoint(Vec<Point>),
    LineString(LineString),
    MultiLineString(Vec<LineString>),
    Polygon(Polygon),
    MultiPolygon(Vec<Polygon>),
    GeometryCollection(Vec<Geometry>),
}

impl Geometry {
    pub fn point(x: f64, y: f64) -> Self {
        Geometry::Point(Point::new(x, y))
    }

    pub fn rect(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Geometry::Polygon(Polygon::rect(min_x, min_y, max_x, max_y))
    }

    /// Topological dimension: 0 for points, 1 for lines, 2 for areas.
    /// Collections report the maximum dimension of their members.
    pub fn dimension(&self) -> u8 {
        match self {
            Geometry::Point(_) | Geometry::MultiPoint(_) => 0,
            Geometry::LineString(_) | Geometry::MultiLineString(_) => 1,
            Geometry::Polygon(_) | Geometry::MultiPolygon(_) => 2,
            Geometry::GeometryCollection(gs) => {
                gs.iter().map(Geometry::dimension).max().unwrap_or(0)
            }
        }
    }

    pub fn is_empty(&self) -> bool {
        match self {
            Geometry::Point(_) => false,
            Geometry::MultiPoint(ps) => ps.is_empty(),
            Geometry::LineString(ls) => ls.is_empty(),
            Geometry::MultiLineString(ls) => ls.iter().all(LineString::is_empty),
            Geometry::Polygon(p) => p.exterior.is_empty(),
            Geometry::MultiPolygon(ps) => ps.iter().all(|p| p.exterior.is_empty()),
            Geometry::GeometryCollection(gs) => gs.iter().all(Geometry::is_empty),
        }
    }

    pub fn envelope(&self) -> Envelope {
        match self {
            Geometry::Point(p) => Envelope::of_coord(p.coord()),
            Geometry::MultiPoint(ps) => {
                let coords: Vec<Coord> = ps.iter().map(Point::coord).collect();
                Envelope::of_coords(&coords)
            }
            Geometry::LineString(ls) => ls.envelope(),
            Geometry::MultiLineString(ls) => {
                let mut e = Envelope::EMPTY;
                for l in ls {
                    e.expand(&l.envelope());
                }
                e
            }
            Geometry::Polygon(p) => p.envelope(),
            Geometry::MultiPolygon(ps) => {
                let mut e = Envelope::EMPTY;
                for p in ps {
                    e.expand(&p.envelope());
                }
                e
            }
            Geometry::GeometryCollection(gs) => {
                let mut e = Envelope::EMPTY;
                for g in gs {
                    e.expand(&g.envelope());
                }
                e
            }
        }
    }

    /// Every coordinate of the geometry, in definition order.
    pub fn coords(&self) -> Vec<Coord> {
        let mut out = Vec::new();
        self.collect_coords(&mut out);
        out
    }

    fn collect_coords(&self, out: &mut Vec<Coord>) {
        match self {
            Geometry::Point(p) => out.push(p.coord()),
            Geometry::MultiPoint(ps) => out.extend(ps.iter().map(Point::coord)),
            Geometry::LineString(ls) => out.extend_from_slice(&ls.0),
            Geometry::MultiLineString(ls) => {
                for l in ls {
                    out.extend_from_slice(&l.0);
                }
            }
            Geometry::Polygon(p) => {
                for r in p.rings() {
                    out.extend_from_slice(&r.0);
                }
            }
            Geometry::MultiPolygon(ps) => {
                for p in ps {
                    for r in p.rings() {
                        out.extend_from_slice(&r.0);
                    }
                }
            }
            Geometry::GeometryCollection(gs) => {
                for g in gs {
                    g.collect_coords(out);
                }
            }
        }
    }

    /// Decompose into primitive (non-multi, non-collection) parts.
    pub fn parts(&self) -> Vec<Geometry> {
        match self {
            Geometry::MultiPoint(ps) => ps.iter().copied().map(Geometry::Point).collect(),
            Geometry::MultiLineString(ls) => ls.iter().cloned().map(Geometry::LineString).collect(),
            Geometry::MultiPolygon(ps) => ps.iter().cloned().map(Geometry::Polygon).collect(),
            Geometry::GeometryCollection(gs) => gs.iter().flat_map(Geometry::parts).collect(),
            other => vec![other.clone()],
        }
    }
}

impl From<Point> for Geometry {
    fn from(p: Point) -> Self {
        Geometry::Point(p)
    }
}

impl From<LineString> for Geometry {
    fn from(l: LineString) -> Self {
        Geometry::LineString(l)
    }
}

impl From<Polygon> for Geometry {
    fn from(p: Polygon) -> Self {
        Geometry::Polygon(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_is_closed() {
        let p = Polygon::rect(0.0, 0.0, 1.0, 1.0);
        assert!(p.exterior.is_closed_ring());
        assert_eq!(p.envelope(), Envelope::new(0.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn dimension_of_collection_is_max() {
        let g = Geometry::GeometryCollection(vec![
            Geometry::point(0.0, 0.0),
            Geometry::rect(0.0, 0.0, 1.0, 1.0),
        ]);
        assert_eq!(g.dimension(), 2);
    }

    #[test]
    fn parts_flattens_nested_collections() {
        let g = Geometry::GeometryCollection(vec![
            Geometry::MultiPoint(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]),
            Geometry::GeometryCollection(vec![Geometry::point(2.0, 2.0)]),
        ]);
        assert_eq!(g.parts().len(), 3);
    }

    #[test]
    fn envelope_of_multipolygon() {
        let g = Geometry::MultiPolygon(vec![
            Polygon::rect(0.0, 0.0, 1.0, 1.0),
            Polygon::rect(5.0, 5.0, 6.0, 7.0),
        ]);
        assert_eq!(g.envelope(), Envelope::new(0.0, 0.0, 6.0, 7.0));
    }

    #[test]
    fn emptiness() {
        assert!(Geometry::MultiPoint(vec![]).is_empty());
        assert!(!Geometry::point(1.0, 2.0).is_empty());
        assert!(Geometry::GeometryCollection(vec![]).is_empty());
    }

    #[test]
    fn segments_iteration() {
        let ls = LineString::new(vec![
            Coord::new(0.0, 0.0),
            Coord::new(1.0, 0.0),
            Coord::new(1.0, 1.0),
        ]);
        let segs: Vec<_> = ls.segments().collect();
        assert_eq!(segs.len(), 2);
        assert!(segs[0].0.coincides(&Coord::new(0.0, 0.0)));
        assert!(segs[1].1.coincides(&Coord::new(1.0, 1.0)));
    }
}
