//! OGC Simple Features topological predicates.
//!
//! These are the `geof:sf*` functions of GeoSPARQL. The implementation is a
//! boolean decision kernel rather than a full DE-9IM matrix computation: each
//! predicate is decided from segment intersection tests, point-in-polygon
//! location, and dimension rules. This matches the behaviour required by the
//! App Lab workloads (which use `sfIntersects`, `sfWithin`, `sfContains`,
//! `sfTouches`, `sfCrosses`, `sfOverlaps`, `sfEquals`, `sfDisjoint`) on valid
//! geometries. Degenerate inputs (self-intersecting rings) are not rejected
//! but their results are unspecified, as in most production engines.

use crate::algorithms::{
    locate_in_polygon, locate_in_ring, polygon_covers_point, segments_intersect, RingPosition,
};
use crate::coord::Coord;
use crate::geometry::{Geometry, LineString, Polygon};

/// The named simple-features relations, used by the SPARQL layer to map
/// `geof:` function IRIs onto evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialRelation {
    Equals,
    Disjoint,
    Intersects,
    Touches,
    Within,
    Contains,
    Overlaps,
    Crosses,
}

impl SpatialRelation {
    /// Evaluate the relation between two geometries.
    pub fn evaluate(self, a: &Geometry, b: &Geometry) -> bool {
        match self {
            SpatialRelation::Equals => equals(a, b),
            SpatialRelation::Disjoint => disjoint(a, b),
            SpatialRelation::Intersects => intersects(a, b),
            SpatialRelation::Touches => touches(a, b),
            SpatialRelation::Within => within(a, b),
            SpatialRelation::Contains => contains(a, b),
            SpatialRelation::Overlaps => overlaps(a, b),
            SpatialRelation::Crosses => crosses(a, b),
        }
    }

    /// The GeoSPARQL function local name (e.g. `sfIntersects`).
    pub fn geof_name(self) -> &'static str {
        match self {
            SpatialRelation::Equals => "sfEquals",
            SpatialRelation::Disjoint => "sfDisjoint",
            SpatialRelation::Intersects => "sfIntersects",
            SpatialRelation::Touches => "sfTouches",
            SpatialRelation::Within => "sfWithin",
            SpatialRelation::Contains => "sfContains",
            SpatialRelation::Overlaps => "sfOverlaps",
            SpatialRelation::Crosses => "sfCrosses",
        }
    }

    pub fn from_geof_name(name: &str) -> Option<Self> {
        Some(match name {
            "sfEquals" => SpatialRelation::Equals,
            "sfDisjoint" => SpatialRelation::Disjoint,
            "sfIntersects" => SpatialRelation::Intersects,
            "sfTouches" => SpatialRelation::Touches,
            "sfWithin" => SpatialRelation::Within,
            "sfContains" => SpatialRelation::Contains,
            "sfOverlaps" => SpatialRelation::Overlaps,
            "sfCrosses" => SpatialRelation::Crosses,
            _ => return None,
        })
    }
}

/// How two primitive geometries meet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Meet {
    /// No common points.
    None,
    /// Common points exist only on both boundaries (or at endpoints).
    BoundaryOnly,
    /// Interiors share at least one point.
    Interior,
}

impl Meet {
    fn merge(self, other: Meet) -> Meet {
        use Meet::*;
        match (self, other) {
            (Interior, _) | (_, Interior) => Interior,
            (BoundaryOnly, _) | (_, BoundaryOnly) => BoundaryOnly,
            _ => None,
        }
    }

    fn any(self) -> bool {
        self != Meet::None
    }
}

/// `a` and `b` share at least one point.
pub fn intersects(a: &Geometry, b: &Geometry) -> bool {
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    meet(a, b).any()
}

/// `a` and `b` share no point.
pub fn disjoint(a: &Geometry, b: &Geometry) -> bool {
    !intersects(a, b)
}

/// `a` and `b` intersect, but only on their boundaries (no interior-interior
/// contact). Per the OGC definition, `touches` never holds for point/point.
pub fn touches(a: &Geometry, b: &Geometry) -> bool {
    if a.dimension() == 0 && b.dimension() == 0 {
        return false;
    }
    if !a.envelope().intersects(&b.envelope()) {
        return false;
    }
    meet(a, b) == Meet::BoundaryOnly
}

/// Every point of `a` lies in `b` (interior or boundary) and the interiors
/// intersect.
pub fn within(a: &Geometry, b: &Geometry) -> bool {
    if a.is_empty() || b.is_empty() {
        return false;
    }
    if !b.envelope().contains_envelope(&a.envelope()) {
        return false;
    }
    covered(a, b) && meet(a, b) == Meet::Interior
}

/// Inverse of [`within`].
pub fn contains(a: &Geometry, b: &Geometry) -> bool {
    within(b, a)
}

/// Geometries are spatially equal: each is within the other (point-set
/// equality, not coordinate-list equality).
pub fn equals(a: &Geometry, b: &Geometry) -> bool {
    if a.is_empty() && b.is_empty() {
        return true;
    }
    covered(a, b) && covered(b, a)
}

/// Same-dimension geometries whose interiors intersect but neither covers the
/// other.
pub fn overlaps(a: &Geometry, b: &Geometry) -> bool {
    if a.dimension() != b.dimension() {
        return false;
    }
    meet(a, b) == Meet::Interior && !covered(a, b) && !covered(b, a)
}

/// Interiors intersect, the intersection has lower dimension than the
/// higher-dimensional input, and neither covers the other. Defined for
/// mixed-dimension pairs and line/line.
pub fn crosses(a: &Geometry, b: &Geometry) -> bool {
    let (da, db) = (a.dimension(), b.dimension());
    if da == db && da != 1 {
        return false; // crosses is undefined for point/point and area/area
    }
    if meet(a, b) != Meet::Interior {
        return false;
    }
    if da == 1 && db == 1 {
        // Line/line: crosses iff they meet at interior points but do not run
        // together (no collinear interior overlap) — approximate with
        // "neither covered".
        return !covered(a, b) && !covered(b, a);
    }
    // Mixed dimensions: the lower-dimensional one must not be covered... it
    // must stick out of the other.
    let (lo, hi) = if da < db { (a, b) } else { (b, a) };
    !covered(lo, hi)
}

// ---------------------------------------------------------------------------
// Kernel: pairwise primitive meets and coverage.
// ---------------------------------------------------------------------------

fn meet(a: &Geometry, b: &Geometry) -> Meet {
    let mut acc = Meet::None;
    for pa in a.parts() {
        for pb in b.parts() {
            if !pa.envelope().intersects(&pb.envelope()) {
                continue;
            }
            acc = acc.merge(primitive_meet(&pa, &pb));
            if acc == Meet::Interior {
                return acc;
            }
        }
    }
    acc
}

fn primitive_meet(a: &Geometry, b: &Geometry) -> Meet {
    use Geometry::*;
    match (a, b) {
        (Point(p), Point(q)) => {
            if p.coord().coincides(&q.coord()) {
                Meet::Interior
            } else {
                Meet::None
            }
        }
        (Point(p), LineString(l)) | (LineString(l), Point(p)) => point_line_meet(p.coord(), l),
        (Point(p), Polygon(poly)) | (Polygon(poly), Point(p)) => {
            match locate_in_polygon(p.coord(), poly) {
                RingPosition::Inside => Meet::Interior,
                RingPosition::Boundary => Meet::BoundaryOnly,
                RingPosition::Outside => Meet::None,
            }
        }
        (LineString(l1), LineString(l2)) => line_line_meet(l1, l2),
        (LineString(l), Polygon(p)) | (Polygon(p), LineString(l)) => line_polygon_meet(l, p),
        (Polygon(p1), Polygon(p2)) => polygon_polygon_meet(p1, p2),
        _ => Meet::None, // parts() never yields multis/collections
    }
}

fn point_line_meet(p: Coord, l: &LineString) -> Meet {
    if l.is_empty() {
        return Meet::None;
    }
    // Line boundary = its endpoints (for open lines).
    let closed = l.is_closed_ring() || (l.len() >= 2 && l.0.first() == l.0.last());
    if !closed && (p.coincides(l.0.first().unwrap()) || p.coincides(l.0.last().unwrap())) {
        return Meet::BoundaryOnly;
    }
    for (a, b) in l.segments() {
        if crate::algorithms::point_segment_distance(p, a, b) == 0.0 {
            return Meet::Interior;
        }
    }
    Meet::None
}

fn line_line_meet(l1: &LineString, l2: &LineString) -> Meet {
    let mut acc = Meet::None;
    let ends1 = line_endpoints(l1);
    let ends2 = line_endpoints(l2);
    for (a1, a2) in l1.segments() {
        for (b1, b2) in l2.segments() {
            if !segments_intersect(a1, a2, b1, b2) {
                continue;
            }
            // Decide if the contact is endpoint-only.
            let contact_at_end = |p: Coord| {
                ends1.iter().any(|e| e.coincides(&p)) || ends2.iter().any(|e| e.coincides(&p))
            };
            // Find a witness point of the intersection: try endpoints first.
            let candidates = [a1, a2, b1, b2];
            let mut endpoint_contact = false;
            let mut interior_contact = false;
            for c in candidates {
                let on_a = crate::algorithms::point_segment_distance(c, a1, a2) == 0.0;
                let on_b = crate::algorithms::point_segment_distance(c, b1, b2) == 0.0;
                if on_a && on_b {
                    if contact_at_end(c) {
                        endpoint_contact = true;
                    } else {
                        interior_contact = true;
                    }
                }
            }
            if !endpoint_contact && !interior_contact {
                // Proper crossing: intersection point is interior to both.
                interior_contact = true;
            }
            if interior_contact {
                return Meet::Interior;
            }
            if endpoint_contact {
                acc = acc.merge(Meet::BoundaryOnly);
            }
        }
    }
    acc
}

fn line_endpoints(l: &LineString) -> Vec<Coord> {
    if l.len() < 2 || l.0.first() == l.0.last() {
        Vec::new() // closed lines have an empty boundary
    } else {
        vec![*l.0.first().unwrap(), *l.0.last().unwrap()]
    }
}

fn line_polygon_meet(l: &LineString, p: &Polygon) -> Meet {
    let mut boundary = false;
    for &c in l.coords() {
        match locate_in_polygon(c, p) {
            RingPosition::Inside => return Meet::Interior,
            RingPosition::Boundary => boundary = true,
            RingPosition::Outside => {}
        }
    }
    // Check segment midpoints too: a segment can pass through the polygon
    // with both endpoints outside or on the boundary.
    for (a, b) in l.segments() {
        let mid = Coord::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0);
        match locate_in_polygon(mid, p) {
            RingPosition::Inside => return Meet::Interior,
            RingPosition::Boundary => boundary = true,
            RingPosition::Outside => {}
        }
        for ring in p.rings() {
            for (r1, r2) in ring.segments() {
                if segments_intersect(a, b, r1, r2) {
                    boundary = true;
                }
            }
        }
    }
    if boundary {
        Meet::BoundaryOnly
    } else {
        Meet::None
    }
}

fn polygon_polygon_meet(p1: &Polygon, p2: &Polygon) -> Meet {
    let mut boundary = false;
    // Vertex containment both ways.
    for &c in p1.exterior.coords() {
        match locate_in_polygon(c, p2) {
            RingPosition::Inside => return Meet::Interior,
            RingPosition::Boundary => boundary = true,
            RingPosition::Outside => {}
        }
    }
    for &c in p2.exterior.coords() {
        match locate_in_polygon(c, p1) {
            RingPosition::Inside => return Meet::Interior,
            RingPosition::Boundary => boundary = true,
            RingPosition::Outside => {}
        }
    }
    // Edge crossings: if boundaries cross (not just touch), interiors overlap.
    for r1 in p1.rings() {
        for (a1, a2) in r1.segments() {
            for r2 in p2.rings() {
                for (b1, b2) in r2.segments() {
                    if segments_intersect(a1, a2, b1, b2) {
                        boundary = true;
                        // Midpoint probes decide interior contact.
                        let mid1 = Coord::new((a1.x + a2.x) / 2.0, (a1.y + a2.y) / 2.0);
                        let mid2 = Coord::new((b1.x + b2.x) / 2.0, (b1.y + b2.y) / 2.0);
                        if locate_in_polygon(mid1, p2) == RingPosition::Inside
                            || locate_in_polygon(mid2, p1) == RingPosition::Inside
                        {
                            return Meet::Interior;
                        }
                    }
                }
            }
        }
    }
    // One polygon entirely inside the other (no edge contact at all)?
    if !boundary {
        if let Some(&c) = p1.exterior.coords().first() {
            if locate_in_polygon(c, p2) == RingPosition::Inside {
                return Meet::Interior;
            }
        }
        if let Some(&c) = p2.exterior.coords().first() {
            if locate_in_polygon(c, p1) == RingPosition::Inside {
                return Meet::Interior;
            }
        }
    }
    if boundary {
        Meet::BoundaryOnly
    } else {
        Meet::None
    }
}

/// Every point of `a` lies within `b` (interior or boundary) — the OGC
/// `covers(b, a)` relation, decided per primitive part.
fn covered(a: &Geometry, b: &Geometry) -> bool {
    if a.is_empty() {
        return false;
    }
    let b_parts = b.parts();
    a.parts().iter().all(|pa| primitive_covered(pa, &b_parts))
}

fn primitive_covered(a: &Geometry, b_parts: &[Geometry]) -> bool {
    use Geometry::*;
    match a {
        Point(p) => b_parts.iter().any(|pb| match pb {
            Point(q) => p.coord().coincides(&q.coord()),
            LineString(l) => l
                .segments()
                .any(|(s, e)| crate::algorithms::point_segment_distance(p.coord(), s, e) == 0.0),
            Polygon(poly) => polygon_covers_point(poly, p.coord()),
            _ => false,
        }),
        LineString(l) => {
            // Sample vertices and segment midpoints; each must be covered by
            // some part of b. Exact for convex parts, and a close
            // approximation elsewhere (documented module-level).
            sample_line(l).iter().all(|&c| {
                b_parts.iter().any(|pb| match pb {
                    Polygon(poly) => polygon_covers_point(poly, c),
                    LineString(l2) => l2
                        .segments()
                        .any(|(s, e)| crate::algorithms::point_segment_distance(c, s, e) < 1e-12),
                    _ => false,
                })
            })
        }
        Polygon(p) => {
            // All exterior samples covered AND no part of b's boundary passes
            // strictly through p (which would cut area out of it).
            let samples: Vec<Coord> = sample_line(&p.exterior);
            samples.iter().all(|&c| {
                b_parts.iter().any(|pb| match pb {
                    Polygon(poly) => polygon_covers_point(poly, c),
                    _ => false,
                })
            })
        }
        _ => false,
    }
}

fn sample_line(l: &LineString) -> Vec<Coord> {
    let mut out: Vec<Coord> = l.coords().to_vec();
    for (a, b) in l.segments() {
        out.push(Coord::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0));
    }
    out
}

/// Point-in-ring re-export used by the store's spatial filters.
pub fn point_in_ring(p: Coord, ring: &[Coord]) -> bool {
    locate_in_ring(p, ring) != RingPosition::Outside
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Geometry {
        Geometry::rect(x0, y0, x1, y1)
    }

    fn line(coords: &[(f64, f64)]) -> Geometry {
        Geometry::LineString(LineString::new(
            coords.iter().map(|&(x, y)| Coord::new(x, y)).collect(),
        ))
    }

    #[test]
    fn point_point() {
        let a = Geometry::point(1.0, 1.0);
        let b = Geometry::point(1.0, 1.0);
        let c = Geometry::point(2.0, 1.0);
        assert!(intersects(&a, &b));
        assert!(equals(&a, &b));
        assert!(disjoint(&a, &c));
        assert!(!touches(&a, &b)); // touches undefined for point/point
    }

    #[test]
    fn point_in_polygon_relations() {
        let poly = rect(0.0, 0.0, 10.0, 10.0);
        let inside = Geometry::point(5.0, 5.0);
        let border = Geometry::point(10.0, 5.0);
        let outside = Geometry::point(15.0, 5.0);
        assert!(within(&inside, &poly));
        assert!(contains(&poly, &inside));
        assert!(intersects(&border, &poly));
        assert!(touches(&border, &poly));
        assert!(!within(&border, &poly)); // boundary point: no interior contact
        assert!(disjoint(&outside, &poly));
    }

    #[test]
    fn overlapping_rectangles() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let b = rect(2.0, 2.0, 6.0, 6.0);
        assert!(intersects(&a, &b));
        assert!(overlaps(&a, &b));
        assert!(!within(&a, &b));
        assert!(!touches(&a, &b));
    }

    #[test]
    fn edge_touching_rectangles() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let b = rect(4.0, 0.0, 8.0, 4.0);
        assert!(intersects(&a, &b));
        assert!(touches(&a, &b));
        assert!(!overlaps(&a, &b));
    }

    #[test]
    fn corner_touching_rectangles() {
        let a = rect(0.0, 0.0, 4.0, 4.0);
        let b = rect(4.0, 4.0, 8.0, 8.0);
        assert!(touches(&a, &b));
    }

    #[test]
    fn nested_rectangles() {
        let outer = rect(0.0, 0.0, 10.0, 10.0);
        let inner = rect(2.0, 2.0, 4.0, 4.0);
        assert!(within(&inner, &outer));
        assert!(contains(&outer, &inner));
        assert!(!overlaps(&inner, &outer));
        assert!(!touches(&inner, &outer));
    }

    #[test]
    fn hole_excludes_containment() {
        let mut p = Polygon::rect(0.0, 0.0, 10.0, 10.0);
        p.interiors.push(Polygon::rect(3.0, 3.0, 7.0, 7.0).exterior);
        let donut = Geometry::Polygon(p);
        let in_hole = Geometry::point(5.0, 5.0);
        assert!(disjoint(&in_hole, &donut));
        let in_ring = Geometry::point(1.0, 1.0);
        assert!(within(&in_ring, &donut));
    }

    #[test]
    fn line_crosses_polygon() {
        let poly = rect(0.0, 0.0, 10.0, 10.0);
        let l = line(&[(-5.0, 5.0), (15.0, 5.0)]);
        assert!(intersects(&l, &poly));
        assert!(crosses(&l, &poly));
        assert!(!within(&l, &poly));
    }

    #[test]
    fn line_within_polygon() {
        let poly = rect(0.0, 0.0, 10.0, 10.0);
        let l = line(&[(1.0, 1.0), (9.0, 9.0)]);
        assert!(within(&l, &poly));
        assert!(!crosses(&l, &poly));
    }

    #[test]
    fn line_touches_polygon_edge() {
        let poly = rect(0.0, 0.0, 10.0, 10.0);
        let l = line(&[(0.0, -5.0), (0.0, 15.0)]); // runs along the x=0 edge
        assert!(intersects(&l, &poly));
        assert!(touches(&l, &poly));
    }

    #[test]
    fn crossing_lines() {
        let a = line(&[(0.0, 0.0), (10.0, 10.0)]);
        let b = line(&[(0.0, 10.0), (10.0, 0.0)]);
        assert!(intersects(&a, &b));
        assert!(crosses(&a, &b));
        assert!(!touches(&a, &b));
    }

    #[test]
    fn endpoint_touching_lines() {
        let a = line(&[(0.0, 0.0), (5.0, 5.0)]);
        let b = line(&[(5.0, 5.0), (10.0, 0.0)]);
        assert!(touches(&a, &b));
        assert!(!crosses(&a, &b));
    }

    #[test]
    fn equal_polygons_different_start() {
        let a = Geometry::Polygon(Polygon::from_exterior(vec![
            Coord::new(0.0, 0.0),
            Coord::new(4.0, 0.0),
            Coord::new(4.0, 4.0),
            Coord::new(0.0, 4.0),
            Coord::new(0.0, 0.0),
        ]));
        let b = Geometry::Polygon(Polygon::from_exterior(vec![
            Coord::new(4.0, 0.0),
            Coord::new(4.0, 4.0),
            Coord::new(0.0, 4.0),
            Coord::new(0.0, 0.0),
            Coord::new(4.0, 0.0),
        ]));
        assert!(equals(&a, &b));
    }

    #[test]
    fn multipolygon_relations() {
        let mp = Geometry::MultiPolygon(vec![
            Polygon::rect(0.0, 0.0, 2.0, 2.0),
            Polygon::rect(5.0, 5.0, 7.0, 7.0),
        ]);
        assert!(intersects(&mp, &Geometry::point(6.0, 6.0)));
        assert!(disjoint(&mp, &Geometry::point(3.5, 3.5)));
        assert!(contains(&mp, &Geometry::point(1.0, 1.0)));
    }

    #[test]
    fn relation_roundtrip_names() {
        for rel in [
            SpatialRelation::Equals,
            SpatialRelation::Disjoint,
            SpatialRelation::Intersects,
            SpatialRelation::Touches,
            SpatialRelation::Within,
            SpatialRelation::Contains,
            SpatialRelation::Overlaps,
            SpatialRelation::Crosses,
        ] {
            assert_eq!(SpatialRelation::from_geof_name(rel.geof_name()), Some(rel));
        }
        assert_eq!(SpatialRelation::from_geof_name("sfBogus"), None);
    }

    #[test]
    fn multipoint_vs_point_within() {
        let mp = Geometry::MultiPoint(vec![Point::new(1.0, 1.0), Point::new(2.0, 2.0)]);
        let poly = rect(0.0, 0.0, 5.0, 5.0);
        assert!(within(&mp, &poly));
    }
}
