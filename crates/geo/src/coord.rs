//! Planar coordinates and axis-aligned bounding envelopes.

/// A 2-D coordinate. In the Copernicus setting `x` is longitude (degrees
/// east) and `y` is latitude (degrees north), but nothing in this crate
/// assumes a particular CRS: all algorithms are planar, which is how the
/// paper's stack treats GeoSPARQL WGS84 literals as well.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coord {
    pub x: f64,
    pub y: f64,
}

impl Coord {
    pub const fn new(x: f64, y: f64) -> Self {
        Coord { x, y }
    }

    /// Euclidean distance to another coordinate.
    pub fn distance(&self, other: &Coord) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared Euclidean distance (avoids the square root in hot loops).
    pub fn distance_sq(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Exact equality of both ordinates (no tolerance).
    pub fn coincides(&self, other: &Coord) -> bool {
        self.x == other.x && self.y == other.y
    }
}

impl From<(f64, f64)> for Coord {
    fn from((x, y): (f64, f64)) -> Self {
        Coord::new(x, y)
    }
}

/// An axis-aligned bounding box. `Envelope::EMPTY` is the identity of
/// [`Envelope::union`]; it contains nothing and intersects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Envelope {
    /// The empty envelope (inverted bounds).
    pub const EMPTY: Envelope = Envelope {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        Envelope {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Envelope of a single coordinate.
    pub fn of_coord(c: Coord) -> Self {
        Envelope::new(c.x, c.y, c.x, c.y)
    }

    /// Envelope of a coordinate slice; `EMPTY` for an empty slice.
    pub fn of_coords(coords: &[Coord]) -> Self {
        let mut e = Envelope::EMPTY;
        for c in coords {
            e.expand_coord(*c);
        }
        e
    }

    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    pub fn width(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_x - self.min_x
        }
    }

    pub fn height(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max_y - self.min_y
        }
    }

    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    pub fn center(&self) -> Coord {
        Coord::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Grow in place to cover `c`.
    pub fn expand_coord(&mut self, c: Coord) {
        self.min_x = self.min_x.min(c.x);
        self.min_y = self.min_y.min(c.y);
        self.max_x = self.max_x.max(c.x);
        self.max_y = self.max_y.max(c.y);
    }

    /// Grow in place to cover `other`.
    pub fn expand(&mut self, other: &Envelope) {
        if other.is_empty() {
            return;
        }
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// The smallest envelope covering both inputs.
    pub fn union(&self, other: &Envelope) -> Envelope {
        let mut e = *self;
        e.expand(other);
        e
    }

    /// Grow the envelope by `margin` on every side.
    pub fn buffered(&self, margin: f64) -> Envelope {
        if self.is_empty() {
            return *self;
        }
        Envelope::new(
            self.min_x - margin,
            self.min_y - margin,
            self.max_x + margin,
            self.max_y + margin,
        )
    }

    /// Closed-interval intersection test. Empty envelopes intersect nothing.
    pub fn intersects(&self, other: &Envelope) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// True if `other` lies entirely inside (or on the border of) `self`.
    pub fn contains_envelope(&self, other: &Envelope) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        self.min_x <= other.min_x
            && self.max_x >= other.max_x
            && self.min_y <= other.min_y
            && self.max_y >= other.max_y
    }

    pub fn contains_coord(&self, c: Coord) -> bool {
        !self.is_empty()
            && c.x >= self.min_x
            && c.x <= self.max_x
            && c.y >= self.min_y
            && c.y <= self.max_y
    }

    /// The overlapping region, or `EMPTY` when disjoint.
    pub fn intersection(&self, other: &Envelope) -> Envelope {
        if !self.intersects(other) {
            return Envelope::EMPTY;
        }
        Envelope::new(
            self.min_x.max(other.min_x),
            self.min_y.max(other.min_y),
            self.max_x.min(other.max_x),
            self.max_y.min(other.max_y),
        )
    }

    /// Minimum distance between two envelopes (0 when they intersect).
    pub fn distance(&self, other: &Envelope) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        let dx = if other.min_x > self.max_x {
            other.min_x - self.max_x
        } else if self.min_x > other.max_x {
            self.min_x - other.max_x
        } else {
            0.0
        };
        let dy = if other.min_y > self.max_y {
            other.min_y - self.max_y
        } else if self.min_y > other.max_y {
            self.min_y - other.max_y
        } else {
            0.0
        };
        dx.hypot(dy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_envelope_properties() {
        let e = Envelope::EMPTY;
        assert!(e.is_empty());
        assert_eq!(e.width(), 0.0);
        assert_eq!(e.area(), 0.0);
        assert!(!e.intersects(&Envelope::new(0.0, 0.0, 1.0, 1.0)));
        assert!(!e.contains_coord(Coord::new(0.0, 0.0)));
    }

    #[test]
    fn union_identity() {
        let a = Envelope::new(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.union(&Envelope::EMPTY), a);
        let mut e = Envelope::EMPTY;
        e.expand(&a);
        assert_eq!(e, a);
    }

    #[test]
    fn intersection_and_distance() {
        let a = Envelope::new(0.0, 0.0, 2.0, 2.0);
        let b = Envelope::new(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Envelope::new(1.0, 1.0, 2.0, 2.0));
        assert_eq!(a.distance(&b), 0.0);

        let c = Envelope::new(5.0, 2.0, 6.0, 3.0);
        assert!(!a.intersects(&c));
        assert_eq!(a.distance(&c), 3.0);

        let d = Envelope::new(5.0, 6.0, 7.0, 8.0);
        assert!((a.distance(&d) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let a = Envelope::new(0.0, 0.0, 10.0, 10.0);
        let b = Envelope::new(2.0, 2.0, 3.0, 3.0);
        assert!(a.contains_envelope(&b));
        assert!(!b.contains_envelope(&a));
        assert!(a.contains_envelope(&a));
        assert!(a.contains_coord(Coord::new(10.0, 10.0)));
        assert!(!a.contains_coord(Coord::new(10.1, 10.0)));
    }

    #[test]
    fn of_coords_covers_all() {
        let coords = [
            Coord::new(2.0, 48.0),
            Coord::new(2.5, 48.9),
            Coord::new(2.2, 48.5),
        ];
        let e = Envelope::of_coords(&coords);
        for c in coords {
            assert!(e.contains_coord(c));
        }
        assert_eq!(e, Envelope::new(2.0, 48.0, 2.5, 48.9));
    }

    #[test]
    fn buffered_grows() {
        let a = Envelope::new(0.0, 0.0, 1.0, 1.0).buffered(0.5);
        assert_eq!(a, Envelope::new(-0.5, -0.5, 1.5, 1.5));
        assert!(Envelope::EMPTY.buffered(1.0).is_empty());
    }
}
