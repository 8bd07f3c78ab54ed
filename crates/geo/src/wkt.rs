//! Well-Known Text reading and writing.
//!
//! This is the serialization GeoSPARQL uses for `geo:wktLiteral` values
//! (optionally prefixed with a CRS IRI, which we accept and ignore since all
//! App Lab data is WGS84).

use crate::coord::Coord;
use crate::geometry::{Geometry, LineString, Point, Polygon};
use std::fmt;

/// Error produced while parsing WKT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WktError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for WktError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WKT parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for WktError {}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, WktError> {
        Err(WktError {
            message: message.into(),
            position: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), WktError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected '{}', found {:?}",
                b as char,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    fn keyword(&mut self) -> String {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_alphabetic() {
            self.pos += 1;
        }
        self.input[start..self.pos].to_ascii_uppercase()
    }

    /// Try to consume the keyword `EMPTY`; restores position on failure.
    fn try_empty(&mut self) -> bool {
        let save = self.pos;
        if self.keyword() == "EMPTY" {
            true
        } else {
            self.pos = save;
            false
        }
    }

    fn number(&mut self) -> Result<f64, WktError> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_digit() || b == b'-' || b == b'+' || b == b'.' || b == b'e' || b == b'E' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return self.err("expected number");
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|e| WktError {
                message: format!("bad number: {e}"),
                position: start,
            })
    }

    fn coord(&mut self) -> Result<Coord, WktError> {
        let x = self.number()?;
        let y = self.number()?;
        // Silently accept and drop a Z (and M) ordinate: some Copernicus
        // shapefile exports carry them, the stack is strictly 2-D.
        while matches!(self.peek(), Some(b) if b == b'-' || b == b'+' || b == b'.' || b.is_ascii_digit())
        {
            self.number()?;
        }
        Ok(Coord::new(x, y))
    }

    fn coord_seq(&mut self) -> Result<Vec<Coord>, WktError> {
        self.eat(b'(')?;
        let mut coords = vec![self.coord()?];
        while self.peek() == Some(b',') {
            self.eat(b',')?;
            coords.push(self.coord()?);
        }
        self.eat(b')')?;
        Ok(coords)
    }

    fn polygon_body(&mut self) -> Result<Polygon, WktError> {
        self.eat(b'(')?;
        let exterior = LineString::new(self.coord_seq()?);
        let mut interiors = Vec::new();
        while self.peek() == Some(b',') {
            self.eat(b',')?;
            interiors.push(LineString::new(self.coord_seq()?));
        }
        self.eat(b')')?;
        Ok(Polygon::new(exterior, interiors))
    }

    fn geometry(&mut self) -> Result<Geometry, WktError> {
        let kw = self.keyword();
        match kw.as_str() {
            "POINT" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPoint(vec![]));
                }
                self.eat(b'(')?;
                let c = self.coord()?;
                self.eat(b')')?;
                Ok(Geometry::Point(Point(c)))
            }
            "MULTIPOINT" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPoint(vec![]));
                }
                self.eat(b'(')?;
                let mut points = Vec::new();
                loop {
                    // Accept both `MULTIPOINT ((1 2), (3 4))` and
                    // `MULTIPOINT (1 2, 3 4)`.
                    if self.peek() == Some(b'(') {
                        self.eat(b'(')?;
                        points.push(Point(self.coord()?));
                        self.eat(b')')?;
                    } else {
                        points.push(Point(self.coord()?));
                    }
                    if self.peek() == Some(b',') {
                        self.eat(b',')?;
                    } else {
                        break;
                    }
                }
                self.eat(b')')?;
                Ok(Geometry::MultiPoint(points))
            }
            "LINESTRING" => {
                if self.try_empty() {
                    return Ok(Geometry::LineString(LineString::new(vec![])));
                }
                Ok(Geometry::LineString(LineString::new(self.coord_seq()?)))
            }
            "MULTILINESTRING" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiLineString(vec![]));
                }
                self.eat(b'(')?;
                let mut lines = vec![LineString::new(self.coord_seq()?)];
                while self.peek() == Some(b',') {
                    self.eat(b',')?;
                    lines.push(LineString::new(self.coord_seq()?));
                }
                self.eat(b')')?;
                Ok(Geometry::MultiLineString(lines))
            }
            "POLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPolygon(vec![]));
                }
                Ok(Geometry::Polygon(self.polygon_body()?))
            }
            "MULTIPOLYGON" => {
                if self.try_empty() {
                    return Ok(Geometry::MultiPolygon(vec![]));
                }
                self.eat(b'(')?;
                let mut polys = vec![self.polygon_body()?];
                while self.peek() == Some(b',') {
                    self.eat(b',')?;
                    polys.push(self.polygon_body()?);
                }
                self.eat(b')')?;
                Ok(Geometry::MultiPolygon(polys))
            }
            "GEOMETRYCOLLECTION" => {
                if self.try_empty() {
                    return Ok(Geometry::GeometryCollection(vec![]));
                }
                self.eat(b'(')?;
                let mut geoms = vec![self.geometry()?];
                while self.peek() == Some(b',') {
                    self.eat(b',')?;
                    geoms.push(self.geometry()?);
                }
                self.eat(b')')?;
                Ok(Geometry::GeometryCollection(geoms))
            }
            other => self.err(format!("unknown geometry type {other:?}")),
        }
    }
}

/// Parse a WKT string into a [`Geometry`].
///
/// An optional leading CRS IRI in angle brackets (the GeoSPARQL
/// `wktLiteral` convention, e.g. `<http://www.opengis.net/def/crs/EPSG/0/4326>
/// POINT(2.25 48.86)`) is accepted and ignored.
pub fn parse_wkt(input: &str) -> Result<Geometry, WktError> {
    let trimmed = input.trim_start();
    let offset = input.len() - trimmed.len();
    let body = if let Some(rest) = trimmed.strip_prefix('<') {
        match rest.find('>') {
            Some(end) => &rest[end + 1..],
            None => {
                return Err(WktError {
                    message: "unterminated CRS IRI".into(),
                    position: offset,
                })
            }
        }
    } else {
        trimmed
    };
    let mut p = Parser::new(body);
    let g = p.geometry()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after geometry");
    }
    Ok(g)
}

fn write_coord(out: &mut String, c: Coord) {
    use fmt::Write;
    // `{}` on f64 prints the shortest representation that round-trips.
    let _ = write!(out, "{} {}", c.x, c.y);
}

fn write_coord_seq(out: &mut String, coords: &[Coord]) {
    out.push('(');
    for (i, c) in coords.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_coord(out, *c);
    }
    out.push(')');
}

fn write_polygon_body(out: &mut String, p: &Polygon) {
    out.push('(');
    write_coord_seq(out, p.exterior.coords());
    for hole in &p.interiors {
        out.push_str(", ");
        write_coord_seq(out, hole.coords());
    }
    out.push(')');
}

/// Serialize a [`Geometry`] to WKT. The output round-trips through
/// [`parse_wkt`] exactly (f64 shortest-representation printing).
pub fn write_wkt(g: &Geometry) -> String {
    let mut out = String::new();
    write_geometry(&mut out, g);
    out
}

/// Append the WKT of `g` to `out` (what [`write_wkt`] returns).
pub fn write_geometry(out: &mut String, g: &Geometry) {
    match g {
        Geometry::Point(p) => {
            out.push_str("POINT (");
            write_coord(out, p.coord());
            out.push(')');
        }
        Geometry::MultiPoint(ps) => {
            if ps.is_empty() {
                out.push_str("MULTIPOINT EMPTY");
                return;
            }
            out.push_str("MULTIPOINT (");
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push('(');
                write_coord(out, p.coord());
                out.push(')');
            }
            out.push(')');
        }
        Geometry::LineString(ls) => {
            if ls.is_empty() {
                out.push_str("LINESTRING EMPTY");
                return;
            }
            out.push_str("LINESTRING ");
            write_coord_seq(out, ls.coords());
        }
        Geometry::MultiLineString(lines) => {
            if lines.is_empty() {
                out.push_str("MULTILINESTRING EMPTY");
                return;
            }
            out.push_str("MULTILINESTRING (");
            for (i, l) in lines.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_coord_seq(out, l.coords());
            }
            out.push(')');
        }
        Geometry::Polygon(p) => {
            if p.exterior.is_empty() {
                out.push_str("POLYGON EMPTY");
                return;
            }
            out.push_str("POLYGON ");
            write_polygon_body(out, p);
        }
        Geometry::MultiPolygon(ps) => {
            if ps.is_empty() {
                out.push_str("MULTIPOLYGON EMPTY");
                return;
            }
            out.push_str("MULTIPOLYGON (");
            for (i, p) in ps.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_polygon_body(out, p);
            }
            out.push(')');
        }
        Geometry::GeometryCollection(gs) => {
            if gs.is_empty() {
                out.push_str("GEOMETRYCOLLECTION EMPTY");
                return;
            }
            out.push_str("GEOMETRYCOLLECTION (");
            for (i, g) in gs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_geometry(out, g);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_point() {
        let g = parse_wkt("POINT (2.3522 48.8566)").unwrap();
        assert_eq!(g, Geometry::point(2.3522, 48.8566));
    }

    #[test]
    fn parse_point_with_crs_prefix() {
        let g = parse_wkt("<http://www.opengis.net/def/crs/EPSG/0/4326> POINT(2 48)").unwrap();
        assert_eq!(g, Geometry::point(2.0, 48.0));
    }

    #[test]
    fn parse_polygon_with_hole() {
        let g = parse_wkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))")
            .unwrap();
        match g {
            Geometry::Polygon(p) => {
                assert_eq!(p.exterior.len(), 5);
                assert_eq!(p.interiors.len(), 1);
            }
            other => panic!("expected polygon, got {other:?}"),
        }
    }

    #[test]
    fn parse_multipoint_both_syntaxes() {
        let a = parse_wkt("MULTIPOINT ((1 2), (3 4))").unwrap();
        let b = parse_wkt("MULTIPOINT (1 2, 3 4)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parse_collection() {
        let g = parse_wkt("GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 1 1))").unwrap();
        assert_eq!(g.parts().len(), 2);
    }

    #[test]
    fn parse_empty_variants() {
        assert!(parse_wkt("POINT EMPTY").unwrap().is_empty());
        assert!(parse_wkt("POLYGON EMPTY").unwrap().is_empty());
        assert!(parse_wkt("GEOMETRYCOLLECTION EMPTY").unwrap().is_empty());
    }

    #[test]
    fn parse_z_ordinate_dropped() {
        let g = parse_wkt("LINESTRING (0 0 5, 1 1 6)").unwrap();
        match g {
            Geometry::LineString(ls) => assert_eq!(ls.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_wkt("CIRCLE (0 0, 5)").is_err());
        assert!(parse_wkt("POINT (1)").is_err());
        assert!(parse_wkt("POINT (1 2) extra").is_err());
        assert!(parse_wkt("POLYGON ((0 0, 1 1)").is_err());
        assert!(parse_wkt("<http://unterminated POINT (1 2)").is_err());
        assert!(parse_wkt("").is_err());
    }

    #[test]
    fn roundtrip_exact() {
        for wkt in [
            "POINT (2.3522 48.8566)",
            "LINESTRING (0 0, 1 0, 1 1)",
            "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 4, 2 2))",
            "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
            "MULTIPOINT ((1 2), (3 4))",
            "GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 1 1))",
        ] {
            let g = parse_wkt(wkt).unwrap();
            let written = write_wkt(&g);
            let reparsed = parse_wkt(&written).unwrap();
            assert_eq!(g, reparsed, "roundtrip failed for {wkt}");
        }
    }

    #[test]
    fn scientific_notation() {
        let g = parse_wkt("POINT (1e-3 -2.5E2)").unwrap();
        assert_eq!(g, Geometry::point(0.001, -250.0));
    }
}
