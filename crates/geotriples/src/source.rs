//! Tabular input sources: CSV, GeoJSON and a shapefile-like binary format.
//!
//! All readers produce the same row model so the mapping processor is
//! format-agnostic, mirroring GeoTriples' input abstraction.

use applab_geo::{parse_wkt, write_geometry, write_wkt, Coord, Geometry, LineString, Polygon};
use applab_obs::json::{self, Value as Json};
use std::collections::BTreeMap;
use std::fmt;

/// A cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Text(String),
    Number(f64),
    Bool(bool),
    /// A geometry (kept parsed; serialized as WKT when it reaches RDF).
    Geometry(Geometry),
}

impl Value {
    /// The lexical form used when the value is substituted into a template.
    pub fn lexical(&self) -> Option<String> {
        let mut out = String::new();
        self.write_lexical(&mut out)?;
        Some(out)
    }

    /// Append [`Value::lexical`] to `out` without building it first;
    /// `None`, writing nothing, for a null.
    pub(crate) fn write_lexical(&self, out: &mut String) -> Option<()> {
        match self {
            Value::Null => return None,
            Value::Text(t) => out.push_str(t),
            Value::Number(n) => {
                use fmt::Write;
                let _ = write!(out, "{n}");
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Geometry(g) => write_geometry(out, g),
        }
        Some(())
    }
}

/// One row: column name → value.
pub type Row = BTreeMap<String, Value>;

/// A named table of rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TabularSource {
    pub name: String,
    pub rows: Vec<Row>,
}

/// Reader error.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceError(pub String);

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "source error: {}", self.0)
    }
}

impl std::error::Error for SourceError {}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

/// Parse CSV text (RFC-4180 quoting) with a header row. Columns whose value
/// parses as WKT become [`Value::Geometry`]; numeric cells become
/// [`Value::Number`]; empty cells become [`Value::Null`].
pub fn read_csv(name: &str, text: &str) -> Result<TabularSource, SourceError> {
    let mut records = csv_records(text)?;
    if records.is_empty() {
        return Ok(TabularSource {
            name: name.to_string(),
            rows: vec![],
        });
    }
    let header = records.remove(0);
    let mut rows = Vec::with_capacity(records.len());
    for (line, record) in records.into_iter().enumerate() {
        if record.len() != header.len() {
            return Err(SourceError(format!(
                "record {} has {} fields, header has {}",
                line + 2,
                record.len(),
                header.len()
            )));
        }
        let mut row = Row::new();
        for (col, cell) in header.iter().zip(record) {
            row.insert(col.clone(), classify(&cell));
        }
        rows.push(row);
    }
    Ok(TabularSource {
        name: name.to_string(),
        rows,
    })
}

fn classify(cell: &str) -> Value {
    let trimmed = cell.trim();
    if trimmed.is_empty() {
        return Value::Null;
    }
    if let Ok(n) = trimmed.parse::<f64>() {
        return Value::Number(n);
    }
    match trimmed {
        "true" | "TRUE" => return Value::Bool(true),
        "false" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    // WKT? Cheap prefix check before full parse.
    let upper = trimmed.to_ascii_uppercase();
    if ["POINT", "LINESTRING", "POLYGON", "MULTI", "GEOMETRY"]
        .iter()
        .any(|p| upper.starts_with(p))
    {
        if let Ok(g) = parse_wkt(trimmed) {
            return Value::Geometry(g);
        }
    }
    Value::Text(trimmed.to_string())
}

/// Split CSV text into records of fields (RFC-4180 quotes, embedded commas
/// and newlines).
fn csv_records(text: &str) -> Result<Vec<Vec<String>>, SourceError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    if !(record.len() == 1 && record[0].is_empty()) {
                        records.push(std::mem::take(&mut record));
                    } else {
                        record.clear();
                    }
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(SourceError("unterminated quoted field".into()));
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// GeoJSON
// ---------------------------------------------------------------------------

/// Parse a GeoJSON FeatureCollection. Each feature becomes a row with its
/// properties plus a `geometry` column.
pub fn read_geojson(name: &str, text: &str) -> Result<TabularSource, SourceError> {
    let doc = json::parse(text).map_err(|e| SourceError(e.to_string()))?;
    if doc.get("type").and_then(Json::as_str) != Some("FeatureCollection") {
        return Err(SourceError("expected a FeatureCollection".into()));
    }
    let features = doc
        .get("features")
        .and_then(Json::as_array)
        .ok_or_else(|| SourceError("missing features array".into()))?;
    let mut rows = Vec::with_capacity(features.len());
    for (i, f) in features.iter().enumerate() {
        let mut row = Row::new();
        if let Some(props) = f.get("properties").and_then(Json::as_object) {
            for (k, v) in props {
                row.insert(
                    k.clone(),
                    match v {
                        Json::Null => Value::Null,
                        Json::Bool(b) => Value::Bool(*b),
                        Json::Number(_) => v.as_f64().map_or(Value::Null, Value::Number),
                        Json::String(s) => Value::Text(s.clone()),
                        other => Value::Text(json::write(other)),
                    },
                );
            }
        }
        let geometry = f
            .get("geometry")
            .ok_or_else(|| SourceError(format!("feature {i} has no geometry")))?;
        row.insert(
            "geometry".to_string(),
            Value::Geometry(geojson_geometry(geometry, i)?),
        );
        if let Some(id) = f.get("id") {
            if let Some(s) = id.as_str() {
                row.insert("id".into(), Value::Text(s.to_string()));
            } else if let Some(n) = id.as_f64() {
                row.insert("id".into(), Value::Number(n));
            }
        }
        rows.push(row);
    }
    Ok(TabularSource {
        name: name.to_string(),
        rows,
    })
}

fn coord_pair(v: &Json, ctx: usize) -> Result<Coord, SourceError> {
    let arr = v
        .as_array()
        .filter(|a| a.len() >= 2)
        .ok_or_else(|| SourceError(format!("feature {ctx}: bad coordinate")))?;
    Ok(Coord::new(
        arr[0]
            .as_f64()
            .ok_or_else(|| SourceError(format!("feature {ctx}: bad coordinate")))?,
        arr[1]
            .as_f64()
            .ok_or_else(|| SourceError(format!("feature {ctx}: bad coordinate")))?,
    ))
}

fn coord_ring(v: &Json, ctx: usize) -> Result<Vec<Coord>, SourceError> {
    v.as_array()
        .ok_or_else(|| SourceError(format!("feature {ctx}: bad ring")))?
        .iter()
        .map(|c| coord_pair(c, ctx))
        .collect()
}

fn geojson_geometry(g: &Json, ctx: usize) -> Result<Geometry, SourceError> {
    let gtype = g
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| SourceError(format!("feature {ctx}: geometry without type")))?;
    let coords = g
        .get("coordinates")
        .ok_or_else(|| SourceError(format!("feature {ctx}: geometry without coordinates")))?;
    match gtype {
        "Point" => Ok(Geometry::Point(applab_geo::Point(coord_pair(coords, ctx)?))),
        "LineString" => Ok(Geometry::LineString(LineString::new(coord_ring(
            coords, ctx,
        )?))),
        "Polygon" => {
            let rings = coords
                .as_array()
                .ok_or_else(|| SourceError(format!("feature {ctx}: bad polygon")))?;
            let mut iter = rings.iter();
            let exterior = LineString::new(coord_ring(
                iter.next()
                    .ok_or_else(|| SourceError(format!("feature {ctx}: empty polygon")))?,
                ctx,
            )?);
            let interiors: Result<Vec<LineString>, SourceError> = iter
                .map(|r| Ok(LineString::new(coord_ring(r, ctx)?)))
                .collect();
            Ok(Geometry::Polygon(Polygon::new(exterior, interiors?)))
        }
        "MultiPolygon" => {
            let polys = coords
                .as_array()
                .ok_or_else(|| SourceError(format!("feature {ctx}: bad multipolygon")))?;
            let mut out = Vec::with_capacity(polys.len());
            for p in polys {
                let rings = p
                    .as_array()
                    .ok_or_else(|| SourceError(format!("feature {ctx}: bad multipolygon")))?;
                let mut iter = rings.iter();
                let exterior = LineString::new(coord_ring(
                    iter.next()
                        .ok_or_else(|| SourceError(format!("feature {ctx}: empty polygon")))?,
                    ctx,
                )?);
                let interiors: Result<Vec<LineString>, SourceError> = iter
                    .map(|r| Ok(LineString::new(coord_ring(r, ctx)?)))
                    .collect();
                out.push(Polygon::new(exterior, interiors?));
            }
            Ok(Geometry::MultiPolygon(out))
        }
        other => Err(SourceError(format!(
            "feature {ctx}: unsupported geometry type {other}"
        ))),
    }
}

// ---------------------------------------------------------------------------
// Shapefile-like binary format
// ---------------------------------------------------------------------------
//
// A simple length-prefixed binary container standing in for ESRI shapefiles
// (the real format needs no external data to reproduce the code path: binary
// parse → rows with geometry + attributes).

const SHP_MAGIC: &[u8; 8] = b"ALSHAPE1";

/// Serialize a source to the shapefile-like binary format.
pub fn write_shapefile_sim(source: &TabularSource) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(SHP_MAGIC);
    push_str(&mut out, &source.name);
    out.extend_from_slice(&(source.rows.len() as u32).to_be_bytes());
    for row in &source.rows {
        out.extend_from_slice(&(row.len() as u32).to_be_bytes());
        for (k, v) in row {
            push_str(&mut out, k);
            match v {
                Value::Null => out.push(0),
                Value::Text(t) => {
                    out.push(1);
                    push_str(&mut out, t);
                }
                Value::Number(n) => {
                    out.push(2);
                    out.extend_from_slice(&n.to_be_bytes());
                }
                Value::Bool(b) => {
                    out.push(3);
                    out.push(u8::from(*b));
                }
                Value::Geometry(g) => {
                    out.push(4);
                    push_str(&mut out, &write_wkt(g));
                }
            }
        }
    }
    out
}

/// Parse the shapefile-like binary format.
pub fn read_shapefile_sim(data: &[u8]) -> Result<TabularSource, SourceError> {
    let mut pos = 0usize;
    let err = |m: &str| SourceError(format!("shapefile-sim: {m}"));
    if data.len() < 8 || &data[..8] != SHP_MAGIC {
        return Err(err("bad magic"));
    }
    pos += 8;
    let name = take_str(data, &mut pos).ok_or_else(|| err("truncated name"))?;
    let count = take_u32(data, &mut pos).ok_or_else(|| err("truncated count"))? as usize;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        let fields = take_u32(data, &mut pos).ok_or_else(|| err("truncated row"))? as usize;
        let mut row = Row::new();
        for _ in 0..fields {
            let key = take_str(data, &mut pos).ok_or_else(|| err("truncated key"))?;
            let tag = *data.get(pos).ok_or_else(|| err("truncated tag"))?;
            pos += 1;
            let value = match tag {
                0 => Value::Null,
                1 => Value::Text(take_str(data, &mut pos).ok_or_else(|| err("truncated text"))?),
                2 => {
                    if pos + 8 > data.len() {
                        return Err(err("truncated number"));
                    }
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&data[pos..pos + 8]);
                    pos += 8;
                    Value::Number(f64::from_be_bytes(b))
                }
                3 => {
                    let b = *data.get(pos).ok_or_else(|| err("truncated bool"))?;
                    pos += 1;
                    Value::Bool(b != 0)
                }
                4 => {
                    let wkt = take_str(data, &mut pos).ok_or_else(|| err("truncated geometry"))?;
                    Value::Geometry(
                        parse_wkt(&wkt).map_err(|e| err(&format!("bad geometry: {e}")))?,
                    )
                }
                other => return Err(err(&format!("unknown tag {other}"))),
            };
            row.insert(key, value);
        }
        rows.push(row);
    }
    Ok(TabularSource { name, rows })
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn take_u32(data: &[u8], pos: &mut usize) -> Option<u32> {
    if *pos + 4 > data.len() {
        return None;
    }
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[*pos..*pos + 4]);
    *pos += 4;
    Some(u32::from_be_bytes(b))
}

fn take_str(data: &[u8], pos: &mut usize) -> Option<String> {
    let len = take_u32(data, pos)? as usize;
    if *pos + len > data.len() {
        return None;
    }
    let s = String::from_utf8(data[*pos..*pos + len].to_vec()).ok()?;
    *pos += len;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_with_wkt_and_quotes() {
        let text = "id,name,geom,area\n1,\"Bois, de Boulogne\",\"POLYGON ((0 0, 1 0, 1 1, 0 0))\",846.0\n2,Monceau,POINT (2.3 48.9),\n";
        let src = read_csv("parks", text).unwrap();
        assert_eq!(src.rows.len(), 2);
        let r0 = &src.rows[0];
        assert_eq!(r0["name"], Value::Text("Bois, de Boulogne".into()));
        assert!(matches!(r0["geom"], Value::Geometry(Geometry::Polygon(_))));
        assert_eq!(r0["area"], Value::Number(846.0));
        assert_eq!(src.rows[1]["area"], Value::Null);
    }

    #[test]
    fn csv_field_count_mismatch() {
        assert!(read_csv("x", "a,b\n1\n").is_err());
        assert!(read_csv("x", "a,b\n\"open\n").is_err());
    }

    #[test]
    fn csv_empty() {
        assert!(read_csv("x", "").unwrap().rows.is_empty());
    }

    #[test]
    fn geojson_roundtrip_fields() {
        let doc = r#"{
          "type": "FeatureCollection",
          "features": [
            {"type": "Feature", "id": "p1",
             "geometry": {"type": "Polygon", "coordinates": [[[0,0],[1,0],[1,1],[0,0]]]},
             "properties": {"name": "park", "leisure": "park", "size": 2.5}},
            {"type": "Feature",
             "geometry": {"type": "Point", "coordinates": [2.35, 48.85]},
             "properties": {"name": null}}
          ]
        }"#;
        let src = read_geojson("osm", doc).unwrap();
        assert_eq!(src.rows.len(), 2);
        assert_eq!(src.rows[0]["id"], Value::Text("p1".into()));
        assert_eq!(src.rows[0]["size"], Value::Number(2.5));
        assert!(matches!(
            src.rows[0]["geometry"],
            Value::Geometry(Geometry::Polygon(_))
        ));
        assert_eq!(src.rows[1]["name"], Value::Null);
        assert!(matches!(
            src.rows[1]["geometry"],
            Value::Geometry(Geometry::Point(_))
        ));
    }

    #[test]
    fn geojson_multipolygon() {
        let doc = r#"{
          "type": "FeatureCollection",
          "features": [
            {"type": "Feature",
             "geometry": {"type": "MultiPolygon",
               "coordinates": [[[[0,0],[1,0],[1,1],[0,0]]],[[[5,5],[6,5],[6,6],[5,5]]]]},
             "properties": {}}
          ]
        }"#;
        let src = read_geojson("mp", doc).unwrap();
        match &src.rows[0]["geometry"] {
            Value::Geometry(Geometry::MultiPolygon(ps)) => assert_eq!(ps.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn geojson_errors() {
        assert!(read_geojson("x", "{}").is_err());
        assert!(read_geojson("x", "{\"type\":\"FeatureCollection\"}").is_err());
        let nogeom =
            r#"{"type":"FeatureCollection","features":[{"type":"Feature","properties":{}}]}"#;
        assert!(read_geojson("x", nogeom).is_err());
    }

    #[test]
    fn geojson_strings_surrogates_and_nesting() {
        let feature = |props: &str| {
            format!(
                r#"{{"type":"FeatureCollection","features":[{{"type":"Feature",
                "geometry":{{"type":"Point","coordinates":[0,0]}},"properties":{props}}}]}}"#
            )
        };
        let src = read_geojson("x", &feature(r#"{"name":"\ud83d\ude00"}"#)).unwrap();
        assert_eq!(src.rows[0]["name"], Value::Text("😀".into()));
        assert!(read_geojson("x", &feature(r#"{"name":"\ud83d"}"#)).is_err());
        // Nested values keep their members in document order and their
        // numbers as written.
        let src = read_geojson("x", &feature(r#"{"tags":{"b":1.50,"a":[1e3]}}"#)).unwrap();
        assert_eq!(
            src.rows[0]["tags"],
            Value::Text(r#"{"b":1.50,"a":[1e3]}"#.into())
        );
        // A million open brackets is a typed error, not a stack overflow.
        let err = read_geojson("x", &"[".repeat(1_000_000)).unwrap_err();
        assert!(err.0.contains("nesting too deep"), "{err}");
    }

    #[test]
    fn shapefile_sim_roundtrip() {
        let src = read_csv(
            "parks",
            "id,name,geom\n1,A,POINT (1 2)\n2,B,\"POLYGON ((0 0, 1 0, 1 1, 0 0))\"\n",
        )
        .unwrap();
        let bytes = write_shapefile_sim(&src);
        let back = read_shapefile_sim(&bytes).unwrap();
        assert_eq!(back, src);
    }

    #[test]
    fn shapefile_sim_rejects_corruption() {
        let src = read_csv("x", "a\n1\n").unwrap();
        let bytes = write_shapefile_sim(&src);
        assert!(read_shapefile_sim(&bytes[..bytes.len() - 3]).is_err());
        assert!(read_shapefile_sim(b"WRONG").is_err());
    }

    #[test]
    fn lexical_forms() {
        assert_eq!(Value::Null.lexical(), None);
        assert_eq!(Value::Number(2.5).lexical(), Some("2.5".into()));
        assert_eq!(Value::Bool(true).lexical(), Some("true".into()));
        assert_eq!(
            Value::Geometry(Geometry::point(1.0, 2.0)).lexical(),
            Some("POINT (1 2)".into())
        );
    }
}
