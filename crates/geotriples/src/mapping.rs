//! The mapping language.
//!
//! The paper's Listing 2 shows the "native mapping language of
//! Ontop-spatial which is less verbose than R2RML": blocks of
//! `mappingId` / `target` / `source` lines, where the target is a
//! Turtle-like template with `{column}` placeholders. GeoTriples and the
//! OBDA engine share this format; GeoTriples uses it to materialize
//! triples, Ontop-spatial to define virtual ones.
//!
//! ```text
//! mappingId   osm_parks
//! target      osm:poi_{id} a osm:PointOfInterest ;
//!             osm:hasName {name}^^xsd:string ;
//!             geo:hasGeometry osm:geom_{id} .
//!             osm:geom_{id} geo:asWKT {geometry}^^geo:wktLiteral .
//! source      parks
//! ```

use crate::source::{Row, Value};
use applab_rdf::{vocab, Literal, NamedNode, Resource, Term, Triple};
use std::collections::HashMap;
use std::fmt;

/// Mapping parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappingError(pub String);

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mapping error: {}", self.0)
    }
}

impl std::error::Error for MappingError {}

/// A text template with `{column}` placeholders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringTemplate {
    parts: Vec<Part>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Part {
    Text(String),
    Column(String),
}

impl StringTemplate {
    pub fn parse(text: &str) -> Result<Self, MappingError> {
        let mut parts = Vec::new();
        let mut buf = String::new();
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            if c == '{' {
                if !buf.is_empty() {
                    parts.push(Part::Text(std::mem::take(&mut buf)));
                }
                let mut col = String::new();
                loop {
                    match chars.next() {
                        Some('}') => break,
                        Some(c) => col.push(c),
                        None => return Err(MappingError(format!("unclosed '{{' in {text:?}"))),
                    }
                }
                if col.is_empty() {
                    return Err(MappingError(format!("empty placeholder in {text:?}")));
                }
                parts.push(Part::Column(col));
            } else {
                buf.push(c);
            }
        }
        if !buf.is_empty() {
            parts.push(Part::Text(buf));
        }
        Ok(StringTemplate { parts })
    }

    /// Expand against a row. `None` when a referenced column is null or
    /// missing (GeoTriples emits no triple in that case).
    pub fn expand(&self, row: &Row) -> Option<String> {
        let mut out = String::new();
        for p in &self.parts {
            match p {
                Part::Text(t) => out.push_str(t),
                Part::Column(c) => row.get(c)?.write_lexical(&mut out)?,
            }
        }
        Some(out)
    }

    /// The single column of a bare `{col}` template, if that is the shape.
    fn single_column(&self) -> Option<&str> {
        match self.parts.as_slice() {
            [Part::Column(c)] => Some(c),
            _ => None,
        }
    }

    /// Invert a single-placeholder template against a concrete string:
    /// `prefix{col}suffix` matched on `text` yields `(col, middle)`.
    /// This is the IRI-template inversion OBDA engines use to turn bound
    /// subjects back into key lookups.
    pub fn invert_single(&self, text: &str) -> Option<(&str, String)> {
        match self.parts.as_slice() {
            [Part::Column(c)] => Some((c, text.to_string())),
            [Part::Text(prefix), Part::Column(c)] => text
                .strip_prefix(prefix.as_str())
                .map(|rest| (c.as_str(), rest.to_string())),
            [Part::Column(c), Part::Text(suffix)] => text
                .strip_suffix(suffix.as_str())
                .map(|rest| (c.as_str(), rest.to_string())),
            [Part::Text(prefix), Part::Column(c), Part::Text(suffix)] => text
                .strip_prefix(prefix.as_str())
                .and_then(|rest| rest.strip_suffix(suffix.as_str()))
                .map(|mid| (c.as_str(), mid.to_string())),
            _ => None,
        }
    }

    /// Does the template have one of the single-placeholder shapes that
    /// [`StringTemplate::invert_single`] can invert?
    pub fn is_invertible(&self) -> bool {
        matches!(
            self.parts.as_slice(),
            [Part::Column(_)]
                | [Part::Text(_), Part::Column(_)]
                | [Part::Column(_), Part::Text(_)]
                | [Part::Text(_), Part::Column(_), Part::Text(_)]
        )
    }

    /// The constant text before the first placeholder (all of it for a
    /// placeholder-free template): every expansion starts with it.
    pub fn prefix(&self) -> &str {
        match self.parts.first() {
            Some(Part::Text(t)) => t,
            _ => "",
        }
    }

    /// All referenced columns.
    pub fn columns(&self) -> Vec<&str> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                Part::Column(c) => Some(c.as_str()),
                Part::Text(_) => None,
            })
            .collect()
    }
}

/// A term template in a target pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermTemplate {
    Iri(StringTemplate),
    Blank(StringTemplate),
    Literal {
        template: StringTemplate,
        /// Explicit datatype; `None` means "infer from the value".
        datatype: Option<NamedNode>,
        language: Option<String>,
    },
}

impl TermTemplate {
    /// All referenced columns. A template expands exactly when each of
    /// them is present and not null.
    pub fn columns(&self) -> Vec<&str> {
        match self {
            TermTemplate::Iri(t) | TermTemplate::Blank(t) => t.columns(),
            TermTemplate::Literal { template, .. } => template.columns(),
        }
    }

    /// Expand against a row; `None` when a referenced column is null.
    pub fn expand(&self, row: &Row) -> Option<Term> {
        match self {
            TermTemplate::Iri(t) => Some(Term::named(t.expand(row)?)),
            TermTemplate::Blank(t) => Some(Term::Blank(applab_rdf::BlankNode::new(
                t.expand(row)?.replace([' ', ':', '/'], "_"),
            ))),
            TermTemplate::Literal {
                template,
                datatype,
                language,
            } => {
                if let Some(lang) = language {
                    return Some(Literal::lang(template.expand(row)?, lang.clone()).into());
                }
                if let Some(dt) = datatype {
                    return Some(Literal::typed(template.expand(row)?, dt.clone()).into());
                }
                // Infer from the underlying value for bare {col}.
                if let Some(col) = template.single_column() {
                    return Some(match row.get(col)? {
                        Value::Null => return None,
                        Value::Text(t) => Literal::string(t.clone()).into(),
                        Value::Number(n) => Literal::double(*n).into(),
                        Value::Bool(b) => Literal::boolean(*b).into(),
                        Value::Geometry(g) => Literal::wkt(applab_geo::write_wkt(g)).into(),
                    });
                }
                Some(Literal::string(template.expand(row)?).into())
            }
        }
    }
}

/// One triple template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleTemplate {
    pub subject: TermTemplate,
    pub predicate: TermTemplate,
    pub object: TermTemplate,
}

impl TripleTemplate {
    /// Expand against a row; `None` when any referenced column is null.
    pub fn expand(&self, row: &Row) -> Option<Triple> {
        let s = match self.subject.expand(row)? {
            Term::Named(n) => Resource::Named(n),
            Term::Blank(b) => Resource::Blank(b),
            Term::Literal(_) => return None,
        };
        let p = match self.predicate.expand(row)? {
            Term::Named(n) => n,
            _ => return None,
        };
        let o = self.object.expand(row)?;
        Some(Triple::new(s, p, o))
    }
}

/// A complete mapping: id, target templates, opaque source reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    pub id: String,
    pub target: Vec<TripleTemplate>,
    /// The source clause, uninterpreted here. GeoTriples treats it as a
    /// table name; the OBDA engine parses it as a query over its relations
    /// (see `applab-obda`).
    pub source: String,
}

/// Parse a mapping document (one or more `mappingId`/`target`/`source`
/// blocks). Prefixes from the default table are pre-declared.
pub fn parse_mappings(text: &str) -> Result<Vec<Mapping>, MappingError> {
    let prefixes: HashMap<String, String> = vocab::default_prefixes()
        .into_iter()
        .map(|(p, ns)| (p.to_string(), ns.to_string()))
        .collect();

    // Group the document into (keyword, value) fields; a value continues
    // until the next keyword line.
    let mut fields: Vec<(String, String)> = Vec::new();
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let keyword = trimmed.split_whitespace().next().unwrap_or("");
        if ["mappingId", "target", "source"].contains(&keyword) {
            let value = trimmed[keyword.len()..].trim().to_string();
            fields.push((keyword.to_string(), value));
        } else {
            match fields.last_mut() {
                Some((_, value)) => {
                    value.push(' ');
                    value.push_str(trimmed);
                }
                None => {
                    return Err(MappingError(format!(
                        "unexpected line before first keyword: {trimmed:?}"
                    )))
                }
            }
        }
    }

    let mut mappings = Vec::new();
    let mut current: Option<(String, Option<String>, Option<String>)> = None;
    let finish = |current: &mut Option<(String, Option<String>, Option<String>)>,
                  mappings: &mut Vec<Mapping>|
     -> Result<(), MappingError> {
        if let Some((id, target, source)) = current.take() {
            let target =
                target.ok_or_else(|| MappingError(format!("mapping {id} lacks a target")))?;
            mappings.push(Mapping {
                target: parse_target(&target, &prefixes)?,
                source: source.unwrap_or_default(),
                id,
            });
        }
        Ok(())
    };
    for (keyword, value) in fields {
        match keyword.as_str() {
            "mappingId" => {
                finish(&mut current, &mut mappings)?;
                if value.is_empty() {
                    return Err(MappingError("empty mappingId".into()));
                }
                current = Some((value, None, None));
            }
            "target" => match current.as_mut() {
                Some((_, t, _)) => *t = Some(value),
                None => return Err(MappingError("target before mappingId".into())),
            },
            "source" => match current.as_mut() {
                Some((_, _, s)) => *s = Some(value),
                None => return Err(MappingError("source before mappingId".into())),
            },
            _ => unreachable!(),
        }
    }
    finish(&mut current, &mut mappings)?;
    if mappings.is_empty() {
        return Err(MappingError("no mappings in document".into()));
    }
    Ok(mappings)
}

/// Parse a target clause: whitespace-separated term templates in
/// `s p o [;|,|.]` groups.
fn parse_target(
    text: &str,
    prefixes: &HashMap<String, String>,
) -> Result<Vec<TripleTemplate>, MappingError> {
    let tokens = tokenize_target(text)?;
    let mut templates = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let subject = parse_term(&tokens[i], prefixes)?;
        i += 1;
        loop {
            if i + 1 >= tokens.len() {
                return Err(MappingError(format!(
                    "dangling predicate/object near token {i} in {text:?}"
                )));
            }
            let predicate = if tokens[i] == "a" {
                TermTemplate::Iri(StringTemplate::parse(vocab::rdf::TYPE)?)
            } else {
                parse_term(&tokens[i], prefixes)?
            };
            i += 1;
            loop {
                let object = parse_term(&tokens[i], prefixes)?;
                i += 1;
                templates.push(TripleTemplate {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                match tokens.get(i).map(String::as_str) {
                    Some(",") => {
                        i += 1;
                        continue;
                    }
                    _ => break,
                }
            }
            match tokens.get(i).map(String::as_str) {
                Some(";") => {
                    i += 1;
                    continue;
                }
                Some(".") => {
                    i += 1;
                    break;
                }
                None => break,
                Some(other) => {
                    return Err(MappingError(format!(
                        "expected '.', ';' or ',', found {other:?}"
                    )))
                }
            }
        }
    }
    if templates.is_empty() {
        return Err(MappingError("empty target".into()));
    }
    Ok(templates)
}

/// Split a target clause into term tokens and punctuation, respecting
/// quoted strings and `{...}` placeholders.
fn tokenize_target(text: &str) -> Result<Vec<String>, MappingError> {
    let mut tokens = Vec::new();
    let mut buf = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut in_braces = false;
    let mut in_angle = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if !in_braces => {
                in_quotes = !in_quotes;
                buf.push(c);
            }
            '{' if !in_quotes => {
                in_braces = true;
                buf.push(c);
            }
            '}' if !in_quotes => {
                in_braces = false;
                buf.push(c);
            }
            '<' if !in_quotes && !in_braces && buf.is_empty() => {
                in_angle = true;
                buf.push(c);
            }
            '>' if in_angle => {
                in_angle = false;
                buf.push(c);
            }
            c if c.is_whitespace() && !in_quotes && !in_braces && !in_angle => {
                if !buf.is_empty() {
                    tokens.push(std::mem::take(&mut buf));
                }
            }
            ';' | ',' if !in_quotes && !in_braces && !in_angle => {
                if !buf.is_empty() {
                    tokens.push(std::mem::take(&mut buf));
                }
                tokens.push(c.to_string());
            }
            '.' if !in_quotes && !in_braces && !in_angle => {
                // A '.' is punctuation only when followed by whitespace or
                // end (it may appear inside numbers/IRIs otherwise).
                if buf.is_empty() || chars.peek().is_none_or(|n| n.is_whitespace()) {
                    if !buf.is_empty() {
                        tokens.push(std::mem::take(&mut buf));
                    }
                    tokens.push(".".into());
                } else {
                    buf.push(c);
                }
            }
            c => buf.push(c),
        }
    }
    if in_quotes || in_braces || in_angle {
        return Err(MappingError(format!("unterminated token in {text:?}")));
    }
    if !buf.is_empty() {
        tokens.push(buf);
    }
    Ok(tokens)
}

fn parse_term(
    token: &str,
    prefixes: &HashMap<String, String>,
) -> Result<TermTemplate, MappingError> {
    // Literal with datatype or language?
    if let Some((body, dt)) = token.split_once("^^") {
        let template = literal_body(body)?;
        let datatype = resolve_iri_token(dt, prefixes)?;
        return Ok(TermTemplate::Literal {
            template,
            datatype: Some(datatype),
            language: None,
        });
    }
    if token.starts_with('"') {
        if let Some((body, lang)) = token.rsplit_once('@') {
            if !lang.is_empty() && lang.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
                return Ok(TermTemplate::Literal {
                    template: literal_body(body)?,
                    datatype: None,
                    language: Some(lang.to_string()),
                });
            }
        }
        return Ok(TermTemplate::Literal {
            template: literal_body(token)?,
            datatype: None,
            language: None,
        });
    }
    if let Some(label) = token.strip_prefix("_:") {
        return Ok(TermTemplate::Blank(StringTemplate::parse(label)?));
    }
    if token.starts_with('<') && token.ends_with('>') {
        return Ok(TermTemplate::Iri(StringTemplate::parse(
            &token[1..token.len() - 1],
        )?));
    }
    // Bare placeholder → literal with inferred type.
    if token.starts_with('{') && token.ends_with('}') {
        return Ok(TermTemplate::Literal {
            template: StringTemplate::parse(token)?,
            datatype: None,
            language: None,
        });
    }
    // Prefixed name (placeholders allowed in the local part).
    let named = resolve_iri_token(token, prefixes)?;
    Ok(TermTemplate::Iri(StringTemplate::parse(named.as_str())?))
}

fn literal_body(body: &str) -> Result<StringTemplate, MappingError> {
    let body = body.strip_prefix('"').unwrap_or(body);
    let body = body.strip_suffix('"').unwrap_or(body);
    StringTemplate::parse(body)
}

/// Resolve `prefix:local` (template-aware: the prefix must be literal text,
/// the local part may contain placeholders) or `<iri>`.
fn resolve_iri_token(
    token: &str,
    prefixes: &HashMap<String, String>,
) -> Result<NamedNode, MappingError> {
    if token.starts_with('<') && token.ends_with('>') {
        return Ok(NamedNode::new(&token[1..token.len() - 1]));
    }
    let (prefix, local) = token
        .split_once(':')
        .ok_or_else(|| MappingError(format!("expected IRI or prefixed name, found {token:?}")))?;
    let ns = prefixes
        .get(prefix)
        .ok_or_else(|| MappingError(format!("undeclared prefix {prefix:?}")))?;
    Ok(NamedNode::new(format!("{ns}{local}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Value;

    const PARKS_MAPPING: &str = r#"
# OSM parks to RDF
mappingId   osm_parks
target      osm:poi_{id} a osm:PointOfInterest ;
            osm:poiType osm:park ;
            osm:hasName {name}^^xsd:string ;
            geo:hasGeometry osm:geom_{id} .
            osm:geom_{id} geo:asWKT {geometry}^^geo:wktLiteral .
source      parks
"#;

    fn row(id: &str, name: Option<&str>) -> Row {
        let mut r = Row::new();
        r.insert("id".into(), Value::Text(id.into()));
        if let Some(n) = name {
            r.insert("name".into(), Value::Text(n.into()));
        }
        r.insert(
            "geometry".into(),
            Value::Geometry(applab_geo::Geometry::point(2.25, 48.86)),
        );
        r
    }

    #[test]
    fn parse_and_expand() {
        let mappings = parse_mappings(PARKS_MAPPING).unwrap();
        assert_eq!(mappings.len(), 1);
        let m = &mappings[0];
        assert_eq!(m.id, "osm_parks");
        assert_eq!(m.source, "parks");
        assert_eq!(m.target.len(), 5);

        let r = row("17", Some("Bois de Boulogne"));
        let triples: Vec<Triple> = m.target.iter().filter_map(|t| t.expand(&r)).collect();
        assert_eq!(triples.len(), 5);
        let s = triples[0].subject.as_named().unwrap().as_str();
        assert_eq!(s, "http://www.app-lab.eu/osm/poi_17");
        // The WKT literal got the right datatype.
        let wkt = triples
            .iter()
            .find(|t| t.predicate.as_str() == vocab::geo::AS_WKT)
            .unwrap();
        assert!(wkt.object.as_literal().unwrap().is_wkt());
    }

    #[test]
    fn expansion_writes_each_lexical_form_in_place() {
        let t = StringTemplate::parse("a_{v}_b").unwrap();
        for (v, lexical) in [
            (Value::Text("Bois de Boulogne".into()), "Bois de Boulogne"),
            (Value::Number(2.5), "2.5"),
            (Value::Number(-0.1), "-0.1"),
            (Value::Number(1e21), "1000000000000000000000"),
            (Value::Bool(false), "false"),
            (
                Value::Geometry(applab_geo::Geometry::point(2.25, 48.86)),
                "POINT (2.25 48.86)",
            ),
        ] {
            let r = Row::from([("v".to_string(), v)]);
            assert_eq!(t.expand(&r), Some(format!("a_{lexical}_b")));
        }
        let null = Row::from([("v".to_string(), Value::Null)]);
        assert_eq!(t.expand(&null), None);
    }

    #[test]
    fn null_column_skips_triple() {
        let mappings = parse_mappings(PARKS_MAPPING).unwrap();
        let r = row("17", None); // no name
        let triples: Vec<Triple> = mappings[0]
            .target
            .iter()
            .filter_map(|t| t.expand(&r))
            .collect();
        // The hasName triple is dropped, everything else survives.
        assert_eq!(triples.len(), 4);
        assert!(!triples
            .iter()
            .any(|t| t.predicate.as_str() == vocab::osm::HAS_NAME));
    }

    #[test]
    fn inferred_literal_types() {
        let doc = r#"
mappingId   m
target      <http://ex.org/{id}> <http://ex.org/value> {v} .
source      t
"#;
        let m = &parse_mappings(doc).unwrap()[0];
        let mut r = Row::new();
        r.insert("id".into(), Value::Text("x".into()));
        r.insert("v".into(), Value::Number(3.5));
        let t = m.target[0].expand(&r).unwrap();
        assert_eq!(t.object.as_literal().unwrap().as_f64(), Some(3.5));
        r.insert("v".into(), Value::Bool(true));
        let t = m.target[0].expand(&r).unwrap();
        assert_eq!(t.object.as_literal().unwrap().as_bool(), Some(true));
    }

    #[test]
    fn multiple_mappings_and_comments() {
        let doc = r#"
mappingId a
target <http://e/{i}> a osm:PointOfInterest .
source s1
mappingId b
target <http://e/{i}> osm:hasName {n}^^xsd:string .
source s2
"#;
        let ms = parse_mappings(doc).unwrap();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[1].source, "s2");
    }

    #[test]
    fn listing2_style_mapping() {
        // The shape of the paper's Listing 2 (source kept opaque here).
        let doc = r#"
mappingId opendap_mapping
target    lai:{id} rdf:type lai:Observation .
          lai:{id} lai:lai {LAI}^^xsd:float ;
          time:hasTime {ts}^^xsd:dateTime .
          lai:{id} geo:hasGeometry _:g_{id} .
          _:g_{id} geo:asWKT {loc}^^geo:wktLiteral .
source    SELECT id, LAI, ts, loc FROM (ordered opendap url 10) WHERE LAI > 0
"#;
        let m = &parse_mappings(doc).unwrap()[0];
        assert_eq!(m.target.len(), 5);
        assert!(m.source.contains("opendap"));
        let mut r = Row::new();
        r.insert("id".into(), Value::Text("p42".into()));
        r.insert("LAI".into(), Value::Number(3.25));
        r.insert("ts".into(), Value::Text("2017-06-15T00:00:00Z".into()));
        r.insert(
            "loc".into(),
            Value::Geometry(applab_geo::Geometry::point(2.2, 48.8)),
        );
        let triples: Vec<Triple> = m.target.iter().filter_map(|t| t.expand(&r)).collect();
        assert_eq!(triples.len(), 5);
        let ts = triples
            .iter()
            .find(|t| t.predicate.as_str() == vocab::time::HAS_TIME)
            .unwrap();
        assert!(ts.object.as_literal().unwrap().as_datetime().is_some());
        // Blank node subject/object wiring.
        let wkt = triples
            .iter()
            .find(|t| t.predicate.as_str() == vocab::geo::AS_WKT)
            .unwrap();
        assert!(matches!(wkt.subject, Resource::Blank(_)));
    }

    #[test]
    fn language_tagged_template() {
        let doc = r#"
mappingId m
target <http://e/{i}> rdfs:label "{n}"@fr .
source s
"#;
        let m = &parse_mappings(doc).unwrap()[0];
        let mut r = Row::new();
        r.insert("i".into(), Value::Text("1".into()));
        r.insert("n".into(), Value::Text("parc".into()));
        let t = m.target[0].expand(&r).unwrap();
        assert_eq!(t.object.as_literal().unwrap().language(), Some("fr"));
    }

    #[test]
    fn template_inversion() {
        let st = StringTemplate::parse("http://www.app-lab.eu/osm/poi_{id}").unwrap();
        assert_eq!(
            st.invert_single("http://www.app-lab.eu/osm/poi_17"),
            Some(("id", "17".to_string()))
        );
        assert_eq!(st.invert_single("http://elsewhere/poi_17"), None);
        let bare = StringTemplate::parse("{v}").unwrap();
        assert_eq!(bare.invert_single("x"), Some(("v", "x".to_string())));
        let two = StringTemplate::parse("a{x}b{y}").unwrap();
        assert_eq!(two.invert_single("a1b2"), None); // multi-placeholder: no inversion
        let mid = StringTemplate::parse("geo_{id}_node").unwrap();
        assert_eq!(
            mid.invert_single("geo_9_node"),
            Some(("id", "9".to_string()))
        );
    }

    #[test]
    fn errors() {
        assert!(parse_mappings("").is_err());
        assert!(parse_mappings("target x y z .").is_err()); // before mappingId
        assert!(parse_mappings("mappingId m\nsource s\n").is_err()); // no target
        assert!(parse_mappings("mappingId m\ntarget unknown:x a osm:park .\nsource s").is_err());
        assert!(parse_mappings("mappingId m\ntarget <http://e/{unclosed a b .\nsource s").is_err());
    }
}
