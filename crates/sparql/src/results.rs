//! Query results and their serializations.

use applab_obs::json::{self, Value};
use applab_rdf::{vocab, BlankNode, Graph, Literal, NamedNode, Term};

/// One solution row, aligned with the result's variable list.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub values: Vec<Option<Term>>,
}

impl Row {
    pub fn get<'a>(&'a self, variables: &[String], name: &str) -> Option<&'a Term> {
        let idx = variables.iter().position(|v| v == name)?;
        self.values.get(idx)?.as_ref()
    }
}

/// The result of evaluating a query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResults {
    /// `SELECT` solutions.
    Solutions {
        variables: Vec<String>,
        rows: Vec<Row>,
    },
    /// `ASK` result.
    Boolean(bool),
    /// `CONSTRUCT` result.
    Graph(Graph),
}

impl QueryResults {
    /// Number of solution rows (0 for ASK/CONSTRUCT).
    pub fn len(&self) -> usize {
        match self {
            QueryResults::Solutions { rows, .. } => rows.len(),
            _ => 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The variable list of a SELECT result.
    pub fn variables(&self) -> &[String] {
        match self {
            QueryResults::Solutions { variables, .. } => variables,
            _ => &[],
        }
    }

    /// The rows of a SELECT result.
    pub fn rows(&self) -> &[Row] {
        match self {
            QueryResults::Solutions { rows, .. } => rows,
            _ => &[],
        }
    }

    /// Look up a value in a row by variable name.
    pub fn value(&self, row: usize, name: &str) -> Option<&Term> {
        match self {
            QueryResults::Solutions { variables, rows } => rows.get(row)?.get(variables, name),
            _ => None,
        }
    }

    /// The boolean of an ASK result.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryResults::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// The graph of a CONSTRUCT result.
    pub fn as_graph(&self) -> Option<&Graph> {
        match self {
            QueryResults::Graph(g) => Some(g),
            _ => None,
        }
    }

    /// Serialize SELECT solutions as CSV (SPARQL 1.1 CSV results format:
    /// header row of variable names, plain lexical forms).
    pub fn to_csv(&self) -> String {
        let (variables, rows) = match self {
            QueryResults::Solutions { variables, rows } => (variables, rows),
            QueryResults::Boolean(b) => return format!("boolean\n{b}\n"),
            QueryResults::Graph(g) => return applab_rdf::ntriples::write_ntriples(g),
        };
        let mut out = String::new();
        out.push_str(&variables.join(","));
        out.push('\n');
        for row in rows {
            let cells: Vec<String> = row
                .values
                .iter()
                .map(|v| match v {
                    Some(Term::Literal(l)) => csv_escape(l.value()),
                    Some(Term::Named(n)) => csv_escape(n.as_str()),
                    Some(Term::Blank(b)) => format!("_:{}", b.as_str()),
                    None => String::new(),
                })
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Serialize as W3C SPARQL 1.1 Query Results JSON
    /// (<https://www.w3.org/TR/sparql11-results-json/>).
    ///
    /// `SELECT` solutions become `{"head":{"vars":[...]},"results":
    /// {"bindings":[...]}}` with unbound variables omitted from their
    /// binding objects; `ASK` becomes `{"head":{},"boolean":...}`. The
    /// format does not define `CONSTRUCT` output, so a graph is encoded as
    /// solutions over the pseudo-variables `subject`/`predicate`/`object`,
    /// one binding per triple.
    ///
    /// This is a *convenience* over the canonical streaming serializer,
    /// [`QueryResults::write_json`]: it collects the same byte stream into
    /// one `String`, which means the whole document lives in memory at
    /// once. Anything wire-facing (the `applab-http` response path, large
    /// result sets) should call `write_json` and let the 8 KiB flush
    /// windows bound peak memory; reach for `to_json` only when a small
    /// in-memory document is actually what you need (tests, diffing,
    /// fixed-length framing of small responses).
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("the serializer emits UTF-8")
    }

    /// Stream the [`QueryResults::to_json`] document to a writer,
    /// byte-identically, without ever materializing the whole serialization:
    /// bindings are appended to an internal buffer that is handed to `w`
    /// every time it passes [`JSON_FLUSH_BYTES`]. Peak serializer memory is
    /// therefore one flush window plus the largest single binding,
    /// independent of the result's row count — this is what the service
    /// layer uses to keep large result sets from doubling as one giant
    /// `String`.
    pub fn write_json<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut buf = String::with_capacity(2 * JSON_FLUSH_BYTES);
        match self {
            QueryResults::Boolean(b) => {
                buf.push_str("{\"head\":{},\"boolean\":");
                buf.push_str(if *b { "true" } else { "false" });
                buf.push('}');
            }
            QueryResults::Solutions { variables, rows } => {
                push_json_head(&mut buf, variables.iter().map(String::as_str));
                for (ri, row) in rows.iter().enumerate() {
                    if ri > 0 {
                        buf.push(',');
                    }
                    push_json_binding(
                        &mut buf,
                        variables
                            .iter()
                            .zip(&row.values)
                            .filter_map(|(v, t)| t.as_ref().map(|t| (v.as_str(), t))),
                    );
                    if buf.len() >= JSON_FLUSH_BYTES {
                        w.write_all(buf.as_bytes())?;
                        buf.clear();
                    }
                }
                buf.push_str("]}}");
                return w.write_all(buf.as_bytes());
            }
            // The format does not define CONSTRUCT output; a graph streams
            // as solutions over the pseudo-variables subject / predicate /
            // object, one binding per triple, without building `Row`s.
            QueryResults::Graph(g) => {
                push_json_head(&mut buf, ["subject", "predicate", "object"].into_iter());
                for (ri, t) in g.iter().enumerate() {
                    if ri > 0 {
                        buf.push(',');
                    }
                    let subject = Term::from(t.subject.clone());
                    let predicate = Term::Named(t.predicate.clone());
                    push_json_binding(
                        &mut buf,
                        [
                            ("subject", &subject),
                            ("predicate", &predicate),
                            ("object", &t.object),
                        ]
                        .into_iter(),
                    );
                    if buf.len() >= JSON_FLUSH_BYTES {
                        w.write_all(buf.as_bytes())?;
                        buf.clear();
                    }
                }
                buf.push_str("]}}");
            }
        }
        w.write_all(buf.as_bytes())
    }

    /// A cheap estimate of the [`QueryResults::to_json`] byte length,
    /// computed by summing lexical-form lengths plus per-term JSON
    /// overhead — no allocation, no serialization pass.
    ///
    /// The estimate ignores JSON string escaping, so a result full of
    /// quotes or control characters serializes somewhat *larger* than
    /// estimated; for `ASK` the value is exact. This exists so response
    /// framing can be decided before serializing (the HTTP server streams
    /// chunked once it reaches [`JSON_FLUSH_BYTES`]); it must never be
    /// sent as a `Content-Length`.
    pub fn json_size_estimate(&self) -> u64 {
        // Per-term JSON overhead on top of the lexical form, e.g.
        // `{"type":"uri","value":""}` is 25 bytes around the IRI.
        fn term_estimate(t: &Term) -> u64 {
            match t {
                Term::Named(n) => 25 + n.as_str().len() as u64,
                Term::Blank(b) => 27 + b.as_str().len() as u64,
                Term::Literal(l) => {
                    let mut n = 29 + l.value().len() as u64;
                    if let Some(lang) = l.language() {
                        n += 14 + lang.len() as u64;
                    } else if l.datatype().as_str() != vocab::xsd::STRING {
                        n += 14 + l.datatype().as_str().len() as u64;
                    }
                    n
                }
            }
        }
        // `"var":` + term, plus the binding's comma share.
        fn binding_estimate(var: &str, t: &Term) -> u64 {
            var.len() as u64 + 4 + term_estimate(t)
        }
        match self {
            // Tiny and constant-size: just measure the real document.
            QueryResults::Boolean(_) => self.to_json().len() as u64,
            QueryResults::Solutions { variables, rows } => {
                let head = 44 + variables.iter().map(|v| v.len() as u64 + 3).sum::<u64>();
                let body: u64 = rows
                    .iter()
                    .map(|row| {
                        3 + variables
                            .iter()
                            .zip(&row.values)
                            .filter_map(|(v, t)| t.as_ref().map(|t| binding_estimate(v, t)))
                            .sum::<u64>()
                    })
                    .sum();
                head + body
            }
            QueryResults::Graph(g) => {
                let head = 44 + 30; // vars are subject/predicate/object
                let body: u64 = g
                    .iter()
                    .map(|t| {
                        let subject = match &t.subject {
                            applab_rdf::Resource::Named(n) => 25 + n.as_str().len() as u64,
                            applab_rdf::Resource::Blank(b) => 27 + b.as_str().len() as u64,
                        };
                        3 + 11
                            + subject
                            + 13
                            + 25
                            + t.predicate.as_str().len() as u64
                            + 10
                            + term_estimate(&t.object)
                    })
                    .sum();
                head + body
            }
        }
    }

    /// Parse a W3C SPARQL 1.1 Query Results JSON document (the inverse of
    /// [`QueryResults::to_json`], used by the QA differential diff so every
    /// compared result has round-tripped through the wire format).
    ///
    /// `{"head":{},"boolean":b}` parses to [`QueryResults::Boolean`];
    /// anything with a `head.vars` list parses to
    /// [`QueryResults::Solutions`] — including serialized CONSTRUCT graphs,
    /// which `to_json` encodes as `subject`/`predicate`/`object` solutions
    /// (the encoding is not self-describing, so the graph form is not
    /// reconstructed). Binding objects omit unbound variables; they come
    /// back as `None`. Keys not defined by the format are rejected.
    pub fn from_json(text: &str) -> Result<QueryResults, JsonParseError> {
        parse_results(text)
    }

    /// Serialize SELECT solutions as TSV with full term syntax.
    pub fn to_tsv(&self) -> String {
        let (variables, rows) = match self {
            QueryResults::Solutions { variables, rows } => (variables, rows),
            QueryResults::Boolean(b) => return format!("?boolean\n{b}\n"),
            QueryResults::Graph(g) => return applab_rdf::ntriples::write_ntriples(g),
        };
        let mut out = String::new();
        out.push_str(
            &variables
                .iter()
                .map(|v| format!("?{v}"))
                .collect::<Vec<_>>()
                .join("\t"),
        );
        out.push('\n');
        for row in rows {
            let cells: Vec<String> = row
                .values
                .iter()
                .map(|v| v.as_ref().map(|t| t.to_string()).unwrap_or_default())
                .collect();
            out.push_str(&cells.join("\t"));
            out.push('\n');
        }
        out
    }
}

/// Error parsing a SPARQL results JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError(pub String);

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SPARQL results JSON: {}", self.0)
    }
}

impl std::error::Error for JsonParseError {}

fn term(binding: &Value) -> Result<Term, JsonParseError> {
    let get_str = |key: &str| binding.get(key).and_then(Value::as_str);
    let value = get_str("value")
        .ok_or_else(|| JsonParseError("binding without string \"value\"".into()))?;
    match get_str("type") {
        Some("uri") => Ok(Term::Named(NamedNode::new(value))),
        Some("bnode") => Ok(Term::Blank(BlankNode::new(value))),
        Some("literal") => {
            if let Some(lang) = get_str("xml:lang") {
                Ok(Literal::lang(value, lang).into())
            } else if let Some(dt) = get_str("datatype") {
                Ok(Literal::typed(value, NamedNode::new(dt)).into())
            } else {
                Ok(Literal::string(value).into())
            }
        }
        other => Err(JsonParseError(format!("bad term type {other:?}"))),
    }
}

fn parse_results(text: &str) -> Result<QueryResults, JsonParseError> {
    let err = |msg: &str| JsonParseError(msg.to_string());
    let doc = json::parse(text).map_err(|e| JsonParseError(e.to_string()))?;
    if doc.as_object().is_none() {
        return Err(err("document is not an object"));
    }
    if let Some(v) = doc.get("boolean") {
        let b = v
            .as_bool()
            .ok_or_else(|| err("\"boolean\" is not a bool"))?;
        return Ok(QueryResults::Boolean(b));
    }
    let list = |outer: &str, inner: &str| {
        doc.get(outer)
            .and_then(|v| v.get(inner))
            .and_then(Value::as_array)
            .ok_or_else(|| JsonParseError(format!("document has no {outer}.{inner} list")))
    };
    let vars = list("head", "vars")?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| err("head.vars entry is not a string"))?;
    let rows = list("results", "bindings")?
        .iter()
        .map(|b| {
            let members = b
                .as_object()
                .ok_or_else(|| err("binding is not an object"))?;
            if let Some((key, _)) = members.iter().find(|(k, _)| !vars.contains(k)) {
                return Err(JsonParseError(format!(
                    "binding variable {key:?} is not in head.vars"
                )));
            }
            let values = vars
                .iter()
                .map(|v| b.get(v).map(term).transpose())
                .collect::<Result<_, _>>()?;
            Ok(Row { values })
        })
        .collect::<Result<_, _>>()?;
    Ok(QueryResults::Solutions {
        variables: vars,
        rows,
    })
}

/// Flush threshold for [`QueryResults::write_json`]: once the internal
/// buffer passes this size it is handed to the writer and cleared, bounding
/// serializer memory regardless of result cardinality.
pub const JSON_FLUSH_BYTES: usize = 8 * 1024;

/// `{"head":{"vars":[...]},"results":{"bindings":[` — everything up to the
/// first binding object.
fn push_json_head<'a>(out: &mut String, variables: impl Iterator<Item = &'a str>) {
    out.push_str("{\"head\":{\"vars\":[");
    for (i, v) in variables.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(out, v);
    }
    out.push_str("]},\"results\":{\"bindings\":[");
}

/// One binding object: `{"var":{term},...}` over the bound pairs only.
fn push_json_binding<'a>(out: &mut String, pairs: impl Iterator<Item = (&'a str, &'a Term)>) {
    out.push('{');
    for (i, (v, t)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_string(out, v);
        out.push(':');
        push_json_term(out, t);
    }
    out.push('}');
}

/// Append one RDF term as a SPARQL-results-JSON object.
fn push_json_term(out: &mut String, t: &Term) {
    match t {
        Term::Named(n) => {
            out.push_str("{\"type\":\"uri\",\"value\":");
            json::push_string(out, n.as_str());
            out.push('}');
        }
        Term::Blank(b) => {
            out.push_str("{\"type\":\"bnode\",\"value\":");
            json::push_string(out, b.as_str());
            out.push('}');
        }
        Term::Literal(l) => {
            out.push_str("{\"type\":\"literal\",\"value\":");
            json::push_string(out, l.value());
            if let Some(lang) = l.language() {
                out.push_str(",\"xml:lang\":");
                json::push_string(out, lang);
            } else if l.datatype().as_str() != vocab::xsd::STRING {
                out.push_str(",\"datatype\":");
                json::push_string(out, l.datatype().as_str());
            }
            out.push('}');
        }
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> QueryResults {
        QueryResults::Solutions {
            variables: vec!["name".into(), "lai".into()],
            rows: vec![
                Row {
                    values: vec![
                        Some(Literal::string("Bois, de \"Boulogne\"").into()),
                        Some(Literal::float(3.5).into()),
                    ],
                },
                Row {
                    values: vec![None, Some(Literal::float(1.0).into())],
                },
            ],
        }
    }

    #[test]
    fn csv_output() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("name,lai"));
        assert_eq!(lines.next(), Some("\"Bois, de \"\"Boulogne\"\"\",3.5"));
        assert_eq!(lines.next(), Some(",1"));
    }

    #[test]
    fn tsv_output_has_full_terms() {
        let tsv = sample().to_tsv();
        assert!(tsv.starts_with("?name\t?lai\n"));
        assert!(tsv.contains("^^<http://www.w3.org/2001/XMLSchema#float>"));
    }

    #[test]
    fn value_lookup() {
        let r = sample();
        assert_eq!(
            r.value(0, "lai").unwrap().as_literal().unwrap().as_f64(),
            Some(3.5)
        );
        assert!(r.value(1, "name").is_none());
        assert!(r.value(5, "lai").is_none());
    }

    #[test]
    fn ask_serialization() {
        assert_eq!(QueryResults::Boolean(true).to_csv(), "boolean\ntrue\n");
        assert_eq!(QueryResults::Boolean(true).as_bool(), Some(true));
    }

    /// Golden output for the W3C SPARQL 1.1 Results JSON writer: every
    /// term kind, string escaping, and an unbound variable.
    #[test]
    fn json_golden_output() {
        let r = QueryResults::Solutions {
            variables: vec!["s".into(), "label".into(), "lai".into()],
            rows: vec![
                Row {
                    values: vec![
                        Some(Term::named("http://ex.org/p1")),
                        Some(Literal::lang("Bois de \"Boulogne\"\n", "fr").into()),
                        Some(Literal::float(3.5).into()),
                    ],
                },
                Row {
                    values: vec![
                        Some(Term::Blank(applab_rdf::BlankNode::new("b0"))),
                        Some(Literal::string("plain").into()),
                        None,
                    ],
                },
            ],
        };
        assert_eq!(
            r.to_json(),
            concat!(
                "{\"head\":{\"vars\":[\"s\",\"label\",\"lai\"]},\"results\":{\"bindings\":[",
                "{\"s\":{\"type\":\"uri\",\"value\":\"http://ex.org/p1\"},",
                "\"label\":{\"type\":\"literal\",\"value\":\"Bois de \\\"Boulogne\\\"\\n\",\"xml:lang\":\"fr\"},",
                "\"lai\":{\"type\":\"literal\",\"value\":\"3.5\",\"datatype\":\"http://www.w3.org/2001/XMLSchema#float\"}},",
                "{\"s\":{\"type\":\"bnode\",\"value\":\"b0\"},",
                "\"label\":{\"type\":\"literal\",\"value\":\"plain\"}}",
                "]}}"
            )
        );
    }

    #[test]
    fn json_round_trip_covers_every_term_kind() {
        let r = QueryResults::Solutions {
            variables: vec!["s".into(), "label".into(), "lai".into()],
            rows: vec![
                Row {
                    values: vec![
                        Some(Term::named("http://ex.org/p1")),
                        Some(Literal::lang("Bois de \"Boulogne\"\n\t", "fr").into()),
                        Some(Literal::float(3.5).into()),
                    ],
                },
                Row {
                    values: vec![
                        Some(Term::Blank(applab_rdf::BlankNode::new("b0"))),
                        Some(Literal::string("plain ünïcode").into()),
                        None,
                    ],
                },
            ],
        };
        assert_eq!(QueryResults::from_json(&r.to_json()).unwrap(), r);
        for b in [true, false] {
            let r = QueryResults::Boolean(b);
            assert_eq!(QueryResults::from_json(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn json_parser_rejects_malformed_documents() {
        for bad in [
            "",
            "[]",
            "{\"head\":{}}",
            "{\"head\":{\"vars\":[1]},\"results\":{\"bindings\":[]}}",
            "{\"head\":{\"vars\":[\"v\"]},\"results\":{}}",
            // Binding for a variable not in head.vars.
            "{\"head\":{\"vars\":[\"v\"]},\"results\":{\"bindings\":[{\"w\":{\"type\":\"uri\",\"value\":\"http://x\"}}]}}",
            // Unknown term type.
            "{\"head\":{\"vars\":[\"v\"]},\"results\":{\"bindings\":[{\"v\":{\"type\":\"triple\",\"value\":\"x\"}}]}}",
            // Trailing garbage.
            "{\"head\":{},\"boolean\":true} extra",
            "{\"head\":{\"vars\":[\"v\"]},\"results\":{\"bindings\":[{\"v\":{\"type\":\"literal\",\"value\":\"unterminated",
        ] {
            assert!(QueryResults::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn json_parser_handles_escapes_and_surrogates() {
        let doc = "{\"head\":{\"vars\":[\"v\"]},\"results\":{\"bindings\":[{\"v\":{\"type\":\"literal\",\"value\":\"a\\u0007b\\ud83d\\ude00c\\\\d\"}}]}}";
        let r = QueryResults::from_json(doc).unwrap();
        assert_eq!(
            r.value(0, "v").unwrap().as_literal().unwrap().value(),
            "a\u{7}b😀c\\d"
        );
    }

    /// The framing estimate tracks the real serialization closely (it
    /// only ignores escape expansion) and is exact for ASK.
    #[test]
    fn json_size_estimate_tracks_actual_length() {
        for r in [
            sample(),
            QueryResults::Solutions {
                variables: vec!["s".into()],
                rows: (0..500)
                    .map(|i| Row {
                        values: vec![Some(Term::named(format!("http://ex.org/r{i}")))],
                    })
                    .collect(),
            },
        ] {
            let actual = r.to_json().len() as u64;
            let estimate = r.json_size_estimate();
            assert!(
                estimate.abs_diff(actual) * 10 <= actual,
                "estimate {estimate} vs actual {actual} drifted more than 10%"
            );
        }
        for b in [true, false] {
            let r = QueryResults::Boolean(b);
            assert_eq!(r.json_size_estimate(), r.to_json().len() as u64);
        }
        let mut g = Graph::new();
        g.add(
            applab_rdf::Resource::named("http://ex.org/a"),
            applab_rdf::NamedNode::new("http://ex.org/p"),
            Term::named("http://ex.org/b"),
        );
        let r = QueryResults::Graph(g);
        let actual = r.to_json().len() as u64;
        let estimate = r.json_size_estimate();
        assert!(
            estimate.abs_diff(actual) * 5 <= actual,
            "graph estimate {estimate} vs actual {actual}"
        );
    }

    #[test]
    fn json_ask_and_graph() {
        assert_eq!(
            QueryResults::Boolean(false).to_json(),
            "{\"head\":{},\"boolean\":false}"
        );
        let mut g = Graph::new();
        g.add(
            applab_rdf::Resource::named("http://ex.org/a"),
            applab_rdf::NamedNode::new("http://ex.org/p"),
            Term::named("http://ex.org/b"),
        );
        let json = QueryResults::Graph(g).to_json();
        assert!(json.starts_with("{\"head\":{\"vars\":[\"subject\",\"predicate\",\"object\"]}"));
        assert!(json.contains("\"predicate\":{\"type\":\"uri\",\"value\":\"http://ex.org/p\"}"));
    }
}
