//! The correctness oracle's bookkeeping: an order-insensitive digest of a
//! query answer, computed the same way from an in-process result (the
//! independent engine, via `layers.rs`) and from a Results-JSON body that
//! came back over the wire.

use crate::json::{self, Json};

/// FNV-1a over the parts of one binding, then mixed so that the per-row
/// sum below does not cancel structured inputs.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Field separator: ("ab", "c") and ("a", "bc") hash apart.
    *h = (*h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
}

const XSD: &str = "http://www.w3.org/2001/XMLSchema#";

/// Hash of one solution row; bindings may be added in any order.
#[derive(Debug, Default)]
pub struct RowHasher(u64);

impl RowHasher {
    pub fn new() -> Self {
        RowHasher::default()
    }

    /// `kind` is `uri`, `bnode` or `literal`; `qualifier` is a literal's
    /// datatype IRI, `@lang`, or empty for a plain string.
    ///
    /// Blank-node labels are engine-local, so only their presence counts.
    /// Floating-point literals are compared to nine significant digits:
    /// two engines may add the same numbers in a different order.
    pub fn bind(&mut self, var: &str, kind: &str, value: &str, qualifier: &str) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, var.as_bytes());
        fnv(&mut h, kind.as_bytes());
        let floating = qualifier
            .strip_prefix(XSD)
            .is_some_and(|local| matches!(local, "double" | "float" | "decimal"));
        match (kind, floating.then(|| value.parse::<f64>().ok()).flatten()) {
            ("bnode", _) => {}
            (_, Some(number)) => fnv(&mut h, format!("{number:.8e}").as_bytes()),
            _ => fnv(&mut h, value.as_bytes()),
        }
        fnv(&mut h, qualifier.as_bytes());
        self.0 = self.0.wrapping_add(mix(h));
    }

    pub fn finish(self) -> u64 {
        mix(self.0)
    }
}

/// A query answer reduced to what the oracle compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Row hashes, ascending (a multiset).
    Rows(Vec<u64>),
    Boolean(bool),
}

impl Answer {
    pub fn from_row_hashes(mut hashes: Vec<u64>) -> Self {
        hashes.sort_unstable();
        Answer::Rows(hashes)
    }

    pub fn row_count(&self) -> usize {
        match self {
            Answer::Rows(rows) => rows.len(),
            Answer::Boolean(_) => 0,
        }
    }

    /// Parse a SPARQL Results JSON document.
    pub fn from_results_json(body: &str) -> Result<Answer, String> {
        let doc = json::parse(body)?;
        if let Some(b) = doc.get("boolean") {
            return b
                .as_bool()
                .map(Answer::Boolean)
                .ok_or("boolean is not a boolean".into());
        }
        let bindings = doc
            .get("results")
            .and_then(|r| r.get("bindings"))
            .and_then(Json::as_arr)
            .ok_or("no results.bindings array")?;
        let mut hashes = Vec::with_capacity(bindings.len());
        for row in bindings {
            let mut hasher = RowHasher::new();
            for (var, term) in row.members() {
                let field = |key: &str| term.get(key).and_then(Json::as_str);
                let kind = field("type").ok_or("binding without a type")?;
                let value = field("value").ok_or("binding without a value")?;
                let qualifier = match (field("xml:lang"), field("datatype")) {
                    (Some(lang), _) => format!("@{lang}"),
                    (None, Some(datatype)) => datatype.to_string(),
                    (None, None) => String::new(),
                };
                hasher.bind(var, kind, value, &qualifier);
            }
            hashes.push(hasher.finish());
        }
        Ok(Answer::from_row_hashes(hashes))
    }
}

/// What a response to one operation must look like.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The same answer as the oracle's.
    Exactly(Answer),
    /// `rows` rows, each one of the oracle's rows for the un-paged pattern:
    /// a `LIMIT` page without `ORDER BY` may be any such subset.
    PageOf { rows: usize, source: Vec<u64> },
}

impl Expected {
    pub fn row_count(&self) -> usize {
        match self {
            Expected::Exactly(answer) => answer.row_count(),
            Expected::PageOf { rows, .. } => *rows,
        }
    }

    /// Check a full answer; the error says what differed.
    pub fn check(&self, got: &Answer) -> Result<(), String> {
        match self {
            Expected::Exactly(want) if want == got => Ok(()),
            Expected::Exactly(want) => Err(match (want, got) {
                (Answer::Rows(w), Answer::Rows(g)) if w.len() != g.len() => {
                    format!("{} rows, oracle has {}", g.len(), w.len())
                }
                (Answer::Rows(_), Answer::Rows(_)) => "same row count, different rows".to_string(),
                _ => format!("answer {got:?} differs from the oracle's {want:?}"),
            }),
            Expected::PageOf { rows, source } => match got {
                Answer::Rows(g) if g.len() != *rows => {
                    Err(format!("page has {} rows, expected {rows}", g.len()))
                }
                Answer::Rows(g) if g.iter().all(|h| source.binary_search(h).is_ok()) => Ok(()),
                Answer::Rows(_) => Err("page holds a row the oracle does not have".to_string()),
                Answer::Boolean(_) => Err("boolean answer to a SELECT".to_string()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"head":{"vars":["a","n"]},"results":{"bindings":[
        {"a":{"type":"uri","value":"http://x/1"},"n":{"type":"literal","value":"0.30000000000000004","datatype":"http://www.w3.org/2001/XMLSchema#double"}},
        {"a":{"type":"uri","value":"http://x/2"},"n":{"type":"literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"}}]}}"#;

    #[test]
    fn digest_ignores_row_and_column_order_and_float_dust() {
        let reordered = r#"{"head":{"vars":["n","a"]},"results":{"bindings":[
            {"n":{"type":"literal","value":"7","datatype":"http://www.w3.org/2001/XMLSchema#integer"},"a":{"type":"uri","value":"http://x/2"}},
            {"n":{"type":"literal","value":"0.3","datatype":"http://www.w3.org/2001/XMLSchema#double"},"a":{"type":"uri","value":"http://x/1"}}]}}"#;
        let a = Answer::from_results_json(DOC).unwrap();
        let b = Answer::from_results_json(reordered).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.row_count(), 2);
        assert!(Expected::Exactly(a).check(&b).is_ok());
    }

    #[test]
    fn digest_sees_a_changed_value_and_a_changed_type() {
        let base = Answer::from_results_json(DOC).unwrap();
        let other_value = Answer::from_results_json(&DOC.replace("\"7\"", "\"8\"")).unwrap();
        let other_type =
            Answer::from_results_json(&DOC.replace("XMLSchema#integer", "XMLSchema#long")).unwrap();
        let other_float =
            Answer::from_results_json(&DOC.replace("0.30000000000000004", "0.31")).unwrap();
        for changed in [&other_value, &other_type, &other_float] {
            assert_ne!(&base, changed);
            assert!(Expected::Exactly(base.clone()).check(changed).is_err());
        }
        // Swapping a value between two columns is not the same row.
        let mut x = RowHasher::new();
        x.bind("a", "literal", "1", "");
        x.bind("b", "literal", "2", "");
        let mut y = RowHasher::new();
        y.bind("a", "literal", "2", "");
        y.bind("b", "literal", "1", "");
        assert_ne!(x.finish(), y.finish());
    }

    #[test]
    fn boolean_and_page_answers() {
        let yes = Answer::from_results_json(r#"{"head":{},"boolean":true}"#).unwrap();
        assert_eq!(yes, Answer::Boolean(true));
        assert!(Expected::Exactly(Answer::Boolean(false))
            .check(&yes)
            .is_err());

        let Answer::Rows(all) = Answer::from_results_json(DOC).unwrap() else {
            panic!("rows")
        };
        let page = Expected::PageOf {
            rows: 1,
            source: all.clone(),
        };
        assert!(page.check(&Answer::Rows(vec![all[1]])).is_ok());
        assert!(
            page.check(&Answer::Rows(all.clone())).is_err(),
            "too many rows"
        );
        assert!(
            page.check(&Answer::Rows(vec![all[1] ^ 1])).is_err(),
            "foreign row"
        );
    }
}
