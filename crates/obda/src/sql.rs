//! The source-clause query language.
//!
//! Parses the `source` part of a mapping (Listing 2):
//!
//! ```text
//! SELECT id, LAI, ts, loc
//! FROM (ordered opendap url:https://.../dodsC/<dataset>/readdods/LAI/, 10)
//! WHERE LAI > 0
//! ```
//!
//! Two FROM forms are accepted: a plain table name, or an `opendap`
//! virtual-table invocation (either the paper's `(ordered opendap url..., w)`
//! shape or the function form `opendap(dataset, variable, w_seconds)`).

use crate::ObdaError;

/// A comparison operator in a WHERE conjunct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn evaluate(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Neq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// A constant in a WHERE conjunct.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    Number(f64),
    Text(String),
}

/// One `column OP constant` conjunct.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub column: String,
    pub op: CmpOp,
    pub value: Const,
}

/// The FROM clause.
#[derive(Debug, Clone, PartialEq)]
pub enum FromClause {
    /// A named base table.
    Table(String),
    /// The `opendap` virtual table: dataset, variable, cache window seconds.
    Opendap {
        dataset: String,
        variable: String,
        window_secs: u64,
    },
}

/// A parsed source query.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceQuery {
    /// Selected columns; empty = `*`.
    pub columns: Vec<String>,
    pub from: FromClause,
    pub predicates: Vec<Predicate>,
}

impl SourceQuery {
    /// Whether the query selects `column` (`*` selects every column).
    pub fn projects(&self, column: &str) -> bool {
        self.columns.is_empty() || self.columns.iter().any(|c| c == column)
    }

    /// Parse a source clause.
    pub fn parse(text: &str) -> Result<SourceQuery, ObdaError> {
        let err = |m: String| ObdaError::Sql(m);
        let text = text.trim();
        let lower = text.to_ascii_lowercase();
        if !lower.starts_with("select") {
            return Err(err(format!("expected SELECT, found {text:?}")));
        }
        let from_pos =
            find_keyword(&lower, "from").ok_or_else(|| err("missing FROM clause".to_string()))?;
        let select_part = text[6..from_pos].trim();
        let rest = &text[from_pos + 4..];
        let lower_rest = rest.to_ascii_lowercase();
        let (from_part, where_part) = match find_keyword(&lower_rest, "where") {
            Some(i) => (rest[..i].trim(), Some(rest[i + 5..].trim())),
            None => (rest.trim(), None),
        };

        let columns = if select_part == "*" {
            Vec::new()
        } else {
            select_part
                .split(',')
                .map(|c| c.trim().to_string())
                .filter(|c| !c.is_empty())
                .collect()
        };
        if columns.is_empty() && select_part != "*" {
            return Err(err("empty SELECT list".to_string()));
        }

        let from = parse_from(from_part)?;
        let predicates = match where_part {
            Some(w) => parse_where(w)?,
            None => Vec::new(),
        };
        Ok(SourceQuery {
            columns,
            from,
            predicates,
        })
    }
}

/// Find a keyword at a word boundary.
fn find_keyword(lower: &str, kw: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(i) = lower[start..].find(kw) {
        let at = start + i;
        let before_ok = at == 0 || !lower.as_bytes()[at - 1].is_ascii_alphanumeric();
        let after = at + kw.len();
        let after_ok = after >= lower.len() || !lower.as_bytes()[after].is_ascii_alphanumeric();
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + kw.len();
    }
    None
}

fn parse_from(text: &str) -> Result<FromClause, ObdaError> {
    let err = |m: String| ObdaError::Sql(m);
    let trimmed = text.trim();
    let inner = trimmed
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .unwrap_or(trimmed)
        .trim();
    let lower = inner.to_ascii_lowercase();
    if !lower.contains("opendap") {
        // Plain table name.
        if inner.is_empty() || inner.contains(char::is_whitespace) {
            return Err(err(format!("bad table name {inner:?}")));
        }
        return Ok(FromClause::Table(inner.to_string()));
    }

    // Function form: opendap(dataset, variable, window_secs)
    if let Some(args_start) = inner.find('(') {
        if lower.trim_start().starts_with("opendap") {
            let args_end = inner
                .rfind(')')
                .ok_or_else(|| err("unclosed opendap(...)".to_string()))?;
            let args: Vec<&str> = inner[args_start + 1..args_end]
                .split(',')
                .map(str::trim)
                .collect();
            if args.len() < 2 {
                return Err(err("opendap(dataset, variable[, window_secs])".to_string()));
            }
            let unquote = |s: &str| s.trim_matches(['\'', '"']).to_string();
            let window_secs = match args.get(2) {
                Some(w) => w
                    .parse::<u64>()
                    .map_err(|_| err(format!("bad window {w:?}")))?,
                None => 0,
            };
            return Ok(FromClause::Opendap {
                dataset: unquote(args[0]),
                variable: unquote(args[1]),
                window_secs,
            });
        }
    }

    // The paper form: `ordered opendap url:https://.../dodsC/DS/readdods/VAR/, 10`
    let mut url = None;
    let mut window_minutes = 0u64;
    for token in inner.split([' ', ',']).filter(|t| !t.is_empty()) {
        let t = token.trim();
        if let Some(u) = t.strip_prefix("url:") {
            url = Some(u.to_string());
        } else if t.starts_with("http") {
            url = Some(t.to_string());
        } else if let Ok(n) = t.parse::<u64>() {
            window_minutes = n;
        }
    }
    let url = url.ok_or_else(|| err("opendap source without url".to_string()))?;
    // Extract <dataset> and <variable> from .../dodsC/<dataset>/readdods/<VAR>/
    let dataset = url
        .split("dodsC/")
        .nth(1)
        .and_then(|rest| rest.split('/').next())
        .ok_or_else(|| err(format!("cannot find dataset in url {url:?}")))?
        .to_string();
    let variable = url
        .split("readdods/")
        .nth(1)
        .map(|rest| rest.trim_end_matches('/').to_string())
        .filter(|v| !v.is_empty())
        .ok_or_else(|| err(format!("cannot find variable in url {url:?}")))?;
    Ok(FromClause::Opendap {
        dataset,
        variable,
        window_secs: window_minutes * 60,
    })
}

fn parse_where(text: &str) -> Result<Vec<Predicate>, ObdaError> {
    let err = |m: String| ObdaError::Sql(m);
    let mut out = Vec::new();
    // Split on AND at word boundaries (case-insensitive).
    for conjunct in split_and(text) {
        let conjunct = conjunct.trim();
        if conjunct.is_empty() {
            continue;
        }
        let (op, op_str) = ["!=", "<=", ">=", "=", "<", ">"]
            .iter()
            .find_map(|s| conjunct.find(s).map(|i| (i, *s)))
            .map(|(i, s)| ((i, s), s))
            .ok_or_else(|| err(format!("no comparison in {conjunct:?}")))?;
        let (i, _) = op;
        let column = conjunct[..i].trim().to_string();
        let value_str = conjunct[i + op_str.len()..].trim();
        if column.is_empty() || value_str.is_empty() {
            return Err(err(format!("bad conjunct {conjunct:?}")));
        }
        let op = match op_str {
            "=" => CmpOp::Eq,
            "!=" => CmpOp::Neq,
            "<" => CmpOp::Lt,
            "<=" => CmpOp::Le,
            ">" => CmpOp::Gt,
            ">=" => CmpOp::Ge,
            _ => unreachable!(),
        };
        let value = if let Ok(n) = value_str.parse::<f64>() {
            Const::Number(n)
        } else {
            Const::Text(value_str.trim_matches(['\'', '"']).to_string())
        };
        out.push(Predicate { column, op, value });
    }
    Ok(out)
}

fn split_and(text: &str) -> Vec<&str> {
    let lower = text.to_ascii_lowercase();
    let mut parts = Vec::new();
    let mut start = 0;
    let mut search = 0;
    while let Some(i) = lower[search..].find("and") {
        let at = search + i;
        let before_ok = at == 0 || !lower.as_bytes()[at - 1].is_ascii_alphanumeric();
        let after = at + 3;
        let after_ok = after >= lower.len() || !lower.as_bytes()[after].is_ascii_alphanumeric();
        if before_ok && after_ok {
            parts.push(&text[start..at]);
            start = after;
        }
        search = after;
    }
    parts.push(&text[start..]);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_listing2_source() {
        // Verbatim shape from the paper's Listing 2 (line breaks joined).
        let q = SourceQuery::parse(
            "SELECT id, LAI , ts, loc FROM (ordered opendap \
             url:https://analytics.ramani.ujuizi.com/thredds/dodsC/Copernicus-Land-timeseries-global-LAI/readdods/LAI/, 10) \
             WHERE LAI > 0",
        )
        .unwrap();
        assert_eq!(q.columns, vec!["id", "LAI", "ts", "loc"]);
        assert_eq!(
            q.from,
            FromClause::Opendap {
                dataset: "Copernicus-Land-timeseries-global-LAI".into(),
                variable: "LAI".into(),
                window_secs: 600,
            }
        );
        assert_eq!(
            q.predicates,
            vec![Predicate {
                column: "LAI".into(),
                op: CmpOp::Gt,
                value: Const::Number(0.0),
            }]
        );
    }

    #[test]
    fn parse_function_form() {
        let q = SourceQuery::parse("SELECT * FROM opendap('lai_300m', 'LAI', 600)").unwrap();
        assert!(q.columns.is_empty());
        assert_eq!(
            q.from,
            FromClause::Opendap {
                dataset: "lai_300m".into(),
                variable: "LAI".into(),
                window_secs: 600,
            }
        );
    }

    #[test]
    fn parse_table_with_where() {
        let q = SourceQuery::parse(
            "SELECT id, name, geom FROM parks WHERE kind = park AND area >= 10.5",
        )
        .unwrap();
        assert_eq!(q.from, FromClause::Table("parks".into()));
        assert_eq!(q.predicates.len(), 2);
        assert_eq!(q.predicates[0].value, Const::Text("park".into()));
        assert_eq!(q.predicates[1].op, CmpOp::Ge);
        assert_eq!(q.predicates[1].value, Const::Number(10.5));
    }

    #[test]
    fn keywords_inside_identifiers() {
        // 'fromage' must not be mistaken for FROM, 'android' not for AND.
        let q = SourceQuery::parse("SELECT fromage FROM t WHERE android = 1").unwrap();
        assert_eq!(q.columns, vec!["fromage"]);
        assert_eq!(q.predicates.len(), 1);
        assert_eq!(q.predicates[0].column, "android");
    }

    #[test]
    fn parse_errors() {
        assert!(SourceQuery::parse("").is_err());
        assert!(SourceQuery::parse("UPDATE t SET x = 1").is_err());
        assert!(SourceQuery::parse("SELECT a, b").is_err()); // no FROM
        assert!(SourceQuery::parse("SELECT a FROM two words").is_err());
        assert!(SourceQuery::parse("SELECT a FROM t WHERE x").is_err());
        assert!(SourceQuery::parse("SELECT a FROM (ordered opendap , 10)").is_err());
        assert!(SourceQuery::parse("SELECT a FROM opendap('only-one-arg')").is_err());
    }

    #[test]
    fn cmp_op_semantics() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.evaluate(Equal));
        assert!(!CmpOp::Eq.evaluate(Less));
        assert!(CmpOp::Le.evaluate(Equal));
        assert!(CmpOp::Le.evaluate(Less));
        assert!(CmpOp::Neq.evaluate(Greater));
        assert!(CmpOp::Ge.evaluate(Greater));
    }
}
