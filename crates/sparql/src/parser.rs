//! The SPARQL parser.
//!
//! Parses the subset described in the crate docs. The default prefix table
//! ([`applab_rdf::vocab::default_prefixes`]) is preloaded, matching the
//! paper's "assuming appropriate PREFIX definitions" convention in
//! Listings 1 and 3; `PREFIX` declarations in the query override it.

use crate::algebra::{
    Aggregate, Expression, GraphPattern, OrderKey, Projection, Query, QueryForm, TermPattern,
    TriplePattern,
};
use applab_rdf::{vocab, Literal, NamedNode, Term};
use std::collections::HashMap;
use std::fmt;
use std::sync::LazyLock;

/// The `a` keyword's predicate and the numeric literals' datatypes, built
/// once: each use clones one, which bumps a reference count instead of
/// allocating the IRI again.
static RDF_TYPE: LazyLock<Term> = LazyLock::new(|| Term::named(vocab::rdf::TYPE));
static XSD_INTEGER: LazyLock<NamedNode> = LazyLock::new(|| NamedNode::new(vocab::xsd::INTEGER));
static XSD_DOUBLE: LazyLock<NamedNode> = LazyLock::new(|| NamedNode::new(vocab::xsd::DOUBLE));

/// Parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SPARQL parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Var(String),
    Iri(String),
    Prefixed(String, String),
    Str {
        value: String,
        datatype: Option<Box<Tok>>,
        lang: Option<String>,
    },
    Num(String),
    Word(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Semicolon,
    Comma,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Plus,
    Minus,
    Star,
    Slash,
    Caret2,
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            position: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'#' => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn word(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    /// Word that may contain `:` (prefixed name) and interior dots/dashes.
    fn pname(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            let b = self.bytes[self.pos];
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b':') || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    fn next(&mut self) -> Result<Option<Tok>, ParseError> {
        self.skip_ws();
        let b = match self.bytes.get(self.pos) {
            Some(b) => *b,
            None => return Ok(None),
        };
        let tok = match b {
            b'{' => {
                self.pos += 1;
                Tok::LBrace
            }
            b'}' => {
                self.pos += 1;
                Tok::RBrace
            }
            b'(' => {
                self.pos += 1;
                Tok::LParen
            }
            b')' => {
                self.pos += 1;
                Tok::RParen
            }
            b'.' => {
                self.pos += 1;
                Tok::Dot
            }
            b';' => {
                self.pos += 1;
                Tok::Semicolon
            }
            b',' => {
                self.pos += 1;
                Tok::Comma
            }
            b'=' => {
                self.pos += 1;
                Tok::Eq
            }
            b'*' => {
                self.pos += 1;
                Tok::Star
            }
            b'/' => {
                self.pos += 1;
                Tok::Slash
            }
            b'+' => {
                self.pos += 1;
                Tok::Plus
            }
            b'!' => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Tok::Neq
                } else {
                    Tok::Bang
                }
            }
            b'&' => {
                if self.bytes.get(self.pos + 1) == Some(&b'&') {
                    self.pos += 2;
                    Tok::AndAnd
                } else {
                    return self.err("expected '&&'");
                }
            }
            b'|' => {
                if self.bytes.get(self.pos + 1) == Some(&b'|') {
                    self.pos += 2;
                    Tok::OrOr
                } else {
                    return self.err("expected '||'");
                }
            }
            b'^' => {
                if self.bytes.get(self.pos + 1) == Some(&b'^') {
                    self.pos += 2;
                    Tok::Caret2
                } else {
                    return self.err("expected '^^'");
                }
            }
            b'?' | b'$' => {
                self.pos += 1;
                let name = self.word();
                if name.is_empty() {
                    return self.err("empty variable name");
                }
                Tok::Var(name)
            }
            b'<' => {
                // IRI or comparison: an IRI has a '>' before any whitespace.
                let rest = &self.bytes[self.pos + 1..];
                let mut is_iri = false;
                for &c in rest.iter() {
                    if c == b'>' {
                        is_iri = true;
                        break;
                    }
                    if c.is_ascii_whitespace() || c == b'<' || c == b'"' {
                        break;
                    }
                }
                if is_iri {
                    self.pos += 1;
                    let start = self.pos;
                    while self.bytes[self.pos] != b'>' {
                        self.pos += 1;
                    }
                    let iri = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
                    self.pos += 1;
                    Tok::Iri(iri)
                } else {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        Tok::Le
                    } else {
                        Tok::Lt
                    }
                }
            }
            b'>' => {
                self.pos += 1;
                if self.bytes.get(self.pos) == Some(&b'=') {
                    self.pos += 1;
                    Tok::Ge
                } else {
                    Tok::Gt
                }
            }
            b'"' | b'\'' => {
                let quote = b;
                self.pos += 1;
                let mut value = String::new();
                loop {
                    let c = match self.bytes.get(self.pos) {
                        Some(c) => *c,
                        None => return self.err("unterminated string"),
                    };
                    if c == quote {
                        self.pos += 1;
                        break;
                    }
                    if c == b'\\' {
                        self.pos += 1;
                        let esc = self.bytes.get(self.pos).copied().ok_or(ParseError {
                            message: "dangling escape".into(),
                            position: self.pos,
                        })?;
                        value.push(match esc {
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            b'"' => '"',
                            b'\'' => '\'',
                            b'\\' => '\\',
                            other => other as char,
                        });
                        self.pos += 1;
                    } else {
                        let len = match c {
                            0x00..=0x7F => 1,
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let end = (self.pos + len).min(self.bytes.len());
                        value.push_str(&String::from_utf8_lossy(&self.bytes[self.pos..end]));
                        self.pos = end;
                    }
                }
                // Suffix.
                if self.bytes.get(self.pos) == Some(&b'^')
                    && self.bytes.get(self.pos + 1) == Some(&b'^')
                {
                    self.pos += 2;
                    self.skip_ws();
                    let dt = match self.bytes.get(self.pos) {
                        Some(b'<') => match self.next()? {
                            Some(t @ Tok::Iri(_)) => t,
                            _ => return self.err("expected datatype IRI"),
                        },
                        Some(_) => {
                            let w = self.pname();
                            match w.split_once(':') {
                                Some((p, l)) => Tok::Prefixed(p.into(), l.into()),
                                None => return self.err("expected datatype"),
                            }
                        }
                        None => return self.err("expected datatype after '^^'"),
                    };
                    Tok::Str {
                        value,
                        datatype: Some(Box::new(dt)),
                        lang: None,
                    }
                } else if self.bytes.get(self.pos) == Some(&b'@') {
                    self.pos += 1;
                    let lang = self.word();
                    Tok::Str {
                        value,
                        datatype: None,
                        lang: Some(lang),
                    }
                } else {
                    Tok::Str {
                        value,
                        datatype: None,
                        lang: None,
                    }
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                self.pos += 1;
                while self.pos < self.bytes.len() {
                    let c = self.bytes[self.pos];
                    if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                // A trailing dot is the triple terminator.
                if self.bytes[self.pos - 1] == b'.' {
                    self.pos -= 1;
                }
                if self.pos == start + 1 && b == b'-' {
                    Tok::Minus
                } else {
                    Tok::Num(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
                }
            }
            _ => {
                let w = self.pname();
                if w.is_empty() {
                    return self.err(format!("unexpected character {:?}", b as char));
                }
                if let Some((p, l)) = w.split_once(':') {
                    Tok::Prefixed(p.to_string(), l.to_string())
                } else {
                    Tok::Word(w)
                }
            }
        };
        Ok(Some(tok))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    peeked: Vec<Tok>,
    prefixes: HashMap<String, String>,
    blank_counter: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let prefixes = vocab::default_prefixes()
            .into_iter()
            .map(|(p, ns)| (p.to_string(), ns.to_string()))
            .collect();
        Parser {
            lexer: Lexer::new(input),
            peeked: Vec::new(),
            prefixes,
            blank_counter: 0,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            position: self.lexer.pos,
        })
    }

    fn next(&mut self) -> Result<Option<Tok>, ParseError> {
        if let Some(t) = self.peeked.pop() {
            return Ok(Some(t));
        }
        self.lexer.next()
    }

    fn peek(&mut self) -> Result<Option<&Tok>, ParseError> {
        if self.peeked.is_empty() {
            if let Some(t) = self.lexer.next()? {
                self.peeked.push(t);
            }
        }
        Ok(self.peeked.last())
    }

    fn unread(&mut self, tok: Tok) {
        self.peeked.push(tok);
    }

    fn expect_tok(&mut self, want: &Tok) -> Result<(), ParseError> {
        match self.next()? {
            Some(t) if &t == want => Ok(()),
            Some(t) => self.err(format!("expected {want:?}, found {t:?}")),
            None => self.err(format!("expected {want:?}, found end of input")),
        }
    }

    /// Consume a keyword (case-insensitive). Returns false without
    /// consuming when the next token is different.
    fn keyword(&mut self, kw: &str) -> Result<bool, ParseError> {
        match self.next()? {
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw) => Ok(true),
            Some(other) => {
                self.unread(other);
                Ok(false)
            }
            None => Ok(false),
        }
    }

    fn resolve(&self, prefix: &str, local: &str) -> Result<NamedNode, ParseError> {
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(NamedNode::new(format!("{ns}{local}"))),
            None => Err(ParseError {
                message: format!("undeclared prefix {prefix:?}"),
                position: self.lexer.pos,
            }),
        }
    }

    fn parse_query(&mut self) -> Result<Query, ParseError> {
        // Prologue.
        loop {
            if self.keyword("PREFIX")? {
                let (p, l) = match self.next()? {
                    Some(Tok::Prefixed(p, l)) => (p, l),
                    Some(Tok::Word(w)) => {
                        // `PREFIX foo :`? Not supported; require `foo:`.
                        return self.err(format!("expected prefix declaration, found {w:?}"));
                    }
                    other => return self.err(format!("expected prefix name, found {other:?}")),
                };
                if !l.is_empty() {
                    return self.err("prefix declarations must end with ':'");
                }
                match self.next()? {
                    Some(Tok::Iri(iri)) => {
                        self.prefixes.insert(p, iri);
                    }
                    other => return self.err(format!("expected IRI, found {other:?}")),
                }
            } else if self.keyword("BASE")? {
                let _ = self.next()?; // ignored: all IRIs are absolute
            } else {
                break;
            }
        }

        if self.keyword("SELECT")? {
            self.parse_select()
        } else if self.keyword("ASK")? {
            // The WHERE keyword is optional in ASK, as in SELECT.
            self.keyword("WHERE")?;
            let pattern = self.parse_group()?;
            Ok(Query {
                form: QueryForm::Ask,
                pattern,
                order_by: vec![],
                limit: None,
                offset: 0,
            })
        } else if self.keyword("CONSTRUCT")? {
            self.expect_tok(&Tok::LBrace)?;
            let template = self.parse_triples_until_rbrace()?;
            if !self.keyword("WHERE")? {
                return self.err("expected WHERE after CONSTRUCT template");
            }
            let pattern = self.parse_group()?;
            let (order_by, limit, offset, _) = self.parse_modifiers()?;
            Ok(Query {
                form: QueryForm::Construct { template },
                pattern,
                order_by,
                limit,
                offset,
            })
        } else {
            self.err("expected SELECT, ASK or CONSTRUCT")
        }
    }

    fn parse_select(&mut self) -> Result<Query, ParseError> {
        let distinct = self.keyword("DISTINCT")?;
        let _ = self.keyword("REDUCED")?;
        let mut projection = Vec::new();
        let mut star = false;
        loop {
            match self.next()? {
                Some(Tok::Star) => {
                    star = true;
                }
                Some(Tok::Var(v)) => projection.push(Projection::Var(v)),
                Some(Tok::LParen) => {
                    projection.push(self.parse_projection_expr()?);
                }
                Some(other) => {
                    self.unread(other);
                    break;
                }
                None => return self.err("unexpected end of SELECT clause"),
            }
            if star {
                break;
            }
        }
        if !star && projection.is_empty() {
            return self.err("SELECT needs projections or *");
        }
        // WHERE is optional in SPARQL but we require the braces either way.
        let _ = self.keyword("WHERE")?;
        let pattern = self.parse_group()?;
        let (order_by, limit, offset, group_by) = self.parse_modifiers()?;
        Ok(Query {
            form: QueryForm::Select {
                distinct,
                projection: if star { vec![] } else { projection },
                group_by,
            },
            pattern,
            order_by,
            limit,
            offset,
        })
    }

    /// Inside `( ... )` of a SELECT clause: either `expr AS ?v` or
    /// `AGG(expr) AS ?v`.
    fn parse_projection_expr(&mut self) -> Result<Projection, ParseError> {
        // Aggregate?
        if let Some(Tok::Word(w)) = self.peek()? {
            let up = w.to_ascii_uppercase();
            let agg = match up.as_str() {
                "COUNT" => Some(Aggregate::Count),
                "SUM" => Some(Aggregate::Sum),
                "AVG" => Some(Aggregate::Avg),
                "MIN" => Some(Aggregate::Min),
                "MAX" => Some(Aggregate::Max),
                "SAMPLE" => Some(Aggregate::Sample),
                _ => None,
            };
            if let Some(agg) = agg {
                let _ = self.next()?;
                self.expect_tok(&Tok::LParen)?;
                let _ = self.keyword("DISTINCT")?; // accepted, not implemented
                let inner = if matches!(self.peek()?, Some(Tok::Star)) {
                    let _ = self.next()?;
                    None
                } else {
                    Some(self.parse_expression()?)
                };
                self.expect_tok(&Tok::RParen)?;
                if !self.keyword("AS")? {
                    return self.err("expected AS in aggregate projection");
                }
                let alias = match self.next()? {
                    Some(Tok::Var(v)) => v,
                    other => return self.err(format!("expected variable, found {other:?}")),
                };
                self.expect_tok(&Tok::RParen)?;
                let agg = if inner.is_none() && agg == Aggregate::Count {
                    Aggregate::CountAll
                } else {
                    agg
                };
                return Ok(Projection::Aggregate(agg, inner, alias));
            }
        }
        let expr = self.parse_expression()?;
        if !self.keyword("AS")? {
            return self.err("expected AS in projection expression");
        }
        let alias = match self.next()? {
            Some(Tok::Var(v)) => v,
            other => return self.err(format!("expected variable, found {other:?}")),
        };
        self.expect_tok(&Tok::RParen)?;
        Ok(Projection::Expr(expr, alias))
    }

    #[allow(clippy::type_complexity)]
    fn parse_modifiers(
        &mut self,
    ) -> Result<(Vec<OrderKey>, Option<usize>, usize, Vec<String>), ParseError> {
        let mut order_by = Vec::new();
        let mut limit = None;
        let mut offset = 0;
        let mut group_by = Vec::new();
        loop {
            if self.keyword("GROUP")? {
                if !self.keyword("BY")? {
                    return self.err("expected BY after GROUP");
                }
                loop {
                    match self.next()? {
                        Some(Tok::Var(v)) => group_by.push(v),
                        Some(other) => {
                            self.unread(other);
                            break;
                        }
                        None => break,
                    }
                }
                if group_by.is_empty() {
                    return self.err("GROUP BY needs at least one variable");
                }
            } else if self.keyword("ORDER")? {
                if !self.keyword("BY")? {
                    return self.err("expected BY after ORDER");
                }
                loop {
                    let descending = if self.keyword("DESC")? {
                        self.expect_tok(&Tok::LParen)?;
                        let e = self.parse_expression()?;
                        self.expect_tok(&Tok::RParen)?;
                        order_by.push(OrderKey {
                            expr: e,
                            descending: true,
                        });
                        continue;
                    } else if self.keyword("ASC")? {
                        self.expect_tok(&Tok::LParen)?;
                        let e = self.parse_expression()?;
                        self.expect_tok(&Tok::RParen)?;
                        order_by.push(OrderKey {
                            expr: e,
                            descending: false,
                        });
                        continue;
                    } else {
                        false
                    };
                    match self.next()? {
                        Some(Tok::Var(v)) => order_by.push(OrderKey {
                            expr: Expression::Var(v),
                            descending,
                        }),
                        Some(other) => {
                            self.unread(other);
                            break;
                        }
                        None => break,
                    }
                }
            } else if self.keyword("LIMIT")? {
                match self.next()? {
                    Some(Tok::Num(n)) => {
                        limit = Some(n.parse().map_err(|_| ParseError {
                            message: format!("bad LIMIT {n}"),
                            position: self.lexer.pos,
                        })?)
                    }
                    other => return self.err(format!("expected number, found {other:?}")),
                }
            } else if self.keyword("OFFSET")? {
                match self.next()? {
                    Some(Tok::Num(n)) => {
                        offset = n.parse().map_err(|_| ParseError {
                            message: format!("bad OFFSET {n}"),
                            position: self.lexer.pos,
                        })?
                    }
                    other => return self.err(format!("expected number, found {other:?}")),
                }
            } else {
                break;
            }
        }
        match self.next()? {
            None => Ok((order_by, limit, offset, group_by)),
            Some(t) => self.err(format!("unexpected trailing token {t:?}")),
        }
    }

    /// `{ ... }` — a group graph pattern.
    fn parse_group(&mut self) -> Result<GraphPattern, ParseError> {
        self.expect_tok(&Tok::LBrace)?;
        let mut current: Option<GraphPattern> = None;
        let mut filters: Vec<Expression> = Vec::new();
        let mut triples: Vec<TriplePattern> = Vec::new();

        let flush = |current: &mut Option<GraphPattern>, triples: &mut Vec<TriplePattern>| {
            if !triples.is_empty() {
                let bgp = GraphPattern::Bgp(std::mem::take(triples));
                *current = Some(match current.take() {
                    None => bgp,
                    Some(c) => GraphPattern::Join(Box::new(c), Box::new(bgp)),
                });
            }
        };

        loop {
            match self.next()? {
                None => return self.err("unterminated group pattern"),
                Some(Tok::RBrace) => break,
                Some(Tok::Dot) => {} // optional separators
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    let e = self.parse_constraint()?;
                    filters.push(e);
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    flush(&mut current, &mut triples);
                    let right = self.parse_group()?;
                    let left = current.take().unwrap_or(GraphPattern::Bgp(vec![]));
                    current = Some(GraphPattern::LeftJoin(Box::new(left), Box::new(right)));
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("BIND") => {
                    flush(&mut current, &mut triples);
                    self.expect_tok(&Tok::LParen)?;
                    let e = self.parse_expression()?;
                    if !self.keyword("AS")? {
                        return self.err("expected AS in BIND");
                    }
                    let v = match self.next()? {
                        Some(Tok::Var(v)) => v,
                        other => return self.err(format!("expected variable, found {other:?}")),
                    };
                    self.expect_tok(&Tok::RParen)?;
                    let inner = current.take().unwrap_or(GraphPattern::Bgp(vec![]));
                    current = Some(GraphPattern::Extend(Box::new(inner), v, e));
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("VALUES") => {
                    flush(&mut current, &mut triples);
                    let values = self.parse_values()?;
                    current = Some(match current.take() {
                        None => values,
                        Some(c) => GraphPattern::Join(Box::new(c), Box::new(values)),
                    });
                }
                Some(Tok::LBrace) => {
                    // Sub-group, possibly a UNION chain.
                    self.unread(Tok::LBrace);
                    flush(&mut current, &mut triples);
                    let mut acc = self.parse_group()?;
                    while self.keyword("UNION")? {
                        let rhs = self.parse_group()?;
                        acc = GraphPattern::Union(Box::new(acc), Box::new(rhs));
                    }
                    current = Some(match current.take() {
                        None => acc,
                        Some(c) => GraphPattern::Join(Box::new(c), Box::new(acc)),
                    });
                }
                Some(other) => {
                    // A triples block starting with this token.
                    self.unread(other);
                    self.parse_triples_block(&mut triples)?;
                }
            }
        }
        flush(&mut current, &mut triples);
        let mut pattern = current.unwrap_or(GraphPattern::Bgp(vec![]));
        // Filters wrap the whole group (SPARQL group semantics).
        if !filters.is_empty() {
            let combined = filters
                .into_iter()
                .reduce(|a, b| Expression::And(Box::new(a), Box::new(b)))
                .unwrap();
            pattern = GraphPattern::Filter(combined, Box::new(pattern));
        }
        Ok(pattern)
    }

    fn parse_values(&mut self) -> Result<GraphPattern, ParseError> {
        // VALUES ?v { t1 t2 } or VALUES (?a ?b) { (t1 t2) (t3 t4) }
        let mut vars = Vec::new();
        let mut multi = false;
        match self.next()? {
            Some(Tok::Var(v)) => vars.push(v),
            Some(Tok::LParen) => {
                multi = true;
                loop {
                    match self.next()? {
                        Some(Tok::Var(v)) => vars.push(v),
                        Some(Tok::RParen) => break,
                        other => return self.err(format!("expected variable, found {other:?}")),
                    }
                }
            }
            other => return self.err(format!("expected VALUES variables, found {other:?}")),
        }
        self.expect_tok(&Tok::LBrace)?;
        let mut rows = Vec::new();
        loop {
            match self.next()? {
                Some(Tok::RBrace) => break,
                Some(Tok::LParen) if multi => {
                    let mut row = Vec::new();
                    loop {
                        match self.peek()? {
                            Some(Tok::RParen) => {
                                let _ = self.next()?;
                                break;
                            }
                            _ => {
                                let tok = self.next()?.unwrap();
                                if let Tok::Word(w) = &tok {
                                    if w.eq_ignore_ascii_case("UNDEF") {
                                        row.push(None);
                                        continue;
                                    }
                                }
                                row.push(Some(self.token_to_term(tok)?));
                            }
                        }
                    }
                    rows.push(row);
                }
                Some(tok) if !multi => {
                    if let Tok::Word(w) = &tok {
                        if w.eq_ignore_ascii_case("UNDEF") {
                            rows.push(vec![None]);
                            continue;
                        }
                    }
                    rows.push(vec![Some(self.token_to_term(tok)?)]);
                }
                other => return self.err(format!("bad VALUES row: {other:?}")),
            }
        }
        Ok(GraphPattern::Values(vars, rows))
    }

    fn parse_triples_until_rbrace(&mut self) -> Result<Vec<TriplePattern>, ParseError> {
        let mut out = Vec::new();
        loop {
            match self.next()? {
                Some(Tok::RBrace) => break,
                Some(Tok::Dot) => {}
                Some(other) => {
                    self.unread(other);
                    self.parse_triples_block(&mut out)?;
                }
                None => return self.err("unterminated template"),
            }
        }
        Ok(out)
    }

    /// One subject with its predicate-object list.
    fn parse_triples_block(&mut self, out: &mut Vec<TriplePattern>) -> Result<(), ParseError> {
        let subject = self.parse_term_pattern()?;
        loop {
            let predicate = match self.next()? {
                Some(Tok::Word(w)) if w == "a" => TermPattern::Term(RDF_TYPE.clone()),
                Some(tok) => {
                    self.unread(tok);
                    self.parse_term_pattern()?
                }
                None => return self.err("expected predicate"),
            };
            loop {
                let object = self.parse_term_pattern()?;
                out.push(TriplePattern {
                    subject: subject.clone(),
                    predicate: predicate.clone(),
                    object,
                });
                match self.peek()? {
                    Some(Tok::Comma) => {
                        let _ = self.next()?;
                    }
                    _ => break,
                }
            }
            match self.peek()? {
                Some(Tok::Semicolon) => {
                    let _ = self.next()?;
                    // A dangling semicolon before '.' or '}' is legal.
                    match self.peek()? {
                        Some(Tok::Dot) | Some(Tok::RBrace) => break,
                        _ => continue,
                    }
                }
                _ => break,
            }
        }
        Ok(())
    }

    fn parse_term_pattern(&mut self) -> Result<TermPattern, ParseError> {
        let tok = self.next()?.ok_or_else(|| ParseError {
            message: "expected term".into(),
            position: self.lexer.pos,
        })?;
        match tok {
            Tok::Var(v) => Ok(TermPattern::Var(v)),
            Tok::Word(w) if w == "_" => {
                // not reachable: blank label comes through Prefixed("_", l)
                self.err(format!("unexpected {w:?}"))
            }
            Tok::Prefixed(p, l) if p == "_" => Ok(TermPattern::Term(Term::Blank(
                applab_rdf::BlankNode::new(l),
            ))),
            Tok::Word(w) if w == "[" => {
                let label = format!("anon{}", self.blank_counter);
                self.blank_counter += 1;
                Ok(TermPattern::Term(Term::Blank(applab_rdf::BlankNode::new(
                    label,
                ))))
            }
            other => Ok(TermPattern::Term(self.token_to_term(other)?)),
        }
    }

    fn token_to_term(&mut self, tok: Tok) -> Result<Term, ParseError> {
        match tok {
            Tok::Iri(iri) => Ok(Term::named(iri)),
            Tok::Prefixed(p, l) if p == "_" => Ok(Term::Blank(applab_rdf::BlankNode::new(l))),
            Tok::Prefixed(p, l) => Ok(Term::Named(self.resolve(&p, &l)?)),
            Tok::Str {
                value,
                datatype,
                lang,
            } => {
                if let Some(lang) = lang {
                    Ok(Literal::lang(value, lang).into())
                } else if let Some(dt) = datatype {
                    let dt = match *dt {
                        Tok::Iri(iri) => NamedNode::new(iri),
                        Tok::Prefixed(p, l) => self.resolve(&p, &l)?,
                        other => return self.err(format!("bad datatype token {other:?}")),
                    };
                    Ok(Literal::typed(value, dt).into())
                } else {
                    Ok(Literal::string(value).into())
                }
            }
            Tok::Num(n) => {
                let dt = if n.contains(['.', 'e', 'E']) {
                    &XSD_DOUBLE
                } else {
                    &XSD_INTEGER
                };
                Ok(Literal::typed(n, NamedNode::clone(dt)).into())
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("true") => Ok(Literal::boolean(true).into()),
            Tok::Word(w) if w.eq_ignore_ascii_case("false") => Ok(Literal::boolean(false).into()),
            other => self.err(format!("expected RDF term, found {other:?}")),
        }
    }

    /// `FILTER` constraint: either a parenthesized expression or a function
    /// call.
    fn parse_constraint(&mut self) -> Result<Expression, ParseError> {
        match self.peek()? {
            Some(Tok::LParen) => {
                let _ = self.next()?;
                let e = self.parse_expression()?;
                self.expect_tok(&Tok::RParen)?;
                Ok(e)
            }
            _ => self.parse_primary(),
        }
    }

    // Expression precedence: || < && < comparison < additive < multiplicative
    // < unary < primary.
    fn parse_expression(&mut self) -> Result<Expression, ParseError> {
        let mut lhs = self.parse_and()?;
        while matches!(self.peek()?, Some(Tok::OrOr)) {
            let _ = self.next()?;
            let rhs = self.parse_and()?;
            lhs = Expression::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expression, ParseError> {
        let mut lhs = self.parse_comparison()?;
        while matches!(self.peek()?, Some(Tok::AndAnd)) {
            let _ = self.next()?;
            let rhs = self.parse_comparison()?;
            lhs = Expression::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_comparison(&mut self) -> Result<Expression, ParseError> {
        let lhs = self.parse_additive()?;
        let op = match self.peek()? {
            Some(Tok::Eq) => Some("="),
            Some(Tok::Neq) => Some("!="),
            Some(Tok::Lt) => Some("<"),
            Some(Tok::Le) => Some("<="),
            Some(Tok::Gt) => Some(">"),
            Some(Tok::Ge) => Some(">="),
            _ => None,
        };
        if let Some(op) = op {
            let _ = self.next()?;
            let rhs = self.parse_additive()?;
            let (l, r) = (Box::new(lhs), Box::new(rhs));
            return Ok(match op {
                "=" => Expression::Equal(l, r),
                "!=" => Expression::NotEqual(l, r),
                "<" => Expression::Less(l, r),
                "<=" => Expression::LessOrEqual(l, r),
                ">" => Expression::Greater(l, r),
                _ => Expression::GreaterOrEqual(l, r),
            });
        }
        Ok(lhs)
    }

    fn parse_additive(&mut self) -> Result<Expression, ParseError> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            match self.peek()? {
                Some(Tok::Plus) => {
                    let _ = self.next()?;
                    let rhs = self.parse_multiplicative()?;
                    lhs = Expression::Add(Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Minus) => {
                    let _ = self.next()?;
                    let rhs = self.parse_multiplicative()?;
                    lhs = Expression::Subtract(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn parse_multiplicative(&mut self) -> Result<Expression, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            match self.peek()? {
                Some(Tok::Star) => {
                    let _ = self.next()?;
                    let rhs = self.parse_unary()?;
                    lhs = Expression::Multiply(Box::new(lhs), Box::new(rhs));
                }
                Some(Tok::Slash) => {
                    let _ = self.next()?;
                    let rhs = self.parse_unary()?;
                    lhs = Expression::Divide(Box::new(lhs), Box::new(rhs));
                }
                _ => break,
            }
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expression, ParseError> {
        match self.peek()? {
            Some(Tok::Bang) => {
                let _ = self.next()?;
                Ok(Expression::Not(Box::new(self.parse_unary()?)))
            }
            Some(Tok::Minus) => {
                let _ = self.next()?;
                Ok(Expression::UnaryMinus(Box::new(self.parse_unary()?)))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expression, ParseError> {
        let tok = self.next()?.ok_or_else(|| ParseError {
            message: "expected expression".into(),
            position: self.lexer.pos,
        })?;
        match tok {
            Tok::LParen => {
                let e = self.parse_expression()?;
                self.expect_tok(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Var(v) => Ok(Expression::Var(v)),
            Tok::Num(_) | Tok::Str { .. } => Ok(Expression::Constant(self.token_to_term(tok)?)),
            Tok::Word(w) => {
                let up = w.to_ascii_uppercase();
                match up.as_str() {
                    "TRUE" => return Ok(Expression::Constant(Literal::boolean(true).into())),
                    "FALSE" => return Ok(Expression::Constant(Literal::boolean(false).into())),
                    "BOUND" => {
                        self.expect_tok(&Tok::LParen)?;
                        let v = match self.next()? {
                            Some(Tok::Var(v)) => v,
                            other => {
                                return self.err(format!("BOUND expects a variable, got {other:?}"))
                            }
                        };
                        self.expect_tok(&Tok::RParen)?;
                        return Ok(Expression::Bound(v));
                    }
                    "IF" => {
                        self.expect_tok(&Tok::LParen)?;
                        let c = self.parse_expression()?;
                        self.expect_tok(&Tok::Comma)?;
                        let t = self.parse_expression()?;
                        self.expect_tok(&Tok::Comma)?;
                        let e = self.parse_expression()?;
                        self.expect_tok(&Tok::RParen)?;
                        return Ok(Expression::If(Box::new(c), Box::new(t), Box::new(e)));
                    }
                    _ => {}
                }
                // Builtin function call?
                const BUILTINS: &[&str] = &[
                    "STR",
                    "STRLEN",
                    "UCASE",
                    "LCASE",
                    "CONTAINS",
                    "STRSTARTS",
                    "STRENDS",
                    "CONCAT",
                    "ABS",
                    "CEIL",
                    "FLOOR",
                    "ROUND",
                    "LANG",
                    "DATATYPE",
                    "ISIRI",
                    "ISURI",
                    "ISLITERAL",
                    "ISBLANK",
                    "ISNUMERIC",
                    "YEAR",
                    "MONTH",
                    "DAY",
                ];
                if BUILTINS.contains(&up.as_str()) {
                    let args = self.parse_call_args()?;
                    return Ok(Expression::Call(
                        NamedNode::new(format!("builtin:{}", up.to_lowercase())),
                        args,
                    ));
                }
                self.err(format!("unexpected word {w:?} in expression"))
            }
            Tok::Prefixed(p, l) => {
                let func = self.resolve(&p, &l)?;
                let args = self.parse_call_args()?;
                Ok(Expression::Call(func, args))
            }
            Tok::Iri(iri) => {
                // Either a function call or an IRI constant.
                if matches!(self.peek()?, Some(Tok::LParen)) {
                    let args = self.parse_call_args()?;
                    Ok(Expression::Call(NamedNode::new(iri), args))
                } else {
                    Ok(Expression::Constant(Term::named(iri)))
                }
            }
            other => self.err(format!("unexpected token {other:?} in expression")),
        }
    }

    fn parse_call_args(&mut self) -> Result<Vec<Expression>, ParseError> {
        self.expect_tok(&Tok::LParen)?;
        let mut args = Vec::new();
        if matches!(self.peek()?, Some(Tok::RParen)) {
            let _ = self.next()?;
            return Ok(args);
        }
        loop {
            args.push(self.parse_expression()?);
            match self.next()? {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => return self.err(format!("expected ',' or ')', found {other:?}")),
            }
        }
        Ok(args)
    }
}

/// Parse a SPARQL query string.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    let mut span = applab_obs::span("parse");
    span.record("bytes", input.len());
    Parser::new(input).parse_query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_listing1() {
        // Listing 1 of the paper (normalized: the paper's PDF has a stray
        // `>` artifact in the hasName line).
        let q = r#"
SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne"^^xsd:string .
  ?areaB lai:lai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA, ?geoB))
}
"#;
        let parsed = parse_query(q).unwrap();
        match &parsed.form {
            QueryForm::Select {
                distinct,
                projection,
                ..
            } => {
                assert!(*distinct);
                assert_eq!(projection.len(), 3);
            }
            other => panic!("wrong form {other:?}"),
        }
        // The pattern is Filter(sfIntersects, Bgp(7 patterns)).
        match &parsed.pattern {
            GraphPattern::Filter(Expression::Call(f, args), inner) => {
                assert_eq!(f.as_str(), vocab::geof::SF_INTERSECTS);
                assert_eq!(args.len(), 2);
                match inner.as_ref() {
                    GraphPattern::Bgp(ps) => assert_eq!(ps.len(), 7),
                    other => panic!("expected BGP, got {other:?}"),
                }
            }
            other => panic!("expected filter, got {other:?}"),
        }
    }

    #[test]
    fn parse_listing3() {
        let q = r#"
SELECT DISTINCT ?s ?wkt ?lai
WHERE { ?s lai:hasLai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt }
"#;
        let parsed = parse_query(q).unwrap();
        match &parsed.pattern {
            GraphPattern::Bgp(ps) => assert_eq!(ps.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_prefix_declarations() {
        let q = r#"
PREFIX my: <http://my.org/ns#>
SELECT ?x WHERE { ?x a my:Thing }
"#;
        let parsed = parse_query(q).unwrap();
        match &parsed.pattern {
            GraphPattern::Bgp(ps) => {
                assert_eq!(
                    ps[0].object,
                    TermPattern::Term(Term::named("http://my.org/ns#Thing"))
                );
                assert_eq!(
                    ps[0].predicate,
                    TermPattern::Term(Term::named(vocab::rdf::TYPE))
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_optional_union_bind_values() {
        let q = r#"
SELECT * WHERE {
  ?s a osm:PointOfInterest .
  OPTIONAL { ?s osm:hasName ?name }
  { ?s osm:poiType osm:park } UNION { ?s osm:poiType osm:forest }
  BIND(STRLEN(?name) AS ?len)
  VALUES ?kind { osm:park osm:forest }
}
"#;
        let parsed = parse_query(q).unwrap();
        // Expect Extend(Join(Join(LeftJoin(...), Union(...)), Values) shape —
        // just verify the pieces exist.
        fn count_nodes(p: &GraphPattern, pred: &dyn Fn(&GraphPattern) -> bool) -> usize {
            let here = usize::from(pred(p));
            here + match p {
                GraphPattern::Filter(_, i) | GraphPattern::Extend(i, _, _) => count_nodes(i, pred),
                GraphPattern::Join(a, b)
                | GraphPattern::LeftJoin(a, b)
                | GraphPattern::Union(a, b) => count_nodes(a, pred) + count_nodes(b, pred),
                _ => 0,
            }
        }
        assert_eq!(
            count_nodes(&parsed.pattern, &|p| matches!(p, GraphPattern::Union(..))),
            1
        );
        assert_eq!(
            count_nodes(&parsed.pattern, &|p| matches!(
                p,
                GraphPattern::LeftJoin(..)
            )),
            1
        );
        assert_eq!(
            count_nodes(&parsed.pattern, &|p| matches!(p, GraphPattern::Values(..))),
            1
        );
        assert_eq!(
            count_nodes(&parsed.pattern, &|p| matches!(p, GraphPattern::Extend(..))),
            1
        );
    }

    #[test]
    fn parse_aggregates_and_modifiers() {
        let q = r#"
SELECT ?cls (AVG(?lai) AS ?mean) (COUNT(*) AS ?n)
WHERE { ?o lai:hasLai ?lai . ?o clc:hasCorineValue ?cls }
GROUP BY ?cls
ORDER BY DESC(?mean)
LIMIT 5 OFFSET 2
"#;
        let parsed = parse_query(q).unwrap();
        match &parsed.form {
            QueryForm::Select {
                projection,
                group_by,
                ..
            } => {
                assert_eq!(group_by, &vec!["cls".to_string()]);
                assert!(matches!(
                    projection[1],
                    Projection::Aggregate(Aggregate::Avg, Some(_), _)
                ));
                assert!(matches!(
                    projection[2],
                    Projection::Aggregate(Aggregate::CountAll, None, _)
                ));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(parsed.limit, Some(5));
        assert_eq!(parsed.offset, 2);
        assert!(parsed.order_by[0].descending);
    }

    #[test]
    fn parse_ask_and_construct() {
        let ask = parse_query("ASK { ?s a osm:PointOfInterest }").unwrap();
        assert_eq!(ask.form, QueryForm::Ask);

        let c = parse_query("CONSTRUCT { ?s rdfs:label ?name } WHERE { ?s osm:hasName ?name }")
            .unwrap();
        match c.form {
            QueryForm::Construct { template } => assert_eq!(template.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_filter_comparisons() {
        let q = parse_query("SELECT ?v WHERE { ?s lai:hasLai ?v . FILTER(?v > 0 && ?v <= 10.5) }")
            .unwrap();
        match &q.pattern {
            GraphPattern::Filter(Expression::And(a, b), _) => {
                assert!(matches!(a.as_ref(), Expression::Greater(..)));
                assert!(matches!(b.as_ref(), Expression::LessOrEqual(..)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_object_lists_and_pred_lists() {
        let q =
            parse_query("SELECT * WHERE { ?s a osm:PointOfInterest ; osm:hasName \"A\", \"B\" . }")
                .unwrap();
        match &q.pattern {
            GraphPattern::Bgp(ps) => assert_eq!(ps.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_typed_and_lang_literals() {
        let q = parse_query(
            r#"SELECT * WHERE { ?s ?p "3.5"^^xsd:float . ?s ?q "chat"@fr . ?s ?r "2017-06-15T00:00:00Z"^^xsd:dateTime }"#,
        )
        .unwrap();
        match &q.pattern {
            GraphPattern::Bgp(ps) => {
                let lit = |i: usize| match &ps[i].object {
                    TermPattern::Term(Term::Literal(l)) => l.clone(),
                    other => panic!("{other:?}"),
                };
                assert_eq!(lit(0).as_f64(), Some(3.5));
                assert_eq!(lit(1).language(), Some("fr"));
                assert!(lit(2).as_datetime().is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT WHERE { }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x a unknown:Thing }").is_err());
        assert!(parse_query("SELECT ?x WHERE { ?x a osm:park").is_err());
        assert!(parse_query("NONSENSE ?x { }").is_err());
        assert!(parse_query("").is_err());
    }

    #[test]
    fn comparison_vs_iri_disambiguation() {
        let q = parse_query("SELECT ?x WHERE { ?x lai:hasLai ?v . FILTER(?v < 5) }").unwrap();
        match &q.pattern {
            GraphPattern::Filter(Expression::Less(..), _) => {}
            other => panic!("{other:?}"),
        }
        let q =
            parse_query("SELECT ?x WHERE { ?x <http://ex.org/p> ?v . FILTER(?v < 5) }").unwrap();
        match &q.pattern {
            GraphPattern::Filter(_, inner) => match inner.as_ref() {
                GraphPattern::Bgp(ps) => {
                    assert_eq!(
                        ps[0].predicate,
                        TermPattern::Term(Term::named("http://ex.org/p"))
                    );
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
