//! The workspace's one JSON module: the string escaper every writer
//! uses, a generic [`Value`], and the one parser and writer for it.
//!
//! Writers that stream a fixed shape (SPARQL Results JSON, the query
//! log, metrics and EXPLAIN snapshots, HTTP error bodies, JSON-LD) build
//! their documents by hand for speed and call [`escape_into`] /
//! [`push_string`] for every string. Readers ([`parse`]) get a [`Value`]
//! and decode their own shape from it: GeoJSON, Results JSON, query-log
//! lines.
//!
//! The parser follows RFC 8259: strict number grammar, raw control
//! characters rejected inside strings, surrogate pairs decoded and lone
//! surrogates rejected. Nesting is bounded by [`MAX_DEPTH`], so hostile
//! input gets a typed [`ErrorKind::TooDeep`] instead of a stack overflow.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`parse`] accepts. GeoJSON multipolygons
/// need 6 levels and Results JSON 5; anything near this bound is hostile.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number, kept as its lexeme so 64-bit integers round-trip
    /// exactly; read it through [`Value::as_u64`] or [`Value::as_f64`].
    Number(String),
    String(String),
    Array(Vec<Value>),
    /// Members in document order, duplicates included; [`Value::get`]
    /// returns the last member with a name.
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, when its lexeme is a non-negative integer
    /// in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// `obj["key"]`: the last member named `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .rev()
            .find_map(|(k, v)| (k == key).then_some(v))
    }
}

/// What went wrong in [`parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Arrays and objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
    /// The input is not JSON; the text names the first problem.
    Syntax(&'static str),
}

/// A parse error and the byte offset it was found at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error {
    pub kind: ErrorKind,
    pub position: usize,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.kind {
            ErrorKind::TooDeep => "nesting too deep",
            ErrorKind::Syntax(msg) => msg,
        };
        write!(f, "JSON error at byte {}: {what}", self.position)
    }
}

impl std::error::Error for Error {}

/// Append `s` with JSON string escaping and no surrounding quotes:
/// `"` and `\` are backslashed, `\n` `\r` `\t` take their short forms,
/// and every other control character below U+0020 becomes `\u00XX`.
pub fn escape_into(out: &mut String, s: &str) {
    // Unescaped runs are copied whole: a string with nothing to escape is
    // one scan and one memcpy.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        // Escapable bytes are ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{:04x}", c);
            }
        }
    }
    out.push_str(&s[run..]);
}

fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// Append `s` as a quoted JSON string.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Serialize a value compactly (no whitespace), members in order.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, value);
    out
}

fn write_into(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => push_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, v);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_string(out, k);
                out.push(':');
                write_into(out, v);
            }
            out.push('}');
        }
    }
}

/// Parse one JSON document (surrounding whitespace allowed, nothing
/// else after it).
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing input after the document");
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &'static str) -> Result<T, Error> {
        Err(Error {
            kind: ErrorKind::Syntax(msg),
            position: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'n') => self.word("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected a JSON value"),
            None => self.err("unexpected end of input"),
        }
    }

    fn word(&mut self, word: &'static str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        match self.bytes.get(self.pos) {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("bad number"),
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("bad number");
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("bad number");
            }
        }
        Ok(Value::Number(self.text[start..self.pos].to_string()))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok());
        match code {
            Some(code) => {
                self.pos += 4;
                Ok(code)
            }
            None => self.err("bad \\u escape"),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next quote, escape or control
            // byte in one go; those are ASCII, so the run ends on a char
            // boundary and needs no UTF-8 re-validation.
            let start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(&b) if !needs_escape(b)) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bytes.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return self.err("unescaped control character in string"),
            }
            let escape = self.bytes.get(self.pos).copied();
            self.pos += 1;
            match escape {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let mut code = self.hex4()?;
                    if (0xD800..0xDC00).contains(&code) {
                        // A high surrogate must be followed by an escaped
                        // low one; anything else leaves it unpaired.
                        if !self.bytes[self.pos..].starts_with(b"\\u") {
                            return self.err("lone high surrogate");
                        }
                        self.pos += 2;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return self.err("lone high surrogate");
                        }
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return self.err("lone low surrogate"),
                    }
                }
                _ => return self.err("bad escape"),
            }
        }
    }

    /// The items of an array or the members of an object, between the
    /// bracket at `pos` and `close`, each read by `item`.
    fn container(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(Error {
                kind: ErrorKind::TooDeep,
                position: self.pos,
            });
        }
        self.pos += 1;
        if self.peek() != Some(close) {
            loop {
                item(self)?;
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return self.err("expected ',' or a closing bracket"),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.container(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, Error> {
        let mut members = Vec::new();
        self.container(b'}', |p| {
            if p.peek() != Some(b'"') {
                return p.err("expected a member name");
            }
            let key = p.string()?;
            if p.peek() != Some(b':') {
                return p.err("expected ':'");
            }
            p.pos += 1;
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Object(members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syntax_error(text: &str) -> bool {
        matches!(parse(text).map_err(|e| e.kind), Err(ErrorKind::Syntax(_)))
    }

    #[test]
    fn numbers_keep_their_lexeme_and_objects_their_order() {
        let v = parse("[18446744073709551615, -0.5e-3, 0, 2.50]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_f64(), Some(-0.5e-3));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(write(&v), "[18446744073709551615,-0.5e-3,0,2.50]");
        for bad in ["01", "-", "1.", ".5", "+1", "1e", "1e+", "0x10", "NaN"] {
            assert!(syntax_error(bad), "accepted number {bad:?}");
        }
        let doc = r#"{"b":1,"a":[],"b":{"c":null,"d":"x\u0001\t","e":{}}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(write(&v), doc);
        assert_eq!(parse(" [ ] ").unwrap(), Value::Array(vec![]));
    }

    #[test]
    fn strings_decode_escapes_and_surrogate_pairs() {
        let v = parse(r#""line\nbreak \"q\" \/ \b\fé \ud83d\uDE00""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nbreak \"q\" / \u{8}\u{c}é 😀"));
        // DEL and everything above it need no escape.
        assert_eq!(parse("\"\u{7f}é\"").unwrap().as_str(), Some("\u{7f}é"));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dA""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
        ] {
            assert!(syntax_error(bad), "accepted {bad}");
        }
        // RFC 8259 §7: control characters must be escaped.
        for c in (0u8..0x20).map(char::from) {
            assert!(syntax_error(&format!("\"{c}\"")), "accepted raw {c:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let too_deep = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(too_deep.kind, ErrorKind::TooDeep);
        assert_eq!(too_deep.position, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().kind, ErrorKind::TooDeep);
        // A million unclosed brackets: a typed error, not a stack overflow.
        let hostile = "[".repeat(1_000_000);
        assert_eq!(parse(&hostile).unwrap_err().kind, ErrorKind::TooDeep);
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{1:2}",
            "tru",
            "1 2",
            "\"open",
            "\"\\x\"",
            "\u{feff}{}",
        ] {
            assert!(syntax_error(bad), "accepted {bad:?}");
        }
    }

    #[test]
    fn escaper_golden() {
        let mut out = String::new();
        push_string(&mut out, "a\u{1}b\"\\\n\r\t\u{1f}\u{7f}😀");
        assert_eq!(out, "\"a\\u0001b\\\"\\\\\\n\\r\\t\\u001f\u{7f}😀\"");
    }
}
