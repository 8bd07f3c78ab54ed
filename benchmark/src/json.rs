//! A small JSON reader and string writer. The benchmark parses three kinds
//! of document with it — SPARQL Results JSON coming back over the wire
//! (so the oracle check does not lean on the product's own parser),
//! `BENCHMARK.json`, and the result lines of its own child runs.

use std::fmt::Write;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(value)
}

/// Nesting beyond this is not a document the benchmark reads.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("document nests too deeply".into());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of document".into()),
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "string is not UTF-8".to_string())?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or("short \\u escape")?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| "bad \\u escape".to_string())
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&hi) {
            if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                return Err("lone surrogate".into());
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xdc00..0xe000).contains(&lo) {
                return Err("bad surrogate pair".into());
            }
            0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| "bad code point".to_string())
    }
}

/// Append `s` as a JSON string literal.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Number of solution rows in a SPARQL Results JSON body, counted without
/// building a tree: the objects that open directly inside
/// `{"results":{"bindings":[ … ]}}` (brace depth 3). Every timed response
/// is checked with this, so it skips string contents — WKT literals are
/// most of a large body — in one scan for the closing quote.
pub fn count_result_rows(body: &[u8]) -> usize {
    let mut rows = 0;
    let mut depth = 0usize;
    let mut i = 0;
    while i < body.len() {
        match body[i] {
            b'"' => {
                i += 1;
                while i < body.len() && body[i] != b'"' {
                    i += if body[i] == b'\\' { 2 } else { 1 };
                }
            }
            b'{' => {
                depth += 1;
                if depth == 3 {
                    rows += 1;
                }
            }
            b'}' => depth = depth.saturating_sub(1),
            _ => {}
        }
        i += 1;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_results_json() {
        let doc = r#"{"head":{"vars":["a","n"]},"results":{"bindings":[
            {"a":{"type":"uri","value":"http://x/a"},"n":{"type":"literal","value":"3","datatype":"http://www.w3.org/2001/XMLSchema#integer"}},
            {"a":{"type":"literal","value":"q\"uo\\te {é😀}"}}]}}"#;
        let v = parse(doc).unwrap();
        let rows = v.get("results").unwrap().get("bindings").unwrap();
        assert_eq!(rows.as_arr().unwrap().len(), 2);
        let second = &rows.as_arr().unwrap()[1];
        assert_eq!(
            second.get("a").unwrap().get("value").unwrap().as_str(),
            Some("q\"uo\\te {é😀}")
        );
        assert_eq!(count_result_rows(doc.as_bytes()), 2);
    }

    #[test]
    fn ask_and_empty_results_have_no_rows() {
        assert_eq!(count_result_rows(br#"{"head":{},"boolean":true}"#), 0);
        assert_eq!(
            count_result_rows(br#"{"head":{"vars":["s"]},"results":{"bindings":[]}}"#),
            0
        );
        assert_eq!(
            parse(r#"{"head":{},"boolean":true}"#)
                .unwrap()
                .get("boolean")
                .unwrap()
                .as_bool(),
            Some(true)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "\"abc", "{\"a\":1} x", "tru"] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        assert!(parse(&"[".repeat(100)).is_err(), "depth is bounded");
    }

    #[test]
    fn numbers_and_string_writer_round_trip() {
        let v = parse("[1, -2.5e3, 0.125]").unwrap();
        let nums: Vec<f64> = v
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        assert_eq!(nums, [1.0, -2500.0, 0.125]);
        let mut out = String::new();
        push_string(&mut out, "a\"b\\c\n\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\n\\u0001\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\n\u{1}"));
    }
}
