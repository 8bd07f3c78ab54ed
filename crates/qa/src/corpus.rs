//! The replayable regression corpus.
//!
//! Every disagreement the harness ever finds is shrunk and persisted as a
//! `qa/corpus/*.ron` file; `tests/qa_corpus.rs` replays every checked-in
//! case through all engines forever. The format is a small RON-style
//! record (hand-rolled — the workspace vendors no RON crate) that is
//! stable, diff-friendly, and survives a `to_ron`/`from_ron` round trip
//! byte-identically.

use crate::dataset::{DatasetSpec, Table};
use applab_rdf::term::escape_literal;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One persisted case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Short snake-case identifier (usually the file stem).
    pub name: String,
    /// The generator case seed that produced the query originally
    /// (0 for handwritten cases).
    pub seed: u64,
    pub dataset: DatasetSpec,
    /// Rendered SPARQL text (exactly what the engines receive).
    pub query: String,
    /// What the case pins down, for humans.
    pub note: String,
}

impl CorpusCase {
    pub fn to_ron(&self) -> String {
        let tables: Vec<String> = self
            .dataset
            .tables
            .iter()
            .map(|t| format!("\"{}\"", t.key()))
            .collect();
        let mut s = String::new();
        let _ = writeln!(s, "QaCase(");
        let _ = writeln!(s, "    name: \"{}\",", escape_literal(&self.name));
        let _ = writeln!(s, "    seed: {},", self.seed);
        let _ = writeln!(
            s,
            "    dataset: (seed: {}, cells: {}, resolution: {}, times: {}, tables: [{}], grid: {}),",
            self.dataset.seed,
            self.dataset.cells,
            self.dataset.resolution,
            self.dataset.times,
            tables.join(", "),
            self.dataset.grid
        );
        let _ = writeln!(s, "    query: \"{}\",", escape_literal(&self.query));
        let _ = writeln!(s, "    note: \"{}\",", escape_literal(&self.note));
        s.push_str(")\n");
        s
    }

    pub fn from_ron(text: &str) -> Result<CorpusCase, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.expect_ident("QaCase")?;
        p.expect(b'(')?;
        let mut name = None;
        let mut seed = None;
        let mut dataset = None;
        let mut query = None;
        let mut note = None;
        loop {
            p.skip_ws();
            if p.eat(b')') {
                break;
            }
            let key = p.ident()?;
            p.expect(b':')?;
            match key.as_str() {
                "name" => name = Some(p.string()?),
                "seed" => seed = Some(p.u64()?),
                "dataset" => dataset = Some(p.dataset()?),
                "query" => query = Some(p.string()?),
                "note" => note = Some(p.string()?),
                other => return Err(format!("unknown QaCase field `{other}`")),
            }
            p.skip_ws();
            p.eat(b',');
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err("trailing input after QaCase(...)".to_string());
        }
        Ok(CorpusCase {
            name: name.ok_or("missing field `name`")?,
            seed: seed.ok_or("missing field `seed`")?,
            dataset: dataset.ok_or("missing field `dataset`")?,
            query: query.ok_or("missing field `query`")?,
            note: note.ok_or("missing field `note`")?,
        })
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.pos < self.bytes.len() && self.bytes[self.pos] == b {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric() || self.bytes[self.pos] == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected identifier at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn expect_ident(&mut self, want: &str) -> Result<(), String> {
        let got = self.ident()?;
        if got == want {
            Ok(())
        } else {
            Err(format!("expected `{want}`, found `{got}`"))
        }
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad integer: {e}"))
    }

    fn bool(&mut self) -> Result<bool, String> {
        match self.ident()?.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("expected bool, found `{other}`")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err("unterminated string".to_string());
            }
            let b = self.bytes[self.pos];
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    if self.pos >= self.bytes.len() {
                        return Err("dangling escape".to_string());
                    }
                    let e = self.bytes[self.pos];
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting here.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn dataset(&mut self) -> Result<DatasetSpec, String> {
        self.expect(b'(')?;
        let mut spec = DatasetSpec {
            seed: 0,
            cells: 2,
            resolution: 2,
            times: 1,
            tables: Vec::new(),
            grid: false,
        };
        loop {
            self.skip_ws();
            if self.eat(b')') {
                break;
            }
            let key = self.ident()?;
            self.expect(b':')?;
            match key.as_str() {
                "seed" => spec.seed = self.u64()?,
                "cells" => spec.cells = self.u64()? as usize,
                "resolution" => spec.resolution = self.u64()? as usize,
                "times" => spec.times = self.u64()? as usize,
                "grid" => spec.grid = self.bool()?,
                "tables" => {
                    self.expect(b'[')?;
                    loop {
                        self.skip_ws();
                        if self.eat(b']') {
                            break;
                        }
                        let key = self.string()?;
                        let table = Table::from_key(&key)
                            .ok_or_else(|| format!("unknown table `{key}`"))?;
                        spec.tables.push(table);
                        self.skip_ws();
                        self.eat(b',');
                    }
                }
                other => return Err(format!("unknown dataset field `{other}`")),
            }
            self.skip_ws();
            self.eat(b',');
        }
        Ok(spec)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Load every `*.ron` case under `dir`, sorted by file name. Unreadable
/// or unparsable files are hard errors — a corrupt corpus must fail CI,
/// not silently skip.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    entries.sort();
    let mut out = Vec::new();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let case =
            CorpusCase::from_ron(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusCase {
        CorpusCase {
            name: "optional_filter_unbound".into(),
            seed: 42,
            dataset: DatasetSpec {
                seed: 7,
                cells: 3,
                resolution: 2,
                times: 1,
                tables: vec![Table::Osm, Table::Corine],
                grid: true,
            },
            query: "SELECT ?s WHERE { ?s a clc:CorineArea . FILTER(?x = \"a\\\\b\") }".into(),
            note: "quote \" backslash \\ newline \n tab \t unicode é😀".into(),
        }
    }

    #[test]
    fn ron_round_trip_is_lossless() {
        let case = sample();
        let text = case.to_ron();
        let back = CorpusCase::from_ron(&text).unwrap();
        assert_eq!(case, back);
        // And the writer is a fixed point.
        assert_eq!(back.to_ron(), text);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "QaCase",
            "QaCase(name: \"x\")",
            "QaCase(name: \"x\", seed: 1, dataset: (), query: \"q\", note: \"n\", bogus: 3)",
            "QaCase(name: \"x\", seed: 1, dataset: (tables: [\"nope\"]), query: \"q\", note: \"n\")",
            "QaCase(name: \"unterminated, seed: 1)",
            "QaCase(name: \"x\", seed: 1, dataset: (), query: \"q\", note: \"n\") trailing",
        ] {
            assert!(CorpusCase::from_ron(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn generated_cases_round_trip_through_ron() {
        use crate::gen::{case_seed, generate};
        let spec = DatasetSpec::small(1);
        for i in 0..100 {
            let seed = case_seed(5, i);
            let ir = generate(seed, &spec);
            let case = CorpusCase {
                name: format!("case_{i}"),
                seed,
                dataset: spec.clone(),
                query: ir.render(),
                note: "round-trip property".into(),
            };
            let back = CorpusCase::from_ron(&case.to_ron()).unwrap();
            assert_eq!(case, back, "case {i}");
        }
    }
}
