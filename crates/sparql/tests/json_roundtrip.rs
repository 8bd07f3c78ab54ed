//! Property tests for the SPARQL-results JSON parser: parsing a
//! serialized result reconstructs it exactly. The differential QA harness
//! pushes every engine's answer through `to_json` → `from_json` before
//! canonicalizing, so this parser is itself under differential test — but
//! the property here is the direct one: serialization is injective and
//! the parser is its left inverse (checked as a serializer fixed point,
//! which for `to_json` is equivalent and avoids requiring `PartialEq` on
//! results).

use applab_rdf::{BlankNode, Literal, Term};
use applab_sparql::{QueryResults, Row};
use proptest::prelude::*;

/// Strings full of JSON-hostile characters: quotes, backslashes, short
/// escapes, raw controls, multi-byte code points, and the empty string.
fn nasty_string() -> impl Strategy<Value = String> {
    (0u8..6).prop_map(|i| {
        [
            "plain",
            "quote \" backslash \\",
            "newline \n tab \t return \r",
            "control \u{8}\u{c}\u{1f}",
            "unicode é π 😀",
            "",
        ][i as usize]
            .to_string()
    })
}

/// Terms covering every serialized shape: IRIs, blanks, plain / typed /
/// lang-tagged literals, numerics, datetimes, and geometries.
fn term_strategy() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u8..5).prop_map(|i| Term::named(format!("http://ex.org/r{i}"))),
        (0u8..5).prop_map(|i| Term::Blank(BlankNode::new(format!("b{i}")))),
        nasty_string().prop_map(|s| Literal::string(s).into()),
        nasty_string().prop_map(|s| Literal::lang(s, "en").into()),
        (-1000i64..1000).prop_map(|v| Literal::integer(v).into()),
        (-50.0f64..50.0).prop_map(|v| Literal::double(v).into()),
        any::<bool>().prop_map(|v| Literal::boolean(v).into()),
        (0i64..2_000_000_000).prop_map(|t| Literal::datetime(t).into()),
        (-10.0f64..10.0, -10.0f64..10.0)
            .prop_map(|(x, y)| Literal::wkt(format!("POINT ({x} {y})")).into()),
    ]
}

fn solutions_strategy() -> impl Strategy<Value = QueryResults> {
    // Bound cells three-to-one toward Some by repeating the bound arm —
    // the oneof here is a uniform choice among its arms.
    let cell = prop_oneof![
        term_strategy().prop_map(Some),
        term_strategy().prop_map(Some),
        term_strategy().prop_map(Some),
        Just(None),
    ];
    // Rows are generated at the maximum width and truncated to the drawn
    // one, which sidesteps needing a dependent (flat-mapped) strategy.
    let rows = proptest::collection::vec(proptest::collection::vec(cell, 3..=3), 0..12);
    (1usize..4, rows).prop_map(|(width, rows)| QueryResults::Solutions {
        variables: (0..width).map(|i| format!("v{i}")).collect(),
        rows: rows
            .into_iter()
            .map(|mut values| {
                values.truncate(width);
                Row { values }
            })
            .collect(),
    })
}

/// An `io::Write` that keeps every chunk, for asserting on flush behavior.
#[derive(Default)]
struct ChunkRecorder {
    chunks: Vec<Vec<u8>>,
}

impl std::io::Write for ChunkRecorder {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.chunks.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

proptest! {
    #[test]
    fn solutions_round_trip_through_json(r in solutions_strategy()) {
        let json = r.to_json();
        let back = QueryResults::from_json(&json).unwrap();
        prop_assert_eq!(back.to_json(), json);
        prop_assert_eq!(back.variables(), r.variables());
        prop_assert_eq!(back.len(), r.len());
    }

    /// The streaming writer is the serializer (`to_json` merely collects
    /// it): concatenated chunks must equal the `to_json` bytes exactly for
    /// any result shape.
    #[test]
    fn write_json_streams_the_to_json_bytes(r in solutions_strategy()) {
        let mut w = ChunkRecorder::default();
        r.write_json(&mut w).unwrap();
        let streamed: Vec<u8> = w.chunks.concat();
        prop_assert_eq!(streamed, r.to_json().into_bytes());
    }
}

/// Regression: the string scanner used to re-validate the entire
/// remaining input for every character, making large result sets
/// quadratic to parse (a 1 MB document took ~14 s). Linear parsing
/// finishes this 2 MB document in milliseconds; the generous bound still
/// fails the quadratic behavior by an order of magnitude.
#[test]
fn large_documents_parse_in_linear_time() {
    let long = "x".repeat(4096);
    let rows: Vec<Row> = (0..512)
        .map(|_| Row {
            values: vec![Some(Literal::string(long.clone()).into())],
        })
        .collect();
    let r = QueryResults::Solutions {
        variables: vec!["v".into()],
        rows,
    };
    let json = r.to_json();
    assert!(json.len() > 2_000_000, "document is {} bytes", json.len());
    let started = std::time::Instant::now();
    let back = QueryResults::from_json(&json).unwrap();
    assert_eq!(back.len(), 512);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "parsing took {:?} — string scanning has gone superlinear again",
        started.elapsed()
    );
}

/// Serialization perf smoke: ~100k rows must serialize well under a
/// generous wall bound, and the streaming writer must emit them in flush
/// windows a couple orders of magnitude smaller than the document — proof
/// the serializer never holds the full output in one allocation.
#[test]
fn hundred_thousand_rows_stream_fast_in_small_chunks() {
    let rows: Vec<Row> = (0..100_000)
        .map(|i| Row {
            values: vec![
                Some(Term::named(format!("http://ex.org/feature/{i}"))),
                Some(Literal::double(i as f64 * 0.25).into()),
                (i % 3 != 0).then(|| Literal::string(format!("row {i} label")).into()),
            ],
        })
        .collect();
    let r = QueryResults::Solutions {
        variables: vec!["f".into(), "area".into(), "label".into()],
        rows,
    };

    let started = std::time::Instant::now();
    let mut w = ChunkRecorder::default();
    r.write_json(&mut w).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "streaming 100k rows took {elapsed:?}"
    );

    let total: usize = w.chunks.iter().map(Vec::len).sum();
    assert!(total > 10_000_000, "document is {total} bytes");
    let max_chunk = w.chunks.iter().map(Vec::len).max().unwrap();
    assert!(
        max_chunk <= 64 * 1024,
        "{max_chunk} byte flush — serializer is accumulating the document"
    );
    assert!(w.chunks.len() > 100, "only {} flushes", w.chunks.len());

    // And the collected form still parses back to the same cardinality.
    let back = QueryResults::from_json(&r.to_json()).unwrap();
    assert_eq!(back.len(), 100_000);
}
