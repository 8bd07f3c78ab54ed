//! Experiment B2/B3: the mini-Geographica comparison.
//!
//! Paper claims reproduced (DESIGN.md §4): "Ontop-spatial also achieves
//! significantly better performance than state-of-the-art RDF stores"
//! (C2, vs our Strabon) and "Strabon ... the most efficient spatiotemporal
//! RDF store" (C3, vs the naive baseline). Expected shape: Ontop wins most
//! queries; Strabon beats the naive store everywhere, especially on
//! spatial selections; materialization may win on the expensive spatial
//! join ("For more costly operations (e.g., spatial joins of complex
//! geometries), it is better to materialize the data", Section 5).
//!
//! Also reports the dictionary-encoded hash-join pipeline against the
//! retired nested-loop reference evaluator on the store backend (the
//! before/after of the pipeline rewrite), and writes every median to
//! `BENCH_geographica.json`. `--check-floors` exits non-zero when the
//! pipeline fails to beat the reference on a NonTopological class.

use applab_bench::{geographica_queries, geographica_setup, print_table};
use applab_sparql::{
    evaluate_with, parse_query, reference, EvalOptions, GraphSource, Query, QueryResults,
};
use std::time::Instant;

fn count(r: &QueryResults) -> usize {
    match r {
        QueryResults::Solutions { rows, .. } => rows.len(),
        _ => 0,
    }
}

/// Median wall time in nanoseconds over `reps` measured runs (after one
/// warm-up run whose row count every rep must reproduce).
fn median_ns(f: impl Fn() -> usize, reps: usize) -> (u128, usize) {
    let rows = f();
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let r = f();
            assert_eq!(r, rows);
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    let mid = samples.len() / 2;
    let median = if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2
    } else {
        samples[mid]
    };
    (median, rows)
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

struct QueryReport {
    name: &'static str,
    rows: usize,
    strabon_ns: u128,
    naive_ns: u128,
    ontop_ns: u128,
    reference_store_ns: u128,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--check-floors` turns the run into a CI gate: exit nonzero when any
    // NonTopological class fails to beat the reference evaluator.
    let check_floors = args.iter().any(|a| a == "--check-floors");
    let cells = args.iter().find_map(|a| a.parse().ok()).unwrap_or(28usize);
    let reps = 5;
    // The batch window is env-overridable so perf investigations can sweep
    // it without a rebuild: APPLAB_BATCH_SIZE=7 exp_geographica.
    let mut options = EvalOptions::default();
    if let Ok(v) = std::env::var("APPLAB_BATCH_SIZE") {
        options.batch_size = v
            .parse()
            .expect("APPLAB_BATCH_SIZE must be a positive integer");
        println!("batch_size overridden to {}", options.batch_size);
    }
    let setup = geographica_setup(2019, cells);
    println!(
        "mini-Geographica over {} triples (world {cells}×{cells})",
        setup.triples
    );

    let mut reports = Vec::new();
    let mut ontop_wins = 0;
    let mut strabon_beats_naive = 0;
    let queries = geographica_queries();
    for (name, text) in &queries {
        let q: Query = parse_query(text).expect("static query");
        let pipeline = |source: &dyn GraphSource| {
            count(&evaluate_with(source, &q, &options).expect("query evaluates"))
        };
        let (strabon_ns, rows) = median_ns(|| pipeline(&setup.strabon), reps);
        let (naive_ns, _) = median_ns(|| pipeline(&setup.naive), reps);
        let (ontop_ns, _) = median_ns(|| pipeline(&setup.ontop), reps);
        let (reference_store_ns, ref_rows) = median_ns(
            || count(&reference::evaluate(&setup.strabon, &q).expect("query evaluates")),
            reps,
        );
        assert_eq!(rows, ref_rows, "{name}: pipeline vs reference row count");
        if ontop_ns < strabon_ns {
            ontop_wins += 1;
        }
        if strabon_ns < naive_ns {
            strabon_beats_naive += 1;
        }
        reports.push(QueryReport {
            name,
            rows,
            strabon_ns,
            naive_ns,
            ontop_ns,
            reference_store_ns,
        });
    }

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}", r.rows),
                format!("{:.2}", ms(r.strabon_ns)),
                format!("{:.2}", ms(r.naive_ns)),
                format!("{:.2}", ms(r.ontop_ns)),
                format!("{:.1}x", r.naive_ns as f64 / r.strabon_ns as f64),
                if r.ontop_ns < r.strabon_ns {
                    "ontop"
                } else {
                    "strabon"
                }
                .to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("B2/B3: mini-Geographica (warm, median-of-{reps}, ms)"),
        &[
            "query",
            "rows",
            "strabon",
            "naive",
            "ontop-spatial",
            "strabon speedup vs naive",
            "winner",
        ],
        &rows,
    );
    println!(
        "\nontop-spatial wins {ontop_wins}/{} queries (paper: most); strabon beats naive on {strabon_beats_naive}/{}",
        queries.len(),
        queries.len()
    );

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.2}", ms(r.reference_store_ns)),
                format!("{:.2}", ms(r.strabon_ns)),
                format!("{:.1}x", r.reference_store_ns as f64 / r.strabon_ns as f64),
            ]
        })
        .collect();
    print_table(
        "Hash-join pipeline vs nested-loop reference (store backend, median ms)",
        &["query", "reference", "pipeline", "speedup"],
        &rows,
    );

    // Machine-readable medians (hand-rolled JSON; no serde in the bench
    // path).
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"mini-geographica\",\n");
    json.push_str(&format!("  \"triples\": {},\n", setup.triples));
    json.push_str(&format!("  \"world_cells\": {cells},\n"));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str("  \"unit\": \"ns (median wall time per evaluation, warm)\",\n");
    json.push_str("  \"queries\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"name\": \"{}\",\n", r.name));
        json.push_str(&format!("      \"rows\": {},\n", r.rows));
        json.push_str(&format!("      \"strabon_median_ns\": {},\n", r.strabon_ns));
        json.push_str(&format!("      \"naive_median_ns\": {},\n", r.naive_ns));
        json.push_str(&format!("      \"ontop_median_ns\": {},\n", r.ontop_ns));
        json.push_str(&format!(
            "      \"reference_store_median_ns\": {},\n",
            r.reference_store_ns
        ));
        json.push_str(&format!(
            "      \"pipeline_speedup_vs_reference\": {:.2}\n",
            r.reference_store_ns as f64 / r.strabon_ns as f64
        ));
        json.push_str(if i + 1 == reports.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_geographica.json", &json).expect("write BENCH_geographica.json");
    println!("\nwrote BENCH_geographica.json");

    applab_bench::dump_metrics("geographica");

    if check_floors {
        let mut failed = false;
        for r in &reports {
            if !r.name.starts_with("NonTopological") {
                continue;
            }
            let speedup = r.reference_store_ns as f64 / r.strabon_ns as f64;
            if speedup < 1.0 {
                eprintln!(
                    "FLOOR VIOLATION: {} pipeline_speedup_vs_reference {speedup:.2} < 1.0",
                    r.name
                );
                failed = true;
            } else {
                println!("floor ok: {} at {speedup:.2}x vs reference", r.name);
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
