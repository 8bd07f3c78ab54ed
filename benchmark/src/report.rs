//! Output: the one-line result of a run, the `BENCHMARK.json` contract,
//! and the modes that run the whole set in child processes (`--all`,
//! `--repeat`).

use crate::json::{self, push_string, Json};
use crate::layers::Fixture;
use crate::metrics::{self, MetricDef};
use crate::run::{out_dir, Output, Settings};
use crate::stats;
use crate::sys;
use crate::workloads::{Workload, CONNECTIONS, DATASET_SEED};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Options every mode passes on to its runs.
#[derive(Debug, Clone, Copy)]
pub struct Common {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Common {
    pub fn settings(&self, workload: Workload) -> Settings {
        Settings {
            workload,
            seed: self.seed,
            seconds: self.seconds,
            smoke: self.smoke,
        }
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// The line a traced run prints before its result line: the per-layer
/// metrics it did not measure, which the result line has to give as 0.
pub fn absent_line(out: &Output) -> String {
    let mut line = String::from("{\"absent\": [");
    let absent = metrics::per_layer()
        .into_iter()
        .filter(|def| !out.metrics.contains_key(&def.name));
    for (i, def) in absent.enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        push_string(&mut line, &def.name);
    }
    line.push_str("]}");
    line
}

/// The last line a run prints: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end metric (plain run)
/// or every per-layer metric (traced run) — a per-layer metric the
/// workload does not measure reads 0 (see [`absent_line`]).
pub fn result_line(out: &Output, traced: bool) -> String {
    let defs = if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut correct = out.correct();
    let mut metrics = String::new();
    for (i, def) in defs.iter().enumerate() {
        let value = out
            .metrics
            .get(&def.name)
            .copied()
            .filter(|v| v.is_finite());
        if value.is_none() && !traced {
            // An end-to-end metric that could not be measured is a failed run.
            correct = false;
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        push_string(&mut metrics, &def.name);
        let _ = write!(
            metrics,
            ": {{\"value\": {}, \"unit\": ",
            value.unwrap_or(0.0)
        );
        push_string(&mut metrics, def.unit);
        metrics.push('}');
    }
    // A run that never got to send anything still attempted its set-up.
    let attempted = out.attempted.max(1);
    let failed = if out.attempted == 0 { 1 } else { out.failed };
    correct &= failed == 0;
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}")
}

// ---------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------

fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::StoreMix => "mini-Geographica + reversed wide BGP over HTTP on the 110k-triple store: sparql eval, store and geo do most of the work; wire and service overheads barely show",
        Workload::WireSmall => "microsecond lookups/ASKs over GET and both POST forms with reconnects: http, service, parse and obs overhead dominate; evaluator changes must show no change",
        Workload::VirtualLai => "Listing 1/3 and a zonal mean on the sealed virtual workflow with a cache window expiring every 8th request: obda rewrite and dap fetch dominate; the store is never touched",
        Workload::Ingest => "write path in process: GeoTriples transform, insert, seal and first answer per job; pays for anything that buys read speed with seal-time indexing or memory",
    }
}

fn metric_json(out: &mut String, def: &MetricDef) {
    out.push_str("    {\"name\": ");
    push_string(out, &def.name);
    out.push_str(", \"unit\": ");
    push_string(out, def.unit);
    let _ = write!(out, ", \"better\": \"{}\"", def.better.as_str());
    if let Some(bound) = def.bound {
        let _ = write!(out, ", \"bound\": {bound}");
    }
    out.push('}');
}

/// The text of `BENCHMARK.json`.
pub fn contract() -> String {
    let mut out = String::from("{\n  \"command\": [");
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    for (i, word) in command.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_string(&mut out, word);
    }
    let _ = write!(
        out,
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n",
        metrics::RUN_SECONDS
    );
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        out.push_str("    {\"name\": ");
        push_string(&mut out, workload.name());
        out.push_str(", \"why\": ");
        push_string(&mut out, why(workload));
        out.push_str(if i + 1 < Workload::ALL.len() {
            "},\n"
        } else {
            "}\n"
        });
    }
    for (key, defs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let _ = writeln!(out, "  ],\n  \"{key}\": [");
        for (i, def) in defs.iter().enumerate() {
            metric_json(&mut out, def);
            out.push_str(if i + 1 < defs.len() { ",\n" } else { "\n" });
        }
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Child runs
// ---------------------------------------------------------------------

/// A child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Measured metrics only.
    metrics: BTreeMap<String, f64>,
}

fn child(
    common: &Common,
    workload: Workload,
    trace: bool,
    seed: u64,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &common.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(common.smoke.then_some("--smoke"))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child run of {} ended with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let doc = json::parse(lines.next().ok_or("child run printed nothing")?)?;
    let absent: BTreeSet<String> = lines
        .next()
        .and_then(|line| json::parse(line).ok())
        .and_then(|doc| {
            let names = doc.get("absent")?.as_arr()?;
            Some(
                names
                    .iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect(),
            )
        })
        .unwrap_or_default();
    let field = |key: &str| doc.get(key).ok_or(format!("result line has no {key:?}"));
    let metrics = field("metrics")?
        .members()
        .iter()
        .filter(|(name, _)| !absent.contains(name))
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as usize,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as usize,
        metrics,
    })
}

fn header_json(common: &Common) -> String {
    let mut out = String::from("{");
    // The served workloads' dataset, transformed once more to count it.
    let cells = common.settings(Workload::StoreMix).cells();
    let triples = Fixture::generate(DATASET_SEED, cells).oracle_graph().len();
    let fields: [(&str, String); 8] = [
        ("git_sha", sys::command_line("git", &["rev-parse", "HEAD"])),
        ("cpu_model", sys::cpu_model()),
        ("rustc", sys::command_line("rustc", &["--version"])),
        ("nproc", sys::nproc().to_string()),
        ("seed", common.seed.to_string()),
        ("world_cells", cells.to_string()),
        ("triples", triples.to_string()),
        ("connections", CONNECTIONS.to_string()),
    ];
    for (key, value) in &fields {
        push_string(&mut out, key);
        out.push_str(": ");
        push_string(&mut out, value);
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"seconds_per_run\": {}, \"plain_closed_loop_s\": {}, \"traced_phase_s\": {}, \"open_loop_rate_rps\": {{",
        common.seconds,
        common.seconds,
        common.seconds / 4.0,
    );
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let rate = workload
            .rate_rps()
            .map_or("null".to_string(), |rate| rate.to_string());
        let _ = write!(out, "\"{}\": {rate}", workload.name());
    }
    out.push_str("}}");
    out
}

/// `--all`: every workload, plain then traced, each in its own process.
pub fn run_all(common: &Common) -> ExitCode {
    let mut all_correct = true;
    let mut document = format!(
        "{{\n  \"header\": {},\n  \"workloads\": {{\n",
        header_json(common)
    );
    println!(
        "{:<12} {:<44} {:>16} {:<11} {:>8}",
        "workload", "metric", "value", "unit", "n"
    );
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let _ = write!(document, "    \"{}\": {{", workload.name());
        for (t, (trace, defs)) in [(false, metrics::end_to_end()), (true, metrics::per_layer())]
            .into_iter()
            .enumerate()
        {
            let result = match child(common, workload, trace, common.seed) {
                Ok(result) => result,
                Err(message) => {
                    eprintln!("benchmark: {}: {message}", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            all_correct &= result.correct;
            let key = if trace { "per_layer" } else { "end_to_end" };
            let _ = write!(
                document,
                "{}\n      \"{key}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
                if t > 0 { "," } else { "" },
                result.correct,
                result.attempted,
                result.failed
            );
            let mut first = true;
            for def in &defs {
                // A metric the run did not measure is left out of the
                // table and `null` in the file.
                let value = result.metrics.get(&def.name);
                if let Some(value) = value {
                    println!(
                        "{:<12} {:<44} {value:>16.4} {:<11} {:>8}",
                        workload.name(),
                        def.name,
                        def.unit,
                        result.attempted
                    );
                }
                let stored = value.map_or("null".to_string(), f64::to_string);
                let _ = write!(
                    document,
                    "{}\"{}\": {stored}",
                    if first { "" } else { ", " },
                    def.name
                );
                first = false;
            }
            document.push_str("}}");
            if !result.correct {
                println!(
                    "{:<12} WRONG ANSWERS: {} of {} operations failed",
                    workload.name(),
                    result.failed,
                    result.attempted
                );
            }
        }
        document.push_str(if w + 1 < Workload::ALL.len() {
            "\n    },\n"
        } else {
            "\n    }\n"
        });
    }
    document.push_str("  }\n}\n");
    let path = out_dir().join("result.json");
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &document));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: at least one run gave a wrong answer");
        ExitCode::FAILURE
    }
}

/// `--repeat N`: the acceptance check of the benchmark itself, on one
/// build (A/A). Two sets of N plain runs per workload, each run with a
/// seed of its own. Per workload and end-to-end metric it prints each
/// set's median and spread — the distance between the quartiles as a share
/// of the median — and how much worse the second median is than the first.
/// It fails when a spread (other than `setup_s`'s, which is one figure per
/// process) or a worsening exceeds the metric's bound.
pub fn run_repeat(common: &Common, runs: usize) -> ExitCode {
    if runs < 2 {
        eprintln!("benchmark: --repeat needs at least 2 runs per set");
        return ExitCode::from(2);
    }
    let defs = metrics::end_to_end();
    // (workload, metric) -> the values of set 1 and of set 2.
    let mut values: BTreeMap<(usize, String), [Vec<f64>; 2]> = BTreeMap::new();
    let mut all_correct = true;
    for set in 0..2 {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for run in 0..runs {
                let seed = common.seed + (set * runs + run) as u64;
                let result = match child(common, workload, false, seed) {
                    Ok(result) => result,
                    Err(message) => {
                        eprintln!("benchmark: {}: {message}", workload.name());
                        return ExitCode::FAILURE;
                    }
                };
                all_correct &= result.correct;
                for def in &defs {
                    let value = result.metrics.get(&def.name).copied().unwrap_or(f64::NAN);
                    values.entry((w, def.name.clone())).or_default()[set].push(value);
                }
            }
            eprintln!("set {}: {} done", set + 1, workload.name());
        }
    }
    println!(
        "{:<12} {:<16} {:>12} {:>7} {:>12} {:>7} {:>8} {:>6}",
        "workload", "metric", "median 1", "spread", "median 2", "spread", "worse by", "bound"
    );
    let mut within = true;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for def in &defs {
            let [first, second] = &values[&(w, def.name.clone())];
            let (m1, m2) = (stats::median(first), stats::median(second));
            let worse_by = match def.better {
                metrics::Better::Lower => (m2 - m1) / m1,
                metrics::Better::Higher => (m1 - m2) / m1,
            };
            let (s1, s2) = (stats::iqr_share(first), stats::iqr_share(second));
            let bound = def.bound.unwrap_or(0.0);
            let spread_counts = def.name != "setup_s";
            let over = worse_by > bound || (spread_counts && s1.max(s2) > bound);
            within &= !over;
            println!(
                "{:<12} {:<16} {m1:>12.4} {s1:>7.4} {m2:>12.4} {s2:>7.4} {worse_by:>+8.4} {bound:>6.2}{}",
                workload.name(),
                def.name,
                if over { "  OVER" } else { "" }
            );
        }
    }
    if !all_correct {
        eprintln!("benchmark: at least one run gave a wrong answer");
    }
    if !within {
        eprintln!("benchmark: at least one end-to-end metric did not repeat within its bound");
    }
    if all_correct && within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_file_is_what_the_tables_say() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        // Not `assert_eq!`: a mismatch would print both documents.
        assert!(
            on_disk == contract(),
            "BENCHMARK.json is out of date: regenerate it with `cargo run --release -- --print-contract`"
        );
    }

    #[test]
    fn contract_is_valid_and_within_limits() {
        let text = contract();
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).unwrap();
        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            assert_eq!(w.members().len(), 2);
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why is one line of at most 200: {}",
                why.len()
            );
        }
        for word in doc.get("command").and_then(Json::as_arr).unwrap() {
            let word = word.as_str().unwrap();
            assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        }
        for metric in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
            assert_eq!(metric.members().len(), 4);
        }
        for metric in doc.get("per_layer").and_then(Json::as_arr).unwrap() {
            assert_eq!(metric.members().len(), 3);
        }
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut out = Output {
            attempted: 10,
            ..Output::default()
        };
        for def in metrics::end_to_end() {
            out.set(&def.name, 1.25);
        }
        let doc = json::parse(&result_line(&out, false)).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(10.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let names: Vec<&str> = doc
            .get("metrics")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let declared: Vec<String> = metrics::end_to_end().into_iter().map(|d| d.name).collect();
        assert_eq!(names, declared);
        assert_eq!(doc.members().len(), 4);

        // A traced line carries every per-layer metric, 0 where unset.
        let traced = json::parse(&result_line(&out, true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().members().len(),
            metrics::per_layer().len()
        );

        // The line before it names what was not measured: everything but
        // the one metric set here, which is a measured zero.
        let mut one = Output {
            attempted: 1,
            ..Output::default()
        };
        one.set("sparql.pruned_rows_per_req", 0.0);
        let absent = json::parse(&absent_line(&one)).unwrap();
        let names: Vec<&str> = absent
            .get("absent")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(names.len(), metrics::per_layer().len() - 1);
        assert!(!names.contains(&"sparql.pruned_rows_per_req"));
        assert!(names.contains(&"sparql.filter_pass_ratio"));

        // Missing end-to-end metrics, failures and set-up errors are not correct.
        let mut missing = Output {
            attempted: 3,
            ..Output::default()
        };
        assert_eq!(
            json::parse(&result_line(&missing, false))
                .unwrap()
                .get("correct")
                .and_then(Json::as_bool),
            Some(false)
        );
        missing.errors.push("warm-up mismatch".into());
        let never_ran = json::parse(&result_line(&Output::default(), true)).unwrap();
        assert_eq!(
            never_ran.get("correct").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(never_ran.get("attempted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(never_ran.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
