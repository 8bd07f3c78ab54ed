//! Experiment QA: generative differential testing across both workflows.
//!
//! Streams seeded, replayable GeoSPARQL cases through three engines — the
//! reference evaluator, the hash-join pipeline, and the on-the-fly OBDA
//! workflow — and diffs canonical
//! result multisets. Periodically layers metamorphic checks (pattern
//! reordering, FILTER splitting, LIMIT monotonicity, bbox shrinking) on
//! top of the cross-engine oracle. Any failure is shrunk to a minimal
//! (query, dataset) pair and written as a replayable `*.ron` artifact.
//!
//! Usage:
//!
//! ```text
//! exp_qa [--cases N] [--seed S | --seed A..=B] [--metamorphic-every K]
//!        [--out DIR] [--replay DIR]
//! ```
//!
//! `--replay DIR` runs every corpus case in DIR through all engines
//! instead of generating. Exit code is non-zero when any case disagrees,
//! so both modes gate CI. Every generated case is reproducible from the
//! printed `(run seed, index)` pair via `applab_qa::case_seed`.

use applab_qa::corpus::CorpusCase;
use applab_qa::gen::QueryIr;
use applab_qa::{
    case_seed, generate, load_dir, markdown_table, metamorphic, shrink, DatasetSpec, Harness,
    Verdict,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

struct Args {
    cases: usize,
    seeds: Vec<u64>,
    metamorphic_every: usize,
    out: PathBuf,
    replay: Option<PathBuf>,
}

fn parse_seed_range(s: &str) -> Result<Vec<u64>, String> {
    if let Some((a, b)) = s.split_once("..=") {
        let a: u64 = a
            .trim()
            .parse()
            .map_err(|e| format!("bad seed `{s}`: {e}"))?;
        let b: u64 = b
            .trim()
            .parse()
            .map_err(|e| format!("bad seed `{s}`: {e}"))?;
        if a > b {
            return Err(format!("empty seed range `{s}`"));
        }
        Ok((a..=b).collect())
    } else {
        Ok(vec![s
            .trim()
            .parse()
            .map_err(|e| format!("bad seed `{s}`: {e}"))?])
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 200,
        seeds: vec![1],
        metamorphic_every: 5,
        out: PathBuf::from("qa/failing"),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--cases" => args.cases = value()?.parse().map_err(|e| format!("--cases: {e}"))?,
            "--seed" => args.seeds = parse_seed_range(&value()?)?,
            "--metamorphic-every" => {
                args.metamorphic_every = value()?
                    .parse()
                    .map_err(|e| format!("--metamorphic-every: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--replay" => args.replay = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// One failure, shrunk and persisted.
fn persist_failure(
    args: &Args,
    run_seed: u64,
    index: u64,
    ir: &QueryIr,
    spec: &DatasetSpec,
    reason: &str,
) -> PathBuf {
    // Shrink against the full differential verdict: any disagreement
    // keeps the candidate. The harness is rebuilt only when a candidate
    // edits the dataset.
    let mut cache: Option<(DatasetSpec, Harness)> = None;
    let mut fails = |candidate: &QueryIr, candidate_spec: &DatasetSpec| -> bool {
        if std::env::var_os("QA_TRACE_SHRINK").is_some() {
            eprintln!(
                "  shrink try: {:?} || {}",
                candidate_spec,
                candidate.render()
            );
        }
        let rebuild = cache.as_ref().is_none_or(|(s, _)| s != candidate_spec);
        if rebuild {
            match Harness::new(candidate_spec.clone()) {
                Ok(h) => cache = Some((candidate_spec.clone(), h)),
                Err(_) => return false,
            }
        }
        let (_, h) = cache.as_ref().expect("cache populated above");
        h.run_ir(candidate).is_disagreement()
    };
    let shrunk = shrink(ir, spec, 400, &mut fails);
    let case = CorpusCase {
        name: format!("auto_{run_seed}_{index}"),
        seed: case_seed(run_seed, index),
        dataset: shrunk.spec.clone(),
        query: shrunk.ir.render(),
        note: format!("found by exp_qa --seed {run_seed} (case {index}); {reason}"),
    };
    std::fs::create_dir_all(&args.out).expect("create artifact dir");
    let path = args.out.join(format!("{}.ron", case.name));
    std::fs::write(&path, case.to_ron()).expect("write failure artifact");
    path
}

struct SeedReport {
    seed: u64,
    cases: usize,
    agree: usize,
    agree_error: usize,
    disagree: usize,
    meta_runs: usize,
    meta_failures: usize,
    secs: f64,
}

fn run_seed(
    args: &Args,
    run_seed: u64,
    coverage: &mut BTreeMap<&'static str, usize>,
) -> SeedReport {
    let spec = DatasetSpec::small(run_seed);
    let harness = Harness::new(spec.clone()).expect("dataset builds");
    let started = Instant::now();
    let (mut agree, mut agree_error, mut disagree) = (0usize, 0usize, 0usize);
    let (mut meta_runs, mut meta_failures) = (0usize, 0usize);
    for i in 0..args.cases as u64 {
        let ir = generate(case_seed(run_seed, i), &spec);
        for f in ir.features() {
            *coverage.entry(f).or_insert(0) += 1;
        }
        match harness.run_ir(&ir) {
            Verdict::Agree => agree += 1,
            Verdict::AgreeError(_) => agree_error += 1,
            Verdict::Disagree(reason) => {
                disagree += 1;
                eprintln!(
                    "DISAGREEMENT seed {run_seed} case {i} (case_seed {}):\n  {reason}\n  {}",
                    case_seed(run_seed, i),
                    ir.render()
                );
                let path = persist_failure(args, run_seed, i, &ir, &spec, &reason);
                eprintln!("  shrunk artifact: {}", path.display());
            }
        }
        if args.metamorphic_every > 0 && i % args.metamorphic_every as u64 == 0 {
            meta_runs += 1;
            if let Err(e) = metamorphic::check_all(&harness, &ir) {
                meta_failures += 1;
                eprintln!(
                    "METAMORPHIC FAILURE seed {run_seed} case {i} (case_seed {}):\n  {e}\n  {}",
                    case_seed(run_seed, i),
                    ir.render()
                );
                let path = persist_failure(args, run_seed, i, &ir, &spec, &e);
                eprintln!("  artifact: {}", path.display());
            }
        }
    }
    SeedReport {
        seed: run_seed,
        cases: args.cases,
        agree,
        agree_error,
        disagree: disagree + meta_failures,
        meta_runs,
        meta_failures,
        secs: started.elapsed().as_secs_f64(),
    }
}

fn replay(dir: &Path) -> i32 {
    let cases = match load_dir(dir) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus load failed: {e}");
            return 2;
        }
    };
    if cases.is_empty() {
        eprintln!("no *.ron cases under {}", dir.display());
        return 2;
    }
    let mut cache: Option<(DatasetSpec, Harness)> = None;
    let mut bad = 0usize;
    let mut rows = Vec::new();
    for (path, case) in &cases {
        if cache.as_ref().is_none_or(|(s, _)| s != &case.dataset) {
            match Harness::new(case.dataset.clone()) {
                Ok(h) => cache = Some((case.dataset.clone(), h)),
                Err(e) => {
                    eprintln!("{}: dataset build failed: {e}", path.display());
                    bad += 1;
                    continue;
                }
            }
        }
        let (_, h) = cache.as_ref().expect("cache populated above");
        let verdict = h.run_text(&case.query);
        let label = match &verdict {
            Verdict::Agree => "agree".to_string(),
            Verdict::AgreeError(e) => format!("agree-error ({e})"),
            Verdict::Disagree(d) => {
                bad += 1;
                format!("DISAGREE: {d}")
            }
        };
        rows.push(vec![case.name.clone(), label]);
    }
    print_table("QA corpus replay", &["case", "verdict"], &rows);
    if bad > 0 {
        eprintln!("{bad} corpus case(s) disagree");
        1
    } else {
        println!("all {} corpus cases agree across engines", cases.len());
        0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exp_qa: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.replay {
        std::process::exit(replay(dir));
    }

    let mut coverage: BTreeMap<&'static str, usize> = BTreeMap::new();
    let reports: Vec<SeedReport> = args
        .seeds
        .iter()
        .map(|&s| run_seed(&args, s, &mut coverage))
        .collect();

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.seed.to_string(),
                r.cases.to_string(),
                r.agree.to_string(),
                r.agree_error.to_string(),
                r.disagree.to_string(),
                format!("{}/{}", r.meta_runs - r.meta_failures, r.meta_runs),
                format!("{:.1}", r.cases as f64 / r.secs),
            ]
        })
        .collect();
    print_table(
        "QA: three-engine differential fuzzing",
        &[
            "seed",
            "cases",
            "agree",
            "agree-err",
            "disagree",
            "meta ok",
            "cases/s",
        ],
        &rows,
    );

    let total_cases: usize = reports.iter().map(|r| r.cases).sum();
    let total_secs: f64 = reports.iter().map(|r| r.secs).sum();
    let coverage_rows: Vec<Vec<String>> = coverage
        .iter()
        .map(|(f, n)| {
            vec![
                f.to_string(),
                n.to_string(),
                format!("{:.1}%", 100.0 * *n as f64 / total_cases as f64),
            ]
        })
        .collect();
    print_table(
        "algebra coverage (feature -> generated cases)",
        &["feature", "cases", "share"],
        &coverage_rows,
    );
    println!(
        "\n{total_cases} cases across {} seed(s) in {total_secs:.1}s ({:.1} cases/s)",
        reports.len(),
        total_cases as f64 / total_secs
    );

    let disagreements: usize = reports.iter().map(|r| r.disagree).sum();
    if disagreements > 0 {
        eprintln!(
            "{disagreements} disagreement(s); artifacts under {}",
            args.out.display()
        );
        std::process::exit(1);
    }
    println!("zero cross-engine disagreements");
}

/// Prints a Markdown table under a `##` title.
fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    print!("\n## {title}\n\n{}", markdown_table(header, rows));
}
