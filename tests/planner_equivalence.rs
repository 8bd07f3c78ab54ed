//! Planner-equivalence differential sweep (tier-1).
//!
//! The cost-based planner must be invisible in results: for every
//! QA-generated query, planned evaluation (store pipeline and the OBDA
//! virtual workflow) must return the same canonical multiset as the
//! nested-loop reference oracle. Three seeds × 2000 cases stream through
//! [`Harness::run_text`], which runs all three engines per case.
//!
//! Any disagreement is shrunk to a minimal (query, dataset) pair and
//! persisted under `qa/failing/` — same artifact discipline as the
//! chaos harnesses — so a red run leaves a replayable witness behind.
//!
//! The planner must also be invisible in the work done: the wide BGP and
//! the parks × green-areas join, each in three written orders, must plan
//! and scan identically on the mini-Geographica store.

use applab_qa::corpus::CorpusCase;
use applab_qa::gen::QueryIr;
use applab_qa::geographica_setup;
use applab_qa::{case_seed, generate, shrink, DatasetSpec, Harness, Verdict};
use copernicus_app_lab::obs::querystats::Scope;
use copernicus_app_lab::sparql::{evaluate_with, parse_query, plan, EvalOptions, GraphSource};
use std::path::PathBuf;

const SEEDS: [u64; 3] = [1, 2, 3];
const CASES_PER_SEED: u64 = 2000;

/// Shrink a disagreeing case against the three-engine verdict and write
/// it out as a replayable corpus artifact; returns the path.
fn persist_failure(run_seed: u64, index: u64, ir: &QueryIr, spec: &DatasetSpec) -> PathBuf {
    let mut cache: Option<(DatasetSpec, Harness)> = None;
    let mut fails = |candidate: &QueryIr, candidate_spec: &DatasetSpec| -> bool {
        let rebuild = cache.as_ref().is_none_or(|(s, _)| s != candidate_spec);
        if rebuild {
            match Harness::new(candidate_spec.clone()) {
                Ok(h) => cache = Some((candidate_spec.clone(), h)),
                Err(_) => return false,
            }
        }
        let (_, h) = cache.as_ref().expect("cache populated above");
        h.run_text(&candidate.render()).is_disagreement()
    };
    let shrunk = shrink(ir, spec, 400, &mut fails);
    let case = CorpusCase {
        name: format!("planner_{run_seed}_{index}"),
        seed: case_seed(run_seed, index),
        dataset: shrunk.spec.clone(),
        query: shrunk.ir.render(),
        note: format!(
            "found by planner_equivalence seed {run_seed} (case {index}): \
             a planned engine diverged from the reference"
        ),
    };
    let dir = PathBuf::from("qa/failing");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    let path = dir.join(format!("{}.ron", case.name));
    std::fs::write(&path, case.to_ron()).expect("write failure artifact");
    path
}

#[test]
fn planned_and_unplanned_engines_agree_on_generated_corpus() {
    let mut disagreements = Vec::new();
    for seed in SEEDS {
        let spec = DatasetSpec::small(seed);
        let harness = Harness::new(spec.clone()).expect("dataset builds");
        for i in 0..CASES_PER_SEED {
            let ir = generate(case_seed(seed, i), &spec);
            if let Verdict::Disagree(reason) = harness.run_text(&ir.render()) {
                let path = persist_failure(seed, i, &ir, &spec);
                disagreements.push(format!(
                    "seed {seed} case {i} (case_seed {}): {reason}\n  query: {}\n  artifact: {}",
                    case_seed(seed, i),
                    ir.render(),
                    path.display()
                ));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} planner disagreement(s):\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

/// One wide BGP and one spatial join, each in three written triple orders
/// that all denote the same query. `default` is the order a careful
/// author writes (selective patterns first), `reversed` is its mechanical
/// reversal, and `adversarial` leads with the widest scans and buries the
/// selective constants — for the wide BGP it also opens with a cartesian
/// pair.
fn written_orders() -> [(&'static str, [String; 3]); 2] {
    let probe_large = "POLYGON ((2.05 48.72, 2.55 48.72, 2.55 48.98, 2.05 48.98, 2.05 48.72))";
    let wide = |body: &str| {
        format!(
            "SELECT ?a ?p WHERE {{ {body} FILTER(?p > 5000) FILTER(geof:sfWithin(?wkt, \"{probe_large}\"^^geo:wktLiteral)) }}"
        )
    };
    let join = |body: &str| {
        format!("SELECT ?park ?area WHERE {{ {body} FILTER(geof:sfIntersects(?pwkt, ?awkt)) }}")
    };
    [
        (
            "WideBGP_Selection",
            [
                wide("?a a ua:UrbanAtlasArea . ?a ua:hasPopulation ?p . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt ."),
                wide("?g geo:asWKT ?wkt . ?a geo:hasGeometry ?g . ?a ua:hasPopulation ?p . ?a a ua:UrbanAtlasArea ."),
                wide("?g geo:asWKT ?wkt . ?a ua:hasPopulation ?p . ?a a ua:UrbanAtlasArea . ?a geo:hasGeometry ?g ."),
            ],
        ),
        (
            "SpatialJoin_Parks_LandCover",
            [
                join("?park osm:poiType osm:park . ?park geo:hasGeometry ?pg . ?pg geo:asWKT ?pwkt . ?area a clc:CorineArea . ?area clc:hasCorineValue clc:GreenUrbanAreas . ?area geo:hasGeometry ?ag . ?ag geo:asWKT ?awkt ."),
                join("?ag geo:asWKT ?awkt . ?area geo:hasGeometry ?ag . ?area clc:hasCorineValue clc:GreenUrbanAreas . ?area a clc:CorineArea . ?pg geo:asWKT ?pwkt . ?park geo:hasGeometry ?pg . ?park osm:poiType osm:park ."),
                join("?ag geo:asWKT ?awkt . ?area geo:hasGeometry ?ag . ?pg geo:asWKT ?pwkt . ?park geo:hasGeometry ?pg . ?park osm:poiType osm:park . ?area clc:hasCorineValue clc:GreenUrbanAreas . ?area a clc:CorineArea ."),
            ],
        ),
    ]
}

/// Counts, not clocks: every written order of a class returns the same
/// rows through the same plan, scanning, pruning and joining the same
/// number of rows. (Build and probe row totals do depend on component
/// order, so they are not compared.)
#[test]
fn written_order_changes_neither_the_plan_nor_the_work() {
    let setup = geographica_setup(2019, 100);
    let store = &setup.strabon;
    let stats = store.stats().expect("a sealed store has statistics");
    for (class, texts) in written_orders() {
        let runs: Vec<_> = texts
            .iter()
            .map(|text| {
                let query = parse_query(text).expect("static query");
                let scope = Scope::begin();
                let results =
                    evaluate_with(store, &query, &EvalOptions::default()).expect("query evaluates");
                let work = scope.finish();
                let mut rows: Vec<String> = results.to_csv().lines().map(String::from).collect();
                rows.sort_unstable();
                let plan = plan::query_fingerprint(stats, &query.pattern);
                (
                    rows,
                    (plan, work.rows_scanned, work.pruned_rows, work.joins),
                )
            })
            .collect();
        let (rows, work) = &runs[0];
        assert!(rows.len() > 1, "{class}: no rows");
        if class.starts_with("SpatialJoin") {
            assert!(work.2 > 0, "{class}: the build-side filters pruned nothing");
        }
        for (order, run) in ["reversed", "adversarial"].iter().zip(&runs[1..]) {
            assert!(run.0 == *rows, "{class}/{order}: rows differ");
            assert_eq!(
                run.1, *work,
                "{class}/{order}: (fingerprint, scanned, pruned, joins)"
            );
        }
    }
}
