//! The pinned QA corpus: every `qa/corpus/*.ron` case replays through all
//! engines (reference, hash-join pipeline, virtual workflow) forever. Each case is a shrunk witness of a bug the
//! differential harness once found; a regression here means an old bug
//! came back.
//!
//! New cases are added by `exp_qa` (in `applab-qa`): any disagreement
//! it finds is shrunk and written out as a replayable `.ron` artifact —
//! move the artifact into `qa/corpus/` once the underlying bug is fixed.

use applab_qa::{load_dir, CorpusCase, DatasetSpec, Harness, Verdict};
use copernicus_app_lab::sparql::{evaluate, parse_query};
use std::path::Path;

fn corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("qa/corpus")
}

#[test]
fn corpus_cases_agree_across_all_engines() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    assert!(
        cases.len() >= 3,
        "the corpus must keep at least three shrunk cases, found {}",
        cases.len()
    );
    // Cases sharing a dataset reuse one harness build.
    let mut cache: Option<(DatasetSpec, Harness)> = None;
    for (path, case) in &cases {
        if cache.as_ref().is_none_or(|(s, _)| s != &case.dataset) {
            let h = Harness::new(case.dataset.clone())
                .unwrap_or_else(|e| panic!("{}: dataset builds: {e}", path.display()));
            cache = Some((case.dataset.clone(), h));
        }
        let (_, h) = cache.as_ref().expect("cache populated above");
        let verdict = h.run_text(&case.query);
        assert_eq!(
            verdict,
            Verdict::Agree,
            "{}: regression — this case pins: {}",
            path.display(),
            case.note
        );
    }
}

/// The handwritten batch-edge pins only pin something if the dataset
/// really crosses the harness batch windows: the slice must come back
/// full (the cuts land inside the data, not past its end), and at least
/// one COUNT group must be wider than the widest window (7), so grouped
/// state provably survives batch boundaries.
#[test]
fn batch_boundary_pins_are_non_vacuous() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    let find = |name: &str| {
        cases
            .iter()
            .map(|(_, c)| c)
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("corpus must keep the {name} pin"))
    };

    let straddle = find("limit_offset_straddles_batch_edge");
    let h = Harness::new(straddle.dataset.clone()).expect("dataset builds");
    let sliced = h
        .eval_pipeline(&straddle.query)
        .expect("pinned query evaluates");
    assert_eq!(
        sliced.len(),
        4,
        "OFFSET 5 LIMIT 4 must return a full slice — the dataset shrank below 9 matching rows"
    );

    let groups = find("count_groups_span_batch_edges");
    assert_eq!(
        groups.dataset, straddle.dataset,
        "the two pins share one dataset so the replay builds one harness"
    );
    let counted = h
        .eval_pipeline(&groups.query)
        .expect("pinned query evaluates");
    let applab_qa::Canon::Solutions { variables, rows } = &counted else {
        panic!("grouped COUNT must yield solutions, got {counted:?}");
    };
    // Canonical columns are sorted by name; ?n (the count) sorts first.
    assert_eq!(variables, &["n", "t"]);
    let widest = rows
        .iter()
        .filter_map(|r| r[0].as_deref())
        .filter_map(|c| c.strip_prefix('"')?.split('"').next()?.parse::<f64>().ok())
        .fold(0.0f64, f64::max);
    assert!(
        rows.len() >= 2,
        "grouped COUNT must produce several groups, got {}",
        rows.len()
    );
    assert!(
        widest > 7.0,
        "widest group has {widest} members — no group spans the pipeline batch window of 7"
    );
}

/// The component-split pins only pin something if the virtual workflow
/// really answers their BGP component by component, and if the rows they
/// compare are not all empty by accident.
#[test]
fn component_pins_are_non_vacuous() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    let pins: Vec<&CorpusCase> = cases
        .iter()
        .map(|(_, c)| c)
        .filter(|c| c.name.starts_with("component_"))
        .collect();
    assert!(pins.len() >= 7, "the component-split pins are missing");
    for case in pins {
        let h = Harness::new(case.dataset.clone()).expect("dataset builds");
        let explain = h
            .engines
            .vw
            .query_explained(&case.query)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let mut rewrites = Vec::new();
        explain.profile.find_all("obda.bgp_rewrite", &mut rewrites);
        // The empty first component stops the walk after one rewrite.
        let (min_rewrites, rows) = if case.name == "component_empty_first_component" {
            (1, 0..=0)
        } else {
            (2, 1..=usize::MAX)
        };
        assert!(
            rewrites.len() >= min_rewrites,
            "{}: {} components rewritten\n{}",
            case.name,
            rewrites.len(),
            explain.report()
        );
        assert!(
            explain.profile.find("scan").is_none(),
            "{}: a pattern was scanned on its own\n{}",
            case.name,
            explain.report()
        );
        assert!(
            rows.contains(&explain.results.len()),
            "{}: {} rows",
            case.name,
            explain.results.len()
        );
    }

    // Listing 1 in either written order: the same rows, with the park
    // envelope narrowing the observation fetch only when the parks come
    // first.
    let reversed = find_case(&cases, "component_listing1_reversed");
    let h = Harness::new(reversed.dataset.clone()).expect("dataset builds");
    let written = "SELECT DISTINCT ?geoA ?geoB ?lai WHERE { ?areaA osm:poiType osm:park . ?areaA geo:hasGeometry ?geomA . ?geomA geo:asWKT ?geoA . ?areaB lai:hasLai ?lai . ?areaB geo:hasGeometry ?geomB . ?geomB geo:asWKT ?geoB . FILTER(geof:sfIntersects(?geoA, ?geoB)) }";
    let fetched = |q: &str| {
        let explain = h
            .engines
            .vw
            .query_explained(q)
            .expect("Listing 1 evaluates");
        let mut executes = Vec::new();
        explain.profile.find_all("obda.execute", &mut executes);
        let opendap_rows: Vec<u64> = executes
            .iter()
            .filter(|s| {
                s.field("table")
                    .is_some_and(|t| t.to_string().starts_with("opendap:"))
            })
            .filter_map(|s| s.field("rows").and_then(|v| v.as_u64()))
            .collect();
        (applab_qa::canonicalize(&explain.results), opendap_rows)
    };
    let (forward_rows, forward_fetch) = fetched(written);
    let (reversed_rows, reversed_fetch) = fetched(&reversed.query);
    assert_eq!(forward_rows, reversed_rows);
    assert_eq!((forward_fetch.len(), reversed_fetch.len()), (1, 1));
    assert!(
        forward_fetch[0] < reversed_fetch[0],
        "the park envelope must narrow the fetch: {forward_fetch:?} vs {reversed_fetch:?}"
    );
}

/// The spatial-join pins only pin something if the store pipeline and the
/// virtual workflow both pair (or, for the one-component link, refuse to
/// pair) the linked parts as each note says, with rows to compare.
#[test]
fn spatial_join_pins_are_non_vacuous() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    let pins: Vec<&CorpusCase> = cases
        .iter()
        .map(|(_, c)| c)
        .filter(|c| c.name.starts_with("spatial_join_"))
        .collect();
    assert_eq!(pins.len(), 5, "the spatial-join pins are missing");
    for case in pins {
        let h = Harness::new(case.dataset.clone()).expect("dataset builds");
        let query = parse_query(&case.query).expect("pinned query parses");
        let (store_results, store_profile) =
            copernicus_app_lab::obs::profile("query", |_| evaluate(&h.engines.store, &query));
        let vw = h
            .engines
            .vw
            .query_explained(&case.query)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let store_results = store_results.unwrap_or_else(|e| panic!("{}: {e}", case.name));
        for (engine, profile, results) in [
            ("store", &store_profile, &store_results),
            ("virtual", &vw.profile, &vw.results),
        ] {
            let mut joins = Vec::new();
            profile.find_all("join", &mut joins);
            // (probe, build) of every spatial join.
            let spatial: Vec<(u64, u64)> = joins
                .iter()
                .filter(|j| j.field("kind").is_some_and(|k| k.to_string() == "spatial"))
                .map(|j| {
                    let n = |k: &str| j.field(k).and_then(|v| v.as_u64()).unwrap_or(0);
                    (n("probe"), n("build"))
                })
                .collect();
            let context = format!("{} on {engine}: {spatial:?}", case.name);
            assert!(!results.is_empty(), "{context}: no rows");
            match case.name.as_str() {
                "spatial_join_link_within_one_component" => {
                    assert!(spatial.is_empty(), "{context}")
                }
                // Every triple binds ?x once: the non-WKT objects are in
                // the join input.
                "spatial_join_link_to_a_non_wkt_literal" => {
                    assert_eq!(spatial, [(1, h.engines.triples as u64)], "{context}")
                }
                // The fold pairs District 2 with the parks before the
                // unlinked units can multiply it.
                "spatial_join_unlinked_component_in_between" => {
                    assert_eq!(spatial.len(), 1, "{context}");
                    assert_eq!(spatial[0].0, 1, "{context}");
                }
                "spatial_join_values_repeat_a_row" => {
                    assert_eq!(spatial.len(), 1, "{context}");
                    let applab_qa::Canon::Solutions { rows, .. } = applab_qa::canonicalize(results)
                    else {
                        panic!("{context}: solutions expected");
                    };
                    let district_1 = rows
                        .iter()
                        .filter(|r| r[0].as_deref().is_some_and(|n| n.contains("District 1")))
                        .count();
                    let mut distinct = rows.clone();
                    distinct.dedup();
                    assert!(district_1 > 0, "{context}: no District 1 answer");
                    assert_eq!(rows.len() - distinct.len(), district_1 / 2, "{context}");
                }
                _ => assert_eq!(spatial.len(), 1, "{context}"),
            }
        }
    }
}

fn find_case<'a>(cases: &'a [(std::path::PathBuf, CorpusCase)], name: &str) -> &'a CorpusCase {
    cases
        .iter()
        .map(|(_, c)| c)
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("corpus must keep the {name} pin"))
}

#[test]
fn corpus_files_are_well_formed_and_stable() {
    let cases = load_dir(&corpus_dir()).expect("corpus loads");
    for (path, case) in &cases {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
        assert_eq!(
            case.name,
            stem,
            "{}: case name must match the file stem",
            path.display()
        );
        assert!(
            !case.note.trim().is_empty(),
            "{}: every corpus case must say what it pins",
            path.display()
        );
        // The on-disk text is exactly what the writer would emit, so
        // regenerating a case never produces a spurious diff.
        let text = std::fs::read_to_string(path).expect("corpus file reads");
        assert_eq!(
            case.to_ron(),
            text,
            "{}: file must be the to_ron fixed point",
            path.display()
        );
        // And the round trip is lossless.
        assert_eq!(&CorpusCase::from_ron(&text).unwrap(), case);
    }
}
