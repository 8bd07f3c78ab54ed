//! The differential harness: one query, three engines, one verdict.
//!
//! Engines under test:
//!
//! 1. `reference` — the nested-loop oracle evaluator,
//! 2. `pipeline` — the dictionary/hash-join pipeline over the store,
//! 3. `virtual` — the on-the-fly OBDA workflow over tables + OPeNDAP.
//!
//! All solution results are pushed through the JSON wire format
//! (`to_json` → `from_json`) before canonicalization, so every
//! differential case also exercises the serializer round-trip.
//!
//! With `LIMIT`/`OFFSET` in play any correctly-sized subset of the full
//! answer is a legal result (row order below an under-specified `ORDER
//! BY` is engine-dependent), so the harness switches to *slice mode*:
//! each engine's answer must be contained in the unlimited reference
//! answer and have exactly the cardinality the modifiers dictate.

use crate::canon::{canonicalize, diff, is_multiset_subset, Canon};
use crate::dataset::{DatasetSpec, Engines};
use crate::gen::QueryIr;
use applab_sparql::{reference, EvalOptions, Query, QueryResults};

/// How a case was judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All engines produced equivalent results.
    Agree,
    /// All engines failed (same front door, e.g. a type error surfaced at
    /// evaluation); recorded separately so a noisy generator is visible.
    AgreeError(String),
    /// At least two engines produced non-equivalent results — the oracle
    /// fired. The payload names the engines and the first difference.
    Disagree(String),
}

impl Verdict {
    pub fn is_disagreement(&self) -> bool {
        matches!(self, Verdict::Disagree(_))
    }
}

/// Engine labels, aligned with [`Harness::run_text`] internals.
pub const ENGINES: [&str; 3] = ["reference", "pipeline", "virtual"];

/// The batch windows forced on the evaluating engines (`pipeline`,
/// `virtual` in that order): deliberately tiny and coprime, so on the
/// small generated datasets batch edges land inside every operator and
/// at different rows for the two engines. `QueryIr::features`
/// reports batch-boundary coverage against these same windows.
pub const HARNESS_BATCH_WINDOWS: [usize; 2] = [7, 3];

/// A differential harness bound to one dataset.
pub struct Harness {
    pub engines: Engines,
    pub spec: DatasetSpec,
}

fn canon_via_json(r: &QueryResults) -> Result<Canon, String> {
    let direct = canonicalize(r);
    let json = r.to_json();
    let parsed = QueryResults::from_json(&json).map_err(|e| format!("from_json failed: {e}"))?;
    let round = canonicalize(&parsed);
    if direct != round {
        return Err(format!(
            "JSON round-trip changed the canonical result: {}",
            diff(&direct, &round).unwrap_or_default()
        ));
    }
    Ok(direct)
}

impl Harness {
    pub fn new(spec: DatasetSpec) -> Result<Harness, String> {
        let engines = spec.build()?;
        Ok(Harness { engines, spec })
    }

    /// Evaluate on one engine by index (order of [`ENGINES`]).
    ///
    /// Both evaluating engines run with deliberately tiny (and different)
    /// batch windows, so on the small generated datasets every FILTER,
    /// LIMIT/OFFSET slice and GROUP BY constantly straddles batch
    /// boundaries — the window size must never be observable.
    fn eval_engine(&self, idx: usize, text: &str, query: &Query) -> Result<QueryResults, String> {
        match idx {
            0 => reference::evaluate(&self.engines.store, query).map_err(|e| e.to_string()),
            1 => applab_sparql::evaluate_with(
                &self.engines.store,
                query,
                &EvalOptions {
                    batch_size: HARNESS_BATCH_WINDOWS[0],
                    ..EvalOptions::default()
                },
            )
            .map_err(|e| e.to_string()),
            2 => self
                .engines
                .vw
                .query_with(
                    text,
                    &EvalOptions {
                        batch_size: HARNESS_BATCH_WINDOWS[1],
                        ..EvalOptions::default()
                    },
                )
                .map_err(|e| e.to_string()),
            _ => unreachable!("engine index"),
        }
    }

    /// Run one engine only, by index into [`ENGINES`] (the metamorphic
    /// checks need a single fast engine, not the full cross-product).
    fn eval_one(&self, idx: usize, text: &str) -> Result<Canon, String> {
        let query = applab_sparql::parse_query(text).map_err(|e| format!("parse: {e}"))?;
        let r = self.eval_engine(idx, text, &query)?;
        canon_via_json(&r)
    }

    /// Run the pipeline engine only.
    pub fn eval_pipeline(&self, text: &str) -> Result<Canon, String> {
        self.eval_one(1, text)
    }

    /// Run the nested-loop reference evaluator only.
    pub fn eval_reference(&self, text: &str) -> Result<Canon, String> {
        self.eval_one(0, text)
    }

    /// Run one rendered query through all three engines and diff.
    pub fn run_text(&self, text: &str) -> Verdict {
        let query = match applab_sparql::parse_query(text) {
            Ok(q) => q,
            // All engines share the parser; a parse failure cannot
            // discriminate between them. It is still a generator defect,
            // so surface it loudly.
            Err(e) => return Verdict::Disagree(format!("generated query does not parse: {e}")),
        };
        let slice_mode = query.limit.is_some() || query.offset > 0;

        let mut canons: Vec<(&str, Canon)> = Vec::new();
        let mut errors: Vec<(&str, String)> = Vec::new();
        for (idx, name) in ENGINES.into_iter().enumerate() {
            match self.eval_engine(idx, text, &query) {
                Ok(r) => match canon_via_json(&r) {
                    Ok(c) => canons.push((name, c)),
                    Err(e) => return Verdict::Disagree(format!("{name}: {e}")),
                },
                Err(e) => errors.push((name, e)),
            }
        }
        if canons.is_empty() {
            let (name, e) = &errors[0];
            return Verdict::AgreeError(format!("{name}: {e}"));
        }
        if !errors.is_empty() {
            let (ename, e) = &errors[0];
            let (oname, _) = &canons[0];
            return Verdict::Disagree(format!("{ename} errored ({e}) while {oname} answered"));
        }

        if !slice_mode {
            let (_, reference_canon) = &canons[0];
            for (name, c) in &canons[1..] {
                if let Some(d) = diff(reference_canon, c) {
                    return Verdict::Disagree(format!("reference vs {name}: {d}"));
                }
            }
            return Verdict::Agree;
        }

        // Slice mode: compare every engine against the unlimited
        // reference answer.
        let mut unlimited = query.clone();
        unlimited.limit = None;
        unlimited.offset = 0;
        let full = match reference::evaluate(&self.engines.store, &unlimited) {
            Ok(r) => canonicalize(&r),
            Err(e) => return Verdict::Disagree(format!("unlimited reference run failed: {e}")),
        };
        let expected = query
            .limit
            .unwrap_or(usize::MAX)
            .min(full.len().saturating_sub(query.offset));
        for (name, c) in &canons {
            if c.len() != expected {
                return Verdict::Disagree(format!(
                    "{name}: slice of {} rows, expected {expected} (full {} rows, limit {:?} offset {})",
                    c.len(),
                    full.len(),
                    query.limit,
                    query.offset
                ));
            }
            if !is_multiset_subset(c, &full) {
                return Verdict::Disagree(format!(
                    "{name}: slice is not contained in the unlimited reference answer"
                ));
            }
        }
        Verdict::Agree
    }

    /// Convenience: render an IR and run it.
    pub fn run_ir(&self, ir: &QueryIr) -> Verdict {
        self.run_text(&ir.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handwritten_queries_agree() {
        let h = Harness::new(DatasetSpec::small(11)).unwrap();
        for q in [
            "SELECT ?s ?w WHERE { ?s a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?w }",
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s a gadm:AdministrativeUnit } GROUP BY ?s",
            "ASK WHERE { ?s osm:poiType osm:park }",
            "SELECT ?s ?lai WHERE { ?s lai:hasLai ?lai . FILTER(?lai > 1.0) }",
            "SELECT ?s WHERE { ?s a ua:UrbanAtlasArea } ORDER BY ?s LIMIT 3",
        ] {
            assert_eq!(h.run_text(q), Verdict::Agree, "query {q}");
        }
    }

    /// Non-vacuity of the `disconnected_bgp` feature: generated BGPs of
    /// several components must really reach the virtual graph's
    /// component-wise rewrite (some component answered by one source
    /// scan), not only the pattern-at-a-time fallback — and agree there.
    #[test]
    fn disconnected_bgps_reach_the_component_rewrite() {
        use crate::gen::{case_seed, generate};
        let spec = DatasetSpec::small(1);
        let h = Harness::new(spec.clone()).unwrap();
        let (mut disconnected, mut rewritten) = (0, 0);
        for i in 0..200 {
            let ir = generate(case_seed(1, i), &spec);
            if !ir.features().contains(&"disconnected_bgp") {
                continue;
            }
            disconnected += 1;
            let text = ir.render();
            let verdict = h.run_text(&text);
            assert!(!verdict.is_disagreement(), "{text}: {verdict:?}");
            let Ok(explain) = h.engines.vw.query_explained(&text) else {
                continue;
            };
            let mut bgps = Vec::new();
            explain.profile.find_all("bgp", &mut bgps);
            if bgps
                .iter()
                .any(|b| b.field("components").is_some() && b.field("source_bgp").is_some())
            {
                rewritten += 1;
            }
        }
        assert!(
            disconnected >= 20,
            "200 cases produced only {disconnected} disconnected BGPs"
        );
        assert!(
            rewritten * 2 >= disconnected,
            "only {rewritten} of {disconnected} disconnected BGPs reached the component rewrite"
        );
    }

    #[test]
    fn a_broken_query_is_reported_not_panicked() {
        let h = Harness::new(DatasetSpec::small(11)).unwrap();
        let v = h.run_text("SELECT ?x WHERE { ?x osm:nope ?y . FILTER(?y");
        assert!(v.is_disagreement(), "parse failures surface loudly: {v:?}");
    }
}
