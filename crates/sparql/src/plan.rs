//! Cost-based planning: seal-time statistics, cardinality estimation,
//! join ordering, access-path choice, and build-side filters.
//!
//! Sources collect a [`Stats`] sketch once, when they seal
//! (`SpatioTemporalStore::finish_load`, `VirtualGraph::new`), and expose
//! it through [`crate::GraphSource::stats`]. Every BGP the source does not
//! answer whole is evaluated through this plan: joins are ordered by
//! estimated output cardinality ([`order_patterns`]), spatial/temporal
//! index access paths are taken only when the sketch says they prune
//! ([`access_path`]), and build-side [`IdFilter`]s (Bloom + min/max) drop
//! probe rows before the hash join. A source without a sketch is planned
//! over an empty [`Stats`]: every estimate ties, so the order is
//! connected-first with the [`pattern_key`] tie-break.
//!
//! Everything here is an *over-approximation*: estimates steer order and
//! access paths but never drop answers — filters are always re-applied
//! downstream, so a wrong estimate costs time, not correctness. The
//! nested-loop [`crate::reference`] evaluator is the oracle;
//! `tests/planner_equivalence.rs` diffs the two across the QA corpus.
//!
//! Plans are summarized by a [`fingerprint`] over the chosen (pattern,
//! access-path) sequence. Because [`order_patterns`] keys only on
//! estimates and canonical pattern text — never on written position —
//! the fingerprint is invariant under reordering of the written BGP,
//! which the QA metamorphic suite asserts adversarially.

use crate::algebra::{GraphPattern, TermPattern, TriplePattern};
use applab_geo::Envelope;
use applab_obs::splitmix64;
use std::collections::{HashMap, HashSet};

/// Per-predicate cardinalities collected at seal time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredicateStats {
    /// Triples with this predicate.
    pub triples: u64,
    /// Distinct subjects among those triples.
    pub distinct_subjects: u64,
    /// Distinct objects among those triples.
    pub distinct_objects: u64,
}

/// Selectivity sketch of the spatial (R-tree) index: how much of the
/// indexed extent a query envelope covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpatialSketch {
    /// Geometries in the index.
    pub entries: u64,
    /// Union envelope of all indexed geometries (`None` when empty).
    pub bounds: Option<Envelope>,
}

impl SpatialSketch {
    /// Fraction of indexed entries a query envelope is expected to
    /// touch, assuming uniform spread over the bounds. 1.0 when unknown.
    pub fn selectivity(&self, query: &Envelope) -> f64 {
        let Some(b) = &self.bounds else {
            return 1.0;
        };
        if !b.intersects(query) {
            return 0.0;
        }
        let total = b.width() * b.height();
        if total <= 0.0 {
            // Degenerate extent (single point/line): in or out, not scaled.
            return 1.0;
        }
        let w = (query.max_x.min(b.max_x) - query.min_x.max(b.min_x)).max(0.0);
        let h = (query.max_y.min(b.max_y) - query.min_y.max(b.min_y)).max(0.0);
        ((w * h) / total).clamp(0.0, 1.0)
    }
}

/// Selectivity sketch of the sorted temporal index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TemporalSketch {
    /// Entries in the index.
    pub entries: u64,
    /// Smallest indexed timestamp (seconds).
    pub min: i64,
    /// Largest indexed timestamp (seconds).
    pub max: i64,
}

impl TemporalSketch {
    /// Fraction of indexed entries a `[lo, hi]` range is expected to
    /// cover, assuming uniform spread. 1.0 when unknown.
    pub fn selectivity(&self, lo: i64, hi: i64) -> f64 {
        if self.entries == 0 {
            return 1.0;
        }
        if hi < self.min || lo > self.max {
            return 0.0;
        }
        let total = (self.max - self.min) as f64;
        if total <= 0.0 {
            return 1.0;
        }
        let covered = (hi.min(self.max) - lo.max(self.min)).max(0) as f64;
        (covered / total).clamp(0.0, 1.0)
    }
}

/// Seal-time statistics owned by a sealed source. Keyed by predicate IRI
/// text so one shape serves both the id-encoded store and the
/// template-based OBDA virtual graphs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Total triples (or the structural estimate for virtual sources).
    pub total_triples: u64,
    /// Per-predicate cardinalities, keyed by predicate IRI.
    pub predicates: HashMap<String, PredicateStats>,
    /// Spatial index sketch.
    pub spatial: SpatialSketch,
    /// Temporal index sketch.
    pub temporal: TemporalSketch,
}

impl Stats {
    pub fn predicate(&self, iri: &str) -> Option<&PredicateStats> {
        self.predicates.get(iri)
    }

    /// Estimated matches for one triple pattern given which variables are
    /// already bound and any spatial/temporal constraints on its object.
    pub fn estimate_pattern(
        &self,
        pattern: &TriplePattern,
        is_bound: &dyn Fn(&str) -> bool,
        spatial: &HashMap<String, Envelope>,
        temporal: &HashMap<String, (i64, i64)>,
    ) -> f64 {
        let bound = |tp: &TermPattern| match tp {
            TermPattern::Term(_) => true,
            TermPattern::Var(v) => is_bound(v),
        };
        let pred = match &pattern.predicate {
            TermPattern::Term(applab_rdf::Term::Named(n)) => self.predicate(n.as_str()),
            _ => None,
        };
        let mut est = match pred {
            Some(p) => p.triples as f64,
            // Unknown or variable predicate: whole source; each bound
            // position is worth a flat guess (no per-position stats).
            None => self.total_triples as f64,
        };
        match pred {
            Some(p) => {
                if bound(&pattern.subject) {
                    est /= (p.distinct_subjects as f64).max(1.0);
                }
                if bound(&pattern.object) {
                    est /= (p.distinct_objects as f64).max(1.0);
                }
            }
            None => {
                const FLAT: f64 = 0.1;
                if bound(&pattern.subject) {
                    est *= FLAT;
                }
                if bound(&pattern.object) {
                    est *= FLAT;
                }
            }
        }
        // Constraints on the object variable scale by index selectivity.
        if let TermPattern::Var(v) = &pattern.object {
            if let Some(env) = spatial.get(v) {
                est *= self.spatial.selectivity(env);
            } else if let Some((lo, hi)) = temporal.get(v) {
                est *= self.temporal.selectivity(*lo, *hi);
            }
        }
        est.max(0.0)
    }

    /// Distinct values this pattern's statistics promise at a join
    /// position occupied by `var` (used as the denominator of the join
    /// estimate). `None` when the pattern gives no information.
    pub fn distinct_at(&self, pattern: &TriplePattern, var: &str) -> Option<f64> {
        let p = match &pattern.predicate {
            TermPattern::Term(applab_rdf::Term::Named(n)) => self.predicate(n.as_str())?,
            _ => return None,
        };
        if pattern.subject.as_var() == Some(var) {
            Some((p.distinct_subjects as f64).max(1.0))
        } else if pattern.object.as_var() == Some(var) {
            Some((p.distinct_objects as f64).max(1.0))
        } else {
            None
        }
    }
}

/// Textbook equi-join estimate: `|A| * |B| / max(d_key, 1)`.
pub fn estimate_join(est_a: f64, est_b: f64, d_key: f64) -> f64 {
    (est_a * est_b / d_key.max(1.0)).max(0.0)
}

/// The access path the planner picks for one scanned pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Plain index scan (SPO/POS/OSP or mapping expansion).
    Scan,
    /// R-tree constrained scan.
    Spatial,
    /// Sorted temporal index scan.
    Temporal,
}

impl AccessPath {
    pub fn tag(self) -> &'static str {
        match self {
            AccessPath::Scan => "scan",
            AccessPath::Spatial => "spatial",
            AccessPath::Temporal => "temporal",
        }
    }
}

/// Choose the access path for a pattern: the constrained index unless
/// the sketch *proves* it would not prune (the query range covers the
/// whole indexed extent). An unknown sketch (e.g. the OBDA structural
/// stats carry no bounds) keeps the pushdown.
pub fn access_path(
    stats: &Stats,
    pattern: &TriplePattern,
    spatial: &HashMap<String, Envelope>,
    temporal: &HashMap<String, (i64, i64)>,
) -> AccessPath {
    if let TermPattern::Var(v) = &pattern.object {
        if let Some(env) = spatial.get(v) {
            // Any real pruning pays: every row the index skips is a row
            // the exact (far more expensive) geometry predicate never
            // sees downstream.
            let prunes = match &stats.spatial.bounds {
                None => true, // unknown extent: trying the index is free-ish
                Some(_) => stats.spatial.selectivity(env) < 1.0,
            };
            if prunes {
                return AccessPath::Spatial;
            }
        } else if let Some((lo, hi)) = temporal.get(v) {
            let prunes = stats.temporal.entries == 0 || stats.temporal.selectivity(*lo, *hi) < 1.0;
            if prunes {
                return AccessPath::Temporal;
            }
        }
    }
    AccessPath::Scan
}

/// The give-up threshold for *derived* (sideways) envelopes: unlike a
/// constant filter envelope — whose pruning always saves exact geometry
/// tests downstream — a sideways union envelope only narrows a scan whose
/// rows the hash join would discard anyway, and an R-tree walk costs
/// several times a plain predicate-column scan per produced row. Once a
/// partial union is this wide the finished envelope cannot win, so
/// computing the rest of it is wasted work.
pub const INDEX_SELECTIVITY_CUTOFF: f64 = 1.0 / 3.0;

/// Canonical, written-position-free text of a triple pattern; the
/// ordering tie-break and the fingerprint hash over these keys.
pub fn pattern_key(p: &TriplePattern) -> String {
    let one = |tp: &TermPattern| match tp {
        TermPattern::Var(v) => format!("?{v}"),
        TermPattern::Term(t) => t.to_string(),
    };
    format!(
        "{} {} {}",
        one(&p.subject),
        one(&p.predicate),
        one(&p.object)
    )
}

/// One step of a planned BGP.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep<'p> {
    /// Index of the pattern in the *written* BGP.
    pub pattern: usize,
    /// The pattern itself.
    pub triple: &'p TriplePattern,
    /// Chosen access path.
    pub access: AccessPath,
    /// Static cardinality estimate for the scan of this pattern.
    pub est_rows: f64,
}

/// Greedily order a BGP by estimated cardinality.
///
/// At every step the candidates are the remaining patterns that share a
/// variable with what is already bound (falling back to all of them when
/// none connects — a cross product is unavoidable then); among the
/// candidates the smallest static estimate wins, with ties broken by
/// canonical pattern text. Written position is never consulted, so two
/// permutations of the same BGP produce the same step sequence.
/// `input_bound` says which variables the input already binds.
///
/// This runs on every evaluation, so it allocates only the step list:
/// the bound set is the input's plus the placed steps' variables, and a
/// pattern's key is formatted only when its estimate ties another's.
pub fn order_patterns<'p>(
    stats: &Stats,
    patterns: &'p [TriplePattern],
    input_bound: &dyn Fn(&str) -> bool,
    spatial: &HashMap<String, Envelope>,
    temporal: &HashMap<String, (i64, i64)>,
) -> Vec<PlanStep<'p>> {
    let mut steps: Vec<PlanStep<'p>> = Vec::with_capacity(patterns.len());
    let mut keys: Vec<Option<String>> = Vec::new();
    while steps.len() < patterns.len() {
        let is_bound =
            |v: &str| input_bound(v) || steps.iter().any(|s| s.triple.variables().any(|w| w == v));
        let placed = |i: usize| steps.iter().any(|s| s.pattern == i);
        let connected = |i: usize| patterns[i].variables().any(is_bound);
        let any_connected = (0..patterns.len()).any(|i| !placed(i) && connected(i));
        let mut best: Option<(usize, f64)> = None;
        for i in (0..patterns.len()).filter(|&i| !placed(i) && (!any_connected || connected(i))) {
            let est = stats.estimate_pattern(&patterns[i], &is_bound, spatial, temporal);
            let wins = match best {
                None => true,
                Some((b, best_est)) => match est.partial_cmp(&best_est) {
                    Some(std::cmp::Ordering::Less) => true,
                    Some(std::cmp::Ordering::Greater) => false,
                    _ => {
                        keys.resize(patterns.len(), None);
                        for k in [i, b] {
                            keys[k].get_or_insert_with(|| pattern_key(&patterns[k]));
                        }
                        keys[i] < keys[b]
                    }
                },
            };
            if wins {
                best = Some((i, est));
            }
        }
        let (idx, est) = best.expect("a pattern remains");
        steps.push(PlanStep {
            pattern: idx,
            triple: &patterns[idx],
            access: access_path(stats, &patterns[idx], spatial, temporal),
            est_rows: est,
        });
    }
    steps
}

/// FNV-1a over the plan's (key, access) sequence.
pub fn fingerprint(steps: &[PlanStep]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for s in steps {
        eat(pattern_key(s.triple).as_bytes());
        eat(b"\x1f");
        eat(s.access.tag().as_bytes());
        eat(b"\x1e");
    }
    h
}

/// Statically plan every BGP of a query pattern tree and fingerprint the
/// combined plan. Mirrors the evaluator's walk: `FILTER` constraints
/// narrow the spatial/temporal maps for the patterns beneath them, and
/// variables bound by earlier siblings count as bound input for later
/// ones. Used by EXPLAIN (the `plan` span) and by the QA metamorphic
/// "adversarial ordering" check.
pub fn query_plan<'p>(stats: &Stats, pattern: &'p GraphPattern) -> Vec<PlanStep<'p>> {
    let mut steps = Vec::new();
    let mut bound = HashSet::new();
    walk(
        stats,
        pattern,
        &HashMap::new(),
        &HashMap::new(),
        &mut bound,
        &mut steps,
    );
    steps
}

/// [`query_plan`] + [`fingerprint`] in one call.
pub fn query_fingerprint(stats: &Stats, pattern: &GraphPattern) -> u64 {
    fingerprint(&query_plan(stats, pattern))
}

fn walk<'p>(
    stats: &Stats,
    pattern: &'p GraphPattern,
    spatial: &HashMap<String, Envelope>,
    temporal: &HashMap<String, (i64, i64)>,
    bound: &mut HashSet<String>,
    steps: &mut Vec<PlanStep<'p>>,
) {
    match pattern {
        GraphPattern::Bgp(patterns) => {
            steps.extend(order_patterns(
                stats,
                patterns,
                &|v| bound.contains(v),
                spatial,
                temporal,
            ));
            for p in patterns {
                bound.extend(p.variables().map(String::from));
            }
        }
        GraphPattern::Filter(expr, inner) => {
            let mut sp = spatial.clone();
            for (v, env) in crate::eval::spatial_constraints(expr) {
                let merged = match sp.get(&v) {
                    Some(prev) => Envelope::new(
                        prev.min_x.max(env.min_x),
                        prev.min_y.max(env.min_y),
                        prev.max_x.min(env.max_x),
                        prev.max_y.min(env.max_y),
                    ),
                    None => env,
                };
                sp.insert(v, merged);
            }
            let mut tp = temporal.clone();
            for (v, (lo, hi)) in crate::eval::temporal_constraints(expr) {
                let merged = match tp.get(&v) {
                    Some((plo, phi)) => (lo.max(*plo), hi.min(*phi)),
                    None => (lo, hi),
                };
                tp.insert(v, merged);
            }
            walk(stats, inner, &sp, &tp, bound, steps);
        }
        GraphPattern::Join(a, b) => {
            walk(stats, a, spatial, temporal, bound, steps);
            walk(stats, b, spatial, temporal, bound, steps);
        }
        GraphPattern::LeftJoin(a, b) => {
            walk(stats, a, spatial, temporal, bound, steps);
            // The optional side sees the left's bindings but must not
            // leak its own into what follows.
            let mut inner_bound = bound.clone();
            walk(stats, b, spatial, temporal, &mut inner_bound, steps);
        }
        GraphPattern::Union(a, b) => {
            let mut left = bound.clone();
            walk(stats, a, spatial, temporal, &mut left, steps);
            let mut right = bound.clone();
            walk(stats, b, spatial, temporal, &mut right, steps);
            bound.extend(left);
            bound.extend(right);
        }
        GraphPattern::Extend(inner, var, _) => {
            walk(stats, inner, spatial, temporal, bound, steps);
            bound.insert(var.clone());
        }
        GraphPattern::Values(vars, _) => {
            bound.extend(vars.iter().cloned());
        }
    }
}

/// A zero-dependency blocked Bloom filter over term ids (~10 bits/key,
/// two probes → false-positive rate around 3%, bounded <5% by test).
#[derive(Debug, Clone)]
pub struct Bloom {
    bits: Vec<u64>,
    mask: u64,
}

impl Bloom {
    const BITS_PER_KEY: usize = 10;

    pub fn new(expected: usize) -> Self {
        let bits = (expected.max(1) * Self::BITS_PER_KEY).next_power_of_two();
        let words = (bits / 64).max(1);
        Bloom {
            bits: vec![0; words],
            mask: (bits as u64) - 1,
        }
    }

    fn probes(&self, id: u64) -> (u64, u64) {
        let h1 = splitmix64(id);
        let h2 = splitmix64(id ^ 0xa5a5_a5a5_a5a5_a5a5);
        (h1 & self.mask, h2 & self.mask)
    }

    pub fn insert(&mut self, id: u64) {
        let (a, b) = self.probes(id);
        self.bits[(a / 64) as usize] |= 1 << (a % 64);
        self.bits[(b / 64) as usize] |= 1 << (b % 64);
    }

    pub fn contains(&self, id: u64) -> bool {
        let (a, b) = self.probes(id);
        self.bits[(a / 64) as usize] & (1 << (a % 64)) != 0
            && self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
    }
}

/// The sideways filter one join's build side hands its probe side:
/// min/max id range plus a Bloom filter. Over-approximate by
/// construction — a passing id may still fail the join, a failing id
/// never joins.
#[derive(Debug, Clone)]
pub struct IdFilter {
    bloom: Bloom,
    min: u64,
    max: u64,
    len: usize,
}

impl IdFilter {
    /// Build from the build side's key column. `None` when empty (an
    /// empty build side short-circuits the join elsewhere).
    pub fn build(ids: &[u64]) -> Option<IdFilter> {
        let (mut min, mut max) = (u64::MAX, u64::MIN);
        let mut bloom = Bloom::new(ids.len());
        for &id in ids {
            min = min.min(id);
            max = max.max(id);
            bloom.insert(id);
        }
        if ids.is_empty() {
            return None;
        }
        Some(IdFilter {
            bloom,
            min,
            max,
            len: ids.len(),
        })
    }

    pub fn contains(&self, id: u64) -> bool {
        id >= self.min && id <= self.max && self.bloom.contains(id)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_rdf::Term;

    fn pat(s: &str, p: &str, o: &str) -> TriplePattern {
        let one = |t: &str| -> TermPattern {
            match t.strip_prefix('?') {
                Some(v) => TermPattern::var(v),
                None => Term::named(format!("http://ex/{t}")).into(),
            }
        };
        TriplePattern::new(one(s), one(p), one(o))
    }

    fn stats() -> Stats {
        let mut s = Stats {
            total_triples: 1000,
            ..Stats::default()
        };
        s.predicates.insert(
            "http://ex/rare".into(),
            PredicateStats {
                triples: 10,
                distinct_subjects: 10,
                distinct_objects: 5,
            },
        );
        s.predicates.insert(
            "http://ex/common".into(),
            PredicateStats {
                triples: 900,
                distinct_subjects: 300,
                distinct_objects: 90,
            },
        );
        s
    }

    #[test]
    fn pattern_estimates_follow_predicate_counts() {
        let s = stats();
        let none = |_: &str| false;
        let sp = HashMap::new();
        let tp = HashMap::new();
        assert_eq!(
            s.estimate_pattern(&pat("?a", "rare", "?b"), &none, &sp, &tp),
            10.0
        );
        assert_eq!(
            s.estimate_pattern(&pat("?a", "common", "?b"), &none, &sp, &tp),
            900.0
        );
        // Bound subject divides by distinct subjects: 900/300 = 3.
        assert_eq!(
            s.estimate_pattern(&pat("subj", "common", "?b"), &none, &sp, &tp),
            3.0
        );
        // Unknown predicate falls back to the total.
        assert_eq!(
            s.estimate_pattern(&pat("?a", "never-seen", "?b"), &none, &sp, &tp),
            1000.0
        );
        // Variable predicate: total, scaled per bound position.
        assert_eq!(
            s.estimate_pattern(&pat("subj", "?p", "?b"), &none, &sp, &tp),
            100.0
        );
    }

    #[test]
    fn spatial_selectivity_scales_by_overlap() {
        let sk = SpatialSketch {
            entries: 100,
            bounds: Some(Envelope::new(0.0, 0.0, 10.0, 10.0)),
        };
        assert_eq!(sk.selectivity(&Envelope::new(0.0, 0.0, 5.0, 10.0)), 0.5);
        assert_eq!(sk.selectivity(&Envelope::new(20.0, 20.0, 30.0, 30.0)), 0.0);
        assert_eq!(sk.selectivity(&Envelope::new(-5.0, -5.0, 15.0, 15.0)), 1.0);
    }

    #[test]
    fn temporal_selectivity_scales_by_overlap() {
        let sk = TemporalSketch {
            entries: 100,
            min: 0,
            max: 1000,
        };
        assert_eq!(sk.selectivity(0, 500), 0.5);
        assert_eq!(sk.selectivity(2000, 3000), 0.0);
        assert_eq!(sk.selectivity(-100, 1100), 1.0);
    }

    #[test]
    fn join_estimate_matches_formula() {
        assert_eq!(estimate_join(100.0, 50.0, 25.0), 200.0);
        // d_key below 1 clamps.
        assert_eq!(estimate_join(10.0, 10.0, 0.0), 100.0);
    }

    #[test]
    fn ordering_is_written_order_independent() {
        let s = stats();
        let a = pat("?x", "common", "?y");
        let b = pat("?y", "rare", "?z");
        let c = pat("?z", "common", "obj");
        let orders = [
            vec![a.clone(), b.clone(), c.clone()],
            vec![c.clone(), a.clone(), b.clone()],
            vec![b.clone(), c.clone(), a.clone()],
        ];
        let sp = HashMap::new();
        let tp = HashMap::new();
        let mut prints = Vec::new();
        for patterns in &orders {
            let steps = order_patterns(&s, patterns, &|_| false, &sp, &tp);
            // Every permutation starts from the rare pattern.
            assert_eq!(steps[0].triple, &b);
            prints.push(fingerprint(&steps));
        }
        assert!(prints.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn ordering_prefers_connected_patterns() {
        let s = stats();
        // `rare` is smallest, then the connected `common ?y` beats the
        // cheaper-looking but disconnected constant-object pattern only
        // through the connectivity rule.
        let patterns = vec![
            pat("?a", "common", "?unrelated"),
            pat("?x", "rare", "?y"),
            pat("?y", "common", "?z"),
        ];
        let steps = order_patterns(&s, &patterns, &|_| false, &HashMap::new(), &HashMap::new());
        assert_eq!(steps[0].pattern, 1);
        assert_eq!(steps[1].pattern, 2, "connected pattern joins next");
        assert_eq!(steps[2].pattern, 0);
    }

    #[test]
    fn access_path_uses_index_only_when_it_prunes() {
        let mut s = stats();
        s.spatial = SpatialSketch {
            entries: 100,
            bounds: Some(Envelope::new(0.0, 0.0, 10.0, 10.0)),
        };
        let p = pat("?g", "common", "?wkt");
        let mut sp = HashMap::new();
        sp.insert("wkt".to_string(), Envelope::new(0.0, 0.0, 1.0, 1.0));
        assert_eq!(
            access_path(&s, &p, &sp, &HashMap::new()),
            AccessPath::Spatial
        );
        // An envelope covering the whole extent does not prune.
        sp.insert("wkt".to_string(), Envelope::new(-1.0, -1.0, 11.0, 11.0));
        assert_eq!(access_path(&s, &p, &sp, &HashMap::new()), AccessPath::Scan);
    }

    #[test]
    fn bloom_has_no_false_negatives_and_few_false_positives() {
        let members: Vec<u64> = (0..4096u64).map(|i| splitmix64(i * 3 + 1)).collect();
        let filter = IdFilter::build(&members).unwrap();
        for &m in &members {
            assert!(filter.contains(m), "false negative on {m}");
        }
        let mut false_positives = 0usize;
        let trials = 40_000usize;
        for i in 0..trials {
            let probe = splitmix64(0xdead_beef ^ (i as u64) << 17);
            if !members.contains(&probe) && filter.contains(probe) {
                false_positives += 1;
            }
        }
        let rate = false_positives as f64 / trials as f64;
        assert!(rate < 0.05, "false-positive rate {rate} ≥ 5%");
    }

    /// Probe positions are part of the plan's replay behaviour; these
    /// were captured before the Bloom filter moved to the shared mixer.
    #[test]
    fn bloom_probe_positions_are_pinned() {
        let bloom = Bloom::new(100);
        let probes: Vec<(u64, u64)> = [0, 1, 42, 1 << 40, u64::MAX]
            .into_iter()
            .map(|id| bloom.probes(id))
            .collect();
        assert_eq!(
            probes,
            [(431, 33), (193, 260), (661, 612), (905, 265), (32, 70)]
        );
    }

    #[test]
    fn id_filter_min_max_prunes_out_of_range() {
        let filter = IdFilter::build(&[100, 200, 300]).unwrap();
        assert!(!filter.contains(5));
        assert!(!filter.contains(5000));
        assert!(filter.contains(200));
        assert!(IdFilter::build(&[]).is_none());
    }

    #[test]
    fn query_fingerprint_invariant_under_bgp_permutation() {
        let s = stats();
        let a = pat("?x", "common", "?y");
        let b = pat("?y", "rare", "?z");
        let fwd = GraphPattern::Bgp(vec![a.clone(), b.clone()]);
        let rev = GraphPattern::Bgp(vec![b, a]);
        assert_eq!(query_fingerprint(&s, &fwd), query_fingerprint(&s, &rev));
    }
}
