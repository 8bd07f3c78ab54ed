//! The query evaluator: a dictionary-encoded, vectorized hash-join
//! pipeline.
//!
//! Evaluation is bottom-up over [`GraphPattern`], but unlike a classic
//! binding-at-a-time interpreter the intermediate solutions flow as
//! **columnar batches** (`batch::Batch`): one fixed-width `u64`
//! id column per variable slot plus a validity bitmap, indexed by a
//! per-query variable table (`Slots`). Each triple pattern of a BGP is
//! scanned exactly once into a batch, in the order [`plan::order_patterns`]
//! chooses from the source's seal-time statistics, and joined at once with
//! a hash join on the shared variable slots. A join builds one
//! `(probe row, build row)` pair list and materializes the output with a
//! single column-at-a-time gather; FILTER evaluates its compiled conjuncts
//! over [`EvalOptions::batch_size`]-row windows and gathers the passing
//! rows. Terms are only decoded at FILTER / projection boundaries — late
//! materialization in the Strabon style.
//!
//! Every source is scanned by one routine: each pattern position resolves
//! to a constant id or a variable slot, the source returns the match
//! columns, and those columns become the batch. Only the fetch differs.
//! Sources that store triples as dictionary ids (the spatiotemporal store)
//! expose them through [`crate::source::IdAccess`] and scan their own ids
//! straight into the columns, so join keys are integer comparisons end to
//! end. All other sources keep the decoded-triple contract, and the
//! evaluator interns the terms they return into a query-local overflow
//! dictionary.
//!
//! Three further optimizations mirror Strabon/Ontop-spatial:
//!
//! * **spatial/temporal pushdown** — a `FILTER` with a `geof:` predicate
//!   between a variable and a constant geometry (or a dateTime comparison)
//!   yields an envelope/time-range constraint that is offered to the source
//!   while scanning patterns binding that variable
//!   ([`crate::source::GraphSource::triples_matching_spatial`] /
//!   [`crate::source::IdAccess::scan_ids_spatial`]). The constraint is an
//!   over-approximation, so the filter is always re-applied;
//! * **compiled spatial filters** — `geof:sf*` conjuncts over variables are
//!   evaluated against a per-id geometry cache with an envelope precheck,
//!   so each distinct geometry is parsed once per query instead of once per
//!   candidate row;
//! * **spatial joins** — BGP components linked only by such a conjunct
//!   are paired through an R-tree over their envelopes instead of a cross
//!   product, and the FILTER verifies the candidates.
//!
//! Every operator runs on the thread that evaluates the query: a served
//! request is one unit of work, and concurrency comes from serving many
//! requests at once, not from splitting one.

use crate::algebra::{
    connected_components, Aggregate, Expression, GraphPattern, OrderKey, Projection, Query,
    QueryForm, TermPattern, TriplePattern,
};
use crate::batch::{merge_gather, Batch, ColumnBuilder};
use crate::expr::{
    compare_terms, eval_expr, eval_filter, geof_area_of, geof_convex_hull_of, Binding,
};
use crate::plan;
use crate::results::{QueryResults, Row};
use crate::source::{GraphSource, IdAccess, IdColumns};
use applab_geo::{Envelope, Geometry, RTree, SpatialRelation};
use applab_rdf::{vocab, Graph, Literal, Resource, Term, Triple};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Multiplicative hasher (FxHash-style) for the maps keyed by dictionary
/// ids on the join/aggregation hot path, where SipHash would dominate the
/// per-row cost. Not DoS-resistant — fine for query-local tables keyed by
/// dense ids.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.add(n as u64);
    }
}

type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The query's cooperative [`Budget`] deadline elapsed mid-evaluation.
    /// The payload is the configured budget, not the elapsed time.
    Timeout(Duration),
    /// The query's [`Budget`] cancellation token was triggered.
    Cancelled,
    /// Any other evaluation failure.
    Other(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Timeout(budget) => {
                write!(f, "evaluation exceeded its {budget:?} time budget")
            }
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::Other(m) => write!(f, "evaluation error: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A cooperative evaluation budget: an optional wall-clock deadline and an
/// optional external cancellation token.
///
/// The evaluator polls the budget at scan, hash-probe, and filter
/// boundaries (about every [`CHECK_INTERVAL`] rows on the hot loops). When
/// it trips, the in-flight operators unwind and [`evaluate_with`] returns
/// [`EvalError::Timeout`] / [`EvalError::Cancelled`] — partial results are
/// never surfaced. The default budget is unlimited and costs two `Option`
/// checks per poll.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// `(deadline instant, configured duration)` — the duration is kept
    /// only so the timeout error can report what the budget was.
    deadline: Option<(Instant, Duration)>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget with no deadline and no cancellation token.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget that trips once `limit` has elapsed from now.
    pub fn with_deadline(limit: Duration) -> Self {
        Budget {
            deadline: Some((Instant::now() + limit, limit)),
            cancel: None,
        }
    }

    /// Attach an external cancellation token; storing `true` in it aborts
    /// the evaluation at the next poll.
    pub fn cancelled_by(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The absolute deadline instant, if one is set. This is what
    /// [`evaluate_with`] installs as the thread's
    /// [`applab_obs::deadline`] scope, so layers below the evaluator
    /// (e.g. the DAP retry loop) can stay inside the query budget.
    pub fn deadline_instant(&self) -> Option<Instant> {
        self.deadline.map(|(at, _)| at)
    }

    /// Poll the budget. Cancellation wins over the deadline when both trip.
    #[inline]
    pub fn check(&self) -> Result<(), EvalError> {
        if let Some(token) = &self.cancel {
            if token.load(Ordering::Relaxed) {
                return Err(EvalError::Cancelled);
            }
        }
        if let Some((at, limit)) = self.deadline {
            if Instant::now() >= at {
                return Err(EvalError::Timeout(limit));
            }
        }
        Ok(())
    }
}

/// How many rows the evaluator's hot loops process between budget polls.
/// Small enough that runaway spatial joins abort within milliseconds,
/// large enough that `Instant::now` stays off the per-row path.
pub const CHECK_INTERVAL: usize = 1024;

/// Tuning knobs for [`evaluate_with`].
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// How many rows the vectorized operators process per batch window
    /// (FILTER selection vectors, EXPLAIN batch counts). Any value ≥ 1
    /// produces identical results — the knob trades selection-vector
    /// memory high-water against per-window overhead. `0` is treated
    /// as `1`.
    pub batch_size: usize,
    /// The cooperative deadline / cancellation budget for this evaluation.
    pub budget: Budget,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            batch_size: 1024,
            budget: Budget::unlimited(),
        }
    }
}

/// Evaluate a query against a source with default options.
pub fn evaluate(source: &dyn GraphSource, query: &Query) -> Result<QueryResults, EvalError> {
    evaluate_with(source, query, &EvalOptions::default())
}

/// Evaluate a query against a source with explicit [`EvalOptions`].
pub fn evaluate_with(
    source: &dyn GraphSource,
    query: &Query,
    options: &EvalOptions,
) -> Result<QueryResults, EvalError> {
    applab_obs::counter!("applab_sparql_queries_total").inc();
    let started = std::time::Instant::now();
    // Publish the query deadline to everything this evaluation calls into
    // (scans run on this thread), so e.g. DAP retry backoffs never
    // outlive the budget.
    let _deadline_scope = applab_obs::deadline::enter(options.budget.deadline_instant());
    let mut eval_span = applab_obs::span("sparql.evaluate");
    // A source without seal-time statistics is planned over empty ones.
    let no_stats = plan::Stats::default();
    let stats = source.stats().unwrap_or(&no_stats);
    // The statically chosen plan for the whole query — per-BGP spans
    // repeat it next to their actual rows. Planning the query a second
    // time just for the field is only worth it when something is
    // actually tracing.
    if eval_span.enabled() {
        eval_span.record(
            "plan_fingerprint",
            format!("{:016x}", plan::query_fingerprint(stats, &query.pattern)),
        );
    }
    let slots = Slots::new(&query.pattern);
    let width = slots.width;
    let n_real = slots.names.len();
    let mut ev = Evaluator {
        source,
        query,
        usage: OnceCell::new(),
        stats,
        interner: Interner::new(source.id_access()),
        slots,
        options,
        geometries: IdHashMap::default(),
        next_prov: n_real,
        interrupt: None,
    };
    let batch = ev.eval_pattern(&query.pattern, Batch::seed(width), &Constraints::default());

    let out = if let Some(e) = ev.interrupt.take() {
        Err(e)
    } else {
        form_results(&mut ev, query, batch)
            // A deadline that trips during projection/aggregation still
            // fails the whole query: no partial results past this point.
            .and_then(|r| options.budget.check().map(|()| r))
    };

    match &out {
        Ok(results) => eval_span.record("rows", result_cardinality(results)),
        Err(EvalError::Timeout(_)) => {
            applab_obs::counter!("applab_sparql_timeouts_total").inc();
            eval_span.record("timeout", true);
        }
        Err(EvalError::Cancelled) => {
            applab_obs::counter!("applab_sparql_cancellations_total").inc();
            eval_span.record("cancelled", true);
        }
        Err(_) => {}
    }
    drop(eval_span);
    applab_obs::histogram!("applab_sparql_query_seconds", QUERY_SECONDS_BUCKETS)
        .observe(started.elapsed().as_secs_f64());
    out
}

/// Shape the final solution batch into the query-form-specific results.
fn form_results(
    ev: &mut Evaluator<'_>,
    query: &Query,
    batch: Batch,
) -> Result<QueryResults, EvalError> {
    match &query.form {
        QueryForm::Ask => Ok(QueryResults::Boolean(!batch.is_empty())),
        QueryForm::Construct { template } => {
            // Variables the template mentions, with their slots. Template
            // variables absent from the pattern stay unbound and become
            // fresh blank nodes in `instantiate`.
            let mut tvars: Vec<(String, usize)> = Vec::new();
            for t in template {
                for v in t.variables() {
                    if let Some(s) = ev.slots.get(v) {
                        if !tvars.iter().any(|(n, _)| n == v) {
                            tvars.push((v.to_string(), s));
                        }
                    }
                }
            }
            let mut g = Graph::new();
            for i in 0..batch.len() {
                let b = ev.decode_binding_at(&batch, i, &tvars);
                for (j, t) in template.iter().enumerate() {
                    if let Some(triple) = instantiate(t, &b, i, j) {
                        g.insert(triple);
                    }
                }
            }
            Ok(QueryResults::Graph(g))
        }
        QueryForm::Select {
            distinct,
            projection,
            group_by,
        } => {
            let has_aggregates = projection
                .iter()
                .any(|p| matches!(p, Projection::Aggregate(..)));
            let mut variables: Vec<String>;
            let mut rows: Vec<Row>;

            let grouped = has_aggregates || !group_by.is_empty();
            let mut proj_span = applab_obs::span(if grouped { "aggregate" } else { "project" });
            proj_span.record("input_rows", batch.len());
            let batch_size = ev.options.batch_size.max(1);
            proj_span.record("batches", batch.len().div_ceil(batch_size).max(1) as u64);
            applab_obs::querystats::batches(batch.len().div_ceil(batch_size).max(1) as u64);
            applab_obs::querystats::peak_batch_bytes(batch.approx_bytes());

            // Per-projection decode plan, computed once. Unary `geof:`
            // calls on a plain variable get a vectorized path: the result
            // term is computed once per distinct geometry id (via the
            // per-id geometry cache) instead of decoding and re-parsing the
            // WKT for every row.
            enum Plan<'p> {
                Slot(Option<usize>),
                GeofUnary(GeofUnaryOp, Option<usize>),
                Expr(&'p Expression, Vec<(String, usize)>),
            }
            // Whether DISTINCT still has to key the rows by their terms.
            let mut distinct_terms = *distinct;
            if grouped {
                (variables, rows) = ev.aggregate_batch(&batch, projection, group_by)?;
            } else {
                let plans: Vec<Plan> = if projection.is_empty() {
                    // SELECT *: every variable in the pattern, in pattern
                    // order.
                    variables = query.pattern.variables();
                    variables
                        .iter()
                        .map(|v| Plan::Slot(ev.slots.get(v)))
                        .collect()
                } else {
                    variables = projection.iter().map(|p| p.name().to_string()).collect();
                    projection
                        .iter()
                        .map(|p| match p {
                            Projection::Var(v) => Plan::Slot(ev.slots.get(v)),
                            Projection::Expr(e, _) => match classify_geof_unary(e, &ev.slots) {
                                Some((op, slot)) => Plan::GeofUnary(op, slot),
                                None => Plan::Expr(e, ev.expr_slots(e)),
                            },
                            Projection::Aggregate(..) => unreachable!(),
                        })
                        .collect()
                };
                // DISTINCT over plain variables keys rows by their id
                // tuples before anything is decoded: id equality is term
                // equality (see `Interner`).
                let by_ids = *distinct && plans.iter().all(|p| matches!(p, Plan::Slot(_)));
                distinct_terms &= !by_ids;
                let mut seen_ids: HashSet<Vec<Option<u64>>> = HashSet::new();
                let mut memos: Vec<IdHashMap<u64, Option<Term>>> =
                    plans.iter().map(|_| IdHashMap::default()).collect();
                rows = Vec::with_capacity(batch.len());
                for i in 0..batch.len() {
                    if by_ids {
                        let key = plans.iter().map(|p| match p {
                            Plan::Slot(s) => s.and_then(|s| batch.get(i, s)),
                            _ => unreachable!("only slots are keyed by id"),
                        });
                        if !seen_ids.insert(key.collect()) {
                            continue;
                        }
                    }
                    let mut values = Vec::with_capacity(plans.len());
                    for (plan, memo) in plans.iter().zip(&mut memos) {
                        let v = match plan {
                            Plan::Slot(s) => s
                                .and_then(|s| batch.get(i, s))
                                .map(|id| ev.interner.decode(id).clone()),
                            Plan::GeofUnary(op, slot) => {
                                match slot.and_then(|s| batch.get(i, s)) {
                                    // Unbound argument: the generic path's
                                    // eval error, i.e. an unbound value.
                                    None => None,
                                    // Hulls are costly enough to memoize per
                                    // distinct id; the area and envelope
                                    // kernels run off the cached geometry and
                                    // are cheaper than the memo bookkeeping.
                                    Some(id) if *op == GeofUnaryOp::ConvexHull => memo
                                        .entry(id)
                                        .or_insert_with(|| ev.geof_unary(*op, id))
                                        .clone(),
                                    Some(id) => ev.geof_unary(*op, id),
                                }
                            }
                            Plan::Expr(e, vars) => {
                                eval_expr(e, &ev.decode_binding_at(&batch, i, vars)).ok()
                            }
                        };
                        values.push(v);
                    }
                    rows.push(Row { values });
                }
            }
            proj_span.record("rows", rows.len());
            proj_span.record_rate("rows_per_sec", rows.len() as u64);
            drop(proj_span);

            // ORDER BY over the projected rows (pre-slice).
            if !query.order_by.is_empty() {
                sort_rows(&mut rows, &variables, &query.order_by);
            }

            if distinct_terms {
                let mut seen = HashSet::new();
                rows.retain(|r| {
                    let key: Vec<Option<String>> = r
                        .values
                        .iter()
                        .map(|v| v.as_ref().map(|t| t.to_string()))
                        .collect();
                    seen.insert(key)
                });
            }

            // OFFSET / LIMIT.
            let start = query.offset.min(rows.len());
            rows.drain(..start);
            if let Some(limit) = query.limit {
                rows.truncate(limit);
            }

            // Deduplicate variable list defensively.
            let mut seen = HashSet::new();
            variables.retain(|v| seen.insert(v.clone()));

            Ok(QueryResults::Solutions { variables, rows })
        }
    }
}

/// Latency buckets for `applab_sparql_query_seconds`: 100µs up to 5s.
const QUERY_SECONDS_BUCKETS: &[f64] =
    &[0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

fn result_cardinality(results: &QueryResults) -> u64 {
    match results {
        QueryResults::Boolean(_) => 1,
        QueryResults::Graph(g) => g.len() as u64,
        QueryResults::Solutions { rows, .. } => rows.len() as u64,
    }
}

/// A unary `geof:` projection eligible for the vectorized per-id path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GeofUnaryOp {
    Area,
    Envelope,
    ConvexHull,
}

/// The WKT of an envelope's rectangle — byte-identical to serializing
/// `Polygon::rect(min_x, min_y, max_x, max_y)` through `write_wkt`, but
/// formatting each of the four distinct coordinates once instead of ten
/// times (float formatting dominates `geof:envelope` projections).
fn rect_wkt(e: &Envelope) -> String {
    use std::fmt::Write;
    // All four coordinates formatted once into one scratch buffer, then
    // assembled by slice: two allocations per call total.
    let mut scratch = String::with_capacity(96);
    let _ = write!(scratch, "{}", e.min_x);
    let ex0 = scratch.len();
    let _ = write!(scratch, "{}", e.min_y);
    let ey0 = scratch.len();
    let _ = write!(scratch, "{}", e.max_x);
    let ex1 = scratch.len();
    let _ = write!(scratch, "{}", e.max_y);
    let (x0, y0) = (&scratch[..ex0], &scratch[ex0..ey0]);
    let (x1, y1) = (&scratch[ey0..ex1], &scratch[ex1..]);
    let mut out = String::with_capacity(22 + 2 * scratch.len() + ex0 + (ey0 - ex0));
    out.push_str("POLYGON ((");
    for (i, (x, y)) in [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        .into_iter()
        .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(x);
        out.push(' ');
        out.push_str(y);
    }
    out.push_str("))");
    out
}

/// Recognize `geof:area(?v)` / `geof:envelope(?v)` / `geof:convexHull(?v)`
/// with exactly one plain-variable argument. Anything else (extra
/// arguments, nested expressions) must go through the generic interpreter
/// so its own evaluation errors propagate per row.
fn classify_geof_unary(e: &Expression, slots: &Slots) -> Option<(GeofUnaryOp, Option<usize>)> {
    let Expression::Call(f, args) = e else {
        return None;
    };
    let local = f.as_str().strip_prefix(vocab::geof::NS)?;
    let op = match local {
        "area" => GeofUnaryOp::Area,
        "envelope" => GeofUnaryOp::Envelope,
        "convexHull" => GeofUnaryOp::ConvexHull,
        _ => return None,
    };
    let [Expression::Var(v)] = args.as_slice() else {
        return None;
    };
    Some((op, slots.get(v)))
}

/// The per-query variable table. Real (named) slots come first, in
/// [`GraphPattern::variables`] order; the remaining slots are anonymous
/// provenance slots, one per `LeftJoin` node in the pattern.
struct Slots {
    names: Vec<String>,
    index: HashMap<String, usize>,
    width: usize,
}

impl Slots {
    fn new(pattern: &GraphPattern) -> Slots {
        let names = pattern.variables();
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let width = names.len() + count_left_joins(pattern);
        Slots {
            names,
            index,
            width,
        }
    }

    fn get(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }
}

/// Where a query reads its variables: what
/// [`GraphSource::evaluate_bgp`]'s `observed` is answered from. Built on
/// the first question, so a query no source asks never pays for it.
struct Usage<'q> {
    /// `SELECT *`: every variable is observed.
    all: bool,
    /// Variables read outside triple patterns: the projection, a
    /// CONSTRUCT template, FILTER, BIND, VALUES, GROUP BY, ORDER BY and
    /// aggregates.
    read: HashSet<&'q str>,
    /// Triple-pattern positions each variable takes in the whole query.
    positions: HashMap<&'q str, usize>,
}

impl<'q> Usage<'q> {
    fn new(query: &'q Query) -> Self {
        let mut usage = Usage {
            all: false,
            read: HashSet::new(),
            positions: HashMap::new(),
        };
        match &query.form {
            QueryForm::Select {
                projection,
                group_by,
                ..
            } => {
                usage.all = projection.is_empty();
                for p in projection {
                    usage.read.insert(p.name());
                    match p {
                        Projection::Var(_) | Projection::Aggregate(_, None, _) => {}
                        Projection::Expr(e, _) | Projection::Aggregate(_, Some(e), _) => {
                            usage.read.extend(e.variables());
                        }
                    }
                }
                usage.read.extend(group_by.iter().map(String::as_str));
            }
            QueryForm::Ask => {}
            QueryForm::Construct { template } => {
                usage
                    .read
                    .extend(template.iter().flat_map(TriplePattern::variables));
            }
        }
        for key in &query.order_by {
            usage.read.extend(key.expr.variables());
        }
        usage.walk(&query.pattern);
        usage
    }

    fn walk(&mut self, pattern: &'q GraphPattern) {
        match pattern {
            GraphPattern::Bgp(patterns) => {
                for v in patterns.iter().flat_map(TriplePattern::variables) {
                    *self.positions.entry(v).or_insert(0) += 1;
                }
            }
            GraphPattern::Filter(e, inner) => {
                self.read.extend(e.variables());
                self.walk(inner);
            }
            GraphPattern::Extend(inner, var, e) => {
                self.read.insert(var);
                self.read.extend(e.variables());
                self.walk(inner);
            }
            GraphPattern::Values(vars, _) => self.read.extend(vars.iter().map(String::as_str)),
            GraphPattern::Join(a, b) | GraphPattern::LeftJoin(a, b) | GraphPattern::Union(a, b) => {
                self.walk(a);
                self.walk(b);
            }
        }
    }

    /// Whether `v` is read anywhere but in `component`'s own positions.
    fn observes(&self, v: &str, component: &[TriplePattern]) -> bool {
        let own = component
            .iter()
            .flat_map(TriplePattern::variables)
            .filter(|&x| x == v)
            .count();
        self.all || self.read.contains(v) || self.positions.get(v).copied().unwrap_or(0) > own
    }
}

fn count_left_joins(pattern: &GraphPattern) -> usize {
    match pattern {
        GraphPattern::Bgp(_) | GraphPattern::Values(..) => 0,
        GraphPattern::Filter(_, inner) => count_left_joins(inner),
        GraphPattern::Extend(inner, _, _) => count_left_joins(inner),
        GraphPattern::Join(l, r) | GraphPattern::Union(l, r) => {
            count_left_joins(l) + count_left_joins(r)
        }
        GraphPattern::LeftJoin(l, r) => 1 + count_left_joins(l) + count_left_joins(r),
    }
}

/// Term ↔ id mapping for one query. When the source exposes
/// [`IdAccess`], its native ids (`0..base`) are used directly and only
/// terms the source has never seen get query-local overflow ids
/// (`base..`). Id equality is term equality in either range.
struct Interner<'a> {
    native: Option<&'a dyn IdAccess>,
    base: u64,
    local_ids: HashMap<Term, u64>,
    local_terms: Vec<Term>,
}

impl<'a> Interner<'a> {
    fn new(native: Option<&'a dyn IdAccess>) -> Self {
        let base = native.map_or(0, |n| n.id_count());
        Interner {
            native,
            base,
            local_ids: HashMap::new(),
            local_terms: Vec::new(),
        }
    }

    fn intern(&mut self, term: &Term) -> u64 {
        if let Some(native) = self.native {
            if let Some(id) = native.term_to_id(term) {
                return id;
            }
        }
        if let Some(&id) = self.local_ids.get(term) {
            return id;
        }
        let id = self.base + self.local_terms.len() as u64;
        self.local_ids.insert(term.clone(), id);
        self.local_terms.push(term.clone());
        id
    }

    fn decode(&self, id: u64) -> &Term {
        if id < self.base {
            self.native
                .expect("ids below base only exist with a native dictionary")
                .id_to_term(id)
                .expect("native id decodes")
        } else {
            &self.local_terms[(id - self.base) as usize]
        }
    }
}

/// Per-variable index-pushdown constraints extracted from filters.
#[derive(Debug, Clone, Default)]
struct Constraints {
    spatial: HashMap<String, Envelope>,
    temporal: HashMap<String, (i64, i64)>,
    /// Variable pairs linked by a non-disjoint `geof:sf*(?a, ?b)`
    /// conjunct of an enclosing FILTER: once one side is bound, the union
    /// envelope of its geometries becomes a spatial constraint for the
    /// other side (sideways information passing — on the OBDA path this
    /// prunes OPeNDAP grid-cell fetches before any DAP round trip).
    /// Consumed between the components of a BGP and between the steps of
    /// a planned BGP. Two parts of a BGP fold linked only through one
    /// meet in [`Evaluator::spatial_join`].
    spatial_links: Vec<(String, String)>,
}

/// A pre-classified FILTER conjunct. Spatial `geof:sf*` conjuncts get a
/// fast path through the per-id geometry cache; everything else decodes the
/// variables it mentions and reuses the generic expression interpreter.
enum Conjunct<'e> {
    /// `geof:sfX(?a, ?b)` — both arguments variables (slots, if known).
    SpatialVV(SpatialRelation, Option<usize>, Option<usize>),
    /// `geof:sfX(?a, CONST)`.
    SpatialVC(SpatialRelation, Option<usize>, Geometry, Envelope),
    /// `geof:sfX(CONST, ?b)` — argument order matters for e.g. sfWithin.
    SpatialCV(SpatialRelation, Geometry, Envelope, Option<usize>),
    /// A spatial call with a constant non-geometry argument: the call
    /// always errors, so the conjunct is false for every row.
    AlwaysFalse,
    Generic(&'e Expression, Vec<(String, usize)>),
}

/// Envelope precheck + exact test. Disjoint envelopes decide every
/// relation: `false` for the intersecting family, `true` for sfDisjoint.
fn spatial_check(
    rel: SpatialRelation,
    a: &Geometry,
    a_env: &Envelope,
    b: &Geometry,
    b_env: &Envelope,
) -> bool {
    let boxes_meet = a_env.intersects(b_env);
    if rel == SpatialRelation::Disjoint {
        if !boxes_meet {
            return true;
        }
    } else if !boxes_meet {
        return false;
    }
    rel.evaluate(a, b)
}

/// One entry of the per-id geometry cache. Native entries borrow the
/// source's pre-parsed geometry table ([`IdAccess::geometry`]) — zero
/// parsing and zero copies; local entries own the parse result of a
/// query-local term (`None` caches a parse failure or non-geometry term).
enum GeomEntry<'a> {
    Native(&'a (Geometry, Envelope)),
    Local(Option<Box<(Geometry, Envelope)>>),
}

impl<'a> GeomEntry<'a> {
    #[inline]
    fn get(&self) -> Option<&(Geometry, Envelope)> {
        match self {
            GeomEntry::Native(g) => Some(g),
            GeomEntry::Local(o) => o.as_deref(),
        }
    }
}

struct Evaluator<'a> {
    source: &'a dyn GraphSource,
    query: &'a Query,
    /// Built on the first `observed` question a source asks.
    usage: OnceCell<Usage<'a>>,
    /// The source's seal-time statistics, or empty ones.
    stats: &'a plan::Stats,
    interner: Interner<'a>,
    slots: Slots,
    options: &'a EvalOptions,
    /// Per-id parsed geometry (with envelope).
    geometries: IdHashMap<u64, GeomEntry<'a>>,
    /// Next free provenance slot (see [`Slots`]).
    next_prov: usize,
    /// Set when the budget trips mid-evaluation. Operators then unwind
    /// with empty outputs and [`evaluate_with`] turns this into the error,
    /// so truncated row sets never escape as results.
    interrupt: Option<EvalError>,
}

impl<'a> Evaluator<'a> {
    /// Poll the budget, latching the first error. Returns `true` when the
    /// evaluation should unwind.
    #[inline]
    fn interrupted(&mut self) -> bool {
        if self.interrupt.is_some() {
            return true;
        }
        if let Err(e) = self.options.budget.check() {
            self.interrupt = Some(e);
            return true;
        }
        false
    }

    fn eval_pattern(
        &mut self,
        pattern: &GraphPattern,
        input: Batch,
        constraints: &Constraints,
    ) -> Batch {
        let width = self.slots.width;
        if self.interrupted() {
            return Batch::new(width);
        }
        match pattern {
            GraphPattern::Bgp(patterns) => self.eval_bgp(patterns, input, constraints),
            GraphPattern::Filter(expr, inner) => {
                // Derive envelope and time-range constraints from the filter
                // and push them into the inner pattern.
                let mut merged = constraints.clone();
                for (var, env) in spatial_constraints(expr) {
                    merged
                        .spatial
                        .entry(var)
                        .and_modify(|e| *e = e.intersection(&env))
                        .or_insert(env);
                }
                for (var, (s, e)) in temporal_constraints(expr) {
                    merged
                        .temporal
                        .entry(var)
                        .and_modify(|r| *r = (r.0.max(s), r.1.min(e)))
                        .or_insert((s, e));
                }
                for link in spatial_join_links(expr) {
                    if !merged.spatial_links.contains(&link) {
                        merged.spatial_links.push(link);
                    }
                }
                let inner_batch = self.eval_pattern(inner, input, &merged);
                let total = inner_batch.len();
                let mut fspan = applab_obs::span("filter");
                fspan.record("input_rows", total);
                let compiled = self.compile_conjuncts(expr);
                fspan.record("conjuncts", compiled.len());
                // The conjuncts are evaluated over `batch_size`-row windows:
                // each window builds a selection vector of passing rows and
                // gathers it into the output, so the selection memory
                // high-water is one window regardless of input size.
                let batch_size = self.options.batch_size.max(1);
                fspan.record("batches", total.div_ceil(batch_size).max(1) as u64);
                let mut out = Batch::new(width);
                let mut sel: Vec<u32> = Vec::new();
                let mut all_passed_single_window = false;
                let mut start = 0usize;
                while start < total {
                    let end = start.saturating_add(batch_size).min(total);
                    sel.clear();
                    for i in start..end {
                        if i % CHECK_INTERVAL == 0 && self.interrupted() {
                            return Batch::new(width);
                        }
                        if compiled
                            .iter()
                            .all(|c| self.eval_conjunct(c, &inner_batch, i))
                        {
                            sel.push(i as u32);
                        }
                    }
                    if end == total && start == 0 && sel.len() == total {
                        // Everything passed in a single window: the input
                        // batch is the output, no copy.
                        all_passed_single_window = true;
                        break;
                    }
                    out.append_gather(&inner_batch, &sel);
                    start = end;
                }
                let out = if all_passed_single_window {
                    inner_batch
                } else {
                    out
                };
                fspan.record("rows", out.len());
                fspan.record_rate("rows_per_sec", total as u64);
                applab_obs::querystats::filter(total as u64, out.len() as u64);
                applab_obs::querystats::batches(total.div_ceil(batch_size).max(1) as u64);
                applab_obs::querystats::peak_batch_bytes(out.approx_bytes());
                out
            }
            GraphPattern::Join(left, right) => {
                let lhs = self.eval_pattern(left, input, constraints);
                self.eval_pattern(right, lhs, constraints)
            }
            GraphPattern::LeftJoin(left, right) => {
                // The right side is evaluated ONCE for all left rows; an
                // anonymous provenance slot records which left row each
                // extension came from, so unmatched left rows can be kept.
                let lhs = self.eval_pattern(left, input, constraints);
                if lhs.is_empty() {
                    return lhs;
                }
                let prov = self.next_prov;
                self.next_prov += 1;
                let mut tagged = lhs;
                tagged.fill_iota(prov);
                let rhs = self.eval_pattern(right, tagged.clone(), constraints);
                let mut matched = vec![false; tagged.len()];
                for i in 0..rhs.len() {
                    if let Some(j) = rhs.get(i, prov) {
                        matched[j as usize] = true;
                    }
                }
                let mut out = rhs;
                out.clear_column(prov);
                tagged.clear_column(prov);
                let unmatched: Vec<u32> = (0..tagged.len())
                    .filter(|&i| !matched[i])
                    .map(|i| i as u32)
                    .collect();
                out.append_gather(&tagged, &unmatched);
                out
            }
            GraphPattern::Union(left, right) => {
                let mut out = self.eval_pattern(left, input.clone(), constraints);
                let rhs = self.eval_pattern(right, input, constraints);
                out.append(&rhs);
                out
            }
            GraphPattern::Extend(inner, var, expr) => {
                let inner_batch = self.eval_pattern(inner, input, constraints);
                // BIND targets a fresh variable; with no slot the value
                // would be discarded, so skip evaluating the (pure)
                // expression entirely.
                let Some(slot) = self.slots.get(var) else {
                    return inner_batch;
                };
                let evars = self.expr_slots(expr);
                let mut col = ColumnBuilder::new();
                for i in 0..inner_batch.len() {
                    if i % CHECK_INTERVAL == 0 && self.interrupted() {
                        return Batch::new(width);
                    }
                    let b = self.decode_binding_at(&inner_batch, i, &evars);
                    match eval_expr(expr, &b) {
                        Ok(v) => col.push(Some(self.interner.intern(&v))),
                        // Evaluation error: the variable keeps whatever
                        // binding it already had (usually none).
                        Err(_) => col.push(inner_batch.get(i, slot)),
                    }
                }
                let mut out = inner_batch;
                out.set_col(slot, col.finish());
                out
            }
            GraphPattern::Values(vars, rows) => {
                let var_slots: Vec<Option<usize>> =
                    vars.iter().map(|v| self.slots.get(v)).collect();
                let mut const_rows: Vec<Vec<Option<u64>>> = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut ids = Vec::with_capacity(row.len());
                    for t in row {
                        ids.push(t.as_ref().map(|t| self.interner.intern(t)));
                    }
                    const_rows.push(ids);
                }
                let mut out = Batch::new(width);
                let mut buf: Vec<Option<u64>> = vec![None; width];
                for i in 0..input.len() {
                    for vrow in &const_rows {
                        for (s, v) in buf.iter_mut().enumerate() {
                            *v = input.get(i, s);
                        }
                        let mut compatible = true;
                        for (slot, val) in var_slots.iter().zip(vrow) {
                            if let (Some(s), Some(val)) = (slot, val) {
                                match buf[*s] {
                                    Some(existing) if existing != *val => {
                                        compatible = false;
                                        break;
                                    }
                                    _ => buf[*s] = Some(*val),
                                }
                            }
                        }
                        if compatible {
                            out.push_row(&buf);
                        }
                    }
                }
                out
            }
        }
    }

    // --- FILTER compilation ------------------------------------------------

    fn compile_conjuncts<'e>(&self, expr: &'e Expression) -> Vec<Conjunct<'e>> {
        expr.conjuncts()
            .into_iter()
            .map(|c| self.compile_conjunct(c))
            .collect()
    }

    fn compile_conjunct<'e>(&self, conjunct: &'e Expression) -> Conjunct<'e> {
        enum Arg {
            Slot(Option<usize>),
            Geom(Geometry, Envelope),
            Bad,
            Other,
        }
        if let Expression::Call(f, args) = conjunct {
            if let Some(local) = f.as_str().strip_prefix(vocab::geof::NS) {
                if let Some(rel) = SpatialRelation::from_geof_name(local) {
                    if args.len() == 2 {
                        let classify = |e: &Expression| -> Arg {
                            match e {
                                Expression::Var(v) => Arg::Slot(self.slots.get(v)),
                                Expression::Constant(t) => {
                                    match t.as_literal().and_then(Literal::as_geometry) {
                                        Some(g) => {
                                            let env = g.envelope();
                                            Arg::Geom(g, env)
                                        }
                                        None => Arg::Bad,
                                    }
                                }
                                _ => Arg::Other,
                            }
                        };
                        match (classify(&args[0]), classify(&args[1])) {
                            (Arg::Slot(a), Arg::Slot(b)) => return Conjunct::SpatialVV(rel, a, b),
                            (Arg::Slot(a), Arg::Geom(g, env)) => {
                                return Conjunct::SpatialVC(rel, a, g, env)
                            }
                            (Arg::Geom(g, env), Arg::Slot(b)) => {
                                return Conjunct::SpatialCV(rel, g, env, b)
                            }
                            (Arg::Bad, _) | (_, Arg::Bad) => return Conjunct::AlwaysFalse,
                            _ => {}
                        }
                    }
                }
            }
        }
        Conjunct::Generic(conjunct, self.expr_slots(conjunct))
    }

    /// Evaluate one compiled conjunct against row `i` of a batch.
    fn eval_conjunct(&mut self, conjunct: &Conjunct<'_>, batch: &Batch, i: usize) -> bool {
        match conjunct {
            Conjunct::AlwaysFalse => false,
            Conjunct::Generic(e, vars) => {
                let b = self.decode_binding_at(batch, i, vars);
                eval_filter(e, &b)
            }
            Conjunct::SpatialVC(rel, slot, g, env) => {
                let Some(id) = slot.and_then(|s| batch.get(i, s)) else {
                    return false;
                };
                self.ensure_geometry(id);
                match self.geometries.get(&id).and_then(GeomEntry::get) {
                    Some((ga, ea)) => spatial_check(*rel, ga, ea, g, env),
                    None => false,
                }
            }
            Conjunct::SpatialCV(rel, g, env, slot) => {
                let Some(id) = slot.and_then(|s| batch.get(i, s)) else {
                    return false;
                };
                self.ensure_geometry(id);
                match self.geometries.get(&id).and_then(GeomEntry::get) {
                    Some((gb, eb)) => spatial_check(*rel, g, env, gb, eb),
                    None => false,
                }
            }
            Conjunct::SpatialVV(rel, sa, sb) => {
                let (Some(ia), Some(ib)) = (
                    sa.and_then(|s| batch.get(i, s)),
                    sb.and_then(|s| batch.get(i, s)),
                ) else {
                    return false;
                };
                self.ensure_geometry(ia);
                self.ensure_geometry(ib);
                let Some((ga, ea)) = self.geometries.get(&ia).and_then(GeomEntry::get) else {
                    return false;
                };
                let Some((gb, eb)) = self.geometries.get(&ib).and_then(GeomEntry::get) else {
                    return false;
                };
                spatial_check(*rel, ga, ea, gb, eb)
            }
        }
    }

    fn ensure_geometry(&mut self, id: u64) {
        if self.geometries.contains_key(&id) {
            return;
        }
        // Native ids first consult the source's pre-parsed geometry table;
        // a hit costs no WKT parse and no geometry copy.
        if id < self.interner.base {
            if let Some(native) = self.interner.native {
                if let Some(g) = native.geometry(id) {
                    self.geometries.insert(id, GeomEntry::Native(g));
                    return;
                }
            }
        }
        let parsed = self
            .interner
            .decode(id)
            .as_literal()
            .and_then(Literal::as_geometry)
            .map(|g| {
                let env = g.envelope();
                Box::new((g, env))
            });
        self.geometries.insert(id, GeomEntry::Local(parsed));
    }

    /// Compute one vectorized unary `geof:` projection for a single id
    /// (memoized by the caller per distinct id). `None` mirrors the generic
    /// path's behavior for non-geometry terms: an evaluation error, i.e.
    /// an unbound projected value.
    fn geof_unary(&mut self, op: GeofUnaryOp, id: u64) -> Option<Term> {
        // Native ids read the source's geometry table directly — one lookup,
        // no evaluator-cache traffic (projections visit each id once, so
        // caching here would only add bookkeeping).
        let native = (id < self.interner.base)
            .then(|| self.interner.native.and_then(|n| n.geometry(id)))
            .flatten();
        let (g, env) = match native {
            Some(entry) => entry,
            None => {
                self.ensure_geometry(id);
                self.geometries.get(&id).and_then(GeomEntry::get)?
            }
        };
        Some(match op {
            GeofUnaryOp::Area => geof_area_of(g),
            // The envelope is cached next to the geometry, so the rectangle
            // WKT can be assembled directly from its four coordinates.
            GeofUnaryOp::Envelope => Literal::wkt(rect_wkt(env)).into(),
            GeofUnaryOp::ConvexHull => geof_convex_hull_of(g),
        })
    }

    // --- BGP evaluation ----------------------------------------------------

    /// Evaluate a BGP one variable-connected component at a time (Listing
    /// 1: the park and the observations, linked only by a FILTER). Each
    /// component goes to the source's whole-BGP hook, and is scanned
    /// pattern by pattern if the source declines it. The parts are folded
    /// together in one loop: the next part is the first component linked
    /// to what is already joined (a shared bound slot, or a spatial link),
    /// else the next one in written order. An empty fold stops the walk:
    /// later components are never evaluated.
    ///
    /// The input is threaded through at most one component, the first
    /// that mentions a variable it binds, so single-row substitution still
    /// narrows that component's scans and duplicate input rows are never
    /// multiplied by a second join. Every other component starts from the
    /// seed row. An input that binds no variable of the BGP joins last.
    fn eval_bgp(
        &mut self,
        patterns: &[TriplePattern],
        input: Batch,
        constraints: &Constraints,
    ) -> Batch {
        let width = self.slots.width;
        if patterns.is_empty() || input.is_empty() {
            return input;
        }
        let mut bgp_span = applab_obs::span("bgp");
        bgp_span.record("patterns", patterns.len());
        bgp_span.record("input_rows", input.len());
        let components = connected_components(patterns);
        if components.len() > 1 {
            bgp_span.record("components", components.len());
        }
        let comp_slots: Vec<Vec<usize>> = components
            .iter()
            .map(|c| {
                c.iter()
                    .flat_map(|&i| patterns[i].variables())
                    .filter_map(|v| self.slots.get(v))
                    .collect()
            })
            .collect();
        let links: Vec<(usize, usize)> = constraints
            .spatial_links
            .iter()
            .filter_map(|(a, b)| Some((self.slots.get(a)?, self.slots.get(b)?)))
            .collect();
        let input_bound = input.bound_slots();
        let threaded = comp_slots
            .iter()
            .position(|slots| slots.iter().any(|&s| input_bound[s]));
        let mut input = Some(input);
        let mut pending: Vec<usize> = (0..components.len()).collect();
        let mut acc: Option<Batch> = None;
        let mut source_rows: Option<usize> = None;
        while !pending.is_empty() {
            if self.interrupted() {
                return Batch::new(width);
            }
            let pick = match &acc {
                None => threaded
                    .and_then(|t| pending.iter().position(|&c| c == t))
                    .unwrap_or(0),
                Some(joined) => {
                    let bound = joined.bound_slots();
                    let linked = |slots: &[usize]| {
                        slots.iter().any(|&s| bound[s])
                            || links.iter().any(|&(a, b)| {
                                (bound[a] && slots.contains(&b)) || (bound[b] && slots.contains(&a))
                            })
                    };
                    pending
                        .iter()
                        .position(|&c| linked(&comp_slots[c]))
                        .unwrap_or(0)
                }
            };
            let c = pending.remove(pick);
            let start = if Some(c) == threaded {
                input.take().expect("the input is threaded once")
            } else {
                Batch::seed(width)
            };
            let component: Cow<[TriplePattern]> = if components.len() == 1 {
                Cow::Borrowed(patterns)
            } else {
                Cow::Owned(components[c].iter().map(|&i| patterns[i].clone()).collect())
            };
            // Sideways envelope passing: the union envelope of what is
            // already joined (or of the threaded input) across a `geof:sf*`
            // link constrains this component's source query.
            let sideways =
                self.sideways_spatial(constraints, acc.as_ref().unwrap_or(&start), &component);
            let spatial = sideways.as_ref().unwrap_or(&constraints.spatial);
            let observed = |v: &str| {
                self.usage
                    .get_or_init(|| Usage::new(self.query))
                    .observes(v, &component)
                    || self.slots.get(v).is_some_and(|s| start.col(s).any_valid())
            };
            let part = match self.source.evaluate_bgp(&component, spatial, &observed) {
                Some(answers) => {
                    *source_rows.get_or_insert(0) += answers.len();
                    applab_obs::querystats::scan(answers.len() as u64);
                    let answers = self.bindings_batch(&answers);
                    self.join(start, answers)
                }
                None => self.eval_bgp_planned(&component, start, constraints, &mut bgp_span),
            };
            let joined = match acc.take() {
                None => part,
                Some(prev) => self.fold_join(prev, part, &links),
            };
            let empty = joined.is_empty();
            acc = Some(joined);
            if empty {
                break;
            }
        }
        if let Some(rows) = source_rows {
            bgp_span.record("source_bgp", true);
            bgp_span.record("source_rows", rows);
        }
        let out = acc.expect("a BGP has at least one component");
        match input {
            Some(input) if !out.is_empty() => self.fold_join(input, out, &links),
            _ => out,
        }
    }

    /// Join two parts of a BGP fold. Parts that share no bound slot but
    /// are linked by a spatial link whose ends each part binds in every row
    /// go through [`Self::spatial_join`]; everything else through the hash
    /// join.
    fn fold_join(&mut self, probe: Batch, build: Batch, links: &[(usize, usize)]) -> Batch {
        if !probe.is_empty() && !build.is_empty() {
            let (bp, bb) = (probe.bound_slots(), build.bound_slots());
            if !bp.iter().zip(&bb).any(|(p, b)| *p && *b) {
                for &(a, b) in links {
                    for (ps, bs) in [(a, b), (b, a)] {
                        if probe.binds_every_row(ps) && build.binds_every_row(bs) {
                            return self.spatial_join(probe, build, ps, bs);
                        }
                    }
                }
            }
        }
        self.join(probe, build)
    }

    /// The join of two parts linked only by a non-disjoint `geof:sf*`
    /// conjunct (`probe_slot` against `build_slot`): an R-tree over the
    /// smaller side's envelopes, probed with the other side's, yields the
    /// candidate pairs, emitted in nested-loop order (probe-major, build
    /// rows ascending). Sound because the enclosing FILTER still runs the
    /// exact predicate on every candidate, and [`spatial_check`] rejects
    /// every pair with disjoint envelopes for every non-disjoint relation.
    /// A row whose geometry slot holds no geometry has no envelope and
    /// joins nothing, as the FILTER would drop it too.
    fn spatial_join(
        &mut self,
        probe: Batch,
        build: Batch,
        probe_slot: usize,
        build_slot: usize,
    ) -> Batch {
        let width = self.slots.width;
        applab_obs::counter!("applab_sparql_joins_total").inc();
        applab_obs::querystats::join(build.len() as u64, probe.len() as u64);
        let mut join_span = applab_obs::span("join");
        join_span.record("kind", "spatial");
        join_span.record("probe", probe.len());
        join_span.record("build", build.len());
        let probe_envs = self.slot_envelopes(&probe, probe_slot);
        let build_envs = self.slot_envelopes(&build, build_slot);
        // Index the smaller side: a one-row side is a one-leaf tree.
        let build_indexed = build_envs.len() <= probe_envs.len();
        let (indexed, scanned) = if build_indexed {
            (&build_envs, &probe_envs)
        } else {
            (&probe_envs, &build_envs)
        };
        let tree = RTree::bulk_load(
            indexed
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.is_empty())
                .map(|(i, e)| (*e, i as u32))
                .collect(),
        );
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (n, env) in scanned.iter().enumerate() {
            if n % CHECK_INTERVAL == 0 && self.interrupted() {
                return Batch::new(width);
            }
            let n = n as u32;
            tree.visit(env, &mut |&i| {
                pairs.push(if build_indexed { (n, i) } else { (i, n) })
            });
        }
        pairs.sort_unstable();
        join_span.record("candidates", pairs.len());
        let out = merge_gather(&probe, &build, &pairs);
        join_span.record("out", out.len());
        join_span.record_rate("rows_per_sec", out.len() as u64);
        out
    }

    /// The envelope of the geometry each row binds at `slot` (the caller
    /// guarantees every row binds it), from the per-id geometry cache;
    /// [`Envelope::EMPTY`] for a term that is no geometry.
    fn slot_envelopes(&mut self, batch: &Batch, slot: usize) -> Vec<Envelope> {
        (0..batch.len())
            .map(|i| {
                let id = batch.get(i, slot).expect("the slot is bound in every row");
                self.ensure_geometry(id);
                self.geometries
                    .get(&id)
                    .and_then(GeomEntry::get)
                    .map_or(Envelope::EMPTY, |(_, e)| *e)
            })
            .collect()
    }

    /// Intern a source's whole-BGP answers into a batch.
    fn bindings_batch(&mut self, answers: &[Binding]) -> Batch {
        let width = self.slots.width;
        let mut batch = Batch::new(width);
        let mut rowbuf: Vec<Option<u64>> = vec![None; width];
        for b in answers {
            rowbuf.fill(None);
            for (k, v) in b {
                if let Some(s) = self.slots.get(k) {
                    rowbuf[s] = Some(self.interner.intern(v));
                }
            }
            batch.push_row(&rowbuf);
        }
        batch
    }

    /// Pattern-at-a-time evaluation of a BGP the source does not answer
    /// whole: patterns are scanned lazily in the order
    /// [`plan::order_patterns`] chooses from the source's seal-time
    /// [`plan::Stats`] and joined immediately, so every scan sees the
    /// constraints (single-row substitution, sideways envelopes,
    /// Bloom/min-max filters) the already-joined prefix established.
    fn eval_bgp_planned(
        &mut self,
        patterns: &[TriplePattern],
        input: Batch,
        constraints: &Constraints,
        bgp_span: &mut applab_obs::Span,
    ) -> Batch {
        let width = self.slots.width;
        let stats = self.stats;
        // Slots bound so far: by any input row, then by every joined step.
        let mut bound = input.bound_slots();
        let steps = plan::order_patterns(
            stats,
            patterns,
            &|v| self.slots.get(v).is_some_and(|s| bound[s]),
            &constraints.spatial,
            &constraints.temporal,
        );
        if bgp_span.enabled() {
            bgp_span.record(
                "plan_fingerprint",
                format!("{:016x}", plan::fingerprint(&steps)),
            );
        }
        let mut result = input;
        let mut result_est = result.len().max(1) as f64;
        for step in &steps {
            if self.interrupted() {
                return Batch::new(width);
            }
            let pattern = step.triple;
            // Per-step constraints: sideways envelopes derived from the
            // current result, then the access-path choice — constraints
            // the sketch proves useless are stripped so the scan takes
            // the plain index instead. Copy-on-write: most steps change
            // nothing and then the shared `constraints` is used as is.
            let mut effective = Cow::Borrowed(constraints);
            // Only this step's own variables can consume a sideways
            // envelope, so restrict the (whole-result) union-envelope
            // computation to them instead of walking every link each
            // step.
            if let Some(augmented) =
                self.sideways_spatial(constraints, &result, std::slice::from_ref(pattern))
            {
                effective.to_mut().spatial = augmented;
            }
            let access = plan::access_path(stats, pattern, &effective.spatial, &effective.temporal);
            if let Some(v) = pattern.object.as_var() {
                let (strip_spatial, strip_temporal) = match access {
                    plan::AccessPath::Spatial => (false, effective.temporal.contains_key(v)),
                    plan::AccessPath::Temporal => (effective.spatial.contains_key(v), false),
                    plan::AccessPath::Scan => (
                        effective.spatial.contains_key(v),
                        effective.temporal.contains_key(v),
                    ),
                };
                if strip_spatial {
                    effective.to_mut().spatial.remove(v);
                }
                if strip_temporal {
                    effective.to_mut().temporal.remove(v);
                }
            }
            let subst: Option<Vec<Option<u64>>> = (result.len() == 1).then(|| result.row(0));
            let mut scan_span = applab_obs::span("scan");
            scan_span.record("pattern", step.pattern);
            scan_span.record("est_rows", step.est_rows.round() as u64);
            scan_span.record("access", access.tag());
            let (mut col_batch, used) =
                self.scan_column(pattern, subst.as_deref(), effective.as_ref());
            scan_span.record("rows", col_batch.len());
            scan_span.record_rate("rows_per_sec", col_batch.len() as u64);
            applab_obs::querystats::scan(col_batch.len() as u64);

            // Build-side Bloom/min-max filters: drop scanned rows that
            // cannot equal any current-result row on a shared slot. Only
            // sound per slot when EVERY result row binds it — an unbound
            // row joins with anything on that variable. Only worth the
            // build + per-row probes when the result side is much
            // smaller than the scan; otherwise the hash join (which
            // already builds on the smaller side) discards the same rows
            // for the same work.
            let seed = result.len() == 1 && result.row_all_unbound(0);
            if !seed && !col_batch.is_empty() && result.len() * 8 <= col_batch.len() {
                let result_bound = result.bound_slots();
                let mut filters: Vec<(usize, plan::IdFilter)> = Vec::new();
                for &slot in used.iter().filter(|&&s| result_bound[s]) {
                    let mut ids = Vec::with_capacity(result.len());
                    let mut all_bound = true;
                    for i in 0..result.len() {
                        match result.get(i, slot) {
                            Some(id) => ids.push(id),
                            None => {
                                all_bound = false;
                                break;
                            }
                        }
                    }
                    if all_bound {
                        if let Some(f) = plan::IdFilter::build(&ids) {
                            filters.push((slot, f));
                        }
                    }
                }
                if !filters.is_empty() {
                    let before = col_batch.len();
                    let mut sel: Vec<u32> = Vec::with_capacity(before);
                    'rows: for i in 0..before {
                        if i % CHECK_INTERVAL == 0 && self.interrupted() {
                            return Batch::new(width);
                        }
                        for (slot, f) in &filters {
                            if let Some(id) = col_batch.get(i, *slot) {
                                if !f.contains(id) {
                                    continue 'rows;
                                }
                            }
                        }
                        sel.push(i as u32);
                    }
                    if sel.len() < before {
                        col_batch = col_batch.gather(&sel);
                        let pruned = (before - sel.len()) as u64;
                        scan_span.record("pruned_rows", pruned);
                        applab_obs::querystats::pruned(pruned);
                    }
                }
            }
            drop(scan_span);
            if col_batch.is_empty() {
                return Batch::new(width);
            }

            // Join-size estimate threads through the chain so EXPLAIN can
            // show estimate-vs-actual per join operator.
            let d_key = pattern
                .variables()
                .filter(|v| self.slots.get(v).is_some_and(|s| bound[s]))
                .filter_map(|v| stats.distinct_at(pattern, v))
                .fold(None, |acc: Option<f64>, d| {
                    Some(acc.map_or(d, |a| a.min(d)))
                })
                .unwrap_or(1.0);
            let est_out = plan::estimate_join(result_est, step.est_rows, d_key);
            // Build/probe choice: hash the smaller side. The seed row
            // keeps the canonical orientation (its join short-circuit
            // returns the scanned batch untouched).
            result = if seed || col_batch.len() <= result.len() {
                self.join_est(result, col_batch, Some(est_out))
            } else {
                self.join_est(col_batch, result, Some(est_out))
            };
            result_est = est_out.max(1.0);
            for s in used {
                bound[s] = true;
            }
            if result.is_empty() {
                return result;
            }
        }
        result
    }

    /// The augmented spatial-constraint map for a batch: for every
    /// spatial-join link ([`Constraints::spatial_links`]) with one side
    /// bound by `batch` and the other side mentioned by `receivers` (the
    /// patterns the caller's next scan or source query evaluates), the
    /// union envelope of that side's geometries constrains the other side.
    /// `None` when nothing was added (no links, nothing usable bound).
    /// Sound because a row whose linked variable is unbound or not a
    /// geometry cannot satisfy the originating `geof:` conjunct anyway, and
    /// the filter is always re-applied downstream.
    fn sideways_spatial(
        &mut self,
        constraints: &Constraints,
        batch: &Batch,
        receivers: &[TriplePattern],
    ) -> Option<HashMap<String, Envelope>> {
        if constraints.spatial_links.is_empty() || batch.is_empty() {
            return None;
        }
        // With a spatial sketch on hand, a union envelope wider than
        // [`plan::INDEX_SELECTIVITY_CUTOFF`] is dropped: unlike a constant
        // filter envelope it saves no exact geometry tests, and an R-tree
        // walk it cannot meaningfully narrow costs more than the plain
        // column scan. The check also runs mid-walk so a hopeless union
        // stops early.
        let sketch = &self.stats.spatial;
        let too_wide = |env: &Envelope| {
            sketch.bounds.is_some() && sketch.selectivity(env) >= plan::INDEX_SELECTIVITY_CUTOFF
        };
        let mut out: Option<HashMap<String, Envelope>> = None;
        for (a, b) in &constraints.spatial_links {
            for (src, dst) in [(a, b), (b, a)] {
                // Links pointing anywhere else are skipped before the
                // per-row union-envelope walk.
                if !receivers.iter().any(|p| p.variables().any(|v| v == dst)) {
                    continue;
                }
                let Some(slot) = self.slots.get(src) else {
                    continue;
                };
                // Every row must bind the source side: an unbound row can
                // still acquire this variable from a scan inside the BGP,
                // with a geometry outside the union envelope. A row bound
                // to a non-geometry is safe to exclude — the originating
                // `geof:` conjunct drops it no matter what the other side
                // holds.
                let mut env = Envelope::EMPTY;
                let mut any = false;
                let mut all_bound = true;
                let mut useless = false;
                for i in 0..batch.len() {
                    let Some(id) = batch.get(i, slot) else {
                        all_bound = false;
                        break;
                    };
                    self.ensure_geometry(id);
                    if let Some((_, e)) = self.geometries.get(&id).and_then(GeomEntry::get) {
                        env.expand(e);
                        any = true;
                    }
                    if i & 63 == 63 && too_wide(&env) {
                        useless = true;
                        break;
                    }
                }
                if !all_bound || !any || useless || too_wide(&env) {
                    continue; // side not (fully) bound, or envelope too wide
                }
                // Do NOT intersect with an existing constraint: "g meets
                // box A" and "g meets box B" does not imply "g meets
                // A∩B" for non-point geometries, so intersecting two
                // individually-necessary envelopes can drop valid rows.
                // Keep whichever constraint got there first.
                let target = out.get_or_insert_with(|| constraints.spatial.clone());
                target.entry(dst.clone()).or_insert(env);
            }
        }
        out
    }

    /// Scan one triple pattern into a batch, plus the variable slots the
    /// batch binds. Every source takes the same three steps: each position
    /// resolves to a constant id (a term, or a variable the single input
    /// row binds) or to a variable slot, [`Self::fetch_ids`] returns the
    /// match columns, and the columns of the slot positions become the
    /// batch. An empty batch means the pattern provably matches nothing.
    fn scan_column(
        &mut self,
        pattern: &TriplePattern,
        subst: Option<&[Option<u64>]>,
        constraints: &Constraints,
    ) -> (Batch, Vec<usize>) {
        let width = self.slots.width;
        let mut ids = [None; 3];
        let mut slots = [None; 3];
        for (i, tp) in [&pattern.subject, &pattern.predicate, &pattern.object]
            .into_iter()
            .enumerate()
        {
            match tp {
                TermPattern::Term(t) => ids[i] = Some(self.interner.intern(t)),
                TermPattern::Var(v) => {
                    let slot = self.slots.get(v).expect("pattern var has a slot");
                    match subst.and_then(|row| row[slot]) {
                        Some(id) => ids[i] = Some(id),
                        None => slots[i] = Some(slot),
                    }
                }
            }
        }

        // Index pushdown: the object is an unbound variable carrying an
        // envelope or time-range constraint.
        let object_var = pattern.object.as_var().filter(|_| slots[2].is_some());
        let spatial = object_var.and_then(|v| constraints.spatial.get(v));
        let temporal = object_var.and_then(|v| constraints.temporal.get(v).copied());
        let Some((n, cols)) = self.fetch_ids(ids, slots, spatial, temporal) else {
            return (Batch::new(width), Vec::new());
        };
        if self.interrupted() {
            return (Batch::new(width), Vec::new());
        }

        // A variable repeated within the pattern (`?x :p ?x`) keeps only the
        // rows where its positions agree. The selection reads the columns
        // before they move into the batch.
        let cols = [cols.s, cols.p, cols.o];
        let repeats: Vec<(usize, usize)> = [(0, 1), (0, 2), (1, 2)]
            .into_iter()
            .filter(|&(a, b)| slots[a].is_some() && slots[a] == slots[b])
            .collect();
        let sel: Option<Vec<u32>> = (!repeats.is_empty()).then(|| {
            (0..n)
                .filter(|&i| repeats.iter().all(|&(a, b)| cols[a][i] == cols[b][i]))
                .map(|i| i as u32)
                .collect()
        });
        let mut batch = Batch::with_len(width, n);
        for (slot, col) in slots.into_iter().zip(cols) {
            if let Some(slot) = slot {
                batch.set_column(slot, col);
            }
        }
        if let Some(sel) = sel {
            batch = batch.gather(&sel);
        }
        let mut used: Vec<usize> = slots.into_iter().flatten().collect();
        used.sort_unstable();
        used.dedup();
        (batch, used)
    }

    /// The match columns of one resolved pattern and how many triples
    /// matched, or `None` when the pattern provably matches nothing. This
    /// is the scan's only branch on the source: an [`IdAccess`] source
    /// scans its own ids straight into the columns; any other source
    /// returns decoded triples, and only the positions that bind a slot are
    /// interned (the columns of constant positions stay empty).
    fn fetch_ids(
        &mut self,
        ids: [Option<u64>; 3],
        slots: [Option<usize>; 3],
        spatial: Option<&Envelope>,
        temporal: Option<(i64, i64)>,
    ) -> Option<(usize, IdColumns)> {
        let [s, p, o] = ids;
        let mut cols = IdColumns::default();
        if let Some(native) = self.interner.native {
            // A query-local id names a term the store has never seen.
            if ids.iter().flatten().any(|&id| id >= self.interner.base) {
                return None;
            }
            let hit = spatial
                .and_then(|env| native.scan_ids_spatial(s, p, env))
                .or_else(|| temporal.and_then(|(lo, hi)| native.scan_ids_temporal(s, p, lo, hi)));
            match hit {
                Some(triples) => {
                    cols.reserve(triples.len());
                    for (ts, tp, to) in triples {
                        cols.push(ts, tp, to);
                    }
                }
                None => native.scan_ids_columns(s, p, o, &mut cols),
            }
            return Some((cols.len(), cols));
        }

        let term = |id: Option<u64>| id.map(|id| self.interner.decode(id));
        // A literal subject or a non-IRI predicate can never match.
        let subject = match term(s) {
            Some(Term::Literal(_)) => return None,
            t => t.and_then(Term::as_resource),
        };
        let predicate = match term(p) {
            Some(Term::Named(n)) => Some(n),
            Some(_) => return None,
            None => None,
        };
        let source = self.source;
        let triples = spatial
            .and_then(|env| source.triples_matching_spatial(subject.as_ref(), predicate, env))
            .or_else(|| {
                temporal.and_then(|(lo, hi)| {
                    source.triples_matching_temporal(subject.as_ref(), predicate, lo, hi)
                })
            })
            .unwrap_or_else(|| source.triples_matching(subject.as_ref(), predicate, term(o)));
        let n = triples.len();
        for (i, t) in triples.into_iter().enumerate() {
            if i % CHECK_INTERVAL == 0 && self.interrupted() {
                return None;
            }
            for (slot, col, term) in [
                (slots[0], &mut cols.s, Term::from(t.subject)),
                (slots[1], &mut cols.p, Term::Named(t.predicate)),
                (slots[2], &mut cols.o, t.object),
            ] {
                if slot.is_some() {
                    col.push(self.interner.intern(&term));
                }
            }
        }
        Some((n, cols))
    }

    // --- hash join ---------------------------------------------------------

    /// Hash-join two batches on their shared bound slots.
    ///
    /// Rows are grouped by the bitmask of which shared slots they actually
    /// bind (SPARQL compatibility: a row that leaves a shared variable
    /// unbound joins with everything on that variable), and each group pair
    /// is joined on the slots bound in both. Probing produces one global
    /// `(probe row, build row)` pair list in probe order; the output batch
    /// is then materialized with a single column-at-a-time
    /// [`merge_gather`] (probe values win where bound, build values fill
    /// the rest) instead of cloning a row per match.
    fn join(&mut self, probe: Batch, build: Batch) -> Batch {
        self.join_est(probe, build, None)
    }

    /// [`Self::join`] with an optional planner cardinality estimate,
    /// recorded on the join span so EXPLAIN shows estimate-vs-actual
    /// rows per operator.
    fn join_est(&mut self, probe: Batch, build: Batch, est_rows: Option<f64>) -> Batch {
        let width = self.slots.width;
        if probe.is_empty() || build.is_empty() {
            return Batch::new(width);
        }
        // Joining the pristine all-unbound seed row (the BGP entry state)
        // against a scan batch yields the batch itself.
        if probe.len() == 1 && probe.row_all_unbound(0) {
            return build;
        }
        applab_obs::counter!("applab_sparql_joins_total").inc();
        applab_obs::querystats::join(build.len() as u64, probe.len() as u64);
        let mut join_span = applab_obs::span("join");
        join_span.record("probe", probe.len());
        join_span.record("build", build.len());
        if let Some(est) = est_rows {
            join_span.record("est_rows", est.round() as u64);
        }
        let bound_probe = probe.bound_slots();
        let bound_build = build.bound_slots();
        let shared: Vec<usize> = (0..width)
            .filter(|&i| bound_probe[i] && bound_build[i])
            .collect();
        if shared.len() > 64 {
            return nested_join(&probe, &build);
        }
        let mask_of = |b: &Batch, i: usize| -> u64 {
            let mut m = 0u64;
            for (bit, &slot) in shared.iter().enumerate() {
                if b.col(slot).is_valid(i) {
                    m |= 1 << bit;
                }
            }
            m
        };
        // Group row indices by mask, preserving first-occurrence order. Scan
        // batches bind the same slots in every row, so the single-mask case
        // is the common one and skips the map entirely.
        let group = |b: &Batch| -> Vec<(u64, Vec<u32>)> {
            let first = mask_of(b, 0);
            if (1..b.len()).all(|i| mask_of(b, i) == first) {
                return vec![(first, (0..b.len() as u32).collect())];
            }
            let mut order: Vec<(u64, Vec<u32>)> = Vec::new();
            let mut index: IdHashMap<u64, usize> = IdHashMap::default();
            for i in 0..b.len() {
                let m = mask_of(b, i);
                let e = *index.entry(m).or_insert_with(|| {
                    order.push((m, Vec::new()));
                    order.len() - 1
                });
                order[e].1.push(i as u32);
            }
            order
        };
        let probe_groups = group(&probe);
        let build_groups = group(&build);

        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (pmask, prows) in &probe_groups {
            for (bmask, brows) in &build_groups {
                let common = pmask & bmask;
                let key_slots: Vec<usize> = shared
                    .iter()
                    .enumerate()
                    .filter(|(bit, _)| common >> bit & 1 == 1)
                    .map(|(_, &s)| s)
                    .collect();
                // With no common key this degenerates to a cross product of
                // the two groups (single empty key). Single-slot keys (the
                // overwhelmingly common join shape) are kept as bare `u64`s
                // to avoid a key allocation per row. Key slots are valid in
                // every group member by construction of the masks, so the
                // unchecked column loads are safe.
                // Single-slot build tables chain same-key rows through one
                // flat `next` array (`head`/`tail` per key, positions into
                // `brows`) instead of growing a `Vec<u32>` per distinct key
                // — with mostly-unique keys that was an allocation per
                // build row. Walking a chain front-to-back yields matches
                // in exactly the order the per-key vectors held them.
                const CHAIN_END: u32 = u32::MAX;
                enum Table {
                    One(usize, IdHashMap<u64, (u32, u32)>, Vec<u32>),
                    Many(IdHashMap<Vec<u64>, Vec<u32>>),
                }
                let table = if let [slot] = key_slots[..] {
                    let bcol = build.col(slot);
                    let mut heads: IdHashMap<u64, (u32, u32)> = IdHashMap::default();
                    heads.reserve(brows.len());
                    let mut next: Vec<u32> = vec![CHAIN_END; brows.len()];
                    for (j, &bi) in brows.iter().enumerate() {
                        let j = j as u32;
                        match heads.entry(bcol.id_unchecked(bi as usize)) {
                            Entry::Occupied(mut e) => {
                                let (_, tail) = e.get_mut();
                                next[*tail as usize] = j;
                                *tail = j;
                            }
                            Entry::Vacant(e) => {
                                e.insert((j, j));
                            }
                        }
                    }
                    Table::One(slot, heads, next)
                } else {
                    let mut t: IdHashMap<Vec<u64>, Vec<u32>> = IdHashMap::default();
                    for &bi in brows {
                        let key: Vec<u64> = key_slots
                            .iter()
                            .map(|&s| build.col(s).id_unchecked(bi as usize))
                            .collect();
                        t.entry(key).or_default().push(bi);
                    }
                    Table::Many(t)
                };
                let probe_one = |pi: u32, out: &mut Vec<(u32, u32)>| match &table {
                    Table::One(slot, heads, next) => {
                        if let Some(&(head, _)) =
                            heads.get(&probe.col(*slot).id_unchecked(pi as usize))
                        {
                            let mut j = head;
                            loop {
                                out.push((pi, brows[j as usize]));
                                j = next[j as usize];
                                if j == CHAIN_END {
                                    break;
                                }
                            }
                        }
                    }
                    Table::Many(t) => {
                        let key: Vec<u64> = key_slots
                            .iter()
                            .map(|&s| probe.col(s).id_unchecked(pi as usize))
                            .collect();
                        if let Some(matches) = t.get(&key) {
                            for &bi in matches {
                                out.push((pi, bi));
                            }
                        }
                    }
                };
                applab_obs::querystats::probe_chunk();
                for (n, &pi) in prows.iter().enumerate() {
                    if n % CHECK_INTERVAL == 0 && self.interrupted() {
                        return Batch::new(width);
                    }
                    probe_one(pi, &mut pairs);
                }
            }
        }
        let out = merge_gather(&probe, &build, &pairs);
        join_span.record("out", out.len());
        join_span.record_rate("rows_per_sec", out.len() as u64);
        out
    }

    // --- decoding ----------------------------------------------------------

    /// The (variable, slot) pairs an expression reads, deduplicated.
    fn expr_slots(&self, expr: &Expression) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for v in expr.variables() {
            if let Some(s) = self.slots.get(v) {
                if !out.iter().any(|(n, _)| n == v) {
                    out.push((v.to_string(), s));
                }
            }
        }
        out
    }

    /// Decode the listed slots of one batch row into a term binding.
    fn decode_binding_at(&self, batch: &Batch, i: usize, vars: &[(String, usize)]) -> Binding {
        vars.iter()
            .filter_map(|(n, s)| {
                batch
                    .get(i, *s)
                    .map(|id| (n.clone(), self.interner.decode(id).clone()))
            })
            .collect()
    }

    fn aggregate_batch(
        &self,
        batch: &Batch,
        projection: &[Projection],
        group_by: &[String],
    ) -> Result<(Vec<String>, Vec<Row>), EvalError> {
        let group_slots: Vec<Option<usize>> = group_by.iter().map(|v| self.slots.get(v)).collect();
        // Group row indices by the group-by key — id comparisons only.
        let mut groups: Vec<(Vec<Option<u64>>, Vec<usize>)> = Vec::new();
        let mut index: IdHashMap<Vec<Option<u64>>, usize> = IdHashMap::default();
        let mut key: Vec<Option<u64>> = Vec::with_capacity(group_slots.len());
        for ri in 0..batch.len() {
            // The key buffer is reused across rows; it is only cloned when a
            // new group is first seen.
            key.clear();
            key.extend(group_slots.iter().map(|s| s.and_then(|s| batch.get(ri, s))));
            let gi = match index.get(&key) {
                Some(&gi) => gi,
                None => {
                    groups.push((key.clone(), Vec::new()));
                    index.insert(key.clone(), groups.len() - 1);
                    groups.len() - 1
                }
            };
            groups[gi].1.push(ri);
        }
        // With no GROUP BY but aggregates present, there is one global group
        // (even if empty).
        if group_by.is_empty() && groups.is_empty() {
            groups.push((Vec::new(), Vec::new()));
        }

        let variables: Vec<String> = projection.iter().map(|p| p.name().to_string()).collect();
        let mut out = Vec::with_capacity(groups.len());
        for (key_ids, members) in &groups {
            let mut values = Vec::with_capacity(projection.len());
            for p in projection {
                let v = match p {
                    Projection::Var(v) => {
                        // Must be a grouped variable.
                        match group_by.iter().position(|g| g == v) {
                            Some(i) => key_ids
                                .get(i)
                                .copied()
                                .flatten()
                                .map(|id| self.interner.decode(id).clone()),
                            None => {
                                return Err(EvalError::Other(format!(
                                    "variable ?{v} is projected but neither grouped nor aggregated"
                                )))
                            }
                        }
                    }
                    Projection::Expr(e, _) => {
                        // Evaluated against the group key binding.
                        let b: Binding = group_by
                            .iter()
                            .zip(key_ids)
                            .filter_map(|(v, id)| {
                                id.map(|id| (v.clone(), self.interner.decode(id).clone()))
                            })
                            .collect();
                        eval_expr(e, &b).ok()
                    }
                    Projection::Aggregate(agg, expr, _) => match expr {
                        None => Some(Literal::integer(members.len() as i64).into()),
                        // COUNT(?v) needs only how many members bind the
                        // slot — no decoding.
                        Some(Expression::Var(v)) if *agg == Aggregate::Count => {
                            let n = match self.slots.get(v) {
                                Some(s) => members
                                    .iter()
                                    .filter(|&&ri| batch.col(s).is_valid(ri))
                                    .count(),
                                None => 0,
                            };
                            Some(Literal::integer(n as i64).into())
                        }
                        Some(e) => {
                            // Plain-variable aggregates read the column
                            // directly; anything else decodes per member.
                            let vals: Vec<Term> = if let Expression::Var(v) = e {
                                let slot = self.slots.get(v);
                                members
                                    .iter()
                                    .filter_map(|&ri| {
                                        slot.and_then(|s| batch.get(ri, s))
                                            .map(|id| self.interner.decode(id).clone())
                                    })
                                    .collect()
                            } else {
                                let evars = self.expr_slots(e);
                                members
                                    .iter()
                                    .filter_map(|&ri| {
                                        eval_expr(e, &self.decode_binding_at(batch, ri, &evars))
                                            .ok()
                                    })
                                    .collect()
                            };
                            aggregate_values(*agg, vals, members.len())
                        }
                    },
                };
                values.push(v);
            }
            out.push(Row { values });
        }
        Ok((variables, out))
    }
}

/// Plain nested-loop fallback for joins over more than 64 shared slots
/// (out of `u64` mask range; practically unreachable).
fn nested_join(probe: &Batch, build: &Batch) -> Batch {
    let mut out = Batch::new(probe.width());
    for p in 0..probe.len() {
        'build: for b in 0..build.len() {
            let mut row = probe.row(p);
            for (slot, v) in row.iter_mut().zip(build.row(b)) {
                if let Some(v) = v {
                    match slot {
                        Some(existing) if *existing != v => continue 'build,
                        _ => *slot = Some(v),
                    }
                }
            }
            out.push_row(&row);
        }
    }
    out
}

/// Reduce the evaluated member values of one group to the aggregate's
/// result term. `member_count` is the full group size (for `COUNT(*)`,
/// which ignores evaluation errors in `values`).
pub(crate) fn aggregate_values(
    agg: Aggregate,
    values: Vec<Term>,
    member_count: usize,
) -> Option<Term> {
    match agg {
        Aggregate::CountAll => Some(Literal::integer(member_count as i64).into()),
        Aggregate::Count => Some(Literal::integer(values.len() as i64).into()),
        Aggregate::Sample => values.into_iter().next(),
        Aggregate::Sum | Aggregate::Avg => {
            let mut nums: Vec<f64> = values
                .iter()
                .filter_map(|t| t.as_literal().and_then(Literal::as_f64))
                .collect();
            if nums.is_empty() {
                return if agg == Aggregate::Sum {
                    Some(Literal::double(0.0).into())
                } else {
                    None
                };
            }
            // Engines deliver group members in different (all legal) orders
            // and f64 addition is not associative, so reduce in a canonical
            // order: the sum depends only on the value multiset, never on
            // the evaluation strategy that produced it.
            nums.sort_by(f64::total_cmp);
            let sum: f64 = nums.iter().sum();
            let out = if agg == Aggregate::Sum {
                sum
            } else {
                sum / nums.len() as f64
            };
            Some(Literal::double(out).into())
        }
        Aggregate::Min | Aggregate::Max => {
            let mut best: Option<Term> = None;
            for v in values {
                best = match best {
                    None => Some(v),
                    Some(b) => {
                        // Distinct terms can compare Equal (e.g. "1"^^xsd:int
                        // vs "1.0"^^xsd:double); break the tie on the printed
                        // form so the winner is order-independent across
                        // engines.
                        let ord = compare_terms(&v, &b)
                            .filter(|o| *o != std::cmp::Ordering::Equal)
                            .unwrap_or_else(|| v.to_string().cmp(&b.to_string()));
                        if (agg == Aggregate::Min && ord == std::cmp::Ordering::Less)
                            || (agg == Aggregate::Max && ord == std::cmp::Ordering::Greater)
                        {
                            Some(v)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            best
        }
    }
}

/// ORDER BY: rows are permuted by [`order_permutation`].
fn sort_rows(rows: &mut Vec<Row>, variables: &[String], keys: &[OrderKey]) {
    let order = order_permutation(rows, variables, keys, &mut |e, b| eval_expr(e, b).ok());
    let mut taken: Vec<Option<Row>> = std::mem::take(rows).into_iter().map(Some).collect();
    rows.extend(
        order
            .into_iter()
            .map(|i| taken[i].take().expect("a permutation")),
    );
}

/// The stable ORDER BY permutation of `rows`: each row's key vector is
/// evaluated once through `eval` (rows × keys calls), then the row
/// indices are sorted over the vectors.
fn order_permutation(
    rows: &[Row],
    variables: &[String],
    keys: &[OrderKey],
    eval: &mut dyn FnMut(&Expression, &Binding) -> Option<Term>,
) -> Vec<usize> {
    let vectors: Vec<Vec<Option<Term>>> = rows
        .iter()
        .map(|row| {
            let b = row_binding(row, variables);
            keys.iter().map(|key| eval(&key.expr, &b)).collect()
        })
        .collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    order.sort_by(|&a, &b| compare_order_keys(&vectors[a], &vectors[b], keys));
    order
}

/// Compare two evaluated key vectors: unbound (or erroring) keys sort
/// first, incomparable terms by their printed form, DESC keys reversed.
fn compare_order_keys(
    a: &[Option<Term>],
    b: &[Option<Term>],
    keys: &[OrderKey],
) -> std::cmp::Ordering {
    for ((va, vb), key) in a.iter().zip(b).zip(keys) {
        let ord = match (va, vb) {
            (Some(x), Some(y)) => {
                compare_terms(x, y).unwrap_or_else(|| x.to_string().cmp(&y.to_string()))
            }
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, None) => std::cmp::Ordering::Equal,
        };
        let ord = if key.descending { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn row_binding(row: &Row, variables: &[String]) -> Binding {
    variables
        .iter()
        .zip(&row.values)
        .filter_map(|(v, t)| t.clone().map(|t| (v.clone(), t)))
        .collect()
}

fn instantiate(
    pattern: &TriplePattern,
    binding: &Binding,
    row: usize,
    idx: usize,
) -> Option<Triple> {
    let resolve = |tp: &TermPattern| -> Option<Term> {
        match tp {
            TermPattern::Var(v) => binding.get(v).cloned(),
            TermPattern::Term(t) => Some(t.clone()),
        }
    };
    let s = match resolve(&pattern.subject)? {
        Term::Named(n) => Resource::Named(n),
        Term::Blank(b) => Resource::Blank(b),
        Term::Literal(_) => return None,
    };
    let p = match resolve(&pattern.predicate)? {
        Term::Named(n) => n,
        _ => return None,
    };
    let o = resolve(&pattern.object).or_else(|| {
        // Unbound object in a CONSTRUCT template becomes a fresh blank node.
        Some(Term::Blank(applab_rdf::BlankNode::new(format!(
            "c{row}_{idx}"
        ))))
    })?;
    Some(Triple::new(s, p, o))
}

/// Extract envelope constraints from a filter expression.
///
/// Recognized forms (and their mirror images):
/// * `geof:sfIntersects(?v, CONST)`, and the other non-negative `sf*`
///   predicates — envelope of the constant;
/// * `geof:distance(?v, CONST) < d` / `<= d` — envelope buffered by `d`.
pub fn spatial_constraints(expr: &Expression) -> HashMap<String, Envelope> {
    let mut out = HashMap::new();
    for conjunct in expr.conjuncts() {
        match conjunct {
            Expression::Call(f, args) => {
                if let Some(local) = f.as_str().strip_prefix(vocab::geof::NS) {
                    if local == "sfDisjoint" {
                        continue; // negative constraint: no pushdown
                    }
                    if applab_geo::SpatialRelation::from_geof_name(local).is_some()
                        && args.len() == 2
                    {
                        if let Some((var, env)) = var_const_envelope(&args[0], &args[1]) {
                            merge(&mut out, var, env);
                        }
                    }
                }
            }
            Expression::Less(a, b) | Expression::LessOrEqual(a, b) => {
                // geof:distance(?v, CONST) < d
                if let (Expression::Call(f, args), Expression::Constant(Term::Literal(l))) =
                    (a.as_ref(), b.as_ref())
                {
                    if f.as_str() == vocab::geof::DISTANCE && args.len() >= 2 {
                        if let (Some((var, env)), Some(d)) =
                            (var_const_envelope(&args[0], &args[1]), l.as_f64())
                        {
                            merge(&mut out, var, env.buffered(d));
                        }
                    }
                }
            }
            Expression::Greater(a, b) | Expression::GreaterOrEqual(a, b) => {
                // d > geof:distance(?v, CONST)
                if let (Expression::Constant(Term::Literal(l)), Expression::Call(f, args)) =
                    (a.as_ref(), b.as_ref())
                {
                    if f.as_str() == vocab::geof::DISTANCE && args.len() >= 2 {
                        if let (Some((var, env)), Some(d)) =
                            (var_const_envelope(&args[0], &args[1]), l.as_f64())
                        {
                            merge(&mut out, var, env.buffered(d));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn merge(out: &mut HashMap<String, Envelope>, var: String, env: Envelope) {
    out.entry(var)
        .and_modify(|e| *e = e.intersection(&env))
        .or_insert(env);
}

/// Variable pairs linked by a non-disjoint `geof:sf*(?a, ?b)` conjunct.
/// Every such relation requires the two envelopes to intersect, so once
/// one side's geometries are known, their union envelope constrains the
/// other side (consumed through `Constraints::spatial_links`).
pub fn spatial_join_links(expr: &Expression) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for conjunct in expr.conjuncts() {
        if let Expression::Call(f, args) = conjunct {
            if let Some(local) = f.as_str().strip_prefix(vocab::geof::NS) {
                if local == "sfDisjoint" {
                    continue; // negative constraint: envelopes need not meet
                }
                if applab_geo::SpatialRelation::from_geof_name(local).is_some() && args.len() == 2 {
                    if let (Expression::Var(a), Expression::Var(b)) = (&args[0], &args[1]) {
                        out.push((a.clone(), b.clone()));
                    }
                }
            }
        }
    }
    out
}

/// Extract time-range constraints (epoch seconds) from a filter expression.
///
/// Recognized conjunct forms: `?v OP const` and `const OP ?v` where `const`
/// is an `xsd:dateTime`/`xsd:date` literal and OP is a comparison.
pub fn temporal_constraints(expr: &Expression) -> HashMap<String, (i64, i64)> {
    let mut out: HashMap<String, (i64, i64)> = HashMap::new();
    let mut narrow = |var: &str, lo: i64, hi: i64| {
        out.entry(var.to_string())
            .and_modify(|r| *r = (r.0.max(lo), r.1.min(hi)))
            .or_insert((lo, hi));
    };
    let dt = |e: &Expression| -> Option<i64> {
        match e {
            Expression::Constant(Term::Literal(l)) => l.as_datetime(),
            _ => None,
        }
    };
    for conjunct in expr.conjuncts() {
        let (a, b, flip) = match conjunct {
            Expression::Less(a, b) | Expression::LessOrEqual(a, b) => (a, b, false),
            Expression::Greater(a, b) | Expression::GreaterOrEqual(a, b) => (a, b, true),
            Expression::Equal(a, b) => {
                if let (Expression::Var(v), Some(t)) = (a.as_ref(), dt(b)) {
                    narrow(v, t, t);
                } else if let (Some(t), Expression::Var(v)) = (dt(a), b.as_ref()) {
                    narrow(v, t, t);
                }
                continue;
            }
            _ => continue,
        };
        // Normalize to `?v <= const` / `?v >= const`.
        match (a.as_ref(), b.as_ref()) {
            (Expression::Var(v), other) => {
                if let Some(t) = dt(other) {
                    if flip {
                        narrow(v, t, i64::MAX); // ?v > const
                    } else {
                        narrow(v, i64::MIN, t); // ?v < const
                    }
                }
            }
            (other, Expression::Var(v)) => {
                if let Some(t) = dt(other) {
                    if flip {
                        narrow(v, i64::MIN, t); // const > ?v
                    } else {
                        narrow(v, t, i64::MAX); // const < ?v
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Match (Var, Const-geometry) in either order.
fn var_const_envelope(a: &Expression, b: &Expression) -> Option<(String, Envelope)> {
    let extract = |e: &Expression| -> Option<Envelope> {
        match e {
            Expression::Constant(Term::Literal(l)) => l.as_geometry().map(|g| g.envelope()),
            _ => None,
        }
    };
    match (a, b) {
        (Expression::Var(v), other) => extract(other).map(|env| (v.clone(), env)),
        (other, Expression::Var(v)) => extract(other).map(|env| (v.clone(), env)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::TermPattern as TP;
    use crate::parser::parse_query;
    use applab_rdf::NamedNode;

    fn test_graph() -> Graph {
        let mut g = Graph::new();
        for (id, name, wkt) in [
            (
                "p1",
                "Bois de Boulogne",
                "POLYGON ((2.21 48.85, 2.27 48.85, 2.27 48.88, 2.21 48.88, 2.21 48.85))",
            ),
            (
                "p2",
                "Parc Monceau",
                "POLYGON ((2.30 48.87, 2.31 48.87, 2.31 48.88, 2.30 48.88, 2.30 48.87))",
            ),
        ] {
            let park = Resource::named(format!("http://ex.org/{id}"));
            let geom = Resource::named(format!("http://ex.org/{id}/geom"));
            g.add(
                park.clone(),
                NamedNode::new(vocab::rdf::TYPE),
                Term::named(vocab::osm::POI),
            );
            g.add(
                park.clone(),
                NamedNode::new(vocab::osm::HAS_NAME),
                Literal::string(name),
            );
            g.add(
                park.clone(),
                NamedNode::new(vocab::geo::HAS_GEOMETRY),
                Term::Named(geom.as_named().unwrap().clone()),
            );
            g.add(geom, NamedNode::new(vocab::geo::AS_WKT), Literal::wkt(wkt));
        }
        g
    }

    fn var(v: &str) -> TP {
        TP::var(v)
    }

    fn select_all(pattern: GraphPattern) -> Query {
        Query {
            form: QueryForm::Select {
                distinct: false,
                projection: vec![],
                group_by: vec![],
            },
            pattern,
            order_by: vec![],
            limit: None,
            offset: 0,
        }
    }

    #[test]
    fn bgp_join() {
        let g = test_graph();
        let q = select_all(GraphPattern::Bgp(vec![
            TriplePattern::new(
                var("s"),
                Term::named(vocab::rdf::TYPE),
                Term::named(vocab::osm::POI),
            ),
            TriplePattern::new(var("s"), Term::named(vocab::osm::HAS_NAME), var("name")),
        ]));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_with_geof() {
        let g = test_graph();
        // Find parks whose geometry intersects a probe box around Bois de
        // Boulogne only.
        let probe =
            Literal::wkt("POLYGON ((2.2 48.84, 2.28 48.84, 2.28 48.89, 2.2 48.89, 2.2 48.84))");
        let q = select_all(GraphPattern::Filter(
            Expression::Call(
                NamedNode::new(vocab::geof::SF_INTERSECTS),
                vec![
                    Expression::Var("wkt".into()),
                    Expression::Constant(probe.into()),
                ],
            ),
            Box::new(GraphPattern::Bgp(vec![
                TriplePattern::new(var("s"), Term::named(vocab::geo::HAS_GEOMETRY), var("g")),
                TriplePattern::new(var("g"), Term::named(vocab::geo::AS_WKT), var("wkt")),
            ])),
        ));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 1);
        let s = r.value(0, "s").unwrap();
        assert_eq!(s.as_named().unwrap().as_str(), "http://ex.org/p1");
    }

    #[test]
    fn optional_keeps_unmatched() {
        let mut g = test_graph();
        // A POI without a name.
        g.add(
            Resource::named("http://ex.org/p3"),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(vocab::osm::POI),
        );
        let q = select_all(GraphPattern::LeftJoin(
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("s"),
                Term::named(vocab::rdf::TYPE),
                Term::named(vocab::osm::POI),
            )])),
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("s"),
                Term::named(vocab::osm::HAS_NAME),
                var("name"),
            )])),
        ));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 3);
        let unnamed = r
            .rows()
            .iter()
            .filter(|row| row.get(r.variables(), "name").is_none())
            .count();
        assert_eq!(unnamed, 1);
    }

    #[test]
    fn union_concatenates() {
        let g = test_graph();
        let left = GraphPattern::Bgp(vec![TriplePattern::new(
            var("s"),
            Term::named(vocab::osm::HAS_NAME),
            Term::from(Literal::string("Bois de Boulogne")),
        )]);
        let right = GraphPattern::Bgp(vec![TriplePattern::new(
            var("s"),
            Term::named(vocab::osm::HAS_NAME),
            Term::from(Literal::string("Parc Monceau")),
        )]);
        let q = select_all(GraphPattern::Union(Box::new(left), Box::new(right)));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ask_and_construct() {
        let g = test_graph();
        let bgp = GraphPattern::Bgp(vec![TriplePattern::new(
            var("s"),
            Term::named(vocab::rdf::TYPE),
            Term::named(vocab::osm::POI),
        )]);
        let ask = Query {
            form: QueryForm::Ask,
            pattern: bgp.clone(),
            order_by: vec![],
            limit: None,
            offset: 0,
        };
        assert_eq!(evaluate(&g, &ask).unwrap().as_bool(), Some(true));

        let construct = Query {
            form: QueryForm::Construct {
                template: vec![TriplePattern::new(
                    var("s"),
                    Term::named(vocab::rdfs::LABEL),
                    Term::from(Literal::string("poi")),
                )],
            },
            pattern: bgp,
            order_by: vec![],
            limit: None,
            offset: 0,
        };
        let out = evaluate(&g, &construct).unwrap();
        assert_eq!(out.as_graph().unwrap().len(), 2);
    }

    #[test]
    fn aggregation_avg_per_group() {
        let mut g = Graph::new();
        for (cls, v) in [("a", 1.0), ("a", 3.0), ("b", 10.0)] {
            let obs = Resource::named(format!("http://ex.org/o{cls}{v}"));
            g.add(
                obs.clone(),
                NamedNode::new("http://ex.org/class"),
                Term::named(format!("http://ex.org/{cls}")),
            );
            g.add(obs, NamedNode::new(vocab::lai::HAS_LAI), Literal::float(v));
        }
        let q = Query {
            form: QueryForm::Select {
                distinct: false,
                projection: vec![
                    Projection::Var("cls".into()),
                    Projection::Aggregate(
                        Aggregate::Avg,
                        Some(Expression::Var("lai".into())),
                        "avg".into(),
                    ),
                    Projection::Aggregate(Aggregate::Count, None, "n".into()),
                ],
                group_by: vec!["cls".into()],
            },
            pattern: GraphPattern::Bgp(vec![
                TriplePattern::new(var("o"), Term::named("http://ex.org/class"), var("cls")),
                TriplePattern::new(var("o"), Term::named(vocab::lai::HAS_LAI), var("lai")),
            ]),
            order_by: vec![OrderKey {
                expr: Expression::Var("avg".into()),
                descending: false,
            }],
            limit: None,
            offset: 0,
        };
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.value(0, "avg").unwrap().as_literal().unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(
            r.value(1, "avg").unwrap().as_literal().unwrap().as_f64(),
            Some(10.0)
        );
        assert_eq!(
            r.value(0, "n").unwrap().as_literal().unwrap().as_f64(),
            Some(2.0)
        );
    }

    #[test]
    fn distinct_limit_offset() {
        let g = test_graph();
        let q = Query {
            form: QueryForm::Select {
                distinct: true,
                projection: vec![Projection::Var("t".into())],
                group_by: vec![],
            },
            pattern: GraphPattern::Bgp(vec![TriplePattern::new(
                var("s"),
                Term::named(vocab::rdf::TYPE),
                var("t"),
            )]),
            order_by: vec![],
            limit: Some(10),
            offset: 0,
        };
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 1); // both POIs have the same type
    }

    #[test]
    fn extend_binds_expression() {
        let g = test_graph();
        let q = select_all(GraphPattern::Extend(
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("s"),
                Term::named(vocab::osm::HAS_NAME),
                var("name"),
            )])),
            "upper".into(),
            Expression::Call(
                NamedNode::new("builtin:ucase"),
                vec![Expression::Var("name".into())],
            ),
        ));
        let r = evaluate(&g, &q).unwrap();
        let u = r.value(0, "upper").unwrap().as_literal().unwrap();
        assert_eq!(u.value(), u.value().to_uppercase());
    }

    #[test]
    fn values_restricts() {
        let g = test_graph();
        let q = select_all(GraphPattern::Join(
            Box::new(GraphPattern::Values(
                vec!["name".into()],
                vec![vec![Some(Literal::string("Parc Monceau").into())]],
            )),
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("s"),
                Term::named(vocab::osm::HAS_NAME),
                var("name"),
            )])),
        ));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn spatial_constraint_extraction() {
        let expr = Expression::And(
            Box::new(Expression::Call(
                NamedNode::new(vocab::geof::SF_INTERSECTS),
                vec![
                    Expression::Var("g".into()),
                    Expression::Constant(
                        Literal::wkt("POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))").into(),
                    ),
                ],
            )),
            Box::new(Expression::Less(
                Box::new(Expression::Call(
                    NamedNode::new(vocab::geof::DISTANCE),
                    vec![
                        Expression::Var("h".into()),
                        Expression::Constant(Literal::wkt("POINT (10 10)").into()),
                    ],
                )),
                Box::new(Expression::Constant(Literal::double(1.5).into())),
            )),
        );
        let cons = spatial_constraints(&expr);
        assert_eq!(cons.len(), 2);
        assert_eq!(cons["g"], Envelope::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(cons["h"], Envelope::new(8.5, 8.5, 11.5, 11.5));
    }

    #[test]
    fn same_var_twice_in_pattern() {
        let mut g = Graph::new();
        g.add(
            Resource::named("http://ex.org/n"),
            NamedNode::new("http://ex.org/linksTo"),
            Term::named("http://ex.org/n"),
        );
        g.add(
            Resource::named("http://ex.org/m"),
            NamedNode::new("http://ex.org/linksTo"),
            Term::named("http://ex.org/n"),
        );
        // ?x linksTo ?x matches only the self-loop, on either scan branch.
        let q = select_all(GraphPattern::Bgp(vec![TriplePattern::new(
            var("x"),
            Term::named("http://ex.org/linksTo"),
            var("x"),
        )]));
        assert_eq!(evaluate(&g, &q).unwrap().len(), 1);
        assert_eq!(evaluate(&IdGraph::from_graph(&g), &q).unwrap().len(), 1);
    }

    // --- new-pipeline tests ------------------------------------------------

    /// A minimal dictionary-encoded source exercising the id-level scan
    /// path without depending on the store crate. Decoded-triple calls go
    /// to the graph it was built from.
    struct IdGraph {
        graph: Graph,
        by_term: HashMap<Term, u64>,
        terms: Vec<Term>,
        triples: Vec<(u64, u64, u64)>,
    }

    impl IdGraph {
        fn from_graph(g: &Graph) -> IdGraph {
            let mut out = IdGraph {
                graph: g.clone(),
                by_term: HashMap::new(),
                terms: Vec::new(),
                triples: Vec::new(),
            };
            let encode = |t: Term, out: &mut IdGraph| -> u64 {
                if let Some(&id) = out.by_term.get(&t) {
                    return id;
                }
                let id = out.terms.len() as u64;
                out.by_term.insert(t.clone(), id);
                out.terms.push(t);
                id
            };
            for t in g.triples_matching(None, None, None) {
                let s = encode(Term::from(t.subject.clone()), &mut out);
                let p = encode(Term::Named(t.predicate.clone()), &mut out);
                let o = encode(t.object.clone(), &mut out);
                out.triples.push((s, p, o));
            }
            out
        }
    }

    impl GraphSource for IdGraph {
        fn triples_matching(
            &self,
            subject: Option<&Resource>,
            predicate: Option<&NamedNode>,
            object: Option<&Term>,
        ) -> Vec<Triple> {
            self.graph.triples_matching(subject, predicate, object)
        }

        fn id_access(&self) -> Option<&dyn IdAccess> {
            Some(self)
        }
    }

    impl IdAccess for IdGraph {
        fn term_to_id(&self, term: &Term) -> Option<u64> {
            self.by_term.get(term).copied()
        }

        fn id_to_term(&self, id: u64) -> Option<&Term> {
            self.terms.get(id as usize)
        }

        fn id_count(&self) -> u64 {
            self.terms.len() as u64
        }

        fn scan_ids_columns(
            &self,
            s: Option<u64>,
            p: Option<u64>,
            o: Option<u64>,
            out: &mut IdColumns,
        ) {
            for &(ts, tp, to) in &self.triples {
                if s.is_none_or(|s| s == ts)
                    && p.is_none_or(|p| p == tp)
                    && o.is_none_or(|o| o == to)
                {
                    out.push(ts, tp, to);
                }
            }
        }
    }

    fn sorted_rows(r: &QueryResults) -> Vec<Vec<Option<String>>> {
        let mut rows: Vec<Vec<Option<String>>> = r
            .rows()
            .iter()
            .map(|row| {
                row.values
                    .iter()
                    .map(|v| v.as_ref().map(|t| t.to_string()))
                    .collect()
            })
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn id_level_scan_matches_decoded_scan() {
        let g = test_graph();
        let idg = IdGraph::from_graph(&g);
        let probe =
            Literal::wkt("POLYGON ((2.2 48.84, 2.28 48.84, 2.28 48.89, 2.2 48.89, 2.2 48.84))");
        let mut queries = vec![
            select_all(GraphPattern::Bgp(vec![
                TriplePattern::new(
                    var("s"),
                    Term::named(vocab::rdf::TYPE),
                    Term::named(vocab::osm::POI),
                ),
                TriplePattern::new(var("s"), Term::named(vocab::osm::HAS_NAME), var("name")),
            ])),
            select_all(GraphPattern::Filter(
                Expression::Call(
                    NamedNode::new(vocab::geof::SF_INTERSECTS),
                    vec![
                        Expression::Var("wkt".into()),
                        Expression::Constant(probe.into()),
                    ],
                ),
                Box::new(GraphPattern::Bgp(vec![
                    TriplePattern::new(var("s"), Term::named(vocab::geo::HAS_GEOMETRY), var("g")),
                    TriplePattern::new(var("g"), Term::named(vocab::geo::AS_WKT), var("wkt")),
                ])),
            )),
        ];
        let bgp = |s: TP, p: TP| GraphPattern::Bgp(vec![TriplePattern::new(s, p, var("o"))]);
        // One input row (`VALUES ?s { t }`) runs the substitution path.
        let fed = |t: Term| {
            let values = GraphPattern::Values(vec!["s".into()], vec![vec![Some(t)]]);
            select_all(GraphPattern::Join(
                Box::new(values),
                Box::new(bgp(var("s"), var("p"))),
            ))
        };
        let p1 = fed(Term::named("http://ex.org/p1"));
        assert_eq!(evaluate(&g, &p1).unwrap().len(), 3);
        queries.push(p1);
        // Provably empty on both: a literal subject (stated or substituted)
        // and a constant absent from the dictionary.
        let name = Term::Literal(Literal::string("Parc Monceau"));
        let absent = Term::named("http://ex.org/nowhere");
        let empty = [
            select_all(bgp(
                name.clone().into(),
                Term::named(vocab::osm::HAS_NAME).into(),
            )),
            fed(name),
            select_all(bgp(var("s"), absent.clone().into())),
            fed(absent),
        ];
        for q in queries.iter().chain(&empty) {
            let a = evaluate(&g, q).unwrap();
            let b = evaluate(&idg, q).unwrap();
            assert_eq!(a.variables(), b.variables());
            assert_eq!(sorted_rows(&a), sorted_rows(&b));
        }
        for q in &empty {
            assert_eq!(evaluate(&idg, q).unwrap().len(), 0);
        }
    }

    #[test]
    fn large_probe_matches_reference() {
        // 5,000 subjects with two properties each: the join on ?s probes
        // 5,000 rows in one pass on the evaluating thread.
        let mut g = Graph::new();
        for i in 0..5_000 {
            let s = Resource::named(format!("http://ex.org/s{i}"));
            g.add(
                s.clone(),
                NamedNode::new("http://ex.org/kind"),
                Term::named(format!("http://ex.org/k{}", i % 7)),
            );
            g.add(
                s,
                NamedNode::new("http://ex.org/value"),
                Literal::integer(i),
            );
        }
        let q = select_all(GraphPattern::Bgp(vec![
            TriplePattern::new(var("s"), Term::named("http://ex.org/kind"), var("k")),
            TriplePattern::new(var("s"), Term::named("http://ex.org/value"), var("v")),
        ]));
        let scope = applab_obs::querystats::Scope::begin();
        let got = evaluate_with(&g, &q, &EvalOptions::default()).unwrap();
        let stats = scope.finish();
        assert!(stats.join_probe_rows >= 5_000, "{stats:?}");
        assert!(stats.joins >= 1);
        assert_eq!(stats.probe_chunks, stats.joins, "one probe pass per join");
        let expected = crate::reference::evaluate(&g, &q).unwrap();
        assert_eq!(got.len(), 5_000);
        assert_eq!(sorted_rows(&got), sorted_rows(&expected));
    }

    #[test]
    fn disjoint_fast_path_keeps_far_geometries() {
        let g = test_graph();
        // A probe box far away from both parks: sfDisjoint holds for both,
        // via the envelope precheck alone.
        let probe = Literal::wkt("POLYGON ((50 50, 51 50, 51 51, 50 51, 50 50))");
        let q = select_all(GraphPattern::Filter(
            Expression::Call(
                NamedNode::new(vocab::geof::SF_DISJOINT),
                vec![
                    Expression::Var("wkt".into()),
                    Expression::Constant(probe.into()),
                ],
            ),
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("g"),
                Term::named(vocab::geo::AS_WKT),
                var("wkt"),
            )])),
        ));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn optional_without_shared_variables() {
        // OPTIONAL whose right side shares no variables with the left: each
        // left row is extended by every right solution (cross product), and
        // nothing is lost. Exercises the provenance-slot plumbing.
        let mut g = test_graph();
        g.add(
            Resource::named("http://ex.org/x"),
            NamedNode::new("http://ex.org/flag"),
            Literal::string("on"),
        );
        let q = select_all(GraphPattern::LeftJoin(
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("s"),
                Term::named(vocab::osm::HAS_NAME),
                var("name"),
            )])),
            Box::new(GraphPattern::Bgp(vec![TriplePattern::new(
                var("f"),
                Term::named("http://ex.org/flag"),
                var("v"),
            )])),
        ));
        let r = evaluate(&g, &q).unwrap();
        assert_eq!(r.len(), 2);
        // Every row carries the optional flag bindings.
        for row in r.rows() {
            assert!(row.get(r.variables(), "v").is_some());
        }
    }

    fn any_query() -> Query {
        select_all(GraphPattern::Bgp(vec![TriplePattern::new(
            var("s"),
            Term::named(vocab::osm::HAS_NAME),
            var("name"),
        )]))
    }

    #[test]
    fn zero_budget_times_out_without_partial_results() {
        let g = test_graph();
        let q = any_query();
        let options = EvalOptions {
            budget: Budget::with_deadline(Duration::ZERO),
            ..EvalOptions::default()
        };
        match evaluate_with(&g, &q, &options) {
            Err(EvalError::Timeout(d)) => assert_eq!(d, Duration::ZERO),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn cancellation_token_aborts_evaluation() {
        let g = test_graph();
        let q = any_query();
        let token = Arc::new(AtomicBool::new(true));
        let options = EvalOptions {
            budget: Budget::unlimited().cancelled_by(token),
            ..EvalOptions::default()
        };
        assert_eq!(evaluate_with(&g, &q, &options), Err(EvalError::Cancelled));
    }

    #[test]
    fn generous_budget_matches_unlimited_results() {
        let g = test_graph();
        let q = any_query();
        let unlimited = evaluate(&g, &q).unwrap();
        let options = EvalOptions {
            budget: Budget::with_deadline(Duration::from_secs(60))
                .cancelled_by(Arc::new(AtomicBool::new(false))),
            ..EvalOptions::default()
        };
        assert_eq!(evaluate_with(&g, &q, &options).unwrap(), unlimited);
    }

    /// `batch_size` is a pure windowing knob: any value (including the
    /// degenerate 1 and the single-window `usize::MAX`) must produce
    /// byte-identical serializations across query shapes that exercise
    /// FILTER windows, LIMIT/OFFSET slicing, grouping and OPTIONAL.
    #[test]
    fn results_identical_across_batch_sizes() {
        let g = test_graph();
        let queries = [
            "PREFIX osm: <http://www.app-lab.eu/osm/>\n\
             SELECT ?s ?name WHERE { ?s osm:hasName ?name } ORDER BY ?name",
            "PREFIX osm: <http://www.app-lab.eu/osm/>\n\
             SELECT ?name WHERE { ?s osm:hasName ?name FILTER(STRLEN(?name) > 4) } \
             ORDER BY ?name LIMIT 1 OFFSET 1",
            "PREFIX osm: <http://www.app-lab.eu/osm/>\n\
             SELECT (COUNT(?s) AS ?n) WHERE { ?s osm:hasName ?name }",
            "PREFIX osm: <http://www.app-lab.eu/osm/>\n\
             PREFIX geo: <http://www.opengis.net/ont/geosparql#>\n\
             SELECT ?s ?wkt WHERE { ?s osm:hasName ?name . \
             OPTIONAL { ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt } } ORDER BY ?s",
        ];
        for text in queries {
            let q = crate::parser::parse_query(text).expect("static query parses");
            let reference = evaluate(&g, &q).unwrap();
            assert!(!reference.is_empty(), "vacuous comparison for {text}");
            let golden = reference.to_json();
            for batch_size in [1, 7, 1024, usize::MAX] {
                let options = EvalOptions {
                    batch_size,
                    ..EvalOptions::default()
                };
                assert_eq!(
                    evaluate_with(&g, &q, &options).unwrap().to_json(),
                    golden,
                    "batch_size={batch_size} drifted on {text}"
                );
            }
        }
    }

    /// The envelope kernel's direct rectangle assembly must stay
    /// byte-identical to serializing the rectangle polygon through the
    /// generic WKT writer.
    #[test]
    fn rect_wkt_matches_generic_wkt_writer() {
        for (min_x, min_y, max_x, max_y) in [
            (2.21, 48.85, 2.27, 48.88),
            (-180.0, -90.0, 180.0, 90.0),
            (0.0, 0.0, 0.0, 0.0),
            (-1.5e-9, 3.25, 7.125e12, 1.0 / 3.0),
        ] {
            let e = Envelope::new(min_x, min_y, max_x, max_y);
            let via_writer = applab_geo::write_wkt(&applab_geo::Geometry::Polygon(
                applab_geo::Polygon::rect(min_x, min_y, max_x, max_y),
            ));
            assert_eq!(rect_wkt(&e), via_writer);
        }
    }

    /// The per-comparison ORDER BY sort the key-vector sort replaced: it
    /// rebuilds both bindings and re-evaluates every key on every
    /// comparison. Kept as the oracle for [`order_permutation`].
    fn sort_rows_per_comparison(rows: &mut [Row], variables: &[String], keys: &[OrderKey]) {
        rows.sort_by(|a, b| {
            for key in keys {
                let va = eval_expr(&key.expr, &row_binding(a, variables)).ok();
                let vb = eval_expr(&key.expr, &row_binding(b, variables)).ok();
                let ord = match (va, vb) {
                    (Some(x), Some(y)) => {
                        compare_terms(&x, &y).unwrap_or_else(|| x.to_string().cmp(&y.to_string()))
                    }
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (None, None) => std::cmp::Ordering::Equal,
                };
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }

    /// Sorting over key vectors evaluated once per row gives exactly the
    /// per-comparison sort's permutation — ties (kept in input order),
    /// unbound and erroring keys, mixed term kinds, DESC and multi-key
    /// orders — with rows × keys key evaluations.
    #[test]
    fn order_by_evaluates_each_key_once_per_row() {
        let variables: Vec<String> = ["id", "k", "m"].map(String::from).to_vec();
        let k_values: Vec<Option<Term>> = vec![
            Some(Literal::integer(3).into()),
            None,
            Some(Literal::double(1.0).into()),
            Some(Literal::string("pear").into()),
            Some(Literal::integer(1).into()),
            Some(Term::named("http://ex.org/b")),
            Some(Literal::lang("pear", "en").into()),
            None,
            Some(Term::Blank(applab_rdf::BlankNode::new("n1"))),
            Some(Literal::integer(3).into()),
            Some(Literal::string("apple").into()),
            Some(Term::named("http://ex.org/a")),
            Some(Literal::double(-2.5).into()),
        ];
        let rows: Vec<Row> = k_values
            .into_iter()
            .enumerate()
            .map(|(i, k)| Row {
                values: vec![
                    Some(Literal::integer(i as i64).into()),
                    k,
                    (i % 3 != 2).then(|| Literal::integer((i % 4) as i64).into()),
                ],
            })
            .collect();
        let key = |v: &str, descending: bool| OrderKey {
            expr: Expression::Var(v.into()),
            descending,
        };
        let k_plus_one = OrderKey {
            expr: Expression::Add(
                Box::new(Expression::Var("k".into())),
                Box::new(Expression::Constant(Literal::integer(1).into())),
            ),
            descending: true,
        };
        let orders: Vec<Vec<OrderKey>> = vec![
            vec![key("k", false)],
            vec![key("k", true)],
            vec![key("m", false), key("k", true)],
            vec![key("m", true), k_plus_one.clone(), key("k", false)],
            vec![k_plus_one],
            vec![key("unknown", false)],
        ];
        for keys in &orders {
            let mut expected = rows.clone();
            sort_rows_per_comparison(&mut expected, &variables, keys);
            let mut calls = 0usize;
            let order = order_permutation(&rows, &variables, keys, &mut |e, b| {
                calls += 1;
                eval_expr(e, b).ok()
            });
            assert_eq!(calls, rows.len() * keys.len(), "{keys:?}");
            let got: Vec<Row> = order.iter().map(|&i| rows[i].clone()).collect();
            assert_eq!(got, expected, "{keys:?}");
            let mut sorted = rows.clone();
            sort_rows(&mut sorted, &variables, keys);
            assert_eq!(sorted, expected, "{keys:?}");
        }
    }

    /// DISTINCT as it keyed rows before it keyed them by ids: by the
    /// printed form of each projected term.
    fn distinct_by_printed_terms(rows: &[Row]) -> Vec<Row> {
        let mut seen = HashSet::new();
        rows.iter()
            .filter(|r| {
                let key: Vec<Option<String>> = r
                    .values
                    .iter()
                    .map(|v| v.as_ref().map(|t| t.to_string()))
                    .collect();
                seen.insert(key)
            })
            .cloned()
            .collect()
    }

    #[test]
    fn distinct_on_ids_keeps_the_rows_of_distinct_on_terms() {
        let mut g = Graph::new();
        let p = NamedNode::new("http://ex.org/p");
        let q = NamedNode::new("http://ex.org/q");
        let objects: Vec<Term> = vec![
            Literal::typed("1", NamedNode::new(vocab::xsd::INTEGER)).into(),
            Literal::typed("1", NamedNode::new(vocab::xsd::DECIMAL)).into(),
            Literal::lang("1", "en").into(),
            Literal::string("1").into(),
            Term::named("http://ex.org/1"),
        ];
        for s in 0..4 {
            let subject = Resource::named(format!("http://ex.org/s{s}"));
            for o in &objects {
                g.add(subject.clone(), p.clone(), o.clone());
            }
            // Only even subjects bind ?x: odd rows leave the column unbound.
            if s % 2 == 0 {
                g.add(subject, q.clone(), Literal::string("x"));
            }
        }
        let ids = IdGraph::from_graph(&g);
        for order in ["", " ORDER BY ?o", " ORDER BY DESC(?x) ?o"] {
            for shape in [
                "?o ?x WHERE { ?s <http://ex.org/p> ?o OPTIONAL { ?s <http://ex.org/q> ?x } }",
                "* WHERE { ?s <http://ex.org/p> ?o OPTIONAL { ?s <http://ex.org/q> ?x } }",
            ] {
                let all = parse_query(&format!("SELECT {shape}{order}")).unwrap();
                let distinct = parse_query(&format!("SELECT DISTINCT {shape}{order}")).unwrap();
                for source in [&g as &dyn GraphSource, &ids] {
                    let QueryResults::Solutions { rows, .. } = evaluate(source, &all).unwrap()
                    else {
                        panic!("solutions expected");
                    };
                    let QueryResults::Solutions { rows: got, .. } =
                        evaluate(source, &distinct).unwrap()
                    else {
                        panic!("solutions expected");
                    };
                    assert_eq!(got, distinct_by_printed_terms(&rows), "{shape}{order}");
                }
            }
        }
        // Five objects, each with and without ?x.
        let distinct = parse_query(
            "SELECT DISTINCT ?o ?x WHERE { ?s <http://ex.org/p> ?o OPTIONAL { ?s <http://ex.org/q> ?x } }",
        )
        .unwrap();
        assert_eq!(evaluate(&g, &distinct).unwrap().len(), 10);
    }

    /// A source that declines every BGP and records, per offered
    /// component, the variables `observed` says something reads.
    struct Observing {
        graph: Graph,
        seen: std::sync::Mutex<Vec<Vec<String>>>,
    }

    impl GraphSource for Observing {
        fn triples_matching(
            &self,
            s: Option<&Resource>,
            p: Option<&applab_rdf::NamedNode>,
            o: Option<&Term>,
        ) -> Vec<Triple> {
            self.graph.triples_matching(s, p, o)
        }

        fn evaluate_bgp(
            &self,
            patterns: &[TriplePattern],
            _spatial: &HashMap<String, Envelope>,
            observed: &dyn Fn(&str) -> bool,
        ) -> Option<Vec<Binding>> {
            let mut vars: Vec<String> = Vec::new();
            for v in patterns.iter().flat_map(TriplePattern::variables) {
                if observed(v) && !vars.iter().any(|x| x == v) {
                    vars.push(v.to_string());
                }
            }
            self.seen.lock().unwrap().push(vars);
            None
        }
    }

    #[test]
    fn observed_names_what_the_rest_of_the_query_reads() {
        let source = Observing {
            graph: test_graph(),
            seen: std::sync::Mutex::new(Vec::new()),
        };
        let bgp = "?s <http://ex.org/p> ?g . ?g <http://ex.org/q> ?w";
        let cases: [(String, &[&[&str]]); 9] = [
            (format!("SELECT ?s WHERE {{ {bgp} }}"), &[&["s"]]),
            (format!("SELECT * WHERE {{ {bgp} }}"), &[&["s", "g", "w"]]),
            (format!("ASK {{ {bgp} }}"), &[&[]]),
            (format!("SELECT (COUNT(*) AS ?n) WHERE {{ {bgp} }}"), &[&[]]),
            (
                format!("SELECT ?w (COUNT(?s) AS ?n) WHERE {{ {bgp} }} GROUP BY ?w"),
                &[&["s", "w"]],
            ),
            (
                format!("SELECT ?s WHERE {{ {bgp} FILTER(BOUND(?w)) }} ORDER BY ?g"),
                &[&["s", "g", "w"]],
            ),
            (
                format!("SELECT ?s WHERE {{ {bgp} OPTIONAL {{ ?g <http://ex.org/r> ?x }} }}"),
                // The OPTIONAL's own BGP is not reached: the left side
                // is empty.
                &[&["s", "g"]],
            ),
            (
                format!("CONSTRUCT {{ ?s <http://ex.org/r> ?w }} WHERE {{ {bgp} }}"),
                &[&["s", "w"]],
            ),
            (
                format!("SELECT ?s WHERE {{ {{ {bgp} }} UNION {{ ?w <http://ex.org/r> ?y }} }}"),
                &[&["s", "w"], &["w"]],
            ),
        ];
        for (q, expected) in cases {
            source.seen.lock().unwrap().clear();
            evaluate(&source, &parse_query(&q).unwrap()).unwrap();
            let seen = source.seen.lock().unwrap().clone();
            assert_eq!(seen, expected, "{q}");
        }
    }
}
