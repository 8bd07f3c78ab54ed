//! Seeded generator of valid GeoSPARQL queries over the workspace
//! vocabularies.
//!
//! Queries are generated as a small intermediate representation
//! ([`QueryIr`]) rather than as text, so the shrinker and the metamorphic
//! transformations can manipulate them structurally and re-render. The
//! rendered text goes through the ordinary parser — the generator never
//! bypasses the front door of the engines under test.
//!
//! Generation is deterministic: `generate(seed, spec)` always produces the
//! same query, and [`case_seed`] derives per-case seeds from a run seed so
//! any case from a run of this crate's `exp_qa` binary can be replayed
//! byte-identically from the printed number alone.

use crate::dataset::{DatasetSpec, Table};
use applab_rdf::datetime::format_datetime;
use applab_sparql::algebra::{connected_components, GraphPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Derive the seed of case `index` within a run seeded with `run_seed`.
///
/// SplitMix64 over the pair: adjacent indices land far apart, and the
/// mapping is stable across releases (it is part of the replay contract).
pub fn case_seed(run_seed: u64, index: u64) -> u64 {
    applab_obs::splitmix64(
        run_seed
            .wrapping_mul(applab_obs::SPLITMIX64_GAMMA)
            .wrapping_add(index),
    )
}

/// A GeoSPARQL spatial predicate usable in the structured conjuncts.
///
/// Only the three predicates with a known monotonicity direction under
/// bbox shrinking are structured; others appear as [`Conjunct::Raw`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialFunc {
    Intersects,
    Within,
    Contains,
}

impl SpatialFunc {
    pub fn geof_name(self) -> &'static str {
        match self {
            SpatialFunc::Intersects => "sfIntersects",
            SpatialFunc::Within => "sfWithin",
            SpatialFunc::Contains => "sfContains",
        }
    }
}

/// One conjunct of a `FILTER`.
#[derive(Debug, Clone, PartialEq)]
pub enum Conjunct {
    /// Pre-rendered expression text (numeric/temporal comparisons, BOUND
    /// checks, disjunctions, ...).
    Raw(String),
    /// `geof:<func>(?var, <bbox polygon literal>)`, kept structured so the
    /// bbox-shrink metamorphic check can transform the envelope.
    SpatialBox {
        func: SpatialFunc,
        var: String,
        bbox: [f64; 4],
    },
    /// `geof:<func>(?a, ?b)` — a spatial join between two geometry vars.
    SpatialJoin {
        func: SpatialFunc,
        a: String,
        b: String,
    },
    /// `geof:distance(?var, POINT(x y)) < d`.
    DistanceWithin { var: String, x: f64, y: f64, d: f64 },
}

/// Render a WKT polygon literal for an envelope.
pub fn bbox_wkt(b: &[f64; 4]) -> String {
    let [x1, y1, x2, y2] = *b;
    format!("\"POLYGON (({x1} {y1}, {x2} {y1}, {x2} {y2}, {x1} {y2}, {x1} {y1}))\"^^geo:wktLiteral")
}

impl Conjunct {
    pub fn render(&self) -> String {
        match self {
            Conjunct::Raw(s) => s.clone(),
            Conjunct::SpatialBox { func, var, bbox } => {
                format!("geof:{}({var}, {})", func.geof_name(), bbox_wkt(bbox))
            }
            Conjunct::SpatialJoin { func, a, b } => {
                format!("geof:{}({a}, {b})", func.geof_name())
            }
            Conjunct::DistanceWithin { var, x, y, d } => {
                format!("geof:distance({var}, \"POINT ({x} {y})\"^^geo:wktLiteral) < {d}")
            }
        }
    }

    /// Variables mentioned by the conjunct (with their `?`).
    fn vars(&self) -> Vec<String> {
        match self {
            Conjunct::Raw(s) => raw_vars(s),
            Conjunct::SpatialBox { var, .. } | Conjunct::DistanceWithin { var, .. } => {
                vec![var.clone()]
            }
            Conjunct::SpatialJoin { a, b, .. } => vec![a.clone(), b.clone()],
        }
    }
}

/// Extract `?var` tokens from rendered expression text.
fn raw_vars(s: &str) -> Vec<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'?' {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if i > start + 1 {
                out.push(s[start..i].to_string());
            }
        } else {
            i += 1;
        }
    }
    out
}

/// One element of a group graph pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Elem {
    /// `s p o .` — positions are rendered term strings; variables carry
    /// their leading `?`.
    Triple(String, String, String),
    /// `FILTER(c1 && c2 && ...)`.
    Filter(Vec<Conjunct>),
    /// `OPTIONAL { ... }`.
    Optional(Vec<Elem>),
    /// `{ ... } UNION { ... }`.
    Union(Vec<Elem>, Vec<Elem>),
    /// `BIND(expr AS ?var)`.
    Bind(String, String),
    /// `VALUES ?var { t1 t2 ... }`.
    Values(String, Vec<String>),
}

impl Elem {
    pub fn render(&self) -> String {
        match self {
            Elem::Triple(s, p, o) => format!("{s} {p} {o} ."),
            Elem::Filter(cs) => {
                let body: Vec<String> = cs.iter().map(Conjunct::render).collect();
                format!("FILTER({})", body.join(" && "))
            }
            Elem::Optional(inner) => format!("OPTIONAL {{ {} }}", render_elems(inner)),
            Elem::Union(a, b) => {
                format!("{{ {} }} UNION {{ {} }}", render_elems(a), render_elems(b))
            }
            Elem::Bind(expr, var) => format!("BIND({expr} AS {var})"),
            Elem::Values(var, terms) => format!("VALUES {var} {{ {} }}", terms.join(" ")),
        }
    }

    fn collect_bound(&self, out: &mut BTreeSet<String>) {
        match self {
            Elem::Triple(s, p, o) => {
                for t in [s, p, o] {
                    if t.starts_with('?') {
                        out.insert(t.clone());
                    }
                }
            }
            Elem::Filter(_) => {}
            Elem::Optional(inner) => {
                for e in inner {
                    e.collect_bound(out);
                }
            }
            Elem::Union(a, b) => {
                for e in a.iter().chain(b) {
                    e.collect_bound(out);
                }
            }
            Elem::Bind(_, var) | Elem::Values(var, _) => {
                out.insert(var.clone());
            }
        }
    }
}

fn render_elems(elems: &[Elem]) -> String {
    let parts: Vec<String> = elems.iter().map(Elem::render).collect();
    parts.join(" ")
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `?v`.
    Var(String),
    /// `(FUNC(?v) AS ?alias)`; `var: None` renders `COUNT(*)`.
    Agg {
        func: &'static str,
        var: Option<String>,
        alias: String,
    },
}

impl SelectItem {
    fn render(&self) -> String {
        match self {
            SelectItem::Var(v) => v.clone(),
            SelectItem::Agg { func, var, alias } => match var {
                Some(v) => format!("({func}({v}) AS {alias})"),
                None => format!("(COUNT(*) AS {alias})"),
            },
        }
    }

    fn is_agg(&self) -> bool {
        matches!(self, SelectItem::Agg { .. })
    }
}

/// The structured query the generator produces and the shrinker consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryIr {
    pub ask: bool,
    pub distinct: bool,
    /// Empty means `SELECT *`.
    pub select: Vec<SelectItem>,
    pub body: Vec<Elem>,
    pub group_by: Vec<String>,
    /// `(variable, descending)` pairs.
    pub order_by: Vec<(String, bool)>,
    pub limit: Option<usize>,
    pub offset: usize,
}

impl QueryIr {
    /// Render to SPARQL text (single line, deterministic).
    pub fn render(&self) -> String {
        let mut s = String::new();
        if self.ask {
            s.push_str("ASK WHERE { ");
        } else {
            s.push_str("SELECT ");
            if self.distinct {
                s.push_str("DISTINCT ");
            }
            if self.select.is_empty() {
                s.push_str("* ");
            } else {
                for item in &self.select {
                    s.push_str(&item.render());
                    s.push(' ');
                }
            }
            s.push_str("WHERE { ");
        }
        s.push_str(&render_elems(&self.body));
        s.push_str(" }");
        if !self.group_by.is_empty() {
            s.push_str(" GROUP BY ");
            s.push_str(&self.group_by.join(" "));
        }
        if !self.order_by.is_empty() {
            s.push_str(" ORDER BY");
            for (v, desc) in &self.order_by {
                if *desc {
                    s.push_str(&format!(" DESC({v})"));
                } else {
                    s.push_str(&format!(" {v}"));
                }
            }
        }
        if let Some(l) = self.limit {
            s.push_str(&format!(" LIMIT {l}"));
        }
        if self.offset > 0 {
            s.push_str(&format!(" OFFSET {}", self.offset));
        }
        s
    }

    /// Variables bound anywhere in the body (OPTIONAL and UNION branches
    /// included, so possibly-unbound variables are still "in scope").
    pub fn bound_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for e in &self.body {
            e.collect_bound(&mut out);
        }
        out
    }

    /// Whether the result comparison must run in slice mode (LIMIT/OFFSET
    /// make any row subset of the right cardinality a legal answer).
    pub fn slice_mode(&self) -> bool {
        self.limit.is_some() || self.offset > 0
    }

    pub fn has_aggregates(&self) -> bool {
        self.select.iter().any(SelectItem::is_agg)
    }

    /// Re-establish the structural invariants after generation or after a
    /// shrinking edit: projections and ORDER BY keys reference bound
    /// variables, plain projections are grouped when aggregating, ASK
    /// carries no solution modifiers. Returns `false` when the query can
    /// not be repaired into something meaningful (empty body).
    pub fn sanitize(&mut self) -> bool {
        if self.body.is_empty() {
            return false;
        }
        let bound = self.bound_vars();
        if self.ask {
            self.select.clear();
            self.group_by.clear();
            self.order_by.clear();
            self.limit = None;
            self.offset = 0;
            self.distinct = false;
            return true;
        }
        self.select.retain(|item| match item {
            SelectItem::Var(v) => bound.contains(v),
            SelectItem::Agg { var, .. } => var.as_ref().is_none_or(|v| bound.contains(v)),
        });
        // Dedup projections by output name.
        let mut seen = BTreeSet::new();
        self.select.retain(|item| {
            let name = match item {
                SelectItem::Var(v) => v.clone(),
                SelectItem::Agg { alias, .. } => alias.clone(),
            };
            seen.insert(name)
        });
        if self.has_aggregates() {
            self.group_by.retain(|v| bound.contains(v));
            let grouped: BTreeSet<&String> = self.group_by.iter().collect();
            self.select.retain(|item| match item {
                SelectItem::Var(v) => grouped.contains(v),
                SelectItem::Agg { .. } => true,
            });
        } else {
            self.group_by.clear();
        }
        // ORDER BY keys must be visible in the solution.
        let allowed: BTreeSet<String> = if self.has_aggregates() {
            self.select
                .iter()
                .map(|i| match i {
                    SelectItem::Var(v) => v.clone(),
                    SelectItem::Agg { alias, .. } => alias.clone(),
                })
                .collect()
        } else if self.select.is_empty() {
            bound.clone()
        } else {
            self.select
                .iter()
                .map(|i| match i {
                    SelectItem::Var(v) => v.clone(),
                    SelectItem::Agg { alias, .. } => alias.clone(),
                })
                .collect()
        };
        let mut seen_keys = BTreeSet::new();
        self.order_by
            .retain(|(v, _)| allowed.contains(v) && seen_keys.insert(v.clone()));
        true
    }

    /// Algebra-surface features exercised by the query, for the coverage
    /// report of `exp_qa`.
    pub fn features(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        let mut push = |f: &'static str| {
            if !out.contains(&f) {
                out.push(f);
            }
        };
        if self.ask {
            push("ask");
        }
        if self.distinct {
            push("distinct");
        }
        if self.has_aggregates() {
            push("aggregate");
        }
        if !self.group_by.is_empty() {
            push("group_by");
        }
        if !self.order_by.is_empty() {
            push("order_by");
        }
        if self.limit.is_some() {
            push("limit");
        }
        if self.offset > 0 {
            push("offset");
        }
        // Batch-boundary coverage, measured against the batch windows the
        // harness forces on the pipeline engines. A slice cut (OFFSET, or
        // OFFSET+LIMIT) that is not a multiple of a window lands strictly
        // inside a batch, so the slice must split a batch rather than drop
        // whole ones.
        if self.slice_mode() {
            let cuts = [Some(self.offset), self.limit.map(|l| self.offset + l)];
            let straddles = |cut: usize| {
                cut > 0
                    && crate::harness::HARNESS_BATCH_WINDOWS
                        .iter()
                        .any(|w| !cut.is_multiple_of(*w))
            };
            if cuts.iter().flatten().any(|&c| straddles(c)) {
                push("limit_offset_batch_straddle");
            }
        }
        // Grouped aggregation over a join fan-out: members of one group
        // arrive interleaved across scan order, so with the harness's tiny
        // windows group state must survive batch edges.
        if !self.group_by.is_empty()
            && self
                .body
                .iter()
                .filter(|e| !matches!(e, Elem::Filter(_)))
                .count()
                >= 2
        {
            push("group_spans_batches");
        }
        let optional_vars = {
            let mut inner = BTreeSet::new();
            for e in &self.body {
                if let Elem::Optional(body) = e {
                    for b in body {
                        b.collect_bound(&mut inner);
                    }
                }
            }
            inner
        };
        fn walk(
            elems: &[Elem],
            optional_vars: &BTreeSet<String>,
            push: &mut dyn FnMut(&'static str),
        ) {
            for e in elems {
                match e {
                    Elem::Triple(..) => push("bgp"),
                    Elem::Filter(cs) => {
                        for c in cs {
                            match c {
                                Conjunct::Raw(s) => {
                                    if s.contains("BOUND") {
                                        push("filter_bound");
                                    } else if s.contains("xsd:dateTime") {
                                        push("filter_temporal");
                                    } else {
                                        push("filter_value");
                                    }
                                    if c.vars().iter().any(|v| optional_vars.contains(v)) {
                                        push("filter_on_optional_var");
                                    }
                                }
                                Conjunct::SpatialBox { .. } => push("filter_spatial_box"),
                                Conjunct::SpatialJoin { .. } => push("spatial_join"),
                                Conjunct::DistanceWithin { .. } => push("filter_distance"),
                            }
                        }
                    }
                    Elem::Optional(inner) => {
                        push("optional");
                        if inner.iter().any(|i| matches!(i, Elem::Filter(_))) {
                            push("optional_inner_filter");
                        }
                        walk(inner, optional_vars, push);
                    }
                    Elem::Union(a, b) => {
                        push("union");
                        walk(a, optional_vars, push);
                        walk(b, optional_vars, push);
                    }
                    Elem::Bind(..) => push("bind"),
                    Elem::Values(..) => push("values"),
                }
            }
        }
        walk(&self.body, &optional_vars, &mut push);
        // A BGP of several variable-connected components: the virtual
        // graph answers it one component at a time, with envelopes flowing
        // from answered components across `geof:sf*` links.
        if applab_sparql::parse_query(&self.render())
            .is_ok_and(|q| has_disconnected_bgp(&q.pattern))
        {
            push("disconnected_bgp");
        }
        out
    }
}

/// Whether some BGP of the parsed pattern splits into several
/// variable-connected components.
fn has_disconnected_bgp(pattern: &GraphPattern) -> bool {
    match pattern {
        GraphPattern::Bgp(patterns) => connected_components(patterns).len() > 1,
        GraphPattern::Filter(_, inner) | GraphPattern::Extend(inner, ..) => {
            has_disconnected_bgp(inner)
        }
        GraphPattern::Join(a, b) | GraphPattern::LeftJoin(a, b) | GraphPattern::Union(a, b) => {
            has_disconnected_bgp(a) || has_disconnected_bgp(b)
        }
        GraphPattern::Values(..) => false,
    }
}

// ---------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntityKind {
    Corine,
    UrbanAtlas,
    Osm,
    Gadm,
    Lai,
}

/// Per-entity context accumulated while emitting its triples.
struct EntityCtx {
    subj: String,
    wkt: Option<String>,
    /// `(var, kind)` numeric object variables; kind selects the constant
    /// range for comparisons.
    numeric: Vec<(String, NumKind)>,
    time: Option<String>,
    strs: Vec<(String, &'static str)>,
    /// Low-cardinality variables suitable for GROUP BY.
    group_candidates: Vec<String>,
    /// Variables bound only inside an OPTIONAL.
    optional_vars: Vec<String>,
    kind: EntityKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NumKind {
    ClcCode,
    Population,
    Level,
    Lai,
    Area,
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

fn num_constant(rng: &mut StdRng, kind: NumKind) -> String {
    match kind {
        NumKind::ClcCode => format!(
            "{}",
            [112, 121, 141, 211, 311, 512][rng.gen_range(0usize..6)]
        ),
        NumKind::Population => format!("{}", rng.gen_range(0i64..9000)),
        NumKind::Level => format!("{}", rng.gen_range(1i64..=2)),
        NumKind::Lai => format!("{}", round4(rng.gen_range(0.0f64..5.5))),
        NumKind::Area => format!("{}", round4(rng.gen_range(0.0001f64..0.02))),
    }
}

fn cmp_op(rng: &mut StdRng) -> &'static str {
    ["<", "<=", ">", ">=", "=", "!="][rng.gen_range(0usize..6)]
}

fn gen_bbox(rng: &mut StdRng) -> [f64; 4] {
    // Sub-envelopes of (and slightly beyond) the Paris extent
    // (2.0, 48.7)..(2.6, 49.0).
    let x1 = round4(rng.gen_range(1.95f64..2.5));
    let y1 = round4(rng.gen_range(48.65f64..48.95));
    let mut x2 = round4(x1 + rng.gen_range(0.04f64..0.5));
    let mut y2 = round4(y1 + rng.gen_range(0.04f64..0.3));
    if x2 <= x1 {
        x2 = x1 + 0.05;
    }
    if y2 <= y1 {
        y2 = y1 + 0.05;
    }
    [x1, y1, x2, y2]
}

fn entity_kinds(spec: &DatasetSpec) -> Vec<EntityKind> {
    let mut kinds = Vec::new();
    for t in &spec.tables {
        kinds.push(match t {
            Table::Corine => EntityKind::Corine,
            Table::UrbanAtlas => EntityKind::UrbanAtlas,
            Table::Osm => EntityKind::Osm,
            Table::Gadm => EntityKind::Gadm,
        });
    }
    if spec.grid {
        kinds.push(EntityKind::Lai);
    }
    kinds
}

fn gen_entity(rng: &mut StdRng, i: usize, kind: EntityKind, body: &mut Vec<Elem>) -> EntityCtx {
    let subj = format!("?s{i}");
    let mut ctx = EntityCtx {
        subj: subj.clone(),
        wkt: None,
        numeric: Vec::new(),
        time: None,
        strs: Vec::new(),
        group_candidates: Vec::new(),
        optional_vars: Vec::new(),
        kind,
    };
    let class = match kind {
        EntityKind::Corine => "clc:CorineArea",
        EntityKind::UrbanAtlas => "ua:UrbanAtlasArea",
        EntityKind::Osm => "osm:PointOfInterest",
        EntityKind::Gadm => "gadm:AdministrativeUnit",
        EntityKind::Lai => "lai:Observation",
    };
    let with_class = rng.gen_bool(0.85);
    if with_class {
        body.push(Elem::Triple(subj.clone(), "a".into(), class.into()));
    }

    // Property triples; each may be wrapped in OPTIONAL.
    let mut props: Vec<Elem> = Vec::new();
    let prop = |p: &str, o: String| Elem::Triple(subj.clone(), p.into(), o);
    match kind {
        EntityKind::Corine => {
            if rng.gen_bool(0.6) || !with_class {
                let v = format!("?code{i}");
                props.push(prop("clc:hasCode", v.clone()));
                ctx.numeric.push((v.clone(), NumKind::ClcCode));
                ctx.group_candidates.push(v);
            }
            if rng.gen_bool(0.35) {
                let v = format!("?cls{i}");
                props.push(prop("clc:hasCorineValue", v.clone()));
                ctx.group_candidates.push(v);
            }
        }
        EntityKind::UrbanAtlas => {
            if rng.gen_bool(0.7) || !with_class {
                let v = format!("?pop{i}");
                props.push(prop("ua:hasPopulation", v.clone()));
                ctx.numeric.push((v, NumKind::Population));
            }
            if rng.gen_bool(0.3) {
                let v = format!("?cls{i}");
                props.push(prop("ua:hasClass", v.clone()));
                ctx.group_candidates.push(v);
            }
        }
        EntityKind::Osm => {
            if rng.gen_bool(0.75) || !with_class {
                if rng.gen_bool(0.45) {
                    let kinds = ["osm:park", "osm:forest", "osm:industrial"];
                    props.push(prop("osm:poiType", kinds[rng.gen_range(0usize..3)].into()));
                } else {
                    let v = format!("?kind{i}");
                    props.push(prop("osm:poiType", v.clone()));
                    ctx.group_candidates.push(v);
                }
            }
            if rng.gen_bool(0.4) {
                let v = format!("?name{i}");
                props.push(prop("osm:hasName", v.clone()));
                ctx.strs.push((v, "name"));
            }
        }
        EntityKind::Gadm => {
            if rng.gen_bool(0.6) || !with_class {
                let v = format!("?lvl{i}");
                props.push(prop("gadm:hasLevel", v.clone()));
                ctx.numeric.push((v.clone(), NumKind::Level));
                ctx.group_candidates.push(v);
            }
            if rng.gen_bool(0.3) {
                let v = format!("?name{i}");
                props.push(prop("gadm:hasName", v.clone()));
                ctx.strs.push((v, "name"));
            }
            if rng.gen_bool(0.25) {
                let v = format!("?country{i}");
                props.push(prop("gadm:hasCountry", v.clone()));
                ctx.strs.push((v, "country"));
            }
        }
        EntityKind::Lai => {
            if rng.gen_bool(0.85) || !with_class {
                let v = format!("?lai{i}");
                props.push(prop("lai:hasLai", v.clone()));
                ctx.numeric.push((v, NumKind::Lai));
            }
            if rng.gen_bool(0.5) {
                let v = format!("?t{i}");
                props.push(prop("time:hasTime", v.clone()));
                ctx.time = Some(v);
            }
        }
    }

    // Maybe wrap the last property triple in an OPTIONAL, sometimes with a
    // filter scoped inside it.
    if !props.is_empty() && rng.gen_bool(0.3) {
        let wrapped = props.pop().unwrap();
        let mut inner = vec![wrapped.clone()];
        if let Elem::Triple(_, _, o) = &wrapped {
            if o.starts_with('?') {
                ctx.optional_vars.push(o.clone());
                let numeric = ctx.numeric.iter().find(|(v, _)| v == o).map(|(_, k)| *k);
                if let (Some(k), true) = (numeric, rng.gen_bool(0.35)) {
                    let c = num_constant(rng, k);
                    inner.push(Elem::Filter(vec![Conjunct::Raw(format!(
                        "{o} {} {c}",
                        cmp_op(rng)
                    ))]));
                }
            }
        }
        body.append(&mut props);
        body.push(Elem::Optional(inner));
    } else {
        body.append(&mut props);
    }

    // Geometry chain.
    if rng.gen_bool(0.75) {
        let g = format!("?g{i}");
        let w = format!("?w{i}");
        body.push(Elem::Triple(
            subj.clone(),
            "geo:hasGeometry".into(),
            g.clone(),
        ));
        body.push(Elem::Triple(g, "geo:asWKT".into(), w.clone()));
        ctx.wkt = Some(w);
    }
    ctx
}

/// Generate the query for one case seed over the vocabularies present in
/// `spec`. Deterministic in `(seed, spec)`.
pub fn generate(seed: u64, spec: &DatasetSpec) -> QueryIr {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds = entity_kinds(spec);
    assert!(!kinds.is_empty(), "dataset spec exposes no vocabulary");

    let n_entities = if kinds.len() > 1 && rng.gen_bool(0.35) {
        2
    } else {
        1
    };
    let mut body: Vec<Elem> = Vec::new();
    let mut entities = Vec::new();
    for i in 0..n_entities {
        let kind = kinds[rng.gen_range(0usize..kinds.len())];
        entities.push(gen_entity(&mut rng, i, kind, &mut body));
    }

    // UNION over a low-cardinality property of entity 0.
    let e0_kind = entities[0].kind;
    if rng.gen_bool(0.2) {
        let s0 = entities[0].subj.clone();
        let branches: Option<(Elem, Elem)> = match e0_kind {
            EntityKind::Osm => Some((
                Elem::Triple(s0.clone(), "osm:poiType".into(), "osm:park".into()),
                Elem::Triple(s0, "osm:poiType".into(), "osm:forest".into()),
            )),
            EntityKind::Corine => Some((
                Elem::Triple(s0.clone(), "clc:hasCode".into(), "141".into()),
                Elem::Triple(s0, "clc:hasCode".into(), "311".into()),
            )),
            EntityKind::Gadm => Some((
                Elem::Triple(s0.clone(), "gadm:hasLevel".into(), "1".into()),
                Elem::Triple(s0, "gadm:hasLevel".into(), "2".into()),
            )),
            _ => None,
        };
        if let Some((l, r)) = branches {
            body.push(Elem::Union(vec![l], vec![r]));
        }
    }

    // VALUES over OSM poi kinds.
    if e0_kind == EntityKind::Osm && rng.gen_bool(0.25) {
        let v = "?vk0".to_string();
        body.push(Elem::Triple(
            entities[0].subj.clone(),
            "osm:poiType".into(),
            v.clone(),
        ));
        body.push(Elem::Values(
            v.clone(),
            vec!["osm:park".into(), "osm:forest".into()],
        ));
        entities[0].group_candidates.push(v);
    }

    // BIND on a geometry (area) or a numeric variable.
    let mut bind_var: Option<(String, NumKind)> = None;
    if rng.gen_bool(0.2) {
        if let Some(w) = entities.iter().find_map(|e| e.wkt.clone()) {
            let v = "?b0".to_string();
            body.push(Elem::Bind(format!("geof:area({w})"), v.clone()));
            bind_var = Some((v, NumKind::Area));
        } else if let Some((nv, k)) = entities.iter().find_map(|e| e.numeric.first().cloned()) {
            let v = "?b0".to_string();
            body.push(Elem::Bind(format!("{nv} + 100"), v.clone()));
            bind_var = Some((v, k));
        }
    }

    // Filters.
    let mut conjuncts: Vec<Conjunct> = Vec::new();
    let all_numeric: Vec<(String, NumKind)> = entities
        .iter()
        .flat_map(|e| e.numeric.iter().cloned())
        .chain(bind_var.clone())
        .collect();
    for (v, k) in &all_numeric {
        if conjuncts.len() < 3 && rng.gen_bool(0.4) {
            let op = cmp_op(&mut rng);
            let c = num_constant(&mut rng, *k);
            if rng.gen_bool(0.15) {
                // A disjunction with a second numeric constraint.
                let c2 = num_constant(&mut rng, *k);
                conjuncts.push(Conjunct::Raw(format!(
                    "({v} {op} {c} || {v} {} {c2})",
                    cmp_op(&mut rng)
                )));
            } else {
                conjuncts.push(Conjunct::Raw(format!("{v} {op} {c}")));
            }
        }
    }
    for e in &entities {
        if let Some(w) = &e.wkt {
            if conjuncts.len() < 4 && rng.gen_bool(0.5) {
                let func = match rng.gen_range(0u32..5) {
                    0..=2 => SpatialFunc::Intersects,
                    3 => SpatialFunc::Within,
                    _ => SpatialFunc::Contains,
                };
                conjuncts.push(Conjunct::SpatialBox {
                    func,
                    var: w.clone(),
                    bbox: gen_bbox(&mut rng),
                });
            } else if rng.gen_bool(0.12) {
                conjuncts.push(Conjunct::DistanceWithin {
                    var: w.clone(),
                    x: round4(rng.gen_range(2.0f64..2.6)),
                    y: round4(rng.gen_range(48.7f64..49.0)),
                    d: round4(rng.gen_range(0.02f64..0.35)),
                });
            }
        }
        if let Some(t) = &e.time {
            if rng.gen_bool(0.5) {
                let month = rng.gen_range(1u64..=6);
                let ts = applab_array::time::days_from_civil(2017, month as u32, 1) * 86_400;
                let op = [">", ">=", "<", "<="][rng.gen_range(0usize..4)];
                conjuncts.push(Conjunct::Raw(format!(
                    "{t} {op} \"{}\"^^xsd:dateTime",
                    format_datetime(ts)
                )));
            }
        }
        if let Some((sv, which)) = e.strs.first() {
            if rng.gen_bool(0.2) {
                let val = if *which == "country" { "FRA" } else { "Zone 3" };
                let op = if rng.gen_bool(0.7) { "=" } else { "!=" };
                conjuncts.push(Conjunct::Raw(format!("{sv} {op} \"{val}\"")));
            }
        }
    }
    // Spatial join between two entities.
    if entities.len() == 2 {
        if let (Some(a), Some(b)) = (entities[0].wkt.clone(), entities[1].wkt.clone()) {
            if rng.gen_bool(0.65) {
                let func = if rng.gen_bool(0.75) {
                    SpatialFunc::Intersects
                } else {
                    SpatialFunc::Within
                };
                conjuncts.push(Conjunct::SpatialJoin { func, a, b });
            }
        }
    }
    // Filters over possibly-unbound OPTIONAL variables: BOUND checks and
    // bare comparisons (the error-to-false path).
    let optional_vars: Vec<String> = entities
        .iter()
        .flat_map(|e| e.optional_vars.iter().cloned())
        .collect();
    if let Some(ov) = optional_vars.first() {
        if rng.gen_bool(0.35) {
            if rng.gen_bool(0.5) {
                conjuncts.push(Conjunct::Raw(format!("BOUND({ov})")));
            } else {
                conjuncts.push(Conjunct::Raw(format!("!BOUND({ov})")));
            }
        } else if rng.gen_bool(0.3) {
            let k = entities
                .iter()
                .flat_map(|e| e.numeric.iter())
                .find(|(v, _)| v == ov)
                .map(|(_, k)| *k);
            if let Some(k) = k {
                let c = num_constant(&mut rng, k);
                conjuncts.push(Conjunct::Raw(format!("{ov} {} {c}", cmp_op(&mut rng))));
            }
        }
    }

    if !conjuncts.is_empty() {
        if conjuncts.len() >= 2 && rng.gen_bool(0.5) {
            // Split into two FILTER elements.
            let tail = conjuncts.split_off(conjuncts.len() / 2);
            body.push(Elem::Filter(conjuncts));
            body.push(Elem::Filter(tail));
        } else {
            body.push(Elem::Filter(conjuncts));
        }
    }

    // Projection.
    let mut ir = QueryIr {
        ask: false,
        distinct: false,
        select: Vec::new(),
        body,
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: 0,
    };
    let bound: Vec<String> = ir.bound_vars().into_iter().collect();

    if rng.gen_bool(0.08) {
        ir.ask = true;
        ir.sanitize();
        return ir;
    }

    let group_candidates: Vec<String> = entities
        .iter()
        .flat_map(|e| e.group_candidates.iter().cloned())
        .collect();
    if rng.gen_bool(0.25) {
        // Aggregate projection.
        if !group_candidates.is_empty() && rng.gen_bool(0.7) {
            let g = group_candidates[rng.gen_range(0usize..group_candidates.len())].clone();
            ir.group_by.push(g.clone());
            ir.select.push(SelectItem::Var(g));
        }
        let n_aggs = rng.gen_range(1usize..=2);
        for alias in 0..n_aggs {
            let func_pick = rng.gen_range(0u32..6);
            let item = match func_pick {
                0 => SelectItem::Agg {
                    func: "COUNT",
                    var: None,
                    alias: format!("?agg{alias}"),
                },
                1 => SelectItem::Agg {
                    func: "COUNT",
                    var: Some(bound[rng.gen_range(0usize..bound.len())].clone()),
                    alias: format!("?agg{alias}"),
                },
                2 | 3 => {
                    if let Some((v, _)) = all_numeric.first() {
                        SelectItem::Agg {
                            func: if func_pick == 2 { "SUM" } else { "AVG" },
                            var: Some(v.clone()),
                            alias: format!("?agg{alias}"),
                        }
                    } else {
                        SelectItem::Agg {
                            func: "COUNT",
                            var: None,
                            alias: format!("?agg{alias}"),
                        }
                    }
                }
                _ => {
                    let v = bound[rng.gen_range(0usize..bound.len())].clone();
                    SelectItem::Agg {
                        func: if func_pick == 4 { "MIN" } else { "MAX" },
                        var: Some(v),
                        alias: format!("?agg{alias}"),
                    }
                }
            };
            ir.select.push(item);
        }
    } else if rng.gen_bool(0.6) && !bound.is_empty() {
        // Explicit projection of a subset of the bound variables.
        let n = rng.gen_range(1usize..=bound.len().min(4));
        let mut picked = BTreeSet::new();
        for _ in 0..n {
            picked.insert(bound[rng.gen_range(0usize..bound.len())].clone());
        }
        ir.select = picked.into_iter().map(SelectItem::Var).collect();
        ir.distinct = rng.gen_bool(0.25);
    } else {
        // SELECT *.
        ir.distinct = rng.gen_bool(0.15);
    }

    // Solution modifiers.
    if rng.gen_bool(0.3) {
        let candidates: Vec<String> = if ir.has_aggregates() {
            ir.select
                .iter()
                .map(|i| match i {
                    SelectItem::Var(v) => v.clone(),
                    SelectItem::Agg { alias, .. } => alias.clone(),
                })
                .collect()
        } else if ir.select.is_empty() {
            bound.clone()
        } else {
            ir.select
                .iter()
                .map(|i| match i {
                    SelectItem::Var(v) => v.clone(),
                    SelectItem::Agg { alias, .. } => alias.clone(),
                })
                .collect()
        };
        if !candidates.is_empty() {
            let n = rng.gen_range(1usize..=candidates.len().min(2));
            for _ in 0..n {
                let v = candidates[rng.gen_range(0usize..candidates.len())].clone();
                let desc = rng.gen_bool(0.4);
                ir.order_by.push((v, desc));
            }
        }
    }
    if rng.gen_bool(0.3) {
        ir.limit = Some(rng.gen_range(1usize..=15));
        if rng.gen_bool(0.25) {
            ir.offset = rng.gen_range(1usize..=4);
        }
    }

    ir.sanitize();
    ir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DatasetSpec {
        DatasetSpec::small(1)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for i in 0..50 {
            let s = case_seed(7, i);
            let a = generate(s, &spec());
            let b = generate(s, &spec());
            assert_eq!(a, b);
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn case_seeds_spread() {
        // Part of the replay contract: a failure report's (run seed,
        // index) must regenerate the same case in every release.
        assert_eq!(
            (0..4).map(|i| case_seed(1, i)).collect::<Vec<_>>(),
            [
                0x6e789e6aa1b965f4,
                0xbeeb8da1658eec67,
                0xbfc846100bfc1e42,
                0xb3466f8a7b81a989
            ]
        );
        let mut seen = std::collections::HashSet::new();
        for run in 1..=3u64 {
            for i in 0..1000 {
                assert!(seen.insert(case_seed(run, i)), "collision at {run}/{i}");
            }
        }
    }

    #[test]
    fn every_generated_query_parses() {
        let spec = spec();
        for i in 0..300 {
            let ir = generate(case_seed(1, i), &spec);
            let text = ir.render();
            applab_sparql::parse_query(&text)
                .unwrap_or_else(|e| panic!("case {i} failed to parse: {e}\n{text}"));
        }
    }

    #[test]
    fn surface_coverage_is_broad() {
        let spec = spec();
        let mut seen: BTreeSet<&'static str> = BTreeSet::new();
        for i in 0..500 {
            seen.extend(generate(case_seed(1, i), &spec).features());
        }
        for must in [
            "bgp",
            "optional",
            "union",
            "bind",
            "values",
            "filter_value",
            "filter_spatial_box",
            "filter_temporal",
            "spatial_join",
            "aggregate",
            "group_by",
            "order_by",
            "limit",
            "offset",
            "distinct",
            "ask",
            "optional_inner_filter",
            "limit_offset_batch_straddle",
            "group_spans_batches",
            "disconnected_bgp",
        ] {
            assert!(
                seen.contains(must),
                "500 cases never produced {must}: {seen:?}"
            );
        }
    }

    #[test]
    fn sanitize_rejects_empty_bodies_and_strips_ask_modifiers() {
        let mut empty = QueryIr {
            ask: false,
            distinct: false,
            select: vec![],
            body: vec![],
            group_by: vec![],
            order_by: vec![],
            limit: None,
            offset: 0,
        };
        assert!(!empty.sanitize());
        let mut ask = QueryIr {
            ask: true,
            distinct: true,
            select: vec![SelectItem::Var("?x".into())],
            body: vec![Elem::Triple(
                "?x".into(),
                "a".into(),
                "clc:CorineArea".into(),
            )],
            group_by: vec![],
            order_by: vec![("?x".into(), false)],
            limit: Some(3),
            offset: 1,
        };
        assert!(ask.sanitize());
        assert_eq!(ask.render(), "ASK WHERE { ?x a clc:CorineArea . }");
    }
}
