//! Virtual semantic geospatial graphs.
//!
//! A [`VirtualGraph`] binds GeoTriples-format mappings to a relational
//! [`DataSource`] and exposes the result as a SPARQL
//! [`GraphSource`] — "without materializing any triples or tables"
//! (Section 3.2). Triples are produced on demand, per query:
//!
//! * pattern-at-a-time access runs each mapping's source query and expands
//!   its templates, filtering against the requested pattern;
//! * the whole-BGP hook ([`GraphSource::evaluate_bgp`]) reproduces Ontop's
//!   SPARQL→SQL rewriting: when every triple pattern of a BGP can only be
//!   produced by one template, all of *one* mapping, the BGP is answered
//!   with a single scan of that mapping's source — no self-joins, with the
//!   R-tree access path when a spatial constraint applies to a geometry
//!   column.

use crate::engine::DataSource;
use crate::sql::{FromClause, SourceQuery};
use crate::ObdaError;
use applab_geo::Envelope;
use applab_geotriples::mapping::{Mapping, StringTemplate, TermTemplate, TripleTemplate};
use applab_geotriples::{Row, Value};
use applab_rdf::{vocab, NamedNode, Resource, Term, Triple};
use applab_sparql::algebra::{connected_components, TermPattern, TriplePattern};
use applab_sparql::expr::Binding;
use applab_sparql::GraphSource;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

struct CompiledMapping {
    mapping: Mapping,
    query: SourceQuery,
    /// Constant predicate IRI of each target template (`None` when the
    /// predicate itself is templated — unusual but legal).
    predicate_of: Vec<Option<String>>,
    /// Whether every subject template is a key of the source: no two
    /// selected rows expand it to the same term. The whole-BGP rewrite
    /// answers one solution per row, which is only exact under this.
    keyed: bool,
    /// Template columns the source query projects and its table never
    /// leaves null: a row always expands them, so the whole-BGP rewrite
    /// neither checks nor fetches them for a variable it does not bind.
    never_null: Vec<String>,
}

/// A virtual RDF graph over mappings + a relational source.
pub struct VirtualGraph {
    source: DataSource,
    mappings: Vec<CompiledMapping>,
    /// Per-mapping row cache for **base-table** sources (the "DBMS
    /// optimizations" of the local path). Remote `opendap` sources are
    /// never cached here — their own window cache governs freshness.
    row_cache: Mutex<HashMap<usize, Arc<Vec<Row>>>>,
    /// Structural planner statistics derived from the mappings alone —
    /// compiled at seal time without touching the data source, so remote
    /// (OPeNDAP) sources see no extra round trips.
    stats: applab_sparql::plan::Stats,
}

impl VirtualGraph {
    /// Compile mappings against a data source. Every mapping's `source`
    /// clause must parse as a [`SourceQuery`].
    pub fn new(source: DataSource, mappings: Vec<Mapping>) -> Result<Self, ObdaError> {
        let compiled = mappings
            .into_iter()
            .map(|m| {
                let query = SourceQuery::parse(&m.source)
                    .map_err(|e| ObdaError::Mapping(format!("mapping {}: {e}", m.id)))?;
                let predicate_of = m
                    .target
                    .iter()
                    .map(|t| constant_expansion(&t.predicate))
                    .collect();
                let keyed = subjects_are_keys(&source, &m, &query);
                let mut never_null: Vec<String> = Vec::new();
                for t in &m.target {
                    for c in template_positions(t)
                        .into_iter()
                        .flat_map(TermTemplate::columns)
                    {
                        if query.projects(c)
                            && source.never_null(&query.from, c)
                            && !never_null.iter().any(|n| n == c)
                        {
                            never_null.push(c.to_string());
                        }
                    }
                }
                Ok(CompiledMapping {
                    mapping: m,
                    query,
                    predicate_of,
                    keyed,
                    never_null,
                })
            })
            .collect::<Result<Vec<_>, ObdaError>>()?;
        let stats = structural_stats(&compiled);
        Ok(VirtualGraph {
            source,
            mappings: compiled,
            row_cache: Mutex::new(HashMap::new()),
            stats,
        })
    }

    /// Fetch a mapping's source rows, through the base-table cache when
    /// there is no access-path hint. `reading` names the only columns the
    /// caller reads (see [`DataSource::execute`]); a cached base table
    /// keeps the query's whole projection.
    fn rows_for(
        &self,
        idx: usize,
        cm: &CompiledMapping,
        hint: Option<(&str, &Envelope)>,
        reading: Option<&[String]>,
    ) -> Result<Arc<Vec<Row>>, ObdaError> {
        let cacheable = hint.is_none() && matches!(cm.query.from, FromClause::Table(_));
        if cacheable {
            if let Some(rows) = self
                .row_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(&idx)
            {
                return Ok(rows.clone());
            }
        }
        let reading = if cacheable { None } else { reading };
        let rows = Arc::new(self.source.execute(&cm.query, hint, reading)?);
        if cacheable {
            self.row_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(idx, rows.clone());
        }
        Ok(rows)
    }

    /// Expand every mapping into a fully materialized graph (the
    /// "materialize the data" alternative of Section 5; used by tests to
    /// check virtual ≡ materialized, and by benches as the baseline).
    pub fn materialize(&self) -> Result<applab_rdf::Graph, ObdaError> {
        let mut span = applab_obs::span("obda.materialize");
        span.record("mappings", self.mappings.len());
        let mut g = applab_rdf::Graph::new();
        for (idx, cm) in self.mappings.iter().enumerate() {
            let rows = self.rows_for(idx, cm, None, None)?;
            for row in rows.iter() {
                for template in &cm.mapping.target {
                    if let Some(t) = template.expand(row) {
                        g.insert(t);
                    }
                }
            }
        }
        span.record("triples", g.len());
        Ok(g)
    }

    /// All triples of one mapping matching a (s?, p?, o?) pattern.
    #[allow(clippy::too_many_arguments)]
    fn mapping_triples(
        &self,
        idx: usize,
        cm: &CompiledMapping,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        object: Option<&Term>,
        spatial: Option<&Envelope>,
        out: &mut Vec<Triple>,
    ) {
        // Skip mappings that cannot produce the requested predicate.
        let relevant: Vec<usize> = cm
            .mapping
            .target
            .iter()
            .enumerate()
            .filter(|(i, _)| match (predicate, &cm.predicate_of[*i]) {
                (Some(p), Some(constant)) => p.as_str() == constant,
                _ => true,
            })
            .map(|(i, _)| i)
            .collect();
        if relevant.is_empty() {
            return;
        }
        // Spatial access path: only when the constrained templates' object
        // is a single geometry column.
        let hint_col = spatial.and_then(|_| {
            let mut col: Option<&str> = None;
            for &i in &relevant {
                match geometry_column(&cm.mapping.target[i].object) {
                    Some(c) if col.is_none() || col == Some(c) => col = Some(c),
                    _ => return None,
                }
            }
            col
        });
        // IRI-template inversion: a bound subject becomes a column filter
        // (or rules a template out entirely when its fixed parts mismatch),
        // skipping template expansion for non-matching rows.
        enum SubjectFilter {
            NoConstraint,
            Column(String, String),
            Impossible,
        }
        let subject_filters: Vec<SubjectFilter> = relevant
            .iter()
            .map(|&i| {
                let Some(s) = subject else {
                    return SubjectFilter::NoConstraint;
                };
                let st = match &cm.mapping.target[i].subject {
                    TermTemplate::Iri(st) => st,
                    // A named subject never matches a blank-node template;
                    // a blank subject is compared post-expansion.
                    TermTemplate::Blank(_) => {
                        return match s {
                            Resource::Blank(_) => SubjectFilter::NoConstraint,
                            Resource::Named(_) => SubjectFilter::Impossible,
                        }
                    }
                    TermTemplate::Literal { .. } => return SubjectFilter::Impossible,
                };
                let iri = match s {
                    Resource::Named(n) => n.as_str(),
                    Resource::Blank(_) => return SubjectFilter::Impossible,
                };
                match st.invert_single(iri) {
                    Some((c, v)) => SubjectFilter::Column(c.to_string(), v),
                    None if st.columns().is_empty() => {
                        // Constant template: direct comparison decides.
                        if st.expand(&Row::new()).as_deref() == Some(iri) {
                            SubjectFilter::NoConstraint
                        } else {
                            SubjectFilter::Impossible
                        }
                    }
                    None if st.is_invertible() => SubjectFilter::Impossible,
                    None => SubjectFilter::NoConstraint,
                }
            })
            .collect();
        if subject_filters
            .iter()
            .all(|f| matches!(f, SubjectFilter::Impossible))
        {
            return;
        }
        let rows = match self.rows_for(idx, cm, hint_col.zip(spatial), None) {
            Ok(rows) => rows,
            Err(e) => {
                // The trait has no Result channel — record the fault so the
                // query driver can distinguish "empty" from "source down".
                crate::fault::record_source_fault(e);
                return;
            }
        };
        let start = out.len();
        for row in rows.iter() {
            for (k, &i) in relevant.iter().enumerate() {
                match &subject_filters[k] {
                    SubjectFilter::Impossible => continue,
                    SubjectFilter::Column(col, value) => {
                        let matches = row
                            .get(col)
                            .and_then(applab_geotriples::Value::lexical)
                            .is_some_and(|lex| &lex == value);
                        if !matches {
                            continue;
                        }
                    }
                    SubjectFilter::NoConstraint => {}
                }
                if let Some(t) = cm.mapping.target[i].expand(row) {
                    if subject.is_none_or(|s| &t.subject == s)
                        && predicate.is_none_or(|p| &t.predicate == p)
                        && object.is_none_or(|o| &t.object == o)
                    {
                        out.push(t);
                    }
                }
            }
        }
        // Rows that share a subject can expand to the same triple; a graph
        // holds it once. Under a key every row's triples are distinct.
        if !cm.keyed {
            let mut seen = HashSet::new();
            let fresh: Vec<Triple> = out
                .drain(start..)
                .filter(|t| seen.insert(t.clone()))
                .collect();
            out.extend(fresh);
        }
    }

    /// The mapping and the per-pattern templates a connected BGP rewrites
    /// to, or `None` when one source scan would not answer it exactly.
    ///
    /// Every pattern starts with the templates of *every* mapping it
    /// statically unifies with. A candidate is dropped when a variable it
    /// shares with another pattern sits at a template provably disjoint
    /// from all of that pattern's remaining candidates at the variable's
    /// position (see [`provably_disjoint`]); this runs to a fixpoint.
    /// The rewrite applies only when one template per pattern survives,
    /// all of one keyed mapping, tied to one row ([`tied_to_one_row`]):
    /// any other surviving template could contribute triples, and one row
    /// scan would lose the solutions they take part in.
    fn rewrite_plan<'m>(
        &'m self,
        patterns: &[TriplePattern],
    ) -> Option<(usize, Vec<&'m TripleTemplate>)> {
        let mut candidates: Vec<Vec<(usize, usize)>> = patterns
            .iter()
            .map(|pattern| {
                let mut out = Vec::new();
                for (m, cm) in self.mappings.iter().enumerate() {
                    for (t, template) in cm.mapping.target.iter().enumerate() {
                        if statically_unifiable(pattern, template, &cm.predicate_of[t]) {
                            out.push((m, t));
                        }
                    }
                }
                out
            })
            .collect();
        let template = |(m, t): (usize, usize)| &self.mappings[m].mapping.target[t];
        loop {
            let mut changed = false;
            for i in 0..patterns.len() {
                let live = |c: (usize, usize)| {
                    let positions = pattern_positions(&patterns[i]);
                    for (tp, tt) in positions.into_iter().zip(template_positions(template(c))) {
                        if !tp.is_var() {
                            continue;
                        }
                        for (j, other) in patterns.iter().enumerate().filter(|&(j, _)| j != i) {
                            for (pos, tp_j) in pattern_positions(other).into_iter().enumerate() {
                                let meets = |&o: &(usize, usize)| {
                                    !provably_disjoint(tt, template_positions(template(o))[pos])
                                };
                                if tp_j == tp && !candidates[j].iter().any(meets) {
                                    return false;
                                }
                            }
                        }
                    }
                    true
                };
                let kept: Vec<(usize, usize)> =
                    candidates[i].iter().copied().filter(|&c| live(c)).collect();
                if kept.len() < candidates[i].len() {
                    candidates[i] = kept;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut mapping: Option<usize> = None;
        let mut assignment = Vec::with_capacity(patterns.len());
        for c in &candidates {
            let [(m, t)] = c.as_slice() else {
                return None; // nothing or several templates could answer
            };
            if *mapping.get_or_insert(*m) != *m {
                return None; // answered by more than one mapping
            }
            assignment.push(template((*m, *t)));
        }
        let idx = mapping?;
        let cm = &self.mappings[idx];
        (cm.keyed && tied_to_one_row(patterns, &assignment, &cm.mapping))
            .then_some((idx, assignment))
    }
}

/// Rows a mapping's source is assumed to yield when nothing has been
/// fetched yet. The *relative* numbers are what steer the planner;
/// constant templates (distinct count 1) versus templated positions
/// (distinct count = row guess) carry the real signal.
const ROW_GUESS: u64 = 1000;

/// Planner statistics derived purely from the mapping structure: no
/// source rows are read, so sealing a virtual workflow costs no DAP
/// round trips (and fault-injection tests see identical traffic).
fn structural_stats(mappings: &[CompiledMapping]) -> applab_sparql::plan::Stats {
    use applab_sparql::plan::{SpatialSketch, Stats};
    let mut stats = Stats::default();
    let mut geometry_templates = 0u64;
    for cm in mappings {
        for (i, template) in cm.mapping.target.iter().enumerate() {
            let Some(p) = &cm.predicate_of[i] else {
                // Templated predicate: counted only toward the total.
                stats.total_triples += ROW_GUESS;
                continue;
            };
            let entry = stats.predicates.entry(p.clone()).or_default();
            entry.triples += ROW_GUESS;
            stats.total_triples += ROW_GUESS;
            let distinct = |t: &TermTemplate| -> u64 {
                if t.columns().is_empty() {
                    1
                } else {
                    ROW_GUESS
                }
            };
            entry.distinct_subjects =
                (entry.distinct_subjects + distinct(&template.subject)).min(entry.triples);
            entry.distinct_objects =
                (entry.distinct_objects + distinct(&template.object)).min(entry.triples);
            if geometry_column(&template.object).is_some() {
                geometry_templates += 1;
            }
        }
    }
    stats.spatial = SpatialSketch {
        entries: geometry_templates * ROW_GUESS,
        bounds: None, // unknown extent: the R-tree hint stays worth trying
    };
    stats
}

/// Whether every subject template of a mapping is a key of its source
/// (see [`CompiledMapping::keyed`]). A base table is checked row by row,
/// once, at construction. The `opendap` table is keyed structurally: its
/// `id` column is built from `(t, lat, lon)`, so a subject template over
/// `id` alone is a key. A template over a column the query does not
/// project counts as no key, which only keeps the rewrite off.
fn subjects_are_keys(source: &DataSource, mapping: &Mapping, query: &SourceQuery) -> bool {
    let mut subjects: Vec<&TermTemplate> = Vec::new();
    for t in &mapping.target {
        if !subjects.contains(&&t.subject) {
            subjects.push(&t.subject);
        }
    }
    let projected = |st: &StringTemplate| st.columns().iter().all(|c| query.projects(c));
    let resources: Option<Vec<&StringTemplate>> = subjects
        .iter()
        .map(|t| match t {
            TermTemplate::Iri(st) | TermTemplate::Blank(st) => projected(st).then_some(st),
            TermTemplate::Literal { .. } => None,
        })
        .collect();
    let Some(resources) = resources else {
        return false;
    };
    match &query.from {
        FromClause::Opendap { .. } => resources
            .iter()
            .all(|st| st.is_invertible() && st.columns() == ["id"]),
        FromClause::Table(_) => {
            let Some(rows) = source.selected_rows(query) else {
                return false;
            };
            let mut seen: Vec<HashSet<Term>> = vec![HashSet::new(); subjects.len()];
            for row in rows {
                for (t, seen) in subjects.iter().zip(&mut seen) {
                    if let Some(term) = t.expand(row) {
                        if !seen.insert(term) {
                            return false;
                        }
                    }
                }
            }
            true
        }
    }
}

/// A template's constant expansion, when it has no placeholders.
fn constant_expansion(t: &TermTemplate) -> Option<String> {
    match t {
        TermTemplate::Iri(st) if st.columns().is_empty() => {
            // Expand against an empty row: no placeholders → always Some.
            st.expand(&Row::new())
        }
        _ => None,
    }
}

/// The geometry column of a bare `{col}^^geo:wktLiteral` object template.
fn geometry_column(t: &TermTemplate) -> Option<&str> {
    match t {
        TermTemplate::Literal {
            template,
            datatype: Some(dt),
            ..
        } if dt.as_str() == vocab::geo::WKT_LITERAL => match template.columns().as_slice() {
            [one] => Some(one),
            _ => None,
        },
        _ => None,
    }
}

impl GraphSource for VirtualGraph {
    fn stats(&self) -> Option<&applab_sparql::plan::Stats> {
        Some(&self.stats)
    }

    fn triples_matching(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        let mut out = Vec::new();
        for (idx, cm) in self.mappings.iter().enumerate() {
            self.mapping_triples(idx, cm, subject, predicate, object, None, &mut out);
        }
        out
    }

    fn triples_matching_spatial(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        envelope: &Envelope,
    ) -> Option<Vec<Triple>> {
        let mut out = Vec::new();
        for (idx, cm) in self.mappings.iter().enumerate() {
            self.mapping_triples(idx, cm, subject, predicate, None, Some(envelope), &mut out);
        }
        // Post-filter to the envelope (the access path may be a fallback
        // scan for virtual tables).
        out.retain(|t| match &t.object {
            Term::Literal(l) => match l.as_geometry() {
                Some(g) => g.envelope().intersects(envelope),
                None => true,
            },
            _ => true,
        });
        Some(out)
    }

    fn evaluate_bgp(
        &self,
        patterns: &[TriplePattern],
        spatial: &HashMap<String, Envelope>,
        observed: &dyn Fn(&str) -> bool,
    ) -> Option<Vec<Binding>> {
        if patterns.is_empty() {
            return None;
        }
        // The rewrite expands all patterns against the SAME source row, so
        // it is only sound when every pattern is reachable from every other
        // through shared variables: solutions of a variable-disconnected
        // BGP are the cross product of the components' solutions, which a
        // single row scan cannot produce. (The evaluator offers such a BGP
        // one component at a time instead.)
        if connected_components(patterns).len() != 1 {
            return None;
        }
        let (idx, assignment) = self.rewrite_plan(patterns)?;
        let cm = &self.mappings[idx];
        applab_obs::counter!("applab_obda_bgp_rewrites_total").inc();
        let mut span = applab_obs::span("obda.bgp_rewrite");
        span.record("patterns", patterns.len());
        // Spatial access path: a constrained object variable whose
        // assigned template is a geometry column.
        let mut hint: Option<(&str, &Envelope)> = None;
        for (pattern, template) in patterns.iter().zip(&assignment) {
            if let TermPattern::Var(v) = &pattern.object {
                if let (Some(env), Some(col)) = (spatial.get(v), geometry_column(&template.object))
                {
                    hint = Some((col, env));
                    break;
                }
            }
        }
        // Per-row steps. Constant positions whose template is
        // placeholder-free were already verified statically; templated
        // constants need a per-row check; variables need the expansion
        // bound, unless nothing observes them.
        let mut verify: Vec<(&Term, &TermTemplate)> = Vec::new();
        let mut positions: Vec<(&str, Vec<&TermTemplate>)> = Vec::new();
        for (pattern, template) in patterns.iter().zip(&assignment) {
            for (tp, tt) in pattern_positions(pattern)
                .into_iter()
                .zip(template_positions(template))
            {
                match tp {
                    TermPattern::Var(v) => match positions.iter_mut().find(|(x, _)| x == v) {
                        Some((_, tts)) => tts.push(tt),
                        None => positions.push((v, vec![tt])),
                    },
                    TermPattern::Term(expected) if !tt.columns().is_empty() => {
                        verify.push((expected, tt));
                    }
                    TermPattern::Term(_) => {}
                }
            }
        }
        // An unobserved variable at one template everywhere expands the
        // same term at each of its positions, so it only has to expand at
        // all ("null column: no triple"): its columns must be present,
        // and a column the table never leaves null needs no check. Under
        // differing templates its equality is a filter, so it stays bound.
        let mut bind: Vec<(&str, &TermTemplate)> = Vec::new();
        let mut present: Vec<&str> = Vec::new();
        for (v, tts) in &positions {
            if observed(v) || tts.iter().any(|t| t != &tts[0]) {
                bind.extend(tts.iter().map(|t| (*v, *t)));
                continue;
            }
            for c in tts[0].columns() {
                if !cm.never_null.iter().any(|n| n == c) && !present.contains(&c) {
                    present.push(c);
                }
            }
        }
        // The source query fetches only what the steps read.
        let mut reading: Vec<String> = Vec::new();
        let read = verify
            .iter()
            .map(|(_, tt)| *tt)
            .chain(bind.iter().map(|(_, tt)| *tt));
        for c in read
            .flat_map(TermTemplate::columns)
            .chain(present.iter().copied())
        {
            if cm.query.projects(c) && !reading.iter().any(|r| r == c) {
                reading.push(c.to_string());
            }
        }
        let rows = match self.rows_for(idx, cm, hint, Some(&reading)) {
            Ok(rows) => rows,
            Err(e) => {
                crate::fault::record_source_fault(e);
                return Some(Vec::new());
            }
        };
        // Cheapest rejections first: presence, then the constants, and
        // only a row that passes both formats its bound terms.
        let mut bindings = Vec::new();
        'rows: for row in rows.iter() {
            if !present
                .iter()
                .all(|c| row.get(*c).is_some_and(|v| !matches!(v, Value::Null)))
            {
                continue;
            }
            for (expected, tt) in &verify {
                match tt.expand(row) {
                    Some(actual) if &actual == *expected => {}
                    _ => continue 'rows,
                }
            }
            let mut binding = Binding::new();
            for (v, tt) in &bind {
                let Some(actual) = tt.expand(row) else {
                    continue 'rows; // null column: no triple
                };
                match binding.get(*v) {
                    Some(existing) if existing != &actual => continue 'rows,
                    Some(_) => {}
                    None => {
                        binding.insert(v.to_string(), actual);
                    }
                }
            }
            bindings.push(binding);
        }
        span.record("source_rows", rows.len());
        span.record("rows", bindings.len());
        Some(bindings)
    }
}

/// A pattern's three positions, in subject–predicate–object order.
fn pattern_positions(p: &TriplePattern) -> [&TermPattern; 3] {
    [&p.subject, &p.predicate, &p.object]
}

/// A template's three positions, in subject–predicate–object order.
fn template_positions(t: &TripleTemplate) -> [&TermTemplate; 3] {
    [&t.subject, &t.predicate, &t.object]
}

/// Whether two templates can never expand to the same term: different
/// term kinds, different literal datatypes, or IRIs (blank labels) whose
/// constant text before the first placeholder already tells them apart.
fn provably_disjoint(a: &TermTemplate, b: &TermTemplate) -> bool {
    // Every expansion starts with the template's prefix; a
    // placeholder-free template expands to exactly its prefix.
    let texts_differ = |x: &str, x_const: bool, y: &str, y_const: bool| match (x_const, y_const) {
        (true, true) => x != y,
        (true, false) => !x.starts_with(y),
        (false, true) => !y.starts_with(x),
        (false, false) => !x.starts_with(y) && !y.starts_with(x),
    };
    match (a, b) {
        (TermTemplate::Iri(x), TermTemplate::Iri(y)) => texts_differ(
            x.prefix(),
            x.columns().is_empty(),
            y.prefix(),
            y.columns().is_empty(),
        ),
        (TermTemplate::Blank(x), TermTemplate::Blank(y)) => {
            // Labels go through the same character mapping as expansion.
            let label = |st: &StringTemplate| st.prefix().replace([' ', ':', '/'], "_");
            texts_differ(
                &label(x),
                x.columns().is_empty(),
                &label(y),
                y.columns().is_empty(),
            )
        }
        (TermTemplate::Literal { .. }, TermTemplate::Literal { .. }) => {
            match (literal_datatype(a), literal_datatype(b)) {
                (Some(x), Some(y)) => x != y,
                _ => false, // an inferred datatype may be anything
            }
        }
        _ => true,
    }
}

/// The datatype every expansion of a literal template carries, when the
/// template fixes it.
fn literal_datatype(t: &TermTemplate) -> Option<&str> {
    match t {
        TermTemplate::Literal {
            language: Some(_), ..
        } => Some(vocab::rdf::LANG_STRING),
        TermTemplate::Literal {
            datatype: Some(dt), ..
        } => Some(dt.as_str()),
        _ => None,
    }
}

/// Whether shared variables tie every pattern to one source row: two
/// patterns are tied when a variable sits at the same key template in
/// both (a subject template, or an object template equal to one, of a
/// keyed mapping). A BGP joined only through other positions, such as
/// `?a :name ?n . ?b :name ?n`, has solutions that pair different rows,
/// which a row-by-row scan cannot produce.
fn tied_to_one_row(
    patterns: &[TriplePattern],
    assignment: &[&TripleTemplate],
    mapping: &Mapping,
) -> bool {
    let is_key = |t: &TermTemplate| mapping.target.iter().any(|tt| &tt.subject == t);
    let mut tied = vec![false; patterns.len()];
    tied[0] = true;
    let mut queue = vec![0usize];
    while let Some(i) = queue.pop() {
        for (tp, tt) in pattern_positions(&patterns[i])
            .into_iter()
            .zip(template_positions(assignment[i]))
        {
            if !tp.is_var() || !is_key(tt) {
                continue;
            }
            for j in 0..patterns.len() {
                if !tied[j]
                    && pattern_positions(&patterns[j])
                        .into_iter()
                        .zip(template_positions(assignment[j]))
                        .any(|(tp_j, tt_j)| tp_j == tp && tt_j == tt)
                {
                    tied[j] = true;
                    queue.push(j);
                }
            }
        }
    }
    tied.into_iter().all(|t| t)
}

/// Cheap static compatibility check between a pattern and a template.
fn statically_unifiable(
    pattern: &TriplePattern,
    template: &TripleTemplate,
    constant_predicate: &Option<String>,
) -> bool {
    // Predicate: constant-vs-constant must match exactly.
    if let (TermPattern::Term(Term::Named(p)), Some(c)) = (&pattern.predicate, constant_predicate) {
        if p.as_str() != c {
            return false;
        }
    }
    position_unifiable(&pattern.subject, &template.subject)
        && position_unifiable(&pattern.object, &template.object)
        && !matches!(&pattern.subject, TermPattern::Term(Term::Literal(_)))
}

/// One position: kind compatibility, plus constant-vs-constant equality for
/// placeholder-free templates and the constant prefix of IRI templates.
fn position_unifiable(pattern: &TermPattern, template: &TermTemplate) -> bool {
    let constant = match pattern {
        TermPattern::Var(_) => return true,
        TermPattern::Term(t) => t,
    };
    match (constant, template) {
        (Term::Literal(_), TermTemplate::Iri(_) | TermTemplate::Blank(_))
        | (Term::Named(_), TermTemplate::Literal { .. } | TermTemplate::Blank(_)) => false,
        (Term::Named(n), TermTemplate::Iri(st)) if st.columns().is_empty() => {
            st.expand(&Row::new()).as_deref() == Some(n.as_str())
        }
        // The row-level check decides, once the prefix fits.
        (Term::Named(n), TermTemplate::Iri(st)) => n.as_str().starts_with(st.prefix()),
        (
            Term::Literal(l),
            TermTemplate::Literal {
                template, datatype, ..
            },
        ) => {
            if let Some(dt) = datatype {
                if l.datatype() != dt {
                    return false;
                }
            }
            if template.columns().is_empty() {
                template.expand(&Row::new()).as_deref() == Some(l.value())
            } else {
                true
            }
        }
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_dap::clock::ManualClock;
    use applab_dap::server::grid_dataset;
    use applab_dap::transport::Local;
    use applab_dap::{DapClient, DapServer};
    use applab_geotriples::parse_mappings;
    use applab_geotriples::{TabularSource, Value};
    use std::sync::Arc;
    use std::time::Duration;

    const PARK_MAPPINGS: &str = r#"
mappingId parks
target osm:poi_{id} a osm:PointOfInterest ;
       osm:poiType osm:park ;
       osm:hasName {name}^^xsd:string ;
       geo:hasGeometry osm:geom_{id} .
       osm:geom_{id} geo:asWKT {geom}^^geo:wktLiteral .
source SELECT * FROM parks WHERE kind = park
"#;

    fn parks_table(n: usize) -> TabularSource {
        let mut rows = Vec::new();
        for i in 0..n {
            let mut r = Row::new();
            r.insert("id".into(), Value::Number(i as f64));
            r.insert("name".into(), Value::Text(format!("park {i}")));
            r.insert(
                "kind".into(),
                Value::Text(if i % 3 == 0 { "industrial" } else { "park" }.into()),
            );
            r.insert(
                "geom".into(),
                Value::Geometry(applab_geo::Geometry::rect(
                    i as f64,
                    0.0,
                    i as f64 + 0.5,
                    0.5,
                )),
            );
            rows.push(r);
        }
        TabularSource {
            name: "parks".into(),
            rows,
        }
    }

    fn virtual_graph(n: usize) -> VirtualGraph {
        let mut ds = DataSource::new();
        ds.add_table(parks_table(n));
        VirtualGraph::new(ds, parse_mappings(PARK_MAPPINGS).unwrap()).unwrap()
    }

    #[test]
    fn virtual_equals_materialized() {
        let vg = virtual_graph(15);
        let materialized = vg.materialize().unwrap();
        // Same queries against both must agree.
        for q in [
            "SELECT ?s ?name WHERE { ?s osm:hasName ?name }",
            "SELECT ?s WHERE { ?s a osm:PointOfInterest ; osm:poiType osm:park }",
            r#"SELECT ?s ?wkt WHERE {
                 ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt .
                 FILTER(geof:sfIntersects(?wkt, "POLYGON ((3 0, 8 0, 8 1, 3 1, 3 0))"^^geo:wktLiteral))
               }"#,
        ] {
            let virt = applab_sparql::query(&vg, q).unwrap();
            let mat = applab_sparql::query(&materialized, q).unwrap();
            let norm = |r: &applab_sparql::QueryResults| {
                let mut rows: Vec<String> = r
                    .rows()
                    .iter()
                    .map(|row| {
                        row.values
                            .iter()
                            .map(|v| v.as_ref().map(|t| t.to_string()).unwrap_or_default())
                            .collect::<Vec<_>>()
                            .join("|")
                    })
                    .collect();
                rows.sort();
                rows
            };
            assert_eq!(norm(&virt), norm(&mat), "query: {q}");
        }
    }

    #[test]
    fn bgp_rewriting_answers_single_mapping_queries() {
        let vg = virtual_graph(10);
        // All three patterns unify with the parks mapping → fast path.
        let patterns = vec![
            TriplePattern::new(
                TermPattern::var("s"),
                Term::named(vocab::osm::HAS_NAME),
                TermPattern::var("name"),
            ),
            TriplePattern::new(
                TermPattern::var("s"),
                Term::named(vocab::geo::HAS_GEOMETRY),
                TermPattern::var("g"),
            ),
            TriplePattern::new(
                TermPattern::var("g"),
                Term::named(vocab::geo::AS_WKT),
                TermPattern::var("wkt"),
            ),
        ];
        let bindings = vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .unwrap();
        // Parks only (kind=park): ids not divisible by 3 → 1,2,4,5,7,8 of 0..10.
        assert_eq!(bindings.len(), 6);
        for b in &bindings {
            assert!(b.contains_key("s") && b.contains_key("wkt"));
        }
    }

    #[test]
    fn bgp_rewriting_uses_spatial_hint() {
        let vg = virtual_graph(50);
        let patterns = vec![TriplePattern::new(
            TermPattern::var("g"),
            Term::named(vocab::geo::AS_WKT),
            TermPattern::var("wkt"),
        )];
        let mut spatial = HashMap::new();
        spatial.insert("wkt".to_string(), Envelope::new(10.0, 0.0, 12.0, 1.0));
        let constrained = vg.evaluate_bgp(&patterns, &spatial, &|_| true).unwrap();
        let unconstrained = vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .unwrap();
        assert!(constrained.len() < unconstrained.len());
        assert!(!constrained.is_empty());
    }

    #[test]
    fn listing2_and_listing3_end_to_end() {
        // The on-the-fly workflow: OPeNDAP server → opendap vtable →
        // virtual graph → Listing 3 query.
        let server = DapServer::new();
        server.publish(grid_dataset(
            "Copernicus-Land-timeseries-global-LAI",
            &[0.0, 864_000.0],
            &[48.0, 48.5],
            &[2.0, 2.5],
            |t, la, lo| {
                if la == 0 && lo == 0 {
                    -1.0 // noisy negative value: filtered by WHERE LAI > 0
                } else {
                    (t + 1) as f64 + la as f64 / 10.0 + lo as f64 / 100.0
                }
            },
        ));
        let client = Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())));
        let clock = ManualClock::new();
        let mut ds = DataSource::new();
        ds.add_opendap(
            "Copernicus-Land-timeseries-global-LAI",
            "LAI",
            Arc::new(crate::vtable::OpendapTable::new(
                client,
                "Copernicus-Land-timeseries-global-LAI",
                "LAI",
                Duration::from_secs(600),
                clock,
            )),
        );
        // Listing 2, near verbatim.
        let mappings = parse_mappings(
            r#"
mappingId opendap_mapping
target lai:{id} rdf:type lai:Observation .
       lai:{id} lai:hasLai {LAI}^^xsd:float ;
       time:hasTime {ts}^^xsd:dateTime .
       lai:{id} geo:hasGeometry _:g_{id} .
       _:g_{id} geo:asWKT {loc}^^geo:wktLiteral .
source SELECT id, LAI, ts, loc FROM (ordered opendap url:https://analytics.ramani.ujuizi.com/thredds/dodsC/Copernicus-Land-timeseries-global-LAI/readdods/LAI/, 10) WHERE LAI > 0
"#,
        )
        .unwrap();
        let vg = VirtualGraph::new(ds, mappings).unwrap();

        // Listing 3, verbatim.
        let r = applab_sparql::query(
            &vg,
            r#"SELECT DISTINCT ?s ?wkt ?lai
WHERE { ?s lai:hasLai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt }"#,
        )
        .unwrap();
        // 2 times × (4 cells − 1 negative cell) = 6 observations.
        assert_eq!(r.len(), 6);
        // All LAI values positive (the WHERE filter of the mapping).
        for i in 0..r.len() {
            let lai = r.value(i, "lai").unwrap().as_literal().unwrap();
            assert!(lai.as_f64().unwrap() > 0.0);
        }
    }

    #[test]
    fn pattern_at_a_time_fallback_is_correct() {
        // Two mappings: the BGP spans both → evaluate_bgp returns None and
        // the generic path must still answer correctly.
        let two = format!(
            "{PARK_MAPPINGS}\nmappingId labels\ntarget osm:poi_{{id}} rdfs:label {{name}}^^xsd:string .\nsource SELECT id, name FROM parks\n"
        );
        let mut ds = DataSource::new();
        ds.add_table(parks_table(6));
        let vg = VirtualGraph::new(ds, parse_mappings(&two).unwrap()).unwrap();
        let r = applab_sparql::query(
            &vg,
            "SELECT ?s ?n ?l WHERE { ?s osm:hasName ?n . ?s rdfs:label ?l }",
        )
        .unwrap();
        // Parks (ids 1,2,4,5) have both hasName (mapping 1, kind=park only)
        // and label (mapping 2, all rows).
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn structural_stats_come_from_mappings_without_fetching() {
        // Stats are built in `new()` from the mapping shapes alone — no
        // source rows are consulted, so constructing the graph is enough.
        let vg = virtual_graph(10);
        let stats = applab_sparql::GraphSource::stats(&vg).expect("virtual graph has stats");
        assert!(stats.total_triples > 0);
        // Constant-object template (poiType → osm:park): one distinct object.
        let ty = stats.predicate(vocab::osm::POI_TYPE).unwrap();
        assert_eq!(ty.distinct_objects, 1);
        // Templated object (hasName {name}): as many distinct as rows guessed.
        let name = stats.predicate(vocab::osm::HAS_NAME).unwrap();
        assert!(name.distinct_objects > 1);
        assert!(name.distinct_objects <= name.triples);
        // The WKT template registers in the spatial sketch (bounds unknown).
        assert!(stats.spatial.entries > 0);
        assert!(stats.spatial.bounds.is_none());
    }

    #[test]
    fn planned_virtual_graph_query_matches_the_reference_evaluator() {
        // Two mappings force the pattern-at-a-time path, where the planner
        // actually reorders; results must be the same multiset as the
        // nested-loop reference evaluator's.
        let two = format!(
            "{PARK_MAPPINGS}\nmappingId labels\ntarget osm:poi_{{id}} rdfs:label {{name}}^^xsd:string .\nsource SELECT id, name FROM parks\n"
        );
        let mut ds = DataSource::new();
        ds.add_table(parks_table(12));
        let vg = VirtualGraph::new(ds, parse_mappings(&two).unwrap()).unwrap();
        let q = applab_sparql::parse_query(
            "SELECT ?s ?n ?l ?w WHERE {
               ?s rdfs:label ?l .
               ?s osm:hasName ?n .
               ?s geo:hasGeometry ?g .
               ?g geo:asWKT ?w
             }",
        )
        .unwrap();
        let oracle = applab_sparql::reference::evaluate(&vg, &q).unwrap();
        let planned =
            applab_sparql::evaluate_with(&vg, &q, &applab_sparql::EvalOptions::default()).unwrap();
        let (ca, cb) = (oracle.to_csv(), planned.to_csv());
        let mut a: Vec<&str> = ca.lines().collect();
        let mut b: Vec<&str> = cb.lines().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert!(!oracle.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn remote_failures_are_recorded_not_silently_empty() {
        let server = DapServer::new();
        server.publish(grid_dataset("lai", &[0.0], &[48.0], &[2.0], |_, _, _| 1.0));
        server.set_fault_hook(Box::new(|_, _| {
            Err(applab_dap::DapError::Transport("reset".into()))
        }));
        let client = Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())));
        let clock = ManualClock::new();
        let mut ds = DataSource::new();
        ds.add_opendap(
            "lai",
            "LAI",
            Arc::new(crate::vtable::OpendapTable::new(
                client,
                "lai",
                "LAI",
                Duration::ZERO,
                clock,
            )),
        );
        let mappings = parse_mappings(
            "mappingId m\ntarget lai:{id} lai:hasLai {LAI}^^xsd:float .\nsource SELECT id, LAI FROM (ordered opendap url:https://x/thredds/dodsC/lai/readdods/LAI/, 10)\n",
        )
        .unwrap();
        let vg = VirtualGraph::new(ds, mappings).unwrap();

        // Pattern-at-a-time path.
        let _ = crate::fault::take_source_fault();
        assert!(vg.triples_matching(None, None, None).is_empty());
        assert!(matches!(
            crate::fault::take_source_fault(),
            Some(ObdaError::VirtualTable(_))
        ));

        // Whole-BGP rewrite path.
        let patterns = vec![TriplePattern::new(
            TermPattern::var("s"),
            Term::named(vocab::lai::HAS_LAI),
            TermPattern::var("lai"),
        )];
        let bindings = vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .unwrap();
        assert!(bindings.is_empty());
        assert!(matches!(
            crate::fault::take_source_fault(),
            Some(ObdaError::VirtualTable(_))
        ));
    }

    #[test]
    fn bad_mapping_source_rejected() {
        let ds = DataSource::new();
        let mappings = parse_mappings(
            "mappingId m\ntarget osm:poi_{id} a osm:PointOfInterest .\nsource NOT A QUERY\n",
        )
        .unwrap();
        assert!(matches!(
            VirtualGraph::new(ds, mappings),
            Err(ObdaError::Mapping(_))
        ));
    }

    /// The parks graph plus a second mapping over the same table that also
    /// produces `osm:hasName` for the same subjects.
    fn parks_with_kind_names(n: usize) -> VirtualGraph {
        let two = format!(
            "{PARK_MAPPINGS}\nmappingId kinds\ntarget osm:poi_{{id}} osm:hasName {{kind}} .\nsource SELECT id, kind FROM parks\n"
        );
        let mut ds = DataSource::new();
        ds.add_table(parks_table(n));
        VirtualGraph::new(ds, parse_mappings(&two).unwrap()).unwrap()
    }

    /// The triple patterns of a query whose WHERE clause is one BGP.
    fn bgp(q: &str) -> Vec<TriplePattern> {
        match applab_sparql::parse_query(q).unwrap().pattern {
            applab_sparql::algebra::GraphPattern::Bgp(p) => p,
            other => panic!("expected a BGP, got {other:?}"),
        }
    }

    fn sorted_csv(r: &applab_sparql::QueryResults) -> Vec<String> {
        let csv = r.to_csv();
        let mut rows: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
        rows.sort();
        rows
    }

    #[test]
    fn a_second_mapping_producing_one_pattern_blocks_the_rewrite() {
        // Each park (ids 1, 2, 4, 5 of 0..6) has two names: its own from
        // `parks`, its kind from `kinds`. The rewrite over `parks` alone
        // answered 4 rows; the graph has 8 solutions.
        let vg = parks_with_kind_names(6);
        let q = "SELECT ?s ?n ?g WHERE { ?s osm:hasName ?n . ?s geo:hasGeometry ?g }";
        let patterns = bgp(q);
        assert!(vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .is_none());
        let virt = applab_sparql::query(&vg, q).unwrap();
        let mat = applab_sparql::query(&vg.materialize().unwrap(), q).unwrap();
        assert_eq!(mat.len(), 8);
        assert_eq!(sorted_csv(&virt), sorted_csv(&mat));
    }

    #[test]
    fn disjoint_templates_of_other_mappings_do_not_block_the_rewrite() {
        // `lai:` subjects and blank geometries can never meet an
        // `osm:poi_` subject: the other mapping's templates are pruned.
        let two = format!(
            "{PARK_MAPPINGS}\nmappingId obs\ntarget lai:{{id}} geo:hasGeometry _:g_{{id}} .\n       _:g_{{id}} geo:asWKT {{geom}}^^geo:wktLiteral .\nsource SELECT id, geom FROM parks\n"
        );
        let mut ds = DataSource::new();
        ds.add_table(parks_table(9));
        let vg = VirtualGraph::new(ds, parse_mappings(&two).unwrap()).unwrap();
        let q = "SELECT ?s ?w WHERE { ?s osm:poiType osm:park . ?s geo:hasGeometry ?g . ?g geo:asWKT ?w }";
        let patterns = bgp(q);
        let (idx, _) = vg.rewrite_plan(&patterns).expect("rewritten");
        assert_eq!(vg.mappings[idx].mapping.id, "parks");
        let virt = applab_sparql::query(&vg, q).unwrap();
        let mat = applab_sparql::query(&vg.materialize().unwrap(), q).unwrap();
        assert_eq!(virt.len(), 6);
        assert_eq!(sorted_csv(&virt), sorted_csv(&mat));
    }

    #[test]
    fn an_unkeyed_mapping_declines_instead_of_failing() {
        // Two source rows share id 1: the subject template is no key, so
        // the graph still builds but answers pattern at a time.
        let mut table = parks_table(4);
        table.rows[2].insert("id".into(), Value::Number(1.0));
        let mut ds = DataSource::new();
        ds.add_table(table);
        let vg = VirtualGraph::new(ds, parse_mappings(PARK_MAPPINGS).unwrap()).unwrap();
        assert!(!vg.mappings[0].keyed);
        let q =
            "SELECT ?s ?n ?w WHERE { ?s osm:hasName ?n . ?s geo:hasGeometry ?g . ?g geo:asWKT ?w }";
        let patterns = bgp(q);
        assert!(vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .is_none());
        let virt = applab_sparql::query(&vg, q).unwrap();
        let mat = applab_sparql::query(&vg.materialize().unwrap(), q).unwrap();
        // poi_1 has two names and one geometry node with two WKTs: 2 × 2.
        assert_eq!(mat.len(), 4);
        assert_eq!(sorted_csv(&virt), sorted_csv(&mat));
        // The keyed default graph checks out.
        assert!(virtual_graph(4).mappings[0].keyed);
    }

    #[test]
    fn a_join_through_a_non_key_position_declines() {
        // ?a and ?b meet only on a name, so they may be different rows.
        let vg = virtual_graph(6);
        let patterns = vec![
            TriplePattern::new(
                TermPattern::var("a"),
                Term::named(vocab::osm::HAS_NAME),
                TermPattern::var("n"),
            ),
            TriplePattern::new(
                TermPattern::var("b"),
                Term::named(vocab::osm::HAS_NAME),
                TermPattern::var("n"),
            ),
        ];
        assert!(vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .is_none());
    }

    #[test]
    fn provable_disjointness_reads_kinds_prefixes_and_datatypes() {
        let t = |text: &str| -> TermTemplate {
            let doc = format!(
                "mappingId m\ntarget osm:x_{{id}} osm:p {text} .\nsource SELECT * FROM t\n"
            );
            parse_mappings(&doc).unwrap()[0].target[0].object.clone()
        };
        assert!(provably_disjoint(&t("osm:poi_{id}"), &t("lai:{id}")));
        assert!(!provably_disjoint(&t("osm:poi_{id}"), &t("osm:{kind}")));
        assert!(!provably_disjoint(&t("osm:park"), &t("osm:{kind}")));
        assert!(provably_disjoint(&t("osm:park"), &t("osm:forest")));
        assert!(provably_disjoint(&t("osm:park"), &t("osm:poi_{id}")));
        assert!(provably_disjoint(&t("osm:poi_{id}"), &t("_:g_{id}")));
        assert!(provably_disjoint(
            &t("osm:poi_{id}"),
            &t("{name}^^xsd:string")
        ));
        assert!(provably_disjoint(
            &t("{a}^^xsd:string"),
            &t("{b}^^xsd:integer")
        ));
        assert!(!provably_disjoint(&t("{a}^^xsd:string"), &t("{b}")));
        assert!(!provably_disjoint(&t("_:g_{id}"), &t("_:g_{x}")));
    }

    /// Whole-BGP answers with every variable observed, and with only
    /// `keep`: row for row, the pruned binding is the full one less some
    /// variables `keep` does not name.
    fn pruned_against_full(vg: &VirtualGraph, q: &str, keep: &[&str]) -> Vec<Binding> {
        let patterns = bgp(q);
        let full = vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|_| true)
            .expect("rewritten");
        let pruned = vg
            .evaluate_bgp(&patterns, &HashMap::new(), &|v| keep.contains(&v))
            .expect("rewritten");
        assert_eq!(pruned.len(), full.len(), "{q}");
        for (p, f) in pruned.iter().zip(&full) {
            assert!(p.iter().all(|(k, v)| f.get(k) == Some(v)), "{q}");
            assert!(keep.iter().all(|k| p.get(*k) == f.get(*k)), "{q}");
        }
        pruned
    }

    #[test]
    fn a_null_column_of_an_unobserved_variable_still_drops_the_row() {
        let mut table = parks_table(9);
        table.rows[1].insert("name".into(), Value::Null);
        table.rows[2].remove("name");
        let mut ds = DataSource::new();
        ds.add_table(table);
        let vg = VirtualGraph::new(ds, parse_mappings(PARK_MAPPINGS).unwrap()).unwrap();
        // Parks are ids 1, 2, 4, 5, 7, 8; 1 and 2 have no name.
        let q = "SELECT ?s WHERE { ?s osm:hasName ?n . ?s geo:hasGeometry ?g }";
        let pruned = pruned_against_full(&vg, q, &["s"]);
        assert_eq!(pruned.len(), 4);
        assert!(pruned.iter().all(|b| b.len() == 1 && b.contains_key("s")));
        assert!(pruned_against_full(&vg, q, &[])
            .iter()
            .all(Binding::is_empty));
        let count = "SELECT (COUNT(*) AS ?c) WHERE { ?s osm:hasName ?n }";
        let r = applab_sparql::query(&vg, count).unwrap();
        assert_eq!(sorted_csv(&r), ["4"]);
    }

    #[test]
    fn a_variable_under_two_templates_stays_checked() {
        let mappings = r#"
mappingId parks
target osm:poi_{id} osm:hasName {name}^^xsd:string ;
       rdfs:label {alias}^^xsd:string .
source SELECT * FROM parks
"#;
        let mut table = parks_table(6);
        for (i, row) in table.rows.iter_mut().enumerate() {
            let alias = if i % 2 == 0 {
                format!("park {i}")
            } else {
                "other".into()
            };
            row.insert("alias".into(), Value::Text(alias));
        }
        let mut ds = DataSource::new();
        ds.add_table(table);
        let vg = VirtualGraph::new(ds, parse_mappings(mappings).unwrap()).unwrap();
        // ?n is observed by nothing, but its two templates must agree.
        let q = "SELECT ?s WHERE { ?s osm:hasName ?n . ?s rdfs:label ?n }";
        for keep in [&["s"][..], &[]] {
            let pruned = pruned_against_full(&vg, q, keep);
            assert_eq!(pruned.len(), 3);
            assert!(pruned.iter().all(|b| b.contains_key("n")));
        }
    }

    #[test]
    fn pruned_query_forms_equal_the_reference_evaluator() {
        let vg = virtual_graph(20);
        for q in [
            "SELECT * WHERE { ?s osm:hasName ?n . ?s geo:hasGeometry ?g . ?g geo:asWKT ?w }",
            "ASK { ?s osm:hasName ?n . ?s geo:hasGeometry ?g }",
            "SELECT (COUNT(*) AS ?c) WHERE { ?s osm:hasName ?n . ?s geo:hasGeometry ?g }",
            "SELECT ?n (COUNT(?g) AS ?c) WHERE { ?s osm:hasName ?n . ?s geo:hasGeometry ?g } GROUP BY ?n",
            "SELECT ?n WHERE { ?s osm:hasName ?n OPTIONAL { ?s geo:hasGeometry ?g . ?g geo:asWKT ?w } }",
            "SELECT ?w WHERE { ?s osm:poiType osm:park . ?s geo:hasGeometry ?g . ?g geo:asWKT ?w }",
            "SELECT DISTINCT ?t WHERE { ?s osm:poiType ?t . ?s osm:hasName ?n }",
        ] {
            let query = applab_sparql::parse_query(q).unwrap();
            let oracle = applab_sparql::reference::evaluate(&vg, &query).unwrap();
            let pruned = applab_sparql::query(&vg, q).unwrap();
            let answered = match &oracle {
                applab_sparql::QueryResults::Boolean(yes) => *yes,
                rows => !rows.is_empty(),
            };
            assert!(answered, "{q}");
            assert_eq!(sorted_csv(&pruned), sorted_csv(&oracle), "{q}");
        }
    }

    /// A virtual table that records the columns of every row it returns.
    struct Columns {
        inner: crate::vtable::OpendapTable,
        seen: Mutex<Vec<Vec<String>>>,
    }

    impl crate::vtable::VirtualTable for Columns {
        fn scan(&self, pushdown: &crate::vtable::Pushdown) -> Result<Vec<Row>, ObdaError> {
            let rows = self.inner.scan(pushdown)?;
            let mut seen = self.seen.lock().unwrap();
            seen.extend(rows.iter().map(|r| r.keys().cloned().collect()));
            Ok(rows)
        }

        fn never_null(&self, column: &str) -> bool {
            self.inner.never_null(column)
        }
    }

    #[test]
    fn the_grid_builds_only_the_columns_a_query_reads() {
        let server = DapServer::new();
        server.publish(grid_dataset(
            "lai",
            &[0.0, 864_000.0],
            &[48.0, 48.5],
            &[2.0, 2.5],
            |t, la, lo| (t + la + lo + 1) as f64,
        ));
        let client = Arc::new(DapClient::new(Arc::new(server), Arc::new(Local::new())));
        let table = Arc::new(Columns {
            inner: crate::vtable::OpendapTable::new(
                client,
                "lai",
                "LAI",
                Duration::from_secs(600),
                ManualClock::new(),
            ),
            seen: Mutex::new(Vec::new()),
        });
        let mut ds = DataSource::new();
        ds.add_opendap("lai", "LAI", table.clone());
        let mappings = parse_mappings(&listing2("lai")).unwrap();
        let vg = VirtualGraph::new(ds, mappings).unwrap();
        // 2 times x 2 x 2 cells: eight observations, one row each.
        let columns = |q: &str| -> Vec<Vec<String>> {
            table.seen.lock().unwrap().clear();
            let r = applab_sparql::query(&vg, q).unwrap();
            let n = sorted_csv(&r).len();
            let mut seen = table.seen.lock().unwrap().clone();
            assert_eq!(seen.len(), 8, "{q}");
            assert!(
                n == 8 || q.contains("COUNT") && sorted_csv(&r) == ["8"],
                "{q}"
            );
            seen.dedup();
            seen
        };
        assert_eq!(
            columns("SELECT ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?w }"),
            [["LAI"]]
        );
        assert_eq!(
            columns("SELECT ?s ?lai WHERE { ?s lai:hasLai ?lai }"),
            [["LAI", "id"]]
        );
        assert_eq!(
            columns("SELECT ?t ?w WHERE { ?s time:hasTime ?t . ?s geo:hasGeometry ?g . ?g geo:asWKT ?w }"),
            [["loc", "ts"]]
        );
        // Nothing read: the rows carry no column, one per observation.
        assert_eq!(
            columns("SELECT (COUNT(*) AS ?n) WHERE { ?s lai:hasLai ?lai }"),
            [Vec::<String>::new()]
        );
    }

    /// Listing 2's mapping over a dataset named `dataset`.
    fn listing2(dataset: &str) -> String {
        format!(
            "mappingId opendap_mapping\ntarget lai:{{id}} rdf:type lai:Observation .\n       lai:{{id}} lai:hasLai {{LAI}}^^xsd:float ;\n       time:hasTime {{ts}}^^xsd:dateTime .\n       lai:{{id}} geo:hasGeometry _:g_{{id}} .\n       _:g_{{id}} geo:asWKT {{loc}}^^geo:wktLiteral .\nsource SELECT id, LAI, ts, loc FROM (ordered opendap url:https://x/thredds/dodsC/{dataset}/readdods/LAI/, 10) WHERE LAI > 0\n"
        )
    }
}
