//! The data-source abstraction the evaluator runs against.

use crate::algebra::TriplePattern;
use crate::expr::Binding;
use applab_geo::Envelope;
use applab_rdf::{Graph, NamedNode, Resource, Term, Triple};
use std::collections::HashMap;

/// A source of triples. Implemented by [`applab_rdf::Graph`] (linear scan),
/// by the Strabon-like store (index lookups + R-tree spatial pushdown), and
/// by the OBDA virtual graphs (mapping rewriting).
pub trait GraphSource {
    /// All triples matching the pattern; `None` components are wildcards.
    fn triples_matching(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        object: Option<&Term>,
    ) -> Vec<Triple>;

    /// Spatially constrained variant: triples whose **object** is a
    /// `geo:wktLiteral` with an envelope intersecting `envelope`. Sources
    /// without a spatial index return `None` and the evaluator falls back to
    /// [`GraphSource::triples_matching`] plus a post-filter.
    ///
    /// This hook is how the R-tree advantage that the paper attributes to
    /// Strabon/Ontop-spatial reaches the shared evaluator.
    fn triples_matching_spatial(
        &self,
        _subject: Option<&Resource>,
        _predicate: Option<&NamedNode>,
        _envelope: &Envelope,
    ) -> Option<Vec<Triple>> {
        None
    }

    /// Temporally constrained variant: triples whose **object** is an
    /// `xsd:dateTime` literal within `[start, end]` (epoch seconds). Sources
    /// without a temporal index return `None`; the evaluator falls back to a
    /// scan plus post-filter. This mirrors Strabon's valid-time indexing.
    fn triples_matching_temporal(
        &self,
        _subject: Option<&Resource>,
        _predicate: Option<&NamedNode>,
        _start: i64,
        _end: i64,
    ) -> Option<Vec<Triple>> {
        None
    }

    /// Whole-BGP evaluation hook — the OBDA "query rewriting" fast path.
    ///
    /// Ontop-style sources can answer an entire basic graph pattern with a
    /// single relational plan (one scan instead of an n-way self-join of
    /// triple lookups). A source that can handle the given patterns returns
    /// the bindings for an *empty* initial binding; the evaluator then
    /// merge-joins them with its current solutions. Returning `None` (the
    /// default) falls back to pattern-at-a-time evaluation.
    ///
    /// `spatial` carries per-variable envelope constraints extracted from
    /// the surrounding filters (same contract as
    /// [`GraphSource::triples_matching_spatial`]).
    ///
    /// `observed(v)` says whether anything outside these patterns reads
    /// variable `v`: the projection (every variable under `SELECT *`), a
    /// CONSTRUCT template, a FILTER, BIND, VALUES, GROUP BY, ORDER BY or
    /// aggregate, or a triple pattern elsewhere in the query (another
    /// component or BGP, an OPTIONAL or UNION branch, the threaded input).
    /// A source may leave an unobserved variable out of its bindings, but
    /// only when that cannot change which solutions exist: it still
    /// answers one solution per match, so `COUNT(*)` and bag
    /// multiplicities are those of the full bindings. Callers that want
    /// every variable pass `&|_| true`; the evaluator computes the answer
    /// on the first call, so a source that never asks pays nothing.
    fn evaluate_bgp(
        &self,
        _patterns: &[TriplePattern],
        _spatial: &HashMap<String, Envelope>,
        _observed: &dyn Fn(&str) -> bool,
    ) -> Option<Vec<Binding>> {
        None
    }

    /// Seal-time statistics for the cost-based planner
    /// ([`crate::plan`]). Sources that collect a sketch when they seal
    /// return it here; with the default `None` the planner works from
    /// empty statistics, where every estimate ties and the order is
    /// connected-first with the [`crate::plan::pattern_key`] tie-break.
    fn stats(&self) -> Option<&crate::plan::Stats> {
        None
    }

    /// Dictionary-level access for sources that store triples as id tuples.
    ///
    /// The evaluator scans every source through one routine; this choice
    /// only decides where a pattern's match columns come from. Returning
    /// `Some` makes the source fill them with its own ids
    /// ([`IdAccess::scan_ids_columns`] and its spatial/temporal variants),
    /// so a scan decodes and interns no term, and terms are only decoded at
    /// FILTER / projection boundaries (late materialization). The default
    /// `None` keeps the decoded-triple contract: the evaluator calls
    /// [`GraphSource::triples_matching`] (or a variant) and interns the
    /// returned terms into query-local ids, so [`applab_rdf::Graph`], the
    /// naive store and the OBDA virtual graphs work unchanged.
    fn id_access(&self) -> Option<&dyn IdAccess> {
        None
    }
}

/// Id-level view of a dictionary-encoded source (see
/// [`GraphSource::id_access`]).
///
/// Ids must be stable for the lifetime of the borrow and densely cover
/// `0..id_count()`; the evaluator allocates its own query-local overflow ids
/// from `id_count()` upward for terms the source has never seen.
pub trait IdAccess {
    /// Id of a term, if the source has it interned.
    fn term_to_id(&self, term: &Term) -> Option<u64>;

    /// Term for an id this source produced.
    fn id_to_term(&self, id: u64) -> Option<&Term>;

    /// Number of interned terms (ids are `0..id_count()`).
    fn id_count(&self) -> u64;

    /// Append every id triple matching an (s?, p?, o?) id pattern to the
    /// three match columns in `out`. Index-backed sources write their range
    /// walks straight into the columns, and the vectorized evaluator turns
    /// them into a solution batch without any per-row tuple allocation.
    fn scan_ids_columns(&self, s: Option<u64>, p: Option<u64>, o: Option<u64>, out: &mut IdColumns);

    /// Spatial variant of [`IdAccess::scan_ids_columns`]: id triples whose object is
    /// a geometry literal with an envelope intersecting `envelope`. `None`
    /// declines (no spatial index).
    fn scan_ids_spatial(
        &self,
        _s: Option<u64>,
        _p: Option<u64>,
        _envelope: &Envelope,
    ) -> Option<Vec<(u64, u64, u64)>> {
        None
    }

    /// Temporal variant of [`IdAccess::scan_ids_columns`]: id triples whose object
    /// is a dateTime literal within `[start, end]` epoch seconds. `None`
    /// declines.
    fn scan_ids_temporal(
        &self,
        _s: Option<u64>,
        _p: Option<u64>,
        _start: i64,
        _end: i64,
    ) -> Option<Vec<(u64, u64, u64)>> {
        None
    }

    /// The pre-parsed geometry (with envelope) of the term behind `id`, if
    /// the source maintains a geometry table. Lets the evaluator's spatial
    /// filters and `geof:` projections skip WKT parsing entirely for native
    /// ids. The default declines.
    fn geometry(&self, _id: u64) -> Option<&(applab_geo::Geometry, Envelope)> {
        None
    }
}

/// Three structure-of-arrays match columns produced by
/// [`IdAccess::scan_ids_columns`]: `s[i], p[i], o[i]` is the i-th matching
/// id triple.
#[derive(Debug, Clone, Default)]
pub struct IdColumns {
    pub s: Vec<u64>,
    pub p: Vec<u64>,
    pub o: Vec<u64>,
}

impl IdColumns {
    /// Number of matched triples.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.s.reserve(additional);
        self.p.reserve(additional);
        self.o.reserve(additional);
    }

    #[inline]
    pub fn push(&mut self, s: u64, p: u64, o: u64) {
        self.s.push(s);
        self.p.push(p);
        self.o.push(o);
    }
}

impl GraphSource for Graph {
    fn triples_matching(
        &self,
        subject: Option<&Resource>,
        predicate: Option<&NamedNode>,
        object: Option<&Term>,
    ) -> Vec<Triple> {
        self.matching(subject, predicate, object).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_rdf::{vocab, Literal};

    #[test]
    fn graph_implements_source() {
        let mut g = Graph::new();
        g.add(
            Resource::named("http://ex.org/a"),
            NamedNode::new(vocab::rdfs::LABEL),
            Literal::string("A"),
        );
        g.add(
            Resource::named("http://ex.org/b"),
            NamedNode::new(vocab::rdfs::LABEL),
            Literal::string("B"),
        );
        let source: &dyn GraphSource = &g;
        assert_eq!(source.triples_matching(None, None, None).len(), 2);
        let a = Resource::named("http://ex.org/a");
        assert_eq!(source.triples_matching(Some(&a), None, None).len(), 1);
        // Spatial pushdown is absent by default.
        assert!(source
            .triples_matching_spatial(None, None, &Envelope::new(0.0, 0.0, 1.0, 1.0))
            .is_none());
    }
}
