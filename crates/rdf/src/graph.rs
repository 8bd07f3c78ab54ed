//! An in-memory RDF graph with pattern matching.
//!
//! [`Graph`] is the interchange container between pipeline stages
//! (GeoTriples output, interlinking input, Sextant layers, ontologies). It is
//! deliberately simple — deduplicated insertion order plus a subject index.
//! Query-optimised storage lives in `applab-store`.

use crate::term::{NamedNode, Resource, Term, Triple};
use std::collections::{HashMap, HashSet};

/// A deduplicating, insertion-ordered triple container.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    triples: Vec<Triple>,
    seen: HashSet<Triple>,
    by_subject: HashMap<Resource, Vec<usize>>,
}

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }

    pub fn len(&self) -> usize {
        self.triples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Insert a triple; returns `false` if it was already present.
    pub fn insert(&mut self, triple: Triple) -> bool {
        if !self.seen.insert(triple.clone()) {
            return false;
        }
        self.by_subject
            .entry(triple.subject.clone())
            .or_default()
            .push(self.triples.len());
        self.triples.push(triple);
        true
    }

    /// Insert a (subject, predicate, object) without building a Triple first.
    pub fn add(
        &mut self,
        subject: impl Into<Resource>,
        predicate: impl Into<NamedNode>,
        object: impl Into<Term>,
    ) -> bool {
        self.insert(Triple::new(subject, predicate, object))
    }

    pub fn contains(&self, triple: &Triple) -> bool {
        self.seen.contains(triple)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Triple> {
        self.triples.iter()
    }

    /// All triples with the given subject.
    pub fn about<'a>(&'a self, subject: &Resource) -> impl Iterator<Item = &'a Triple> {
        self.by_subject
            .get(subject)
            .into_iter()
            .flatten()
            .map(move |&i| &self.triples[i])
    }

    /// Triples matching an optional (s, p, o) pattern; `None` is a wildcard.
    pub fn matching<'a>(
        &'a self,
        subject: Option<&'a Resource>,
        predicate: Option<&'a NamedNode>,
        object: Option<&'a Term>,
    ) -> Box<dyn Iterator<Item = &'a Triple> + 'a> {
        let filter = move |t: &&Triple| {
            predicate.is_none_or(|p| &t.predicate == p) && object.is_none_or(|o| &t.object == o)
        };
        match subject {
            Some(s) => Box::new(self.about(s).filter(filter)),
            None => Box::new(self.triples.iter().filter(filter)),
        }
    }

    /// The first object of (subject, predicate, ?o), if any.
    pub fn object_of(&self, subject: &Resource, predicate: &NamedNode) -> Option<&Term> {
        self.about(subject)
            .find(|t| &t.predicate == predicate)
            .map(|t| &t.object)
    }

    /// All distinct subjects, in first-appearance order.
    pub fn subjects(&self) -> Vec<&Resource> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for t in &self.triples {
            if seen.insert(&t.subject) {
                out.push(&t.subject);
            }
        }
        out
    }

    /// Subjects that have `rdf:type` equal to `class`.
    pub fn instances_of<'a>(
        &'a self,
        class: &'a NamedNode,
    ) -> impl Iterator<Item = &'a Resource> + 'a {
        let rdf_type = NamedNode::new(crate::vocab::rdf::TYPE);
        let class_term = Term::Named(class.clone());
        self.triples.iter().filter_map(move |t| {
            (t.predicate == rdf_type && t.object == class_term).then_some(&t.subject)
        })
    }

    /// Merge another graph into this one; returns the number of new triples.
    pub fn extend_from(&mut self, other: &Graph) -> usize {
        let mut added = 0;
        for t in other.iter() {
            if self.insert(t.clone()) {
                added += 1;
            }
        }
        added
    }
}

impl PartialEq for Graph {
    /// Set equality: insertion order does not matter.
    fn eq(&self, other: &Self) -> bool {
        self.seen == other.seen
    }
}

impl Eq for Graph {}

impl FromIterator<Triple> for Graph {
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let mut g = Graph::new();
        for t in iter {
            g.insert(t);
        }
        g
    }
}

impl IntoIterator for Graph {
    type Item = Triple;
    type IntoIter = std::vec::IntoIter<Triple>;

    fn into_iter(self) -> Self::IntoIter {
        self.triples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Literal;
    use crate::vocab;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let park = Resource::named("http://ex.org/park1");
        g.add(
            park.clone(),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(vocab::osm::POI),
        );
        g.add(
            park.clone(),
            NamedNode::new(vocab::osm::HAS_NAME),
            Literal::string("Bois de Boulogne"),
        );
        g.add(
            Resource::named("http://ex.org/park2"),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(vocab::osm::POI),
        );
        g
    }

    #[test]
    fn insert_deduplicates() {
        let mut g = sample();
        let before = g.len();
        let dup = g.iter().next().unwrap().clone();
        assert!(!g.insert(dup));
        assert_eq!(g.len(), before);
    }

    #[test]
    fn matching_patterns() {
        let g = sample();
        let park = Resource::named("http://ex.org/park1");
        let type_pred = NamedNode::new(vocab::rdf::TYPE);
        assert_eq!(g.matching(Some(&park), None, None).count(), 2);
        assert_eq!(g.matching(None, Some(&type_pred), None).count(), 2);
        let poi = Term::named(vocab::osm::POI);
        assert_eq!(g.matching(None, Some(&type_pred), Some(&poi)).count(), 2);
        assert_eq!(g.matching(None, None, None).count(), 3);
    }

    #[test]
    fn object_of_lookup() {
        let g = sample();
        let park = Resource::named("http://ex.org/park1");
        let name = g
            .object_of(&park, &NamedNode::new(vocab::osm::HAS_NAME))
            .unwrap();
        assert_eq!(name.as_literal().unwrap().value(), "Bois de Boulogne");
        assert!(g
            .object_of(&park, &NamedNode::new("http://ex.org/missing"))
            .is_none());
    }

    #[test]
    fn instances_of_class() {
        let g = sample();
        let poi = NamedNode::new(vocab::osm::POI);
        assert_eq!(g.instances_of(&poi).count(), 2);
    }

    #[test]
    fn extend_from_counts_new_only() {
        let mut g = sample();
        let g2 = sample();
        assert_eq!(g.extend_from(&g2), 0);
        let mut g3 = Graph::new();
        g3.add(
            Resource::named("http://ex.org/x"),
            NamedNode::new(vocab::rdfs::LABEL),
            Literal::string("x"),
        );
        assert_eq!(g.extend_from(&g3), 1);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn subjects_in_order() {
        let g = sample();
        let subs = g.subjects();
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0], &Resource::named("http://ex.org/park1"));
    }
}
