//! N-Triples reading and writing.
//!
//! N-Triples is the exchange format GeoTriples emits for bulk loading into
//! the store. The writer produces canonical one-triple-per-line output; the
//! parser accepts any N-Triples document (it reuses the Turtle parser, of
//! which N-Triples is a strict subset).

use crate::graph::Graph;
use crate::turtle::{parse_turtle, TurtleError};
use std::fmt::Write;

/// Serialize a graph as N-Triples, one statement per line, in insertion
/// order.
pub fn write_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    for t in graph.iter() {
        let _ = writeln!(out, "{t}");
    }
    out
}

/// Parse an N-Triples document.
pub fn parse_ntriples(input: &str) -> Result<Graph, TurtleError> {
    parse_turtle(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Literal, NamedNode, Resource, Term};
    use crate::vocab;

    #[test]
    fn roundtrip() {
        let mut g = Graph::new();
        g.add(
            Resource::named("http://ex.org/a"),
            NamedNode::new(vocab::rdfs::LABEL),
            Literal::lang("Paris", "fr"),
        );
        g.add(
            Resource::named("http://ex.org/a"),
            NamedNode::new(vocab::geo::AS_WKT),
            Literal::wkt("POINT (2.35 48.85)"),
        );
        g.add(
            Resource::blank("n1"),
            NamedNode::new(vocab::rdf::TYPE),
            Term::named(vocab::geo::FEATURE),
        );
        let text = write_ntriples(&g);
        assert_eq!(text.lines().count(), 3);
        let parsed = parse_ntriples(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        for t in g.iter() {
            assert!(parsed.contains(t));
        }
    }

    #[test]
    fn parses_plain_ntriples() {
        let doc = concat!(
            "<http://a> <http://p> \"v\" .\n",
            "# a comment line\n",
            "<http://a> <http://q> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
        );
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn empty_document() {
        assert_eq!(parse_ntriples("").unwrap().len(), 0);
        assert_eq!(parse_ntriples("  \n# only comments\n").unwrap().len(), 0);
    }
}
