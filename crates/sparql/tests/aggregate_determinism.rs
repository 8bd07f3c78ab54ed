//! Pinned regressions from the differential QA harness: aggregates must
//! depend only on the *multiset* of group members, never on the order an
//! engine happened to deliver them in.
//!
//! Two bugs are pinned here:
//!
//! 1. SUM/AVG summed f64s in delivery order. Floating-point addition is
//!    not associative, so the pipeline and the reference evaluator could
//!    print different (all "correct") sums for the same group. Fixed by sorting addends with `total_cmp`
//!    before reducing.
//! 2. MIN/MAX used numeric comparison only, under which distinct terms
//!    like `5` (xsd:integer) and `"5.0"` (xsd:double) compare Equal — the
//!    winner was whichever arrived first. Fixed by breaking numeric ties
//!    on the printed form.

use applab_rdf::{Graph, Literal, NamedNode, Resource, Term, Triple};
use applab_sparql::{evaluate, parse_query, reference, QueryResults};

/// A graph of `<http://ex.org/s{i}> <http://ex.org/p> {value}` triples,
/// inserted in the order given.
fn graph_of(values: &[Literal]) -> Graph {
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            Triple::new(
                Resource::named(format!("http://ex.org/s{i}")),
                NamedNode::new("http://ex.org/p"),
                Term::Literal(v.clone()),
            )
        })
        .collect()
}

/// The single row of a solutions result, rendered term-by-term.
fn row_strings(r: &QueryResults) -> Vec<String> {
    match r {
        QueryResults::Solutions { rows, .. } => {
            assert_eq!(rows.len(), 1, "expected exactly one row");
            rows[0]
                .values
                .iter()
                .map(|v| v.as_ref().map(Term::to_string).unwrap_or_default())
                .collect()
        }
        other => panic!("expected solutions, got {other:?}"),
    }
}

/// Evaluate `query` over `graph` on the pipeline and the reference
/// evaluator and demand one identical lexical answer.
fn unanimous(graph: &Graph, query: &str) -> Vec<String> {
    let q = parse_query(query).expect("query parses");
    let reference = row_strings(&reference::evaluate(graph, &q).expect("reference evaluates"));
    let pipeline = row_strings(&evaluate(graph, &q).expect("pipeline evaluates"));
    assert_eq!(reference, pipeline, "reference vs pipeline");
    reference
}

const SUM_AVG: &str = "SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) WHERE { ?x <http://ex.org/p> ?v }";
const MIN_MAX: &str = "SELECT (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?x <http://ex.org/p> ?v }";

#[test]
fn sum_and_avg_ignore_delivery_order() {
    // Catastrophic cancellation: (1e16 + 1.0) == 1e16 in f64, so summing
    // left-to-right vs right-to-left disagrees unless the addends are
    // canonically ordered first.
    let values = [
        Literal::double(1e16),
        Literal::double(1.0),
        Literal::double(-1e16),
        Literal::double(1.0),
    ];
    let mut reversed = values.clone();
    reversed.reverse();

    let forward = unanimous(&graph_of(&values), SUM_AVG);
    let backward = unanimous(&graph_of(&reversed), SUM_AVG);
    assert_eq!(
        forward, backward,
        "SUM/AVG changed with insertion order of an identical multiset"
    );
}

#[test]
fn min_and_max_break_numeric_ties_deterministically() {
    // Numerically equal, lexically distinct: the old code kept whichever
    // term it saw first.
    let values = [Literal::integer(5), Literal::double(5.0)];
    let mut reversed = values.clone();
    reversed.reverse();

    let forward = unanimous(&graph_of(&values), MIN_MAX);
    let backward = unanimous(&graph_of(&reversed), MIN_MAX);
    assert_eq!(
        forward, backward,
        "MIN/MAX tie-break changed with insertion order"
    );
    // The tie-break is observable: min and max pick *different* terms from
    // the two-element tie, so a "first one wins" regression flips one of
    // them.
    assert_ne!(forward[0], forward[1], "tie-break collapsed min and max");
}
