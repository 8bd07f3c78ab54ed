//! Property tests: the dictionary-encoded hash-join pipeline
//! ([`applab_sparql::evaluate`]) is observationally equivalent to the
//! reference nested-loop evaluator ([`applab_sparql::reference`]) on
//! randomized graphs and queries.

use applab_rdf::{vocab, Graph, Literal, NamedNode, Resource, Term, Triple};
use applab_sparql::algebra::{
    Expression, GraphPattern, Query, QueryForm, TermPattern, TriplePattern,
};
use applab_sparql::{evaluate, reference, QueryResults};
use proptest::prelude::*;

/// Triples over a small vocabulary so patterns actually hit: IRIs, integers,
/// point geometries and dateTimes as objects.
fn triple_strategy() -> impl Strategy<Value = Triple> {
    let subject = (0u8..6).prop_map(|i| Resource::named(format!("http://ex.org/s{i}")));
    let predicate = (0u8..4).prop_map(|i| NamedNode::new(format!("http://ex.org/p{i}")));
    let object = prop_oneof![
        (0u8..6).prop_map(|i| Term::named(format!("http://ex.org/s{i}"))),
        (0i64..5).prop_map(|i| Literal::integer(i).into()),
        (-50.0f64..50.0, -50.0f64..50.0)
            .prop_map(|(x, y)| Literal::wkt(format!("POINT ({x} {y})")).into()),
        (0i64..1_000_000).prop_map(|t| Literal::datetime(t).into()),
    ];
    (subject, predicate, object).prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// Triple patterns over shared variables `?a ?b ?c ?g` (so BGPs join) and
/// the same constants the data uses.
fn pattern_strategy() -> impl Strategy<Value = TriplePattern> {
    (0u8..6, 0u8..4, 0u8..12).prop_map(|(s, p, o)| {
        let subject = match s {
            0..=2 => TermPattern::var(["a", "b", "c"][s as usize]),
            _ => TermPattern::Term(Term::named(format!("http://ex.org/s{}", s - 3))),
        };
        let predicate = TermPattern::Term(Term::named(format!("http://ex.org/p{p}")));
        let object = match o {
            0..=3 => TermPattern::var(["a", "b", "c", "g"][o as usize]),
            4..=7 => TermPattern::Term(Term::named(format!("http://ex.org/s{}", o - 4))),
            _ => TermPattern::Term(Literal::integer((o - 8) as i64).into()),
        };
        TriplePattern::new(subject, predicate, object)
    })
}

/// FILTER expressions covering the spatial fast path (incl. sfDisjoint),
/// distance buffering, temporal pushdown, and a generic comparison.
fn filter_strategy() -> impl Strategy<Value = Option<Expression>> {
    (0u8..6, -60.0f64..60.0, -60.0f64..60.0, 1.0f64..40.0).prop_map(|(c, x, y, w)| {
        let bbox = || {
            let (x2, y2) = (x + w, y + w);
            Expression::Constant(
                Literal::wkt(format!(
                    "POLYGON (({x} {y}, {x2} {y}, {x2} {y2}, {x} {y2}, {x} {y}))"
                ))
                .into(),
            )
        };
        let intersects = || {
            Expression::Call(
                NamedNode::new(vocab::geof::SF_INTERSECTS),
                vec![Expression::Var("g".into()), bbox()],
            )
        };
        let before = || {
            Expression::Less(
                Box::new(Expression::Var("c".into())),
                Box::new(Expression::Constant(
                    Literal::datetime((x.abs() * 10_000.0) as i64).into(),
                )),
            )
        };
        match c {
            0 => None,
            1 => Some(intersects()),
            2 => Some(Expression::Call(
                NamedNode::new(vocab::geof::SF_DISJOINT),
                vec![Expression::Var("g".into()), bbox()],
            )),
            3 => Some(before()),
            4 => Some(Expression::Less(
                Box::new(Expression::Call(
                    NamedNode::new(vocab::geof::DISTANCE),
                    vec![
                        Expression::Var("g".into()),
                        Expression::Constant(Literal::wkt(format!("POINT ({x} {y})")).into()),
                    ],
                )),
                Box::new(Expression::Constant(Literal::double(w).into())),
            )),
            _ => Some(Expression::And(Box::new(intersects()), Box::new(before()))),
        }
    })
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

/// (variables, sorted row strings) — order-insensitive, multiplicity-aware.
fn norm(r: &QueryResults) -> (Vec<String>, Vec<String>) {
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
    (r.variables().to_vec(), rows)
}

fn wrap(patterns: Vec<TriplePattern>, filter: Option<Expression>) -> GraphPattern {
    let bgp = GraphPattern::Bgp(patterns);
    match filter {
        Some(f) => GraphPattern::Filter(f, Box::new(bgp)),
        None => bgp,
    }
}

proptest! {
    #[test]
    fn pipeline_matches_reference_on_bgp_and_filter(
        triples in proptest::collection::vec(triple_strategy(), 0..60),
        patterns in proptest::collection::vec(pattern_strategy(), 1..4),
        filter in filter_strategy(),
    ) {
        let graph: Graph = triples.into_iter().collect();
        let q = select_all(wrap(patterns, filter));
        let new = evaluate(&graph, &q).unwrap();
        let old = reference::evaluate(&graph, &q).unwrap();
        prop_assert_eq!(norm(&new), norm(&old));
    }

    #[test]
    fn pipeline_matches_reference_on_optional_and_union(
        triples in proptest::collection::vec(triple_strategy(), 0..60),
        left in proptest::collection::vec(pattern_strategy(), 1..3),
        right in proptest::collection::vec(pattern_strategy(), 1..3),
        filter in filter_strategy(),
        use_union in any::<bool>(),
    ) {
        let graph: Graph = triples.into_iter().collect();
        let l = Box::new(GraphPattern::Bgp(left));
        let r = Box::new(wrap(right, filter));
        let pattern = if use_union {
            GraphPattern::Union(l, r)
        } else {
            GraphPattern::LeftJoin(l, r)
        };
        let q = select_all(pattern);
        let new = evaluate(&graph, &q).unwrap();
        let old = reference::evaluate(&graph, &q).unwrap();
        prop_assert_eq!(norm(&new), norm(&old));
    }
}
