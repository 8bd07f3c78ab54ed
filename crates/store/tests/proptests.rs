//! Property-based tests: the indexed store is observationally equivalent
//! to the plain graph (and to the naive store) — its indexes are a pure
//! optimization.

use applab_geo::Envelope;
use applab_rdf::{Graph, Literal, NamedNode, Resource, Term, Triple};
use applab_sparql::{GraphSource, IdAccess, IdColumns};
use applab_store::{NaiveStore, SpatioTemporalStore};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashSet;

/// Triples over a small vocabulary so patterns actually hit.
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

fn sort_triples(mut v: Vec<Triple>) -> Vec<String> {
    let mut out: Vec<String> = v.drain(..).map(|t| t.to_string()).collect();
    out.sort();
    out
}

type Shape<'a> = (
    Option<&'a Resource>,
    Option<&'a NamedNode>,
    Option<&'a Term>,
);

/// The eight bound shapes of an (s?, p?, o?) pattern.
fn shapes<'a>(s: &'a Resource, p: &'a NamedNode, o: &'a Term) -> [Shape<'a>; 8] {
    [
        (None, None, None),
        (Some(s), None, None),
        (None, Some(p), None),
        (None, None, Some(o)),
        (Some(s), Some(p), None),
        (Some(s), None, Some(o)),
        (None, Some(p), Some(o)),
        (Some(s), Some(p), Some(o)),
    ]
}

fn store_matches_graph(
    store: &SpatioTemporalStore,
    graph: &Graph,
    (s, p, o): (&Resource, &NamedNode, &Term),
) -> Result<(), TestCaseError> {
    for (subject, predicate, object) in shapes(s, p, o) {
        let a = sort_triples(graph.triples_matching(subject, predicate, object));
        let b = sort_triples(store.triples_matching(subject, predicate, object));
        prop_assert_eq!(
            a,
            b,
            "store differs on ({:?},{:?},{:?})",
            subject,
            predicate,
            object
        );
    }
    Ok(())
}

/// The triples of `graph` matching (s?, p?, _) whose object is a geometry
/// with an envelope intersecting `env`.
fn spatial_post_filter(
    graph: &Graph,
    (s, p): (Option<&Resource>, Option<&NamedNode>),
    env: &Envelope,
) -> Vec<Triple> {
    graph
        .triples_matching(s, p, None)
        .into_iter()
        .filter(|t| {
            t.object
                .as_literal()
                .and_then(Literal::as_geometry)
                .map(|g| g.envelope().intersects(env))
                .unwrap_or(false)
        })
        .collect()
}

/// The triples of `graph` matching (s?, p?, _) whose object is a dateTime
/// in `[start, end]`.
fn temporal_post_filter(
    graph: &Graph,
    (s, p): (Option<&Resource>, Option<&NamedNode>),
    start: i64,
    end: i64,
) -> Vec<Triple> {
    graph
        .triples_matching(s, p, None)
        .into_iter()
        .filter(|t| {
            t.object
                .as_literal()
                .and_then(Literal::as_datetime)
                .map(|ts| (start..=end).contains(&ts))
                .unwrap_or(false)
        })
        .collect()
}

/// A sealed id scan returns its run in the key order of the permutation
/// that leads with the bound positions: SPO, or POS when P is bound
/// without S, or OSP when O is bound without P.
fn id_scans_are_in_key_order(
    store: &SpatioTemporalStore,
    (s, p, o): (&Resource, &NamedNode, &Term),
) -> Result<(), TestCaseError> {
    for (subject, predicate, object) in shapes(s, p, o) {
        let id = |term: Option<Term>| term.map(|t| store.term_to_id(&t).ok_or(())).transpose();
        let (Ok(si), Ok(pi), Ok(oi)) = (
            id(subject.cloned().map(Term::from)),
            id(predicate.cloned().map(Term::Named)),
            id(object.cloned()),
        ) else {
            continue; // a bound term the store never saw
        };
        let mut cols = IdColumns::default();
        store.scan_ids_columns(si, pi, oi, &mut cols);
        let keys: Vec<[u64; 3]> = (0..cols.len())
            .map(|i| {
                let [s, p, o] = [cols.s[i], cols.p[i], cols.o[i]];
                match (si.is_some(), pi.is_some(), oi.is_some()) {
                    (false, true, _) => [p, o, s],
                    (_, false, true) => [o, s, p],
                    _ => [s, p, o],
                }
            })
            .collect();
        prop_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "scan ({:?},{:?},{:?}) is not in key order: {:?}",
            si,
            pi,
            oi,
            keys
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn store_matches_graph_on_all_patterns(
        triples in proptest::collection::vec(triple_strategy(), 0..60),
        si in 0u8..6,
        pi in 0u8..4,
    ) {
        let graph: Graph = triples.into_iter().collect();
        let store = SpatioTemporalStore::from_graph(&graph);
        let naive = NaiveStore::from_graph(&graph);
        prop_assert_eq!(store.len(), graph.len());

        let s = Resource::named(format!("http://ex.org/s{si}"));
        let p = NamedNode::new(format!("http://ex.org/p{pi}"));
        let o: Term = Literal::integer(2).into();
        store_matches_graph(&store, &graph, (&s, &p, &o))?;
        for (subject, predicate, object) in shapes(&s, &p, &o) {
            let a = sort_triples(graph.triples_matching(subject, predicate, object));
            let c = sort_triples(naive.triples_matching(subject, predicate, object));
            prop_assert_eq!(&a, &c, "naive differs");
        }
    }

    #[test]
    fn store_matches_graph_across_seals(
        rounds in proptest::collection::vec(
            proptest::collection::vec(triple_strategy(), 0..30),
            1..=4,
        ),
        si in 0u8..6,
        pi in 0u8..4,
        oi in 0i64..5,
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        start in 0i64..500_000,
    ) {
        let s = Resource::named(format!("http://ex.org/s{si}"));
        let p = NamedNode::new(format!("http://ex.org/p{pi}"));
        let o: Term = Literal::integer(oi).into();
        let mut store = SpatioTemporalStore::new();
        let mut model = HashSet::new();
        for (i, round) in rounds.iter().enumerate() {
            // Every third triple of a round comes twice, and every fourth
            // triple of the earlier rounds comes again.
            let repeats = round
                .iter()
                .step_by(3)
                .chain(rounds[..i].iter().flatten().step_by(4));
            for t in round.iter().chain(repeats) {
                prop_assert_eq!(store.insert(t.clone()), model.insert(t.clone()));
                prop_assert_eq!(store.len(), model.len());
            }
            if i + 1 == rounds.len() {
                // The last round is still pending: scans see it all the same.
                let graph: Graph = model.iter().cloned().collect();
                store_matches_graph(&store, &graph, (&s, &p, &o))?;
            }
            store.finish_load();
        }
        let graph: Graph = model.into_iter().collect();
        store_matches_graph(&store, &graph, (&s, &p, &o))?;
        id_scans_are_in_key_order(&store, (&s, &p, &o))?;

        let env = Envelope::new(qx, qy, qx + 30.0, qy + 30.0);
        let end = start + 300_000;
        for (subject, predicate) in [
            (None, None),
            (Some(&s), None),
            (None, Some(&p)),
            (Some(&s), Some(&p)),
        ] {
            // A bound term the store never saw declines the pushdown.
            let spatial = store.triples_matching_spatial(subject, predicate, &env);
            let temporal = store.triples_matching_temporal(subject, predicate, start, end);
            if subject.is_none() && predicate.is_none() {
                prop_assert!(spatial.is_some() && temporal.is_some());
            }
            prop_assert_eq!(
                sort_triples(spatial.unwrap_or_default()),
                sort_triples(spatial_post_filter(&graph, (subject, predicate), &env))
            );
            prop_assert_eq!(
                sort_triples(temporal.unwrap_or_default()),
                sort_triples(temporal_post_filter(&graph, (subject, predicate), start, end))
            );
        }
    }

    #[test]
    fn spatial_pushdown_equals_post_filter(
        triples in proptest::collection::vec(triple_strategy(), 0..60),
        qx in -60.0f64..60.0,
        qy in -60.0f64..60.0,
        w in 1.0f64..40.0,
    ) {
        let graph: Graph = triples.into_iter().collect();
        let store = SpatioTemporalStore::from_graph(&graph);
        let env = Envelope::new(qx, qy, qx + w, qy + w);
        let fast = store
            .triples_matching_spatial(None, None, &env)
            .expect("store implements the spatial hook");
        let slow = spatial_post_filter(&graph, (None, None), &env);
        prop_assert_eq!(sort_triples(fast), sort_triples(slow));
    }

    #[test]
    fn temporal_pushdown_equals_post_filter(
        triples in proptest::collection::vec(triple_strategy(), 0..60),
        start in 0i64..500_000,
        len in 0i64..500_000,
    ) {
        let graph: Graph = triples.into_iter().collect();
        let store = SpatioTemporalStore::from_graph(&graph);
        let end = start + len;
        let fast = store
            .triples_matching_temporal(None, None, start, end)
            .expect("sorted after from_graph");
        let slow = temporal_post_filter(&graph, (None, None), start, end);
        prop_assert_eq!(sort_triples(fast), sort_triples(slow));
    }

    #[test]
    fn sparql_answers_agree_across_engines(
        triples in proptest::collection::vec(triple_strategy(), 0..50),
    ) {
        let graph: Graph = triples.into_iter().collect();
        let store = SpatioTemporalStore::from_graph(&graph);
        let q = "SELECT ?s ?o WHERE { ?s <http://ex.org/p0> ?o . ?o <http://ex.org/p1> ?x }";
        let a = applab_sparql::query(&graph, q).unwrap();
        let b = applab_sparql::query(&store, q).unwrap();
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
        prop_assert_eq!(norm(&a), norm(&b));
    }
}
