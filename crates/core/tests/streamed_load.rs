//! `load_table` streams GeoTriples' output into the store in row order.
//! Streaming must change nothing a reader can see: the store holds the
//! same triples under the same dictionary ids as one bulk-loaded from the
//! deduplicated `Graph` the processor builds, and the streamed triples
//! are exactly the per-row expansions of the mapping's templates.

use applab_core::MaterializedWorkflow;
use applab_data::ParisFixture;
use applab_geotriples::{for_each_triple, parse_mappings, process, TabularSource};
use applab_rdf::{Graph, Triple};
use applab_sparql::GraphSource;
use applab_store::SpatioTemporalStore;

fn tables() -> [(TabularSource, &'static str); 4] {
    ParisFixture::generate(2019, 40, 2).world.tables()
}

#[test]
fn streamed_expansion_equals_the_templates_row_by_row() {
    for (table, doc) in tables() {
        for mapping in parse_mappings(doc).unwrap() {
            let want: Vec<Triple> = table
                .rows
                .iter()
                .flat_map(|row| mapping.target.iter().filter_map(|t| t.expand(row)))
                .collect();
            assert!(!want.is_empty(), "{}: nothing expanded", mapping.id);
            for workers in [1, 4] {
                let mut got = Vec::with_capacity(want.len());
                for_each_triple(&mapping, &table, workers, |t| got.push(t));
                assert!(got == want, "{} with {workers} workers", mapping.id);
            }
        }
    }
}

#[test]
fn streamed_load_gives_the_store_of_the_processed_graph() {
    let mut workflow = MaterializedWorkflow::new().with_workers(4);
    let mut graph = Graph::new();
    for (table, doc) in tables() {
        workflow.load_table(&table, doc).unwrap();
        for mapping in parse_mappings(doc).unwrap() {
            graph.extend_from(&process(&mapping, &table));
        }
    }
    let bulk = SpatioTemporalStore::from_graph(&graph);
    assert_eq!(workflow.len(), bulk.len());
    assert_eq!(workflow.len(), graph.len());
    // SPO order is dictionary-id order, so equal sequences mean equal ids.
    let streamed = workflow.store().triples_matching(None, None, None);
    assert!(streamed == bulk.triples_matching(None, None, None));
}
