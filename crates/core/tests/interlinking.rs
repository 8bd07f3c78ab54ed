//! Interlinking reads its left-hand entities from the store: the store
//! holds exactly the triples the workflow loaded (links included), the
//! entities extracted from it equal those of a plain graph of the same
//! triples, and the links found are the ones that graph yields.

use applab_core::MaterializedWorkflow;
use applab_data::mappings as m;
use applab_data::ParisFixture;
use applab_geotriples::{parse_mappings, process};
use applab_link::{discover_links, Comparison, Entity, LinkRule};
use applab_rdf::Graph;
use applab_sparql::GraphSource;
use std::collections::BTreeSet;

/// Every triple of the workflow's store, as a graph.
fn stored(wf: &MaterializedWorkflow) -> Graph {
    Graph::from_iter(wf.store().triples_matching(None, None, None))
}

/// The named entities of a graph, comparable: (id, name, geometry, tokens).
fn named_entities(graph: &Graph) -> Vec<Entity> {
    let mut out: Vec<Entity> = Entity::all_from_graph(graph)
        .into_iter()
        .filter(|e| e.name.is_some())
        .collect();
    out.sort_by_key(|e| e.id.to_string());
    out
}

fn summary(entities: &[Entity]) -> Vec<String> {
    entities
        .iter()
        .map(|e| format!("{} {:?} {:?} {:?}", e.id, e.name, e.geometry, e.tokens))
        .collect()
}

#[test]
fn interlinking_reads_the_same_entities_and_links_from_the_store() {
    // The `interlinking_adds_sameas` fixture: the POIs against themselves
    // under different IRIs.
    let fixture = ParisFixture::generate(2, 10, 8);
    let osm = fixture.world.osm_table();
    let mut wf = MaterializedWorkflow::new();
    wf.load_table(&osm, m::OSM_MAPPING).unwrap();
    let external = {
        let mut renamed = osm.clone();
        renamed.name = "external".into();
        let mapping = m::OSM_MAPPING
            .replace("osm:poi_{id}", "<http://external.org/poi_{id}>")
            .replace("osm:geom_{id}", "<http://external.org/geom_{id}>");
        process(&parse_mappings(&mapping).unwrap()[0], &renamed)
    };
    let rule = LinkRule::same_as(
        vec![
            (Comparison::NameLevenshtein, 0.6),
            (Comparison::SpatialProximity { max_distance: 0.01 }, 0.4),
        ],
        0.95,
    );

    // The store holds exactly the loaded triples, and yields the same
    // entities as a graph of them.
    let loaded: Graph = parse_mappings(m::OSM_MAPPING)
        .unwrap()
        .iter()
        .flat_map(|mapping| process(mapping, &osm))
        .collect();
    assert!(stored(&wf) == loaded);
    let left = named_entities(&loaded);
    assert!(!left.is_empty());
    assert_eq!(summary(&named_entities(&stored(&wf))), summary(&left));

    // The links found are the ones the graph's entities give.
    let expected = discover_links(&left, &named_entities(&external), &rule).to_graph(&rule);
    let n = wf.interlink(&external, &rule);
    assert!(n > 0);
    assert_eq!(n, expected.len());
    let same_as = |graph: &Graph| -> BTreeSet<String> {
        graph
            .iter()
            .filter(|t| t.predicate == rule.predicate)
            .map(ToString::to_string)
            .collect()
    };
    let with_links = stored(&wf);
    assert_eq!(same_as(&with_links), same_as(&expected));
    assert!(with_links == loaded.iter().chain(expected.iter()).cloned().collect());

    // A second call reads the first call's links back and adds nothing.
    let len = wf.len();
    assert_eq!(wf.interlink(&external, &rule), n);
    assert_eq!(wf.len(), len);
    assert!(stored(&wf) == with_links);
}
