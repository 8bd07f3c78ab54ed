//! `query_explained` on both workflow facades: the EXPLAIN tree carries
//! the expected stages, cardinalities, and backend tag, and the results
//! match the plain `query` path.

use applab_core::{MaterializedWorkflow, QueryEndpoint, VirtualWorkflowBuilder};
use applab_data::{mappings, ParisFixture};

const QUERY: &str =
    "SELECT ?a ?p WHERE { ?a a ua:UrbanAtlasArea ; ua:hasPopulation ?p . FILTER(?p > 1000) }";

#[test]
fn materialized_explain_reports_stages() {
    let fixture = ParisFixture::generate(7, 12, 8);
    let mut wf = MaterializedWorkflow::new();
    wf.load_table(
        &fixture.world.urban_atlas_table(),
        mappings::URBAN_ATLAS_MAPPING,
    )
    .unwrap();

    let plain = wf.query(QUERY).unwrap();
    let explained = wf.query_explained(QUERY).unwrap();
    assert_eq!(plain, explained.results);
    assert!(!explained.results.is_empty());

    let tree = &explained.profile;
    assert_eq!(tree.name(), "query");
    assert_eq!(
        tree.field("backend").map(ToString::to_string),
        Some("store".into())
    );
    for stage in [
        "parse",
        "sparql.evaluate",
        "bgp",
        "scan",
        "join",
        "filter",
        "project",
    ] {
        assert!(tree.find(stage).is_some(), "missing stage {stage}");
    }
    // Cardinalities: the project output matches the result row count.
    let project = tree.find("project").unwrap();
    assert_eq!(
        project.field("rows").map(ToString::to_string),
        Some(explained.results.len().to_string())
    );
    assert!(explained.total_duration_ns() > 0);
    let report = explained.report();
    assert!(report.contains("backend=store"), "{report}");
    assert!(explained.to_json().contains("\"name\": \"query\""));
}

#[test]
fn virtual_explain_reports_obda_stages() {
    let fixture = ParisFixture::generate(7, 12, 8);
    let mut b = VirtualWorkflowBuilder::local();
    b.add_table(fixture.world.urban_atlas_table());
    b.add_mappings(mappings::URBAN_ATLAS_MAPPING).unwrap();
    // The graph is compiled at seal time, so EXPLAIN trees below only
    // contain per-query stages.
    let wf = b.seal().unwrap();

    // Query through the uniform endpoint trait, as the service does.
    let endpoint: &dyn QueryEndpoint = &wf;
    assert_eq!(endpoint.backend(), "obda");
    let explained = endpoint.query_explained(QUERY).unwrap();
    assert!(!explained.results.is_empty());

    let tree = &explained.profile;
    assert_eq!(
        tree.field("backend").map(ToString::to_string),
        Some("obda".into())
    );
    for stage in ["sparql.evaluate", "bgp", "obda.bgp_rewrite"] {
        assert!(tree.find(stage).is_some(), "missing stage {stage}");
    }
    assert!(
        tree.find("obda.build_graph").is_none(),
        "graph build belongs to seal(), not the query"
    );

    // Second query: BGP still rewritten per query.
    let again = endpoint.query_explained(QUERY).unwrap();
    assert_eq!(again.results, explained.results);
    assert!(again.profile.find("obda.bgp_rewrite").is_some());
}
