//! L1/L2/L3: the paper's listings, near verbatim.

use copernicus_app_lab::core::{MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::data::{grids, mappings, ParisFixture};
use copernicus_app_lab::geotriples::parse_mappings;
use copernicus_app_lab::obda::sql::{FromClause, SourceQuery};
use copernicus_app_lab::rdf::Graph;
use std::time::Duration;

/// Listing 1: "retrieves the LAI values of the area occupied by the Bois
/// de Boulogne park in Paris".
#[test]
fn listing1_bois_de_boulogne() {
    let fixture = ParisFixture::generate(5, 14, 8);
    let mut wf = MaterializedWorkflow::new();
    wf.load_table(
        &fixture.world.osm_table(),
        copernicus_app_lab::data::mappings::OSM_MAPPING,
    )
    .unwrap();
    // Observations: two inside the park, one outside.
    let mut g = Graph::new();
    for (id, lai, wkt) in [
        ("in1", 4.1, "POINT (2.23 48.86)"),
        ("in2", 3.7, "POINT (2.25 48.87)"),
        ("out", 0.6, "POINT (2.45 48.75)"),
    ] {
        copernicus_app_lab::store::store::lai_observation(&mut g, id, lai, 0, wkt);
    }
    wf.load_graph(&g);

    let r = wf.query(LISTING_1).unwrap();
    assert_eq!(r.len(), 2);
    let mut values: Vec<f64> = (0..r.len())
        .map(|i| {
            r.value(i, "lai")
                .unwrap()
                .as_literal()
                .unwrap()
                .as_f64()
                .unwrap()
        })
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(values, vec![3.7, 4.1]);
}

/// Listing 1 over the virtual graphs of the default fixture: the park and
/// the observations are two variable-connected components, each rewritten
/// into one source query, with the park's envelope narrowing the
/// observation fetch. No pattern is scanned on its own, and the rows are
/// the materialized graph's.
#[test]
fn listing1_virtual_rewrites_each_component_once() {
    let fixture = ParisFixture::default_fixture();
    let mut lai = fixture.lai.clone();
    lai.name = "lai_300m".into();
    let mut builder = VirtualWorkflowBuilder::local();
    builder.publish(lai);
    builder.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    builder
        .add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .unwrap();
    builder.add_table(fixture.world.osm_table());
    builder.add_mappings(mappings::OSM_MAPPING).unwrap();
    let wf = builder.seal().unwrap();

    let explain = wf.query_explained(LISTING_1).unwrap();
    assert!(
        explain.stats.source_queries <= 2,
        "{} source queries:\n{}",
        explain.stats.source_queries,
        explain.report()
    );
    assert!(
        explain.profile.find("scan").is_none(),
        "a pattern was scanned on its own:\n{}",
        explain.report()
    );
    let mut rewrites = Vec::new();
    explain.profile.find_all("obda.bgp_rewrite", &mut rewrites);
    assert_eq!(rewrites.len(), 2, "{}", explain.report());

    let oracle = copernicus_app_lab::sparql::query(&wf.materialize().unwrap(), LISTING_1).unwrap();
    assert!(!oracle.is_empty());
    assert_eq!(sorted_rows(&explain.results), sorted_rows(&oracle));
}

const LISTING_1: &str = r#"SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne" .
  ?areaB lai:hasLai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA, ?geoB))
}"#;

fn sorted_rows(r: &copernicus_app_lab::sparql::QueryResults) -> Vec<String> {
    let csv = r.to_csv();
    let mut rows: Vec<String> = csv.lines().skip(1).map(str::to_string).collect();
    rows.sort();
    rows
}

/// Listing 2: the mapping parses (with the paper's URL form, cache window
/// of 10 minutes, and `WHERE LAI > 0` noise filter).
#[test]
fn listing2_mapping_parses_verbatim() {
    let doc = r#"
mappingId opendap_mapping
target lai:{id} rdf:type lai:Observation .
       lai:{id} lai:lai {LAI}^^xsd:float ;
       time:hasTime {ts}^^xsd:dateTime .
       lai:{id} geo:hasGeometry _:g .
       _:g geo:asWKT {loc}^^geo:wktLiteral .
source SELECT id, LAI , ts, loc FROM (ordered opendap url:https://analytics.ramani.ujuizi.com/thredds/dodsC/Copernicus-Land-timeseries-global-LAI%29/readdods/LAI/, 10) WHERE LAI > 0
"#;
    let ms = parse_mappings(doc).unwrap();
    assert_eq!(ms.len(), 1);
    assert_eq!(ms[0].id, "opendap_mapping");
    assert_eq!(ms[0].target.len(), 5);

    let sq = SourceQuery::parse(&ms[0].source).unwrap();
    match &sq.from {
        FromClause::Opendap {
            dataset,
            variable,
            window_secs,
        } => {
            assert_eq!(dataset, "Copernicus-Land-timeseries-global-LAI%29");
            assert_eq!(variable, "LAI");
            assert_eq!(*window_secs, 600); // w = 10 minutes
        }
        other => panic!("expected opendap source, got {other:?}"),
    }
    assert_eq!(sq.predicates.len(), 1); // LAI > 0
}

/// Listing 3: "retrieve the LAI values and the geometries of the
/// corresponding areas", over the virtual graph of Listing 2's mapping.
#[test]
fn listing3_virtual_query() {
    let fixture = ParisFixture::generate(6, 10, 8);
    let mut lai = grids::lai_dataset(
        &fixture.world,
        &grids::GridSpec {
            resolution: 10,
            times: vec![0, 30 * 86_400],
            noise: 0.05,
            seed: 6,
        },
    );
    lai.name = "Copernicus-Land-timeseries-global-LAI".into();

    let mut builder = VirtualWorkflowBuilder::local();
    builder.publish(lai);
    builder.add_opendap(
        "Copernicus-Land-timeseries-global-LAI",
        "LAI",
        Duration::from_secs(600),
    );
    builder
        .add_mappings(&copernicus_app_lab::data::mappings::opendap_lai_mapping(
            "Copernicus-Land-timeseries-global-LAI",
            10,
        ))
        .unwrap();
    let wf = builder.seal().unwrap();

    let r = wf
        .query(
            r#"SELECT DISTINCT ?s ?wkt ?lai
WHERE { ?s lai:hasLai ?lai .
        ?s geo:hasGeometry ?g .
        ?g geo:asWKT ?wkt }"#,
        )
        .unwrap();
    assert!(r.len() > 10);
    // DISTINCT subjects: the id construction ("from the location and the
    // time of observation") must deduplicate.
    let mut subjects: Vec<String> = (0..r.len())
        .map(|i| r.value(i, "s").unwrap().to_string())
        .collect();
    subjects.sort();
    subjects.dedup();
    assert_eq!(subjects.len(), r.len());
}
