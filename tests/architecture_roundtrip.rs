//! F1 (Figure 1): the whole architecture, end to end.
//!
//! Drives both workflows over the same synthetic Copernicus data and
//! checks that they answer identically; then exercises the surrounding
//! services (interlinking, cataloguing, visualization).

use copernicus_app_lab::catalog::schema_org::corine_annotation;
use copernicus_app_lab::catalog::{CatalogIndex, SearchQuery};
use copernicus_app_lab::core::greenness;
use copernicus_app_lab::core::{MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::data::{grids, mappings, ParisFixture};
use copernicus_app_lab::geo::Coord;
use copernicus_app_lab::link::{Comparison, LinkRule};
use copernicus_app_lab::sextant::map::Layer;
use copernicus_app_lab::sextant::style::{Color, Style};
use std::time::Duration;

fn fixture() -> ParisFixture {
    ParisFixture::generate(77, 14, 10)
}

#[test]
fn materialized_and_virtual_workflows_agree() {
    let fixture = fixture();

    // Materialized: tables → GeoTriples → store.
    let mut mat = MaterializedWorkflow::new();
    mat.load_table(&fixture.world.osm_table(), mappings::OSM_MAPPING)
        .unwrap();
    mat.load_table(&fixture.world.corine_table(), mappings::CORINE_MAPPING)
        .unwrap();

    // Virtual: the same tables behind Ontop-spatial.
    let mut builder = VirtualWorkflowBuilder::local();
    builder.add_table(fixture.world.osm_table());
    builder.add_table(fixture.world.corine_table());
    builder.add_mappings(mappings::OSM_MAPPING).unwrap();
    builder.add_mappings(mappings::CORINE_MAPPING).unwrap();
    let virt = builder.seal().unwrap();

    for q in [
        "SELECT ?s ?name WHERE { ?s osm:poiType osm:park ; osm:hasName ?name }",
        "SELECT (COUNT(*) AS ?n) WHERE { ?a a clc:CorineArea }",
        r#"SELECT ?a WHERE { ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?w .
           FILTER(geof:sfIntersects(?w, "POLYGON ((2.2 48.8, 2.4 48.8, 2.4 48.9, 2.2 48.9, 2.2 48.8))"^^geo:wktLiteral)) }"#,
    ] {
        let a = mat.query(q).unwrap();
        let b = virt.query(q).unwrap();
        let norm = |r: &copernicus_app_lab::sparql::QueryResults| {
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
        assert_eq!(norm(&a), norm(&b), "workflows disagree on {q}");
    }
}

/// F4 (Figure 4) is one answer whichever workflow is asked: the per-class
/// monthly means are equal to the bit, the headline observation holds on
/// both, and the map's layers carry the same features.
#[test]
fn figure4_is_one_answer_on_both_workflows() {
    let fixture = ParisFixture::generate(2019, 16, 24);
    let store = greenness::run(&greenness::materialized_workflow(&fixture).unwrap()).unwrap();
    let on_the_fly = greenness::run(&greenness::virtual_workflow(&fixture).unwrap()).unwrap();

    assert!(!store.per_class.is_empty());
    // The means are finite and positive, where `==` is equality of bits.
    assert_eq!(store.per_class, on_the_fly.per_class);
    for g in [&store, &on_the_fly] {
        assert_eq!(greenness::green_beats_industrial(&g.per_class), Some(true));
        assert_eq!(g.map.layers.len(), 4);
        assert_eq!(g.map.timeline().len(), 12);
    }
    for (a, b) in store.map.layers.iter().zip(&on_the_fly.map.layers) {
        assert_eq!(a.features.len(), b.features.len(), "layer {}", a.title);
    }
}

#[test]
fn gridded_data_flows_through_opendap_to_queries() {
    let fixture = fixture();
    let mut lai = grids::lai_dataset(&fixture.world, &grids::GridSpec::monthly_2017(10, 77));
    lai.name = "lai_300m".into();

    let mut builder = VirtualWorkflowBuilder::local();
    builder.publish(lai);
    builder.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    builder
        .add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .unwrap();
    let virt = builder.seal().unwrap();

    // Every virtual observation carries a positive LAI (mapping WHERE) and
    // a parsable geometry + timestamp.
    let r = virt
        .query("SELECT ?lai ?wkt ?t WHERE { ?s lai:hasLai ?lai ; time:hasTime ?t ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }")
        .unwrap();
    assert!(r.len() > 50);
    for i in 0..r.len() {
        assert!(
            r.value(i, "lai")
                .unwrap()
                .as_literal()
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(r
            .value(i, "wkt")
            .unwrap()
            .as_literal()
            .unwrap()
            .as_geometry()
            .is_some());
        assert!(r
            .value(i, "t")
            .unwrap()
            .as_literal()
            .unwrap()
            .as_datetime()
            .is_some());
    }
}

#[test]
fn interlinking_connects_the_silos() {
    let fixture = fixture();
    let mut mat = MaterializedWorkflow::new();
    mat.load_table(&fixture.world.osm_table(), mappings::OSM_MAPPING)
        .unwrap();
    // "a dataset that gives the land cover of certain areas might be
    // interlinked with OpenStreetMap data for the same areas": here a
    // second publication of the parks under different IRIs.
    let external_mapping = mappings::OSM_MAPPING
        .replace(
            "osm:poi_{id}",
            "<http://linkedgeodata.example.org/poi_{id}>",
        )
        .replace(
            "osm:geom_{id}",
            "<http://linkedgeodata.example.org/geom_{id}>",
        );
    let ms = copernicus_app_lab::geotriples::parse_mappings(&external_mapping).unwrap();
    let external = copernicus_app_lab::geotriples::process(&ms[0], &fixture.world.osm_table());

    let rule = LinkRule::same_as(
        vec![
            (Comparison::NameLevenshtein, 0.5),
            (Comparison::SpatialProximity { max_distance: 0.01 }, 0.5),
        ],
        0.95,
    );
    let links = mat.interlink(&external, &rule);
    assert!(links > 0);
    let r = mat
        .query("SELECT ?a ?b WHERE { ?a owl:sameAs ?b }")
        .unwrap();
    assert_eq!(r.len(), links);
}

#[test]
fn catalog_and_visualization_close_the_loop() {
    let fixture = fixture();
    // Catalog: the datasets used above are discoverable.
    let mut catalog = CatalogIndex::new();
    catalog.add(corine_annotation());
    let hits =
        catalog.search(&SearchQuery::text(&["land", "cover"]).covering(Coord::new(7.68, 45.07)));
    assert_eq!(hits.len(), 1);

    // Visualization: a layer straight from a GeoSPARQL result.
    let mut mat = MaterializedWorkflow::new();
    mat.load_table(&fixture.world.osm_table(), mappings::OSM_MAPPING)
        .unwrap();
    let r = mat
        .query("SELECT ?wkt ?name WHERE { ?p osm:poiType osm:park ; osm:hasName ?name ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }")
        .unwrap();
    let layer = Layer::from_results(
        "parks",
        Style::Fill {
            color: Color::GREEN,
            opacity: 0.5,
        },
        &r,
        "wkt",
        None,
        Some("name"),
        None,
    );
    assert_eq!(layer.features.len(), r.len());
    let mut map = copernicus_app_lab::sextant::map::Map::new("architecture roundtrip");
    map.add_layer(layer);
    let svg = copernicus_app_lab::sextant::render_svg(
        &map,
        &copernicus_app_lab::sextant::svg::RenderOptions::default(),
    );
    assert!(svg.contains("<path"));
}
