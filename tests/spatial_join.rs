//! The spatial link is a join: a BGP whose components are linked only by a
//! non-disjoint `geof:sf*` FILTER conjunct pairs them through an envelope
//! R-tree, so the FILTER sees exactly the pairs whose envelopes intersect
//! instead of the components' cross product. Counts, not clocks: the
//! expected numbers are brute-forced from the fixture.

use applab_qa::geographica_queries;
use copernicus_app_lab::core::{
    Explain, MaterializedWorkflow, QueryEndpoint, VirtualWorkflowBuilder,
};
use copernicus_app_lab::data::world::{PoiKind, Zone};
use copernicus_app_lab::data::{mappings, ParisFixture};
use copernicus_app_lab::geo::Envelope;
use copernicus_app_lab::rdf::Graph;
use copernicus_app_lab::sparql::{parse_query, reference, QueryResults};
use std::time::Duration;

fn fixture() -> ParisFixture {
    ParisFixture::generate(2019, 28, 24)
}

fn sorted_rows(r: &QueryResults) -> Vec<String> {
    let mut rows: Vec<String> = r.to_csv().lines().skip(1).map(str::to_string).collect();
    rows.sort();
    rows
}

/// The `join` spans EXPLAIN shows with `kind=spatial`, as
/// `(probe, build, candidates)`.
fn spatial_joins(explain: &Explain) -> Vec<(u64, u64, u64)> {
    let mut joins = Vec::new();
    explain.profile.find_all("join", &mut joins);
    joins
        .iter()
        .filter(|j| j.field("kind").is_some_and(|k| k.to_string() == "spatial"))
        .map(|j| {
            let n = |k: &str| j.field(k).and_then(|v| v.as_u64()).unwrap_or(0);
            (n("probe"), n("build"), n("candidates"))
        })
        .collect()
}

/// Pairs of envelopes, one from each side, that intersect.
fn envelope_pairs(a: &[Envelope], b: &[Envelope]) -> u64 {
    a.iter()
        .map(|x| b.iter().filter(|y| x.intersects(y)).count() as u64)
        .sum()
}

/// The envelope of every row's `?wkt` in the reference evaluator's answer
/// to `sparql` over `graph`.
fn reference_envelopes(graph: &Graph, sparql: &str) -> Vec<Envelope> {
    let q = parse_query(sparql).expect("static query");
    let r = reference::evaluate(graph, &q).expect("reference evaluates");
    (0..r.len())
        .map(|i| {
            r.value(i, "wkt")
                .and_then(|t| t.as_literal())
                .and_then(|l| l.as_geometry())
                .expect("a WKT geometry")
                .envelope()
        })
        .collect()
}

#[test]
fn join_parks_landcover_filters_only_envelope_candidates() {
    let f = fixture();
    let parks: Vec<Envelope> = f
        .world
        .pois
        .iter()
        .filter(|p| p.kind == PoiKind::Park)
        .map(|p| p.polygon.envelope())
        .collect();
    let areas: Vec<Envelope> = f
        .world
        .land_cover
        .iter()
        .filter(|a| a.clc_code == Zone::GreenUrban.clc_code())
        .map(|a| a.polygon.envelope())
        .collect();
    let candidates = envelope_pairs(&parks, &areas);
    let cross = (parks.len() * areas.len()) as u64;
    assert!(
        candidates > 0 && candidates < cross,
        "{candidates} of {cross}"
    );

    let tables = [
        (f.world.osm_table(), mappings::OSM_MAPPING),
        (f.world.corine_table(), mappings::CORINE_MAPPING),
    ];
    let mut mat = MaterializedWorkflow::new();
    let mut builder = VirtualWorkflowBuilder::local();
    for (table, doc) in &tables {
        mat.load_table(table, doc).unwrap();
        builder.add_table(table.clone());
        builder.add_mappings(doc).unwrap();
    }
    let virt = builder.seal().unwrap();

    let (_, join) = geographica_queries()
        .into_iter()
        .find(|(name, _)| *name == "Join_Parks_LandCover")
        .expect("the join class");
    let oracle = reference::evaluate(mat.store(), &parse_query(&join).unwrap()).unwrap();
    assert!(!oracle.is_empty());
    for (backend, ep) in [
        ("store", &mat as &dyn QueryEndpoint),
        ("obda", &virt as &dyn QueryEndpoint),
    ] {
        let explain = ep.query_explained(&join).unwrap();
        assert_eq!(
            explain.stats.filter_rows_in,
            candidates,
            "{backend}: the FILTER must see the envelope candidates only\n{}",
            explain.report()
        );
        assert_eq!(
            spatial_joins(&explain),
            vec![(parks.len() as u64, areas.len() as u64, candidates)],
            "{backend}\n{}",
            explain.report()
        );
        assert_eq!(
            sorted_rows(&explain.results),
            sorted_rows(&oracle),
            "{backend}"
        );
    }
}

/// Listing 1 and the zonal mean are 1 × N links: the spatial join tests
/// the one row's envelope against the N observations, so the FILTER input
/// is the number of observations whose envelope meets it — the fetch
/// narrowed by the sideways envelope already returned no others — and the
/// source work is what it was before the join.
#[test]
fn one_row_links_keep_their_source_queries() {
    let f = fixture();
    let mut lai = f.lai.clone();
    lai.name = "lai_300m".into();
    let mut builder = VirtualWorkflowBuilder::local();
    builder.publish(lai);
    builder.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    builder
        .add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .unwrap();
    for (table, doc) in [
        (f.world.osm_table(), mappings::OSM_MAPPING),
        (f.world.gadm_table(), mappings::GADM_MAPPING),
    ] {
        builder.add_table(table);
        builder.add_mappings(doc).unwrap();
    }
    let wf = builder.seal().unwrap();
    let graph = wf.materialize().expect("the virtual graph materializes");
    let observations = reference_envelopes(
        &graph,
        "SELECT ?wkt WHERE { ?s lai:hasLai ?lai . ?s time:hasTime ?t . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    );

    let bois = reference_envelopes(
        &graph,
        "SELECT ?wkt WHERE { ?a osm:poiType osm:park . ?a osm:hasName \"Bois de Boulogne\" . ?a geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    );
    let district = reference_envelopes(
        &graph,
        "SELECT ?wkt WHERE { ?u gadm:hasName \"District 1\" . ?u geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    );
    assert_eq!((bois.len(), district.len()), (1, 1));

    let listing1 = "SELECT DISTINCT ?geoA ?geoB ?lai WHERE { ?areaA osm:poiType osm:park . ?areaA geo:hasGeometry ?geomA . ?geomA geo:asWKT ?geoA . ?areaA osm:hasName \"Bois de Boulogne\" . ?areaB lai:hasLai ?lai . ?areaB geo:hasGeometry ?geomB . ?geomB geo:asWKT ?geoB . FILTER(geof:sfIntersects(?geoA, ?geoB)) }";
    let zonal = "SELECT ?t (AVG(?lai) AS ?mean) WHERE { ?u gadm:hasName \"District 1\" . ?u geo:hasGeometry ?ug . ?ug geo:asWKT ?uwkt . ?s lai:hasLai ?lai . ?s time:hasTime ?t . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, ?uwkt)) } GROUP BY ?t";
    for (name, sparql, zone) in [("listing1", listing1, &bois), ("zonal", zonal, &district)] {
        let expected = envelope_pairs(zone, &observations);
        assert!(expected > 0, "{name}: the zone meets no observation");
        let explain = wf.query_explained(sparql).unwrap();
        assert_eq!(
            explain.stats.filter_rows_in,
            expected,
            "{name}\n{}",
            explain.report()
        );
        // The values before the spatial join: the park or unit is one
        // relational source query, the observations one pushed-down fetch.
        assert_eq!(
            (explain.stats.source_queries, explain.stats.pushdowns),
            (1, 1),
            "{name}\n{}",
            explain.report()
        );
        let joins = spatial_joins(&explain);
        assert_eq!(joins.len(), 1, "{name}\n{}", explain.report());
        assert_eq!((joins[0].0, joins[0].2), (1, expected), "{name}");
        let oracle = reference::evaluate(&graph, &parse_query(sparql).unwrap()).unwrap();
        assert_eq!(
            sorted_rows(&explain.results),
            sorted_rows(&oracle),
            "{name}"
        );
    }
}
