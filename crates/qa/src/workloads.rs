//! Seeded workloads of the paper's claims.
//!
//! The mini-Geographica query mix and its three engines (C2/C3), the
//! viewport trace (C7) and Poisson arrivals for the cache-window sweep
//! (C4). `tests/claims.rs` counts what each claim rests on; the root
//! integration tests and examples reuse the query mix. See DESIGN.md §4
//! for the experiment index.

use applab_data::ParisFixture;
use applab_geo::{Coord, Envelope};
use applab_geotriples::parse_mappings;
use applab_obda::{DataSource, VirtualGraph};
use applab_rdf::Graph;
use applab_store::{NaiveStore, SpatioTemporalStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The mini-Geographica query mix. Categories follow the Geographica
/// micro benchmark: non-topological functions, spatial selections, spatial
/// joins, and aggregations.
pub fn geographica_queries() -> Vec<(&'static str, String)> {
    let probe_small = "POLYGON ((2.25 48.84, 2.33 48.84, 2.33 48.9, 2.25 48.9, 2.25 48.84))";
    let probe_large = "POLYGON ((2.05 48.72, 2.55 48.72, 2.55 48.98, 2.05 48.98, 2.05 48.72))";
    vec![
        (
            "NonTopological_Area",
            "SELECT ?a (geof:area(?wkt) AS ?area) WHERE { ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }".to_string(),
        ),
        (
            "NonTopological_Envelope",
            "SELECT ?a (geof:envelope(?wkt) AS ?env) WHERE { ?a a ua:UrbanAtlasArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }".to_string(),
        ),
        (
            "Selection_Intersects_Small",
            format!(
                "SELECT ?a WHERE {{ ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, \"{probe_small}\"^^geo:wktLiteral)) }}"
            ),
        ),
        (
            "Selection_Intersects_Large",
            format!(
                "SELECT ?a WHERE {{ ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, \"{probe_large}\"^^geo:wktLiteral)) }}"
            ),
        ),
        (
            "Selection_Within_Attribute",
            format!(
                "SELECT ?a ?p WHERE {{ ?a a ua:UrbanAtlasArea ; ua:hasPopulation ?p ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(?p > 5000) FILTER(geof:sfWithin(?wkt, \"{probe_large}\"^^geo:wktLiteral)) }}"
            ),
        ),
        (
            "Join_Parks_LandCover",
            "SELECT ?park ?area WHERE { ?park osm:poiType osm:park ; geo:hasGeometry ?pg . ?pg geo:asWKT ?pwkt . ?area a clc:CorineArea ; clc:hasCorineValue clc:GreenUrbanAreas ; geo:hasGeometry ?ag . ?ag geo:asWKT ?awkt . FILTER(geof:sfIntersects(?pwkt, ?awkt)) }".to_string(),
        ),
        (
            "Aggregation_CountPerClass",
            "SELECT ?class (COUNT(?a) AS ?n) WHERE { ?a a clc:CorineArea ; clc:hasCorineValue ?class } GROUP BY ?class".to_string(),
        ),
    ]
}

/// The engines of the Geographica comparison.
pub struct GeographicaSetup {
    /// Strabon: dictionary + permutation indexes + R-tree.
    pub strabon: SpatioTemporalStore,
    /// The naive baseline: linear scans, no indexes.
    pub naive: NaiveStore,
    /// Ontop-spatial: virtual graphs over indexed relational tables with
    /// BGP rewriting.
    pub ontop: VirtualGraph,
    /// Triple count of the materialized dataset.
    pub triples: usize,
}

/// Build all three engines over the same Paris fixture.
pub fn geographica_setup(seed: u64, cells: usize) -> GeographicaSetup {
    let fixture = ParisFixture::generate(seed, cells, 8);
    // Materialize through GeoTriples.
    let tables = fixture.world.tables();
    let mut graph = Graph::new();
    for (table, doc) in &tables {
        let ms = parse_mappings(doc).expect("static mapping");
        for m in &ms {
            graph.extend_from(&applab_geotriples::process(m, table));
        }
    }
    let strabon = SpatioTemporalStore::from_graph(&graph);
    let naive = NaiveStore::from_graph(&graph);
    // Virtual graphs over the same tables.
    let mut ds = DataSource::new();
    let mut all_mappings = Vec::new();
    for (table, doc) in tables {
        ds.add_table(table);
        all_mappings.extend(parse_mappings(doc).expect("static mapping"));
    }
    let ontop = VirtualGraph::new(ds, all_mappings).expect("valid mappings");
    GeographicaSetup {
        strabon,
        naive,
        ontop,
        triples: graph.len(),
    }
}

/// A mobile viewport trace: `pans` small pans followed by a zoom, repeated
/// (the "modest panning and zooming interaction" of Section 5).
pub fn viewport_trace(seed: u64, steps: usize) -> Vec<Envelope> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut center = Coord::new(2.3, 48.85);
    let mut half_w: f64 = 0.12;
    let mut half_h: f64 = 0.08;
    let mut out = Vec::with_capacity(steps);
    for i in 0..steps {
        if i % 17 == 16 {
            // Occasional zoom in/out.
            let f = if rng.gen_bool(0.5) { 0.7 } else { 1.4 };
            half_w = (half_w * f).clamp(0.03, 0.25);
            half_h = (half_h * f).clamp(0.02, 0.18);
        } else {
            // Modest pan: a fraction of the viewport.
            center.x += rng.gen_range(-0.3..0.3) * half_w;
            center.y += rng.gen_range(-0.3..0.3) * half_h;
            center.x = center.x.clamp(2.05, 2.55);
            center.y = center.y.clamp(48.73, 48.97);
        }
        out.push(Envelope::new(
            center.x - half_w,
            center.y - half_h,
            center.x + half_w,
            center.y + half_h,
        ));
    }
    out
}

/// Poisson-process arrival offsets with mean interval `mean_secs`.
pub fn poisson_arrivals(seed: u64, n: usize, mean_secs: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -mean_secs * u.ln();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use applab_sparql::{GraphSource, QueryResults};

    fn run_query(source: &dyn GraphSource, sparql: &str) -> usize {
        match applab_sparql::query(source, sparql) {
            Ok(QueryResults::Solutions { rows, .. }) => rows.len(),
            Ok(_) => 0,
            Err(e) => panic!("query failed: {e}"),
        }
    }

    #[test]
    fn engines_agree_on_all_geographica_queries() {
        let setup = geographica_setup(1, 10);
        assert!(setup.triples > 0);
        for (name, q) in geographica_queries() {
            let a = run_query(&setup.strabon, &q);
            let b = run_query(&setup.naive, &q);
            let c = run_query(&setup.ontop, &q);
            assert_eq!(a, b, "{name}: strabon vs naive");
            assert_eq!(a, c, "{name}: strabon vs ontop");
            assert!(a > 0, "{name}: empty result weakens the bench");
        }
    }

    #[test]
    fn trace_stays_in_region() {
        let trace = viewport_trace(3, 100);
        assert_eq!(trace.len(), 100);
        for v in &trace {
            assert!(v.min_x >= 1.7 && v.max_x <= 2.9);
            assert!(!v.is_empty());
        }
        // Deterministic.
        assert_eq!(viewport_trace(3, 100), viewport_trace(3, 100));
    }

    #[test]
    fn poisson_is_increasing_with_roughly_right_mean() {
        let arr = poisson_arrivals(5, 2000, 10.0);
        assert!(arr.windows(2).all(|w| w[1] > w[0]));
        let mean = arr.last().unwrap() / 2000.0;
        assert!((mean - 10.0).abs() < 1.0, "mean interval {mean}");
    }
}
