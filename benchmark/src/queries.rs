//! Query texts and the viewport trace. The benchmark owns these: nothing
//! here is imported from the product's `crates/bench`, so the inputs stay
//! fixed while that crate is reworked. Prefixes (`clc:`, `ua:`, `osm:`,
//! `gadm:`, `lai:`, `geo:`, `geof:`, `time:`) are the parser's defaults.

use crate::rng::Rng;

/// An axis-aligned viewport in lon/lat degrees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl Viewport {
    /// The viewport as a closed WKT ring. Coordinates are written with six
    /// decimals (≈ 0.1 m), so a text is short and stable across platforms.
    pub fn wkt(&self) -> String {
        let Viewport {
            min_x,
            min_y,
            max_x,
            max_y,
        } = self;
        format!(
            "POLYGON (({min_x:.6} {min_y:.6}, {max_x:.6} {min_y:.6}, {max_x:.6} {max_y:.6}, {min_x:.6} {max_y:.6}, {min_x:.6} {min_y:.6}))"
        )
    }
}

/// The fixture's region (the Paris extent of `applab-data`).
const REGION: Viewport = Viewport {
    min_x: 2.0,
    min_y: 48.7,
    max_x: 2.6,
    max_y: 49.0,
};
const REGION_CENTRE: (f64, f64) = (2.3, 48.85);

/// Zoom levels a session cycles through, as factors on its base extent.
const ZOOM_CYCLE: [f64; 3] = [1.0, 0.8, 1.25];

/// A map client's pan/zoom session (the "modest panning and zooming
/// interaction" of the paper's Section 5): every step pans by up to 30 %
/// of the viewport in a seeded direction and moves on to the next zoom
/// level of a fixed cycle. The seed decides *where* the session looks;
/// every session of a kind has the same sizes in the same order and stays
/// inside the region, so sessions of different seeds cost about the same.
pub fn viewport_trace(rng: &mut Rng, steps: usize, half_w: f64, half_h: f64) -> Vec<Viewport> {
    let (mut cx, mut cy) = (2.3, 48.85);
    (0..steps)
        .map(|step| {
            let (w, h) = (half_w * ZOOM_CYCLE[step % 3], half_h * ZOOM_CYCLE[step % 3]);
            cx += rng.range_f64(-0.3, 0.3) * w;
            cy += rng.range_f64(-0.3, 0.3) * h;
            // Keep the whole viewport over data (a viewport wider than the
            // region is centred on it).
            cx = cx.clamp(
                (REGION.min_x + w).min(REGION_CENTRE.0),
                (REGION.max_x - w).max(REGION_CENTRE.0),
            );
            cy = cy.clamp(
                (REGION.min_y + h).min(REGION_CENTRE.1),
                (REGION.max_y - h).max(REGION_CENTRE.1),
            );
            Viewport {
                min_x: cx - w,
                min_y: cy - h,
                max_x: cx + w,
                max_y: cy + h,
            }
        })
        .collect()
}

/// Vocabulary of the fixture's mapping documents, spelled out where the
/// harness needs a full IRI.
pub const CORINE_AREA_CLASS: &str = "http://www.app-lab.eu/clc/CorineArea";
pub const AS_WKT: &str = "http://www.opengis.net/ont/geosparql#asWKT";

// ---------------------------------------------------------------------
// store_mix: the seven mini-Geographica classes plus the wide BGP.
// ---------------------------------------------------------------------

pub const NONTOPOLOGICAL_AREA: &str = "SELECT ?a (geof:area(?wkt) AS ?area) WHERE { ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }";

pub const NONTOPOLOGICAL_ENVELOPE: &str = "SELECT ?a (geof:envelope(?wkt) AS ?env) WHERE { ?a a ua:UrbanAtlasArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt }";

pub fn selection_intersects(probe: &Viewport) -> String {
    format!(
        "SELECT ?a WHERE {{ ?a a clc:CorineArea ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfIntersects(?wkt, \"{}\"^^geo:wktLiteral)) }}",
        probe.wkt()
    )
}

pub fn selection_within_attribute(probe: &Viewport) -> String {
    format!(
        "SELECT ?a ?p WHERE {{ ?a a ua:UrbanAtlasArea ; ua:hasPopulation ?p ; geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(?p > 5000) FILTER(geof:sfWithin(?wkt, \"{}\"^^geo:wktLiteral)) }}",
        probe.wkt()
    )
}

/// `Selection_Within_Attribute`'s patterns in mechanically reversed
/// written order: the widest scan first, the selective class last. Without
/// a planner the evaluator pays for the order; with one it should not.
pub fn wide_bgp_reversed(probe: &Viewport) -> String {
    format!(
        "SELECT ?a ?p WHERE {{ ?g geo:asWKT ?wkt . ?a geo:hasGeometry ?g . ?a ua:hasPopulation ?p . ?a a ua:UrbanAtlasArea . FILTER(?p > 5000) FILTER(geof:sfWithin(?wkt, \"{}\"^^geo:wktLiteral)) }}",
        probe.wkt()
    )
}

pub const JOIN_PARKS_LANDCOVER: &str = "SELECT ?park ?area WHERE { ?park osm:poiType osm:park ; geo:hasGeometry ?pg . ?pg geo:asWKT ?pwkt . ?area a clc:CorineArea ; clc:hasCorineValue clc:GreenUrbanAreas ; geo:hasGeometry ?ag . ?ag geo:asWKT ?awkt . FILTER(geof:sfIntersects(?pwkt, ?awkt)) }";

pub const AGGREGATION_COUNT_PER_CLASS: &str = "SELECT ?class (COUNT(?a) AS ?n) WHERE { ?a a clc:CorineArea ; clc:hasCorineValue ?class } GROUP BY ?class";

// ---------------------------------------------------------------------
// wire_small: requests whose evaluation is microseconds.
// ---------------------------------------------------------------------

pub fn subject_lookup(iri: &str) -> String {
    format!("SELECT ?p ?o WHERE {{ <{iri}> ?p ?o }}")
}

pub fn subject_ask(iri: &str) -> String {
    format!("ASK {{ <{iri}> clc:hasCorineValue ?class }}")
}

pub const PAGE_ROWS: usize = 2;

/// The first rows of [`subject_lookup`]. There is no `ORDER BY`, so any
/// `PAGE_ROWS` of the lookup's rows are a right answer.
pub fn subject_page(iri: &str) -> String {
    format!("{} LIMIT {PAGE_ROWS}", subject_lookup(iri))
}

pub fn subject_count(iri: &str) -> String {
    format!("SELECT (COUNT(?p) AS ?n) WHERE {{ <{iri}> ?p ?o }}")
}

// ---------------------------------------------------------------------
// virtual_lai: the paper's Listings 1 and 3 and a zonal statistic.
// ---------------------------------------------------------------------

/// Listing 1: LAI observations inside the Bois de Boulogne.
pub const LISTING_1: &str = "SELECT DISTINCT ?geoA ?geoB ?lai WHERE { ?areaA osm:poiType osm:park . ?areaA geo:hasGeometry ?geomA . ?geomA geo:asWKT ?geoA . ?areaA osm:hasName \"Bois de Boulogne\" . ?areaB lai:hasLai ?lai . ?areaB geo:hasGeometry ?geomB . ?geomB geo:asWKT ?geoB . FILTER(geof:sfIntersects(?geoA, ?geoB)) }";

/// Listing 3, windowed to what a map client shows.
pub fn listing_3(window: &Viewport) -> String {
    format!(
        "SELECT DISTINCT ?s ?wkt ?lai WHERE {{ ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, \"{}\"^^geo:wktLiteral)) }}",
        window.wkt()
    )
}

/// Mean LAI per time step over one administrative unit: the regional
/// zonal-statistics shape of the Open Data Cube paper (PAPERS.md).
pub fn zonal_mean(unit_name: &str) -> String {
    format!(
        "SELECT ?t (AVG(?lai) AS ?mean) WHERE {{ ?u gadm:hasName \"{unit_name}\" . ?u geo:hasGeometry ?ug . ?ug geo:asWKT ?uwkt . ?s lai:hasLai ?lai . ?s time:hasTime ?t . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, ?uwkt)) }} GROUP BY ?t"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seeded_and_stays_over_the_fixture() {
        let a = viewport_trace(&mut Rng::stream(3, "viewport"), 48, 0.04, 0.03);
        let b = viewport_trace(&mut Rng::stream(3, "viewport"), 48, 0.04, 0.03);
        let c = viewport_trace(&mut Rng::stream(4, "viewport"), 48, 0.04, 0.03);
        assert_eq!(a, b);
        assert_ne!(a, c);
        for v in &a {
            assert!(v.min_x < v.max_x && v.min_y < v.max_y);
            assert!(v.min_x >= 2.0 && v.max_x <= 2.6 && v.min_y >= 48.7 && v.max_y <= 49.0);
        }
        // The session zooms, and sessions of different seeds have the same
        // sizes in the same order.
        let widths = |t: &[Viewport]| -> Vec<u64> {
            t.iter()
                .map(|v| ((v.max_x - v.min_x) * 1e6).round() as u64)
                .collect()
        };
        assert_eq!(widths(&a)[..3], [80_000, 64_000, 100_000]);
        assert_eq!(widths(&a), widths(&c));
    }

    #[test]
    fn viewport_wkt_is_a_closed_ring() {
        let v = Viewport {
            min_x: 2.25,
            min_y: 48.84,
            max_x: 2.33,
            max_y: 48.9,
        };
        assert_eq!(
            v.wkt(),
            "POLYGON ((2.250000 48.840000, 2.330000 48.840000, 2.330000 48.900000, 2.250000 48.900000, 2.250000 48.840000))"
        );
        assert!(selection_intersects(&v).contains("sfIntersects(?wkt, \"POLYGON (("));
        assert_eq!(
            subject_page("http://x/a"),
            "SELECT ?p ?o WHERE { <http://x/a> ?p ?o } LIMIT 2"
        );
    }
}
