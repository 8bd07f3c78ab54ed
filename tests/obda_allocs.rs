//! Allocation guard for the on-the-fly workflow's query shapes.
//!
//! Listing 1, a windowed Listing 3 and a zonal mean are each answered by
//! the whole-BGP rewrite over the `opendap` virtual table (and a base
//! table). Allocations per warm query track the rows the rewrite expands
//! and the terms it formats, so they show when the rewrite starts building
//! what no part of the query reads. This binary installs a counting global
//! allocator and asserts that one warm query of each shape allocates no
//! more than its bound.
//!
//! Kept in a binary of its own (one test, one thread doing the counting)
//! so nothing else in the process allocates on the measuring thread.

use copernicus_app_lab::core::VirtualWorkflowBuilder;
use copernicus_app_lab::data::{mappings, ParisFixture};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Counts allocations and reallocations made on the current thread.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LISTING_1: &str = "SELECT DISTINCT ?geoA ?geoB ?lai WHERE { ?areaA osm:poiType osm:park . ?areaA geo:hasGeometry ?geomA . ?geomA geo:asWKT ?geoA . ?areaA osm:hasName \"Bois de Boulogne\" . ?areaB lai:hasLai ?lai . ?areaB geo:hasGeometry ?geomB . ?geomB geo:asWKT ?geoB . FILTER(geof:sfIntersects(?geoA, ?geoB)) }";

const LISTING_3: &str = "SELECT DISTINCT ?s ?wkt ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, \"POLYGON ((2.25 48.84, 2.33 48.84, 2.33 48.9, 2.25 48.9, 2.25 48.84))\"^^geo:wktLiteral)) }";

const ZONAL_MEAN: &str = "SELECT ?t (AVG(?lai) AS ?mean) WHERE { ?u gadm:hasName \"District 1\" . ?u geo:hasGeometry ?ug . ?ug geo:asWKT ?uwkt . ?s lai:hasLai ?lai . ?s time:hasTime ?t . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, ?uwkt)) } GROUP BY ?t";

/// Allocations of one warm query per shape on this fixture, as measured
/// when a template expansion built each placeholder's lexical form as a
/// `String` of its own and copied it in (first number), and now that it
/// writes the form straight into the expansion (second). The bound is the
/// second plus 10 % headroom.
const MEASURED: [(&str, &str, u64, u64); 3] = [
    ("listing1", LISTING_1, 6_345, 5_706),
    ("listing3", LISTING_3, 19_945, 17_665),
    ("zonal_mean", ZONAL_MEAN, 185_409, 165_003),
];

#[test]
fn warm_virtual_shapes_allocate_within_their_bounds() {
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
    builder.add_table(fixture.world.gadm_table());
    builder.add_mappings(mappings::GADM_MAPPING).unwrap();
    let wf = builder.seal().unwrap();

    let mut report = Vec::new();
    let mut over = Vec::new();
    for (shape, text, copied, measured) in MEASURED {
        // Warm: the window cache, the base-table row cache and first-use
        // registrations are paid here, not in the counted run.
        let first = wf.query(text).expect("shape evaluates");
        assert!(!first.is_empty(), "{shape}: no rows on the fixture");
        let before = ALLOCS.with(Cell::get);
        let results = wf.query(text);
        let allocs = ALLOCS.with(Cell::get) - before;
        drop(results);
        let bound = measured + measured / 10;
        report.push(format!(
            "{shape}: {allocs} (bound {bound}; lexical forms copied: {copied})"
        ));
        if allocs > bound {
            over.push(shape);
        }
    }
    println!("{}", report.join(", "));
    assert!(
        over.is_empty(),
        "over bound: {over:?}; {}",
        report.join(", ")
    );
}
