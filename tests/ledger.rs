//! The cost ledger: what each shape costs, counted rather than clocked.
//!
//! A counting global allocator keeps per-thread heap counts, and one test
//! walks the shapes in order on its own thread: the Paris load first,
//! before anything has warmed the thread, then one warm query per shape
//! on the store and the virtual workflow, each recording its allocations,
//! bytes allocated and `QueryStats` counters.
//!
//! `qa/ledger.tsv` holds one row per (shape, metric): the value last
//! measured and its bound. The test fails when a value is over its bound,
//! or when the measured rows and the file's rows are not the same set. It
//! always writes the measured table to `$CARGO_TARGET_TMPDIR/ledger.tsv`
//! and prints every row whose value moved; to take the new values, copy
//! that file over `qa/ledger.tsv`. The copy keeps each existing bound; a
//! new row gets its value plus 10 % on `allocs` and `alloc_bytes`, and
//! exactly its value on a counter. Changing a bound is an edit of the file.
//!
//! Every row reads the same on every run, in debug and in release.
//!
//! The NonTopological classes are also run through the nested-loop
//! reference evaluator (`reference/geographica/*`, allocations only): the
//! vectorized pipeline must allocate fewer blocks and fewer bytes than the
//! reference on each of them.

use applab_qa::{geographica_queries, geographica_setup};
use copernicus_app_lab::core::{greenness, MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::data::{mappings, ParisFixture};
use copernicus_app_lab::obs::{json, querystats};
use copernicus_app_lab::sparql::{
    evaluate_with, parse_query, reference, EvalOptions, QueryResults,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::time::Duration;

/// Heap activity on one thread. `live` is signed: a block may be freed on
/// another thread than the one that allocated it.
#[derive(Clone, Copy)]
struct Heap {
    allocs: u64,
    bytes: u64,
    live: i64,
    peak: i64,
}

thread_local! {
    static HEAP: Cell<Heap> = const {
        Cell::new(Heap { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

fn account(allocated: usize, freed: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = HEAP.try_with(|cell| {
        let mut heap = cell.get();
        heap.allocs += u64::from(allocated > 0);
        heap.bytes += allocated as u64;
        heap.live += allocated as i64 - freed as i64;
        heap.peak = heap.peak.max(heap.live);
        cell.set(heap);
    });
}

/// The system allocator, counting on the calling thread. A `realloc`
/// counts as one allocation of its new size.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches one const-initialized
// thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            account(layout.size(), 0);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            account(new_size, layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        account(0, layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns what it did to this thread's heap; `live` and
/// `peak` are relative to the start.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    let start = HEAP.with(|cell| {
        let mut heap = cell.get();
        heap.peak = heap.live;
        cell.set(heap);
        heap
    });
    let out = f();
    let end = HEAP.with(Cell::get);
    let heap = Heap {
        allocs: end.allocs - start.allocs,
        bytes: end.bytes - start.bytes,
        live: end.live - start.live,
        peak: end.peak - start.live,
    };
    (out, heap)
}

/// The measured rows in the order the shapes ran: (shape, metric, value).
type Rows = Vec<(String, String, f64)>;

/// One warm run of `run` (caches and first-use registrations are paid
/// there), which must answer, then one counted run under a `QueryStats`
/// scope; its output is dropped outside the count. The counters are read
/// from `QueryStats::to_json`, less the derived `filter_selectivity`, the
/// `degraded` flag and `queue_wait_ns` (only the service fills it).
fn measure<T, E: Debug>(
    rows: &mut Rows,
    shape: &str,
    run: impl Fn() -> Result<T, E>,
    answered: impl Fn(&T) -> bool,
) {
    let first = run().unwrap_or_else(|e| panic!("{shape}: {e:?}"));
    assert!(answered(&first), "{shape}: no answer");
    drop(first);
    let scope = querystats::Scope::begin();
    let (out, heap) = counted(&run);
    let stats = json::parse(&scope.finish().to_json()).expect("QueryStats JSON");
    drop(out);
    let mut push = |metric: &str, value: f64| rows.push((shape.into(), metric.into(), value));
    push("allocs", heap.allocs as f64);
    push("alloc_bytes", heap.bytes as f64);
    for (name, value) in stats.as_object().expect("a JSON object") {
        match value.as_u64() {
            Some(value) if name != "queue_wait_ns" => push(name, value as f64),
            _ => {}
        }
    }
}

fn has_rows(results: &QueryResults) -> bool {
    matches!(results, QueryResults::Boolean(true)) || !results.is_empty()
}

/// The four vector tables of a 40-cell Paris world through
/// `MaterializedWorkflow::load_table` with one GeoTriples worker, so the
/// whole load runs on this thread.
fn paris_load(rows: &mut Rows) {
    let tables = ParisFixture::generate(2019, 40, 2).world.tables();
    let (workflow, heap) = counted(|| {
        let mut workflow = MaterializedWorkflow::new().with_workers(1);
        for (table, mapping) in &tables {
            workflow.load_table(table, mapping).unwrap();
        }
        workflow
    });
    let triples = workflow.len() as f64;
    assert_eq!(triples, 19_619.0, "the load fixture changed");
    let per_triple = |n: i64, scale: f64| (n as f64 / triples * scale).round() / scale;
    for (metric, value) in [
        ("live_bytes_per_triple", per_triple(heap.live, 10.0)),
        ("peak_bytes_per_triple", per_triple(heap.peak, 10.0)),
        ("allocs_per_triple", per_triple(heap.allocs as i64, 100.0)),
    ] {
        rows.push(("paris_load".into(), metric.into(), value));
    }
}

/// The `wire_small` shapes (a lookup, an ASK, a page and a count on one
/// subject), and `Selection_Within_Attribute` in reversed written order,
/// which the benchmark's `store_mix` asks as `WideBGP_Selection`.
const STORE_SHAPES: [(&str, &str); 5] = [
    ("wire_small/lookup", "SELECT ?p ?o WHERE { <http://www.app-lab.eu/clc/area_9046> ?p ?o }"),
    ("wire_small/ask", "ASK { <http://www.app-lab.eu/clc/area_9046> clc:hasCorineValue ?c }"),
    ("wire_small/page", "SELECT ?p ?o WHERE { <http://www.app-lab.eu/clc/area_9046> ?p ?o } LIMIT 2"),
    ("wire_small/count", "SELECT (COUNT(?p) AS ?n) WHERE { <http://www.app-lab.eu/clc/area_9046> ?p ?o }"),
    ("geographica/WideBGP_Selection", "SELECT ?a ?p WHERE { ?g geo:asWKT ?wkt . ?a geo:hasGeometry ?g . ?a ua:hasPopulation ?p . ?a a ua:UrbanAtlasArea . FILTER(?p > 5000) FILTER(geof:sfWithin(?wkt, \"POLYGON ((2.05 48.72, 2.55 48.72, 2.55 48.98, 2.05 48.98, 2.05 48.72))\"^^geo:wktLiteral)) }"),
];

/// The store shapes, then the mini-Geographica classes, each one
/// `evaluate_with` of a parsed query on the sealed store; then the
/// NonTopological classes through the reference evaluator.
fn store_shapes(rows: &mut Rows) {
    let setup = geographica_setup(2019, 100);
    let shapes = STORE_SHAPES.map(|(s, q)| (s.to_string(), q.to_string()));
    let classes = geographica_queries().into_iter();
    let classes = classes.map(|(c, q)| (format!("geographica/{c}"), q));
    let options = EvalOptions::default();
    for (shape, text) in shapes.into_iter().chain(classes) {
        let query = parse_query(&text).expect("shape parses");
        let run = || evaluate_with(&setup.strabon, &query, &options);
        measure(rows, &shape, run, has_rows);
    }
    for (class, text) in geographica_queries() {
        if !class.starts_with("NonTopological") {
            continue;
        }
        let query = parse_query(&text).expect("shape parses");
        let run = || reference::evaluate(&setup.strabon, &query).expect("reference answers");
        drop(run());
        let (out, heap) = counted(run);
        drop(out);
        let shape = format!("geographica/{class}");
        for (metric, value) in [("allocs", heap.allocs), ("alloc_bytes", heap.bytes)] {
            let value = value as f64;
            let pipeline = rows.iter().find(|(s, m, _)| *s == shape && m == metric);
            let pipeline = pipeline.expect("the pipeline row is measured first").2;
            assert!(
                pipeline < value,
                "{class}: the pipeline's {metric} {pipeline} is not below the reference's {value}"
            );
            let shape = format!("reference/{shape}");
            rows.push((shape, metric.into(), value));
        }
    }
}

/// Listing 1, a windowed Listing 3 and a zonal mean on the virtual
/// workflow over the default fixture's LAI, OSM and GADM mappings, then
/// Figure 4 (`greenness::run`: the per-class query and the map) on both
/// workflows, and a two-component LAI query at cache window 0, where each
/// component fetches the grid again (ROADMAP 27).
fn virtual_shapes(rows: &mut Rows) {
    let fixture = ParisFixture::default_fixture();
    let mut b = VirtualWorkflowBuilder::local();
    b.publish(fixture.lai.clone());
    b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .unwrap();
    b.add_table(fixture.world.osm_table());
    b.add_mappings(mappings::OSM_MAPPING).unwrap();
    b.add_table(fixture.world.gadm_table());
    b.add_mappings(mappings::GADM_MAPPING).unwrap();
    let wf = b.seal().unwrap();
    for (shape, text) in [
        ("virtual/listing1", "SELECT DISTINCT ?geoA ?geoB ?lai WHERE { ?areaA osm:poiType osm:park . ?areaA geo:hasGeometry ?geomA . ?geomA geo:asWKT ?geoA . ?areaA osm:hasName \"Bois de Boulogne\" . ?areaB lai:hasLai ?lai . ?areaB geo:hasGeometry ?geomB . ?geomB geo:asWKT ?geoB . FILTER(geof:sfIntersects(?geoA, ?geoB)) }"),
        ("virtual/listing3", "SELECT DISTINCT ?s ?wkt ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, \"POLYGON ((2.25 48.84, 2.33 48.84, 2.33 48.9, 2.25 48.9, 2.25 48.84))\"^^geo:wktLiteral)) }"),
        ("virtual/zonal_mean", "SELECT ?t (AVG(?lai) AS ?mean) WHERE { ?u gadm:hasName \"District 1\" . ?u geo:hasGeometry ?ug . ?ug geo:asWKT ?uwkt . ?s lai:hasLai ?lai . ?s time:hasTime ?t . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt . FILTER(geof:sfWithin(?wkt, ?uwkt)) } GROUP BY ?t"),
    ] {
        measure(rows, shape, || wf.query(text), has_rows);
    }
    drop(wf);
    let has_series = |g: &greenness::Greenness| !g.per_class.is_empty();
    let wf = greenness::virtual_workflow(&fixture).unwrap();
    measure(rows, "figure4/virtual", || greenness::run(&wf), has_series);
    drop(wf);
    let store = greenness::materialized_workflow(&fixture).unwrap();
    measure(rows, "figure4/store", || greenness::run(&store), has_series);

    let mut b = VirtualWorkflowBuilder::local();
    b.publish(ParisFixture::generate(3, 8, 3).lai);
    b.add_opendap("lai_300m", "LAI", Duration::ZERO);
    b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 0))
        .unwrap();
    let wf = b.seal().unwrap();
    let text = "SELECT ?a ?b WHERE { ?a lai:hasLai ?x . ?b lai:hasLai ?y . FILTER(?x > ?y) }";
    measure(rows, "two_components/window0", || wf.query(text), has_rows);
}

#[test]
fn costs_stay_within_the_ledger() {
    let mut rows = Rows::new();
    paris_load(&mut rows);
    store_shapes(&mut rows);
    virtual_shapes(&mut rows);

    let header = "shape\tmetric\tvalue\tbound";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/qa/ledger.tsv");
    let text = std::fs::read_to_string(path).expect("qa/ledger.tsv");
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some(header), "qa/ledger.tsv: header");
    let mut ledger: BTreeMap<(String, String), (f64, f64)> = lines
        .map(|line| match line.split('\t').collect::<Vec<_>>()[..] {
            [shape, metric, value, bound] => {
                let number = |s: &str| s.parse().unwrap_or_else(|e| panic!("{line:?}: {e}"));
                let key = (shape.into(), metric.into());
                (key, (number(value), number(bound)))
            }
            _ => panic!("qa/ledger.tsv: not four columns: {line:?}"),
        })
        .collect();

    let mut table = format!("{header}\n");
    let mut problems = Vec::new();
    for (shape, metric, value) in rows {
        let bound = match ledger.remove(&(shape.clone(), metric.clone())) {
            Some((old, bound)) => {
                if old != value {
                    println!("moved: {shape} {metric} {old} -> {value} (bound {bound})");
                }
                if value > bound {
                    problems.push(format!("over: {shape} {metric} {value} > {bound}"));
                }
                bound
            }
            None => {
                problems.push(format!("not in qa/ledger.tsv: {shape} {metric} {value}"));
                match metric.as_str() {
                    "allocs" | "alloc_bytes" => value + (value / 10.0).floor(),
                    _ => value,
                }
            }
        };
        writeln!(table, "{shape}\t{metric}\t{value}\t{bound}").unwrap();
    }
    for (shape, metric) in ledger.keys() {
        problems.push(format!("not measured: {shape} {metric}"));
    }
    let measured = concat!(env!("CARGO_TARGET_TMPDIR"), "/ledger.tsv");
    std::fs::write(measured, table).expect("write the measured table");
    println!("measured table: {measured}");
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}
