//! Allocation guard for the `wire_small` request shapes.
//!
//! A subject lookup, an ASK, a two-row page and a count each evaluate in
//! microseconds, so a handful of extra heap allocations per evaluation is
//! a measurable share of their cost. This binary installs a counting
//! global allocator and asserts that one warm `evaluate_with` of each
//! shape on the sealed store allocates no more than the written-order
//! pipeline did before the cost-based planner became the only BGP path.
//!
//! Kept in a binary of its own (one test, one thread doing the counting)
//! so nothing else in the process allocates on the measuring thread.

use applab_bench::geographica_setup;
use copernicus_app_lab::sparql::{evaluate_with, parse_query, EvalOptions, QueryResults};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

const SUBJECT: &str = "http://www.app-lab.eu/clc/area_9046";

/// Allocations of one warm `evaluate_with` per shape, as the written-order
/// pipeline made them on this fixture (`geographica_setup(2019, 100)`).
const WRITTEN_ORDER_ALLOCS: [(&str, u64); 4] =
    [("lookup", 48), ("ask", 31), ("page", 48), ("count", 46)];

#[test]
fn warm_wire_small_shapes_allocate_no_more_than_the_written_order_pipeline() {
    let setup = geographica_setup(2019, 100);
    let store = &setup.strabon;
    let lookup = format!("SELECT ?p ?o WHERE {{ <{SUBJECT}> ?p ?o }}");
    let texts = [
        lookup.clone(),
        format!("ASK {{ <{SUBJECT}> clc:hasCorineValue ?c }}"),
        format!("{lookup} LIMIT 2"),
        format!("SELECT (COUNT(?p) AS ?n) WHERE {{ <{SUBJECT}> ?p ?o }}"),
    ];
    let options = EvalOptions::default();
    let mut report = Vec::new();
    for ((shape, ceiling), text) in WRITTEN_ORDER_ALLOCS.into_iter().zip(&texts) {
        let query = parse_query(text).expect("shape parses");
        // Warm: first-use registrations (metric handles, caches) are paid
        // here, not in the counted run.
        let first = evaluate_with(store, &query, &options).expect("shape evaluates");
        let found = match first {
            QueryResults::Boolean(yes) => yes,
            rows => !rows.is_empty(),
        };
        assert!(found, "{shape}: {SUBJECT} is not in the fixture");
        let before = ALLOCS.with(Cell::get);
        let results = evaluate_with(store, &query, &options);
        let allocs = ALLOCS.with(Cell::get) - before;
        drop(results);
        report.push(format!("{shape}: {allocs} (written order {ceiling})"));
        assert!(allocs <= ceiling, "{}", report.join(", "));
    }
    println!("{}", report.join(", "));
}
