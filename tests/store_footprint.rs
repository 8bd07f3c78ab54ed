//! Heap footprint of the materialized write path, as counts rather than
//! clocks: a counting global allocator tracks live and peak heap bytes
//! while the four Paris vector tables go through
//! `MaterializedWorkflow::load_table`, and the test bounds both, and the
//! allocation calls, per stored triple. It is a binary of its own so that
//! no other test's allocations are counted. Run with `--nocapture` to see
//! the figures.

use applab_core::MaterializedWorkflow;
use applab_data::ParisFixture;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes, their high-water mark and
/// allocation calls (a `realloc` counts as one). The counters are
/// statistics that publish no other data, hence `Relaxed`.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
    CALLS.fetch_add(1, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping around it touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn loading_the_paris_tables_stays_within_its_heap_budget() {
    let fixture = ParisFixture::generate(2019, 40, 2);
    let tables = fixture.world.tables();

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let calls_before = CALLS.load(Relaxed);
    let mut workflow = MaterializedWorkflow::new().with_workers(1);
    for (table, mapping) in &tables {
        workflow.load_table(table, mapping).unwrap();
    }
    let live = LIVE.load(Relaxed) - before;
    let peak = PEAK.load(Relaxed) - before;
    let calls = CALLS.load(Relaxed) - calls_before;

    let triples = workflow.len();
    assert_eq!(triples, 19_619, "the fixture changed; re-derive the budget");
    let per_triple = |n: usize| n as f64 / triples as f64;
    println!(
        "store footprint over {triples} triples: {:.1} live and {:.1} peak heap bytes, \
         {:.2} allocations per triple",
        per_triple(live),
        per_triple(peak),
        per_triple(calls),
    );
    assert!(
        per_triple(live) <= 200.0,
        "{:.1} live heap bytes per triple after the load (budget 200)",
        per_triple(live)
    );
    // Measured 194.6 peak bytes and 9.03 allocations per triple with the
    // triples streamed into the store; the budgets allow 10 % and 5 % more.
    assert!(
        per_triple(peak) <= 215.0,
        "{:.1} peak heap bytes per triple during the load (budget 215)",
        per_triple(peak)
    );
    assert!(
        per_triple(calls) <= 9.5,
        "{:.2} allocations per triple during the load (budget 9.5)",
        per_triple(calls)
    );
}
