//! Per-query resource accounting.
//!
//! A query's cost is scattered across crates: the evaluator counts rows
//! and batches, the store counts scans and index pushdowns, the DAP
//! client counts round-trips and bytes, the SDL cache counts hits.
//! Threading an accumulator through every signature would contaminate
//! APIs (`QueryResults`' byte-identical `PartialEq` is the backbone of the
//! equivalence tests), so the caller opens a [`Scope`] around each query,
//! which installs a fresh accounting cell in a thread-local stack, and the
//! instrumented layers bump whatever cell is innermost (a no-op costing
//! one thread-local read when no query is being accounted). This is sound
//! because a query's work, remote fetches included, runs on the thread
//! that evaluates it.
//!
//! The same cell carries the `degraded` flag: a stale cache serve
//! ([`crate::degrade::mark`]) sets it, so whoever holds the scope sees
//! whether any part of the answer was served stale.
//!
//! All hooks fire at *batch* boundaries (a scan's whole column, a probe
//! pass, a filter window), never per row — the accounting overhead
//! budget is ≤5% end-to-end (see DESIGN.md §13).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// The live accumulator for one query. It never leaves the thread that
/// opened its [`Scope`], so its fields are plain cells.
#[derive(Debug, Default)]
struct StatsCell {
    rows_scanned: Cell<u64>,
    scans: Cell<u64>,
    batches: Cell<u64>,
    joins: Cell<u64>,
    join_build_rows: Cell<u64>,
    join_probe_rows: Cell<u64>,
    probe_chunks: Cell<u64>,
    filter_rows_in: Cell<u64>,
    filter_rows_out: Cell<u64>,
    dap_round_trips: Cell<u64>,
    dap_bytes: Cell<u64>,
    dap_retries: Cell<u64>,
    cache_hits: Cell<u64>,
    cache_misses: Cell<u64>,
    source_queries: Cell<u64>,
    pushdowns: Cell<u64>,
    pruned_rows: Cell<u64>,
    peak_batch_bytes: Cell<u64>,
    degraded: Cell<bool>,
}

impl StatsCell {
    fn snapshot(&self) -> QueryStats {
        QueryStats {
            rows_scanned: self.rows_scanned.get(),
            scans: self.scans.get(),
            batches: self.batches.get(),
            joins: self.joins.get(),
            join_build_rows: self.join_build_rows.get(),
            join_probe_rows: self.join_probe_rows.get(),
            probe_chunks: self.probe_chunks.get(),
            filter_rows_in: self.filter_rows_in.get(),
            filter_rows_out: self.filter_rows_out.get(),
            dap_round_trips: self.dap_round_trips.get(),
            dap_bytes: self.dap_bytes.get(),
            dap_retries: self.dap_retries.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            source_queries: self.source_queries.get(),
            pushdowns: self.pushdowns.get(),
            pruned_rows: self.pruned_rows.get(),
            peak_batch_bytes: self.peak_batch_bytes.get(),
            queue_wait_ns: 0,
            degraded: self.degraded.get(),
        }
    }
}

/// A finished snapshot of one query's resource accounting. Every field
/// is a plain value; `queue_wait_ns` is filled in by the service (it is
/// known outside the evaluation scope).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryStats {
    /// Rows produced by data-source scans (store id columns, OBDA source
    /// query results). The "how much data did this query touch" number.
    pub rows_scanned: u64,
    /// Data-source scans executed.
    pub scans: u64,
    /// Batch windows moved through the vectorized pipeline.
    pub batches: u64,
    /// Hash joins executed.
    pub joins: u64,
    /// Total rows on the build sides of all joins.
    pub join_build_rows: u64,
    /// Total rows on the probe sides of all joins.
    pub join_probe_rows: u64,
    /// Probe passes run (one per join, or one per pair of
    /// differently-bound row groups when a side binds its join
    /// variables only in some rows).
    pub probe_chunks: u64,
    /// Rows entering FILTER evaluation.
    pub filter_rows_in: u64,
    /// Rows surviving FILTER evaluation.
    pub filter_rows_out: u64,
    /// Remote DAP requests completed.
    pub dap_round_trips: u64,
    /// Payload bytes received over DAP.
    pub dap_bytes: u64,
    /// DAP attempts that were retries.
    pub dap_retries: u64,
    /// SubsetCache hits (fresh or stale-within-grace).
    pub cache_hits: u64,
    /// SubsetCache misses (fetched from upstream).
    pub cache_misses: u64,
    /// OBDA source queries executed.
    pub source_queries: u64,
    /// Scans answered through a spatial/temporal index pushdown.
    pub pushdowns: u64,
    /// Scanned rows discarded by planner build-side Bloom/min-max
    /// filters before reaching a join.
    pub pruned_rows: u64,
    /// Largest batch (approximate bytes) held at once.
    pub peak_batch_bytes: u64,
    /// Time spent waiting for an admission permit (service-filled).
    pub queue_wait_ns: u64,
    /// Whether any part of the answer was served stale (set by
    /// [`crate::degrade::mark`]; the service clears it on a failed query).
    pub degraded: bool,
}

impl QueryStats {
    /// `filter_rows_out / filter_rows_in`, or `None` when no FILTER ran.
    pub fn filter_selectivity(&self) -> Option<f64> {
        if self.filter_rows_in == 0 {
            None
        } else {
            Some(self.filter_rows_out as f64 / self.filter_rows_in as f64)
        }
    }

    /// The stats as a JSON object (no trailing newline), embedded in
    /// query-log records and EXPLAIN output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(384);
        self.write_json(&mut out);
        out
    }

    /// Append the JSON object to `out`. Hand-rolled (no `format!`
    /// machinery, no intermediate allocations): this runs once per
    /// logged query on the log's writer thread, which shares the CPU
    /// with query evaluation on small hosts.
    pub(crate) fn write_json(&self, out: &mut String) {
        let fields: [(&str, u64); 19] = [
            ("{\"rows_scanned\": ", self.rows_scanned),
            (", \"scans\": ", self.scans),
            (", \"batches\": ", self.batches),
            (", \"joins\": ", self.joins),
            (", \"join_build_rows\": ", self.join_build_rows),
            (", \"join_probe_rows\": ", self.join_probe_rows),
            (", \"probe_chunks\": ", self.probe_chunks),
            (", \"filter_rows_in\": ", self.filter_rows_in),
            (", \"filter_rows_out\": ", self.filter_rows_out),
            (", \"dap_round_trips\": ", self.dap_round_trips),
            (", \"dap_bytes\": ", self.dap_bytes),
            (", \"dap_retries\": ", self.dap_retries),
            (", \"cache_hits\": ", self.cache_hits),
            (", \"cache_misses\": ", self.cache_misses),
            (", \"source_queries\": ", self.source_queries),
            (", \"pushdowns\": ", self.pushdowns),
            (", \"pruned_rows\": ", self.pruned_rows),
            (", \"peak_batch_bytes\": ", self.peak_batch_bytes),
            (", \"queue_wait_ns\": ", self.queue_wait_ns),
        ];
        for (i, (prefix, v)) in fields.iter().enumerate() {
            out.push_str(prefix);
            push_u64(out, *v);
            if i == 8 {
                out.push_str(", \"filter_selectivity\": ");
                match self.filter_selectivity() {
                    Some(s) => {
                        use std::fmt::Write;
                        let _ = write!(out, "{s:.4}");
                    }
                    None => out.push_str("null"),
                }
            }
        }
        out.push_str(", \"degraded\": ");
        out.push_str(if self.degraded { "true" } else { "false" });
        out.push('}');
    }
}

/// Append `v` in decimal without going through `format!`.
pub(crate) fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

thread_local! {
    /// Innermost-last stack of live accounting cells on this thread.
    static ACTIVE: RefCell<Vec<Rc<StatsCell>>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the innermost live cell, if any. One thread-local read
/// when no query is being accounted.
#[inline]
fn with_cell(f: impl FnOnce(&StatsCell)) {
    ACTIVE.with(|stack| {
        if let Some(cell) = stack.borrow().last() {
            f(cell);
        }
    });
}

/// An accounting scope: installs a fresh cell on this thread; dropped
/// (or [`Scope::finish`]ed) it uninstalls and yields the snapshot.
#[derive(Debug)]
pub struct Scope {
    cell: Rc<StatsCell>,
}

impl Scope {
    /// Begin accounting on the current thread.
    pub fn begin() -> Self {
        let cell = Rc::new(StatsCell::default());
        ACTIVE.with(|stack| stack.borrow_mut().push(Rc::clone(&cell)));
        Scope { cell }
    }

    /// Snapshot the counts accumulated so far (the scope stays live).
    pub fn snapshot(&self) -> QueryStats {
        self.cell.snapshot()
    }

    /// End the scope and return the final snapshot.
    pub fn finish(self) -> QueryStats {
        self.cell.snapshot()
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Normally the top; be defensive about out-of-order drops.
            if let Some(pos) = stack.iter().rposition(|c| Rc::ptr_eq(c, &self.cell)) {
                stack.remove(pos);
            }
        });
    }
}

// ── increment hooks (called from the instrumented crates) ──────────────

/// A data-source scan produced `rows` rows.
#[inline]
pub fn scan(rows: u64) {
    with_cell(|c| {
        c.scans.set(c.scans.get() + 1);
        c.rows_scanned.set(c.rows_scanned.get() + rows);
    });
}

/// `n` batch windows moved through a pipeline stage.
#[inline]
pub fn batches(n: u64) {
    with_cell(|c| {
        c.batches.set(c.batches.get() + n);
    });
}

/// A batch of `approx_bytes` was held at a stage boundary (maxes into
/// the peak-batch gauge).
#[inline]
pub fn peak_batch_bytes(approx_bytes: u64) {
    with_cell(|c| {
        c.peak_batch_bytes
            .set(c.peak_batch_bytes.get().max(approx_bytes));
    });
}

/// A hash join ran with the given build/probe cardinalities.
#[inline]
pub fn join(build_rows: u64, probe_rows: u64) {
    with_cell(|c| {
        c.joins.set(c.joins.get() + 1);
        c.join_build_rows.set(c.join_build_rows.get() + build_rows);
        c.join_probe_rows.set(c.join_probe_rows.get() + probe_rows);
    });
}

/// One hash-join probe pass ran.
#[inline]
pub fn probe_chunk() {
    with_cell(|c| {
        c.probe_chunks.set(c.probe_chunks.get() + 1);
    });
}

/// A FILTER window saw `rows_in` rows and passed `rows_out`.
#[inline]
pub fn filter(rows_in: u64, rows_out: u64) {
    with_cell(|c| {
        c.filter_rows_in.set(c.filter_rows_in.get() + rows_in);
        c.filter_rows_out.set(c.filter_rows_out.get() + rows_out);
    });
}

/// A remote DAP request completed, delivering `bytes` payload bytes.
#[inline]
pub fn dap_round_trip(bytes: u64) {
    with_cell(|c| {
        c.dap_round_trips.set(c.dap_round_trips.get() + 1);
        c.dap_bytes.set(c.dap_bytes.get() + bytes);
    });
}

/// A DAP attempt was a retry.
#[inline]
pub fn dap_retry() {
    with_cell(|c| {
        c.dap_retries.set(c.dap_retries.get() + 1);
    });
}

/// A SubsetCache hit (fresh or stale-within-grace).
#[inline]
pub fn cache_hit() {
    with_cell(|c| {
        c.cache_hits.set(c.cache_hits.get() + 1);
    });
}

/// A SubsetCache miss.
#[inline]
pub fn cache_miss() {
    with_cell(|c| {
        c.cache_misses.set(c.cache_misses.get() + 1);
    });
}

/// An OBDA source query executed.
#[inline]
pub fn source_query() {
    with_cell(|c| {
        c.source_queries.set(c.source_queries.get() + 1);
    });
}

/// A scan was answered through a spatial/temporal index pushdown.
#[inline]
pub fn pushdown() {
    with_cell(|c| {
        c.pushdowns.set(c.pushdowns.get() + 1);
    });
}

/// Planner build-side Bloom/min-max filtering discarded `rows` scanned
/// rows before a join.
#[inline]
pub fn pruned(rows: u64) {
    with_cell(|c| {
        c.pruned_rows.set(c.pruned_rows.get() + rows);
    });
}

/// Part of the answer was served stale (see [`crate::degrade::mark`]).
#[inline]
pub(crate) fn degraded() {
    with_cell(|c| c.degraded.set(true));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_accumulates_and_snapshots() {
        let scope = Scope::begin();
        scan(100);
        scan(31);
        join(31, 100);
        probe_chunk();
        filter(131, 7);
        batches(2);
        peak_batch_bytes(4096);
        peak_batch_bytes(1024);
        dap_round_trip(2048);
        dap_retry();
        cache_hit();
        cache_miss();
        source_query();
        pushdown();
        pruned(42);
        let stats = scope.finish();
        assert_eq!(stats.rows_scanned, 131);
        assert_eq!(stats.scans, 2);
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.join_build_rows, 31);
        assert_eq!(stats.join_probe_rows, 100);
        assert_eq!(stats.probe_chunks, 1);
        assert_eq!(stats.filter_rows_in, 131);
        assert_eq!(stats.filter_rows_out, 7);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.peak_batch_bytes, 4096, "peak, not sum");
        assert_eq!(stats.dap_round_trips, 1);
        assert_eq!(stats.dap_bytes, 2048);
        assert_eq!(stats.dap_retries, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.source_queries, 1);
        assert_eq!(stats.pushdowns, 1);
        assert_eq!(stats.pruned_rows, 42);
        let sel = stats.filter_selectivity().expect("filter ran");
        assert!((sel - 7.0 / 131.0).abs() < 1e-9);
    }

    #[test]
    fn hooks_are_noops_without_a_scope() {
        scan(1_000_000);
        let scope = Scope::begin();
        let stats = scope.finish();
        assert_eq!(stats.rows_scanned, 0);
    }

    #[test]
    fn scopes_nest_and_inner_wins() {
        let outer = Scope::begin();
        scan(10);
        {
            let inner = Scope::begin();
            scan(5);
            assert_eq!(inner.finish().rows_scanned, 5);
        }
        scan(1);
        assert_eq!(outer.finish().rows_scanned, 11);
    }

    #[test]
    fn stats_json_has_every_field() {
        let scope = Scope::begin();
        filter(10, 5);
        let stats = scope.finish();
        let json = stats.to_json();
        assert!(json.contains("\"filter_selectivity\": 0.5000"), "{json}");
        assert!(json.contains("\"pruned_rows\": 0"), "{json}");
        assert!(json.contains("\"degraded\": false"), "{json}");
        let no_filter = QueryStats::default().to_json();
        assert!(no_filter.contains("\"filter_selectivity\": null"));
    }
}
