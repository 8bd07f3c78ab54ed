//! Structured query log + flight recorder.
//!
//! One [`QueryLogRecord`] per served query — who asked what, how it
//! ended, and the full [`QueryStats`] resource accounting — serialized
//! as one JSON object per line (JSONL). Records flow through a bounded
//! channel to a background writer thread, so the query path never
//! blocks on I/O: when the channel is full the record is *dropped and
//! counted* (`applab_obs_querylog_dropped_total`), never waited on.
//!
//! **Sampling** keeps steady-state volume bounded without losing the
//! interesting tail: errors, timeouts, degraded answers and
//! slower-than-threshold queries are always logged; healthy fast
//! queries are sampled at [`SamplingPolicy::ok_sample_rate`] using a
//! seeded SplitMix64 sequence, so tests replay the exact same keep/drop
//! decisions from the seed.
//!
//! The [`FlightRecorder`] is the postmortem side: a fixed-size ring of
//! the last N records, *unsampled*, held in memory and dumped on demand
//! — the chaos/stress suites write it next to the shrunk failure case
//! so a trichotomy violation comes with the recent-request tape.

use crate::json::{self, escape_into, Value};
use crate::querystats::QueryStats;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Longest query text stored in a record; the full text is identified
/// by `query_hash`.
pub const QUERY_TEXT_LIMIT: usize = 160;

/// One served query, as logged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryLogRecord {
    /// Monotonic per-service sequence number.
    pub seq: u64,
    /// Wall-clock emit time, milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// Routing name the query was sent to.
    pub endpoint: String,
    /// Backing engine (`"store"` / `"obda"` / `"?"`).
    pub backend: String,
    /// Outcome code (`"ok"`, `"timeout"`, `"overloaded"`, ...).
    pub code: String,
    /// Whether the answer was served (partly) stale.
    pub degraded: bool,
    /// Evaluation wall-clock.
    pub elapsed_ns: u64,
    /// Admission queue wait.
    pub queue_wait_ns: u64,
    /// FNV-1a hash of the *full* query text (the stable identity).
    pub query_hash: u64,
    /// Query text, truncated to [`QUERY_TEXT_LIMIT`] chars.
    pub query: String,
    /// Trace id of the `service.query` span, for correlation with
    /// subscribers (0 when tracing is off).
    pub trace_id: u64,
    /// Span id of the `service.query` span (0 when tracing is off).
    pub span_id: u64,
    /// The per-query resource accounting.
    pub stats: QueryStats,
}

/// FNV-1a, the query-text identity hash.
pub fn hash_query(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Truncate to [`QUERY_TEXT_LIMIT`] characters on a char boundary.
pub fn truncate_query(text: &str) -> String {
    match text.char_indices().nth(QUERY_TEXT_LIMIT) {
        Some((idx, _)) => text[..idx].to_string(),
        None => text.to_string(),
    }
}

/// Milliseconds since the Unix epoch.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl QueryLogRecord {
    /// The record as one JSON line (no trailing newline).
    /// `query_hash` is emitted as a hex *string* so the full 64 bits
    /// survive readers that parse numbers as f64.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(640);
        self.write_json(&mut out);
        out
    }

    /// Append the JSON line to `out` (the allocation-free flavour of
    /// [`QueryLogRecord::to_json`], used with recycled buffers).
    /// Hand-rolled for the same reason as the `QueryStats` writer:
    /// one line per logged query, on the query path.
    pub fn write_json(&self, out: &mut String) {
        let push_u64 = crate::querystats::push_u64;
        out.push_str("{\"seq\": ");
        push_u64(out, self.seq);
        out.push_str(", \"ts_ms\": ");
        push_u64(out, self.ts_ms);
        out.push_str(", \"endpoint\": \"");
        escape_into(out, &self.endpoint);
        out.push_str("\", \"backend\": \"");
        escape_into(out, &self.backend);
        out.push_str("\", \"code\": \"");
        escape_into(out, &self.code);
        out.push_str("\", \"degraded\": ");
        out.push_str(if self.degraded { "true" } else { "false" });
        out.push_str(", \"elapsed_ns\": ");
        push_u64(out, self.elapsed_ns);
        out.push_str(", \"queue_wait_ns\": ");
        push_u64(out, self.queue_wait_ns);
        out.push_str(", \"query_hash\": \"");
        push_hex16(out, self.query_hash);
        out.push_str("\", \"query\": \"");
        escape_into(out, &self.query);
        out.push_str("\", \"trace_id\": ");
        push_u64(out, self.trace_id);
        out.push_str(", \"span_id\": ");
        push_u64(out, self.span_id);
        out.push_str(", \"stats\": ");
        self.stats.write_json(out);
        out.push('}');
    }

    /// Parse a record back from one JSON line (the inverse of
    /// [`QueryLogRecord::to_json`]; unknown keys are ignored, missing
    /// keys default). `Err` carries a short description of the first
    /// syntax problem.
    pub fn from_json(line: &str) -> Result<QueryLogRecord, String> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        let obj = value.as_object().ok_or("top level is not an object")?;
        let mut rec = QueryLogRecord::default();
        for (key, v) in obj {
            match key.as_str() {
                "seq" => rec.seq = int(v)?,
                "ts_ms" => rec.ts_ms = int(v)?,
                "endpoint" => rec.endpoint = text(v)?,
                "backend" => rec.backend = text(v)?,
                "code" => rec.code = text(v)?,
                "degraded" => rec.degraded = flag(v)?,
                "elapsed_ns" => rec.elapsed_ns = int(v)?,
                "queue_wait_ns" => rec.queue_wait_ns = int(v)?,
                "query_hash" => {
                    rec.query_hash = u64::from_str_radix(&text(v)?, 16)
                        .map_err(|e| format!("bad query_hash: {e}"))?;
                }
                "query" => rec.query = text(v)?,
                "trace_id" => rec.trace_id = int(v)?,
                "span_id" => rec.span_id = int(v)?,
                "stats" => rec.stats = parse_stats(v)?,
                _ => {}
            }
        }
        Ok(rec)
    }
}

fn int(v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| "expected an unsigned integer".to_string())
}

fn text(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| "expected a string".to_string())
}

fn flag(v: &Value) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| "expected a boolean".to_string())
}

fn parse_stats(v: &Value) -> Result<QueryStats, String> {
    let obj = v.as_object().ok_or("stats is not an object")?;
    let mut s = QueryStats::default();
    for (key, v) in obj {
        match key.as_str() {
            "rows_scanned" => s.rows_scanned = int(v)?,
            "scans" => s.scans = int(v)?,
            "batches" => s.batches = int(v)?,
            "joins" => s.joins = int(v)?,
            "join_build_rows" => s.join_build_rows = int(v)?,
            "join_probe_rows" => s.join_probe_rows = int(v)?,
            "probe_chunks" => s.probe_chunks = int(v)?,
            "filter_rows_in" => s.filter_rows_in = int(v)?,
            "filter_rows_out" => s.filter_rows_out = int(v)?,
            "dap_round_trips" => s.dap_round_trips = int(v)?,
            "dap_bytes" => s.dap_bytes = int(v)?,
            "dap_retries" => s.dap_retries = int(v)?,
            "cache_hits" => s.cache_hits = int(v)?,
            "cache_misses" => s.cache_misses = int(v)?,
            "source_queries" => s.source_queries = int(v)?,
            "pushdowns" => s.pushdowns = int(v)?,
            "pruned_rows" => s.pruned_rows = int(v)?,
            "peak_batch_bytes" => s.peak_batch_bytes = int(v)?,
            "queue_wait_ns" => s.queue_wait_ns = int(v)?,
            "degraded" => s.degraded = flag(v)?,
            // `filter_selectivity` is derived; ignored on parse.
            _ => {}
        }
    }
    Ok(s)
}

/// Append `v` as exactly 16 lowercase hex digits.
fn push_hex16(out: &mut String, v: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[((v >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&buf).expect("ascii hex"));
}

// ── sampling ───────────────────────────────────────────────────────────

/// When to keep a record.
#[derive(Debug, Clone)]
pub struct SamplingPolicy {
    /// Keep probability for healthy fast queries, in `[0, 1]`.
    pub ok_sample_rate: f64,
    /// Healthy queries at least this slow are always kept.
    pub slow_threshold_ns: Option<u64>,
    /// Seed for the deterministic keep/drop sequence.
    pub seed: u64,
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy {
            ok_sample_rate: 0.1,
            slow_threshold_ns: Some(100_000_000), // 100 ms
            seed: 0,
        }
    }
}

impl SamplingPolicy {
    /// Log everything (tests, debugging).
    pub fn always() -> Self {
        SamplingPolicy {
            ok_sample_rate: 1.0,
            slow_threshold_ns: None,
            seed: 0,
        }
    }
}

// ── the log itself ─────────────────────────────────────────────────────

/// Where finished JSONL lines go. Runs on the writer thread, so a slow
/// sink can never stall the query path.
pub trait LogSink: Send {
    /// Persist one line (no trailing newline included).
    fn write_line(&mut self, line: &str);
    /// Durability point (called by [`QueryLog::flush`] and at shutdown).
    fn flush(&mut self) {}
}

/// Collects lines into a shared vector — the test sink.
pub struct VecSink(Arc<Mutex<Vec<String>>>);

impl VecSink {
    /// The sink plus the shared handle tests read the lines from.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (Box<dyn LogSink>, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (Box::new(VecSink(Arc::clone(&lines))), lines)
    }
}

impl LogSink for VecSink {
    fn write_line(&mut self, line: &str) {
        self.0.lock().expect("vec sink lock").push(line.to_string());
    }
}

/// Writes lines to any `io::Write` (a file, a pipe), newline-delimited.
pub struct WriterSink<W: std::io::Write + Send>(pub W);

impl<W: std::io::Write + Send> LogSink for WriterSink<W> {
    fn write_line(&mut self, line: &str) {
        // I/O errors must not take down the writer thread; they surface
        // as missing lines, which the drop counter cannot see — a file
        // sink that matters should be on a reliable local disk.
        let _ = writeln!(self.0, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.0.flush();
    }
}

/// State shared between callers and the writer thread: a bounded queue
/// of serialized lines plus pending flush acknowledgements. Callers
/// serialize before enqueueing — the line is one compact allocation,
/// and the record's strings are freed on the thread that allocated
/// them, which keeps the allocator's thread caches effective.
struct LogState {
    queue: VecDeque<String>,
    flush_acks: Vec<SyncSender<()>>,
    shutdown: bool,
}

struct LogShared {
    state: Mutex<LogState>,
    /// Signalled for flush and shutdown only. Ordinary records do NOT
    /// wake the writer — it polls on a short timeout instead, so the
    /// query path pays one uncontended mutex push and no syscalls.
    work: Condvar,
    /// Written-out line buffers, cleared and recycled back to callers.
    /// In steady state no line allocation crosses threads — cross-thread
    /// malloc/free traffic would contend with query-evaluation
    /// allocations on the same arena.
    pool: Mutex<Vec<String>>,
}

/// How long the writer sleeps between drains when idle.
const WRITER_POLL: Duration = Duration::from_millis(5);

/// Cap on recycled line buffers kept in the pool.
const POOL_MAX: usize = 256;

/// The asynchronous query log: sampling decision + serialization happen
/// on the caller, the line is pushed onto a bounded in-memory queue,
/// and a background thread drains the queue in batches, writing each
/// line to the sink. [`QueryLog::log`] never blocks and never wakes
/// the writer.
pub struct QueryLog {
    shared: Arc<LogShared>,
    capacity: usize,
    writer: Mutex<Option<JoinHandle<()>>>,
    policy: SamplingPolicy,
    draws: AtomicU64,
    logged: AtomicU64,
    dropped: AtomicU64,
}

/// Default bound on in-flight lines.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

impl QueryLog {
    /// A log writing to `sink` with the given policy and queue bound.
    pub fn new(sink: Box<dyn LogSink>, policy: SamplingPolicy, capacity: usize) -> QueryLog {
        let shared = Arc::new(LogShared {
            state: Mutex::new(LogState {
                queue: VecDeque::new(),
                flush_acks: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            pool: Mutex::new(Vec::new()),
        });
        let writer_shared = Arc::clone(&shared);
        let writer = std::thread::Builder::new()
            .name("applab-querylog".to_string())
            .spawn(move || writer_loop(writer_shared, sink))
            .expect("spawn query-log writer");
        QueryLog {
            shared,
            capacity: capacity.max(1),
            writer: Mutex::new(Some(writer)),
            policy,
            draws: AtomicU64::new(0),
            logged: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether this record passes the sampling policy. Deterministic:
    /// the n-th *sampled* decision under a given seed is always the
    /// same. Errors, degraded answers and slow queries never sample.
    pub fn should_log(&self, record: &QueryLogRecord) -> bool {
        if record.code != "ok" || record.degraded {
            return true;
        }
        if let Some(t) = self.policy.slow_threshold_ns {
            if record.elapsed_ns >= t {
                return true;
            }
        }
        if self.policy.ok_sample_rate >= 1.0 {
            return true;
        }
        if self.policy.ok_sample_rate <= 0.0 {
            return false;
        }
        let n = self.draws.fetch_add(1, Ordering::Relaxed);
        let x = crate::splitmix64(self.policy.seed.wrapping_add(n));
        let unit = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < self.policy.ok_sample_rate
    }

    /// Sample, serialize and enqueue `record`. Returns `true` when the
    /// record was enqueued; `false` when sampled out or dropped on a
    /// full queue (counted in `applab_obs_querylog_dropped_total`).
    pub fn log(&self, record: &QueryLogRecord) -> bool {
        if !self.should_log(record) {
            return false;
        }
        self.enqueue(self.render(record))
    }

    /// Serialize into a recycled line buffer when one is available.
    fn render(&self, record: &QueryLogRecord) -> String {
        let mut buf = self
            .shared
            .pool
            .lock()
            .expect("query-log pool")
            .pop()
            .unwrap_or_else(|| String::with_capacity(640));
        buf.clear();
        record.write_json(&mut buf);
        buf
    }

    fn enqueue(&self, line: String) -> bool {
        let accepted = {
            let mut st = self.shared.state.lock().expect("query-log state");
            if st.shutdown || st.queue.len() >= self.capacity {
                false
            } else {
                st.queue.push_back(line);
                true
            }
        };
        if accepted {
            self.logged.fetch_add(1, Ordering::Relaxed);
            crate::counter!("applab_obs_querylog_records_total").inc();
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            crate::counter!("applab_obs_querylog_dropped_total").inc();
        }
        accepted
    }

    /// Records enqueued so far.
    pub fn logged(&self) -> u64 {
        self.logged.load(Ordering::Relaxed)
    }

    /// Records lost to a full queue so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Block until every line enqueued before this call is in the sink
    /// (tests and orderly shutdown; the query path never calls this).
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        {
            let mut st = self.shared.state.lock().expect("query-log state");
            if st.shutdown {
                return;
            }
            st.flush_acks.push(ack_tx);
        }
        self.shared.work.notify_one();
        let _ = ack_rx.recv();
    }
}

impl Drop for QueryLog {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("query-log state");
            st.shutdown = true;
        }
        self.shared.work.notify_one();
        if let Some(handle) = self.writer.lock().expect("writer handle lock").take() {
            let _ = handle.join();
        }
    }
}

fn writer_loop(shared: Arc<LogShared>, mut sink: Box<dyn LogSink>) {
    let mut batch: VecDeque<String> = VecDeque::new();
    loop {
        let (acks, shutdown) = {
            let mut st = shared.state.lock().expect("query-log state");
            while st.queue.is_empty() && st.flush_acks.is_empty() && !st.shutdown {
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, WRITER_POLL)
                    .expect("query-log state");
                st = guard;
            }
            std::mem::swap(&mut batch, &mut st.queue);
            (std::mem::take(&mut st.flush_acks), st.shutdown)
        };
        // Write outside the lock: callers keep enqueueing into the (now
        // empty) queue while this batch drains. Written buffers go back
        // to the pool for reuse instead of being freed here.
        if !batch.is_empty() {
            for line in &batch {
                sink.write_line(line);
            }
            let mut pool = shared.pool.lock().expect("query-log pool");
            for line in batch.drain(..) {
                if pool.len() < POOL_MAX {
                    pool.push(line);
                }
            }
        }
        if !acks.is_empty() || shutdown {
            sink.flush();
            for ack in acks {
                let _ = ack.try_send(());
            }
        }
        if shutdown {
            return;
        }
    }
}

// ── flight recorder ────────────────────────────────────────────────────

/// A fixed-size ring of the last N query-log records, unsampled. Writes
/// claim a slot with one atomic increment and lock only that slot, so
/// concurrent recorders contend only when wrapping onto each other.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<QueryLogRecord>>>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the last `capacity` records.
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// How many records fit.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (≥ what [`FlightRecorder::dump`]
    /// returns once the ring has wrapped).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Append one record, evicting the oldest once full.
    pub fn record(&self, record: QueryLogRecord) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        *self.slots[idx].lock().expect("flight recorder slot") = Some(record);
    }

    /// The retained records, oldest first.
    pub fn dump(&self) -> Vec<QueryLogRecord> {
        let n = self.next.load(Ordering::Relaxed) as usize;
        let cap = self.slots.len();
        let start = if n >= cap { n % cap } else { 0 };
        let mut out = Vec::with_capacity(cap.min(n));
        for i in 0..cap {
            let slot = self.slots[(start + i) % cap]
                .lock()
                .expect("flight recorder slot");
            if let Some(rec) = slot.as_ref() {
                out.push(rec.clone());
            }
        }
        out
    }

    /// The retained records as JSONL (one record per line, oldest
    /// first, trailing newline when nonempty).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.dump() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }

    /// Write the tape to `path` as JSONL, creating parent directories.
    /// This is the crash-artifact path: chaos harnesses call it from
    /// failure handlers, so it must not panic on I/O trouble.
    pub fn dump_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.dump_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(seq: u64) -> QueryLogRecord {
        QueryLogRecord {
            seq,
            ts_ms: 1_722_000_000_000,
            endpoint: "store".to_string(),
            backend: "store".to_string(),
            code: "ok".to_string(),
            degraded: false,
            elapsed_ns: 1_234_567,
            queue_wait_ns: 987,
            query_hash: hash_query("SELECT ?s WHERE { ?s ?p ?o }"),
            query: "SELECT ?s WHERE { ?s ?p ?o }".to_string(),
            trace_id: 42,
            span_id: 43,
            stats: QueryStats {
                rows_scanned: 784,
                scans: 2,
                batches: 3,
                joins: 1,
                join_build_rows: 131,
                join_probe_rows: 784,
                probe_chunks: 4,
                filter_rows_in: 131,
                filter_rows_out: 17,
                dap_round_trips: 2,
                dap_bytes: 16_384,
                dap_retries: 1,
                cache_hits: 1,
                cache_misses: 1,
                source_queries: 3,
                pushdowns: 1,
                pruned_rows: 96,
                peak_batch_bytes: 32_768,
                queue_wait_ns: 987,
                degraded: false,
            },
        }
    }

    #[test]
    fn record_roundtrips_through_json() {
        let rec = sample_record(7);
        let parsed = QueryLogRecord::from_json(&rec.to_json()).expect("parse");
        assert_eq!(parsed, rec);
    }

    #[test]
    fn query_hash_keeps_full_64_bits() {
        let mut rec = sample_record(9);
        rec.query_hash = u64::MAX - 3; // not representable as f64
        let parsed = QueryLogRecord::from_json(&rec.to_json()).expect("parse");
        assert_eq!(parsed.query_hash, u64::MAX - 3);
    }

    #[test]
    fn truncation_is_char_safe() {
        let long = "ø".repeat(QUERY_TEXT_LIMIT + 50);
        let t = truncate_query(&long);
        assert_eq!(t.chars().count(), QUERY_TEXT_LIMIT);
    }

    #[test]
    fn errors_and_degraded_and_slow_always_log() {
        let (sink, _lines) = VecSink::new();
        let log = QueryLog::new(
            sink,
            SamplingPolicy {
                ok_sample_rate: 0.0,
                slow_threshold_ns: Some(1_000_000),
                seed: 1,
            },
            16,
        );
        let mut rec = sample_record(0);
        rec.elapsed_ns = 0;
        assert!(
            !log.should_log(&rec),
            "healthy fast query sampled out at rate 0"
        );
        rec.code = "timeout".to_string();
        assert!(log.should_log(&rec));
        rec.code = "ok".to_string();
        rec.degraded = true;
        assert!(log.should_log(&rec));
        rec.degraded = false;
        rec.elapsed_ns = 2_000_000;
        assert!(log.should_log(&rec), "slow query crossed the threshold");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let decisions = |seed: u64| -> Vec<bool> {
            let (sink, _lines) = VecSink::new();
            let log = QueryLog::new(
                sink,
                SamplingPolicy {
                    ok_sample_rate: 0.5,
                    slow_threshold_ns: None,
                    seed,
                },
                16,
            );
            let mut rec = sample_record(0);
            rec.elapsed_ns = 0;
            (0..64).map(|_| log.should_log(&rec)).collect()
        };
        let a = decisions(7);
        let b = decisions(7);
        assert_eq!(a, b, "same seed, same keep/drop sequence");
        let kept = a.iter().filter(|&&k| k).count();
        assert!(kept > 10 && kept < 54, "rate 0.5 kept {kept}/64");
        assert_ne!(a, decisions(8), "different seed, different sequence");
    }

    #[test]
    fn log_never_blocks_and_counts_drops() {
        // A sink that blocks until released, so the queue fills up.
        struct Gate(Arc<Mutex<()>>);
        impl LogSink for Gate {
            fn write_line(&mut self, _line: &str) {
                let _held = self.0.lock().expect("gate");
            }
        }
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().expect("gate");
        let log = QueryLog::new(
            Box::new(Gate(Arc::clone(&gate))),
            SamplingPolicy::always(),
            2,
        );
        let rec = sample_record(0);
        // Capacity 2 + one line stuck in the writer: everything beyond
        // is dropped, and log() returns promptly instead of blocking.
        for _ in 0..16 {
            log.log(&rec);
        }
        assert!(log.dropped() > 0, "full queue must drop, not block");
        assert!(log.logged() >= 2);
        drop(held);
        log.flush();
    }

    #[test]
    fn writer_drains_to_sink_in_order() {
        let (sink, lines) = VecSink::new();
        let log = QueryLog::new(sink, SamplingPolicy::always(), 64);
        for seq in 0..10 {
            assert!(log.log(&sample_record(seq)));
        }
        log.flush();
        let lines = lines.lock().expect("lines");
        assert_eq!(lines.len(), 10);
        for (i, line) in lines.iter().enumerate() {
            let rec = QueryLogRecord::from_json(line).expect("parse");
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn flight_recorder_keeps_last_n_in_order() {
        let fr = FlightRecorder::new(4);
        assert!(fr.dump().is_empty());
        for seq in 0..3 {
            fr.record(sample_record(seq));
        }
        let seqs: Vec<u64> = fr.dump().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2], "not yet wrapped: oldest first");
        for seq in 3..11 {
            fr.record(sample_record(seq));
        }
        let seqs: Vec<u64> = fr.dump().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [7, 8, 9, 10], "wrapped: last capacity records");
        assert_eq!(fr.recorded(), 11);
        let jsonl = fr.dump_jsonl();
        assert_eq!(jsonl.lines().count(), 4);
        for line in jsonl.lines() {
            QueryLogRecord::from_json(line).expect("every dumped line parses");
        }
    }

    #[test]
    fn flight_recorder_is_safe_under_concurrent_writes() {
        let fr = Arc::new(FlightRecorder::new(8));
        std::thread::scope(|s| {
            for t in 0..4 {
                let fr = Arc::clone(&fr);
                s.spawn(move || {
                    for i in 0..50 {
                        fr.record(sample_record(t * 100 + i));
                    }
                });
            }
        });
        assert_eq!(fr.recorded(), 200);
        assert_eq!(fr.dump().len(), 8);
    }
}
