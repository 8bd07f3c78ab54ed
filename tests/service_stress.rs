//! Concurrency stress for `applab-service`: 32 threads firing mixed
//! Geographica queries at one shared service over both backends. Accepted
//! results must be byte-identical to a single-threaded run, and a tiny
//! evaluation budget must yield `CoreError::Timeout` — never truncated
//! results.

use applab_qa::geographica_queries;
use copernicus_app_lab::core::{CoreError, MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::obs::{QueryLog, QueryLogRecord, SamplingPolicy, VecSink};
use copernicus_app_lab::service::{ApplabService, QueryRequest, ServiceConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Both workflows over the same synthetic Paris tables, behind one service.
fn build_service() -> ApplabService {
    let fixture = ParisFixture::generate(7, 14, 8);
    let tables = fixture.world.tables();

    let mut mat = MaterializedWorkflow::new();
    for (table, doc) in &tables {
        mat.load_table(table, doc).unwrap();
    }

    let mut builder = VirtualWorkflowBuilder::local();
    for (table, doc) in tables {
        builder.add_table(table);
        builder.add_mappings(doc).unwrap();
    }
    let virt = builder.seal().unwrap();

    ApplabService::new(ServiceConfig {
        max_in_flight: 4,
        // Wide enough that the 32-thread burst queues instead of shedding:
        // this test is about result integrity, not load shedding.
        max_queue: 64,
        queue_timeout: Duration::from_secs(120),
        ..ServiceConfig::default()
    })
    .with_endpoint("store", Arc::new(mat))
    .with_endpoint("obda", Arc::new(virt))
}

#[test]
fn thirty_two_threads_get_byte_identical_results() {
    // The full burst runs with a rate-1.0 query log attached: under
    // contention every served query must still produce exactly one
    // well-formed JSONL line, with nothing dropped.
    let (sink, lines) = VecSink::new();
    let log = Arc::new(QueryLog::new(sink, SamplingPolicy::always(), 4096));
    let service = build_service().with_query_log(Arc::clone(&log));
    let jobs: Vec<(&'static str, &'static str, String)> = ["store", "obda"]
        .into_iter()
        .flat_map(|ep| {
            geographica_queries()
                .into_iter()
                .map(move |(name, sparql)| (ep, name, sparql))
        })
        .collect();

    // Single-threaded reference pass through the same service.
    let mut baseline: HashMap<(&str, &str), String> = HashMap::new();
    for (ep, name, sparql) in &jobs {
        let out = service.query(ep, sparql);
        let results = out
            .result
            .as_ref()
            .unwrap_or_else(|e| panic!("baseline {ep}/{name}: {e}"));
        baseline.insert((*ep, *name), results.to_json());
    }

    // 32 threads, each replaying a rotated slice of the mixed job list.
    std::thread::scope(|scope| {
        for t in 0..32 {
            let service = &service;
            let jobs = &jobs;
            let baseline = &baseline;
            scope.spawn(move || {
                for k in 0..4 {
                    let (ep, name, sparql) = &jobs[(t * 5 + k * 7) % jobs.len()];
                    let out = service.query(ep, sparql);
                    let results = out
                        .result
                        .as_ref()
                        .unwrap_or_else(|e| panic!("thread {t} {ep}/{name}: {e}"));
                    assert_eq!(
                        &results.to_json(),
                        &baseline[&(*ep, *name)],
                        "thread {t}: concurrent result for {ep}/{name} drifted"
                    );
                }
            });
        }
    });
    assert_eq!(service.load(), (0, 0), "all permits released");

    // One JSONL line per served query — the baseline pass plus the
    // 32-thread burst — every one of them parseable.
    log.flush();
    let served = jobs.len() + 32 * 4;
    let lines = lines.lock().expect("sink lines");
    assert_eq!(lines.len(), served, "one log line per served query");
    assert_eq!(log.dropped(), 0, "the log must not shed under this load");
    let mut seqs: Vec<u64> = Vec::with_capacity(lines.len());
    for line in lines.iter() {
        let rec = QueryLogRecord::from_json(line).expect("log line parses");
        assert_eq!(rec.code, "ok");
        assert!(
            rec.stats.rows_scanned > 0,
            "accounting survives concurrency"
        );
        seqs.push(rec.seq);
    }
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), served, "sequence numbers are unique");
}

/// An `io::Write` that records chunk sizes and total bytes but keeps
/// nothing, so streaming through it proves the serialization path never
/// needed the document in one allocation.
#[derive(Default)]
struct CountingWriter {
    total: usize,
    chunks: usize,
    max_chunk: usize,
    digest: u64,
}

impl std::io::Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.total += buf.len();
        self.chunks += 1;
        self.max_chunk = self.max_chunk.max(buf.len());
        for &b in buf {
            self.digest = self.digest.wrapping_mul(1099511628211) ^ u64::from(b);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0u64, |h, &b| h.wrapping_mul(1099511628211) ^ u64::from(b))
}

/// The wire path: `QueryResults::write_json` must emit exactly the
/// `to_json` bytes while flushing in bounded chunks — peak response memory
/// on the service stays one flush window, flat in the result size.
#[test]
fn streamed_json_matches_to_json_in_bounded_chunks() {
    let service = build_service();
    for (ep, (name, sparql)) in ["store", "obda"]
        .into_iter()
        .flat_map(|ep| geographica_queries().into_iter().map(move |q| (ep, q)))
    {
        let out = service.query(ep, &sparql);
        let results = out
            .results()
            .unwrap_or_else(|| panic!("{ep}/{name} failed: {:?}", out.code()));
        let golden = results.to_json();
        let mut w = CountingWriter::default();
        results
            .write_json(&mut w)
            .expect("counting writer never errors");
        assert_eq!(w.total, golden.len(), "{ep}/{name}: byte count drifted");
        assert_eq!(
            w.digest,
            fnv(golden.as_bytes()),
            "{ep}/{name}: bytes drifted"
        );
        assert!(
            w.max_chunk <= 64 * 1024,
            "{ep}/{name}: {} byte chunk — streaming is buffering whole documents",
            w.max_chunk
        );
    }
}

#[test]
fn zero_budget_times_out_on_both_backends() {
    let service = build_service();
    let spatial_join = &geographica_queries()
        .into_iter()
        .find(|(name, _)| name.starts_with("Join"))
        .expect("geographica has a spatial join class")
        .1;
    for ep in ["store", "obda"] {
        let out = service.query_with(
            ep,
            spatial_join,
            &QueryRequest::new().deadline(Duration::ZERO),
        );
        assert_eq!(out.code(), "timeout", "{ep}: {:?}", out.result);
        assert!(
            matches!(out.result, Err(CoreError::Timeout(_))),
            "{ep}: {:?}",
            out.result
        );
    }
}

#[test]
fn tight_budgets_never_yield_truncated_results() {
    let service = build_service();
    let (name, sparql) = geographica_queries().swap_remove(0);
    let full = service
        .query("store", &sparql)
        .result
        .expect("unlimited run succeeds")
        .to_json();

    // Deadlines in the race window between "instant" and the query's real
    // runtime: each attempt must either time out or return the *complete*
    // answer — partial results must never escape.
    for micros in [1u64, 10, 50, 100, 500, 1_000, 5_000] {
        for _ in 0..3 {
            let out = service.query_with(
                "store",
                &sparql,
                &QueryRequest::new().deadline(Duration::from_micros(micros)),
            );
            match out.result {
                Ok(results) => assert_eq!(
                    results.to_json(),
                    full,
                    "{name} @ {micros}µs returned truncated results"
                ),
                Err(CoreError::Timeout(_)) => {}
                Err(other) => panic!("{name} @ {micros}µs: unexpected {other}"),
            }
        }
    }
}
