//! Chaos × differential composition smoke: a 100-case slice of the QA
//! generator runs against the virtual workflow behind a `ChaosTransport`
//! at a 10% fault rate, and every outcome must land in the resilience
//! trichotomy:
//!
//! 1. results canonically identical to the fault-free run (fresh or
//!    degraded-but-complete — the data never changes under the test, so a
//!    stale window answer is still the same answer), or
//! 2. a typed `CoreError` (`Unavailable` / `Source` / `Timeout`).
//!
//! Never a panic, a silently partial result, or an untyped error. This
//! composes the PR that added fault tolerance with the generative harness:
//! the generator supplies query diversity the handwritten chaos suite
//! doesn't have.

use applab_qa::{canonicalize, case_seed, diff, generate, DatasetSpec};
use copernicus_app_lab::core::CoreError;
use copernicus_app_lab::dap::chaos::{ChaosConfig, ChaosTransport};
use copernicus_app_lab::dap::clock::ManualClock;
use copernicus_app_lab::dap::transport::Local;
use copernicus_app_lab::dap::ResilienceConfig;
use copernicus_app_lab::obs::querylog::{hash_query, now_ms, truncate_query};
use copernicus_app_lab::obs::{querystats, FlightRecorder, QueryLogRecord};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CASES: u64 = 100;
const RUN_SEED: u64 = 0x9A_C4A05;
const FAULT_RATE: f64 = 0.10;

/// Run one chaotic query under a stats scope and leave a record on the
/// flight recorder, so a trichotomy violation can dump the tape of
/// requests that led up to it — same artifact a crashed service leaves.
fn query_recorded(
    recorder: &FlightRecorder,
    vw: &copernicus_app_lab::core::VirtualWorkflow,
    seq: u64,
    text: &str,
) -> Result<copernicus_app_lab::sparql::QueryResults, CoreError> {
    let scope = querystats::Scope::begin();
    let started = Instant::now();
    let result = vw.query(text);
    let elapsed_ns = started.elapsed().as_nanos() as u64;
    let code = match &result {
        Ok(_) => "ok",
        Err(CoreError::Unavailable { .. }) => "unavailable",
        Err(CoreError::Source(_)) => "source",
        Err(CoreError::Timeout(_)) => "timeout",
        Err(_) => "error",
    };
    recorder.record(QueryLogRecord {
        seq,
        ts_ms: now_ms(),
        endpoint: "qa-chaos".to_string(),
        backend: "obda".to_string(),
        code: code.to_string(),
        degraded: false,
        elapsed_ns,
        queue_wait_ns: 0,
        query_hash: hash_query(text),
        query: truncate_query(text),
        trace_id: 0,
        span_id: 0,
        stats: scope.finish(),
    });
    result
}

/// Dump the tape next to the shrunk corpus artifacts exp_qa writes, and
/// return the path for the panic message.
fn dump_flight_tape(recorder: &FlightRecorder) -> String {
    let path = PathBuf::from("qa/failing/qa_chaos_flight.jsonl");
    match recorder.dump_to_file(&path) {
        Ok(()) => format!("flight tape: {}", path.display()),
        Err(e) => format!("flight tape dump failed: {e}"),
    }
}

#[test]
fn generated_queries_hold_the_trichotomy_under_chaos() {
    let spec = DatasetSpec::small(7);

    // Fault-free oracle over the same dataset.
    let clean = spec.build().expect("clean engines build");

    // The workflow under test: same dataset, OPeNDAP path behind a 10%
    // uniform fault injector, retries/breaker on, stale serving allowed.
    let clock = ManualClock::new();
    let chaos = Arc::new(ChaosTransport::new(
        Arc::new(Local::new()),
        ChaosConfig::uniform(FAULT_RATE),
        RUN_SEED,
    ));
    let mut b = spec.virtual_builder(chaos.clone(), clock.clone());
    b.set_stale_grace(Duration::from_secs(100_000_000));
    b.enable_resilience(ResilienceConfig::no_sleep(), RUN_SEED);
    let vw = b.seal().expect("chaotic workflow seals");
    let recorder = FlightRecorder::new(32);

    let (mut identical, mut typed_errors, mut skipped) = (0usize, 0usize, 0usize);
    for i in 0..CASES {
        let mut ir = generate(case_seed(RUN_SEED, i), &spec);
        // Any correctly-sized slice is a legal LIMIT/OFFSET answer, so
        // strip the modifiers: this smoke wants deterministic comparison,
        // the slice semantics are exp_qa's job.
        ir.limit = None;
        ir.offset = 0;
        let text = ir.render();

        // Queries the fault-free workflow cannot answer (e.g. a generated
        // type error) say nothing about fault handling.
        let Ok(expected) = clean.vw.query(&text) else {
            skipped += 1;
            continue;
        };
        let expected = canonicalize(&expected);

        // Push past the vtable window so the case actually exercises the
        // faulty remote path instead of riding a warm cache.
        clock.advance(Duration::from_secs(601));
        match query_recorded(&recorder, &vw, i, &text) {
            Ok(results) => {
                let got = canonicalize(&results);
                if got != expected {
                    panic!(
                        "case {i}: partial or drifted result escaped under faults: {}\n{text}\n{}",
                        diff(&got, &expected).unwrap_or_default(),
                        dump_flight_tape(&recorder)
                    );
                }
                identical += 1;
            }
            Err(CoreError::Unavailable { .. } | CoreError::Source(_) | CoreError::Timeout(_)) => {
                typed_errors += 1;
            }
            Err(other) => panic!(
                "case {i}: untyped failure escaped: {other}\n{text}\n{}",
                dump_flight_tape(&recorder)
            ),
        }
    }

    assert_eq!(identical + typed_errors + skipped, CASES as usize);
    let injected = chaos.injected();
    println!("{identical} identical, {typed_errors} typed, {skipped} skipped; {injected:?}");
    // A run that injected nothing proved nothing about fault handling.
    assert!(injected.total() > 0, "no fault was injected: {injected:?}");
    // At a 10% fault rate with retries, the overwhelming outcome must be a
    // complete answer; if everything errored the resilience layer is off.
    assert!(
        identical >= (CASES as usize) / 2,
        "only {identical}/{CASES} cases produced complete answers (typed errors: {typed_errors}, skipped: {skipped})"
    );
}
