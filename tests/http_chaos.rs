//! Wire-plane chaos: the SPARQL Protocol endpoint driven through a
//! [`ChaosListener`](copernicus_app_lab::http::ChaosListener) injecting
//! socket-level faults — mid-response resets, read/write stalls,
//! slowloris header drip, partial writes, early-byte corruption — plus
//! real-client hostility (disconnects mid-stream, stalled readers, true
//! slowloris) and lifecycle stress (graceful drain, shutdown races,
//! worker panics).
//!
//! The wire-level contract under fault injection is a strict trichotomy:
//! every request ends as
//!
//! 1. a complete, valid response byte-identical to the fault-free
//!    answer,
//! 2. a typed JSON error body at its mapped status, or
//! 3. a clean connection error (reset / EOF / broken pipe),
//!
//! never a hung connection, a corrupt chunked frame, a leaked admission
//! permit, or a stuck worker. Fault scheduling is deterministic in
//! accept order, so replaying a pass with the same seed yields the same
//! outcome sequence. Set `CHAOS_SEED=<n>` to pin one seed (the CI matrix
//! does), otherwise three defaults run. A violation dumps the service
//! flight recorder to `qa/failing/` for replay.

use applab_qa::geographica_queries;
use applab_qa::httpload::{percent_encode, HttpClient, HttpResponse};
use copernicus_app_lab::core::{CoreError, Explain, MaterializedWorkflow, QueryEndpoint};
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::http::{HttpConfig, HttpServer, SocketChaos};
use copernicus_app_lab::obs::FlightRecorder;
use copernicus_app_lab::service::{ApplabService, ServiceConfig};
use copernicus_app_lab::sparql::{EvalOptions, QueryResults, JSON_FLUSH_BYTES};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A cross join big enough that its response can never fit in the kernel
/// socket buffers of a non-reading client (tcp_wmem autotunes to ~4 MiB;
/// this answer is ~13 MiB) — the lever the disconnect and stalled-reader
/// tests use to force a write-path stall.
const CROSS_JOIN: &str =
    "SELECT ?a ?b WHERE { ?a geo:hasGeometry ?ga . ?b geo:hasGeometry ?gb } LIMIT 100000";

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0xC0FFEE, 11, 29],
    }
}

/// An endpoint that panics on every query: the worker-isolation tests
/// route `/sparql/boom` here to simulate a bug escaping the query plane.
struct PanicEndpoint;

impl QueryEndpoint for PanicEndpoint {
    fn query_with(&self, _sparql: &str, _opts: &EvalOptions) -> Result<QueryResults, CoreError> {
        panic!("simulated worker bug (PanicEndpoint)");
    }

    fn query_explained(&self, _sparql: &str) -> Result<Explain, CoreError> {
        unimplemented!("not used by the chaos tests")
    }

    fn backend(&self) -> &'static str {
        "panic"
    }
}

/// One shared flight recorder across every server this harness binds, so
/// a failing pass dumps the requests that led up to it.
fn flight_recorder() -> Arc<FlightRecorder> {
    static RECORDER: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    Arc::clone(RECORDER.get_or_init(|| Arc::new(FlightRecorder::new(64))))
}

/// Write the flight tape next to the QA failure artifacts and return the
/// path for the panic message. Called only on a trichotomy violation.
fn dump_flight_tape() -> String {
    let path = PathBuf::from("qa/failing/http_chaos_flight.jsonl");
    match flight_recorder().dump_to_file(&path) {
        Ok(()) => format!("flight tape: {}", path.display()),
        Err(e) => format!("flight tape dump failed: {e}"),
    }
}

/// One service shared by every test: the Paris fixture materialized
/// behind `store`, plus the panicking `boom` endpoint.
fn harness_service() -> Arc<ApplabService> {
    static SERVICE: OnceLock<Arc<ApplabService>> = OnceLock::new();
    Arc::clone(SERVICE.get_or_init(|| {
        let fixture = ParisFixture::generate(5, 12, 8);
        let mut mat = MaterializedWorkflow::new();
        for (table, doc) in fixture.world.tables() {
            mat.load_table(&table, doc).unwrap();
        }
        Arc::new(
            ApplabService::new(ServiceConfig {
                max_in_flight: 4,
                max_queue: 64,
                queue_timeout: Duration::from_secs(60),
                ..ServiceConfig::default()
            })
            .with_endpoint("store", Arc::new(mat))
            .with_endpoint("boom", Arc::new(PanicEndpoint))
            .with_flight_recorder(flight_recorder()),
        )
    }))
}

fn reference_json(sparql: &str) -> String {
    harness_service()
        .query("store", sparql)
        .result
        .expect("fault-free reference query succeeds")
        .to_json()
}

// Resolve through the registry each call: the `counter!` macro caches
// its handle per *call site*, which would pin this helper to whichever
// name it saw first.
fn counter(name: &'static str) -> u64 {
    copernicus_app_lab::obs::global().counter(name).get()
}

fn cancelled_outcomes() -> u64 {
    copernicus_app_lab::obs::global()
        .counter_with(
            "applab_service_outcomes_total",
            &[("endpoint", "store"), ("code", "cancelled")],
        )
        .get()
}

/// Tests in this binary share one service (its admission permits), one
/// global metrics registry, and the kernel's socket buffers; in parallel
/// the counter-delta and permit-leak assertions would race each other.
/// Every test takes this lock first, serializing the suite.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

fn bind(config: HttpConfig) -> HttpServer {
    HttpServer::bind("127.0.0.1:0", harness_service(), config).expect("bind chaos server")
}

// ---------------------------------------------------------------------
// The trichotomy under injected socket faults.
// ---------------------------------------------------------------------

/// One request target plus its fault-free 200 body; `None` means the
/// fault-free answer is already a typed error (the malformed query).
struct Job {
    name: &'static str,
    target: String,
    expect_200: Option<String>,
}

/// The request mix: liveness/readiness probes, small (fixed-length) and
/// large (chunked) query answers, and a malformed query.
fn jobs() -> Vec<Job> {
    let queries = geographica_queries();
    let mut sized: Vec<(usize, String)> = queries
        .iter()
        .map(|(_, q)| (reference_json(q).len(), q.clone()))
        .collect();
    sized.sort_by_key(|(len, _)| *len);
    let small = sized.first().unwrap().1.clone();
    let (large_len, large) = sized.last().unwrap().clone();
    assert!(
        large_len >= JSON_FLUSH_BYTES,
        "the mix must exercise chunked framing"
    );
    let query_job = |name, sparql: &str| Job {
        name,
        target: format!("/sparql?query={}", percent_encode(sparql)),
        expect_200: Some(reference_json(sparql)),
    };
    vec![
        Job {
            name: "healthz",
            target: "/healthz".into(),
            expect_200: Some("ok\n".into()),
        },
        Job {
            name: "readyz",
            target: "/readyz".into(),
            expect_200: Some("ready\n".into()),
        },
        query_job("small_query", &small),
        query_job("large_query", &large),
        query_job("mid_query", &queries[2].1),
        query_job("agg_query", &queries[6].1),
        Job {
            name: "malformed",
            target: format!("/sparql?query={}", percent_encode("SELECT WHERE {{{ nope")),
            expect_200: None,
        },
    ]
}

/// Enforce the wire trichotomy for one exchange and reduce it to a
/// comparable label. Panics (with a flight-tape dump) on any violation:
/// drifted 200 body, untyped error body, corrupt framing, or a hang.
fn classify(job: &Job, result: io::Result<HttpResponse>) -> String {
    match result {
        Ok(resp) if resp.status == 200 => {
            let expected = job.expect_200.as_deref().unwrap_or_else(|| {
                panic!(
                    "{}: fault injection turned an invalid request into a 200; {}",
                    job.name,
                    dump_flight_tape()
                )
            });
            if resp.text() != expected {
                panic!(
                    "{}: 200 body drifted under fault injection ({} vs {} bytes); {}",
                    job.name,
                    resp.body.len(),
                    expected.len(),
                    dump_flight_tape()
                );
            }
            "ok".to_string()
        }
        Ok(resp) => {
            let body = resp.text();
            let typed = resp.header("content-type") == Some("application/json")
                && body.contains("\"error\"")
                && body.contains(&format!("\"status\":{}", resp.status));
            if !typed {
                panic!(
                    "{}: untyped {} response escaped: {body:?}; {}",
                    job.name,
                    resp.status,
                    dump_flight_tape()
                );
            }
            format!("typed:{}", resp.status)
        }
        Err(e) => match e.kind() {
            io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe => "conn".to_string(),
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => panic!(
                "{}: connection hung past the client deadline; {}",
                job.name,
                dump_flight_tape()
            ),
            io::ErrorKind::InvalidData => panic!(
                "{}: corrupt response framing escaped: {e}; {}",
                job.name,
                dump_flight_tape()
            ),
            _ => panic!(
                "{}: unexpected transport error {e:?}; {}",
                job.name,
                dump_flight_tape()
            ),
        },
    }
}

/// One serial pass: every job twice, one fresh connection per request
/// (fault plans are drawn per accepted connection, so serial connects
/// make the schedule — and therefore the outcome sequence — replayable).
fn run_wire_pass(seed: u64, rate: f64, jobs: &[Job]) -> Vec<String> {
    let server = bind(HttpConfig {
        workers: 2,
        keep_alive_timeout: Duration::from_millis(400),
        write_deadline: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(2),
        chaos: Some(SocketChaos::uniform(rate, seed)),
        ..HttpConfig::default()
    });
    let addr = server.local_addr();
    let mut outcomes = Vec::new();
    for _round in 0..2 {
        for job in jobs {
            outcomes.push(classify(job, one_request(addr, &job.target)));
        }
    }
    // A reset connection errors on the client before the server-side
    // query finishes unwinding, so give the permit a beat to release.
    let svc = harness_service();
    assert!(
        wait_until(Duration::from_secs(5), || svc.load() == (0, 0)),
        "admission permits leaked under chaos: {:?}",
        svc.load()
    );
    server.shutdown();
    outcomes
}

fn one_request(addr: SocketAddr, target: &str) -> io::Result<HttpResponse> {
    let mut client = HttpClient::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(10)))?;
    client.get(target)
}

#[test]
fn chaos_wire_mix_holds_the_trichotomy_deterministically() {
    let _exclusive = exclusive();
    let jobs = jobs();
    for seed in seeds() {
        for rate in [0.10, 0.30] {
            let first = run_wire_pass(seed, rate, &jobs);
            let second = run_wire_pass(seed, rate, &jobs);
            assert!(
                first.iter().any(|o| o != "ok"),
                "seed {seed} @ {rate}: chaos injected nothing — the suite is vacuous"
            );
            if first != second {
                panic!(
                    "seed {seed} @ {rate}: socket faults must replay deterministically\n\
                     first:  {first:?}\n second: {second:?}\n {}",
                    dump_flight_tape()
                );
            }
        }
    }
}

#[test]
fn concurrent_chaos_holds_the_trichotomy() {
    let _exclusive = exclusive();
    let jobs = jobs();
    let server = bind(HttpConfig {
        workers: 4,
        keep_alive_timeout: Duration::from_millis(400),
        chaos: Some(SocketChaos::uniform(0.30, seeds()[0])),
        ..HttpConfig::default()
    });
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for t in 0..6usize {
            let jobs = &jobs;
            scope.spawn(move || {
                for k in 0..6 {
                    let job = &jobs[(t * 5 + k * 3) % jobs.len()];
                    classify(job, one_request(addr, &job.target));
                }
            });
        }
    });
    assert!(
        wait_until(Duration::from_secs(5), || harness_service().load()
            == (0, 0)),
        "admission permits leaked under concurrent chaos: {:?}",
        harness_service().load()
    );
    server.shutdown();
}

// ---------------------------------------------------------------------
// Graceful drain: /readyz flips first, in-flight work completes.
// ---------------------------------------------------------------------

#[test]
fn graceful_drain_flips_readyz_completes_in_flight_and_joins_fast() {
    let _exclusive = exclusive();
    let server = bind(HttpConfig {
        workers: 4,
        keep_alive_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(5),
        ..HttpConfig::default()
    });
    let addr = server.local_addr();

    // Two established keep-alive connections (probes survive the drain
    // boundary) and one request caught mid-flight: its head and half its
    // body are on the wire when the drain starts.
    let mut probe = HttpClient::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(probe.get("/readyz").unwrap().text(), "ready\n");
    let mut health = HttpClient::connect(addr).unwrap();
    health
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    let mut inflight = TcpStream::connect(addr).unwrap();
    inflight
        .write_all(
            b"POST /sparql HTTP/1.1\r\nHost: t\r\n\
              Content-Type: application/sparql-query\r\nContent-Length: 6\r\n\r\nASK",
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // server is now mid-body-read

    server.begin_shutdown();

    // Readiness flips to 503 while liveness stays 200: a load balancer
    // stops routing here, the orchestrator does not restart the process.
    let ready = probe.get("/readyz").unwrap();
    assert_eq!(ready.status, 503);
    assert!(
        ready.text().contains("\"code\":\"draining\""),
        "{}",
        ready.text()
    );
    assert_eq!(ready.header("connection"), Some("close"));
    let alive = health.get("/healthz").unwrap();
    assert_eq!(alive.status, 200);
    assert_eq!(alive.text(), "ok\n");
    assert_eq!(
        alive.header("connection"),
        Some("close"),
        "drain must retire keep-alive connections"
    );

    // The mid-flight request completes normally, marked `Connection:
    // close` — draining never cuts a request that is already in.
    inflight.write_all(b" {}").unwrap();
    inflight
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut out = Vec::new();
    inflight.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 200 "), "got: {text}");
    assert!(text.contains("Connection: close"), "got: {text}");
    assert!(text.contains("\"boolean\""), "got: {text}");

    // New connections stop being accepted once the acceptor parks.
    assert!(
        wait_until(Duration::from_secs(2), || TcpStream::connect(addr).is_err()),
        "a draining server must stop accepting new connections"
    );

    // Nothing is in flight anymore, so the drain completes naturally —
    // far inside the deadline, with no straggler aborts needed.
    let begun = Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "an idle drain took {:?}",
        begun.elapsed()
    );
}

#[test]
fn shutdown_under_connect_load_never_hangs() {
    let _exclusive = exclusive();
    for _round in 0..6 {
        let server = bind(HttpConfig {
            workers: 2,
            ..HttpConfig::default()
        });
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..3)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // Connections may land before, during, or after
                        // the drain; any outcome is fine — the invariant
                        // under test is that shutdown always completes.
                        match HttpClient::connect(addr) {
                            Ok(mut c) => {
                                let _ = c.set_read_timeout(Some(Duration::from_secs(2)));
                                let _ = c.get("/healthz");
                            }
                            Err(_) => break,
                        }
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(5));
        let begun = Instant::now();
        server.shutdown();
        assert!(
            begun.elapsed() < Duration::from_secs(4),
            "shutdown hung under connect load: {:?}",
            begun.elapsed()
        );
        stop.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join().unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// Hostile clients: disconnects, stalled readers, slowloris.
// ---------------------------------------------------------------------

#[test]
fn client_disconnect_mid_stream_cancels_the_query() {
    let _exclusive = exclusive();
    assert!(
        reference_json(CROSS_JOIN).len() > 8_000_000,
        "the cross join must dwarf the kernel socket buffers for the test to mean anything"
    );
    let server = bind(HttpConfig {
        workers: 2,
        write_deadline: Duration::from_secs(2),
        ..HttpConfig::default()
    });
    let addr = server.local_addr();
    let cancelled_before = cancelled_outcomes();
    let disconnects_before = counter("applab_http_client_disconnects_total");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\n\r\n",
                percent_encode(CROSS_JOIN)
            )
            .as_bytes(),
        )
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Wait for the head so the server is demonstrably mid-delivery, then
    // vanish. The megabytes still to come overwhelm the kernel buffers,
    // the server's write fails, and the query must cancel server-side.
    let mut head = [0u8; 16];
    stream.read_exact(&mut head).unwrap();
    assert!(head.starts_with(b"HTTP/1.1 200"));
    drop(stream);

    assert!(
        wait_until(Duration::from_secs(10), || {
            cancelled_outcomes() > cancelled_before
                && counter("applab_http_client_disconnects_total") > disconnects_before
        }),
        "a mid-stream disconnect must cancel the query and be counted \
         (cancelled {} -> {}, disconnects {} -> {})",
        cancelled_before,
        cancelled_outcomes(),
        disconnects_before,
        counter("applab_http_client_disconnects_total"),
    );
    assert!(
        wait_until(Duration::from_secs(5), || harness_service().load()
            == (0, 0)),
        "the disconnected query must release its permit"
    );
    server.shutdown();
}

#[test]
fn stalled_reader_trips_the_write_deadline_and_frees_the_worker() {
    let _exclusive = exclusive();
    assert!(reference_json(CROSS_JOIN).len() > 8_000_000);
    let server = bind(HttpConfig {
        workers: 2,
        write_deadline: Duration::from_millis(400),
        keep_alive_timeout: Duration::from_secs(2),
        ..HttpConfig::default()
    });
    let addr = server.local_addr();
    let cancelled_before = cancelled_outcomes();
    let disconnects_before = counter("applab_http_client_disconnects_total");

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "GET /sparql?query={} HTTP/1.1\r\nHost: t\r\n\r\n",
                percent_encode(CROSS_JOIN)
            )
            .as_bytes(),
        )
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Read one window's worth, then stall with the connection open: the
    // kernel flow-controls the server, whose per-write deadline must
    // trip, cancel the query, and free the worker.
    let mut first = [0u8; 1024];
    stream.read_exact(&mut first).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || {
            cancelled_outcomes() > cancelled_before
                && counter("applab_http_client_disconnects_total") > disconnects_before
        }),
        "a stalled reader must trip the write deadline into a cancelled outcome\n{}",
        copernicus_app_lab::obs::global()
            .to_prometheus()
            .lines()
            .filter(|l| {
                l.contains("cancel")
                    || l.contains("disconnect")
                    || l.contains("delivery")
                    || l.contains("499")
                    || l.contains("outcomes")
            })
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The worker is free again: a fresh client is served immediately.
    let mut c = HttpClient::connect(addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(c.get("/healthz").unwrap().text(), "ok\n");
    assert!(
        wait_until(Duration::from_secs(5), || harness_service().load()
            == (0, 0)),
        "the stalled query must release its permit"
    );
    drop(stream);
    server.shutdown();
}

#[test]
fn real_slowloris_is_cut_off_with_408() {
    let _exclusive = exclusive();
    let server = bind(HttpConfig {
        workers: 2,
        keep_alive_timeout: Duration::from_millis(300),
        ..HttpConfig::default()
    });
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET /healthz HTT").unwrap(); // head never finishes
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    let text = String::from_utf8_lossy(&out);
    assert!(text.starts_with("HTTP/1.1 408 "), "got: {text}");
    assert!(text.contains("\"code\":\"request_timeout\""), "got: {text}");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Worker panic isolation.
// ---------------------------------------------------------------------

#[test]
fn worker_panics_close_one_connection_and_never_shrink_the_pool() {
    let _exclusive = exclusive();
    let server = bind(HttpConfig {
        workers: 2,
        ..HttpConfig::default()
    });
    let addr = server.local_addr();
    let panics_before = counter("applab_http_worker_panics_total");

    // Two panics — one per worker, were panics to kill threads.
    for _ in 0..2 {
        let mut c = HttpClient::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let err = c
            .get("/sparql/boom?query=ASK%20%7B%7D")
            .expect_err("a panicking endpoint must close the connection, not answer");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err:?}");
    }
    assert!(
        wait_until(Duration::from_secs(5), || {
            counter("applab_http_worker_panics_total") >= panics_before + 2
        }),
        "worker panics must be counted"
    );

    // workers + 1 successful requests prove no worker thread died.
    for _ in 0..3 {
        let mut c = HttpClient::connect(addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(c.get("/healthz").unwrap().text(), "ok\n");
    }
    assert!(
        wait_until(Duration::from_secs(5), || harness_service().load()
            == (0, 0)),
        "a panicked query must still release its permit: {:?}",
        harness_service().load()
    );
    server.shutdown();
}
