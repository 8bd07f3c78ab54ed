//! The listener, worker pool, lifecycle state machine, and request
//! router.
//!
//! A server moves through three lifecycle states:
//!
//! ```text
//! Running ──begin_shutdown()──▶ Draining ──workers joined──▶ Stopped
//! ```
//!
//! *Running* accepts and serves. *Draining* stops accepting, answers
//! `/readyz` with 503 (so load balancers stop routing here while
//! `/healthz` still says the process is alive), stamps `Connection:
//! close` on every in-flight keep-alive response, and waits up to
//! [`HttpConfig::drain_deadline`](crate::HttpConfig) for workers to
//! finish naturally. Stragglers past the deadline are aborted
//! cooperatively: their queries' cancel tokens are set and their sockets
//! shut down, which unblocks any pending read or write. Only then does
//! the server join its threads and reach *Stopped*.

use crate::chaos::{ChaosListener, ChaosStream};
use crate::request::{read_request, Method, Request, RequestError};
use crate::response::{write_chunked_head, write_response, ChunkedWriter};
use crate::HttpConfig;
use applab_core::CoreError;
use applab_service::{ApplabService, QueryRequest};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LIFECYCLE_RUNNING: u8 = 0;
const LIFECYCLE_DRAINING: u8 = 1;
const LIFECYCLE_STOPPED: u8 = 2;

/// How often the nonblocking acceptor and the drain loop poll. Small
/// enough that shutdown latency is dominated by real work, large enough
/// that an idle acceptor costs ~nothing.
const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// A bounded handoff queue from the acceptor to the worker threads.
/// `push` never blocks (full → the acceptor sheds the connection with a
/// 503); `pop` blocks until a connection arrives or the queue closes.
struct ConnQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    conns: VecDeque<ChaosStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Hand a connection to the workers; a full or closed queue returns
    /// it to the caller so the acceptor can shed it politely.
    fn push(&self, conn: ChaosStream) -> Result<(), ChaosStream> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed || state.conns.len() >= self.cap {
            return Err(conn);
        }
        state.conns.push_back(conn);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self) -> Option<ChaosStream> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(conn) = state.conns.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("queue lock");
        }
    }

    /// Close the queue and hand back any connections no worker will ever
    /// serve, so shutdown can shed them politely instead of silently.
    fn close_and_drain(&self) -> Vec<ChaosStream> {
        let mut state = self.state.lock().expect("queue lock");
        state.closed = true;
        let leftover = state.conns.drain(..).collect();
        drop(state);
        self.ready.notify_all();
        leftover
    }
}

/// State shared by the acceptor, the workers, and the shutdown path.
struct Shared {
    lifecycle: AtomicU8,
    registry: ConnRegistry,
}

impl Shared {
    fn lifecycle(&self) -> u8 {
        self.lifecycle.load(Ordering::Acquire)
    }
}

/// Every live connection registers an abort handle — a raw socket clone
/// plus the connection's cancel token — so the drain deadline can
/// cooperatively stop stragglers: set the token (the running query
/// aborts at its next budget poll) and shut the socket down (any blocked
/// read or write returns immediately).
#[derive(Default)]
struct ConnRegistry {
    next_id: AtomicU64,
    entries: Mutex<HashMap<u64, AbortHandle>>,
}

struct AbortHandle {
    socket: TcpStream,
    cancel: Arc<AtomicBool>,
}

impl ConnRegistry {
    /// Register a live connection; the guard deregisters on drop. `None`
    /// (socket clone failed) serves the connection unabortable rather
    /// than not at all.
    fn register(&self, conn: &ChaosStream, cancel: Arc<AtomicBool>) -> Option<ConnGuard<'_>> {
        let socket = conn.shutdown_handle().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.entries
            .lock()
            .expect("registry lock")
            .insert(id, AbortHandle { socket, cancel });
        Some(ConnGuard { registry: self, id })
    }

    /// Abort every registered connection; returns how many were hit.
    fn abort_all(&self) -> usize {
        let entries = self.entries.lock().expect("registry lock");
        for handle in entries.values() {
            handle.cancel.store(true, Ordering::Relaxed);
            let _ = handle.socket.shutdown(Shutdown::Both);
        }
        entries.len()
    }
}

struct ConnGuard<'a> {
    registry: &'a ConnRegistry,
    id: u64,
}

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.registry
            .entries
            .lock()
            .expect("registry lock")
            .remove(&self.id);
    }
}

/// A running wire-plane instance: an acceptor thread plus a fixed worker
/// pool, each worker owning one connection at a time through its whole
/// keep-alive lifetime. Dropping the handle (or calling
/// [`HttpServer::shutdown`]) walks the drain lifecycle described in the
/// module docs; [`HttpServer::begin_shutdown`] starts it without
/// blocking, for rolling-restart orchestration.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    queue: Arc<ConnQueue>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    drain_deadline: Duration,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `service` with `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<ApplabService>,
        config: HttpConfig,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        // A nonblocking listener lets the acceptor poll its lifecycle
        // flag between accepts: shutdown needs no self-connect trick and
        // cannot race with (or be absorbed by) a real client connecting.
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            lifecycle: AtomicU8::new(LIFECYCLE_RUNNING),
            registry: ConnRegistry::default(),
        });
        let queue = Arc::new(ConnQueue::new(config.max_queued_connections));
        let drain_deadline = config.drain_deadline;
        let config = Arc::new(config);
        applab_obs::gauge!("applab_http_ready").set(1);

        let workers = (0..config.workers.max(1))
            .map(|_| {
                let queue = Arc::clone(&queue);
                let service = Arc::clone(&service);
                let config = Arc::clone(&config);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while let Some(conn) = queue.pop() {
                        // A panic while serving one connection must not
                        // shrink the pool: the socket drops (closing the
                        // connection), the panic is counted, and this
                        // worker moves on to the next connection.
                        let served = catch_unwind(AssertUnwindSafe(|| {
                            handle_connection(conn, &service, &config, &shared)
                        }));
                        if served.is_err() {
                            applab_obs::counter!("applab_http_worker_panics_total").inc();
                        }
                    }
                })
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let queue = Arc::clone(&queue);
            let chaos = config.chaos.clone().map(ChaosListener::new);
            std::thread::spawn(move || {
                while shared.lifecycle() == LIFECYCLE_RUNNING {
                    let conn = match listener.accept() {
                        Ok((conn, _)) => conn,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(POLL_INTERVAL);
                            continue;
                        }
                        // Transient accept errors (EMFILE, aborted
                        // handshake): back off briefly and keep serving.
                        Err(_) => {
                            std::thread::sleep(POLL_INTERVAL);
                            continue;
                        }
                    };
                    // Accepted sockets inherit nonblocking from the
                    // listener on some platforms; workers need blocking
                    // IO with timeouts.
                    if conn.set_nonblocking(false).is_err() {
                        continue;
                    }
                    applab_obs::counter!("applab_http_connections_total").inc();
                    let stream = match &chaos {
                        Some(listener) => listener.wrap(conn),
                        None => ChaosStream::passthrough(conn),
                    };
                    if let Err(mut shed) = queue.push(stream) {
                        // The worker pool is saturated and the handoff
                        // queue full: shed at the door with a retryable
                        // status rather than letting the backlog grow.
                        // Best-effort and bounded — the acceptor must
                        // never block on a slow shed client.
                        applab_obs::counter!("applab_http_connections_shed_total").inc();
                        let _ = shed.set_write_timeout(Some(Duration::from_millis(100)));
                        let body = error_body("overloaded", 503, "connection queue full");
                        let _ = write_response(
                            &mut shed,
                            503,
                            "application/json",
                            &[("Retry-After", "1")],
                            body.as_bytes(),
                            false,
                            false,
                        );
                    }
                }
            })
        };

        Ok(HttpServer {
            addr,
            shared,
            queue,
            acceptor: Some(acceptor),
            workers,
            drain_deadline,
        })
    }

    /// The bound socket address (the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Flip the server into *Draining* without blocking: `/readyz`
    /// starts answering 503, the acceptor stops taking connections, and
    /// in-flight keep-alive responses carry `Connection: close`. Idempotent;
    /// call it from a signal handler, then [`HttpServer::shutdown`] to
    /// finish the drain.
    pub fn begin_shutdown(&self) {
        if self
            .shared
            .lifecycle
            .compare_exchange(
                LIFECYCLE_RUNNING,
                LIFECYCLE_DRAINING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
        {
            applab_obs::gauge!("applab_http_ready").set(0);
        }
    }

    /// Stop accepting, drain in-flight connections within the configured
    /// deadline (aborting stragglers), join every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.begin_shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Accepted-but-unserved connections get a polite close-marked
        // 503 instead of a silent FIN.
        for mut conn in self.queue.close_and_drain() {
            let _ = conn.set_write_timeout(Some(Duration::from_millis(100)));
            let body = error_body("draining", 503, "server is shutting down");
            let _ = write_response(
                &mut conn,
                503,
                "application/json",
                &[("Retry-After", "1")],
                body.as_bytes(),
                false,
                false,
            );
        }
        // Drain: wait for workers to finish their connections naturally,
        // then abort whoever is still going when the deadline lapses.
        let deadline = Instant::now() + self.drain_deadline;
        while !self.workers.iter().all(JoinHandle::is_finished) && Instant::now() < deadline {
            std::thread::sleep(POLL_INTERVAL);
        }
        if !self.workers.iter().all(JoinHandle::is_finished) {
            let aborted = self.shared.registry.abort_all();
            applab_obs::counter!("applab_http_drain_aborts_total").add(aborted as u64);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared
            .lifecycle
            .store(LIFECYCLE_STOPPED, Ordering::Release);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// RAII guard for the active-connections gauge.
struct ActiveConn;

impl ActiveConn {
    fn begin() -> Self {
        applab_obs::gauge!("applab_http_active_connections").add(1);
        ActiveConn
    }
}

impl Drop for ActiveConn {
    fn drop(&mut self) {
        applab_obs::gauge!("applab_http_active_connections").add(-1);
    }
}

fn handle_connection(
    conn: ChaosStream,
    service: &ApplabService,
    config: &HttpConfig,
    shared: &Shared,
) {
    let _active = ActiveConn::begin();
    let peer = conn
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    if conn
        .set_read_timeout(Some(config.keep_alive_timeout))
        .is_err()
        || conn.set_write_timeout(Some(config.write_deadline)).is_err()
        || conn.set_nodelay(true).is_err()
    {
        return;
    }
    // One cancel token per connection: a client disconnect detected on a
    // failed response write, or the drain-deadline abort, stops the
    // query evaluating on this connection at its next budget poll.
    let cancel = Arc::new(AtomicBool::new(false));
    let _guard = shared.registry.register(&conn, Arc::clone(&cancel));
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(conn);

    loop {
        match read_request(&mut reader, config) {
            Ok(None) => break, // clean close or idle timeout
            Ok(Some(request)) => {
                // During drain every response carries `Connection:
                // close`, so keep-alive clients converge to zero without
                // any being cut mid-request.
                let keep_alive = request.keep_alive() && shared.lifecycle() == LIFECYCLE_RUNNING;
                match respond(
                    &request,
                    service,
                    config,
                    &peer,
                    keep_alive,
                    &cancel,
                    shared,
                    &mut writer,
                ) {
                    Ok(()) if keep_alive => continue,
                    _ => break,
                }
            }
            Err(RequestError::ConnectionLost) => break,
            Err(error) => {
                // Parse-level failure: answer with the typed status and
                // close — request framing can no longer be trusted.
                record_request("parse_error", error.status(), Instant::now());
                let body = error_body(error.code(), error.status(), &error.to_string());
                let extra: &[(&str, &str)] = match &error {
                    RequestError::MethodNotAllowed(_) => &[("Allow", "GET, HEAD, POST")],
                    _ => &[],
                };
                let _ = write_response(
                    &mut writer,
                    error.status(),
                    "application/json",
                    extra,
                    body.as_bytes(),
                    false,
                    false,
                );
                break;
            }
        }
    }
}

/// Route one parsed request and write its response. An `Err` means the
/// socket died mid-response; the connection is abandoned.
#[allow(clippy::too_many_arguments)]
fn respond<W: Write>(
    request: &Request,
    service: &ApplabService,
    config: &HttpConfig,
    peer: &str,
    keep_alive: bool,
    cancel: &Arc<AtomicBool>,
    shared: &Shared,
    w: &mut W,
) -> io::Result<()> {
    let started = Instant::now();
    let head_only = request.method == Method::Head;
    match (request.path.as_str(), request.method) {
        ("/healthz", Method::Get | Method::Head) => {
            record_request("/healthz", 200, started);
            write_response(
                w,
                200,
                "text/plain; charset=utf-8",
                &[],
                b"ok\n",
                keep_alive,
                head_only,
            )
        }
        ("/readyz", Method::Get | Method::Head) => {
            // Readiness is lifecycle-gated, liveness (`/healthz`) is
            // not: a draining server is alive but must get no new work.
            if shared.lifecycle() == LIFECYCLE_RUNNING {
                record_request("/readyz", 200, started);
                write_response(
                    w,
                    200,
                    "text/plain; charset=utf-8",
                    &[],
                    b"ready\n",
                    keep_alive,
                    head_only,
                )
            } else {
                record_request("/readyz", 503, started);
                let body = error_body("draining", 503, "server is draining");
                write_response(
                    w,
                    503,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    false,
                    head_only,
                )
            }
        }
        ("/metrics", Method::Get | Method::Head) => {
            let text = applab_obs::global().to_prometheus();
            record_request("/metrics", 200, started);
            write_response(
                w,
                200,
                // The Prometheus text exposition format content type.
                "text/plain; version=0.0.4; charset=utf-8",
                &[],
                text.as_bytes(),
                keep_alive,
                head_only,
            )
        }
        ("/healthz" | "/readyz" | "/metrics", Method::Post) => {
            record_request(request.path.as_str(), 405, started);
            let body = error_body("method_not_allowed", 405, "use GET");
            write_response(
                w,
                405,
                "application/json",
                &[("Allow", "GET, HEAD")],
                body.as_bytes(),
                keep_alive,
                false,
            )
        }
        (path, _) if path == "/sparql" || path.starts_with("/sparql/") => serve_sparql(
            request, service, config, peer, keep_alive, cancel, started, w,
        ),
        _ => {
            record_request("other", 404, started);
            let body = error_body("not_found", 404, &format!("no route for {}", request.path));
            write_response(
                w,
                404,
                "application/json",
                &[],
                body.as_bytes(),
                keep_alive,
                false,
            )
        }
    }
}

/// The W3C SPARQL Protocol endpoint: query via URL-encoded `GET`,
/// form-encoded `POST`, or direct `application/sparql-query` `POST`;
/// responses are W3C SPARQL Results JSON, streamed chunked when large.
///
/// The response is delivered through
/// [`ApplabService::query_delivering`], inside the query's admission
/// permit: a write failure (broken, closed, or deadline-tripping socket)
/// cancels the query server-side and surfaces as a `cancelled` outcome
/// instead of a completed answer nobody read.
#[allow(clippy::too_many_arguments)]
fn serve_sparql<W: Write>(
    request: &Request,
    service: &ApplabService,
    config: &HttpConfig,
    peer: &str,
    keep_alive: bool,
    cancel: &Arc<AtomicBool>,
    started: Instant,
    w: &mut W,
) -> io::Result<()> {
    let fail = |status: u16, code: &str, message: &str, w: &mut W| -> io::Result<()> {
        record_request("/sparql", status, started);
        let body = error_body(code, status, message);
        write_response(
            w,
            status,
            "application/json",
            &[],
            body.as_bytes(),
            keep_alive,
            false,
        )
    };

    // Resolve the target endpoint: `/sparql/{name}`, else the configured
    // default, else the first registered endpoint.
    let names = service.endpoint_names();
    let endpoint = match request.path.strip_prefix("/sparql/") {
        Some(name) if !name.is_empty() => name.to_string(),
        _ => match &config.default_endpoint {
            Some(name) => name.clone(),
            None => match names.first() {
                Some(name) => name.to_string(),
                None => return fail(503, "no_endpoints", "no endpoints are registered", w),
            },
        },
    };
    if !names.iter().any(|n| *n == endpoint) {
        return fail(
            404,
            "unknown_endpoint",
            &format!("unknown endpoint '{endpoint}'"),
            w,
        );
    }

    // Extract the query text per protocol binding.
    let mut form: Vec<(String, String)> = Vec::new();
    let query_text = match request.method {
        Method::Get => match request.query_param("query") {
            Some(q) => q.to_string(),
            None => return fail(400, "missing_query", "GET needs a ?query= parameter", w),
        },
        Method::Post => {
            let Ok(body) = std::str::from_utf8(&request.body) else {
                return fail(400, "bad_request", "request body is not UTF-8", w);
            };
            match request.content_type().as_deref() {
                Some("application/x-www-form-urlencoded") => {
                    match crate::request::parse_form(body) {
                        Ok(pairs) => form = pairs,
                        Err(m) => return fail(400, "bad_request", &format!("bad form body: {m}"), w),
                    }
                    match form.iter().find(|(k, _)| k == "query") {
                        Some((_, q)) => q.clone(),
                        None => {
                            return fail(400, "missing_query", "form body without query=", w)
                        }
                    }
                }
                Some("application/sparql-query") => body.to_string(),
                other => {
                    return fail(
                        415,
                        "unsupported_media_type",
                        &format!(
                            "POST /sparql takes application/sparql-query or application/x-www-form-urlencoded, got {}",
                            other.unwrap_or("nothing")
                        ),
                        w,
                    )
                }
            }
        }
        Method::Head => {
            record_request("/sparql", 405, started);
            let body = error_body("method_not_allowed", 405, "use GET or POST");
            return write_response(
                w,
                405,
                "application/json",
                &[("Allow", "GET, POST")],
                body.as_bytes(),
                keep_alive,
                false,
            );
        }
    };

    // Optional per-request deadline: `timeout` in milliseconds, from the
    // query string or the form body.
    let timeout_param = request.query_param("timeout").or_else(|| {
        form.iter()
            .find(|(k, _)| k == "timeout")
            .map(|(_, v)| v.as_str())
    });
    let mut query_request = QueryRequest::new()
        .client_tag(peer)
        .cancel_token(Arc::clone(cancel));
    if let Some(raw) = timeout_param {
        match raw.parse::<u64>() {
            Ok(ms) => query_request = query_request.deadline(Duration::from_millis(ms)),
            Err(_) => return fail(400, "bad_request", &format!("bad timeout {raw:?}"), w),
        }
    }

    // Serve and deliver inside the admission permit. `head_written`
    // splits the two meanings of a delivery failure: before the head,
    // the wire is still clean and a typed error can follow; after it,
    // the response is torn and the connection must be abandoned.
    let head_written = Cell::new(false);
    let outcome = service.query_delivering(&endpoint, &query_text, &query_request, |results| {
        if results.json_size_estimate() >= applab_sparql::JSON_FLUSH_BYTES as u64 {
            // Large result: stream it chunked straight off the
            // serializer's flush windows — the document never exists
            // in one allocation on the server.
            write_chunked_head(w, 200, "application/sparql-results+json", keep_alive)?;
            head_written.set(true);
            let mut chunked = ChunkedWriter::new(w);
            results.write_json(&mut chunked)?;
            chunked.finish()
        } else {
            // Small result: one materialization buys exact
            // fixed-length framing.
            let body = results.to_json();
            head_written.set(true);
            write_response(
                w,
                200,
                "application/sparql-results+json",
                &[],
                body.as_bytes(),
                keep_alive,
                false,
            )?;
            Ok(body.len() as u64)
        }
    });

    match &outcome.result {
        Ok(_) => {
            applab_obs::counter!("applab_http_response_bytes_total")
                .add(outcome.delivered_bytes.unwrap_or(0));
            record_request("/sparql", 200, started);
            Ok(())
        }
        Err(CoreError::Cancelled) if head_written.get() => {
            // The 200 head is already on the wire and the write path
            // failed: the client is gone (or too stalled to save).
            // Nothing valid can follow a torn response — record the
            // disconnect and abandon the connection. 499 is the
            // conventional "client closed request" status; it is only a
            // metrics label here, never sent.
            applab_obs::counter!("applab_http_client_disconnects_total").inc();
            record_request("/sparql", 499, started);
            Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "client disconnected mid-response",
            ))
        }
        Err(error) => {
            let status = error.http_status();
            record_request("/sparql", status, started);
            let body = error_body(error.code(), status, &error.to_string());
            // Overload rejections tell the client when to come back:
            // the service computes Retry-After from its smoothed queue
            // delay.
            let retry_secs = match error {
                CoreError::Overloaded { retry_after, .. } => {
                    Some(retry_after.as_secs().max(1).to_string())
                }
                _ => None,
            };
            let mut extra: Vec<(&str, &str)> = Vec::new();
            if let Some(secs) = &retry_secs {
                extra.push(("Retry-After", secs));
            }
            write_response(
                w,
                status,
                "application/json",
                &extra,
                body.as_bytes(),
                keep_alive,
                false,
            )
        }
    }
}

/// Per-request wire metrics: a `{route,status}` counter and the
/// end-to-end service-time histogram (parse excluded, response framing
/// included).
fn record_request(route: &str, status: u16, started: Instant) {
    applab_obs::global()
        .counter_with(
            "applab_http_requests_total",
            &[("route", route), ("status", status_label(status))],
        )
        .inc();
    applab_obs::global()
        .histogram_with(
            "applab_http_request_seconds",
            &[("route", route)],
            REQUEST_SECONDS_BUCKETS,
        )
        .observe(started.elapsed().as_secs_f64());
}

/// 50µs – 5s: wire requests include serialization but not WAN delivery.
const REQUEST_SECONDS_BUCKETS: &[f64] = &[
    0.00005, 0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
];

fn status_label(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        411 => "411",
        413 => "413",
        415 => "415",
        431 => "431",
        499 => "499",
        500 => "500",
        502 => "502",
        503 => "503",
        504 => "504",
        505 => "505",
        _ => "other",
    }
}

/// The typed JSON error body:
/// `{"error":{"code":"parse","status":400,"message":"..."}}`.
pub fn error_body(code: &str, status: u16, message: &str) -> String {
    let mut out = String::with_capacity(64 + message.len());
    out.push_str("{\"error\":{\"code\":");
    applab_obs::json::push_string(&mut out, code);
    out.push_str(",\"status\":");
    out.push_str(&status.to_string());
    out.push_str(",\"message\":");
    applab_obs::json::push_string(&mut out, message);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_bodies_are_valid_results_style_json() {
        let body = error_body("parse", 400, "bad \"query\"\nline 2");
        assert_eq!(
            body,
            "{\"error\":{\"code\":\"parse\",\"status\":400,\"message\":\"bad \\\"query\\\"\\nline 2\"}}"
        );
    }

    #[test]
    fn conn_queue_sheds_beyond_capacity_and_closes() {
        let queue = ConnQueue::new(1);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let c1 = ChaosStream::passthrough(TcpStream::connect(addr).unwrap());
        let c2 = ChaosStream::passthrough(TcpStream::connect(addr).unwrap());
        assert!(queue.push(c1).is_ok());
        assert!(queue.push(c2).is_err(), "beyond cap is shed");
        assert!(queue.pop().is_some());
        assert!(queue.close_and_drain().is_empty(), "already drained");
        assert!(queue.pop().is_none(), "closed and drained");
        let c3 = ChaosStream::passthrough(TcpStream::connect(addr).unwrap());
        assert!(queue.push(c3).is_err(), "closed queue refuses connections");
    }

    #[test]
    fn close_and_drain_returns_unserved_connections() {
        let queue = ConnQueue::new(4);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        for _ in 0..3 {
            queue
                .push(ChaosStream::passthrough(TcpStream::connect(addr).unwrap()))
                .unwrap();
        }
        assert_eq!(queue.close_and_drain().len(), 3);
    }

    #[test]
    fn registry_aborts_every_live_connection() {
        let registry = ConnRegistry::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = ChaosStream::passthrough(TcpStream::connect(addr).unwrap());
        let cancel = Arc::new(AtomicBool::new(false));
        let guard = registry.register(&conn, Arc::clone(&cancel)).unwrap();
        assert_eq!(registry.abort_all(), 1);
        assert!(cancel.load(Ordering::Relaxed), "abort sets the token");
        drop(guard);
        assert_eq!(registry.abort_all(), 0, "deregistered on drop");
    }
}
