//! `applab-service`: a concurrent query-serving layer over sealed,
//! shareable workflow endpoints.
//!
//! The paper's goal is serving Copernicus data to non-EO app developers —
//! many short GeoSPARQL queries against both the Strabon-like store and
//! the Ontop-spatial virtual graphs. [`ApplabService`] owns a set of named
//! [`QueryEndpoint`]s (both workflow facades implement the trait and are
//! `Send + Sync` once sealed) and serves concurrent queries with:
//!
//! * **admission control** — at most `max_in_flight` queries evaluate at
//!   once; a small bounded wait queue absorbs bursts and everything beyond
//!   it is shed as a typed `Overloaded` outcome;
//! * **per-query deadlines** — a cooperative [`Budget`] threaded through
//!   `applab_sparql::eval`, polled at scan/hash-probe/filter boundaries,
//!   so runaway spatial joins abort mid-flight and *never* return
//!   truncated results;
//! * **structured outcomes** — every call returns a [`QueryOutcome`] with
//!   results, queue wait, evaluation time, backend, and a `degraded` flag
//!   (set when part of the answer came from a stale cache copy bridging an
//!   upstream outage), or a typed `Timeout`/`Cancelled`/`Overloaded`/
//!   `Unavailable` rejection with a stable [`CoreError::code`] used as the
//!   metrics label.
//!
//! * **per-query accounting** — every outcome carries a
//!   [`QueryStats`] snapshot (rows scanned, joins, DAP round-trips and
//!   bytes, cache hits, queue wait, ...) collected through the
//!   `applab_obs::querystats` thread-local scope;
//! * **query log + flight recorder** — with
//!   [`ApplabService::with_query_log`] one sampled JSONL record is
//!   emitted per outcome (never blocking the query path), and with
//!   [`ApplabService::with_flight_recorder`] the last N outcomes stay
//!   in an in-memory ring for postmortem dumps.
//!
//! Metrics: `applab_service_in_flight` / `applab_service_queued` gauges,
//! `applab_service_outcomes_total{endpoint,code}` counters, and
//! `applab_service_query_seconds` (total plus a per-`endpoint` series
//! feeding the SLO quantile report) / `applab_service_queue_wait_seconds`
//! histograms.
//!
//! ```no_run
//! use applab_service::{ApplabService, QueryRequest, ServiceConfig};
//! use std::sync::Arc;
//! # fn endpoints() -> (applab_core::MaterializedWorkflow, applab_core::MaterializedWorkflow) { unimplemented!() }
//!
//! let (store_wf, other_wf) = endpoints();
//! let service = ApplabService::new(ServiceConfig::default())
//!     .with_endpoint("store", Arc::new(store_wf))
//!     .with_endpoint("other", Arc::new(other_wf));
//! let outcome = service.query("store", "SELECT ?s WHERE { ?s ?p ?o }");
//! println!("{} in {:?}", outcome.code(), outcome.elapsed);
//! ```
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

mod admission;

use admission::Admission;
use applab_core::{CoreError, QueryEndpoint};
use applab_obs::querylog;
use applab_obs::{FlightRecorder, QueryLog, QueryLogRecord, QueryStats, SpanContext};
use applab_sparql::{Budget, EvalOptions, QueryResults};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`ApplabService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum queries evaluating concurrently (admission permits).
    pub max_in_flight: usize,
    /// Maximum queries allowed to wait for a permit; arrivals beyond this
    /// are rejected immediately with `Overloaded`.
    pub max_queue: usize,
    /// How long a queued query may wait for a permit before it is shed.
    pub queue_timeout: Duration,
    /// Adaptive overload control: when set, arrivals that would have to
    /// queue are shed immediately once the *smoothed* (EWMA) queue wait
    /// exceeds this target — the queue is already slower than tolerable,
    /// so waiting would only produce a slower rejection. `None` (the
    /// default) keeps the fixed permit/queue bounds as the only
    /// admission policy. Rejections carry a computed
    /// [`retry_after`](applab_core::CoreError::Overloaded) either way.
    pub queue_delay_target: Option<Duration>,
    /// Deadline applied to queries that do not carry their own
    /// [`QueryRequest::deadline`]. `None` means unlimited.
    pub default_deadline: Option<Duration>,
    /// Base evaluation options (parallelism knobs); the per-query budget
    /// is layered on top of these.
    pub eval: EvalOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 4,
            max_queue: 16,
            queue_timeout: Duration::from_millis(500),
            queue_delay_target: None,
            default_deadline: None,
            eval: EvalOptions::default(),
        }
    }
}

/// Per-query options a caller may attach, built with the
/// fluent constructors:
///
/// ```
/// use applab_service::QueryRequest;
/// use std::time::Duration;
///
/// let req = QueryRequest::new()
///     .deadline(Duration::from_secs(2))
///     .client_tag("127.0.0.1:4912");
/// assert_eq!(req.deadline, Some(Duration::from_secs(2)));
/// ```
///
/// The struct is `#[non_exhaustive]`: fields read fine, but out-of-crate
/// construction goes through [`QueryRequest::new`] and the builder
/// methods, so wire-layer fields (client address, requested media type,
/// ...) can be added without breaking callers.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct QueryRequest {
    /// Evaluation deadline for this query, overriding
    /// [`ServiceConfig::default_deadline`]. The clock starts when
    /// evaluation starts, after admission: queue wait is bounded
    /// separately by [`ServiceConfig::queue_timeout`].
    pub deadline: Option<Duration>,
    /// External cancellation token; storing `true` aborts the evaluation
    /// at its next budget poll.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Free-form low-cardinality caller identity for traces — the HTTP
    /// layer stores the peer socket address here. Recorded on the
    /// `service.query` span, never used as a metrics label.
    pub client_tag: Option<String>,
}

impl QueryRequest {
    /// A request with every option at its default (no deadline beyond
    /// [`ServiceConfig::default_deadline`], no cancellation, no tag).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the per-query evaluation deadline.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attach an external cancellation token; storing `true` aborts the
    /// evaluation at its next budget poll.
    pub fn cancel_token(mut self, token: Arc<AtomicBool>) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Tag the request with the caller's identity (see
    /// [`QueryRequest::client_tag`]).
    pub fn client_tag(mut self, tag: impl Into<String>) -> Self {
        self.client_tag = Some(tag.into());
        self
    }
}

/// The structured result of one service call.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The endpoint name the query was routed to.
    pub endpoint: String,
    /// The backing engine (`"store"` / `"obda"`), or `"?"` when the
    /// endpoint name did not resolve.
    pub backend: &'static str,
    /// Time spent waiting for an admission permit.
    pub queue_wait: Duration,
    /// Time spent evaluating (zero for rejected queries).
    pub elapsed: Duration,
    /// Whether any part of the answer was served degraded — a stale cache
    /// copy bridging a transient upstream outage. A degraded answer is
    /// complete and well-formed, just possibly out of date. Always `false`
    /// for rejected queries and failures.
    pub degraded: bool,
    /// Per-query resource accounting, captured across the evaluation
    /// (rows scanned, joins, DAP round-trips/bytes, cache hits, ...).
    /// All-zero for queries rejected before evaluation started.
    pub stats: QueryStats,
    /// Bytes the transport wrote while delivering the response *inside*
    /// the admission permit (see [`ApplabService::query_delivering`]).
    /// `None` for plain [`query_with`](ApplabService::query_with) calls
    /// and for queries whose delivery was aborted or never started.
    pub delivered_bytes: Option<u64>,
    /// The results, or the typed rejection/failure.
    pub result: Result<QueryResults, CoreError>,
}

impl QueryOutcome {
    /// `"ok"` for success, otherwise the stable [`CoreError::code`]
    /// (`"timeout"`, `"cancelled"`, `"overloaded"`, ...). Used as the
    /// metrics label for `applab_service_outcomes_total`.
    pub fn code(&self) -> &'static str {
        match &self.result {
            Ok(_) => "ok",
            Err(e) => e.code(),
        }
    }

    /// Whether the query produced results.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The results, when the query succeeded.
    pub fn results(&self) -> Option<&QueryResults> {
        self.result.as_ref().ok()
    }
}

/// A shared, thread-safe query service over named workflow endpoints.
///
/// The service itself takes `&self` everywhere: wrap it in an `Arc` (or
/// use scoped threads) and call [`ApplabService::query`] concurrently.
pub struct ApplabService {
    endpoints: Vec<(String, Arc<dyn QueryEndpoint>)>,
    admission: Admission,
    config: ServiceConfig,
    query_log: Option<Arc<QueryLog>>,
    recorder: Option<Arc<FlightRecorder>>,
    log_seq: AtomicU64,
}

impl ApplabService {
    /// A service with the given configuration and no endpoints yet.
    pub fn new(config: ServiceConfig) -> Self {
        ApplabService {
            endpoints: Vec::new(),
            admission: Admission::new(
                config.max_in_flight,
                config.max_queue,
                config.queue_delay_target,
            ),
            config,
            query_log: None,
            recorder: None,
            log_seq: AtomicU64::new(0),
        }
    }

    /// Register a sealed endpoint under a routing name (builder style).
    pub fn with_endpoint(
        mut self,
        name: impl Into<String>,
        endpoint: Arc<dyn QueryEndpoint>,
    ) -> Self {
        self.register(name, endpoint);
        self
    }

    /// Attach a structured query log: one sampled JSONL record per
    /// outcome (see [`applab_obs::querylog`]). Emission never blocks the
    /// query path.
    pub fn with_query_log(mut self, log: Arc<QueryLog>) -> Self {
        self.query_log = Some(log);
        self
    }

    /// Attach a flight recorder: every outcome (unsampled) lands in the
    /// in-memory ring, ready for a postmortem
    /// [`dump`](FlightRecorder::dump).
    pub fn with_flight_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Register a sealed endpoint under a routing name. A later
    /// registration under the same name replaces the earlier one.
    pub fn register(&mut self, name: impl Into<String>, endpoint: Arc<dyn QueryEndpoint>) {
        let name = name.into();
        if let Some(slot) = self.endpoints.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = endpoint;
        } else {
            self.endpoints.push((name, endpoint));
        }
    }

    /// The registered endpoint names, in registration order.
    pub fn endpoint_names(&self) -> Vec<&str> {
        self.endpoints.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Current `(in_flight, queued)` load snapshot.
    pub fn load(&self) -> (usize, usize) {
        self.admission.load()
    }

    /// Serve one query with the service-wide defaults.
    pub fn query(&self, endpoint: &str, sparql: &str) -> QueryOutcome {
        self.query_with(endpoint, sparql, &QueryRequest::default())
    }

    /// Serve one query with per-query deadline/cancellation options.
    pub fn query_with(&self, endpoint: &str, sparql: &str, request: &QueryRequest) -> QueryOutcome {
        self.serve(
            endpoint,
            sparql,
            request,
            None::<fn(&QueryResults) -> std::io::Result<u64>>,
        )
    }

    /// Serve one query and deliver its response *while still holding the
    /// admission permit*: on success, `deliver` is called with the
    /// results and must write them to the transport, returning the byte
    /// count (recorded as [`QueryOutcome::delivered_bytes`]).
    ///
    /// This is the wire path's cancellation hook. A response that is
    /// delivered outside the permit makes write failures invisible to
    /// the service — the query already "succeeded" and the permit is
    /// gone. Delivering inside the permit means a broken socket surfaces
    /// right here: when `deliver` fails, the request's cancellation
    /// token (if any) is stored so any still-attached evaluation work
    /// stops, the outcome flips to a typed
    /// [`Cancelled`](CoreError::Cancelled) — counted under
    /// `applab_service_outcomes_total{code="cancelled"}` and
    /// `applab_service_delivery_aborted_total` — and the permit is
    /// released only after the transport is done with the results.
    /// [`QueryOutcome::elapsed`] still measures evaluation only; the
    /// delivery time is the transport's to account for.
    pub fn query_delivering<F>(
        &self,
        endpoint: &str,
        sparql: &str,
        request: &QueryRequest,
        deliver: F,
    ) -> QueryOutcome
    where
        F: FnOnce(&QueryResults) -> std::io::Result<u64>,
    {
        self.serve(endpoint, sparql, request, Some(deliver))
    }

    fn serve<F>(
        &self,
        endpoint: &str,
        sparql: &str,
        request: &QueryRequest,
        deliver: Option<F>,
    ) -> QueryOutcome
    where
        F: FnOnce(&QueryResults) -> std::io::Result<u64>,
    {
        let Some((name, ep)) = self.endpoints.iter().find(|(n, _)| n == endpoint) else {
            return self.finish(
                QueryOutcome {
                    endpoint: endpoint.to_string(),
                    backend: "?",
                    queue_wait: Duration::ZERO,
                    elapsed: Duration::ZERO,
                    degraded: false,
                    stats: QueryStats::default(),
                    delivered_bytes: None,
                    result: Err(CoreError::Source(format!("unknown endpoint '{endpoint}'"))),
                },
                sparql,
                None,
            );
        };

        let mut span = applab_obs::span("service.query");
        span.record("endpoint", name.as_str());
        if let Some(tag) = &request.client_tag {
            span.record("client", tag.as_str());
        }

        let queued_at = Instant::now();
        let permit = self.admission.acquire(self.config.queue_timeout);
        let queue_wait = queued_at.elapsed();
        applab_obs::histogram!("applab_service_queue_wait_seconds", WAIT_SECONDS_BUCKETS)
            .observe(queue_wait.as_secs_f64());
        let _permit = match permit {
            Ok(p) => p,
            Err(rejection) => {
                span.record("code", "overloaded");
                let stats = QueryStats {
                    queue_wait_ns: queue_wait.as_nanos() as u64,
                    ..QueryStats::default()
                };
                return self.finish(
                    QueryOutcome {
                        endpoint: name.clone(),
                        backend: ep.backend(),
                        queue_wait,
                        elapsed: Duration::ZERO,
                        degraded: false,
                        stats,
                        delivered_bytes: None,
                        result: Err(CoreError::Overloaded {
                            in_flight: rejection.in_flight,
                            queued: rejection.queued,
                            retry_after: rejection.retry_after,
                        }),
                    },
                    sparql,
                    Some(span.context()),
                );
            }
        };

        // The budget clock starts here, with the permit held: queue wait
        // is governed by queue_timeout, not by the evaluation deadline.
        let mut options = self.config.eval.clone();
        let mut budget = match request.deadline.or(self.config.default_deadline) {
            Some(limit) => Budget::with_deadline(limit),
            None => Budget::unlimited(),
        };
        if let Some(token) = &request.cancel {
            budget = budget.cancelled_by(Arc::clone(token));
        }
        options.budget = budget;

        let started = Instant::now();
        // The accounting scope is thread-local: the evaluator, store, DAP
        // client and caches bump its cell as this query's work runs on
        // this thread, and a stale serve during this evaluation (and only
        // this one) sets its `degraded` flag.
        let accounting = applab_obs::querystats::Scope::begin();
        let result = ep.query_with(sparql, &options);
        let elapsed = started.elapsed();
        let mut stats = accounting.finish();
        // Delivery happens here, with the permit still held, so a broken
        // client surfaces as a typed outcome instead of a silent success
        // whose response nobody read.
        let mut delivered_bytes = None;
        let result = match (result, deliver) {
            (Ok(results), Some(deliver)) => match deliver(&results) {
                Ok(bytes) => {
                    delivered_bytes = Some(bytes);
                    Ok(results)
                }
                Err(_) => {
                    if let Some(token) = &request.cancel {
                        token.store(true, Ordering::Relaxed);
                    }
                    applab_obs::counter!("applab_service_delivery_aborted_total").inc();
                    Err(CoreError::Cancelled)
                }
            },
            (result, _) => result,
        };
        let degraded = result.is_ok() && stats.degraded;
        stats.queue_wait_ns = queue_wait.as_nanos() as u64;
        stats.degraded = degraded;
        applab_obs::histogram!("applab_service_query_seconds", WAIT_SECONDS_BUCKETS)
            .observe(elapsed.as_secs_f64());
        applab_obs::global()
            .histogram_with(
                "applab_service_query_seconds",
                &[("endpoint", name)],
                WAIT_SECONDS_BUCKETS,
            )
            .observe(elapsed.as_secs_f64());
        if degraded {
            applab_obs::global()
                .counter_with("applab_service_degraded_total", &[("endpoint", name)])
                .inc();
        }
        let outcome = QueryOutcome {
            endpoint: name.clone(),
            backend: ep.backend(),
            queue_wait,
            elapsed,
            degraded,
            stats,
            delivered_bytes,
            result,
        };
        span.record("code", outcome.code());
        span.record("degraded", degraded);
        let ctx = span.context();
        self.finish(outcome, sparql, Some(ctx))
    }

    /// Record the outcome counter, emit the query-log/flight-recorder
    /// record, and hand the outcome back.
    fn finish(
        &self,
        outcome: QueryOutcome,
        sparql: &str,
        ctx: Option<SpanContext>,
    ) -> QueryOutcome {
        applab_obs::global()
            .counter_with(
                "applab_service_outcomes_total",
                &[("endpoint", &outcome.endpoint), ("code", outcome.code())],
            )
            .inc();
        if self.query_log.is_some() || self.recorder.is_some() {
            let record = QueryLogRecord {
                seq: self.log_seq.fetch_add(1, Ordering::Relaxed),
                ts_ms: querylog::now_ms(),
                endpoint: outcome.endpoint.clone(),
                backend: outcome.backend.to_string(),
                code: outcome.code().to_string(),
                degraded: outcome.degraded,
                elapsed_ns: outcome.elapsed.as_nanos() as u64,
                queue_wait_ns: outcome.queue_wait.as_nanos() as u64,
                query_hash: querylog::hash_query(sparql),
                query: querylog::truncate_query(sparql),
                trace_id: ctx.map_or(0, |c| c.trace_id),
                span_id: ctx.map_or(0, |c| c.span_id),
                stats: outcome.stats.clone(),
            };
            // The recorder keeps everything; the log applies sampling.
            // The log renders from a reference into a recycled buffer,
            // so the record moves into the recorder uncloned — with both
            // consumers attached no query pays a record clone.
            if let Some(log) = &self.query_log {
                log.log(&record);
            }
            if let Some(recorder) = &self.recorder {
                recorder.record(record);
            }
        }
        outcome
    }
}

/// Latency buckets shared by the queue-wait and query histograms:
/// 100µs – 5s.
const WAIT_SECONDS_BUCKETS: &[f64] =
    &[0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0];

#[cfg(test)]
mod tests {
    use super::*;
    use applab_core::Explain;
    use applab_sparql::Row;
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;

    /// A synthetic endpoint: returns a fixed row after honouring the
    /// budget, and can block on a barrier to hold its admission permit.
    struct FakeEndpoint {
        hold: Option<Arc<Barrier>>,
    }

    impl FakeEndpoint {
        fn instant() -> Self {
            FakeEndpoint { hold: None }
        }
    }

    impl QueryEndpoint for FakeEndpoint {
        fn query_with(
            &self,
            sparql: &str,
            options: &EvalOptions,
        ) -> Result<QueryResults, CoreError> {
            if let Some(b) = &self.hold {
                b.wait();
            }
            options.budget.check()?;
            Ok(QueryResults::Solutions {
                variables: vec!["q".into()],
                rows: vec![Row {
                    values: vec![Some(applab_rdf::Literal::string(sparql).into())],
                }],
            })
        }

        fn query_explained(&self, _sparql: &str) -> Result<Explain, CoreError> {
            unimplemented!("not used by the service tests")
        }

        fn backend(&self) -> &'static str {
            "fake"
        }
    }

    fn service(config: ServiceConfig) -> ApplabService {
        ApplabService::new(config).with_endpoint("fake", Arc::new(FakeEndpoint::instant()))
    }

    #[test]
    fn routes_and_returns_results() {
        let svc = service(ServiceConfig::default());
        let out = svc.query("fake", "SELECT 1");
        assert_eq!(out.code(), "ok");
        assert_eq!(out.backend, "fake");
        assert_eq!(out.results().unwrap().len(), 1);
        assert_eq!(svc.load(), (0, 0), "permit released after the call");
    }

    #[test]
    fn unknown_endpoint_is_a_source_error() {
        let svc = service(ServiceConfig::default());
        let out = svc.query("nope", "SELECT 1");
        assert_eq!(out.code(), "source");
        assert!(matches!(out.result, Err(CoreError::Source(_))));
    }

    #[test]
    fn zero_deadline_times_out() {
        let svc = service(ServiceConfig::default());
        let out = svc.query_with(
            "fake",
            "SELECT 1",
            &QueryRequest::new().deadline(Duration::ZERO),
        );
        assert_eq!(out.code(), "timeout");
        assert!(matches!(out.result, Err(CoreError::Timeout(d)) if d == Duration::ZERO));
    }

    #[test]
    fn cancellation_token_is_threaded_through() {
        let svc = service(ServiceConfig::default());
        let token = Arc::new(AtomicBool::new(false));
        token.store(true, Ordering::Relaxed);
        let out = svc.query_with("fake", "SELECT 1", &QueryRequest::new().cancel_token(token));
        assert_eq!(out.code(), "cancelled");
    }

    #[test]
    fn overload_sheds_with_a_typed_outcome() {
        let gate = Arc::new(Barrier::new(2));
        let mut svc = ApplabService::new(ServiceConfig {
            max_in_flight: 1,
            max_queue: 0,
            queue_timeout: Duration::ZERO,
            ..ServiceConfig::default()
        });
        svc.register(
            "slow",
            Arc::new(FakeEndpoint {
                hold: Some(Arc::clone(&gate)),
            }),
        );
        let svc = Arc::new(svc);
        let bg = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.query("slow", "SELECT 1"))
        };
        // Wait until the background query holds the only permit.
        while svc.load().0 == 0 {
            std::thread::yield_now();
        }
        let shed = svc.query("slow", "SELECT 2");
        assert_eq!(shed.code(), "overloaded");
        assert!(
            matches!(
                shed.result,
                Err(CoreError::Overloaded {
                    in_flight: 1,
                    queued: 0,
                    retry_after
                }) if retry_after >= Duration::from_secs(1)
            ),
            "{:?}",
            shed.result
        );
        gate.wait(); // release the in-flight query
        assert_eq!(bg.join().unwrap().code(), "ok");
    }

    #[test]
    fn stale_serves_flag_the_outcome_as_degraded() {
        /// An endpoint whose answer is (partly) a stale cache copy.
        struct DegradedEndpoint;
        impl QueryEndpoint for DegradedEndpoint {
            fn query_with(
                &self,
                _sparql: &str,
                _options: &EvalOptions,
            ) -> Result<QueryResults, CoreError> {
                applab_obs::degrade::mark("fake_stale");
                Ok(QueryResults::Solutions {
                    variables: vec![],
                    rows: vec![],
                })
            }
            fn query_explained(&self, _sparql: &str) -> Result<Explain, CoreError> {
                unimplemented!("not used")
            }
            fn backend(&self) -> &'static str {
                "fake"
            }
        }
        let svc = ApplabService::new(ServiceConfig::default())
            .with_endpoint("deg", Arc::new(DegradedEndpoint))
            .with_endpoint("fresh", Arc::new(FakeEndpoint::instant()));
        let out = svc.query("deg", "SELECT 1");
        assert_eq!(out.code(), "ok");
        assert!(out.degraded, "stale-served answers must be flagged");
        // Degradation does not leak into the next, healthy query.
        let out = svc.query("fresh", "SELECT 1");
        assert_eq!(out.code(), "ok");
        assert!(!out.degraded);
    }

    #[test]
    fn query_log_and_flight_recorder_capture_every_outcome() {
        let (sink, lines) = applab_obs::VecSink::new();
        let log = Arc::new(QueryLog::new(
            sink,
            applab_obs::SamplingPolicy::always(),
            64,
        ));
        let recorder = Arc::new(FlightRecorder::new(8));
        let svc = ApplabService::new(ServiceConfig::default())
            .with_endpoint("fake", Arc::new(FakeEndpoint::instant()))
            .with_query_log(Arc::clone(&log))
            .with_flight_recorder(Arc::clone(&recorder));
        assert_eq!(svc.query("fake", "SELECT 1").code(), "ok");
        assert_eq!(svc.query("nope", "SELECT 2").code(), "source");
        log.flush();
        let lines = lines.lock().expect("lines");
        assert_eq!(lines.len(), 2, "rate 1.0 logs every outcome");
        let first = QueryLogRecord::from_json(&lines[0]).expect("line parses");
        assert_eq!(first.endpoint, "fake");
        assert_eq!(first.code, "ok");
        assert_eq!(first.query, "SELECT 1");
        assert_eq!(first.query_hash, querylog::hash_query("SELECT 1"));
        let second = QueryLogRecord::from_json(&lines[1]).expect("line parses");
        assert_eq!(second.code, "source");
        assert_eq!(second.backend, "?");
        let tape = recorder.dump();
        assert_eq!(tape.len(), 2);
        assert_eq!(tape[0].seq, 0);
        assert_eq!(tape[1].seq, 1);
    }

    #[test]
    fn outcome_stats_carry_queue_wait() {
        let svc = service(ServiceConfig::default());
        let before = Instant::now();
        let out = svc.query("fake", "SELECT 1");
        assert_eq!(out.code(), "ok");
        assert_eq!(out.stats.queue_wait_ns, out.queue_wait.as_nanos() as u64);
        assert!(out.stats.queue_wait_ns <= before.elapsed().as_nanos() as u64);
        assert!(!out.stats.degraded);
    }

    /// Delivery inside the permit: a successful `deliver` records the
    /// byte count; a failing one flips the outcome to `cancelled`, trips
    /// the request's cancel token, and still releases the permit.
    #[test]
    fn delivery_failure_becomes_a_cancelled_outcome() {
        let svc = service(ServiceConfig::default());
        let out = svc.query_delivering("fake", "SELECT 1", &QueryRequest::new(), |results| {
            Ok(results.to_json().len() as u64)
        });
        assert_eq!(out.code(), "ok");
        let delivered = out.delivered_bytes.expect("delivery ran");
        assert_eq!(delivered, out.results().unwrap().to_json().len() as u64);

        let token = Arc::new(AtomicBool::new(false));
        let out = svc.query_delivering(
            "fake",
            "SELECT 1",
            &QueryRequest::new().cancel_token(Arc::clone(&token)),
            |_results| Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone")),
        );
        assert_eq!(out.code(), "cancelled");
        assert!(matches!(out.result, Err(CoreError::Cancelled)));
        assert_eq!(out.delivered_bytes, None);
        assert!(!out.degraded);
        assert!(
            token.load(Ordering::Relaxed),
            "failed delivery must trip the cancel token"
        );
        assert_eq!(svc.load(), (0, 0), "permit released after failed delivery");
    }

    /// Delivery never runs for failed queries, and plain `query_with`
    /// reports no delivered bytes.
    #[test]
    fn delivery_is_skipped_for_failures() {
        let svc = service(ServiceConfig::default());
        let out = svc.query_delivering(
            "fake",
            "SELECT 1",
            &QueryRequest::new().deadline(Duration::ZERO),
            |_results| panic!("deliver must not run for a timed-out query"),
        );
        assert_eq!(out.code(), "timeout");
        assert_eq!(out.delivered_bytes, None);
        assert_eq!(svc.query("fake", "SELECT 1").delivered_bytes, None);
    }

    #[test]
    fn query_request_builder_sets_every_field() {
        let token = Arc::new(AtomicBool::new(false));
        let req = QueryRequest::new()
            .deadline(Duration::from_millis(250))
            .cancel_token(Arc::clone(&token))
            .client_tag("10.0.0.7:9999");
        assert_eq!(req.deadline, Some(Duration::from_millis(250)));
        assert!(req.cancel.is_some());
        assert_eq!(req.client_tag.as_deref(), Some("10.0.0.7:9999"));
    }

    #[test]
    fn replacing_an_endpoint_keeps_one_entry() {
        let mut svc = service(ServiceConfig::default());
        svc.register("fake", Arc::new(FakeEndpoint::instant()));
        assert_eq!(svc.endpoint_names(), ["fake"]);
    }
}
