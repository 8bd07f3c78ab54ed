//! One run of a served workload: oracle, set-up with its warm-up lap, and
//! closed loop — or, for `--trace 1`, shorter closed and open loops and the
//! single-connection traced laps that feed the per-layer metrics.

use crate::client::{encode_get, encode_request, HttpClient};
use crate::json::count_result_rows;
use crate::layers::{self, Fixture, OracleGraph, Served, VirtualSetup};
use crate::load::{self, Op, PhaseResult, Sample};
use crate::oracle::{Answer, Expected};
use crate::queries;
use crate::stats;
use crate::sys;
use crate::trace::{Tracer, ROOT};
use crate::workloads::{
    self, Plan, Workload, CLOCK_STEP_SECS, CONNECTIONS, DATASET_SEED, SMOKE_CELLS, WORLD_CELLS,
};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a run was asked to do.
#[derive(Debug, Clone)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time of the run; set-up comes on top.
    pub seconds: f64,
    /// The small world and a single set-up, to exercise the harness quickly.
    pub smoke: bool,
}

/// A plain run sets up this many times and `setup_s` is the median: one
/// set-up is half a second of mostly single-threaded work, which a busy
/// moment of the host moves by a fifth.
const SETUP_REPS: usize = 5;

impl Settings {
    /// World size: a `cells` × `cells` land-cover grid.
    pub fn cells(&self) -> usize {
        if self.smoke {
            SMOKE_CELLS
        } else {
            WORLD_CELLS
        }
    }

    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Output {
    pub attempted: usize,
    pub failed: usize,
    /// Set-up problems (an oracle mismatch in the warm-up lap, a workload
    /// that could not start) also make a run incorrect.
    pub errors: Vec<String>,
    pub metrics: HashMap<String, f64>,
    /// Sample counts and other context for the operator (stderr).
    pub notes: Vec<String>,
}

impl Output {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A metric whose source may be missing: unmeasured then, never 0.
    pub fn set_if_measured(&mut self, name: &str, value: Option<f64>) {
        if let Some(value) = value {
            self.set(name, value);
        }
    }

    fn absorb(&mut self, phase: &PhaseResult, label: &str) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        for failure in &phase.failures {
            self.errors.push(format!("{label}: {failure}"));
        }
    }
}

/// Where run artefacts go: `benchmark/out/`, next to this package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// The generated inputs and, per op, what a right answer is.
struct Prepared {
    plan: Plan,
    expected: Vec<Expected>,
    oracle_s: f64,
}

fn served_plan(workload: Workload, seed: u64, graph: &OracleGraph) -> Plan {
    match workload {
        Workload::StoreMix => workloads::store_mix(seed),
        Workload::WireSmall => {
            workloads::wire_small(seed, &graph.instances_of(queries::CORINE_AREA_CLASS))
        }
        Workload::VirtualLai => workloads::virtual_lai(seed),
        Workload::Ingest => unreachable!("ingest is not served"),
    }
}

/// Evaluate every distinct query text once on the independent engine.
fn prepare(settings: &Settings) -> Result<Prepared, String> {
    let started = Instant::now();
    let fixture = Fixture::generate(DATASET_SEED, settings.cells());
    let graph = match settings.workload {
        // The virtual workflow's oracle is its own materialized copy.
        Workload::VirtualLai => layers::seal_virtual(&fixture, DATASET_SEED)?.materialize()?,
        _ => fixture.oracle_graph(),
    };
    let plan = served_plan(settings.workload, settings.seed, &graph);
    let mut by_text: HashMap<&str, Expected> = HashMap::new();
    for op in &plan.ops {
        if by_text.contains_key(op.text.as_str()) {
            continue;
        }
        let expected = match &op.page_of {
            Some(source) => match graph.answer(source)? {
                Answer::Rows(source) => Expected::PageOf {
                    rows: queries::PAGE_ROWS.min(source.len()),
                    source,
                },
                Answer::Boolean(_) => return Err("a page of an ASK".into()),
            },
            None => Expected::Exactly(graph.answer(&op.text)?),
        };
        by_text.insert(&op.text, expected);
    }
    let expected = plan
        .ops
        .iter()
        .map(|op| by_text[op.text.as_str()].clone())
        .collect();
    Ok(Prepared {
        plan,
        expected,
        oracle_s: started.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

enum Backend {
    Store(Arc<layers::Materialized>),
    Virtual(VirtualSetup),
}

/// A workload that is up: server bound, every op verified once.
struct Live {
    served: Served,
    backend: Backend,
    ops: Vec<Op>,
}

impl Live {
    /// Drain the server and free the backend.
    fn shut_down(self) {
        self.served.shutdown();
    }

    /// What happens before each request leaves: the virtual workload's
    /// clock moves on, so its cache window expires on schedule.
    fn before_each(&self) -> impl Fn() + Sync + '_ {
        move || {
            if let Backend::Virtual(v) = &self.backend {
                v.advance_clock(Duration::from_secs(CLOCK_STEP_SECS));
            }
        }
    }

    fn plan<'a>(
        &'a self,
        inputs: &'a Plan,
        before_each: &'a (dyn Fn() + Sync),
        connections: usize,
    ) -> load::Plan<'a> {
        load::Plan {
            addr: self.served.addr,
            ops: &self.ops,
            schedule: &inputs.schedule,
            lap_len: inputs.lap_len,
            connections,
            reconnect_every: inputs.reconnect_every,
            before_each,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    /// Fixture generation + load/seal + bind.
    build_s: f64,
    warmup_s: f64,
}

/// One set-up: fixture, backend, server, and a warm-up lap that sends
/// every distinct op once and checks the full answer against the oracle.
fn set_up(settings: &Settings, prepared: &Prepared) -> Result<(Live, SetupTimes), String> {
    let started = Instant::now();
    let fixture = Fixture::generate(DATASET_SEED, settings.cells());
    let (backend, served) = match settings.workload {
        Workload::VirtualLai => {
            let setup = layers::seal_virtual(&fixture, DATASET_SEED)?;
            let served =
                layers::serve("obda", setup.workflow.clone()).map_err(|e| e.to_string())?;
            (Backend::Virtual(setup), served)
        }
        _ => {
            let workflow = Arc::new(layers::load_materialized(&fixture)?);
            let served = layers::serve("store", workflow.clone()).map_err(|e| e.to_string())?;
            (Backend::Store(workflow), served)
        }
    };
    let build_s = started.elapsed().as_secs_f64();

    let path = served.path();
    let mut live = Live {
        served,
        backend,
        ops: Vec::with_capacity(prepared.plan.ops.len()),
    };
    let warm = Instant::now();
    if let Err(e) = warm_up(&mut live, &path, prepared) {
        live.shut_down();
        return Err(e);
    }
    Ok((
        live,
        SetupTimes {
            total_s: started.elapsed().as_secs_f64(),
            build_s,
            warmup_s: warm.elapsed().as_secs_f64(),
        },
    ))
}

fn warm_up(live: &mut Live, path: &str, prepared: &Prepared) -> Result<(), String> {
    let mut client = HttpClient::connect(live.served.addr).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    for (spec, expected) in prepared.plan.ops.iter().zip(&prepared.expected) {
        (live.before_each())();
        let request = encode_request(spec.method, path, &spec.text);
        let status = client
            .send(&request, &mut body)
            .map_err(|e| format!("warm-up: {e}"))?;
        let describe = |what: String| format!("warm-up, {}: {what}", spec.text);
        if status != 200 {
            return Err(describe(format!(
                "status {status}: {}",
                String::from_utf8_lossy(&body)
            )));
        }
        let text = std::str::from_utf8(&body).map_err(|_| describe("body is not UTF-8".into()))?;
        let answer = Answer::from_results_json(text).map_err(&describe)?;
        expected.check(&answer).map_err(&describe)?;
        let rows = count_result_rows(&body);
        if rows != expected.row_count() {
            return Err(describe(format!(
                "row scan counts {rows}, oracle has {}",
                expected.row_count()
            )));
        }
        live.ops.push(Op {
            class: spec.class,
            request,
            expect_rows: rows,
            expect_len: body.len(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Plain run: end-to-end metrics
// ---------------------------------------------------------------------

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|s| f64::from(s.latency_ms)).collect();
    stats::sort(&mut v);
    v
}

/// Fill the end-to-end metrics both kinds of workload share, from the
/// closed loop: everything over the whole phase, except the peak resident
/// size, which is the median stretch's (see [`load::Meter`]).
pub fn end_to_end_metrics(out: &mut Output, closed: &PhaseResult) {
    out.absorb(closed, "closed loop");
    if closed.ok() == 0 {
        out.errors
            .push("the closed loop finished without one verified response".into());
        return;
    }
    let verified = closed.ok() as f64;
    let latencies = latencies_ms(&closed.samples);
    out.set("throughput_rps", verified / closed.wall.as_secs_f64());
    out.set("latency_p50_ms", stats::quantile(&latencies, 0.5));
    out.set("latency_p95_ms", stats::quantile(&latencies, 0.95));
    out.set("cpu_ms_per_req", closed.cpu_s * 1e3 / verified);
    if !closed.peaks_mb.is_empty() {
        out.set("rss_peak_mb", stats::median(&closed.peaks_mb));
    }
    out.notes.push(format!(
        "closed loop: {} verified responses, {} beyond p95 (the sample supports p{}); \
         {} stretches, the largest peak {:.1} MB",
        closed.ok(),
        closed.ok() - (verified * 0.95).ceil() as usize,
        stats::supported_quantile(closed.ok()) * 100.0,
        closed.peaks_mb.len(),
        closed.peaks_mb.iter().copied().fold(0.0, f64::max),
    ));
}

/// The open loop's figures, for the traced run. They are per-layer
/// metrics, not end-to-end ones, because they do not repeat on the shared
/// reference host (README "End-to-end metrics").
pub fn open_loop_metrics(out: &mut Output, open: &PhaseResult) {
    out.absorb(open, "open loop");
    if open.ok() == 0 {
        return;
    }
    let latencies = latencies_ms(&open.samples);
    out.set(
        "client.open_latency_p50_ms",
        stats::quantile(&latencies, 0.5),
    );
    out.set(
        "client.open_latency_p95_ms",
        stats::quantile(&latencies, 0.95),
    );
    let mut lags: Vec<f64> = open.lags_us.iter().map(|&lag| f64::from(lag)).collect();
    stats::sort(&mut lags);
    out.set("client.sched_lag_p95_us", stats::quantile(&lags, 0.95));
}

/// Run one of the `plain` / `traced` functions; a run that could not
/// finish is an incorrect run with the reason among its errors.
pub fn checked(run: impl FnOnce(&mut Output) -> Result<(), String>) -> Output {
    let mut out = Output::default();
    if let Err(e) = run(&mut out) {
        out.errors.push(e);
    }
    out
}

pub fn plain(settings: &Settings, out: &mut Output) -> Result<(), String> {
    let prepared = prepare(settings)?;
    sys::trim_heap();
    let (live, first) = set_up(settings, &prepared)?;
    let before_each = live.before_each();
    let plan = live.plan(&prepared.plan, &before_each, CONNECTIONS);
    let closed = load::closed_loop(&plan, Duration::from_secs_f64(settings.seconds));
    end_to_end_metrics(out, &closed);
    drop(before_each);
    live.shut_down();

    // The other set-ups come after the timed phase: the first one then
    // builds on a heap nothing has fragmented, which is what makes
    // `rss_peak_mb` repeat to a few MB.
    let mut setup_s = vec![first.total_s];
    for _ in 1..settings.setup_reps() {
        let (again, times) = set_up(settings, &prepared)?;
        again.shut_down();
        setup_s.push(times.total_s);
    }
    out.set("setup_s", stats::median(&setup_s));
    Ok(())
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

/// Sum of the counters `QueryOutcome::stats` reported over the traced lap.
#[derive(Default)]
struct CountSums {
    requests: f64,
    rows_out: f64,
    rows_scanned: f64,
    joins: f64,
    filter_in: f64,
    filter_out: f64,
    pruned: f64,
    peak_batch_bytes: f64,
    source_queries: f64,
    pushdowns: f64,
    cache_hits: f64,
    cache_misses: f64,
}

impl CountSums {
    fn add(&mut self, rows_out: usize, c: &layers::QueryCounts) {
        self.requests += 1.0;
        self.rows_out += rows_out as f64;
        self.rows_scanned += c.rows_scanned as f64;
        self.joins += c.joins as f64;
        self.filter_in += c.filter_rows_in as f64;
        self.filter_out += c.filter_rows_out as f64;
        self.pruned += c.pruned_rows as f64;
        self.peak_batch_bytes = self.peak_batch_bytes.max(c.peak_batch_bytes as f64);
        self.source_queries += c.source_queries as f64;
        self.pushdowns += c.pushdowns as f64;
        self.cache_hits += c.cache_hits as f64;
        self.cache_misses += c.cache_misses as f64;
    }
}

/// `numerator / denominator`; nothing when there is nothing to divide by
/// (the metric then stays unmeasured instead of reading 0).
fn ratio(numerator: f64, denominator: f64) -> Option<f64> {
    (denominator > 0.0).then(|| numerator / denominator)
}

pub fn traced(settings: &Settings, out: &mut Output) -> Result<(), String> {
    let prepared = prepare(settings)?;
    let (live, times) = set_up(settings, &prepared)?;
    out.set("setup.oracle_s", prepared.oracle_s);
    out.set("setup.build_s", times.build_s);
    out.set("setup.warmup_s", times.warmup_s);

    let schedule = &prepared.plan.schedule;
    let before_each = live.before_each();
    let quarter = Duration::from_secs_f64(settings.seconds / 4.0);

    // Phase 1, two connections closed loop: per-class medians, p99, bytes.
    let plan = live.plan(&prepared.plan, &before_each, CONNECTIONS);
    let closed = load::closed_loop(&plan, quarter);
    out.absorb(&closed, "closed loop");
    let classes = settings.workload.classes();
    for (class, name) in classes.iter().enumerate() {
        let of_class: Vec<f64> = closed
            .samples
            .iter()
            .filter(|s| live.ops[schedule[s.slot as usize % schedule.len()]].class == class)
            .map(|s| f64::from(s.latency_ms))
            .collect();
        if !of_class.is_empty() {
            out.set(&format!("class.{name}.p50_ms"), stats::median(&of_class));
        }
    }
    if closed.ok() > 0 {
        out.set(
            "client.latency_p99_ms",
            stats::quantile(&latencies_ms(&closed.samples), 0.99),
        );
        out.set(
            "http.bytes_out_per_req",
            closed.body_bytes as f64 / closed.attempted as f64,
        );
    }

    // Phase 2, open loop: generator lag, and the service's own queue-wait
    // histogram scraped before and after.
    if let Some(rate) = settings.workload.rate_rps() {
        let waits_before = scrape_queue_waits(&live)?;
        let open = load::open_loop(&plan, rate, quarter);
        let waits_after = scrape_queue_waits(&live)?;
        open_loop_metrics(out, &open);
        let during: Vec<u64> = waits_after
            .counts
            .iter()
            .zip(&waits_before.counts)
            .map(|(after, before)| after.saturating_sub(*before))
            .collect();
        if let Some(p95) = stats::histogram_quantile(&waits_after.bounds, &during, 0.95) {
            out.set("service.queue_wait_p95_us", p95 * 1e6);
        }
    }

    // Phase 3, one connection, untraced: what the traced lap is compared to.
    let single = live.plan(&prepared.plan, &before_each, 1);
    let untraced = load::closed_loop(&single, quarter);
    out.absorb(&untraced, "untraced single connection");

    // Phase 4, one connection, traced.
    let tracer = traced_laps(&live, &prepared, quarter, out)?;
    let wire: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == ROOT)
        .map(|s| ms(s.duration()))
        .collect();
    if !wire.is_empty() && untraced.ok() > 0 {
        let baseline = stats::quantile(&latencies_ms(&untraced.samples), 0.5);
        out.set(
            "obs.tracing_overhead_pct",
            (stats::median(&wire) / baseline - 1.0) * 100.0,
        );
    }
    ladder_metrics(&tracer, out);
    if matches!(settings.workload, Workload::StoreMix) {
        if let Backend::Store(workflow) = &live.backend {
            unit_costs(settings, workflow, &prepared.plan, out);
        }
    }
    let path = out_dir().join(format!("trace-{}.jsonl", settings.workload.name()));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes.push(format!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    ));

    drop(before_each);
    live.shut_down();
    Ok(())
}

/// Cumulative `applab_service_queue_wait_seconds` histogram.
struct QueueWaits {
    bounds: Vec<f64>,
    /// Per-bucket (not cumulative) counts, overflow bucket last.
    counts: Vec<u64>,
}

fn scrape_queue_waits(live: &Live) -> Result<QueueWaits, String> {
    let mut client = HttpClient::connect(live.served.addr).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    let status = client
        .send(&encode_get("/metrics"), &mut body)
        .map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(parse_queue_waits(&String::from_utf8_lossy(&body)))
}

/// Pick the unlabelled queue-wait histogram out of a Prometheus text page.
fn parse_queue_waits(page: &str) -> QueueWaits {
    const PREFIX: &str = "applab_service_queue_wait_seconds_bucket{le=\"";
    let mut bounds = Vec::new();
    let mut cumulative = Vec::new();
    for line in page.lines() {
        let Some(rest) = line.strip_prefix(PREFIX) else {
            continue;
        };
        let Some((le, count)) = rest.split_once("\"}") else {
            continue;
        };
        let Ok(count) = count.trim().parse::<f64>() else {
            continue;
        };
        if le != "+Inf" {
            match le.parse::<f64>() {
                Ok(bound) => bounds.push(bound),
                Err(_) => continue,
            }
        }
        cumulative.push(count as u64);
    }
    let counts = cumulative
        .iter()
        .scan(0u64, |seen, &c| {
            let own = c.saturating_sub(*seen);
            *seen = c;
            Some(own)
        })
        .collect();
    QueueWaits { bounds, counts }
}

/// Walk whole laps on one connection; per request, the real round trip
/// and then the in-process ladder.
fn traced_laps(
    live: &Live,
    prepared: &Prepared,
    duration: Duration,
    out: &mut Output,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new();
    let mut client = HttpClient::connect(live.served.addr).map_err(|e| e.to_string())?;
    let mut body = Vec::new();
    let mut framed = Vec::new();
    let mut sums = CountSums::default();
    let mut eval_shares = Vec::new();
    let (mut eval_total, mut obda_total, mut wire_total) = (0.0, 0.0, 0.0);
    let (mut dap_trips, mut dap_bytes, mut wan_ms) = (0.0, 0.0, 0.0);
    let mut serialized_bytes = 0u64;
    let mut serialize_s = 0.0;
    let before_each = live.before_each();
    let inputs = &prepared.plan;
    let deadline = Instant::now() + duration;
    let mut request = 0u32;
    'laps: loop {
        for lap in inputs.schedule.chunks(inputs.lap_len) {
            for &op_index in lap {
                let op = &live.ops[op_index];
                let spec = &prepared.plan.ops[op_index];
                before_each();
                let dap_before = match &live.backend {
                    Backend::Virtual(v) => {
                        Some((v.dap_round_trips(), v.dap_bytes_received(), v.wan_charged()))
                    }
                    Backend::Store(_) => None,
                };

                // The real thing.
                let start = Instant::now();
                let status = client.send(&op.request, &mut body);
                let end = Instant::now();
                out.attempted += 1;
                match status {
                    Ok(status) => {
                        if let Err(what) = op.check(status, &body) {
                            out.failed += 1;
                            out.errors
                                .push(format!("traced lap, class {}: {what}", op.class));
                            continue;
                        }
                    }
                    Err(e) => return Err(format!("traced lap: {e}")),
                }
                let root = tracer.record(request, None, ROOT, start, end);
                let mut cold = false;
                if let (Some((trips, bytes, charged)), Backend::Virtual(v)) =
                    (dap_before, &live.backend)
                {
                    let fetched = v.dap_round_trips() - trips;
                    cold = fetched > 0;
                    dap_trips += fetched as f64;
                    dap_bytes += (v.dap_bytes_received() - bytes) as f64;
                    wan_ms += ms(v.wan_charged() - charged);
                }

                // The replay, one public call per span.
                let (parsed_ok, _) = tracer.time(request, Some(root), "http.read_request", || {
                    layers::http_read_request(&op.request)
                });
                if !parsed_ok {
                    return Err("replay: the request bytes did not parse".into());
                }
                let (reply, service) =
                    tracer.time(request, Some(root), "service.query_with", || {
                        layers::service_query(&live.served, &spec.text)
                    });
                let (results, counts) = reply.map_err(|e| format!("replay: service: {e}"))?;
                sums.add(results.rows(), &counts);
                let eval_id = match &live.backend {
                    Backend::Store(workflow) => {
                        let (parsed, _) =
                            tracer.time(request, Some(service), "sparql.parse_query", || {
                                layers::sparql_parse(&spec.text)
                            });
                        let parsed = parsed.map_err(|e| format!("replay: parse: {e}"))?;
                        // Default-off today, so outside the ladder: its own root.
                        tracer.time(request, None, "sparql.plan", || {
                            layers::sparql_plan(workflow, &parsed)
                        });
                        let (evaluated, id) =
                            tracer.time(request, Some(service), "sparql.evaluate_with", || {
                                layers::sparql_evaluate(workflow, &parsed)
                            });
                        evaluated.map_err(|e| format!("replay: evaluate: {e}"))?;
                        id
                    }
                    Backend::Virtual(v) => {
                        let (evaluated, id) =
                            tracer.time(request, Some(service), "core.query_with", || {
                                layers::endpoint_query(v.workflow.as_ref(), &spec.text)
                            });
                        evaluated.map_err(|e| format!("replay: endpoint: {e}"))?;
                        let (parsed, _) =
                            tracer.time(request, Some(id), "sparql.parse_query", || {
                                layers::sparql_parse(&spec.text)
                            });
                        parsed.map_err(|e| format!("replay: parse: {e}"))?;
                        if cold {
                            let (fetched, _) =
                                tracer
                                    .time(request, Some(root), "dap.get_data", || v.dap_get_data());
                            fetched.map_err(|e| format!("replay: dap: {e}"))?;
                        }
                        id
                    }
                };
                let mut sink = layers::CountingSink::default();
                let (written, serialize_id) =
                    tracer.time(request, Some(root), "sparql.write_json", || {
                        layers::serialize(&results, &mut sink)
                    });
                written.map_err(|e| format!("replay: serialize: {e}"))?;
                framed.clear();
                let (wrote, _) = tracer.time(request, Some(root), "http.write_response", || {
                    layers::http_write_response(&results, &body, &mut framed)
                });
                wrote.map_err(|e| format!("replay: frame: {e}"))?;

                // Shares of the whole round trip (the replayed calls plus the
                // residual rung) that evaluation took.
                let spans = tracer.spans();
                let own = |id: u32| spans[id as usize].duration().as_secs_f64();
                let named = |name: &str| -> f64 {
                    spans[root as usize + 1..]
                        .iter()
                        .filter(|s| s.name == name)
                        .map(|s| s.duration().as_secs_f64())
                        .sum()
                };
                let eval_s = match &live.backend {
                    Backend::Store(_) => own(eval_id),
                    Backend::Virtual(_) => own(eval_id) - named("sparql.parse_query"),
                };
                let wire_s = own(root);
                eval_total += eval_s;
                obda_total += eval_s + named("dap.get_data");
                wire_total += wire_s;
                eval_shares.push(eval_s / wire_s);
                serialized_bytes += sink.bytes;
                serialize_s += own(serialize_id);
                request += 1;
            }
            if Instant::now() >= deadline {
                break 'laps;
            }
        }
    }

    out.set("trace.requests", f64::from(request));
    if request == 0 {
        return Ok(tracer);
    }
    let n = sums.requests;
    match &live.backend {
        Backend::Store(_) => {
            out.set_if_measured("sparql.eval_share", ratio(eval_total, wire_total));
            out.set("sparql.eval_share_p50", stats::median(&eval_shares));
            out.set_if_measured(
                "sparql.rows_scanned_per_row_out",
                ratio(sums.rows_scanned, sums.rows_out),
            );
            out.set("sparql.joins_per_req", sums.joins / n);
            out.set_if_measured(
                "sparql.filter_pass_ratio",
                ratio(sums.filter_out, sums.filter_in),
            );
            out.set("sparql.pruned_rows_per_req", sums.pruned / n);
            out.set("sparql.peak_batch_kb", sums.peak_batch_bytes / 1024.0);
        }
        Backend::Virtual(_) => {
            out.set_if_measured("obda.share", ratio(obda_total, wire_total));
            out.set("obda.source_queries_per_req", sums.source_queries / n);
            out.set("obda.pushdowns_per_req", sums.pushdowns / n);
            // The replay runs with the window warm, so the hit ratio of
            // the *served* requests comes from the client's round trips:
            // a request either fetched or it did not.
            let fetches = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "dap.get_data")
                .count() as f64;
            out.set("obda.vtable_hit_ratio", 1.0 - fetches / n);
            out.set("dap.round_trips_per_req", dap_trips / n);
            out.set("dap.bytes_per_req", dap_bytes / n);
            out.set("dap.wan_charged_ms_per_req", wan_ms / n);
        }
    }
    out.set_if_measured(
        "sparql.serialize_mb_s",
        ratio(serialized_bytes as f64 / 1e6, serialize_s),
    );
    Ok(tracer)
}

/// Per-layer numbers that are medians of span self-times.
fn ladder_metrics(tracer: &Tracer, out: &mut Output) {
    let self_times = tracer.self_times_by_name();
    for (span, metric, scale) in [
        ("http.read_request", "http.read_request_us", 1e6),
        ("http.write_response", "http.write_response_us", 1e6),
        (ROOT, "http.wire_residual_us", 1e6),
        ("service.query_with", "service.overhead_us", 1e6),
        ("sparql.parse_query", "sparql.parse_us", 1e6),
        ("sparql.plan", "sparql.plan_us", 1e6),
        ("sparql.evaluate_with", "sparql.eval_ms", 1e3),
        ("core.query_with", "obda.eval_warm_ms", 1e3),
        ("sparql.write_json", "sparql.serialize_ms", 1e3),
        ("dap.get_data", "dap.get_data_ms", 1e3),
    ] {
        if let Some(own) = self_times.get(span) {
            out.set(metric, stats::median(own) * scale);
        }
    }
    let shares = tracer.accounted_shares();
    if !shares.is_empty() {
        out.set("trace.accounted_share", stats::median(&shares));
    }
}

/// Repeat `call` for about `budget` and return seconds per call.
fn per_call(budget: Duration, mut call: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < budget {
        call();
        calls += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(calls)
}

/// Unit costs of `store` and `geo` over the fixture's own geometries.
fn unit_costs(settings: &Settings, workflow: &layers::Materialized, plan: &Plan, out: &mut Output) {
    let budget = Duration::from_millis(60);
    let mut rows = 0;
    let scan = per_call(budget, || {
        rows = layers::store_scan(workflow, queries::AS_WKT)
    });
    out.set("store.scan_mrows_s", rows as f64 / 1e6 / scan);

    let mut next = 0;
    let probe = per_call(budget, || {
        let viewport = &plan.viewports[next % plan.viewports.len()];
        next += 1;
        std::hint::black_box(layers::store_spatial_probe(
            workflow,
            queries::AS_WKT,
            viewport,
        ));
    });
    out.set("store.spatial_probe_us", probe * 1e6);

    let fixture = Fixture::generate(DATASET_SEED, settings.cells());
    let areas = fixture.corine_wkts();
    let mut parsed = Vec::new();
    let parse = per_call(budget, || {
        parsed = areas
            .iter()
            .filter_map(|text| layers::parse_wkt(text))
            .collect();
    });
    out.set("geo.parse_wkt_ns", parse * 1e9 / areas.len().max(1) as f64);

    let index = layers::build_rtree(&parsed);
    let mut next = 0;
    let query = per_call(budget, || {
        let viewport = &plan.viewports[next % plan.viewports.len()];
        next += 1;
        std::hint::black_box(layers::rtree_query(&index, viewport));
    });
    out.set("geo.rtree_query_us", query * 1e6);

    // The join's candidate pairs: a POI and an area whose envelopes meet.
    let pois: Vec<_> = fixture
        .poi_wkts()
        .iter()
        .filter_map(|t| layers::parse_wkt(t))
        .collect();
    let pairs: Vec<(usize, usize)> = pois
        .iter()
        .enumerate()
        .flat_map(|(p, poi)| {
            let parsed = &parsed;
            (0..parsed.len())
                .filter(move |&a| layers::envelopes_intersect(poi, &parsed[a]))
                .map(move |a| (p, a))
        })
        .take(20_000)
        .collect();
    if !pairs.is_empty() {
        let pass = per_call(budget, || {
            for &(p, a) in &pairs {
                std::hint::black_box(layers::intersects(&pois[p], &parsed[a]));
            }
        });
        out.set("geo.intersects_ns", pass * 1e9 / pairs.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_wait_histogram_is_read_from_the_metrics_page() {
        let page = "# TYPE applab_service_queue_wait_seconds histogram\n\
            applab_service_queue_wait_seconds_bucket{le=\"0.0001\"} 90\n\
            applab_service_queue_wait_seconds_bucket{le=\"0.0005\"} 98\n\
            applab_service_queue_wait_seconds_bucket{le=\"+Inf\"} 100\n\
            applab_service_queue_wait_seconds_sum 0.01\n\
            applab_service_queue_wait_seconds_count 100\n\
            applab_service_query_seconds_bucket{endpoint=\"store\",le=\"0.0001\"} 5\n";
        let waits = parse_queue_waits(page);
        assert_eq!(waits.bounds, [0.0001, 0.0005]);
        assert_eq!(waits.counts, [90, 8, 2]);
        let p95 = stats::histogram_quantile(&waits.bounds, &waits.counts, 0.95).unwrap();
        assert!((p95 - 0.00035).abs() < 1e-9, "{p95}");
        assert!(parse_queue_waits("").counts.is_empty());
    }
}
