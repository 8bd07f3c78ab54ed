//! Chaos stress: the mini-Geographica mix through `ApplabService` over a
//! `ChaosTransport` injecting transient errors, timeouts, stalls,
//! truncations, and corruptions into every OPeNDAP delivery.
//!
//! The contract under fault injection is a strict trichotomy — every query
//! returns either
//!
//! 1. results byte-identical to a fault-free run,
//! 2. a degraded-but-well-formed stale answer (flagged on the outcome), or
//! 3. a typed `CoreError` (`Unavailable` / `Source` / `Timeout`),
//!
//! never a panic, a truncated answer, or a silent partial result. Fault
//! injection is fully deterministic per seed: replaying a pass with the
//! same seed yields the same outcome sequence. Set `CHAOS_SEED=<n>` to
//! pin one seed (the CI matrix does), otherwise three defaults run.

use applab_qa::geographica_queries;
use copernicus_app_lab::core::{CoreError, VirtualWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::dap::chaos::{ChaosConfig, ChaosTally, ChaosTransport};
use copernicus_app_lab::dap::clock::ManualClock;
use copernicus_app_lab::dap::transport::Local;
use copernicus_app_lab::dap::ResilienceConfig;
use copernicus_app_lab::data::{grids, mappings, ParisFixture};
use copernicus_app_lab::obs::report::SpanNode;
use copernicus_app_lab::obs::FlightRecorder;
use copernicus_app_lab::service::{ApplabService, ServiceConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const LAI_QUERY: &str = "SELECT DISTINCT ?s ?wkt ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }";

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0xA11AB, 42, 7],
    }
}

/// The query mix: the full mini-Geographica suite (local Paris tables)
/// plus the Listing-3 LAI query, whose triples come from the remote,
/// fault-injected OPeNDAP path.
fn jobs() -> Vec<(String, String)> {
    let mut jobs: Vec<(String, String)> = geographica_queries()
        .into_iter()
        .map(|(name, sparql)| (name.to_string(), sparql))
        .collect();
    jobs.push(("LAI_listing3".to_string(), LAI_QUERY.to_string()));
    jobs
}

/// Rounds of the LAI query alone after the two rounds of the full mix. A
/// round makes one DAP fetch, and at rate 0.10 the first fault of seeds 1
/// and 2 comes only with the eleventh fetch: with these rounds every
/// (seed, rate) pass of the CI seeds and the defaults injects a fault.
const LAI_ROUNDS: usize = 9;

/// One virtual workflow: Paris fixture tables + the LAI product published
/// on the embedded OPeNDAP server, reached through a `ChaosTransport`
/// (returned too, for its tally of injected faults).
fn build_workflow(
    seed: u64,
    config: ChaosConfig,
) -> (VirtualWorkflow, Arc<ManualClock>, Arc<ChaosTransport>) {
    let fixture = ParisFixture::generate(5, 12, 8);
    let mut lai = grids::lai_dataset(
        &fixture.world,
        &grids::GridSpec {
            resolution: 8,
            times: vec![0, 86_400 * 30],
            noise: 0.0,
            seed: 3,
        },
    );
    lai.name = "lai_300m".into();

    let clock = ManualClock::new();
    let chaos = Arc::new(ChaosTransport::new(Arc::new(Local::new()), config, seed));
    let mut b = VirtualWorkflowBuilder::with_transport_and_clock(chaos.clone(), clock.clone());
    b.publish(lai);
    for (table, doc) in fixture.world.tables() {
        b.add_table(table);
        b.add_mappings(doc).unwrap();
    }
    b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .unwrap();
    b.set_stale_grace(Duration::from_secs(100_000));
    b.enable_resilience(ResilienceConfig::no_sleep(), seed);
    (b.seal().unwrap(), clock, chaos)
}

fn build_service(
    seed: u64,
    config: ChaosConfig,
) -> (ApplabService, Arc<ManualClock>, Arc<ChaosTransport>) {
    let (wf, clock, chaos) = build_workflow(seed, config);
    let svc = ApplabService::new(ServiceConfig {
        max_in_flight: 4,
        max_queue: 64,
        queue_timeout: Duration::from_secs(120),
        ..ServiceConfig::default()
    })
    .with_endpoint("obda", Arc::new(wf))
    .with_flight_recorder(flight_recorder());
    (svc, clock, chaos)
}

/// One shared flight recorder across every service this harness builds,
/// so a failing pass dumps the requests that led up to it regardless of
/// which service instance served them.
fn flight_recorder() -> Arc<FlightRecorder> {
    use std::sync::OnceLock;
    static RECORDER: OnceLock<Arc<FlightRecorder>> = OnceLock::new();
    Arc::clone(RECORDER.get_or_init(|| Arc::new(FlightRecorder::new(64))))
}

/// Write the flight-recorder tape next to the QA failure artifacts and
/// return the path for the panic message. Called only on a trichotomy
/// violation, right before the harness panics.
fn dump_flight_tape() -> String {
    let path = PathBuf::from("qa/failing/chaos_stress_flight.jsonl");
    match flight_recorder().dump_to_file(&path) {
        Ok(()) => format!("flight tape: {}", path.display()),
        Err(e) => format!("flight tape dump failed: {e}"),
    }
}

/// Fault-free reference answers, keyed by job name.
fn baseline(jobs: &[(String, String)]) -> HashMap<String, String> {
    let (svc, _clock, _chaos) = build_service(0, ChaosConfig::uniform(0.0));
    jobs.iter()
        .map(|(name, sparql)| {
            let out = svc.query("obda", sparql);
            let results = out
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("fault-free baseline {name}: {e}"));
            (name.clone(), results.to_json())
        })
        .collect()
}

/// Enforce the trichotomy for one outcome and reduce it to a comparable
/// `(code, degraded)` pair.
fn check(
    name: &str,
    out: &copernicus_app_lab::service::QueryOutcome,
    baseline: &HashMap<String, String>,
) -> (&'static str, bool) {
    match &out.result {
        Ok(results) => {
            // Data never changes under the test, so even a stale answer is
            // byte-identical to the fault-free run — and a fresh one must be.
            if results.to_json() != baseline[name] {
                panic!(
                    "{name}: results drifted under fault injection (degraded={}); {}",
                    out.degraded,
                    dump_flight_tape()
                );
            }
        }
        Err(CoreError::Unavailable { .. } | CoreError::Source(_) | CoreError::Timeout(_)) => {}
        Err(other) => panic!(
            "{name}: untyped failure escaped: {other}; {}",
            dump_flight_tape()
        ),
    }
    (out.code(), out.degraded)
}

/// One sequential pass: two rounds over the job mix, then
/// [`LAI_ROUNDS`] rounds of the LAI query alone, with the clock pushed
/// past the cache window before every round but the first, so each round
/// refetches (or stale-serves) instead of riding the warm cache. Returns
/// the outcomes and the faults injected.
fn run_pass(
    seed: u64,
    rate: f64,
    jobs: &[(String, String)],
    baseline: &HashMap<String, String>,
) -> (Vec<(&'static str, bool)>, ChaosTally) {
    let (svc, clock, chaos) = build_service(seed, ChaosConfig::uniform(rate));
    let lai = &jobs[jobs.len() - 1..]; // `jobs()` puts the LAI query last
    let rounds = [jobs, jobs]
        .into_iter()
        .chain(std::iter::repeat_n(lai, LAI_ROUNDS));
    let mut outcomes = Vec::new();
    for (round, round_jobs) in rounds.enumerate() {
        if round > 0 {
            clock.advance(Duration::from_secs(601));
        }
        for (name, sparql) in round_jobs {
            let out = svc.query("obda", sparql);
            outcomes.push(check(name, &out, baseline));
        }
    }
    (outcomes, chaos.injected())
}

#[test]
fn chaos_mix_holds_the_trichotomy_deterministically() {
    let jobs = jobs();
    let baseline = baseline(&jobs);
    for seed in seeds() {
        for rate in [0.10, 0.30] {
            let (first, injected) = run_pass(seed, rate, &jobs, &baseline);
            let (second, _) = run_pass(seed, rate, &jobs, &baseline);
            assert!(
                injected.total() > 0,
                "seed {seed} @ {rate}: chaos injected nothing — the suite is vacuous"
            );
            if first != second {
                panic!(
                    "seed {seed} @ {rate}: fault injection must replay deterministically\n\
                     first:  {first:?}\n second: {second:?}\n {}",
                    dump_flight_tape()
                );
            }
        }
    }
}

#[test]
fn concurrent_chaos_holds_the_trichotomy() {
    let jobs = jobs();
    let baseline = baseline(&jobs);
    let (svc, _clock, _chaos) = build_service(seeds()[0], ChaosConfig::uniform(0.30));
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let svc = &svc;
            let jobs = &jobs;
            let baseline = &baseline;
            scope.spawn(move || {
                for k in 0..6 {
                    let (name, sparql) = &jobs[(t * 5 + k * 3) % jobs.len()];
                    let out = svc.query("obda", sparql);
                    check(name, &out, baseline);
                }
            });
        }
    });
    assert_eq!(svc.load(), (0, 0), "all permits released");
}

#[test]
fn hard_outage_is_typed_and_observable() {
    // Every delivery is a connection reset: nothing is cached, so the LAI
    // query must come back `unavailable` — and the whole resilience
    // pipeline must be visible in the metrics snapshot.
    let config = ChaosConfig {
        transient_rate: 1.0,
        ..ChaosConfig::default()
    };
    let (svc, _clock, _chaos) = build_service(seeds()[0], config);
    let out = svc.query("obda", LAI_QUERY);
    assert_eq!(out.code(), "unavailable", "{:?}", out.result);
    assert!(!out.degraded, "failures are not degraded answers");
    assert!(matches!(
        out.result,
        Err(CoreError::Unavailable { ref dataset, retries }) if dataset == "lai_300m" && retries > 0
    ));

    let snapshot = copernicus_app_lab::obs::global().to_prometheus();
    assert!(
        snapshot.contains("applab_dap_retries_total"),
        "retries must be counted"
    );
    assert!(
        snapshot.contains("applab_dap_breaker_state"),
        "breaker state must be gauged"
    );
    assert!(
        snapshot.contains("applab_dap_faults_injected_total"),
        "injected faults must be counted"
    );
    assert!(
        snapshot
            .lines()
            .any(|l| l.starts_with("applab_service_outcomes_total") && l.contains("unavailable")),
        "the service must report the unavailable outcome"
    );
}

#[test]
fn retry_spans_surface_in_explain() {
    fn tree_contains(node: &SpanNode, name: &str) -> bool {
        node.name() == name || node.children.iter().any(|c| tree_contains(c, name))
    }
    // Find a seed where the first LAI fetch fails at least once but the
    // retry succeeds: the EXPLAIN profile must show the dap.retry span
    // nested under the request.
    let config = ChaosConfig {
        transient_rate: 0.45,
        ..ChaosConfig::default()
    };
    for seed in 0..64 {
        let (wf, _clock, _chaos) = build_workflow(seed, config.clone());
        if let Ok(explain) = wf.query_explained(LAI_QUERY) {
            assert!(!explain.results.is_empty());
            if tree_contains(&explain.profile, "dap.retry") {
                return;
            }
        }
    }
    panic!("no seed in 0..64 produced a retried-then-successful query");
}
