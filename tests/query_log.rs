//! End-to-end checks for the production observability plane: per-query
//! resource accounting surfaced on `QueryOutcome::stats` for both
//! backends, the structured query log (JSONL round-trip, reconciliation
//! against `applab_service_outcomes_total`, deterministic sampling),
//! and the flight recorder attached to a live service.

use applab_qa::geographica_queries;
use copernicus_app_lab::core::{MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::dap::clock::ManualClock;
use copernicus_app_lab::dap::transport::Local;
use copernicus_app_lab::data::{grids, mappings, ParisFixture};
use copernicus_app_lab::obs::querylog::{QueryLogRecord, SamplingPolicy};
use copernicus_app_lab::obs::{FlightRecorder, QueryLog, VecSink};
use copernicus_app_lab::service::{ApplabService, ServiceConfig};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

const LAI_QUERY: &str = "SELECT DISTINCT ?s ?wkt ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }";

/// Store + virtual endpoints over one service; the virtual side includes
/// the OPeNDAP-backed LAI product so queries exercise the remote DAP
/// path. Endpoint names are parameterized so each test owns distinct
/// `applab_service_outcomes_total` label series in the global registry.
fn build_service(store_name: &str, obda_name: &str) -> ApplabService {
    let fixture = ParisFixture::generate(5, 12, 8);
    let tables = fixture.world.tables();

    let mut mat = MaterializedWorkflow::new();
    for (table, doc) in &tables {
        mat.load_table(table, doc).unwrap();
    }

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
    let mut b = VirtualWorkflowBuilder::with_transport_and_clock(
        Arc::new(Local::new()),
        ManualClock::new(),
    );
    b.publish(lai);
    for (table, doc) in tables {
        b.add_table(table);
        b.add_mappings(doc).unwrap();
    }
    b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
    b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
        .unwrap();
    let virt = b.seal().unwrap();

    ApplabService::new(ServiceConfig::default())
        .with_endpoint(store_name, Arc::new(mat))
        .with_endpoint(obda_name, Arc::new(virt))
}

/// The acceptance check for the accounting tentpole: stats populated on
/// both backends, rows-scanned nonzero on both, DAP bytes nonzero on
/// the remote path — plus every emitted JSONL line parses back and the
/// per-(endpoint, code) line counts reconcile with the
/// `applab_service_outcomes_total` counters.
#[test]
fn stats_and_query_log_cover_both_backends() {
    let (sink, lines) = VecSink::new();
    let log = Arc::new(QueryLog::new(sink, SamplingPolicy::always(), 4096));
    let recorder = Arc::new(FlightRecorder::new(16));
    let svc = build_service("store_ql", "obda_ql")
        .with_query_log(Arc::clone(&log))
        .with_flight_recorder(Arc::clone(&recorder));

    let mut served = 0u64;
    for (name, sparql) in geographica_queries() {
        let out = svc.query("store_ql", &sparql);
        assert_eq!(out.code(), "ok", "{name}");
        assert!(
            out.stats.rows_scanned > 0,
            "{name}: store-backed query scanned no rows"
        );
        served += 1;
    }
    let out = svc.query("obda_ql", LAI_QUERY);
    assert_eq!(out.code(), "ok");
    assert!(
        out.stats.rows_scanned > 0,
        "virtual backend scanned no rows"
    );
    assert!(
        out.stats.dap_bytes > 0 && out.stats.dap_round_trips > 0,
        "LAI query must fetch over DAP during evaluation: {:?}",
        out.stats
    );
    assert!(out.stats.source_queries > 0, "OBDA source queries counted");
    served += 1;
    // A failing query is always logged (never sampled out) and carries
    // its typed code.
    let bad = svc.query("store_ql", "SELECT WHERE this is not sparql");
    assert_eq!(bad.code(), "parse");
    served += 1;

    log.flush();
    let lines = lines.lock().expect("lines");
    assert_eq!(lines.len() as u64, served, "rate 1.0 logs every outcome");
    assert_eq!(log.dropped(), 0);

    // Every line parses, round-trips, and reconciles with the outcome
    // counters for its (endpoint, code) series.
    let mut by_label: HashMap<(String, String), u64> = HashMap::new();
    for line in lines.iter() {
        let rec = QueryLogRecord::from_json(line)
            .unwrap_or_else(|e| panic!("unparseable query-log line ({e}): {line}"));
        assert_eq!(
            QueryLogRecord::from_json(&rec.to_json()).expect("re-parse"),
            rec,
            "record did not round-trip"
        );
        assert!(!rec.query.is_empty());
        *by_label
            .entry((rec.endpoint.clone(), rec.code.clone()))
            .or_default() += 1;
    }
    for ((endpoint, code), n) in &by_label {
        let counted = copernicus_app_lab::obs::global()
            .counter_with(
                "applab_service_outcomes_total",
                &[("endpoint", endpoint), ("code", code)],
            )
            .get();
        assert_eq!(
            counted, *n,
            "outcomes counter for ({endpoint}, {code}) disagrees with the log"
        );
    }

    // The flight recorder kept the most recent records, unsampled.
    let tape = recorder.dump();
    assert_eq!(tape.len(), 16.min(served as usize));
    assert_eq!(tape.last().expect("nonempty").code, "parse");
    assert_eq!(recorder.recorded(), served);
}

/// EXPLAIN carries the same accounting on both facades.
#[test]
fn explain_surfaces_query_stats() {
    let fixture = ParisFixture::generate(5, 12, 8);
    let mut mat = MaterializedWorkflow::new();
    mat.load_table(&fixture.world.osm_table(), mappings::OSM_MAPPING)
        .unwrap();
    let explained = mat
        .query_explained("SELECT ?s ?wkt WHERE { ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }")
        .unwrap();
    assert!(explained.stats.rows_scanned > 0);
    assert!(explained.report().contains("rows_scanned="));
    assert!(explained.to_json().contains("\"rows_scanned\""));
}

/// The sampled keep/drop sequence is a pure function of the seed: two
/// identical request sequences against two same-seed logs keep exactly
/// the same records.
#[test]
fn sampling_is_deterministic_across_identical_runs() {
    let kept_seqs = |seed: u64, store: &str, obda: &str| -> Vec<u64> {
        let (sink, lines) = VecSink::new();
        let log = Arc::new(QueryLog::new(
            sink,
            SamplingPolicy {
                ok_sample_rate: 0.5,
                slow_threshold_ns: None,
                seed,
            },
            4096,
        ));
        let svc = build_service(store, obda).with_query_log(Arc::clone(&log));
        for _ in 0..4 {
            for (_, sparql) in geographica_queries() {
                assert!(svc.query(store, &sparql).is_ok());
            }
        }
        log.flush();
        let lines = lines.lock().expect("lines");
        lines
            .iter()
            .map(|l| QueryLogRecord::from_json(l).expect("parse").seq)
            .collect()
    };
    let a = kept_seqs(11, "store_da", "obda_da");
    let b = kept_seqs(11, "store_db", "obda_db");
    assert_eq!(a, b, "same seed must keep the same request positions");
    assert!(!a.is_empty(), "rate 0.5 kept nothing — sampling broken");
    let c = kept_seqs(12, "store_dc", "obda_dc");
    assert_ne!(a, c, "different seeds should diverge");
}
