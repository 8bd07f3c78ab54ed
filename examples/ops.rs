//! Operating the App Lab service: per-query accounting, the structured
//! query log, the flight recorder, and SLO quantiles.
//!
//! ```text
//! cargo run --release --example ops
//! ```
//!
//! Stands up an `ApplabService` over both workflows with a rate-1.0
//! JSONL query log and a flight recorder attached, serves the
//! mini-Geographica mix plus a failing request, then prints what an
//! operator would look at: a few query-log lines, the per-endpoint SLO
//! table derived from the service's own histograms, the resource
//! accounting of one outcome, and the flight-recorder tape a crash
//! artifact would contain.

use applab_qa::geographica_queries;
use copernicus_app_lab::core::{MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::obs::{FlightRecorder, QueryLog, SamplingPolicy, VecSink};
use copernicus_app_lab::service::{ApplabService, ServiceConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fixture = ParisFixture::generate(2019, 16, 8);
    let tables = fixture.world.tables();
    let mut mat = MaterializedWorkflow::new();
    let mut builder = VirtualWorkflowBuilder::local();
    for (table, doc) in tables {
        mat.load_table(&table, doc)?;
        builder.add_table(table);
        builder.add_mappings(doc)?;
    }

    // In production the sink would be a `WriterSink` over an append-only
    // file; the in-memory sink lets this example print the lines.
    let (sink, lines) = VecSink::new();
    let log = Arc::new(QueryLog::new(sink, SamplingPolicy::always(), 4096));
    let recorder = Arc::new(FlightRecorder::new(8));
    let service = ApplabService::new(ServiceConfig::default())
        .with_endpoint("store", Arc::new(mat))
        .with_endpoint("obda", Arc::new(builder.seal()?))
        .with_query_log(Arc::clone(&log))
        .with_flight_recorder(Arc::clone(&recorder));

    for (_, sparql) in geographica_queries() {
        assert!(service.query("store", &sparql).is_ok());
        assert!(service.query("obda", &sparql).is_ok());
    }
    // One failing request: always logged, never sampled out.
    let bad = service.query("store", "SELECT WHERE broken");
    assert_eq!(bad.code(), "parse");

    log.flush();
    let lines = lines.lock().expect("sink lines");
    println!("── query log (first 3 of {} JSONL lines) ──", lines.len());
    for line in lines.iter().take(3) {
        println!("{line}");
    }

    println!("\n── SLO report (per endpoint, from the service histograms) ──");
    let slo = copernicus_app_lab::obs::global().slo_report("applab_service_query_seconds");
    print!("{}", slo.render());

    println!("\n── resource accounting of the last ok outcome ──");
    let out = service.query(
        "obda",
        "SELECT ?s ?wkt WHERE { ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
    );
    println!("{}", out.stats.to_json());

    println!(
        "\n── flight recorder (last {} requests, unsampled) ──",
        recorder.capacity()
    );
    for rec in recorder.dump() {
        println!(
            "  seq={} endpoint={} code={} elapsed={}us rows_scanned={}",
            rec.seq,
            rec.endpoint,
            rec.code,
            rec.elapsed_ns / 1_000,
            rec.stats.rows_scanned
        );
    }
    Ok(())
}
