//! The metric tables: name, unit, direction and — for end-to-end metrics —
//! the regression bound. `BENCHMARK.json` at the repository root is
//! `--print-contract`'s output, and a self-test keeps the two equal.

use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change is a regression.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// Seconds one run measures (`--seconds`, and `run_seconds` in the
/// contract): the closed loop of a plain run; a traced run splits it into
/// its four phases.
pub const RUN_SECONDS: u64 = 20;

/// End-to-end metrics: what a user of the endpoint, or whoever pays for
/// the host, would see. Every workload reports every one of them; README
/// "End-to-end metrics" says what each means on `ingest`, whose operation
/// is one ingest job rather than one HTTP request.
///
/// The timed metrics have the largest bound the contract allows: on the
/// shared reference host ten runs of one build spread (distance between
/// the quartiles over the median) by 4 to 20 % of their median on an
/// ordinary evening and by up to 30 % in its busiest hour (README "A/A"
/// and "Bounds"). The issue asked for at most 10 %; this host does not
/// resolve that, and the alternative the issue names, demoting what cannot
/// repeat, would leave no timed metric. `rss_peak_mb`, which the host does
/// not move, spreads by 0.3 to 6 %.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, Some(0.25)),
        def("throughput_rps", "req/s", Higher, Some(0.25)),
        def("latency_p50_ms", "ms", Lower, Some(0.25)),
        def("latency_p95_ms", "ms", Lower, Some(0.25)),
        def("cpu_ms_per_req", "ms", Lower, Some(0.25)),
        def("rss_peak_mb", "MB", Lower, Some(0.10)),
    ]
}

/// Per-layer metrics, from the traced run. A metric a workload does not
/// measure reads 0 on its result line (that format has no "absent") and is
/// named on the line before it; `--all` leaves it out of the table and
/// writes `null`.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        def("http.read_request_us", "us", Lower, None),
        def("http.write_response_us", "us", Lower, None),
        def("http.wire_residual_us", "us", Lower, None),
        def("http.bytes_out_per_req", "bytes", Lower, None),
        def("service.overhead_us", "us", Lower, None),
        def("service.queue_wait_p95_us", "us", Lower, None),
        def("sparql.parse_us", "us", Lower, None),
        def("sparql.plan_us", "us", Lower, None),
        def("sparql.eval_ms", "ms", Lower, None),
        def("sparql.eval_share", "ratio", Lower, None),
        def("sparql.eval_share_p50", "ratio", Lower, None),
        def("sparql.serialize_ms", "ms", Lower, None),
        def("sparql.serialize_mb_s", "MB/s", Higher, None),
        def("sparql.rows_scanned_per_row_out", "ratio", Lower, None),
        def("sparql.joins_per_req", "count", Lower, None),
        def("sparql.filter_pass_ratio", "ratio", Higher, None),
        def("sparql.pruned_rows_per_req", "count", Higher, None),
        def("sparql.peak_batch_kb", "kB", Lower, None),
        def("store.insert_ktriples_s", "ktriples/s", Higher, None),
        def("store.finish_load_s", "s", Lower, None),
        def("store.bytes_per_triple", "bytes", Lower, None),
        def("store.scan_mrows_s", "Mrows/s", Higher, None),
        def("store.spatial_probe_us", "us", Lower, None),
        def("geo.parse_wkt_ns", "ns", Lower, None),
        def("geo.intersects_ns", "ns", Lower, None),
        def("geo.rtree_query_us", "us", Lower, None),
        def("geotriples.process_ktriples_s", "ktriples/s", Higher, None),
        def("geotriples.parse_mappings_us", "us", Lower, None),
        def("obda.eval_warm_ms", "ms", Lower, None),
        def("obda.source_queries_per_req", "count", Lower, None),
        def("obda.pushdowns_per_req", "count", Higher, None),
        def("obda.vtable_hit_ratio", "ratio", Higher, None),
        def("obda.share", "ratio", Lower, None),
        def("dap.get_data_ms", "ms", Lower, None),
        def("dap.round_trips_per_req", "count", Lower, None),
        def("dap.bytes_per_req", "bytes", Lower, None),
        def("dap.wan_charged_ms_per_req", "ms", Lower, None),
        def("ingest.ktriples_s", "ktriples/s", Higher, None),
        def("ingest.store_geotriples_share", "ratio", Lower, None),
        def("ingest.scale_ktriples_s", "ktriples/s", Higher, None),
        def("obs.tracing_overhead_pct", "%", Lower, None),
        def("client.latency_p99_ms", "ms", Lower, None),
        def("client.open_latency_p50_ms", "ms", Lower, None),
        def("client.open_latency_p95_ms", "ms", Lower, None),
        def("client.sched_lag_p95_us", "us", Lower, None),
        def("setup.oracle_s", "s", Lower, None),
        def("setup.build_s", "s", Lower, None),
        def("setup.warmup_s", "s", Lower, None),
        def("trace.accounted_share", "ratio", Higher, None),
        def("trace.requests", "count", Higher, None),
    ];
    for workload in Workload::ALL {
        for class in workload.classes() {
            defs.push(def(&format!("class.{class}.p50_ms"), "ms", Lower, None));
        }
    }
    defs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = std::collections::HashSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(is_name(&d.name), "bad name {:?}", d.name);
            assert!(is_unit(d.unit), "bad unit {:?}", d.unit);
            assert!(seen.insert(d.name.clone()), "{} is used twice", d.name);
        }
        for d in &e2e {
            let bound = d.bound.expect("end-to-end metrics have bounds");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", d.name);
        }
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            e2e.iter().all(|d| d.bound.unwrap() <= setup.bound.unwrap()),
            "setup_s has the largest bound"
        );
        assert!(layers.iter().all(|d| d.bound.is_none()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
