//! Experiment B4: the OPeNDAP adapter's cache window `w`.
//!
//! Paper claim C4 (Section 3.2): "results of an OPeNDAP call get cached
//! every \[w\] minutes. If a query arrives ... within this time window, the
//! cached results can be used directly, eliminating the cost of performing
//! another call to the OPeNDAP server."
//!
//! Sweep w against Poisson query arrivals and report the fraction of
//! OPeNDAP calls eliminated. For arrivals with rate λ and window w the
//! expected saving is ≈ 1 − 1/(λw + 1).

use applab_bench::{poisson_arrivals, print_table};
use applab_dap::clock::ManualClock;
use applab_dap::server::grid_dataset;
use applab_dap::transport::Local;
use applab_dap::{DapClient, DapServer};
use applab_obda::vtable::{OpendapTable, Pushdown, VirtualTable};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let n_queries = 400;
    let server = Arc::new(DapServer::new());
    server.publish(grid_dataset(
        "lai_300m",
        &[0.0, 864_000.0],
        &(0..12).map(|i| 48.0 + i as f64 * 0.02).collect::<Vec<_>>(),
        &(0..12).map(|i| 2.0 + i as f64 * 0.02).collect::<Vec<_>>(),
        |t, la, lo| (t + la + lo) as f64,
    ));

    let mut rows = Vec::new();
    for mean_interval in [5.0f64, 60.0] {
        let arrivals = poisson_arrivals(7, n_queries, mean_interval);
        for w_secs in [0u64, 10, 60, 600, 3600] {
            let clock = ManualClock::new();
            let client = Arc::new(DapClient::new(server.clone(), Arc::new(Local::new())));
            let vt = OpendapTable::new(
                client.clone(),
                "lai_300m",
                "LAI",
                Duration::from_secs(w_secs),
                clock.clone(),
            );
            for &at in &arrivals {
                clock.set(Duration::from_secs_f64(at));
                let _ = vt.scan(&Pushdown::all()).expect("fetch");
            }
            // Each uncached scan costs 2 round trips (data + DAS).
            let calls = client.round_trips() / 2;
            let saved = 1.0 - calls as f64 / n_queries as f64;
            let lambda = 1.0 / mean_interval;
            let predicted = 1.0 - 1.0 / (lambda * w_secs as f64 + 1.0);
            rows.push(vec![
                format!("{mean_interval:.0}"),
                format!("{w_secs}"),
                format!("{calls}"),
                format!("{:.1}%", saved * 100.0),
                format!("{:.1}%", predicted * 100.0),
            ]);
        }
    }
    print_table(
        &format!("B4: cache window sweep ({n_queries} identical OPeNDAP calls, Poisson arrivals)"),
        &[
            "mean arrival interval (s)",
            "window w (s)",
            "server calls",
            "calls eliminated",
            "predicted 1-1/(λw+1)",
        ],
        &rows,
    );

    applab_bench::dump_metrics("cache");
}
