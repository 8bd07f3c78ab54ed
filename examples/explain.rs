//! EXPLAIN/profiling across both workflows (the `applab-obs` span trees).
//!
//! ```text
//! cargo run --release --example explain
//! ```
//!
//! Builds the materialized (Strabon-like store) and virtual
//! (Ontop-spatial) workflows over the same synthetic Paris tables, then
//! runs all seven mini-Geographica query classes through
//! `query_explained` on both backends. For each query it prints the
//! per-stage span tree — parse/scan/join/filter/project timings with
//! build/probe cardinalities — and asserts the two backends agree on the
//! row counts. The scan spans carry the cost-based plan: `est_rows` (the
//! statistics estimate) next to `rows` (what the scan produced), the
//! chosen access path, and `pruned_rows` for the build-side Bloom/min-max
//! filters. On the spatial-join class it also asserts, on both backends,
//! that the parks and the green areas met in a `kind=spatial` join and
//! that the FILTER saw only its envelope candidates. Ends with the
//! Prometheus rendering of the metrics the run accumulated.

use applab_qa::geographica_queries;
use copernicus_app_lab::core::{
    Explain, MaterializedWorkflow, QueryEndpoint, VirtualWorkflowBuilder,
};
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::sparql::QueryResults;

fn rows(r: &QueryResults) -> usize {
    match r {
        QueryResults::Solutions { rows, .. } => rows.len(),
        _ => 0,
    }
}

/// The parks and the green areas are two components linked only by the
/// FILTER: they must meet in a spatial join, and the FILTER must see its
/// envelope candidates, not the cross product.
fn assert_spatial_join(backend: &str, explain: &Explain) {
    let mut joins = Vec::new();
    explain.profile.find_all("join", &mut joins);
    let join = joins
        .iter()
        .find(|j| j.field("kind").is_some_and(|k| k.to_string() == "spatial"))
        .unwrap_or_else(|| panic!("{backend}: no spatial join\n{}", explain.report()));
    let count = |k: &str| {
        join.field(k)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("{backend}: the spatial join has no {k}="))
    };
    let (probe, build, candidates) = (count("probe"), count("build"), count("candidates"));
    assert_eq!(explain.stats.filter_rows_in, candidates, "{backend}");
    assert!(
        candidates < probe * build,
        "{backend}: {candidates} candidates of {probe} x {build}"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fixture = ParisFixture::generate(2019, 20, 8);
    let tables = fixture.world.tables();

    // Left path: materialize through GeoTriples into the store.
    let mut mat = MaterializedWorkflow::new();
    for (table, doc) in &tables {
        mat.load_table(table, doc)?;
    }
    println!("materialized {} triples", mat.len());

    // Right path: the same tables behind the OBDA engine. The builder
    // accumulates configuration; `seal()` compiles the virtual graph into
    // a shareable query endpoint.
    let mut builder = VirtualWorkflowBuilder::local();
    for (table, doc) in tables {
        builder.add_table(table);
        builder.add_mappings(doc)?;
    }
    let virt = builder.seal()?;

    // Both workflows behind the uniform endpoint trait, as the service
    // sees them.
    let store_ep: &dyn QueryEndpoint = &mat;
    let obda_ep: &dyn QueryEndpoint = &virt;

    for (name, sparql) in geographica_queries() {
        let store = store_ep.query_explained(&sparql)?;
        let obda = obda_ep.query_explained(&sparql)?;
        assert_eq!(
            rows(&store.results),
            rows(&obda.results),
            "{name}: store and obda backends disagree"
        );
        if name == "Join_Parks_LandCover" {
            for (backend, explain) in [("store", &store), ("obda", &obda)] {
                assert_spatial_join(backend, explain);
            }
        }
        println!(
            "\n=== {name} ({} rows) ===\n--- store ({:.3} ms) ---\n{}--- obda ({:.3} ms) ---\n{}",
            rows(&store.results),
            store.total_duration_ns() as f64 / 1e6,
            store.report(),
            obda.total_duration_ns() as f64 / 1e6,
            obda.report(),
        );
    }

    println!("\n=== metrics after the run ===");
    println!("{}", copernicus_app_lab::obs::global().to_prometheus());
    Ok(())
}
