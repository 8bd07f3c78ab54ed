//! Serve the App Lab SPARQL endpoint over HTTP until killed.
//!
//! ```text
//! cargo run --release --example serve -- 127.0.0.1:3030
//! ```
//!
//! Materializes the 12-cell Paris fixture through GeoTriples into one
//! `store` endpoint and binds the `applab-http` server to the address
//! given as the only argument (default `127.0.0.1:0`, any free port).
//! Once it prints `serving on http://…`, `/healthz`, `/sparql` (GET and
//! both POST forms) and `/metrics` answer until the process is killed.

use copernicus_app_lab::core::MaterializedWorkflow;
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::http::{HttpConfig, HttpServer};
use copernicus_app_lab::service::{ApplabService, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let fixture = ParisFixture::generate(2019, 12, 8);
    let mut mat = MaterializedWorkflow::new();
    for (table, doc) in fixture.world.tables() {
        mat.load_table(&table, doc)?;
    }
    let service = ApplabService::new(ServiceConfig {
        max_in_flight: 8,
        max_queue: 64,
        queue_timeout: Duration::from_secs(30),
        ..ServiceConfig::default()
    })
    .with_endpoint("store", Arc::new(mat));
    let server = HttpServer::bind(addr.as_str(), Arc::new(service), HttpConfig::default())?;
    println!("serving on http://{}", server.local_addr());
    loop {
        std::thread::park();
    }
}
