//! `applab-http`: the wire plane — a zero-heavy-dependency HTTP/1.1
//! server exposing an [`ApplabService`](applab_service::ApplabService)
//! over the
//! [W3C SPARQL Protocol](https://www.w3.org/TR/sparql11-protocol/).
//!
//! The paper's promise is that app developers reach Copernicus-derived
//! Linked Data over *standard web endpoints*; this crate is that
//! endpoint, hand-rolled on `std::net` (the workspace vendors no HTTP
//! stack):
//!
//! * **`GET /sparql?query=`** — URL-encoded query string, plus
//!   `/sparql/{endpoint}` to pick a named backend and `timeout=` (ms)
//!   for a per-request deadline;
//! * **`POST /sparql`** — `application/x-www-form-urlencoded`
//!   (`query=...`) and direct `application/sparql-query` bodies;
//! * **responses** — W3C SPARQL Results JSON. Small documents are
//!   materialized once and sent with an exact `Content-Length`; anything
//!   past one serializer flush window streams as `Transfer-Encoding:
//!   chunked` straight off [`QueryResults::write_json`]'s 8 KiB windows,
//!   so the service never holds a large response in one allocation;
//! * **`/metrics`** — the `applab-obs` registry in Prometheus text
//!   exposition format; **`/healthz`** — a liveness probe;
//! * **typed failures** — every [`CoreError`] maps through
//!   [`CoreError::http_status`] (single source of truth in
//!   `applab-core`) to a status plus a JSON body
//!   `{"error":{"code","status","message"}}`; wire-level violations
//!   (oversized head/body, bad framing) answer 4xx before any query
//!   runs.
//!
//! The server is an acceptor thread feeding a bounded handoff queue
//! drained by a fixed worker pool; each worker owns one connection
//! through its keep-alive lifetime (HTTP/1.1 persistent connections,
//! idle-timeout bounded). Requests are parsed with hard size limits and
//! socket read timeouts so a slow or hostile client costs one worker at
//! most one timeout.
//!
//! ```no_run
//! use applab_http::{HttpConfig, HttpServer};
//! use applab_service::{ApplabService, ServiceConfig};
//! use std::sync::Arc;
//!
//! let service = Arc::new(ApplabService::new(ServiceConfig::default()));
//! let server = HttpServer::bind("127.0.0.1:0", service, HttpConfig::default()).unwrap();
//! println!("serving on http://{}", server.local_addr());
//! // curl "http://$ADDR/sparql?query=SELECT%20..."
//! server.shutdown();
//! ```
//!
//! [`CoreError`]: applab_core::CoreError
//! [`CoreError::http_status`]: applab_core::CoreError::http_status
//! [`QueryResults::write_json`]: applab_sparql::QueryResults::write_json
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod chaos;
pub mod request;
pub mod response;
mod server;

pub use chaos::{ChaosListener, ChaosStream, SocketChaos};
pub use request::{Method, Request, RequestError};
pub use response::ChunkedWriter;
pub use server::{error_body, HttpServer};

use std::time::Duration;

/// Tuning knobs for [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Worker threads; each owns one connection at a time, so this is
    /// also the concurrent-connection ceiling (admission control on
    /// concurrent *queries* stays with
    /// [`ApplabService`](applab_service::ApplabService)).
    pub workers: usize,
    /// Accepted connections waiting for a worker; beyond this the
    /// acceptor sheds with a best-effort `503` + `Retry-After`.
    pub max_queued_connections: usize,
    /// Cap on the request line + headers, in bytes (`431` beyond).
    pub max_head_bytes: usize,
    /// Cap on a request body, in bytes (`413` beyond, enforced against
    /// the declared `Content-Length` before reading).
    pub max_body_bytes: usize,
    /// Socket read timeout: an idle keep-alive connection is closed
    /// after this long, and a stalled mid-request read answers `408`.
    pub keep_alive_timeout: Duration,
    /// Socket write timeout: a client that stops reading its response
    /// blocks a worker for at most this long per write before the
    /// connection is abandoned (and the in-flight query cancelled).
    pub write_deadline: Duration,
    /// How long [`HttpServer::shutdown`] waits for in-flight connections
    /// to drain before aborting the stragglers through their cancel
    /// tokens and socket shutdowns.
    pub drain_deadline: Duration,
    /// Endpoint served by bare `/sparql`; `None` routes to the first
    /// endpoint registered on the service. `/sparql/{name}` always
    /// addresses explicitly.
    pub default_endpoint: Option<String>,
    /// Seeded socket-level fault injection (tests/benches only); `None`
    /// serves every connection untouched.
    pub chaos: Option<SocketChaos>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 4,
            max_queued_connections: 64,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            keep_alive_timeout: Duration::from_secs(5),
            write_deadline: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            default_endpoint: None,
            chaos: None,
        }
    }
}
