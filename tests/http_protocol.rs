//! SPARQL Protocol conformance for the `applab-http` wire plane.
//!
//! One shared server (store + obda endpoints over the Paris fixture) is
//! exercised through real sockets: the three protocol bindings
//! (URL-encoded GET, form POST, direct `application/sparql-query` POST)
//! must return byte-identical W3C Results JSON, streamed chunked bodies
//! must de-chunk to exactly `to_json()`, and every failure class —
//! malformed query, oversized body, expired deadline, wrong media type,
//! unknown endpoint — must answer with its typed JSON error at the
//! mapped status.

use applab_qa::geographica_queries;
use applab_qa::httpload::{percent_encode, HttpClient};
use copernicus_app_lab::core::{MaterializedWorkflow, VirtualWorkflowBuilder};
use copernicus_app_lab::data::ParisFixture;
use copernicus_app_lab::http::{HttpConfig, HttpServer};
use copernicus_app_lab::service::{ApplabService, ServiceConfig};
use copernicus_app_lab::sparql::JSON_FLUSH_BYTES;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

struct Harness {
    addr: SocketAddr,
    service: Arc<ApplabService>,
    _server: HttpServer,
}

/// One server shared by every test in this file (tests run in parallel;
/// the worker pool serves them concurrently, which is itself coverage).
fn harness() -> &'static Harness {
    static HARNESS: OnceLock<Harness> = OnceLock::new();
    HARNESS.get_or_init(|| {
        let fixture = ParisFixture::generate(7, 12, 8);
        let tables = fixture.world.tables();
        let mut mat = MaterializedWorkflow::new();
        for (table, doc) in &tables {
            mat.load_table(table, doc).unwrap();
        }
        let mut builder = VirtualWorkflowBuilder::local();
        for (table, doc) in tables {
            builder.add_table(table);
            builder.add_mappings(doc).unwrap();
        }
        let service = Arc::new(
            ApplabService::new(ServiceConfig {
                max_in_flight: 4,
                max_queue: 64,
                queue_timeout: Duration::from_secs(60),
                ..ServiceConfig::default()
            })
            .with_endpoint("store", Arc::new(mat))
            .with_endpoint("obda", Arc::new(builder.seal().unwrap())),
        );
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service), HttpConfig::default())
            .expect("bind conformance server");
        Harness {
            addr: server.local_addr(),
            service,
            _server: server,
        }
    })
}

fn client() -> HttpClient {
    HttpClient::connect(harness().addr).expect("connect to conformance server")
}

/// Raw bytes in, full response text out (for requests the well-behaved
/// client refuses to produce). The server closes after wire errors, so
/// read-to-EOF is the framing.
fn raw_roundtrip(request: &[u8]) -> String {
    let mut stream = TcpStream::connect(harness().addr).unwrap();
    stream.write_all(request).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn reference_json(endpoint: &str, sparql: &str) -> String {
    harness()
        .service
        .query(endpoint, sparql)
        .result
        .expect("reference query succeeds")
        .to_json()
}

/// A query from the Geographica mix whose result document is the largest
/// (forces chunked streaming) and one whose document stays under one
/// flush window (forces fixed-length framing).
fn large_and_small_queries() -> (String, String) {
    let mut sized: Vec<(usize, String)> = geographica_queries()
        .into_iter()
        .map(|(_, q)| (reference_json("store", &q).len(), q))
        .collect();
    sized.sort_by_key(|(len, _)| *len);
    let (small_len, small) = sized.first().cloned().unwrap();
    let (large_len, large) = sized.last().cloned().unwrap();
    assert!(
        small_len < JSON_FLUSH_BYTES && large_len >= JSON_FLUSH_BYTES,
        "fixture must produce both framings (got {small_len} and {large_len} \
         around the {JSON_FLUSH_BYTES}-byte window)"
    );
    (large, small)
}

// ---------------------------------------------------------------------
// The three protocol bindings agree, byte for byte.
// ---------------------------------------------------------------------

#[test]
fn get_form_post_and_direct_post_are_byte_identical() {
    let sparql = &geographica_queries()[2].1; // Selection_Intersects_Small: quotes, spaces, ^^
    let expected = reference_json("store", sparql);
    let mut c = client();

    let get = c
        .get(&format!("/sparql?query={}", percent_encode(sparql)))
        .unwrap();
    assert_eq!(get.status, 200);
    assert_eq!(
        get.header("content-type"),
        Some("application/sparql-results+json")
    );
    assert_eq!(get.text(), expected);

    let form = c
        .post(
            "/sparql",
            "application/x-www-form-urlencoded",
            format!("query={}", percent_encode(sparql)).as_bytes(),
        )
        .unwrap();
    assert_eq!(form.status, 200);
    assert_eq!(form.text(), expected);

    let direct = c
        .post("/sparql", "application/sparql-query", sparql.as_bytes())
        .unwrap();
    assert_eq!(direct.status, 200);
    assert_eq!(direct.text(), expected);
}

#[test]
fn named_endpoint_path_selects_the_backend() {
    let sparql = &geographica_queries()[6].1; // aggregation: small, deterministic
    let mut c = client();
    for endpoint in ["store", "obda"] {
        let resp = c
            .get(&format!(
                "/sparql/{endpoint}?query={}",
                percent_encode(sparql)
            ))
            .unwrap();
        assert_eq!(resp.status, 200, "endpoint {endpoint}");
        assert_eq!(resp.text(), reference_json(endpoint, sparql));
    }
}

// ---------------------------------------------------------------------
// Framing: chunked streaming vs exact Content-Length.
// ---------------------------------------------------------------------

#[test]
fn large_results_stream_chunked_and_dechunk_to_to_json() {
    let (large, _) = large_and_small_queries();
    let expected = reference_json("store", &large);
    let resp = client()
        .get(&format!("/sparql?query={}", percent_encode(&large)))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.chunked,
        "a {}-byte document must stream chunked",
        expected.len()
    );
    assert!(resp.header("content-length").is_none());
    assert_eq!(resp.text(), expected, "de-chunked body != to_json()");
}

#[test]
fn small_results_get_exact_content_length() {
    let (_, small) = large_and_small_queries();
    let expected = reference_json("store", &small);
    let resp = client()
        .get(&format!("/sparql?query={}", percent_encode(&small)))
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(!resp.chunked);
    assert_eq!(
        resp.header("content-length"),
        Some(expected.len().to_string().as_str())
    );
    assert_eq!(resp.text(), expected);
}

// ---------------------------------------------------------------------
// Typed failures at mapped statuses.
// ---------------------------------------------------------------------

#[test]
fn malformed_query_is_400_with_parse_code() {
    let resp = client()
        .get(&format!(
            "/sparql?query={}",
            percent_encode("SELECT WHERE {{{ nonsense")
        ))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let body = resp.text();
    assert!(
        body.contains("\"code\":\"parse\"") && body.contains("\"status\":400"),
        "typed parse error body, got: {body}"
    );
}

#[test]
fn oversized_body_is_413_before_reading() {
    // Content-Length alone triggers the refusal; the body never needs
    // to be sent (the server must not wait for 2 MB that will not come).
    let response = raw_roundtrip(
        b"POST /sparql HTTP/1.1\r\nHost: t\r\n\
          Content-Type: application/sparql-query\r\nContent-Length: 2000000\r\n\r\n",
    );
    assert!(response.starts_with("HTTP/1.1 413 "), "got: {response}");
    assert!(response.contains("\"code\":\"body_too_large\""));
}

#[test]
fn expired_deadline_maps_to_retryable_5xx() {
    let sparql = &geographica_queries()[5].1; // the spatial join: slowest in the mix
    let resp = client()
        .get(&format!(
            "/sparql?query={}&timeout=0",
            percent_encode(sparql)
        ))
        .unwrap();
    assert!(
        resp.status == 503 || resp.status == 504,
        "expired deadline must be 503/504, got {}",
        resp.status
    );
    let body = resp.text();
    assert!(
        body.contains("\"code\":\"timeout\"") || body.contains("\"code\":\"cancelled\""),
        "typed deadline error, got: {body}"
    );
}

#[test]
fn bad_timeout_value_is_400() {
    let resp = client()
        .get("/sparql?query=ASK%20%7B%7D&timeout=soon")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("\"code\":\"bad_request\""));
}

#[test]
fn missing_query_unknown_endpoint_and_wrong_media_type() {
    let mut c = client();

    let missing = c.get("/sparql").unwrap();
    assert_eq!(missing.status, 400);
    assert!(missing.text().contains("\"code\":\"missing_query\""));

    let unknown = c.get("/sparql/nope?query=ASK%20%7B%7D").unwrap();
    assert_eq!(unknown.status, 404);
    assert!(unknown.text().contains("\"code\":\"unknown_endpoint\""));

    let csv = c.post("/sparql", "text/csv", b"query").unwrap();
    assert_eq!(csv.status, 415);
    assert!(csv.text().contains("\"code\":\"unsupported_media_type\""));

    let lost = c.get("/no/such/route").unwrap();
    assert_eq!(lost.status, 404);
    assert!(lost.text().contains("\"code\":\"not_found\""));
}

#[test]
fn wire_level_violations_get_wire_level_statuses() {
    let unsupported = raw_roundtrip(b"GET /healthz HTTP/2.0\r\nHost: t\r\n\r\n");
    assert!(
        unsupported.starts_with("HTTP/1.1 505 "),
        "got: {unsupported}"
    );

    let bad_method = raw_roundtrip(b"BREW /coffee HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(bad_method.starts_with("HTTP/1.1 405 "), "got: {bad_method}");
    assert!(bad_method.contains("Allow: GET, HEAD, POST"));

    let no_length = raw_roundtrip(
        b"POST /sparql HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\n\r\n",
    );
    assert!(no_length.starts_with("HTTP/1.1 411 "), "got: {no_length}");

    let oversized_head = {
        let mut req = b"GET /sparql?query=ASK HTTP/1.1\r\nHost: t\r\n".to_vec();
        req.extend_from_slice(format!("X-Padding: {}\r\n\r\n", "y".repeat(9000)).as_bytes());
        raw_roundtrip(&req)
    };
    assert!(
        oversized_head.starts_with("HTTP/1.1 431 "),
        "got: {oversized_head}"
    );
}

// ---------------------------------------------------------------------
// Operational surface: keep-alive, /healthz, /metrics.
// ---------------------------------------------------------------------

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let sparql = &geographica_queries()[6].1;
    let expected = reference_json("store", sparql);
    let mut c = client();
    for _ in 0..3 {
        let health = c.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(health.text(), "ok\n");
        let query = c
            .get(&format!("/sparql?query={}", percent_encode(sparql)))
            .unwrap();
        assert_eq!(query.status, 200);
        assert_eq!(query.text(), expected);
    }
}

#[test]
fn head_healthz_has_no_body() {
    let mut c = client();
    let resp = c.request("HEAD", "/healthz", None, &[]).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-length"), Some("3"));
    assert!(resp.body.is_empty());
    // The connection must still be usable (no stray body bytes queued).
    assert_eq!(c.get("/healthz").unwrap().text(), "ok\n");
}

#[test]
fn readyz_reports_ready_while_running() {
    let mut c = client();
    let resp = c.get("/readyz").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "ready\n");

    let post = c.post("/readyz", "text/plain", b"x").unwrap();
    assert_eq!(post.status, 405);
    assert_eq!(post.header("allow"), Some("GET, HEAD"));
}

#[test]
fn metrics_speak_prometheus_text_exposition() {
    let mut c = client();
    // At least one query beforehand so the wire counters exist.
    c.get("/sparql?query=ASK%20%7B%7D").unwrap();
    let resp = c.get("/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    let body = resp.text();
    assert!(
        body.contains("applab_http_requests_total"),
        "wire metrics must be exported, got:\n{body}"
    );

    let post = c.post("/metrics", "text/plain", b"x").unwrap();
    assert_eq!(post.status, 405);
    assert_eq!(post.header("allow"), Some("GET, HEAD"));
}
