//! Every call into the product goes through this file, and only through
//! the symbols listed in `benchmark/README.md` ("Product surface"). The
//! rest of the benchmark sees plain numbers and the opaque wrappers
//! defined here, so a later change that renames or moves a product symbol
//! has one place to look at — and should keep this file compiling as it is.
//!
//! Functions here do the call and nothing else; the callers time them.

use crate::oracle::{Answer, RowHasher};
use crate::queries::Viewport;
use applab_core::{MaterializedWorkflow, QueryEndpoint, VirtualWorkflow, VirtualWorkflowBuilder};
use applab_dap::clock::ManualClock;
use applab_dap::transport::Transport;
use applab_dap::{Constraint, SimulatedWan};
use applab_data::{grids, mappings, ParisFixture};
use applab_geo::{Envelope, Geometry, RTree};
use applab_geotriples::{Mapping, TabularSource, Value};
use applab_http::{HttpConfig, HttpServer};
use applab_rdf::{Graph, NamedNode, Term};
use applab_service::{ApplabService, QueryRequest, ServiceConfig};
use applab_sparql::{GraphSource, Query, QueryResults};
use applab_store::SpatioTemporalStore;
use std::io::{self, BufReader, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------
// Fixture (`data`, `geotriples`)
// ---------------------------------------------------------------------

/// Name the LAI product is published under.
const LAI_DATASET: &str = "lai_300m";
/// LAI grid: 32 × 32 cells × 6 monthly steps = 6,144 observations.
const LAI_RESOLUTION: usize = 32;
const LAI_STEPS: i64 = 6;
/// The `opendap` virtual table keeps a fetched product this long.
pub const LAI_WINDOW: Duration = Duration::from_secs(600);

/// The synthetic Paris region: four vector tables with their GeoTriples
/// mapping documents, and the world they were exported from.
pub struct Fixture {
    paris: ParisFixture,
    tables: Vec<(TabularSource, &'static str)>,
}

impl Fixture {
    /// `cells` × `cells` land-cover grid; 100 gives 109,532 triples.
    pub fn generate(seed: u64, cells: usize) -> Fixture {
        // The fixture's own LAI product is not used (`seal_virtual`
        // makes the one it publishes), so it is generated at the smallest
        // resolution.
        let paris = ParisFixture::generate(seed, cells, 2);
        let world = &paris.world;
        let tables = vec![
            (world.osm_table(), mappings::OSM_MAPPING),
            (world.gadm_table(), mappings::GADM_MAPPING),
            (world.corine_table(), mappings::CORINE_MAPPING),
            (world.urban_atlas_table(), mappings::URBAN_ATLAS_MAPPING),
        ];
        Fixture { paris, tables }
    }

    /// WKT text of every CORINE area polygon (for the `geo` unit costs).
    pub fn corine_wkts(&self) -> Vec<String> {
        self.wkts_of(2)
    }

    /// WKT text of every OSM park/forest/industrial polygon.
    pub fn poi_wkts(&self) -> Vec<String> {
        self.wkts_of(0)
    }

    fn wkts_of(&self, table: usize) -> Vec<String> {
        self.tables[table]
            .0
            .rows
            .iter()
            .filter_map(|row| match row.get("geometry") {
                Some(Value::Geometry(g)) => Some(applab_geo::write_wkt(g)),
                _ => None,
            })
            .collect()
    }

    /// The four tables transformed to RDF one mapping at a time on one
    /// thread, into a plain [`Graph`]: the data the oracle answers from.
    pub fn oracle_graph(&self) -> OracleGraph {
        let mut graph = Graph::new();
        for (table, doc) in &self.tables {
            for mapping in applab_geotriples::parse_mappings(doc).expect("fixture mapping parses") {
                graph.extend_from(&applab_geotriples::process(&mapping, table));
            }
        }
        OracleGraph(graph)
    }
}

// ---------------------------------------------------------------------
// Oracle: the evaluator over a linear-scan `Graph`
// ---------------------------------------------------------------------

/// An independent engine for the oracle: `applab_rdf::Graph` answers
/// patterns by linear scan — no dictionary, no permutation indexes, no
/// R-tree, no statistics, no id-level joins. (`applab_store::NaiveStore`
/// is the same idea; `Graph` is used because ROADMAP schedules `naive.rs`
/// to move, and this file must keep compiling.)
pub struct OracleGraph(Graph);

impl OracleGraph {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn answer(&self, sparql: &str) -> Result<Answer, String> {
        let query = applab_sparql::parse_query(sparql).map_err(|e| e.to_string())?;
        let results = applab_sparql::evaluate(&self.0, &query).map_err(|e| e.to_string())?;
        Ok(answer_of(&results))
    }

    /// IRIs of the subjects typed `class_iri`, in graph order.
    pub fn instances_of(&self, class_iri: &str) -> Vec<String> {
        let class = NamedNode::new(class_iri);
        self.0
            .instances_of(&class)
            .filter_map(|s| s.as_named().map(|n| n.as_str().to_string()))
            .collect()
    }
}

fn answer_of(results: &QueryResults) -> Answer {
    if let Some(b) = results.as_bool() {
        return Answer::Boolean(b);
    }
    let variables = results.variables();
    let hashes = results
        .rows()
        .iter()
        .map(|row| {
            let mut hasher = RowHasher::new();
            for (var, term) in variables.iter().zip(&row.values) {
                match term {
                    None => {}
                    Some(Term::Named(n)) => hasher.bind(var, "uri", n.as_str(), ""),
                    Some(Term::Blank(_)) => hasher.bind(var, "bnode", "", ""),
                    Some(Term::Literal(l)) => {
                        let qualifier = match l.language() {
                            Some(lang) => format!("@{lang}"),
                            None if l.datatype().as_str() == applab_rdf::vocab::xsd::STRING => {
                                String::new()
                            }
                            None => l.datatype().as_str().to_string(),
                        };
                        hasher.bind(var, "literal", l.value(), &qualifier);
                    }
                }
            }
            hasher.finish()
        })
        .collect();
    Answer::from_row_hashes(hashes)
}

// ---------------------------------------------------------------------
// Materialized workflow (`core`, `store`, `geotriples`)
// ---------------------------------------------------------------------

/// The product's write path for the four tables: per table
/// `parse_mappings` → `process_parallel` → insert → `finish_load`.
pub fn load_materialized(fixture: &Fixture) -> Result<MaterializedWorkflow, String> {
    let mut workflow = MaterializedWorkflow::new();
    for (table, doc) in &fixture.tables {
        workflow.load_table(table, doc).map_err(|e| e.to_string())?;
    }
    Ok(workflow)
}

pub fn triple_count(workflow: &MaterializedWorkflow) -> usize {
    workflow.len()
}

/// The write path taken apart, for the `ingest` ladder.
pub struct ParsedMappings(Vec<Vec<Mapping>>);

pub fn parse_all_mappings(fixture: &Fixture) -> ParsedMappings {
    ParsedMappings(
        fixture
            .tables
            .iter()
            .map(|(_, doc)| applab_geotriples::parse_mappings(doc).expect("fixture mapping parses"))
            .collect(),
    )
}

/// RDF produced from the tables (one batch per table), not yet in a store.
pub struct TripleBatches(Vec<Vec<Graph>>);

impl TripleBatches {
    pub fn tables(&self) -> usize {
        self.0.len()
    }

    pub fn triples(&self) -> usize {
        self.0.iter().flatten().map(Graph::len).sum()
    }
}

/// `process_parallel` with the worker count `MaterializedWorkflow` uses.
pub fn transform_tables(fixture: &Fixture, mappings: &ParsedMappings) -> TripleBatches {
    TripleBatches(
        fixture
            .tables
            .iter()
            .zip(&mappings.0)
            .map(|((table, _), table_mappings)| {
                table_mappings
                    .iter()
                    .map(|mapping| applab_geotriples::process_parallel(mapping, table, 4))
                    .collect()
            })
            .collect(),
    )
}

pub struct RawStore(SpatioTemporalStore);

pub fn new_store() -> RawStore {
    RawStore(SpatioTemporalStore::new())
}

/// The insert loop of `MaterializedWorkflow::load_graph` for one table's
/// batch, store side only. Returns the triples that were new.
pub fn insert_batch(store: &mut RawStore, batches: &TripleBatches, table: usize) -> usize {
    let mut added = 0;
    for graph in &batches.0[table] {
        for triple in graph.iter() {
            added += usize::from(store.0.insert(triple.clone()));
        }
    }
    added
}

/// Seal: permutation indexes, R-tree, seal-time statistics.
pub fn finish_load(store: &mut RawStore) {
    store.0.finish_load();
}

// ---------------------------------------------------------------------
// Virtual workflow (`core`, `obda`, `dap`)
// ---------------------------------------------------------------------

/// A sealed on-the-fly workflow and the handles the harness drives it by.
pub struct VirtualSetup {
    pub workflow: Arc<VirtualWorkflow>,
    clock: Arc<ManualClock>,
    wan: Arc<SimulatedWan>,
}

/// The four tables as virtual graphs plus the LAI product behind the
/// `opendap` virtual table, over a WAN that is charged but never slept
/// (40 ms round trip, 4 MB/s — the intra-Europe link of `exp_ondemand`).
pub fn seal_virtual(fixture: &Fixture, seed: u64) -> Result<VirtualSetup, String> {
    let clock = ManualClock::new();
    let wan = Arc::new(SimulatedWan::new(Duration::from_millis(40), 4e6, false));
    let mut builder = VirtualWorkflowBuilder::with_transport_and_clock(wan.clone(), clock.clone());
    let mut lai = grids::lai_dataset(
        &fixture.paris.world,
        &grids::GridSpec {
            resolution: LAI_RESOLUTION,
            times: (0..LAI_STEPS).map(|month| month * 30 * 86_400).collect(),
            noise: 0.1,
            seed,
        },
    );
    lai.name = LAI_DATASET.into();
    builder.publish(lai);
    builder.add_opendap(LAI_DATASET, "LAI", LAI_WINDOW);
    let minutes = LAI_WINDOW.as_secs() / 60;
    builder
        .add_mappings(&mappings::opendap_lai_mapping(LAI_DATASET, minutes))
        .map_err(|e| e.to_string())?;
    for (table, doc) in &fixture.tables {
        builder.add_table(table.clone());
        builder.add_mappings(doc).map_err(|e| e.to_string())?;
    }
    let workflow = builder.seal().map_err(|e| e.to_string())?;
    Ok(VirtualSetup {
        workflow: Arc::new(workflow),
        clock,
        wan,
    })
}

impl VirtualSetup {
    pub fn advance_clock(&self, by: Duration) {
        self.clock.advance(by);
    }

    pub fn dap_round_trips(&self) -> u64 {
        self.workflow.client().round_trips()
    }

    pub fn dap_bytes_received(&self) -> u64 {
        self.workflow.client().bytes_received()
    }

    /// Simulated WAN time charged so far.
    pub fn wan_charged(&self) -> Duration {
        self.wan.total_charged()
    }

    /// What the `opendap` virtual table does when its window has expired:
    /// one DODS request for the whole product. Returns the variable count.
    pub fn dap_get_data(&self) -> Result<usize, String> {
        self.workflow
            .client()
            .get_data(LAI_DATASET, &Constraint::all())
            .map(|vars| vars.len())
            .map_err(|e| e.to_string())
    }

    /// Every virtual triple, materialized ("for more costly operations it
    /// is better to materialize", Section 5): the oracle's copy.
    pub fn materialize(&self) -> Result<OracleGraph, String> {
        self.workflow
            .materialize()
            .map(OracleGraph)
            .map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Serving (`service`, `http`)
// ---------------------------------------------------------------------

/// A bound HTTP server in this process.
pub struct Served {
    server: HttpServer,
    service: Arc<ApplabService>,
    endpoint: &'static str,
    pub addr: SocketAddr,
}

/// `ServiceConfig` defaults — default `EvalOptions` included, so the day
/// the planner becomes the default the benchmark sees it — except a queue
/// deep and patient enough that the open loop is never shed.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_queue: 64,
        queue_timeout: Duration::from_secs(30),
        ..ServiceConfig::default()
    }
}

fn http_config() -> HttpConfig {
    HttpConfig {
        workers: 4,
        ..HttpConfig::default()
    }
}

pub fn serve(endpoint: &'static str, backend: Arc<dyn QueryEndpoint>) -> io::Result<Served> {
    let service = Arc::new(ApplabService::new(service_config()).with_endpoint(endpoint, backend));
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service), http_config())?;
    let addr = server.local_addr();
    Ok(Served {
        server,
        service,
        endpoint,
        addr,
    })
}

impl Served {
    /// Request path of the SPARQL endpoint.
    pub fn path(&self) -> String {
        format!("/sparql/{}", self.endpoint)
    }

    /// Drain and join the server's threads.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

// ---------------------------------------------------------------------
// The ladder: one public call per span
// ---------------------------------------------------------------------

/// `http`: parse the exact request bytes. Returns whether a request came out.
pub fn http_read_request(bytes: &[u8]) -> bool {
    let mut reader = BufReader::new(bytes);
    matches!(
        applab_http::request::read_request(&mut reader, &http_config()),
        Ok(Some(_))
    )
}

/// Counters of one served query, from `QueryOutcome::stats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryCounts {
    pub rows_scanned: u64,
    pub joins: u64,
    pub filter_rows_in: u64,
    pub filter_rows_out: u64,
    pub pruned_rows: u64,
    pub peak_batch_bytes: u64,
    pub source_queries: u64,
    pub pushdowns: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// An in-process query result.
pub struct Evaluated(QueryResults);

impl Evaluated {
    pub fn rows(&self) -> usize {
        self.0.len()
    }
}

/// `service`: admission, budget, accounting scope, endpoint dispatch.
pub fn service_query(served: &Served, sparql: &str) -> Result<(Evaluated, QueryCounts), String> {
    let outcome = served
        .service
        .query_with(served.endpoint, sparql, &QueryRequest::new());
    let s = &outcome.stats;
    let counts = QueryCounts {
        rows_scanned: s.rows_scanned,
        joins: s.joins,
        filter_rows_in: s.filter_rows_in,
        filter_rows_out: s.filter_rows_out,
        pruned_rows: s.pruned_rows,
        peak_batch_bytes: s.peak_batch_bytes,
        source_queries: s.source_queries,
        pushdowns: s.pushdowns,
        cache_hits: s.cache_hits,
        cache_misses: s.cache_misses,
    };
    outcome
        .result
        .map(|r| (Evaluated(r), counts))
        .map_err(|e| e.to_string())
}

pub struct Parsed(Query);

/// `sparql`: text to algebra.
pub fn sparql_parse(sparql: &str) -> Result<Parsed, String> {
    applab_sparql::parse_query(sparql)
        .map(Parsed)
        .map_err(|e| e.to_string())
}

/// `sparql`: what cost-based planning of this query would take, from the
/// store's seal-time statistics. `None` when the store has none.
pub fn sparql_plan(workflow: &MaterializedWorkflow, query: &Parsed) -> Option<usize> {
    let stats = workflow.store().stats()?;
    Some(applab_sparql::plan::query_plan(stats, &query.0.pattern).len())
}

/// `sparql` + `store` + `geo`: evaluation with the options the service
/// would use.
pub fn sparql_evaluate(
    workflow: &MaterializedWorkflow,
    query: &Parsed,
) -> Result<Evaluated, String> {
    applab_sparql::evaluate_with(workflow.store(), &query.0, &service_config().eval)
        .map(Evaluated)
        .map_err(|e| e.to_string())
}

/// `core`: the endpoint's own parse + evaluate (the virtual graph is
/// private to `VirtualWorkflow`, so `obda` is timed through this).
pub fn endpoint_query(endpoint: &dyn QueryEndpoint, sparql: &str) -> Result<Evaluated, String> {
    endpoint
        .query_with(sparql, &service_config().eval)
        .map(Evaluated)
        .map_err(|e| e.to_string())
}

/// A sink that keeps nothing.
#[derive(Default)]
pub struct CountingSink {
    pub bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// `sparql`: Results-JSON serialization.
pub fn serialize(results: &Evaluated, sink: &mut impl Write) -> io::Result<()> {
    results.0.write_json(sink)
}

/// `http`: frame a 200 response around `body` the way the server would —
/// chunked in serializer-sized windows when the result is large, fixed
/// length otherwise.
pub fn http_write_response(results: &Evaluated, body: &[u8], sink: &mut Vec<u8>) -> io::Result<()> {
    const CONTENT_TYPE: &str = "application/sparql-results+json";
    let window = applab_sparql::JSON_FLUSH_BYTES;
    if results.0.json_size_estimate() >= window as u64 {
        applab_http::response::write_chunked_head(sink, 200, CONTENT_TYPE, true)?;
        let mut chunked = applab_http::ChunkedWriter::new(sink);
        for piece in body.chunks(window) {
            chunked.write_all(piece)?;
        }
        chunked.finish().map(|_| ())
    } else {
        applab_http::response::write_response(sink, 200, CONTENT_TYPE, &[], body, true, false)
    }
}

// ---------------------------------------------------------------------
// Unit costs (`store`, `geo`)
// ---------------------------------------------------------------------

/// `store`: all triples of one predicate, decoded.
pub fn store_scan(workflow: &MaterializedWorkflow, predicate_iri: &str) -> usize {
    let predicate = NamedNode::new(predicate_iri);
    workflow
        .store()
        .triples_matching(None, Some(&predicate), None)
        .len()
}

/// `store`: R-tree pushdown for the predicate's WKT objects inside a
/// viewport.
pub fn store_spatial_probe(
    workflow: &MaterializedWorkflow,
    predicate_iri: &str,
    viewport: &Viewport,
) -> usize {
    let predicate = NamedNode::new(predicate_iri);
    workflow
        .store()
        .triples_matching_spatial(None, Some(&predicate), &envelope_of(viewport))
        .map_or(0, |triples| triples.len())
}

fn envelope_of(v: &Viewport) -> Envelope {
    Envelope::new(v.min_x, v.min_y, v.max_x, v.max_y)
}

pub struct Geom(Geometry);

/// `geo`: WKT text to geometry.
pub fn parse_wkt(text: &str) -> Option<Geom> {
    applab_geo::parse_wkt(text).ok().map(Geom)
}

/// `geo`: the `geof:sfIntersects` kernel.
pub fn intersects(a: &Geom, b: &Geom) -> bool {
    applab_geo::relate::intersects(&a.0, &b.0)
}

pub fn envelopes_intersect(a: &Geom, b: &Geom) -> bool {
    a.0.envelope().intersects(&b.0.envelope())
}

pub struct SpatialIndex(RTree<usize>);

/// `geo`: bulk-loaded R-tree over the geometries' envelopes.
pub fn build_rtree(geometries: &[Geom]) -> SpatialIndex {
    SpatialIndex(RTree::bulk_load(
        geometries
            .iter()
            .enumerate()
            .map(|(i, g)| (g.0.envelope(), i))
            .collect(),
    ))
}

pub fn rtree_query(index: &SpatialIndex, viewport: &Viewport) -> usize {
    index.0.query(&envelope_of(viewport)).len()
}

// ---------------------------------------------------------------------
// Handles for the rest of the harness
// ---------------------------------------------------------------------

/// The loaded materialized workflow, as an opaque handle.
pub type Materialized = MaterializedWorkflow;

impl Evaluated {
    /// The answer in the oracle's terms.
    pub fn answer(&self) -> Answer {
        answer_of(&self.0)
    }
}
