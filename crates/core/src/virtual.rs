//! The virtual / on-the-fly (right) workflow of Figure 1.
//!
//! The facade is split into a *build phase* and a *query phase*:
//! [`VirtualWorkflowBuilder`] accumulates tables, `opendap` virtual tables,
//! and mapping documents, and [`VirtualWorkflowBuilder::seal`] compiles
//! them into a [`VirtualWorkflow`] whose query methods take `&self`. A
//! sealed workflow is `Send + Sync` — one instance can serve concurrent
//! queries from many threads (see `applab-service`) — and configuration
//! after sealing is unrepresentable rather than a runtime error.

use crate::endpoint::QueryEndpoint;
use crate::error::CoreError;
use applab_array::Dataset;
use applab_dap::clock::{Clock, SystemClock};
use applab_dap::transport::{Local, Transport};
use applab_dap::{DapClient, DapServer, ResilienceConfig};
use applab_geotriples::{parse_mappings, TabularSource};
use applab_obda::{DataSource, OpendapTable, VirtualGraph};
use applab_sdl::Sdl;
use applab_sparql::{EvalOptions, QueryResults};
use std::sync::Arc;
use std::time::Duration;

/// Build phase of the on-the-fly workflow: OPeNDAP server → SDL →
/// Ontop-spatial virtual graphs.
pub struct VirtualWorkflowBuilder {
    server: Arc<DapServer>,
    client: Arc<DapClient>,
    clock: Arc<dyn Clock>,
    stale_grace: Duration,
    datasource: DataSource,
    /// `(dataset, variable, window)` — tables are constructed at seal time
    /// so configuration order (grace, resilience) never matters.
    opendap_specs: Vec<(String, String, Duration)>,
    mapping_docs: Vec<String>,
}

impl VirtualWorkflowBuilder {
    /// A workflow with an in-process server and free transport.
    pub fn local() -> Self {
        Self::with_transport(Arc::new(Local::new()))
    }

    /// A workflow whose client speaks through the given transport (e.g. a
    /// [`applab_dap::SimulatedWan`] for benches).
    pub fn with_transport(transport: Arc<dyn Transport>) -> Self {
        Self::with_transport_and_clock(transport, Arc::new(SystemClock::new()))
    }

    /// A workflow with an explicit clock — cache windows, stale-grace, and
    /// circuit-breaker cooldowns all tick on it, so tests can drive time
    /// with a [`applab_dap::clock::ManualClock`].
    pub fn with_transport_and_clock(transport: Arc<dyn Transport>, clock: Arc<dyn Clock>) -> Self {
        let server = Arc::new(DapServer::new());
        let client = Arc::new(DapClient::new(server.clone(), transport));
        VirtualWorkflowBuilder {
            server,
            client,
            clock,
            stale_grace: Duration::ZERO,
            datasource: DataSource::new(),
            opendap_specs: Vec::new(),
            mapping_docs: Vec::new(),
        }
    }

    /// Enable retry + circuit breaking on the embedded DAP client. The
    /// breaker cooldown ticks on the builder's clock.
    pub fn enable_resilience(&self, config: ResilienceConfig, seed: u64) {
        self.client
            .enable_resilience(config, self.clock.clone(), seed);
    }

    /// Serve-stale grace for the SDL subset cache and every `opendap`
    /// virtual table: expired entries may bridge *transient* upstream
    /// failures for this long past their window, flagged degraded. Zero
    /// (the default) disables serve-stale.
    pub fn set_stale_grace(&mut self, grace: Duration) {
        self.stale_grace = grace;
    }

    /// Publish a gridded product on the embedded OPeNDAP server.
    pub fn publish(&self, dataset: Dataset) {
        self.server.publish(dataset);
    }

    /// The embedded server (to publish from outside or inspect logs).
    pub fn server(&self) -> &Arc<DapServer> {
        &self.server
    }

    /// Register a relational table for the OBDA engine.
    pub fn add_table(&mut self, table: TabularSource) {
        self.datasource.add_table(table);
    }

    /// Register the `opendap` virtual table for a published dataset.
    pub fn add_opendap(&mut self, dataset: &str, variable: &str, window: Duration) {
        self.opendap_specs
            .push((dataset.to_string(), variable.to_string(), window));
    }

    /// Add a mapping document (GeoTriples/Ontop format). The document is
    /// validated eagerly so malformed mappings fail at the add site.
    pub fn add_mappings(&mut self, doc: &str) -> Result<(), CoreError> {
        parse_mappings(doc)?;
        self.mapping_docs.push(doc.to_string());
        Ok(())
    }

    /// Compile the configuration into a sealed, shareable
    /// [`VirtualWorkflow`]. Mapping problems surface here, before the
    /// first query runs.
    pub fn seal(mut self) -> Result<VirtualWorkflow, CoreError> {
        let mut span = applab_obs::span("obda.build_graph");
        for (dataset, variable, window) in std::mem::take(&mut self.opendap_specs) {
            let vt = Arc::new(
                OpendapTable::new(
                    self.client.clone(),
                    dataset.as_str(),
                    variable.as_str(),
                    window,
                    self.clock.clone(),
                )
                .with_stale_grace(self.stale_grace),
            );
            self.datasource.add_opendap(&dataset, &variable, vt);
        }
        let mut sdl = Sdl::new(
            self.client.clone(),
            Duration::from_secs(600),
            self.clock.clone(),
        );
        if self.stale_grace > Duration::ZERO {
            sdl = sdl.with_stale_grace(self.stale_grace);
        }
        let mut mappings = Vec::new();
        for doc in &self.mapping_docs {
            mappings.extend(parse_mappings(doc)?);
        }
        span.record("mappings", mappings.len());
        let graph = VirtualGraph::new(self.datasource, mappings)?;
        Ok(VirtualWorkflow {
            server: self.server,
            client: self.client,
            sdl,
            graph,
        })
    }
}

/// Query phase of the on-the-fly workflow: a sealed virtual graph whose
/// query methods take `&self` and may be called from many threads at once.
pub struct VirtualWorkflow {
    server: Arc<DapServer>,
    client: Arc<DapClient>,
    sdl: Sdl,
    graph: VirtualGraph,
}

impl VirtualWorkflow {
    /// The embedded server (to inspect request logs).
    pub fn server(&self) -> &Arc<DapServer> {
        &self.server
    }

    /// The SDL view over the published datasets.
    pub fn sdl(&self) -> &Sdl {
        &self.sdl
    }

    /// The DAP client (exposes transfer statistics).
    pub fn client(&self) -> &Arc<DapClient> {
        &self.client
    }

    /// Run a GeoSPARQL query over the virtual graphs.
    pub fn query(&self, sparql: &str) -> Result<QueryResults, CoreError> {
        self.query_with(sparql, &EvalOptions::default())
    }

    /// Run a query with explicit evaluation options (batch window, budget).
    ///
    /// Graph scans have no error channel, so a remote source failure that a
    /// scan swallowed is picked up from the [source-fault
    /// slot](applab_obda::take_source_fault) afterwards: a query never
    /// reports a silently partial result when its upstream was down.
    pub fn query_with(
        &self,
        sparql: &str,
        options: &EvalOptions,
    ) -> Result<QueryResults, CoreError> {
        let q = applab_sparql::parse_query(sparql)?;
        let _ = applab_obda::take_source_fault(); // drop leftovers
        let results = applab_sparql::evaluate_with(&self.graph, &q, options);
        if let Some(fault) = applab_obda::take_source_fault() {
            return Err(fault.into());
        }
        Ok(results?)
    }

    /// Run a query under a profiling trace: the results plus an EXPLAIN
    /// span tree with per-stage timings and cardinalities.
    pub fn query_explained(&self, sparql: &str) -> Result<crate::Explain, CoreError> {
        self.query_explained_with(sparql, &EvalOptions::default())
    }

    /// [`Self::query_explained`] with explicit evaluation options. The
    /// scan spans carry the plan: the chosen access path, the estimated
    /// row count next to the actual one, and how many scanned rows the
    /// build-side filters pruned.
    pub fn query_explained_with(
        &self,
        sparql: &str,
        options: &EvalOptions,
    ) -> Result<crate::Explain, CoreError> {
        let accounting = applab_obs::querystats::Scope::begin();
        let (results, profile) = applab_obs::profile("query", |root| {
            root.record("backend", "obda");
            let q = applab_sparql::parse_query(sparql)?;
            let _ = applab_obda::take_source_fault();
            let results = applab_sparql::evaluate_with(&self.graph, &q, options);
            if let Some(fault) = applab_obda::take_source_fault() {
                return Err(fault.into());
            }
            Ok::<_, CoreError>(results?)
        });
        Ok(crate::Explain {
            results: results?,
            profile,
            stats: accounting.finish(),
        })
    }

    /// Materialize every mapping (the "for more costly operations it is
    /// better to materialize the data" path of Section 5).
    pub fn materialize(&self) -> Result<applab_rdf::Graph, CoreError> {
        Ok(self.graph.materialize()?)
    }
}

impl QueryEndpoint for VirtualWorkflow {
    fn query_with(&self, sparql: &str, options: &EvalOptions) -> Result<QueryResults, CoreError> {
        VirtualWorkflow::query_with(self, sparql, options)
    }

    fn query_explained(&self, sparql: &str) -> Result<crate::Explain, CoreError> {
        VirtualWorkflow::query_explained(self, sparql)
    }

    fn backend(&self) -> &'static str {
        "obda"
    }
}

/// Compile-time proof that a sealed workflow can be shared across the
/// service's worker threads (the obda/sdl interior-mutability audit).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VirtualWorkflow>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use applab_data::{grids, mappings, ParisFixture};
    use applab_geo::Coord;

    fn workflow() -> VirtualWorkflow {
        let fixture = ParisFixture::generate(3, 12, 12);
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
        let mut b = VirtualWorkflowBuilder::local();
        b.publish(lai);
        b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
        b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
            .unwrap();
        b.seal().unwrap()
    }

    #[test]
    fn listing3_over_virtual_graph() {
        let wf = workflow();
        let r = wf
            .query(
                "SELECT DISTINCT ?s ?wkt ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
            )
            .unwrap();
        assert!(!r.is_empty());
        // Virtual ≡ materialized.
        let mat = wf.materialize().unwrap();
        let r2 = applab_sparql::query(
            &mat,
            "SELECT DISTINCT ?s ?wkt ?lai WHERE { ?s lai:hasLai ?lai . ?s geo:hasGeometry ?g . ?g geo:asWKT ?wkt }",
        )
        .unwrap();
        assert_eq!(r.len(), r2.len());
    }

    #[test]
    fn sdl_methods_work_over_published_data() {
        let wf = workflow();
        let meta = wf.sdl().get_metadata("lai_300m").unwrap();
        assert!(meta.extent.is_some());
        let v = wf
            .sdl()
            .get_point("lai_300m", "LAI", Coord::new(2.3, 48.85), 0)
            .unwrap();
        assert!(v.is_finite());
    }

    #[test]
    fn sealed_workflow_queries_from_many_threads() {
        let wf = workflow();
        let baseline = wf.query("ASK { ?s lai:hasLai ?v }").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let r = wf.query("ASK { ?s lai:hasLai ?v }").unwrap();
                    assert_eq!(r, baseline);
                });
            }
        });
    }

    #[test]
    fn outage_degrades_then_fails_typed() {
        use applab_dap::clock::ManualClock;
        let fixture = ParisFixture::generate(3, 12, 12);
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
        let mut b =
            VirtualWorkflowBuilder::with_transport_and_clock(Arc::new(Local::new()), clock.clone());
        b.publish(lai);
        b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
        b.set_stale_grace(Duration::from_secs(3600));
        b.enable_resilience(ResilienceConfig::no_sleep(), 11);
        b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
            .unwrap();
        let wf = b.seal().unwrap();
        let q = "SELECT ?s ?lai WHERE { ?s lai:hasLai ?lai }";
        let healthy = wf.query(q).unwrap();
        assert!(!healthy.is_empty());

        // The upstream dies and the cache window expires inside the grace
        // period: the query is answered from the stale copy, degraded.
        wf.server().set_fault_hook(Box::new(|_, _| {
            Err(applab_dap::DapError::Transport("link down".into()))
        }));
        clock.advance(Duration::from_secs(601));
        let stale = wf.query_explained(q).unwrap();
        assert_eq!(stale.results.len(), healthy.len());
        assert!(stale.stats.degraded, "stale answers must be flagged");

        // Past window + grace nothing can bridge the outage: the query
        // fails typed — never a silent empty result.
        clock.advance(Duration::from_secs(3601));
        match wf.query(q) {
            Err(CoreError::Unavailable { dataset, retries }) => {
                assert_eq!(dataset, "lai_300m");
                assert!(retries > 0);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }

        // Recovery: fresh answers, no degraded flag.
        wf.server().clear_fault_hook();
        clock.advance(Duration::from_secs(120)); // past the breaker cooldown
        let fresh = wf.query_explained(q).unwrap();
        assert_eq!(fresh.results.len(), healthy.len());
        assert!(!fresh.stats.degraded);
    }

    #[test]
    fn bad_mappings_rejected_early() {
        let mut b = VirtualWorkflowBuilder::local();
        assert!(b.add_mappings("not a mapping").is_err());
        // A rejected document is not retained: sealing still works.
        assert!(b.seal().is_ok());
    }
}
