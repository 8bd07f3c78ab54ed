//! The materialized (left) workflow of Figure 1.

use crate::endpoint::QueryEndpoint;
use crate::error::CoreError;
use applab_geotriples::{for_each_triple, parse_mappings, TabularSource};
use applab_link::{discover_links, Entity, LinkRule};
use applab_rdf::Graph;
use applab_sparql::{EvalOptions, GraphSource, QueryResults};
use applab_store::SpatioTemporalStore;

/// Download → GeoTriples → Strabon → interlink → GeoSPARQL.
pub struct MaterializedWorkflow {
    store: SpatioTemporalStore,
    workers: usize,
}

impl Default for MaterializedWorkflow {
    fn default() -> Self {
        Self::new()
    }
}

impl MaterializedWorkflow {
    pub fn new() -> Self {
        MaterializedWorkflow {
            store: SpatioTemporalStore::new(),
            workers: 4,
        }
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Transform a tabular source with a GeoTriples mapping document, load
    /// the triples and seal the store once. Returns the number of new triples.
    /// The triples go into the store in row order as the GeoTriples workers
    /// expand later rows; the store's own deduplication is the only one.
    pub fn load_table(
        &mut self,
        source: &TabularSource,
        mapping_doc: &str,
    ) -> Result<usize, CoreError> {
        let mappings = parse_mappings(mapping_doc)?;
        let mut added = 0;
        for mapping in &mappings {
            for_each_triple(mapping, source, self.workers, |t| {
                added += usize::from(self.store.insert(t));
            });
        }
        self.store.finish_load();
        Ok(added)
    }

    /// Load pre-built RDF (e.g. an ontology) and seal. Returns new-triple count.
    pub fn load_graph(&mut self, graph: &Graph) -> usize {
        let mut added = 0;
        for t in graph.iter() {
            added += usize::from(self.store.insert(t.clone()));
        }
        self.store.finish_load();
        added
    }

    /// Load Turtle text.
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, CoreError> {
        let g =
            applab_rdf::turtle::parse_turtle(text).map_err(|e| CoreError::Source(e.to_string()))?;
        Ok(self.load_graph(&g))
    }

    /// Interlink entities of the loaded data against an external graph,
    /// storing the produced links. Returns the number of links.
    pub fn interlink(&mut self, external: &Graph, rule: &LinkRule) -> usize {
        let loaded = Graph::from_iter(self.store.triples_matching(None, None, None));
        let left: Vec<Entity> = Entity::all_from_graph(&loaded)
            .into_iter()
            .filter(|e| e.name.is_some())
            .collect();
        let right: Vec<Entity> = Entity::all_from_graph(external)
            .into_iter()
            .filter(|e| e.name.is_some())
            .collect();
        let result = discover_links(&left, &right, rule);
        let links = result.to_graph(rule);
        let n = links.len();
        self.load_graph(&links);
        n
    }

    /// Run a GeoSPARQL query against the store.
    pub fn query(&self, sparql: &str) -> Result<QueryResults, CoreError> {
        self.query_with(sparql, &EvalOptions::default())
    }

    /// Run a query with explicit evaluation options (batch window, budget).
    pub fn query_with(
        &self,
        sparql: &str,
        options: &EvalOptions,
    ) -> Result<QueryResults, CoreError> {
        let q = applab_sparql::parse_query(sparql)?;
        Ok(applab_sparql::evaluate_with(&self.store, &q, options)?)
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
            root.record("backend", "store");
            let q = applab_sparql::parse_query(sparql)?;
            Ok::<_, CoreError>(applab_sparql::evaluate_with(&self.store, &q, options)?)
        });
        Ok(crate::Explain {
            results: results?,
            profile,
            stats: accounting.finish(),
        })
    }

    /// The underlying store (for benches and advanced callers).
    pub fn store(&self) -> &SpatioTemporalStore {
        &self.store
    }

    /// Triple count.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

impl QueryEndpoint for MaterializedWorkflow {
    fn query_with(&self, sparql: &str, options: &EvalOptions) -> Result<QueryResults, CoreError> {
        MaterializedWorkflow::query_with(self, sparql, options)
    }

    fn query_explained(&self, sparql: &str) -> Result<crate::Explain, CoreError> {
        MaterializedWorkflow::query_explained(self, sparql)
    }

    fn backend(&self) -> &'static str {
        "store"
    }
}

/// Compile-time proof the loaded workflow can back a shared service
/// endpoint.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MaterializedWorkflow>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use applab_data::mappings as m;
    use applab_data::ParisFixture;
    use applab_link::Comparison;

    #[test]
    fn load_paris_vector_data_and_query_listing1() {
        let fixture = ParisFixture::generate(1, 12, 8);
        let mut wf = MaterializedWorkflow::new();
        wf.load_table(&fixture.world.osm_table(), m::OSM_MAPPING)
            .unwrap();
        wf.load_table(&fixture.world.gadm_table(), m::GADM_MAPPING)
            .unwrap();
        wf.load_table(&fixture.world.corine_table(), m::CORINE_MAPPING)
            .unwrap();
        assert!(wf.len() > 100);

        // LAI observations from the gridded product, materialized via the
        // lai_observation helper shape (the custom-Python-script path of
        // Section 4: "Since GeoTriples does not support NetCDF files ...").
        let mut g = Graph::new();
        applab_store::store::lai_observation(&mut g, "obs1", 4.0, 0, "POINT (2.24 48.86)");
        applab_store::store::lai_observation(&mut g, "obs2", 0.5, 0, "POINT (2.5 48.95)");
        wf.load_graph(&g);

        // Listing 1.
        let r = wf
            .query(
                r#"SELECT DISTINCT ?geoA ?geoB ?lai WHERE
{ ?areaA osm:poiType osm:park .
  ?areaA geo:hasGeometry ?geomA .
  ?geomA geo:asWKT ?geoA .
  ?areaA osm:hasName "Bois de Boulogne" .
  ?areaB lai:hasLai ?lai .
  ?areaB geo:hasGeometry ?geomB .
  ?geomB geo:asWKT ?geoB .
  FILTER(geof:sfIntersects(?geoA, ?geoB))
}"#,
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.value(0, "lai").unwrap().as_literal().unwrap().as_f64(),
            Some(4.0)
        );
    }

    #[test]
    fn interlinking_adds_sameas() {
        let fixture = ParisFixture::generate(2, 10, 8);
        let mut wf = MaterializedWorkflow::new();
        wf.load_table(&fixture.world.osm_table(), m::OSM_MAPPING)
            .unwrap();
        // External: the same POIs under different IRIs.
        let external = {
            let mut renamed = fixture.world.osm_table();
            renamed.name = "external".into();
            let mapping = m::OSM_MAPPING
                .replace("osm:poi_{id}", "<http://external.org/poi_{id}>")
                .replace("osm:geom_{id}", "<http://external.org/geom_{id}>");
            let ms = parse_mappings(&mapping).unwrap();
            applab_geotriples::process(&ms[0], &renamed)
        };
        let rule = LinkRule::same_as(
            vec![
                (Comparison::NameLevenshtein, 0.6),
                (Comparison::SpatialProximity { max_distance: 0.01 }, 0.4),
            ],
            0.95,
        );
        let n = wf.interlink(&external, &rule);
        assert!(n > 0);
        let r = wf.query("SELECT ?a ?b WHERE { ?a owl:sameAs ?b }").unwrap();
        assert_eq!(r.len(), n);
    }

    #[test]
    fn turtle_loading() {
        let mut wf = MaterializedWorkflow::new();
        let n = wf
            .load_turtle(
                "@prefix osm: <http://www.app-lab.eu/osm/> .\n<http://x/a> osm:hasName \"A\" .",
            )
            .unwrap();
        assert_eq!(n, 1);
        assert!(wf.load_turtle("garbage {{{").is_err());
    }
}
