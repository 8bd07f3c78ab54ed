//! Deterministic synthetic datasets loadable into *both* workflows.
//!
//! A [`DatasetSpec`] is a tiny, shrinkable description of a world: which
//! vector tables exist, how fine the zone grid is, and whether an
//! OPeNDAP-published LAI product rides along. [`DatasetSpec::build`]
//! produces the two engines under test over byte-identical data: the
//! virtual workflow (Ontop-style OBDA over tables + DAP), and a
//! [`SpatioTemporalStore`] loaded from that same workflow's
//! materialization — so any cross-engine disagreement is evaluator
//! behavior, never data skew.

use applab_core::{VirtualWorkflow, VirtualWorkflowBuilder};
use applab_dap::clock::Clock;
use applab_dap::transport::Transport;
use applab_data::paris::paris_extent;
use applab_data::{grids, mappings, World};
use applab_store::SpatioTemporalStore;
use std::sync::Arc;
use std::time::Duration;

/// A vector table of the synthetic world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Table {
    Osm,
    Gadm,
    Corine,
    UrbanAtlas,
}

impl Table {
    pub const ALL: [Table; 4] = [Table::Osm, Table::Gadm, Table::Corine, Table::UrbanAtlas];

    pub fn key(self) -> &'static str {
        match self {
            Table::Osm => "osm",
            Table::Gadm => "gadm",
            Table::Corine => "corine",
            Table::UrbanAtlas => "urban_atlas",
        }
    }

    pub fn from_key(key: &str) -> Option<Table> {
        Table::ALL.into_iter().find(|t| t.key() == key)
    }
}

/// A shrinkable description of one synthetic dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetSpec {
    /// World / grid noise seed.
    pub seed: u64,
    /// Zone grid cells per axis (`World::generate`).
    pub cells: usize,
    /// LAI raster resolution (cells per axis).
    pub resolution: usize,
    /// Number of monthly timestamps (Jan 2017 onward).
    pub times: usize,
    /// Which vector tables are loaded.
    pub tables: Vec<Table>,
    /// Whether the LAI product is published over OPeNDAP.
    pub grid: bool,
}

impl DatasetSpec {
    /// The default harness dataset: every vocabulary present, small enough
    /// that a three-engine differential case runs in milliseconds.
    pub fn small(seed: u64) -> DatasetSpec {
        DatasetSpec {
            seed,
            cells: 5,
            resolution: 5,
            times: 2,
            tables: Table::ALL.to_vec(),
            grid: true,
        }
    }

    /// Epoch-second timestamps of the grid samples (15th of each month).
    pub fn grid_times(&self) -> Vec<i64> {
        let mut all = grids::GridSpec::monthly_2017(self.resolution, self.seed).times;
        all.truncate(self.times.max(1));
        all
    }

    pub fn world(&self) -> World {
        World::generate(self.seed, paris_extent(), self.cells)
    }

    /// A [`VirtualWorkflowBuilder`] loaded with this dataset, on an
    /// explicit transport and clock. The caller may still tweak resilience
    /// and staleness settings before sealing — the chaos smoke does.
    pub fn virtual_builder(
        &self,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
    ) -> VirtualWorkflowBuilder {
        let world = self.world();
        let mut b = VirtualWorkflowBuilder::with_transport_and_clock(transport, clock);
        for table in &self.tables {
            let (source, doc) = match table {
                Table::Osm => (world.osm_table(), mappings::OSM_MAPPING),
                Table::Gadm => (world.gadm_table(), mappings::GADM_MAPPING),
                Table::Corine => (world.corine_table(), mappings::CORINE_MAPPING),
                Table::UrbanAtlas => (world.urban_atlas_table(), mappings::URBAN_ATLAS_MAPPING),
            };
            b.add_table(source);
            b.add_mappings(doc).expect("static mapping documents parse");
        }
        if self.grid {
            let mut lai = grids::lai_dataset(
                &world,
                &grids::GridSpec {
                    resolution: self.resolution.max(2),
                    times: self.grid_times(),
                    noise: 0.1,
                    seed: self.seed,
                },
            );
            lai.name = "lai_300m".into();
            b.publish(lai);
            b.add_opendap("lai_300m", "LAI", Duration::from_secs(600));
            b.add_mappings(&mappings::opendap_lai_mapping("lai_300m", 10))
                .expect("generated LAI mapping parses");
        }
        b
    }

    /// Build both engines over identical data.
    pub fn build(&self) -> Result<Engines, String> {
        let b = self.virtual_builder(
            Arc::new(applab_dap::transport::Local::new()),
            Arc::new(applab_dap::clock::SystemClock::new()),
        );
        let vw = b.seal().map_err(|e| format!("seal: {e}"))?;
        let graph = vw.materialize().map_err(|e| format!("materialize: {e}"))?;
        let triples = graph.len();
        let store = SpatioTemporalStore::from_graph(&graph);
        Ok(Engines { store, vw, triples })
    }
}

/// The engines under differential test, built over one dataset.
pub struct Engines {
    /// Materialized workflow: GeoTriples → spatiotemporal store.
    pub store: SpatioTemporalStore,
    /// On-the-fly workflow: OBDA rewriting over tables + OPeNDAP.
    pub vw: VirtualWorkflow,
    /// Triple count of the materialized graph.
    pub triples: usize,
}

/// Differential check of the two *load* paths themselves: batch
/// GeoTriples processing of the vector tables must produce exactly the
/// triples the OBDA materialization produces for the same mappings.
pub fn check_load_paths(spec: &DatasetSpec) -> Result<(), String> {
    let mut vector_only = spec.clone();
    vector_only.grid = false;
    if vector_only.tables.is_empty() {
        return Ok(());
    }

    // Path A: batch GeoTriples.
    let world = vector_only.world();
    let mut graph = applab_rdf::Graph::new();
    for table in &vector_only.tables {
        let (source, doc) = match table {
            Table::Osm => (world.osm_table(), mappings::OSM_MAPPING),
            Table::Gadm => (world.gadm_table(), mappings::GADM_MAPPING),
            Table::Corine => (world.corine_table(), mappings::CORINE_MAPPING),
            Table::UrbanAtlas => (world.urban_atlas_table(), mappings::URBAN_ATLAS_MAPPING),
        };
        for m in applab_geotriples::parse_mappings(doc).map_err(|e| e.to_string())? {
            graph.extend_from(&applab_geotriples::process(&m, &source));
        }
    }

    // Path B: OBDA materialization.
    let engines = vector_only.build()?;
    let materialized = engines
        .vw
        .materialize()
        .map_err(|e| format!("materialize: {e}"))?;

    let mut a: Vec<String> = graph.iter().map(|t| format!("{t:?}")).collect();
    let mut b: Vec<String> = materialized.iter().map(|t| format!("{t:?}")).collect();
    a.sort();
    b.sort();
    if a != b {
        let only_a: Vec<&String> = a.iter().filter(|t| !b.contains(t)).take(3).collect();
        let only_b: Vec<&String> = b.iter().filter(|t| !a.contains(t)).take(3).collect();
        return Err(format!(
            "load paths disagree: {} vs {} triples; only-geotriples {only_a:?}; only-obda {only_b:?}",
            a.len(),
            b.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_identical_data_in_both_engines() {
        let engines = DatasetSpec::small(3).build().unwrap();
        assert!(engines.triples > 100, "tiny world still has data");
        assert_eq!(engines.store.len(), engines.triples);
        // Spot-check one query against both.
        let q = "SELECT ?s WHERE { ?s a clc:CorineArea }";
        let parsed = applab_sparql::parse_query(q).unwrap();
        let from_store = applab_sparql::evaluate(&engines.store, &parsed).unwrap();
        let from_vw = engines.vw.query(q).unwrap();
        assert_eq!(from_store.len(), from_vw.len());
    }

    #[test]
    fn load_paths_agree() {
        check_load_paths(&DatasetSpec::small(5)).unwrap();
    }

    #[test]
    fn table_keys_round_trip() {
        for t in Table::ALL {
            assert_eq!(Table::from_key(t.key()), Some(t));
        }
        assert_eq!(Table::from_key("nope"), None);
    }
}
