//! Ontop-spatial: geospatial ontology-based data access.
//!
//! Reproduces Section 3.2 of the paper: an OBDA system that "creates
//! virtual semantic RDF graphs on top of geospatial relational data sources
//! using ontologies and mappings", extended so that it can "query data
//! sources that are available remotely, without accessing or storing the
//! data locally" through an `opendap` virtual-table UDF with a
//! time-windowed result cache.
//!
//! * [`sql`] — the source-clause query language (the `SELECT ... FROM ...
//!   WHERE ...` subset of Listing 2), standing in for MadIS/SQLite;
//! * [`engine`] — the relational backend: named in-memory tables, virtual
//!   tables (UDFs), selection/projection, and R-tree indexes over geometry
//!   columns;
//! * [`vtable`] — the `opendap` virtual table: "create and populate a
//!   virtual table on-the-fly with data retrieved from an OPeNDAP server",
//!   read through the SDL's windowed [`applab_sdl::SubsetCache`] ("results
//!   of an OPeNDAP call get cached every w minutes");
//! * [`virtual_graph`] — the virtual RDF graphs: a
//!   [`applab_sparql::GraphSource`] whose triples are defined by
//!   GeoTriples-format mappings and materialized *per query*, never stored.
//!   It implements the whole-BGP rewriting hook, mirroring how Ontop
//!   rewrites a SPARQL BGP into a single SQL query.
//!
//! The engine and the virtual graphs emit `obda.*` spans and
//! `applab_obda_*` counters to the `applab-obs` global registry.
#![cfg_attr(
    not(test),
    warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)
)]

pub mod engine;
pub mod fault;
pub mod sql;
pub mod virtual_graph;
pub mod vtable;

pub use engine::DataSource;
pub use fault::{record_source_fault, take_source_fault};
pub use sql::SourceQuery;
pub use virtual_graph::VirtualGraph;
pub use vtable::OpendapTable;

/// OBDA errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ObdaError {
    Sql(String),
    NoSuchTable(String),
    VirtualTable(String),
    Mapping(String),
    /// The remote source stayed down through every retry (and, when
    /// configured, past the stale-grace window): the query cannot be
    /// answered, not even degraded.
    Unavailable {
        dataset: String,
        retries: u32,
    },
}

impl std::fmt::Display for ObdaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObdaError::Sql(m) => write!(f, "source query error: {m}"),
            ObdaError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            ObdaError::VirtualTable(m) => write!(f, "virtual table error: {m}"),
            ObdaError::Mapping(m) => write!(f, "mapping error: {m}"),
            ObdaError::Unavailable { dataset, retries } => {
                write!(f, "dataset {dataset} unavailable after {retries} retries")
            }
        }
    }
}

impl std::error::Error for ObdaError {}
