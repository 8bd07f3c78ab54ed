//! Spatiotemporal RDF storage: the "Strabon" of the reproduction.
//!
//! [`SpatioTemporalStore`] is a dictionary-encoded triple store with three
//! sorted permutation arrays (SPO/POS/OSP), an R-tree over `geo:wktLiteral`
//! objects, and a sorted valid-time index over `xsd:dateTime` objects. It
//! implements the `applab-sparql` [`GraphSource`](applab_sparql::GraphSource) trait *including* the
//! spatial and temporal pushdown hooks, which is what gives it the
//! Geographica advantage the paper cites (claims C2/C3 in DESIGN.md).
//!
//! [`NaiveStore`] is the baseline: the same triples, no indexes at all —
//! every pattern is a linear scan and every spatial filter is evaluated
//! post-hoc. Bench B3 compares the two.
//!
//! The store reports `applab_store_*` metrics to the `applab-obs` global
//! registry: scan and pushdown counters on the query path, dictionary and
//! index size gauges refreshed on [`store::SpatioTemporalStore::finish_load`].
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod dict;
pub mod naive;
pub mod store;

pub use dict::Dictionary;
pub use naive::NaiveStore;
pub use store::SpatioTemporalStore;
