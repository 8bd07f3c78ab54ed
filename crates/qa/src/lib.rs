//! Generative differential testing for the Copernicus App Lab stack.
//!
//! The paper's core claim is that the materialized workflow (GeoTriples →
//! spatiotemporal store) and the virtual workflow (OBDA over tables +
//! OPeNDAP) answer the *same* GeoSPARQL questions over the same data.
//! This crate makes that claim machine-checkable at scale:
//!
//! * [`gen`] — a seeded generator of valid GeoSPARQL queries over the
//!   workspace vocabularies, replayable byte-identically from a case seed;
//! * [`dataset`] — shrinkable synthetic datasets loaded into *both*
//!   workflows from one materialization, so data is identical by
//!   construction;
//! * [`harness`] — the differential oracle: reference evaluator,
//!   hash-join pipeline, and virtual workflow,
//!   diffed as canonical multisets ([`canon`]) through the JSON wire
//!   format;
//! * [`metamorphic`] — oracle-free invariants (pattern reordering,
//!   FILTER-conjunct splitting, LIMIT monotonicity, bbox-shrink
//!   containment);
//! * [`mod@shrink`] — greedy reduction of a failing case to a minimal one;
//! * [`corpus`] — the persisted `qa/corpus/*.ron` regression corpus.
//!
//! Entry points: the `exp_qa` binary of this crate for budgeted fuzzing
//! runs, and `tests/qa_corpus.rs` at the workspace root for the pinned
//! corpus.
//!
//! The crate also holds what the root tests and examples share: the
//! seeded [`workloads`] of the paper's claims (the mini-Geographica query
//! mix and engines, the viewport trace, Poisson arrivals) and the
//! [`httpload`] client that drives the wire plane over real sockets.

#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod canon;
pub mod corpus;
pub mod dataset;
pub mod gen;
pub mod harness;
pub mod httpload;
pub mod metamorphic;
pub mod shrink;
pub mod workloads;

pub use canon::{canonical_term, canonicalize, diff, is_multiset_subset, Canon};
pub use corpus::{load_dir, CorpusCase};
pub use dataset::{check_load_paths, DatasetSpec, Engines, Table};
pub use gen::{case_seed, generate, QueryIr};
pub use harness::{Harness, Verdict, ENGINES, HARNESS_BATCH_WINDOWS};
pub use shrink::{shrink, Shrunk};
pub use workloads::{
    geographica_queries, geographica_setup, poisson_arrivals, viewport_trace, GeographicaSetup,
};

/// A Markdown table: the header row, the `---` rule and one line per row,
/// each ending in a newline.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut table = format!(
        "| {} |\n|{}\n",
        header.join(" | "),
        "---|".repeat(header.len())
    );
    for row in rows {
        table.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    table
}
