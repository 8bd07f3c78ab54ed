//! A SPARQL subset with the GeoSPARQL extension functions, as used by the
//! Copernicus App Lab stack (Listings 1 and 3 of the paper).
//!
//! Supported: `SELECT` (with `DISTINCT`, projection aliases, aggregates +
//! `GROUP BY`, `ORDER BY`, `LIMIT`/`OFFSET`), `ASK`, `CONSTRUCT`; graph
//! patterns with basic graph patterns, `FILTER`, `OPTIONAL`, `UNION`,
//! `BIND`, and `VALUES`; expressions with the SPARQL operators, string and
//! numeric builtins, and the OGC `geof:` functions over `geo:wktLiteral`
//! values.
//!
//! Evaluation is defined against the [`source::GraphSource`] trait so the
//! same engine runs over the materialized store (`applab-store`) and over
//! the OBDA virtual graphs (`applab-obda`). Sources may accelerate spatial
//! selections by implementing
//! [`source::GraphSource::triples_matching_spatial`], which the evaluator
//! calls with envelopes extracted from `geof:` filters — the pushdown that
//! Strabon and Ontop-spatial implement in the paper.
//!
//! The pipeline is instrumented with `applab-obs` spans
//! (`parse`/`sparql.evaluate`/`bgp`/`scan`/`join`/`filter`/`project`/
//! `aggregate`) and the `applab_sparql_*` metrics; wrap a call in [`applab_obs::profile`] to get
//! the per-stage timing tree.
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod algebra;
mod batch;
pub mod eval;
pub mod expr;
pub mod parser;
pub mod plan;
pub mod reference;
pub mod results;
pub mod source;

pub use algebra::{Expression, GraphPattern, Query, QueryForm, TermPattern, TriplePattern};
pub use eval::{evaluate, evaluate_with, Budget, EvalError, EvalOptions};
pub use parser::{parse_query, ParseError};
pub use plan::Stats;
pub use results::{JsonParseError, QueryResults, Row, JSON_FLUSH_BYTES};
pub use source::{GraphSource, IdAccess, IdColumns};

/// Parse and evaluate a query against a source in one call.
pub fn query(
    source: &dyn GraphSource,
    text: &str,
) -> Result<QueryResults, Box<dyn std::error::Error + Send + Sync>> {
    let q = parse_query(text)?;
    Ok(evaluate(source, &q)?)
}
