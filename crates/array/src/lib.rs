//! A NetCDF-like multidimensional array data model.
//!
//! The Copernicus Global Land products the paper works with (Leaf Area
//! Index, NDVI, Burnt Area) are NetCDF files: named dimensions, variables
//! with attributes, CF-convention coordinate variables and time axes. This
//! crate reproduces exactly the subset of that model the App Lab stack
//! consumes through OPeNDAP:
//!
//! * [`NdArray`] — a dense f64 array with DAP-style hyperslab subsetting;
//! * [`Dataset`]/[`Variable`] — dimensions, variables, attributes;
//! * [`time`] — CF "units since epoch" time axes;
//! * [`ncml`] — NcML-style aggregation along a time dimension, including
//!   the VITO "multiple reprocessed versions per date, expose the latest"
//!   behaviour (Section 5);
//! * [`acdd`] — ACDD metadata-completeness scoring and recommendations
//!   (Section 3.1's metadata tooling).
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod acdd;
pub mod array;
pub mod dataset;
pub mod ncml;
pub mod time;

pub use array::{HyperSlab, NdArray, Range};
pub use dataset::{index_range, AttrValue, Dataset, Variable};
