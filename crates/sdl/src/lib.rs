//! The Streaming Data Library (SDL).
//!
//! Reproduces RAMANI's SDL (Sections 3.1 and 3.3): a client library that
//! "communicates with the OPeNDAP server and receives Copernicus services
//! data as streams", exposes datasets "so their temporal and spatial
//! characteristics are exposed in a queryable manner", and serves the
//! Maps-API request methods: *getMetadata, getDerivedData, getMap,
//! getAnimation, getTransect, getPoint, getArea, getVerticalProfile,
//! getSpectralProfile, getMapSwipe, getTimeseriesProfile*.
//!
//! The RAMANI Cloud Analytics layer ("on-the-fly spatial and temporal
//! aggregations such that downstream services may request for derived
//! variables ... such as a long-term (moving) average (summer-time) or
//! spatial central tendency (city-average)") is [`analytics`]; Kubernetes
//! is replaced by an order-preserving parallel map over scoped threads
//! ([`pool`]).
//!
//! Viewport requests emit `sdl.viewport` spans and the subset cache
//! reports instance-labeled `applab_sdl_cache_*` counters to the
//! `applab-obs` global registry.
#![cfg_attr(
    not(test),
    warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)
)]

pub mod analytics;
pub mod cache;
pub mod pool;
pub mod sdl;

pub use cache::{BboxFetcher, ServeStale, SubsetCache, TiledFetcher};
pub use sdl::{Sdl, SdlError};
