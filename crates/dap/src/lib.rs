//! An OPeNDAP-like data access protocol.
//!
//! Reproduces the DAP machinery the App Lab architecture depends on
//! (Section 3.1 and Figure 1, right workflow):
//!
//! * [`dds`] — the Dataset Descriptor Structure (structure metadata);
//! * [`das`] — the Dataset Attribute Structure (attribute metadata);
//! * [`constraint`] — DAP constraint expressions (`LAI[0:10][5][5],time`);
//! * [`dods`] — the binary data response encoding;
//! * [`server`]/[`client`] — an in-process server and its client,
//!   connected through a [`transport`] that simulates WAN latency and
//!   bandwidth (this is what lets bench B1 reproduce the
//!   "two orders of magnitude" on-the-fly vs materialized gap);
//! * [`drs`] — the "DRS-validator" command-line tool of Section 3.1;
//! * [`ncml_service`] — the NcML service joining DAS + DDS in one document.
//!
//! Client requests emit `dap.request` spans, and the transports account
//! round trips, bytes and simulated latency as instance-labeled
//! `applab_dap_*` counters in the `applab-obs` global registry.
#![cfg_attr(
    not(test),
    warn(clippy::print_stdout, clippy::print_stderr, clippy::unwrap_used)
)]

pub mod chaos;
pub mod client;
pub mod clock;
pub mod constraint;
pub mod das;
pub mod dds;
pub mod dods;
pub mod drs;
pub mod ncml_service;
pub mod resilience;
pub mod server;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosTransport};
pub use client::DapClient;
pub use constraint::Constraint;
pub use resilience::{
    BreakerConfig, BreakerState, CircuitBreaker, ResilienceConfig, ResilienceState, RetryPolicy,
};
pub use server::DapServer;
pub use transport::{SimulatedWan, Transport};

/// Errors across the DAP stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DapError {
    /// The requested dataset is not in the server catalog.
    NoSuchDataset(String),
    /// The requested variable does not exist.
    NoSuchVariable(String),
    /// Bad constraint expression.
    Constraint(String),
    /// Malformed wire payload.
    Wire(String),
    /// The network failed mid-exchange: connection reset, request timeout,
    /// or a payload whose integrity checksum does not match. Transient —
    /// the [`resilience::RetryPolicy`] retries these.
    Transport(String),
    /// The response arrived shorter than the server sent it. Transient.
    Truncated {
        /// Bytes the server put on the wire.
        expected: usize,
        /// Bytes that actually arrived.
        delivered: usize,
    },
    /// The dataset could not be reached even after exhausting the retry
    /// budget, or its circuit breaker is open. Not retryable — callers
    /// should degrade (serve stale) or surface `unavailable`.
    Unavailable {
        /// Dataset whose data plane is down.
        dataset: String,
        /// Retries spent before giving up (0 when the breaker fast-failed).
        retries: u32,
    },
}

impl DapError {
    /// Whether a retry could plausibly succeed: wire-level faults are
    /// transient, server-side lookup/constraint errors are permanent.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            DapError::Transport(_) | DapError::Truncated { .. } | DapError::Wire(_)
        )
    }
}

impl std::fmt::Display for DapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DapError::NoSuchDataset(d) => write!(f, "no such dataset: {d}"),
            DapError::NoSuchVariable(v) => write!(f, "no such variable: {v}"),
            DapError::Constraint(m) => write!(f, "bad constraint: {m}"),
            DapError::Wire(m) => write!(f, "wire format error: {m}"),
            DapError::Transport(m) => write!(f, "transport error: {m}"),
            DapError::Truncated {
                expected,
                delivered,
            } => write!(
                f,
                "truncated response: {delivered} of {expected} bytes delivered"
            ),
            DapError::Unavailable { dataset, retries } => {
                write!(f, "dataset {dataset} unavailable after {retries} retries")
            }
        }
    }
}

impl std::error::Error for DapError {}
