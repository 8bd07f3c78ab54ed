//! `applab-obs` — zero-dependency observability for the App Lab stack.
//!
//! Three pieces, all hand-rolled on std (this build has no crates.io
//! access, matching the vendored stand-ins under `vendor/`):
//!
//! * **metrics** ([`metrics`]) — a thread-safe registry of counters,
//!   gauges and fixed-bucket histograms, exposable as Prometheus text
//!   exposition ([`metrics::Registry::to_prometheus`]) and as a JSON
//!   snapshot ([`metrics::Registry::to_json`]). Naming convention:
//!   `applab_<crate>_<name>` with `_total` for counters.
//! * **tracing** ([`trace`]) — named spans with wall-clock timing,
//!   `key=value` fields and parent/child nesting that works across scoped
//!   worker threads ([`trace::child_of`]); finished spans go to a
//!   pluggable set of subscribers on top of a default ring buffer
//!   ([`trace::recent`]), with an optional stderr writer
//!   ([`trace::StderrWriter`]). With no subscriber registered, spans are
//!   disabled no-ops, so instrumentation costs ~one atomic load per span
//!   in production paths.
//! * **reports** ([`report`]) — [`report::profile`] runs a closure under a
//!   fresh trace and reassembles the span tree, which is what the
//!   workflow facades return from their `EXPLAIN` APIs.
//! * **cross-crate scopes** ([`deadline`], [`degrade`]) — thread-local
//!   side channels that let the resilience layer in `applab-dap` honour
//!   the evaluator's query budget, and let stale cache serves deep in the
//!   data plane surface as a `degraded` flag on the service outcome
//!   (through the query's accounting cell), without dependency cycles or
//!   contaminated return types.
//! * **per-query accounting** ([`querystats`]) — a thread-local scope
//!   the service opens around each query; evaluator, store, DAP client
//!   and caches bump the innermost cell at batch boundaries, and the
//!   snapshot surfaces as `QueryOutcome::stats` and inside EXPLAIN.
//! * **query log + flight recorder** ([`querylog`]) — one JSONL record
//!   per served query (sampled, bounded, never blocking the query
//!   path) plus an unsampled in-memory ring of the last N records for
//!   postmortem dumps from the chaos/stress suites.
//! * **shared substrate** — the workspace's one JSON escaper, parser and
//!   writer ([`json`]), its one seeded mixer ([`splitmix64`]), which
//!   every replayable sequence (chaos schedules, QA case seeds, query-log
//!   sampling, the planner's Bloom probes, `rand`'s seeding) derives
//!   from, and the one stream over it ([`DetRng`]).
//!
//! Hot-path call sites use the [`counter!`]/[`gauge!`]/[`histogram!`]
//! macros, which cache the registry handle in a local static so steady
//! state is a single relaxed atomic op.
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod deadline;
pub mod degrade;
pub mod json;
pub mod metrics;
pub mod querylog;
pub mod querystats;
pub mod report;
pub mod trace;

pub use metrics::{global, next_instance_id, Counter, Ewma, Gauge, Histogram, Registry, SloReport};
pub use querylog::{
    FlightRecorder, LogSink, QueryLog, QueryLogRecord, SamplingPolicy, VecSink, WriterSink,
};
pub use querystats::QueryStats;
pub use report::{build_trees, profile, SpanNode};
pub use trace::{
    child_of, current, recent, span, subscribe, unsubscribe, Collector, RingBuffer, Span,
    SpanContext, SpanRecord, StderrWriter, Subscriber, Value,
};

/// The SplitMix64 state increment: 2^64 divided by the golden ratio,
/// rounded to odd.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea & Flood 2014): the output for generator state
/// `x`. A stream seeded with `s` is `splitmix64(s)`, `splitmix64(s + γ)`,
/// `splitmix64(s + 2γ)`, … with γ = [`SPLITMIX64_GAMMA`]; on its own it is
/// a fast, well-mixed 64-bit hash. Every output is part of some replay
/// contract, so it must never change.
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded SplitMix64 stream: one `u64` of state, full period, and
/// the generator behind every replayable fault schedule (DAP chaos, socket
/// chaos, retry jitter).
#[derive(Debug, Clone)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Next 64 raw bits.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(SPLITMIX64_GAMMA);
        out
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the full double mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform usize in `[0, bound)`; 0, without a draw, when `bound` is 0.
    pub fn next_below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// One uniform draw against cumulative `rates`: the index of the first
    /// rate whose running sum exceeds the draw, or `None` when the draw
    /// lands past them all. Rates are probabilities whose sum should stay
    /// ≤ 1.
    pub fn pick(&mut self, rates: &[f64]) -> Option<usize> {
        let draw = self.next_f64();
        let mut acc = 0.0;
        rates.iter().position(|rate| {
            acc += rate;
            draw < acc
        })
    }
}

/// A `&'static Counter` from the global registry, resolved once per call
/// site: `obs::counter!("applab_store_scans_total").inc()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// A `&'static Gauge` from the global registry, resolved once per call
/// site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// A `&'static Histogram` from the global registry, resolved once per
/// call site. Bounds apply on first registration only.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::global().histogram($name, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The reference generator seeded at 0 (Vigna's splitmix64.c).
        let stream: Vec<u64> = (0..3)
            .map(|i| splitmix64(SPLITMIX64_GAMMA.wrapping_mul(i)))
            .collect();
        assert_eq!(
            stream,
            [0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f]
        );
    }

    #[test]
    fn det_rng_is_deterministic_and_uniform_ish() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = DetRng::new(43);
        assert_ne!(seq_a[0], c.next_u64());
        // Every chaos seed matrix replays from these exact draws.
        let mut pinned = DetRng::new(7);
        assert_eq!(
            (0..4).map(|_| pinned.next_u64()).collect::<Vec<_>>(),
            [
                0x63cbe1e459320dd7,
                0x044c3cd7f43c661c,
                0xe6984080bab12a02,
                0x953aeb70673e29cb
            ]
        );
        let mut r = DetRng::new(7);
        let mean: f64 = (0..10_000).map(|_| r.next_f64()).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn pick_takes_one_draw_against_cumulative_rates() {
        let (mut a, mut b) = (DetRng::new(9), DetRng::new(9));
        for _ in 0..1000 {
            let draw = b.next_f64();
            let expected = [0.1, 0.3, 0.6].into_iter().position(|edge| draw < edge);
            assert_eq!(a.pick(&[0.1, 0.2, 0.3]), expected);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "one draw per pick");
        assert_eq!(a.pick(&[]), None);
        assert_eq!(a.pick(&[0.0, 1.0]), Some(1));
    }
}
