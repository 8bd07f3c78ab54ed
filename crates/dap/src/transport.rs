//! Simulated network transports.
//!
//! The paper's deployment puts the OPeNDAP server at VITO and the client —
//! the SDL / Ontop-spatial adapter — in another data centre; the dominant
//! cost of the on-the-fly workflow is the WAN round trip ("query execution
//! typically takes two orders of magnitude more time", Section 5). Since
//! this reproduction is laptop-local, the transport layer *simulates* that
//! WAN: every request pays a latency and a bandwidth charge, implemented as
//! a real sleep for benches and as pure accounting for tests.

use crate::DapError;
use applab_obs::Counter;
use std::sync::Arc;
use std::time::Duration;

/// An instance-labeled counter in the global metrics registry:
/// `name{transport="...",instance="N"}`. Each transport keeps its own
/// handle so per-instance getters stay exact even when several transports
/// (e.g. parallel tests) run in one process, while the registry remains
/// the single source of truth for exposition.
fn transport_counter(name: &str, kind: &str, instance: &str) -> Arc<Counter> {
    applab_obs::global().counter_with(name, &[("transport", kind), ("instance", instance)])
}

/// A transport charges a cost for moving a request/response pair.
pub trait Transport: Send + Sync {
    /// Charge for a round trip carrying `bytes` of response payload.
    fn charge(&self, bytes: usize);

    /// Total simulated time charged so far.
    fn total_charged(&self) -> Duration;

    /// Number of round trips so far.
    fn round_trips(&self) -> u64;

    /// Move a response payload across the wire: charge the transfer cost
    /// and return the bytes the client observes. The default is a perfect
    /// network — everything the server sent arrives intact. Faulty
    /// transports ([`crate::ChaosTransport`]) override this to drop,
    /// delay, truncate or corrupt the payload.
    fn deliver(&self, payload: Vec<u8>) -> Result<Vec<u8>, DapError> {
        self.charge(payload.len());
        Ok(payload)
    }
}

/// A free transport: in-process calls, no cost (the "materialized locally"
/// side of bench B1, and unit tests).
#[derive(Debug)]
pub struct Local {
    trips: Arc<Counter>,
}

impl Local {
    pub fn new() -> Self {
        let instance = applab_obs::next_instance_id().to_string();
        Local {
            trips: transport_counter("applab_dap_round_trips_total", "local", &instance),
        }
    }
}

impl Default for Local {
    fn default() -> Self {
        Local::new()
    }
}

impl Transport for Local {
    fn charge(&self, _bytes: usize) {
        self.trips.inc();
    }

    fn total_charged(&self) -> Duration {
        Duration::ZERO
    }

    fn round_trips(&self) -> u64 {
        self.trips.get()
    }
}

/// A simulated wide-area network: fixed round-trip latency plus a
/// throughput charge per byte.
#[derive(Debug)]
pub struct SimulatedWan {
    /// Round-trip latency.
    pub latency: Duration,
    /// Response throughput in bytes per second.
    pub bytes_per_sec: f64,
    /// When true (default), [`Transport::charge`] actually sleeps so wall
    /// clocks observe the cost. When false, the cost is only accounted
    /// (fast deterministic tests).
    pub sleep: bool,
    charged_nanos: Arc<Counter>,
    trips: Arc<Counter>,
}

impl SimulatedWan {
    /// A typical intra-Europe WAN: 40 ms RTT, 4 MB/s effective throughput.
    pub fn typical() -> Self {
        SimulatedWan::new(Duration::from_millis(40), 4e6, true)
    }

    pub fn new(latency: Duration, bytes_per_sec: f64, sleep: bool) -> Self {
        let instance = applab_obs::next_instance_id().to_string();
        SimulatedWan {
            latency,
            bytes_per_sec,
            sleep,
            charged_nanos: transport_counter(
                "applab_dap_simulated_latency_nanos_total",
                "wan",
                &instance,
            ),
            trips: transport_counter("applab_dap_round_trips_total", "wan", &instance),
        }
    }

    /// The cost of one round trip with `bytes` of payload.
    pub fn cost(&self, bytes: usize) -> Duration {
        let transfer = Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec.max(1.0));
        self.latency + transfer
    }
}

impl Transport for SimulatedWan {
    fn charge(&self, bytes: usize) {
        let cost = self.cost(bytes);
        self.charged_nanos.add(cost.as_nanos() as u64);
        self.trips.inc();
        if self.sleep {
            std::thread::sleep(cost);
        }
    }

    fn total_charged(&self) -> Duration {
        Duration::from_nanos(self.charged_nanos.get())
    }

    fn round_trips(&self) -> u64 {
        self.trips.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_is_free() {
        let t = Local::new();
        t.charge(1_000_000);
        t.charge(0);
        assert_eq!(t.total_charged(), Duration::ZERO);
        assert_eq!(t.round_trips(), 2);
    }

    #[test]
    fn wan_cost_model() {
        let wan = SimulatedWan::new(Duration::from_millis(40), 1e6, false);
        // 1 MB at 1 MB/s = 1 s transfer + 40 ms latency.
        let c = wan.cost(1_000_000);
        assert!((c.as_secs_f64() - 1.04).abs() < 1e-9);
        // Latency dominates small requests.
        let small = wan.cost(100);
        assert!(small >= Duration::from_millis(40));
        assert!(small < Duration::from_millis(41));
    }

    #[test]
    fn accounting_without_sleep() {
        let wan = SimulatedWan::new(Duration::from_millis(10), 1e6, false);
        let start = std::time::Instant::now();
        for _ in 0..100 {
            wan.charge(1000);
        }
        // No real sleeping happened.
        assert!(start.elapsed() < Duration::from_millis(500));
        assert_eq!(wan.round_trips(), 100);
        let expected = wan.cost(1000) * 100;
        let diff = wan.total_charged().abs_diff(expected);
        assert!(diff < Duration::from_millis(1));
    }

    #[test]
    fn sleeping_transport_takes_real_time() {
        let wan = SimulatedWan::new(Duration::from_millis(5), 1e9, true);
        let start = std::time::Instant::now();
        wan.charge(10);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
