//! Deterministic fault injection for the simulated WAN.
//!
//! The paper's on-the-fly workflow rides a real WAN hop to VITO's OPeNDAP
//! server; at the ROADMAP's target scale that hop *will* drop, stall and
//! corrupt responses. [`ChaosTransport`] decorates any [`Transport`] and
//! injects five fault kinds at configurable rates, driven by a seeded
//! splitmix64 generator so every failure sequence is exactly reproducible
//! from the seed — the chaos stress suite replays identical fault
//! schedules across runs and CI machines.
//!
//! Fault taxonomy (one draw per delivery, rates are cumulative):
//!
//! | kind      | effect on the wire                          | client sees              |
//! |-----------|---------------------------------------------|--------------------------|
//! | transient | connection reset before any byte arrives    | `DapError::Transport`    |
//! | timeout   | request exceeds its attempt deadline        | `DapError::Transport`    |
//! | stall     | response delayed by an extra latency charge | slow but correct bytes   |
//! | truncate  | a strict prefix of the payload arrives      | `DapError::Truncated`*   |
//! | corrupt   | three payload bytes flipped                 | checksum mismatch*       |
//!
//! (*) detected by the client's length + CRC-32 integrity check around
//! [`Transport::deliver`], so a damaged payload is always a typed error,
//! never a silently wrong answer.

use crate::transport::Transport;
use crate::DapError;
use applab_obs::Counter;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// A tiny deterministic PRNG (splitmix64): one u64 of state, full period,
/// good enough bit mixing for fault scheduling, and — unlike anything from
/// crates.io — available offline.
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
        let out = applab_obs::splitmix64(self.state);
        self.state = self.state.wrapping_add(applab_obs::SPLITMIX64_GAMMA);
        out
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → the full double mantissa.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform usize in `[0, bound)`; 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// Per-delivery fault rates. Rates are probabilities in `[0, 1]` and are
/// applied cumulatively from one uniform draw, so `transient + timeout +
/// stall + truncate + corrupt` should stay ≤ 1.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Connection reset: the request fails before any payload arrives.
    pub transient_rate: f64,
    /// Attempt timeout: the request burns [`ChaosConfig::attempt_timeout`]
    /// and fails.
    pub timeout_rate: f64,
    /// Stall: the payload arrives intact but [`ChaosConfig::stall`] late.
    pub stall_rate: f64,
    /// Truncation: only a strict prefix of the payload arrives.
    pub truncate_rate: f64,
    /// Corruption: payload bytes are flipped in flight.
    pub corrupt_rate: f64,
    /// Extra delay charged by a stall fault.
    pub stall: Duration,
    /// The per-attempt deadline a timeout fault reports (and charges).
    pub attempt_timeout: Duration,
    /// When true, stall and timeout faults really sleep (benches); when
    /// false they only account their cost (deterministic tests).
    pub sleep: bool,
}

impl ChaosConfig {
    /// Split `rate` evenly across the five fault kinds — the shape the
    /// stress suite uses ("30% fault rate" → 6% of each kind).
    pub fn uniform(rate: f64) -> Self {
        let each = rate / 5.0;
        ChaosConfig {
            transient_rate: each,
            timeout_rate: each,
            stall_rate: each,
            truncate_rate: each,
            corrupt_rate: each,
            ..ChaosConfig::default()
        }
    }

    /// Sum of all fault rates.
    pub fn total_rate(&self) -> f64 {
        self.transient_rate
            + self.timeout_rate
            + self.stall_rate
            + self.truncate_rate
            + self.corrupt_rate
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            transient_rate: 0.0,
            timeout_rate: 0.0,
            stall_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            stall: Duration::from_millis(200),
            attempt_timeout: Duration::from_millis(500),
            sleep: false,
        }
    }
}

fn fault_counter(kind: &str, instance: &str) -> Arc<Counter> {
    applab_obs::global().counter_with(
        "applab_dap_faults_injected_total",
        &[("kind", kind), ("instance", instance)],
    )
}

/// A [`Transport`] decorator that injects faults into deliveries.
///
/// Wraps any inner transport (its latency/bandwidth accounting still
/// applies to whatever actually crosses the wire) and rolls the fault die
/// once per [`Transport::deliver`]. All injected faults are counted as
/// `applab_dap_faults_injected_total{kind=...}`.
pub struct ChaosTransport {
    inner: Arc<dyn Transport>,
    config: ChaosConfig,
    rng: Mutex<DetRng>,
    stalled_nanos: Arc<Counter>,
    transient: Arc<Counter>,
    timeout: Arc<Counter>,
    stall: Arc<Counter>,
    truncate: Arc<Counter>,
    corrupt: Arc<Counter>,
}

impl ChaosTransport {
    pub fn new(inner: Arc<dyn Transport>, config: ChaosConfig, seed: u64) -> Self {
        let instance = applab_obs::next_instance_id().to_string();
        ChaosTransport {
            inner,
            config,
            rng: Mutex::new(DetRng::new(seed)),
            stalled_nanos: applab_obs::global().counter_with(
                "applab_dap_simulated_latency_nanos_total",
                &[("transport", "chaos"), ("instance", &instance)],
            ),
            transient: fault_counter("transient", &instance),
            timeout: fault_counter("timeout", &instance),
            stall: fault_counter("stall", &instance),
            truncate: fault_counter("truncate", &instance),
            corrupt: fault_counter("corrupt", &instance),
        }
    }

    /// Faults injected so far, by kind.
    pub fn injected(&self) -> ChaosTally {
        ChaosTally {
            transient: self.transient.get(),
            timeout: self.timeout.get(),
            stall: self.stall.get(),
            truncate: self.truncate.get(),
            corrupt: self.corrupt.get(),
        }
    }

    fn charge_delay(&self, delay: Duration) {
        self.stalled_nanos.add(delay.as_nanos() as u64);
        if self.config.sleep {
            std::thread::sleep(delay);
        }
    }
}

/// Snapshot of injected fault counts, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTally {
    pub transient: u64,
    pub timeout: u64,
    pub stall: u64,
    pub truncate: u64,
    pub corrupt: u64,
}

impl ChaosTally {
    pub fn total(&self) -> u64 {
        self.transient + self.timeout + self.stall + self.truncate + self.corrupt
    }
}

enum Fault {
    None,
    Transient,
    Timeout,
    Stall,
    Truncate(usize),
    Corrupt([usize; 3]),
}

impl Transport for ChaosTransport {
    fn charge(&self, bytes: usize) {
        self.inner.charge(bytes);
    }

    fn total_charged(&self) -> Duration {
        self.inner.total_charged() + Duration::from_nanos(self.stalled_nanos.get())
    }

    fn round_trips(&self) -> u64 {
        self.inner.round_trips()
    }

    fn deliver(&self, payload: Bytes) -> Result<Bytes, DapError> {
        // One lock scope for all the randomness this delivery needs, so a
        // delivery consumes a fixed, order-independent number of draws.
        let fault = {
            let mut rng = self.rng.lock();
            let draw = rng.next_f64();
            let c = &self.config;
            let transient = c.transient_rate;
            let timeout = transient + c.timeout_rate;
            let stall = timeout + c.stall_rate;
            let truncate = stall + c.truncate_rate;
            let corrupt = truncate + c.corrupt_rate;
            if draw < transient {
                Fault::Transient
            } else if draw < timeout {
                Fault::Timeout
            } else if draw < stall {
                Fault::Stall
            } else if draw < truncate {
                Fault::Truncate(rng.next_below(payload.len()))
            } else if draw < corrupt {
                Fault::Corrupt([
                    rng.next_below(payload.len()),
                    rng.next_below(payload.len()),
                    rng.next_below(payload.len()),
                ])
            } else {
                Fault::None
            }
        };

        match fault {
            Fault::None => self.inner.deliver(payload),
            Fault::Transient => {
                self.transient.inc();
                // The failed round trip still pays its latency.
                self.inner.charge(0);
                Err(DapError::Transport(
                    "injected transient failure: connection reset by peer".into(),
                ))
            }
            Fault::Timeout => {
                self.timeout.inc();
                self.inner.charge(0);
                self.charge_delay(self.config.attempt_timeout);
                Err(DapError::Transport(format!(
                    "request timed out after {:?}",
                    self.config.attempt_timeout
                )))
            }
            Fault::Stall => {
                self.stall.inc();
                self.charge_delay(self.config.stall);
                self.inner.deliver(payload)
            }
            Fault::Truncate(keep) => {
                self.truncate.inc();
                // A strict prefix arrives; the inner transport only ever
                // sees (and charges for) the bytes that made it through.
                self.inner.deliver(payload.slice(..keep))
            }
            Fault::Corrupt(positions) => {
                self.corrupt.inc();
                let mut damaged = payload.to_vec();
                for pos in positions {
                    if let Some(byte) = damaged.get_mut(pos) {
                        *byte ^= 0xFF;
                    }
                }
                self.inner.deliver(Bytes::from(damaged))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Local;

    #[test]
    fn splitmix_is_deterministic_and_uniform_ish() {
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
    fn zero_rate_chaos_is_transparent() {
        let chaos = ChaosTransport::new(Arc::new(Local::new()), ChaosConfig::default(), 1);
        let payload = Bytes::from_static(b"hello dap");
        let delivered = chaos.deliver(payload.clone()).expect("no faults at rate 0");
        assert_eq!(delivered, payload);
        assert_eq!(chaos.injected().total(), 0);
        assert_eq!(chaos.round_trips(), 1);
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let chaos =
                ChaosTransport::new(Arc::new(Local::new()), ChaosConfig::uniform(0.5), seed);
            let outcomes: Vec<String> = (0..64)
                .map(|i| match chaos.deliver(Bytes::from(vec![i as u8; 100])) {
                    Ok(b) => format!("ok:{}", b.len()),
                    Err(e) => format!("err:{e}"),
                })
                .collect();
            (outcomes, chaos.injected())
        };
        let (out1, tally1) = run(0xC0FFEE);
        let (out2, tally2) = run(0xC0FFEE);
        assert_eq!(out1, out2, "same seed must replay the same faults");
        assert_eq!(tally1, tally2);
        let (out3, _) = run(0xBEEF);
        assert_ne!(out1, out3, "different seeds should diverge");
    }

    #[test]
    fn all_fault_kinds_fire_at_high_rate() {
        let chaos = ChaosTransport::new(Arc::new(Local::new()), ChaosConfig::uniform(1.0), 99);
        for _ in 0..256 {
            let _ = chaos.deliver(Bytes::from(vec![7u8; 64]));
        }
        let tally = chaos.injected();
        assert_eq!(tally.total(), 256, "rate 1.0 faults every delivery");
        assert!(tally.transient > 0, "{tally:?}");
        assert!(tally.timeout > 0, "{tally:?}");
        assert!(tally.stall > 0, "{tally:?}");
        assert!(tally.truncate > 0, "{tally:?}");
        assert!(tally.corrupt > 0, "{tally:?}");
    }

    #[test]
    fn truncation_delivers_a_strict_prefix() {
        let config = ChaosConfig {
            truncate_rate: 1.0,
            ..ChaosConfig::default()
        };
        let chaos = ChaosTransport::new(Arc::new(Local::new()), config, 5);
        let payload = Bytes::from(vec![0xAB; 500]);
        for _ in 0..32 {
            let out = chaos
                .deliver(payload.clone())
                .expect("truncate still delivers");
            assert!(out.len() < payload.len());
            assert_eq!(&payload[..out.len()], &out[..]);
        }
    }

    #[test]
    fn corruption_flips_bytes_but_keeps_length() {
        let config = ChaosConfig {
            corrupt_rate: 1.0,
            ..ChaosConfig::default()
        };
        let chaos = ChaosTransport::new(Arc::new(Local::new()), config, 5);
        let payload = Bytes::from(vec![0u8; 300]);
        let out = chaos
            .deliver(payload.clone())
            .expect("corrupt still delivers");
        assert_eq!(out.len(), payload.len());
        assert_ne!(out, payload);
    }

    #[test]
    fn stall_accounts_extra_latency_without_sleeping() {
        let config = ChaosConfig {
            stall_rate: 1.0,
            stall: Duration::from_millis(250),
            sleep: false,
            ..ChaosConfig::default()
        };
        let chaos = ChaosTransport::new(Arc::new(Local::new()), config, 5);
        let started = std::time::Instant::now();
        let out = chaos
            .deliver(Bytes::from_static(b"payload"))
            .expect("stall delivers");
        assert_eq!(&out[..], b"payload");
        assert!(
            started.elapsed() < Duration::from_millis(100),
            "no real sleep"
        );
        assert_eq!(chaos.total_charged(), Duration::from_millis(250));
    }
}
