//! Retry, backoff and circuit breaking for the remote data plane.
//!
//! The on-the-fly workflow pays a WAN round trip per request; when that
//! hop misbehaves (see [`crate::chaos`]) the client must distinguish
//! *transient* wire faults — worth retrying — from *permanent* request
//! errors and from a *down* upstream that retries would only hammer.
//!
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   decorrelated jitter (`sleep = min(cap, uniform(base, prev · 3))`),
//!   the schedule that avoids retry synchronisation across many clients.
//!   Backoff cooperates with the evaluator's query budget through
//!   [`applab_obs::deadline`]: a retry whose backoff would not fit in the
//!   remaining budget is abandoned instead of blowing the deadline.
//! * [`BreakerConfig`]/[`CircuitBreaker`] — a per-dataset breaker:
//!   *closed* → *open* after N consecutive failures (requests fail fast
//!   with [`DapError::Unavailable`]) → *half-open* after a cooldown, when
//!   one probe decides between closing again and re-opening.
//!
//! Observability: retries count as `applab_dap_retries_total{dataset}`,
//! breaker state is the `applab_dap_breaker_state{dataset}` gauge
//! (0 = closed, 1 = half-open, 2 = open), transitions to open count as
//! `applab_dap_breaker_opens_total`, and every retry emits a `dap.retry`
//! span (nested under the request's `dap.request` span, so retries show
//! up in query EXPLAIN output).

use crate::clock::Clock;
use crate::DapError;
use applab_obs::{Counter, DetRng, Gauge};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

/// Bounded retries with decorrelated-jitter backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 = no retries).
    pub max_attempts: u32,
    /// Lower bound of every backoff draw.
    pub base_backoff: Duration,
    /// Upper cap on any single backoff.
    pub max_backoff: Duration,
    /// When true, backoffs really sleep; when false they are accounted
    /// and checked against the deadline but return immediately
    /// (deterministic tests).
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(640),
            sleep: true,
        }
    }
}

impl RetryPolicy {
    /// A policy for deterministic tests: same schedule, no real sleeping.
    pub fn no_sleep() -> Self {
        RetryPolicy {
            sleep: false,
            ..RetryPolicy::default()
        }
    }

    /// Next backoff after `prev`, with decorrelated jitter:
    /// `min(cap, uniform(base, prev * 3))`.
    pub fn next_backoff(&self, prev: Duration, rng: &mut DetRng) -> Duration {
        let base = self.base_backoff.as_secs_f64();
        let hi = (prev.as_secs_f64() * 3.0).max(base);
        let drawn = base + (hi - base) * rng.next_f64();
        Duration::from_secs_f64(drawn).min(self.max_backoff)
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// How long an open breaker fails fast before allowing a half-open
    /// probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            cooldown: Duration::from_secs(30),
        }
    }
}

/// Breaker state for one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Requests fail fast without touching the upstream.
    Open,
    /// The cooldown elapsed; the next request is a probe.
    HalfOpen,
}

impl BreakerState {
    /// The gauge encoding: 0 = closed, 1 = half-open, 2 = open.
    fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

struct DatasetBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Duration,
    gauge: Arc<Gauge>,
}

/// Per-dataset circuit breakers sharing one config and clock.
pub struct CircuitBreaker {
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    instance: String,
    opens: Arc<Counter>,
    datasets: RwLock<HashMap<String, DatasetBreaker>>,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        let instance = applab_obs::next_instance_id().to_string();
        CircuitBreaker {
            config,
            clock,
            opens: applab_obs::global()
                .counter_with("applab_dap_breaker_opens_total", &[("instance", &instance)]),
            instance,
            datasets: RwLock::new(HashMap::new()),
        }
    }

    fn with_dataset<T>(&self, dataset: &str, f: impl FnOnce(&mut DatasetBreaker) -> T) -> T {
        let mut map = self
            .datasets
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = map.entry(dataset.to_string()).or_insert_with(|| {
            let gauge = applab_obs::global().gauge_with(
                "applab_dap_breaker_state",
                &[("dataset", dataset), ("instance", &self.instance)],
            );
            gauge.set(BreakerState::Closed.gauge_value());
            DatasetBreaker {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Duration::ZERO,
                gauge,
            }
        });
        f(entry)
    }

    /// Gate a request: `Ok` to proceed (closed, or a half-open probe),
    /// `Err(Unavailable)` to fail fast while the breaker is open.
    pub fn admit(&self, dataset: &str) -> Result<(), DapError> {
        let now = self.clock.now();
        let cooldown = self.config.cooldown;
        self.with_dataset(dataset, |b| match b.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                if now.saturating_sub(b.opened_at) >= cooldown {
                    b.state = BreakerState::HalfOpen;
                    b.gauge.set(b.state.gauge_value());
                    Ok(())
                } else {
                    Err(DapError::Unavailable {
                        dataset: dataset.to_string(),
                        retries: 0,
                    })
                }
            }
        })
    }

    /// The upstream answered (even with a permanent request error): close.
    pub fn record_success(&self, dataset: &str) {
        self.with_dataset(dataset, |b| {
            b.consecutive_failures = 0;
            if b.state != BreakerState::Closed {
                b.state = BreakerState::Closed;
                b.gauge.set(b.state.gauge_value());
            }
        });
    }

    /// A transient failure: count it, trip open past the threshold (a
    /// failed half-open probe re-opens immediately).
    pub fn record_failure(&self, dataset: &str) {
        let now = self.clock.now();
        let threshold = self.config.failure_threshold;
        let opened = self.with_dataset(dataset, |b| {
            b.consecutive_failures += 1;
            let trip = b.state == BreakerState::HalfOpen || b.consecutive_failures >= threshold;
            if trip && b.state != BreakerState::Open {
                b.state = BreakerState::Open;
                b.opened_at = now;
                b.gauge.set(b.state.gauge_value());
                true
            } else if trip {
                // Already open (e.g. repeated failures in one retry run):
                // keep the cooldown anchored at the latest failure.
                b.opened_at = now;
                false
            } else {
                false
            }
        });
        if opened {
            self.opens.inc();
        }
    }

    /// Current state for `dataset` (Closed when never seen).
    pub fn state(&self, dataset: &str) -> BreakerState {
        self.datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(dataset)
            .map(|b| b.state)
            .unwrap_or(BreakerState::Closed)
    }
}

/// Full resilience configuration for a [`crate::DapClient`].
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    pub retry: RetryPolicy,
    pub breaker: BreakerConfig,
}

impl ResilienceConfig {
    /// Deterministic-test shape: default schedule, no real sleeping.
    pub fn no_sleep() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::no_sleep(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Runtime resilience state: policy + breakers + the jitter RNG.
///
/// Owned by the client behind an `Option` so the zero-configuration path
/// stays a single branch.
pub struct ResilienceState {
    config: ResilienceConfig,
    breaker: CircuitBreaker,
    rng: Mutex<DetRng>,
    instance: String,
    retries: AtomicU64,
}

impl ResilienceState {
    pub fn new(config: ResilienceConfig, clock: Arc<dyn Clock>, seed: u64) -> Self {
        let breaker = CircuitBreaker::new(config.breaker.clone(), clock);
        ResilienceState {
            instance: breaker.instance.clone(),
            config,
            breaker,
            rng: Mutex::new(DetRng::new(seed)),
            retries: AtomicU64::new(0),
        }
    }

    /// Retries performed through this state so far.
    pub fn retries_total(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// The per-dataset breakers (for tests and diagnostics).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Run `run` under the retry policy and breaker for `dataset`.
    ///
    /// Retryable errors ([`DapError::is_retryable`]) are re-attempted up
    /// to `max_attempts` with decorrelated-jitter backoff; permanent
    /// errors return immediately. When attempts are exhausted — or a
    /// backoff no longer fits in the thread's remaining query budget —
    /// the caller gets [`DapError::Unavailable`].
    pub fn execute<T>(
        &self,
        dataset: &str,
        run: &dyn Fn() -> Result<T, DapError>,
    ) -> Result<T, DapError> {
        self.breaker.admit(dataset)?;
        let mut attempt = 0u32;
        // (backoff, cause) decided by the previous failed attempt.
        let mut pending: Option<(Duration, String)> = None;
        loop {
            attempt += 1;
            let _retry_span = pending.take().map(|(backoff, cause)| {
                self.retries.fetch_add(1, Ordering::Relaxed);
                applab_obs::querystats::dap_retry();
                applab_obs::global()
                    .counter_with(
                        "applab_dap_retries_total",
                        &[("dataset", dataset), ("instance", &self.instance)],
                    )
                    .inc();
                let mut span = applab_obs::span("dap.retry");
                span.record("dataset", dataset);
                span.record("attempt", attempt);
                span.record("backoff_us", backoff.as_micros() as u64);
                span.record("cause", cause);
                if self.config.retry.sleep {
                    std::thread::sleep(backoff);
                }
                span
            });
            match run() {
                Ok(v) => {
                    self.breaker.record_success(dataset);
                    return Ok(v);
                }
                Err(e) if !e.is_retryable() => {
                    // The upstream answered; a bad request is not an
                    // infrastructure failure.
                    self.breaker.record_success(dataset);
                    return Err(e);
                }
                Err(e) => {
                    self.breaker.record_failure(dataset);
                    if attempt >= self.config.retry.max_attempts {
                        return Err(DapError::Unavailable {
                            dataset: dataset.to_string(),
                            retries: attempt - 1,
                        });
                    }
                    let prev = pending
                        .as_ref()
                        .map(|(b, _)| *b)
                        .unwrap_or(self.config.retry.base_backoff);
                    let backoff = {
                        let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
                        self.config.retry.next_backoff(prev, &mut rng)
                    };
                    // Budget-aware: never sleep past the query deadline.
                    if let Some(remaining) = applab_obs::deadline::remaining() {
                        if remaining <= backoff {
                            return Err(DapError::Unavailable {
                                dataset: dataset.to_string(),
                                retries: attempt - 1,
                            });
                        }
                    }
                    pending = Some((backoff, e.to_string()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::sync::atomic::AtomicU32;

    fn state(clock: Arc<ManualClock>) -> ResilienceState {
        ResilienceState::new(ResilienceConfig::no_sleep(), clock, 7)
    }

    #[test]
    fn backoff_is_jittered_within_bounds() {
        let policy = RetryPolicy::default();
        let mut rng = DetRng::new(3);
        let mut prev = policy.base_backoff;
        for _ in 0..100 {
            let next = policy.next_backoff(prev, &mut rng);
            assert!(next >= policy.base_backoff, "{next:?}");
            assert!(next <= policy.max_backoff, "{next:?}");
            prev = next;
        }
    }

    #[test]
    fn transient_failures_retry_until_success() {
        let st = state(ManualClock::new());
        let calls = AtomicU32::new(0);
        let out = st.execute("lai", &|| {
            if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(DapError::Transport("reset".into()))
            } else {
                Ok(42)
            }
        });
        assert_eq!(out, Ok(42));
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert_eq!(st.retries_total(), 2);
        assert_eq!(st.breaker().state("lai"), BreakerState::Closed);
    }

    #[test]
    fn permanent_errors_do_not_retry() {
        let st = state(ManualClock::new());
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = st.execute("lai", &|| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(DapError::NoSuchDataset("lai".into()))
        });
        assert_eq!(out, Err(DapError::NoSuchDataset("lai".into())));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(st.retries_total(), 0);
    }

    #[test]
    fn exhausted_attempts_become_unavailable() {
        let st = state(ManualClock::new());
        let out: Result<(), _> = st.execute("lai", &|| Err(DapError::Transport("down".into())));
        assert_eq!(
            out,
            Err(DapError::Unavailable {
                dataset: "lai".into(),
                retries: 3,
            })
        );
    }

    #[test]
    fn breaker_opens_fails_fast_and_recovers_via_probe() {
        let clock = ManualClock::new();
        let st = state(clock.clone());
        // Two exhausted runs = 8 consecutive failures > threshold 5.
        for _ in 0..2 {
            let _ = st.execute("lai", &|| -> Result<(), _> {
                Err(DapError::Transport("down".into()))
            });
        }
        assert_eq!(st.breaker().state("lai"), BreakerState::Open);
        // While open: fail fast without calling the upstream.
        let calls = AtomicU32::new(0);
        let out = st.execute("lai", &|| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(1)
        });
        assert_eq!(
            out,
            Err(DapError::Unavailable {
                dataset: "lai".into(),
                retries: 0,
            })
        );
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // After the cooldown, a probe is admitted and closes the breaker.
        clock.advance(Duration::from_secs(31));
        let out = st.execute("lai", &|| Ok(7));
        assert_eq!(out, Ok(7));
        assert_eq!(st.breaker().state("lai"), BreakerState::Closed);
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let clock = ManualClock::new();
        let breaker = CircuitBreaker::new(BreakerConfig::default(), clock.clone());
        for _ in 0..5 {
            breaker.record_failure("lai");
        }
        assert_eq!(breaker.state("lai"), BreakerState::Open);
        clock.advance(Duration::from_secs(31));
        breaker.admit("lai").expect("probe admitted");
        assert_eq!(breaker.state("lai"), BreakerState::HalfOpen);
        breaker.record_failure("lai");
        assert_eq!(breaker.state("lai"), BreakerState::Open);
        // And the cooldown restarts from the probe failure.
        assert!(breaker.admit("lai").is_err());
    }

    #[test]
    fn breakers_are_per_dataset() {
        let clock = ManualClock::new();
        let breaker = CircuitBreaker::new(BreakerConfig::default(), clock);
        for _ in 0..5 {
            breaker.record_failure("lai");
        }
        assert_eq!(breaker.state("lai"), BreakerState::Open);
        assert_eq!(breaker.state("fapar"), BreakerState::Closed);
        assert!(breaker.admit("fapar").is_ok());
    }

    #[test]
    fn backoff_respects_query_deadline() {
        let st = ResilienceState::new(
            ResilienceConfig {
                retry: RetryPolicy {
                    max_attempts: 10,
                    base_backoff: Duration::from_millis(50),
                    max_backoff: Duration::from_secs(1),
                    sleep: false,
                },
                breaker: BreakerConfig::default(),
            },
            ManualClock::new(),
            7,
        );
        // 1 ms of budget left: the first 50 ms+ backoff cannot fit, so the
        // retry loop gives up after a single attempt.
        let _guard =
            applab_obs::deadline::enter(Some(std::time::Instant::now() + Duration::from_millis(1)));
        let calls = AtomicU32::new(0);
        let out: Result<(), _> = st.execute("lai", &|| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(DapError::Transport("down".into()))
        });
        assert_eq!(
            out,
            Err(DapError::Unavailable {
                dataset: "lai".into(),
                retries: 0,
            })
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }
}
