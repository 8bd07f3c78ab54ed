//! Admission control: bounded in-flight permits with a small wait queue
//! and queue-delay-based adaptive shedding.
//!
//! The service grants at most `max_in_flight` permits at a time. A query
//! arriving while all permits are taken waits in a bounded queue for up to
//! a configurable duration; a query arriving while the queue is also full
//! is rejected immediately. On top of the fixed bounds sits an adaptive
//! shedder: every granted permit feeds its measured queue wait into an
//! EWMA ([`applab_obs::Ewma`]), and when a `queue_delay_target` is
//! configured, arrivals that would have to queue while the smoothed delay
//! exceeds the target are shed at the door — the queue is already slower
//! than the caller is willing to tolerate, so waiting would only convert
//! the rejection into a slower one. All rejection flavours surface as
//! [`applab_core::CoreError::Overloaded`] carrying a `retry_after`
//! computed from the smoothed delay — load shedding is a structured,
//! actionable outcome, not an error string.
//!
//! Shed decisions are observable per flavour through
//! `applab_service_shed_total{kind}` (`queue_full` / `queue_timeout` /
//! `queue_delay`) and the smoothed delay itself through the
//! `applab_service_queue_delay_ewma_us` gauge.

use applab_obs::Ewma;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Weight of each new queue-wait sample in the smoothed delay. 0.2 means
/// the average forgets ~90% of its history within ~10 grants: fast enough
/// to open back up promptly after a burst drains, slow enough that one
/// stray slow grant does not trip the shedder.
const DELAY_EWMA_ALPHA: f64 = 0.2;

/// Bounds on the computed `Retry-After`, in whole seconds: at least 1
/// (HTTP has no sub-second `Retry-After`), at most 30 (past that the
/// estimate says more about the smoothing horizon than about the queue).
const RETRY_AFTER_SECS: (f64, f64) = (1.0, 30.0);

#[derive(Debug, Default)]
struct State {
    in_flight: usize,
    queued: usize,
}

/// A load snapshot taken when a query was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rejection {
    /// Queries holding permits at rejection time.
    pub in_flight: usize,
    /// Queries waiting for permits at rejection time.
    pub queued: usize,
    /// Why the query was shed — a stable low-cardinality label for
    /// `applab_service_shed_total{kind}`: `"queue_full"` (turned away at
    /// the door), `"queue_timeout"` (waited, no permit in time), or
    /// `"queue_delay"` (adaptive shedder: smoothed queue delay above
    /// target).
    pub kind: &'static str,
    /// How long the caller should wait before retrying, computed from
    /// the smoothed queue delay at rejection time.
    pub retry_after: Duration,
}

#[derive(Debug)]
pub(crate) struct Admission {
    max_in_flight: usize,
    max_queue: usize,
    /// Adaptive shedding target: `None` disables the shedder and keeps
    /// the fixed permit/queue bounds as the only admission policy.
    queue_delay_target: Option<Duration>,
    state: Mutex<State>,
    available: Condvar,
    /// Smoothed queue wait in seconds, fed by every grant (zero-wait
    /// grants decay it) and by queue-wait timeouts.
    delay_ewma: Ewma,
}

impl Admission {
    pub(crate) fn new(
        max_in_flight: usize,
        max_queue: usize,
        queue_delay_target: Option<Duration>,
    ) -> Self {
        Admission {
            max_in_flight: max_in_flight.max(1),
            max_queue,
            queue_delay_target,
            state: Mutex::new(State::default()),
            available: Condvar::new(),
            delay_ewma: Ewma::new(),
        }
    }

    /// Acquire a permit, waiting in the bounded queue for at most
    /// `queue_timeout`. The returned guard releases the permit on drop.
    pub(crate) fn acquire(&self, queue_timeout: Duration) -> Result<Permit<'_>, Rejection> {
        let arrived = Instant::now();
        let mut st = self.state.lock().expect("admission lock poisoned");
        if st.in_flight < self.max_in_flight {
            st.in_flight += 1;
            self.observe_wait(Duration::ZERO);
            self.publish(&st);
            return Ok(Permit { admission: self });
        }
        // All permits taken: the query would have to queue. The adaptive
        // shedder turns it away right here when the smoothed queue delay
        // already exceeds the target — joining the queue would only make
        // the rejection slower and the queue longer.
        if let Some(target) = self.queue_delay_target {
            if self.delay_ewma.value() > target.as_secs_f64() {
                return Err(self.reject(&st, "queue_delay"));
            }
        }
        if st.queued >= self.max_queue {
            return Err(self.reject(&st, "queue_full"));
        }
        st.queued += 1;
        self.publish(&st);
        let deadline = arrived + queue_timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                st.queued -= 1;
                // A timeout is a queue-delay sample too: the queue is at
                // least `queue_timeout` slow for this arrival, and the
                // shedder must see that even when no permit was granted.
                self.observe_wait(arrived.elapsed());
                let r = self.reject(&st, "queue_timeout");
                self.publish(&st);
                return Err(r);
            }
            let (guard, _timeout) = self
                .available
                .wait_timeout(st, remaining)
                .expect("admission lock poisoned");
            st = guard;
            if st.in_flight < self.max_in_flight {
                st.queued -= 1;
                st.in_flight += 1;
                self.observe_wait(arrived.elapsed());
                self.publish(&st);
                return Ok(Permit { admission: self });
            }
        }
    }

    /// Current `(in_flight, queued)` counts.
    pub(crate) fn load(&self) -> (usize, usize) {
        let st = self.state.lock().expect("admission lock poisoned");
        (st.in_flight, st.queued)
    }

    /// Fold a measured queue wait into the smoothed delay and mirror it
    /// to the gauge (microseconds — the gauge is integral).
    fn observe_wait(&self, wait: Duration) {
        let smoothed = self
            .delay_ewma
            .observe(wait.as_secs_f64(), DELAY_EWMA_ALPHA);
        applab_obs::gauge!("applab_service_queue_delay_ewma_us").set((smoothed * 1e6) as i64);
    }

    /// Build the structured rejection for the current state and count it.
    fn reject(&self, st: &State, kind: &'static str) -> Rejection {
        applab_obs::global()
            .counter_with("applab_service_shed_total", &[("kind", kind)])
            .inc();
        let (lo, hi) = RETRY_AFTER_SECS;
        let retry_after = Duration::from_secs(self.delay_ewma.value().ceil().clamp(lo, hi) as u64);
        Rejection {
            in_flight: st.in_flight,
            queued: st.queued,
            kind,
            retry_after,
        }
    }

    fn publish(&self, st: &State) {
        applab_obs::gauge!("applab_service_in_flight").set(st.in_flight as i64);
        applab_obs::gauge!("applab_service_queued").set(st.queued as i64);
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("admission lock poisoned");
        st.in_flight -= 1;
        self.publish(&st);
        drop(st);
        self.available.notify_one();
    }
}

/// A granted in-flight permit; releasing is RAII so a panicking query
/// still frees its slot.
#[derive(Debug)]
pub(crate) struct Permit<'a> {
    admission: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.admission.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn permits_are_granted_up_to_capacity() {
        let adm = Admission::new(2, 0, None);
        let p1 = adm.acquire(Duration::ZERO).unwrap();
        let _p2 = adm.acquire(Duration::ZERO).unwrap();
        let rejected = adm.acquire(Duration::ZERO).unwrap_err();
        assert_eq!(rejected.in_flight, 2);
        assert_eq!(rejected.kind, "queue_full");
        assert!(rejected.retry_after >= Duration::from_secs(1));
        drop(p1);
        assert!(adm.acquire(Duration::ZERO).is_ok());
    }

    #[test]
    fn queue_full_rejects_immediately() {
        let adm = Arc::new(Admission::new(1, 1, None));
        let permit = adm.acquire(Duration::ZERO).unwrap();
        // One waiter fills the queue.
        let waiter = {
            let adm = Arc::clone(&adm);
            std::thread::spawn(move || adm.acquire(Duration::from_secs(5)).is_ok())
        };
        // Wait until the waiter is registered in the queue.
        while adm.load().1 == 0 {
            std::thread::yield_now();
        }
        let r = adm.acquire(Duration::from_secs(5)).unwrap_err();
        assert_eq!(r.kind, "queue_full", "full queue must reject at the door");
        assert_eq!((r.in_flight, r.queued), (1, 1));
        drop(permit);
        assert!(
            waiter.join().unwrap(),
            "queued waiter gets the freed permit"
        );
    }

    #[test]
    fn queue_wait_times_out() {
        let adm = Admission::new(1, 4, None);
        let _permit = adm.acquire(Duration::ZERO).unwrap();
        let started = Instant::now();
        let r = adm.acquire(Duration::from_millis(30)).unwrap_err();
        assert_eq!(r.kind, "queue_timeout");
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert_eq!(adm.load().1, 0, "timed-out waiter left the queue");
    }

    /// The adaptive shedder: once the smoothed queue delay sits above the
    /// target, arrivals that would queue are shed at the door even though
    /// the queue has room — and zero-wait grants decay the average so the
    /// door reopens once the backlog clears.
    #[test]
    fn queue_delay_shedding_trips_and_recovers() {
        let target = Duration::from_millis(10);
        let adm = Admission::new(1, 8, Some(target));
        let permit = adm.acquire(Duration::ZERO).unwrap();
        // Drive the EWMA above the target with queue-wait timeouts.
        while adm.delay_ewma.value() <= target.as_secs_f64() {
            let r = adm.acquire(Duration::from_millis(15)).unwrap_err();
            assert_eq!(r.kind, "queue_timeout");
        }
        let shed = adm.acquire(Duration::from_secs(5)).unwrap_err();
        assert_eq!(shed.kind, "queue_delay", "smoothed delay above target");
        assert!(shed.retry_after >= Duration::from_secs(1));
        drop(permit);
        // Uncontended grants observe zero wait and decay the average.
        while adm.delay_ewma.value() > target.as_secs_f64() {
            drop(adm.acquire(Duration::ZERO).unwrap());
        }
        let p = adm.acquire(Duration::ZERO).unwrap();
        drop(p);
    }

    /// Without a target the shedder is inert: the same overload pattern
    /// queues instead of shedding.
    #[test]
    fn no_target_means_no_delay_shedding() {
        let adm = Admission::new(1, 8, None);
        let _permit = adm.acquire(Duration::ZERO).unwrap();
        for _ in 0..4 {
            let r = adm.acquire(Duration::from_millis(5)).unwrap_err();
            assert_eq!(
                r.kind, "queue_timeout",
                "queues (and times out), never sheds on delay"
            );
        }
    }
}
