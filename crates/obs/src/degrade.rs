//! Degraded-result propagation.
//!
//! When the remote data plane fails but a stale cache entry is still
//! inside its grace window, the stack serves the stale copy instead of
//! erroring — a *degraded* answer. The one layer that does this,
//! `SubsetCache` in `applab-sdl` (which also backs the `opendap` virtual
//! tables of `applab-obda`), sits far below the service facade that must
//! report the flag, and threading a boolean through every return type
//! would contaminate `QueryResults` (whose byte-identical `PartialEq` is
//! the backbone of the equivalence tests).
//!
//! Instead, stale serves [`mark`] a thread-local counter; the service
//! opens a [`Scope`] around each query and asks it afterwards whether
//! anything on this thread degraded in between. This is sound because
//! all remote fetches happen on the evaluating thread (scans run
//! sequentially; only the in-memory hash-join probe is parallel).

use std::cell::Cell;

thread_local! {
    static MARKS: Cell<u64> = const { Cell::new(0) };
}

/// Record that the current thread served a stale (degraded) result for
/// `source`. Also counts `applab_degraded_serves_total{source=...}` in
/// the global registry.
pub fn mark(source: &str) {
    MARKS.with(|m| m.set(m.get() + 1));
    crate::global()
        .counter_with("applab_degraded_serves_total", &[("source", source)])
        .inc();
}

/// Total degradation marks recorded by this thread so far.
pub fn marks() -> u64 {
    MARKS.with(|m| m.get())
}

/// Snapshot of the thread's mark counter; compares against later state to
/// tell whether anything degraded in between.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    start: u64,
}

impl Scope {
    /// Begin observing the current thread for degradation marks.
    pub fn begin() -> Self {
        Scope { start: marks() }
    }

    /// True when the current thread recorded a mark since [`Scope::begin`].
    pub fn degraded(&self) -> bool {
        marks() > self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_sees_marks_in_between() {
        let scope = Scope::begin();
        assert!(!scope.degraded());
        mark("test-source");
        assert!(scope.degraded());
        // A fresh scope starts clean again.
        assert!(!Scope::begin().degraded());
    }

    #[test]
    fn marks_are_thread_local() {
        let scope = Scope::begin();
        std::thread::scope(|s| {
            s.spawn(|| mark("other-thread")).join().expect("no panic");
        });
        assert!(!scope.degraded());
    }
}
