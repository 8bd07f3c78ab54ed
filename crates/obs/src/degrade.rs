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
//! Instead, a stale serve [`mark`]s the query's accounting cell: the
//! `degraded` field of the [`crate::querystats::Scope`] that is live on
//! this thread, the same cell that already counts the cache hit.

/// Record that the current query served a stale (degraded) result for
/// `source`: sets `degraded` in the innermost
/// [`crate::querystats::Scope`] and counts
/// `applab_degraded_serves_total{source=...}` in the global registry.
pub fn mark(source: &str) {
    crate::querystats::degraded();
    crate::global()
        .counter_with("applab_degraded_serves_total", &[("source", source)])
        .inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::querystats::Scope;

    #[test]
    fn scope_sees_marks_in_between() {
        let scope = Scope::begin();
        assert!(!scope.snapshot().degraded);
        mark("test-source");
        assert!(scope.finish().degraded);
        // A fresh scope starts clean again.
        assert!(!Scope::begin().finish().degraded);
    }

    #[test]
    fn marks_are_thread_local() {
        let scope = Scope::begin();
        std::thread::scope(|s| {
            s.spawn(|| mark("other-thread")).join().expect("no panic");
        });
        assert!(!scope.finish().degraded);
    }
}
