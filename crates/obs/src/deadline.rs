//! Cross-crate cooperative deadline propagation.
//!
//! The SPARQL evaluator owns the per-query `Budget`, but the crates it
//! calls into (notably `applab-dap`'s retry loop) cannot depend on
//! `applab-sparql` without a cycle. This module is the bridge: the
//! evaluator installs the query deadline in a thread-local scope before
//! running operators, and anything further down the same call stack can
//! ask [`remaining`] how much time the query has left — e.g. to decide
//! whether a retry backoff still fits inside the budget.
//!
//! Scopes nest: an inner scope can only *tighten* the deadline (the
//! earlier instant wins), so a sub-operation can never out-live the query
//! that spawned it. Dropping the guard restores the previous deadline,
//! which keeps recursive evaluation (sub-queries) well-behaved.

use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// RAII guard for a deadline scope; restores the previous deadline on drop.
#[derive(Debug)]
pub struct DeadlineScope {
    prev: Option<Instant>,
    // Thread-local state: the guard must be dropped on the thread that
    // created it.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Install `deadline` for the current thread until the guard drops.
///
/// `None` leaves any outer deadline in force; `Some(at)` tightens the
/// scope to `min(outer, at)`.
pub fn enter(deadline: Option<Instant>) -> DeadlineScope {
    let prev = DEADLINE.with(|d| d.get());
    let effective = match (prev, deadline) {
        (Some(outer), Some(inner)) => Some(outer.min(inner)),
        (outer, inner) => inner.or(outer),
    };
    DEADLINE.with(|d| d.set(effective));
    DeadlineScope {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        let prev = self.prev;
        DEADLINE.with(|d| d.set(prev));
    }
}

/// The deadline currently in force on this thread, if any.
pub fn current() -> Option<Instant> {
    DEADLINE.with(|d| d.get())
}

/// Time left before the current thread's deadline; `None` when no
/// deadline is in force, `Some(ZERO)` when it already passed.
pub fn remaining() -> Option<Duration> {
    current().map(|at| at.saturating_duration_since(Instant::now()))
}

/// True when a deadline is in force and has already passed.
pub fn expired() -> bool {
    matches!(remaining(), Some(Duration::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_deadline_by_default() {
        assert_eq!(current(), None);
        assert_eq!(remaining(), None);
        assert!(!expired());
    }

    #[test]
    fn scope_installs_and_restores() {
        let at = Instant::now() + Duration::from_secs(60);
        {
            let _g = enter(Some(at));
            assert_eq!(current(), Some(at));
            assert!(remaining().expect("deadline set") > Duration::from_secs(50));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn nested_scope_tightens_only() {
        let outer = Instant::now() + Duration::from_secs(10);
        let looser = outer + Duration::from_secs(100);
        let tighter = Instant::now() + Duration::from_secs(1);
        let _g = enter(Some(outer));
        {
            // A looser inner deadline cannot extend the outer one.
            let _g2 = enter(Some(looser));
            assert_eq!(current(), Some(outer));
        }
        {
            let _g2 = enter(Some(tighter));
            assert_eq!(current(), Some(tighter));
        }
        {
            // `None` inherits the outer deadline.
            let _g2 = enter(None);
            assert_eq!(current(), Some(outer));
        }
        assert_eq!(current(), Some(outer));
    }

    #[test]
    fn expired_deadline_reports_zero() {
        let _g = enter(Some(Instant::now() - Duration::from_secs(1)));
        assert_eq!(remaining(), Some(Duration::ZERO));
        assert!(expired());
    }
}
