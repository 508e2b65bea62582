//! Cooperative cancellation for long-running fits.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between the code
//! that *imposes* a budget (a server admitting a request with a deadline)
//! and the code that *honors* it (the λ-selection grid scan and QP outer
//! iterations deep inside the solver). The solver polls
//! [`CancelToken::is_cancelled`] at its natural outer-loop boundaries and
//! unwinds with a structured error — no thread is ever killed, no state is
//! poisoned, and partially-computed work is simply dropped.
//!
//! Two triggers exist, and either one fires the token:
//!
//! * an explicit [`CancelToken::cancel`] call (client disconnect, shutdown);
//! * a wall-clock deadline fixed at construction
//!   ([`CancelToken::with_deadline`] / [`CancelToken::after`]).
//!
//! Polling is a relaxed atomic load plus, when a deadline is set, one
//! monotonic clock read — cheap enough to sit between λ-grid points and
//! active-set iterations without showing up in a profile.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared state behind every clone of a token.
#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle with an optional wall-clock deadline.
///
/// Clones share state: cancelling any clone (or passing the deadline)
/// makes every clone report cancelled.
///
/// ```
/// use cellsync_runtime::CancelToken;
///
/// let token = CancelToken::new();
/// let worker = token.clone();
/// assert!(!worker.is_cancelled());
/// token.cancel();
/// assert!(worker.is_cancelled());
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that fires when the monotonic clock passes `deadline`.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that fires `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Fires the token explicitly. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once the token has been cancelled or its deadline has passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The wall-clock deadline, when one was set at construction.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Time remaining until the deadline ([`Duration::ZERO`] once passed);
    /// `None` when the token has no deadline.
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Token identity is sharing: clones compare equal, independently created
/// tokens do not. This keeps types embedding a token (e.g. fit requests)
/// comparable without pretending two unrelated budgets are interchangeable.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
        assert!(t.remaining().is_none());
    }

    #[test]
    fn cancel_fires_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
    }

    #[test]
    fn past_deadline_reports_cancelled() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn future_deadline_reports_live() {
        let t = CancelToken::after(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().expect("has deadline") > Duration::from_secs(3000));
    }

    #[test]
    fn equality_is_sharing() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
