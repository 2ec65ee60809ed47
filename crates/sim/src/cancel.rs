//! Cooperative run cancellation: the mechanism behind per-run wall-clock
//! deadlines and server shutdown in `fppn-serve`.
//!
//! A [`CancelToken`] is a cheap, cloneable handle checked *between* units
//! of work — at round-scan and frame boundaries in the round loop, and
//! before each behavior job on either data plane — never preemptively.
//! Cooperative checks keep the determinism contract trivially intact: a
//! cancelled run returns
//! [`SimError::Cancelled`](crate::SimError::Cancelled) with partial
//! progress, while a run that is *not* cancelled performs arithmetic
//! completely untouched by the token (a relaxed flag load has no effect on
//! any computed value), so non-cancelled runs stay bit-identical to runs
//! without a token. The checks also never allocate, preserving the
//! zero-alloc steady state of the round loop (asserted by the `alloc_zero`
//! gate with an armed token).
//!
//! Tokens form a chain: a child token trips when its parent does, so one
//! server-wide shutdown token fans out to every in-flight run while each
//! run still owns a private deadline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    /// Wall-clock instant past which the token reports cancelled.
    deadline: Option<Instant>,
    /// Cancelling the parent cancels this token too (checked lazily).
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        // Fast path: one relaxed load. The flag latches deadline expiry and
        // parent cancellation, so repeated checks after the first trip cost
        // a single load and never consult the clock again.
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        if let Some(parent) = &self.parent {
            if parent.is_cancelled() {
                self.cancelled.store(true, Ordering::Relaxed);
                return true;
            }
        }
        false
    }
}

/// A cooperative cancellation handle: the simulator polls it at round
/// and frame boundaries (and per behavior job) and abandons the run with
/// [`SimError::Cancelled`](crate::SimError::Cancelled) once it trips —
/// via [`CancelToken::cancel`], an expired deadline, or a tripped parent.
///
/// Cloning shares the same underlying flag; [`CancelToken::child`] creates
/// a *linked* token that trips with its parent but can also be cancelled
/// (or deadlined) independently.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh token that only trips on an explicit [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: None,
            }),
        }
    }

    /// A token that trips `budget` from now (or on explicit cancel).
    #[must_use]
    pub fn with_deadline(budget: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + budget)
    }

    /// A token that trips at the absolute instant `deadline`.
    #[must_use]
    pub fn with_deadline_at(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
                parent: None,
            }),
        }
    }

    /// A child token: trips when `self` trips, or on its own cancel.
    #[must_use]
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// A child token with its own absolute deadline: trips when `self`
    /// trips, when `deadline` passes, or on its own cancel — the shape of
    /// a per-run deadline under a server-wide shutdown token.
    #[must_use]
    pub fn child_with_deadline_at(&self, deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
                parent: Some(Arc::clone(&self.inner)),
            }),
        }
    }

    /// Trips the token; every clone and child observes it on its next
    /// check. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token has tripped (explicitly, by deadline expiry, or
    /// through a cancelled parent). Allocation-free; after the first trip
    /// it is a single relaxed load.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// The absolute deadline this token carries, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_trips_clones_and_children() {
        let token = CancelToken::new();
        let clone = token.clone();
        let child = token.child();
        assert!(!token.is_cancelled() && !clone.is_cancelled() && !child.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
        assert!(child.is_cancelled(), "children observe the parent");
    }

    #[test]
    fn child_cancel_does_not_trip_parent() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "cancellation flows downward only");
    }

    #[test]
    fn deadline_expiry_latches() {
        let token = CancelToken::with_deadline(Duration::from_millis(0));
        // The deadline is already past; the first check latches the flag.
        assert!(token.is_cancelled());
        assert!(token.is_cancelled(), "stays cancelled");
    }

    #[test]
    fn far_deadline_does_not_trip() {
        let token = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.deadline().is_some());
    }

    #[test]
    fn child_with_deadline_trips_on_either_cause() {
        let shutdown = CancelToken::new();
        let run = shutdown.child_with_deadline_at(Instant::now() + Duration::from_secs(3600));
        assert!(!run.is_cancelled());
        shutdown.cancel();
        assert!(run.is_cancelled(), "parent shutdown cancels the run token");

        let shutdown = CancelToken::new();
        let run = shutdown.child_with_deadline_at(Instant::now());
        assert!(run.is_cancelled(), "expired per-run deadline trips alone");
        assert!(!shutdown.is_cancelled());
    }
}
