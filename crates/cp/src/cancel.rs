//! Cooperative cancellation: a cloneable token combining an explicit
//! cancel flag with an optional wall-clock deadline.
//!
//! The paper's tool bounds each *solver run* at 60 seconds; a production
//! service also needs *request-level* deadlines that span many matcher
//! runs (and the tracing and decomposition around them). A [`CancelToken`]
//! is the carrier: the request owner creates one, every layer that loops
//! — the finder's iterations, a matcher's backtracking search — polls
//! [`CancelToken::is_expired`] at its natural checkpoint and winds down
//! with best-so-far results. Nothing is preempted; cancellation is
//! purely cooperative, so invariants hold at every exit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation handle. Cloning is cheap and every clone
/// observes the same state; the token is `Send + Sync`.
#[derive(Clone, Debug)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl Default for CancelToken {
    /// A token that never expires on its own (cancel-only).
    fn default() -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }
}

impl CancelToken {
    /// A token with no deadline; expires only via [`Self::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token expiring `budget` from now.
    pub fn with_deadline(budget: Duration) -> Self {
        Self::at(Instant::now() + budget)
    }

    /// A token expiring at `deadline`.
    pub fn at(deadline: Instant) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Marks the token expired for every clone.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once cancelled or past the deadline. Cheap enough to poll in
    /// inner loops (one relaxed load; the clock is read only when a
    /// deadline is set).
    pub fn is_expired(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The explicit-cancel flag alone — one relaxed load, never a clock
    /// read. Inner loops that throttle clock polling still check this
    /// every iteration so an explicit [`Self::cancel`] stops them
    /// immediately.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The wall-clock deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// zero once expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live_and_cancel_propagates_to_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_expired());
        assert!(t.deadline().is_none());
        assert!(t.remaining().is_none());
        u.cancel();
        assert!(t.is_expired(), "cancel must reach every clone");
    }

    #[test]
    fn cancel_flag_is_separate_from_the_deadline() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_expired(), "deadline passed");
        assert!(!t.is_cancelled(), "but nobody cancelled explicitly");
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(t.is_expired());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_expired());
        assert!(far.remaining().unwrap() > Duration::from_secs(3590));
    }
}
