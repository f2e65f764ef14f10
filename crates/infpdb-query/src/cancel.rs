//! Cooperative cancellation for Proposition 6.1 evaluations.
//!
//! Evaluation cost is dominated by the truncation loop that materializes
//! the `Ω_n` prefix table fact by fact. A [`CancelToken`] — an atomic
//! flag plus an optional wall-clock deadline — is threaded through that
//! loop and consulted every [`CHECK_EVERY`] facts, so a client
//! cancellation or an expired deadline stops the evaluation *mid-loop*
//! instead of after the full `n(ε)` facts have been paid for.
//!
//! Cancellation is *cooperative*: the token never interrupts a thread; it
//! is only observed at checkpoints. The finite-engine stage that follows
//! the loop is not checkpointed (it is a black box per the paper), so a
//! deadline can overshoot by one engine run — the token is checked once
//! more right before the engine starts to bound that overshoot.
//!
//! A cancelled evaluation may still carry a *sound* partial result: if
//! the loop stopped after `m` facts and the series' certified tail bound
//! at `m` is small enough, the `m`-fact prefix is itself a valid
//! Proposition 6.1 truncation at some wider tolerance `ε_m`, and the
//! engine's answer on it carries the usual additive certificate (see
//! [`crate::truncate::partial_certificate`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::approx::Approximation;

/// Facts materialized between two token checks in the truncation loop.
pub const CHECK_EVERY: usize = 16;

/// Why an evaluation stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// [`CancelToken::cancel`] was called (client-initiated).
    Explicit,
    /// The token's wall-clock deadline passed.
    Deadline,
}

/// Details of a cancelled evaluation, carried by
/// [`QueryError::Cancelled`](crate::QueryError::Cancelled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CancelInfo {
    /// What triggered the stop.
    pub kind: CancelKind,
    /// Facts materialized before the checkpoint fired.
    pub facts_processed: usize,
    /// A sound anytime answer from the facts processed so far, when one
    /// exists: a full [`Approximation`] at the (wider) tolerance the
    /// partial prefix certifies. `None` when the prefix was too short to
    /// certify anything non-vacuous, or the request's plan samples.
    pub partial: Option<Approximation>,
}

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle: an atomic flag plus an optional
/// deadline. Clones share state; any clone can cancel all of them.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline that only cancels explicitly.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that auto-cancels `d` from now.
    pub fn with_deadline(d: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + d)
    }

    /// A token that auto-cancels at `at`.
    pub fn with_deadline_at(at: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(at),
            }),
        }
    }

    /// Requests cancellation. Idempotent; observed at the next checkpoint.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// The deadline, if the token has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// Whether a checkpoint would stop now, and why. Explicit
    /// cancellation wins over an expired deadline when both hold.
    pub fn cancelled_kind(&self) -> Option<CancelKind> {
        if self.inner.flag.load(Ordering::Acquire) {
            return Some(CancelKind::Explicit);
        }
        match self.inner.deadline {
            Some(at) if Instant::now() >= at => Some(CancelKind::Deadline),
            _ => None,
        }
    }

    /// Whether the token has been cancelled (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled_kind().is_some()
    }

    /// The checkpoint: `Err(kind)` once the token has fired. The caller
    /// attaches `facts_processed` and any partial result.
    pub fn check(&self) -> Result<(), CancelKind> {
        match self.cancelled_kind() {
            None => Ok(()),
            Some(kind) => Err(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes_checkpoints() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.check(), Ok(()));
        assert_eq!(t.deadline(), None);
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert_eq!(t.check(), Err(CancelKind::Explicit));
        assert_eq!(t.cancelled_kind(), Some(CancelKind::Explicit));
    }

    #[test]
    fn deadline_fires_without_anyone_calling_cancel() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(t.check(), Err(CancelKind::Deadline));
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(far.check(), Ok(()));
        assert!(far.deadline().is_some());
    }

    #[test]
    fn explicit_cancel_wins_over_expired_deadline() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        t.cancel();
        assert_eq!(t.cancelled_kind(), Some(CancelKind::Explicit));
    }
}
