//! Per-query run control: cooperative cancellation and memory budgets.
//!
//! A [`RunContext`] travels inside [`ExecPolicy`](crate::ExecPolicy) into
//! every parallel operator. It is cheap to clone (two `Arc`s) and its
//! default is inert — uncancellable, unlimited — so the infallible
//! `Engine` methods pay nothing for it.
//!
//! **Cancellation latency is bounded by one morsel**: the token's flag is
//! checked at every morsel-claim boundary
//! ([`MorselQueue::claim`](crate::MorselQueue::claim) returns `None` once
//! cancelled), so each worker finishes at most the morsel it already
//! holds. The operator then observes the token after its scope joins and
//! returns [`EngineError::Cancelled`]; no kernel needs its own checks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::EngineError;

/// A shared cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; never blocks. Workers observe it
    /// at their next morsel-claim boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation was requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[derive(Debug)]
struct BudgetState {
    limit: u64,
    used: AtomicU64,
}

/// A byte budget gating large operator allocations (output buffers,
/// ping-pong columns, hash tables). `Default` is unlimited. Cloning
/// shares the accounting.
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    state: Option<Arc<BudgetState>>,
}

impl MemoryBudget {
    /// An unlimited budget (reservations always succeed).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget of `limit` bytes.
    pub fn bytes(limit: u64) -> Self {
        MemoryBudget {
            state: Some(Arc::new(BudgetState {
                limit,
                used: AtomicU64::new(0),
            })),
        }
    }

    /// Reserve `bytes` against the budget until the returned
    /// [`Reservation`] drops. Fails (without reserving) when the limit
    /// would be exceeded. The `exec.budget.reserve` failpoint can deny any
    /// reservation deterministically.
    pub fn reserve(&self, bytes: u64) -> Result<Reservation<'_>, EngineError> {
        let injected = rsv_testkit::failpoint!("exec.budget.reserve");
        let Some(state) = &self.state else {
            return if injected {
                Err(EngineError::BudgetExceeded {
                    requested: bytes,
                    limit: 0,
                    used: 0,
                })
            } else {
                Ok(Reservation {
                    budget: self,
                    bytes,
                })
            };
        };
        // CAS loop: reserve only if the new total stays within the limit,
        // so concurrent reservations never overshoot and a failed attempt
        // leaves the accounting untouched.
        let mut used = state.used.load(Ordering::Relaxed);
        loop {
            let requested_total = used.saturating_add(bytes);
            if injected || requested_total > state.limit {
                return Err(EngineError::BudgetExceeded {
                    requested: bytes,
                    limit: state.limit,
                    used,
                });
            }
            match state.used.compare_exchange_weak(
                used,
                requested_total,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Ok(Reservation {
                        budget: self,
                        bytes,
                    })
                }
                Err(cur) => used = cur,
            }
        }
    }

    fn release(&self, bytes: u64) {
        if let Some(state) = &self.state {
            let mut used = state.used.load(Ordering::Relaxed);
            loop {
                let next = used.saturating_sub(bytes);
                match state.used.compare_exchange_weak(
                    used,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => return,
                    Err(cur) => used = cur,
                }
            }
        }
    }

    /// Bytes currently reserved (0 for an unlimited budget).
    pub fn used(&self) -> u64 {
        self.state
            .as_ref()
            .map_or(0, |s| s.used.load(Ordering::Relaxed))
    }

    /// The limit in bytes, if any.
    pub fn limit(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.limit)
    }
}

/// Bytes of one `n`-value `u32` column, the unit of the operators' budget
/// reservations.
pub fn column_bytes(n: usize) -> u64 {
    (n as u64) * std::mem::size_of::<u32>() as u64
}

/// Bytes reserved against a [`MemoryBudget`], returned to it when the
/// guard drops — on success, on an early `?` return and during a panic
/// unwind alike, so no exit path can leak a reservation.
#[must_use = "dropping a Reservation releases its bytes at once"]
#[derive(Debug)]
pub struct Reservation<'a> {
    budget: &'a MemoryBudget,
    bytes: u64,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

/// Everything a fallible operator run carries: a [`CancelToken`] and a
/// [`MemoryBudget`]. `Default` is inert (uncancellable, unlimited), which
/// is what the infallible `Engine` methods run under.
#[derive(Debug, Clone, Default)]
pub struct RunContext {
    /// The query's cancellation token.
    pub cancel: CancelToken,
    /// The query's memory budget.
    pub budget: MemoryBudget,
}

impl RunContext {
    /// An inert context: uncancellable, unlimited.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the cancel token (lets several operator calls share one).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Limit the context to `limit` bytes of large-buffer allocations.
    pub fn with_memory_limit(mut self, limit: u64) -> Self {
        self.budget = MemoryBudget::bytes(limit);
        self
    }

    /// A clone of the cancel token (hand this to whoever may cancel).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether cancellation was requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// `Err(EngineError::Cancelled)` once cancellation was requested.
    pub fn check_cancelled(&self) -> Result<(), EngineError> {
        if self.is_cancelled() {
            Err(EngineError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Reserve `bytes` against the budget until the returned
    /// [`Reservation`] drops, first honouring cancellation.
    pub fn reserve(&self, bytes: u64) -> Result<Reservation<'_>, EngineError> {
        self.check_cancelled()?;
        self.budget.reserve(bytes)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn default_context_is_inert() {
        let ctx = RunContext::new();
        assert!(!ctx.is_cancelled());
        ctx.check_cancelled().unwrap();
        let _all = ctx.reserve(u64::MAX).unwrap();
        assert_eq!(ctx.budget.used(), 0);
        assert_eq!(ctx.budget.limit(), None);
    }

    #[test]
    fn cancel_is_shared_and_idempotent() {
        let ctx = RunContext::new();
        let token = ctx.cancel_token();
        token.cancel();
        token.cancel();
        assert!(ctx.is_cancelled());
        assert_eq!(ctx.check_cancelled(), Err(EngineError::Cancelled));
        assert_eq!(ctx.reserve(1).unwrap_err(), EngineError::Cancelled);
    }

    #[test]
    fn budget_reserves_and_releases() {
        let b = MemoryBudget::bytes(100);
        let sixty = b.reserve(60).unwrap();
        let _forty = b.reserve(40).unwrap();
        let err = b.reserve(1).unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                requested: 1,
                limit: 100,
                used: 100
            }
        );
        drop(sixty);
        let _thirty = b.reserve(30).unwrap();
        assert_eq!(b.used(), 70);
    }

    #[test]
    fn failed_reserve_leaves_accounting_untouched() {
        let b = MemoryBudget::bytes(10);
        assert!(b.reserve(11).is_err());
        assert_eq!(b.used(), 0);
        let _ten = b.reserve(10).unwrap();
        assert_eq!(b.used(), 10);
    }

    /// A reservation held across a failing `?` or a panic is released by
    /// the unwinding, not by the code that failed.
    #[test]
    fn reservation_released_on_early_return_and_unwind() {
        fn work(run: &RunContext) -> Result<(), EngineError> {
            let _scratch = run.budget.reserve(64)?;
            assert_eq!(run.budget.used(), 64);
            run.check_cancelled()?;
            panic!("worker died holding its reservation");
        }
        let run = RunContext::new().with_memory_limit(100);
        assert!(std::panic::catch_unwind(|| work(&run)).is_err());
        assert_eq!(run.budget.used(), 0);
        run.cancel_token().cancel();
        assert_eq!(work(&run), Err(EngineError::Cancelled));
        assert_eq!(run.budget.used(), 0);
    }
}
