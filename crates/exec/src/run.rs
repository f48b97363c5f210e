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
    /// Add `bytes` to the reserved total, or fail and leave it untouched;
    /// concurrent charges never overshoot the limit. The
    /// `exec.budget.reserve` failpoint can deny any charge; on an
    /// unlimited budget a charge is only that check.
    fn charge(&self, bytes: u64) -> Result<(), EngineError> {
        let injected = rsv_testkit::failpoint!("exec.budget.reserve");
        let (limit, used) = match &self.state {
            None if !injected => return Ok(()),
            None => (0, 0),
            Some(state) => {
                let fits = |used: u64| {
                    Some(used.saturating_add(bytes)).filter(|&t| !injected && t <= state.limit)
                };
                match state
                    .used
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fits)
                {
                    Ok(_) => return Ok(()),
                    Err(used) => (state.limit, used),
                }
            }
        };
        Err(EngineError::BudgetExceeded {
            requested: bytes,
            limit,
            used,
        })
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

/// Bytes charged to a [`MemoryBudget`], released when the guard drops.
#[derive(Debug)]
struct Reservation<'a> {
    budget: &'a MemoryBudget,
    bytes: u64,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(state) = &self.budget.state {
            state.used.fetch_sub(self.bytes, Ordering::Relaxed);
        }
    }
}

/// A buffer that owns the budget bytes paying for it, made by
/// [`RunContext::vec`] or [`RunContext::hold`]. It derefs to the buffer
/// and returns the bytes when it drops (on success, an early `?` return
/// or a panic unwind alike) or hands the buffer out.
#[derive(Debug)]
pub struct Budgeted<'run, B> {
    buf: B,
    reservation: Reservation<'run>,
}

impl<'run, B> Budgeted<'run, B> {
    /// The buffer, its bytes returned to the budget.
    pub fn into_inner(self) -> B {
        self.buf
    }

    /// Raise the reservation to `bytes` for a buffer that grew; a smaller
    /// `bytes` is a no-op. On failure nothing changes.
    pub fn grow_to(&mut self, bytes: u64) -> Result<(), EngineError> {
        let held = &mut self.reservation;
        if bytes > held.bytes {
            held.budget.charge(bytes - held.bytes)?;
            held.bytes = bytes;
        }
        Ok(())
    }

    /// The same bytes, paying for `f(buffer)` instead.
    pub fn map<C>(self, f: impl FnOnce(B) -> C) -> Budgeted<'run, C> {
        Budgeted {
            buf: f(self.buf),
            reservation: self.reservation,
        }
    }
}

impl<B> std::ops::Deref for Budgeted<'_, B> {
    type Target = B;

    fn deref(&self) -> &B {
        &self.buf
    }
}

impl<B> std::ops::DerefMut for Budgeted<'_, B> {
    fn deref_mut(&mut self) -> &mut B {
        &mut self.buf
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
        self.budget.state = Some(Arc::new(BudgetState {
            limit,
            used: AtomicU64::new(0),
        }));
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

    /// Reserve `bytes`, then `make` the buffer they pay for (one that
    /// knows its size: a table, a filter, growing scratch). Fails with
    /// [`EngineError::Cancelled`] once cancelled, and with
    /// [`EngineError::BudgetExceeded`], making nothing, when over budget.
    pub fn hold<B>(
        &self,
        bytes: u64,
        make: impl FnOnce() -> B,
    ) -> Result<Budgeted<'_, B>, EngineError> {
        self.check_cancelled()?;
        self.budget.charge(bytes)?;
        let reservation = Reservation {
            budget: &self.budget,
            bytes,
        };
        Ok(Budgeted {
            buf: make(),
            reservation,
        })
    }

    /// `vec![fill; n]` (a zero fill stays a zeroed allocation), holding
    /// `n × size_of::<T>()` bytes.
    pub fn vec<T: Clone>(&self, n: usize, fill: T) -> Result<Budgeted<'_, Vec<T>>, EngineError> {
        let bytes = (n as u64).saturating_mul(std::mem::size_of::<T>() as u64);
        self.hold(bytes, || vec![fill; n])
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
        let _all = ctx.hold(u64::MAX, || ()).unwrap();
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
        assert_eq!(ctx.hold(1, || ()).unwrap_err(), EngineError::Cancelled);
    }

    #[test]
    fn budget_reserves_and_releases() {
        let run = RunContext::new().with_memory_limit(100);
        let sixty = run.hold(60, || ()).unwrap();
        let _forty = run.hold(40, || ()).unwrap();
        let err = run.hold(1, || ()).unwrap_err();
        assert_eq!(
            err,
            EngineError::BudgetExceeded {
                requested: 1,
                limit: 100,
                used: 100
            }
        );
        drop(sixty);
        let _thirty = run.hold(30, || ()).unwrap();
        assert_eq!(run.budget.used(), 70);
    }

    #[test]
    fn failed_reserve_leaves_accounting_untouched() {
        let run = RunContext::new().with_memory_limit(10);
        assert!(run.hold(11, || ()).is_err());
        assert_eq!(run.budget.used(), 0);
        let _ten = run.hold(10, || ()).unwrap();
        assert_eq!(run.budget.used(), 10);
    }

    /// A reservation held across a failing `?` or a panic is released by
    /// the unwinding, not by the code that failed; so are a `Budgeted`
    /// buffer's bytes, and `into_inner` returns them at once. A failed
    /// `grow_to` changes nothing.
    #[test]
    fn reservation_released_on_early_return_and_unwind() {
        fn work(run: &RunContext) -> Result<(), EngineError> {
            let _scratch = run.hold(64, || ())?;
            let _column = run.vec(4, 0u32)?;
            assert_eq!(run.budget.used(), 80);
            run.check_cancelled()?;
            panic!("worker died holding its reservation");
        }
        let run = RunContext::new().with_memory_limit(100);
        assert!(std::panic::catch_unwind(|| work(&run)).is_err());
        assert_eq!(run.budget.used(), 0);

        let column = run.vec(5, 7u32).unwrap();
        assert_eq!((column.len(), run.budget.used()), (5, 20));
        assert_eq!(column.into_inner(), vec![7; 5]);
        assert_eq!(run.budget.used(), 0);
        drop(run.vec(25, 0u32).unwrap());
        assert_eq!(run.budget.used(), 0);

        // `grow_to` charges only the growth and ignores a smaller size; a
        // growth that does not fit leaves the accounting and the buffer
        // as they were.
        let mut buf = run.hold(40, || vec![1u8; 40]).unwrap();
        buf.grow_to(30).unwrap();
        assert_eq!(run.budget.used(), 40);
        buf.extend([2; 20]);
        buf.grow_to(60).unwrap();
        assert_eq!(run.budget.used(), 60);
        let other = run.vec(30, 0u8).unwrap();
        assert_eq!(
            buf.grow_to(80),
            Err(EngineError::BudgetExceeded {
                requested: 20,
                limit: 100,
                used: 90
            })
        );
        assert_eq!((run.budget.used(), buf.len(), buf[59]), (90, 60, 2));
        drop(other);
        buf.grow_to(80).unwrap();
        let shared = buf.map(|v| v.len());
        assert_eq!((*shared, run.budget.used()), (60, 80));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = shared;
            panic!("worker died holding a grown buffer");
        }));
        assert!(unwound.is_err());
        assert_eq!(run.budget.used(), 0);

        run.cancel_token().cancel();
        assert_eq!(work(&run), Err(EngineError::Cancelled));
        assert_eq!(run.budget.used(), 0);
    }
}
