//! Thread parallelism: morsel scheduling contexts plus barrier
//! synchronization, the substrate for the paper's per-operator phases.
//!
//! Workers run under panic isolation: each worker's closure executes under
//! `catch_unwind`, a panicking worker trips a shared abort flag (so its
//! siblings drain at the next morsel-claim boundary) and defects from the
//! phase barrier (so siblings blocked on it are released instead of
//! deadlocking). [`parallel_scope_try`] surfaces the first panic as a
//! [`WorkerPanic`], which `?` converts into
//! [`EngineError::WorkerPanicked`](crate::EngineError::WorkerPanicked).

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::morsel::{Morsel, MorselQueue};

/// Split `0..n` into `t` contiguous ranges with every interior boundary
/// aligned to `align` elements (power of two), so vector kernels never
/// straddle a range boundary mid-word.
///
/// Boundaries are the ideal equal-split points rounded to the *nearest*
/// multiple of `align`: when `n >= t * align` every range is non-empty and
/// lengths differ by at most about `2 * align`; smaller inputs may leave
/// trailing ranges empty (there are only `n / align` whole aligned blocks
/// to hand out). An interior boundary is either a multiple of `align` or
/// clamped to `n`.
pub fn chunk_ranges(n: usize, t: usize, align: usize) -> Vec<Range<usize>> {
    assert!(t > 0, "need at least one chunk");
    assert!(align.is_power_of_two(), "alignment must be a power of two");
    let mut ranges = Vec::with_capacity(t);
    let mut prev = 0usize;
    for i in 1..=t {
        let end = if i == t {
            n
        } else {
            let ideal = ((i as u128 * n as u128) / t as u128) as usize;
            // Round to nearest; the `u128` widening above and the saturating
            // add here keep the arithmetic safe for any `usize` input.
            let rounded = ideal.saturating_add(align / 2) & !(align - 1);
            rounded.clamp(prev, n)
        };
        ranges.push(prev..end);
        prev = end;
    }
    ranges
}

/// A worker panic captured by [`parallel_scope_try`]. Siblings of the
/// panicking worker drained cleanly before this was returned.
pub struct WorkerPanic {
    /// Thread id of the panicking worker.
    pub worker: usize,
    /// The morsel id the worker had last claimed, if any.
    pub morsel: Option<usize>,
    /// The original panic payload (re-raise with
    /// `std::panic::resume_unwind`, or stringify for an error).
    pub payload: Box<dyn std::any::Any + Send>,
}

impl From<WorkerPanic> for crate::EngineError {
    /// Stringify the payload, so an operator can propagate a scope's
    /// panic with `?`.
    fn from(wp: WorkerPanic) -> Self {
        crate::EngineError::WorkerPanicked {
            payload: crate::error::panic_message(wp.payload.as_ref()),
            morsel: wp.morsel,
        }
    }
}

impl std::fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPanic")
            .field("worker", &self.worker)
            .field("morsel", &self.morsel)
            .field("payload", &"<panic payload>")
            .finish()
    }
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Worker panics are caught and never unwind through these guards, but
    // shrug poisoning off anyway: the protected state stays consistent.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A phase barrier that tolerates defecting (panicked) participants.
///
/// `std::sync::Barrier` would deadlock the surviving workers if a panicked
/// worker never arrives; here the panic handler calls [`PoisonBarrier::defect`],
/// which shrinks the participant count and releases the current generation
/// if everyone still standing has already arrived.
struct PoisonBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

struct BarrierState {
    participants: usize,
    arrived: usize,
    generation: u64,
}

impl PoisonBarrier {
    fn new(participants: usize) -> PoisonBarrier {
        PoisonBarrier {
            state: Mutex::new(BarrierState {
                participants,
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut st = lock_unpoisoned(&self.state);
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived >= st.participants {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        while st.generation == gen {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Permanently remove one participant (it panicked and will never
    /// arrive). Releases the current generation if everyone remaining has
    /// already arrived.
    fn defect(&self) {
        let mut st = lock_unpoisoned(&self.state);
        st.participants = st.participants.saturating_sub(1);
        if st.participants > 0 && st.arrived >= st.participants {
            st.arrived = 0;
            st.generation += 1;
            self.cv.notify_all();
        }
    }
}

/// State shared by every worker of one scope.
struct ScopeShared {
    barrier: PoisonBarrier,
    /// Set by the first panicking worker; siblings observe it at their next
    /// morsel-claim boundary and drain.
    abort: AtomicBool,
    /// The first panic, captured with its worker id and last morsel.
    panic: Mutex<Option<WorkerPanic>>,
}

/// Per-thread context handed to [`parallel_scope`] workers.
pub struct ParallelContext<'a> {
    /// This worker's index in `0..threads`.
    pub thread_id: usize,
    /// Total number of workers.
    pub threads: usize,
    shared: &'a ScopeShared,
    last_morsel: Cell<Option<usize>>,
}

impl ParallelContext<'_> {
    /// Wait until every *live* worker reaches this point (the paper's
    /// histogram/shuffle and build/probe phase boundaries). Panicked
    /// workers defect, so survivors are never stranded here.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Iterate over this worker's share of `queue`, claiming morsels (own
    /// span first, then stealing) and counting the claims and steals in
    /// the metering session.
    pub fn morsels<'c, 'q>(&'c self, queue: &'q MorselQueue) -> Morsels<'c, 'q>
    where
        'q: 'c,
    {
        Morsels { ctx: self, queue }
    }

    /// Run `f` as a named phase. While metering is on, its wall-clock
    /// time goes to this worker's slot of the session
    /// ([`rsv_metrics::record_phase`]); otherwise `f` just runs, with no
    /// clock read.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !rsv_metrics::enabled() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        rsv_metrics::record_phase(name, t.elapsed().as_nanos() as u64);
        r
    }
}

/// Morsel-claiming iterator returned by [`ParallelContext::morsels`].
pub struct Morsels<'c, 'q> {
    ctx: &'c ParallelContext<'c>,
    queue: &'q MorselQueue,
}

impl Iterator for Morsels<'_, '_> {
    type Item = Morsel;

    fn next(&mut self) -> Option<Morsel> {
        // A sibling panicked: drain instead of claiming more work.
        if self.ctx.shared.abort.load(Ordering::SeqCst) {
            return None;
        }
        let _ = rsv_testkit::failpoint!("exec.morsel.claim");
        let m = self.queue.claim(self.ctx.thread_id)?;
        rsv_metrics::count(rsv_metrics::Metric::MorselsClaimed, 1);
        rsv_metrics::count(rsv_metrics::Metric::MorselsStolen, u64::from(m.stolen));
        self.ctx.last_morsel.set(Some(m.id));
        Some(m)
    }
}

/// [`parallel_scope_try`] for callers that want only the results: a
/// worker panic is re-raised on the calling thread with its original
/// payload, after every sibling has drained.
pub fn parallel_scope<R, F>(t: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ParallelContext<'_>) -> R + Sync,
{
    match parallel_scope_try(t, f) {
        Ok(results) => results,
        Err(wp) => std::panic::resume_unwind(wp.payload),
    }
}

/// Run `t` workers, giving each a [`ParallelContext`], and collect their
/// results in thread-id order. Workers run on `t - 1` spawned threads
/// plus the calling thread, so `t == 1` has no spawn overhead. Under a
/// metering session ([`rsv_metrics::collect`]) each worker records into
/// slot `thread_id` of the session's sink: its claims, steals, work
/// counters and phase times.
///
/// If any worker panics, the first panic is returned as [`WorkerPanic`]
/// (worker id, last claimed morsel, original payload) instead of
/// unwinding. The panicking worker trips a shared abort flag — siblings
/// stop at their next morsel-claim boundary — and defects from the phase
/// barrier, so the scope always joins; no lock the workers share through
/// the scope is left poisoned.
pub fn parallel_scope_try<R, F>(t: usize, f: F) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(&ParallelContext<'_>) -> R + Sync,
{
    assert!(t > 0, "need at least one thread");
    let shared = ScopeShared {
        barrier: PoisonBarrier::new(t),
        abort: AtomicBool::new(false),
        panic: Mutex::new(None),
    };
    // Metering follows the call tree: every worker enters the calling
    // thread's session and flushes its counters into it (by thread id)
    // before it leaves the scope.
    let session = rsv_metrics::Session::current();
    let record_panic =
        |worker: usize, morsel: Option<usize>, payload: Box<dyn std::any::Any + Send>| {
            // Abort must be visible before the barrier releases anyone, so
            // survivors see it at their next claim.
            shared.abort.store(true, Ordering::SeqCst);
            shared.barrier.defect();
            let mut slot = lock_unpoisoned(&shared.panic);
            if slot.is_none() {
                *slot = Some(WorkerPanic {
                    worker,
                    morsel,
                    payload,
                });
            }
        };
    let run = |thread_id: usize| -> Option<R> {
        let ctx = ParallelContext {
            thread_id,
            threads: t,
            shared: &shared,
            last_morsel: Cell::new(None),
        };
        let result = session.enter(|| {
            let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            rsv_metrics::flush_worker(thread_id);
            result
        });
        match result {
            Ok(r) => Some(r),
            Err(payload) => {
                record_panic(thread_id, ctx.last_morsel.get(), payload);
                None
            }
        }
    };
    let per_worker: Vec<Option<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..t)
            .map(|thread_id| {
                let run = &run;
                scope.spawn(move || run(thread_id))
            })
            .collect();
        let mut results = vec![run(0)];
        for (i, h) in handles.into_iter().enumerate() {
            results.push(h.join().unwrap_or_else(|payload| {
                // A panic escaped the worker's catch_unwind (only possible
                // outside the user closure, e.g. in the metrics flush).
                // Treat it like an in-closure panic.
                record_panic(i + 1, None, payload);
                None
            }));
        }
        results
    });
    if let Some(wp) = lock_unpoisoned(&shared.panic).take() {
        return Err(wp);
    }
    // No recorded panic means every worker completed.
    Ok(per_worker
        .into_iter()
        .map(|slot| {
            slot.unwrap_or_else(|| {
                unreachable!("worker produced no result and no panic was recorded")
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::morsel::ExecPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_input_exactly() {
        for n in [0usize, 1, 15, 16, 17, 1000, 4096] {
            for t in [1usize, 2, 3, 7, 8] {
                let ranges = chunk_ranges(n, t, 16);
                assert_eq!(ranges.len(), t);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, n);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "n={n} t={t} {ranges:?}");
                }
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                // interior boundaries are aligned
                for r in &ranges[..t - 1] {
                    assert!(r.end % 16 == 0 || r.end == n, "n={n} t={t} {ranges:?}");
                }
            }
        }
    }

    /// Regression sweep for the alignment-collapse bug: rounding split
    /// points *down* to the alignment used to collapse every boundary to 0
    /// whenever `n / t < align`, giving the last thread the whole input.
    #[test]
    fn chunks_do_not_collapse_under_alignment() {
        for n in [
            0usize,
            1,
            7,
            15,
            16,
            17,
            63,
            64,
            65,
            127,
            255,
            1 << 10,
            (1 << 14) + 3,
        ] {
            for t in [1usize, 2, 3, 4, 7, 8, 16] {
                for align in [1usize, 2, 8, 16, 64] {
                    let ranges = chunk_ranges(n, t, align);
                    assert_eq!(ranges.len(), t, "n={n} t={t} a={align}");
                    let mut prev = 0;
                    for (i, r) in ranges.iter().enumerate() {
                        assert_eq!(r.start, prev, "n={n} t={t} a={align} {ranges:?}");
                        assert!(r.start <= r.end);
                        prev = r.end;
                        if i + 1 < t {
                            assert!(
                                r.end % align == 0 || r.end == n,
                                "unaligned interior boundary: n={n} t={t} a={align} {ranges:?}"
                            );
                        }
                    }
                    assert_eq!(prev, n, "n={n} t={t} a={align}");

                    if n >= t * align {
                        // the collapse bug: some range swallowing everything
                        for r in &ranges {
                            assert!(
                                !r.is_empty(),
                                "empty range despite n >= t*align: n={n} t={t} a={align} {ranges:?}"
                            );
                        }
                        let min = ranges.iter().map(|r| r.len()).min().unwrap();
                        let max = ranges.iter().map(|r| r.len()).max().unwrap();
                        assert!(
                            max - min <= 2 * align + 1,
                            "unbalanced: n={n} t={t} a={align} {ranges:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scope_runs_every_worker_and_orders_results() {
        let ids = parallel_scope(4, |ctx| ctx.thread_id * 10);
        assert_eq!(ids, vec![0, 10, 20, 30]);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let counter = AtomicUsize::new(0);
        let results = parallel_scope(4, |ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // after the barrier every thread must observe all 4 increments
            counter.load(Ordering::SeqCst)
        });
        assert_eq!(results, vec![4, 4, 4, 4]);
    }

    #[test]
    fn single_thread_fast_path() {
        let r = parallel_scope(1, |ctx| {
            ctx.barrier(); // must not deadlock
            ctx.threads
        });
        assert_eq!(r, vec![1]);
    }

    /// A metered scope records each worker's claims and its calls of a
    /// named phase in that worker's slot; an unmetered one records none.
    #[test]
    fn session_records_claims_and_phases_per_worker() {
        use rsv_metrics::Metric;
        let n = 100_000;
        let policy = ExecPolicy::new(3).with_morsel_tuples(1024);
        let queue = || MorselQueue::new(n, &policy, 16);
        let work = |q: &MorselQueue| {
            parallel_scope_try(3, |ctx| {
                let mut sum = 0usize;
                for m in ctx.morsels(q) {
                    sum += ctx.phase("work", || m.range.len());
                }
                sum
            })
            .unwrap()
        };
        let q = queue();
        let ((sums, on), sink) = rsv_metrics::collect(|| (work(&q), rsv_metrics::enabled()));
        assert_eq!(sums.iter().sum::<usize>(), n);
        if !on {
            return; // metering compiled out
        }
        let total = sink.total();
        assert_eq!(total.get(Metric::MorselsClaimed), q.morsel_count() as u64);
        assert!(sink.workers.len() <= 3);
        for w in &sink.workers {
            let claims = w.get(Metric::MorselsClaimed);
            let calls = w.phases.get("work").map_or(0, |p| p.calls());
            assert_eq!(calls, claims);
        }
        let q = queue();
        let ((), sink) = rsv_metrics::collect(|| {
            rsv_metrics::unmetered(|| {
                work(&q);
            })
        });
        assert!(sink.workers.is_empty(), "{sink:?}");
    }

    #[test]
    fn try_scope_surfaces_worker_panic() {
        let policy = ExecPolicy::new(4).with_morsel_tuples(8);
        let queue = MorselQueue::new(10_000, &policy, 1);
        let err = parallel_scope_try(4, |ctx| {
            // Every worker claims one morsel from its own span, then meets
            // at the barrier, so worker 2 deterministically holds a morsel
            // when it panics (no worker can drain the queue early).
            let mut it = ctx.morsels(&queue);
            let first = it.next().expect("own span is non-empty");
            ctx.barrier();
            if ctx.thread_id == 2 {
                panic!("boom on morsel {}", first.id);
            }
            let mut seen = first.range.len();
            for m in it {
                seen += m.range.len();
            }
            seen
        })
        .expect_err("worker 2 must panic");
        assert_eq!(err.worker, 2);
        assert!(err.morsel.is_some(), "panic happened inside a morsel");
        let msg = err
            .payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.starts_with("boom on morsel"), "{msg}");
    }

    #[test]
    fn panicking_worker_releases_barrier_siblings() {
        // Worker 0 dies before the barrier; the other three must pass it
        // (via defect) and finish instead of deadlocking.
        let passed = AtomicUsize::new(0);
        let err = parallel_scope_try(4, |ctx| {
            if ctx.thread_id == 0 {
                panic!("pre-barrier death");
            }
            ctx.barrier();
            passed.fetch_add(1, Ordering::SeqCst);
        })
        .expect_err("worker 0 must panic");
        assert_eq!(err.worker, 0);
        assert_eq!(err.morsel, None);
        assert_eq!(passed.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn siblings_drain_after_abort() {
        // Worker 1 panics on its first claim; the abort flag must stop the
        // other workers at a claim boundary, not strand them.
        let policy = ExecPolicy::new(2).with_morsel_tuples(4);
        let queue = MorselQueue::new(100_000, &policy, 1);
        let err = parallel_scope_try(2, |ctx| {
            let mut it = ctx.morsels(&queue);
            let _first = it.next();
            ctx.barrier();
            if ctx.thread_id == 1 {
                panic!("first-claim death");
            }
            for _m in it {}
        })
        .expect_err("worker 1 must panic");
        assert_eq!(err.worker, 1);
    }

    #[test]
    fn single_thread_panic_is_captured() {
        let err = parallel_scope_try(1, |_ctx| panic!("solo")).expect_err("must panic");
        assert_eq!(err.worker, 0);
        let msg = err.payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "solo");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn infallible_scope_reraises_original_payload() {
        parallel_scope(2, |ctx| {
            if ctx.thread_id == 1 {
                panic!("boom");
            }
        });
    }
}
