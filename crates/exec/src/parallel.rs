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

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
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

/// What one worker did during a [`parallel_scope_try`] region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Morsels this worker claimed (own span and stolen).
    pub morsels: u64,
    /// Morsels claimed from *another* worker's span.
    pub steals: u64,
    /// Tuples covered by the claimed morsels.
    pub tuples: u64,
    /// Wall-clock nanoseconds per named phase, in first-use order
    /// (repeated phases — e.g. one histogram phase per radix pass —
    /// accumulate into one entry).
    pub phase_ns: Vec<(&'static str, u64)>,
}

impl WorkerStats {
    fn record_claim(&mut self, m: &Morsel) {
        self.morsels += 1;
        self.steals += u64::from(m.stolen);
        self.tuples += m.range.len() as u64;
    }

    fn record_phase(&mut self, name: &'static str, ns: u64) {
        if let Some(e) = self.phase_ns.iter_mut().find(|e| e.0 == name) {
            e.1 += ns;
        } else {
            self.phase_ns.push((name, ns));
        }
    }
}

/// Per-worker scheduler instrumentation for one parallel region.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// One entry per worker, in thread-id order.
    pub workers: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Total morsels claimed across workers.
    pub fn total_morsels(&self) -> u64 {
        self.workers.iter().map(|w| w.morsels).sum()
    }

    /// Total steals across workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total tuples claimed across workers.
    pub fn total_tuples(&self) -> u64 {
        self.workers.iter().map(|w| w.tuples).sum()
    }

    /// Fold another region's stats into this one, worker by worker (for
    /// operators that run several parallel regions back to back).
    pub fn merge(&mut self, other: &SchedulerStats) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (into, from) in self.workers.iter_mut().zip(&other.workers) {
            into.morsels += from.morsels;
            into.steals += from.steals;
            into.tuples += from.tuples;
            for &(name, ns) in &from.phase_ns {
                into.record_phase(name, ns);
            }
        }
    }
}

impl std::fmt::Display for SchedulerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (id, w) in self.workers.iter().enumerate() {
            write!(
                f,
                "  worker {id}: {:>5} morsels ({:>3} stolen) {:>10} tuples",
                w.morsels, w.steals, w.tuples
            )?;
            for (name, ns) in &w.phase_ns {
                write!(f, "  {name} {:.2}ms", *ns as f64 / 1e6)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
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
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
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
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
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
    stats: RefCell<WorkerStats>,
    last_morsel: Cell<Option<usize>>,
}

impl ParallelContext<'_> {
    /// Wait until every *live* worker reaches this point (the paper's
    /// histogram/shuffle and build/probe phase boundaries). Panicked
    /// workers defect, so survivors are never stranded here.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Iterate over this worker's share of `queue`, claiming morsels
    /// (own span first, then stealing) and recording scheduler stats.
    pub fn morsels<'c, 'q>(&'c self, queue: &'q MorselQueue) -> Morsels<'c, 'q>
    where
        'q: 'c,
    {
        Morsels { ctx: self, queue }
    }

    /// Run `f` as a named phase, accumulating its wall-clock time into
    /// this worker's stats.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        rsv_metrics::record_phase_ns(ns);
        self.stats.borrow_mut().record_phase(name, ns);
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
        self.ctx.stats.borrow_mut().record_claim(&m);
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
        Ok((results, _)) => results,
        Err(wp) => std::panic::resume_unwind(wp.payload),
    }
}

/// Run `t` workers, giving each a [`ParallelContext`], and collect their
/// results in thread-id order plus per-worker scheduler stats (morsels
/// claimed, steals, tuples, per-phase times). Workers run on `t - 1`
/// spawned threads plus the calling thread, so `t == 1` has no spawn
/// overhead.
///
/// If any worker panics, the first panic is returned as [`WorkerPanic`]
/// (worker id, last claimed morsel, original payload) instead of
/// unwinding. The panicking worker trips a shared abort flag — siblings
/// stop at their next morsel-claim boundary — and defects from the phase
/// barrier, so the scope always joins; no lock the workers share through
/// the scope is left poisoned.
pub fn parallel_scope_try<R, F>(t: usize, f: F) -> Result<(Vec<R>, SchedulerStats), WorkerPanic>
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
    // thread's session and flushes its counters into it (by thread id,
    // like the stats below) before it leaves the scope.
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
    let run = |thread_id: usize| -> Option<(R, WorkerStats)> {
        let ctx = ParallelContext {
            thread_id,
            threads: t,
            shared: &shared,
            stats: RefCell::new(WorkerStats::default()),
            last_morsel: Cell::new(None),
        };
        let result = session.enter(|| {
            let result = catch_unwind(AssertUnwindSafe(|| f(&ctx)));
            rsv_metrics::flush_worker(thread_id);
            result
        });
        match result {
            Ok(r) => Some((r, ctx.stats.into_inner())),
            Err(payload) => {
                record_panic(thread_id, ctx.last_morsel.get(), payload);
                None
            }
        }
    };
    let per_worker: Vec<Option<(R, WorkerStats)>> = if t == 1 {
        vec![run(0)]
    } else {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(t - 1);
            for thread_id in 1..t {
                let run = &run;
                handles.push(scope.spawn(move || run(thread_id)));
            }
            let mut results = vec![run(0)];
            for (i, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok(v) => results.push(v),
                    Err(payload) => {
                        // A panic escaped the worker's catch_unwind (only
                        // possible outside the user closure, e.g. in the
                        // metrics flush). Treat it like an in-closure panic.
                        record_panic(i + 1, None, payload);
                        results.push(None);
                    }
                }
            }
            results
        })
    };
    if let Some(wp) = lock_unpoisoned(&shared.panic).take() {
        return Err(wp);
    }
    let mut results = Vec::with_capacity(t);
    let mut stats = SchedulerStats::default();
    for slot in per_worker {
        // No recorded panic means every worker completed.
        let Some((r, w)) = slot else {
            unreachable!("worker produced no result and no panic was recorded")
        };
        results.push(r);
        stats.workers.push(w);
    }
    Ok((results, stats))
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

    #[test]
    fn stats_account_for_every_tuple() {
        let n = 100_000;
        let policy = ExecPolicy::new(3).with_morsel_tuples(1024);
        let queue = MorselQueue::new(n, &policy, 16);
        let (sums, stats) = parallel_scope_try(3, |ctx| {
            let mut sum = 0usize;
            for m in ctx.morsels(&queue) {
                sum += ctx.phase("work", || m.range.len());
            }
            sum
        })
        .unwrap();
        assert_eq!(sums.iter().sum::<usize>(), n);
        assert_eq!(stats.total_tuples(), n as u64);
        assert_eq!(stats.total_morsels(), queue.morsel_count() as u64);
        assert_eq!(stats.workers.len(), 3);
        for w in &stats.workers {
            if w.morsels > 0 {
                assert_eq!(w.phase_ns.len(), 1);
                assert_eq!(w.phase_ns[0].0, "work");
            }
        }
    }

    #[test]
    fn merge_accumulates_by_worker() {
        let mut a = SchedulerStats {
            workers: vec![WorkerStats {
                morsels: 1,
                steals: 0,
                tuples: 10,
                phase_ns: vec![("x", 5)],
            }],
        };
        let b = SchedulerStats {
            workers: vec![
                WorkerStats {
                    morsels: 2,
                    steals: 1,
                    tuples: 20,
                    phase_ns: vec![("x", 7), ("y", 1)],
                },
                WorkerStats::default(),
            ],
        };
        a.merge(&b);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.workers[0].morsels, 3);
        assert_eq!(a.workers[0].tuples, 30);
        assert_eq!(a.workers[0].phase_ns, vec![("x", 12), ("y", 1)]);
        assert_eq!(a.total_steals(), 1);
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
