//! Morsel-driven work-stealing scheduling.
//!
//! The paper parallelizes operators by splitting the input *equally* among
//! threads (Sections 8–9). That is optimal only when every tuple costs the
//! same; under skew (or on a machine running other work) the slowest thread
//! dominates every barrier. This module replaces the static split with
//! morsel-driven scheduling in the style of Leis et al. (SIGMOD 2014):
//!
//! * the input is cut into cache-friendly, SIMD-aligned **morsels**
//!   (default [`DEFAULT_MORSEL_TUPLES`] tuples, boundaries aligned so the
//!   vector kernels never straddle a vector word),
//! * every worker owns a contiguous span of morsel ids and claims them
//!   through a per-worker atomic cursor (cheap, mostly uncontended),
//! * a worker whose span is exhausted **steals** from the next non-empty
//!   victim's cursor, so imbalance moves work instead of idling threads,
//! * the phase barriers the paper's operators need (histogram → shuffle,
//!   build → probe) are kept: one [`MorselQueue`] serves exactly one phase.
//!
//! Results stay deterministic because everything a worker produces is keyed
//! by **morsel id**, never by worker id: whichever thread claims a morsel
//! writes the same bytes to the same place.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::parallel::chunk_ranges;
use crate::run::{CancelToken, RunContext};

/// Default morsel size in tuples. 16K tuples of key+payload (128 KB) fit
/// comfortably in L2 next to the shuffle staging buffers, while still
/// giving a work-stealing granularity of dozens-to-thousands of morsels on
/// the paper's workloads.
pub const DEFAULT_MORSEL_TUPLES: usize = 16 * 1024;

/// How an operator invocation should be executed: how many workers, how
/// finely the input is morselized, and under which [`RunContext`]
/// (cancellation + memory budget).
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Number of worker threads.
    pub threads: usize,
    /// Target tuples per morsel (boundaries are rounded to the kernel's
    /// alignment). `usize::MAX` degenerates to the paper's static
    /// equal-split: one morsel per worker.
    pub morsel_tuples: usize,
    /// The run the invocation belongs to. The default is inert
    /// (uncancellable, unlimited), so policies built without an explicit
    /// context behave exactly as before.
    pub run: RunContext,
}

impl ExecPolicy {
    /// A policy with `threads` workers and the default morsel size.
    pub fn new(threads: usize) -> ExecPolicy {
        assert!(threads > 0, "need at least one worker");
        ExecPolicy {
            threads,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
            run: RunContext::default(),
        }
    }

    /// Single worker, default morsel size.
    pub fn single_threaded() -> ExecPolicy {
        ExecPolicy::new(1)
    }

    /// Replace the morsel size.
    pub fn with_morsel_tuples(mut self, morsel_tuples: usize) -> ExecPolicy {
        assert!(morsel_tuples > 0, "morsels must hold at least one tuple");
        self.morsel_tuples = morsel_tuples;
        self
    }

    /// Attach a [`RunContext`] (cancel token + memory budget).
    pub fn with_run(mut self, run: RunContext) -> ExecPolicy {
        self.run = run;
        self
    }

    /// The paper's static equal-split schedule: one morsel per worker, no
    /// stealing (used as the ablation baseline).
    pub fn static_split(mut self) -> ExecPolicy {
        self.morsel_tuples = usize::MAX;
        self
    }
}

impl Default for ExecPolicy {
    fn default() -> ExecPolicy {
        ExecPolicy::single_threaded()
    }
}

/// One claimed unit of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Morsel {
    /// Dense morsel id in `0..queue.morsel_count()`; results must be keyed
    /// by this (not by worker id) to stay deterministic.
    pub id: usize,
    /// The tuple range this morsel covers.
    pub range: Range<usize>,
    /// `true` if the claiming worker took it from another worker's span.
    pub stolen: bool,
}

#[repr(align(64))]
#[derive(Default)]
struct PaddedCursor(AtomicUsize);

/// A single-phase queue of morsels over `0..n` tuples.
///
/// Construction assigns every worker a contiguous span of morsel ids (so
/// the uncontended fast path touches only the worker's own cache line);
/// [`MorselQueue::claim`] drains the own span first, then steals. A queue
/// serves exactly one phase — phases separated by a barrier each build
/// their own queue.
pub struct MorselQueue {
    /// `morsel_count + 1` tuple boundaries; morsel `i` covers
    /// `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
    /// Per-worker morsel-id spans (contiguous, disjoint, covering).
    spans: Vec<Range<usize>>,
    /// Per-worker claim cursors, as offsets into the worker's span. A
    /// cursor may overshoot its span end (failed claims still increment);
    /// only values below the span length denote claimed morsels.
    cursors: Vec<PaddedCursor>,
    /// The run's cancel token: once cancelled, [`MorselQueue::claim`]
    /// returns `None`, so each worker finishes at most the morsel it
    /// already holds (cancellation latency ≤ one morsel).
    cancel: CancelToken,
}

impl MorselQueue {
    /// Morselize `0..n` tuples for `policy.threads` workers, with every
    /// interior boundary aligned to `align` tuples (power of two).
    pub fn new(n: usize, policy: &ExecPolicy, align: usize) -> MorselQueue {
        let per = policy.morsel_tuples.max(1);
        let morsels = if n == 0 {
            0
        } else {
            n.div_ceil(per).max(policy.threads.min(n.div_ceil(align)))
        };
        Self::build(n, morsels, policy.threads, align, policy.run.cancel_token())
    }

    /// A queue of `count` indivisible tasks (partitions to build, parts to
    /// probe, ...) rather than tuple ranges: morsel `i` is `i..i + 1`.
    /// Claims honour `policy.run`'s cancel token, so task-granular phases
    /// stop at task boundaries too.
    pub fn tasks(count: usize, policy: &ExecPolicy) -> MorselQueue {
        Self::build(count, count, policy.threads, 1, policy.run.cancel_token())
    }

    fn build(
        n: usize,
        morsels: usize,
        workers: usize,
        align: usize,
        cancel: CancelToken,
    ) -> MorselQueue {
        assert!(workers > 0, "need at least one worker");
        let mut bounds = Vec::with_capacity(morsels + 1);
        bounds.push(0);
        if morsels > 0 {
            for r in chunk_ranges(n, morsels, align) {
                bounds.push(r.end);
            }
        }
        // Empty morsels (n much smaller than morsels * align) are legal:
        // claiming one is a no-op for every kernel.
        let spans = if morsels == 0 {
            vec![0..0; workers]
        } else {
            chunk_ranges(morsels, workers, 1)
        };
        let cursors = (0..workers).map(|_| PaddedCursor::default()).collect();
        MorselQueue {
            bounds,
            spans,
            cursors,
            cancel,
        }
    }

    /// Number of morsels in the queue.
    pub fn morsel_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of tuples the queue covers.
    // `bounds` always holds at least the leading 0.
    #[allow(clippy::unwrap_used)]
    pub fn tuple_count(&self) -> usize {
        *self.bounds.last().unwrap()
    }

    /// The tuple range of morsel `id`.
    pub fn range_of(&self, id: usize) -> Range<usize> {
        self.bounds[id]..self.bounds[id + 1]
    }

    /// Compact per-morsel output runs to the front of every column in
    /// `cols`, in morsel order, and return the total run length. Morsel
    /// `id` left a run of `counts[id]` values at the start of its own range
    /// ([`MorselQueue::range_of`]). Runs only move left (a run's
    /// destination never lies past its source), so copying front to back
    /// never clobbers a run that has not moved yet.
    pub fn compact_runs(&self, counts: &[usize], cols: &mut [&mut [u32]]) -> usize {
        let mut dest = 0usize;
        for (id, &c) in counts.iter().enumerate() {
            let src = self.range_of(id).start;
            if src != dest {
                for col in cols.iter_mut() {
                    col.copy_within(src..src + c, dest);
                }
            }
            dest += c;
        }
        dest
    }

    /// Claim the next morsel for `worker`: own span first, then steal from
    /// the other workers in round-robin order. Returns `None` once every
    /// span is drained (cursors only grow, so `None` is final) **or the
    /// run's cancel token trips** — this boundary is what bounds
    /// cancellation latency to one in-flight morsel per worker.
    pub fn claim(&self, worker: usize) -> Option<Morsel> {
        if self.cancel.is_cancelled() {
            return None;
        }
        let w = self.spans.len();
        for probe in 0..w {
            let victim = (worker + probe) % w;
            if let Some(id) = self.claim_from(victim) {
                return Some(Morsel {
                    id,
                    range: self.range_of(id),
                    stolen: probe != 0,
                });
            }
        }
        None
    }

    fn claim_from(&self, victim: usize) -> Option<usize> {
        let span = &self.spans[victim];
        if span.is_empty() {
            return None;
        }
        // Relaxed is enough: the claim itself synchronizes nothing — the
        // phase barrier after the queue drains is the publication point.
        let off = self.cursors[victim].0.fetch_add(1, Ordering::Relaxed);
        let id = span.start.checked_add(off)?;
        (id < span.end).then_some(id)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::parallel::parallel_scope;

    #[test]
    fn covers_input_with_aligned_boundaries() {
        let policy = ExecPolicy::new(3).with_morsel_tuples(100);
        let q = MorselQueue::new(10_000, &policy, 16);
        assert_eq!(q.tuple_count(), 10_000);
        assert!(q.morsel_count() >= 10_000 / 128);
        let mut prev = 0;
        for id in 0..q.morsel_count() {
            let r = q.range_of(id);
            assert_eq!(r.start, prev);
            prev = r.end;
            if id + 1 < q.morsel_count() {
                assert_eq!(r.end % 16, 0, "unaligned interior boundary");
            }
        }
        assert_eq!(prev, 10_000);
    }

    #[test]
    fn every_morsel_claimed_exactly_once() {
        for workers in [1usize, 2, 3, 8] {
            let policy = ExecPolicy::new(workers).with_morsel_tuples(64);
            let q = MorselQueue::new(50_000, &policy, 16);
            let claimed = parallel_scope(workers, |ctx| {
                let mut ids = Vec::new();
                while let Some(m) = q.claim(ctx.thread_id) {
                    ids.push(m.id);
                }
                ids
            });
            let mut all: Vec<usize> = claimed.into_iter().flatten().collect();
            all.sort_unstable();
            let expected: Vec<usize> = (0..q.morsel_count()).collect();
            assert_eq!(all, expected, "workers={workers}");
        }
    }

    #[test]
    fn stealing_drains_a_stalled_span() {
        // Worker 1 never claims; worker 0 must steal worker 1's span.
        let policy = ExecPolicy::new(2).with_morsel_tuples(10);
        let q = MorselQueue::new(100, &policy, 1);
        let mut own = 0;
        let mut stolen = 0;
        while let Some(m) = q.claim(0) {
            if m.stolen {
                stolen += 1;
            } else {
                own += 1;
            }
        }
        assert_eq!(own + stolen, q.morsel_count());
        assert!(stolen > 0, "nothing was stolen");
        assert!(q.claim(1).is_none());
    }

    #[test]
    fn static_split_gives_one_morsel_per_worker() {
        let policy = ExecPolicy::new(4).static_split();
        let q = MorselQueue::new(1 << 20, &policy, 16);
        assert_eq!(q.morsel_count(), 4);
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let q = MorselQueue::new(0, &ExecPolicy::new(4), 16);
        assert_eq!(q.morsel_count(), 0);
        assert!(q.claim(0).is_none());
    }

    #[test]
    fn task_queue_is_unit_granularity() {
        let q = MorselQueue::tasks(7, &ExecPolicy::new(3));
        assert_eq!(q.morsel_count(), 7);
        for id in 0..7 {
            assert_eq!(q.range_of(id), id..id + 1);
        }
    }

    #[test]
    fn cancel_stops_claims_immediately() {
        let policy = ExecPolicy::new(2).with_morsel_tuples(10);
        let q = MorselQueue::new(100, &policy, 1);
        assert!(q.claim(0).is_some());
        policy.run.cancel.cancel();
        assert!(q.claim(0).is_none());
        assert!(q.claim(1).is_none());
    }

    #[test]
    fn task_queue_honours_cancel() {
        let policy = ExecPolicy::new(1);
        let q = MorselQueue::tasks(5, &policy);
        assert!(q.claim(0).is_some());
        policy.run.cancel.cancel();
        assert!(q.claim(0).is_none());
    }

    #[test]
    fn tiny_input_many_workers() {
        // n < workers: some morsels are empty, but all of 0..n is covered.
        let q = MorselQueue::new(3, &ExecPolicy::new(8), 16);
        let mut total = 0;
        for id in 0..q.morsel_count() {
            total += q.range_of(id).len();
        }
        assert_eq!(total, 3);
    }
}
