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
use std::time::Instant;

use crate::error::EngineError;
use crate::parallel::{chunk_ranges, parallel_scope_try};
use crate::run::{CancelToken, RunContext};
use crate::shared::SharedBuffer;

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
        ExecPolicy::new(1)
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

    /// The tuple range of morsel `id`.
    pub fn range_of(&self, id: usize) -> Range<usize> {
        self.bounds[id]..self.bounds[id + 1]
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

/// Tuples a take call covers (rounded up to the morsel alignment): the
/// worker's staging pair, 2 × 8 KiB, stays in L1 between the take's
/// stores and the copy out.
const FILTER_CHUNK_TUPLES: usize = 2048;

/// Tuples per word of the driver's selection bitmap (`u16` words).
const MARK_WORD_TUPLES: usize = u16::BITS as usize;

/// Morsel-parallel, order-preserving filter over `0..n` tuples: the one
/// driver behind the selection scans and the Bloom semi-join.
///
/// Morselizes `0..n` with interior boundaries aligned to `align` (at
/// least 16, so no two morsels share a bitmap word) and splits each
/// selection into the paper's two halves (§4), predicate evaluation and
/// materialization, with a bitmap of one bit per tuple between them:
///
/// 1. **Mark**: `mark(range, bits)` evaluates the predicate over one
///    non-empty morsel, sets one bit per qualifying tuple in `bits` (the
///    morsel's `u16` words, bit `t % 16` of word `t / 16` for tuple
///    `range.start + t`; every word is overwritten) and returns how many
///    qualify. This pass is metered, so every work counter and morsel
///    claim is counted once.
/// 2. **Take**: a prefix sum of the counts gives each morsel its output
///    offset; both columns are reserved on `policy.run` and allocated at
///    exactly the qualifier count. The morsels are then cut into chunks
///    of about 2048 tuples, each starting on an `align` boundary, and
///    `take(range, bits, out_keys, out_pays)` writes a chunk's marked
///    tuples to the front of the worker's L1 staging pair (at least as
///    long as `range`) and returns how many it wrote; the driver copies
///    them to their final slots. Each worker runs its take loop
///    [`unmetered`](rsv_metrics::unmetered), since it only moves what the
///    mark pass counted, and then records its takes' time under `phase`
///    in its own slot of the session.
///
/// The bitmap (`2 × ceil(n / 16)` bytes) is reserved on `policy.run`
/// before the mark pass and freed before the driver returns. The columns
/// hold exactly what a sequential pass over `0..n` would keep, for every
/// thread count and morsel size, and their capacity is their length; a
/// morsel whose takes write a different count than its mark fails the
/// take pass as a worker panic. Under a metering session, `phase` holds
/// both passes' time, one call per morsel and pass.
///
/// Fails with [`EngineError::BudgetExceeded`] when the bitmap and the two
/// columns do not fit the budget, [`EngineError::Cancelled`] once the run
/// is cancelled (checked at every morsel claim of both passes) and
/// [`EngineError::WorkerPanicked`] when a kernel panics.
pub fn filter_parallel<M, T>(
    n: usize,
    align: usize,
    phase: &'static str,
    policy: &ExecPolicy,
    mark: M,
    take: T,
) -> Result<(Vec<u32>, Vec<u32>), EngineError>
where
    M: Fn(Range<usize>, &mut [u16]) -> usize + Sync,
    T: Fn(Range<usize>, &[u16], &mut [u32], &mut [u32]) -> usize + Sync,
{
    let align = align.max(MARK_WORD_TUPLES);
    // A non-empty range's bitmap words (it starts on a word).
    let words = |r: &Range<usize>| r.start / MARK_WORD_TUPLES..r.end.div_ceil(MARK_WORD_TUPLES);
    let bits = policy
        .run
        .vec(n.div_ceil(MARK_WORD_TUPLES), 0u16)?
        .map(SharedBuffer::from_vec);
    // A queue serves one pass; both passes cut the same morsels.
    let queue = || MorselQueue::new(n, policy, align);
    let q = queue();
    let counts = SharedBuffer::from_vec(vec![0; q.morsel_count()]);
    parallel_scope_try(policy.threads, |ctx| {
        // SAFETY: each morsel id is claimed exactly once and writes only
        // its own count slot and its own bitmap words (interior morsel
        // boundaries are word-aligned); reads happen after the scope joins.
        let (cs, bs) = unsafe { (counts.view_mut(), bits.view_mut()) };
        for mo in ctx.morsels(&q) {
            // An empty morsel (past an unaligned `n`) owns no word.
            if !mo.range.is_empty() {
                let ws = words(&mo.range);
                cs[mo.id] = ctx.phase(phase, || mark(mo.range, &mut bs[ws]));
            }
        }
    })?;
    policy.run.check_cancelled()?;
    let bits = bits.map(SharedBuffer::into_vec);
    let mut starts = counts.into_vec();
    let mut kept = 0usize;
    for c in starts.iter_mut() {
        kept += std::mem::replace(c, kept);
    }
    starts.push(kept);

    let keys = policy.run.vec(kept, 0u32)?.map(SharedBuffer::from_vec);
    let pays = policy.run.vec(kept, 0u32)?.map(SharedBuffer::from_vec);
    let chunk = FILTER_CHUNK_TUPLES.next_multiple_of(align);
    let q = queue();
    parallel_scope_try(policy.threads, |ctx| {
        let (mut sk, mut sp) = (vec![0u32; chunk], vec![0u32; chunk]);
        // SAFETY: each morsel id is claimed exactly once and writes only
        // its own output slots `starts[id]..starts[id + 1]`, which the
        // prefix sum makes disjoint; reads happen after the scope joins.
        let (ok, op) = unsafe { (keys.view_mut(), pays.view_mut()) };
        // Metering is off inside the loop, so the clock is read only when
        // the session is there to take the time afterwards.
        let timed = rsv_metrics::enabled();
        let took = rsv_metrics::unmetered(|| {
            let mut took = Vec::new();
            for mo in ctx.morsels(&q) {
                let _ = rsv_testkit::failpoint!("exec.filter.morsel");
                let t = timed.then(Instant::now);
                let slots = starts[mo.id]..starts[mo.id + 1];
                let (ok, op) = (&mut ok[slots.clone()], &mut op[slots]);
                let mut at = 0;
                for s in mo.range.clone().step_by(chunk) {
                    let c = s..mo.range.end.min(s + chunk);
                    let k = take(c.clone(), &bits[words(&c)], &mut sk, &mut sp);
                    ok[at..at + k].copy_from_slice(&sk[..k]);
                    op[at..at + k].copy_from_slice(&sp[..k]);
                    at += k;
                }
                assert_eq!(at, ok.len(), "take wrote a different count than mark");
                took.extend(t.map(|t| t.elapsed().as_nanos() as u64));
            }
            took
        });
        for ns in took {
            rsv_metrics::record_phase(phase, ns);
        }
    })?;
    policy.run.check_cancelled()?;
    drop(bits);
    let (keys, pays) = (keys.into_inner(), pays.into_inner());
    Ok((keys.into_vec(), pays.into_vec()))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::parallel::parallel_scope;
    use rsv_metrics::Metric;

    #[test]
    fn covers_input_with_aligned_boundaries() {
        let policy = ExecPolicy::new(3).with_morsel_tuples(100);
        let q = MorselQueue::new(10_000, &policy, 16);
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

    /// A mark kernel keeping the tuples of `range` that pass `keeps`: one
    /// bit per tuple, every word of the morsel written, each tuple
    /// metered as scanned.
    fn mark_where(keeps: impl Fn(usize) -> bool) -> impl Fn(Range<usize>, &mut [u16]) -> usize {
        move |r, bits| {
            rsv_metrics::count(rsv_metrics::Metric::ScanTuplesIn, r.len() as u64);
            bits.fill(0);
            let mut c = 0;
            for (t, i) in r.enumerate() {
                if keeps(i) {
                    bits[t / 16] |= 1 << (t % 16);
                    c += 1;
                }
            }
            c
        }
    }

    /// A take kernel writing the marked tuples of `range` as
    /// `(vals[i], i)`, after checking the chunk's alignment and its
    /// staging length.
    fn take_from<'a>(
        vals: &'a [u32],
        align: usize,
    ) -> impl Fn(Range<usize>, &[u16], &mut [u32], &mut [u32]) -> usize + 'a {
        move |r, bits, ok, op| {
            assert_eq!(r.start % align, 0, "unaligned chunk");
            assert!(ok.len() >= r.len() && op.len() >= r.len());
            assert_eq!(bits.len(), r.len().div_ceil(16));
            let mut c = 0;
            for (t, i) in r.enumerate() {
                if bits[t / 16] >> (t % 16) & 1 != 0 {
                    ok[c] = vals[i];
                    op[c] = i as u32;
                    c += 1;
                }
            }
            c
        }
    }

    /// The driver against a sequential filter: every schedule keeps the
    /// same qualifiers in input order, whatever fraction a kernel keeps,
    /// in columns whose capacity is their length. The lengths cut morsels
    /// into several chunks with a short last one, and end mid-word. Each
    /// morsel is claimed once and each tuple marked once.
    #[test]
    fn filter_parallel_matches_sequential_filter() {
        let keep: [fn(usize) -> bool; 3] = [|_| false, |_| true, |i| i % 3 == 0];
        for n in [0usize, 1, 1000, 5003] {
            let vals: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            for (k, keeps) in keep.iter().enumerate() {
                let kept: Vec<usize> = (0..n).filter(|&i| keeps(i)).collect();
                let want_keys: Vec<u32> = kept.iter().map(|&i| vals[i]).collect();
                let want_pays: Vec<u32> = kept.iter().map(|&i| i as u32).collect();
                for align in [4usize, 16, 512] {
                    for threads in [1usize, 2, 3, 8] {
                        for morsel in [1usize, 7, 513, 4097, usize::MAX] {
                            let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                            let ((keys, pays, on), sink) = rsv_metrics::collect(|| {
                                let (keys, pays) = filter_parallel(
                                    n,
                                    align,
                                    "filter",
                                    &policy,
                                    mark_where(keeps),
                                    take_from(&vals, align),
                                )
                                .unwrap();
                                (keys, pays, rsv_metrics::enabled())
                            });
                            let at = format!(
                                "n={n} kernel={k} align={align} t={threads} morsel={morsel}"
                            );
                            assert_eq!(keys, want_keys, "{at}");
                            assert_eq!(pays, want_pays, "{at}");
                            assert_eq!(keys.capacity(), keys.len(), "{at}");
                            assert_eq!(pays.capacity(), pays.len(), "{at}");
                            if on {
                                let c = sink.total();
                                let m = MorselQueue::new(n, &policy, align).morsel_count();
                                assert_eq!(c.get(Metric::MorselsClaimed), m as u64, "{at}");
                                assert_eq!(c.get(Metric::ScanTuplesIn), n as u64, "{at}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Two workers write neighbouring morsels' bitmap words at once, and
    /// the last morsel ends in the middle of a word (small enough for
    /// Miri, which checks that the word writes stay disjoint).
    #[test]
    fn filter_parallel_writes_disjoint_bitmap_words() {
        let n = 5 * 16 + 7;
        let vals: Vec<u32> = (0..n as u32).map(|i| i ^ 0x5a5a).collect();
        let keeps = |i: usize| i % 5 != 1;
        let policy = ExecPolicy::new(2).with_morsel_tuples(16);
        assert!(MorselQueue::new(n, &policy, 16).morsel_count() > 2);
        let (keys, pays) = filter_parallel(
            n,
            16,
            "filter",
            &policy,
            mark_where(keeps),
            take_from(&vals, 16),
        )
        .unwrap();
        let kept: Vec<usize> = (0..n).filter(|&i| keeps(i)).collect();
        assert_eq!(keys, kept.iter().map(|&i| vals[i]).collect::<Vec<_>>());
        assert_eq!(pays, kept.iter().map(|&i| i as u32).collect::<Vec<_>>());
    }

    /// The budget covers the bitmap (2 bytes per 16 input tuples) and
    /// the two output columns at the qualifier count, not at the input
    /// length; success and failure both leave nothing reserved.
    #[test]
    fn filter_parallel_reserves_bitmap_and_both_columns() {
        let (n, kept) = (100usize, 50);
        let vals: Vec<u32> = (0..n as u32).collect();
        let bytes = 8 * kept as u64 + 2 * n.div_ceil(16) as u64;
        let run = |limit: u64| {
            let policy = ExecPolicy::new(2).with_run(RunContext::new().with_memory_limit(limit));
            let result = filter_parallel(
                n,
                16,
                "filter",
                &policy,
                mark_where(|i| i % 2 == 0),
                take_from(&vals, 16),
            );
            assert_eq!(policy.run.budget.used(), 0);
            result
        };
        assert_eq!(run(bytes).unwrap().0.len(), kept);
        assert!(matches!(
            run(bytes - 1),
            Err(EngineError::BudgetExceeded { .. })
        ));
        assert!(matches!(
            run(2 * n.div_ceil(16) as u64 - 1),
            Err(EngineError::BudgetExceeded { .. })
        ));
    }

    /// Only the mark pass is metered: a metered run sees every tuple and
    /// every morsel once, though the take pass claims every morsel again
    /// and its kernel counts too. The phase times both passes, one call
    /// per morsel and pass, in the slots of the workers that ran them.
    #[test]
    fn filter_parallel_meters_each_tuple_once() {
        let n = 10_000;
        let policy = ExecPolicy::new(2).with_morsel_tuples(1000);
        let morsels = MorselQueue::new(n, &policy, 16).morsel_count() as u64;
        let pause = std::time::Duration::from_millis(2);
        let ((on, kept), sink) = rsv_metrics::collect(|| {
            let (keys, _) = filter_parallel(
                n,
                16,
                "filter",
                &policy,
                |r, bits| {
                    rsv_metrics::count(rsv_metrics::Metric::ScanTuplesIn, r.len() as u64);
                    bits.fill(0);
                    0
                },
                |r, _, _, _| {
                    rsv_metrics::count(rsv_metrics::Metric::ScanTuplesIn, r.len() as u64);
                    std::thread::sleep(pause);
                    0
                },
            )
            .unwrap();
            (rsv_metrics::enabled(), keys.len())
        });
        assert_eq!(kept, 0);
        if !on {
            return; // metering compiled out
        }
        let total = sink.total();
        assert_eq!(total.get(rsv_metrics::Metric::ScanTuplesIn), n as u64);
        assert_eq!(total.get(rsv_metrics::Metric::MorselsClaimed), morsels);
        let filter = total.phases["filter"];
        assert_eq!(filter.calls(), 2 * morsels);
        assert!(
            filter.ns >= morsels * pause.as_nanos() as u64,
            "take time missing"
        );
        // Each worker's takes land in its own slot, next to its marks.
        for w in &sink.workers {
            let calls = w.phases.get("filter").map_or(0, |p| p.calls());
            assert!(calls >= w.get(rsv_metrics::Metric::MorselsClaimed));
        }
    }

    /// A take that writes fewer or more tuples than its mark counted
    /// would leave slots unwritten or run past its morsel's slots; the
    /// take pass stops it as a worker panic and releases the budget.
    #[test]
    fn filter_parallel_rejects_a_take_that_disagrees_with_its_mark() {
        let vals: Vec<u32> = (0..100).collect();
        for extra in [-1isize, 1] {
            let policy = ExecPolicy::new(2).with_run(RunContext::new().with_memory_limit(1 << 20));
            let take = take_from(&vals, 16);
            let result = filter_parallel(
                100,
                16,
                "filter",
                &policy,
                mark_where(|i| i % 2 == 0),
                |r, bits, ok, op| take(r, bits, ok, op).saturating_add_signed(extra),
            );
            assert!(
                matches!(result, Err(EngineError::WorkerPanicked { .. })),
                "extra={extra}: {result:?}"
            );
            assert_eq!(policy.run.budget.used(), 0);
        }
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
