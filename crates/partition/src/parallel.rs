//! One parallel, stable partitioning pass over key/payload pairs or over a
//! key column alone.
//!
//! The paper's thread decomposition (Sections 8 and 9) splits the input
//! equally among threads. Here the input is instead cut into SIMD-aligned
//! **morsels** that workers claim from a work-stealing queue
//! ([`rsv_exec::MorselQueue`]); the *interleaved* prefix sum over the
//! per-morsel histograms assigns each morsel a contiguous slice of every
//! partition's output region, so the pass stays stable and its output is
//! byte-identical for any thread count and any claim order. Workers
//! shuffle shared-nothing, synchronize, and then run the buffered-shuffle
//! cleanup for each morsel (which also repairs first-line clobbering
//! across region boundaries).
//!
//! Safety of the morselized buffered shuffle (same argument as the
//! paper's per-thread version, with "thread" replaced by "morsel"): an
//! aligned output line is streaming-flushed by at most one worker — the
//! one shuffling the morsel whose offset interval contains the line's end
//! — because a flush happens only when that morsel's running offset
//! crosses the line end. Every other morsel's tuples in that line stay in
//! the morsel's staging buffer and are written directly by its cleanup,
//! which runs after the barrier and therefore after every flush.

use rsv_exec::{
    parallel_scope_try, AlignedVec, EngineError, ExecPolicy, MorselQueue, SharedBuffer, SlotMap,
};
use rsv_simd::{KernelKind, Simd};

use crate::histogram::{histogram, prefix_sum};
use crate::shuffle::{
    shuffle_buffer_cleanup, shuffle_scalar_buffered_core, shuffle_vector_buffered_core, Staged,
    SCALAR_SLOTS,
};
use crate::PartitionFn;

/// Per-region partition start offsets from the interleaved prefix sum of
/// all regions' histograms. `offsets[r][p]` is where region `r` (a morsel,
/// or a thread chunk in the static scheme) writes its first tuple of
/// partition `p`; partition `p`'s full region is
/// `[offsets[0][p], offsets[0][p+1])`.
pub fn interleaved_offsets(hists: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let t = hists.len();
    assert!(t > 0);
    let p = hists[0].len();
    let mut offsets = vec![vec![0u32; p]; t];
    let mut acc = 0u32;
    for part in 0..p {
        for (tid, hist) in hists.iter().enumerate() {
            offsets[tid][part] = acc;
            acc += hist[part];
        }
    }
    offsets
}

/// Result of a parallel partitioning pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassOutput {
    /// Partition start offsets (into the output columns).
    pub partition_starts: Vec<u32>,
    /// Per-partition tuple counts.
    pub hist: Vec<u32>,
}

/// Run one stable buffered-shuffle partitioning pass with `kind`'s
/// kernels and morsel scheduling, writing the partitioned columns into
/// `dst_k`/`dst_p` (which must have the input length).
///
/// The output is byte-identical for every `policy.threads` value; it also
/// does not depend on `policy.morsel_tuples`, because the interleaved
/// offsets key each morsel's slice to the morsel's *input order*, making
/// the pass a stable partition of the input regardless of granularity.
/// Honours `policy.run`'s cancel token at every morsel/task claim and
/// surfaces worker panics as [`EngineError::WorkerPanicked`]. Every
/// morsel's staging buffer (one line of `slots` tuples per partition)
/// stays live until the cleanup after the barrier, so the pass reserves
/// `morsels × fanout × slots × tuple size` bytes on `policy.run`'s
/// budget before its shuffle, `slots` being the lane count (or
/// 16 for the scalar kernel) and a tuple 8 bytes (4 for
/// [`partition_pass_keys`]); [`EngineError::BudgetExceeded`] leaves the
/// output vectors untouched. On other errors they keep their length but
/// hold unspecified contents.
pub fn partition_pass<S: Simd, F: PartitionFn + Sync>(
    kind: KernelKind<S>,
    f: F,
    src_k: &[u32],
    src_p: &[u32],
    dst_k: &mut Vec<u32>,
    dst_p: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<PassOutput, EngineError> {
    assert_eq!(src_k.len(), src_p.len(), "column length mismatch");
    assert_eq!(dst_p.len(), src_p.len(), "output length mismatch");
    pass::<S, F, u64>(kind, f, src_k, src_p, dst_k, dst_p, policy)
}

/// [`partition_pass`] over a key column alone (key-only radixsort): the
/// same pass, staging bare keys instead of key + payload pairs.
pub fn partition_pass_keys<S: Simd, F: PartitionFn + Sync>(
    kind: KernelKind<S>,
    f: F,
    src_k: &[u32],
    dst_k: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<PassOutput, EngineError> {
    // bare-key staging drops the payload: the key column stands in for it,
    // and no payload column is written
    let mut no_pays = Vec::new();
    pass::<S, F, u32>(kind, f, src_k, src_k, dst_k, &mut no_pays, policy)
}

/// The pass behind [`partition_pass`] and [`partition_pass_keys`], staging
/// tuples of type `T`.
fn pass<S: Simd, F: PartitionFn + Sync, T: Staged>(
    kind: KernelKind<S>,
    f: F,
    src_k: &[u32],
    src_p: &[u32],
    dst_k: &mut Vec<u32>,
    dst_p: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<PassOutput, EngineError> {
    assert_eq!(dst_k.len(), src_k.len(), "output length mismatch");
    let n = src_k.len();
    let t = policy.threads;

    // Phase 1: per-morsel histograms, keyed by morsel id.
    let hist_q = MorselQueue::new(n, policy, S::LANES);
    let m = hist_q.morsel_count();
    let hist_slots: SlotMap<Vec<u32>> = SlotMap::new(m);
    parallel_scope_try(t, |ctx| {
        for mo in ctx.morsels(&hist_q) {
            let _ = rsv_testkit::failpoint!("partition.histogram.morsel");
            let h = ctx.phase("histogram", || histogram(kind, f, &src_k[mo.range.clone()]));
            // SAFETY: each morsel id is claimed exactly once.
            unsafe { hist_slots.put(mo.id, h) };
        }
    })?;
    // Only a cancelled scope leaves a morsel's histogram slot unfilled.
    let mut hists: Vec<Vec<u32>> = hist_slots
        .into_values()
        .into_iter()
        .collect::<Option<_>>()
        .ok_or(EngineError::Cancelled)?;
    if hists.is_empty() {
        // empty input: zero morsels, but the offsets below need one region
        hists.push(vec![0u32; f.fanout()]);
    }
    let bases = interleaved_offsets(&hists);
    let mut hist = vec![0u32; f.fanout()];
    for h in &hists {
        for (p, &c) in h.iter().enumerate() {
            hist[p] += c;
        }
    }

    // Phase 2: shared-nothing buffered shuffle per morsel; phase 3 (after
    // the barrier): per-morsel staging-buffer cleanup, claimable by any
    // worker because the buffers and final offsets are keyed by morsel id.
    let shuffle_q = MorselQueue::new(n, policy, S::LANES);
    // The cleanup queue must share the run's cancel token: a shuffle phase
    // cut short by cancellation leaves staging slots unfilled, and a
    // cancelled claim is what keeps cleanup from reading them.
    let cleanup_q = MorselQueue::tasks(m, policy);
    let staged: SlotMap<(AlignedVec<T>, Vec<u32>)> = SlotMap::new(m);
    let slots = match kind {
        KernelKind::Scalar => SCALAR_SLOTS,
        KernelKind::Vector(_) => S::LANES,
    };
    let staging = (m * f.fanout() * slots * std::mem::size_of::<T>()) as u64;
    let _staging = policy.run.hold(staging, || ())?;
    let out_k = SharedBuffer::from_vec(std::mem::take(dst_k));
    let out_p = SharedBuffer::from_vec(std::mem::take(dst_p));
    let shuffle_scope = parallel_scope_try(t, |ctx| {
        // SAFETY: morsels write disjoint output regions derived from the
        // interleaved prefix sums; transiently clobbered first lines are
        // repaired by their owning morsels' cleanup, which runs after the
        // barrier, and any output line is aligned-flushed by at most one
        // worker (the one whose morsel's offset interval contains the
        // line end).
        let (ok, op) = unsafe { (out_k.view_mut(), out_p.view_mut()) };
        for mo in ctx.morsels(&shuffle_q) {
            let _ = rsv_testkit::failpoint!("partition.shuffle.morsel");
            ctx.phase("shuffle", || {
                let r = mo.range.clone();
                let mut off = bases[mo.id].clone();
                let mut buf: AlignedVec<T> = AlignedVec::zeroed(f.fanout() * slots);
                let (ks, ps) = (&src_k[r.clone()], &src_p[r]);
                match kind {
                    KernelKind::Scalar => {
                        shuffle_scalar_buffered_core(f, ks, ps, &mut off, &mut buf, ok, op)
                    }
                    KernelKind::Vector(s) => {
                        shuffle_vector_buffered_core(s, f, ks, ps, &mut off, &mut buf, ok, op, true)
                    }
                }
                // SAFETY: one writer per morsel id, read only after the
                // barrier below.
                unsafe { staged.put(mo.id, (buf, off)) };
            });
        }
        ctx.barrier();
        for task in ctx.morsels(&cleanup_q) {
            ctx.phase("cleanup", || {
                // SAFETY: all writers crossed the barrier above; each
                // cleanup task id is claimed exactly once.
                let (buf, off) = unsafe { staged.get(task.id) };
                shuffle_buffer_cleanup(slots, buf, &bases[task.id], off, ok, op);
            });
        }
    });
    *dst_k = out_k.into_vec();
    *dst_p = out_p.into_vec();
    shuffle_scope?;
    policy.run.check_cancelled()?;

    let (partition_starts, _) = prefix_sum(&hist, 0);
    Ok(PassOutput {
        partition_starts,
        hist,
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::{HashFn, PartitionFn};
    use rsv_metrics::Metric;
    use rsv_simd::Portable;

    /// Every morsel's staging buffer is on the budget until the cleanup:
    /// one byte short of them fails before the shuffle, with the output
    /// vectors untouched and nothing left reserved.
    #[test]
    fn pass_reserves_every_morsels_staging_buffer() {
        use rsv_exec::RunContext;
        let kind = KernelKind::Vector(Portable::<16>::new());
        let keys: Vec<u32> = (0..50_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let f = HashFn::new(64);
        for threads in [1usize, 2] {
            let policy = ExecPolicy::new(threads).with_morsel_tuples(4096);
            let m = MorselQueue::new(keys.len(), &policy, 16).morsel_count();
            let staging = (m * 64 * 16 * 8) as u64;
            let run = |limit: u64| {
                let policy = policy
                    .clone()
                    .with_run(RunContext::new().with_memory_limit(limit));
                let (mut dk, mut dp) = (vec![7u32; keys.len()], vec![7u32; keys.len()]);
                let out = partition_pass(kind, f, &keys, &keys, &mut dk, &mut dp, &policy);
                assert_eq!(policy.run.budget.used(), 0);
                (out, dk)
            };
            assert!(run(staging).0.is_ok(), "t={threads}");
            let (err, dk) = run(staging - 1);
            assert!(
                matches!(err, Err(EngineError::BudgetExceeded { .. })),
                "t={threads}"
            );
            assert!(dk.iter().all(|&k| k == 7), "output touched");
        }
    }

    #[test]
    fn interleaved_offsets_layout() {
        let hists = vec![vec![2u32, 3], vec![1, 4]];
        let off = interleaved_offsets(&hists);
        // partition 0: t0 at 0..2, t1 at 2..3; partition 1: t0 at 3..6, t1 at 6..10
        assert_eq!(off[0], vec![0, 3]);
        assert_eq!(off[1], vec![2, 6]);
    }

    /// The key-only pass over `keys` must reproduce the pair pass's key
    /// column `dk` and its [`PassOutput`].
    fn assert_keys_pass_matches<F: PartitionFn + Sync>(
        kind: KernelKind<Portable<16>>,
        f: F,
        keys: &[u32],
        policy: &ExecPolicy,
        dk: &[u32],
        out: &PassOutput,
    ) {
        let mut ko = vec![0u32; keys.len()];
        let out_k = partition_pass_keys(kind, f, keys, &mut ko, policy).unwrap();
        let ctx = format!(
            "{kind:?} t={} morsel={}",
            policy.threads, policy.morsel_tuples
        );
        assert_eq!(ko, dk, "key-only keys differ ({ctx})");
        assert_eq!(&out_k, out, "key-only pass output differs ({ctx})");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn parallel_pass_partitions_correctly() {
        let s = Portable::<16>::new();
        let mut rng = rsv_data::rng(131);
        let keys = rsv_data::uniform_u32(20_000, &mut rng);
        let pays: Vec<u32> = (0..20_000).collect();
        let f = HashFn::new(53);
        for threads in [1usize, 2, 4] {
            for kind in [KernelKind::Scalar, KernelKind::Vector(s)] {
                let mut dk = vec![0u32; keys.len()];
                let mut dp = vec![0u32; keys.len()];
                let policy = ExecPolicy::new(threads);
                let out = partition_pass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy).unwrap();
                // region check + stability within each morsel's slice is
                // implied; check partition function and global stability
                for p in 0..f.fanout() {
                    let start = out.partition_starts[p] as usize;
                    let end = start + out.hist[p] as usize;
                    for q in start..end {
                        assert_eq!(f.partition(dk[q]), p);
                    }
                    // payloads were 0..n: within a partition they ascend
                    // because morsel regions follow morsel (= input) order
                    for w in dp[start..end].windows(2) {
                        assert!(w[0] < w[1], "pass not stable (threads={threads})");
                    }
                }
                let a = rsv_data::multiset_fingerprint(keys.iter().zip(&pays));
                let b = rsv_data::multiset_fingerprint(dk.iter().zip(&dp));
                assert_eq!(a, b);
                assert_keys_pass_matches(kind, f, &keys, &policy, &dk, &out);
            }
        }
    }

    /// The pass output must not depend on thread count or morsel size. The
    /// small morsels make the cleanup repair first lines across morsel
    /// boundaries, at both staging widths. Histogram, shuffle and cleanup
    /// each claim every morsel once, and the shuffle moves every tuple.
    #[test]
    fn pass_output_independent_of_schedule() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let mut rng = rsv_data::rng(132);
        let keys = rsv_data::uniform_u32(30_000, &mut rng);
        let pays: Vec<u32> = (0..30_000).collect();
        let f = HashFn::new(29);
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        for threads in [1usize, 2, 3, 8] {
            for morsel in [512usize, 4096, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let mut dk = vec![0u32; keys.len()];
                let mut dp = vec![0u32; keys.len()];
                let ((out, on), sink) = rsv_metrics::collect(|| {
                    let out = partition_pass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy);
                    (out.unwrap(), rsv_metrics::enabled())
                });
                if on {
                    let c = sink.total();
                    let m = MorselQueue::new(keys.len(), &policy, 16).morsel_count() as u64;
                    assert_eq!(c.get(Metric::MorselsClaimed), 3 * m);
                    assert_eq!(c.get(Metric::PartShuffleTuples), keys.len() as u64);
                }
                assert_keys_pass_matches(kind, f, &keys, &policy, &dk, &out);
                match &reference {
                    None => reference = Some((dk, dp)),
                    Some((rk, rp)) => {
                        assert_eq!(&dk, rk, "keys differ at t={threads} morsel={morsel}");
                        assert_eq!(&dp, rp, "pays differ at t={threads} morsel={morsel}");
                    }
                }
            }
        }
    }
}
