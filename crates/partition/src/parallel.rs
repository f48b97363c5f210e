//! One parallel, stable partitioning pass over key/payload pairs.
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
    parallel_scope_try, AlignedVec, EngineError, ExecPolicy, MorselQueue, SchedulerStats,
    SharedBuffer, SlotMap,
};
use rsv_simd::Simd;

use crate::histogram::{histogram_scalar, histogram_vector_replicated};
use crate::shuffle::{
    scalar_slots, shuffle_buffer_cleanup, shuffle_scalar_buffered_core,
    shuffle_vector_buffered_core,
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
#[derive(Debug, Clone)]
pub struct PassOutput {
    /// Partition start offsets (into the output columns).
    pub partition_starts: Vec<u32>,
    /// Per-partition tuple counts.
    pub hist: Vec<u32>,
}

/// Run one stable buffered-shuffle partitioning pass with morsel
/// scheduling, writing the partitioned columns into `dst_k`/`dst_p` (which
/// must have the input length) and returning per-worker scheduler stats
/// alongside the pass output.
///
/// The output is byte-identical for every `policy.threads` value; it also
/// does not depend on `policy.morsel_tuples`, because the interleaved
/// offsets key each morsel's slice to the morsel's *input order*, making
/// the pass a stable partition of the input regardless of granularity.
/// Honours `policy.run`'s cancel token at every morsel/task claim and
/// surfaces worker panics as [`EngineError::WorkerPanicked`]. On error the
/// output vectors keep their length but hold unspecified contents.
#[allow(clippy::too_many_arguments)]
pub fn partition_pass<S: Simd, F: PartitionFn + Sync>(
    s: S,
    vectorized: bool,
    f: F,
    src_k: &[u32],
    src_p: &[u32],
    dst_k: &mut Vec<u32>,
    dst_p: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<(PassOutput, SchedulerStats), EngineError> {
    assert_eq!(src_k.len(), src_p.len(), "column length mismatch");
    assert_eq!(dst_k.len(), src_k.len(), "output length mismatch");
    assert_eq!(dst_p.len(), src_p.len(), "output length mismatch");
    let n = src_k.len();
    let t = policy.threads;

    // Phase 1: per-morsel histograms, keyed by morsel id.
    let hist_q = MorselQueue::new(n, policy, S::LANES);
    let m = hist_q.morsel_count();
    let hist_slots: SlotMap<Vec<u32>> = SlotMap::new(m);
    let (_, mut stats) = parallel_scope_try(t, |ctx| {
        for mo in ctx.morsels(&hist_q) {
            let _ = rsv_testkit::failpoint!("partition.histogram.morsel");
            let h = ctx.phase("histogram", || {
                let ks = &src_k[mo.range.clone()];
                if vectorized {
                    histogram_vector_replicated(s, f, ks)
                } else {
                    histogram_scalar(f, ks)
                }
            });
            // SAFETY: each morsel id is claimed exactly once.
            unsafe { hist_slots.put(mo.id, h) };
        }
    })?;
    // A cancelled pass may have left histogram slots unfilled: bail before
    // reading them.
    policy.run.check_cancelled()?;
    let mut hists: Vec<Vec<u32>> = hist_slots
        .into_values()
        .into_iter()
        .map(|h| h.expect("every morsel histogrammed"))
        .collect();
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
    let staged: SlotMap<(AlignedVec<u64>, Vec<u32>)> = SlotMap::new(m);
    let slots = if vectorized { S::LANES } else { scalar_slots() };
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
                let mut buf: AlignedVec<u64> = AlignedVec::zeroed(f.fanout() * slots);
                if vectorized {
                    shuffle_vector_buffered_core(
                        s,
                        f,
                        &src_k[r.clone()],
                        &src_p[r],
                        &mut off,
                        &mut buf,
                        ok,
                        op,
                        true,
                    );
                } else {
                    shuffle_scalar_buffered_core(
                        f,
                        &src_k[r.clone()],
                        &src_p[r],
                        &mut off,
                        &mut buf,
                        ok,
                        op,
                    );
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
    stats.merge(&shuffle_scope?.1);
    policy.run.check_cancelled()?;

    let mut partition_starts = Vec::with_capacity(f.fanout());
    let mut acc = 0u32;
    for &c in &hist {
        partition_starts.push(acc);
        acc += c;
    }
    Ok((
        PassOutput {
            partition_starts,
            hist,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashFn, PartitionFn};
    use rsv_simd::Portable;

    #[test]
    fn interleaved_offsets_layout() {
        let hists = vec![vec![2u32, 3], vec![1, 4]];
        let off = interleaved_offsets(&hists);
        // partition 0: t0 at 0..2, t1 at 2..3; partition 1: t0 at 3..6, t1 at 6..10
        assert_eq!(off[0], vec![0, 3]);
        assert_eq!(off[1], vec![2, 6]);
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
            for vectorized in [false, true] {
                let mut dk = vec![0u32; keys.len()];
                let mut dp = vec![0u32; keys.len()];
                let policy = ExecPolicy::new(threads);
                let (out, _) =
                    partition_pass(s, vectorized, f, &keys, &pays, &mut dk, &mut dp, &policy)
                        .unwrap();
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
            }
        }
    }

    /// The pass output must not depend on thread count or morsel size.
    #[test]
    fn pass_output_independent_of_schedule() {
        let s = Portable::<16>::new();
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
                let (_, stats) =
                    partition_pass(s, true, f, &keys, &pays, &mut dk, &mut dp, &policy).unwrap();
                assert!(stats.total_tuples() > 0);
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
