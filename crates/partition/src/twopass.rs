//! The engine's one partitioner: a wide first pass, then an in-cache
//! split of each region, byte-identical to a single-pass shuffle.
//!
//! The buffered single-pass shuffle allocates one staging line per
//! partition *per morsel*; past a few hundred partitions that working set
//! evicts the very cache lines buffering was meant to protect (the paper's
//! own argument for multi-pass partitioning, Section 7.4). So
//! [`partition_twopass`] runs a fanout `F <= MAX_DIRECT_FANOUT` as
//! one pass and splits a larger one into
//!
//! * **pass 1**: a stable, parallel partition straight into the output on
//!   the *coarse* key `p >> log2(width)` (the high bits of the full
//!   partition index), with `width = next_pow2(ceil(F / MAX_DIRECT_FANOUT))`,
//!   producing at most `MAX_DIRECT_FANOUT` contiguous regions, and
//! * **pass 2**: one task per region, which splits the region in place on
//!   the *fine* key `p - region_base` (at most `width` ways) through a
//!   worker-local scratch and copies it back. A region holds about
//!   `n / MAX_DIRECT_FANOUT` tuples, so this pass runs in cache.
//!
//! Since the full partition index decomposes as
//! `p = (p >> s) * width + fine` with `fine < width`, ordering stably by
//! the coarse key and then stably by the fine key within each region
//! orders stably by `p`: the output is **byte-identical** to a direct
//! `F`-way stable pass, which is what the equivalence tests assert.

use std::sync::{Mutex, PoisonError};

use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SharedBuffer};
use rsv_simd::{KernelKind, Simd};

use crate::histogram::prefix_sum;
use crate::parallel::{partition_pass, PassOutput};
use crate::shuffle::partition_buffered;
use crate::PartitionFn;

/// Largest fanout the engine partitions in one pass, and the most regions
/// the first of two passes makes. On a 2-vCPU AVX-512 host a single pass
/// lost to two from fanout 1024–2048 up (2–3× slower at 4096), and at the
/// max-partition join's sizes only a first pass of at most 256 ways,
/// followed by the in-cache split, kept pace with a dedicated second level.
pub const MAX_DIRECT_FANOUT: usize = 256;

/// Pass 1's partition function: the high bits of the full partition index.
#[derive(Debug, Clone, Copy)]
struct CoarseFn<F> {
    inner: F,
    shift: u32,
    fanout: usize,
}

impl<F: PartitionFn> PartitionFn for CoarseFn<F> {
    #[inline(always)]
    fn fanout(&self) -> usize {
        self.fanout
    }

    #[inline(always)]
    fn partition(&self, key: u32) -> usize {
        self.inner.partition(key) >> self.shift
    }

    #[inline(always)]
    fn partition_vector<S: Simd>(&self, s: S, keys: S::V) -> S::V {
        s.shr(self.inner.partition_vector(s, keys), self.shift)
    }
}

/// Pass 2's partition function: the full index rebased to one coarse
/// region (`p - region_base`, always `< width`).
#[derive(Debug, Clone, Copy)]
struct FineFn<F> {
    inner: F,
    base: u32,
    fanout: usize,
}

impl<F: PartitionFn> PartitionFn for FineFn<F> {
    #[inline(always)]
    fn fanout(&self) -> usize {
        self.fanout
    }

    #[inline(always)]
    fn partition(&self, key: u32) -> usize {
        self.inner.partition(key) - self.base as usize
    }

    #[inline(always)]
    fn partition_vector<S: Simd>(&self, s: S, keys: S::V) -> S::V {
        s.sub(self.inner.partition_vector(s, keys), s.splat(self.base))
    }
}

/// Stable partition of `src` into `dst` (both of the input length) with
/// `f`: one pass up to [`MAX_DIRECT_FANOUT`] partitions, a wide pass and
/// an in-cache split of each region above it. The output — partitioned
/// columns, histogram, partition starts — is byte-identical to a direct
/// single-pass run at any fanout; only the route differs. Honours
/// `policy.run`: cancellation at claim boundaries, and the memory budget
/// for the first pass's staging buffers (see [`partition_pass`]) and the
/// split's worker scratch, 8 bytes per tuple of the `threads` largest
/// regions.
pub fn partition_twopass<S: Simd, F: PartitionFn + Sync>(
    kind: KernelKind<S>,
    f: F,
    src_k: &[u32],
    src_p: &[u32],
    dst_k: &mut Vec<u32>,
    dst_p: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<PassOutput, EngineError> {
    let fanout = f.fanout();
    if fanout <= MAX_DIRECT_FANOUT {
        return partition_pass(kind, f, src_k, src_p, dst_k, dst_p, policy);
    }
    let t = policy.threads;
    let width = fanout.div_ceil(MAX_DIRECT_FANOUT).next_power_of_two();
    let regions = fanout.div_ceil(width);
    let coarse = CoarseFn {
        inner: f,
        shift: width.trailing_zeros(),
        fanout: regions,
    };

    // Pass 1 straight into the output columns.
    let coarse_out = partition_pass(kind, coarse, src_k, src_p, dst_k, dst_p, policy)?;

    // Each worker's scratch grows to exactly the largest region it splits,
    // so the workers together hold at most the `t` largest regions.
    let mut sizes = coarse_out.hist.clone();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let largest: usize = sizes.iter().take(t).map(|&c| c as usize).sum();
    let scratch = policy.run.hold(8 * largest as u64, || {
        (0..t)
            .map(|_| Mutex::new((vec![], vec![])))
            .collect::<Vec<_>>()
    })?;

    // Pass 2: one task per region; each task histograms its region on the
    // fine key, shuffles it — stably — into its scratch and copies it
    // back. Regions are disjoint in both columns, so tasks never overlap.
    let q = MorselQueue::tasks(regions, policy);
    let out_k = SharedBuffer::from_vec(std::mem::take(dst_k));
    let out_p = SharedBuffer::from_vec(std::mem::take(dst_p));
    let global_hist = SharedBuffer::from_vec(vec![0u32; fanout]);
    let scope = parallel_scope_try(t, |ctx| {
        // SAFETY: task `r` touches only output tuples in region `r`'s
        // range and histogram entries in `r`'s partition-index range; both
        // are disjoint across tasks, and every task id is claimed exactly
        // once. Reads happen after the scope joins.
        let (ok, op, gh) = unsafe { (out_k.view_mut(), out_p.view_mut(), global_hist.view_mut()) };
        let mut mine = scratch[ctx.thread_id]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (sk, sp) = &mut *mine;
        for task in ctx.morsels(&q) {
            let _ = rsv_testkit::failpoint!("partition.twopass.region");
            ctx.phase("fine", || {
                let r = task.id;
                let start = coarse_out.partition_starts[r] as usize;
                let range = start..start + coarse_out.hist[r] as usize;
                let len = range.len();
                if sk.len() < len {
                    // free, then allocate exactly (`resize` may double)
                    drop((std::mem::take(sk), std::mem::take(sp)));
                    (*sk, *sp) = (vec![0; len], vec![0; len]);
                }
                let base = r * width;
                let fine = FineFn {
                    inner: f,
                    base: base as u32,
                    fanout: width.min(fanout - base),
                };
                let (_, h) = partition_buffered(
                    kind,
                    fine,
                    &ok[range.clone()],
                    &op[range.clone()],
                    &mut sk[..len],
                    &mut sp[..len],
                );
                ok[range.clone()].copy_from_slice(&sk[..len]);
                op[range].copy_from_slice(&sp[..len]);
                gh[base..base + h.len()].copy_from_slice(&h);
            });
        }
    });
    *dst_k = out_k.into_vec();
    *dst_p = out_p.into_vec();
    scope?;
    policy.run.check_cancelled()?;

    let hist = global_hist.into_vec();
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
    use crate::HashFn;
    use rsv_metrics::Metric;
    use rsv_simd::Portable;

    /// The two-pass route must be byte-identical to the direct single-pass
    /// shuffle — same columns, same histogram, same starts — across thread
    /// counts and both kernel kinds.
    #[test]
    fn twopass_is_byte_identical_to_direct() {
        let s = Portable::<16>::new();
        let mut rng = rsv_data::rng(977);
        let keys = rsv_data::uniform_u32(30_000, &mut rng);
        let pays: Vec<u32> = (0..30_000).collect();
        // 517 partitions take two passes, 4 per region, and a ragged last
        // region: 517 = 129 * 4 + 1
        let f = HashFn::new(2 * MAX_DIRECT_FANOUT + 5);
        for kind in [KernelKind::Scalar, KernelKind::Vector(s)] {
            let mut rk = vec![0u32; keys.len()];
            let mut rp = vec![0u32; keys.len()];
            let policy = ExecPolicy::new(1);
            let reference =
                partition_pass(kind, f, &keys, &pays, &mut rk, &mut rp, &policy).unwrap();
            for threads in [1usize, 2, 8] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(1024);
                let mut dk = vec![0u32; keys.len()];
                let mut dp = vec![0u32; keys.len()];
                let ((out, on), sink) = rsv_metrics::collect(|| {
                    let out = partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy);
                    (out.unwrap(), rsv_metrics::enabled())
                });
                assert_eq!(dk, rk, "keys differ (t={threads} {kind:?})");
                assert_eq!(dp, rp, "pays differ (t={threads} {kind:?})");
                assert_eq!(out.hist, reference.hist);
                assert_eq!(out.partition_starts, reference.partition_starts);
                if on {
                    // Pass 1's three phases claim every morsel once each,
                    // pass 2 claims one task per region; both passes
                    // shuffle every tuple.
                    let c = sink.total();
                    let m = MorselQueue::new(keys.len(), &policy, 16).morsel_count() as u64;
                    let regions = (2 * MAX_DIRECT_FANOUT + 5).div_ceil(4) as u64;
                    assert_eq!(c.get(Metric::MorselsClaimed), 3 * m + regions);
                    assert_eq!(c.get(Metric::PartShuffleTuples), 2 * keys.len() as u64);
                }
            }
        }
    }

    #[test]
    fn small_fanout_stays_single_pass() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let keys: Vec<u32> = (0..1000)
            .map(|i: u32| 2654435761u32.wrapping_mul(i))
            .collect();
        let pays: Vec<u32> = (0..1000).collect();
        let f = HashFn::new(8);
        let policy = ExecPolicy::new(2);
        let mut dk = vec![0u32; 1000];
        let mut dp = vec![0u32; 1000];
        let out = partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy).unwrap();
        let total: u32 = out.hist.iter().sum();
        assert_eq!(total, 1000);
    }

    /// Pass 1's staging buffers are released before the split, whose
    /// scratch (8 B per tuple of the two largest regions) is the larger
    /// reservation here: exactly that much budget suffices, one byte less
    /// fails after pass 1 ran, and nothing stays reserved either way.
    #[test]
    fn budget_gates_scratch_columns() {
        use rsv_exec::RunContext;
        let kind = KernelKind::Vector(Portable::<16>::new());
        let keys: Vec<u32> = (0..1u32 << 19).collect();
        let pays = keys.clone();
        let f = HashFn::new(2 * MAX_DIRECT_FANOUT + 5);
        let policy = |limit| {
            let run = RunContext::new().with_memory_limit(limit);
            ExecPolicy::new(2).with_morsel_tuples(1 << 20).with_run(run)
        };
        let mut dk = vec![0u32; keys.len()];
        let mut dp = vec![0u32; keys.len()];
        let out = partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy(u64::MAX));
        // 130 coarse regions of 4 partitions each
        let hist = out.unwrap().hist;
        let mut regions: Vec<u64> = hist
            .chunks(4)
            .map(|c| c.iter().map(|&n| u64::from(n)).sum())
            .collect();
        assert_eq!(regions.len(), 130);
        regions.sort_unstable_by(|a, b| b.cmp(a));
        let scratch = 8 * (regions[0] + regions[1]);
        // 2 morsels × 130 regions × 16 slots × 8 B
        let staging = 2 * 130 * 16 * 8;
        assert_eq!(
            MorselQueue::new(keys.len(), &policy(0), 16).morsel_count(),
            2
        );
        assert!(
            staging < scratch,
            "staging {staging} B, scratch {scratch} B"
        );
        let exact = policy(scratch);
        partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &exact).unwrap();
        assert_eq!(exact.run.budget.used(), 0);
        let short = policy(scratch - 1);
        let err = partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &short)
            .expect_err("budget must deny the region scratch");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(short.run.budget.used(), 0);
    }
}
