//! Graceful degradation for oversized partition fanouts: a two-pass
//! decomposition that stays byte-identical to the single-pass shuffle.
//!
//! The buffered single-pass shuffle allocates one staging line per
//! partition *per morsel*; past a few thousand partitions that working set
//! evicts the very cache lines buffering was meant to protect (the paper's
//! own argument for multi-pass partitioning, Section 7.4). Instead of
//! asserting on a large fanout, [`hash_partition_twopass`] splits a
//! fanout `F > max_direct` into
//!
//! * **pass 1**: a stable partition on the *coarse* key
//!   `p >> log2(max_direct)` (the high bits of the full partition index),
//!   producing `ceil(F / max_direct)` contiguous regions, and
//! * **pass 2**: an independent, stable, at-most-`max_direct`-way
//!   partition of each region on the *fine* key `p - region_base`, run as
//!   a task queue over regions.
//!
//! Since the full partition index decomposes as
//! `p = (p >> s) * max_direct + fine` with `fine < max_direct`, ordering
//! stably by the coarse key and then stably by the fine key within each
//! region orders stably by `p`: the output is **byte-identical** to a
//! direct `F`-way stable pass, which is what the equivalence tests assert.

use rsv_exec::{
    column_bytes, parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats,
    SharedBuffer,
};
use rsv_simd::{KernelKind, Simd};

use crate::histogram::prefix_sum;
use crate::parallel::{partition_pass, PassOutput};
use crate::shuffle::partition_buffered;
use crate::{HashFn, PartitionFn};

/// Largest fanout the engine partitions in one pass; beyond it the
/// per-morsel staging buffers outgrow L1/L2 and the two-pass decomposition
/// takes over.
pub const MAX_DIRECT_FANOUT: usize = 4096;

/// Pass 1's partition function: the high bits of the full partition index.
#[derive(Debug, Clone, Copy)]
struct CoarseFn {
    inner: HashFn,
    shift: u32,
    fanout: usize,
}

impl PartitionFn for CoarseFn {
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
/// region (`p - region_base`, always `< max_direct`).
#[derive(Debug, Clone, Copy)]
struct FineFn {
    inner: HashFn,
    base: u32,
    fanout: usize,
}

impl PartitionFn for FineFn {
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

/// Stable hash partition that transparently degrades to two passes when
/// `f.fanout() > max_direct` (`max_direct` must be a power of two). The
/// output — partitioned columns, histogram, partition starts — is
/// byte-identical to a direct single-pass run at any fanout; only the
/// route differs. Honours `policy.run` (cancellation at claim boundaries,
/// memory budget for the inter-pass scratch columns).
#[allow(clippy::too_many_arguments)]
pub fn hash_partition_twopass<S: Simd>(
    kind: KernelKind<S>,
    f: HashFn,
    src_k: &[u32],
    src_p: &[u32],
    dst_k: &mut Vec<u32>,
    dst_p: &mut Vec<u32>,
    policy: &ExecPolicy,
    max_direct: usize,
) -> Result<(PassOutput, SchedulerStats), EngineError> {
    assert!(
        max_direct.is_power_of_two(),
        "max_direct must be a power of two"
    );
    let fanout = f.fanout();
    if fanout <= max_direct {
        return partition_pass(kind, f, src_k, src_p, dst_k, dst_p, policy);
    }
    let n = src_k.len();
    let t = policy.threads;
    let shift = max_direct.trailing_zeros();
    let regions = fanout.div_ceil(max_direct);
    let coarse = CoarseFn {
        inner: f,
        shift,
        fanout: regions,
    };

    // Pass 1 into scratch columns (the only extra memory the degradation
    // costs — gated by the run's budget).
    let _scratch = policy.run.reserve(2 * column_bytes(n))?;
    let mut mid_k = vec![0u32; n];
    let mut mid_p = vec![0u32; n];
    let (coarse_out, mut stats) =
        partition_pass(kind, coarse, src_k, src_p, &mut mid_k, &mut mid_p, policy)?;

    // Pass 2: one task per coarse region; each task histograms its region
    // on the fine key and shuffles it — stably — into the region's slice
    // of the final output. Regions are disjoint in both columns, so tasks
    // never overlap.
    let q = MorselQueue::tasks(regions, policy);
    let out_k = SharedBuffer::from_vec(std::mem::take(dst_k));
    let out_p = SharedBuffer::from_vec(std::mem::take(dst_p));
    let global_hist = SharedBuffer::from_vec(vec![0u32; fanout]);
    let scope = parallel_scope_try(t, |ctx| {
        // SAFETY: task `r` touches only output tuples in coarse region
        // `r`'s range and histogram entries in `r`'s partition-index
        // range; both are disjoint across tasks, and every task id is
        // claimed exactly once. Reads happen after the scope joins.
        let (ok, op, gh) = unsafe { (out_k.view_mut(), out_p.view_mut(), global_hist.view_mut()) };
        for task in ctx.morsels(&q) {
            let _ = rsv_testkit::failpoint!("partition.twopass.region");
            ctx.phase("fine", || {
                let r = task.id;
                let start = coarse_out.partition_starts[r] as usize;
                let len = coarse_out.hist[r] as usize;
                let base = r * max_direct;
                let fan2 = max_direct.min(fanout - base);
                let fine = FineFn {
                    inner: f,
                    base: base as u32,
                    fanout: fan2,
                };
                let (_, h) = partition_buffered(
                    kind,
                    fine,
                    &mid_k[start..start + len],
                    &mid_p[start..start + len],
                    &mut ok[start..start + len],
                    &mut op[start..start + len],
                );
                gh[base..base + fan2].copy_from_slice(&h);
            });
        }
    });
    *dst_k = out_k.into_vec();
    *dst_p = out_p.into_vec();
    stats.merge(&scope?.1);
    policy.run.check_cancelled()?;

    let hist = global_hist.into_vec();
    let (partition_starts, _) = prefix_sum(&hist, 0);
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
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
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
        // fanout 53 > max_direct 16 forces two passes (and a ragged last
        // region: 53 = 3 * 16 + 5)
        let f = HashFn::new(53);
        for kind in [KernelKind::Scalar, KernelKind::Vector(s)] {
            let mut rk = vec![0u32; keys.len()];
            let mut rp = vec![0u32; keys.len()];
            let policy = ExecPolicy::new(1);
            let (reference, _) =
                partition_pass(kind, f, &keys, &pays, &mut rk, &mut rp, &policy).unwrap();
            for threads in [1usize, 2, 8] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(1024);
                let mut dk = vec![0u32; keys.len()];
                let mut dp = vec![0u32; keys.len()];
                let (out, stats) =
                    hash_partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy, 16)
                        .unwrap();
                assert_eq!(dk, rk, "keys differ (t={threads} {kind:?})");
                assert_eq!(dp, rp, "pays differ (t={threads} {kind:?})");
                assert_eq!(out.hist, reference.hist);
                assert_eq!(out.partition_starts, reference.partition_starts);
                assert!(stats.total_tuples() > 0);
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
        let (out, _) =
            hash_partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy, 16).unwrap();
        let total: u32 = out.hist.iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn budget_gates_scratch_columns() {
        use rsv_exec::RunContext;
        let kind = KernelKind::Vector(Portable::<16>::new());
        let keys: Vec<u32> = (0..10_000u32).collect();
        let pays = keys.clone();
        let f = HashFn::new(100);
        // two-pass needs 2 * 10_000 * 4 = 80_000 B of scratch; allow less
        let run = RunContext::new().with_memory_limit(10_000);
        let policy = ExecPolicy::new(2).with_run(run);
        let mut dk = vec![0u32; keys.len()];
        let mut dp = vec![0u32; keys.len()];
        let err = hash_partition_twopass(kind, f, &keys, &pays, &mut dk, &mut dp, &policy, 16)
            .expect_err("budget must deny the scratch columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        // nothing stays reserved after the failure
        assert_eq!(policy.run.budget.used(), 0);
    }
}
