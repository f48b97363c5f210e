//! Morsel-driven parallel fused kernels.
//!
//! Both entry points snap interior morsel boundaries to [`BLOCK_LEN`], so
//! every morsel starts on a block boundary and no block is split across
//! workers — each morsel decodes its blocks independently. Results are
//! schedule-independent: the fused scan is one call of the
//! order-preserving filter driver ([`rsv_exec::filter_parallel`]), which
//! compacts per-morsel qualifier runs in morsel order (identical to the
//! sequential scan's output), and the histogram merges per-worker counts
//! by commutative addition.

use rsv_exec::{
    filter_parallel, parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats,
};
use rsv_partition::PartitionFn;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::{Backend, Simd};

use crate::{
    histogram_fused_range_into, reduce_partial, select_fused_range, CompressedColumn, BLOCK_LEN,
};

/// Parallel fused compressed selection scan.
///
/// Returns the qualifying keys and payloads in input order, plus
/// per-worker scheduler stats. Output matches the sequential
/// [`select_fused`](crate::select_fused) byte for byte at any thread
/// count. The two output columns are reserved on `policy.run`'s budget;
/// the run's cancel token is checked at every morsel claim, and worker
/// panics surface as [`EngineError::WorkerPanicked`].
pub fn select_fused_parallel(
    backend: Backend,
    variant: ScanVariant,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, Vec<u32>, SchedulerStats), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    // Block-aligned morsels: every morsel starts at a multiple of
    // BLOCK_LEN, which select_fused_range requires.
    filter_parallel(keys.len(), BLOCK_LEN, "fused-scan", policy, |r, ok, op| {
        select_fused_range(backend, variant, keys, pays, pred, r, ok, op)
    })
}

/// Parallel fused compressed histogram: per-worker replicated partial
/// counts over block-aligned morsels, merged by addition (commutative, so
/// the result is independent of the steal schedule). Fails like
/// [`select_fused_parallel`].
pub fn histogram_fused_parallel<F: PartitionFn + Send + Sync>(
    backend: Backend,
    col: &CompressedColumn,
    f: F,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, SchedulerStats), EngineError> {
    let q = MorselQueue::new(col.len(), policy, BLOCK_LEN);
    let (hists, stats) = parallel_scope_try(policy.threads, |ctx| {
        rsv_simd::dispatch!(backend, s => {
            let mut partial = vec![0u32; f.fanout() * S::LANES];
            for mo in ctx.morsels(&q) {
                ctx.phase("fused-histogram", || {
                    histogram_fused_range_into(s, col, f, mo.range.clone(), &mut partial);
                });
            }
            reduce_partial(s, &partial, f.fanout())
        })
    })?;
    policy.run.check_cancelled()?;
    let mut hist = vec![0u32; f.fanout()];
    for h in hists {
        for (a, b) in hist.iter_mut().zip(h) {
            *a += b;
        }
    }
    Ok((hist, stats))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::select_fused;
    use rsv_partition::{histogram::histogram_scalar, RadixFn};

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn parallel_fused_scan_matches_sequential() {
        let mut rng = rsv_data::rng(0x5EED);
        let n = 37 * BLOCK_LEN + 451;
        let keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
            .iter()
            .map(|k| k % 10_000)
            .collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        let pred = ScanPredicate {
            lower: 1_000,
            upper: 4_000,
        };
        let backend = Backend::best();
        let ck = CompressedColumn::pack(backend, &keys);
        let cp = CompressedColumn::pack(backend, &pays);
        let variant = ScanVariant::VectorSelStoreIndirect;
        let mut ek = vec![0u32; n];
        let mut ep = vec![0u32; n];
        let en = select_fused(backend, variant, &ck, &cp, pred, &mut ek, &mut ep);
        for threads in [1usize, 2, 3, 8] {
            for morsel in [700usize, 4 * BLOCK_LEN, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let (gk, gp, stats) =
                    select_fused_parallel(backend, variant, &ck, &cp, pred, &policy).unwrap();
                assert_eq!(gk, &ek[..en], "t={threads} morsel={morsel}");
                assert_eq!(gp, &ep[..en]);
                assert_eq!(stats.total_tuples(), n as u64);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn parallel_fused_histogram_matches_scalar() {
        let mut rng = rsv_data::rng(0x4157);
        let n = 23 * BLOCK_LEN + 77;
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let f = RadixFn::new(20, 9);
        let expected = histogram_scalar(f, &keys);
        let backend = Backend::best();
        let col = CompressedColumn::pack(backend, &keys);
        for threads in [1usize, 2, 8] {
            let policy = ExecPolicy::new(threads).with_morsel_tuples(3 * BLOCK_LEN);
            let (got, _) = histogram_fused_parallel(backend, &col, f, &policy).unwrap();
            assert_eq!(got, expected, "t={threads}");
        }
    }
}
