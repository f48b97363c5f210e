//! Morsel-driven parallel fused kernels.
//!
//! Both entry points snap interior morsel boundaries to [`BLOCK_LEN`], so
//! every morsel starts on a block boundary and no block is split across
//! workers — each morsel decodes its blocks independently. Results are
//! schedule-independent: the fused scan compacts per-morsel qualifier
//! runs in morsel order (identical to the sequential scan's output), and
//! the histogram merges per-worker counts by commutative addition.

use rsv_exec::{
    parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats, SharedBuffer,
};
use rsv_partition::PartitionFn;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::{Backend, Simd};

use crate::{
    histogram_fused_range_into, reduce_partial, select_fused_range, CompressedColumn, BLOCK_LEN,
};

/// Parallel fused compressed selection scan.
///
/// `out_keys` / `out_pays` must have the column length; qualifiers end up
/// at their front (input order preserved) and the qualifier count is
/// returned alongside per-worker scheduler stats. Output matches the
/// sequential [`select_fused`](crate::select_fused) byte for byte at any
/// thread count. Honours `policy.run`'s cancel token (checked at every
/// morsel claim) and surfaces worker panics as
/// [`EngineError::WorkerPanicked`]; on error the output vectors keep their
/// length but hold unspecified contents.
#[allow(clippy::too_many_arguments)]
pub fn select_fused_parallel(
    backend: Backend,
    variant: ScanVariant,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    out_keys: &mut Vec<u32>,
    out_pays: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<(usize, SchedulerStats), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert_eq!(out_keys.len(), keys.len(), "output length mismatch");
    assert_eq!(out_pays.len(), pays.len(), "output length mismatch");
    let n = keys.len();
    let t = policy.threads;

    // Block-aligned morsels: every morsel starts at a multiple of
    // BLOCK_LEN, which select_fused_range requires.
    let q = MorselQueue::new(n, policy, BLOCK_LEN);
    let m = q.morsel_count();
    let counts = SharedBuffer::from_vec(vec![0usize; m]);
    let ok_buf = SharedBuffer::from_vec(std::mem::take(out_keys));
    let op_buf = SharedBuffer::from_vec(std::mem::take(out_pays));
    let scope = parallel_scope_try(t, |ctx| {
        // SAFETY: each morsel writes only the output region at its own
        // input offsets plus its own count slot, and every morsel id is
        // claimed exactly once; reads happen after the scope joins.
        let (ok, op, cs) = unsafe { (ok_buf.view_mut(), op_buf.view_mut(), counts.view_mut()) };
        for mo in ctx.morsels(&q) {
            ctx.phase("fused-scan", || {
                let r = mo.range.clone();
                let c = select_fused_range(
                    backend,
                    variant,
                    keys,
                    pays,
                    pred,
                    r.clone(),
                    &mut ok[r.clone()],
                    &mut op[r],
                );
                cs[mo.id] = c;
            });
        }
    });

    // Hand the (possibly partial) buffers back before any early return so
    // the caller's vectors keep their length.
    *out_keys = ok_buf.into_vec();
    *out_pays = op_buf.into_vec();
    let (_, stats) = scope?;
    policy.run.check_cancelled()?;

    // Compact the per-morsel runs front-to-back. Runs only move left
    // (dest ≤ src), so processing in morsel order never clobbers a run
    // that has not been moved yet.
    let mut dest = 0usize;
    for (id, &c) in counts.into_vec().iter().enumerate() {
        let src = q.range_of(id).start;
        if src != dest {
            out_keys.copy_within(src..src + c, dest);
            out_pays.copy_within(src..src + c, dest);
        }
        dest += c;
    }
    Ok((dest, stats))
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
                let mut gk = vec![0u32; n];
                let mut gp = vec![0u32; n];
                let (gn, stats) = select_fused_parallel(
                    backend, variant, &ck, &cp, pred, &mut gk, &mut gp, &policy,
                )
                .unwrap();
                assert_eq!(gn, en, "t={threads} morsel={morsel}");
                assert_eq!(&gk[..gn], &ek[..en]);
                assert_eq!(&gp[..gn], &ep[..en]);
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
