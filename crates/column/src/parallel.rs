//! Morsel-driven parallel fused kernels.
//!
//! Both entry points snap interior morsel boundaries to [`BLOCK_LEN`], so
//! every morsel starts on a block boundary and no block is split across
//! workers — each morsel decodes its blocks independently. Results are
//! schedule-independent: the fused scan is one call of the
//! order-preserving filter driver ([`rsv_exec::filter_parallel`]). Its
//! mark pass decodes each morsel's key blocks only and sets one bit per
//! qualifier in a bitmap; its take pass decodes the keys and payloads of
//! the blocks holding a mark, skips the others, and writes the marked
//! tuples to the offsets the counts' prefix sum gives the morsel
//! (identical to the sequential scan's output). The histogram merges
//! per-worker counts by commutative addition.

use rsv_exec::{filter_parallel, parallel_scope_try, EngineError, ExecPolicy, MorselQueue};
use rsv_partition::PartitionFn;
use rsv_scan::ScanPredicate;
use rsv_simd::{Backend, Simd};

use crate::fused::{mark_fused_range, take_fused_range};
use crate::{histogram_fused_range_into, reduce_partial, CompressedColumn, BLOCK_LEN};

/// Parallel fused compressed selection scan.
///
/// Returns the qualifying keys and payloads in input order; under a
/// metering session the pass times go to the `"fused-scan"` phase.
/// Output matches the sequential
/// [`select_fused`](crate::select_fused) byte for byte at any thread
/// count, and so do the decoded-block counters of its direct variants.
/// The selection bitmap (2 bytes per 16 tuples) and the two output
/// columns (8 bytes per qualifier) are reserved on `policy.run`'s
/// budget; the run's cancel token is checked at every morsel claim, and
/// worker panics surface as [`EngineError::WorkerPanicked`].
pub fn select_fused_parallel(
    backend: Backend,
    keys: &CompressedColumn,
    pays: &CompressedColumn,
    pred: ScanPredicate,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    // Block-aligned morsels and chunks: both kernels need ranges that
    // start on a block.
    rsv_simd::dispatch!(backend, s => {
        filter_parallel(
            keys.len(),
            BLOCK_LEN,
            "fused-scan",
            policy,
            |r, bits| mark_fused_range(s, keys, pays, pred, r, bits),
            |r, bits, ok, op| take_fused_range(s, keys, pays, r, bits, ok, op),
        )
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
) -> Result<Vec<u32>, EngineError> {
    let q = MorselQueue::new(col.len(), policy, BLOCK_LEN);
    let hists = parallel_scope_try(policy.threads, |ctx| {
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
    Ok(hist)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::select_fused;
    use rsv_partition::{histogram::histogram_scalar, RadixFn};
    use rsv_scan::ScanVariant;

    /// Every schedule keeps the sequential direct scan's qualifiers and
    /// decodes, and counts, the same blocks.
    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn parallel_fused_scan_matches_sequential() {
        let mut rng = rsv_data::rng(0x5EED);
        let n = 37 * BLOCK_LEN + 451;
        // one block in three holds no qualifier
        let keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if i / BLOCK_LEN % 3 == 1 {
                    9_999
                } else {
                    k % 10_000
                }
            })
            .collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        let pred = ScanPredicate {
            lower: 1_000,
            upper: 4_000,
        };
        for backend in Backend::all_available() {
            let ck = CompressedColumn::pack(backend, &keys);
            let cp = CompressedColumn::pack(backend, &pays);
            let variant = ScanVariant::VectorSelStoreDirect;
            let mut ek = vec![0u32; n];
            let mut ep = vec![0u32; n];
            let ((en, on), want) = rsv_metrics::collect(|| {
                let en = select_fused(backend, variant, &ck, &cp, pred, &mut ek, &mut ep);
                (en, rsv_metrics::enabled())
            });
            for threads in [1usize, 2, 3, 8] {
                for morsel in [700usize, 4 * BLOCK_LEN, usize::MAX] {
                    let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                    let ((gk, gp), got) = rsv_metrics::collect(|| {
                        select_fused_parallel(backend, &ck, &cp, pred, &policy).unwrap()
                    });
                    let at = format!("{} t={threads} morsel={morsel}", backend.name());
                    assert_eq!(gk, &ek[..en], "{at}");
                    assert_eq!(gp, &ep[..en], "{at}");
                    if on {
                        let m = MorselQueue::new(n, &policy, BLOCK_LEN).morsel_count() as u64;
                        let claimed = got.total().get(rsv_metrics::Metric::MorselsClaimed);
                        assert_eq!(claimed, m, "{at}");
                    }
                    assert_eq!(
                        got.total().col_width_blocks,
                        want.total().col_width_blocks,
                        "{at}"
                    );
                }
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
            let got = histogram_fused_parallel(backend, &col, f, &policy).unwrap();
            assert_eq!(got, expected, "t={threads}");
        }
    }
}
