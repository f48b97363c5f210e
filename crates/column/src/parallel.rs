//! Morsel-driven parallel fused kernels.
//!
//! The fused scan snaps interior morsel boundaries to [`BLOCK_LEN`], so
//! every morsel starts on a block boundary and no block is split across
//! workers — each morsel decodes its blocks independently. Results are
//! schedule-independent: the fused scan is one call of the
//! order-preserving filter driver ([`rsv_exec::filter_parallel`]). Its
//! mark pass decodes each morsel's key blocks only and sets one bit per
//! qualifier in a bitmap; its take pass decodes the keys and payloads of
//! the blocks holding a mark, skips the others, and writes the marked
//! tuples to the offsets the counts' prefix sum gives the morsel
//! (identical to the sequential scan's output).

use rsv_exec::{filter_parallel, EngineError, ExecPolicy};
use rsv_scan::ScanPredicate;
use rsv_simd::Backend;

use crate::fused::{mark_fused_range, take_fused_range};
use crate::{CompressedColumn, BLOCK_LEN};

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

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::select_fused;
    use rsv_exec::MorselQueue;
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
}
