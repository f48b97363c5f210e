//! Morsel-driven parallel selection scan.
//!
//! One call of the order-preserving filter driver
//! ([`rsv_exec::filter_parallel`]) with 16-tuple-aligned morsels, split
//! as in the paper's §4: a mark pass compares each morsel's keys and sets
//! one bit per qualifier in a bitmap (`mark_selection`), and a take
//! pass compacts the marked keys and payloads with one selective store
//! per vector ([`rsv_simd::bitmap::take`]) into the offsets the counts'
//! prefix sum gives the morsel. The predicate is evaluated once per
//! tuple, and payloads are read only by the take. The qualifier list is
//! exactly the sequential scan's output for every thread count and
//! morsel size, in columns of exactly that length.

use rsv_exec::{filter_parallel, EngineError, ExecPolicy};
use rsv_simd::{bitmap, dispatch, Backend};

use crate::vector::mark_selection;
use crate::ScanPredicate;

/// Parallel selection scan with morsel-driven scheduling.
///
/// Returns the qualifying keys and payloads in input order; under a
/// metering session the pass times go to the `"scan"` phase. The selection bitmap (2 bytes per 16
/// input tuples) and the two output columns (8 bytes per qualifier) are
/// reserved on `policy.run`'s budget; the run's cancel token is checked
/// at every morsel claim, and worker panics surface as
/// [`EngineError::WorkerPanicked`].
pub fn scan_parallel(
    backend: Backend,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, Vec<u32>), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    dispatch!(backend, s => {
        filter_parallel(
            keys.len(),
            bitmap::WORD_TUPLES,
            "scan",
            policy,
            |r, bits| mark_selection(s, &keys[r], pred, bits),
            |r, bits, ok, op| bitmap::take(s, &keys[r.clone()], &pays[r], bits, ok, op),
        )
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::{scan, ScanVariant};
    use rsv_exec::MorselQueue;
    use rsv_metrics::Metric;

    #[test]
    fn parallel_scan_matches_sequential() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32
        };
        let n = 40_000;
        let keys: Vec<u32> = (0..n).map(|_| next() % 10_000).collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        let pred = ScanPredicate {
            lower: 1_000,
            upper: 4_000,
        };
        let mut ek = vec![0u32; n];
        let mut ep = vec![0u32; n];
        for backend in Backend::all_available() {
            let variant = ScanVariant::VectorSelStoreIndirect;
            let expect_n = scan(backend, variant, &keys, &pays, pred, &mut ek, &mut ep);
            for threads in [1usize, 2, 3, 8] {
                for morsel in [1_000usize, 16 * 1024, usize::MAX] {
                    let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                    let ((gk, gp, on), sink) = rsv_metrics::collect(|| {
                        let (gk, gp) = scan_parallel(backend, &keys, &pays, pred, &policy).unwrap();
                        (gk, gp, rsv_metrics::enabled())
                    });
                    let at = format!("{} t={threads} morsel={morsel}", backend.name());
                    assert_eq!(gk, &ek[..expect_n], "{at}");
                    assert_eq!(gp, &ep[..expect_n], "{at}");
                    if on {
                        let c = sink.total();
                        let m = MorselQueue::new(n, &policy, 16).morsel_count() as u64;
                        assert_eq!(c.get(Metric::MorselsClaimed), m, "{at}");
                        assert_eq!(c.get(Metric::ScanTuplesIn), n as u64, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_scan_empty_input() {
        let policy = ExecPolicy::new(4);
        let (ok, op) = scan_parallel(
            Backend::best(),
            &[],
            &[],
            ScanPredicate { lower: 0, upper: 1 },
            &policy,
        )
        .unwrap();
        assert!(ok.is_empty() && op.is_empty());
    }
}
