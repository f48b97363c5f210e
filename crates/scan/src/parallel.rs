//! Morsel-driven parallel selection scan.
//!
//! One call of the order-preserving filter driver
//! ([`rsv_exec::filter_parallel`]) with 16-tuple-aligned morsels: each
//! morsel is scanned into its own output region, and the per-morsel
//! qualifier runs are compacted in morsel order, so the qualifier list is
//! exactly the sequential scan's output for every thread count and morsel
//! size.

use rsv_exec::{filter_parallel, EngineError, ExecPolicy, SchedulerStats};
use rsv_simd::Backend;

use crate::{scan, ScanPredicate, ScanVariant};

/// Parallel selection scan with morsel-driven scheduling.
///
/// Returns the qualifying keys and payloads in input order, plus
/// per-worker scheduler stats. The two output columns are reserved on
/// `policy.run`'s budget; the run's cancel token is checked at every
/// morsel claim, and worker panics surface as
/// [`EngineError::WorkerPanicked`].
pub fn scan_parallel(
    backend: Backend,
    variant: ScanVariant,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    policy: &ExecPolicy,
) -> Result<(Vec<u32>, Vec<u32>, SchedulerStats), EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    filter_parallel(keys.len(), 16, "scan", policy, |r, ok, op| {
        scan(backend, variant, &keys[r.clone()], &pays[r], pred, ok, op)
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

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
        let backend = Backend::best();
        let variant = ScanVariant::VectorSelStoreIndirect;
        let mut ek = vec![0u32; n];
        let mut ep = vec![0u32; n];
        let expect_n = scan(backend, variant, &keys, &pays, pred, &mut ek, &mut ep);
        for threads in [1usize, 2, 3, 8] {
            for morsel in [1_000usize, 16 * 1024, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let (gk, gp, stats) =
                    scan_parallel(backend, variant, &keys, &pays, pred, &policy).unwrap();
                assert_eq!(gk, &ek[..expect_n], "t={threads} morsel={morsel}");
                assert_eq!(gp, &ep[..expect_n]);
                assert_eq!(stats.total_tuples(), n as u64);
            }
        }
    }

    #[test]
    fn parallel_scan_empty_input() {
        let policy = ExecPolicy::new(4);
        let (ok, op, _) = scan_parallel(
            Backend::best(),
            ScanVariant::ScalarBranchless,
            &[],
            &[],
            ScanPredicate { lower: 0, upper: 1 },
            &policy,
        )
        .unwrap();
        assert!(ok.is_empty() && op.is_empty());
    }
}
