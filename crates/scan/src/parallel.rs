//! Morsel-driven parallel selection scan.
//!
//! Each worker claims SIMD-aligned morsels from a work-stealing queue
//! ([`rsv_exec::MorselQueue`]) and scans its morsel into the output
//! buffer region starting at the morsel's own input offset — disjoint
//! across morsels because a morsel never produces more qualifiers than it
//! has tuples. After the scan, the per-morsel result runs are compacted
//! front-to-back *in morsel order*, so the qualifier list is exactly the
//! sequential scan's output for every thread count and morsel size.

use rsv_exec::{
    parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats, SharedBuffer,
};
use rsv_simd::Backend;

use crate::{scan, ScanPredicate, ScanVariant};

/// Parallel selection scan with morsel-driven scheduling.
///
/// `out_keys` / `out_pays` must have the input length; qualifiers end up
/// at their front (input order preserved) and the qualifier count is
/// returned alongside per-worker scheduler stats. Honours `policy.run`'s
/// cancel token (checked at every morsel claim) and surfaces worker
/// panics as [`EngineError::WorkerPanicked`]. On error the output vectors
/// keep their length but hold unspecified contents.
#[allow(clippy::too_many_arguments)]
pub fn scan_parallel(
    backend: Backend,
    variant: ScanVariant,
    keys: &[u32],
    pays: &[u32],
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

    let q = MorselQueue::new(n, policy, 16);
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
            let _ = rsv_testkit::failpoint!("scan.morsel");
            ctx.phase("scan", || {
                let r = mo.range.clone();
                let c = scan(
                    backend,
                    variant,
                    &keys[r.clone()],
                    &pays[r.clone()],
                    pred,
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

#[cfg(test)]
mod tests {
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
                let mut gk = vec![0u32; n];
                let mut gp = vec![0u32; n];
                let (got_n, stats) = scan_parallel(
                    backend, variant, &keys, &pays, pred, &mut gk, &mut gp, &policy,
                )
                .unwrap();
                assert_eq!(got_n, expect_n, "t={threads} morsel={morsel}");
                assert_eq!(&gk[..got_n], &ek[..expect_n]);
                assert_eq!(&gp[..got_n], &ep[..expect_n]);
                assert_eq!(stats.total_tuples(), n as u64);
            }
        }
    }

    #[test]
    fn parallel_scan_empty_input() {
        let policy = ExecPolicy::new(4);
        let mut ok = vec![];
        let mut op = vec![];
        let (n, _) = scan_parallel(
            Backend::best(),
            ScanVariant::ScalarBranchless,
            &[],
            &[],
            ScanPredicate { lower: 0, upper: 1 },
            &mut ok,
            &mut op,
            &policy,
        )
        .unwrap();
        assert_eq!(n, 0);
    }
}
