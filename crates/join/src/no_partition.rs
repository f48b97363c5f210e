//! The *no-partition* hash join (paper §9): one shared linear-probing
//! table built concurrently with atomic compare-and-swap inserts, then
//! probed read-only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats};
use rsv_hashtab::{
    lp_probe_scalar_raw, lp_probe_vertical_raw, JoinSink, MulHash, EMPTY_KEY, EMPTY_PAIR,
};
use rsv_simd::Simd;

use crate::{JoinResult, JoinTimings};

/// Insert one tuple into the shared table with a CAS loop over the linear
/// probe chain.
#[inline]
fn atomic_insert(table: &[AtomicU64], hash: MulHash, key: u32, pay: u32) {
    assert_ne!(
        key, EMPTY_KEY,
        "key {key:#x} is the reserved empty sentinel"
    );
    let t = table.len();
    let pair = u64::from(key) | (u64::from(pay) << 32);
    let mut h = hash.bucket(key, t);
    loop {
        let cur = table[h].load(Ordering::Relaxed);
        if cur as u32 == EMPTY_KEY
            && table[h]
                .compare_exchange(cur, pair, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        h += 1;
        if h == t {
            h = 0;
        }
    }
}

/// Execute the no-partition join with morsel scheduling, returning
/// per-worker scheduler stats. `vectorized` selects the probe kernel; the
/// build is scalar either way (paper: "building the hash table cannot be
/// fully vectorized because atomic operations are not supported in
/// SIMD").
///
/// Honours `policy.run`: the shared hash table is gated by the memory
/// budget, cancellation is observed at every morsel-claim boundary (build
/// and probe), and a worker panic surfaces as
/// [`EngineError::WorkerPanicked`] after the sibling workers drain.
pub fn join_no_partition<S: Simd>(
    s: S,
    vectorized: bool,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
) -> Result<(JoinResult, SchedulerStats), EngineError> {
    let t = policy.threads;
    rsv_metrics::count(rsv_metrics::Metric::JoinBuildTuples, inner.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinProbeTuples, outer.len() as u64);
    let hash = MulHash::nth(0);
    let buckets = (inner.len() * 2).max(inner.len() + 1).max(2);
    let table_bytes = (buckets * std::mem::size_of::<u64>()) as u64;
    let _table = policy.run.reserve(table_bytes)?;
    let table: Vec<AtomicU64> = (0..buckets).map(|_| AtomicU64::new(EMPTY_PAIR)).collect();

    // Build: workers claim inner-relation morsels and insert with CAS.
    let t0 = Instant::now();
    let build_q = MorselQueue::new(inner.len(), policy, 1);
    let (_, mut stats) = parallel_scope_try(t, |ctx| {
        for mo in ctx.morsels(&build_q) {
            let _ = rsv_testkit::failpoint!("join.build.morsel");
            ctx.phase("build", || {
                for i in mo.range.clone() {
                    atomic_insert(&table, hash, inner.keys[i], inner.payloads[i]);
                }
            });
        }
    })?;
    policy.run.check_cancelled()?;
    let build = t0.elapsed();

    // The build threads were joined: the table is now plain read-only data.
    // SAFETY: AtomicU64 has the same in-memory representation as u64 and
    // no thread writes the table anymore.
    let pairs: &[u64] =
        unsafe { core::slice::from_raw_parts(table.as_ptr() as *const u64, table.len()) };

    // Probe: workers claim outer-relation morsels; no synchronization
    // needed, matches accumulate in per-worker sinks.
    let t0 = Instant::now();
    let probe_q = MorselQueue::new(outer.len(), policy, S::LANES);
    let (sinks, probe_stats) = parallel_scope_try(t, |ctx| {
        let mut sink = JoinSink::with_capacity(1024);
        for mo in ctx.morsels(&probe_q) {
            let _ = rsv_testkit::failpoint!("join.probe.morsel");
            ctx.phase("probe", || {
                let r = mo.range.clone();
                if vectorized {
                    lp_probe_vertical_raw(
                        s,
                        pairs,
                        hash,
                        &outer.keys[r.clone()],
                        &outer.payloads[r],
                        &mut sink,
                    );
                } else {
                    lp_probe_scalar_raw(
                        pairs,
                        hash,
                        &outer.keys[r.clone()],
                        &outer.payloads[r],
                        &mut sink,
                    );
                }
            });
        }
        sink
    })?;
    policy.run.check_cancelled()?;
    let probe = t0.elapsed();
    stats.merge(&probe_stats);

    Ok((
        JoinResult {
            sinks,
            timings: JoinTimings {
                partition: Default::default(),
                build,
                probe,
            },
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{reference_fingerprint, workload};
    use rsv_simd::Portable;

    fn join(
        s: Portable<16>,
        vectorized: bool,
        inner: &Relation,
        outer: &Relation,
        threads: usize,
    ) -> JoinResult {
        join_no_partition(s, vectorized, inner, outer, &ExecPolicy::new(threads))
            .unwrap()
            .0
    }

    #[test]
    fn matches_reference_scalar_and_vector() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(2_000, 10_000, 201);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        for threads in [1usize, 4] {
            for vectorized in [false, true] {
                let r = join(s, vectorized, &inner, &outer, threads);
                assert_eq!(r.matches(), n, "threads={threads} vec={vectorized}");
                assert_eq!(r.fingerprint(), expected);
            }
        }
    }

    #[test]
    fn duplicate_inner_keys() {
        let s = Portable::<16>::new();
        let w = rsv_data::join_workload(900, 3_000, 3.0, 0.5, &mut rsv_data::rng(202));
        let (expected, n) = reference_fingerprint(&w.inner, &w.outer);
        let r = join(s, true, &w.inner, &w.outer, 2);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn cancel_and_budget_fail_fast() {
        use rsv_exec::RunContext;
        let s = Portable::<16>::new();
        let (inner, outer) = workload(2_000, 10_000, 204);
        // pre-cancelled run: no phase makes progress
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(4).with_run(run);
        let err = join_no_partition(s, true, &inner, &outer, &policy)
            .expect_err("cancelled join must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        // too-small budget: the shared table reservation is denied cleanly
        let run = RunContext::new().with_memory_limit(64);
        let policy = ExecPolicy::new(4).with_run(run);
        let err = join_no_partition(s, true, &inner, &outer, &policy)
            .expect_err("budget must deny the table");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
        // the same engine state still answers the query afterwards
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(s, true, &inner, &outer, 4);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn empty_relations() {
        let s = Portable::<16>::new();
        let empty = Relation::default();
        let (inner, _) = workload(10, 10, 203);
        let r = join(s, true, &inner, &empty, 2);
        assert_eq!(r.matches(), 0);
        let r = join(s, true, &empty, &inner, 2);
        assert_eq!(r.matches(), 0);
    }
}
