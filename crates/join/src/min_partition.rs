//! The *min-partition* hash join (paper §9): partition the inner relation
//! into `T` parts (one per thread) so each thread builds a private table —
//! no atomics anywhere — and probing picks **both** a table and a bucket
//! per key, which keeps the whole join fully vectorizable.

use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SharedBuffer};
use rsv_hashtab::{build_raw, Linear, MulHash, SubTables, EMPTY_PAIR};
use rsv_partition::parallel::partition_pass;
use rsv_partition::HashFn;
use rsv_simd::{KernelKind, Simd};

use crate::{probe_phase, JoinResult, JoinTimings};

/// Execute the min-partition join with `kind`'s kernels and morsel
/// scheduling (and one inner partition per worker), in the phases of the
/// partition pass and then `"build"` and `"probe"`.
///
/// Honours `policy.run`: the partitioned columns, the pass's staging
/// buffers (see [`partition_pass`]), the shared sub-table
/// allocation and each worker's result sink (charged after each probe
/// morsel, released on return) are gated by the memory budget,
/// cancellation is observed at every morsel/task claim, and worker panics
/// surface as [`EngineError::WorkerPanicked`].
pub fn join_min_partition<S: Simd>(
    kind: KernelKind<S>,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
) -> Result<JoinResult, EngineError> {
    let threads = policy.threads;
    let parts = threads;
    rsv_metrics::count(rsv_metrics::Metric::JoinBuildTuples, inner.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinProbeTuples, outer.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinPartitionFanout, parts as u64);
    let part_fn = HashFn::with_factor(parts, MulHash::nth(2).factor());
    let table_hash = MulHash::nth(0);

    // Phase 1: partition the inner relation into one part per thread (the
    // pass itself runs morselized).
    let t0 = Instant::now();
    let mut part_k = policy.run.vec(inner.len(), 0u32)?;
    let mut part_p = policy.run.vec(inner.len(), 0u32)?;
    let pass = partition_pass(
        kind,
        part_fn,
        &inner.keys,
        &inner.payloads,
        &mut part_k,
        &mut part_p,
        policy,
    )?;
    let partition = t0.elapsed();

    // Phase 2: build the private sub-tables — one task per part, stealable
    // because part sizes are skew-dependent. The sub-tables share one
    // allocation so probes can gather across all of them.
    let t0 = Instant::now();
    let max_part = pass.hist.iter().copied().max().unwrap_or(0) as usize;
    let tsize = (max_part * 2 + 1).next_multiple_of(2).max(2);
    let table = policy
        .run
        .vec(parts * tsize, EMPTY_PAIR)?
        .map(SharedBuffer::from_vec);
    let build_q = MorselQueue::tasks(parts, policy);
    let uniques = parallel_scope_try(threads, |ctx| {
        // SAFETY: each task touches only its own part's sub-table slice,
        // and every task id is claimed exactly once.
        let view = unsafe { table.view_mut() };
        let mut unique = true;
        for task in ctx.morsels(&build_q) {
            let _ = rsv_testkit::failpoint!("join.task");
            ctx.phase("build", || {
                let p = task.id;
                let start = pass.partition_starts[p] as usize;
                let end = start + pass.hist[p] as usize;
                let sub = &mut view[p * tsize..(p + 1) * tsize];
                unique &= build_raw(
                    kind,
                    sub,
                    Linear::new(table_hash, tsize),
                    &part_k[start..end],
                    &part_p[start..end],
                );
            });
        }
        unique
    })?;
    policy.run.check_cancelled()?;
    let build = t0.elapsed();
    // Equal keys share a part, so the sub-tables are duplicate-free
    // together exactly when each one is.
    let unique = uniques.iter().all(|&u| u);

    // Phase 3: probe across the T sub-tables, morsel by morsel: per key,
    // the partition function picks the sub-table (the paper's "probe
    // across the T hash tables" modification of Algorithm 5).
    // SAFETY: the build threads were joined; the table is read-only now.
    let pairs: &[u64] = unsafe { table.view() };
    let sub_tables = SubTables::new(part_fn, table_hash, tsize);
    let timings = JoinTimings {
        partition,
        build,
        ..Default::default()
    };
    probe_phase(kind, pairs, sub_tables, outer, unique, policy, timings)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::test_support::{reference_fingerprint, workload};
    use rsv_simd::Portable;

    fn join(
        kind: KernelKind<Portable<16>>,
        inner: &Relation,
        outer: &Relation,
        threads: usize,
    ) -> JoinResult {
        join_min_partition(kind, inner, outer, &ExecPolicy::new(threads)).unwrap()
    }

    #[test]
    fn matches_reference() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(3_000, 12_000, 211);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        for threads in [1usize, 2, 4] {
            for kind in [KernelKind::Scalar, KernelKind::Vector(s)] {
                let r = join(kind, &inner, &outer, threads);
                assert_eq!(r.matches(), n, "threads={threads} {kind:?}");
                assert_eq!(r.fingerprint(), expected);
            }
        }
    }

    #[test]
    fn duplicate_inner_keys() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let w = rsv_data::join_workload(1_000, 5_000, 2.5, 0.4, &mut rsv_data::rng(212));
        let (expected, n) = reference_fingerprint(&w.inner, &w.outer);
        let r = join(kind, &w.inner, &w.outer, 3);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn cancel_and_budget_fail_fast() {
        use rsv_exec::RunContext;
        let kind = KernelKind::Vector(Portable::<16>::new());
        let (inner, outer) = workload(3_000, 12_000, 214);
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_min_partition(kind, &inner, &outer, &policy)
            .expect_err("cancelled join must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        let run = RunContext::new().with_memory_limit(100);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_min_partition(kind, &inner, &outer, &policy)
            .expect_err("budget must deny the partitioned columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
    }

    #[test]
    fn timings_are_populated() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let (inner, outer) = workload(1_000, 2_000, 213);
        let r = join(kind, &inner, &outer, 2);
        assert!(r.timings.total() >= r.timings.probe);
    }
}
