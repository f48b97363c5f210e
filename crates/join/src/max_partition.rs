//! The *max-partition* hash join (paper §9): hash-partition **both**
//! relations into parts whose inner side fits a cache-resident table, then
//! build and probe entirely in cache — the paper's fastest variant and its
//! flagship argument for buffered vectorized partitioning. Both relations
//! go through the engine's one hash partitioner,
//! [`hash_partition_twopass`], whose 256-way pass limit bounds the fanout
//! of each pass.

use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{
    column_bytes, parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats,
};
use rsv_hashtab::{lp_build_raw, lp_probe_raw, JoinSink, MulHash, EMPTY_PAIR};
use rsv_partition::parallel::PassOutput;
use rsv_partition::twopass::hash_partition_twopass;
use rsv_partition::HashFn;
use rsv_simd::{KernelKind, Simd};

use crate::{JoinResult, JoinTimings};

/// Default cache-resident part size in tuples: 2048 tuples build a
/// 32 KB table at 50% load — the paper's "typically the L1" target.
pub const DEFAULT_PART_TUPLES: usize = 2048;

/// Per-worker task-phase results: a sink plus build/probe nanoseconds.
type TaskResults = Vec<(JoinSink, u64, u64)>;

/// Execute the max-partition join with `kind`'s kernels, morsel
/// scheduling and an inner-part tuple target ([`DEFAULT_PART_TUPLES`] by
/// default), returning per-worker scheduler stats. Both relations are
/// hash-partitioned into `max(1, ceil(inner / part_target))` parts, and
/// each part becomes one stealable build+probe task, so a worker stuck on
/// a skew-inflated part does not stall the join.
///
/// Honours `policy.run`: the partitioned copies of both relations (8 bytes
/// per inner and outer tuple) are gated by the memory budget, as is the
/// partitioner's region scratch past [`MAX_DIRECT_FANOUT`] parts;
/// cancellation is observed at every morsel/task claim, and worker panics
/// surface as [`EngineError::WorkerPanicked`].
///
/// [`MAX_DIRECT_FANOUT`]: rsv_partition::twopass::MAX_DIRECT_FANOUT
pub fn join_max_partition<S: Simd>(
    kind: KernelKind<S>,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
    part_target: usize,
) -> Result<(JoinResult, SchedulerStats), EngineError> {
    let threads = policy.threads;
    assert!(part_target >= 1);
    let table_hash = MulHash::nth(0);

    // ------------------------------------------------------------------
    // Phase 1: partition both relations with the same function into parts
    // of about `part_target` inner tuples.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let fanout = inner.len().div_ceil(part_target).max(1);
    rsv_metrics::count(rsv_metrics::Metric::JoinBuildTuples, inner.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinProbeTuples, outer.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinPartitionFanout, fanout as u64);
    let f = HashFn::with_factor(fanout, MulHash::nth(2).factor());

    let mut stats = SchedulerStats::default();
    let _cols = policy
        .run
        .reserve(2 * column_bytes(inner.len() + outer.len()))?;
    let (ik, ip, ipass) = partition_relation(kind, f, inner, policy, &mut stats)?;
    let (ok_, op, opass) = partition_relation(kind, f, outer, policy, &mut stats)?;
    let partition = t0.elapsed();

    // ------------------------------------------------------------------
    // Phase 2+3: per part, build a cache-resident table and probe it; a
    // part whose inner keys are duplicate-free stops each probe at its
    // match. Each part is one stealable task; build/probe interleave per
    // part, so the reported split is the workers' accumulated time.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let task_q = MorselQueue::tasks(fanout, policy);
    let part = |pass: &PassOutput, p: usize| {
        let s = pass.partition_starts[p] as usize;
        s..s + pass.hist[p] as usize
    };
    let (results, task_stats): (TaskResults, _) = parallel_scope_try(threads, |ctx| {
        let mut sink = JoinSink::with_capacity(1024);
        let mut build_ns = 0u64;
        let mut probe_ns = 0u64;
        for task in ctx.morsels(&task_q) {
            let _ = rsv_testkit::failpoint!("join.task");
            let (ir, or) = (part(&ipass, task.id), part(&opass, task.id));
            // an empty inner part still probes its outer tuples (against
            // an empty table), so every outer tuple is probed exactly once
            if or.is_empty() {
                continue;
            }
            ctx.phase("build+probe", || {
                let tb = Instant::now();
                let buckets = (ir.len() * 2 + 1).max(2);
                let mut pairs = vec![EMPTY_PAIR; buckets];
                let (ks, ps) = (&ik[ir.clone()], &ip[ir]);
                let unique = lp_build_raw(kind, &mut pairs, table_hash, ks, ps);
                build_ns += tb.elapsed().as_nanos() as u64;
                let tp = Instant::now();
                let (ks, ps) = (&ok_[or.clone()], &op[or]);
                lp_probe_raw(kind, &pairs, table_hash, ks, ps, unique, &mut sink);
                probe_ns += tp.elapsed().as_nanos() as u64;
            });
        }
        (sink, build_ns, probe_ns)
    })?;
    policy.run.check_cancelled()?;
    let build_probe = t0.elapsed();
    stats.merge(&task_stats);

    // Split the build+probe wall time by the workers' accumulated ratios.
    let total_build: u64 = results.iter().map(|r| r.1).sum();
    let total_probe: u64 = results.iter().map(|r| r.2).sum();
    let denom = (total_build + total_probe).max(1);
    let build = build_probe.mul_f64(total_build as f64 / denom as f64);
    let probe = build_probe.saturating_sub(build);
    let sinks = results.into_iter().map(|r| r.0).collect();

    Ok((
        JoinResult {
            sinks,
            timings: JoinTimings {
                partition,
                build,
                probe,
            },
        },
        stats,
    ))
}

/// Partition one relation with `f`; returns the partitioned columns and
/// the pass output, merging scheduler stats into `stats`.
fn partition_relation<S: Simd>(
    kind: KernelKind<S>,
    f: HashFn,
    rel: &Relation,
    policy: &ExecPolicy,
    stats: &mut SchedulerStats,
) -> Result<(Vec<u32>, Vec<u32>, PassOutput), EngineError> {
    let mut dk = vec![0u32; rel.len()];
    let mut dp = vec![0u32; rel.len()];
    let (pass, pass_stats) =
        hash_partition_twopass(kind, f, &rel.keys, &rel.payloads, &mut dk, &mut dp, policy)?;
    stats.merge(&pass_stats);
    Ok((dk, dp, pass))
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
        target: usize,
    ) -> JoinResult {
        join_max_partition(kind, inner, outer, &ExecPolicy::new(threads), target)
            .unwrap()
            .0
    }

    #[test]
    fn matches_reference() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(3_000, 12_000, 221);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        for threads in [1usize, 3] {
            for kind in [KernelKind::Scalar, KernelKind::Vector(s)] {
                // small target forces a deep partitioning tree
                let r = join(kind, &inner, &outer, threads, 128);
                assert_eq!(r.matches(), n, "threads={threads} {kind:?}");
                assert_eq!(r.fingerprint(), expected);
            }
        }
    }

    #[test]
    fn two_level_partitioning_kicks_in() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        // 10K tuples at target 16 make 625 parts: past the 256-way pass
        // limit, so the partitioner takes its two-level route
        let (inner, outer) = workload(10_000, 20_000, 222);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(kind, &inner, &outer, 2, 16);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn duplicate_inner_keys() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let w = rsv_data::join_workload(2_000, 8_000, 5.0, 0.2, &mut rsv_data::rng(223));
        let (expected, n) = reference_fingerprint(&w.inner, &w.outer);
        let r = join(kind, &w.inner, &w.outer, 2, 256);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn cancel_and_budget_fail_fast() {
        use rsv_exec::RunContext;
        let kind = KernelKind::Vector(Portable::<16>::new());
        let (inner, outer) = workload(3_000, 12_000, 225);
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_max_partition(kind, &inner, &outer, &policy, 128)
            .expect_err("cancelled join must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        let run = RunContext::new().with_memory_limit(100);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_max_partition(kind, &inner, &outer, &policy, 128)
            .expect_err("budget must deny the partitioned columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
    }

    #[test]
    fn default_target_join() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let (inner, outer) = workload(5_000, 5_000, 224);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(kind, &inner, &outer, 1, DEFAULT_PART_TUPLES);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }
}
