//! The *max-partition* hash join (paper §9): hash-partition **both**
//! relations into parts whose inner side fits an L2-resident table, then
//! build and probe entirely in cache — the paper's fastest variant and its
//! flagship argument for buffered vectorized partitioning. Both relations
//! go through [`partition_then_tasks`], which partitions them and runs
//! one task per part; its partitioner's 256-way pass limit bounds the
//! fanout of each pass.

use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{Budgeted, EngineError, ExecPolicy, L2_BYTES, PART_TABLE_BYTES};
use rsv_hashtab::{build_raw, probe_raw, JoinSink, Linear, MulHash, EMPTY_PAIR};
use rsv_partition::tasks::partition_then_tasks;
use rsv_partition::twopass::MAX_DIRECT_FANOUT;
use rsv_partition::HashFn;
use rsv_simd::{KernelKind, Simd};

use crate::{JoinResult, JoinTimings};

/// Table bytes per inner tuple: 8-byte buckets at 50 % load.
const TABLE_BYTES_PER_TUPLE: usize = 16;

/// The inner-part tuple target for a build of `inner` tuples: one
/// partition pass of at most 256 ways while the parts' tables stay
/// between [`PART_TABLE_BYTES`] (16K tuples) and half of [`L2_BYTES`]
/// (64K tuples), i.e. `clamp(ceil(inner / 256), 16K, 64K)`. That is
/// 64 parts at 1M tuples and 256 from 4M to 16M; only builds past 16M
/// take two passes, and builds under 16K tuples make one part.
///
/// On a 2-vCPU AVX-512 host this rule's cells were the fastest of a sweep
/// from 2K to 128K tuples per part at 1M, 4M and 16M inner tuples, 12–37 %
/// faster than the paper's 32 KiB "typically the L1" tables (2K tuples),
/// which needed a second pass from 512K tuples up.
pub fn part_tuples(inner: usize) -> usize {
    inner.div_ceil(MAX_DIRECT_FANOUT).clamp(
        PART_TABLE_BYTES / TABLE_BYTES_PER_TUPLE,
        L2_BYTES / 2 / TABLE_BYTES_PER_TUPLE,
    )
}

/// Per-worker task state: a budgeted sink plus build/probe nanoseconds.
type TaskState<'run> = (Budgeted<'run, JoinSink>, u64, u64);

/// Execute the max-partition join with `kind`'s kernels, morsel
/// scheduling and an inner-part tuple target ([`part_tuples`] of the
/// inner size by default), its tasks timed as the phase `"build+probe"`.
/// Both relations are hash-partitioned into `max(1, ceil(inner / part_target))`
/// parts, and each part becomes one stealable build+probe task, so a
/// worker stuck on a skew-inflated part does not stall the join.
///
/// Honours `policy.run` as [`partition_then_tasks`] does: the partitioned
/// copies of both relations (8 bytes per inner and outer tuple), each
/// partition pass's staging buffers, the partitioner's region scratch
/// past 256 parts, each task's part table
/// (`8 × (2 × part + 1)` bytes, held while the task runs) and each
/// worker's result sink (charged after each task, while its table is
/// still held, and released on return) are gated by the memory budget,
/// cancellation is observed at every morsel/task claim, and worker panics
/// surface as [`EngineError::WorkerPanicked`].
pub fn join_max_partition<S: Simd>(
    kind: KernelKind<S>,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
    part_target: usize,
) -> Result<JoinResult, EngineError> {
    assert!(part_target >= 1);
    let table_hash = MulHash::nth(0);
    let fanout = inner.len().div_ceil(part_target).max(1);
    rsv_metrics::count(rsv_metrics::Metric::JoinBuildTuples, inner.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinProbeTuples, outer.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinPartitionFanout, fanout as u64);
    let f = HashFn::with_factor(fanout, MulHash::nth(2).factor());

    // Per part, build a cache-resident table and probe it; a part whose
    // inner keys are duplicate-free stops each probe at its match. An
    // empty inner part still probes its outer tuples (against an empty
    // table), so every outer tuple is probed exactly once. Build and probe
    // interleave per part, so the reported split is the workers'
    // accumulated time.
    let t0 = Instant::now();
    let run = partition_then_tasks(
        kind,
        f,
        [
            (&inner.keys, &inner.payloads),
            (&outer.keys, &outer.payloads),
        ],
        policy,
        "build+probe",
        |_| Ok((policy.run.hold(0, JoinSink::default)?, 0, 0)),
        |(sink, build_ns, probe_ns): &mut TaskState, _, [(ik, ip), (ok, op)]| {
            if ok.is_empty() {
                return Ok(());
            }
            let tb = Instant::now();
            let mut pairs = policy.run.vec((ik.len() * 2 + 1).max(2), EMPTY_PAIR)?;
            let table = Linear::new(table_hash, pairs.len());
            let unique = build_raw(kind, &mut pairs, table, ik, ip);
            *build_ns += tb.elapsed().as_nanos() as u64;
            let tp = Instant::now();
            probe_raw(kind, &pairs, table, ok, op, unique, sink);
            *probe_ns += tp.elapsed().as_nanos() as u64;
            sink.grow_to(sink.size_bytes())
        },
    )?;
    let build_probe = t0.elapsed().saturating_sub(run.partition);

    // Split the build+probe wall time by the workers' accumulated ratios.
    let total_build: u64 = run.workers.iter().map(|w| w.1).sum();
    let total_probe: u64 = run.workers.iter().map(|w| w.2).sum();
    let denom = (total_build + total_probe).max(1);
    let build = build_probe.mul_f64(total_build as f64 / denom as f64);
    Ok(JoinResult {
        sinks: run.workers.into_iter().map(|w| w.0.into_inner()).collect(),
        timings: JoinTimings {
            partition: run.partition,
            build,
            probe: build_probe.saturating_sub(build),
        },
    })
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
        join_max_partition(kind, inner, outer, &ExecPolicy::new(threads), target).unwrap()
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
        // room for the partitioned copies but not for a part table
        let copies = 8 * (inner.len() + outer.len()) as u64;
        let run = RunContext::new().with_memory_limit(copies);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_max_partition(kind, &inner, &outer, &policy, 128)
            .expect_err("budget must deny the part tables");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
    }

    #[test]
    fn part_target_fits_l2_in_one_pass() {
        // one part up to 16K tuples, then 16K-tuple parts up to 4M, then
        // 256 parts up to 16M, then 64K-tuple parts in two passes
        for (inner, parts) in [
            (0usize, 1usize),
            (5, 1),
            (16 << 10, 1),
            ((16 << 10) + 1, 2),
            (200_000, 13),
            (1 << 20, 64),
            (4 << 20, 256),
            (16 << 20, 256),
            (32 << 20, 512),
        ] {
            assert_eq!(inner.div_ceil(part_tuples(inner)).max(1), parts, "{inner}");
        }
    }

    #[test]
    fn default_target_join() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let (inner, outer) = workload(5_000, 5_000, 224);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(kind, &inner, &outer, 1, part_tuples(inner.len()));
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }
}
