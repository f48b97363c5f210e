//! The *max-partition* hash join (paper §9): hash-partition **both**
//! relations until each inner part fits a cache-resident table, then build
//! and probe entirely in cache — the paper's fastest variant and its
//! flagship argument for buffered vectorized partitioning.

use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats};
use rsv_hashtab::{
    lp_build_scalar_raw, lp_build_vertical_raw, lp_probe_scalar_raw, lp_probe_vertical_raw,
    JoinSink, MulHash, EMPTY_PAIR,
};
use rsv_partition::histogram::{histogram_scalar, histogram_vector_replicated, prefix_sum};
use rsv_partition::parallel::partition_pass;
use rsv_partition::shuffle::{shuffle_scalar_buffered, shuffle_vector_buffered};
use rsv_partition::HashFn;
use rsv_simd::Simd;

use crate::{JoinResult, JoinTimings};

/// Default cache-resident part size in tuples: 2048 tuples build a
/// 32 KB table at 50% load — the paper's "typically the L1" target.
pub const DEFAULT_PART_TUPLES: usize = 2048;

/// Maximum fanout of a single partitioning pass (the paper's optimal pass
/// fanout is bounded by TLB/cache capacity; 2^8 is in its sweet range).
const MAX_PASS_FANOUT: usize = 256;

/// Per-worker task-phase results: a sink plus build/probe nanoseconds.
type TaskResults = Vec<(JoinSink, u64, u64)>;

/// Execute the max-partition join with morsel scheduling and an
/// inner-part tuple target ([`DEFAULT_PART_TUPLES`] by default), returning
/// per-worker scheduler stats. Each cache-resident part becomes one
/// stealable build+probe task, so a worker stuck on a skew-inflated part
/// does not stall the join.
///
/// Honours `policy.run`: the partitioned copies of both relations (and the
/// second-level scratch) are gated by the memory budget, cancellation is
/// observed at every morsel/task claim and between second-level passes,
/// and worker panics surface as [`EngineError::WorkerPanicked`].
pub fn join_max_partition<S: Simd>(
    s: S,
    vectorized: bool,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
    part_target: usize,
) -> Result<(JoinResult, SchedulerStats), EngineError> {
    let threads = policy.threads;
    assert!(part_target >= 1);
    let table_hash = MulHash::nth(0);
    let f1_factor = MulHash::nth(2).factor();
    let f2_factor = MulHash::nth(3).factor();

    // ------------------------------------------------------------------
    // Phase 1: partition both relations with the same function(s) until
    // inner parts are at most `part_target` tuples (one parallel pass,
    // plus a per-part second pass where needed).
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let fanout1 = inner.len().div_ceil(part_target).clamp(1, MAX_PASS_FANOUT);
    rsv_metrics::count(rsv_metrics::Metric::JoinBuildTuples, inner.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinProbeTuples, outer.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinPartitionFanout, fanout1 as u64);
    let f1 = HashFn::with_factor(fanout1, f1_factor);

    let mut stats = SchedulerStats::default();
    let cols_bytes = 2 * ((inner.len() + outer.len()) as u64) * std::mem::size_of::<u32>() as u64;
    let _cols = policy.run.reserve(cols_bytes)?;
    let (mut ik, mut ip, istarts, ihist) = partition_relation(
        s,
        vectorized,
        f1,
        &inner.keys,
        &inner.payloads,
        policy,
        &mut stats,
    )?;
    let (mut ok_, mut op, ostarts, ohist) = partition_relation(
        s,
        vectorized,
        f1,
        &outer.keys,
        &outer.payloads,
        policy,
        &mut stats,
    )?;

    // Second-level split for oversized parts, with an independent hash.
    let mut parts: Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> = Vec::new();
    let mut second: Vec<(usize, usize)> = Vec::new(); // (part id, sub fanout)
    for p in 0..fanout1 {
        let icount = ihist[p] as usize;
        if icount > part_target {
            second.push((p, icount.div_ceil(part_target).clamp(2, MAX_PASS_FANOUT)));
        } else {
            let is = istarts[p] as usize;
            let os = ostarts[p] as usize;
            parts.push((is..is + icount, os..os + ohist[p] as usize));
        }
    }
    if !second.is_empty() {
        // Split the oversized parts in place (ping to scratch and back),
        // distributing parts among threads.
        let scratch_bytes =
            2 * (ik.len().max(ok_.len()) as u64) * std::mem::size_of::<u32>() as u64;
        let _scratch = policy.run.reserve(scratch_bytes)?;
        let mut sk = vec![0u32; ik.len().max(ok_.len())];
        let mut sp = vec![0u32; ik.len().max(ok_.len())];
        for &(p, sub_fanout) in &second {
            policy.run.check_cancelled()?;
            rsv_metrics::count(rsv_metrics::Metric::JoinPartitionFanout, sub_fanout as u64);
            let f2 = HashFn::with_factor(sub_fanout, f2_factor);
            let ir = istarts[p] as usize..istarts[p] as usize + ihist[p] as usize;
            let or = ostarts[p] as usize..ostarts[p] as usize + ohist[p] as usize;
            let (ib, ih) = subpartition(
                s,
                vectorized,
                f2,
                &mut ik,
                &mut ip,
                ir.clone(),
                &mut sk,
                &mut sp,
            );
            let (ob, oh) = subpartition(
                s,
                vectorized,
                f2,
                &mut ok_,
                &mut op,
                or.clone(),
                &mut sk,
                &mut sp,
            );
            for q in 0..sub_fanout {
                let isub = ir.start + ib[q] as usize..ir.start + ib[q] as usize + ih[q] as usize;
                let osub = or.start + ob[q] as usize..or.start + ob[q] as usize + oh[q] as usize;
                parts.push((isub, osub));
            }
        }
    }
    let partition = t0.elapsed();

    // ------------------------------------------------------------------
    // Phase 2+3: per part, build a cache-resident table and probe it.
    // Each part is one stealable task; build/probe interleave per part,
    // so the reported split is the workers' accumulated time.
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let task_q = MorselQueue::tasks(parts.len(), policy);
    let ik_ref = &ik;
    let ip_ref = &ip;
    let ok_ref = &ok_;
    let op_ref = &op;
    let parts_ref = &parts;
    let (results, task_stats): (TaskResults, _) = parallel_scope_try(threads, |ctx| {
        let mut sink = JoinSink::with_capacity(1024);
        let mut build_ns = 0u64;
        let mut probe_ns = 0u64;
        for task in ctx.morsels(&task_q) {
            let _ = rsv_testkit::failpoint!("join.task");
            let (ir, or) = &parts_ref[task.id];
            if ir.is_empty() || or.is_empty() {
                continue;
            }
            ctx.phase("build+probe", || {
                let tb = Instant::now();
                let buckets = (ir.len() * 2 + 1).max(2);
                let mut pairs = vec![EMPTY_PAIR; buckets];
                if vectorized {
                    lp_build_vertical_raw(
                        s,
                        &mut pairs,
                        table_hash,
                        &ik_ref[ir.clone()],
                        &ip_ref[ir.clone()],
                    );
                } else {
                    lp_build_scalar_raw(
                        &mut pairs,
                        table_hash,
                        &ik_ref[ir.clone()],
                        &ip_ref[ir.clone()],
                    );
                }
                build_ns += tb.elapsed().as_nanos() as u64;
                let tp = Instant::now();
                if vectorized {
                    lp_probe_vertical_raw(
                        s,
                        &pairs,
                        table_hash,
                        &ok_ref[or.clone()],
                        &op_ref[or.clone()],
                        &mut sink,
                    );
                } else {
                    lp_probe_scalar_raw(
                        &pairs,
                        table_hash,
                        &ok_ref[or.clone()],
                        &op_ref[or.clone()],
                        &mut sink,
                    );
                }
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

/// One full-relation partitioning pass; returns the partitioned columns,
/// partition starts and histogram, merging scheduler stats into `stats`.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn partition_relation<S: Simd>(
    s: S,
    vectorized: bool,
    f: HashFn,
    keys: &[u32],
    pays: &[u32],
    policy: &ExecPolicy,
    stats: &mut SchedulerStats,
) -> Result<(Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>), EngineError> {
    let mut dk = vec![0u32; keys.len()];
    let mut dp = vec![0u32; pays.len()];
    let (pass, pass_stats) =
        partition_pass(s, vectorized, f, keys, pays, &mut dk, &mut dp, policy)?;
    stats.merge(&pass_stats);
    Ok((dk, dp, pass.partition_starts, pass.hist))
}

/// Partition `cols[range]` in place through scratch space; returns local
/// partition starts and histogram.
#[allow(clippy::too_many_arguments)]
fn subpartition<S: Simd>(
    s: S,
    vectorized: bool,
    f: HashFn,
    keys: &mut [u32],
    pays: &mut [u32],
    range: std::ops::Range<usize>,
    scratch_k: &mut [u32],
    scratch_p: &mut [u32],
) -> (Vec<u32>, Vec<u32>) {
    let n = range.len();
    let hist = if vectorized {
        histogram_vector_replicated(s, f, &keys[range.clone()])
    } else {
        histogram_scalar(f, &keys[range.clone()])
    };
    if vectorized {
        shuffle_vector_buffered(
            s,
            f,
            &keys[range.clone()],
            &pays[range.clone()],
            &hist,
            &mut scratch_k[..n],
            &mut scratch_p[..n],
        );
    } else {
        shuffle_scalar_buffered(
            f,
            &keys[range.clone()],
            &pays[range.clone()],
            &hist,
            &mut scratch_k[..n],
            &mut scratch_p[..n],
        );
    }
    keys[range.clone()].copy_from_slice(&scratch_k[..n]);
    pays[range].copy_from_slice(&scratch_p[..n]);
    let (starts, _) = prefix_sum(&hist, 0);
    (starts, hist)
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
        target: usize,
    ) -> JoinResult {
        join_max_partition(
            s,
            vectorized,
            inner,
            outer,
            &ExecPolicy::new(threads),
            target,
        )
        .unwrap()
        .0
    }

    #[test]
    fn matches_reference() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(3_000, 12_000, 221);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        for threads in [1usize, 3] {
            for vectorized in [false, true] {
                // small target forces a deep partitioning tree
                let r = join(s, vectorized, &inner, &outer, threads, 128);
                assert_eq!(r.matches(), n, "threads={threads} vec={vectorized}");
                assert_eq!(r.fingerprint(), expected);
            }
        }
    }

    #[test]
    fn two_level_partitioning_kicks_in() {
        let s = Portable::<16>::new();
        // force fanout1 to clamp so second-level passes must run
        let (inner, outer) = workload(10_000, 20_000, 222);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(s, true, &inner, &outer, 2, 16);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn duplicate_inner_keys() {
        let s = Portable::<16>::new();
        let w = rsv_data::join_workload(2_000, 8_000, 5.0, 0.2, &mut rsv_data::rng(223));
        let (expected, n) = reference_fingerprint(&w.inner, &w.outer);
        let r = join(s, true, &w.inner, &w.outer, 2, 256);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn cancel_and_budget_fail_fast() {
        use rsv_exec::RunContext;
        let s = Portable::<16>::new();
        let (inner, outer) = workload(3_000, 12_000, 225);
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_max_partition(s, true, &inner, &outer, &policy, 128)
            .expect_err("cancelled join must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        let run = RunContext::new().with_memory_limit(100);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_max_partition(s, true, &inner, &outer, &policy, 128)
            .expect_err("budget must deny the partitioned columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
    }

    #[test]
    fn default_target_join() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(5_000, 5_000, 224);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(s, true, &inner, &outer, 1, DEFAULT_PART_TUPLES);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }
}
