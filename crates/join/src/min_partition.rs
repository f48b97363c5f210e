//! The *min-partition* hash join (paper §9): partition the inner relation
//! into `T` parts (one per thread) so each thread builds a private table —
//! no atomics anywhere — and probing picks **both** a table and a bucket
//! per key, which keeps the whole join fully vectorizable.

use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{
    parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats, SharedBuffer,
};
use rsv_hashtab::{
    lp_build_scalar_raw, lp_build_vertical_raw, lp_probe_one_raw, JoinSink, MulHash, EMPTY_KEY,
    EMPTY_PAIR,
};
use rsv_partition::parallel::partition_pass;
use rsv_partition::{HashFn, PartitionFn};
use rsv_simd::{MaskLike, Simd};

use crate::{JoinResult, JoinTimings};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// Execute the min-partition join with morsel scheduling (and one inner
/// partition per worker), returning per-worker scheduler stats.
///
/// Honours `policy.run`: the partitioned columns and the shared sub-table
/// allocation are gated by the memory budget, cancellation is observed at
/// every morsel/task claim, and worker panics surface as
/// [`EngineError::WorkerPanicked`].
pub fn join_min_partition<S: Simd>(
    s: S,
    vectorized: bool,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
) -> Result<(JoinResult, SchedulerStats), EngineError> {
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
    let col_bytes = 2 * (inner.len() as u64) * std::mem::size_of::<u32>() as u64;
    let _cols = policy.run.reserve(col_bytes)?;
    let mut part_k = vec![0u32; inner.len()];
    let mut part_p = vec![0u32; inner.len()];
    let (pass, mut stats) = partition_pass(
        s,
        vectorized,
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
    let table_bytes = (parts * tsize * std::mem::size_of::<u64>()) as u64;
    let _table = policy.run.reserve(table_bytes)?;
    let table = SharedBuffer::from_vec(vec![EMPTY_PAIR; parts * tsize]);
    let build_q = MorselQueue::tasks(parts, policy);
    let (_, build_stats) = parallel_scope_try(threads, |ctx| {
        // SAFETY: each task touches only its own part's sub-table slice,
        // and every task id is claimed exactly once.
        let view = unsafe { table.view_mut() };
        for task in ctx.morsels(&build_q) {
            let _ = rsv_testkit::failpoint!("join.task");
            ctx.phase("build", || {
                let p = task.id;
                let start = pass.partition_starts[p] as usize;
                let end = start + pass.hist[p] as usize;
                let sub = &mut view[p * tsize..(p + 1) * tsize];
                if vectorized {
                    lp_build_vertical_raw(
                        s,
                        sub,
                        table_hash,
                        &part_k[start..end],
                        &part_p[start..end],
                    );
                } else {
                    lp_build_scalar_raw(sub, table_hash, &part_k[start..end], &part_p[start..end]);
                }
            });
        }
    })?;
    policy.run.check_cancelled()?;
    let build = t0.elapsed();
    stats.merge(&build_stats);

    // Phase 3: probe across the T sub-tables, morsel by morsel.
    // SAFETY: the build threads were joined; the table is read-only now.
    let pairs: &[u64] = unsafe { table.view() };
    let t0 = Instant::now();
    let probe_q = MorselQueue::new(outer.len(), policy, S::LANES);
    let (sinks, probe_stats) = parallel_scope_try(threads, |ctx| {
        let mut sink = JoinSink::with_capacity(1024);
        for mo in ctx.morsels(&probe_q) {
            let _ = rsv_testkit::failpoint!("join.probe.morsel");
            ctx.phase("probe", || {
                let r = mo.range.clone();
                if vectorized {
                    probe_vertical_multi(
                        s,
                        pairs,
                        tsize,
                        part_fn,
                        table_hash,
                        &outer.keys[r.clone()],
                        &outer.payloads[r],
                        &mut sink,
                    );
                } else {
                    rsv_metrics::count(rsv_metrics::Metric::LpKeysProbed, r.len() as u64);
                    for i in r {
                        let k = outer.keys[i];
                        let p = part_fn.partition(k);
                        lp_probe_one_raw(
                            &pairs[p * tsize..(p + 1) * tsize],
                            table_hash,
                            k,
                            outer.payloads[i],
                            0,
                            &mut sink,
                        );
                    }
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
                partition,
                build,
                probe,
            },
        },
        stats,
    ))
}

/// Vertically vectorized probe across `parts` concatenated sub-tables of
/// `tsize` buckets each: per lane, the partition function picks the table
/// and multiplicative hashing picks the bucket (the paper's "probe across
/// the T hash tables" modification of Algorithm 5).
#[allow(clippy::too_many_arguments)]
fn probe_vertical_multi<S: Simd>(
    s: S,
    pairs: &[u64],
    tsize: usize,
    part_fn: HashFn,
    table_hash: MulHash,
    keys: &[u32],
    pays: &[u32],
    out: &mut JoinSink,
) {
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let n = keys.len();
            rsv_metrics::count(rsv_metrics::Metric::LpKeysProbed, n as u64);
            let mut probes = 0u64;
            let f = s.splat(table_hash.factor());
            let tn = s.splat(tsize as u32);
            let empty = s.splat(EMPTY_KEY);
            let one = s.splat(1);
            let mut k = s.zero();
            let mut v = s.zero();
            let mut o = s.zero();
            let mut m = S::M::all();
            let mut i = 0usize;
            while i + w <= n {
                k = s.selective_load(k, m, &keys[i..]);
                v = s.selective_load(v, m, &pays[i..]);
                i += m.count();
                let part = part_fn.partition_vector(s, k);
                let mut local = s.add(s.mulhi(s.mullo(k, f), tn), o);
                let over = s.cmpge(local, tn);
                local = s.blend(over, s.sub(local, tn), local);
                let h = s.add(s.mullo(part, tn), local);
                let (tk, tv) = s.gather_pairs(pairs, h);
                probes += w as u64;
                m = s.cmpeq(tk, empty);
                let hit = m.andnot(s.cmpeq(tk, k));
                if hit.any() {
                    let (ok, oi, oo) = out.spare(w);
                    s.selective_store(ok, hit, k);
                    s.selective_store(oi, hit, tv);
                    let c = s.selective_store(oo, hit, v);
                    out.advance(c);
                }
                o = s.blend(m, s.zero(), s.add(o, one));
            }
            rsv_metrics::count(rsv_metrics::Metric::LpProbes, probes);
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            let mut oa = [0u32; MAX_LANES];
            s.store(k, &mut ka[..w]);
            s.store(v, &mut va[..w]);
            s.store(o, &mut oa[..w]);
            for lane in m.not().iter_set() {
                let p = part_fn.partition(ka[lane]);
                lp_probe_one_raw(
                    &pairs[p * tsize..(p + 1) * tsize],
                    table_hash,
                    ka[lane],
                    va[lane],
                    oa[lane] as usize,
                    out,
                );
            }
            for idx in i..n {
                let p = part_fn.partition(keys[idx]);
                lp_probe_one_raw(
                    &pairs[p * tsize..(p + 1) * tsize],
                    table_hash,
                    keys[idx],
                    pays[idx],
                    0,
                    out,
                );
            }
        },
    );
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
        join_min_partition(s, vectorized, inner, outer, &ExecPolicy::new(threads))
            .unwrap()
            .0
    }

    #[test]
    fn matches_reference() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(3_000, 12_000, 211);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        for threads in [1usize, 2, 4] {
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
        let w = rsv_data::join_workload(1_000, 5_000, 2.5, 0.4, &mut rsv_data::rng(212));
        let (expected, n) = reference_fingerprint(&w.inner, &w.outer);
        let r = join(s, true, &w.inner, &w.outer, 3);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn cancel_and_budget_fail_fast() {
        use rsv_exec::RunContext;
        let s = Portable::<16>::new();
        let (inner, outer) = workload(3_000, 12_000, 214);
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_min_partition(s, true, &inner, &outer, &policy)
            .expect_err("cancelled join must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        let run = RunContext::new().with_memory_limit(100);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = join_min_partition(s, true, &inner, &outer, &policy)
            .expect_err("budget must deny the partitioned columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
    }

    #[test]
    fn timings_are_populated() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(1_000, 2_000, 213);
        let r = join(s, true, &inner, &outer, 2);
        assert!(r.timings.total() >= r.timings.probe);
    }
}
