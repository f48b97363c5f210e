//! The *no-partition* hash join (paper §9): one shared linear-probing
//! table built concurrently with atomic compare-and-swap inserts, then
//! probed read-only.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rsv_data::Relation;
use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue};
use rsv_hashtab::{Addressing, Linear, MulHash, EMPTY_KEY, EMPTY_PAIR};
use rsv_simd::{KernelKind, Simd};

use crate::{probe_phase, JoinResult, JoinTimings};

/// How many tuples ahead of its insert the build prefetches a home bucket:
/// enough to cover a miss to memory while the `lock cmpxchg`s in between
/// serialize (Chen et al., "Improving Hash Join Performance through
/// Prefetching", ICDE 2004).
const PREFETCH_AHEAD: usize = 16;

/// Insert one tuple into the shared table with a CAS loop along `key`'s
/// linear-probing sequence. Returns `true` if the walk passed a bucket holding `key`:
/// both the loaded value and a failed CAS's current value are compared.
/// A bucket changes only once, from empty to its final pair, so of two
/// equal keys the later insert always passes the earlier one, whatever the
/// workers' interleaving. `Relaxed` suffices for that: each bucket is one
/// atomic, and a failed exchange reads the latest value in its
/// modification order, which is the winner's pair. The pairs are published
/// to the probe by joining the build's workers.
#[inline]
fn atomic_insert(table: &[AtomicU64], lin: Linear, key: u32, pay: u32) -> bool {
    assert_ne!(
        key, EMPTY_KEY,
        "key {key:#x} is the reserved empty sentinel"
    );
    let pair = u64::from(key) | (u64::from(pay) << 32);
    let mut h = lin.first(key);
    let mut dup = false;
    loop {
        let mut seen = table[h].load(Ordering::Relaxed);
        if seen as u32 == EMPTY_KEY {
            match table[h].compare_exchange(seen, pair, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return dup,
                Err(won) => seen = won,
            }
        }
        dup |= seen as u32 == key;
        h = lin.next(key, h);
    }
}

/// Execute the no-partition join with morsel scheduling, in the phases
/// `"build"` and `"probe"`. `kind` selects the probe kernel; the build
/// is scalar either way (paper: "building the hash table cannot be
/// fully vectorized because atomic operations are not supported in
/// SIMD"). When the build finds no repeated key, each probe stops at its
/// match.
///
/// Honours `policy.run`: the shared hash table and each worker's result
/// sink (charged after each probe morsel, released on return) are gated
/// by the memory budget, cancellation is observed at every morsel-claim
/// boundary (build and probe), and a worker panic surfaces as
/// [`EngineError::WorkerPanicked`] after the sibling workers drain.
pub fn join_no_partition<S: Simd>(
    kind: KernelKind<S>,
    inner: &Relation,
    outer: &Relation,
    policy: &ExecPolicy,
) -> Result<JoinResult, EngineError> {
    let t = policy.threads;
    rsv_metrics::count(rsv_metrics::Metric::JoinBuildTuples, inner.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::JoinProbeTuples, outer.len() as u64);
    let buckets = (inner.len() * 2).max(inner.len() + 1).max(2);
    let lin = Linear::new(MulHash::nth(0), buckets);
    let table_bytes = (buckets * std::mem::size_of::<AtomicU64>()) as u64;
    let table = policy.run.hold(table_bytes, || {
        (0..buckets)
            .map(|_| AtomicU64::new(EMPTY_PAIR))
            .collect::<Vec<_>>()
    })?;

    // Build: workers claim inner-relation morsels and insert with CAS,
    // prefetching the home bucket of the tuple PREFETCH_AHEAD ahead.
    let t0 = Instant::now();
    let build_q = MorselQueue::new(inner.len(), policy, 1);
    let dups = parallel_scope_try(t, |ctx| {
        let mut dup = false;
        for mo in ctx.morsels(&build_q) {
            let _ = rsv_testkit::failpoint!("join.build.morsel");
            ctx.phase("build", || {
                for i in mo.range.clone() {
                    if let Some(&ahead) = inner.keys.get(i + PREFETCH_AHEAD) {
                        rsv_simd::prefetch_read(&table, lin.first(ahead));
                    }
                    dup |= atomic_insert(&table, lin, inner.keys[i], inner.payloads[i]);
                }
            });
        }
        dup
    })?;
    policy.run.check_cancelled()?;
    let build = t0.elapsed();
    // A duplicate-free table lets each probe stop at its match.
    let unique = !dups.contains(&true);

    // The build threads were joined: the table is now plain read-only data.
    // SAFETY: AtomicU64 has the same in-memory representation as u64 and
    // no thread writes the table anymore.
    let pairs: &[u64] =
        unsafe { core::slice::from_raw_parts(table.as_ptr() as *const u64, table.len()) };

    // Probe: no synchronization needed, matches accumulate in per-worker
    // sinks.
    let timings = JoinTimings {
        build,
        ..Default::default()
    };
    probe_phase(kind, pairs, lin, outer, unique, policy, timings)
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
        join_no_partition(kind, inner, outer, &ExecPolicy::new(threads)).unwrap()
    }

    #[test]
    fn matches_reference_scalar_and_vector() {
        let s = Portable::<16>::new();
        let (inner, outer) = workload(2_000, 10_000, 201);
        let (expected, n) = reference_fingerprint(&inner, &outer);
        for threads in [1usize, 4] {
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
        let w = rsv_data::join_workload(900, 3_000, 3.0, 0.5, &mut rsv_data::rng(202));
        let (expected, n) = reference_fingerprint(&w.inner, &w.outer);
        let r = join(kind, &w.inner, &w.outer, 2);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    /// Copies of a key land in morsels that different workers claim, so
    /// their CAS inserts interleave in every order over the repeats. The
    /// build must notice the copies each time, or the probe stops at the
    /// first copy and loses the others' matches.
    #[test]
    fn equal_keys_inserted_by_different_workers_all_match() {
        let mut rng = rsv_data::rng(205);
        let uniq = rsv_data::unique_u32(2_048, &mut rng);
        // one repeated key among unique ones, and every key twice
        let mut one = uniq.clone();
        one[1_900] = one[3];
        let twice: Vec<u32> = uniq.iter().chain(&uniq).copied().collect();
        let outer = Relation::new(uniq.clone(), (0..uniq.len() as u32).collect());
        let policy = ExecPolicy::new(8).with_morsel_tuples(64);
        for keys in [one, twice] {
            let inner = Relation::new(keys.clone(), (0..keys.len() as u32).collect());
            let (expected, n) = reference_fingerprint(&inner, &outer);
            for kind in [
                KernelKind::Scalar,
                KernelKind::Vector(Portable::<16>::new()),
            ] {
                for _ in 0..25 {
                    let r = join_no_partition(kind, &inner, &outer, &policy).unwrap();
                    assert_eq!(r.matches(), n, "{kind:?}");
                    assert_eq!(r.fingerprint(), expected);
                }
            }
        }
    }

    #[test]
    fn cancel_and_budget_fail_fast() {
        use rsv_exec::RunContext;
        let kind = KernelKind::Vector(Portable::<16>::new());
        let (inner, outer) = workload(2_000, 10_000, 204);
        // pre-cancelled run: no phase makes progress
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(4).with_run(run);
        let err =
            join_no_partition(kind, &inner, &outer, &policy).expect_err("cancelled join must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        // too-small budget: the shared table reservation is denied cleanly
        let run = RunContext::new().with_memory_limit(64);
        let policy = ExecPolicy::new(4).with_run(run);
        let err = join_no_partition(kind, &inner, &outer, &policy)
            .expect_err("budget must deny the table");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
        // the same engine state still answers the query afterwards
        let (expected, n) = reference_fingerprint(&inner, &outer);
        let r = join(kind, &inner, &outer, 4);
        assert_eq!(r.matches(), n);
        assert_eq!(r.fingerprint(), expected);
    }

    #[test]
    fn empty_relations() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let empty = Relation::default();
        let (inner, _) = workload(10, 10, 203);
        let r = join(kind, &inner, &empty, 2);
        assert_eq!(r.matches(), 0);
        let r = join(kind, &empty, &inner, 2);
        assert_eq!(r.matches(), 0);
    }
}
