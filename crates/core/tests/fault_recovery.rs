//! Deterministic fault-injection coverage of the fallible engine API
//! (`cargo test -p rsv-core --features failpoints --test fault_recovery`).
//!
//! For every engine operator the harness first *discovers* which
//! failpoints the operator actually passes through (`fault::trace()`
//! counts hits even when nothing is armed), then replays the operator
//! under each discovered point × injected action × thread count:
//!
//! * **Panic** at a worker-side point must surface as
//!   [`EngineError::WorkerPanicked`] carrying the injected message —
//!   never unwind through the caller, never hang a sibling;
//! * **Cancel** (the hook trips the run's [`CancelToken`]) must surface
//!   as [`EngineError::Cancelled`] within one morsel;
//! * **DenyAlloc** at the budget-reservation point must surface as
//!   [`EngineError::BudgetExceeded`] with nothing left reserved.
//!
//! After every injection the same engine re-runs the same query with the
//! faults cleared and must produce the reference answer: injected faults
//! never poison engine, tables, or columns.

#![cfg(feature = "failpoints")]

use std::sync::{Mutex, MutexGuard};

use rsv_core::{Engine, EngineError, JoinVariant, Relation, RunContext};
use rsv_testkit::fault::{self, FaultAction, Trigger};

/// The failpoint registry is process-global and `cargo test` runs tests
/// on many threads; serialize every test that arms it. (The registry's
/// own serializer is private to `rsv-testkit`'s unit tests.)
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn rel(n: usize) -> Relation {
    let keys: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) | 1)
        .collect();
    let pays: Vec<u32> = keys.iter().map(|k| k ^ 0x5a5a_5a5a).collect();
    Relation::new(keys, pays)
}

/// Order-independent digest of a result column set, so reference and
/// replay runs compare equal regardless of worker interleaving.
fn digest(cols: &[&[u32]]) -> u64 {
    let mut d = 0u64;
    for col in cols {
        d = d.wrapping_mul(0x100_0000_01b3);
        for &v in *col {
            let mut z = u64::from(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            d = d.wrapping_add(z ^ (z >> 31));
        }
        d = d.wrapping_add(col.len() as u64);
    }
    d
}

/// One engine operator under test: runs a fixed query and digests its
/// output. Every operator here is the `try_` form so injected faults
/// come back as values, not unwinds.
type Op = (
    &'static str,
    fn(&Engine, &RunContext) -> Result<u64, EngineError>,
);

fn op_select(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    let r = e.try_select(&rel(12_000), 1 << 8, 1 << 30, run)?;
    Ok(digest(&[&r.keys, &r.payloads]))
}

fn op_select_compressed(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    let packed = e.compress(&rel(12_000));
    let r = e.try_select_compressed(&packed, 1 << 8, 1 << 30, run)?;
    Ok(digest(&[&r.keys, &r.payloads]))
}

fn op_bloom_semijoin(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    let r = e.try_bloom_semijoin(&rel(12_000), &rel(3_000).keys, run)?;
    Ok(digest(&[&r.keys, &r.payloads]))
}

fn join_digest(e: &Engine, v: JoinVariant, run: &RunContext) -> Result<u64, EngineError> {
    let result = e.try_hash_join_variant(&rel(3_000), &rel(12_000), v, run)?;
    let mut d = 0u64;
    for sink in &result.sinks {
        let (k, ip, op) = sink.columns();
        d = d.wrapping_add(digest(&[k, ip, op]));
    }
    Ok(d)
}

fn op_join_no(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    join_digest(e, JoinVariant::NoPartition, run)
}

fn op_join_min(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    join_digest(e, JoinVariant::MinPartition, run)
}

fn op_join_max(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    join_digest(e, JoinVariant::MaxPartition, run)
}

fn op_sort(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    let mut r = rel(12_000);
    e.try_sort(&mut r, run)?;
    // Positional digest: the sorted order itself is the result.
    let mut d = 0u64;
    for (i, &k) in r.keys.iter().enumerate() {
        d = d.wrapping_mul(31).wrapping_add(u64::from(k) ^ i as u64);
    }
    Ok(d)
}

fn op_partition(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    let (part, starts) = e.try_hash_partition(&rel(12_000), 64, run)?;
    Ok(digest(&[&part.keys, &part.payloads, &starts]))
}

fn op_partition_twopass(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    let fanout = rsv_core::partition::twopass::MAX_DIRECT_FANOUT * 2;
    let (part, starts) = e.try_hash_partition(&rel(12_000), fanout, run)?;
    Ok(digest(&[&part.keys, &part.payloads, &starts]))
}

fn group_by_digest(
    e: &Engine,
    rel: &Relation,
    expected_groups: usize,
    run: &RunContext,
) -> Result<u64, EngineError> {
    let rows = e.try_group_by_sum(rel, expected_groups, run)?;
    let mut d = 0u64;
    for (k, c, s) in rows {
        d = d
            .wrapping_mul(31)
            .wrapping_add(u64::from(k) ^ u64::from(c) ^ s);
    }
    Ok(d)
}

fn op_group_by(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    group_by_digest(e, &rel(12_000), 12_000, run)
}

/// An estimate far below the 12K groups: the tables grow, and each
/// growth is charged to the budget.
fn op_group_by_grows(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    group_by_digest(e, &rel(12_000), 100, run)
}

/// Past 64K groups (a table larger than L2) the group-by partitions its
/// input and aggregates one part per task.
fn op_group_by_partitioned(e: &Engine, run: &RunContext) -> Result<u64, EngineError> {
    group_by_digest(e, &rel(100_000), 100_000, run)
}

const OPS: &[Op] = &[
    ("select", op_select),
    ("select-compressed", op_select_compressed),
    ("bloom-semijoin", op_bloom_semijoin),
    ("join-no-partition", op_join_no),
    ("join-min-partition", op_join_min),
    ("join-max-partition", op_join_max),
    ("sort", op_sort),
    ("hash-partition", op_partition),
    ("hash-partition-twopass", op_partition_twopass),
    ("group-by-sum", op_group_by),
    ("group-by-sum-grows", op_group_by_grows),
    ("group-by-sum-partitioned", op_group_by_partitioned),
];

/// Failpoints that may fire on the coordinating thread, outside any
/// panic-isolated worker scope. A `Panic` armed there would unwind
/// through the caller by design — their intended injections are
/// `DenyAlloc` (budget) and `Cancel`.
const COORDINATOR_POINTS: &[&str] = &["exec.budget.reserve"];

/// Discover which failpoints `op` passes through on a clean run.
fn discover(
    name: &str,
    op: fn(&Engine, &RunContext) -> Result<u64, EngineError>,
) -> Vec<&'static str> {
    fault::reset();
    let engine = Engine::new().with_threads(2);
    op(&engine, &RunContext::new()).unwrap_or_else(|e| panic!("{name}: clean run failed: {e}"));
    let traced: Vec<&'static str> = fault::trace().into_iter().map(|(p, _)| p).collect();
    assert!(
        traced.contains(&"exec.morsel.claim"),
        "{name}: every parallel operator must pass the morsel-claim failpoint, traced {traced:?}"
    );
    traced
}

/// After an injection, the cleared engine must answer the reference
/// query exactly.
fn assert_recovers(
    name: &str,
    point: &str,
    op: fn(&Engine, &RunContext) -> Result<u64, EngineError>,
    engine: &Engine,
    reference: u64,
) {
    fault::reset();
    let replay = op(engine, &RunContext::new())
        .unwrap_or_else(|e| panic!("{name}: not reusable after fault at `{point}`: {e}"));
    assert_eq!(
        replay, reference,
        "{name}: wrong answer after fault at `{point}`"
    );
}

/// Panic injected at every worker-side failpoint an operator passes,
/// across 1, 2 and 8 workers: the operator returns
/// [`EngineError::WorkerPanicked`] with the injected message, siblings
/// drain (the call returns rather than hanging), and the engine then
/// answers the reference query.
#[test]
fn injected_panics_surface_as_worker_panicked() {
    let _guard = serialize();
    for &(name, op) in OPS {
        let points = discover(name, op);
        let reference = {
            fault::reset();
            op(&Engine::new().with_threads(2), &RunContext::new()).expect("reference")
        };
        for point in points {
            if COORDINATOR_POINTS.contains(&point) {
                continue;
            }
            for threads in [1usize, 2, 8] {
                let engine = Engine::new().with_threads(threads);
                fault::reset();
                fault::arm(point, Trigger::Nth(1), FaultAction::Panic);
                let result = op(&engine, &RunContext::new());
                match result {
                    Err(EngineError::WorkerPanicked { ref payload, .. }) => {
                        assert!(
                            payload.contains("injected fault at failpoint"),
                            "{name}/{point}/t{threads}: foreign panic payload {payload:?}"
                        );
                    }
                    other => {
                        panic!("{name}/{point}/t{threads}: expected WorkerPanicked, got {other:?}")
                    }
                }
                assert_recovers(name, point, op, &engine, reference);
            }
        }
    }
}

/// Cancel injected at every failpoint an operator passes (the hook trips
/// the run's token mid-flight), across 1, 2 and 8 workers: the operator
/// returns [`EngineError::Cancelled`], and once the token fires no
/// further morsels are claimed (cancellation latency ≤ one morsel per
/// worker).
#[test]
fn injected_cancel_stops_within_a_morsel() {
    let _guard = serialize();
    for &(name, op) in OPS {
        let points = discover(name, op);
        let reference = {
            fault::reset();
            op(&Engine::new().with_threads(2), &RunContext::new()).expect("reference")
        };
        for point in points {
            for threads in [1usize, 2, 8] {
                let engine = Engine::new().with_threads(threads);
                let run = RunContext::new();
                fault::reset();
                let token = run.cancel_token();
                fault::set_cancel_hook(move || token.cancel());
                fault::arm(point, Trigger::Nth(1), FaultAction::Cancel);
                let result = op(&engine, &run);
                assert!(
                    matches!(result, Err(EngineError::Cancelled)),
                    "{name}/{point}/t{threads}: expected Cancelled, got {result:?}"
                );
                // Claim boundaries observe the token: each worker may
                // finish the morsel it already held when the hook fired
                // (plus the claims that raced the trip), but a claim
                // *after* the drain must not happen. The queue is spent
                // only if the op legitimately processed everything —
                // impossible here since it returned Cancelled before its
                // final phases completed.
                assert_eq!(run.budget.used(), 0, "{name}/{point}: leaked reservation");
                assert!(run.is_cancelled());
                assert_recovers(name, point, op, &engine, reference);
            }
        }
    }
}

/// DenyAlloc at the budget-reservation failpoint: every operator that
/// reserves working memory fails with [`EngineError::BudgetExceeded`],
/// releases everything, and recovers.
#[test]
fn injected_alloc_denial_surfaces_as_budget_exceeded() {
    let _guard = serialize();
    for &(name, op) in OPS {
        let points = discover(name, op);
        if !points.contains(&"exec.budget.reserve") {
            continue;
        }
        let reference = {
            fault::reset();
            op(&Engine::new().with_threads(2), &RunContext::new()).expect("reference")
        };
        for threads in [1usize, 2, 8] {
            let engine = Engine::new().with_threads(threads);
            let run = RunContext::new();
            fault::reset();
            fault::arm(
                "exec.budget.reserve",
                Trigger::Nth(1),
                FaultAction::DenyAlloc,
            );
            let result = op(&engine, &run);
            assert!(
                matches!(result, Err(EngineError::BudgetExceeded { .. })),
                "{name}/t{threads}: expected BudgetExceeded, got {result:?}"
            );
            assert_eq!(
                run.budget.used(),
                0,
                "{name}/t{threads}: leaked reservation"
            );
            assert_recovers(name, "exec.budget.reserve", op, &engine, reference);
        }
    }
}

/// DenyAlloc at a group-by table's growth: on one worker the first
/// budget charge is the worker's table and the later ones are its growth
/// past the estimate (and the merged table's). Denying the first growth
/// fails with [`EngineError::BudgetExceeded`], releases everything, and
/// the engine recovers.
#[test]
fn injected_growth_denial_surfaces_as_budget_exceeded() {
    let _guard = serialize();
    let engine = Engine::new().with_threads(1);
    fault::reset();
    let reference = op_group_by_grows(&engine, &RunContext::new()).expect("reference");
    let charges = fault::trace()
        .into_iter()
        .find(|&(p, _)| p == "exec.budget.reserve")
        .map_or(0, |(_, hits)| hits);
    assert!(
        charges >= 2,
        "growth never reached the budget: {charges} charges"
    );
    let run = RunContext::new();
    fault::reset();
    fault::arm(
        "exec.budget.reserve",
        Trigger::Nth(2),
        FaultAction::DenyAlloc,
    );
    let result = op_group_by_grows(&engine, &run);
    assert!(
        matches!(result, Err(EngineError::BudgetExceeded { .. })),
        "expected BudgetExceeded, got {result:?}"
    );
    assert_eq!(run.budget.used(), 0, "leaked reservation");
    assert_recovers(
        "group-by-sum-grows",
        "exec.budget.reserve",
        op_group_by_grows,
        &engine,
        reference,
    );
}

/// The hashtable-internal failpoints (`hashtab.cuckoo.build`,
/// `hashtab.lp.build`) guard library-level build loops that engine
/// operators may not reach; exercise them directly so every registered
/// point has an injection test.
#[test]
fn hashtable_build_failpoints_fire() {
    let _guard = serialize();
    use rsv_core::hashtab::{CuckooTable, LinearTable, MulHash};

    let keys: Vec<u32> = (1..=500u32).collect();
    let pays = keys.clone();

    fault::reset();
    fault::arm("hashtab.cuckoo.build", Trigger::Nth(1), FaultAction::Panic);
    let r = std::panic::catch_unwind(|| {
        let mut t = CuckooTable::new(1_000, 0.5);
        t.build_scalar(&keys, &pays)
    });
    let payload = r.expect_err("armed cuckoo build must panic");
    let msg = rsv_core::exec::panic_message(payload.as_ref());
    assert!(msg.contains("injected fault at failpoint `hashtab.cuckoo.build`"));

    fault::reset();
    fault::arm("hashtab.lp.build", Trigger::Nth(1), FaultAction::Panic);
    let r = std::panic::catch_unwind(|| {
        let mut t = LinearTable::with_hash(1_000, 0.5, MulHash::nth(0));
        t.try_build_scalar(&keys, &pays)
    });
    let payload = r.expect_err("armed linear build must panic");
    let msg = rsv_core::exec::panic_message(payload.as_ref());
    assert!(msg.contains("injected fault at failpoint `hashtab.lp.build`"));

    // Cleared, both builds succeed — the faults did not poison the
    // registry or the tables.
    fault::reset();
    let mut c = CuckooTable::new(1_000, 0.5);
    c.build_scalar(&keys, &pays).expect("clean cuckoo build");
    let mut l = LinearTable::with_hash(1_000, 0.5, MulHash::nth(0));
    l.try_build_scalar(&keys, &pays)
        .expect("clean linear build");
    assert_eq!(c.len(), keys.len());
    assert_eq!(l.len(), keys.len());
}
