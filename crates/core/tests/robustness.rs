//! Robustness guarantees of the fallible engine API (DESIGN.md §5e):
//!
//! * a cancelled [`RunContext`] fails every `try_*` operator with
//!   [`EngineError::Cancelled`] and claims **zero** morsels,
//! * a memory budget too small for an operator's working set fails it
//!   with [`EngineError::BudgetExceeded`] and releases every reserved
//!   byte (the budget is clean for the next query),
//! * after either failure the same [`Engine`] answers the same query
//!   correctly — errors never poison the engine,
//! * degenerate configuration (0 threads, 0-tuple morsels) clamps to the
//!   smallest working configuration instead of crashing,
//! * cuckoo rehash exhaustion degrades to a linear-probing table whose
//!   probe output is byte-identical, counting `Metric::FallbackBuilds`,
//! * partition fanout past the one-pass limit transparently takes the
//!   partitioner's two-level route with unchanged semantics,
//! * size arguments past what the operator can use either get the right
//!   answer (a group estimate above the tuple count) or a typed
//!   [`EngineError::InputTooLarge`] (a fanout past `u32::MAX`), never an
//!   allocation abort or a panic.
//!
//! These tests run in every tier-1 `cargo test` (no feature gate); the
//! fault-injection counterpart (`fault_recovery.rs`) needs
//! `--features failpoints`.

use rsv_core::exec::{ExecPolicy, MorselQueue};
use rsv_core::hashtab::group::AGG_PART_GROUPS;
use rsv_core::hashtab::{FallbackTable, GroupAggTable, JoinSink, LinearTable, MulHash};
use rsv_core::metrics::{self, Metric};
use rsv_core::partition::twopass::MAX_DIRECT_FANOUT;
use rsv_core::simd::KernelKind;
use rsv_core::{
    Backend, BlockedBloomFilter, CancelToken, Engine, EngineError, JoinVariant, Relation,
    RunContext, BLOOM_BITS_PER_KEY,
};

fn rel(n: usize) -> Relation {
    // Unique keys (join variants assume a key relation on the inner
    // side), payloads derivable from the key so matches are checkable.
    let keys: Vec<u32> = (0..n as u32)
        .map(|i| i.wrapping_mul(2654435761) | 1)
        .collect();
    let pays: Vec<u32> = keys.iter().map(|k| k ^ 0x5a5a_5a5a).collect();
    Relation::new(keys, pays)
}

/// Bytes of the staging buffers a partition pass of `tuples` tuples into
/// `fanout` parts holds on `threads` workers of `backend` at the default
/// morsel size: one line of lanes × 8-byte tuples per partition, for
/// every morsel of the pass.
fn staging(backend: Backend, threads: usize, tuples: usize, fanout: usize) -> u64 {
    let lanes = backend.lanes();
    let morsels = MorselQueue::new(tuples, &ExecPolicy::new(threads), lanes).morsel_count();
    (morsels * fanout * lanes * 8) as u64
}

fn cancelled_run() -> RunContext {
    let token = CancelToken::new();
    token.cancel();
    RunContext::new().with_cancel(token)
}

/// Run `f` under the metrics harness and return its result plus the
/// number of morsels claimed while it ran.
fn with_claim_count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (r, sink) = metrics::collect(f);
    (r, sink.total().get(Metric::MorselsClaimed))
}

/// Every fallible operator on a pre-cancelled run: typed `Cancelled`
/// error, zero morsels claimed (cancellation is observed *before* the
/// first claim), and the engine stays usable.
#[test]
fn cancelled_run_fails_every_operator_without_claiming_work() {
    let engine = Engine::new().with_threads(4).with_morsel_tuples(256);
    let inner = rel(4_000);
    let outer = rel(16_000);
    let packed = engine.compress(&outer);
    // more groups than one L2-sized table holds: the partitioned route
    let many_groups = rel(100_000);

    type Op<'a> = (
        &'a str,
        Box<dyn Fn(&RunContext) -> Result<(), EngineError> + 'a>,
    );
    let ops: Vec<Op> = vec![
        (
            "select",
            Box::new(|run| engine.try_select(&outer, 0, u32::MAX, run).map(|_| ())),
        ),
        (
            "select-compressed",
            Box::new(|run| {
                engine
                    .try_select_compressed(&packed, 0, u32::MAX, run)
                    .map(|_| ())
            }),
        ),
        (
            "bloom-semijoin",
            Box::new(|run| {
                engine
                    .try_bloom_semijoin(&outer, &inner.keys, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-no-partition",
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::NoPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-min-partition",
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::MinPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-max-partition",
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::MaxPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "sort",
            Box::new(|run| {
                let mut r = rel(4_000);
                engine.try_sort(&mut r, run)
            }),
        ),
        (
            "hash-partition",
            Box::new(|run| engine.try_hash_partition(&outer, 64, run).map(|_| ())),
        ),
        (
            "group-by-sum",
            Box::new(|run| {
                engine
                    .try_group_by_sum(&outer, outer.len(), run)
                    .map(|_| ())
            }),
        ),
        (
            "group-by-sum-partitioned",
            Box::new(|run| {
                engine
                    .try_group_by_sum(&many_groups, many_groups.len(), run)
                    .map(|_| ())
            }),
        ),
    ];

    for (name, op) in &ops {
        let run = cancelled_run();
        let (result, claimed) = with_claim_count(|| op(&run));
        assert!(
            matches!(result, Err(EngineError::Cancelled)),
            "{name}: expected Cancelled, got {result:?}"
        );
        assert_eq!(claimed, 0, "{name}: claimed morsels after cancellation");
    }

    // The engine itself carries no per-run state: a fresh run context
    // answers the reference query.
    let fresh = RunContext::new();
    let selected = engine
        .try_select(&outer, 0, u32::MAX, &fresh)
        .expect("fresh run after cancellations");
    assert_eq!(selected.len(), outer.len());
}

/// Operators that reserve working memory fail a tiny budget with a typed
/// `BudgetExceeded` carrying the limit, and release everything they
/// reserved — `used()` returns to zero so the budget can back the next
/// query.
#[test]
fn budget_exceeded_is_typed_and_releases_everything() {
    let engine = Engine::new().with_threads(2);
    let inner = rel(4_000);
    let outer = rel(16_000);
    let packed = engine.compress(&outer);
    // more groups than one L2-sized table holds: the partitioned route
    let many_groups = rel(100_000);

    type Op<'a> = (
        &'a str,
        Box<dyn Fn(&RunContext) -> Result<(), EngineError> + 'a>,
    );
    let ops: Vec<Op> = vec![
        (
            "select",
            Box::new(|run| engine.try_select(&outer, 0, u32::MAX, run).map(|_| ())),
        ),
        (
            "select-compressed",
            Box::new(|run| {
                engine
                    .try_select_compressed(&packed, 0, u32::MAX, run)
                    .map(|_| ())
            }),
        ),
        (
            "bloom-semijoin",
            Box::new(|run| {
                engine
                    .try_bloom_semijoin(&outer, &inner.keys, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-no-partition",
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::NoPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-min-partition",
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::MinPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-max-partition",
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::MaxPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "sort",
            Box::new(|run| {
                let mut r = rel(4_000);
                engine.try_sort(&mut r, run)
            }),
        ),
        (
            "hash-partition",
            Box::new(|run| engine.try_hash_partition(&outer, 64, run).map(|_| ())),
        ),
        (
            "group-by-sum",
            Box::new(|run| engine.try_group_by_sum(&outer, 1_000, run).map(|_| ())),
        ),
        (
            "group-by-sum-partitioned",
            Box::new(|run| {
                engine
                    .try_group_by_sum(&many_groups, many_groups.len(), run)
                    .map(|_| ())
            }),
        ),
    ];

    for (name, op) in &ops {
        let run = RunContext::new().with_memory_limit(64);
        let result = op(&run);
        match result {
            Err(EngineError::BudgetExceeded { limit, .. }) => {
                assert_eq!(limit, 64, "{name}: error reports the wrong limit");
            }
            other => panic!("{name}: expected BudgetExceeded, got {other:?}"),
        }
        assert_eq!(
            run.budget.used(),
            0,
            "{name}: leaked budget reservation after failure"
        );
    }

    // A budget that fits runs to completion under the same engine.
    let run = RunContext::new().with_memory_limit(64 << 20);
    let selected = engine
        .try_select(&outer, 0, u32::MAX, &run)
        .expect("generous budget");
    assert_eq!(selected.len(), outer.len());
    assert_eq!(run.budget.used(), 0, "success path leaked reservation");
}

/// The operators reserve exactly their documented bytes: for the two
/// selects, 2 per 16 input tuples (the selection bitmap between their
/// mark and take passes) plus 8 per qualifying tuple (their two output
/// columns); per input tuple 8 for the sort (its ping-pong scratch
/// columns) and 8 for a hash partition (its output columns). During each
/// partition pass the sort and the hash partition also hold every
/// morsel's staging buffer, one line of lanes × 8 bytes per partition;
/// past `MAX_DIRECT_FANOUT`, the split's worker scratch (8 per tuple of
/// the `threads` largest regions) follows once the first pass has freed
/// its staging, so the larger of the two is the peak. The max-partition
/// join reserves 8 per inner and outer tuple (the partitioned copies)
/// plus, once both passes' staging is freed, each running task's
/// part table, 8 × (2 × part + 1) bytes (here one part, so one task);
/// the no-partition join 16 per inner tuple (its shared table at 50 %
/// load). Both joins also hold each worker's result sink, 12 bytes per
/// result slot: here one worker's 4,000 matches in slots doubled from
/// 1,024 to 4,096, and no slots for the worker whose outer tuples do not
/// match. The Bloom semi-join reserves the workers' filters while it
/// builds (`threads × BlockedBloomFilter::bytes_for`), then the merged
/// filter, the probe's bitmap and 8 bytes per qualifying tuple (its
/// output columns) while it probes; the larger of the two is its peak.
/// The group-by reserves one table per worker for its estimate; past
/// 64K groups, the partitioned copy (8 bytes per tuple) and per worker a
/// table for the largest part's share of the groups (here larger than
/// its pass's staging). A budget
/// of exactly that succeeds, one byte less fails, and both leave nothing
/// reserved.
///
/// A group-by table that outgrows its estimate is charged for the growth:
/// 16K distinct keys with an estimate of 1,000 fail under the two tables
/// the estimate asks for, where one merged table alone takes 512,000 B.
#[test]
fn operators_reserve_their_documented_bytes() {
    let engine = Engine::new().with_threads(2);
    let inner = rel(4_000);
    let outer = rel(16_000);
    let packed = engine.compress(&outer);
    let n = outer.len() as u64;
    let filter = BlockedBloomFilter::bytes_for(inner.len(), BLOOM_BITS_PER_KEY);
    // A filter larger than the probe side's columns: the build is the peak.
    let small = rel(1_000);
    let large = rel(40_000);
    let large_filter = BlockedBloomFilter::bytes_for(large.len(), BLOOM_BITS_PER_KEY);
    // Past the pass limit, the first pass makes regions of two partitions;
    // the split's two workers hold at most the two largest at once.
    let wide = 2 * MAX_DIRECT_FANOUT;
    let (_, starts) = engine.hash_partition(&outer, wide);
    let mut regions: Vec<u64> = (0..wide)
        .step_by(2)
        .map(|p| {
            let end = starts.get(p + 2).map_or(outer.len(), |&e| e as usize);
            (end - starts[p] as usize) as u64
        })
        .collect();
    regions.sort_unstable_by(|a, b| b.cmp(a));
    let region_scratch = 8 * (regions[0] + regions[1]);
    let staged = |fanout| staging(engine.backend(), 2, outer.len(), fanout);
    // The filters' output columns hold exactly their qualifiers. The
    // full-range selects keep every tuple, so only the half-range rows
    // and the semi-joins tell the qualifier count from the input length.
    let half = u32::MAX / 2;
    let kept_half = engine.select(&outer, 0, half).len() as u64;
    let kept_bloom = engine.bloom_semijoin(&outer, &inner.keys).len() as u64;
    let kept_bloom_large = engine.bloom_semijoin(&small, &large.keys).len() as u64;
    // The mark pass's bitmap: one bit per input tuple in 2-byte words.
    let bitmap = |tuples: usize| 2 * tuples.div_ceil(16) as u64;
    let (marks, small_marks) = (bitmap(outer.len()), bitmap(small.len()));
    // The one part's table: 8-byte buckets, twice the inner tuples plus one.
    let part_table = 8 * (2 * inner.len() as u64 + 1);
    // The first 4,000 outer keys are the inner keys, so one worker's sink
    // holds every match.
    assert_eq!(engine.hash_join(&inner, &outer).matches(), 4_000);
    let sink = 12 * 4_096;
    // Past 64K groups (a table larger than L2), the group-by partitions
    // 100K distinct keys on their top 4 bits into 16 parts of about 6250
    // groups; each of its two workers holds a table for the largest part.
    let many_groups = rel(100_000);
    let many = many_groups.len() as u64;
    let parts = many_groups
        .len()
        .div_ceil(AGG_PART_GROUPS)
        .next_power_of_two();
    assert_eq!(parts, 16);
    let mut part_sizes = [0usize; 16];
    for k in &many_groups.keys {
        part_sizes[(k >> 28) as usize] += 1;
    }
    let largest_part = part_sizes.into_iter().max().unwrap_or(0);

    type Op<'a> = (
        &'a str,
        u64,
        Box<dyn Fn(&RunContext) -> Result<(), EngineError> + 'a>,
    );
    let ops: Vec<Op> = vec![
        (
            "select",
            8 * n + marks,
            Box::new(|run| engine.try_select(&outer, 0, u32::MAX, run).map(|_| ())),
        ),
        (
            "select-compressed",
            8 * n + marks,
            Box::new(|run| {
                engine
                    .try_select_compressed(&packed, 0, u32::MAX, run)
                    .map(|_| ())
            }),
        ),
        (
            "select-half",
            8 * kept_half + marks,
            Box::new(|run| engine.try_select(&outer, 0, half, run).map(|_| ())),
        ),
        (
            "select-compressed-half",
            8 * kept_half + marks,
            Box::new(|run| {
                engine
                    .try_select_compressed(&packed, 0, half, run)
                    .map(|_| ())
            }),
        ),
        (
            "bloom-semijoin",
            (2 * filter).max(filter + marks + 8 * kept_bloom),
            Box::new(|run| {
                engine
                    .try_bloom_semijoin(&outer, &inner.keys, run)
                    .map(|_| ())
            }),
        ),
        (
            "bloom-semijoin-large-filter",
            (2 * large_filter).max(large_filter + small_marks + 8 * kept_bloom_large),
            Box::new(|run| {
                engine
                    .try_bloom_semijoin(&small, &large.keys, run)
                    .map(|_| ())
            }),
        ),
        (
            "sort",
            8 * n + staged(256),
            Box::new(|run| engine.try_sort(&mut outer.clone(), run)),
        ),
        (
            "hash-partition",
            8 * n + staged(16),
            Box::new(|run| engine.try_hash_partition(&outer, 16, run).map(|_| ())),
        ),
        (
            "hash-partition-two-pass",
            8 * n + region_scratch.max(staged(MAX_DIRECT_FANOUT)),
            Box::new(|run| engine.try_hash_partition(&outer, wide, run).map(|_| ())),
        ),
        (
            "join-max-partition",
            8 * (inner.len() + outer.len()) as u64 + (part_table + sink).max(staged(1)),
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::MaxPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "join-no-partition",
            16 * inner.len() as u64 + sink,
            Box::new(|run| {
                engine
                    .try_hash_join_variant(&inner, &outer, JoinVariant::NoPartition, run)
                    .map(|_| ())
            }),
        ),
        (
            "group-by-sum-exact-estimate",
            2 * GroupAggTable::bytes_for(16_000, 0.5),
            Box::new(|run| engine.try_group_by_sum(&outer, 16_000, run).map(|_| ())),
        ),
        (
            "group-by-sum-partitioned",
            8 * many + 2 * GroupAggTable::bytes_for(largest_part, 0.5),
            Box::new(|run| {
                engine
                    .try_group_by_sum(&many_groups, many_groups.len(), run)
                    .map(|_| ())
            }),
        ),
    ];

    for (name, bytes, op) in &ops {
        let run = RunContext::new().with_memory_limit(*bytes);
        op(&run).unwrap_or_else(|e| panic!("{name}: a {bytes} B budget failed: {e}"));
        assert_eq!(run.budget.used(), 0, "{name}: success leaked reservation");

        let run = RunContext::new().with_memory_limit(bytes - 1);
        let result = op(&run);
        assert!(
            matches!(result, Err(EngineError::BudgetExceeded { .. })),
            "{name}: expected BudgetExceeded one byte short, got {result:?}"
        );
        assert_eq!(run.budget.used(), 0, "{name}: failure leaked reservation");
    }

    let run = RunContext::new().with_memory_limit(2 * GroupAggTable::bytes_for(1_000, 0.5));
    let result = engine.try_group_by_sum(&outer, 1_000, &run);
    assert!(
        matches!(result, Err(EngineError::BudgetExceeded { .. })),
        "group-by-sum: uncharged table growth, got {result:?}"
    );
    assert_eq!(
        run.budget.used(),
        0,
        "group-by-sum: failure leaked reservation"
    );
}

/// A partition pass keeps every morsel's staging buffer until its
/// cleanup, and those buffers are on the budget: at 1M tuples in 256
/// partitions they come on top of the 8 bytes per tuple the output
/// columns (or the sort's scratch) need, so a budget of exactly 8 bytes
/// per tuple fails cleanly, and one that adds the staging bytes runs.
/// The staging size follows the backend's lane count; the test holds for
/// every backend.
#[test]
fn partition_staging_buffers_are_charged() {
    let engine = Engine::new().with_threads(2);
    let big = rel(1 << 20);
    let columns = 8 * big.len() as u64;
    let staged = staging(engine.backend(), 2, big.len(), 256);
    assert!(
        staged > 0,
        "no staging at {} lanes",
        engine.backend().lanes()
    );
    type Op<'a> = (
        &'a str,
        Box<dyn Fn(&RunContext) -> Result<(), EngineError> + 'a>,
    );
    let ops: [Op; 2] = [
        (
            "hash-partition",
            Box::new(|run| engine.try_hash_partition(&big, 256, run).map(|_| ())),
        ),
        (
            "sort",
            Box::new(|run| engine.try_sort(&mut big.clone(), run)),
        ),
    ];
    for (name, op) in &ops {
        let run = RunContext::new().with_memory_limit(columns);
        let result = op(&run);
        assert!(
            matches!(result, Err(EngineError::BudgetExceeded { .. })),
            "{name}: expected BudgetExceeded under 8 B per tuple, got {result:?}"
        );
        assert_eq!(run.budget.used(), 0, "{name}: failure leaked reservation");
        let run = RunContext::new().with_memory_limit(columns + staged);
        op(&run).unwrap_or_else(|e| panic!("{name}: columns + staging failed: {e}"));
        assert_eq!(run.budget.used(), 0, "{name}: success leaked reservation");
    }
}

/// The joins charge their result sinks as they grow: a join whose every
/// outer tuple matches fails with `BudgetExceeded` under a budget that
/// holds everything but its sinks (the least budget that the same join
/// passes with no matching outer tuple), and passes with room for them.
/// Both ways nothing stays reserved.
#[test]
fn join_sinks_are_charged() {
    let engine = Engine::new().with_threads(2);
    let inner = rel(10_000);
    let repeat = |keys: &[u32]| -> Vec<u32> { keys.iter().cycle().take(40_000).copied().collect() };
    let outer = Relation::new(repeat(&inner.keys), repeat(&inner.payloads));
    let misses = Relation::new(
        outer.keys.iter().map(|k| k ^ 1).collect(),
        outer.payloads.clone(),
    );
    // every worker's sink in slots doubled past its share of the matches
    let sinks = 2 * 12 * outer.len().next_power_of_two() as u64;
    for variant in JoinVariant::ALL {
        let join = |rel: &Relation, limit: u64| {
            let run = RunContext::new().with_memory_limit(limit);
            let result = engine.try_hash_join_variant(&inner, rel, variant, &run);
            assert_eq!(run.budget.used(), 0, "{variant:?}: leaked reservation");
            result
        };
        let (mut lo, mut hi) = (0, 1u64 << 30);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if join(&misses, mid).is_ok() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let result = join(&outer, lo).map(|r| r.matches());
        assert!(
            matches!(result, Err(EngineError::BudgetExceeded { .. })),
            "{variant:?}: uncharged sinks under {lo} B, got {result:?}"
        );
        let matches = join(&outer, lo + sinks)
            .unwrap_or_else(|e| panic!("{variant:?}: no room for the sinks: {e}"))
            .matches();
        assert_eq!(matches, outer.len(), "{variant:?}");
    }
}

/// A sort whose keys need no radix pass (no keys, one key, all keys
/// equal) reserves and allocates nothing: it succeeds under a 0-byte
/// budget and leaves the relation as it was.
#[test]
fn sort_without_a_pass_reserves_nothing() {
    let engine = Engine::new().with_threads(2);
    let equal = Relation::new(vec![42; 1_000], (0..1_000).collect());
    for rel in [rel(0), rel(1), equal] {
        let run = RunContext::new().with_memory_limit(0);
        let mut sorted = rel.clone();
        engine
            .try_sort(&mut sorted, &run)
            .unwrap_or_else(|e| panic!("{} tuples: {e}", rel.len()));
        assert_eq!(run.budget.used(), 0);
        assert_eq!(sorted, rel);
    }
}

/// Cancelling mid-operator must not corrupt caller-owned columns:
/// `try_sort` restores the input relation (same tuples, possibly
/// unsorted) before returning `Cancelled`.
#[test]
fn cancelled_sort_leaves_relation_intact() {
    let engine = Engine::new().with_threads(2);
    let mut r = rel(10_000);
    let mut reference: Vec<(u32, u32)> = r
        .keys
        .iter()
        .copied()
        .zip(r.payloads.iter().copied())
        .collect();
    reference.sort_unstable();

    let run = cancelled_run();
    assert!(matches!(
        engine.try_sort(&mut r, &run),
        Err(EngineError::Cancelled)
    ));
    let mut survivors: Vec<(u32, u32)> = r
        .keys
        .iter()
        .copied()
        .zip(r.payloads.iter().copied())
        .collect();
    survivors.sort_unstable();
    assert_eq!(survivors, reference, "cancel dropped or duplicated tuples");

    // And the relation is still sortable afterwards.
    engine
        .try_sort(&mut r, &RunContext::new())
        .expect("fresh sort");
    assert!(r.keys.windows(2).all(|w| w[0] <= w[1]));
}

/// `with_threads(0)` / `with_morsel_tuples(0)` and a partition fanout of
/// 0 clamp to 1 instead of asserting: the degenerate configuration
/// degrades to a working engine with byte-identical results.
#[test]
fn zero_threads_and_zero_morsel_tuples_clamp_to_one() {
    let r = rel(5_000);
    let clamped = Engine::new().with_threads(0).with_morsel_tuples(0);
    let reference = Engine::new().with_threads(1).with_morsel_tuples(1);

    let a = clamped.select(&r, 100, 1 << 30);
    let b = reference.select(&r, 100, 1 << 30);
    assert_eq!(a.keys, b.keys);
    assert_eq!(a.payloads, b.payloads);

    let ga = clamped.group_by_sum(&r, r.len());
    let gb = reference.group_by_sum(&r, r.len());
    assert_eq!(ga, gb);

    let pa = clamped
        .try_hash_partition(&r, 0, &RunContext::new())
        .expect("fanout 0 clamps to 1");
    assert_eq!(pa, reference.hash_partition(&r, 1));
    assert_eq!(clamped.hash_partition(&r, 0), pa);
    assert_eq!(clamped.hash_partition_of(r.keys[0], 0), Ok(0));
}

/// Cuckoo rehash exhaustion (0.97 load factor is far past the two-choice
/// threshold) degrades to linear probing: the [`FallbackTable`]'s probe
/// output is byte-identical to a directly built [`LinearTable`] with the
/// same capacity and hash, and exactly one `FallbackBuilds` is counted.
#[test]
fn cuckoo_exhaustion_falls_back_byte_identically() {
    let n = 2_000;
    let keys: Vec<u32> = (1..=n as u32)
        .map(|i| i.wrapping_mul(0x9e37_79b9) | 1)
        .collect();
    let pays: Vec<u32> = keys.iter().map(|k| !k).collect();
    let probe_keys: Vec<u32> = keys.iter().rev().copied().collect();
    let probe_pays: Vec<u32> = probe_keys.iter().map(|k| k >> 1).collect();

    let backend = rsv_core::simd::Backend::best();
    let ((fallback_out, direct_out, fell_back), sink) = metrics::collect(|| {
        rsv_core::simd::dispatch!(backend, s => {
            let table = FallbackTable::build(KernelKind::Vector(s), &keys, &pays, n, 0.97);
            let mut out = JoinSink::with_capacity(n);
            table.probe(KernelKind::Vector(s), &probe_keys, &probe_pays, &mut out);

            let mut direct = LinearTable::with_hash(n, 0.97, MulHash::nth(0));
            direct.build_vertical(s, &keys, &pays);
            let mut direct_sink = JoinSink::with_capacity(n);
            direct.probe_vertical(s, &probe_keys, &probe_pays, &mut direct_sink);

            (out.finish(), direct_sink.finish(), table.fell_back())
        })
    });

    assert!(
        fell_back,
        "0.97 load factor should exhaust cuckoo rehashing"
    );
    assert_eq!(
        sink.total().get(Metric::FallbackBuilds),
        1,
        "exactly one fallback build should be counted"
    );
    assert_eq!(fallback_out.0.len(), n, "every probe key must match");
    assert_eq!(fallback_out, direct_out, "fallback probe output diverges");
}

/// A healthy load factor stays on the cuckoo path and counts nothing.
#[test]
fn healthy_cuckoo_build_counts_no_fallback() {
    let keys: Vec<u32> = (1..=1_000u32).collect();
    let pays = keys.clone();
    let backend = rsv_core::simd::Backend::best();
    let (fell_back, sink) = metrics::collect(|| {
        rsv_core::simd::dispatch!(backend, s => {
            FallbackTable::build(KernelKind::Vector(s), &keys, &pays, 1_000, 0.5).fell_back()
        })
    });
    assert!(!fell_back);
    assert_eq!(sink.total().get(Metric::FallbackBuilds), 0);
}

/// Fanout past `MAX_DIRECT_FANOUT` transparently takes the partitioner's
/// two-level route: the output is still a permutation of the input
/// where every partition region holds exactly the keys that hash to it,
/// and the fallible variant agrees byte-for-byte.
#[test]
fn oversized_fanout_degrades_to_two_pass_partitioning() {
    let fanout = MAX_DIRECT_FANOUT * 2;
    let engine = Engine::new().with_threads(2);
    let r = rel(50_000);

    let (part, starts) = engine.hash_partition(&r, fanout);
    assert_eq!(part.len(), r.len());
    assert_eq!(starts.len(), fanout);

    // Region p = [starts[p], starts[p+1]) holds only partition-p keys.
    for p in 0..fanout {
        let lo = starts[p] as usize;
        let hi = if p + 1 < fanout {
            starts[p + 1] as usize
        } else {
            r.len()
        };
        for &k in &part.keys[lo..hi] {
            assert_eq!(
                engine.hash_partition_of(k, fanout),
                Ok(p),
                "key {k} misplaced"
            );
        }
    }
    let mut input: Vec<u32> = r.keys.clone();
    let mut output: Vec<u32> = part.keys.clone();
    input.sort_unstable();
    output.sort_unstable();
    assert_eq!(input, output, "partitioning dropped or duplicated keys");

    let (try_part, try_starts) = engine
        .try_hash_partition(&r, fanout, &RunContext::new())
        .expect("fallible two-pass partition");
    assert_eq!(try_part.keys, part.keys);
    assert_eq!(try_part.payloads, part.payloads);
    assert_eq!(try_starts, starts);
}

/// Oversized size arguments: a group estimate far past the tuple count is
/// clamped (the right rows, no huge table reserved or allocated), and a
/// fanout the 32-bit partition function cannot express is a typed error.
/// Neither leaves anything reserved.
#[test]
fn oversized_size_arguments_answer_or_fail_typed() {
    let engine = Engine::new().with_threads(2);
    for n in [5, 3_000] {
        let r = rel(n);
        let expected = engine.group_by_sum(&r, r.len());
        for groups in [1usize << 40, usize::MAX] {
            let run = RunContext::new();
            let rows = engine
                .try_group_by_sum(&r, groups, &run)
                .unwrap_or_else(|e| panic!("{n} tuples, {groups} groups: {e}"));
            assert_eq!(rows, expected, "{n} tuples, {groups} groups");
            assert_eq!(run.budget.used(), 0, "group-by leaked reservation");
        }
    }

    let r = rel(1_000);
    let run = RunContext::new();
    let result = engine.try_hash_partition(&r, 1 << 33, &run);
    assert_eq!(
        result,
        Err(EngineError::InputTooLarge {
            what: "fanout",
            value: 1 << 33,
            limit: u32::MAX.into(),
        })
    );
    assert_eq!(
        run.budget.used(),
        0,
        "rejected partition leaked reservation"
    );
    assert_eq!(
        engine.hash_partition_of(7, 1 << 33),
        Err(EngineError::InputTooLarge {
            what: "fanout",
            value: 1 << 33,
            limit: u32::MAX.into(),
        })
    );
}
