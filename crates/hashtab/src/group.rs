//! The engine's group-by: per distinct key, `COUNT(*)` and
//! `SUM(payload)`, as `(key, count, sum)` rows sorted by key.
//!
//! A [`GroupAggTable`] costs a few nanoseconds per tuple while it fits in
//! L2 and several times that once it does not. [`group_by_sum`] therefore
//! takes one of two routes, chosen from a bound on the group count:
//!
//! * **Single table.** Each worker aggregates claimed morsels into a
//!   private table sized for the bound. The tables are merged into the
//!   largest, whose rows are sorted.
//! * **Partitioned.** When a table for the bound would outgrow L2, one
//!   radix pass on the keys' top varying bits cuts the input into at most
//!   256 parts, and each part is aggregated in its own cache-sized table,
//!   one stealable task per part (paper §7's partitioning for cache
//!   residence, applied to aggregation as in Müller et al., "Cache-Efficient
//!   Aggregation: Hashing Is Sorting", SIGMOD 2015). The keys share every
//!   bit above the varying ones, so the parts are ascending key ranges:
//!   the output is their sorted rows in part order, with no merge of
//!   worker tables and no global sort.

use rsv_exec::{
    parallel_scope_try, EngineError, ExecPolicy, MorselQueue, L2_BYTES, PART_TABLE_BYTES,
};
use rsv_metrics::Metric;
use rsv_partition::tasks::partition_then_tasks;
use rsv_partition::twopass::MAX_DIRECT_FANOUT;
use rsv_partition::{varying_bits_where, RadixFn};
use rsv_simd::{KernelKind, Simd};

use crate::{GroupAggTable, EMPTY_KEY};

/// One group-by output row: `(key, count, sum)`.
pub type GroupRow = (u32, u32, u64);

/// Load factor of every group-by table.
const LOAD: f64 = 0.5;

/// Table bytes per group at [`LOAD`]: two buckets of four `u32` arrays.
const GROUP_BYTES: usize = 32;

/// The engine's part bound: the groups of a table of [`PART_TABLE_BYTES`]
/// (8K groups in 256 KiB).
pub const AGG_PART_GROUPS: usize = PART_TABLE_BYTES / GROUP_BYTES;

/// A single table serves fewer than this many part bounds of groups. At
/// [`AGG_PART_GROUPS`] that is 64K groups, the table that fills
/// [`L2_BYTES`]. On a 2-vCPU AVX-512 host (1M uniform tuples) the single
/// table was as fast or faster up to 48K groups on 2 threads and up to
/// 56K on 1, and the partitioned route 1.1–1.3× faster from 64K groups.
const SINGLE_TABLE_PARTS: usize = L2_BYTES / PART_TABLE_BYTES;

/// Group `keys`/`pays` by key with `kind`'s kernels: `(key, count, sum)`
/// rows sorted by key, one per distinct key, every `u32` key included.
///
/// The group count is bounded by `min(expected_groups, keys.len())`. Below
/// `8 × part_groups` groups (at [`AGG_PART_GROUPS`], a table smaller than
/// [`L2_BYTES`]), the single-table route runs with tables sized for that
/// bound. Past it, the bound is also capped by the key span `2^v`, where
/// `v` is the number of bits in which the keys other than [`EMPTY_KEY`]
/// vary; if the group-by still needs a larger table, it takes the
/// partitioned route (see [`group_by_partitioned`]). The output does not
/// depend on the route, the thread count or the morsel size.
///
/// Honours `policy.run`: the single route reserves `threads` tables for
/// its bound; the partitioned route reserves its partitioned copy and
/// its part tables. A table that outgrows an underestimated bound is
/// charged by the end of the morsel, merge or part that grew it, or the
/// group-by fails with [`EngineError::BudgetExceeded`]. Cancellation is
/// observed at every morsel and task claim, and a worker panic surfaces
/// as [`EngineError::WorkerPanicked`].
pub fn group_by_sum<S: Simd>(
    kind: KernelKind<S>,
    keys: &[u32],
    pays: &[u32],
    expected_groups: usize,
    part_groups: usize,
    policy: &ExecPolicy,
) -> Result<Vec<GroupRow>, EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(part_groups >= 1, "part bound must be at least one group");
    let single_limit = part_groups.saturating_mul(SINGLE_TABLE_PARTS);
    let groups = expected_groups.min(keys.len()).max(1);
    if groups < single_limit {
        return single_table(kind, keys, pays, groups, policy);
    }
    let varying = key_bits(keys);
    match span(varying) {
        span if span < single_limit as u64 => single_table(kind, keys, pays, span as usize, policy),
        _ => partitioned(kind, keys, pays, groups, varying, part_groups, policy),
    }
}

/// The partitioned route of [`group_by_sum`], taken whatever the group
/// count: same rows, same guarantees.
///
/// With `v` varying bits (of the keys other than [`EMPTY_KEY`]) and the
/// bound `b = min(expected_groups, len, 2^v)`, the input is
/// radix-partitioned on its top `log2(F)` varying bits into
/// `F = min(next_pow2(ceil(b / part_groups)), 256, 2^v)` parts. [`EMPTY_KEY`] has every bit set, so it
/// lands in the last part, whose side slot emits it last. `F` is added to
/// [`Metric::AggPartitionFanout`]. One part (all keys equal, or `b ≤
/// part_groups`) needs no partition pass and runs the single-table route
/// instead.
///
/// Each part is aggregated in a table for `ceil(b / F)` groups, or, when
/// its share of the bound, `ceil(b × part_len / len)`, is more than that,
/// for its share (at most its `2^v / F` possible keys), so a part whose
/// share is right never grows its table. Either way the table holds at
/// most the part's tuples. Parts are key ranges, so keys crowded into a
/// few ranges make a few large parts, each one task.
///
/// Reserves the partitioned copy (8 bytes per tuple), the partition
/// pass's staging buffers for the length of the pass, and, for each of
/// its `min(threads, F)` workers, the largest part's table against
/// `policy.run`'s budget, so the reservation does not depend on which
/// worker ran which part. A part table that grew past its bound raises
/// its worker's reservation to its size until the tasks finish.
pub fn group_by_partitioned<S: Simd>(
    kind: KernelKind<S>,
    keys: &[u32],
    pays: &[u32],
    expected_groups: usize,
    part_groups: usize,
    policy: &ExecPolicy,
) -> Result<Vec<GroupRow>, EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(part_groups >= 1, "part bound must be at least one group");
    let groups = expected_groups.min(keys.len()).max(1);
    partitioned(
        kind,
        keys,
        pays,
        groups,
        key_bits(keys),
        part_groups,
        policy,
    )
}

/// The bits in which the keys other than [`EMPTY_KEY`] differ
/// ([`rsv_partition::varying_bits`] without it). That group lives in a
/// table's side slot and needs no bucket, so it must not choose the radix
/// bits either: with it, bit 31 would vary, and every key below `2^31`
/// would land in part 0.
fn key_bits(keys: &[u32]) -> u32 {
    varying_bits_where(keys, |k| k != EMPTY_KEY)
}

/// Possible distinct keys given their varying bits: `2^v`.
fn span(varying: u32) -> u64 {
    1 << (32 - varying.leading_zeros())
}

/// The single-table route for at most `groups` groups.
fn single_table<S: Simd>(
    kind: KernelKind<S>,
    keys: &[u32],
    pays: &[u32],
    groups: usize,
    policy: &ExecPolicy,
) -> Result<Vec<GroupRow>, EngineError> {
    let table_bytes = GroupAggTable::bytes_for(groups, LOAD);
    let q = MorselQueue::new(keys.len(), policy, 16);
    let tables = parallel_scope_try(policy.threads, |ctx| {
        let mut table = policy
            .run
            .hold(table_bytes, || GroupAggTable::new(groups, LOAD))?;
        for mo in ctx.morsels(&q) {
            let r = mo.range.clone();
            ctx.phase("aggregate", || {
                table.update_with(kind, &keys[r.clone()], &pays[r])
            });
            table.grow_to(table.size_bytes())?;
        }
        Ok::<_, EngineError>(table)
    })?;
    policy.run.check_cancelled()?;
    let mut tables = tables.into_iter().collect::<Result<Vec<_>, _>>()?;
    // The merge is commutative and keys are unique, so merging into the
    // table holding the most groups is schedule-independent.
    let Some(largest) = (0..tables.len()).max_by_key(|&i| tables[i].groups()) else {
        return Ok(Vec::new());
    };
    let mut merged = tables.swap_remove(largest);
    for table in tables {
        merged.merge(&table);
        merged.grow_to(merged.size_bytes())?;
    }
    Ok(merged.into_inner().into_sorted_rows())
}

/// The partitioned route for at most `groups` groups of keys that vary in
/// the bits of `varying`.
fn partitioned<S: Simd>(
    kind: KernelKind<S>,
    keys: &[u32],
    pays: &[u32],
    groups: usize,
    varying: u32,
    part_groups: usize,
    policy: &ExecPolicy,
) -> Result<Vec<GroupRow>, EngineError> {
    let span = span(varying);
    let bound = (groups as u64).min(span);
    let parts = bound
        .div_ceil(part_groups as u64)
        .next_power_of_two()
        .min(MAX_DIRECT_FANOUT as u64)
        .min(span);
    let per_part = bound.div_ceil(parts) as usize;
    rsv_metrics::count(Metric::AggPartitionFanout, parts);
    if parts == 1 {
        return single_table(kind, keys, pays, per_part, policy);
    }

    // The top `bits` of the `v` varying bits: `parts ≤ 2^v`, so they fit.
    let v = 32 - varying.leading_zeros();
    let bits = parts.trailing_zeros();
    let f = RadixFn::new(v - bits, bits);
    let part_span = span >> bits;
    let len = keys.len() as u64;
    // A part of `tuples` tuples gets a table for `per_part` groups, or,
    // when its share of the bound is more (which would grow that table
    // past its load factor), for its share; never for more groups than
    // tuples. The groups grow with the part, so the largest part's table
    // is the largest.
    let table_groups = |tuples: usize| {
        let share = (bound * tuples as u64).div_ceil(len);
        let groups = if share > per_part as u64 {
            share.min(part_span) as usize
        } else {
            per_part
        };
        groups.min(tuples)
    };
    let run = partition_then_tasks(
        kind,
        f,
        [(keys, pays)],
        policy,
        "aggregate",
        // a worker's slot holds the largest part's table from the
        // worker's start, so the reservation does not depend on which
        // parts the worker claims
        |[sizes]| {
            let largest = sizes.iter().max().map_or(0, |&t| t as usize);
            let bytes = GroupAggTable::bytes_for(table_groups(largest), LOAD);
            Ok((policy.run.hold(bytes, || None)?, Vec::new()))
        },
        |(slot, done), p, [(keys, pays)]| {
            if keys.is_empty() {
                return Ok(());
            }
            let table = slot.insert(GroupAggTable::new(table_groups(keys.len()), LOAD));
            table.update_with(kind, keys, pays);
            let grown = table.size_bytes();
            slot.grow_to(grown)?;
            done.extend(slot.take().map(|table| (p, table.into_sorted_rows())));
            Ok(())
        },
    )?;
    let mut done: Vec<_> = run.workers.into_iter().flat_map(|(_, done)| done).collect();
    done.sort_unstable_by_key(|&(p, _)| p);
    let mut rows = Vec::with_capacity(done.iter().map(|(_, rows)| rows.len()).sum());
    for (_, part_rows) in done {
        rows.extend_from_slice(&part_rows);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_exec::RunContext;
    use rsv_simd::Portable;
    use std::collections::BTreeMap;

    fn reference(keys: &[u32], pays: &[u32]) -> Vec<GroupRow> {
        let mut groups: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
        for (&k, &p) in keys.iter().zip(pays) {
            let g = groups.entry(k).or_default();
            g.0 += 1;
            g.1 += u64::from(p);
        }
        groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
    }

    fn metered_fanout(f: impl FnOnce() -> Vec<GroupRow>) -> (Vec<GroupRow>, u64) {
        let (rows, sink) = rsv_metrics::collect(f);
        (rows, sink.total().get(Metric::AggPartitionFanout))
    }

    #[test]
    fn engine_bounds_fit_l2() {
        assert_eq!(AGG_PART_GROUPS, 8 << 10);
        assert_eq!(
            GroupAggTable::bytes_for(1_000, LOAD),
            1_000 * GROUP_BYTES as u64
        );
        assert_eq!(
            GroupAggTable::bytes_for(AGG_PART_GROUPS * SINGLE_TABLE_PARTS, LOAD),
            L2_BYTES as u64
        );
    }

    /// Both routes give the reference rows at every thread count, and the
    /// route follows the bound: a small bound, a small key span, or else
    /// the partitioned route with its documented fanout.
    #[test]
    fn routes_agree_with_the_reference() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let mut rng = rsv_data::rng(4242);
        let n = 20_000;
        let wide: Vec<u32> = rsv_data::uniform_u32(n, &mut rng);
        // 12 varying bits with the sentinel on top: 4096 possible keys
        let narrow: Vec<u32> = wide.iter().map(|k| (k & 0xFFF) | 0xFFFF_F000).collect();
        let pays = rsv_data::uniform_u32(n, &mut rng);
        // part bound 64: a single table serves fewer than 512 groups
        for (keys, expected, fanout) in [
            (&wide, 300, 0),      // small bound
            (&narrow, n, 64),     // span 4096 > 512: 64 parts of 64 groups
            (&wide, n, 256),      // 20_000 / 64 = 313 -> capped at 256
            (&wide, 10_000, 256), // 157 -> 256
            (&wide, 4_000, 64),   // 63 -> 64
        ] {
            let want = reference(keys, &pays);
            for threads in [1usize, 2, 8] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(1_000);
                let (rows, got) = metered_fanout(|| {
                    group_by_sum(kind, keys, &pays, expected, 64, &policy).unwrap()
                });
                assert_eq!(rows, want, "expected {expected} t={threads}");
                assert_eq!(got, fanout, "expected {expected} t={threads}");
            }
        }
    }

    #[test]
    fn partitioned_route_edges() {
        let policy = ExecPolicy::new(2);
        for kind in [
            KernelKind::SCALAR,
            KernelKind::Vector(Portable::<16>::new()),
        ] {
            // one distinct key: no varying bit, one part, no partition pass
            let one = vec![7u32; 1_000];
            let pays: Vec<u32> = (0..1_000).collect();
            let (rows, fanout) = metered_fanout(|| {
                group_by_partitioned(kind, &one, &pays, 1_000, 1, &policy).unwrap()
            });
            assert_eq!((rows, fanout), (reference(&one, &pays), 1));
            // the sentinel lands last; bit 31 varies; most tuples in part 0
            let mut keys: Vec<u32> = (0..1_000).map(|i| i % 3).collect();
            keys.extend([u32::MAX, 1 << 31, u32::MAX, 12345]);
            let pays: Vec<u32> = (0..keys.len() as u32).collect();
            let (rows, fanout) = metered_fanout(|| {
                group_by_partitioned(kind, &keys, &pays, keys.len(), 1, &policy).unwrap()
            });
            assert_eq!(rows, reference(&keys, &pays));
            assert_eq!(rows.last().map(|r| r.0), Some(u32::MAX));
            assert_eq!(fanout, 256);
            // no input
            let rows = group_by_partitioned(kind, &[], &[], 10, 1, &policy).unwrap();
            assert!(rows.is_empty());
        }
    }

    /// The sentinel does not choose the radix bits: 4096 dense keys with
    /// `u32::MAX` among them split into 64 parts of 64 keys, every table
    /// fits its share, and the documented bytes suffice exactly: the
    /// partitioned copy, plus the larger of the pass's staging buffers
    /// (released before the tasks start) and the workers' tables. A real
    /// outlier key crowds the dense keys into part 0, so each worker
    /// reserves part 0's larger table.
    #[test]
    fn part_tables_follow_their_share() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let mut keys: Vec<u32> = (0..4_096u32)
            .map(|i| i.wrapping_mul(2654435761) & 0xFFF)
            .collect();
        for at in [0, 999, 4_000] {
            keys.insert(at, u32::MAX);
        }
        let outlier: Vec<u32> = (0..4_096u32).chain([1 << 31]).collect();
        let table = |groups| GroupAggTable::bytes_for(groups, LOAD);
        // 2 morsels, one 16-lane line of 8-byte tuples per part each
        let staging = |parts: u64| 2 * parts * 16 * 8;
        assert!(staging(64) > 2 * table(64));
        assert!(staging(128) < 2 * table(4_096));
        for (keys, bytes, fanout) in [
            (&keys, 8 * keys.len() as u64 + staging(64), 64),
            // 4097 groups at part bound 64: 128 parts of 33 groups, but
            // part 0 holds 4096 keys, so both workers hold its table
            (&outlier, 8 * 4_097 + 2 * table(4_096), 128),
        ] {
            let want = reference(keys, keys);
            for (limit, ok) in [(bytes, true), (bytes - 1, false)] {
                let policy =
                    ExecPolicy::new(2).with_run(RunContext::new().with_memory_limit(limit));
                let (result, got) = metered_fanout(|| {
                    let result = group_by_sum(kind, keys, keys, keys.len(), 64, &policy);
                    assert_eq!(result.is_ok(), ok, "limit {limit}");
                    result.unwrap_or_default()
                });
                if ok {
                    assert_eq!((result, got), (want.clone(), fanout));
                }
                assert_eq!(policy.run.budget.used(), 0);
            }
        }
    }

    #[test]
    fn partitioned_route_budget_and_cancel() {
        let kind = KernelKind::Vector(Portable::<16>::new());
        let keys: Vec<u32> = (0..4_096u32).map(|i| i.wrapping_mul(2654435761)).collect();
        // 4096 distinct keys at part bound 64: 64 parts on the top 6 key
        // bits, of about 64 groups each; both workers hold a table for the
        // largest part, whichever parts they run
        let mut sizes = [0usize; 64];
        for k in &keys {
            sizes[(k >> 26) as usize] += 1;
        }
        let largest = sizes.into_iter().max().unwrap();
        assert!(largest > 64, "no part above its share of the bound");
        // the pass's staging (2 morsels × 64 parts × 16 lanes × 8 bytes)
        // is released before the tables are reserved
        let tables = 2 * GroupAggTable::bytes_for(largest, LOAD);
        let bytes = 8 * 4_096 + tables.max(2 * 64 * 16 * 8);
        for (limit, ok) in [(bytes, true), (bytes - 1, false)] {
            let policy = ExecPolicy::new(2).with_run(RunContext::new().with_memory_limit(limit));
            let result = group_by_sum(kind, &keys, &keys, 4_096, 64, &policy);
            assert_eq!(result.is_ok(), ok, "limit {limit}");
            assert_eq!(policy.run.budget.used(), 0);
        }
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(2).with_run(run);
        let err = group_by_sum(kind, &keys, &keys, 4_096, 64, &policy).unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err}");
    }
}
