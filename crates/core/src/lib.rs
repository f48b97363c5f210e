//! High-level API for the SIGMOD 2015 *Rethinking SIMD Vectorization for
//! In-Memory Databases* reproduction.
//!
//! This crate re-exports every operator crate and offers [`Engine`], a
//! convenience wrapper that picks the best SIMD backend at runtime and
//! exposes the paper's operators — selection scans, hash joins, Bloom
//! semi-joins, partitioning and sorting — as one-call methods.
//!
//! ```
//! use rsv_core::{Engine, Relation};
//!
//! let engine = Engine::new();
//! let orders = Relation::with_rid_payloads(vec![40, 10, 30, 20]);
//! let cheap = engine.select(&orders, 0, 25);
//! assert_eq!(cheap.keys, vec![10, 20]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Engine code surfaces failures as typed `EngineError`s, not panics.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod profile;

pub use rsv_bloom as bloom;
pub use rsv_column as column;
pub use rsv_data as data;
pub use rsv_exec as exec;
pub use rsv_hashtab as hashtab;
pub use rsv_join as join;
pub use rsv_metrics as metrics;
pub use rsv_partition as partition;
pub use rsv_scan as scan;
pub use rsv_simd as simd;
pub use rsv_sort as sort;

pub use profile::QueryProfile;

pub use rsv_bloom::{BlockedBloomFilter, BloomFilter};
pub use rsv_column::{CompressedColumn, CompressedRelation, RelationCompressExt};
pub use rsv_data::Relation;
pub use rsv_hashtab::JoinSink;
pub use rsv_join::{JoinResult, JoinVariant};
pub use rsv_simd::Backend;
pub use rsv_sort::SortConfig;

pub use rsv_exec::{CancelToken, EngineError, MemoryBudget, RunContext};

use rsv_exec::{expect_infallible, filter_parallel, ExecPolicy, DEFAULT_MORSEL_TUPLES};
use rsv_partition::PartitionFn;
use rsv_scan::ScanPredicate;
use rsv_simd::{bitmap, dispatch, KernelKind};

/// Bits per filter key of [`Engine::bloom_semijoin`]'s filter: about a
/// 1.7 % false-positive rate, which the join after it removes.
pub const BLOOM_BITS_PER_KEY: usize = 10;

/// A vectorized in-memory query engine over 32-bit key/payload columns.
///
/// Parallel operators run on the morsel-driven work-stealing scheduler
/// ([`rsv_exec::MorselQueue`]); their output is byte-identical for every
/// thread count and morsel size (joins up to result row order, which is
/// inherently unstable under vectorized probing). An input relation or
/// filter-key slice longer than `u32::MAX` tuples fails every `try_*`
/// operator with [`EngineError::InputTooLarge`].
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    backend: Backend,
    threads: usize,
    morsel_tuples: usize,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Engine on the best available SIMD backend, single-threaded.
    pub fn new() -> Self {
        Self::with_backend(Backend::best())
    }

    /// Engine on a specific backend.
    pub fn with_backend(backend: Backend) -> Self {
        Engine {
            backend,
            threads: 1,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
        }
    }

    /// Set the worker thread count for parallel operators. Values below 1
    /// are clamped to 1 (a builder knob misconfigured from e.g. an empty
    /// CPU set should degrade to single-threaded, not crash the query).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Set the scheduling granularity in tuples per morsel
    /// (`usize::MAX` = one morsel per worker, the paper's static split).
    /// Never changes operator output. Values below 1 are clamped to 1.
    pub fn with_morsel_tuples(mut self, morsel_tuples: usize) -> Self {
        self.morsel_tuples = morsel_tuples.max(1);
        self
    }

    /// The backend in use.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    fn policy(&self, run: &RunContext) -> ExecPolicy {
        ExecPolicy::new(self.threads)
            .with_morsel_tuples(self.morsel_tuples)
            .with_run(run.clone())
    }

    /// Selection scan: all tuples with `lower ≤ key ≤ upper` (paper §4),
    /// morsel-parallel, in input order. The scan's two halves run as two
    /// passes over a bitmap of one bit per tuple: predicate evaluation
    /// reads only the keys and marks the qualifiers, and materialization
    /// moves the marked keys and payloads with one selective store per
    /// vector, as [`ScanVariant::VectorSelStoreDirect`] does. The
    /// predicate is evaluated once per tuple.
    ///
    /// [`ScanVariant::VectorSelStoreDirect`]: rsv_scan::ScanVariant::VectorSelStoreDirect
    pub fn select(&self, rel: &Relation, lower: u32, upper: u32) -> Relation {
        expect_infallible(self.try_select(rel, lower, upper, &RunContext::default()))
    }

    /// Fallible [`Engine::select`] under a [`RunContext`]: the selection
    /// bitmap (2 bytes per 16 input tuples) and the two output columns
    /// (8 bytes per qualifying tuple) are gated by the run's memory
    /// budget, cancellation is observed at morsel-claim boundaries (so the
    /// latency from [`CancelToken::cancel`] to return is bounded by one
    /// morsel), and a worker panic surfaces as
    /// [`EngineError::WorkerPanicked`] instead of unwinding through the
    /// caller.
    pub fn try_select(
        &self,
        rel: &Relation,
        lower: u32,
        upper: u32,
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        check_tuples(&[rel.len()])?;
        let (keys, payloads) = rsv_scan::scan_parallel(
            self.backend,
            &rel.keys,
            &rel.payloads,
            ScanPredicate { lower, upper },
            &self.policy(run),
        )?;
        Ok(Relation::new(keys, payloads))
    }

    /// Compress a relation's columns (FOR + bit-packing, block directory)
    /// on this engine's backend. See [`rsv_column`].
    pub fn compress(&self, rel: &Relation) -> CompressedRelation {
        CompressedRelation::compress_with(self.backend, rel)
    }

    /// Decompress a compressed relation back to materialized columns.
    pub fn decompress(&self, rel: &CompressedRelation) -> Relation {
        rel.decompress_with(self.backend)
    }

    /// Fused compressed selection scan: like [`Engine::select`], but the
    /// input stays bit-packed and qualifying blocks are decompressed into
    /// registers on the fly (never materialized), morsel-parallel with
    /// block-aligned morsels. A first pass decodes and compares the key
    /// blocks only, marking the qualifiers in a bitmap; a second pass
    /// decodes the key and payload vectors of the blocks holding a mark
    /// and moves the marked tuples with one selective store each, as
    /// [`ScanVariant::VectorSelStoreDirect`] does. Blocks without a
    /// qualifier never touch the payload column. Output is byte-identical
    /// to `self.select(&self.decompress(rel), lower, upper)`.
    ///
    /// [`ScanVariant::VectorSelStoreDirect`]: rsv_scan::ScanVariant::VectorSelStoreDirect
    pub fn select_compressed(&self, rel: &CompressedRelation, lower: u32, upper: u32) -> Relation {
        expect_infallible(self.try_select_compressed(rel, lower, upper, &RunContext::default()))
    }

    /// Fallible [`Engine::select_compressed`] under a [`RunContext`], with
    /// the guarantees of [`Engine::try_select`]: its selection bitmap (2
    /// bytes per 16 tuples) and its two output columns (8 bytes per
    /// qualifying tuple) are gated by the run's memory budget.
    pub fn try_select_compressed(
        &self,
        rel: &CompressedRelation,
        lower: u32,
        upper: u32,
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        check_tuples(&[rel.len()])?;
        let (keys, payloads) = rsv_column::select_fused_parallel(
            self.backend,
            &rel.keys,
            &rel.payloads,
            ScanPredicate { lower, upper },
            &self.policy(run),
        )?;
        Ok(Relation::new(keys, payloads))
    }

    /// Hash join `inner ⋈ outer` on the key columns using the paper's
    /// fastest variant (max-partition, §9). Returns `(key, inner payload,
    /// outer payload)` triples.
    pub fn hash_join(&self, inner: &Relation, outer: &Relation) -> JoinResult {
        self.hash_join_variant(inner, outer, JoinVariant::MaxPartition)
    }

    /// Hash join with an explicit variant.
    pub fn hash_join_variant(
        &self,
        inner: &Relation,
        outer: &Relation,
        variant: JoinVariant,
    ) -> JoinResult {
        expect_infallible(self.try_hash_join_variant(inner, outer, variant, &RunContext::default()))
    }

    /// Fallible [`Engine::hash_join_variant`] (and, with
    /// [`JoinVariant::MaxPartition`], [`Engine::hash_join`]) under a
    /// [`RunContext`]: partitioned columns, the partition passes' staging
    /// buffers, hash tables and the workers' result sinks
    /// (12 bytes per result slot, charged as each worker's sink grows
    /// after a probe morsel or part task) are gated by the memory budget;
    /// the sinks' bytes are released when the join returns, so the
    /// returned [`JoinResult`] holds no reservation. Cancellation is
    /// observed at every morsel/task claim, and worker panics surface as
    /// [`EngineError::WorkerPanicked`].
    pub fn try_hash_join_variant(
        &self,
        inner: &Relation,
        outer: &Relation,
        variant: JoinVariant,
        run: &RunContext,
    ) -> Result<JoinResult, EngineError> {
        check_tuples(&[inner.len(), outer.len()])?;
        let policy = self.policy(run);
        dispatch!(self.backend, s => {
            match variant {
                JoinVariant::NoPartition => {
                    rsv_join::join_no_partition(KernelKind::Vector(s), inner, outer, &policy)
                }
                JoinVariant::MinPartition => {
                    rsv_join::join_min_partition(KernelKind::Vector(s), inner, outer, &policy)
                }
                JoinVariant::MaxPartition => rsv_join::join_max_partition(
                    KernelKind::Vector(s), inner, outer, &policy, rsv_join::part_tuples(inner.len()),
                ),
            }
        })
    }

    /// Bloom-filter semi-join (paper §6): keep the tuples of `rel` whose
    /// key is (probably) present in `filter_keys`. The filter is a
    /// [`BlockedBloomFilter`] at [`BLOOM_BITS_PER_KEY`] bits per key, built
    /// per worker and OR-merged; probing is morsel-parallel, one block
    /// gather per key into a bitmap of survivors, which a second pass
    /// compacts in input order.
    pub fn bloom_semijoin(&self, rel: &Relation, filter_keys: &[u32]) -> Relation {
        expect_infallible(self.try_bloom_semijoin(rel, filter_keys, &RunContext::default()))
    }

    /// Fallible [`Engine::bloom_semijoin`] under a [`RunContext`]: the
    /// workers' build filters (`threads ×`
    /// [`BlockedBloomFilter::bytes_for`]), then the merged filter (still
    /// holding its build bytes), the probe's survivor bitmap (2 bytes
    /// per 16 tuples) and the two output columns (8 bytes per qualifying
    /// tuple) during the probe, are gated by the memory budget; cancellation is observed at
    /// morsel-claim boundaries, and a worker panic surfaces as
    /// [`EngineError::WorkerPanicked`].
    pub fn try_bloom_semijoin(
        &self,
        rel: &Relation,
        filter_keys: &[u32],
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        check_tuples(&[rel.len(), filter_keys.len()])?;
        let policy = self.policy(run);
        let filter = rsv_bloom::build_parallel(filter_keys, BLOOM_BITS_PER_KEY, &policy)?;
        let (keys, payloads) = dispatch!(self.backend, s => {
            filter_parallel(
                rel.len(),
                bitmap::WORD_TUPLES,
                "bloom-probe",
                &policy,
                |r, bits| filter.mark_vector(s, &rel.keys[r], bits),
                |r, bits, ok, op| {
                    bitmap::take(s, &rel.keys[r.clone()], &rel.payloads[r], bits, ok, op)
                },
            )
        })?;
        Ok(Relation::new(keys, payloads))
    }

    /// Stable LSB radixsort by key (paper §8).
    pub fn sort(&self, rel: &mut Relation) {
        expect_infallible(self.try_sort(rel, &RunContext::default()))
    }

    /// Fallible [`Engine::sort`] under a [`RunContext`]: the radixsort's
    /// ping-pong scratch columns (8 bytes per tuple) and, during each
    /// pass, its staging buffers (one line of lanes × 8 bytes per
    /// partition per morsel; see [`rsv_partition::parallel::partition_pass`])
    /// are gated by the memory budget, and cancellation is observed at
    /// morsel-claim boundaries of every pass.
    /// On error the relation keeps its tuples (possibly partially
    /// reordered — rerun to completion to sort them).
    pub fn try_sort(&self, rel: &mut Relation, run: &RunContext) -> Result<(), EngineError> {
        check_tuples(&[rel.len()])?;
        let policy = self.policy(run);
        dispatch!(self.backend, s => {
            rsv_sort::radixsort_pairs(
                KernelKind::Vector(s), &mut rel.keys, &mut rel.payloads, &SortConfig::default(),
                &policy,
            )
        })
    }

    /// Hash-partition a relation into `fanout` parts (paper §7, buffered
    /// shuffling), morsel-parallel and stable. Returns the partitioned
    /// relation and the partition start offsets. A fanout of 0 is clamped
    /// to 1.
    ///
    /// Fanouts past [`rsv_partition::twopass::MAX_DIRECT_FANOUT`] (256)
    /// take two passes, a wide one and an in-cache split of each region
    /// (the single-pass staging buffers would outgrow the cache), with
    /// byte-identical output.
    /// Panics on a fanout past `u32::MAX`, which [`Engine::try_hash_partition`]
    /// reports as [`EngineError::InputTooLarge`].
    pub fn hash_partition(&self, rel: &Relation, fanout: usize) -> (Relation, Vec<u32>) {
        expect_infallible(self.try_hash_partition(rel, fanout, &RunContext::default()))
    }

    /// Fallible [`Engine::hash_partition`] under a [`RunContext`]: the
    /// output columns (8 bytes per tuple), the pass's staging buffers
    /// (lanes × 8 bytes per partition per morsel, held during the pass;
    /// see [`rsv_partition::parallel::partition_pass`]) and, past
    /// [`rsv_partition::twopass::MAX_DIRECT_FANOUT`], the split's worker
    /// scratch (8 bytes per tuple of the `threads` largest regions) are
    /// gated by the memory budget, and cancellation is observed at
    /// morsel-claim boundaries.
    /// The partition function scales a 32-bit hash by the fanout, so a
    /// fanout past `u32::MAX` fails with [`EngineError::InputTooLarge`].
    pub fn try_hash_partition(
        &self,
        rel: &Relation,
        fanout: usize,
        run: &RunContext,
    ) -> Result<(Relation, Vec<u32>), EngineError> {
        check_tuples(&[rel.len()])?;
        let f = hash_fn(fanout)?;
        let mut out_keys = run.vec(rel.len(), 0u32)?;
        let mut out_pays = run.vec(rel.len(), 0u32)?;
        let pass = dispatch!(self.backend, s => {
            rsv_partition::twopass::partition_twopass(
                KernelKind::Vector(s), f, &rel.keys, &rel.payloads, &mut out_keys, &mut out_pays,
                &self.policy(run),
            )
        })?;
        let out = Relation::new(out_keys.into_inner(), out_pays.into_inner());
        Ok((out, pass.partition_starts))
    }

    /// Which partition a key belongs to under [`Engine::hash_partition`]
    /// with `fanout` parts; a fanout past `u32::MAX` fails with
    /// [`EngineError::InputTooLarge`], as in [`Engine::try_hash_partition`].
    pub fn hash_partition_of(&self, key: u32, fanout: usize) -> Result<usize, EngineError> {
        Ok(hash_fn(fanout)?.partition(key))
    }

    /// Group-by aggregation: per distinct key, `COUNT(*)` and
    /// `SUM(payload)` (vectorized hash aggregation, paper §5's second
    /// hash-table use case). Returns `(key, count, sum)` rows sorted by
    /// key, one per distinct key. Every `u32` key is accepted, `u32::MAX`
    /// included.
    ///
    /// `expected_groups` bounds the group count; it may be any estimate
    /// (e.g. `rel.len()`), since tables grow past it, and it is clamped to
    /// `rel.len()`. While a table for that bound is smaller than
    /// [`rsv_exec::L2_BYTES`] (fewer than 64K groups), workers aggregate
    /// claimed morsels into private tables that are then merged and
    /// sorted. Past it, the bound is also capped by the keys' span; if that
    /// still needs a larger table, one radix pass cuts the input into key
    /// ranges of about [`rsv_hashtab::group::AGG_PART_GROUPS`] groups,
    /// each aggregated in its own L2-resident table, and the ranges' rows
    /// concatenate in key order ([`rsv_hashtab::group::group_by_sum`]).
    /// Either way the result is schedule-independent.
    pub fn group_by_sum(&self, rel: &Relation, expected_groups: usize) -> Vec<(u32, u32, u64)> {
        expect_infallible(self.try_group_by_sum(rel, expected_groups, &RunContext::default()))
    }

    /// Fallible [`Engine::group_by_sum`] under a [`RunContext`]:
    /// cancellation is observed at morsel- and task-claim boundaries and a
    /// worker panic surfaces as [`EngineError::WorkerPanicked`] after the
    /// sibling workers drain. The single-table route reserves the workers'
    /// tables as sized by the bound (`threads` tables); the partitioned
    /// route reserves its partitioned copy (8 bytes per tuple), its
    /// partition pass's staging buffers while the pass runs, and then
    /// `min(threads, parts)` part tables, each sized for the largest
    /// part's share of the groups. A table that grows
    /// past an underestimated bound is charged for its growth by the end
    /// of the morsel, merge or part that grew it. A budget smaller than
    /// that fails with [`EngineError::BudgetExceeded`].
    pub fn try_group_by_sum(
        &self,
        rel: &Relation,
        expected_groups: usize,
        run: &RunContext,
    ) -> Result<Vec<(u32, u32, u64)>, EngineError> {
        check_tuples(&[rel.len()])?;
        let policy = self.policy(run);
        dispatch!(self.backend, s => {
            rsv_hashtab::group::group_by_sum(
                KernelKind::Vector(s), &rel.keys, &rel.payloads, expected_groups,
                rsv_hashtab::group::AGG_PART_GROUPS, &policy,
            )
        })
    }
}

/// Every operator input (relation or filter-key slice) is at most
/// `u32::MAX` tuples long: partition offsets, histograms and group counts
/// are `u32` and would wrap silently past that.
fn check_tuples(lens: &[usize]) -> Result<(), EngineError> {
    match lens.iter().find(|&&len| len > u32::MAX as usize) {
        Some(&len) => Err(EngineError::InputTooLarge {
            what: "tuples",
            value: len as u64,
            limit: u32::MAX.into(),
        }),
        None => Ok(()),
    }
}

/// The hash partition function of a `fanout`-way partition (0 clamps to
/// 1). It scales a 32-bit hash by the fanout, so a fanout past `u32::MAX`
/// is [`EngineError::InputTooLarge`].
fn hash_fn(fanout: usize) -> Result<rsv_partition::HashFn, EngineError> {
    if fanout > u32::MAX as usize {
        return Err(EngineError::InputTooLarge {
            what: "fanout",
            value: fanout as u64,
            limit: u32::MAX.into(),
        });
    }
    Ok(rsv_partition::HashFn::new(fanout.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new().with_threads(2)
    }

    #[test]
    fn select_filters() {
        let rel = Relation::with_rid_payloads(vec![5, 50, 500, 5000]);
        let out = engine().select(&rel, 10, 1000);
        assert_eq!(out.keys, vec![50, 500]);
        assert_eq!(out.payloads, vec![1, 2]);
    }

    #[test]
    fn select_compressed_matches_select() {
        let mut rng = rsv_data::rng(306);
        let rel = Relation::with_rid_payloads(
            rsv_data::uniform_u32(20_000, &mut rng)
                .iter()
                .map(|k| k % 100_000)
                .collect(),
        );
        for b in Backend::all_available() {
            for threads in [1usize, 4] {
                let e = Engine::with_backend(b)
                    .with_threads(threads)
                    .with_morsel_tuples(3_000);
                let c = e.compress(&rel);
                assert_eq!(e.decompress(&c), rel, "{} roundtrip", b.name());
                let raw = e.select(&rel, 10_000, 60_000);
                let fused = e.select_compressed(&c, 10_000, 60_000);
                assert_eq!(fused, raw, "{} t={threads}", b.name());
            }
        }
    }

    #[test]
    fn relation_compress_ext_is_reachable() {
        let rel = Relation::with_rid_payloads(vec![9, 8, 7, 6]);
        let c = rel.compress();
        assert_eq!(c.decompress(), rel);
    }

    #[test]
    fn join_variants_agree() {
        let mut rng = rsv_data::rng(301);
        let w = rsv_data::join_workload(2_000, 6_000, 1.0, 0.8, &mut rng);
        let e = engine();
        let results: Vec<JoinResult> = JoinVariant::ALL
            .iter()
            .map(|&v| e.hash_join_variant(&w.inner, &w.outer, v))
            .collect();
        assert_eq!(results[0].matches(), w.expected_matches);
        let fp = results[0].fingerprint();
        for r in &results[1..] {
            assert_eq!(r.matches(), w.expected_matches);
            assert_eq!(r.fingerprint(), fp);
        }
    }

    #[test]
    fn sort_orders_relation() {
        let mut rng = rsv_data::rng(302);
        let mut rel = Relation::with_rid_payloads(rsv_data::uniform_u32(10_000, &mut rng));
        let orig = rel.clone();
        engine().sort(&mut rel);
        assert!(rel.keys.windows(2).all(|w| w[0] <= w[1]));
        for (k, p) in rel.iter() {
            assert_eq!(orig.keys[p as usize], k);
        }
    }

    #[test]
    fn bloom_semijoin_no_false_negatives() {
        let mut rng = rsv_data::rng(303);
        let all = rsv_data::unique_u32(3_000, &mut rng);
        let (present, absent) = all.split_at(1_000);
        let rel =
            Relation::with_rid_payloads(present.iter().chain(absent.iter()).copied().collect());
        let out = engine().bloom_semijoin(&rel, present);
        // every present key survives; most absent keys are gone
        assert!(out.len() >= 1_000);
        assert!(out.len() < 1_000 + 200);
        let kept: std::collections::HashSet<u32> = out.keys.iter().copied().collect();
        assert!(present.iter().all(|k| kept.contains(k)));
    }

    #[test]
    fn partition_respects_function() {
        let mut rng = rsv_data::rng(304);
        let rel = Relation::with_rid_payloads(rsv_data::uniform_u32(5_000, &mut rng));
        let e = engine();
        let (out, starts) = e.hash_partition(&rel, 16);
        assert_eq!(out.len(), rel.len());
        assert_eq!(starts.len(), 16);
        for p in 0..16 {
            let end = if p + 1 < 16 {
                starts[p + 1] as usize
            } else {
                out.len()
            };
            for q in starts[p] as usize..end {
                assert_eq!(e.hash_partition_of(out.keys[q], 16), Ok(p));
            }
        }
    }

    #[test]
    fn group_by_sum_matches_reference() {
        let mut rng = rsv_data::rng(305);
        let keys: Vec<u32> = rsv_data::uniform_u32(20_000, &mut rng)
            .iter()
            .map(|k| k % 500)
            .collect();
        let rel = Relation::new(keys.clone(), rsv_data::uniform_u32(20_000, &mut rng));
        let rows = engine().group_by_sum(&rel, 500);
        let mut expected: std::collections::HashMap<u32, (u32, u64)> = Default::default();
        for (k, v) in rel.iter() {
            let e = expected.entry(k).or_default();
            e.0 += 1;
            e.1 += u64::from(v);
        }
        assert_eq!(rows.len(), expected.len());
        for (k, c, s) in rows {
            assert_eq!(expected[&k], (c, s), "group {k}");
        }
    }

    /// A group count past the single-table limit takes the partitioned
    /// route: 150K keys vary in their low 18 bits (the two `u32::MAX` keys
    /// live in the side slot and do not count), so 32 parts of 8192
    /// possible keys. The rows match a `BTreeMap` reference at every
    /// thread count, and a small group-by stays on the single table.
    #[test]
    fn group_by_sum_partitions_past_l2() {
        use rsv_metrics::Metric;
        let mut rng = rsv_data::rng(307);
        let n = 200_000;
        let mut keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
            .iter()
            .map(|k| k % 150_000)
            .collect();
        keys[7] = u32::MAX;
        keys[n - 1] = u32::MAX;
        let rel = Relation::new(keys, rsv_data::uniform_u32(n, &mut rng));
        let mut expected: std::collections::BTreeMap<u32, (u32, u64)> = Default::default();
        for (k, v) in rel.iter() {
            let e = expected.entry(k).or_default();
            e.0 += 1;
            e.1 += u64::from(v);
        }
        let expected: Vec<(u32, u32, u64)> =
            expected.into_iter().map(|(k, (c, s))| (k, c, s)).collect();
        for threads in [1usize, 2] {
            let e = Engine::new().with_threads(threads);
            let (rows, sink) = rsv_metrics::collect(|| e.group_by_sum(&rel, 150_000));
            let c = sink.total();
            assert_eq!(rows, expected, "t={threads}");
            assert_eq!(c.get(Metric::AggPartitionFanout), 32, "t={threads}");
            assert_eq!(c.get(Metric::PartShuffleTuples), n as u64, "t={threads}");
            let (_, sink) = rsv_metrics::collect(|| e.group_by_sum(&rel, 16));
            let c = sink.total();
            assert_eq!(c.get(Metric::AggPartitionFanout), 0, "t={threads}");
        }
    }

    #[test]
    fn inputs_past_u32_max_tuples_are_too_large() {
        let max = u32::MAX as usize;
        assert_eq!(check_tuples(&[0, max]), Ok(()));
        assert_eq!(
            check_tuples(&[1, max + 1]),
            Err(EngineError::InputTooLarge {
                what: "tuples",
                value: u64::from(u32::MAX) + 1,
                limit: u32::MAX.into(),
            })
        );
    }

    #[test]
    fn engine_runs_on_every_backend() {
        for b in Backend::all_available() {
            let e = Engine::with_backend(b);
            let rel = Relation::with_rid_payloads(vec![3, 1, 2]);
            let out = e.select(&rel, 2, 3);
            assert_eq!(out.len(), 2, "backend {}", b.name());
        }
    }
}
