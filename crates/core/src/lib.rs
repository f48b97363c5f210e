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

pub use profile::{Query, QueryProfile};

pub use rsv_bloom::{BlockedBloomFilter, BloomFilter};
pub use rsv_column::{CompressedColumn, CompressedRelation, RelationCompressExt};
pub use rsv_data::Relation;
pub use rsv_hashtab::JoinSink;
pub use rsv_join::{JoinResult, JoinVariant};
pub use rsv_simd::Backend;
pub use rsv_sort::SortConfig;

pub use rsv_exec::{CancelToken, EngineError, MemoryBudget, RunContext};

use rsv_exec::{
    column_bytes, expect_infallible, filter_parallel, parallel_scope_try, ExecPolicy, MorselQueue,
    DEFAULT_MORSEL_TUPLES,
};
use rsv_partition::twopass::MAX_DIRECT_FANOUT;
use rsv_partition::PartitionFn;
use rsv_scan::{ScanPredicate, ScanVariant};
use rsv_simd::{dispatch, KernelKind};

/// Bits per filter key of [`Engine::bloom_semijoin`]'s filter: about a
/// 1.7 % false-positive rate, which the join after it removes.
pub const BLOOM_BITS_PER_KEY: usize = 10;

/// A vectorized in-memory query engine over 32-bit key/payload columns.
///
/// Parallel operators run on the morsel-driven work-stealing scheduler
/// ([`rsv_exec::MorselQueue`]); their output is byte-identical for every
/// thread count and morsel size (joins up to result row order, which is
/// inherently unstable under vectorized probing).
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
        Engine {
            backend: Backend::best(),
            threads: 1,
            morsel_tuples: DEFAULT_MORSEL_TUPLES,
        }
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
    /// morsel-parallel, in input order. Qualifiers are materialized
    /// directly with one selective store per vector
    /// ([`ScanVariant::VectorSelStoreDirect`]): the input is read once and
    /// the payload vector is already in a register. It measured no slower
    /// than the paper's rid-buffering Algorithm 3 at any selectivity.
    pub fn select(&self, rel: &Relation, lower: u32, upper: u32) -> Relation {
        expect_infallible(self.try_select(rel, lower, upper, &RunContext::default()))
    }

    /// Fallible [`Engine::select`] under a [`RunContext`]: the two output
    /// columns (8 bytes per input tuple) are gated by the run's memory
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
        let (keys, payloads, _) = rsv_scan::scan_parallel(
            self.backend,
            ScanVariant::VectorSelStoreDirect,
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
    /// block-aligned morsels. Each key vector is decoded and compared; a
    /// payload block is decoded only once one of its vectors qualifies,
    /// and both vectors leave through one selective store each
    /// ([`ScanVariant::VectorSelStoreDirect`]). Output is byte-identical
    /// to `self.select(&self.decompress(rel), lower, upper)`.
    pub fn select_compressed(&self, rel: &CompressedRelation, lower: u32, upper: u32) -> Relation {
        expect_infallible(self.try_select_compressed(rel, lower, upper, &RunContext::default()))
    }

    /// Fallible [`Engine::select_compressed`] under a [`RunContext`], with
    /// the guarantees of [`Engine::try_select`].
    pub fn try_select_compressed(
        &self,
        rel: &CompressedRelation,
        lower: u32,
        upper: u32,
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        let (keys, payloads, _) = rsv_column::select_fused_parallel(
            self.backend,
            ScanVariant::VectorSelStoreDirect,
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

    /// Fallible [`Engine::hash_join`] (max-partition variant) under a
    /// [`RunContext`].
    pub fn try_hash_join(
        &self,
        inner: &Relation,
        outer: &Relation,
        run: &RunContext,
    ) -> Result<JoinResult, EngineError> {
        self.try_hash_join_variant(inner, outer, JoinVariant::MaxPartition, run)
    }

    /// Fallible [`Engine::hash_join_variant`] under a [`RunContext`]:
    /// partitioned columns and hash tables are gated by the memory budget,
    /// cancellation is observed at every morsel/task claim, and worker
    /// panics surface as [`EngineError::WorkerPanicked`].
    pub fn try_hash_join_variant(
        &self,
        inner: &Relation,
        outer: &Relation,
        variant: JoinVariant,
        run: &RunContext,
    ) -> Result<JoinResult, EngineError> {
        let policy = self.policy(run);
        let (result, _) = dispatch!(self.backend, s => {
            match variant {
                JoinVariant::NoPartition => {
                    rsv_join::join_no_partition(KernelKind::Vector(s), inner, outer, &policy)
                }
                JoinVariant::MinPartition => {
                    rsv_join::join_min_partition(KernelKind::Vector(s), inner, outer, &policy)
                }
                JoinVariant::MaxPartition => rsv_join::join_max_partition(
                    KernelKind::Vector(s), inner, outer, &policy, rsv_join::DEFAULT_PART_TUPLES,
                ),
            }
        })?;
        Ok(result)
    }

    /// Bloom-filter semi-join (paper §6): keep the tuples of `rel` whose
    /// key is (probably) present in `filter_keys`. The filter is a
    /// [`BlockedBloomFilter`] at [`BLOOM_BITS_PER_KEY`] bits per key, built
    /// per worker and OR-merged; probing is morsel-parallel, one block
    /// gather per key, and qualifiers keep input order.
    pub fn bloom_semijoin(&self, rel: &Relation, filter_keys: &[u32]) -> Relation {
        expect_infallible(self.try_bloom_semijoin(rel, filter_keys, &RunContext::default()))
    }

    /// Fallible [`Engine::bloom_semijoin`] under a [`RunContext`]: the
    /// workers' build filters (`threads ×`
    /// [`BlockedBloomFilter::bytes_for`]), then the merged filter and the
    /// two output columns (8 bytes per input tuple) during the probe, are
    /// gated by the memory budget; cancellation is observed at
    /// morsel-claim boundaries, and a worker panic surfaces as
    /// [`EngineError::WorkerPanicked`].
    pub fn try_bloom_semijoin(
        &self,
        rel: &Relation,
        filter_keys: &[u32],
        run: &RunContext,
    ) -> Result<Relation, EngineError> {
        let policy = self.policy(run);
        let filter = rsv_bloom::build_parallel(filter_keys, BLOOM_BITS_PER_KEY, &policy)?;
        let _filter = run.reserve(filter.size_bytes() as u64)?;
        let (keys, payloads, _) =
            filter_parallel(rel.len(), 16, "bloom-probe", &policy, |r, ok, op| {
                dispatch!(self.backend, s => {
                    filter.probe_vector(s, &rel.keys[r.clone()], &rel.payloads[r], ok, op)
                })
            })?;
        Ok(Relation::new(keys, payloads))
    }

    /// Stable LSB radixsort by key (paper §8).
    pub fn sort(&self, rel: &mut Relation) {
        expect_infallible(self.try_sort(rel, &RunContext::default()))
    }

    /// Fallible [`Engine::sort`] under a [`RunContext`]: the radixsort's
    /// ping-pong scratch columns are gated by the memory budget and
    /// cancellation is observed at morsel-claim boundaries of every pass.
    /// On error the relation keeps its tuples (possibly partially
    /// reordered — rerun to completion to sort them).
    pub fn try_sort(&self, rel: &mut Relation, run: &RunContext) -> Result<(), EngineError> {
        let policy = self.policy(run);
        dispatch!(self.backend, s => {
            rsv_sort::radixsort_pairs(
                KernelKind::Vector(s), &mut rel.keys, &mut rel.payloads, &SortConfig::default(),
                &policy,
            )
        })?;
        Ok(())
    }

    /// Hash-partition a relation into `fanout` parts (paper §7, buffered
    /// shuffling), morsel-parallel and stable. Returns the partitioned
    /// relation and the partition start offsets. A fanout of 0 is clamped
    /// to 1.
    ///
    /// Fanouts past [`rsv_partition::twopass::MAX_DIRECT_FANOUT`] degrade
    /// transparently to a two-pass decomposition (the single-pass staging
    /// buffers would outgrow the cache) with byte-identical output.
    /// Panics on a fanout past `u32::MAX`, which [`Engine::try_hash_partition`]
    /// reports as [`EngineError::InputTooLarge`].
    pub fn hash_partition(&self, rel: &Relation, fanout: usize) -> (Relation, Vec<u32>) {
        expect_infallible(self.try_hash_partition(rel, fanout, &RunContext::default()))
    }

    /// Fallible [`Engine::hash_partition`] under a [`RunContext`]: the
    /// output (and any two-pass scratch) columns are gated by the memory
    /// budget and cancellation is observed at morsel-claim boundaries.
    /// The partition function scales a 32-bit hash by the fanout, so a
    /// fanout past `u32::MAX` fails with [`EngineError::InputTooLarge`].
    pub fn try_hash_partition(
        &self,
        rel: &Relation,
        fanout: usize,
        run: &RunContext,
    ) -> Result<(Relation, Vec<u32>), EngineError> {
        let f = hash_fn(fanout)?;
        let _out = run.reserve(2 * column_bytes(rel.len()))?;
        let mut out_keys = vec![0u32; rel.len()];
        let mut out_pays = vec![0u32; rel.len()];
        let (pass, _) = dispatch!(self.backend, s => {
            rsv_partition::twopass::hash_partition_twopass(
                KernelKind::Vector(s), f, &rel.keys, &rel.payloads, &mut out_keys, &mut out_pays,
                &self.policy(run), MAX_DIRECT_FANOUT,
            )
        })?;
        Ok((Relation::new(out_keys, out_pays), pass.partition_starts))
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
    /// Workers aggregate claimed morsels into private tables. The other
    /// tables are then merged in place into the one holding the most
    /// groups, whose rows are sorted by key. The merge is commutative and
    /// keys are unique, so the result is schedule-independent.
    ///
    /// `expected_groups` sizes each worker's table; it may be any
    /// estimate (e.g. `rel.len()`), since tables grow past it. Estimates
    /// past `rel.len()` are clamped to it: there cannot be more groups
    /// than tuples.
    pub fn group_by_sum(&self, rel: &Relation, expected_groups: usize) -> Vec<(u32, u32, u64)> {
        expect_infallible(self.try_group_by_sum(rel, expected_groups, &RunContext::default()))
    }

    /// Fallible [`Engine::group_by_sum`] under a [`RunContext`]:
    /// cancellation is observed at morsel-claim boundaries and a worker
    /// panic surfaces as [`EngineError::WorkerPanicked`] after the sibling
    /// workers drain. The workers' tables as sized by `expected_groups`
    /// are reserved against the budget first, so a budget smaller than
    /// that fails with [`EngineError::BudgetExceeded`].
    pub fn try_group_by_sum(
        &self,
        rel: &Relation,
        expected_groups: usize,
        run: &RunContext,
    ) -> Result<Vec<(u32, u32, u64)>, EngineError> {
        let groups = expected_groups.min(rel.len()).max(1);
        let table_bytes = rsv_hashtab::GroupAggTable::bytes_for(groups, 0.5);
        let _tables = run.reserve(self.threads as u64 * table_bytes)?;
        let q = MorselQueue::new(rel.len(), &self.policy(run), 16);
        let (mut tables, _) = parallel_scope_try(self.threads, |ctx| {
            let mut table = rsv_hashtab::GroupAggTable::new(groups, 0.5);
            for mo in ctx.morsels(&q) {
                ctx.phase("aggregate", || {
                    let r = mo.range.clone();
                    dispatch!(self.backend, s => {
                        table.update_vector(s, &rel.keys[r.clone()], &rel.payloads[r])
                    });
                });
            }
            table
        })?;
        run.check_cancelled()?;
        let Some(largest) = (0..tables.len()).max_by_key(|&i| tables[i].groups()) else {
            return Ok(Vec::new());
        };
        let mut merged = tables.swap_remove(largest);
        for table in &tables {
            merged.merge(table);
        }
        Ok(merged.into_sorted_rows())
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
