//! The three query workloads. Each one generates its inputs from the seed,
//! computes its reference answer with plain scalar code that does not touch
//! the engine, and runs its query plan through `rsv_core::Engine`.

use std::collections::HashMap;

use rsv_core::data::{self, multiset_fingerprint};
use rsv_core::{CompressedRelation, Engine, JoinResult, JoinVariant, Relation};

use crate::trace::Tracer;

/// Input size: the benchmark's own, or a tiny one for the self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whether the query's join builds one hash table with concurrent
    /// workers, so its probe chains depend on their timing.
    const SHARED_BUILD: bool = false;
    type Answer;

    /// Generates the inputs and the reference answer.
    fn setup(engine: &Engine, seed: u64, scale: Scale) -> Self;
    /// Input tuples one query reads.
    fn tuples_in(&self) -> usize;
    fn run(&self, engine: &Engine, tr: &mut Tracer) -> Self::Answer;
    /// Whether `answer` equals the reference answer.
    fn check(&self, answer: &Self::Answer) -> bool;
}

/// `(key, count, sum)` rows ordered by key.
type Groups = Vec<(u32, u64, u64)>;

/// A join result's column `pick` (0 key, 1 inner payload, 2 outer payload),
/// concatenated over the workers' sinks.
fn join_column(j: &JoinResult, pick: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(j.matches());
    for s in &j.sinks {
        let (k, i, o) = s.columns();
        out.extend_from_slice([k, i, o][pick]);
    }
    out
}

// ---------------------------------------------------------------------
// pipeline: scan -> Bloom semi-join -> max-partition join -> sort-based
// group-by, the query of examples/analytics_query.rs.
// ---------------------------------------------------------------------

const CATEGORIES: u32 = 50;

pub struct Pipeline {
    facts: Relation,
    dims: Relation,
    lo: u32,
    hi: u32,
    expected: Groups,
}

impl Workload for Pipeline {
    const NAME: &'static str = "pipeline";
    type Answer = Groups;

    fn setup(_: &Engine, seed: u64, scale: Scale) -> Self {
        let (n_fact, n_dim) = match scale {
            Scale::Full => (8 << 20, 1 << 20),
            Scale::Tiny => (1 << 15, 1 << 12),
        };
        let mut rng = data::rng(seed);
        // Facts draw keys from a pool eight times the dimension table, so
        // about one fact in eight finds its dimension row.
        let key_pool = data::unique_u32(n_dim * 8, &mut rng);
        let dims = Relation::new(
            key_pool[..n_dim].to_vec(),
            (0..n_dim as u32).map(|i| i % CATEGORIES).collect(),
        );
        let fact_keys = data::uniform_u32(n_fact, &mut rng)
            .iter()
            .map(|&r| key_pool[r as usize % key_pool.len()])
            .collect();
        let facts = Relation::new(fact_keys, data::uniform_u32(n_fact, &mut rng));
        let (lo, hi) = data::selection_bounds(0.5);

        let category: HashMap<u32, u32> = dims.iter().collect();
        let mut groups = vec![(0u64, 0u64); CATEGORIES as usize];
        for (k, v) in facts.iter() {
            if (lo..=hi).contains(&k) {
                if let Some(&c) = category.get(&k) {
                    groups[c as usize].0 += 1;
                    groups[c as usize].1 += u64::from(v);
                }
            }
        }
        let expected = groups
            .into_iter()
            .enumerate()
            .filter(|(_, (n, _))| *n > 0)
            .map(|(c, (n, s))| (c as u32, n, s))
            .collect();
        Pipeline {
            facts,
            dims,
            lo,
            hi,
            expected,
        }
    }

    fn tuples_in(&self) -> usize {
        self.facts.len() + self.dims.len()
    }

    fn run(&self, e: &Engine, tr: &mut Tracer) -> Groups {
        let selected = tr.layer("scan.select", || e.select(&self.facts, self.lo, self.hi));
        let candidates = tr.layer("bloom.semijoin", || {
            e.bloom_semijoin(&selected, &self.dims.keys)
        });
        let joined = tr.layer("join", || e.hash_join(&self.dims, &candidates));
        tr.join_phases(&joined.timings);
        tr.note("bloom.passed", candidates.len());
        tr.note("join.matches", joined.matches());
        drop((selected, candidates));

        // Group by category: radixsort (category, value), then one ordered pass.
        let mut by_category = Relation::new(join_column(&joined, 1), join_column(&joined, 2));
        drop(joined);
        tr.layer("sort", || e.sort(&mut by_category));
        let mut groups: Groups = Vec::new();
        for (cat, val) in by_category.iter() {
            match groups.last_mut() {
                Some(g) if g.0 == cat => {
                    g.1 += 1;
                    g.2 += u64::from(val);
                }
                _ => groups.push((cat, 1, u64::from(val))),
            }
        }
        groups
    }

    fn check(&self, answer: &Groups) -> bool {
        *answer == self.expected
    }
}

// ---------------------------------------------------------------------
// compressed_agg: fused scans over bit-packed columns, each followed by a
// small group-by. The packed input (2.75 MiB) is about the size of L2; the
// raw columns (8 MiB) would not fit.
// ---------------------------------------------------------------------

const KEY_BITS: u32 = 6;
const PAYLOAD_BITS: u32 = 16;
/// A query aggregates each quarter of the 64 key values in turn: four
/// scans at 25 % selectivity, four group-bys into 16 groups.
const RANGES: u32 = 4;
const RANGE_KEYS: u32 = (1 << KEY_BITS) / RANGES;

pub struct CompressedAgg {
    packed: CompressedRelation,
    expected: Vec<(u32, u32, u64)>,
}

impl Workload for CompressedAgg {
    const NAME: &'static str = "compressed_agg";
    type Answer = Vec<(u32, u32, u64)>;

    fn setup(engine: &Engine, seed: u64, scale: Scale) -> Self {
        // The input stays in cache, where a query's median holds steady from
        // run to run, and four passes make a query long (about 15 ms) enough
        // that a stalled worker thread moves its tail little: with one pass
        // of 4 ms, p90 spread by a quarter between runs.
        let n = match scale {
            Scale::Full => 1 << 20,
            Scale::Tiny => 1 << 12,
        };
        let mut rng = data::rng(seed);
        let rel = Relation::new(
            data::bounded_u32(n, KEY_BITS, &mut rng),
            data::bounded_u32(n, PAYLOAD_BITS, &mut rng),
        );
        let mut groups = [(0u32, 0u64); 1 << KEY_BITS];
        for (k, v) in rel.iter() {
            groups[k as usize].0 += 1;
            groups[k as usize].1 += u64::from(v);
        }
        let expected = (0..)
            .zip(groups)
            .filter(|(_, (n, _))| *n > 0)
            .map(|(k, (n, s))| (k, n, s))
            .collect();
        CompressedAgg {
            packed: engine.compress(&rel),
            expected,
        }
    }

    fn tuples_in(&self) -> usize {
        self.packed.len() * RANGES as usize
    }

    fn run(&self, e: &Engine, tr: &mut Tracer) -> Self::Answer {
        tr.note("column.packed_bytes", self.packed.packed_bytes());
        tr.note("column.raw_bytes", self.packed.len() * 8);
        let mut rows = Vec::new();
        for lo in (0..RANGES).map(|r| r * RANGE_KEYS) {
            let selected = tr.layer("column.select_compressed", || {
                e.select_compressed(&self.packed, lo, lo + RANGE_KEYS - 1)
            });
            rows.extend(tr.layer("hashtab.agg", || {
                e.group_by_sum(&selected, RANGE_KEYS as usize)
            }));
        }
        rows
    }

    fn check(&self, answer: &Self::Answer) -> bool {
        *answer == self.expected
    }
}

// ---------------------------------------------------------------------
// shared_join_agg: no-partition join through one shared out-of-cache
// table, then a large group-by.
// ---------------------------------------------------------------------

/// Join results fold into `key & GROUP_MASK`: 2^18 groups.
const GROUP_MASK: u32 = (1 << 18) - 1;

pub struct SharedJoinAgg {
    inner: Relation,
    outer: Relation,
    expected_matches: usize,
    expected_groups: usize,
    expected_fingerprint: (u64, u64),
}

impl Workload for SharedJoinAgg {
    const NAME: &'static str = "shared_join_agg";
    const SHARED_BUILD: bool = true;
    /// Join matches and the group rows.
    type Answer = (usize, Vec<(u32, u32, u64)>);

    fn setup(_: &Engine, seed: u64, scale: Scale) -> Self {
        // 2^20 build keys: the shared table (2^21 buckets of 8 bytes) is far
        // larger than L2, and a query stays short enough for a run to time
        // over a hundred of them.
        let (n_build, n_probe) = match scale {
            Scale::Full => (1 << 20, 2 << 20),
            Scale::Tiny => (1 << 12, 1 << 13),
        };
        let w = data::join_workload(n_build, n_probe, 1.0, 0.5, &mut data::rng(seed));
        let build: HashMap<u32, u32> = w.inner.iter().collect();
        let mut groups = vec![(0u32, 0u64); GROUP_MASK as usize + 1];
        let mut matches = 0usize;
        for (k, p) in w.outer.iter() {
            if build.contains_key(&k) {
                matches += 1;
                let g = &mut groups[(k & GROUP_MASK) as usize];
                g.0 += 1;
                g.1 += u64::from(p);
            }
        }
        let rows: Vec<(u32, u32, u64)> = (0..=GROUP_MASK)
            .zip(groups)
            .filter(|(_, (n, _))| *n > 0)
            .map(|(g, (n, s))| (g, n, s))
            .collect();
        SharedJoinAgg {
            inner: w.inner,
            outer: w.outer,
            expected_matches: matches,
            expected_groups: rows.len(),
            expected_fingerprint: multiset_fingerprint(rows),
        }
    }

    fn tuples_in(&self) -> usize {
        self.inner.len() + self.outer.len()
    }

    fn run(&self, e: &Engine, tr: &mut Tracer) -> Self::Answer {
        let joined = tr.layer("join", || {
            e.hash_join_variant(&self.inner, &self.outer, JoinVariant::NoPartition)
        });
        tr.join_phases(&joined.timings);
        let matches = joined.matches();
        tr.note("join.matches", matches);
        let mut folded = Relation::new(join_column(&joined, 0), join_column(&joined, 2));
        drop(joined);
        for k in &mut folded.keys {
            *k &= GROUP_MASK;
        }
        let rows = tr.layer("hashtab.agg", || {
            e.group_by_sum(&folded, GROUP_MASK as usize + 1)
        });
        (matches, rows)
    }

    fn check(&self, (matches, rows): &Self::Answer) -> bool {
        *matches == self.expected_matches
            && rows.len() == self.expected_groups
            && multiset_fingerprint(rows.iter().copied()) == self.expected_fingerprint
    }
}
