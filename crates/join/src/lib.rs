//! Hash joins (paper Section 9): three variants with different degrees of
//! partitioning, which allow different degrees of vectorization.
//!
//! * [`join_no_partition`] — build one shared table with atomic inserts
//!   (building *cannot* be fully vectorized: SIMD has no atomics), then
//!   probe read-only (vectorizable),
//! * [`join_min_partition`] — partition the inner relation `T` ways to
//!   eliminate atomics; threads build private tables and every probe picks
//!   both a table and a bucket — fully vectorizable,
//! * [`join_max_partition`] — partition *both* relations into parts whose
//!   inner side fits an L2-resident hash table; build and probe in
//!   cache — fully vectorizable, and the paper's overall winner.
//!
//! All variants build and probe with rsv-hashtab's one open-addressing
//! kernel set ([`rsv_hashtab::build_raw`], [`rsv_hashtab::probe_raw`]):
//! max- and no-partition along [`rsv_hashtab::Linear`] sequences,
//! min-partition along [`rsv_hashtab::SubTables`]. They emit `(key, inner
//! payload, outer payload)` triples into per-thread [`JoinSink`]s, which
//! the memory budget charges as they grow, and report a per-phase timing
//! breakdown (the Figure 15 stacked bars). Each is one fallible function
//! taking an [`rsv_exec::ExecPolicy`] and returning the result with
//! per-worker scheduler stats, or a typed [`rsv_exec::EngineError`].

#![deny(missing_docs)]
#![warn(clippy::all)]
// Engine code surfaces typed errors, not panics (DESIGN.md §5e).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod diff;
mod max_partition;
mod min_partition;
mod no_partition;

pub use max_partition::{join_max_partition, part_tuples};
pub use min_partition::join_min_partition;
pub use no_partition::join_no_partition;

use rsv_hashtab::JoinSink;
use std::time::Duration;

/// Per-phase wall-clock breakdown of one join execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinTimings {
    /// Partitioning both/either relation (zero for the no-partition join).
    pub partition: Duration,
    /// Hash table build.
    pub build: Duration,
    /// Probing (including output materialization).
    pub probe: Duration,
}

impl JoinTimings {
    /// Total join time.
    pub fn total(&self) -> Duration {
        self.partition + self.build + self.probe
    }
}

/// The output of a join: one sink per worker thread plus timings.
#[derive(Debug)]
pub struct JoinResult {
    /// Per-thread result sinks (concatenation order is unspecified —
    /// vectorized probing is unstable anyway).
    pub sinks: Vec<JoinSink>,
    /// Phase breakdown.
    pub timings: JoinTimings,
}

impl JoinResult {
    /// Total number of result tuples.
    pub fn matches(&self) -> usize {
        self.sinks.iter().map(|s| s.len()).sum()
    }

    /// Order-independent fingerprint of the result multiset.
    pub fn fingerprint(&self) -> (u64, u64) {
        rsv_data::multiset_fingerprint(self.sinks.iter().flat_map(|s| s.iter()))
    }
}

/// The three join variants (paper Section 9), for experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinVariant {
    /// Shared table, atomic build.
    NoPartition,
    /// Inner relation partitioned per thread.
    MinPartition,
    /// Both relations partitioned to cache-resident parts.
    MaxPartition,
}

impl JoinVariant {
    /// All variants in Figure 15's order.
    pub const ALL: [JoinVariant; 3] = [
        JoinVariant::NoPartition,
        JoinVariant::MinPartition,
        JoinVariant::MaxPartition,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            JoinVariant::NoPartition => "no-partition",
            JoinVariant::MinPartition => "min-partition",
            JoinVariant::MaxPartition => "max-partition",
        }
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use rsv_data::Relation;
    use std::collections::HashMap;

    pub fn workload(nb: usize, np: usize, seed: u64) -> (Relation, Relation) {
        let w = rsv_data::join_workload(nb, np, 1.0, 0.9, &mut rsv_data::rng(seed));
        (w.inner, w.outer)
    }

    pub fn reference_fingerprint(inner: &Relation, outer: &Relation) -> ((u64, u64), usize) {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for (k, p) in inner.iter() {
            map.entry(k).or_default().push(p);
        }
        let mut rows: Vec<(u32, u32, u32)> = Vec::new();
        for (k, p) in outer.iter() {
            if let Some(b) = map.get(&k) {
                for &bp in b {
                    rows.push((k, bp, p));
                }
            }
        }
        let n = rows.len();
        (rsv_data::multiset_fingerprint(rows), n)
    }
}
