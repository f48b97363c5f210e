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
//! breakdown (the Figure 15 stacked bars); under a metering session each
//! worker's time per named phase (`"build"`, `"probe"`, ...) goes to its
//! slot of the session. Each is one fallible function taking an
//! [`rsv_exec::ExecPolicy`] and returning the result, or a typed
//! [`rsv_exec::EngineError`].

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

use rsv_data::Relation;
use rsv_exec::{parallel_scope_try, Budgeted, EngineError, ExecPolicy, MorselQueue};
use rsv_hashtab::{probe_raw, Addressing, JoinSink};
use rsv_simd::{KernelKind, Simd};
use std::time::{Duration, Instant};

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

/// The probe phase of the no- and min-partition joins: workers claim
/// `outer`'s morsels and probe each against the built `pairs` along `a`'s
/// bucket sequences into their own sink, which the budget charges after
/// every morsel and releases on return. The result carries `timings`
/// (the phases before) with the probe time filled in.
fn probe_phase<S: Simd, A: Addressing + Sync>(
    kind: KernelKind<S>,
    pairs: &[u64],
    a: A,
    outer: &Relation,
    unique: bool,
    policy: &ExecPolicy,
    mut timings: JoinTimings,
) -> Result<JoinResult, EngineError> {
    let t0 = Instant::now();
    let probe_q = MorselQueue::new(outer.len(), policy, S::LANES);
    let sinks = parallel_scope_try(policy.threads, |ctx| {
        let mut sink = policy.run.hold(0, JoinSink::default)?;
        for mo in ctx.morsels(&probe_q) {
            let _ = rsv_testkit::failpoint!("join.probe.morsel");
            ctx.phase("probe", || {
                let r = mo.range.clone();
                let (ks, ps) = (&outer.keys[r.clone()], &outer.payloads[r]);
                probe_raw(kind, pairs, a, ks, ps, unique, &mut sink);
            });
            sink.grow_to(sink.size_bytes())?;
        }
        Ok::<_, EngineError>(sink)
    })?;
    policy.run.check_cancelled()?;
    let sinks = sinks.into_iter().map(|s| s.map(Budgeted::into_inner));
    let sinks = sinks.collect::<Result<_, _>>()?;
    timings.probe = t0.elapsed();
    Ok(JoinResult { sinks, timings })
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
