//! Operator-level query profiling ([`Engine::profile`]).
//!
//! Runs one engine operation with the metrics layer enabled
//! ([`rsv_metrics`]) and returns a [`QueryProfile`]: every work counter
//! the operator kernels recorded, per worker thread, plus wall time and
//! tuple counts — serializable as one compact JSON row in the same style
//! as the bench harness.
//!
//! Profiled runs produce byte-identical operator output to the plain
//! engine methods; metering only adds counter accumulation.

use std::time::Instant;

use rsv_column::CompressedRelation;
use rsv_data::Relation;
use rsv_join::JoinVariant;
use rsv_metrics::CountingSink;

use crate::Engine;

/// One engine operation to run under [`Engine::profile`].
pub enum Query<'a> {
    /// Selection scan: tuples with `lower ≤ key ≤ upper`.
    Select {
        /// Scanned relation.
        rel: &'a Relation,
        /// Inclusive lower bound.
        lower: u32,
        /// Inclusive upper bound.
        upper: u32,
    },
    /// Fused compressed selection scan over a bit-packed relation.
    SelectCompressed {
        /// Scanned compressed relation.
        rel: &'a CompressedRelation,
        /// Inclusive lower bound.
        lower: u32,
        /// Inclusive upper bound.
        upper: u32,
    },
    /// Hash join `inner ⋈ outer` on the key columns.
    HashJoin {
        /// Build-side relation.
        inner: &'a Relation,
        /// Probe-side relation.
        outer: &'a Relation,
        /// Join strategy.
        variant: JoinVariant,
    },
    /// Bloom-filter semi-join of `rel` against `filter_keys`.
    BloomSemijoin {
        /// Probed relation.
        rel: &'a Relation,
        /// Keys the filter is built from.
        filter_keys: &'a [u32],
    },
    /// Stable LSB radixsort by key (the input is not mutated).
    Sort {
        /// Relation to sort.
        rel: &'a Relation,
    },
    /// Hash partitioning into `fanout` parts.
    HashPartition {
        /// Partitioned relation.
        rel: &'a Relation,
        /// Partition count.
        fanout: usize,
    },
}

impl Query<'_> {
    /// Short operation name used in the profile row.
    pub fn label(&self) -> &'static str {
        match self {
            Query::Select { .. } => "select",
            Query::SelectCompressed { .. } => "select-compressed",
            Query::HashJoin { variant, .. } => match variant {
                JoinVariant::NoPartition => "join-no-partition",
                JoinVariant::MinPartition => "join-min-partition",
                JoinVariant::MaxPartition => "join-max-partition",
            },
            Query::BloomSemijoin { .. } => "bloom-semijoin",
            Query::Sort { .. } => "sort",
            Query::HashPartition { .. } => "hash-partition",
        }
    }

    fn tuples_in(&self) -> u64 {
        match self {
            Query::Select { rel, .. }
            | Query::BloomSemijoin { rel, .. }
            | Query::Sort { rel }
            | Query::HashPartition { rel, .. } => rel.len() as u64,
            Query::SelectCompressed { rel, .. } => rel.len() as u64,
            Query::HashJoin { inner, outer, .. } => (inner.len() + outer.len()) as u64,
        }
    }
}

/// The result of [`Engine::profile`]: one operation's work counters (per
/// worker thread), wall time and tuple counts.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Operation label ([`Query::label`]).
    pub label: &'static str,
    /// SIMD backend name the engine ran on.
    pub backend: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Input tuples (both relations for a join).
    pub tuples_in: u64,
    /// Output tuples (match count for a join).
    pub tuples_out: u64,
    /// Wall time of the profiled run.
    pub elapsed_ns: u64,
    /// Per-worker metric counters harvested from the run.
    pub sink: CountingSink,
}

impl QueryProfile {
    /// One compact JSON object, bench-row style: run descriptors first,
    /// then the merged metrics snapshot under `"metrics"`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"query\":\"{}\",\"backend\":\"{}\",\"threads\":{},\
             \"tuples_in\":{},\"tuples_out\":{},\"elapsed_ns\":{},\
             \"metrics\":{}}}",
            self.label,
            self.backend,
            self.threads,
            self.tuples_in,
            self.tuples_out,
            self.elapsed_ns,
            self.sink.total().to_json(),
        )
    }
}

impl Engine {
    /// Run `query` with metering enabled and return its [`QueryProfile`].
    ///
    /// The operator output is byte-identical to the corresponding plain
    /// engine method; the profile adds the counters every operator crate
    /// records (scan tuples, probe chain lengths, partition flushes,
    /// blocks decoded, sort passes, morsel scheduling…).
    pub fn profile(&self, query: Query<'_>) -> QueryProfile {
        let label = query.label();
        let tuples_in = query.tuples_in();
        let t0 = Instant::now();
        let (tuples_out, sink) = rsv_metrics::collect(|| match query {
            Query::Select { rel, lower, upper } => self.select(rel, lower, upper).len() as u64,
            Query::SelectCompressed { rel, lower, upper } => {
                self.select_compressed(rel, lower, upper).len() as u64
            }
            Query::HashJoin {
                inner,
                outer,
                variant,
            } => self.hash_join_variant(inner, outer, variant).matches() as u64,
            Query::BloomSemijoin { rel, filter_keys } => {
                self.bloom_semijoin(rel, filter_keys).len() as u64
            }
            Query::Sort { rel } => {
                let mut sorted = rel.clone();
                self.sort(&mut sorted);
                sorted.len() as u64
            }
            Query::HashPartition { rel, fanout } => self.hash_partition(rel, fanout).0.len() as u64,
        });
        QueryProfile {
            label,
            backend: self.backend().name(),
            threads: self.threads,
            tuples_in,
            tuples_out,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
            sink,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_metrics::Metric;

    fn rel(n: usize, seed: u64) -> Relation {
        let mut rng = rsv_data::rng(seed);
        Relation::with_rid_payloads(rsv_data::uniform_u32(n, &mut rng))
    }

    #[test]
    fn select_profile_counts_every_tuple() {
        let r = rel(10_000, 41);
        let e = Engine::new().with_threads(2);
        let expected = e.select(&r, 0, u32::MAX / 2);
        let p = e.profile(Query::Select {
            rel: &r,
            lower: 0,
            upper: u32::MAX / 2,
        });
        let total = p.sink.total();
        assert_eq!(p.tuples_in, r.len() as u64);
        assert_eq!(p.tuples_out, expected.len() as u64);
        assert_eq!(total.get(Metric::ScanTuplesIn), r.len() as u64);
        assert_eq!(total.get(Metric::ScanTuplesOut), p.tuples_out);
        assert!(total.get(Metric::MorselsClaimed) > 0);
    }

    #[test]
    fn join_profile_splits_build_and_probe() {
        let w = rsv_data::join_workload(1_000, 4_000, 1.0, 0.7, &mut rsv_data::rng(42));
        let e = Engine::new().with_threads(2);
        let p = e.profile(Query::HashJoin {
            inner: &w.inner,
            outer: &w.outer,
            variant: JoinVariant::MaxPartition,
        });
        let total = p.sink.total();
        assert_eq!(p.tuples_out, w.expected_matches as u64);
        assert_eq!(total.get(Metric::JoinBuildTuples), w.inner.len() as u64);
        assert_eq!(total.get(Metric::JoinProbeTuples), w.outer.len() as u64);
        // every outer tuple reaches exactly one cache-resident table probe
        assert_eq!(total.get(Metric::LpKeysProbed), w.outer.len() as u64);
        assert!(total.get(Metric::LpProbes) >= total.get(Metric::LpKeysProbed));
    }

    #[test]
    fn profile_json_has_run_descriptors_and_metrics() {
        let r = rel(2_000, 43);
        let e = Engine::new();
        let p = e.profile(Query::Sort { rel: &r });
        let json = p.to_json();
        assert!(json.starts_with("{\"query\":\"sort\""), "{json}");
        assert!(json.contains("\"metrics\":{"), "{json}");
        assert!(json.contains("\"sort_passes\":4"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }

    /// Two profiles running at once on two threads each harvest exactly
    /// their own query's work, the work of the workers their schedulers
    /// spawned included.
    #[test]
    fn concurrent_profiles_do_not_mix() {
        let w = rsv_data::join_workload(4_000, 16_000, 1.0, 0.7, &mut rsv_data::rng(45));
        let e = Engine::new().with_threads(2);
        let work = || {
            e.profile(Query::HashJoin {
                inner: &w.inner,
                outer: &w.outer,
                variant: JoinVariant::MaxPartition,
            })
            .sink
            .total()
            .work_bytes()
        };
        let solo = work();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..3).map(|_| work()).collect::<Vec<_>>()
                    })
                })
                .collect();
            for run in runs {
                for bytes in run.join().unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                    assert_eq!(bytes, solo, "a concurrent profile's work differs");
                }
            }
        });
    }

    #[test]
    fn profiled_runs_leave_no_ambient_metering() {
        let r = rel(1_000, 44);
        let e = Engine::new();
        let _ = e.profile(Query::Select {
            rel: &r,
            lower: 0,
            upper: 10,
        });
        assert!(!rsv_metrics::enabled());
        let (_, sink) = rsv_metrics::collect(|| ());
        assert!(sink.total().is_zero());
    }
}
