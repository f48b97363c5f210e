//! Query profiling ([`Engine::profile`]).
//!
//! Runs a closure of engine calls with the metrics layer enabled
//! ([`rsv_metrics`]) and returns its result with a [`QueryProfile`]: every
//! work counter the operator kernels recorded, per worker thread, plus
//! wall time — serializable as one compact JSON row in the same style as
//! the bench harness.
//!
//! Profiled runs produce byte-identical operator output to unprofiled
//! ones; metering only adds counter accumulation.

use std::time::Instant;

use rsv_metrics::CountingSink;

use crate::Engine;

/// The profile of one [`Engine::profile`] run: its work counters (per
/// worker thread) and wall time.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// The caller's label for the profiled query: a plain name such as
    /// `"select"`, written into [`QueryProfile::to_json`] unescaped.
    pub label: &'static str,
    /// SIMD backend name the engine ran on.
    pub backend: &'static str,
    /// Worker thread count.
    pub threads: usize,
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
             \"elapsed_ns\":{},\"metrics\":{}}}",
            self.label,
            self.backend,
            self.threads,
            self.elapsed_ns,
            self.sink.total().to_json(),
        )
    }
}

impl Engine {
    /// Run `query` — any closure of engine calls, one operator or several —
    /// with metering enabled, and return its result with its
    /// [`QueryProfile`].
    ///
    /// Like [`rsv_metrics::collect`], but the profile also carries the
    /// label, the engine's backend and thread count, and the wall time.
    /// The closure's output is byte-identical to an unprofiled run; the
    /// profile adds the counters every operator crate records (scan
    /// tuples, probe chain lengths, partition flushes, blocks decoded,
    /// sort passes, group-by parts, morsel scheduling…). Work the closure
    /// does besides engine calls is timed too, so prepare inputs (such as
    /// a copy to sort in place) before the call.
    pub fn profile<R>(&self, label: &'static str, query: impl FnOnce() -> R) -> (R, QueryProfile) {
        let t0 = Instant::now();
        let (out, sink) = rsv_metrics::collect(query);
        let profile = QueryProfile {
            label,
            backend: self.backend().name(),
            threads: self.threads,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
            sink,
        };
        (out, profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_data::Relation;
    use rsv_join::JoinVariant;
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
        let (out, p) = e.profile("select", || e.select(&r, 0, u32::MAX / 2));
        let total = p.sink.total();
        assert_eq!(out, expected);
        assert_eq!(total.get(Metric::ScanTuplesIn), r.len() as u64);
        assert_eq!(total.get(Metric::ScanTuplesOut), out.len() as u64);
        assert!(total.get(Metric::MorselsClaimed) > 0);
    }

    #[test]
    fn join_profile_splits_build_and_probe() {
        let w = rsv_data::join_workload(1_000, 4_000, 1.0, 0.7, &mut rsv_data::rng(42));
        let e = Engine::new().with_threads(2);
        let (out, p) = e.profile("join", || {
            e.hash_join_variant(&w.inner, &w.outer, JoinVariant::MaxPartition)
        });
        let total = p.sink.total();
        assert_eq!(out.matches(), w.expected_matches);
        assert_eq!(total.get(Metric::JoinBuildTuples), w.inner.len() as u64);
        assert_eq!(total.get(Metric::JoinProbeTuples), w.outer.len() as u64);
        // every outer tuple reaches exactly one cache-resident table probe
        assert_eq!(total.get(Metric::LpKeysProbed), w.outer.len() as u64);
        assert!(total.get(Metric::LpProbes) >= total.get(Metric::LpKeysProbed));
    }

    /// A group-by past L2 takes the partitioned route, and its profile
    /// shows the parts.
    #[test]
    fn group_by_profile_reports_its_partitions() {
        let mut rng = rsv_data::rng(307);
        let n = 200_000;
        let keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
            .iter()
            .map(|k| k % 150_000)
            .collect();
        let r = Relation::new(keys, rsv_data::uniform_u32(n, &mut rng));
        let e = Engine::new().with_threads(2);
        let (rows, p) = e.profile("group-by", || e.group_by_sum(&r, 150_000));
        assert_eq!(rows, e.group_by_sum(&r, 150_000));
        assert_eq!(p.sink.total().get(Metric::AggPartitionFanout), 32);
    }

    /// One profile spans a multi-operator query: the select's input and
    /// the join's probe side, which is the select's output.
    #[test]
    fn select_then_join_profiles_both_operators() {
        let w = rsv_data::join_workload(2_000, 8_000, 1.0, 0.7, &mut rsv_data::rng(46));
        let e = Engine::new().with_threads(2);
        let ((selected, joined), p) = e.profile("select-join", || {
            let selected = e.select(&w.outer, 0, u32::MAX / 2);
            let joined = e.hash_join(&w.inner, &selected);
            (selected, joined)
        });
        let total = p.sink.total();
        assert_eq!(selected, e.select(&w.outer, 0, u32::MAX / 2));
        assert_eq!(joined.matches(), e.hash_join(&w.inner, &selected).matches());
        assert_eq!(total.get(Metric::ScanTuplesIn), w.outer.len() as u64);
        assert_eq!(total.get(Metric::JoinProbeTuples), selected.len() as u64);
    }

    #[test]
    fn profile_json_has_run_descriptors_and_metrics() {
        let r = rel(2_000, 43);
        let e = Engine::new();
        let mut sorted = r.clone();
        let ((), p) = e.profile("sort", || e.sort(&mut sorted));
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
            e.profile("join", || {
                e.hash_join_variant(&w.inner, &w.outer, JoinVariant::MaxPartition)
            })
            .1
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
        let _ = e.profile("select", || e.select(&r, 0, 10));
        assert!(!rsv_metrics::enabled());
        let (_, sink) = rsv_metrics::collect(|| ());
        assert!(sink.total().is_zero());
    }
}
