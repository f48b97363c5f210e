//! The differential cross-backend fuzz suite (DESIGN.md "Differential
//! testing").
//!
//! Every operator crate registers its scalar reference and kernels; the
//! harness runs each over adversarial inputs across every available
//! backend × thread count and asserts byte-identical canonical output.
//!
//! Replaying a failure: the panic message prints an `RSV_DIFF_OP=…
//! RSV_DIFF_SEED=0x… cargo test --test differential` line that re-runs
//! exactly the diverging case. `RSV_DIFF_CASES` raises the case count
//! for soak runs and `RSV_FORCE_BACKEND` pins the backend set.

use std::collections::HashMap;

use rsv_metrics::Metric;
use rsv_testkit::diff::{run_registry, run_registry_metered, DiffConfig, Registry};

/// Fixed base seed: the suite is deterministic run-to-run; bump the seed
/// to rotate the case set.
const BASE_SEED: u64 = 0x5349_4D44_3230_3135;

fn registry() -> Registry {
    let mut r = Registry::new();
    rsv_scan::diff::register(&mut r);
    rsv_partition::diff::register(&mut r);
    rsv_hashtab::diff::register(&mut r);
    rsv_bloom::diff::register(&mut r);
    rsv_sort::diff::register(&mut r);
    rsv_join::diff::register(&mut r);
    rsv_column::diff::register(&mut r);
    r
}

#[test]
fn registry_covers_every_operator_family() {
    let names: Vec<&str> = registry().ops().iter().map(|o| o.name).collect();
    for expected in [
        "scan",
        "histogram-radix",
        "histogram-hash",
        "histogram-range",
        "shuffle-radix",
        "shuffle-radix-unstable",
        "partition-pass",
        "lp-probe",
        "dh-probe",
        "cuckoo-probe",
        "cuckoo-build",
        "horizontal-probe",
        "agg-group",
        "bloom-probe",
        "bloom-blocked",
        "sort-radix",
        "sort-radix-keys",
        "join",
        "column-roundtrip",
        "column-select-fused",
    ] {
        assert!(names.contains(&expected), "missing diff op `{expected}`");
    }
}

#[test]
fn all_kernels_match_their_scalar_reference() {
    run_registry(&registry(), &DiffConfig::from_env(BASE_SEED));
}

/// The `metrics` op class: every kernel runs metered across the backend
/// matrix and its *work* counters (tuples scanned, slots probed, blocks
/// decoded, bytes sorted — `MetricClass::Work`) must be byte-identical
/// across backends at a fixed kernel × case × thread count, exactly like
/// the kernels' output. Width-dependent counters (conflict retries,
/// buffer flushes, displacement chains, linear-probe and double-hashing
/// slot inspections) additionally match between backends with the same lane count.
#[test]
fn work_counters_are_backend_invariant() {
    /// First-seen backend name and its canonical counter bytes.
    type Seen = (String, Vec<u8>);
    let mut cfg = DiffConfig::from_env(BASE_SEED);
    // output equivalence already fuzzes the full case budget; counter
    // determinism needs fewer cases per op
    cfg.cases = cfg.cases.min(8);
    let mut work: HashMap<(String, usize, u64), Seen> = HashMap::new();
    let mut deterministic: HashMap<(String, usize, u64, usize), Seen> = HashMap::new();
    let mut compared = 0u64;
    run_registry_metered(&registry(), &cfg, &mut |run| {
        let kernel = format!("{}/{}", run.op, run.kernel);
        let key = (kernel.clone(), run.threads, run.input.seed);
        let bytes = run.counters.work_bytes();
        match work.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((run.backend.name().to_string(), bytes));
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let (first, expected) = e.get();
                assert_eq!(
                    *expected,
                    bytes,
                    "work counters diverge between `{first}` and `{}`",
                    run.backend.name()
                );
                compared += 1;
            }
        }
        let lane_key = (
            kernel.clone(),
            run.threads,
            run.input.seed,
            run.backend.lanes(),
        );
        // The no-partition join's shared CAS build places colliding keys in
        // the workers' claim order, and on a duplicate-free table a probe
        // stops at its match, so with more than one worker that join's
        // linear-probe slot inspections depend on the schedule. A table with
        // repeated keys is probed to the empty bucket, and which buckets are
        // occupied does not depend on the insertion order, so those cases
        // are still compared.
        let mut counters = run.counters.clone();
        if run.op == "join"
            && run.kernel.starts_with("no-partition")
            && run.threads > 1
            && !rsv_join::diff::repeats_build_keys(run.input)
        {
            counters.counts[Metric::LpProbes as usize] = 0;
        }
        let bytes = counters.deterministic_bytes();
        match deterministic.entry(lane_key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((run.backend.name().to_string(), bytes));
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                let (first, expected) = e.get();
                assert_eq!(
                    *expected,
                    bytes,
                    "width-dependent counters of `{kernel}` (threads {}) diverge between \
                     equal-lane backends `{first}` and `{}`",
                    run.threads,
                    run.backend.name()
                );
            }
        }
    });
    // vacuous unless at least two backends are available
    if rsv_simd::Backend::all_available().len() > 1 {
        assert!(compared > 0, "no cross-backend counter comparisons ran");
    }
}
