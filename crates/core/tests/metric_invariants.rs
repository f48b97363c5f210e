//! Metric-invariant test oracles (DESIGN.md §5d).
//!
//! Every kernel in the differential registry runs under the metrics
//! layer, and the merged counters must satisfy per-operator identities
//! that hold for *any* correct execution — tuples counted in equal
//! tuples counted out, probe chains are at least one slot per key,
//! cuckoo displacement work respects the safety valve, partition
//! staging conserves tuples. The same backend × thread matrix and
//! `RSV_DIFF_*` replay knobs as the differential suite apply, so a
//! failing oracle prints a seed that re-runs exactly the offending case.

use rsv_core::column::{CompressedColumn, BLOCK_LEN};
use rsv_core::hashtab::diff::{agg_keys, SMALL_PART_GROUPS};
use rsv_core::hashtab::CuckooTable;
use rsv_core::join::diff::SMALL_PART_TUPLES;
use rsv_core::join::part_tuples;
use rsv_core::metrics::{Counters, Metric};
use rsv_testkit::diff::{run_registry_metered, CaseInput, DiffConfig, MeteredRun, Registry};
use rsv_testkit::Rng;

/// Same case stream as `differential.rs`.
const BASE_SEED: u64 = 0x5349_4D44_3230_3135;

fn registry() -> Registry {
    let mut r = Registry::new();
    rsv_core::scan::diff::register(&mut r);
    rsv_core::partition::diff::register(&mut r);
    rsv_core::hashtab::diff::register(&mut r);
    rsv_core::bloom::diff::register(&mut r);
    rsv_core::sort::diff::register(&mut r);
    rsv_core::join::diff::register(&mut r);
    rsv_core::column::diff::register(&mut r);
    r
}

/// Tuple count prefix of the canonical encodings (`ordered_pairs`,
/// `canonical_pairs`, `canonical_triples` all lead with a `u64` length).
fn out_len(bytes: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(le)
}

/// Passes the radixsort runs on the case: mirrors `rsv_sort::diff`'s
/// case-seeded radix width and key column, then counts the digits on
/// which some key differs from the first (the only passes that can
/// reorder).
fn sort_passes(input: &CaseInput) -> u64 {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x534F_5254);
    let bits = [1u32, 4, 5, 8, 11, 16][rng.index(6)];
    let keep = if rng.index(3) == 0 { 0xFFFF } else { u32::MAX };
    let diff = input
        .keys
        .iter()
        .fold(0u32, |d, &k| d | ((k ^ input.keys[0]) & keep));
    (0..32u32.div_ceil(bits))
        .filter(|pass| {
            let shift = pass * bits;
            let digit = (1u64 << bits.min(32 - shift)) - 1;
            u64::from(diff >> shift) & digit != 0
        })
        .count() as u64
}

/// Parts the partitioned group-by kernel cuts the case into, and the
/// tuples its partition pass shuffles: every tuple, unless one part needs
/// no pass.
fn agg_parts(input: &CaseInput) -> (u64, u64) {
    let keys = agg_keys(input);
    // the sentinel's group lives in the side slot and picks no radix bit
    let ordinary: Vec<u32> = keys.iter().copied().filter(|&k| k != u32::MAX).collect();
    let first = ordinary.first().copied().unwrap_or(0);
    let diff = ordinary.iter().fold(0u32, |d, &k| d | (k ^ first));
    let span = 1u64 << (32 - diff.leading_zeros());
    let bound = (input.capacity.min(keys.len()).max(1) as u64).min(span);
    let parts = bound
        .div_ceil(SMALL_PART_GROUPS as u64)
        .next_power_of_two()
        .min(256)
        .min(span);
    (parts, if parts > 1 { keys.len() as u64 } else { 0 })
}

/// Identities that hold for every operator, metered or not.
fn universal_invariants(c: &Counters) {
    assert!(
        c.get(Metric::ScanTuplesOut) <= c.get(Metric::ScanTuplesIn),
        "scan emitted more tuples than it consumed"
    );
    // every probed key inspects at least one slot
    assert!(c.get(Metric::LpProbes) >= c.get(Metric::LpKeysProbed));
    assert!(c.get(Metric::DhProbes) >= c.get(Metric::DhKeysProbed));
    // staged tuples (buffer flushes + cleanup residue) never exceed the
    // tuples that entered a shuffle
    assert!(
        c.get(Metric::PartTuplesFlushed) + c.get(Metric::PartTuplesResidual)
            <= c.get(Metric::PartShuffleTuples)
    );
}

/// Upper bound on cuckoo displacement work for one run: `attempts` full
/// build attempts over `n` keys, scalar inserts bounded by `max_kicks`
/// each and the vectorized build bounded by its safety-valve budget of
/// `16·(n/w + 1) + 4·max_kicks` iterations displacing at most `w` lanes,
/// plus a scalar fallback of at most `n + w` inserts.
fn cuckoo_displacement_bound(attempts: u64, n: u64, w: u64, max_kicks: u64) -> u64 {
    let vector_budget = (16 * (n / w + 1) + 4 * max_kicks) * w;
    attempts * (vector_budget + (n + w) * max_kicks)
}

fn check(run: &MeteredRun<'_>) {
    let c = &run.counters;
    let n = run.input.keys.len() as u64;
    let b = run.input.build_keys.len() as u64;
    universal_invariants(c);
    let staged = c.get(Metric::PartTuplesFlushed) + c.get(Metric::PartTuplesResidual);
    match run.op {
        "scan" => {
            assert_eq!(c.get(Metric::ScanTuplesIn), n);
            assert_eq!(c.get(Metric::ScanTuplesOut), out_len(run.output));
        }
        "histogram-radix" | "histogram-hash" | "histogram-range" => {
            assert_eq!(c.get(Metric::PartHistTuples), n);
        }
        "shuffle-radix" | "shuffle-radix-unstable" => {
            // the shuffle harness recomputes the histogram for offsets
            assert_eq!(c.get(Metric::PartHistTuples), n);
            assert_eq!(c.get(Metric::PartShuffleTuples), n);
            if run.kernel.contains("unbuffered") {
                assert_eq!(staged, 0, "unbuffered shuffles stage nothing");
            } else {
                assert_eq!(staged, n, "buffered shuffles stage every tuple");
            }
        }
        "partition-pass" => {
            assert_eq!(c.get(Metric::PartHistTuples), n);
            assert_eq!(c.get(Metric::PartShuffleTuples), n);
            assert_eq!(staged, n);
        }
        "lp-probe" => {
            assert_eq!(c.get(Metric::LpKeysBuilt), b);
            assert_eq!(c.get(Metric::LpKeysProbed), n);
        }
        "dh-probe" => {
            assert_eq!(c.get(Metric::DhKeysProbed), n);
        }
        "cuckoo-probe" | "cuckoo-build" => {
            let kicks = CuckooTable::new(run.input.capacity, run.input.load_factor.min(0.4))
                .max_kicks() as u64;
            let built = c.get(Metric::CuckooKeysBuilt);
            let disp = c.get(Metric::CuckooDisplacements);
            if b == 0 {
                assert_eq!(built, 0);
                assert_eq!(disp, 0);
            } else {
                // keys-built is counted once per full build attempt
                assert_eq!(built % b, 0, "keys built not a whole number of attempts");
                if run.output != b"cuckoo-build-failed" {
                    assert!(built >= b, "successful build counted no keys");
                }
                let w = run.backend.lanes() as u64;
                assert!(
                    disp <= cuckoo_displacement_bound(built / b, b, w, kicks),
                    "displacements {disp} exceed the safety valve \
                     (attempts {}, keys {b}, max_kicks {kicks})",
                    built / b,
                );
            }
        }
        "bloom-probe" => {
            assert_eq!(c.get(Metric::BloomKeysProbed), n);
            // every probed key touches at least one filter word
            assert!(c.get(Metric::BloomWordsTouched) >= n);
        }
        "bloom-blocked" => {
            // one 64-bit block per probed key
            assert_eq!(c.get(Metric::BloomKeysProbed), n);
            assert_eq!(c.get(Metric::BloomWordsTouched), n);
        }
        "sort-radix" | "sort-radix-keys" => {
            let passes = sort_passes(run.input);
            // a key + payload pair moves 8 bytes per pass, a bare key 4
            let width = if run.op == "sort-radix" { 8 } else { 4 };
            assert_eq!(c.get(Metric::SortPasses), passes);
            assert_eq!(c.get(Metric::SortBytesMoved), width * n * passes);
            assert_eq!(c.get(Metric::PartHistTuples), n * passes);
            assert_eq!(c.get(Metric::PartShuffleTuples), n * passes);
            assert_eq!(staged, n * passes);
        }
        "join" => {
            assert_eq!(c.get(Metric::JoinBuildTuples), b);
            assert_eq!(c.get(Metric::JoinProbeTuples), n);
            // every variant probes each outer tuple against exactly one
            // linear-probing (sub-)table
            assert_eq!(c.get(Metric::LpKeysProbed), n);
            if run.kernel.starts_with("min-partition") {
                assert_eq!(c.get(Metric::JoinPartitionFanout), run.threads as u64);
                assert_eq!(c.get(Metric::PartShuffleTuples), b);
            }
            if run.kernel.starts_with("max-partition") {
                // one partitioning of each relation into the parts it joins
                let target = if run.kernel.ends_with("small-parts") {
                    SMALL_PART_TUPLES
                } else {
                    part_tuples(b as usize)
                };
                let parts = b.div_ceil(target as u64).max(1);
                assert_eq!(c.get(Metric::JoinPartitionFanout), parts);
            }
        }
        "column-roundtrip" => {
            let blocks = CompressedColumn::pack_scalar(&run.input.keys).block_count() as u64;
            if run.kernel == "random-access" {
                assert_eq!(c.get(Metric::ColBlocksDecoded), 0);
            } else {
                assert_eq!(c.get(Metric::ColBlocksDecoded), blocks);
            }
        }
        "column-select-fused" => {
            // every variant decodes every key block. Scalar variants also
            // decode every payload block; direct variants decode only the
            // payload blocks holding a qualifier; indirect variants decode
            // none (payloads come through the random-access directory,
            // which is not a block decode)
            let (lower, upper) = run.input.bounds;
            let chunks = run.input.keys.chunks(BLOCK_LEN);
            let key_blocks = chunks.len() as u64;
            let payload_blocks = if run.kernel.contains("indirect") {
                0
            } else if run.kernel.contains("direct") {
                chunks
                    .filter(|blk| blk.iter().any(|k| (lower..=upper).contains(k)))
                    .count() as u64
            } else {
                key_blocks
            };
            let blocks = key_blocks + payload_blocks;
            if run.kernel.starts_with("parallel") {
                assert!(c.get(Metric::ColBlocksDecoded) >= blocks);
            } else {
                assert_eq!(c.get(Metric::ColBlocksDecoded), blocks);
            }
        }
        "column-histogram-fused" => {
            let blocks = CompressedColumn::pack_scalar(&run.input.keys).block_count() as u64;
            if run.kernel.starts_with("parallel") {
                assert!(c.get(Metric::ColBlocksDecoded) >= blocks);
            } else {
                assert_eq!(c.get(Metric::ColBlocksDecoded), blocks);
            }
        }
        "agg-group" => {
            if run.kernel == "partitioned-small-parts" {
                // one part per key range: the group bound (capped by the
                // key span 2^v) over the part bound, rounded up to a power
                // of two, at most 256 and at most 2^v
                let (fanout, shuffled) = agg_parts(run.input);
                assert_eq!(c.get(Metric::AggPartitionFanout), fanout);
                assert_eq!(c.get(Metric::PartHistTuples), shuffled);
                assert_eq!(c.get(Metric::PartShuffleTuples), shuffled);
                assert_eq!(staged, shuffled);
            } else {
                // the tables themselves are unmetered
                assert_eq!(c.get(Metric::AggPartitionFanout), 0);
            }
        }
        // horizontal buckets are width-dependent by construction and
        // deliberately unmetered
        "horizontal-probe" => {}
        other => panic!("diff op `{other}` has no metric oracle — add one"),
    }
}

#[test]
fn metric_invariants_hold_for_every_kernel() {
    run_registry_metered(&registry(), &DiffConfig::from_env(BASE_SEED), &mut check);
}

/// Each `Engine` operator, metered, reports the named phases its workers
/// ran, each in the slot of a worker of the call, with one histogram
/// sample per call; under `unmetered` the same call records nothing.
#[test]
fn engine_operators_report_their_phases_by_name() {
    use rsv_core::{metrics, Engine, JoinVariant, Relation};
    let threads = 2;
    let engine = Engine::new()
        .with_threads(threads)
        .with_morsel_tuples(4_096);
    let mut rng = rsv_core::data::rng(0x5048_4153);
    let rel = Relation::with_rid_payloads(rsv_core::data::uniform_u32(100_000, &mut rng));
    let dims = Relation::with_rid_payloads(rsv_core::data::unique_u32(20_000, &mut rng));
    let packed = engine.compress(&rel);
    let (lo, hi) = (0, u32::MAX / 2);
    let pass = ["histogram", "shuffle", "cleanup"];
    let with = |more: &[&'static str]| [&pass[..], more].concat();
    type Op<'a> = (&'a str, Box<dyn Fn() + 'a>, Vec<&'static str>);
    let ops: Vec<Op> = vec![
        (
            "select",
            Box::new(|| drop(engine.select(&rel, lo, hi))),
            vec!["scan"],
        ),
        (
            "select_compressed",
            Box::new(|| drop(engine.select_compressed(&packed, lo, hi))),
            vec!["fused-scan"],
        ),
        (
            "bloom_semijoin",
            Box::new(|| drop(engine.bloom_semijoin(&rel, &dims.keys))),
            vec!["bloom-build", "bloom-probe"],
        ),
        (
            "join no-partition",
            Box::new(|| drop(engine.hash_join_variant(&dims, &rel, JoinVariant::NoPartition))),
            vec!["build", "probe"],
        ),
        (
            "join min-partition",
            Box::new(|| drop(engine.hash_join_variant(&dims, &rel, JoinVariant::MinPartition))),
            with(&["build", "probe"]),
        ),
        (
            "join max-partition",
            Box::new(|| drop(engine.hash_join(&dims, &rel))),
            with(&["build+probe"]),
        ),
        (
            "sort",
            Box::new(|| engine.sort(&mut rel.clone())),
            with(&[]),
        ),
        (
            "hash_partition",
            Box::new(|| drop(engine.hash_partition(&rel, 16))),
            with(&[]),
        ),
        (
            "hash_partition two-pass",
            Box::new(|| drop(engine.hash_partition(&rel, 1_000))),
            with(&["fine"]),
        ),
        (
            "group_by_sum",
            Box::new(|| drop(engine.group_by_sum(&dims, 1_000))),
            vec!["aggregate"],
        ),
        (
            "group_by_sum partitioned",
            Box::new(|| drop(engine.group_by_sum(&rel, rel.len()))),
            with(&["aggregate"]),
        ),
    ];
    for (name, op, mut want) in ops {
        let (on, sink) = metrics::collect(|| {
            op();
            metrics::enabled()
        });
        if !on {
            return; // metering compiled out
        }
        want.sort_unstable();
        let total = sink.total();
        let got: Vec<&str> = total.phases.keys().copied().collect();
        assert_eq!(got, want, "{name}");
        assert!(
            sink.workers.len() <= threads,
            "{name}: {} slots",
            sink.workers.len()
        );
        for (phase, p) in &total.phases {
            let calls: u64 = sink
                .workers
                .iter()
                .map(|w| w.phases.get(phase).map_or(0, |p| p.calls()))
                .sum();
            assert!(p.calls() > 0, "{name}: {phase}");
            assert_eq!(calls, p.calls(), "{name}: {phase}");
        }
        let ((), sink) = metrics::collect(|| metrics::unmetered(&op));
        assert!(
            sink.workers.is_empty(),
            "{name}: unmetered call recorded {sink:?}"
        );
    }
}
