//! Cross-crate integration: a full query pipeline (scan → bloom → join →
//! sort) must produce exactly what a naive reference implementation does.

use std::collections::HashMap;

use rethinking_simd::{data, Engine, JoinVariant, Relation};

fn reference_pipeline(facts: &Relation, dims: &Relation, lo: u32, hi: u32) -> Vec<(u32, u32, u32)> {
    let dim_map: HashMap<u32, Vec<u32>> = {
        let mut m: HashMap<u32, Vec<u32>> = HashMap::new();
        for (k, p) in dims.iter() {
            m.entry(k).or_default().push(p);
        }
        m
    };
    let mut rows = Vec::new();
    for (k, p) in facts.iter() {
        if k >= lo && k <= hi {
            if let Some(dps) = dim_map.get(&k) {
                for &dp in dps {
                    rows.push((k, dp, p));
                }
            }
        }
    }
    rows.sort_unstable();
    rows
}

fn build_workload(seed: u64) -> (Relation, Relation) {
    let mut rng = data::rng(seed);
    let pool = data::unique_u32(60_000, &mut rng);
    let dims = Relation::with_rid_payloads(pool[..20_000].to_vec());
    let fact_keys: Vec<u32> = (0..80_000)
        .map(|i| pool[(i * 31 + seed as usize) % pool.len()])
        .collect();
    let facts = Relation::with_rid_payloads(fact_keys);
    (facts, dims)
}

#[test]
fn full_pipeline_matches_reference() {
    let (facts, dims) = build_workload(401);
    let (lo, hi) = data::selection_bounds(0.6);
    let expected = reference_pipeline(&facts, &dims, lo, hi);

    for threads in [1usize, 3] {
        let engine = Engine::new().with_threads(threads);
        let selected = engine.select(&facts, lo, hi);
        let filtered = engine.bloom_semijoin(&selected, &dims.keys);
        // the bloom filter may pass false positives — the join removes them
        assert!(filtered.len() >= expected.len().min(selected.len()));
        let joined = engine.hash_join(&dims, &filtered);

        let mut rows: Vec<(u32, u32, u32)> = joined.sinks.iter().flat_map(|s| s.iter()).collect();
        rows.sort_unstable();
        assert_eq!(rows, expected, "threads={threads}");
    }
}

#[test]
fn all_join_variants_produce_identical_results() {
    let (facts, dims) = build_workload(402);
    let engine = Engine::new().with_threads(2);
    let baseline = engine.hash_join_variant(&dims, &facts, JoinVariant::NoPartition);
    for v in [JoinVariant::MinPartition, JoinVariant::MaxPartition] {
        let r = engine.hash_join_variant(&dims, &facts, v);
        assert_eq!(r.matches(), baseline.matches(), "{v:?}");
        assert_eq!(r.fingerprint(), baseline.fingerprint(), "{v:?}");
    }
}

/// Scalar group-by: `(key, count, sum)` per distinct key, ascending.
fn reference_group_by(rel: &Relation) -> Vec<(u32, u32, u64)> {
    let mut groups: std::collections::BTreeMap<u32, (u32, u64)> = Default::default();
    for (k, v) in rel.iter() {
        let e = groups.entry(k).or_default();
        e.0 += 1;
        e.1 += u64::from(v);
    }
    groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect()
}

#[test]
fn group_by_sum_matches_scalar_reference() {
    let mut rng = data::rng(404);
    let keys: Vec<u32> = data::uniform_u32(50_000, &mut rng)
        .iter()
        .map(|k| k % 1_000)
        .collect();
    let pays = data::uniform_u32(50_000, &mut rng);
    let rel = Relation::new(keys, pays);
    let expected = reference_group_by(&rel);

    for threads in [1usize, 3] {
        let engine = Engine::new().with_threads(threads);
        let rows = engine.group_by_sum(&rel, 1_000);
        assert_eq!(rows, expected, "threads={threads}");
        assert!(
            rows.windows(2).all(|w| w[0].0 < w[1].0),
            "not sorted by key"
        );
    }
}

/// `u32::MAX` is an ordinary group key: none of its tuples is lost, and
/// its row comes last.
#[test]
fn group_by_sum_keeps_the_max_key() {
    let mut rng = data::rng(406);
    let keys: Vec<u32> = data::uniform_u32(40_000, &mut rng)
        .iter()
        .enumerate()
        .map(|(i, k)| if i % 97 == 5 { u32::MAX } else { k % 300 })
        .collect();
    let rel = Relation::new(keys, data::uniform_u32(40_000, &mut rng));
    let expected = reference_group_by(&rel);
    assert_eq!(expected.last().map(|r| r.0), Some(u32::MAX));

    for threads in [1usize, 3] {
        let rows = Engine::new().with_threads(threads).group_by_sum(&rel, 300);
        assert_eq!(rows, expected, "threads={threads}");
    }
}

/// With `expected_groups = 1` every worker table starts tiny and grows on
/// its own schedule, so the merged tables differ in bucket count.
#[test]
fn group_by_sum_merges_grown_worker_tables() {
    let mut rng = data::rng(407);
    // an odd multiplier permutes 0..2^16, so every group occurs
    let keys: Vec<u32> = (0..200_000u32)
        .map(|i| i.wrapping_mul(40_503) % (1 << 16))
        .collect();
    let rel = Relation::new(keys, data::uniform_u32(200_000, &mut rng));
    let expected = reference_group_by(&rel);
    assert_eq!(expected.len(), 1 << 16);

    for threads in [1usize, 2, 8] {
        let rows = Engine::new().with_threads(threads).group_by_sum(&rel, 1);
        assert_eq!(rows, expected, "threads={threads}");
    }
}

#[test]
fn group_by_sum_small_estimate_many_groups() {
    // An estimate of 4 groups starts every worker on the lane-replicated
    // kernel; 2^14 groups make each worker hand off to the in-place kernel
    // and grow its table.
    let mut rng = data::rng(408);
    // an odd multiplier permutes 0..2^14, so every group occurs
    let keys: Vec<u32> = (0..100_000u32)
        .map(|i| i.wrapping_mul(40_503) % (1 << 14))
        .collect();
    let rel = Relation::new(keys, data::uniform_u32(100_000, &mut rng));
    let expected = reference_group_by(&rel);
    assert_eq!(expected.len(), 1 << 14);

    for threads in [1usize, 2, 3] {
        let rows = Engine::new().with_threads(threads).group_by_sum(&rel, 4);
        assert_eq!(rows, expected, "threads={threads}");
    }
}

#[test]
fn hash_partition_matches_scalar_reference() {
    let mut rng = data::rng(405);
    let rel = Relation::with_rid_payloads(data::uniform_u32(40_000, &mut rng));
    let fanout = 32usize;

    for threads in [1usize, 3] {
        let engine = Engine::new().with_threads(threads);
        // the scalar reference: a stable bucket sort by partition id
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); fanout];
        for (k, p) in rel.iter() {
            let part = engine
                .hash_partition_of(k, fanout)
                .expect("fanout fits u32");
            buckets[part].push((k, p));
        }
        let mut expected_keys = Vec::with_capacity(rel.len());
        let mut expected_pays = Vec::with_capacity(rel.len());
        let mut expected_starts = Vec::with_capacity(fanout);
        for b in &buckets {
            expected_starts.push(expected_keys.len() as u32);
            for &(k, p) in b {
                expected_keys.push(k);
                expected_pays.push(p);
            }
        }

        let (out, starts) = engine.hash_partition(&rel, fanout);
        assert_eq!(starts, expected_starts, "threads={threads}");
        assert_eq!(out.keys, expected_keys, "threads={threads}");
        assert_eq!(out.payloads, expected_pays, "threads={threads}");
    }
}

#[test]
fn sort_after_join_groups_keys() {
    let (facts, dims) = build_workload(403);
    let engine = Engine::new();
    let joined = engine.hash_join(&dims, &facts);
    let mut rel = Relation::new(
        joined
            .sinks
            .iter()
            .flat_map(|s| s.columns().0.iter().copied())
            .collect(),
        joined
            .sinks
            .iter()
            .flat_map(|s| s.columns().2.iter().copied())
            .collect(),
    );
    engine.sort(&mut rel);
    assert!(rel.keys.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(rel.len(), joined.matches());
}
