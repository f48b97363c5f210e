//! Scheduler-determinism harness: every `Engine` operator must produce
//! byte-identical output for every thread count and morsel size.
//!
//! The morsel-driven scheduler keys all intermediate state (histograms,
//! staging buffers, qualifier runs) to *morsel ids* in input order, never
//! to worker ids, so the claim schedule — which workers ran which morsels,
//! and in what interleaving — must be unobservable in the results. Join
//! results are canonicalized by sorting rows first: vectorized probing is
//! inherently unstable in row order, but the row *multiset* must match.

use rethinking_simd::{
    data, exec::DEFAULT_MORSEL_TUPLES, Backend, BlockedBloomFilter, Engine, JoinVariant, Relation,
    BLOOM_BITS_PER_KEY,
};

const THREADS: [usize; 4] = [1, 2, 3, 8];
const MORSELS: [usize; 3] = [1024, DEFAULT_MORSEL_TUPLES, usize::MAX];

/// Run `op` under every schedule and assert all results are identical.
fn assert_schedule_independent<T: PartialEq + std::fmt::Debug>(
    label: &str,
    mut op: impl FnMut(Engine) -> T,
) {
    let mut reference: Option<T> = None;
    for threads in THREADS {
        for morsel in MORSELS {
            let engine = Engine::new()
                .with_threads(threads)
                .with_morsel_tuples(morsel);
            let got = op(engine);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(
                        &got, want,
                        "{label}: output differs at threads={threads} morsel={morsel}"
                    );
                }
            }
        }
    }
}

fn workload(n: usize, seed: u64) -> Relation {
    let mut rng = data::rng(seed);
    Relation::with_rid_payloads(data::uniform_u32(n, &mut rng))
}

#[test]
fn select_is_schedule_independent() {
    let rel = workload(120_000, 501);
    let (lo, hi) = data::selection_bounds(0.3);
    assert_schedule_independent("select", |e| {
        let out = e.select(&rel, lo, hi);
        (out.keys, out.payloads)
    });
}

#[test]
fn bloom_semijoin_is_schedule_independent() {
    let mut rng = data::rng(502);
    let pool = data::unique_u32(60_000, &mut rng);
    let rel = Relation::with_rid_payloads(pool[20_000..].to_vec());
    let filter_keys = &pool[..30_000];
    assert_schedule_independent("bloom_semijoin", |e| {
        let out = e.bloom_semijoin(&rel, filter_keys);
        (out.keys, out.payloads)
    });
}

/// The semi-join's survivors leave in input order: every schedule and
/// backend matches a scalar filter over the Engine's filter, on duplicate
/// keys, the domain's ends (0 and `u32::MAX`) and sizes around one and
/// many vectors.
#[test]
fn bloom_semijoin_keeps_input_order() {
    let filter_keys: Vec<u32> = [0, u32::MAX, 0]
        .into_iter()
        .chain((0..64).map(|i| i * 2))
        .collect();
    let mut filter = BlockedBloomFilter::new(filter_keys.len(), BLOOM_BITS_PER_KEY);
    filter.build(&filter_keys);
    for n in [0usize, 1, 15, 17, 1023, 1025] {
        // A 100-value domain, so keys repeat, with both ends mixed in.
        let keys: Vec<u32> = (0..n as u32)
            .map(|i| match i % 9 {
                0 => 0,
                1 => u32::MAX,
                _ => i.wrapping_mul(2654435761) % 100,
            })
            .collect();
        let rel = Relation::with_rid_payloads(keys);
        let (want_keys, want_pays): (Vec<u32>, Vec<u32>) =
            rel.iter().filter(|&(k, _)| filter.contains(k)).unzip();
        for backend in Backend::all_available() {
            for threads in THREADS {
                for morsel in MORSELS {
                    let engine = Engine::with_backend(backend)
                        .with_threads(threads)
                        .with_morsel_tuples(morsel);
                    let out = engine.bloom_semijoin(&rel, &filter_keys);
                    let at = format!("n={n} {backend:?} threads={threads} morsel={morsel}");
                    assert_eq!(out.keys, want_keys, "{at}");
                    assert_eq!(out.payloads, want_pays, "{at}");
                }
            }
        }
    }
}

#[test]
fn sort_is_schedule_independent() {
    let rel = workload(150_000, 503);
    assert_schedule_independent("sort", |e| {
        let mut r = rel.clone();
        e.sort(&mut r);
        (r.keys, r.payloads)
    });
}

#[test]
fn hash_partition_is_schedule_independent() {
    let rel = workload(100_000, 504);
    assert_schedule_independent("hash_partition", |e| {
        let (out, starts) = e.hash_partition(&rel, 64);
        (out.keys, out.payloads, starts)
    });
}

#[test]
fn group_by_sum_is_schedule_independent() {
    let mut rng = data::rng(505);
    let keys: Vec<u32> = data::uniform_u32(80_000, &mut rng)
        .iter()
        .map(|k| k % 2_000)
        .collect();
    let rel = Relation::new(keys, data::uniform_u32(80_000, &mut rng));
    assert_schedule_independent("group_by_sum", |e| e.group_by_sum(&rel, 2_000));
}

#[test]
fn hash_join_variants_are_schedule_independent() {
    let mut rng = data::rng(506);
    let w = data::join_workload(20_000, 60_000, 1.5, 0.7, &mut rng);
    for variant in JoinVariant::ALL {
        assert_schedule_independent(variant.label(), |e| {
            let r = e.hash_join_variant(&w.inner, &w.outer, variant);
            // canonicalize: vectorized probing has no stable row order
            let mut rows: Vec<(u32, u32, u32)> = r.sinks.iter().flat_map(|s| s.iter()).collect();
            rows.sort_unstable();
            rows
        });
    }
}
