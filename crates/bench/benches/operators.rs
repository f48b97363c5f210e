//! Micro-benchmarks: one section per operator family, smaller sizes than
//! the figure binaries so `cargo bench` completes quickly.
//!
//! These complement the figure binaries (which sweep the paper's full
//! parameter ranges) with best-of-N spot measurements and the ablation
//! comparisons DESIGN.md §6 lists. Plain `harness = false` timing — the
//! offline build has no external benchmark framework.

use rsv_bench::{bench, mtps, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_hashtab::{CuckooTable, DoubleHashTable, JoinSink, LinearTable};
use rsv_partition::conflict::{serialize_conflicts_native, serialize_conflicts_scatter};
use rsv_partition::histogram::{
    histogram_scalar, histogram_vector_replicated, histogram_vector_serialized,
};
use rsv_partition::shuffle::{shuffle_scalar_buffered, shuffle_vector_buffered};
use rsv_partition::RadixFn;
use rsv_scan::{scan, ScanPredicate, ScanVariant};
use rsv_simd::{dispatch, Backend, KernelKind, Simd};

const N: usize = 1 << 20;
const REPS: usize = 5;

fn workload() -> (Vec<u32>, Vec<u32>) {
    let mut rng = rsv_data::rng(2001);
    (rsv_data::uniform_u32(N, &mut rng), (0..N as u32).collect())
}

fn bench_scan(t: &mut Table) {
    let (keys, pays) = workload();
    let mut ok = vec![0u32; N];
    let mut op = vec![0u32; N];
    let (lo, hi) = rsv_data::selection_bounds(0.1);
    let pred = ScanPredicate {
        lower: lo,
        upper: hi,
    };
    let backend = Backend::best();
    for variant in ScanVariant::ALL {
        let secs = bench(REPS, || {
            scan(backend, variant, &keys, &pays, pred, &mut ok, &mut op);
        });
        t.row(vec![
            "selection_scan".into(),
            variant.label().into(),
            format!("{:.1}", mtps(N, secs)),
        ]);
    }
}

fn bench_hash_probe(t: &mut Table) {
    let mut rng = rsv_data::rng(2002);
    let n_build = N / 8;
    let bkeys = rsv_data::unique_u32(n_build, &mut rng);
    let bpays: Vec<u32> = (0..n_build as u32).collect();
    let pkeys: Vec<u32> = (0..N).map(|i| bkeys[(i * 7) % n_build]).collect();
    let ppays: Vec<u32> = (0..N as u32).collect();
    let backend = Backend::best();

    let mut lp = LinearTable::new(n_build, 0.5);
    lp.build_scalar(&bkeys, &bpays);
    let mut dh = DoubleHashTable::new(n_build, 0.5);
    dh.build_scalar(&bkeys, &bpays);
    let mut ch = CuckooTable::new(n_build, 0.5);
    ch.build_scalar(&bkeys, &bpays).unwrap();

    let mut run = |name: &str, f: &mut dyn FnMut(&mut JoinSink)| {
        let secs = bench(REPS, || {
            let mut sink = JoinSink::with_capacity(N + 16);
            f(&mut sink);
        });
        t.row(vec![
            "hash_probe".into(),
            name.into(),
            format!("{:.1}", mtps(N, secs)),
        ]);
    };
    run("lp_scalar", &mut |sink| {
        lp.probe_scalar(&pkeys, &ppays, sink);
    });
    run("lp_vertical", &mut |sink| {
        dispatch!(backend, s => { lp.probe_vertical(s, &pkeys, &ppays, sink) });
    });
    run("dh_vertical", &mut |sink| {
        dispatch!(backend, s => { dh.probe_vertical(s, &pkeys, &ppays, sink) });
    });
    // ablation: cuckoo blend vs select
    run("cuckoo_blend", &mut |sink| {
        dispatch!(backend, s => { ch.probe_vertical_blend(s, &pkeys, &ppays, sink) });
    });
    run("cuckoo_select", &mut |sink| {
        dispatch!(backend, s => { ch.probe_vertical_select(s, &pkeys, &ppays, sink) });
    });
}

fn load_padded<S: Simd>(s: S, lanes: &[u32]) -> S::V {
    let mut buf = vec![0u32; S::LANES];
    for i in 0..S::LANES {
        buf[i] = lanes[i % lanes.len()];
    }
    s.load(&buf)
}

fn bench_conflict_serialization(t: &mut Table) {
    // ablation: Algorithm 13 scatter/gather loop vs vpconflictd popcount
    let backend = Backend::best();
    let lanes: Vec<u32> = (0..16).map(|i| i % 5).collect();
    let mut scratch = vec![0u32; 16];
    const ITERS: usize = 1 << 16;
    dispatch!(backend, s => {
        let h = load_padded(s, &lanes);
        let secs = bench(REPS, || {
            s.vectorize(|| {
                for _ in 0..ITERS {
                    std::hint::black_box(serialize_conflicts_native(s, std::hint::black_box(h)));
                }
            });
        });
        t.row(vec![
            "conflict_serialization".into(),
            "native_conflict".into(),
            format!("{:.1}", mtps(ITERS * S::LANES, secs)),
        ]);
        let secs = bench(REPS, || {
            s.vectorize(|| {
                for _ in 0..ITERS {
                    std::hint::black_box(serialize_conflicts_scatter(
                        s,
                        std::hint::black_box(h),
                        &mut scratch,
                    ));
                }
            });
        });
        t.row(vec![
            "conflict_serialization".into(),
            "scatter_gather_loop".into(),
            format!("{:.1}", mtps(ITERS * S::LANES, secs)),
        ]);
    });
}

fn bench_partition(t: &mut Table) {
    let (keys, pays) = workload();
    let mut ok = vec![0u32; N];
    let mut op = vec![0u32; N];
    let backend = Backend::best();
    for bits in [5u32, 8, 11] {
        let f = RadixFn::new(0, bits);
        let mut row = |name: &str, secs: f64| {
            t.row(vec![
                format!("partition/{bits}b"),
                name.into(),
                format!("{:.1}", mtps(N, secs)),
            ]);
        };
        row(
            "hist_scalar",
            bench(REPS, || {
                std::hint::black_box(histogram_scalar(f, &keys));
            }),
        );
        row(
            "hist_replicated",
            bench(REPS, || {
                dispatch!(backend, s => {
                    std::hint::black_box(histogram_vector_replicated(s, f, &keys))
                });
            }),
        );
        row(
            "hist_serialized",
            bench(REPS, || {
                dispatch!(backend, s => {
                    std::hint::black_box(histogram_vector_serialized(s, f, &keys))
                });
            }),
        );
        let hist = histogram_scalar(f, &keys);
        row(
            "shuffle_scalar_buf",
            bench(REPS, || {
                shuffle_scalar_buffered(f, &keys, &pays, &hist, &mut ok, &mut op);
            }),
        );
        row(
            "shuffle_vector_buf",
            bench(REPS, || {
                dispatch!(backend, s => {
                    shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op)
                });
            }),
        );
    }
}

fn bench_sort_and_join(t: &mut Table) {
    let (keys, pays) = workload();
    let backend = Backend::best();
    let secs = bench(REPS, || {
        let mut k = keys.clone();
        let mut p = pays.clone();
        expect_infallible(dispatch!(backend, s => {
            rsv_sort::radixsort_pairs(
                KernelKind::Vector(s), &mut k, &mut p, &rsv_sort::SortConfig::default(), &ExecPolicy::new(1),
            )
        }));
        std::hint::black_box(k);
    });
    t.row(vec![
        "sort_join".into(),
        "radixsort_vector".into(),
        format!("{:.1}", mtps(N, secs)),
    ]);
    let mut rng = rsv_data::rng(2003);
    let w = rsv_data::join_workload(N / 8, N, 1.0, 1.0, &mut rng);
    let secs = bench(REPS, || {
        let r = expect_infallible(dispatch!(backend, s => {
            rsv_join::join_max_partition(
                KernelKind::Vector(s), &w.inner, &w.outer, &ExecPolicy::new(1), rsv_join::part_tuples(w.inner.len()),
            )
        }));
        std::hint::black_box(r.matches());
    });
    t.row(vec![
        "sort_join".into(),
        "join_max_partition_vector".into(),
        format!("{:.1}", mtps(N, secs)),
    ]);
}

fn main() {
    println!("operator micro-benchmarks (best of {REPS}, {N} tuples)\n");
    let mut t = Table::new(&["group", "benchmark", "Mtps"]);
    bench_scan(&mut t);
    bench_hash_probe(&mut t);
    bench_conflict_serialization(&mut t);
    bench_partition(&mut t);
    bench_sort_and_join(&mut t);
    t.print();
}
