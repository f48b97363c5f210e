//! Figure 14: LSB radixsort, scalar vs. vector, for key-only and
//! key+payload workloads across input sizes (the paper sweeps 100-800M
//! tuples; the defaults here are scaled to 1/8 of that).
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig14_radixsort [--scale X]`

use rsv_bench::{banner, bench, record, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, KernelKind};
use rsv_sort::{radixsort_keys, radixsort_pairs, SortConfig};

fn main() {
    banner(
        "fig14",
        "LSB radixsort (scalar vs. vector)",
        "vector ~2.2x faster than state-of-the-art scalar on wide-SIMD \
         hardware; time scales linearly with input size",
    );
    let scale = Scale::from_env();
    let backend = rsv_bench::backend();
    let cfg = SortConfig { radix_bits: 8 };
    let policy = ExecPolicy::new(1);
    println!(
        "radix bits: {}, vector backend: {}\n",
        cfg.radix_bits,
        backend.name()
    );

    let sizes: Vec<usize> = [12_500_000usize, 25_000_000, 50_000_000, 100_000_000]
        .iter()
        .map(|&b| scale.tuples(b / 8, 1 << 16))
        .collect();

    let mut table = Table::new(&[
        "tuples (M)",
        "key scalar (s)",
        "key vector (s)",
        "pair scalar (s)",
        "pair vector (s)",
        "pair speedup",
    ]);
    for n in sizes {
        let mut rng = rsv_data::rng(1014);
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let pays: Vec<u32> = (0..n as u32).collect();

        let ks = bench(2, || {
            let mut k = keys.clone();
            expect_infallible(radixsort_keys(KernelKind::SCALAR, &mut k, &cfg, &policy));
        });
        let kv = bench(2, || {
            let mut k = keys.clone();
            expect_infallible(dispatch!(backend, s => {
                radixsort_keys(KernelKind::Vector(s), &mut k, &cfg, &policy)
            }));
        });
        let ps = bench(2, || {
            let mut k = keys.clone();
            let mut p = pays.clone();
            expect_infallible(radixsort_pairs(
                KernelKind::SCALAR,
                &mut k,
                &mut p,
                &cfg,
                &policy,
            ));
        });
        let pv = bench(2, || {
            let mut k = keys.clone();
            let mut p = pays.clone();
            expect_infallible(dispatch!(backend, s => {
                radixsort_pairs(KernelKind::Vector(s), &mut k, &mut p, &cfg, &policy)
            }));
        });
        for (series, v) in [
            ("key-scalar", ks),
            ("key-vector", kv),
            ("pair-scalar", ps),
            ("pair-vector", pv),
        ] {
            record(&Measurement {
                experiment: "fig14",
                series,
                x: n as f64,
                value: v,
                unit: "seconds",
                backend: backend.name(),
                threads: 1,
            });
        }
        table.row(vec![
            format!("{:.1}", n as f64 / 1e6),
            format!("{ks:.3}"),
            format!("{kv:.3}"),
            format!("{ps:.3}"),
            format!("{pv:.3}"),
            format!("{:.2}x", ps / pv),
        ]);
    }
    println!("sort time (seconds, lower is better):\n");
    table.print();
}
