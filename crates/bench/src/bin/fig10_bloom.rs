//! Figure 10: Bloom filter probing vs. filter size (5 hash functions,
//! 10 bits per item, 5% selectivity), scalar vs. vectorized.
//!
//! Next to the paper's classic filter it also times the register-blocked
//! filter the Engine's semi-join runs (same size, all 5 bits of a key in
//! one 64-bit block): `blocked-scalar` and `blocked-vector`.
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig10_bloom [--scale X]`

use rsv_bench::{banner, bench, fmt_bytes, mtps, record, Measurement, Scale, Table};
use rsv_bloom::{BlockedBloomFilter, BloomFilter};
use rsv_simd::dispatch;

fn main() {
    banner(
        "fig10",
        "Bloom filter probe (k=5, 10 bits/item, 5% selectivity)",
        "vector >> scalar, largest for cache-resident filters \
         (paper: 3.6-7.8x Phi, 1.3-3.1x Haswell)",
    );
    let scale = Scale::from_env();
    let probes = scale.tuples(8 << 20, 1 << 16);
    let backend = rsv_bench::backend();
    println!(
        "probes per size: {probes}, vector backend: {}\n",
        backend.name()
    );

    let mut rng = rsv_data::rng(1010);
    let sizes: Vec<usize> = (12..=26).step_by(2).map(|b| 1usize << b).collect();

    let mut table = Table::new(&[
        "filter size",
        "scalar",
        "vector",
        "speedup",
        "blocked-scalar",
        "blocked-vector",
    ]);
    for bytes in sizes {
        let items = bytes * 8 / 10; // 10 bits per item
        let all = rsv_data::unique_u32(items + items.min(1 << 22), &mut rng);
        let (inside, outside) = all.split_at(items);
        let mut filter = BloomFilter::new(items, 10, 5);
        filter.build(inside);
        let mut blocked = BlockedBloomFilter::new(items, 10);
        blocked.build(inside);
        // 5% of probes hit
        let pkeys: Vec<u32> = (0..probes)
            .map(|i| {
                if i % 20 == 0 {
                    inside[(i * 31) % inside.len()]
                } else {
                    outside[(i * 17) % outside.len()]
                }
            })
            .collect();
        let ppays: Vec<u32> = (0..probes as u32).collect();
        let mut ok = vec![0u32; probes];
        let mut op = vec![0u32; probes];

        let series = [
            (
                "scalar",
                bench(2, || {
                    filter.probe_scalar(&pkeys, &ppays, &mut ok, &mut op);
                }),
            ),
            (
                "vector",
                bench(2, || {
                    dispatch!(backend, s => { filter.probe_vector(s, &pkeys, &ppays, &mut ok, &mut op) });
                }),
            ),
            (
                "blocked-scalar",
                bench(2, || {
                    blocked.probe_scalar(&pkeys, &ppays, &mut ok, &mut op);
                }),
            ),
            (
                "blocked-vector",
                bench(2, || {
                    dispatch!(backend, s => { blocked.probe_vector(s, &pkeys, &ppays, &mut ok, &mut op) });
                }),
            ),
        ]
        .map(|(series, secs)| {
            let value = mtps(probes, secs);
            record(&Measurement {
                experiment: "fig10",
                series,
                x: bytes as f64,
                value,
                unit: "Mtps",
                backend: backend.name(),
                threads: 1,
            });
            value
        });
        let [sm, vm, bsm, bvm] = series;
        table.row(vec![
            fmt_bytes(bytes),
            format!("{sm:.0}"),
            format!("{vm:.0}"),
            format!("{:.1}x", vm / sm),
            format!("{bsm:.0}"),
            format!("{bvm:.0}"),
        ]);
    }
    println!("throughput (million probes / second):\n");
    table.print();
}
