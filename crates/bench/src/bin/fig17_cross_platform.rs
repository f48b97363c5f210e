//! Figure 17: cross-platform comparison — Xeon Phi vs. 4× Sandy Bridge in
//! the paper, reproduced as *backend* comparison on one host (AVX-512
//! standing in for Phi, AVX2 for the narrower mainstream CPUs) with the
//! paper's TDP constants for the power-efficiency ratio.
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig17_cross_platform [--scale X]`

use rsv_bench::{banner, bench, record, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_join::{join_max_partition, DEFAULT_PART_TUPLES};
use rsv_simd::{dispatch, Backend};
use rsv_sort::{radixsort_pairs, SortConfig};

fn main() {
    banner(
        "fig17",
        "cross-platform radixsort & hash join (power efficiency)",
        "paper: Phi ~14% slower than 4xSB on both workloads, but ~1.5x \
         more power-efficient (300W vs 520W TDP); here the wide-SIMD \
         backend should beat the narrow one on one fixed host",
    );
    let scale = Scale::from_env();
    let n_sort = scale.tuples(50_000_000, 1 << 16);
    let n_join = scale.tuples(25_000_000, 1 << 14);
    println!("sort {n_sort} tuples, join {n_join}x{n_join}\n");

    let mut rng = rsv_data::rng(1017);
    let keys = rsv_data::uniform_u32(n_sort, &mut rng);
    let pays: Vec<u32> = (0..n_sort as u32).collect();
    let w = rsv_data::join_workload(n_join, n_join, 1.0, 1.0, &mut rng);

    // paper TDP constants for the efficiency discussion
    let paper_tdp = [("avx512", 300.0_f64), ("avx2", 520.0), ("portable", 520.0)];

    let mut table = Table::new(&[
        "backend",
        "sort (s)",
        "join (s)",
        "paper-TDP (W)",
        "rel. energy (sort)",
    ]);
    let mut first_sort = None;
    for b in Backend::all_available() {
        let cfg = SortConfig { radix_bits: 8 };
        let policy = ExecPolicy::new(1);
        let sort_s = bench(2, || {
            let mut k = keys.clone();
            let mut p = pays.clone();
            expect_infallible(dispatch!(b, s => {
                radixsort_pairs(s, true, &mut k, &mut p, &cfg, &policy)
            }));
        });
        let join_s = bench(2, || {
            let (r, _) = expect_infallible(dispatch!(b, s => {
                join_max_partition(s, true, &w.inner, &w.outer, &policy, DEFAULT_PART_TUPLES)
            }));
            assert_eq!(r.matches(), w.expected_matches);
        });
        record(&Measurement {
            experiment: "fig17",
            series: b.name(),
            x: 0.0,
            value: sort_s,
            unit: "seconds-sort",
            backend: b.name(),
            threads: 1,
        });
        record(&Measurement {
            experiment: "fig17",
            series: b.name(),
            x: 1.0,
            value: join_s,
            unit: "seconds-join",
            backend: b.name(),
            threads: 1,
        });
        let tdp = paper_tdp
            .iter()
            .find(|(n, _)| *n == b.name())
            .map(|t| t.1)
            .unwrap_or(520.0);
        let base = *first_sort.get_or_insert(sort_s * tdp);
        table.row(vec![
            b.name().to_string(),
            format!("{sort_s:.3}"),
            format!("{join_s:.3}"),
            format!("{tdp:.0}"),
            format!("{:.2}x", (sort_s * tdp) / base),
        ]);
    }
    println!("wall time per backend (seconds, lower is better):\n");
    table.print();
    println!("\n(the 'rel. energy' column applies the paper's TDP figures to the");
    println!(" measured runtimes, mirroring its Phi-vs-SandyBridge efficiency claim)");
}
