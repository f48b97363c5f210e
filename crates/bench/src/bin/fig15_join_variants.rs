//! Figure 15: the three hash-join variants (no/min/max partition), scalar
//! vs. vector, with the partition/build/probe phase breakdown.
//!
//! The paper joins 2·10^8 ⋈ 2·10^8; defaults here are scaled to 1/8.
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig15_join_variants [--scale X]`

use rsv_bench::{banner, bench, record, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_join::{
    join_max_partition, join_min_partition, join_no_partition, JoinVariant, DEFAULT_PART_TUPLES,
};
use rsv_simd::dispatch;

fn main() {
    banner(
        "fig15",
        "hash join variants (R ⋈ S, 32-bit key & payload)",
        "vector speedups: ~1.05x no-partition, ~1.25x min-partition, \
         ~3.3x max-partition; vectorized max-partition is the overall \
         winner by a wide margin (paper: 2.25x over the runner-up)",
    );
    let scale = Scale::from_env();
    let n = scale.tuples(25_000_000, 1 << 16);
    let backend = rsv_bench::backend();
    let threads = 1;
    let policy = ExecPolicy::new(threads);
    println!(
        "|R| = |S| = {n}, threads: {threads}, backend: {}\n",
        backend.name()
    );

    let mut rng = rsv_data::rng(1015);
    let w = rsv_data::join_workload(n, n, 1.0, 1.0, &mut rng);

    let mut table = Table::new(&[
        "variant",
        "partition (s)",
        "build (s)",
        "probe (s)",
        "total (s)",
        "speedup",
    ]);
    let mut scalar_totals = Vec::new();
    for vectorized in [false, true] {
        for variant in JoinVariant::ALL {
            let label = variant.label();
            let mut timings = None;
            let total = bench(2, || {
                let (r, _) = expect_infallible(dispatch!(backend, s => {
                    match variant {
                        JoinVariant::NoPartition => {
                            join_no_partition(s, vectorized, &w.inner, &w.outer, &policy)
                        }
                        JoinVariant::MinPartition => {
                            join_min_partition(s, vectorized, &w.inner, &w.outer, &policy)
                        }
                        JoinVariant::MaxPartition => join_max_partition(
                            s, vectorized, &w.inner, &w.outer, &policy, DEFAULT_PART_TUPLES,
                        ),
                    }
                }));
                assert_eq!(r.matches(), w.expected_matches, "{label} wrong result");
                timings = Some(r.timings);
            });
            let t = timings.unwrap();
            let kind = if vectorized { "vector" } else { "scalar" };
            let name = format!("{label}-{kind}");
            record(&Measurement {
                experiment: "fig15",
                series: &name,
                x: 0.0,
                value: total,
                unit: "seconds",
                backend: backend.name(),
                threads,
            });
            let speedup = if vectorized {
                let idx = scalar_totals.iter().position(|(l, _)| *l == label).unwrap();
                format!("{:.2}x", scalar_totals[idx].1 / total)
            } else {
                scalar_totals.push((label, total));
                "1.00x".into()
            };
            table.row(vec![
                name,
                format!("{:.3}", t.partition.as_secs_f64()),
                format!("{:.3}", t.build.as_secs_f64()),
                format!("{:.3}", t.probe.as_secs_f64()),
                format!("{total:.3}"),
                speedup,
            ]);
        }
    }
    println!("join time breakdown (seconds, lower is better):\n");
    table.print();
}
