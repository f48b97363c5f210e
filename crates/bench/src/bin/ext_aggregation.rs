//! Extension experiment: vectorized group-by aggregation (`COUNT`/`SUM`).
//!
//! Not a numbered figure in the paper, but §5 names aggregation as the
//! second major hash-table consumer ("insert and update partial
//! aggregates") and \[25\] studies its contention behavior. This experiment
//! sweeps the number of distinct groups from register-pressure-small to
//! RAM-resident, comparing the scalar loop against the vertical vectorized
//! update (lane-replicated tables while one copy per lane fits in L1d,
//! otherwise one shared table with read-modify-write conflicts between
//! lanes deferred).
//!
//! Usage: `cargo run --release -p rsv-bench --bin ext_aggregation [--scale X]`

use rsv_bench::{banner, bench, mtps, record, Measurement, Scale, Table};
use rsv_hashtab::GroupAggTable;
use rsv_simd::dispatch;

fn main() {
    banner(
        "ext-agg",
        "group-by aggregation (COUNT, SUM(u32) -> u64)",
        "on out-of-order CPUs the scalar loop (one increment per cycle) is \
         hard to beat; per-lane replicas keep tiny group counts free of \
         lane conflicts, and the two converge once cache misses on the \
         group table dominate (the Phi result [25] favors vector)",
    );
    let scale = Scale::from_env();
    let n = scale.tuples(16 << 20, 1 << 16);
    let backend = rsv_bench::backend();
    println!("tuples: {n}, backend: {}\n", backend.name());

    let mut rng = rsv_data::rng(1020);
    let values = rsv_data::uniform_u32(n, &mut rng);
    let raw = rsv_data::uniform_u32(n, &mut rng);

    let mut table = Table::new(&["groups", "scalar Mtps", "vector Mtps", "speedup"]);
    for log_groups in [2u32, 4, 6, 8, 10, 12, 14, 16, 18, 20] {
        let groups = 1usize << log_groups;
        let keys: Vec<u32> = raw.iter().map(|&k| k % groups as u32).collect();

        let s_secs = bench(2, || {
            let mut t = GroupAggTable::new(groups, 0.5);
            t.update_scalar(&keys, &values);
            assert!(t.groups() <= groups);
        });
        let v_secs = bench(2, || {
            dispatch!(backend, s => {
                let mut t = GroupAggTable::new(groups, 0.5);
                t.update_vector(s, &keys, &values);
                assert!(t.groups() <= groups);
            });
        });
        let sm = mtps(n, s_secs);
        let vm = mtps(n, v_secs);
        record(&Measurement {
            experiment: "ext-agg",
            series: "scalar",
            x: log_groups as f64,
            value: sm,
            unit: "Mtps",
            backend: backend.name(),
            threads: 1,
        });
        record(&Measurement {
            experiment: "ext-agg",
            series: "vector",
            x: log_groups as f64,
            value: vm,
            unit: "Mtps",
            backend: backend.name(),
            threads: 1,
        });
        table.row(vec![
            format!("2^{log_groups}"),
            format!("{sm:.0}"),
            format!("{vm:.0}"),
            format!("{:.2}x", vm / sm),
        ]);
    }
    println!("aggregation throughput (million tuples / second):\n");
    table.print();
}
