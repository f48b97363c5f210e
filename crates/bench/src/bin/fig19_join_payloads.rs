//! Figure 19: max-partition hash join with varying numbers of 64-bit
//! payload columns on the two sides (R:S column ratios 4:1 .. 1:4).
//!
//! The join itself runs on (key, rid) pairs; the extra payload columns are
//! carried through the partition passes via destination replay and
//! dereferenced on output — the strategy §10.5.3 describes.
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig19_join_payloads [--scale X]`

use rsv_bench::{banner, bench, record, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_join::{join_max_partition, part_tuples};
use rsv_partition::histogram::histogram_scalar;
use rsv_partition::multicol::{apply_destinations_u64, compute_destinations};
use rsv_partition::HashFn;
use rsv_simd::{dispatch, KernelKind, Simd};

/// Partition `cols` alongside a key column (one destination pass + one
/// replay per column) — the per-pass cost Figure 19 adds per payload.
fn partition_with_columns<S: Simd>(
    s: S,
    keys: &[u32],
    cols: &[Vec<u64>],
    fanout: usize,
) -> (Vec<u32>, Vec<Vec<u64>>) {
    let f = HashFn::new(fanout);
    let hist = histogram_scalar(f, keys);
    let mut dest = vec![0u32; keys.len()];
    let mut out_keys = vec![0u32; keys.len()];
    compute_destinations(s, f, keys, &hist, &mut dest, &mut out_keys);
    let out_cols = cols
        .iter()
        .map(|c| {
            let mut out = vec![0u64; c.len()];
            apply_destinations_u64(s, &dest, c, &mut out);
            out
        })
        .collect();
    (out_keys, out_cols)
}

fn main() {
    banner(
        "fig19",
        "hash join with varying 64-bit payload columns (R:S 4:1..1:4)",
        "time grows with the total number of payload columns moved; \
         the side with more columns dominates",
    );
    let scale = Scale::from_env();
    let n_r = scale.tuples(1_250_000, 1 << 12);
    let n_s = scale.tuples(12_500_000, 1 << 14);
    let backend = rsv_bench::backend();
    println!("|R| = {n_r}, |S| = {n_s}, backend: {}\n", backend.name());

    let mut rng = rsv_data::rng(1019);
    let w = rsv_data::join_workload(n_r, n_s, 1.0, 1.0, &mut rng);

    let ratios = [
        (4usize, 1usize),
        (3, 1),
        (2, 1),
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
    ];
    let mut table = Table::new(&["R cols : S cols", "time (s)", "M output/s"]);
    for (rc, sc) in ratios {
        let r_cols: Vec<Vec<u64>> = (0..rc).map(|c| vec![c as u64; n_r]).collect();
        let s_cols: Vec<Vec<u64>> = (0..sc).map(|c| vec![c as u64; n_s]).collect();
        let mut matches = 0usize;
        let secs = bench(2, || {
            dispatch!(backend, s => {
                // carry every payload column through one partitioning pass
                // at the join's own fanout
                let fanout = n_r.div_ceil(part_tuples(n_r)).clamp(2, 256);
                let (_rk, _rcols) = partition_with_columns(s, &w.inner.keys, &r_cols, fanout);
                let (_sk, _scols) = partition_with_columns(s, &w.outer.keys, &s_cols, fanout);
                // join on (key, rid); wide payloads are dereferenced via the
                // rids in the join output
                let policy = ExecPolicy::new(1);
                let r = expect_infallible(join_max_partition(
                    KernelKind::Vector(s), &w.inner, &w.outer, &policy, part_tuples(w.inner.len()),
                ));
                matches = r.matches();
            });
        });
        assert_eq!(matches, w.expected_matches);
        record(&Measurement {
            experiment: "fig19",
            series: &format!("{rc}:{sc}"),
            x: (rc + sc) as f64,
            value: secs,
            unit: "seconds",
            backend: backend.name(),
            threads: 1,
        });
        table.row(vec![
            format!("{rc} : {sc}"),
            format!("{secs:.3}"),
            format!("{:.1}", matches as f64 / secs / 1e6),
        ]);
    }
    println!("join time with payload movement (seconds):\n");
    table.print();
}
