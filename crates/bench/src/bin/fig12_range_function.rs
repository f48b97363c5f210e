//! Figure 12: range partition function throughput vs. fanout — scalar
//! branching/branchless binary search, vectorized binary search
//! (Algorithm 12), and the horizontal SIMD tree index of \[26\].
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig12_range_function [--scale X]`

use rsv_bench::{banner, bench, mtps, record, Measurement, Scale, Table};
use rsv_partition::range::{RangeIndex, RangePartitioner};
use rsv_partition::PartitionFn;
use rsv_simd::{dispatch, Simd};

fn partition_column_vector<S: Simd>(
    s: S,
    f: rsv_partition::RangeFn<'_>,
    keys: &[u32],
    out: &mut [u32],
) {
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let mut i = 0;
            while i + w <= keys.len() {
                let p = f.partition_vector(s, s.load(&keys[i..]));
                s.store(p, &mut out[i..]);
                i += w;
            }
            for idx in i..keys.len() {
                out[idx] = f.partition(keys[idx]) as u32;
            }
        },
    );
}

fn main() {
    banner(
        "fig12",
        "range partition function vs. fanout (32-bit keys)",
        "vector binary search >> scalar (paper: 7-15x Phi, 2.4-2.8x \
         Haswell); the horizontal tree index wins on complex cores but \
         loses where scalar index arithmetic saturates the pipeline",
    );
    let scale = Scale::from_env();
    let n = scale.tuples(8 << 20, 1 << 16);
    let backend = rsv_bench::backend();
    println!("keys: {n}, vector backend: {}\n", backend.name());

    let mut rng = rsv_data::rng(1012);
    let keys = rsv_data::uniform_u32(n, &mut rng);
    let mut out = vec![0u32; n];

    let mut table = Table::new(&[
        "fanout",
        "scalar-branch",
        "scalar-nobranch",
        "vec-binsearch",
        "tree-index",
    ]);
    for bits in 3..=13u32 {
        let fanout = 1usize << bits;
        let splitters = rsv_data::splitters(fanout);
        let rp = RangePartitioner::new(&splitters);
        let idx = RangeIndex::new(&splitters, backend.lanes());
        let mut cells = vec![fanout.to_string()];
        let run = |name: &str, f: &mut dyn FnMut()| {
            let secs = bench(2, f);
            let v = mtps(n, secs);
            record(&Measurement {
                experiment: "fig12",
                series: name,
                x: bits as f64,
                value: v,
                unit: "Mtps",
                backend: backend.name(),
                threads: 1,
            });
            format!("{v:.0}")
        };
        cells.push(run("scalar-branching", &mut || {
            for (i, &k) in keys.iter().enumerate() {
                out[i] = rp.partition_branching(k) as u32;
            }
        }));
        cells.push(run("scalar-branchless", &mut || {
            for (i, &k) in keys.iter().enumerate() {
                out[i] = rp.partition_branchless(k) as u32;
            }
        }));
        cells.push(run("vector-binary-search", &mut || {
            dispatch!(backend, s => {
                partition_column_vector(s, rp.range_fn(), &keys, &mut out)
            })
        }));
        cells.push(run(
            "tree-index",
            &mut || dispatch!(backend, s => { idx.partition_column(s, &keys, &mut out) }),
        ));
        table.row(cells);
    }
    println!("throughput (million keys / second):\n");
    table.print();
}
