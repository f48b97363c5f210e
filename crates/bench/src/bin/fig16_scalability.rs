//! Figure 16: thread scalability of radixsort and partitioned hash join,
//! now running on the morsel-driven work-stealing scheduler.
//!
//! **Host caveat**: the paper sweeps 1..244 hardware threads on a 61-core
//! Xeon Phi; the reference host has two vCPUs, so hardware speedup can
//! show only from 1 to 2 threads, and more threads oversubscribe it. The
//! identical multi-threaded code runs correctly at every thread count.
//! The numbers and the caveat are both recorded. The join's parts follow
//! `part_tuples` of the inner size, as the engine's do.
//!
//! Besides wall time, each thread count prints the per-worker breakdown
//! (morsels claimed, morsels stolen, per-phase time) of one metered
//! vectorized sort and join run after the timed ones.
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig16_scalability [--scale X]`

use rsv_bench::{banner, bench, record, worker_report, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_join::{join_max_partition, part_tuples};
use rsv_simd::{dispatch, KernelKind};
use rsv_sort::{radixsort_pairs, SortConfig};

fn main() {
    banner(
        "fig16",
        "thread scalability (radixsort & max-partition join)",
        "near-linear scaling with threads on real multi-core hardware; \
         on this host the curve is bounded by the available logical CPUs",
    );
    let scale = Scale::from_env();
    let n_sort = scale.tuples(12_500_000, 1 << 16);
    let n_join = scale.tuples(6_250_000, 1 << 14);
    let backend = rsv_bench::backend();
    let cpus = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    println!("sort {n_sort} tuples, join {n_join}x{n_join}; host logical cpus: {cpus}\n");

    let mut rng = rsv_data::rng(1016);
    let keys = rsv_data::uniform_u32(n_sort, &mut rng);
    let pays: Vec<u32> = (0..n_sort as u32).collect();
    let w = rsv_data::join_workload(n_join, n_join, 1.0, 1.0, &mut rng);

    let threads_list: Vec<usize> = [1usize, 2, 4, 8, 16]
        .iter()
        .copied()
        .filter(|&t| t <= (2 * cpus).max(2))
        .collect();

    let mut table = Table::new(&[
        "threads",
        "sort scalar (s)",
        "sort vector (s)",
        "join scalar (s)",
        "join vector (s)",
    ]);
    let mut worker_reports: Vec<(usize, String, String)> = Vec::new();
    for threads in threads_list {
        let cfg = SortConfig { radix_bits: 8 };
        let policy = ExecPolicy::new(threads);
        let ss = bench(2, || {
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
        let sort_vector = || {
            let mut k = keys.clone();
            let mut p = pays.clone();
            expect_infallible(dispatch!(backend, s => {
                radixsort_pairs(KernelKind::Vector(s), &mut k, &mut p, &cfg, &policy)
            }));
        };
        let sv = bench(2, sort_vector);
        let js = bench(2, || {
            let r = expect_infallible(join_max_partition(
                KernelKind::SCALAR,
                &w.inner,
                &w.outer,
                &policy,
                part_tuples(w.inner.len()),
            ));
            assert_eq!(r.matches(), w.expected_matches);
        });
        let join_vector = || {
            let r = expect_infallible(dispatch!(backend, s => {
                join_max_partition(KernelKind::Vector(s), &w.inner, &w.outer, &policy, part_tuples(w.inner.len()))
            }));
            assert_eq!(r.matches(), w.expected_matches);
        };
        let jv = bench(2, join_vector);
        for (series, v) in [
            ("sort-scalar", ss),
            ("sort-vector", sv),
            ("join-scalar", js),
            ("join-vector", jv),
        ] {
            record(&Measurement {
                experiment: "fig16",
                series,
                x: threads as f64,
                value: v,
                unit: "seconds",
                backend: backend.name(),
                threads,
            });
        }
        table.row(vec![
            threads.to_string(),
            format!("{ss:.3}"),
            format!("{sv:.3}"),
            format!("{js:.3}"),
            format!("{jv:.3}"),
        ]);
        // one more run of each, metered, after the timed ones
        worker_reports.push((
            threads,
            worker_report(sort_vector),
            worker_report(join_vector),
        ));
    }
    println!("wall time (seconds, lower is better):\n");
    table.print();

    for (threads, sort_report, join_report) in worker_reports {
        println!("\nscheduler breakdown at {threads} thread(s) — sort (vector):");
        print!("{sort_report}");
        println!("scheduler breakdown at {threads} thread(s) — join (vector):");
        print!("{join_report}");
    }
}
