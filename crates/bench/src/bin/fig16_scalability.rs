//! Figure 16: thread scalability of radixsort and partitioned hash join,
//! now running on the morsel-driven work-stealing scheduler.
//!
//! **Host caveat**: the paper sweeps 1..244 hardware threads on a 61-core
//! Xeon Phi; this reproduction machine may expose far fewer logical CPUs
//! (possibly one), in which case the identical multi-threaded code runs
//! correctly but cannot exhibit hardware speedup. The numbers and the
//! caveat are both recorded.
//!
//! Besides wall time, each thread count prints the per-worker scheduler
//! breakdown (morsels claimed, morsels stolen, tuples, per-phase time) of
//! the final vectorized sort and join runs.
//!
//! Usage: `cargo run --release -p rsv-bench --bin fig16_scalability [--scale X]`

use rsv_bench::{banner, bench, record, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_join::{join_max_partition, DEFAULT_PART_TUPLES};
use rsv_simd::{dispatch, Portable};
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
            let s = Portable::<16>::new();
            expect_infallible(radixsort_pairs(s, false, &mut k, &mut p, &cfg, &policy));
        });
        let mut sort_stats = None;
        let sv = bench(2, || {
            let mut k = keys.clone();
            let mut p = pays.clone();
            let st = expect_infallible(dispatch!(backend, s => {
                radixsort_pairs(s, true, &mut k, &mut p, &cfg, &policy)
            }));
            sort_stats = Some(st);
        });
        let js = bench(2, || {
            let (r, _) = expect_infallible(dispatch!(backend, s => {
                join_max_partition(s, false, &w.inner, &w.outer, &policy, DEFAULT_PART_TUPLES)
            }));
            assert_eq!(r.matches(), w.expected_matches);
        });
        let mut join_stats = None;
        let jv = bench(2, || {
            let (r, st) = expect_infallible(dispatch!(backend, s => {
                join_max_partition(s, true, &w.inner, &w.outer, &policy, DEFAULT_PART_TUPLES)
            }));
            assert_eq!(r.matches(), w.expected_matches);
            join_stats = Some(st);
        });
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
        worker_reports.push((
            threads,
            sort_stats.map(|s| s.to_string()).unwrap_or_default(),
            join_stats.map(|s| s.to_string()).unwrap_or_default(),
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
