//! Ablation: skewed (Zipf) vs. uniform inputs.
//!
//! The paper evaluates on uniform data only, noting that "previous work has
//! shown that joins, partitioning, and sorting are faster under skew"
//! (§10). This ablation checks that claim for this reproduction: radix
//! partitioning and hash-table probing over Zipf-distributed keys should be
//! at least as fast as over uniform keys (hot partitions/buckets stay in
//! cache), and conflict serialization should not collapse under heavy lane
//! conflicts.
//!
//! Usage: `cargo run --release -p rsv-bench --bin ablation_skew [--scale X]`

use rsv_bench::{banner, bench, mtps, record, Measurement, Scale, Table};
use rsv_exec::{expect_infallible, ExecPolicy, DEFAULT_MORSEL_TUPLES};
use rsv_hashtab::{JoinSink, LinearTable};
use rsv_partition::histogram::histogram_scalar;
use rsv_partition::parallel::partition_pass;
use rsv_partition::shuffle::shuffle_vector_buffered;
use rsv_partition::RadixFn;
use rsv_simd::dispatch;

fn main() {
    banner(
        "ablation-skew",
        "uniform vs. Zipf-skewed keys (partition & probe)",
        "skew should not slow the vectorized kernels down (paper §10: the \
         literature finds joins/partitioning/sorting faster under skew); \
         conflict serialization must stay correct and graceful",
    );
    let scale = Scale::from_env();
    let n = scale.tuples(4 << 20, 1 << 16);
    let backend = rsv_bench::backend();
    println!("tuples: {n}, backend: {}\n", backend.name());

    let mut rng = rsv_data::rng(1021);
    let domain = 1u32 << 16;
    let uniform: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
        .iter()
        .map(|k| k % domain)
        .collect();
    let zipf = rsv_data::zipf_u32(n, domain, 1.0, &mut rng);
    let pays: Vec<u32> = (0..n as u32).collect();

    let mut table = Table::new(&["workload", "partition Mtps", "probe Mtps"]);
    for (name, keys) in [("uniform", &uniform), ("zipf(1.0)", &zipf)] {
        // vectorized buffered radix partitioning at 2^8 fanout
        let f = RadixFn::new(0, 8);
        let hist = histogram_scalar(f, keys);
        let mut ok = vec![0u32; n];
        let mut op = vec![0u32; n];
        let p_secs = bench(2, || {
            dispatch!(backend, s => {
                shuffle_vector_buffered(s, f, keys, &pays, &hist, &mut ok, &mut op)
            });
        });

        // vertical probe of an L2-resident table under the same key skew
        let build_n = 4096usize;
        let mut rng2 = rsv_data::rng(7);
        let bkeys = rsv_data::unique_u32(build_n, &mut rng2);
        let mut t = LinearTable::new(build_n, 0.5);
        let bpays: Vec<u32> = (0..build_n as u32).collect();
        t.build_scalar(&bkeys, &bpays);
        let pkeys: Vec<u32> = keys.iter().map(|&k| bkeys[k as usize % build_n]).collect();
        let mut sink = JoinSink::with_capacity(n + 64);
        let q_secs = bench(2, || {
            sink.clear();
            dispatch!(backend, s => {
                t.probe_vertical_interleaved(s, &pkeys, &pays, &mut sink)
            });
        });

        let pm = mtps(n, p_secs);
        let qm = mtps(n, q_secs);
        record(&Measurement {
            experiment: "ablation-skew",
            series: name,
            x: 0.0,
            value: pm,
            unit: "Mtps-partition",
            backend: backend.name(),
            threads: 1,
        });
        record(&Measurement {
            experiment: "ablation-skew",
            series: name,
            x: 1.0,
            value: qm,
            unit: "Mtps-probe",
            backend: backend.name(),
            threads: 1,
        });
        table.row(vec![
            name.to_string(),
            format!("{pm:.0}"),
            format!("{qm:.0}"),
        ]);
    }
    println!("throughput under skew (million tuples / second):\n");
    table.print();

    // ----------------------------------------------------------------
    // Scheduler ablation: the paper's static equal split (emulated as one
    // morsel per worker) vs. 16K-tuple work-stealing morsels, on uniform
    // and Zipf keys, for the full parallel partitioning pass. Under skew
    // the morsel scheduler should be no slower at t >= 4, and at t = 1 its
    // overhead should be within noise.
    // ----------------------------------------------------------------
    let cpus = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let threads_list: Vec<usize> = [1usize, 4]
        .iter()
        .copied()
        .filter(|&t| t <= 2 * cpus.max(2))
        .collect();
    println!("\nscheduler ablation (parallel partition pass, fanout 2^8):\n");
    let mut sched_table = Table::new(&["workload", "threads", "static Mtps", "morsel Mtps"]);
    let mut reports: Vec<(String, String)> = Vec::new();
    for (name, keys) in [("uniform", &uniform), ("zipf(1.0)", &zipf)] {
        let f = RadixFn::new(0, 8);
        for &threads in &threads_list {
            let mut per_schedule = Vec::new();
            for (sched, policy) in [
                ("static", ExecPolicy::new(threads).static_split()),
                (
                    "morsel",
                    ExecPolicy::new(threads).with_morsel_tuples(DEFAULT_MORSEL_TUPLES),
                ),
            ] {
                let mut ok = vec![0u32; n];
                let mut op = vec![0u32; n];
                let mut stats = None;
                let secs = bench(2, || {
                    let (_, st) = expect_infallible(dispatch!(backend, s => {
                        partition_pass(s, true, f, keys, &pays, &mut ok, &mut op, &policy)
                    }));
                    stats = Some(st);
                });
                let m = mtps(n, secs);
                record(&Measurement {
                    experiment: "ablation-sched",
                    series: name,
                    x: threads as f64,
                    value: m,
                    unit: match sched {
                        "static" => "Mtps-static",
                        _ => "Mtps-morsel",
                    },
                    backend: backend.name(),
                    threads,
                });
                if sched == "morsel" {
                    reports.push((
                        format!("{name} t={threads} ({sched})"),
                        stats.map(|s| s.to_string()).unwrap_or_default(),
                    ));
                }
                per_schedule.push(m);
            }
            sched_table.row(vec![
                name.to_string(),
                threads.to_string(),
                format!("{:.0}", per_schedule[0]),
                format!("{:.0}", per_schedule[1]),
            ]);
        }
    }
    sched_table.print();
    for (label, report) in reports {
        println!("\nper-worker breakdown — {label}:");
        print!("{report}");
    }
}
