//! Observability smoke check: metering must be free when it is off, and
//! a metering session must leave nothing behind.
//!
//! Measures the fused selection scan (the hottest instrumented kernel)
//! two ways:
//!
//! 1. `disabled` — instrumentation compiled in, metering off: the state
//!    every benchmark runs in,
//! 2. `counting` — a fully metered run under `rsv_metrics::collect`
//!    (reported, not asserted: metered runs are allowed to cost
//!    something).
//!
//! The binary then asserts, and exits non-zero otherwise, that:
//!
//! * a metered scan reports exactly its input size as `ScanTuplesIn`
//!   (0 on the `noop` build, where recording is compiled out),
//! * once `collect` returns, metering is off on the calling thread again,
//!   and a following `collect` over nothing harvests zero counters.
//!
//! CI runs it twice — on the default build and on `--features noop`,
//! where every recording call compiles to nothing — and eyeballs that the
//! two builds' `disabled` throughputs agree, which is the
//! benchmark-parity evidence for the zero-cost claim in DESIGN.md §5d.
//!
//! Usage: `cargo run --release -p rsv-bench --bin noop_parity [--scale X]`

use rsv_bench::{bench, mtps, record, Measurement, Scale, Table};
use rsv_metrics::Metric;
use rsv_scan::{scan, ScanPredicate, ScanVariant};

fn main() {
    let build = if cfg!(feature = "noop") {
        "noop (recording compiled out)"
    } else {
        "default (recording compiled in)"
    };
    println!("=== noop-parity: metering-disabled benchmark parity ===");
    println!("metrics build: {build}\n");
    let scale = Scale::from_env();
    let n = scale.tuples(4 << 20, 1 << 14);
    let backend = rsv_bench::backend();
    let variant = ScanVariant::VectorSelStoreDirect;
    println!(
        "tuples: {n}, vector backend: {}, variant: {}\n",
        backend.name(),
        variant.label()
    );

    let mut rng = rsv_data::rng(2026);
    let keys = rsv_data::uniform_u32(n, &mut rng);
    let pays: Vec<u32> = (0..n as u32).collect();
    let mut out_keys = vec![0u32; n];
    let mut out_pays = vec![0u32; n];
    let (lo, hi) = rsv_data::selection_bounds(0.10);
    let pred = ScanPredicate {
        lower: lo,
        upper: hi,
    };
    let run = |out_keys: &mut [u32], out_pays: &mut [u32]| {
        scan(backend, variant, &keys, &pays, pred, out_keys, out_pays);
    };

    let reps = 7;
    let mut table = Table::new(&["mode", "Mtps"]);
    // record immediately after each bench so `RSV_METRICS` snapshots pair
    // with the row they describe
    let report = |table: &mut Table, series: &str, secs: f64| {
        let v = mtps(n, secs);
        table.row(vec![series.to_string(), format!("{v:.0}")]);
        record(&Measurement {
            experiment: "noop-parity",
            series,
            x: 0.0,
            value: v,
            unit: "Mtps",
            backend: backend.name(),
            threads: 1,
        });
    };
    let t_disabled = bench(reps, || run(&mut out_keys, &mut out_pays));
    report(&mut table, "disabled", t_disabled);
    let t_counting = bench(reps, || {
        let ((), _sink) = rsv_metrics::collect(|| run(&mut out_keys, &mut out_pays));
    });
    report(&mut table, "counting", t_counting);
    table.print();

    // Sanity on the counting run's snapshot: the scan must have reported
    // exactly its input size (a cheap end-to-end check that metering is
    // actually live in this build unless compiled out).
    let ((), sink) = rsv_metrics::collect(|| run(&mut out_keys, &mut out_pays));
    let seen = sink.total().get(Metric::ScanTuplesIn);
    let expected = if cfg!(feature = "noop") { 0 } else { n as u64 };
    assert_eq!(seen, expected, "metered scan reported {seen} tuples in");

    // The session is gone once `collect` returns: nothing stays enabled on
    // this thread, and nothing carries over into the next session.
    assert!(
        !rsv_metrics::enabled(),
        "metering still enabled after collect returned"
    );
    let ((), empty) = rsv_metrics::collect(|| ());
    assert!(
        empty.total().is_zero(),
        "an empty session harvested counters: {}",
        empty.total().to_json()
    );
    println!("\nparity OK");
}
