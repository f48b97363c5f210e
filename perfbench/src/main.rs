//! The repository's benchmark: three seeded query workloads, each run by one
//! closed-loop client against `rsv_core::Engine`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The client issues the next query only when the previous one has
//! returned, and checks every answer against a scalar reference computed at
//! set-up. The engine runs `min(2, logical CPUs)` worker threads on
//! `Backend::best()`. With `--trace 0` the run reports the end-to-end
//! metrics, with tracing and metering off. With `--trace 1` it alternates
//! untraced and traced queries, reports the per-layer metrics of
//! `report.rs` and writes the spans to `perfbench/out/`. The last line of
//! standard output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it print the same metrics with
//! their units, and a stamp with the platform, the seed and the sample
//! counts.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml` is the
//! benchmark's self-check: every workload at a tiny size.

mod report;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use rsv_core::exec::{parallel_scope, platform_report};
use rsv_core::metrics::Metric;
use rsv_core::Engine;

use report::{median, nearest_rank, Value};
use trace::{QueryTrace, Tracer};
use workload::{CompressedAgg, Pipeline, Scale, SharedJoinAgg, Workload};

const WORKLOADS: [&str; 3] = [Pipeline::NAME, CompressedAgg::NAME, SharedJoinAgg::NAME];
/// Worker threads: `min(MAX_THREADS, logical CPUs)`.
const MAX_THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Every run times at least this many queries, however short `--seconds`.
const MIN_QUERIES: usize = 4;
/// Traced queries kept per run (each holds its spans and counters).
const MAX_TRACED: usize = 400;
/// Timed empty `parallel_scope` calls behind `exec.scope_us`.
const SCOPE_SAMPLES: usize = 201;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The outcome of one run.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Value>,
    /// Platform, seed and sample counts, for the record.
    stamp: String,
    /// Hash of one traced query's work-class counters (`--trace 1`).
    work_fingerprint: Option<u64>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let r = run(&args, Scale::Full);
    println!("{}", r.stamp);
    for m in &r.metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        report::result_line(r.correct, r.attempted, r.failed, &r.metrics)
    );
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn run(args: &Args, scale: Scale) -> Report {
    if args.workload == Pipeline::NAME {
        drive::<Pipeline>(args, scale)
    } else if args.workload == CompressedAgg::NAME {
        drive::<CompressedAgg>(args, scale)
    } else {
        drive::<SharedJoinAgg>(args, scale)
    }
}

/// Runs and checks one query; a panic counts as a wrong answer.
fn query<W: Workload>(w: &W, engine: &Engine, tr: &mut Tracer) -> (Duration, bool) {
    tr.begin_query();
    let t = Instant::now();
    let answer = catch_unwind(AssertUnwindSafe(|| w.run(engine, tr)));
    let dt = t.elapsed();
    tr.end_query();
    (dt, answer.is_ok_and(|a| w.check(&a)))
}

fn drive<W: Workload>(args: &Args, scale: Scale) -> Report {
    let platform = platform_report();
    let threads = platform.logical_cpus.min(MAX_THREADS);
    let engine = Engine::new().with_threads(threads);
    let mut tracer = Tracer::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // Set-up: inputs, compression, reference answer and one warm-up query.
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    let setups = if args.trace { 1 } else { SETUP_REPS };
    for _ in 0..setups {
        drop(state.take()); // one copy at a time, so peak memory holds one
        let t = Instant::now();
        let w = W::setup(&engine, args.seed, scale);
        tally(query(&w, &engine, &mut tracer).1);
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some(w);
    }
    let w = state.expect("set-up runs at least once");

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() + traced.len() < MIN_QUERIES || start.elapsed() < budget {
        let trace_this = args.trace && plain.len() > traced.len() && traced.len() < MAX_TRACED;
        tracer.set_enabled(trace_this);
        let (dt, ok) = query(&w, &engine, &mut tracer);
        tally(ok);
        if trace_this {
            traced.push(dt);
        } else {
            plain.push(dt);
        }
    }
    tracer.set_enabled(false);

    let plain_ms = to_ms(&plain);
    let p90 = nearest_rank(&plain_ms, 0.9);
    let stamp = format!(
        "stamp: workload={} seed={} backend={} threads={threads} logical_cpus={} \
         simd_width_bits={} untraced_queries={} above_p90={} traced_queries={} \
         attempted={attempted} failed={failed} query_fail_ratio={}",
        W::NAME,
        args.seed,
        engine.backend().name(),
        platform.logical_cpus,
        platform.simd_width_bits(),
        plain_ms.len(),
        plain_ms.iter().filter(|&&x| x > p90).count(),
        traced.len(),
        failed as f64 / attempted as f64,
    );
    let mut report = Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics: Vec::new(),
        stamp,
        work_fingerprint: None,
    };
    if !args.trace {
        let busy_s: f64 = plain.iter().map(Duration::as_secs_f64).sum();
        let [p50_name, p90_name, tput, setup, rss, ok] = report::END_TO_END;
        report.metrics = vec![
            Value::new(p50_name, median(&plain_ms), "ms"),
            Value::new(p90_name, p90, "ms"),
            Value::new(
                tput,
                (w.tuples_in() * plain.len()) as f64 / busy_s / 1e6,
                "Mtuples/s",
            ),
            Value::new(setup, median(&setup_s), "s"),
            Value::new(rss, report::peak_rss_mb(), "MiB"),
            Value::new(ok, 1.0 - failed as f64 / attempted as f64, "ratio"),
        ];
        return report;
    }

    let traced_ms = to_ms(&traced);
    let queries = tracer.by_query();
    for &(name, unit, per_query) in report::PER_QUERY {
        let v: Vec<f64> = queries.iter().map(per_query).collect();
        report.metrics.push(Value::new(name, median(&v), unit));
    }
    let [scope, overhead, traced_p50, plain_p50, n_traced] = report::PER_RUN;
    report.metrics.extend([
        Value::new(scope.0, empty_scope_us(threads), scope.1),
        Value::new(
            overhead.0,
            median(&traced_ms) / median(&plain_ms),
            overhead.1,
        ),
        Value::new(traced_p50.0, median(&traced_ms), traced_p50.1),
        Value::new(plain_p50.0, median(&plain_ms), plain_p50.1),
        Value::new(n_traced.0, traced_ms.len() as f64, n_traced.1),
    ]);

    // Child spans must fit in their parent, and work-class counters must
    // repeat exactly from query to query.
    let overfull = tracer.overfull_spans();
    for s in &overfull {
        eprintln!(
            "perfbench: children of span `{}` (query {}) outlast it",
            s.name, s.query
        );
    }
    let work: Vec<Vec<u8>> = queries.iter().map(repeatable_work::<W>).collect();
    let repeats = work.windows(2).all(|p| p[0] == p[1]);
    if !repeats {
        eprintln!("perfbench: work counters differ between traced queries");
    }
    report.correct &= overfull.is_empty() && repeats;
    let fingerprint = work.first().map_or(0, |b| fnv1a(b));
    report.work_fingerprint = Some(fingerprint);
    report.stamp += &format!(" work_fingerprint={fingerprint:016x}");

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.jsonl", W::NAME, args.seed));
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"backend\":\"{}\",\"threads\":{threads},\"logical_cpus\":{},\"simd_width_bits\":{},\"work_fingerprint\":\"{fingerprint:016x}\"}}",
        W::NAME,
        args.seed,
        engine.backend().name(),
        platform.logical_cpus,
        platform.simd_width_bits(),
    );
    if let Err(e) = tracer.write_jsonl(&path, &header) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    report
}

/// The work-class counters a traced query must repeat exactly. When the
/// workload's join builds one table with concurrent workers
/// ([`Workload::SHARED_BUILD`]), that join's hash-chain slot inspections are
/// left out: the workers place colliding keys in claim order, so probe
/// chains differ from run to run while the answer does not.
fn repeatable_work<W: Workload>(q: &QueryTrace<'_>) -> Vec<u8> {
    let mut c = q.counters();
    if W::SHARED_BUILD {
        let join = q.counters_of("join");
        for m in [Metric::LpProbes, Metric::DhProbes] {
            c.counts[m as usize] -= join.get(m);
        }
    }
    c.work_bytes()
}

fn to_ms(v: &[Duration]) -> Vec<f64> {
    v.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

/// Median microseconds of an empty `parallel_scope`: the fixed cost every
/// parallel operator call pays.
fn empty_scope_us(threads: usize) -> f64 {
    let us: Vec<f64> = (0..SCOPE_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            parallel_scope(threads, |_| ());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&us)
}

/// FNV-1a, to print work counters as one comparable number.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Report {
        let args = Args {
            workload: workload.to_string(),
            seed: 7,
            seconds: 0.0,
            trace,
        };
        run(&args, Scale::Tiny)
    }

    /// The `name`s of the entries of the array `key` of `BENCHMARK.json`, in
    /// order. A plain string scan: the entries hold no nested arrays.
    fn spec_names(spec: &str, key: &str) -> Vec<String> {
        let at = spec
            .find(&format!("\"{key}\": ["))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no array `{key}`"));
        let array = &spec[at..];
        let array = &array[..array.find(']').expect("the array is closed")];
        array
            .split("\"name\"")
            .skip(1)
            .map(|entry| entry.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    /// The self-check: each workload at a tiny size answers every query
    /// correctly and reports exactly the metrics `BENCHMARK.json` lists, as
    /// end-to-end metrics untraced and as per-layer metrics traced.
    #[test]
    fn every_workload_reports_every_metric_without_failures() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        assert_eq!(spec_names(&spec, "workloads"), WORKLOADS);
        for workload in WORKLOADS {
            for (trace, array) in [(false, "end_to_end"), (true, "per_layer")] {
                let r = tiny(workload, trace);
                assert!(r.correct, "{workload} trace={trace}: {}", r.stamp);
                assert_eq!(r.failed, 0);
                assert!(r.attempted > MIN_QUERIES as u64);
                let got: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
                assert_eq!(got, spec_names(&spec, array), "{workload} trace={trace}");
                for m in &r.metrics {
                    assert!(m.value.is_finite() && m.value >= 0.0, "{}", m.name);
                }
            }
        }
    }

    #[test]
    fn traced_work_counts_repeat_across_runs() {
        for workload in WORKLOADS {
            let a = tiny(workload, true).work_fingerprint;
            assert!(a.is_some());
            assert_eq!(a, tiny(workload, true).work_fingerprint, "{workload}");
        }
    }

    #[test]
    fn malformed_arguments_are_refused() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(parse("--workload pipeline --seed 3 --seconds 1.5 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload pipeline --trace 2").is_err());
        assert!(parse("--workload pipeline --seconds -1").is_err());
        assert!(parse("--workload pipeline --seed").is_err());
        assert!(parse("--workload pipeline --verbose 1").is_err());
    }
}
