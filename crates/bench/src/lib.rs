//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index). They share:
//!
//! * [`Scale`] — a global problem-size multiplier (`--scale 0.1` or the
//!   `RSV_SCALE` environment variable) so the experiments fit any machine,
//! * [`bench()`] — best-of-`reps` wall-clock measurement,
//! * [`Table`] — aligned console tables shaped like the paper's plots,
//! * [`record`] — optional JSON-lines output (`RSV_JSON=path`) consumed by
//!   the EXPERIMENTS.md generator.
//!
//! When `RSV_METRICS=path` names a second JSON-lines file, [`bench()`] runs
//! the measured closure one extra time under an `rsv_metrics` session and
//! [`record`] appends the harvested work-counter snapshot there, carrying
//! the same `experiment`/`series`/`x`/`backend`/`threads` descriptors as
//! the timing row it rides alongside. The metered run happens *after* the
//! timed repetitions, so enabling snapshots never perturbs measurements.

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

/// Problem-size multiplier for all experiments.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    /// Parse from `--scale X` argv or the `RSV_SCALE` environment variable
    /// (default 1.0). An unparsable or non-positive value is a hard error:
    /// silently falling back to the default would run the wrong problem
    /// size and record misleading measurements.
    pub fn from_env() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        match Self::parse(std::env::var("RSV_SCALE").ok().as_deref(), &args) {
            Ok(scale) => Scale(scale),
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// The parsing behind [`Scale::from_env`], testable without touching
    /// the process environment. `--scale` (last occurrence wins) overrides
    /// `RSV_SCALE`.
    fn parse(env: Option<&str>, args: &[String]) -> Result<f64, String> {
        let mut scale = match env {
            None => 1.0,
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("RSV_SCALE value `{v}` is not a number"))?,
        };
        for i in 0..args.len() {
            if args[i] == "--scale" {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| "--scale requires a value".to_string())?;
                scale = v
                    .parse::<f64>()
                    .map_err(|_| format!("--scale value `{v}` is not a number"))?;
            }
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(format!(
                "scale must be a positive finite number, got {scale}"
            ));
        }
        Ok(scale)
    }

    /// Scale a tuple count (at least `min`).
    pub fn tuples(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.0) as usize).max(min)
    }
}

/// Best-of-`reps` wall-clock seconds of `f`.
///
/// With `RSV_METRICS` set, `f` runs once more under a metering session
/// after the timed repetitions; the counter snapshot is stashed for the
/// next [`record`] call on this thread, which writes it alongside the
/// timing row.
pub fn bench(reps: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    if metrics_path().is_some() {
        let ((), sink) = rsv_metrics::collect(&mut f);
        LAST_METRICS.with(|m| *m.borrow_mut() = Some(sink.total()));
    }
    best
}

thread_local! {
    /// The counter snapshot from the latest metered [`bench`] run, waiting
    /// for the [`record`] call that pairs it with its run descriptors.
    static LAST_METRICS: RefCell<Option<rsv_metrics::Counters>> = const { RefCell::new(None) };
}

/// The metrics-snapshot JSON-lines path, when `RSV_METRICS` is set.
fn metrics_path() -> Option<String> {
    std::env::var("RSV_METRICS").ok()
}

/// Million tuples per second. A zero-duration measurement yields `NaN`
/// (not `inf`), which [`record`] serializes as JSON `null` instead of an
/// unparseable `inf` row.
pub fn mtps(tuples: usize, secs: f64) -> f64 {
    if secs == 0.0 {
        return f64::NAN;
    }
    tuples as f64 / secs / 1e6
}

/// A simple aligned console table.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print with aligned columns.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            s
        };
        println!("{}", line(&self.headers));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            println!("{}", line(row));
        }
    }
}

/// One recorded measurement.
#[derive(Debug)]
pub struct Measurement<'a> {
    /// Experiment id, e.g. `"fig05"`.
    pub experiment: &'a str,
    /// Series (line in the figure), e.g. `"vector-selstore-indirect"`.
    pub series: &'a str,
    /// X-axis value (selectivity, table size, fanout, ...).
    pub x: f64,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`, e.g. `"Mtps"` or `"seconds"`.
    pub unit: &'a str,
    /// SIMD backend the measurement ran on (`"avx512"`, `"avx2"`,
    /// `"portable"`).
    pub backend: &'a str,
    /// Worker thread count the measurement ran with.
    pub threads: usize,
}

/// Append a measurement to the JSON-lines file named by `RSV_JSON`
/// (silently does nothing when the variable is unset). With
/// `RSV_METRICS=path` set and a metered [`bench()`] snapshot pending, also
/// appends the work-counter snapshot there under the same descriptors.
pub fn record(m: &Measurement<'_>) {
    if let Ok(path) = std::env::var("RSV_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{}", to_json(m));
        }
    }
    if let Some(path) = metrics_path() {
        if let Some(c) = LAST_METRICS.with(|s| s.borrow_mut().take()) {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
            {
                let _ = writeln!(f, "{}", metrics_json(m, &c));
            }
        }
    }
}

/// Serialize a metrics snapshot with the run descriptors of the timing
/// row it accompanies.
fn metrics_json(m: &Measurement<'_>, c: &rsv_metrics::Counters) -> String {
    format!(
        "{{\"experiment\":{},\"series\":{},\"x\":{},\"backend\":{},\"threads\":{},\
         \"metrics\":{}}}",
        json_str(m.experiment),
        json_str(m.series),
        json_num(m.x),
        json_str(m.backend),
        m.threads,
        c.to_json(),
    )
}

/// Serialize one measurement as a JSON object (the fields are all numbers
/// or identifier-like strings, so escaping only needs the JSON basics).
fn to_json(m: &Measurement<'_>) -> String {
    format!(
        "{{\"experiment\":{},\"series\":{},\"x\":{},\"value\":{},\"unit\":{},\
         \"backend\":{},\"threads\":{}}}",
        json_str(m.experiment),
        json_str(m.series),
        json_num(m.x),
        json_num(m.value),
        json_str(m.unit),
        json_str(m.backend),
        m.threads,
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN literal; null keeps the line parseable.
        "null".to_string()
    }
}

/// The SIMD backend experiments should use: `RSV_BACKEND=avx512|avx2|portable`
/// or `--backend NAME`, defaulting to the best available. Lets one host
/// reproduce both the paper's "Xeon Phi" (avx512) and "Haswell" (avx2)
/// columns.
pub fn backend() -> rsv_simd::Backend {
    let mut name = std::env::var("RSV_BACKEND").ok();
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == "--backend" {
            name = args.get(i + 1).cloned();
        }
    }
    match name.as_deref() {
        None => rsv_simd::Backend::best(),
        Some(n) => rsv_simd::Backend::all_available()
            .into_iter()
            .find(|b| b.name() == n)
            .unwrap_or_else(|| panic!("backend {n} not available on this host")),
    }
}

/// Format a byte count the way the paper's x-axes do (4 KB .. 64 MB).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{} KB", bytes >> 10)
    } else {
        format!("{bytes} B")
    }
}

/// Standard experiment banner.
pub fn banner(id: &str, title: &str, shape: &str) {
    println!("=== {id}: {title} ===");
    println!("paper-expected shape: {shape}");
    let r = rsv_exec::platform_report();
    println!(
        "host: {} logical cpus, simd {} bits ({})\n",
        r.logical_cpus,
        r.simd_width_bits(),
        r.model_name.as_deref().unwrap_or("unknown cpu")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_tuples() {
        let s = Scale(0.5);
        assert_eq!(s.tuples(1000, 1), 500);
        assert_eq!(s.tuples(10, 64), 64);
    }

    #[test]
    fn bench_returns_best() {
        let secs = bench(3, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
    }

    #[test]
    fn mtps_math() {
        assert!((mtps(5_000_000, 1.0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(4096), "4 KB");
        assert_eq!(fmt_bytes(64 << 20), "64 MB");
    }

    #[test]
    fn json_line_shape() {
        let m = Measurement {
            experiment: "fig05",
            series: "vector \"q\"",
            x: 0.5,
            value: 123.25,
            unit: "Mtps",
            backend: "avx512",
            threads: 8,
        };
        assert_eq!(
            to_json(&m),
            "{\"experiment\":\"fig05\",\"series\":\"vector \\\"q\\\"\",\
             \"x\":0.5,\"value\":123.25,\"unit\":\"Mtps\",\
             \"backend\":\"avx512\",\"threads\":8}"
        );
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn metrics_line_shape() {
        let m = Measurement {
            experiment: "fig05",
            series: "vector-selstore-direct",
            x: 10.0,
            value: 0.0,
            unit: "Mtps",
            backend: "portable",
            threads: 1,
        };
        let mut c = rsv_metrics::Counters::new();
        c.bump(rsv_metrics::Metric::ScanTuplesIn, 1024);
        c.bump(rsv_metrics::Metric::ScanTuplesOut, 100);
        let j = metrics_json(&m, &c);
        assert!(
            j.starts_with(
                "{\"experiment\":\"fig05\",\"series\":\"vector-selstore-direct\",\
                 \"x\":10,\"backend\":\"portable\",\"threads\":1,\"metrics\":{"
            ),
            "{j}"
        );
        assert!(j.contains("\"scan_tuples_in\":1024"), "{j}");
        assert!(j.ends_with("}}"), "{j}");
    }

    /// End-to-end `RSV_METRICS` flow: a metered [`bench`] stashes a
    /// snapshot, the next [`record`] appends it. Env-var manipulation is
    /// scoped to this test; no other test in this binary reads
    /// `RSV_METRICS`.
    #[cfg(not(feature = "noop"))]
    #[test]
    fn rsv_metrics_snapshot_rides_alongside_record() {
        let path =
            std::env::temp_dir().join(format!("rsv-metrics-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("RSV_METRICS", &path);
        bench(1, || {
            rsv_metrics::count(rsv_metrics::Metric::ScanTuplesIn, 42)
        });
        record(&Measurement {
            experiment: "smoke",
            series: "s",
            x: 1.0,
            value: 2.0,
            unit: "Mtps",
            backend: "portable",
            threads: 1,
        });
        std::env::remove_var("RSV_METRICS");
        let line = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(line.contains("\"experiment\":\"smoke\""), "{line}");
        assert!(
            line.contains("\"metrics\":{\"scan_tuples_in\":42}"),
            "{line}"
        );
        // the stash is consumed: a second record emits no snapshot row
        assert!(
            LAST_METRICS.with(|s| s.borrow().is_none()),
            "snapshot not consumed"
        );
    }

    #[test]
    fn scale_parsing() {
        let args = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        assert_eq!(Scale::parse(None, &args(&["bin"])), Ok(1.0));
        assert_eq!(Scale::parse(Some("0.25"), &args(&["bin"])), Ok(0.25));
        // --scale overrides the environment; last occurrence wins
        assert_eq!(
            Scale::parse(Some("2"), &args(&["bin", "--scale", "0.5", "--scale", "3"])),
            Ok(3.0)
        );
        // unparsable values are hard errors, not silent fallbacks
        assert!(Scale::parse(Some("fast"), &args(&["bin"])).is_err());
        assert!(Scale::parse(None, &args(&["bin", "--scale", "huge"])).is_err());
        assert!(Scale::parse(None, &args(&["bin", "--scale"])).is_err());
        assert!(Scale::parse(None, &args(&["bin", "--scale", "0"])).is_err());
        assert!(Scale::parse(None, &args(&["bin", "--scale", "-1"])).is_err());
        assert!(Scale::parse(None, &args(&["bin", "--scale", "inf"])).is_err());
    }

    #[test]
    fn table_prints() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }
}
