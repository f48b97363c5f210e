//! Metric definitions, summary statistics and the result line.

use rsv_core::metrics::Metric as M;

use crate::trace::QueryTrace;

/// One reported metric.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Value {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Value {
        Value { name, value, unit }
    }
}

/// The end-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [&str; 6] = [
    "query_p50_ms",
    "query_p90_ms",
    "throughput_mtps",
    "setup_s",
    "peak_rss_mb",
    "query_ok_ratio",
];

type PerQuery = fn(&QueryTrace<'_>) -> f64;

/// Per-layer metrics read off one traced query each; a run reports their
/// median over its traced queries. Every ratio is followed by its base.
/// A layer the workload does not run reads 0.
pub const PER_QUERY: &[(&str, &str, PerQuery)] = &[
    ("scan.select_ms", "ms", |q| q.ms("scan.select")),
    ("scan.selectivity", "ratio", |q| {
        ratio(q, M::ScanTuplesOut, M::ScanTuplesIn)
    }),
    ("scan.tuples_in", "count", |q| count(q, M::ScanTuplesIn)),
    ("column.select_compressed_ms", "ms", |q| {
        q.ms("column.select_compressed")
    }),
    ("column.blocks_decoded", "count", |q| {
        count(q, M::ColBlocksDecoded)
    }),
    ("column.bytes_per_user_byte", "B/B", |q| {
        div(q.note("column.packed_bytes"), q.note("column.raw_bytes"))
    }),
    ("column.raw_bytes", "B", |q| {
        q.note("column.raw_bytes") as f64
    }),
    ("bloom.semijoin_ms", "ms", |q| q.ms("bloom.semijoin")),
    ("bloom.words_per_key", "words/key", |q| {
        ratio(q, M::BloomWordsTouched, M::BloomKeysProbed)
    }),
    ("bloom.keys_probed", "count", |q| {
        count(q, M::BloomKeysProbed)
    }),
    ("bloom.false_positive_ratio", "ratio", |q| {
        let passed_wrongly = q
            .note("bloom.passed")
            .saturating_sub(q.note("join.matches"));
        div(passed_wrongly, bloom_negatives(q))
    }),
    ("bloom.negatives", "count", |q| bloom_negatives(q) as f64),
    ("partition.ms", "ms", |q| q.ms("partition")),
    ("partition.shuffle_tuples", "count", |q| {
        join_count(q, M::PartShuffleTuples)
    }),
    ("partition.buffer_flushes", "count", |q| {
        join_count(q, M::PartBufferFlushes)
    }),
    ("partition.conflicts_serialized", "count", |q| {
        join_count(q, M::PartConflictsSerialized)
    }),
    ("hashtab.build_ms", "ms", |q| q.ms("hashtab.build")),
    ("hashtab.probe_ms", "ms", |q| q.ms("hashtab.probe")),
    ("hashtab.probes_per_key", "probes/key", |q| {
        let c = q.counters();
        div(
            c.get(M::LpProbes) + c.get(M::DhProbes),
            c.get(M::LpKeysProbed) + c.get(M::DhKeysProbed),
        )
    }),
    ("hashtab.keys_probed", "count", |q| {
        count(q, M::LpKeysProbed) + count(q, M::DhKeysProbed)
    }),
    ("hashtab.agg_ms", "ms", |q| q.ms("hashtab.agg")),
    ("hashtab.build_retries", "count", |q| {
        count(q, M::LpBuildConflictRetries)
    }),
    ("hashtab.fallback_builds", "count", |q| {
        count(q, M::FallbackBuilds)
    }),
    ("join.ms", "ms", |q| q.ms("join")),
    ("join.self_ms", "ms", |q| q.self_ms("join")),
    ("join.matches", "count", |q| q.note("join.matches") as f64),
    ("sort.ms", "ms", |q| q.ms("sort")),
    ("sort.passes", "count", |q| count(q, M::SortPasses)),
    ("sort.bytes_moved", "B", |q| count(q, M::SortBytesMoved)),
    ("exec.morsels_claimed", "count", |q| {
        count(q, M::MorselsClaimed)
    }),
    ("exec.steal_ratio", "ratio", |q| {
        ratio(q, M::MorselsStolen, M::MorselsClaimed)
    }),
    ("bench.glue_ms", "ms", |q| q.self_ms("query")),
];

/// Per-layer metrics measured once per run, after [`PER_QUERY`].
pub const PER_RUN: [(&str, &str); 5] = [
    ("exec.scope_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.queries", "count"),
];

fn div(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn count(q: &QueryTrace<'_>, m: M) -> f64 {
    q.counters().get(m) as f64
}

fn ratio(q: &QueryTrace<'_>, num: M, den: M) -> f64 {
    let c = q.counters();
    div(c.get(num), c.get(den))
}

/// Partition counters of the join alone (the radixsort partitions too).
fn join_count(q: &QueryTrace<'_>, m: M) -> f64 {
    q.counters_of("join").get(m) as f64
}

/// Keys the Bloom filter probed that the join did not match: the base of
/// the false-positive ratio.
fn bloom_negatives(q: &QueryTrace<'_>) -> u64 {
    q.counters()
        .get(M::BloomKeysProbed)
        .saturating_sub(q.note("join.matches"))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p` percentile (`p` in `(0, 1]`).
pub fn nearest_rank(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The JSON object the run prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
