//! Differential-harness registration for the hash-table operators.
//!
//! Vectorized probes retire lanes out of input order and vectorized
//! builds may place colliding keys differently than insertion order, so
//! every op canonicalizes to the *multiset* of join triples (or of
//! aggregate groups) — placement is an implementation detail, the result
//! set is not.

use crate::group::group_by_partitioned;
use crate::{
    BucketScheme, BucketizedTable, CuckooTable, DoubleHashTable, GroupAggTable, JoinSink,
    LinearTable, EMPTY_KEY,
};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, Backend, KernelKind};
use rsv_testkit::diff::{canonical_triples, CaseInput, DiffOp, Kernel, Registry};
use rsv_testkit::Rng;
use std::collections::BTreeMap;

fn sink_bytes(sink: JoinSink) -> Vec<u8> {
    canonical_triples(sink.iter().collect())
}

// --- linear probing ---------------------------------------------------

fn linear_table_scalar(input: &CaseInput) -> LinearTable {
    let mut t = LinearTable::new(input.capacity, input.load_factor);
    t.build_scalar(&input.build_keys, &input.build_pays);
    t
}

fn lp_reference(input: &CaseInput) -> Vec<u8> {
    let t = linear_table_scalar(input);
    let mut sink = JoinSink::default();
    t.probe_scalar(&input.keys, &input.pays, &mut sink);
    sink_bytes(sink)
}

// --- double hashing ---------------------------------------------------

fn dh_table(input: &CaseInput) -> DoubleHashTable {
    let mut t = DoubleHashTable::new(input.capacity, input.load_factor);
    for (&k, &p) in input.build_keys.iter().zip(&input.build_pays) {
        t.insert(k, p);
    }
    t
}

fn dh_reference(input: &CaseInput) -> Vec<u8> {
    let t = dh_table(input);
    let mut sink = JoinSink::default();
    t.probe_scalar(&input.keys, &input.pays, &mut sink);
    sink_bytes(sink)
}

// --- cuckoo -----------------------------------------------------------

/// Cuckoo tables only admit moderate load factors (two-choice hashing),
/// so the case load factor is clamped for this op.
fn cuckoo_lf(input: &CaseInput) -> f64 {
    input.load_factor.min(0.4)
}

/// Build the cuckoo table with the scalar path; `None` if the build
/// cycles (deterministic per case, so the reference and every kernel see
/// the same outcome).
fn cuckoo_table_scalar(input: &CaseInput) -> Option<CuckooTable> {
    let mut t = CuckooTable::new(input.capacity, cuckoo_lf(input));
    t.build_scalar(&input.build_keys, &input.build_pays).ok()?;
    Some(t)
}

/// The canonical bytes for a failed cuckoo build.
const BUILD_FAILED: &[u8] = b"cuckoo-build-failed";

fn cuckoo_reference(input: &CaseInput) -> Vec<u8> {
    match cuckoo_table_scalar(input) {
        None => BUILD_FAILED.to_vec(),
        Some(t) => {
            let mut sink = JoinSink::default();
            t.probe_scalar_branching(&input.keys, &input.pays, &mut sink);
            sink_bytes(sink)
        }
    }
}

/// Probe the *build keys* back out of the table — validates that a
/// vectorized build stored exactly the input multiset, independent of
/// where displacement chains left each tuple.
fn cuckoo_build_reference(input: &CaseInput) -> Vec<u8> {
    match cuckoo_table_scalar(input) {
        None => BUILD_FAILED.to_vec(),
        Some(t) => {
            let mut sink = JoinSink::default();
            t.probe_scalar_branching(&input.build_keys, &input.build_pays, &mut sink);
            sink_bytes(sink)
        }
    }
}

// --- horizontal (bucketized) -----------------------------------------

/// Horizontal probing requires `slots == S::LANES`, so each kernel
/// builds its table with the backend's lane count. The probe result
/// multiset does not depend on the bucket width, so the reference can
/// use a fixed one.
fn bucketized_table(input: &CaseInput, slots: usize) -> BucketizedTable {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x4855_4332);
    let scheme = if rng.f64() < 0.5 {
        BucketScheme::Linear
    } else {
        BucketScheme::Double
    };
    let mut t = BucketizedTable::new(input.capacity, input.load_factor, slots, scheme);
    t.build(&input.build_keys, &input.build_pays);
    t
}

fn horizontal_reference(input: &CaseInput) -> Vec<u8> {
    let t = bucketized_table(input, 4);
    let mut sink = JoinSink::default();
    t.probe_scalar(&input.keys, &input.pays, &mut sink);
    sink_bytes(sink)
}

// --- grouped aggregation ----------------------------------------------

/// A part bound of one group: the partitioned kernel cuts every fuzzed
/// case with more than one key into as many parts as its group bound
/// allows (up to the 256-way pass limit).
pub const SMALL_PART_GROUPS: usize = 1;

/// The case's aggregation keys. The generator never emits the sentinel
/// and rarely crowds one key range, so, by case seed:
///
/// * 1 mod 4: every fifth key becomes [`EMPTY_KEY`] (`u32::MAX`), whose
///   side-slot group must sort last on every route;
/// * 2 mod 4: seven keys in eight become the case's first key, so one
///   part holds most tuples while the rest keep their spread;
/// * otherwise the keys stay as drawn. That includes uniform keys over
///   the full `u32` range (bit 31 varies) and all-equal keys (no bit
///   varies, so the partitioned route makes one part).
pub fn agg_keys(input: &CaseInput) -> Vec<u32> {
    let mut keys = input.keys.clone();
    match input.seed % 4 {
        1 => keys.iter_mut().step_by(5).for_each(|k| *k = EMPTY_KEY),
        2 => {
            let first = keys.first().copied().unwrap_or(0);
            for (i, k) in keys.iter_mut().enumerate() {
                if i % 8 != 7 {
                    *k = first;
                }
            }
        }
        _ => {}
    }
    keys
}

fn agg_bytes(groups: Vec<(u32, u32, u64)>) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 * groups.len());
    for (k, c, s) in groups {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

/// A `BTreeMap` group-by, sharing no table or row emission with the
/// kernels.
fn agg_reference(input: &CaseInput) -> Vec<u8> {
    let mut groups: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
    for (k, &v) in agg_keys(input).into_iter().zip(&input.pays) {
        let g = groups.entry(k).or_default();
        g.0 += 1;
        g.1 += u64::from(v);
    }
    agg_bytes(groups.into_iter().map(|(k, (c, s))| (k, c, s)).collect())
}

/// Aggregate `threads` contiguous chunks of the input into one table each
/// with the vector kernel, then merge them all into the first.
fn agg_vector_merged(b: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let keys = agg_keys(input);
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let mut tables = keys
        .chunks(chunk)
        .zip(input.pays.chunks(chunk))
        .map(|(keys, pays)| {
            let mut t = GroupAggTable::new(input.capacity, input.load_factor);
            dispatch!(b, s => { t.update_vector(s, keys, pays) });
            t
        });
    let mut merged = tables
        .next()
        .unwrap_or_else(|| GroupAggTable::new(input.capacity, input.load_factor));
    for t in tables {
        merged.merge(&t);
    }
    agg_bytes(merged.into_sorted_rows())
}

/// The partitioned group-by route at [`SMALL_PART_GROUPS`], with the
/// case's capacity as the group estimate.
fn agg_partitioned(b: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let keys = agg_keys(input);
    let policy = ExecPolicy::new(threads);
    let rows = expect_infallible(dispatch!(b, s => {
        group_by_partitioned(
            KernelKind::Vector(s), &keys, &input.pays, input.capacity, SMALL_PART_GROUPS, &policy,
        )
    }));
    agg_bytes(rows)
}

/// Register the linear-probing, double-hashing, cuckoo, horizontal and
/// grouped-aggregation operators.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "lp-probe",
        reference: lp_reference,
        kernels: vec![
            Kernel {
                name: "build-vertical+probe-scalar",
                threaded: false,
                run: |b, _, i| {
                    let mut t = LinearTable::new(i.capacity, i.load_factor);
                    dispatch!(b, s => { t.build_vertical(s, &i.build_keys, &i.build_pays) });
                    let mut sink = JoinSink::default();
                    t.probe_scalar(&i.keys, &i.pays, &mut sink);
                    sink_bytes(sink)
                },
            },
            Kernel {
                name: "probe-vertical",
                threaded: false,
                run: |b, _, i| {
                    let t = linear_table_scalar(i);
                    let mut sink = JoinSink::default();
                    dispatch!(b, s => { t.probe_vertical(s, &i.keys, &i.pays, &mut sink) });
                    sink_bytes(sink)
                },
            },
            Kernel {
                name: "probe-vertical-interleaved",
                threaded: false,
                run: |b, _, i| {
                    let t = linear_table_scalar(i);
                    let mut sink = JoinSink::default();
                    dispatch!(b, s => { t.probe_vertical_interleaved(s, &i.keys, &i.pays, &mut sink) });
                    sink_bytes(sink)
                },
            },
            Kernel {
                name: "build-vertical+probe-vertical",
                threaded: false,
                run: |b, _, i| {
                    let mut t = LinearTable::new(i.capacity, i.load_factor);
                    let mut sink = JoinSink::default();
                    dispatch!(b, s => {
                        t.build_vertical(s, &i.build_keys, &i.build_pays);
                        t.probe_vertical(s, &i.keys, &i.pays, &mut sink);
                    });
                    sink_bytes(sink)
                },
            },
        ],
    });
    r.register(DiffOp {
        name: "dh-probe",
        reference: dh_reference,
        kernels: vec![
            Kernel {
                name: "probe-vertical",
                threaded: false,
                run: |b, _, i| {
                    let t = dh_table(i);
                    let mut sink = JoinSink::default();
                    dispatch!(b, s => { t.probe_vertical(s, &i.keys, &i.pays, &mut sink) });
                    sink_bytes(sink)
                },
            },
            Kernel {
                name: "probe-vertical-interleaved",
                threaded: false,
                run: |b, _, i| {
                    let t = dh_table(i);
                    let mut sink = JoinSink::default();
                    dispatch!(b, s => { t.probe_vertical_interleaved(s, &i.keys, &i.pays, &mut sink) });
                    sink_bytes(sink)
                },
            },
            Kernel {
                name: "build-vertical+probe-vertical",
                threaded: false,
                run: |b, _, i| {
                    let mut t = DoubleHashTable::new(i.capacity, i.load_factor);
                    let mut sink = JoinSink::default();
                    dispatch!(b, s => {
                        t.build_vertical(s, &i.build_keys, &i.build_pays);
                        t.probe_vertical(s, &i.keys, &i.pays, &mut sink);
                    });
                    sink_bytes(sink)
                },
            },
        ],
    });
    r.register(DiffOp {
        name: "cuckoo-probe",
        reference: cuckoo_reference,
        kernels: vec![
            Kernel {
                name: "probe-scalar-branchless",
                threaded: false,
                run: |_, _, i| match cuckoo_table_scalar(i) {
                    None => BUILD_FAILED.to_vec(),
                    Some(t) => {
                        let mut sink = JoinSink::default();
                        t.probe_scalar_branchless(&i.keys, &i.pays, &mut sink);
                        sink_bytes(sink)
                    }
                },
            },
            Kernel {
                name: "probe-vertical-blend",
                threaded: false,
                run: |b, _, i| match cuckoo_table_scalar(i) {
                    None => BUILD_FAILED.to_vec(),
                    Some(t) => {
                        let mut sink = JoinSink::default();
                        dispatch!(b, s => { t.probe_vertical_blend(s, &i.keys, &i.pays, &mut sink) });
                        sink_bytes(sink)
                    }
                },
            },
            Kernel {
                name: "probe-vertical-select",
                threaded: false,
                run: |b, _, i| match cuckoo_table_scalar(i) {
                    None => BUILD_FAILED.to_vec(),
                    Some(t) => {
                        let mut sink = JoinSink::default();
                        dispatch!(b, s => { t.probe_vertical_select(s, &i.keys, &i.pays, &mut sink) });
                        sink_bytes(sink)
                    }
                },
            },
        ],
    });
    r.register(DiffOp {
        name: "cuckoo-build",
        reference: cuckoo_build_reference,
        kernels: vec![Kernel {
            name: "build-vertical",
            threaded: false,
            run: |b, _, i| {
                let mut t = CuckooTable::new(i.capacity, cuckoo_lf(i));
                let built =
                    dispatch!(b, s => { t.build_vertical(s, &i.build_keys, &i.build_pays).is_ok() });
                if !built {
                    return BUILD_FAILED.to_vec();
                }
                let mut sink = JoinSink::default();
                t.probe_scalar_branching(&i.build_keys, &i.build_pays, &mut sink);
                sink_bytes(sink)
            },
        }],
    });
    r.register(DiffOp {
        name: "horizontal-probe",
        reference: horizontal_reference,
        kernels: vec![Kernel {
            name: "probe-horizontal",
            threaded: false,
            run: |b, _, i| {
                let t = bucketized_table(i, b.lanes());
                let mut sink = JoinSink::default();
                dispatch!(b, s => { t.probe_horizontal(s, &i.keys, &i.pays, &mut sink) });
                sink_bytes(sink)
            },
        }],
    });
    r.register(DiffOp {
        name: "agg-group",
        reference: agg_reference,
        kernels: vec![
            Kernel {
                name: "update-vector",
                threaded: false,
                run: |b, _, i| {
                    let mut t = GroupAggTable::new(i.capacity, i.load_factor);
                    dispatch!(b, s => { t.update_vector(s, &agg_keys(i), &i.pays) });
                    agg_bytes(t.into_sorted_rows())
                },
            },
            Kernel {
                name: "update-vector-merged",
                threaded: true,
                run: agg_vector_merged,
            },
            Kernel {
                name: "partitioned-small-parts",
                threaded: true,
                run: agg_partitioned,
            },
        ],
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_partition::varying_bits_where;

    /// The aggregation cases reach every edge of the partitioned route.
    #[test]
    fn agg_cases_cover_the_partitioned_route() {
        let (mut sentinel, mut top_bit, mut one_key, mut crowded) = (false, false, false, false);
        for seed in 0..500u64 {
            let input = rsv_testkit::arbitrary::case_input(seed);
            let keys = agg_keys(&input);
            if keys.len() < 16 {
                continue;
            }
            // the sentinel picks no radix bit
            let varying = varying_bits_where(&keys, |k| k != EMPTY_KEY);
            sentinel |= keys.contains(&EMPTY_KEY) && varying > 0;
            top_bit |= varying >> 31 == 1;
            one_key |= varying == 0;
            crowded |= keys.iter().filter(|&&k| k == keys[0]).count() * 8 >= keys.len() * 7
                && varying >> 31 == 1;
        }
        assert!(sentinel, "no partitioned case holds the sentinel key");
        assert!(top_bit, "no case varies in bit 31");
        assert!(one_key, "no case has a single distinct key");
        assert!(crowded, "no case crowds one part");
    }
}
