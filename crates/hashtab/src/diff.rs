//! Differential-harness registration for the hash-table operators.
//!
//! Vectorized probes retire lanes out of input order and vectorized
//! builds may place colliding keys differently than insertion order, so
//! every op canonicalizes to the *multiset* of join triples (or of
//! aggregate groups) — placement is an implementation detail, the result
//! set is not.

use crate::{
    BucketScheme, BucketizedTable, CuckooTable, DoubleHashTable, GroupAggTable, JoinSink,
    LinearTable,
};
use rsv_simd::{dispatch, Backend};
use rsv_testkit::diff::{canonical_triples, CaseInput, DiffOp, Kernel, Registry};
use rsv_testkit::Rng;

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

fn agg_bytes(t: GroupAggTable) -> Vec<u8> {
    let groups = t.into_sorted_rows();
    let mut out = Vec::with_capacity(16 * groups.len());
    for (k, c, s) in groups {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&c.to_le_bytes());
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

fn agg_reference(input: &CaseInput) -> Vec<u8> {
    let mut t = GroupAggTable::new(input.capacity, input.load_factor);
    t.update_scalar(&input.keys, &input.pays);
    agg_bytes(t)
}

/// Aggregate `threads` contiguous chunks of the input into one table each
/// with the vector kernel, then merge them all into the first.
fn agg_vector_merged(b: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let chunk = input.keys.len().div_ceil(threads.max(1)).max(1);
    let mut tables = input
        .keys
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
    agg_bytes(merged)
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
        kernels: vec![Kernel {
            name: "probe-vertical",
            threaded: false,
            run: |b, _, i| {
                let t = dh_table(i);
                let mut sink = JoinSink::default();
                dispatch!(b, s => { t.probe_vertical(s, &i.keys, &i.pays, &mut sink) });
                sink_bytes(sink)
            },
        }],
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
                    dispatch!(b, s => { t.update_vector(s, &i.keys, &i.pays) });
                    agg_bytes(t)
                },
            },
            Kernel {
                name: "update-vector-merged",
                threaded: true,
                run: agg_vector_merged,
            },
        ],
    });
}
