//! Differential-harness registration for histograms, shuffles, and the
//! parallel partition pass.
//!
//! Histograms and the stable shuffles must match the scalar reference
//! byte-for-byte *in order*. The unstable buffered shuffle guarantees only
//! that every tuple lands in its partition, so its op canonicalizes by
//! sorting the pairs within each partition region before comparing.

use crate::histogram::{
    histogram_scalar, histogram_vector_compressed, histogram_vector_replicated,
    histogram_vector_serialized, prefix_sum,
};
use crate::parallel::partition_pass;
use crate::range::RangePartitioner;
use crate::shuffle::{
    shuffle_scalar_buffered, shuffle_scalar_unbuffered, shuffle_vector_buffered,
    shuffle_vector_buffered_unstable, shuffle_vector_unbuffered,
};
use crate::{HashFn, PartitionFn, RadixFn};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, Backend};
use rsv_testkit::diff::{ordered_pairs, put_u32s, CaseInput, DiffOp, Kernel, Registry};
use rsv_testkit::Rng;

/// The radix function for a case, derived from the case seed so the
/// reference and every kernel agree on it.
fn radix_fn(input: &CaseInput) -> RadixFn {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x5261_6469);
    let bits = 1 + rng.below(12) as u32;
    let shift = rng.below(u64::from(32 - bits + 1)) as u32;
    RadixFn::new(shift, bits)
}

fn hash_fn(input: &CaseInput) -> HashFn {
    HashFn::new(input.fanout)
}

/// Case-seeded sorted splitters for range partitioning.
fn case_splitters(input: &CaseInput) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x5261_6E67);
    let k = 1 + rng.index(15);
    let mut s: Vec<u32> = (0..k).map(|_| rng.next_u32() % (u32::MAX - 1)).collect();
    s.sort_unstable();
    s
}

fn encode_hist(hist: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 * hist.len());
    put_u32s(&mut out, hist);
    out
}

// --- histograms -------------------------------------------------------

fn hist_reference<F: PartitionFn>(f: F, input: &CaseInput) -> Vec<u8> {
    encode_hist(&histogram_scalar(f, &input.keys))
}

macro_rules! hist_kernels {
    ($f:expr) => {
        vec![
            Kernel {
                name: "vector-replicated",
                threaded: false,
                run: |b, _, i| {
                    dispatch!(b, s => { encode_hist(&histogram_vector_replicated(s, $f(i), &i.keys)) })
                },
            },
            Kernel {
                name: "vector-serialized",
                threaded: false,
                run: |b, _, i| {
                    dispatch!(b, s => { encode_hist(&histogram_vector_serialized(s, $f(i), &i.keys)) })
                },
            },
            Kernel {
                name: "vector-compressed",
                threaded: false,
                run: |b, _, i| {
                    dispatch!(b, s => { encode_hist(&histogram_vector_compressed(s, $f(i), &i.keys)) })
                },
            },
        ]
    };
}

// --- shuffles ---------------------------------------------------------

/// Run a shuffle body with reference-computed histogram, returning
/// `(partition starts, out_keys, out_pays)`.
fn shuffled<F: PartitionFn>(
    f: F,
    input: &CaseInput,
    body: impl FnOnce(&[u32], &mut [u32], &mut [u32]) -> Vec<u32>,
) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    let hist = histogram_scalar(f, &input.keys);
    let n = input.keys.len();
    let mut ok = vec![0u32; n];
    let mut op = vec![0u32; n];
    let base = body(&hist, &mut ok, &mut op);
    (base, ok, op)
}

fn encode_shuffle(base: &[u32], keys: &[u32], pays: &[u32]) -> Vec<u8> {
    let mut out = encode_hist(base);
    out.extend_from_slice(&ordered_pairs(keys, pays));
    out
}

/// Canonicalize an unstable shuffle: sort the `(key, pay)` pairs within
/// each partition region (tuple placement is fixed, intra-partition order
/// is not).
fn encode_shuffle_canonical(fanout: usize, base: &[u32], keys: &[u32], pays: &[u32]) -> Vec<u8> {
    let mut sk = keys.to_vec();
    let mut sp = pays.to_vec();
    for p in 0..fanout {
        let lo = base[p] as usize;
        let hi = if p + 1 < fanout {
            base[p + 1] as usize
        } else {
            keys.len()
        };
        let mut pairs: Vec<(u32, u32)> = keys[lo..hi]
            .iter()
            .copied()
            .zip(pays[lo..hi].iter().copied())
            .collect();
        pairs.sort_unstable();
        for (j, (k, v)) in pairs.into_iter().enumerate() {
            sk[lo + j] = k;
            sp[lo + j] = v;
        }
    }
    encode_shuffle(base, &sk, &sp)
}

fn shuffle_reference(input: &CaseInput) -> Vec<u8> {
    let f = radix_fn(input);
    let (base, ok, op) = shuffled(f, input, |h, ok, op| {
        shuffle_scalar_unbuffered(f, &input.keys, &input.pays, h, ok, op)
    });
    encode_shuffle(&base, &ok, &op)
}

fn shuffle_unstable_reference(input: &CaseInput) -> Vec<u8> {
    let f = radix_fn(input);
    let (base, ok, op) = shuffled(f, input, |h, ok, op| {
        shuffle_scalar_unbuffered(f, &input.keys, &input.pays, h, ok, op)
    });
    encode_shuffle_canonical(f.fanout(), &base, &ok, &op)
}

// --- parallel partition pass -----------------------------------------

fn pass_reference(input: &CaseInput) -> Vec<u8> {
    let f = radix_fn(input);
    let hist = histogram_scalar(f, &input.keys);
    let (starts, _) = prefix_sum(&hist, 0);
    let (_, ok, op) = shuffled(f, input, |h, ok, op| {
        shuffle_scalar_unbuffered(f, &input.keys, &input.pays, h, ok, op)
    });
    let mut out = encode_hist(&starts);
    out.extend_from_slice(&encode_hist(&hist));
    out.extend_from_slice(&ordered_pairs(&ok, &op));
    out
}

fn run_pass(backend: Backend, threads: usize, input: &CaseInput, vectorized: bool) -> Vec<u8> {
    let f = radix_fn(input);
    let n = input.keys.len();
    let mut dk = vec![0u32; n];
    let mut dp = vec![0u32; n];
    let policy = ExecPolicy::new(threads);
    let (pass, _) = expect_infallible(dispatch!(backend, s => {
        partition_pass(
            s, vectorized, f, &input.keys, &input.pays, &mut dk, &mut dp, &policy,
        )
    }));
    let mut out = encode_hist(&pass.partition_starts);
    out.extend_from_slice(&encode_hist(&pass.hist));
    out.extend_from_slice(&ordered_pairs(&dk, &dp));
    out
}

/// Register histogram (radix / hash / range), shuffle (stable + unstable)
/// and parallel-partition-pass operators.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "histogram-radix",
        reference: |i| hist_reference(radix_fn(i), i),
        kernels: hist_kernels!(radix_fn),
    });
    r.register(DiffOp {
        name: "histogram-hash",
        reference: |i| hist_reference(hash_fn(i), i),
        kernels: hist_kernels!(hash_fn),
    });
    r.register(DiffOp {
        name: "histogram-range",
        reference: |i| {
            let part = RangePartitioner::new(&case_splitters(i));
            hist_reference(part.range_fn(), i)
        },
        kernels: vec![
            Kernel {
                name: "vector-replicated",
                threaded: false,
                run: |b, _, i| {
                    let part = RangePartitioner::new(&case_splitters(i));
                    dispatch!(b, s => {
                        encode_hist(&histogram_vector_replicated(s, part.range_fn(), &i.keys))
                    })
                },
            },
            Kernel {
                name: "vector-serialized",
                threaded: false,
                run: |b, _, i| {
                    let part = RangePartitioner::new(&case_splitters(i));
                    dispatch!(b, s => {
                        encode_hist(&histogram_vector_serialized(s, part.range_fn(), &i.keys))
                    })
                },
            },
        ],
    });
    r.register(DiffOp {
        name: "shuffle-radix",
        reference: shuffle_reference,
        kernels: vec![
            Kernel {
                name: "scalar-buffered",
                threaded: false,
                run: |_, _, i| {
                    let f = radix_fn(i);
                    let (base, ok, op) = shuffled(f, i, |h, ok, op| {
                        shuffle_scalar_buffered(f, &i.keys, &i.pays, h, ok, op)
                    });
                    encode_shuffle(&base, &ok, &op)
                },
            },
            Kernel {
                name: "vector-unbuffered",
                threaded: false,
                run: |b, _, i| {
                    let f = radix_fn(i);
                    let (base, ok, op) = shuffled(f, i, |h, ok, op| {
                        dispatch!(b, s => { shuffle_vector_unbuffered(s, f, &i.keys, &i.pays, h, ok, op) })
                    });
                    encode_shuffle(&base, &ok, &op)
                },
            },
            Kernel {
                name: "vector-buffered",
                threaded: false,
                run: |b, _, i| {
                    let f = radix_fn(i);
                    let (base, ok, op) = shuffled(f, i, |h, ok, op| {
                        dispatch!(b, s => { shuffle_vector_buffered(s, f, &i.keys, &i.pays, h, ok, op) })
                    });
                    encode_shuffle(&base, &ok, &op)
                },
            },
        ],
    });
    r.register(DiffOp {
        name: "shuffle-radix-unstable",
        reference: shuffle_unstable_reference,
        kernels: vec![Kernel {
            name: "vector-buffered-unstable",
            threaded: false,
            run: |b, _, i| {
                let f = radix_fn(i);
                let (base, ok, op) = shuffled(f, i, |h, ok, op| {
                    dispatch!(b, s => {
                        shuffle_vector_buffered_unstable(s, f, &i.keys, &i.pays, h, ok, op)
                    })
                });
                encode_shuffle_canonical(f.fanout(), &base, &ok, &op)
            },
        }],
    });
    r.register(DiffOp {
        name: "partition-pass",
        reference: pass_reference,
        kernels: vec![
            Kernel {
                name: "parallel-scalar",
                threaded: true,
                run: |b, t, i| run_pass(b, t, i, false),
            },
            Kernel {
                name: "parallel-vectorized",
                threaded: true,
                run: |b, t, i| run_pass(b, t, i, true),
            },
        ],
    });
}
