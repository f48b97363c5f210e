//! Differential-harness registration for LSB radixsort.
//!
//! The full 32-bit LSB radixsort yields one canonical answer — keys
//! ascending, equal keys in input (stable) order — for *every* radix
//! width, thread count, and backend, so the encoding is simply the
//! ordered output columns. `sort-radix` sorts key + payload pairs and
//! `sort-radix-keys` the key column alone.

use crate::{radixsort_keys, radixsort_pairs, SortConfig};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, Backend, KernelKind, Simd};
use rsv_testkit::diff::{ordered_pairs, put_len, put_u32s, CaseInput, DiffOp, Kernel, Registry};
use rsv_testkit::Rng;

/// The case's radix width and key column. The width is case-seeded; the
/// sorted output must not depend on it. In one case of three the keys'
/// upper 16 bits are replaced by one case-seeded constant, so the digits
/// above them are equal for every key and their passes are skipped.
fn sort_case(input: &CaseInput) -> (u32, Vec<u32>) {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x534F_5254);
    let bits = [1u32, 4, 5, 8, 11, 16][rng.index(6)];
    let keys = if rng.index(3) == 0 {
        let upper = rng.next_u32() & 0xFFFF_0000;
        input.keys.iter().map(|&k| upper | (k & 0xFFFF)).collect()
    } else {
        input.keys.clone()
    };
    (bits, keys)
}

fn sorted<S: Simd>(kind: KernelKind<S>, bits: u32, threads: usize, input: &CaseInput) -> Vec<u8> {
    let (_, mut keys) = sort_case(input);
    let mut pays = input.pays.clone();
    let cfg = SortConfig { radix_bits: bits };
    let policy = ExecPolicy::new(threads);
    expect_infallible(radixsort_pairs(kind, &mut keys, &mut pays, &cfg, &policy));
    ordered_pairs(&keys, &pays)
}

fn reference(input: &CaseInput) -> Vec<u8> {
    sorted(KernelKind::SCALAR, 8, 1, input)
}

fn run_scalar(_backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    sorted(KernelKind::SCALAR, sort_case(input).0, threads, input)
}

fn run_vector(backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    dispatch!(backend, s => { sorted(KernelKind::Vector(s), sort_case(input).0, threads, input) })
}

/// Canonical bytes of an ordered key column.
fn ordered_keys(keys: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 * keys.len());
    put_len(&mut out, keys.len());
    put_u32s(&mut out, keys);
    out
}

fn sorted_keys<S: Simd>(kind: KernelKind<S>, threads: usize, input: &CaseInput) -> Vec<u8> {
    let (radix_bits, mut keys) = sort_case(input);
    let cfg = SortConfig { radix_bits };
    let policy = ExecPolicy::new(threads);
    expect_infallible(radixsort_keys(kind, &mut keys, &cfg, &policy));
    ordered_keys(&keys)
}

fn reference_keys(input: &CaseInput) -> Vec<u8> {
    let (_, mut keys) = sort_case(input);
    keys.sort_unstable();
    ordered_keys(&keys)
}

fn run_scalar_keys(_backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    sorted_keys(KernelKind::SCALAR, threads, input)
}

fn run_vector_keys(backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    dispatch!(backend, s => { sorted_keys(KernelKind::Vector(s), threads, input) })
}

/// Register the pair and key-only radixsort operators.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "sort-radix",
        reference,
        kernels: vec![
            Kernel {
                name: "scalar-parallel",
                threaded: true,
                run: run_scalar,
            },
            Kernel {
                name: "vector-parallel",
                threaded: true,
                run: run_vector,
            },
        ],
    });
    r.register(DiffOp {
        name: "sort-radix-keys",
        reference: reference_keys,
        kernels: vec![
            Kernel {
                name: "scalar-parallel",
                threaded: true,
                run: run_scalar_keys,
            },
            Kernel {
                name: "vector-parallel",
                threaded: true,
                run: run_vector_keys,
            },
        ],
    });
}
