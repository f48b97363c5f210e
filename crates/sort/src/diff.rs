//! Differential-harness registration for LSB radixsort.
//!
//! The full 32-bit LSB radixsort yields one canonical answer — keys
//! ascending, equal keys in input (stable) order — for *every* radix
//! width, thread count, and backend, so the encoding is simply the
//! ordered output columns.

use crate::{radixsort_pairs, SortConfig};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, Backend, Portable};
use rsv_testkit::diff::{ordered_pairs, CaseInput, DiffOp, Kernel, Registry};
use rsv_testkit::Rng;

/// A case-seeded radix width; the sorted output must not depend on it.
fn radix_bits(input: &CaseInput) -> u32 {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x534F_5254);
    [1u32, 4, 5, 8, 11, 16][rng.index(6)]
}

fn sorted(
    backend: Backend,
    vectorized: bool,
    bits: u32,
    threads: usize,
    input: &CaseInput,
) -> Vec<u8> {
    let mut keys = input.keys.clone();
    let mut pays = input.pays.clone();
    let cfg = SortConfig { radix_bits: bits };
    let policy = ExecPolicy::new(threads);
    expect_infallible(dispatch!(backend, s => {
        radixsort_pairs(s, vectorized, &mut keys, &mut pays, &cfg, &policy)
    }));
    ordered_pairs(&keys, &pays)
}

fn reference(input: &CaseInput) -> Vec<u8> {
    sorted(Backend::Portable(Portable::new()), false, 8, 1, input)
}

fn run_scalar(_backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let portable = Backend::Portable(Portable::new());
    sorted(portable, false, radix_bits(input), threads, input)
}

fn run_vector(backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    sorted(backend, true, radix_bits(input), threads, input)
}

/// Register the radixsort operator.
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
}
