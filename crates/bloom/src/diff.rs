//! Differential-harness registration for the Bloom-filter probes.
//!
//! Bloom semantics (false positives, never false negatives) are
//! differential-testable: for a fixed filter the qualifier *set* is a pure
//! function of the bit array, so every probe implementation must agree
//! exactly.
//!
//! * `bloom-probe` — the paper's vertical probe retires lanes out of input
//!   order, so both sides canonicalize to the sorted qualifier multiset.
//! * `bloom-blocked` — the register-blocked probe keeps input order, so
//!   the raw output columns must be byte-identical to the scalar probe's,
//!   for the serially built filter and for [`build_parallel`]'s.

use crate::{build_parallel, BlockedBloomFilter, BloomFilter};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, Backend};
use rsv_testkit::diff::{canonical_pairs, ordered_pairs, CaseInput, DiffOp, Kernel, Registry};
use rsv_testkit::Rng;

/// The case's filter, parameterized (bits per item, hash count) from the
/// case seed so the reference and kernels agree.
fn filter(input: &CaseInput) -> BloomFilter {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x424C_4F4F);
    let bits_per_item = 2 + rng.index(14);
    let k = 1 + rng.index(4);
    let mut f = BloomFilter::new(input.build_keys.len(), bits_per_item, k);
    f.build(&input.build_keys);
    f
}

fn reference(input: &CaseInput) -> Vec<u8> {
    let f = filter(input);
    let n = input.keys.len();
    let mut ok = vec![0u32; n];
    let mut op = vec![0u32; n];
    let c = f.probe_scalar(&input.keys, &input.pays, &mut ok, &mut op);
    canonical_pairs(&ok[..c], &op[..c])
}

fn run_vector(backend: Backend, _threads: usize, input: &CaseInput) -> Vec<u8> {
    let f = filter(input);
    let n = input.keys.len();
    // vector-width slack: the kernel stores whole vectors selectively
    let mut ok = vec![0u32; n + 64];
    let mut op = vec![0u32; n + 64];
    let c =
        dispatch!(backend, s => { f.probe_vector(s, &input.keys, &input.pays, &mut ok, &mut op) });
    canonical_pairs(&ok[..c], &op[..c])
}

/// The case's blocked-filter density: bits per item in `2..=16`.
fn blocked_bits_per_item(input: &CaseInput) -> usize {
    let mut rng = Rng::seed_from_u64(input.seed ^ 0x424C_4B44);
    2 + rng.index(15)
}

fn blocked_reference(input: &CaseInput) -> Vec<u8> {
    let mut f = BlockedBloomFilter::new(input.build_keys.len(), blocked_bits_per_item(input));
    f.build(&input.build_keys);
    let n = input.keys.len();
    let (mut ok, mut op) = (vec![0u32; n], vec![0u32; n]);
    let c = f.probe_scalar(&input.keys, &input.pays, &mut ok, &mut op);
    ordered_pairs(&ok[..c], &op[..c])
}

/// Probe with the vector kernel into output columns exactly as long as
/// the input (no slack: the selective stores must write only survivors).
fn blocked_probe(backend: Backend, f: &BlockedBloomFilter, input: &CaseInput) -> Vec<u8> {
    let n = input.keys.len();
    let (mut ok, mut op) = (vec![0u32; n], vec![0u32; n]);
    let c = dispatch!(backend, s => {
        f.probe_vector(s, &input.keys, &input.pays, &mut ok, &mut op)
    });
    ordered_pairs(&ok[..c], &op[..c])
}

fn run_blocked_vector(backend: Backend, _threads: usize, input: &CaseInput) -> Vec<u8> {
    let mut f = BlockedBloomFilter::new(input.build_keys.len(), blocked_bits_per_item(input));
    f.build(&input.build_keys);
    blocked_probe(backend, &f, input)
}

fn run_blocked_parallel_build(backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let policy = ExecPolicy::new(threads).with_morsel_tuples(64);
    let f = expect_infallible(build_parallel(
        &input.build_keys,
        blocked_bits_per_item(input),
        &policy,
    ));
    blocked_probe(backend, &f, input)
}

/// Register the Bloom-filter probe operators.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "bloom-probe",
        reference,
        kernels: vec![Kernel {
            name: "probe-vector",
            threaded: false,
            run: run_vector,
        }],
    });
    r.register(DiffOp {
        name: "bloom-blocked",
        reference: blocked_reference,
        kernels: vec![
            Kernel {
                name: "probe-vector",
                threaded: false,
                run: run_blocked_vector,
            },
            Kernel {
                name: "parallel-build",
                threaded: true,
                run: run_blocked_parallel_build,
            },
        ],
    });
}
