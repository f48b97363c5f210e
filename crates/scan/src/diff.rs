//! Differential-harness registration for the selection-scan kernels.
//!
//! Every scan variant is stable (qualifiers keep input order), so the
//! canonical encoding is the *ordered* qualifier columns and any
//! reordering — not just a wrong qualifier set — counts as a divergence.

use crate::{scan, scan_parallel, ScanPredicate, ScanVariant};
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::Backend;
use rsv_testkit::diff::{ordered_pairs, CaseInput, DiffOp, Kernel, Registry};

fn pred(input: &CaseInput) -> ScanPredicate {
    ScanPredicate {
        lower: input.bounds.0,
        upper: input.bounds.1,
    }
}

fn run_variant(backend: Backend, variant: ScanVariant, input: &CaseInput) -> Vec<u8> {
    let n = input.keys.len();
    let mut ok = vec![0u32; n];
    let mut op = vec![0u32; n];
    let c = scan(
        backend,
        variant,
        &input.keys,
        &input.pays,
        pred(input),
        &mut ok,
        &mut op,
    );
    ordered_pairs(&ok[..c], &op[..c])
}

fn reference(input: &CaseInput) -> Vec<u8> {
    run_variant(
        Backend::Portable(rsv_simd::Portable::new()),
        ScanVariant::ScalarBranching,
        input,
    )
}

fn run_parallel(backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let (ok, op) = expect_infallible(scan_parallel(
        backend,
        &input.keys,
        &input.pays,
        pred(input),
        &ExecPolicy::new(threads),
    ));
    ordered_pairs(&ok, &op)
}

macro_rules! variant_kernel {
    ($name:literal, $variant:ident) => {
        Kernel {
            name: $name,
            threaded: false,
            run: |b, _, i| run_variant(b, ScanVariant::$variant, i),
        }
    };
}

/// Register the scan operator: scalar-branching reference against the
/// branchless scalar, all four vector variants, and the morsel-parallel
/// mark-then-take scan across thread counts.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "scan",
        reference,
        kernels: vec![
            variant_kernel!("scalar-branchless", ScalarBranchless),
            variant_kernel!("vector-bitextract-direct", VectorBitExtractDirect),
            variant_kernel!("vector-selstore-direct", VectorSelStoreDirect),
            variant_kernel!("vector-bitextract-indirect", VectorBitExtractIndirect),
            variant_kernel!("vector-selstore-indirect", VectorSelStoreIndirect),
            Kernel {
                name: "parallel-mark-take",
                threaded: true,
                run: run_parallel,
            },
        ],
    });
}
