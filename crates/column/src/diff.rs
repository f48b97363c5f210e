//! Differential-harness registration for the compressed-column kernels.
//!
//! Three ops cover the subsystem:
//!
//! * `column-roundtrip` — the packed bytes are canonical (every backend
//!   must produce the scalar reference's exact words, directory included)
//!   and unpacking them restores the input, whether decoded wholesale,
//!   vectorized, or by random access.
//! * `column-select-fused` — the fused compressed scan must match the
//!   scalar scan over the raw column byte-for-byte (ordered qualifiers)
//!   for all six variants plus the morsel-parallel mark-then-take run.
//! * `column-histogram-fused` — the fused compressed histogram must match
//!   the scalar histogram over the raw column, sequential and parallel.

use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_partition::{histogram::histogram_scalar, RadixFn};
use rsv_scan::{scan_scalar_branching, ScanPredicate, ScanVariant};
use rsv_simd::Backend;
use rsv_testkit::diff::{ordered_pairs, put_len, put_u32s, CaseInput, DiffOp, Kernel, Registry};

use crate::{select_fused, select_fused_parallel, CompressedColumn, CompressedRelation};

/// Canonical bytes of a compressed column plus its decoded values:
/// length, directory (min/width/offset per block), packed words, values.
fn encode_column(col: &CompressedColumn, values: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    put_len(&mut out, col.len());
    put_len(&mut out, col.block_count());
    for b in col.block_directory() {
        put_u32s(&mut out, &[b.min, u32::from(b.width)]);
        put_len(&mut out, b.offset);
    }
    put_len(&mut out, col.packed_words().len());
    put_u32s(&mut out, col.packed_words());
    put_u32s(&mut out, values);
    out
}

fn roundtrip_reference(input: &CaseInput) -> Vec<u8> {
    let col = CompressedColumn::pack_scalar(&input.keys);
    let values = col.unpack_scalar();
    encode_column(&col, &values)
}

fn pred(input: &CaseInput) -> ScanPredicate {
    ScanPredicate {
        lower: input.bounds.0,
        upper: input.bounds.1,
    }
}

/// The radix function for the fused histogram, derived from the case
/// seed like every other case parameter.
fn radix(input: &CaseInput) -> RadixFn {
    let bits = 1 + (input.seed % 10) as u32;
    let shift = ((input.seed >> 8) % u64::from(33 - bits)) as u32;
    RadixFn::new(shift, bits)
}

fn select_reference(input: &CaseInput) -> Vec<u8> {
    let n = input.keys.len();
    let mut ok = vec![0u32; n];
    let mut op = vec![0u32; n];
    let c = scan_scalar_branching(&input.keys, &input.pays, pred(input), &mut ok, &mut op);
    ordered_pairs(&ok[..c], &op[..c])
}

fn run_select_variant(backend: Backend, variant: ScanVariant, input: &CaseInput) -> Vec<u8> {
    let ck = CompressedColumn::pack(backend, &input.keys);
    let cp = CompressedColumn::pack(backend, &input.pays);
    let n = input.keys.len();
    let mut ok = vec![0u32; n];
    let mut op = vec![0u32; n];
    let c = select_fused(backend, variant, &ck, &cp, pred(input), &mut ok, &mut op);
    ordered_pairs(&ok[..c], &op[..c])
}

fn run_select_parallel(backend: Backend, threads: usize, input: &CaseInput) -> Vec<u8> {
    let rel = rsv_data::Relation::new(input.keys.clone(), input.pays.clone());
    let c = CompressedRelation::compress_with(backend, &rel);
    let (ok, op) = expect_infallible(select_fused_parallel(
        backend,
        &c.keys,
        &c.payloads,
        pred(input),
        &ExecPolicy::new(threads),
    ));
    ordered_pairs(&ok, &op)
}

fn histogram_reference(input: &CaseInput) -> Vec<u8> {
    let hist = histogram_scalar(radix(input), &input.keys);
    let mut out = Vec::new();
    put_len(&mut out, hist.len());
    put_u32s(&mut out, &hist);
    out
}

macro_rules! select_kernel {
    ($name:literal, $variant:ident) => {
        Kernel {
            name: $name,
            threaded: false,
            run: |b, _, i| run_select_variant(b, ScanVariant::$variant, i),
        }
    };
}

/// Register the compressed-column operators.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "column-roundtrip",
        reference: roundtrip_reference,
        kernels: vec![
            Kernel {
                name: "vector-pack-scalar-unpack",
                threaded: false,
                run: |b, _, i| {
                    let col = CompressedColumn::pack(b, &i.keys);
                    let values = col.unpack_scalar();
                    encode_column(&col, &values)
                },
            },
            Kernel {
                name: "scalar-pack-vector-unpack",
                threaded: false,
                run: |b, _, i| {
                    let col = CompressedColumn::pack_scalar(&i.keys);
                    let values = col.unpack(b);
                    encode_column(&col, &values)
                },
            },
            Kernel {
                name: "vector-roundtrip",
                threaded: false,
                run: |b, _, i| {
                    let col = CompressedColumn::pack(b, &i.keys);
                    let values = col.unpack(b);
                    encode_column(&col, &values)
                },
            },
            Kernel {
                name: "random-access",
                threaded: false,
                run: |b, _, i| {
                    let col = CompressedColumn::pack(b, &i.keys);
                    let values: Vec<u32> = (0..col.len()).map(|k| col.get(k)).collect();
                    encode_column(&col, &values)
                },
            },
        ],
    });
    r.register(DiffOp {
        name: "column-select-fused",
        reference: select_reference,
        kernels: vec![
            select_kernel!("fused-scalar-branching", ScalarBranching),
            select_kernel!("fused-scalar-branchless", ScalarBranchless),
            select_kernel!("fused-bitextract-direct", VectorBitExtractDirect),
            select_kernel!("fused-selstore-direct", VectorSelStoreDirect),
            select_kernel!("fused-bitextract-indirect", VectorBitExtractIndirect),
            select_kernel!("fused-selstore-indirect", VectorSelStoreIndirect),
            Kernel {
                name: "parallel-fused-selstore-direct",
                threaded: true,
                run: run_select_parallel,
            },
        ],
    });
    r.register(DiffOp {
        name: "column-histogram-fused",
        reference: histogram_reference,
        kernels: vec![
            Kernel {
                name: "fused",
                threaded: false,
                run: |b, _, i| {
                    let col = CompressedColumn::pack(b, &i.keys);
                    let hist = col.histogram(b, radix(i));
                    let mut out = Vec::new();
                    put_len(&mut out, hist.len());
                    put_u32s(&mut out, &hist);
                    out
                },
            },
            Kernel {
                name: "parallel-fused",
                threaded: true,
                run: |b, t, i| {
                    let col = CompressedColumn::pack(b, &i.keys);
                    let hist = expect_infallible(crate::histogram_fused_parallel(
                        b,
                        &col,
                        radix(i),
                        &ExecPolicy::new(t),
                    ));
                    let mut out = Vec::new();
                    put_len(&mut out, hist.len());
                    put_u32s(&mut out, &hist);
                    out
                },
            },
        ],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_params_always_valid() {
        for seed in 0..2_000u64 {
            let input = CaseInput {
                seed,
                keys: vec![],
                pays: vec![],
                build_keys: vec![],
                build_pays: vec![],
                bounds: (0, 0),
                fanout: 1,
                capacity: 1,
                load_factor: 0.5,
            };
            // RadixFn::new panics on an invalid bit range.
            let _ = radix(&input);
        }
    }

    #[test]
    fn registration_smoke() {
        let mut r = Registry::new();
        register(&mut r);
        assert_eq!(r.ops().len(), 3);
    }
}
