//! Explicit tail-handling coverage: every scan variant, histogram
//! variant, and the buffered shuffles run on inputs of length
//! `{0, 1, W−1, W+1, 2W+3}` for each available backend's vector width
//! `W`, compared against the scalar reference. These are the lengths
//! where a kernel's main loop does zero or one full vector and the
//! remainder drains through the tail path.

use rsv_partition::histogram::{
    histogram_scalar, histogram_vector_compressed, histogram_vector_replicated,
    histogram_vector_serialized,
};
use rsv_partition::shuffle::{
    shuffle_scalar_buffered, shuffle_scalar_unbuffered, shuffle_vector_buffered,
    shuffle_vector_unbuffered,
};
use rsv_partition::RadixFn;
use rsv_scan::{scan, ScanPredicate, ScanVariant};
use rsv_simd::{dispatch, Backend};

/// `{0, 1, W−1, W+1, 2W+3}` for vector width `w`.
fn tail_lens(w: usize) -> [usize; 5] {
    [0, 1, w - 1, w + 1, 2 * w + 3]
}

/// A deterministic sentinel-free key column.
fn keys_of_len(n: usize) -> Vec<u32> {
    let mut rng = rsv_data::rng(0x7A11 + n as u64);
    rsv_data::uniform_u32(n, &mut rng)
}

#[test]
fn scan_variants_handle_tails() {
    for backend in Backend::all_available() {
        for n in tail_lens(backend.lanes()) {
            let keys = keys_of_len(n);
            let pays: Vec<u32> = (0..n as u32).collect();
            let pred = ScanPredicate {
                lower: u32::MAX / 4,
                upper: u32::MAX / 4 * 3,
            };
            let mut rk = vec![0u32; n];
            let mut rp = vec![0u32; n];
            let rc = scan(
                backend,
                ScanVariant::ScalarBranching,
                &keys,
                &pays,
                pred,
                &mut rk,
                &mut rp,
            );
            for variant in ScanVariant::ALL {
                let mut ok = vec![0u32; n];
                let mut op = vec![0u32; n];
                let c = scan(backend, variant, &keys, &pays, pred, &mut ok, &mut op);
                assert_eq!(c, rc, "{} len {n} {}", backend.name(), variant.label());
                assert_eq!(
                    ok[..c],
                    rk[..rc],
                    "{} len {n} {}",
                    backend.name(),
                    variant.label()
                );
                assert_eq!(
                    op[..c],
                    rp[..rc],
                    "{} len {n} {}",
                    backend.name(),
                    variant.label()
                );
            }
        }
    }
}

#[test]
fn histogram_variants_handle_tails() {
    let f = RadixFn::new(26, 6);
    for backend in Backend::all_available() {
        for n in tail_lens(backend.lanes()) {
            let keys = keys_of_len(n);
            let expected = histogram_scalar(f, &keys);
            dispatch!(backend, s => {
                assert_eq!(
                    histogram_vector_replicated(s, f, &keys),
                    expected,
                    "replicated {} len {n}",
                    backend.name()
                );
                assert_eq!(
                    histogram_vector_serialized(s, f, &keys),
                    expected,
                    "serialized {} len {n}",
                    backend.name()
                );
                assert_eq!(
                    histogram_vector_compressed(s, f, &keys),
                    expected,
                    "compressed {} len {n}",
                    backend.name()
                );
            });
        }
    }
}

#[test]
fn buffered_shuffles_handle_tails() {
    let f = RadixFn::new(28, 4);
    for backend in Backend::all_available() {
        for n in tail_lens(backend.lanes()) {
            let keys = keys_of_len(n);
            let pays: Vec<u32> = (0..n as u32).collect();
            let hist = histogram_scalar(f, &keys);

            let mut rk = vec![0u32; n];
            let mut rp = vec![0u32; n];
            let base = shuffle_scalar_unbuffered(f, &keys, &pays, &hist, &mut rk, &mut rp);

            let mut sk = vec![0u32; n];
            let mut sp = vec![0u32; n];
            let sb = shuffle_scalar_buffered(f, &keys, &pays, &hist, &mut sk, &mut sp);
            assert_eq!(
                (&sb, &sk, &sp),
                (&base, &rk, &rp),
                "scalar-buffered len {n}"
            );

            dispatch!(backend, s => {
                let mut uk = vec![0u32; n];
                let mut up = vec![0u32; n];
                let ub = shuffle_vector_unbuffered(s, f, &keys, &pays, &hist, &mut uk, &mut up);
                assert_eq!(
                    (&ub, &uk, &up),
                    (&base, &rk, &rp),
                    "vector-unbuffered {} len {n}",
                    backend.name()
                );

                let mut bk = vec![0u32; n];
                let mut bp = vec![0u32; n];
                let bb = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut bk, &mut bp);
                assert_eq!(
                    (&bb, &bk, &bp),
                    (&base, &rk, &rp),
                    "vector-buffered {} len {n}",
                    backend.name()
                );
            });
        }
    }
}

/// Tail lengths for the compressed-column kernels: the vector-width
/// boundaries plus a column whose final block is a non-block-multiple
/// partial block.
fn column_tail_lens(w: usize) -> [usize; 6] {
    [
        0,
        1,
        w - 1,
        w + 1,
        2 * w + 3,
        2 * rsv_column::BLOCK_LEN + 37,
    ]
}

/// A deterministic column whose deltas fit in `width` bits.
fn keys_of_width(n: usize, width: u8) -> Vec<u32> {
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let mut rng = rsv_data::rng(0xB17 + n as u64 + (u64::from(width) << 8));
    (0..n).map(|_| rng.next_u32() & mask).collect()
}

#[test]
fn pack_unpack_handle_tails_every_width() {
    use rsv_column::CompressedColumn;
    for backend in Backend::all_available() {
        for width in 1..=32u8 {
            for n in column_tail_lens(backend.lanes()) {
                let keys = keys_of_width(n, width);
                let reference = CompressedColumn::pack_scalar_with_width(&keys, width);
                let col = CompressedColumn::pack_with_width(backend, &keys, width);
                assert_eq!(
                    col,
                    reference,
                    "{} width {width} len {n}: packed bytes not canonical",
                    backend.name()
                );
                assert_eq!(
                    col.unpack(backend),
                    keys,
                    "{} width {width} len {n}: vector unpack",
                    backend.name()
                );
                assert_eq!(
                    reference.unpack_scalar(),
                    keys,
                    "width {width} len {n}: scalar unpack"
                );
            }
        }
    }
}

#[test]
fn fused_scan_handles_tails_every_width() {
    use rsv_column::{select_fused, CompressedColumn};
    for backend in Backend::all_available() {
        for width in 1..=32u8 {
            for n in column_tail_lens(backend.lanes()) {
                let keys = keys_of_width(n, width);
                let pays: Vec<u32> = (0..n as u32).collect();
                let mask = if width == 32 {
                    u32::MAX
                } else {
                    (1u32 << width) - 1
                };
                let pred = ScanPredicate {
                    lower: mask / 4,
                    upper: mask / 4 * 3,
                };
                let mut rk = vec![0u32; n];
                let mut rp = vec![0u32; n];
                let rc = scan(
                    backend,
                    ScanVariant::ScalarBranching,
                    &keys,
                    &pays,
                    pred,
                    &mut rk,
                    &mut rp,
                );
                let ck = CompressedColumn::pack_with_width(backend, &keys, width);
                let cp = CompressedColumn::pack(backend, &pays);
                for variant in ScanVariant::ALL {
                    let mut ok = vec![0u32; n];
                    let mut op = vec![0u32; n];
                    let c = select_fused(backend, variant, &ck, &cp, pred, &mut ok, &mut op);
                    assert_eq!(
                        (c, &ok[..c], &op[..c]),
                        (rc, &rk[..rc], &rp[..rc]),
                        "{} width {width} len {n} {}",
                        backend.name(),
                        variant.label()
                    );
                }
            }
        }
    }
}

/// Lengths for the morsel filter driver: the vector-width boundaries,
/// both sides of a 16-tuple bitmap word and of a 2048-tuple take chunk.
fn driver_lens(w: usize) -> [usize; 10] {
    [0, 1, w - 1, w + 1, 15, 17, 63, 65, 2047, 2049]
}

/// The three operators on the mark-then-take filter driver, against
/// their sequential kernels: the select against the direct
/// selective-store scan, the Bloom semi-join against one vector probe of
/// a serially built filter, and the compressed select against the
/// sequential fused scan. Byte-identical at every morsel size and thread
/// count, morsels ending mid-word included.
#[test]
fn filter_driver_operators_handle_tails() {
    use rsv_bloom::BlockedBloomFilter;
    use rsv_column::select_fused;
    use rsv_core::{Engine, Relation, BLOOM_BITS_PER_KEY};

    for backend in Backend::all_available() {
        for n in driver_lens(backend.lanes()) {
            let keys = keys_of_len(n);
            let pays: Vec<u32> = (0..n as u32).collect();
            let rel = Relation::new(keys.clone(), pays.clone());
            let (lower, upper) = (u32::MAX / 4, u32::MAX / 4 * 3);
            let pred = ScanPredicate { lower, upper };
            let direct = ScanVariant::VectorSelStoreDirect;
            let (mut sk, mut sp) = (vec![0u32; n], vec![0u32; n]);
            let sc = scan(backend, direct, &keys, &pays, pred, &mut sk, &mut sp);
            let select = Relation::new(sk[..sc].to_vec(), sp[..sc].to_vec());

            // every other key of the input, plus as many absent ones
            let filter_keys: Vec<u32> = keys
                .iter()
                .step_by(2)
                .copied()
                .chain(keys_of_len(n + 1000).into_iter().take(n / 2))
                .collect();
            let mut filter = BlockedBloomFilter::new(filter_keys.len(), BLOOM_BITS_PER_KEY);
            filter.build(&filter_keys);
            let (mut bk, mut bp) = (vec![0u32; n], vec![0u32; n]);
            let bc = dispatch!(backend, s => {
                filter.probe_vector(s, &keys, &pays, &mut bk, &mut bp)
            });
            let bloom = Relation::new(bk[..bc].to_vec(), bp[..bc].to_vec());

            let packed = Engine::with_backend(backend).compress(&rel);
            let (mut fk, mut fp) = (vec![0u32; n], vec![0u32; n]);
            let fc = select_fused(
                backend,
                direct,
                &packed.keys,
                &packed.payloads,
                pred,
                &mut fk,
                &mut fp,
            );
            let fused = Relation::new(fk[..fc].to_vec(), fp[..fc].to_vec());

            for morsel in [16usize, 48, 1000] {
                for threads in [1usize, 2, 8] {
                    let e = Engine::with_backend(backend)
                        .with_threads(threads)
                        .with_morsel_tuples(morsel);
                    let at = format!("{} n={n} morsel={morsel} t={threads}", backend.name());
                    assert_eq!(e.select(&rel, lower, upper), select, "select {at}");
                    assert_eq!(e.bloom_semijoin(&rel, &filter_keys), bloom, "bloom {at}");
                    assert_eq!(
                        e.select_compressed(&packed, lower, upper),
                        fused,
                        "select_compressed {at}"
                    );
                }
            }
        }
    }
}
