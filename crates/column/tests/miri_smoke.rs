//! Small-input smoke tests sized for Miri.
//!
//! The exhaustive sweeps in the unit/property tests are `#[cfg_attr(miri,
//! ignore)]` — interpreting millions of decode steps is not what Miri is
//! for. These cover the same code paths (vector pack/unpack, every fused
//! scan variant, the gather/scatter histogram, and the shared-buffer
//! parallel kernels whose aliasing discipline Miri actually checks) on a
//! couple of blocks so the whole crate stays under a minute interpreted.

use rsv_column::{select_fused, select_fused_parallel, CompressedColumn, BLOCK_LEN};
use rsv_exec::ExecPolicy;
use rsv_partition::{histogram::histogram_scalar, RadixFn};
use rsv_scan::{scan, ScanPredicate, ScanVariant};
use rsv_simd::Backend;

fn small_input(n: usize) -> (Vec<u32>, Vec<u32>) {
    let mut rng = rsv_data::rng(0x51DE);
    let keys: Vec<u32> = (0..n).map(|_| rng.next_u32() % 5_000).collect();
    let pays: Vec<u32> = (0..n as u32).collect();
    (keys, pays)
}

#[test]
fn round_trip_small() {
    let (keys, _) = small_input(BLOCK_LEN + 37);
    for backend in Backend::all_available() {
        let col = CompressedColumn::pack(backend, &keys);
        assert_eq!(col, CompressedColumn::pack_scalar(&keys), "canonical bytes");
        assert_eq!(col.unpack(backend), keys, "{}", backend.name());
        assert_eq!(col.get(BLOCK_LEN + 1), keys[BLOCK_LEN + 1]);
    }
}

#[test]
fn fused_select_small() {
    let (keys, pays) = small_input(BLOCK_LEN + 101);
    let n = keys.len();
    let pred = ScanPredicate {
        lower: 1_000,
        upper: 3_000,
    };
    for backend in Backend::all_available() {
        let ck = CompressedColumn::pack(backend, &keys);
        let cp = CompressedColumn::pack(backend, &pays);
        for variant in ScanVariant::ALL {
            let mut ek = vec![0u32; n];
            let mut ep = vec![0u32; n];
            let e = scan(backend, variant, &keys, &pays, pred, &mut ek, &mut ep);
            let mut gk = vec![0u32; n];
            let mut gp = vec![0u32; n];
            let g = select_fused(backend, variant, &ck, &cp, pred, &mut gk, &mut gp);
            assert_eq!(g, e, "{} {}", backend.name(), variant.label());
            assert_eq!(&gk[..g], &ek[..e]);
            assert_eq!(&gp[..g], &ep[..e]);
        }
    }
}

#[test]
fn fused_histogram_small() {
    let (keys, _) = small_input(BLOCK_LEN + 19);
    let f = RadixFn::new(4, 5);
    let expected = histogram_scalar(f, &keys);
    for backend in Backend::all_available() {
        let col = CompressedColumn::pack(backend, &keys);
        assert_eq!(col.histogram(backend, f), expected);
    }
}

#[test]
fn parallel_select_small() {
    let (keys, pays) = small_input(2 * BLOCK_LEN + 53);
    let n = keys.len();
    let pred = ScanPredicate {
        lower: 500,
        upper: 4_000,
    };
    let backend = Backend::all_available()[0];
    let variant = ScanVariant::VectorSelStoreIndirect;
    let ck = CompressedColumn::pack(backend, &keys);
    let cp = CompressedColumn::pack(backend, &pays);
    let mut ek = vec![0u32; n];
    let mut ep = vec![0u32; n];
    let e = select_fused(backend, variant, &ck, &cp, pred, &mut ek, &mut ep);
    let policy = ExecPolicy::new(2).with_morsel_tuples(BLOCK_LEN);
    let (gk, gp) = select_fused_parallel(backend, &ck, &cp, pred, &policy).unwrap();
    assert_eq!(gk, &ek[..e]);
    assert_eq!(gp, &ep[..e]);
}
