//! Property tests for the compressed column subsystem: canonical packing,
//! lossless round trips, random access, and fused-kernel equivalence with
//! the raw operators — on arbitrary inputs, every backend, every variant.

use rsv_column::{select_fused, CompressedColumn, CompressedRelation};
use rsv_scan::{scan, ScanPredicate, ScanVariant};
use rsv_simd::Backend;
use rsv_testkit as tk;

/// Values whose block deltas fit a random width, plus full-range values.
fn arbitrary_column(rng: &mut tk::Rng) -> Vec<u32> {
    let n = tk::len_in(rng, 0, 1800);
    match rng.below(4) {
        0 => (0..n).map(|_| rng.next_u32()).collect(),
        1 => {
            // narrow domain: low widths, width-0 constant blocks possible
            let domain = 1 + rng.below(64) as u32;
            (0..n)
                .map(|_| rng.below(u64::from(domain)) as u32)
                .collect()
        }
        2 => {
            // high-bias FOR: huge minimum, small deltas
            let base = u32::MAX - 70_000;
            (0..n).map(|_| base + rng.below(65_536) as u32).collect()
        }
        _ => {
            let bits = 1 + rng.below(32) as u32;
            let mask = if bits == 32 {
                u32::MAX
            } else {
                (1 << bits) - 1
            };
            (0..n).map(|_| rng.next_u32() & mask).collect()
        }
    }
}

#[test]
#[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
fn packing_is_canonical_and_lossless() {
    tk::check("packing_is_canonical_and_lossless", 96, 0xC01, |rng| {
        let vals = arbitrary_column(rng);
        let reference = CompressedColumn::pack_scalar(&vals);
        assert_eq!(reference.unpack_scalar(), vals, "scalar round trip");
        for backend in Backend::all_available() {
            let col = CompressedColumn::pack(backend, &vals);
            assert_eq!(col, reference, "{} packed bytes", backend.name());
            assert_eq!(col.unpack(backend), vals, "{} unpack", backend.name());
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
fn random_access_matches_values() {
    tk::check("random_access_matches_values", 64, 0xC02, |rng| {
        let vals = arbitrary_column(rng);
        let col = CompressedColumn::pack_scalar(&vals);
        for _ in 0..64.min(vals.len()) {
            let i = rng.index(vals.len());
            assert_eq!(col.get(i), vals[i], "index {i}");
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
fn forced_widths_round_trip() {
    tk::check("forced_widths_round_trip", 64, 0xC03, |rng| {
        let bits = 1 + rng.below(32) as u8;
        let mask = if bits == 32 {
            u32::MAX
        } else {
            (1u32 << bits) - 1
        };
        let n = tk::len_in(rng, 0, 1500);
        let vals: Vec<u32> = (0..n).map(|_| rng.next_u32() & mask).collect();
        for backend in Backend::all_available() {
            let col = CompressedColumn::pack_with_width(backend, &vals, bits);
            assert!(col.block_directory().iter().all(|b| b.width == bits));
            assert_eq!(col.unpack(backend), vals, "{} width {bits}", backend.name());
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
fn fused_select_equals_raw_scan() {
    tk::check("fused_select_equals_raw_scan", 48, 0xC04, |rng| {
        let keys = arbitrary_column(rng);
        let n = keys.len();
        let pays: Vec<u32> = (0..n as u32).collect();
        let lower = rng.next_u32();
        let upper = lower.saturating_add(rng.next_u32() / 2);
        let pred = ScanPredicate { lower, upper };
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
                assert_eq!(&gk[..g], &ek[..e], "{} {}", backend.name(), variant.label());
                assert_eq!(&gp[..g], &ep[..e], "{} {}", backend.name(), variant.label());
            }
        }
    });
}

#[test]
#[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
fn compressed_relation_round_trips() {
    tk::check("compressed_relation_round_trips", 32, 0xC06, |rng| {
        let keys = arbitrary_column(rng);
        let rel = rsv_data::Relation::with_rid_payloads(keys);
        for backend in Backend::all_available() {
            let c = CompressedRelation::compress_with(backend, &rel);
            assert_eq!(c.decompress_with(backend), rel, "{}", backend.name());
        }
    });
}
