//! Property tests: radixsort equals `sort_unstable` and is stable, for
//! arbitrary inputs, radix widths, and thread counts.

use rsv_exec::ExecPolicy;
use rsv_simd::{Backend, Portable};
use rsv_sort::multicol::{lsb_radixsort_multicol, PayloadColumn};
use rsv_sort::{radixsort_keys, radixsort_pairs, SortConfig};
use rsv_testkit as tk;

#[test]
fn sorts_arbitrary_inputs() {
    tk::check("sorts_arbitrary_inputs", 48, 0x5027, |rng| {
        let keys = tk::vec_u32(rng, 0, 800);
        let bits = [4u32, 8, 11][rng.index(3)];
        let threads = 1 + rng.index(3);

        let cfg = SortConfig { radix_bits: bits };
        let policy = ExecPolicy::new(threads);
        let pays: Vec<u32> = (0..keys.len() as u32).collect();
        let mut expected = keys.clone();
        expected.sort_unstable();

        let mut k = keys.clone();
        let mut p = pays.clone();
        radixsort_pairs(Portable::<16>::new(), false, &mut k, &mut p, &cfg, &policy).unwrap();
        assert_eq!(&k, &expected, "scalar keys");
        check_stable(&keys, &k, &p);

        let backend = Backend::best();
        rsv_simd::dispatch!(backend, s => {
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(s, true, &mut k, &mut p, &cfg, &policy).unwrap();
            assert_eq!(&k, &expected, "vector keys");
            check_stable(&keys, &k, &p);

            let mut k = keys.clone();
            radixsort_keys(s, true, &mut k, &cfg, &policy).unwrap();
            assert_eq!(&k, &expected, "key-only");
        });
    });
}

#[test]
fn multicol_sort_keeps_rows() {
    tk::check("multicol_sort_keeps_rows", 48, 0x5028, |rng| {
        let keys = tk::vec_u32(rng, 0, 400);
        let n = keys.len();
        let c8: Vec<u8> = (0..n).map(|i| i as u8).collect();
        let c64: Vec<u64> = keys.iter().map(|&k| u64::from(k) ^ 0xABCD).collect();
        let rid: Vec<u32> = (0..n as u32).collect();
        let mut k = keys.clone();
        let mut cols = vec![
            PayloadColumn::U8(c8.clone()),
            PayloadColumn::U32(rid),
            PayloadColumn::U64(c64.clone()),
        ];
        let backend = Backend::best();
        rsv_simd::dispatch!(backend, s => {
            lsb_radixsort_multicol(s, &mut k, &mut cols, &SortConfig::default());
        });
        assert!(k.windows(2).all(|w| w[0] <= w[1]));
        let (PayloadColumn::U8(o8), PayloadColumn::U32(orid), PayloadColumn::U64(o64)) =
            (&cols[0], &cols[1], &cols[2])
        else {
            unreachable!()
        };
        for i in 0..n {
            let orig = orid[i] as usize;
            assert_eq!(keys[orig], k[i]);
            assert_eq!(c8[orig], o8[i]);
            assert_eq!(c64[orig], o64[i]);
        }
    });
}

fn check_stable(orig_keys: &[u32], sorted_keys: &[u32], sorted_pays: &[u32]) {
    for (i, (&k, &p)) in sorted_keys.iter().zip(sorted_pays).enumerate() {
        assert_eq!(orig_keys[p as usize], k, "tuple broken at {i}");
    }
    for w in sorted_keys.windows(2).zip(sorted_pays.windows(2)) {
        if w.0[0] == w.0[1] {
            assert!(w.1[0] < w.1[1], "not stable");
        }
    }
}
