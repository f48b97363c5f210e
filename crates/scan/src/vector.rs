//! Vectorized selection scans (paper Section 4, Algorithm 3).

use rsv_simd::{MaskLike, Simd};

use crate::{ScanPredicate, ScanVariant};

/// Size (in entries) of the cache-resident qualifier-index buffer used by
/// the indirect variants. 1024 × 4 B = 4 KB, comfortably L1-resident.
const BUF_LEN: usize = 1024;

#[inline(always)]
fn predicate_mask<S: Simd>(s: S, k: S::V, lower: S::V, upper: S::V) -> S::M {
    s.cmpge(k, lower).and(s.cmple(k, upper))
}

/// Scalar tail for the final `< LANES` tuples.
#[inline(always)]
fn scalar_tail(
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
    mut j: usize,
    from: usize,
) -> usize {
    for i in from..keys.len() {
        let k = keys[i];
        if pred.matches(k) {
            out_keys[j] = k;
            out_pays[j] = pays[i];
            j += 1;
        }
    }
    j
}

/// Vectorized predicate evaluation; qualifiers copied one at a time by
/// extracting bits from the bitmask ("partially vectorized selection").
pub fn scan_vector_bitextract_direct<S: Simd>(
    s: S,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let metered = rsv_metrics::enabled();
            let mut lanes = [0u64; rsv_metrics::LANE_BUCKETS];
            let mut j = 0;
            let mut i = 0;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let m = predicate_mask(s, k, lower, upper);
                if metered {
                    lanes[m.count()] += 1;
                }
                for lane in m.iter_set() {
                    out_keys[j] = keys[i + lane];
                    out_pays[j] = pays[i + lane];
                    j += 1;
                }
                i += w;
            }
            if metered {
                rsv_metrics::add_scan_lanes(ScanVariant::VectorBitExtractDirect.index(), &lanes);
            }
            scalar_tail(keys, pays, pred, out_keys, out_pays, j, i)
        },
    )
}

/// Vectorized predicate evaluation with vector selective stores of both
/// columns directly to the output.
pub fn scan_vector_selstore_direct<S: Simd>(
    s: S,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let metered = rsv_metrics::enabled();
            let mut lanes = [0u64; rsv_metrics::LANE_BUCKETS];
            let mut j = 0;
            let mut i = 0;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let m = predicate_mask(s, k, lower, upper);
                if metered {
                    lanes[m.count()] += 1;
                }
                if m.any() {
                    let v = s.load(&pays[i..]);
                    s.selective_store(&mut out_keys[j..], m, k);
                    j += s.selective_store(&mut out_pays[j..], m, v);
                }
                i += w;
            }
            if metered {
                rsv_metrics::add_scan_lanes(ScanVariant::VectorSelStoreDirect.index(), &lanes);
            }
            scalar_tail(keys, pays, pred, out_keys, out_pays, j, i)
        },
    )
}

/// The predicate half of a selection: mark the qualifying tuples of
/// `keys` in `bits` (one bit per tuple, see [`rsv_simd::bitmap`]) and
/// return their count. Reads only the key column; counts the scan's
/// tuples in and out and its lanes-active histogram (under
/// [`ScanVariant::VectorSelStoreDirect`], whose selective stores
/// [`rsv_simd::bitmap::take`] then performs).
pub(crate) fn mark_selection<S: Simd>(
    s: S,
    keys: &[u32],
    pred: ScanPredicate,
    bits: &mut [u16],
) -> usize {
    let count = s.vectorize(
        #[inline(always)]
        || {
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let metered = rsv_metrics::enabled();
            let mut lanes = [0u64; rsv_metrics::LANE_BUCKETS];
            let count = rsv_simd::bitmap::mark::<S>(
                keys.len(),
                bits,
                #[inline(always)]
                |i| {
                    let m = predicate_mask(s, s.load(&keys[i..]), lower, upper);
                    if metered {
                        lanes[m.count()] += 1;
                    }
                    m
                },
                #[inline(always)]
                |t| pred.matches(keys[t]),
            );
            if metered {
                rsv_metrics::add_scan_lanes(ScanVariant::VectorSelStoreDirect.index(), &lanes);
            }
            count
        },
    );
    rsv_metrics::count(rsv_metrics::Metric::ScanTuplesIn, keys.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::ScanTuplesOut, count as u64);
    count
}

/// Bit-extract qualifier indexes into a cache-resident buffer; flush by
/// gathering the columns (indirect materialization).
pub fn scan_vector_bitextract_indirect<S: Simd>(
    s: S,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(
        keys.len() <= u32::MAX as usize,
        "input too long for 32-bit record ids"
    );
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let metered = rsv_metrics::enabled();
            let mut lanes = [0u64; rsv_metrics::LANE_BUCKETS];
            let mut buf = [0u32; BUF_LEN];
            let mut j = 0;
            let mut l = 0;
            let mut i = 0;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let m = predicate_mask(s, k, lower, upper);
                if metered {
                    lanes[m.count()] += 1;
                }
                for lane in m.iter_set() {
                    buf[l] = (i + lane) as u32;
                    l += 1;
                }
                if l > BUF_LEN - w {
                    j = flush_buffer(s, &buf, BUF_LEN - w, keys, pays, out_keys, out_pays, j);
                    buf.copy_within(BUF_LEN - w..l, 0);
                    l -= BUF_LEN - w;
                }
                i += w;
            }
            if metered {
                rsv_metrics::add_scan_lanes(ScanVariant::VectorBitExtractIndirect.index(), &lanes);
            }
            j = drain_buffer(&buf[..l], keys, pays, out_keys, out_pays, j);
            scalar_tail(keys, pays, pred, out_keys, out_pays, j, i)
        },
    )
}

/// Algorithm 3: selective-store qualifier indexes into a cache-resident
/// buffer; flush by gathering the columns and streaming to the output.
pub fn scan_vector_selstore_indirect<S: Simd>(
    s: S,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(
        keys.len() <= u32::MAX as usize,
        "input too long for 32-bit record ids"
    );
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let lower = s.splat(pred.lower);
            let upper = s.splat(pred.upper);
            let step = s.splat(w as u32);
            let mut rid = s.iota();
            let metered = rsv_metrics::enabled();
            let mut lanes = [0u64; rsv_metrics::LANE_BUCKETS];
            let mut buf = [0u32; BUF_LEN];
            let mut j = 0;
            let mut l = 0;
            let mut i = 0;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let m = predicate_mask(s, k, lower, upper);
                if metered {
                    lanes[m.count()] += 1;
                }
                if m.any() {
                    l += s.selective_store(&mut buf[l..], m, rid);
                    if l > BUF_LEN - w {
                        j = flush_buffer(s, &buf, BUF_LEN - w, keys, pays, out_keys, out_pays, j);
                        buf.copy_within(BUF_LEN - w..l, 0);
                        l -= BUF_LEN - w;
                    }
                }
                rid = s.add(rid, step);
                i += w;
            }
            if metered {
                rsv_metrics::add_scan_lanes(ScanVariant::VectorSelStoreIndirect.index(), &lanes);
            }
            j = drain_buffer(&buf[..l], keys, pays, out_keys, out_pays, j);
            scalar_tail(keys, pays, pred, out_keys, out_pays, j, i)
        },
    )
}

/// Flush `count` buffered indexes: gather the actual keys and payloads and
/// write them to the output with streaming stores.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flush_buffer<S: Simd>(
    s: S,
    buf: &[u32],
    count: usize,
    keys: &[u32],
    pays: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
    j: usize,
) -> usize {
    debug_assert!(count.is_multiple_of(S::LANES));
    let mut b = 0;
    while b < count {
        let p = s.load(&buf[b..]);
        let k = s.gather(keys, p);
        let v = s.gather(pays, p);
        s.store_stream(k, &mut out_keys[j + b..]);
        s.store_stream(v, &mut out_pays[j + b..]);
        b += S::LANES;
    }
    j + count
}

/// Drain the remaining (non-multiple-of-W) buffered indexes scalarly.
#[inline(always)]
fn drain_buffer(
    buf: &[u32],
    keys: &[u32],
    pays: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
    mut j: usize,
) -> usize {
    for &p in buf {
        out_keys[j] = keys[p as usize];
        out_pays[j] = pays[p as usize];
        j += 1;
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan_scalar_branching;
    use rsv_simd::Portable;

    fn workload(n: usize) -> (Vec<u32>, Vec<u32>) {
        let keys: Vec<u32> = (0..n)
            .map(|i| (i as u64 * 2654435761 % 1000) as u32)
            .collect();
        let pays: Vec<u32> = (0..n as u32).collect();
        (keys, pays)
    }

    fn check_variant(f: impl Fn(&[u32], &[u32], ScanPredicate, &mut [u32], &mut [u32]) -> usize) {
        for n in [0usize, 1, 15, 16, 17, 100, 3000] {
            let (keys, pays) = workload(n);
            for (lo, hi) in [(0u32, 999), (0, 99), (900, 999), (1, 0), (450, 550)] {
                let pred = ScanPredicate {
                    lower: lo,
                    upper: hi,
                };
                let mut ek = vec![0u32; n + 1];
                let mut ep = vec![0u32; n + 1];
                let e = scan_scalar_branching(&keys, &pays, pred, &mut ek, &mut ep);
                let mut gk = vec![0u32; n + 1];
                let mut gp = vec![0u32; n + 1];
                let g = f(&keys, &pays, pred, &mut gk, &mut gp);
                assert_eq!(g, e, "count mismatch n={n} pred={pred:?}");
                assert_eq!(&gk[..g], &ek[..e], "keys mismatch n={n} pred={pred:?}");
                assert_eq!(&gp[..g], &ep[..e], "pays mismatch n={n} pred={pred:?}");
            }
        }
    }

    #[test]
    fn bitextract_direct_matches_scalar() {
        let s = Portable::<16>::new();
        check_variant(|k, p, pr, ok, op| scan_vector_bitextract_direct(s, k, p, pr, ok, op));
    }

    #[test]
    fn selstore_direct_matches_scalar() {
        let s = Portable::<16>::new();
        check_variant(|k, p, pr, ok, op| scan_vector_selstore_direct(s, k, p, pr, ok, op));
    }

    #[test]
    fn bitextract_indirect_matches_scalar() {
        let s = Portable::<16>::new();
        check_variant(|k, p, pr, ok, op| scan_vector_bitextract_indirect(s, k, p, pr, ok, op));
    }

    #[test]
    fn selstore_indirect_matches_scalar() {
        let s = Portable::<16>::new();
        check_variant(|k, p, pr, ok, op| scan_vector_selstore_indirect(s, k, p, pr, ok, op));
    }

    #[test]
    fn indirect_flushes_across_buffer_boundary() {
        // All tuples qualify: forces many buffer flushes.
        let s = Portable::<16>::new();
        let n = 10 * BUF_LEN + 7;
        let keys = vec![5u32; n];
        let pays: Vec<u32> = (0..n as u32).collect();
        let pred = ScanPredicate {
            lower: 0,
            upper: 10,
        };
        let mut ok = vec![0u32; n];
        let mut op = vec![0u32; n];
        let g = scan_vector_selstore_indirect(s, &keys, &pays, pred, &mut ok, &mut op);
        assert_eq!(g, n);
        assert_eq!(op, pays);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match_scalar() {
        if let Some(s) = rsv_simd::Avx512::new() {
            check_variant(|k, p, pr, ok, op| scan_vector_selstore_indirect(s, k, p, pr, ok, op));
            check_variant(|k, p, pr, ok, op| scan_vector_selstore_direct(s, k, p, pr, ok, op));
            check_variant(|k, p, pr, ok, op| scan_vector_bitextract_direct(s, k, p, pr, ok, op));
            check_variant(|k, p, pr, ok, op| scan_vector_bitextract_indirect(s, k, p, pr, ok, op));
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            check_variant(|k, p, pr, ok, op| scan_vector_selstore_indirect(s, k, p, pr, ok, op));
            check_variant(|k, p, pr, ok, op| scan_vector_selstore_direct(s, k, p, pr, ok, op));
        }
    }
}
