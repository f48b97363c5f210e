//! Selection bitmaps: the two halves of a selection (paper §4) kept
//! apart.
//!
//! A *mark* pass evaluates a predicate one vector at a time and keeps
//! each vector's lane mask in a bitmap, one bit per tuple. A *take* pass
//! turns the marked tuples into columns with one selective store per
//! vector. The bitmap is made of `u16` words, one per [`WORD_TUPLES`]
//! tuples: bit `t % 16` of word `t / 16` is tuple `t`. Every backend's
//! lane count is a power of two of at most 16, so whole vectors tile a
//! word exactly.

use crate::{MaskLike, Simd};

/// Tuples per bitmap word.
pub const WORD_TUPLES: usize = u16::BITS as usize;

/// Mark the tuples `0..n` that pass a predicate in `bits` (at least
/// `n.div_ceil(16)` words) and return how many passed. `vector(i)` is
/// the lane mask of tuples `i..i + LANES` and is called for every full
/// vector in order; `scalar(t)` tests one tuple of the final partial
/// vector. Every word in `bits[..n.div_ceil(16)]` is overwritten, so the
/// bitmap needs no clearing between calls.
///
/// Call it inside [`Simd::vectorize`] and mark both closures
/// `#[inline(always)]`: a closure left out of line is compiled without
/// the backend's target features, and its intrinsics become calls.
#[inline(always)]
pub fn mark<S: Simd>(
    n: usize,
    bits: &mut [u16],
    mut vector: impl FnMut(usize) -> S::M,
    mut scalar: impl FnMut(usize) -> bool,
) -> usize {
    let w = S::LANES;
    debug_assert!(w <= WORD_TUPLES && WORD_TUPLES.is_multiple_of(w));
    let full = n / WORD_TUPLES;
    let mut count = 0usize;
    for (word, out) in bits[..full].iter_mut().enumerate() {
        let at = word * WORD_TUPLES;
        let mut b = 0u32;
        for v in 0..WORD_TUPLES / w {
            b |= vector(at + v * w).bits() << (v * w);
        }
        *out = b as u16;
        count += b.count_ones() as usize;
    }
    if !n.is_multiple_of(WORD_TUPLES) {
        let at = full * WORD_TUPLES;
        let mut b = 0u32;
        let mut i = at;
        while i + w <= n {
            b |= vector(i).bits() << (i - at);
            i += w;
        }
        for t in i..n {
            b |= u32::from(scalar(t)) << (t - at);
        }
        bits[full] = b as u16;
        count += b.count_ones() as usize;
    }
    count
}

/// The marks of tuples `i..i + LANES` as a lane mask (`i` a multiple of
/// `LANES`).
#[inline(always)]
pub fn lanes<S: Simd>(bits: &[u16], i: usize) -> S::M {
    S::M::from_bits(u32::from(bits[i / WORD_TUPLES] >> (i % WORD_TUPLES)))
}

/// Whether tuple `t` is marked.
#[inline(always)]
pub fn is_marked(bits: &[u16], t: usize) -> bool {
    bits[t / WORD_TUPLES] >> (t % WORD_TUPLES) & 1 != 0
}

/// Take the marked tuples of `keys` / `pays` (equal lengths, one bit per
/// tuple in `bits`) to the fronts of the output slices, in input order,
/// with one selective store per column and vector that has a mark.
/// Returns how many were taken.
pub fn take<S: Simd>(
    s: S,
    keys: &[u32],
    pays: &[u32],
    bits: &[u16],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let n = keys.len();
            let mut j = 0;
            let mut i = 0;
            while i + w <= n {
                let m = lanes::<S>(bits, i);
                if m.any() {
                    s.selective_store(&mut out_keys[j..], m, s.load(&keys[i..]));
                    j += s.selective_store(&mut out_pays[j..], m, s.load(&pays[i..]));
                }
                i += w;
            }
            for t in i..n {
                if is_marked(bits, t) {
                    out_keys[j] = keys[t];
                    out_pays[j] = pays[t];
                    j += 1;
                }
            }
            j
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Portable;

    /// Mark then take equals a scalar filter at every width and at the
    /// lengths around a word and a vector.
    fn check<S: Simd>(s: S) {
        for n in [0usize, 1, 3, 7, 15, 16, 17, 31, 33, 100] {
            let keys: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect();
            let pays: Vec<u32> = (0..n as u32).collect();
            let cut = u32::MAX / 3 * 2;
            let keep = |k: u32| k < cut;
            let mut bits = vec![u16::MAX; n.div_ceil(WORD_TUPLES)];
            let c = mark::<S>(
                n,
                &mut bits,
                |i| s.cmplt(s.load(&keys[i..]), s.splat(cut)),
                |t| keep(keys[t]),
            );
            let want: Vec<usize> = (0..n).filter(|&t| keep(keys[t])).collect();
            assert_eq!(c, want.len(), "{} n={n}", s.name());
            for (t, &k) in keys.iter().enumerate() {
                assert_eq!(is_marked(&bits, t), keep(k), "{} n={n} t={t}", s.name());
            }
            let (mut ok, mut op) = (vec![0u32; n], vec![0u32; n]);
            assert_eq!(take(s, &keys, &pays, &bits, &mut ok, &mut op), c);
            let wk: Vec<u32> = want.iter().map(|&t| keys[t]).collect();
            let wp: Vec<u32> = want.iter().map(|&t| t as u32).collect();
            assert_eq!(
                (&ok[..c], &op[..c]),
                (&wk[..], &wp[..]),
                "{} n={n}",
                s.name()
            );
        }
    }

    #[test]
    fn mark_then_take_filters_in_order() {
        check(Portable::<1>::new());
        check(Portable::<4>::new());
        check(Portable::<8>::new());
        check(Portable::<16>::new());
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(s) = crate::Avx2::new() {
                check(s);
            }
            if let Some(s) = crate::Avx512::new() {
                check(s);
            }
        }
    }
}
