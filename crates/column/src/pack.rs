//! Pack / unpack kernels for the 16-lane interleaved block format.
//!
//! The layout (see the crate docs) is canonical: the scalar reference and
//! every SIMD backend produce byte-identical packed words. The vector
//! kernels exploit the format's central invariant: within any aligned run
//! of `W ≤ 16` values, the bit offset `pos·b` is the *same* for every
//! lane, so one contiguous vector load plus one uniform shift moves `W`
//! packed deltas — two loads when the field straddles a word boundary.

use rsv_simd::Simd;

use crate::{
    assert_lanes, bits_for, width_mask, BlockMeta, CompressedColumn, BLOCK_LEN, FORMAT_LANES,
};

/// The `(min, width)` of one block, honoring a forced width.
///
/// # Panics
/// If `forced` is too narrow for the block's `max − min`.
fn block_meta(vals: &[u32], min: u32, max: u32, forced: Option<u8>) -> (u32, u8) {
    debug_assert!(!vals.is_empty());
    let need = bits_for(max - min);
    let width = match forced {
        None => need,
        Some(f) => {
            assert!(
                f >= need && f <= 32,
                "forced width {f} cannot hold {need}-bit deltas"
            );
            f
        }
    };
    (min, width)
}

/// Scalar-encode one value into a zero-initialized block word region.
#[inline(always)]
pub(crate) fn encode_one(words: &mut [u32], b: u32, min: u32, idx: usize, v: u32) {
    if b == 0 {
        return;
    }
    let delta = v - min;
    debug_assert!(delta <= width_mask(b));
    let lane = idx % FORMAT_LANES;
    let pos = idx / FORMAT_LANES;
    let bit = pos * b as usize;
    let wi = bit / 32;
    let sh = (bit % 32) as u32;
    words[wi * FORMAT_LANES + lane] |= delta << sh;
    if sh + b > 32 {
        words[(wi + 1) * FORMAT_LANES + lane] |= delta >> (32 - sh);
    }
}

/// Scalar-decode the value at block-local index `idx`.
#[inline(always)]
pub(crate) fn decode_one(words: &[u32], b: u32, min: u32, idx: usize) -> u32 {
    if b == 0 {
        return min;
    }
    let lane = idx % FORMAT_LANES;
    let pos = idx / FORMAT_LANES;
    let bit = pos * b as usize;
    let wi = bit / 32;
    let sh = (bit % 32) as u32;
    let mut d = words[wi * FORMAT_LANES + lane] >> sh;
    if sh + b > 32 {
        d |= words[(wi + 1) * FORMAT_LANES + lane] << (32 - sh);
    }
    min + (d & width_mask(b))
}

/// Vector-decode `S::LANES` values starting at block-local index `i`
/// (`i` must be a multiple of `S::LANES`). `minv`/`maskv` are the splat
/// of the block minimum and the width mask.
#[inline(always)]
pub(crate) fn decode_vec<S: Simd>(
    s: S,
    words: &[u32],
    b: u32,
    minv: S::V,
    maskv: S::V,
    i: usize,
) -> S::V {
    debug_assert_eq!(i % S::LANES, 0);
    if b == 0 {
        return minv;
    }
    let lane_start = i % FORMAT_LANES;
    let pos = i / FORMAT_LANES;
    let bit = pos * b as usize;
    let wi = bit / 32;
    let sh = (bit % 32) as u32;
    let base = wi * FORMAT_LANES + lane_start;
    let mut d = s.shr(s.load(&words[base..]), sh);
    if sh + b > 32 {
        d = s.or(d, s.shl(s.load(&words[base + FORMAT_LANES..]), 32 - sh));
    }
    s.add(s.and(d, maskv), minv)
}

/// Scalar reference pack.
pub(crate) fn pack_scalar(values: &[u32], forced: Option<u8>) -> CompressedColumn {
    let mut col = CompressedColumn {
        len: values.len(),
        words: Vec::new(),
        blocks: Vec::new(),
    };
    for chunk in values.chunks(BLOCK_LEN) {
        let (min, max) = chunk
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let (min, width) = block_meta(chunk, min, max, forced);
        let offset = col.words.len();
        col.words.resize(offset + FORMAT_LANES * width as usize, 0);
        let words = &mut col.words[offset..];
        for (k, &v) in chunk.iter().enumerate() {
            encode_one(words, u32::from(width), min, k, v);
        }
        col.blocks.push(BlockMeta { min, width, offset });
    }
    col
}

/// Vectorized pack: min/max discovery and delta packing run `S::LANES`
/// values at a time; the sub-vector tail of the final block is encoded
/// scalar. Produces the same canonical bytes as [`pack_scalar`].
pub(crate) fn pack_vector<S: Simd>(s: S, values: &[u32], forced: Option<u8>) -> CompressedColumn {
    assert_lanes::<S>();
    let mut col = CompressedColumn {
        len: values.len(),
        words: Vec::new(),
        blocks: Vec::new(),
    };
    s.vectorize(
        #[inline(always)]
        || {
            for chunk in values.chunks(BLOCK_LEN) {
                let (min, max) = min_max_vector(s, chunk);
                let (min, width) = block_meta(chunk, min, max, forced);
                let offset = col.words.len();
                col.words.resize(offset + FORMAT_LANES * width as usize, 0);
                pack_block_vector(s, chunk, min, u32::from(width), &mut col.words[offset..]);
                col.blocks.push(BlockMeta { min, width, offset });
            }
        },
    );
    col
}

/// Vectorized `(min, max)` of a non-empty slice.
fn min_max_vector<S: Simd>(s: S, vals: &[u32]) -> (u32, u32) {
    let w = S::LANES;
    let mut lo = vals[0];
    let mut hi = vals[0];
    let mut i = 0;
    if vals.len() >= w {
        let mut minv = s.load(vals);
        let mut maxv = minv;
        i = w;
        while i + w <= vals.len() {
            let v = s.load(&vals[i..]);
            minv = s.blend(s.cmplt(v, minv), v, minv);
            maxv = s.blend(s.cmpgt(v, maxv), v, maxv);
            i += w;
        }
        let mut a = [0u32; FORMAT_LANES];
        s.store(minv, &mut a[..w]);
        lo = a[..w].iter().fold(lo, |m, &v| m.min(v));
        s.store(maxv, &mut a[..w]);
        hi = a[..w].iter().fold(hi, |m, &v| m.max(v));
    }
    for &v in &vals[i..] {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Pack one block's values into its zeroed word region, vectorized.
fn pack_block_vector<S: Simd>(s: S, vals: &[u32], min: u32, b: u32, words: &mut [u32]) {
    debug_assert_eq!(words.len(), FORMAT_LANES * b as usize);
    if b == 0 {
        return;
    }
    let w = S::LANES;
    let minv = s.splat(min);
    let mut i = 0;
    while i + w <= vals.len() {
        let lane_start = i % FORMAT_LANES;
        let pos = i / FORMAT_LANES;
        let bit = pos * b as usize;
        let wi = bit / 32;
        let sh = (bit % 32) as u32;
        let d = s.sub(s.load(&vals[i..]), minv);
        let base = wi * FORMAT_LANES + lane_start;
        let cur = s.load(&words[base..]);
        s.store(s.or(cur, s.shl(d, sh)), &mut words[base..]);
        if sh + b > 32 {
            let base2 = base + FORMAT_LANES;
            let cur2 = s.load(&words[base2..]);
            s.store(s.or(cur2, s.shr(d, 32 - sh)), &mut words[base2..]);
        }
        i += w;
    }
    for (k, &v) in vals.iter().enumerate().skip(i) {
        encode_one(words, b, min, k, v);
    }
}

/// Scalar reference unpack.
pub(crate) fn unpack_scalar(col: &CompressedColumn) -> Vec<u32> {
    let mut out = vec![0u32; col.len];
    for (bi, blk) in col.blocks.iter().enumerate() {
        rsv_metrics::count_blocks_decoded(usize::from(blk.width), 1);
        let start = bi * BLOCK_LEN;
        let blk_len = (col.len - start).min(BLOCK_LEN);
        let words = &col.words[blk.offset..];
        for (k, o) in out[start..start + blk_len].iter_mut().enumerate() {
            *o = decode_one(words, u32::from(blk.width), blk.min, k);
        }
    }
    out
}

/// Vectorized unpack.
pub(crate) fn unpack_vector<S: Simd>(s: S, col: &CompressedColumn) -> Vec<u32> {
    assert_lanes::<S>();
    let mut out = vec![0u32; col.len];
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            for (bi, blk) in col.blocks.iter().enumerate() {
                rsv_metrics::count_blocks_decoded(usize::from(blk.width), 1);
                let start = bi * BLOCK_LEN;
                let blk_len = (col.len - start).min(BLOCK_LEN);
                let b = u32::from(blk.width);
                let words = &col.words[blk.offset..blk.offset + FORMAT_LANES * b as usize];
                let minv = s.splat(blk.min);
                let maskv = s.splat(width_mask(b));
                let mut off = 0;
                while off + w <= blk_len {
                    let v = decode_vec(s, words, b, minv, maskv, off);
                    s.store(v, &mut out[start + off..]);
                    off += w;
                }
                for (k, o) in out[start + off..start + blk_len].iter_mut().enumerate() {
                    *o = decode_one(words, b, blk.min, off + k);
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_simd::Portable;

    fn forced_fit(n: usize, width: u8, seed: u64) -> Vec<u32> {
        let mut rng = rsv_data::rng(seed);
        let mask = width_mask(u32::from(width));
        let base = if width == 32 {
            0
        } else {
            rng.next_u32() & !mask
        };
        (0..n).map(|_| base + (rng.next_u32() & mask)).collect()
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn scalar_roundtrip_every_width() {
        for width in 1..=32u8 {
            for n in [
                0usize,
                1,
                15,
                17,
                BLOCK_LEN,
                BLOCK_LEN + 37,
                2 * BLOCK_LEN + 3,
            ] {
                let vals = forced_fit(n, width, 0xC0 + u64::from(width));
                let col = pack_scalar(&vals, Some(width));
                assert_eq!(unpack_scalar(&col), vals, "width {width} n {n}");
                if n > 0 {
                    assert!(col.blocks.iter().all(|b| b.width == width));
                }
            }
        }
    }

    #[test]
    fn natural_width_is_minimal() {
        let vals: Vec<u32> = (0..BLOCK_LEN as u32).map(|i| 1000 + i % 300).collect();
        let col = pack_scalar(&vals, None);
        assert_eq!(col.blocks.len(), 1);
        assert_eq!(col.blocks[0].min, 1000);
        assert_eq!(col.blocks[0].width, bits_for(299));
        assert_eq!(unpack_scalar(&col), vals);
    }

    #[test]
    #[cfg_attr(miri, ignore = "heavy sweep; miri runs the small smoke tests")]
    fn vector_pack_matches_scalar_bytes() {
        let widths = [1u8, 2, 3, 5, 7, 8, 11, 16, 17, 23, 31, 32];
        for &width in &widths {
            for n in [1usize, 16, 511, 512, 513, 1200] {
                let vals = forced_fit(n, width, 0xBEEF + u64::from(width));
                let reference = pack_scalar(&vals, Some(width));
                let s8 = Portable::<8>::new();
                let s16 = Portable::<16>::new();
                assert_eq!(
                    pack_vector(s8, &vals, Some(width)),
                    reference,
                    "8-lane width {width} n {n}"
                );
                assert_eq!(
                    pack_vector(s16, &vals, Some(width)),
                    reference,
                    "16-lane width {width} n {n}"
                );
                assert_eq!(unpack_vector(s8, &reference), vals);
                assert_eq!(unpack_vector(s16, &reference), vals);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn forced_width_too_narrow_panics() {
        let _ = pack_scalar(&[0, 1 << 20], Some(4));
    }

    #[test]
    fn empty_column() {
        let col = pack_scalar(&[], None);
        assert_eq!(col.len, 0);
        assert!(col.words.is_empty());
        assert!(col.blocks.is_empty());
        assert!(unpack_scalar(&col).is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match_scalar() {
        let vals = forced_fit(3 * BLOCK_LEN + 91, 13, 99);
        let reference = pack_scalar(&vals, None);
        if let Some(s) = rsv_simd::Avx512::new() {
            assert_eq!(pack_vector(s, &vals, None), reference);
            assert_eq!(unpack_vector(s, &reference), vals);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            assert_eq!(pack_vector(s, &vals, None), reference);
            assert_eq!(unpack_vector(s, &reference), vals);
        }
    }
}
