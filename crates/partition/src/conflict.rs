//! Conflict serialization (paper §7.3, Algorithm 13).
//!
//! When a vector of tuples is scattered through a shared offset array,
//! lanes that map to the same partition would write to the same location.
//! *Conflict serialization* assigns each lane an extra offset equal to the
//! number of earlier lanes with the same partition, so that
//!
//! * every lane writes a distinct location,
//! * tuples of one partition keep their input order (stable), and
//! * a single rightmost-wins scatter of `offset + serial + 1` advances the
//!   shared offset correctly.
//!
//! Two implementations:
//! * [`serialize_conflicts_scatter`] — the paper's Algorithm 13
//!   (reverse-permute, then iterated scatter/gather of lane ids),
//! * [`serialize_conflicts_native`] — the `vpconflictd` approach the paper
//!   describes for "future" ISAs (AVX-512CD here), a popcount of each
//!   lane's conflict bitmask.

use rsv_simd::{MaskLike, Simd};

/// Algorithm 13: serialization offsets via iterated scatter/gather of lane
/// ids. `scratch` must have at least `fanout` entries; its contents are
/// clobbered.
///
/// Returns, per lane, the number of earlier lanes with the same value in
/// `h`.
#[inline(always)]
pub fn serialize_conflicts_scatter<S: Simd>(s: S, h: S::V, scratch: &mut [u32]) -> S::V {
    let w = S::LANES as u32;
    // Reverse so the scatter's rightmost-wins rule resolves toward the
    // *first* (in input order) lane each round, keeping stability.
    let rev = s.sub(s.splat(w - 1), s.iota());
    let hr = s.permute(h, rev);
    let ids = rev; // any vector with unique lane values; reuse the reversal
    let mut c = s.zero();
    let mut m = S::M::all();
    loop {
        s.scatter_masked(scratch, m, hr, ids);
        let back = s.gather_masked(ids, m, scratch, hr);
        m = m.and(s.cmpne(ids, back));
        if m.is_empty() {
            break;
        }
        c = s.blend(m, s.add(c, s.splat(1)), c);
    }
    s.permute(c, rev)
}

/// Serialization offsets via the conflict-detection instruction
/// (`vpconflictd` on AVX-512CD; emulated on other backends): popcount of
/// the earlier-equal-lanes bitmask.
#[inline(always)]
pub fn serialize_conflicts_native<S: Simd>(s: S, h: S::V) -> S::V {
    s.popcount_lanes(s.conflict(h))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_simd::Portable;

    fn reference(h: &[u32]) -> Vec<u32> {
        h.iter()
            .enumerate()
            .map(|(i, &x)| h[..i].iter().filter(|&&y| y == x).count() as u32)
            .collect()
    }

    fn check<S: Simd>(s: S, lanes: &[u32]) {
        let h = s.load(lanes);
        let expected = reference(&lanes[..S::LANES]);

        let native = serialize_conflicts_native(s, h);
        let mut out = vec![0u32; S::LANES];
        s.store(native, &mut out);
        assert_eq!(out, expected, "native, lanes {lanes:?}");

        let mut scratch = vec![0u32; 1 + *lanes.iter().max().unwrap() as usize];
        let scat = serialize_conflicts_scatter(s, h, &mut scratch);
        s.store(scat, &mut out);
        assert_eq!(out, expected, "scatter, lanes {lanes:?}");
    }

    #[test]
    fn no_conflicts() {
        check(Portable::<8>::new(), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn all_same() {
        check(Portable::<8>::new(), &[3; 8]);
        check(Portable::<16>::new(), &[9; 16]);
    }

    #[test]
    fn mixed_groups() {
        check(Portable::<8>::new(), &[5, 2, 5, 5, 2, 0, 5, 2]);
        check(
            Portable::<16>::new(),
            &[1, 1, 2, 3, 2, 1, 4, 4, 4, 4, 0, 1, 2, 3, 4, 0],
        );
    }

    #[test]
    fn exhaustive_small() {
        // all 4^4 combinations in the first 4 lanes of an 8-wide vector
        let s = Portable::<8>::new();
        for a in 0..4u32 {
            for b in 0..4u32 {
                for c in 0..4u32 {
                    for d in 0..4u32 {
                        check(s, &[a, b, c, d, a ^ 1, b ^ 2, c ^ 3, d]);
                    }
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        if let Some(s) = rsv_simd::Avx512::new() {
            check(s, &[1, 1, 2, 3, 2, 1, 4, 4, 4, 4, 0, 1, 2, 3, 4, 0]);
            check(s, &[7; 16]);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            check(s, &[5, 2, 5, 5, 2, 0, 5, 2]);
        }
    }
}
