//! Partitioning (paper Section 7): partition functions, histogram
//! generation, conflict serialization, and (buffered) data shuffling.
//!
//! Partitioning splits a large input into cache-conscious, non-overlapping
//! sub-problems and underlies radixsort (Section 8), the partitioned hash
//! join (Section 9) and the partitioned group-by; the last two share
//! [`tasks::partition_then_tasks`]. The paper vectorizes all three
//! partition-function types:
//!
//! * **radix** — a bit-range of the key ([`RadixFn`]),
//! * **hash** — multiplicative hashing ([`HashFn`]),
//! * **range** — binary search over sorted splitters ([`RangeFn`], §7.2,
//!   Algorithm 12) and the horizontal SIMD tree index of \[26\]
//!   ([`range::RangeIndex`]),
//!
//! and both phases:
//!
//! * **histograms** (§7.1): count replication across lanes, conflict
//!   serialization, and compressed 8-bit counts,
//! * **shuffling** (§7.3–7.4): unbuffered (Algorithm 14) and buffered
//!   (Algorithm 15) with cache-line staging buffers flushed by streaming
//!   stores; stable (radix) and unstable (hash) variants.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Engine code surfaces typed errors, not panics (DESIGN.md §5e).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod conflict;
pub mod diff;
pub mod histogram;
pub mod multicol;
pub mod parallel;
pub mod range;
pub mod shuffle;
pub mod tasks;
pub mod twopass;

use rsv_simd::Simd;

/// A partition function mapping 32-bit keys to `fanout()` partitions, with
/// a scalar and a vector form (the vector form is what the paper's
/// histogram and shuffle kernels call per input vector).
pub trait PartitionFn: Copy {
    /// Number of partitions.
    fn fanout(&self) -> usize;
    /// Partition of one key.
    fn partition(&self, key: u32) -> usize;
    /// Partitions of a vector of keys.
    fn partition_vector<S: Simd>(&self, s: S, keys: S::V) -> S::V;
}

/// The bits in which `keys` differ: `OR_i (k_i ^ k_0)`, 0 for no keys, one
/// key or all keys equal. Every key agrees with `k_0` above the highest
/// set bit, so a radix digit with no bit set here is the same for every
/// key (radixsort skips its pass), and a radix function on the top
/// varying bits splits the keys into ascending key ranges (the
/// partitioned group-by's parts).
pub fn varying_bits(keys: &[u32]) -> u32 {
    varying_bits_where(keys, |_| true)
}

/// [`varying_bits`] over the keys that `keep` accepts; the others are
/// skipped, so they neither set a bit nor serve as `k_0`.
pub fn varying_bits_where(keys: &[u32], keep: impl Fn(u32) -> bool) -> u32 {
    let Some(&first) = keys.iter().find(|&&k| keep(k)) else {
        return 0;
    };
    keys.iter()
        .fold(0, |d, &k| if keep(k) { d | (k ^ first) } else { d })
}

/// Radix partitioning: the bit field `key[shift .. shift+bits)`.
///
/// The paper computes it as `(k << bl) >> br` (Algorithm 11); this is the
/// same two-shift form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixFn {
    shift_left: u32,
    shift_right: u32,
}

impl RadixFn {
    /// Select `bits` bits starting at bit `shift` (LSB order).
    ///
    /// # Panics
    /// If the bit range does not fit in 32 bits or `bits == 0`.
    pub fn new(shift: u32, bits: u32) -> Self {
        assert!(bits >= 1 && shift + bits <= 32, "invalid radix bit range");
        RadixFn {
            shift_left: 32 - shift - bits,
            shift_right: 32 - bits,
        }
    }

    /// Number of radix bits.
    pub fn bits(&self) -> u32 {
        32 - self.shift_right
    }
}

impl PartitionFn for RadixFn {
    #[inline(always)]
    fn fanout(&self) -> usize {
        1usize << (32 - self.shift_right)
    }

    #[inline(always)]
    fn partition(&self, key: u32) -> usize {
        ((key << self.shift_left) >> self.shift_right) as usize
    }

    #[inline(always)]
    fn partition_vector<S: Simd>(&self, s: S, keys: S::V) -> S::V {
        s.shr(s.shl(keys, self.shift_left), self.shift_right)
    }
}

/// Hash partitioning: `mulhi(k · factor, fanout)` (paper §7.1 — "by using
/// multiplicative hashing, hash partitioning becomes equally fast to
/// radix").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFn {
    factor: u32,
    fanout: usize,
}

impl HashFn {
    /// Hash partitioning into `fanout` partitions.
    pub fn new(fanout: usize) -> Self {
        Self::with_factor(fanout, 0x9E37_79B1)
    }

    /// As [`HashFn::new`] with a chosen multiplier (forced odd).
    pub fn with_factor(fanout: usize, factor: u32) -> Self {
        assert!(fanout >= 1 && fanout <= u32::MAX as usize);
        HashFn {
            factor: factor | 1,
            fanout,
        }
    }
}

impl PartitionFn for HashFn {
    #[inline(always)]
    fn fanout(&self) -> usize {
        self.fanout
    }

    #[inline(always)]
    fn partition(&self, key: u32) -> usize {
        ((u64::from(key.wrapping_mul(self.factor)) * self.fanout as u64) >> 32) as usize
    }

    #[inline(always)]
    fn partition_vector<S: Simd>(&self, s: S, keys: S::V) -> S::V {
        s.mulhi(
            s.mullo(keys, s.splat(self.factor)),
            s.splat(self.fanout as u32),
        )
    }
}

/// Range partitioning: partition `p` receives keys `k` with
/// `splitters[p-1] < k ≤ splitters[p]` boundaries, i.e.
/// `p = |{i : splitters[i] < k}|`, computed with vectorized binary search
/// (paper §7.2, Algorithm 12).
///
/// The splitter array is padded to a power-of-two length internally; build
/// it once with [`range::RangePartitioner`] and borrow [`RangeFn`]s from it.
#[derive(Debug, Clone, Copy)]
pub struct RangeFn<'a> {
    /// Sorted splitters padded to `fanout - 1` entries with `u32::MAX`,
    /// where `fanout` is a power of two.
    padded: &'a [u32],
    /// The real (pre-padding) fanout.
    fanout: usize,
}

impl<'a> RangeFn<'a> {
    pub(crate) fn from_padded(padded: &'a [u32], fanout: usize) -> Self {
        debug_assert!((padded.len() + 1).is_power_of_two());
        RangeFn { padded, fanout }
    }

    /// Number of binary-search levels (`log2(padded fanout)`).
    #[inline(always)]
    pub fn levels(&self) -> u32 {
        (self.padded.len() + 1).trailing_zeros()
    }
}

impl PartitionFn for RangeFn<'_> {
    #[inline(always)]
    fn fanout(&self) -> usize {
        self.fanout
    }

    #[inline(always)]
    fn partition(&self, key: u32) -> usize {
        // branchless scalar binary search over the padded array
        let mut lo = 0usize;
        let mut hi = self.padded.len() + 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let d = self.padded[mid - 1];
            if key > d {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    #[inline(always)]
    fn partition_vector<S: Simd>(&self, s: S, keys: S::V) -> S::V {
        // Algorithm 12: blend low/high cursors, gather splitters per lane.
        let mut lo = s.zero();
        let mut hi = s.splat(self.padded.len() as u32 + 1);
        for _ in 0..self.levels() {
            let mid = s.shr(s.add(lo, hi), 1);
            let d = s.gather(self.padded, s.sub(mid, s.splat(1)));
            let m = s.cmpgt(keys, d);
            lo = s.blend(m, mid, lo);
            hi = s.blend(m, hi, mid);
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_simd::Portable;

    #[test]
    fn radix_selects_bit_field() {
        let f = RadixFn::new(8, 4);
        assert_eq!(f.fanout(), 16);
        assert_eq!(f.partition(0x0000_0A00), 0xA);
        assert_eq!(f.partition(0xFFFF_F0FF), 0x0);
        let s = Portable::<8>::new();
        let keys = s.load(&[0x100, 0x200, 0xF00, 0x1F00, 0, 0xFFFF_FFFF, 0x7FF, 0x800]);
        let p = f.partition_vector(s, keys);
        let mut out = [0u32; 8];
        s.store(p, &mut out);
        assert_eq!(out, [1, 2, 15, 15, 0, 15, 7, 8]);
    }

    #[test]
    fn varying_bits_skips_rejected_keys() {
        assert_eq!(varying_bits(&[]), 0);
        assert_eq!(varying_bits(&[9, 9]), 0);
        assert_eq!(varying_bits(&[0b100, 0b110, 0b101]), 0b011);
        let keys = [u32::MAX, 0x10, 0x13, u32::MAX];
        assert_eq!(varying_bits(&keys), !0x10);
        assert_eq!(varying_bits_where(&keys, |k| k != u32::MAX), 0b11);
        assert_eq!(varying_bits_where(&[u32::MAX; 3], |k| k != u32::MAX), 0);
    }

    #[test]
    fn radix_full_width() {
        let f = RadixFn::new(0, 32);
        assert_eq!(f.partition(u32::MAX), u32::MAX as usize);
        let f = RadixFn::new(31, 1);
        assert_eq!(f.partition(0x8000_0000), 1);
        assert_eq!(f.partition(0x7FFF_FFFF), 0);
    }

    #[test]
    fn hash_stays_in_fanout_and_matches_vector() {
        let s = Portable::<16>::new();
        for fanout in [1usize, 7, 64, 1000] {
            let f = HashFn::new(fanout);
            let keys: Vec<u32> = (0..160u32).map(|i| i.wrapping_mul(2654435761)).collect();
            for chunk in keys.chunks(16) {
                let kv = s.load(chunk);
                let pv = f.partition_vector(s, kv);
                let mut out = [0u32; 16];
                s.store(pv, &mut out);
                for (lane, &k) in chunk.iter().enumerate() {
                    let p = f.partition(k);
                    assert!(p < fanout);
                    assert_eq!(out[lane] as usize, p, "fanout={fanout} key={k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid radix bit range")]
    fn radix_range_checked() {
        let _ = RadixFn::new(30, 4);
    }
}
