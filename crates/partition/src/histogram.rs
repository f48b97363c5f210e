//! Histogram generation (paper §7.1) and prefix sums.
//!
//! Before any data moves, partitioning needs a histogram of partition
//! sizes. The scalar loop is one increment per key; the vectorized
//! versions must handle *lane conflicts* (several lanes incrementing the
//! same count). The paper's three answers, all implemented here:
//!
//! * [`histogram_vector_replicated`] — replicate the histogram `W` times
//!   so lane `j` increments `H[p·W + j]`: no conflicts by construction,
//! * [`histogram_vector_serialized`] — one histogram plus conflict
//!   serialization per vector,
//! * [`histogram_vector_compressed`] — replicated **8-bit** counts (fitting
//!   4× more fanout in cache), flushed to 32-bit totals on overflow.

use rsv_metrics::Metric;
use rsv_simd::{KernelKind, MaskLike, Simd};

use crate::conflict::serialize_conflicts_native;
use crate::PartitionFn;

/// The partition passes' histogram: [`histogram_scalar`] or
/// [`histogram_vector_replicated`].
pub fn histogram<S: Simd, F: PartitionFn>(kind: KernelKind<S>, f: F, keys: &[u32]) -> Vec<u32> {
    match kind {
        KernelKind::Scalar => histogram_scalar(f, keys),
        KernelKind::Vector(s) => histogram_vector_replicated(s, f, keys),
    }
}

/// Scalar histogram: one increment per key.
pub fn histogram_scalar<F: PartitionFn>(f: F, keys: &[u32]) -> Vec<u32> {
    rsv_metrics::count(Metric::PartHistTuples, keys.len() as u64);
    let mut hist = vec![0u32; f.fanout()];
    for &k in keys {
        hist[f.partition(k)] += 1;
    }
    hist
}

/// Vectorized histogram with `W`-way count replication (Algorithm 11).
pub fn histogram_vector_replicated<S: Simd, F: PartitionFn>(s: S, f: F, keys: &[u32]) -> Vec<u32> {
    rsv_metrics::count(Metric::PartHistTuples, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let p = f.fanout();
            let mut partial = vec![0u32; p * w];
            let lane = s.iota();
            let wv = s.splat(w as u32);
            let one = s.splat(1);
            let mut i = 0usize;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let h = f.partition_vector(s, k);
                // lane j increments partial[p*W + j]
                let idx = s.add(s.mullo(h, wv), lane);
                let c = s.gather(&partial, idx);
                s.scatter(&mut partial, idx, s.add(c, one));
                i += w;
            }
            let mut hist = reduce_replicated(s, &partial, p);
            for &k in &keys[i..] {
                hist[f.partition(k)] += 1;
            }
            hist
        },
    )
}

/// Sum each partition's `W` replicated counts into one (Algorithm 11's
/// final loop).
fn reduce_replicated<S: Simd>(s: S, partial: &[u32], p: usize) -> Vec<u32> {
    let w = S::LANES;
    let mut hist = vec![0u32; p];
    for (part, h) in hist.iter_mut().enumerate() {
        *h = s.reduce_add_u64(s.load(&partial[part * w..])) as u32;
    }
    hist
}

/// Vectorized histogram over a single (non-replicated) count array, using
/// conflict serialization per input vector.
pub fn histogram_vector_serialized<S: Simd, F: PartitionFn>(s: S, f: F, keys: &[u32]) -> Vec<u32> {
    rsv_metrics::count(Metric::PartHistTuples, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let metered = rsv_metrics::enabled();
            let mut conflicts = 0u64;
            let mut hist = vec![0u32; f.fanout()];
            let one = s.splat(1);
            let mut i = 0usize;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let h = f.partition_vector(s, k);
                let c = s.gather(&hist, h);
                let ser = serialize_conflicts_native(s, h);
                if metered {
                    // lanes with a nonzero serial offset had to wait behind
                    // an earlier lane of the same partition
                    conflicts += s.cmpeq(ser, s.zero()).not().count() as u64;
                }
                // rightmost lane of each conflict group carries the largest
                // serial offset, so its write is the correct new count
                s.scatter(&mut hist, h, s.add(c, s.add(ser, one)));
                i += w;
            }
            rsv_metrics::count(Metric::PartConflictsSerialized, conflicts);
            for &k in &keys[i..] {
                hist[f.partition(k)] += 1;
            }
            hist
        },
    )
}

/// Vectorized histogram with replicated **8-bit** counts (paper: "if the
/// histograms do not fit in the fastest cache, we use 1-byte counts and
/// flush on overflow").
///
/// Each lane owns a private, 4-byte-padded region of byte counts, so the
/// emulated byte scatters never collide within a word.
pub fn histogram_vector_compressed<S: Simd, F: PartitionFn>(s: S, f: F, keys: &[u32]) -> Vec<u32> {
    rsv_metrics::count(Metric::PartHistTuples, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let p = f.fanout();
            let p_pad = p.next_multiple_of(4);
            let mut bytes = vec![0u8; p_pad * w];
            let mut overflow = vec![u64::from(0u32); p];
            let region = {
                // lane j's region starts at j * p_pad
                let mut starts = vec![0u32; w.max(S::LANES)];
                for (j, st) in starts.iter_mut().enumerate() {
                    *st = (j * p_pad) as u32;
                }
                s.load(&starts)
            };
            let max = s.splat(255);
            let one = s.splat(1);
            let mut i = 0usize;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let h = f.partition_vector(s, k);
                let idx = s.add(h, region);
                let c = s.gather_bytes(&bytes, idx);
                let full = s.cmpeq(c, max);
                // wrap full counters to zero, crediting 256 to the overflow
                // totals with scalar code (rare)
                s.scatter_bytes(&mut bytes, idx, s.blend(full, s.zero(), s.add(c, one)));
                if full.any() {
                    let mut ha = [0u32; 32];
                    s.store(h, &mut ha[..w]);
                    for lane in full.iter_set() {
                        overflow[ha[lane] as usize] += 256;
                    }
                }
                i += w;
            }
            let mut hist = vec![0u32; p];
            for part in 0..p {
                let mut total = overflow[part];
                for j in 0..w {
                    total += u64::from(bytes[j * p_pad + part]);
                }
                hist[part] = total as u32;
            }
            for &k in &keys[i..] {
                hist[f.partition(k)] += 1;
            }
            hist
        },
    )
}

/// Exclusive prefix sum: `out[p]` = first output offset of partition `p`
/// (starting at `base`). Returns the offsets and the total count.
pub fn prefix_sum(hist: &[u32], base: u32) -> (Vec<u32>, usize) {
    let mut offsets = Vec::with_capacity(hist.len());
    let mut acc = base;
    for &h in hist {
        offsets.push(acc);
        acc += h;
    }
    (offsets, (acc - base) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HashFn, RadixFn};
    use rsv_simd::Portable;

    fn keys(n: usize) -> Vec<u32> {
        let mut rng = rsv_data::rng(71);
        rsv_data::uniform_u32(n, &mut rng)
    }

    #[test]
    fn vector_histograms_match_scalar_radix() {
        let s = Portable::<16>::new();
        for bits in [1u32, 4, 8] {
            let f = RadixFn::new(4, bits);
            let ks = keys(5000 + 3);
            let expected = histogram_scalar(f, &ks);
            assert_eq!(
                histogram_vector_replicated(s, f, &ks),
                expected,
                "repl bits={bits}"
            );
            assert_eq!(
                histogram_vector_serialized(s, f, &ks),
                expected,
                "ser bits={bits}"
            );
            assert_eq!(
                histogram_vector_compressed(s, f, &ks),
                expected,
                "comp bits={bits}"
            );
        }
    }

    #[test]
    fn vector_histograms_match_scalar_hash() {
        let s = Portable::<8>::new();
        for fanout in [3usize, 64, 500] {
            let f = HashFn::new(fanout);
            let ks = keys(3001);
            let expected = histogram_scalar(f, &ks);
            assert_eq!(histogram_vector_replicated(s, f, &ks), expected);
            assert_eq!(histogram_vector_serialized(s, f, &ks), expected);
            assert_eq!(histogram_vector_compressed(s, f, &ks), expected);
        }
    }

    #[test]
    fn compressed_handles_overflowing_counts() {
        // one partition receives far more than 255 keys
        let s = Portable::<16>::new();
        let f = RadixFn::new(0, 2);
        let ks = vec![0u32; 10_000]; // all partition 0
        let expected = histogram_scalar(f, &ks);
        assert_eq!(expected[0], 10_000);
        assert_eq!(histogram_vector_compressed(s, f, &ks), expected);
        assert_eq!(histogram_vector_replicated(s, f, &ks), expected);
        assert_eq!(histogram_vector_serialized(s, f, &ks), expected);
    }

    #[test]
    fn histogram_counts_sum_to_input_length() {
        let s = Portable::<16>::new();
        let f = HashFn::new(101);
        let ks = keys(12345);
        let h = histogram_vector_replicated(s, f, &ks);
        assert_eq!(h.iter().map(|&c| c as usize).sum::<usize>(), ks.len());
    }

    #[test]
    fn prefix_sum_offsets() {
        let (off, total) = prefix_sum(&[3, 0, 5, 1], 10);
        assert_eq!(off, vec![10, 13, 13, 18]);
        assert_eq!(total, 9);
        let (off, total) = prefix_sum(&[], 0);
        assert!(off.is_empty());
        assert_eq!(total, 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let ks = keys(10_000);
        let f = RadixFn::new(3, 7);
        let expected = histogram_scalar(f, &ks);
        if let Some(s) = rsv_simd::Avx512::new() {
            assert_eq!(histogram_vector_replicated(s, f, &ks), expected);
            assert_eq!(histogram_vector_serialized(s, f, &ks), expected);
            assert_eq!(histogram_vector_compressed(s, f, &ks), expected);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            assert_eq!(histogram_vector_replicated(s, f, &ks), expected);
            assert_eq!(histogram_vector_serialized(s, f, &ks), expected);
            assert_eq!(histogram_vector_compressed(s, f, &ks), expected);
        }
    }
}
