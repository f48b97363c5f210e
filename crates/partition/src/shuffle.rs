//! Data shuffling (paper §7.3–§7.4): move tuples to their partitions.
//!
//! Four implementations, scalar × vector and unbuffered × buffered:
//!
//! * unbuffered — write each tuple directly to its partition's next output
//!   slot (fast in cache, but TLB thrashing / cache conflicts / load-on-
//!   store traffic out of cache),
//! * **buffered** — stage each partition's tuples in a cache-resident,
//!   cache-line-sized buffer and flush whole lines with streaming stores
//!   (paper §7.4, Algorithm 15).
//!
//! The buffered scheme writes each partition's *first* output line aligned
//! downward, which transiently clobbers the tail of the preceding
//! partition; the cleanup pass (which writes every partition's final
//! partial line directly) repairs it — exactly the paper's "fix the first
//! cache line of each partition" note.
//!
//! The buffered kernels stage either of Figure 14's tuple widths (the
//! `Staged` trait): a bare `u32` key, or a key + payload pair packed into a
//! `u64`. The width is a type parameter, so each compiles to its own loop.
//!
//! The vector variants serialize lane conflicts per Algorithm 13 so the
//! radix shuffle is **stable**; [`shuffle_vector_buffered_unstable`] is the
//! paper's hash-partitioning variant that instead defers conflicting lanes
//! to the next iteration.

use rsv_exec::AlignedVec;
use rsv_metrics::Metric;
use rsv_simd::{KernelKind, MaskLike, Simd};

use crate::conflict::serialize_conflicts_native;
use crate::histogram::{histogram, prefix_sum};
use crate::PartitionFn;

/// Slots per partition in the scalar staging buffer.
pub(crate) const SCALAR_SLOTS: usize = 16;

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// A tuple the buffered shuffles stage per partition: a bare key (`u32`)
/// or a key + payload pair packed into a `u64`, key in the low half. A bare
/// key ignores the payload input and the payload output column `op`.
pub(crate) trait Staged: Copy + Send {
    /// The staged form of tuple `(k, v)`.
    fn pack(k: u32, v: u32) -> Self;
    /// Write this tuple to output slot `q` of the key/payload columns.
    fn write(self, q: usize, ok: &mut [u32], op: &mut [u32]);
    /// Stage the active lanes' tuples at `buf[idx[i]]`.
    fn scatter_masked<S: Simd>(s: S, buf: &mut [Self], m: S::M, idx: S::V, k: S::V, v: S::V);
    /// Stream one full `S::LANES`-tuple line to output slots `at..`.
    fn stream_line<S: Simd>(s: S, line: &[Self], at: usize, ok: &mut [u32], op: &mut [u32]);
}

impl Staged for u32 {
    #[inline(always)]
    fn pack(k: u32, _: u32) -> u32 {
        k
    }

    #[inline(always)]
    fn write(self, q: usize, ok: &mut [u32], _: &mut [u32]) {
        ok[q] = self;
    }

    #[inline(always)]
    fn scatter_masked<S: Simd>(s: S, buf: &mut [u32], m: S::M, idx: S::V, k: S::V, _: S::V) {
        s.scatter_masked(buf, m, idx, k);
    }

    #[inline(always)]
    fn stream_line<S: Simd>(s: S, line: &[u32], at: usize, ok: &mut [u32], _: &mut [u32]) {
        s.store_stream(s.load(line), &mut ok[at..]);
    }
}

impl Staged for u64 {
    #[inline(always)]
    fn pack(k: u32, v: u32) -> u64 {
        u64::from(k) | (u64::from(v) << 32)
    }

    #[inline(always)]
    fn write(self, q: usize, ok: &mut [u32], op: &mut [u32]) {
        ok[q] = self as u32;
        op[q] = (self >> 32) as u32;
    }

    #[inline(always)]
    fn scatter_masked<S: Simd>(s: S, buf: &mut [u64], m: S::M, idx: S::V, k: S::V, v: S::V) {
        s.scatter_pairs_masked(buf, m, idx, k, v);
    }

    #[inline(always)]
    fn stream_line<S: Simd>(s: S, line: &[u64], at: usize, ok: &mut [u32], op: &mut [u32]) {
        let (k, v) = s.load_pairs(line);
        s.store_stream(k, &mut ok[at..]);
        s.store_stream(v, &mut op[at..]);
    }
}

/// Stage tuple `(k, v)` in its partition's `slots`-tuple line of `buf` and
/// write the line out once it fills; returns whether it did.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn stage<F: PartitionFn, T: Staged>(
    f: &F,
    k: u32,
    v: u32,
    slots: usize,
    off: &mut [u32],
    buf: &mut [T],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> bool {
    let p = f.partition(k);
    let o = off[p] as usize;
    let slot = o & (slots - 1);
    buf[p * slots + slot] = T::pack(k, v);
    off[p] = (o + 1) as u32;
    let full = slot == slots - 1;
    if full {
        // a full line: flush it to the (aligned) output region
        let target = o + 1 - slots;
        for (j, &t) in buf[p * slots..(p + 1) * slots].iter().enumerate() {
            t.write(target + j, out_keys, out_pays);
        }
    }
    full
}

fn check_inputs<F: PartitionFn>(f: &F, keys: &[u32], pays: &[u32], hist: &[u32], out: usize) {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert_eq!(hist.len(), f.fanout(), "histogram fanout mismatch");
    let total: usize = hist.iter().map(|&c| c as usize).sum();
    assert_eq!(total, keys.len(), "histogram does not count the input");
    assert!(out >= keys.len(), "output too small");
}

/// Scalar unbuffered shuffling. Returns the partition start offsets.
pub fn shuffle_scalar_unbuffered<F: PartitionFn>(
    f: F,
    keys: &[u32],
    pays: &[u32],
    hist: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> Vec<u32> {
    check_inputs(&f, keys, pays, hist, out_keys.len().min(out_pays.len()));
    rsv_metrics::count(Metric::PartShuffleTuples, keys.len() as u64);
    let (base, _) = prefix_sum(hist, 0);
    let mut off = base.clone();
    for (&k, &v) in keys.iter().zip(pays) {
        let p = f.partition(k);
        let o = off[p] as usize;
        out_keys[o] = k;
        out_pays[o] = v;
        off[p] += 1;
    }
    base
}

/// Scalar buffered shuffling (paper §7.4 citing \[31, 38, 26, 4\]).
pub fn shuffle_scalar_buffered<F: PartitionFn>(
    f: F,
    keys: &[u32],
    pays: &[u32],
    hist: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> Vec<u32> {
    check_inputs(&f, keys, pays, hist, out_keys.len().min(out_pays.len()));
    let p_count = f.fanout();
    let (base, _) = prefix_sum(hist, 0);
    let mut off = base.clone();
    let mut buf: AlignedVec<u64> = AlignedVec::zeroed(p_count * SCALAR_SLOTS);
    shuffle_scalar_buffered_core(f, keys, pays, &mut off, &mut buf, out_keys, out_pays);
    shuffle_buffer_cleanup(SCALAR_SLOTS, &buf, &base, &off, out_keys, out_pays);
    base
}

/// A serial stable partition of `keys`/`pays` into `out_keys`/`out_pays`:
/// the [`histogram`] of `kind`, then its buffered shuffle
/// ([`shuffle_scalar_buffered`] or [`shuffle_vector_buffered`]). Returns
/// the partition starts and the histogram.
pub(crate) fn partition_buffered<S: Simd, F: PartitionFn>(
    kind: KernelKind<S>,
    f: F,
    keys: &[u32],
    pays: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> (Vec<u32>, Vec<u32>) {
    let hist = histogram(kind, f, keys);
    let starts = match kind {
        KernelKind::Scalar => shuffle_scalar_buffered(f, keys, pays, &hist, out_keys, out_pays),
        KernelKind::Vector(s) => {
            shuffle_vector_buffered(s, f, keys, pays, &hist, out_keys, out_pays)
        }
    };
    (starts, hist)
}

/// The main loop of scalar buffered shuffling, without the cleanup pass.
///
/// `off` holds the running output offsets (initialized to the partition
/// start offsets) and `buf` the `SCALAR_SLOTS`-per-partition staging
/// buffer. In multi-threaded partitioning every thread runs this over its
/// input chunk with its own `off`/`buf`, threads synchronize, and then each
/// runs [`shuffle_buffer_cleanup`] (the paper: "the buffer cleanup occurs
/// after synchronizing, to fix the first cache line of each partition").
pub(crate) fn shuffle_scalar_buffered_core<F: PartitionFn, T: Staged>(
    f: F,
    keys: &[u32],
    pays: &[u32],
    off: &mut [u32],
    buf: &mut [T],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) {
    assert_eq!(
        buf.len(),
        f.fanout() * SCALAR_SLOTS,
        "staging buffer size mismatch"
    );
    rsv_metrics::count(Metric::PartShuffleTuples, keys.len() as u64);
    let mut flushes = 0u64;
    for (&k, &v) in keys.iter().zip(pays) {
        flushes += u64::from(stage(&f, k, v, SCALAR_SLOTS, off, buf, out_keys, out_pays));
    }
    rsv_metrics::count(Metric::PartBufferFlushes, flushes);
}

/// Write every partition's final partial line from the staging buffer to
/// its exact output offsets; this also repairs any head-of-partition
/// clobbering caused by downward-aligned first flushes.
///
/// `slots` must match the staging-buffer slot count the core pass used,
/// `base` the partition start offsets, and `off` the final offsets.
pub(crate) fn shuffle_buffer_cleanup<T: Staged>(
    slots: usize,
    buf: &[T],
    base: &[u32],
    off: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) {
    debug_assert!(slots.is_power_of_two());
    let mut flushed = 0u64;
    let mut residual = 0u64;
    for p in 0..base.len() {
        let start = (off[p] as usize & !(slots - 1)).max(base[p] as usize);
        // tuples below `start` reached the output through full-line
        // flushes; the rest are written here from the staging buffer
        flushed += (start - base[p] as usize) as u64;
        residual += (off[p] as usize - start) as u64;
        for q in start..off[p] as usize {
            buf[p * slots + (q & (slots - 1))].write(q, out_keys, out_pays);
        }
    }
    rsv_metrics::count(Metric::PartTuplesFlushed, flushed);
    rsv_metrics::count(Metric::PartTuplesResidual, residual);
}

/// Vectorized unbuffered shuffling (paper Algorithm 14): gather offsets,
/// serialize conflicts, scatter offsets back and scatter the tuples.
/// Stable (input order preserved within each partition).
pub fn shuffle_vector_unbuffered<S: Simd, F: PartitionFn>(
    s: S,
    f: F,
    keys: &[u32],
    pays: &[u32],
    hist: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> Vec<u32> {
    check_inputs(&f, keys, pays, hist, out_keys.len().min(out_pays.len()));
    rsv_metrics::count(Metric::PartShuffleTuples, keys.len() as u64);
    let (base, _) = prefix_sum(hist, 0);
    let mut off = base.clone();
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let metered = rsv_metrics::enabled();
            let mut conflicts = 0u64;
            let one = s.splat(1);
            let mut i = 0usize;
            while i + w <= keys.len() {
                let k = s.load(&keys[i..]);
                let v = s.load(&pays[i..]);
                let h = f.partition_vector(s, k);
                let o = s.gather(&off, h);
                let c = serialize_conflicts_native(s, h);
                if metered {
                    conflicts += s.cmpeq(c, s.zero()).not().count() as u64;
                }
                let pos = s.add(o, c);
                s.scatter(&mut off, h, s.add(pos, one));
                s.scatter(out_keys, pos, k);
                s.scatter(out_pays, pos, v);
                i += w;
            }
            rsv_metrics::count(Metric::PartConflictsSerialized, conflicts);
            for idx in i..keys.len() {
                let p = f.partition(keys[idx]);
                let o = off[p] as usize;
                out_keys[o] = keys[idx];
                out_pays[o] = pays[idx];
                off[p] += 1;
            }
        },
    );
    base
}

/// Vectorized **buffered** shuffling (paper Algorithm 15, Appendix F):
/// tuples are scattered into per-partition cache-line buffers; completed
/// lines are flushed with streaming stores. Stable.
pub fn shuffle_vector_buffered<S: Simd, F: PartitionFn>(
    s: S,
    f: F,
    keys: &[u32],
    pays: &[u32],
    hist: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> Vec<u32> {
    shuffle_vector_buffered_inner(s, f, keys, pays, hist, out_keys, out_pays, true)
}

/// The paper's *unstable* buffered variant for hash partitioning: rather
/// than serializing conflicts, only conflict-free lanes are processed each
/// iteration and conflicting lanes are retried on the next one (§7.4:
/// "performance is slightly increased because very few conflicts normally
/// occur per loop if P > W").
pub fn shuffle_vector_buffered_unstable<S: Simd, F: PartitionFn>(
    s: S,
    f: F,
    keys: &[u32],
    pays: &[u32],
    hist: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> Vec<u32> {
    shuffle_vector_buffered_inner(s, f, keys, pays, hist, out_keys, out_pays, false)
}

#[allow(clippy::too_many_arguments)]
fn shuffle_vector_buffered_inner<S: Simd, F: PartitionFn>(
    s: S,
    f: F,
    keys: &[u32],
    pays: &[u32],
    hist: &[u32],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
    stable: bool,
) -> Vec<u32> {
    check_inputs(&f, keys, pays, hist, out_keys.len().min(out_pays.len()));
    let p_count = f.fanout();
    let (base, _) = prefix_sum(hist, 0);
    let mut off = base.clone();
    let w = S::LANES;
    let mut buf: AlignedVec<u64> = AlignedVec::zeroed(p_count * w);
    shuffle_vector_buffered_core(
        s, f, keys, pays, &mut off, &mut buf, out_keys, out_pays, stable,
    );
    shuffle_buffer_cleanup(w, &buf, &base, &off, out_keys, out_pays);
    base
}

/// The main loop of vectorized buffered shuffling (Algorithm 15), without
/// the cleanup pass — see [`shuffle_scalar_buffered_core`] for the
/// multi-threaded usage pattern. `buf` must hold `fanout · S::LANES`
/// tuples.
#[allow(clippy::too_many_arguments)]
pub(crate) fn shuffle_vector_buffered_core<S: Simd, F: PartitionFn, T: Staged>(
    s: S,
    f: F,
    keys: &[u32],
    pays: &[u32],
    off: &mut [u32],
    buf: &mut [T],
    out_keys: &mut [u32],
    out_pays: &mut [u32],
    stable: bool,
) {
    let w = S::LANES;
    assert_eq!(buf.len(), f.fanout() * w, "staging buffer size mismatch");
    rsv_metrics::count(Metric::PartShuffleTuples, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let metered = rsv_metrics::enabled();
            let mut conflicts = 0u64;
            let mut flushes = 0u64;
            let mut stream_bytes = 0u64;
            let one = s.splat(1);
            let wv = s.splat(w as u32);
            let wm1 = s.splat(w as u32 - 1);
            let mut k = s.zero();
            let mut v = s.zero();
            let mut reload = S::M::all();
            let mut i = 0usize;
            let mut flush_parts = [0u32; MAX_LANES];
            while i + w <= keys.len() {
                if stable {
                    // every lane retired last iteration: plain vector loads
                    k = s.load(&keys[i..]);
                    v = s.load(&pays[i..]);
                    i += w;
                } else {
                    k = s.selective_load(k, reload, &keys[i..]);
                    v = s.selective_load(v, reload, &pays[i..]);
                    i += reload.count();
                }
                let h = f.partition_vector(s, k);
                let active;
                let c;
                if stable {
                    active = S::M::all();
                    c = serialize_conflicts_native(s, h);
                    if metered {
                        conflicts += s.cmpeq(c, s.zero()).not().count() as u64;
                    }
                } else {
                    // process only the first lane of each conflict group;
                    // the rest retry next iteration
                    let conf = serialize_conflicts_native(s, h);
                    active = s.cmpeq(conf, s.zero());
                    c = s.zero();
                    if metered {
                        conflicts += active.not().count() as u64;
                    }
                }
                let o = s.gather_masked(s.zero(), active, off, h);
                let pos = s.add(o, c);
                s.scatter_masked(off, active, h, s.add(pos, one));
                // slot index within the partition buffer; >= W means the
                // lane overflows into the *next* line and must wait for the
                // flush below
                let ob = s.add(s.and(o, wm1), c);
                let slot = s.add(s.mullo(h, wv), ob);
                let store_now = active.and(s.cmplt(ob, wv));
                T::scatter_masked(s, buf, store_now, slot, k, v);
                let trigger = active.and(s.cmpeq(ob, wm1));
                if trigger.any() {
                    let n_flush = s.selective_store(&mut flush_parts[..], trigger, h);
                    flushes += n_flush as u64;
                    stream_bytes += (n_flush * w * std::mem::size_of::<T>()) as u64;
                    for &p in &flush_parts[..n_flush] {
                        let p = p as usize;
                        // the line just completed ends at the last offset
                        // this partition reached, rounded down
                        let target = (off[p] as usize & !(w - 1)) - w;
                        T::stream_line(s, &buf[p * w..], target, out_keys, out_pays);
                    }
                    // lanes that overflowed past the flushed line now store
                    // into the freshly emptied slots
                    let late = active.and(s.cmpge(ob, wv));
                    let slot2 = s.add(s.mullo(h, wv), s.sub(ob, wv));
                    T::scatter_masked(s, buf, late, slot2, k, v);
                }
                reload = if stable { S::M::all() } else { active };
            }
            // Drain lanes still holding deferred tuples (unstable variant),
            // then the input tail, with the scalar buffered scheme.
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            s.store(k, &mut ka[..w]);
            s.store(v, &mut va[..w]);
            let pending: Vec<(u32, u32)> = reload
                .not()
                .iter_set()
                .map(|lane| (ka[lane], va[lane]))
                .chain(keys[i..].iter().copied().zip(pays[i..].iter().copied()))
                .collect();
            for (kk, vv) in pending {
                flushes += u64::from(stage(&f, kk, vv, w, off, buf, out_keys, out_pays));
            }
            rsv_metrics::count(Metric::PartConflictsSerialized, conflicts);
            rsv_metrics::count(Metric::PartBufferFlushes, flushes);
            rsv_metrics::count(Metric::PartStreamingStoreBytes, stream_bytes);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::histogram_scalar;
    use crate::{HashFn, RadixFn};
    use rsv_simd::Portable;

    fn workload(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = rsv_data::rng(seed);
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let pays: Vec<u32> = (0..n as u32).collect();
        (keys, pays)
    }

    /// Verify a shuffle output: partitions contiguous, respecting `f`, and
    /// (optionally) stable; tuples form the same multiset as the input.
    #[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
    fn verify<F: PartitionFn>(
        f: F,
        keys: &[u32],
        pays: &[u32],
        base: &[u32],
        hist: &[u32],
        ok: &[u32],
        op: &[u32],
        stable: bool,
    ) {
        // every output tuple sits inside its own partition's region
        for p in 0..f.fanout() {
            let start = base[p] as usize;
            let end = start + hist[p] as usize;
            for q in start..end {
                assert_eq!(f.partition(ok[q]), p, "tuple at {q} in wrong partition");
            }
            if stable {
                // payloads are original indexes: must ascend within partition
                for wpair in op[start..end].windows(2) {
                    assert!(wpair[0] < wpair[1], "partition {p} not stable");
                }
            }
        }
        let a = rsv_data::multiset_fingerprint(keys.iter().zip(pays));
        let b = rsv_data::multiset_fingerprint(ok.iter().zip(op));
        assert_eq!(a, b, "output is not a permutation of the input");
    }

    fn run_all(n: usize) {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(n, 91);
        for bits in [2u32, 5] {
            let f = RadixFn::new(0, bits);
            let hist = histogram_scalar(f, &keys);
            let mut ok = vec![0u32; n];
            let mut op = vec![0u32; n];

            let base = shuffle_scalar_unbuffered(f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);

            ok.fill(0);
            op.fill(0);
            let base = shuffle_scalar_buffered(f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);

            ok.fill(0);
            op.fill(0);
            let base = shuffle_vector_unbuffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);

            ok.fill(0);
            op.fill(0);
            let base = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);

            ok.fill(0);
            op.fill(0);
            let base =
                shuffle_vector_buffered_unstable(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, false);
        }
    }

    #[test]
    fn shuffles_small() {
        run_all(100);
    }

    #[test]
    fn shuffles_medium() {
        run_all(10_000);
    }

    #[test]
    fn shuffles_awkward_sizes() {
        for n in [0usize, 1, 15, 16, 17, 31, 33, 255] {
            let s = Portable::<16>::new();
            let (keys, pays) = workload(n, 92);
            let f = RadixFn::new(1, 3);
            let hist = histogram_scalar(f, &keys);
            let mut ok = vec![0u32; n];
            let mut op = vec![0u32; n];
            let base = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);
        }
    }

    #[test]
    fn hash_partitioning_shuffles() {
        let s = Portable::<8>::new();
        let (keys, pays) = workload(5000, 93);
        for fanout in [7usize, 32, 700] {
            let f = HashFn::new(fanout);
            let hist = histogram_scalar(f, &keys);
            let mut ok = vec![0u32; keys.len()];
            let mut op = vec![0u32; keys.len()];
            let base = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);

            ok.fill(0);
            op.fill(0);
            let base =
                shuffle_vector_buffered_unstable(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, false);
        }
    }

    #[test]
    fn skewed_input_single_partition() {
        // all keys to one partition: maximal conflicts every iteration
        let s = Portable::<16>::new();
        let keys = vec![0xABCD_0000u32; 333];
        let pays: Vec<u32> = (0..333).collect();
        let f = RadixFn::new(16, 6);
        let hist = histogram_scalar(f, &keys);
        let mut ok = vec![0u32; 333];
        let mut op = vec![0u32; 333];
        let base = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
        verify(f, &keys, &pays, &base, &hist, &ok, &op, true);
        let base = shuffle_vector_unbuffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
        verify(f, &keys, &pays, &base, &hist, &ok, &op, true);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let (keys, pays) = workload(20_000, 94);
        let f = RadixFn::new(0, 6);
        let hist = histogram_scalar(f, &keys);
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut ok = vec![0u32; keys.len()];
            let mut op = vec![0u32; keys.len()];
            let base = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);
            let base = shuffle_vector_unbuffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut ok = vec![0u32; keys.len()];
            let mut op = vec![0u32; keys.len()];
            let base = shuffle_vector_buffered(s, f, &keys, &pays, &hist, &mut ok, &mut op);
            verify(f, &keys, &pays, &base, &hist, &ok, &op, true);
        }
    }
}
