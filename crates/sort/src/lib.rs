//! LSB radixsort (paper Section 8).
//!
//! "Large-scale sorting is synonymous to partitioning": least-significant-
//! bit radixsort is a sequence of *stable* partitioning passes over the
//! radix of each key, and the paper's fastest method for 32-bit keys. Each
//! pass runs histogram generation and buffered shuffling — shared-nothing
//! across morsels claimed from a work-stealing queue (see
//! [`rsv_exec::MorselQueue`]), interleaving the partition outputs through
//! a global prefix sum over all morsels' histograms. Because every pass is
//! stable and keyed by morsel input order, the sorted output is
//! byte-identical for any thread count and morsel size.
//!
//! * [`radixsort_pairs`] — key + one payload column (the Figure 14
//!   workload), scalar or vectorized, any thread count,
//! * [`radixsort_keys`] — key-only sorting,
//! * [`multicol::lsb_radixsort_multicol`] — key + arbitrary payload
//!   columns of mixed widths via destination replay (Figure 18).
//!
//! Both parallel sorts take an [`ExecPolicy`] and return
//! `Result<SchedulerStats, EngineError>`: cancellation is observed at
//! morsel-claim boundaries of every pass, worker panics surface as
//! [`EngineError::WorkerPanicked`], and the ping-pong scratch column is
//! gated by the run's memory budget. On error the columns keep their
//! length and hold the last completed pass's tuple order.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod diff;
pub mod multicol;

use rsv_exec::{
    parallel_scope_try, EngineError, ExecPolicy, MorselQueue, SchedulerStats, SharedBuffer, SlotMap,
};
use rsv_partition::histogram::{histogram_scalar, histogram_vector_replicated};
use rsv_partition::parallel::{interleaved_offsets, partition_pass};
use rsv_partition::shuffle::scalar_slots;
use rsv_partition::{PartitionFn, RadixFn};
use rsv_simd::Simd;

/// Radixsort tuning knobs (threads and morsel size come from the
/// [`ExecPolicy`]).
#[derive(Debug, Clone, Copy)]
pub struct SortConfig {
    /// Radix bits per pass (the paper's optimal fanout is 5–8 bits).
    pub radix_bits: u32,
}

impl Default for SortConfig {
    fn default() -> Self {
        SortConfig { radix_bits: 8 }
    }
}

impl SortConfig {
    fn passes(&self) -> u32 {
        assert!(
            self.radix_bits >= 1 && self.radix_bits <= 16,
            "radix bits must be in 1..=16"
        );
        32u32.div_ceil(self.radix_bits)
    }

    fn pass_fn(&self, pass: u32) -> RadixFn {
        let shift = pass * self.radix_bits;
        RadixFn::new(shift, self.radix_bits.min(32 - shift))
    }
}

/// Parallel LSB radixsort of `(key, payload)` pairs (stable); the
/// scalar kernels run when `vectorized` is false.
pub fn radixsort_pairs<S: Simd>(
    s: S,
    vectorized: bool,
    keys: &mut Vec<u32>,
    pays: &mut Vec<u32>,
    cfg: &SortConfig,
    policy: &ExecPolicy,
) -> Result<SchedulerStats, EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    let n = keys.len();
    let scratch_bytes = 2 * (n as u64) * std::mem::size_of::<u32>() as u64;
    let _scratch = policy.run.reserve(scratch_bytes)?;
    let mut stats = SchedulerStats::default();
    let mut dst_k = vec![0u32; n];
    let mut dst_p = vec![0u32; n];
    for pass in 0..cfg.passes() {
        let f = cfg.pass_fn(pass);
        rsv_metrics::count(rsv_metrics::Metric::SortPasses, 1);
        rsv_metrics::count(rsv_metrics::Metric::SortBytesMoved, 8 * n as u64);
        let (_, pass_stats) =
            partition_pass(s, vectorized, f, keys, pays, &mut dst_k, &mut dst_p, policy)?;
        stats.merge(&pass_stats);
        std::mem::swap(keys, &mut dst_k);
        std::mem::swap(pays, &mut dst_p);
    }
    Ok(stats)
}

/// One parallel stable partitioning pass of a key column only, morselized
/// exactly like [`rsv_partition::parallel::partition_pass`]: per-
/// morsel histograms and staging buffers keyed by morsel id, interleaved
/// offsets in morsel (= input) order, and a barrier before the per-morsel
/// cleanup tasks.
fn pass_keys<S: Simd>(
    s: S,
    vectorized: bool,
    f: RadixFn,
    src_k: &[u32],
    dst_k: &mut Vec<u32>,
    policy: &ExecPolicy,
) -> Result<SchedulerStats, EngineError> {
    let n = src_k.len();
    let t = policy.threads;

    let hist_q = MorselQueue::new(n, policy, S::LANES);
    let m = hist_q.morsel_count();
    let hist_slots: SlotMap<Vec<u32>> = SlotMap::new(m);
    let (_, mut stats) = parallel_scope_try(t, |ctx| {
        for mo in ctx.morsels(&hist_q) {
            let h = ctx.phase("histogram", || {
                let ks = &src_k[mo.range.clone()];
                if vectorized {
                    histogram_vector_replicated(s, f, ks)
                } else {
                    histogram_scalar(f, ks)
                }
            });
            // SAFETY: each morsel id is claimed exactly once.
            unsafe { hist_slots.put(mo.id, h) };
        }
    })?;
    // A cancelled pass may have left histogram slots unfilled.
    policy.run.check_cancelled()?;
    let mut hists: Vec<Vec<u32>> = hist_slots
        .into_values()
        .into_iter()
        .map(|h| h.expect("every morsel histogrammed"))
        .collect();
    if hists.is_empty() {
        // empty input: zero morsels, but the offsets below need one region
        hists.push(vec![0u32; f.fanout()]);
    }
    let bases = interleaved_offsets(&hists);

    let shuffle_q = MorselQueue::new(n, policy, S::LANES);
    let cleanup_q = MorselQueue::tasks(m, policy);
    let staged: SlotMap<(Vec<u32>, Vec<u32>)> = SlotMap::new(m);
    let slots = if vectorized { S::LANES } else { scalar_slots() };
    let out_k = SharedBuffer::from_vec(std::mem::take(dst_k));
    let shuffle_scope = parallel_scope_try(t, |ctx| {
        // SAFETY: morsels write disjoint regions from the interleaved
        // prefix sums; transiently clobbered first lines are repaired by
        // their owning morsels' cleanup after the barrier (see the safety
        // note on `partition_pass`).
        let ok = unsafe { out_k.view_mut() };
        for mo in ctx.morsels(&shuffle_q) {
            ctx.phase("shuffle", || {
                let mut off = bases[mo.id].clone();
                let mut buf = vec![0u32; f.fanout() * slots];
                keys_buffered_core(
                    s,
                    vectorized,
                    f,
                    &src_k[mo.range.clone()],
                    &mut off,
                    &mut buf,
                    ok,
                );
                // SAFETY: one writer per morsel id, read after the barrier.
                unsafe { staged.put(mo.id, (buf, off)) };
            });
        }
        ctx.barrier();
        for task in ctx.morsels(&cleanup_q) {
            ctx.phase("cleanup", || {
                // SAFETY: all writers crossed the barrier above.
                let (buf, off) = unsafe { staged.get(task.id) };
                keys_buffer_cleanup(slots, buf, &bases[task.id], off, ok);
            });
        }
    });
    *dst_k = out_k.into_vec();
    stats.merge(&shuffle_scope?.1);
    policy.run.check_cancelled()?;
    Ok(stats)
}

#[allow(clippy::too_many_arguments)]
fn keys_buffered_core<S: Simd>(
    s: S,
    vectorized: bool,
    f: RadixFn,
    keys: &[u32],
    off: &mut [u32],
    buf: &mut [u32],
    out: &mut [u32],
) {
    let w = S::LANES;
    let slots = if vectorized { w } else { scalar_slots() };
    assert_eq!(
        buf.len(),
        f.fanout() * slots,
        "staging buffer size mismatch"
    );
    if vectorized {
        s.vectorize(
            #[inline(always)]
            || {
                use rsv_partition::conflict::serialize_conflicts_native;
                use rsv_simd::MaskLike;
                let one = s.splat(1);
                let wv = s.splat(w as u32);
                let wm1 = s.splat(w as u32 - 1);
                let mut flush_parts = [0u32; 32];
                let mut i = 0usize;
                while i + w <= keys.len() {
                    let k = s.load(&keys[i..]);
                    let h = f.partition_vector(s, k);
                    let c = serialize_conflicts_native(s, h);
                    let o = s.gather(off, h);
                    let pos = s.add(o, c);
                    s.scatter(off, h, s.add(pos, one));
                    let ob = s.add(s.and(o, wm1), c);
                    let slot = s.add(s.mullo(h, wv), ob);
                    let store_now = s.cmplt(ob, wv);
                    s.scatter_masked(buf, store_now, slot, k);
                    let trigger = s.cmpeq(ob, wm1);
                    if trigger.any() {
                        let nf = s.selective_store(&mut flush_parts[..], trigger, h);
                        for &p in &flush_parts[..nf] {
                            let p = p as usize;
                            let target = (off[p] as usize & !(w - 1)) - w;
                            let line = s.load(&buf[p * w..]);
                            s.store_stream(line, &mut out[target..]);
                        }
                        let late = s.cmpge(ob, wv);
                        let slot2 = s.add(s.mullo(h, wv), s.sub(ob, wv));
                        s.scatter_masked(buf, late, slot2, k);
                    }
                    i += w;
                }
                for &kk in &keys[i..] {
                    keys_scalar_step(f, kk, off, buf, out, w);
                }
            },
        );
    } else {
        for &kk in keys {
            keys_scalar_step(f, kk, off, buf, out, slots);
        }
    }
}

#[inline(always)]
fn keys_scalar_step(
    f: RadixFn,
    k: u32,
    off: &mut [u32],
    buf: &mut [u32],
    out: &mut [u32],
    slots: usize,
) {
    let p = f.partition(k);
    let o = off[p] as usize;
    let slot = o & (slots - 1);
    buf[p * slots + slot] = k;
    off[p] = (o + 1) as u32;
    if slot == slots - 1 {
        let target = o + 1 - slots;
        out[target..target + slots].copy_from_slice(&buf[p * slots..p * slots + slots]);
    }
}

fn keys_buffer_cleanup(slots: usize, buf: &[u32], base: &[u32], off: &[u32], out: &mut [u32]) {
    for p in 0..base.len() {
        let start = (off[p] as usize & !(slots - 1)).max(base[p] as usize);
        for q in start..off[p] as usize {
            out[q] = buf[p * slots + (q & (slots - 1))];
        }
    }
}

/// Parallel LSB radixsort of a key column; the scalar kernels run when
/// `vectorized` is false.
pub fn radixsort_keys<S: Simd>(
    s: S,
    vectorized: bool,
    keys: &mut Vec<u32>,
    cfg: &SortConfig,
    policy: &ExecPolicy,
) -> Result<SchedulerStats, EngineError> {
    let n = keys.len();
    let scratch_bytes = (n as u64) * std::mem::size_of::<u32>() as u64;
    let _scratch = policy.run.reserve(scratch_bytes)?;
    let mut stats = SchedulerStats::default();
    let mut dst = vec![0u32; n];
    for pass in 0..cfg.passes() {
        let f = cfg.pass_fn(pass);
        rsv_metrics::count(rsv_metrics::Metric::SortPasses, 1);
        rsv_metrics::count(rsv_metrics::Metric::SortBytesMoved, 4 * n as u64);
        stats.merge(&pass_keys(s, vectorized, f, keys, &mut dst, policy)?);
        std::mem::swap(keys, &mut dst);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsv_exec::{RunContext, DEFAULT_MORSEL_TUPLES};
    use rsv_simd::Portable;

    fn workload(n: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = rsv_data::rng(seed);
        let keys = rsv_data::uniform_u32(n, &mut rng);
        let pays: Vec<u32> = (0..n as u32).collect();
        (keys, pays)
    }

    fn cfg(radix_bits: u32) -> SortConfig {
        SortConfig { radix_bits }
    }

    fn check_sorted_pairs(keys: &[u32], pays: &[u32], orig_keys: &[u32]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
        // payload i must carry the original tuple (stability: equal keys
        // keep original payload order)
        for (i, (&k, &p)) in keys.iter().zip(pays).enumerate() {
            assert_eq!(orig_keys[p as usize], k, "tuple broken at {i}");
        }
        for w in keys.windows(2).zip(pays.windows(2)) {
            if w.0[0] == w.0[1] {
                assert!(w.1[0] < w.1[1], "not stable");
            }
        }
    }

    #[test]
    fn scalar_sort_matches_std() {
        let s = Portable::<16>::new();
        for n in [0usize, 1, 100, 10_000] {
            let (keys, pays) = workload(n, 111);
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(s, false, &mut k, &mut p, &cfg(8), &ExecPolicy::new(1)).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn vector_sort_matches_std() {
        let s = Portable::<16>::new();
        for n in [0usize, 1, 17, 1000, 20_000] {
            let (keys, pays) = workload(n, 112);
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(s, true, &mut k, &mut p, &cfg(8), &ExecPolicy::new(1)).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn different_radix_bits() {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(5000, 113);
        for bits in [4u32, 5, 6, 8, 11, 16] {
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(s, true, &mut k, &mut p, &cfg(bits), &ExecPolicy::new(1)).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn multithreaded_sort_is_stable() {
        let s = Portable::<16>::new();
        // narrow key domain -> many duplicates to stress stability
        let mut rng = rsv_data::rng(114);
        let keys: Vec<u32> = rsv_data::uniform_u32(30_000, &mut rng)
            .iter()
            .map(|k| k % 64)
            .collect();
        let pays: Vec<u32> = (0..30_000).collect();
        for threads in [1usize, 2, 3, 4] {
            for vectorized in [true, false] {
                let mut k = keys.clone();
                let mut p = pays.clone();
                let policy = ExecPolicy::new(threads);
                radixsort_pairs(s, vectorized, &mut k, &mut p, &cfg(8), &policy).unwrap();
                check_sorted_pairs(&k, &p, &keys);
            }
        }
    }

    #[test]
    fn key_only_sort() {
        let s = Portable::<16>::new();
        for threads in [1usize, 3] {
            for n in [0usize, 1, 31, 12_345] {
                let (keys, _) = workload(n, 115);
                let mut expected = keys.clone();
                expected.sort_unstable();
                for vectorized in [true, false] {
                    let mut k = keys.clone();
                    let policy = ExecPolicy::new(threads);
                    radixsort_keys(s, vectorized, &mut k, &cfg(8), &policy).unwrap();
                    assert_eq!(k, expected, "vec={vectorized} n={n} threads={threads}");
                }
            }
        }
    }

    /// A pre-cancelled run returns [`EngineError::Cancelled`] without
    /// claiming any morsels, and hands back columns of the right length.
    #[test]
    fn cancelled_sort_returns_columns() {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(10_000, 42);
        let mut k = keys.clone();
        let mut p = pays.clone();
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(4).with_morsel_tuples(1024);
        let cancelled = policy.clone().with_run(run);
        let err = radixsort_pairs(s, true, &mut k, &mut p, &cfg(8), &cancelled)
            .expect_err("pre-cancelled run must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(k.len(), keys.len());
        assert_eq!(p.len(), pays.len());
        let err = radixsort_keys(s, true, &mut k, &cfg(8), &cancelled)
            .expect_err("pre-cancelled key-only run must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(k.len(), keys.len());
        // the same columns sort under a fresh context
        radixsort_pairs(s, true, &mut k, &mut p, &cfg(8), &policy).expect("fresh run must succeed");
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(k, expect);
    }

    /// The ping-pong scratch columns respect the run's memory budget, and
    /// a denied reservation leaves zero bytes accounted.
    #[test]
    fn sort_budget_gates_scratch() {
        let s = Portable::<16>::new();
        let (mut keys, mut pays) = workload(10_000, 7);
        // sort needs 2 * 10_000 * 4 = 80_000 B of scratch; allow less
        let run = RunContext::new().with_memory_limit(1_000);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = radixsort_pairs(s, true, &mut keys, &mut pays, &cfg(8), &policy)
            .expect_err("budget must deny the scratch columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
        assert_eq!(keys.len(), 10_000);
    }

    /// Sorted output must be byte-identical for any thread count and
    /// morsel size, and the stats must account for every scheduled tuple.
    #[test]
    fn sort_schedule_independent() {
        let s = Portable::<16>::new();
        let (keys, pays) = workload(25_000, 117);
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        for threads in [1usize, 2, 3, 8] {
            for morsel in [1024usize, DEFAULT_MORSEL_TUPLES, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let mut k = keys.clone();
                let mut p = pays.clone();
                let stats = radixsort_pairs(s, true, &mut k, &mut p, &cfg(8), &policy).unwrap();
                // 4 passes at 8 bits, each scheduling every tuple through
                // the histogram and shuffle queues (cleanup tasks add a
                // few more scheduling units on top)
                assert!(stats.total_tuples() >= 4 * 2 * keys.len() as u64);
                match &reference {
                    None => reference = Some((k, p)),
                    Some((rk, rp)) => {
                        assert_eq!(&k, rk, "keys differ at t={threads} morsel={morsel}");
                        assert_eq!(&p, rp, "pays differ at t={threads} morsel={morsel}");
                    }
                }
                let mut ko = keys.clone();
                radixsort_keys(s, true, &mut ko, &cfg(8), &policy).unwrap();
                let r = reference.as_ref().unwrap();
                let mut expect = r.0.clone();
                expect.sort_unstable();
                assert_eq!(
                    ko, expect,
                    "key-only differs at t={threads} morsel={morsel}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_sort() {
        let (keys, pays) = workload(50_000, 116);
        let policy = ExecPolicy::new(2);
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(s, true, &mut k, &mut p, &cfg(8), &policy).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(s, true, &mut k, &mut p, &cfg(8), &policy).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }
}
