//! LSB radixsort (paper Section 8).
//!
//! "Large-scale sorting is synonymous to partitioning": least-significant-
//! bit radixsort is a sequence of *stable* partitioning passes over the
//! radix of each key, and the paper's fastest method for 32-bit keys. Both
//! parallel sorts are loops over rsv-partition's one buffered pass
//! ([`rsv_partition::parallel`]): histogram generation and buffered
//! shuffling, shared-nothing across morsels claimed from a work-stealing
//! queue (see [`rsv_exec::MorselQueue`]), interleaving the partition
//! outputs through a global prefix sum over all morsels' histograms.
//! Because every pass is stable and keyed by morsel input order, the
//! sorted output is byte-identical for any thread count and morsel size.
//!
//! * [`radixsort_pairs`] — key + one payload column (the Figure 14
//!   workload), scalar or vectorized, any thread count, one
//!   `partition_pass` per radix digit,
//! * [`radixsort_keys`] — key-only sorting (Figure 14's other tuple
//!   width), one `partition_pass_keys` per radix digit,
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
// Engine code surfaces typed errors, not panics (DESIGN.md §5e).
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod diff;
pub mod multicol;

use rsv_exec::{column_bytes, EngineError, ExecPolicy, SchedulerStats};
use rsv_partition::parallel::{partition_pass, partition_pass_keys};
use rsv_partition::{PartitionFn, RadixFn};
use rsv_simd::{KernelKind, Simd};

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

    /// The partition functions of the passes that can reorder `keys`: a
    /// stable pass on a digit every key shares is the identity, so only
    /// digits with a bit set in `OR_i (k_i ^ k_0)` get a pass. None for 0
    /// or 1 keys or all keys equal.
    fn live_passes(&self, keys: &[u32]) -> Vec<RadixFn> {
        let first = keys.first().copied().unwrap_or(0);
        let diff = keys.iter().fold(0u32, |d, &k| d | (k ^ first));
        (0..self.passes())
            .map(|pass| self.pass_fn(pass))
            .filter(|f| f.partition(diff) != 0)
            .collect()
    }
}

/// Parallel LSB radixsort of `(key, payload)` pairs (stable) with
/// `kind`'s partitioning kernels.
pub fn radixsort_pairs<S: Simd>(
    kind: KernelKind<S>,
    keys: &mut Vec<u32>,
    pays: &mut Vec<u32>,
    cfg: &SortConfig,
    policy: &ExecPolicy,
) -> Result<SchedulerStats, EngineError> {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    let n = keys.len();
    let _scratch = policy.run.reserve(2 * column_bytes(n))?;
    let mut stats = SchedulerStats::default();
    let mut dst_k = vec![0u32; n];
    let mut dst_p = vec![0u32; n];
    for f in cfg.live_passes(keys) {
        rsv_metrics::count(rsv_metrics::Metric::SortPasses, 1);
        rsv_metrics::count(rsv_metrics::Metric::SortBytesMoved, 8 * n as u64);
        let (_, pass_stats) = partition_pass(kind, f, keys, pays, &mut dst_k, &mut dst_p, policy)?;
        stats.merge(&pass_stats);
        std::mem::swap(keys, &mut dst_k);
        std::mem::swap(pays, &mut dst_p);
    }
    Ok(stats)
}

/// Parallel LSB radixsort of a key column with `kind`'s partitioning
/// kernels.
pub fn radixsort_keys<S: Simd>(
    kind: KernelKind<S>,
    keys: &mut Vec<u32>,
    cfg: &SortConfig,
    policy: &ExecPolicy,
) -> Result<SchedulerStats, EngineError> {
    let n = keys.len();
    let _scratch = policy.run.reserve(column_bytes(n))?;
    let mut stats = SchedulerStats::default();
    let mut dst = vec![0u32; n];
    for f in cfg.live_passes(keys) {
        rsv_metrics::count(rsv_metrics::Metric::SortPasses, 1);
        rsv_metrics::count(rsv_metrics::Metric::SortBytesMoved, 4 * n as u64);
        let (_, pass_stats) = partition_pass_keys(kind, f, keys, &mut dst, policy)?;
        stats.merge(&pass_stats);
        std::mem::swap(keys, &mut dst);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
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
        for n in [0usize, 1, 100, 10_000] {
            let (keys, pays) = workload(n, 111);
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(
                KernelKind::SCALAR,
                &mut k,
                &mut p,
                &cfg(8),
                &ExecPolicy::new(1),
            )
            .unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn vector_sort_matches_std() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        for n in [0usize, 1, 17, 1000, 20_000] {
            let (keys, pays) = workload(n, 112);
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(vector, &mut k, &mut p, &cfg(8), &ExecPolicy::new(1)).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn different_radix_bits() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        let (keys, pays) = workload(5000, 113);
        for bits in [4u32, 5, 6, 8, 11, 16] {
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(vector, &mut k, &mut p, &cfg(bits), &ExecPolicy::new(1)).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }

    #[test]
    fn multithreaded_sort_is_stable() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        // narrow key domain -> many duplicates to stress stability
        let mut rng = rsv_data::rng(114);
        let keys: Vec<u32> = rsv_data::uniform_u32(30_000, &mut rng)
            .iter()
            .map(|k| k % 64)
            .collect();
        let pays: Vec<u32> = (0..30_000).collect();
        for threads in [1usize, 2, 3, 4] {
            for kind in [vector, KernelKind::Scalar] {
                let mut k = keys.clone();
                let mut p = pays.clone();
                let policy = ExecPolicy::new(threads);
                radixsort_pairs(kind, &mut k, &mut p, &cfg(8), &policy).unwrap();
                check_sorted_pairs(&k, &p, &keys);
            }
        }
    }

    #[test]
    fn key_only_sort() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        for threads in [1usize, 3] {
            for n in [0usize, 1, 31, 12_345] {
                let (keys, _) = workload(n, 115);
                let mut expected = keys.clone();
                expected.sort_unstable();
                for kind in [vector, KernelKind::Scalar] {
                    let mut k = keys.clone();
                    let policy = ExecPolicy::new(threads);
                    radixsort_keys(kind, &mut k, &cfg(8), &policy).unwrap();
                    assert_eq!(k, expected, "{kind:?} n={n} threads={threads}");
                }
            }
        }
    }

    /// A pre-cancelled run returns [`EngineError::Cancelled`] without
    /// claiming any morsels, and hands back columns of the right length.
    #[test]
    fn cancelled_sort_returns_columns() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        let (keys, pays) = workload(10_000, 42);
        let mut k = keys.clone();
        let mut p = pays.clone();
        let run = RunContext::new();
        run.cancel_token().cancel();
        let policy = ExecPolicy::new(4).with_morsel_tuples(1024);
        let cancelled = policy.clone().with_run(run);
        let err = radixsort_pairs(vector, &mut k, &mut p, &cfg(8), &cancelled)
            .expect_err("pre-cancelled run must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(k.len(), keys.len());
        assert_eq!(p.len(), pays.len());
        let err = radixsort_keys(vector, &mut k, &cfg(8), &cancelled)
            .expect_err("pre-cancelled key-only run must fail");
        assert!(matches!(err, EngineError::Cancelled), "{err}");
        assert_eq!(k.len(), keys.len());
        // the same columns sort under a fresh context
        radixsort_pairs(vector, &mut k, &mut p, &cfg(8), &policy).expect("fresh run must succeed");
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(k, expect);
    }

    /// The ping-pong scratch columns respect the run's memory budget, and
    /// a denied reservation leaves zero bytes accounted.
    #[test]
    fn sort_budget_gates_scratch() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        let (mut keys, mut pays) = workload(10_000, 7);
        // sort needs 2 * 10_000 * 4 = 80_000 B of scratch; allow less
        let run = RunContext::new().with_memory_limit(1_000);
        let policy = ExecPolicy::new(2).with_run(run);
        let err = radixsort_pairs(vector, &mut keys, &mut pays, &cfg(8), &policy)
            .expect_err("budget must deny the scratch columns");
        assert!(matches!(err, EngineError::BudgetExceeded { .. }), "{err}");
        assert_eq!(policy.run.budget.used(), 0);
        assert_eq!(keys.len(), 10_000);
    }

    /// Sorted output must be byte-identical for any thread count and
    /// morsel size, and the stats must account for every scheduled tuple.
    #[test]
    fn sort_schedule_independent() {
        let vector = KernelKind::Vector(Portable::<16>::new());
        let (keys, pays) = workload(25_000, 117);
        let mut reference: Option<(Vec<u32>, Vec<u32>)> = None;
        for threads in [1usize, 2, 3, 8] {
            for morsel in [1024usize, DEFAULT_MORSEL_TUPLES, usize::MAX] {
                let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                let mut k = keys.clone();
                let mut p = pays.clone();
                let stats = radixsort_pairs(vector, &mut k, &mut p, &cfg(8), &policy).unwrap();
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
                radixsort_keys(vector, &mut ko, &cfg(8), &policy).unwrap();
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
            radixsort_pairs(KernelKind::Vector(s), &mut k, &mut p, &cfg(8), &policy).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut k = keys.clone();
            let mut p = pays.clone();
            radixsort_pairs(KernelKind::Vector(s), &mut k, &mut p, &cfg(8), &policy).unwrap();
            check_sorted_pairs(&k, &p, &keys);
        }
    }
}
