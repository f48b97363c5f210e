//! Register-blocked Bloom filter (Putze, Sanders and Singler, "Cache-,
//! Hash- and Space-Efficient Bloom Filters", WEA 2007).
//!
//! All five bits of a key lie in one 64-bit block chosen by a first hash,
//! so a probe fetches one block per key and tests it with one mask
//! compare. The vectorized probe needs no per-lane function
//! counter: it gathers one block per lane, tests every lane at once and
//! writes the survivors with one selective store per vector, so its
//! output keeps input order. The price is a higher false-positive rate at
//! equal memory (about 1.7 % at 10 bits per key and five bits per block,
//! against 0.9 % for the classic [`BloomFilter`](crate::BloomFilter)).
//!
//! Filters are OR-combinable ([`BlockedBloomFilter::union`]), which is
//! what [`build_parallel`] relies on: every worker inserts its morsels
//! into a private filter and the private filters are merged word by word.

use rsv_exec::{parallel_scope_try, EngineError, ExecPolicy, MorselQueue};
use rsv_simd::{MaskLike, Simd};

/// Largest block count: the vector kernels gather blocks through signed
/// 32-bit indexes.
pub const MAX_BLOCKS: usize = 1 << 31;

/// Multiplier of the block hash (the block is `mulhi(key · BLOCK_SEED,
/// blocks)`).
const BLOCK_SEED: u32 = 0x9E37_79B1;
/// Multiplier of the bit hash, whose top 30 bits are the five 6-bit bit
/// positions within the block.
const BIT_SEED: u32 = 0x85EB_CA77;
/// Right shift of each bit position's 6-bit field in the bit hash: one
/// per bit a key sets.
const FIELD_SHIFTS: [u32; 5] = [26, 20, 14, 8, 2];

/// A Bloom filter over 32-bit keys whose five bits per key share one
/// 64-bit block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedBloomFilter {
    blocks: Vec<u64>,
}

/// Blocks of a filter for `items` keys at `bits_per_item` bits each,
/// saturating instead of overflowing.
fn blocks_for(items: usize, bits_per_item: usize) -> usize {
    items
        .max(1)
        .saturating_mul(bits_per_item)
        .div_ceil(64)
        .max(1)
}

impl BlockedBloomFilter {
    /// An empty filter sized for `items` keys at `bits_per_item` bits each
    /// (rounded up to whole 64-bit blocks, at least one).
    ///
    /// # Panics
    /// If the filter would need more than [`MAX_BLOCKS`] blocks.
    pub fn new(items: usize, bits_per_item: usize) -> Self {
        let blocks = blocks_for(items, bits_per_item);
        assert!(
            blocks <= MAX_BLOCKS,
            "filter too large for 32-bit block indexes"
        );
        BlockedBloomFilter {
            blocks: vec![0u64; blocks],
        }
    }

    /// Bytes a filter built by `new(items, bits_per_item)` occupies (also
    /// past [`MAX_BLOCKS`], where `new` panics).
    pub fn bytes_for(items: usize, bits_per_item: usize) -> u64 {
        (blocks_for(items, bits_per_item) as u64).saturating_mul(8)
    }

    /// Size of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.blocks.len() * 8
    }

    /// The key's block index and the mask of its bits in that block.
    #[inline(always)]
    fn locate(&self, key: u32) -> (usize, u64) {
        let block = (u64::from(key.wrapping_mul(BLOCK_SEED)) * self.blocks.len() as u64) >> 32;
        let h = key.wrapping_mul(BIT_SEED);
        let mask = FIELD_SHIFTS
            .iter()
            .fold(0u64, |m, &shift| m | 1 << ((h >> shift) & 63));
        (block as usize, mask)
    }

    /// Insert one key.
    pub fn insert(&mut self, key: u32) {
        let (block, mask) = self.locate(key);
        self.blocks[block] |= mask;
    }

    /// Insert every key of a column.
    pub fn build(&mut self, keys: &[u32]) {
        for &k in keys {
            self.insert(k);
        }
    }

    /// OR `other`'s bits into this filter: afterwards it holds the keys of
    /// both, exactly as if they had been inserted into one filter.
    ///
    /// # Panics
    /// If the filters differ in size.
    pub fn union(&mut self, other: &BlockedBloomFilter) {
        assert_eq!(
            self.blocks.len(),
            other.blocks.len(),
            "union of differently sized filters"
        );
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    #[inline(always)]
    fn hit(&self, key: u32) -> bool {
        let (block, mask) = self.locate(key);
        self.blocks[block] & mask == mask
    }

    /// Membership test for one key: one block read.
    ///
    /// Counts one `BloomWordsTouched` per key; for this filter a touched
    /// word is one 64-bit block.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        rsv_metrics::count(rsv_metrics::Metric::BloomWordsTouched, 1);
        self.hit(key)
    }

    /// Scalar probe: write the qualifying keys and payloads, in input
    /// order, to the fronts of the output slices and return their count.
    pub fn probe_scalar(
        &self,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        let n = keys.len() as u64;
        rsv_metrics::count(rsv_metrics::Metric::BloomKeysProbed, n);
        rsv_metrics::count(rsv_metrics::Metric::BloomWordsTouched, n);
        self.filter_scalar(keys, pays, out_keys, out_pays)
    }

    /// [`BlockedBloomFilter::probe_scalar`] without the counters.
    #[inline(always)]
    fn filter_scalar(
        &self,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        let mut j = 0;
        for (&k, &p) in keys.iter().zip(pays) {
            if self.hit(k) {
                out_keys[j] = k;
                out_pays[j] = p;
                j += 1;
            }
        }
        j
    }

    /// Vectorized probe: one block gather per lane, both 32-bit halves
    /// tested against the lanes' bit masks, and the survivors written with
    /// one selective store per vector. Output is in input order and equal
    /// to [`BlockedBloomFilter::probe_scalar`]'s on every backend.
    pub fn probe_vector<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        s.vectorize(
            #[inline(always)]
            || self.probe_vector_impl(s, keys, pays, out_keys, out_pays),
        )
    }

    #[inline(always)]
    fn probe_vector_impl<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out_keys: &mut [u32],
        out_pays: &mut [u32],
    ) -> usize {
        let w = S::LANES;
        let n = keys.len();
        rsv_metrics::count(rsv_metrics::Metric::BloomKeysProbed, n as u64);
        rsv_metrics::count(rsv_metrics::Metric::BloomWordsTouched, n as u64);
        let nblocks = s.splat(self.blocks.len() as u32);
        let block_seed = s.splat(BLOCK_SEED);
        let bit_seed = s.splat(BIT_SEED);
        let one = s.splat(1);
        let low5 = s.splat(31);
        let high_half = s.splat(32);
        let zero = s.zero();
        let mut out = 0usize;
        let mut i = 0usize;
        while i + w <= n {
            let k = s.load(&keys[i..]);
            let block = s.mulhi(s.mullo(k, block_seed), nblocks);
            let h = s.mullo(k, bit_seed);
            // Bit positions 0..31 go to the block's low word, 32..63 to
            // its high word.
            let (mut lo, mut hi) = (zero, zero);
            for shift in FIELD_SHIFTS {
                let pos = s.shr(h, shift);
                let bit = s.shlv(one, s.and(pos, low5));
                let upper = s.cmpne(s.and(pos, high_half), zero);
                lo = s.or(lo, s.blend(upper, zero, bit));
                hi = s.or(hi, s.blend(upper, bit, zero));
            }
            let (wlo, whi) = s.gather_pairs(&self.blocks, block);
            let pass = s.cmpeq(s.and(wlo, lo), lo).and(s.cmpeq(s.and(whi, hi), hi));
            let v = s.load(&pays[i..]);
            s.selective_store(&mut out_keys[out..], pass, k);
            out += s.selective_store(&mut out_pays[out..], pass, v);
            i += w;
        }
        out + self.filter_scalar(
            &keys[i..],
            &pays[i..],
            &mut out_keys[out..],
            &mut out_pays[out..],
        )
    }
}

/// Build a [`BlockedBloomFilter`] over `keys` with `policy`'s workers:
/// each worker inserts the morsels it claims into a private filter, and
/// the private filters are OR-merged. OR is commutative, so the result is
/// word-for-word the filter a serial [`BlockedBloomFilter::build`] makes,
/// for every thread count and morsel size.
///
/// Reserves the workers' filters (`threads × bytes_for(keys.len(),
/// bits_per_item)`) on the run first. Fails with
/// [`EngineError::InputTooLarge`] when the filter would need more than
/// [`MAX_BLOCKS`] blocks, [`EngineError::BudgetExceeded`] when the
/// filters do not fit the budget, [`EngineError::Cancelled`] once the run
/// is cancelled and [`EngineError::WorkerPanicked`] when a worker panics.
pub fn build_parallel(
    keys: &[u32],
    bits_per_item: usize,
    policy: &ExecPolicy,
) -> Result<BlockedBloomFilter, EngineError> {
    let blocks = blocks_for(keys.len(), bits_per_item);
    if blocks > MAX_BLOCKS {
        return Err(EngineError::InputTooLarge {
            what: "bloom filter blocks",
            value: blocks as u64,
            limit: MAX_BLOCKS as u64,
        });
    }
    let bytes = BlockedBloomFilter::bytes_for(keys.len(), bits_per_item);
    let _filters = policy
        .run
        .reserve((policy.threads as u64).saturating_mul(bytes))?;
    let q = MorselQueue::new(keys.len(), policy, 1);
    let (filters, _) = parallel_scope_try(policy.threads, |ctx| {
        // A worker that claims no morsel allocates no filter.
        let mut filter: Option<BlockedBloomFilter> = None;
        for mo in ctx.morsels(&q) {
            ctx.phase("bloom-build", || {
                filter
                    .get_or_insert_with(|| BlockedBloomFilter::new(keys.len(), bits_per_item))
                    .build(&keys[mo.range]);
            });
        }
        filter
    })?;
    policy.run.check_cancelled()?;
    let mut filters = filters.into_iter().flatten();
    let mut merged = filters
        .next()
        .unwrap_or_else(|| BlockedBloomFilter::new(keys.len(), bits_per_item));
    for f in filters {
        merged.union(&f);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_exec::RunContext;
    use rsv_simd::{Backend, Portable};

    fn serial(keys: &[u32], bits_per_item: usize) -> BlockedBloomFilter {
        let mut f = BlockedBloomFilter::new(keys.len(), bits_per_item);
        f.build(keys);
        f
    }

    #[test]
    fn parallel_build_equals_serial_build() {
        let mut rng = rsv_data::rng(55);
        let random = rsv_data::uniform_u32(20_000, &mut rng);
        let dups: Vec<u32> = (0..5_000u32)
            .map(|i| match i % 7 {
                0 => 0,
                1 => u32::MAX,
                _ => i % 300,
            })
            .collect();
        for keys in [Vec::new(), vec![0, u32::MAX, 0], dups, random] {
            let want = serial(&keys, 10);
            for threads in [1usize, 2, 3, 8] {
                for morsel in [1usize, 7, 1024, usize::MAX] {
                    let policy = ExecPolicy::new(threads).with_morsel_tuples(morsel);
                    let got = build_parallel(&keys, 10, &policy).unwrap();
                    assert_eq!(
                        got,
                        want,
                        "{} keys, threads={threads} morsel={morsel}",
                        keys.len()
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_reserves_the_workers_filters() {
        let keys: Vec<u32> = (0..10_000).collect();
        let bytes = 3 * BlockedBloomFilter::bytes_for(keys.len(), 10);
        let policy = ExecPolicy::new(3).with_run(RunContext::new().with_memory_limit(bytes));
        build_parallel(&keys, 10, &policy).unwrap();
        assert_eq!(policy.run.budget.used(), 0);
        let policy = ExecPolicy::new(3).with_run(RunContext::new().with_memory_limit(bytes - 1));
        assert!(matches!(
            build_parallel(&keys, 10, &policy),
            Err(EngineError::BudgetExceeded { .. })
        ));
        assert_eq!(policy.run.budget.used(), 0);
    }

    #[test]
    fn oversized_filter_is_a_typed_error() {
        let keys = [1u32, 2, 3];
        let result = build_parallel(&keys, usize::MAX, &ExecPolicy::new(1));
        assert!(matches!(
            result,
            Err(EngineError::InputTooLarge {
                what: "bloom filter blocks",
                ..
            })
        ));
    }

    /// Share of `absent` keys the filter over `present` passes.
    fn false_positive_rate(present: &[u32], absent: &[u32]) -> f64 {
        let f = serial(present, 10);
        assert!(present.iter().all(|&k| f.contains(k)), "false negative");
        absent.iter().filter(|&&k| f.contains(k)).count() as f64 / absent.len() as f64
    }

    #[test]
    fn false_positive_rate_at_ten_bits_per_key() {
        // theory for one 64-bit block of 5 bits at 10 bits per key: 1.71 %
        let n = 100_000u32;
        let mut rng = rsv_data::rng(56);
        let all = rsv_data::unique_u32(3 * n as usize, &mut rng);
        let (present, absent) = all.split_at(n as usize);
        let rate = false_positive_rate(present, absent);
        assert!(rate < 0.025, "random keys: false positive rate {rate}");

        let dense: Vec<u32> = (0..n).collect();
        let above: Vec<u32> = (n..3 * n).collect();
        let rate = false_positive_rate(&dense, &above);
        assert!(rate < 0.025, "dense keys: false positive rate {rate}");
    }

    #[test]
    fn vector_probe_equals_scalar_probe_in_input_order() {
        let mut rng = rsv_data::rng(57);
        let all = rsv_data::unique_u32(6_000, &mut rng);
        let f = serial(&all[..1_500], 10);
        for n in [0usize, 1, 7, 8, 15, 16, 17, 33, 4_500] {
            let keys: Vec<u32> = (0..n).map(|i| all[(i * 37) % all.len()]).collect();
            let pays: Vec<u32> = (0..n as u32).collect();
            let (mut sk, mut sp) = (vec![0u32; n], vec![0u32; n]);
            let ns = f.probe_scalar(&keys, &pays, &mut sk, &mut sp);
            let check = |name: &str, vk: &[u32], vp: &[u32], nv: usize| {
                assert_eq!(nv, ns, "n={n} {name}");
                assert_eq!(vk[..nv], sk[..ns], "n={n} {name}");
                assert_eq!(vp[..nv], sp[..ns], "n={n} {name}");
            };
            let (mut vk, mut vp) = (vec![0u32; n], vec![0u32; n]);
            let nv = f.probe_vector(Portable::<16>::new(), &keys, &pays, &mut vk, &mut vp);
            check("portable", &vk, &vp, nv);
            for backend in Backend::all_available() {
                let (mut vk, mut vp) = (vec![0u32; n], vec![0u32; n]);
                let nv = rsv_simd::dispatch!(backend, s => {
                    f.probe_vector(s, &keys, &pays, &mut vk, &mut vp)
                });
                check(backend.name(), &vk, &vp, nv);
            }
        }
    }

    #[test]
    fn union_is_the_filter_of_both_key_sets() {
        let a: Vec<u32> = (0..500).collect();
        let b: Vec<u32> = (1_000..1_700).collect();
        let mut fa = BlockedBloomFilter::new(1_200, 10);
        fa.build(&a);
        let mut fb = BlockedBloomFilter::new(1_200, 10);
        fb.build(&b);
        fa.union(&fb);
        let mut both = BlockedBloomFilter::new(1_200, 10);
        both.build(&b);
        both.build(&a);
        assert_eq!(fa, both);
    }
}
