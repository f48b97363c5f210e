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

use rsv_exec::{parallel_scope_try, Budgeted, EngineError, ExecPolicy, MorselQueue};
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
        let probe = VectorProbe::new(s, self);
        let mut out = 0usize;
        let mut i = 0usize;
        while i + w <= n {
            let k = s.load(&keys[i..]);
            let pass = probe.pass(k);
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

    /// The probe's predicate half: mark the keys that pass the filter in
    /// `bits` (one bit per key, see [`rsv_simd::bitmap`]) and return
    /// their count, with the same one block gather per key and the same
    /// counters as [`BlockedBloomFilter::probe_vector`].
    /// [`rsv_simd::bitmap::take`] then moves the survivors without
    /// probing again.
    pub fn mark_vector<S: Simd>(&self, s: S, keys: &[u32], bits: &mut [u16]) -> usize {
        let n = keys.len();
        rsv_metrics::count(rsv_metrics::Metric::BloomKeysProbed, n as u64);
        rsv_metrics::count(rsv_metrics::Metric::BloomWordsTouched, n as u64);
        s.vectorize(
            #[inline(always)]
            || {
                let probe = VectorProbe::new(s, self);
                rsv_simd::bitmap::mark::<S>(
                    n,
                    bits,
                    #[inline(always)]
                    |i| probe.pass(s.load(&keys[i..])),
                    #[inline(always)]
                    |t| self.hit(keys[t]),
                )
            },
        )
    }
}

/// A vector probe's loop-invariant operands: the block count and the
/// hash seeds splatted once per call.
struct VectorProbe<'f, S: Simd> {
    s: S,
    blocks: &'f [u64],
    nblocks: S::V,
    block_seed: S::V,
    bit_seed: S::V,
}

impl<'f, S: Simd> VectorProbe<'f, S> {
    #[inline(always)]
    fn new(s: S, filter: &'f BlockedBloomFilter) -> Self {
        VectorProbe {
            s,
            blocks: &filter.blocks,
            nblocks: s.splat(filter.blocks.len() as u32),
            block_seed: s.splat(BLOCK_SEED),
            bit_seed: s.splat(BIT_SEED),
        }
    }

    /// The lanes of `k` whose keys pass the filter: one block gather per
    /// lane, both 32-bit halves tested against the lanes' bit masks.
    #[inline(always)]
    fn pass(&self, k: S::V) -> S::M {
        let s = self.s;
        let (one, low5, high_half, zero) = (s.splat(1), s.splat(31), s.splat(32), s.zero());
        let block = s.mulhi(s.mullo(k, self.block_seed), self.nblocks);
        let h = s.mullo(k, self.bit_seed);
        // Bit positions 0..31 go to the block's low word, 32..63 to its
        // high word.
        let (mut lo, mut hi) = (zero, zero);
        for shift in FIELD_SHIFTS {
            let pos = s.shr(h, shift);
            let bit = s.shlv(one, s.and(pos, low5));
            let upper = s.cmpne(s.and(pos, high_half), zero);
            lo = s.or(lo, s.blend(upper, zero, bit));
            hi = s.or(hi, s.blend(upper, bit, zero));
        }
        let (wlo, whi) = s.gather_pairs(self.blocks, block);
        s.cmpeq(s.and(wlo, lo), lo).and(s.cmpeq(s.and(whi, hi), hi))
    }
}

/// Build a [`BlockedBloomFilter`] over `keys` with `policy`'s workers:
/// each worker inserts the morsels it claims into a private filter, and
/// the private filters are OR-merged. OR is commutative, so the result is
/// word-for-word the filter a serial [`BlockedBloomFilter::build`] makes,
/// for every thread count and morsel size.
///
/// Each worker's filter holds `bytes_for(keys.len(), bits_per_item)` of
/// the run's budget from the worker's start, so the build holds `threads`
/// filters; the merged filter comes back holding its own bytes until the
/// caller drops it. Fails with [`EngineError::InputTooLarge`] when the
/// filter would need more than [`MAX_BLOCKS`] blocks,
/// [`EngineError::BudgetExceeded`] when the filters do not fit the
/// budget, [`EngineError::Cancelled`] once the run is cancelled and
/// [`EngineError::WorkerPanicked`] when a worker panics.
pub fn build_parallel<'run>(
    keys: &[u32],
    bits_per_item: usize,
    policy: &'run ExecPolicy,
) -> Result<Budgeted<'run, BlockedBloomFilter>, EngineError> {
    let blocks = blocks_for(keys.len(), bits_per_item);
    if blocks > MAX_BLOCKS {
        return Err(EngineError::InputTooLarge {
            what: "bloom filter blocks",
            value: blocks as u64,
            limit: MAX_BLOCKS as u64,
        });
    }
    let bytes = BlockedBloomFilter::bytes_for(keys.len(), bits_per_item);
    let q = MorselQueue::new(keys.len(), policy, 1);
    let filters = parallel_scope_try(policy.threads, |ctx| {
        let mut filter = policy
            .run
            .hold(bytes, || BlockedBloomFilter::new(keys.len(), bits_per_item))?;
        for mo in ctx.morsels(&q) {
            ctx.phase("bloom-build", || filter.build(&keys[mo.range]));
        }
        Ok::<_, EngineError>(filter)
    })?;
    policy.run.check_cancelled()?;
    let mut filters = filters.into_iter();
    // Infallible: the scope returns one result per worker, at least one.
    #[allow(clippy::expect_used)]
    let mut merged = filters.next().expect("one filter per worker")?;
    for f in filters {
        merged.union(&*f?);
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
                    let got = build_parallel(&keys, 10, &policy).unwrap().into_inner();
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
        let merged = build_parallel(&keys, 10, &policy).unwrap();
        assert_eq!(policy.run.budget.used(), bytes / 3, "the merged filter");
        drop(merged);
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
        let policy = ExecPolicy::new(1);
        assert!(matches!(
            build_parallel(&keys, usize::MAX, &policy),
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

    /// The vector probe, and the vector mark followed by a take, keep
    /// exactly the scalar probe's survivors in input order.
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
                // mark, then take the marked keys
                let (mut mk, mut mp) = (vec![0u32; n], vec![0u32; n]);
                let mut bits = vec![u16::MAX; n.div_ceil(16)];
                let (marked, taken) = rsv_simd::dispatch!(backend, s => {
                    let marked = f.mark_vector(s, &keys, &mut bits);
                    (marked, rsv_simd::bitmap::take(s, &keys, &pays, &bits, &mut mk, &mut mp))
                });
                assert_eq!(marked, taken, "n={n} {} mark-take", backend.name());
                check("mark-take", &mk, &mp, taken);
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
