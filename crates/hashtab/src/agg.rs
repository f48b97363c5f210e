//! Vectorized group-by aggregation (paper §5: "in group-by aggregation
//! [hash tables] are used either to map tuples to unique group ids or to
//! insert and update partial aggregates").
//!
//! [`GroupAggTable`] maintains per-group `COUNT(*)` and a 64-bit
//! `SUM(value)` in an open-addressing table with linear probing. The
//! vertical vectorized update path processes a different input tuple per
//! lane, with one of two kernels chosen by the table's size:
//!
//! * while one copy of the bucket arrays per lane fits in L1d (32 KiB),
//!   each lane aggregates into its own replica, as the paper's §7 does
//!   with partition counts, so lanes never conflict; the replicas are
//!   merged into the table afterwards;
//! * larger tables are updated in place. Lanes that would
//!   read-modify-write the same bucket in one vector are *deferred* to the
//!   next iteration (the same first-occurrence rule the paper's unstable
//!   hash shuffling uses), so no increment is ever lost.
//!
//! The table accepts the full `u32` key domain. The one key the bucket
//! array cannot hold, [`EMPTY_KEY`] (`u32::MAX`, the empty-bucket
//! sentinel), is aggregated out of band in a side slot: the scalar path
//! routes it there, and the vector kernel masks sentinel lanes with one
//! compare, adds them to the slot and refills those lanes.
//!
//! Partial tables combine with [`GroupAggTable::merge`], and
//! [`GroupAggTable::into_sorted_rows`] emits the result ordered by key.
//! The engine's group-by ([`crate::group`]) uses one such table per
//! worker while a table for its groups is smaller than L2, and one per
//! key-range part past that.

use rsv_simd::{KernelKind, MaskLike, Simd};

use crate::{bucket_count, MulHash, EMPTY_KEY};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// L1d bytes the per-lane replicas of the replicated kernel may occupy.
const REPLICA_BYTES: usize = 32 << 10;

/// Groups a `buckets`-bucket table holds at `load_factor` before it
/// grows: `load_factor` of the buckets, at least one and at most
/// `buckets − 1`.
fn growth_limit(buckets: usize, load_factor: f64) -> usize {
    ((buckets as f64 * load_factor) as usize).clamp(1, buckets - 1)
}

/// Do `lanes` replicas of a `buckets`-bucket table (four `u32` arrays
/// each) fit in L1d? If so, [`GroupAggTable::update_vector`] runs the
/// replicated kernel; otherwise the conflict-deferring one.
pub(crate) fn replicas_fit_l1(buckets: usize, lanes: usize) -> bool {
    buckets * lanes * 4 * std::mem::size_of::<u32>() <= REPLICA_BYTES
}

/// An aggregation hash table: per group key, `COUNT(*)` and `SUM(value)`.
///
/// Keys live in their own array; counts and 64-bit sums are stored as two
/// parallel 32-bit arrays (`sum_lo`, `sum_hi`) so the vectorized path can
/// do the 64-bit addition with 32-bit lanes and an explicit carry.
///
/// # Saturation
///
/// The table holds at most `load_factor` of its buckets in groups (at
/// least one group, and never all buckets: linear probing needs an empty
/// bucket to end a probe for a missing key).
/// [`GroupAggTable::update`] (and the vectorized kernel) *grow* the table
/// — doubling the bucket array and rehashing — when a new group would
/// pass that threshold. A caller under a memory budget charges the growth
/// from [`GroupAggTable::size_bytes`].
///
/// # The sentinel key
///
/// [`EMPTY_KEY`] marks empty buckets, so its group lives in a side slot
/// `(count, sum)` outside the bucket array. It never occupies a bucket
/// and so never counts against saturation.
#[derive(Debug, Clone)]
pub struct GroupAggTable {
    keys: Vec<u32>,
    counts: Vec<u32>,
    sum_lo: Vec<u32>,
    sum_hi: Vec<u32>,
    hash: MulHash,
    /// Occupancy the table grows to keep.
    load_factor: f64,
    /// Groups the bucket array holds before the table grows:
    /// [`growth_limit`] of the buckets.
    limit: usize,
    /// Groups stored in the bucket array (the side slot excluded).
    groups: usize,
    /// `(count, sum)` of the [`EMPTY_KEY`] group, once it has been seen.
    sentinel: Option<(u32, u64)>,
}

impl GroupAggTable {
    /// A table for up to `capacity` distinct groups at `load_factor`
    /// occupancy.
    pub fn new(capacity: usize, load_factor: f64) -> Self {
        let buckets = bucket_count(capacity, load_factor);
        GroupAggTable {
            keys: vec![EMPTY_KEY; buckets],
            counts: vec![0; buckets],
            sum_lo: vec![0; buckets],
            sum_hi: vec![0; buckets],
            hash: MulHash::nth(0),
            load_factor,
            limit: growth_limit(buckets, load_factor),
            groups: 0,
            sentinel: None,
        }
    }

    /// Bytes [`GroupAggTable::new`] allocates for `capacity` groups at
    /// `load_factor` (four `u32` arrays over the buckets), the unit of a
    /// caller's memory-budget reservation.
    pub fn bytes_for(capacity: usize, load_factor: f64) -> u64 {
        (bucket_count(capacity, load_factor) * 4 * std::mem::size_of::<u32>()) as u64
    }

    /// Bytes the bucket arrays take now, past `bytes_for` once grown.
    pub fn size_bytes(&self) -> u64 {
        (self.buckets() * 4 * std::mem::size_of::<u32>()) as u64
    }

    /// Number of distinct groups seen so far.
    pub fn groups(&self) -> usize {
        self.groups + usize::from(self.sentinel.is_some())
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.keys.len()
    }

    /// Update one tuple with scalar code, growing the table if a new
    /// group would otherwise saturate it.
    pub fn update(&mut self, key: u32, value: u32) {
        self.add(key, 1, u64::from(value));
    }

    /// Add every group of `other` (count and sum) into `self`, growing
    /// under [`GroupAggTable::update`]'s rule. The tables may have
    /// different bucket counts; the result equals aggregating both inputs
    /// into one table.
    pub fn merge(&mut self, other: &GroupAggTable) {
        for (key, count, sum) in other.iter() {
            self.add(key, count, sum);
        }
    }

    /// The `(key, count, sum)` rows, sorted by key (keys are unique, so
    /// the order is fully determined).
    pub fn into_sorted_rows(self) -> Vec<(u32, u32, u64)> {
        let mut rows = Vec::with_capacity(self.groups());
        rows.extend(self.iter());
        rows.sort_unstable_by_key(|&(key, _, _)| key);
        rows
    }

    /// [`GroupAggTable::try_add`], growing until the group fits.
    fn add(&mut self, key: u32, count: u32, sum: u64) {
        while !self.try_add(key, count, sum) {
            self.grow();
        }
    }

    /// Add `count` tuples summing to `sum` to `key`'s group; `false`,
    /// adding nothing, when a new group would pass the growth limit.
    fn try_add(&mut self, key: u32, count: u32, sum: u64) -> bool {
        if key == EMPTY_KEY {
            let slot = self.sentinel.get_or_insert((0, 0));
            slot.0 += count;
            slot.1 += sum;
            return true;
        }
        let t = self.keys.len();
        let mut h = self.hash.bucket(key, t);
        loop {
            let k = self.keys[h];
            if k == key {
                break;
            }
            if k == EMPTY_KEY {
                if self.groups == self.limit {
                    return false;
                }
                self.keys[h] = key;
                self.groups += 1;
                break;
            }
            h += 1;
            if h == t {
                h = 0;
            }
        }
        self.counts[h] += count;
        let (lo, carry) = self.sum_lo[h].overflowing_add(sum as u32);
        self.sum_lo[h] = lo;
        self.sum_hi[h] += (sum >> 32) as u32 + u32::from(carry);
        true
    }

    /// Double the bucket array and rehash every group.
    fn grow(&mut self) {
        let new_buckets = (self.keys.len() * 2).max(4);
        self.limit = growth_limit(new_buckets, self.load_factor);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY_KEY; new_buckets]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; new_buckets]);
        let old_lo = std::mem::replace(&mut self.sum_lo, vec![0; new_buckets]);
        let old_hi = std::mem::replace(&mut self.sum_hi, vec![0; new_buckets]);
        for (i, &k) in old_keys.iter().enumerate() {
            if k == EMPTY_KEY {
                continue;
            }
            let mut h = self.hash.bucket(k, new_buckets);
            while self.keys[h] != EMPTY_KEY {
                h += 1;
                if h == new_buckets {
                    h = 0;
                }
            }
            self.keys[h] = k;
            self.counts[h] = old_counts[i];
            self.sum_lo[h] = old_lo[i];
            self.sum_hi[h] = old_hi[i];
        }
    }

    /// Aggregate whole columns with scalar code.
    pub fn update_scalar(&mut self, keys: &[u32], values: &[u32]) {
        assert_eq!(keys.len(), values.len(), "column length mismatch");
        for (&k, &v) in keys.iter().zip(values) {
            self.update(k, v);
        }
    }

    /// Aggregate whole columns with `kind`'s kernel:
    /// [`GroupAggTable::update_scalar`] or [`GroupAggTable::update_vector`].
    pub(crate) fn update_with<S: Simd>(
        &mut self,
        kind: KernelKind<S>,
        keys: &[u32],
        values: &[u32],
    ) {
        match kind {
            KernelKind::Scalar => self.update_scalar(keys, values),
            KernelKind::Vector(s) => self.update_vector(s, keys, values),
        }
    }

    /// Aggregate whole columns with a vertical vectorized kernel, one
    /// input tuple per lane. Of two kernels, the table's own size picks
    /// one:
    ///
    /// * **Replicated** (paper §7's count replication), when one copy of
    ///   the bucket arrays per lane fits in L1d
    ///   (`buckets × S::LANES × 16 B ≤ 32 KiB`, i.e. up to 64 groups at
    ///   load 0.5 with 16 lanes). Lane ℓ probes and updates only its own
    ///   replica, at `h·W + ℓ`, so no two lanes ever touch the same slot
    ///   and nothing is deferred. Each lane counts the groups it claims;
    ///   before any replica could fill, the replicas are merged into the
    ///   table and the rest of the input goes to the conflict kernel.
    ///   The replicas are merged once more at the end.
    /// * **Conflict-deferring**, for larger tables: hash a vector of keys,
    ///   gather their buckets, insert new groups (with the Algorithm 7
    ///   scatter/gather-back conflict check), and read-modify-write count
    ///   and sum for the lanes that are the *first* occurrence of their
    ///   bucket in this vector; all other lanes retry next iteration.
    ///
    /// In both, lanes holding [`EMPTY_KEY`] go to the side slot and are
    /// refilled.
    pub fn update_vector<S: Simd>(&mut self, s: S, keys: &[u32], values: &[u32]) {
        assert_eq!(keys.len(), values.len(), "column length mismatch");
        // Both kernels are `#[inline(always)]` and called from this one
        // closure, so their intrinsics compile under the backend's target
        // features; called from anywhere else they run many times slower.
        s.vectorize(
            #[inline(always)]
            || {
                let done = if replicas_fit_l1(self.buckets(), S::LANES) {
                    self.update_replicated(s, keys, values)
                } else {
                    0
                };
                self.update_conflict(s, &keys[done..], &values[done..]);
            },
        );
    }

    /// The replicated kernel of [`GroupAggTable::update_vector`]. Returns
    /// how many leading tuples it aggregated into the table; the caller
    /// hands the rest to [`GroupAggTable::update_conflict`].
    #[inline(always)]
    fn update_replicated<S: Simd>(&mut self, s: S, keys: &[u32], values: &[u32]) -> usize {
        let w = S::LANES;
        let n = keys.len();
        let t = self.keys.len();
        // Replica of lane ℓ holds bucket h at index h·W + ℓ.
        let mut rkeys = vec![EMPTY_KEY; t * w];
        let mut rcounts = vec![0u32; t * w];
        let mut rlo = vec![0u32; t * w];
        let mut rhi = vec![0u32; t * w];
        let f = s.splat(self.hash.factor());
        let tn = s.splat(t as u32);
        let wn = s.splat(w as u32);
        let empty = s.splat(EMPTY_KEY);
        let one = s.splat(1);
        let lane_ids = s.iota();
        // A replica needs one empty bucket to end a probe for a missing
        // key, so no lane may claim more than `t − 1` groups; a lane
        // claims at most one per iteration.
        let full = s.splat(t as u32 - 2);
        let mut claims = s.zero();
        let mut k = s.zero();
        let mut v = s.zero();
        let mut o = s.zero();
        let mut m = S::M::all(); // lanes to refill
        let mut i = 0usize;
        while i + w <= n && !s.cmpgt(claims, full).any() {
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &values[i..]);
            i += m.count();
            let sent = s.cmpeq(k, empty);
            if sent.any() {
                self.update_lanes(s, k, v, sent);
            }
            let mut h = s.add(s.mulhi(s.mullo(k, f), tn), o);
            let over = s.cmpge(h, tn);
            h = s.blend(over, s.sub(h, tn), h);
            let idx = s.add(s.mullo(h, wn), lane_ids);
            let tk = s.gather(&rkeys, idx);
            // Every slot belongs to one lane: claims never conflict.
            let claim = sent.andnot(s.cmpeq(tk, empty));
            if claim.any() {
                s.scatter_masked(&mut rkeys, claim, idx, k);
                claims = s.blend(claim, s.add(claims, one), claims);
            }
            let upd = sent.andnot(s.cmpeq(tk, k)).or(claim);
            let c = s.gather_masked(s.zero(), upd, &rcounts, idx);
            s.scatter_masked(&mut rcounts, upd, idx, s.add(c, one));
            let lo = s.gather_masked(s.zero(), upd, &rlo, idx);
            let new_lo = s.add(lo, v);
            s.scatter_masked(&mut rlo, upd, idx, new_lo);
            let carry = s.cmplt(new_lo, lo).and(upd);
            if carry.any() {
                let hi = s.gather_masked(s.zero(), carry, &rhi, idx);
                s.scatter_masked(&mut rhi, carry, idx, s.add(hi, one));
            }
            // Lanes that found a different key probe onward.
            m = upd.or(sent);
            o = s.blend(m, s.zero(), s.add(o, one));
        }
        // Drain in-flight lanes with scalar code, then merge the replicas.
        self.update_lanes(s, k, v, m.not());
        for (slot, &key) in rkeys.iter().enumerate() {
            if key != EMPTY_KEY {
                let sum = u64::from(rlo[slot]) | (u64::from(rhi[slot]) << 32);
                self.add(key, rcounts[slot], sum);
            }
        }
        i
    }

    /// The conflict-deferring kernel of [`GroupAggTable::update_vector`].
    #[inline(always)]
    fn update_conflict<S: Simd>(&mut self, s: S, keys: &[u32], values: &[u32]) {
        let w = S::LANES;
        let n = keys.len();
        let f = s.splat(self.hash.factor());
        let mut tn = s.splat(self.keys.len() as u32);
        let empty = s.splat(EMPTY_KEY);
        let one = s.splat(1);
        let lane_ids = s.iota();
        let mut k = s.zero();
        let mut v = s.zero();
        let mut o = s.zero();
        let mut m = S::M::all(); // lanes to refill
        let mut i = 0usize;
        while i + w <= n {
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &values[i..]);
            i += m.count();
            // Sentinel-key lanes aggregate into the side slot and take no
            // part in the probe below; they are refilled with `upd`.
            let sent = s.cmpeq(k, empty);
            if sent.any() {
                self.update_lanes(s, k, v, sent);
            }
            let mut h = s.add(s.mulhi(s.mullo(k, f), tn), o);
            let over = s.cmpge(h, tn);
            h = s.blend(over, s.sub(h, tn), h);
            let tk = s.gather(&self.keys, h);
            // Lanes whose bucket is empty try to claim it for a new group.
            let empt = sent.andnot(s.cmpeq(tk, empty));
            if empt.any() {
                s.scatter_masked(&mut self.keys, empt, h, lane_ids);
                let back = s.gather_masked(lane_ids, empt, &self.keys, h);
                let won = empt.and(s.cmpeq(back, lane_ids));
                if self.groups + won.count() > self.limit {
                    // The new groups would pass the growth limit (which
                    // also keeps the empty bucket that ends a probe for a
                    // missing key): empty the claimed buckets again and
                    // grow. No lane has updated a bucket in this vector,
                    // so the probing lanes restart on the rehashed table;
                    // only the sentinel lanes, already in the side slot,
                    // are refilled.
                    s.scatter_masked(&mut self.keys, won, h, empty);
                    self.grow();
                    tn = s.splat(self.keys.len() as u32);
                    o = s.zero();
                    m = sent;
                    continue;
                }
                s.scatter_masked(&mut self.keys, won, h, k);
                self.groups += won.count();
                // losers must retry (their o stays; bucket now occupied)
            }
            // Re-read bucket keys (claims may have just landed).
            let tk = s.gather(&self.keys, h);
            let found = sent.andnot(s.cmpeq(tk, k));
            // Defer all but the first lane touching each bucket: the
            // read-modify-write below would otherwise lose increments.
            let first = s.cmpeq(s.conflict(h), s.zero());
            let upd = found.and(first);
            if upd.any() {
                let c = s.gather_masked(s.zero(), upd, &self.counts, h);
                s.scatter_masked(&mut self.counts, upd, h, s.add(c, one));
                let lo = s.gather_masked(s.zero(), upd, &self.sum_lo, h);
                let new_lo = s.add(lo, v);
                s.scatter_masked(&mut self.sum_lo, upd, h, new_lo);
                let carry = s.cmplt(new_lo, lo); // wrapped => carry
                let carry_upd = carry.and(upd);
                if carry_upd.any() {
                    let hi = s.gather_masked(s.zero(), carry_upd, &self.sum_hi, h);
                    s.scatter_masked(&mut self.sum_hi, carry_upd, h, s.add(hi, one));
                }
            }
            // Lanes that found a different, occupied key probe onward.
            let miss = found.or(empt).or(sent).not();
            o = s.blend(miss, s.add(o, one), s.zero());
            // Refill only the lanes that completed their update.
            m = upd.or(sent);
        }
        // Drain in-flight lanes and the tail with scalar code.
        self.update_lanes(s, k, v, m.not());
        for idx in i..n {
            self.update(keys[idx], values[idx]);
        }
    }

    /// Update the tuples held in the `lanes` of `k` and `v` with scalar
    /// code.
    #[inline(always)]
    fn update_lanes<S: Simd>(&mut self, s: S, k: S::V, v: S::V, lanes: S::M) {
        let mut ka = [0u32; MAX_LANES];
        let mut va = [0u32; MAX_LANES];
        s.store(k, &mut ka[..S::LANES]);
        s.store(v, &mut va[..S::LANES]);
        for lane in lanes.iter_set() {
            self.update(ka[lane], va[lane]);
        }
    }

    /// Iterate over `(group key, count, sum)` results in bucket order,
    /// with the [`EMPTY_KEY`] group (if any) last.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.keys
            .iter()
            .enumerate()
            .filter(|&(_h, &k)| k != EMPTY_KEY)
            .map(|(h, &k)| {
                (
                    k,
                    self.counts[h],
                    u64::from(self.sum_lo[h]) | (u64::from(self.sum_hi[h]) << 32),
                )
            })
            .chain(self.sentinel.map(|(count, sum)| (EMPTY_KEY, count, sum)))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    fn reference(keys: &[u32], values: &[u32]) -> HashMap<u32, (u32, u64)> {
        let mut m: HashMap<u32, (u32, u64)> = HashMap::new();
        for (&k, &v) in keys.iter().zip(values) {
            let e = m.entry(k).or_insert((0, 0));
            e.0 += 1;
            e.1 += u64::from(v);
        }
        m
    }

    fn collect(t: &GroupAggTable) -> HashMap<u32, (u32, u64)> {
        t.iter().map(|(k, c, s)| (k, (c, s))).collect()
    }

    #[test]
    fn scalar_matches_reference() {
        let mut rng = rsv_data::rng(71);
        let keys: Vec<u32> = rsv_data::uniform_u32(5000, &mut rng)
            .iter()
            .map(|k| k % 97)
            .collect();
        let values = rsv_data::uniform_u32(5000, &mut rng);
        let mut t = GroupAggTable::new(128, 0.5);
        t.update_scalar(&keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
        assert_eq!(t.groups(), 97);
    }

    #[test]
    fn vector_matches_reference() {
        // Domains 64 and 128 are the largest whose replicas fit in L1d at
        // 16 and 8 lanes; 65 and 129 the smallest that do not.
        let cases = [
            (5000usize, 97u32),
            (1000, 3),
            (64, 64),
            (5000, 64),
            (5000, 65),
            (5000, 128),
            (5000, 129),
            (10_000, 5000),
        ];
        for b in rsv_simd::Backend::all_available() {
            let mut rng = rsv_data::rng(72);
            let mut kernels = [false; 2];
            for (n, domain) in cases {
                let keys: Vec<u32> = rsv_data::uniform_u32(n, &mut rng)
                    .iter()
                    .map(|k| k % domain)
                    .collect();
                let values = rsv_data::uniform_u32(n, &mut rng);
                let mut t = GroupAggTable::new(domain as usize, 0.5);
                kernels[usize::from(replicas_fit_l1(t.buckets(), b.lanes()))] = true;
                rsv_simd::dispatch!(b, s => { t.update_vector(s, &keys, &values) });
                assert_eq!(
                    collect(&t),
                    reference(&keys, &values),
                    "{} n={n} domain={domain}",
                    b.name()
                );
            }
            assert_eq!(kernels, [true; 2], "{}: both kernels run", b.name());
        }
    }

    /// A table sized for one group and fed 10K distinct keys grows at its
    /// load factor: after every update, scalar or one vector call per
    /// chunk, its groups fill at most half its buckets, and its rows equal
    /// the reference.
    #[test]
    fn growth_keeps_the_load_factor() {
        let keys: Vec<u32> = (0..10_000u32).map(|i| i.wrapping_mul(2654435761)).collect();
        let values: Vec<u32> = (0..10_000).collect();
        let within = |t: &GroupAggTable| t.groups() as f64 <= 0.5 * t.buckets() as f64;
        let mut t = GroupAggTable::new(1, 0.5);
        for (&k, &v) in keys.iter().zip(&values) {
            t.update(k, v);
            assert!(
                within(&t),
                "{} groups in {} buckets",
                t.groups(),
                t.buckets()
            );
        }
        assert_eq!(collect(&t), reference(&keys, &values));
        for b in rsv_simd::Backend::all_available() {
            let mut t = GroupAggTable::new(1, 0.5);
            for (k, v) in keys.chunks(37).zip(values.chunks(37)) {
                rsv_simd::dispatch!(b, s => { t.update_vector(s, k, v) });
                assert!(
                    within(&t),
                    "{}: {} groups in {} buckets",
                    b.name(),
                    t.groups(),
                    t.buckets()
                );
            }
            assert_eq!(collect(&t), reference(&keys, &values), "{}", b.name());
        }
    }

    #[test]
    fn replica_bound_is_l1_sized() {
        // four u32 arrays per replica, one replica per lane, 32 KiB
        assert!(replicas_fit_l1(128, 16));
        assert!(!replicas_fit_l1(129, 16));
        assert!(replicas_fit_l1(256, 8));
        assert!(!replicas_fit_l1(257, 8));
        // at load 0.5: 64 groups fit with 16 lanes, 65 do not
        assert!(replicas_fit_l1(GroupAggTable::new(64, 0.5).buckets(), 16));
        assert!(!replicas_fit_l1(GroupAggTable::new(65, 0.5).buckets(), 16));
        // a 2^18-group table never replicates, even with one lane
        assert!(!replicas_fit_l1(
            GroupAggTable::new(1 << 18, 0.5).buckets(),
            1
        ));
    }

    #[test]
    fn replicated_kernel_hands_off_before_a_replica_fills() {
        // 10,000 distinct keys into a table sized for 4 groups: every lane
        // claims a new group per vector, so the replicas would fill after a
        // handful of vectors; the rest of the input goes to the conflict
        // kernel, which grows the table.
        let keys: Vec<u32> = (0..10_000u32)
            .map(|k| k.wrapping_mul(0x9E37_79B9))
            .collect();
        let values: Vec<u32> = (0..10_000u32).collect();
        for b in rsv_simd::Backend::all_available() {
            let mut t = GroupAggTable::new(4, 0.5);
            let buckets = t.buckets();
            assert!(replicas_fit_l1(buckets, b.lanes()));
            rsv_simd::dispatch!(b, s => { t.update_vector(s, &keys, &values) });
            assert_eq!(collect(&t), reference(&keys, &values), "{}", b.name());
            assert_eq!(t.groups(), 10_000);
            assert!(t.buckets() > buckets, "{}: table must grow", b.name());
        }
    }

    #[test]
    fn replicated_kernel_handles_sentinels_and_carries() {
        // A few groups with values near u32::MAX, so every lane's low sum
        // word wraps many times, with the sentinel key mixed in (including
        // a run of whole sentinel vectors).
        let (mut keys, _) = with_sentinels(20_000, 5, 13, 80);
        keys.splice(100..100, [EMPTY_KEY; 64]);
        let values: Vec<u32> = (0..keys.len() as u32).map(|i| u32::MAX - i % 7).collect();
        for b in rsv_simd::Backend::all_available() {
            let mut t = GroupAggTable::new(5, 0.5);
            assert!(replicas_fit_l1(t.buckets(), b.lanes()));
            rsv_simd::dispatch!(b, s => { t.update_vector(s, &keys, &values) });
            let m = collect(&t);
            assert_eq!(m, reference(&keys, &values), "{}", b.name());
            assert_eq!(m.len(), 6, "{}: 5 groups and the sentinel", b.name());
            assert!(m.values().all(|&(_, sum)| sum > u64::from(u32::MAX)));
        }
    }

    #[test]
    fn vector_sum_carries_into_high_word() {
        let s = Portable::<16>::new();
        // many large values into one group: sum exceeds 2^32
        let keys = vec![42u32; 4096];
        let values = vec![u32::MAX - 3; 4096];
        let mut t = GroupAggTable::new(4, 0.5);
        t.update_vector(s, &keys, &values);
        let rows: Vec<_> = t.iter().collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], (42, 4096, 4096u64 * u64::from(u32::MAX - 3)));
    }

    #[test]
    fn incremental_updates_accumulate() {
        let s = Portable::<8>::new();
        let mut t = GroupAggTable::new(16, 0.5);
        t.update_vector(s, &[1, 2, 1, 2, 1, 2, 1, 2], &[10, 1, 10, 1, 10, 1, 10, 1]);
        t.update_scalar(&[1, 3], &[5, 7]);
        let m = collect(&t);
        assert_eq!(m[&1], (5, 45));
        assert_eq!(m[&2], (4, 4));
        assert_eq!(m[&3], (1, 7));
    }

    /// Regression: pre-fix, a full table died on an `assert!` deep in the
    /// probe loop (and with the assert removed the probe would spin
    /// forever). With `groups == buckets − 1` the scalar and vector paths
    /// must terminate, growing only for a new group.
    #[test]
    fn saturated_table_updates_terminate() {
        let mut t = GroupAggTable::new(6, 0.9);
        let buckets = t.buckets();
        // fill to exactly buckets − 1 groups (one empty bucket left)
        for k in 0..buckets as u32 - 1 {
            t.update(k, 1);
        }
        assert_eq!(t.groups(), buckets - 1);
        assert_eq!(t.buckets(), buckets, "filling must not grow yet");
        // an existing group still updates without growing
        t.update(0, 1);
        assert_eq!((t.groups(), t.buckets()), (buckets - 1, buckets));
        // a new group is absorbed via growth
        t.update(buckets as u32, 7);
        assert!(t.buckets() > buckets, "update must grow at saturation");
        assert_eq!(t.groups(), buckets);
        let m = collect(&t);
        assert_eq!(m[&0], (2, 2));
        assert_eq!(m[&(buckets as u32)], (1, 7));
    }

    #[test]
    fn vector_path_grows_at_saturation() {
        let s = Portable::<16>::new();
        // 4-bucket table, 300 distinct keys: the kernel must grow many
        // times and still aggregate exactly.
        let keys: Vec<u32> = (0..300u32).flat_map(|k| [k, k]).collect();
        let values: Vec<u32> = (0..600u32).collect();
        let mut t = GroupAggTable::new(2, 0.5);
        t.update_vector(s, &keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
        assert_eq!(t.groups(), 300);
    }

    #[test]
    fn growth_preserves_aggregates() {
        let mut rng = rsv_data::rng(74);
        let keys: Vec<u32> = rsv_data::uniform_u32(3000, &mut rng)
            .iter()
            .map(|k| k % 512)
            .collect();
        let values = rsv_data::uniform_u32(3000, &mut rng);
        // deliberately undersized: starts at ~4 buckets
        let mut t = GroupAggTable::new(2, 0.5);
        t.update_scalar(&keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
    }

    /// Keys from `domain` with every `every`-th tuple the sentinel.
    fn with_sentinels(n: usize, domain: u32, every: usize, seed: u64) -> (Vec<u32>, Vec<u32>) {
        let mut rng = rsv_data::rng(seed);
        let keys = rsv_data::uniform_u32(n, &mut rng)
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if i % every == every - 1 {
                    EMPTY_KEY
                } else {
                    k % domain
                }
            })
            .collect();
        (keys, rsv_data::uniform_u32(n, &mut rng))
    }

    #[test]
    fn sentinel_key_scalar_path() {
        let (keys, values) = with_sentinels(1000, 50, 7, 75);
        let mut t = GroupAggTable::new(50, 0.5);
        t.update_scalar(&keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
        assert_eq!(t.groups(), 51);
        assert_eq!(t.iter().last().map(|r| r.0), Some(EMPTY_KEY));
        // the side slot never needs a bucket, even in a saturated table
        let mut full = GroupAggTable::new(3, 0.9);
        for k in 0..full.buckets() as u32 - 1 {
            full.update(k, 1);
        }
        let buckets = full.buckets();
        full.update(EMPTY_KEY, 5);
        assert_eq!(full.buckets(), buckets);
        assert_eq!(collect(&full)[&EMPTY_KEY], (1, 5));
    }

    #[test]
    fn sentinel_key_vector_body() {
        // one sentinel among 64 tuples, 16 among 4,016, and a run of
        // sentinels that fills whole vectors
        let run = (
            [vec![EMPTY_KEY; 40], vec![3; 40]].concat(),
            (0..80).collect::<Vec<u32>>(),
        );
        let cases = [
            with_sentinels(64, 97, 64, 76),
            with_sentinels(4016, 97, 251, 76),
            run,
        ];
        for b in rsv_simd::Backend::all_available() {
            for (keys, values) in &cases {
                let mut t = GroupAggTable::new(97, 0.5);
                rsv_simd::dispatch!(b, s => { t.update_vector(s, keys, values) });
                assert_eq!(collect(&t), reference(keys, values), "{}", b.name());
                let counted: usize = t.iter().map(|r| r.1 as usize).sum();
                assert_eq!(counted, keys.len(), "{}: tuples lost", b.name());
            }
        }
    }

    #[test]
    fn sentinel_key_vector_tail() {
        let s = Portable::<16>::new();
        // 16 + 5 tuples: the sentinel sits in the scalar tail
        let mut keys: Vec<u32> = (0..21).map(|k| k % 6).collect();
        keys[19] = EMPTY_KEY;
        let values: Vec<u32> = (100..121).collect();
        let mut t = GroupAggTable::new(8, 0.5);
        t.update_vector(s, &keys, &values);
        assert_eq!(collect(&t), reference(&keys, &values));
        assert_eq!(collect(&t)[&EMPTY_KEY], (1, 119));
    }

    fn table_of(keys: &[u32], values: &[u32], capacity: usize) -> GroupAggTable {
        let mut t = GroupAggTable::new(capacity, 0.5);
        t.update_scalar(keys, values);
        t
    }

    #[test]
    fn merge_tables_of_different_bucket_counts() {
        let (keys, values) = with_sentinels(6000, 700, 97, 77);
        let (a, b) = (keys.split_at(2500), values.split_at(2500));
        let grown = table_of(a.1, b.1, 2); // grew from ~4 buckets
        let mut fresh = table_of(a.0, b.0, 700);
        assert_ne!(grown.buckets(), fresh.buckets());
        fresh.merge(&grown);
        assert_eq!(collect(&fresh), reference(&keys, &values));
        assert_eq!(fresh.groups(), reference(&keys, &values).len());
    }

    #[test]
    fn merge_grows_the_destination() {
        let keys: Vec<u32> = (0..2000u32).collect();
        let values: Vec<u32> = keys.iter().map(|k| k * 3).collect();
        let mut small = table_of(&keys[..3], &values[..3], 3);
        let buckets = small.buckets();
        small.merge(&table_of(&keys[3..], &values[3..], 2000));
        assert!(small.buckets() > buckets, "merge must grow");
        assert_eq!(collect(&small), reference(&keys, &values));
    }

    #[test]
    fn merge_carries_partial_sums_into_high_word() {
        let half = u32::MAX / 4 * 3; // each partial sum < 2^32, total > 2^32
        let mut a = table_of(&[9], &[half], 4);
        a.merge(&table_of(&[9, EMPTY_KEY], &[half, half], 4));
        a.merge(&table_of(&[EMPTY_KEY], &[half], 4));
        let rows = a.into_sorted_rows();
        assert_eq!(
            rows,
            vec![
                (9, 2, 2 * u64::from(half)),
                (EMPTY_KEY, 2, 2 * u64::from(half))
            ]
        );
        assert!(2 * u64::from(half) > u64::from(u32::MAX));
    }

    #[test]
    fn merge_into_empty_table_equals_source() {
        let (keys, values) = with_sentinels(3000, 400, 50, 78);
        let source = table_of(&keys, &values, 400);
        let mut empty = GroupAggTable::new(1, 0.5);
        empty.merge(&source);
        assert_eq!(empty.groups(), source.groups());
        assert_eq!(empty.into_sorted_rows(), source.into_sorted_rows());
    }

    #[test]
    fn sorted_rows_are_ascending_with_sentinel_last() {
        let (keys, values) = with_sentinels(2000, 300, 40, 79);
        let rows = table_of(&keys, &values, 300).into_sorted_rows();
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(rows.last().map(|r| r.0), Some(EMPTY_KEY));
        let mut expected: Vec<_> = reference(&keys, &values)
            .into_iter()
            .map(|(k, (c, s))| (k, c, s))
            .collect();
        expected.sort_unstable();
        assert_eq!(rows, expected);
    }

    #[test]
    fn bytes_for_matches_allocation() {
        let t = GroupAggTable::new(1000, 0.5);
        assert_eq!(GroupAggTable::bytes_for(1000, 0.5), 16 * t.buckets() as u64);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let mut rng = rsv_data::rng(73);
        let keys: Vec<u32> = rsv_data::uniform_u32(20_000, &mut rng)
            .iter()
            .map(|k| k % 1009)
            .collect();
        let values = rsv_data::uniform_u32(20_000, &mut rng);
        let expected = reference(&keys, &values);
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut t = GroupAggTable::new(1009, 0.5);
            t.update_vector(s, &keys, &values);
            assert_eq!(collect(&t), expected);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut t = GroupAggTable::new(1009, 0.5);
            t.update_vector(s, &keys, &values);
            assert_eq!(collect(&t), expected);
        }
    }
}
