//! Cuckoo hashing (paper §5.3, Algorithms 9 and 10).
//!
//! Two hash functions give every key two candidate buckets; probing is
//! worst-case two accesses, building displaces ("kicks") occupants. Cuckoo
//! tables do not support key repeats — build inputs must have unique keys.

use rsv_metrics::Metric;
use rsv_simd::{MaskLike, Simd};

use crate::sink::JoinSink;
use crate::{bucket_count, MulHash, EMPTY_KEY, EMPTY_PAIR};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// Building failed: the displacement chain exceeded the kick limit (the
/// table is too full or the hash functions cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CuckooBuildError {
    /// The tuple that could not be placed.
    pub key: u32,
    /// Its payload.
    pub payload: u32,
    /// Full-rebuild attempts consumed before giving up (0 for a single
    /// failed insert outside a build).
    pub attempts: usize,
}

impl From<CuckooBuildError> for rsv_exec::EngineError {
    fn from(e: CuckooBuildError) -> Self {
        rsv_exec::EngineError::RehashExhausted {
            attempts: e.attempts,
            key: e.key,
        }
    }
}

impl core::fmt::Display for CuckooBuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cuckoo displacement limit exceeded inserting key {:#x}",
            self.key
        )
    }
}

impl std::error::Error for CuckooBuildError {}

/// A cuckoo hash table with two hash functions and interleaved buckets.
#[derive(Debug, Clone)]
pub struct CuckooTable {
    pairs: Vec<u64>,
    h1: MulHash,
    h2: MulHash,
    len: usize,
    max_kicks: usize,
}

impl CuckooTable {
    /// A table able to hold `capacity` tuples at `load_factor` occupancy
    /// (keep ≤ 0.5 for reliable insertion with two hash functions).
    pub fn new(capacity: usize, load_factor: f64) -> Self {
        let buckets = bucket_count(capacity, load_factor);
        CuckooTable {
            pairs: vec![EMPTY_PAIR; buckets],
            h1: MulHash::nth(0),
            h2: MulHash::nth(1),
            len: 0,
            max_kicks: 64 + 4 * capacity.max(1).ilog2() as usize,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.pairs.len()
    }

    /// Number of inserted tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no tuples were inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of the bucket array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.pairs.len() * 8
    }

    /// The displacement limit per insert (bounds the
    /// `CuckooDisplacements` metric: at most `max_kicks` per key built).
    pub fn max_kicks(&self) -> usize {
        self.max_kicks
    }

    #[inline(always)]
    fn bucket1(&self, key: u32) -> usize {
        self.h1.bucket(key, self.pairs.len())
    }

    #[inline(always)]
    fn bucket2(&self, key: u32) -> usize {
        self.h2.bucket(key, self.pairs.len())
    }

    /// Insert one tuple, displacing occupants as needed. A completely full
    /// table is reported as an error (the displacement chain can never
    /// terminate), not a panic.
    pub fn try_insert(&mut self, key: u32, pay: u32) -> Result<(), CuckooBuildError> {
        assert_ne!(
            key, EMPTY_KEY,
            "key {key:#x} is the reserved empty sentinel"
        );
        if self.len >= self.pairs.len() {
            return Err(CuckooBuildError {
                key,
                payload: pay,
                attempts: 0,
            });
        }
        let mut cur = u64::from(key) | (u64::from(pay) << 32);
        let mut h = self.bucket1(key);
        let mut kicks = 0u64;
        for _ in 0..self.max_kicks {
            let occupant = self.pairs[h];
            self.pairs[h] = cur;
            if occupant as u32 == EMPTY_KEY {
                self.len += 1;
                rsv_metrics::count(Metric::CuckooDisplacements, kicks);
                return Ok(());
            }
            // Displace the occupant to its alternate bucket.
            kicks += 1;
            let ok = occupant as u32;
            let alt = if self.bucket1(ok) == h {
                self.bucket2(ok)
            } else {
                self.bucket1(ok)
            };
            cur = occupant;
            h = alt;
        }
        rsv_metrics::count(Metric::CuckooDisplacements, kicks);
        Err(CuckooBuildError {
            key: cur as u32,
            payload: (cur >> 32) as u32,
            attempts: 0,
        })
    }

    /// Number of full-rebuild attempts (with fresh hash functions) before
    /// giving up. Cuckoo hashing at its 50% load threshold occasionally
    /// needs a rehash; this is the standard remedy.
    pub const MAX_REHASH: usize = 16;

    /// Swap in a fresh pair of hash functions and clear the table.
    fn rehash_reset(&mut self, attempt: usize) {
        let salt = (attempt as u32).wrapping_mul(0x9E37_79B9);
        self.h1 = MulHash::with_factor(MulHash::nth(0).factor() ^ salt);
        self.h2 = MulHash::with_factor(MulHash::nth(1).factor() ^ salt.rotate_left(16));
        self.pairs.fill(EMPTY_PAIR);
        self.len = 0;
    }

    /// Build from columns with scalar code; keys must be unique.
    ///
    /// On a displacement failure the table is cleared, re-keyed with fresh
    /// hash functions, and rebuilt (up to a fixed number of attempts).
    pub fn build_scalar(&mut self, keys: &[u32], pays: &[u32]) -> Result<(), CuckooBuildError> {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        assert!(self.is_empty(), "build on a non-empty cuckoo table");
        let mut attempt = 0;
        'retry: loop {
            let _ = rsv_testkit::failpoint!("hashtab.cuckoo.build");
            rsv_metrics::count(Metric::CuckooKeysBuilt, keys.len() as u64);
            for (&k, &p) in keys.iter().zip(pays) {
                if let Err(e) = self.try_insert(k, p) {
                    attempt += 1;
                    if attempt >= Self::MAX_REHASH {
                        return Err(CuckooBuildError {
                            attempts: attempt,
                            ..e
                        });
                    }
                    self.rehash_reset(attempt);
                    continue 'retry;
                }
            }
            return Ok(());
        }
    }

    /// Vectorized build (paper Algorithm 10): newly loaded tuples try their
    /// first (then second) bucket; every lane scatters, the gather-back
    /// identifies the winning lane per bucket, and displaced or conflicting
    /// tuples stay in their lanes for the next iteration with the alternate
    /// hash function (`h ← h1 + h2 − h`).
    pub fn build_vertical<S: Simd>(
        &mut self,
        s: S,
        keys: &[u32],
        pays: &[u32],
    ) -> Result<(), CuckooBuildError> {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        assert!(self.is_empty(), "build on a non-empty cuckoo table");
        let mut attempt = 0;
        loop {
            let _ = rsv_testkit::failpoint!("hashtab.cuckoo.build");
            rsv_metrics::count(Metric::CuckooKeysBuilt, keys.len() as u64);
            let r = s.vectorize(
                #[inline(always)]
                || self.build_vertical_impl(s, keys, pays),
            );
            match r {
                Ok(()) => return Ok(()),
                Err(e) => {
                    attempt += 1;
                    if attempt >= Self::MAX_REHASH {
                        return Err(CuckooBuildError {
                            attempts: attempt,
                            ..e
                        });
                    }
                    self.rehash_reset(attempt);
                }
            }
        }
    }

    fn build_vertical_impl<S: Simd>(
        &mut self,
        s: S,
        keys: &[u32],
        pays: &[u32],
    ) -> Result<(), CuckooBuildError> {
        let w = S::LANES;
        let n = keys.len();
        let t = self.pairs.len();
        assert!(self.len + n < t, "hash table too small for build");
        debug_assert!(
            !keys.contains(&EMPTY_KEY),
            "empty-sentinel key in build input"
        );
        let f1 = s.splat(self.h1.factor());
        let f2 = s.splat(self.h2.factor());
        let tn = s.splat(t as u32);
        let empty = s.splat(EMPTY_KEY);
        let mut k = s.splat(EMPTY_KEY);
        let mut v = s.zero();
        let mut h = s.zero();
        let mut m = S::M::all();
        let mut kicks = 0u64;
        let mut i = 0usize;
        // Safety valve against displacement cycles: bounded iterations, then
        // fall back to scalar insertion for whatever is still in flight.
        let mut budget = 16 * (n / w + 1) + 4 * self.max_kicks;
        while i + w <= n {
            if budget == 0 {
                break;
            }
            budget -= 1;
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &pays[i..]);
            i += m.count();
            let h1 = s.mulhi(s.mullo(k, f1), tn);
            let h2 = s.mulhi(s.mullo(k, f2), tn);
            // Old tuples (displaced or conflicting) flip to their alternate
            // bucket; new tuples start at h1.
            h = s.sub(s.add(h1, h2), h);
            h = s.blend(m, h1, h);
            let (mut tk, mut tv) = s.gather_pairs(&self.pairs, h);
            // New tuples whose first bucket is occupied inspect the second.
            let second = m.and(s.cmpne(tk, empty));
            h = s.blend(second, h2, h);
            let g = s.gather_pairs_masked((tk, tv), second, &self.pairs, h);
            tk = g.0;
            tv = g.1;
            // Store or swap: every lane scatters its tuple.
            s.scatter_pairs(&mut self.pairs, h, k, v);
            let (kback, _) = s.gather_pairs(&self.pairs, h);
            // Winning lanes carry away the displaced occupant (EMPTY if the
            // bucket was free); losing lanes keep their own tuple and retry.
            // (The paper's Algorithm 10 listing prints the conflict mask as
            // `k != kback`; the winner mask `k == kback` is what makes the
            // subsequent blends consistent.)
            let won = s.cmpeq(k, kback);
            k = s.blend(won, tk, k);
            v = s.blend(won, tv, v);
            self.len += won.count();
            m = s.cmpeq(k, empty);
            // Displaced occupants were already counted when they were first
            // inserted; winning over a non-empty bucket nets zero.
            let displaced = won.and(m.not()).count();
            kicks += displaced as u64;
            self.len -= displaced;
        }
        rsv_metrics::count(Metric::CuckooDisplacements, kicks);
        // Scalar fallback: in-flight lanes, then the input tail.
        let mut ka = [0u32; MAX_LANES];
        let mut va = [0u32; MAX_LANES];
        s.store(k, &mut ka[..w]);
        s.store(v, &mut va[..w]);
        for lane in m.not().iter_set() {
            self.try_insert(ka[lane], va[lane])?;
        }
        for idx in i..n {
            self.try_insert(keys[idx], pays[idx])?;
        }
        Ok(())
    }

    /// Scalar probe, branching: inspect the second bucket only when the
    /// first missed. Emits `(key, table payload, probe payload)`.
    pub fn probe_scalar_branching(&self, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        for (&k, &p) in keys.iter().zip(pays) {
            let pair = self.pairs[self.bucket1(k)];
            if pair as u32 == k {
                out.push(k, (pair >> 32) as u32, p);
                continue;
            }
            let pair = self.pairs[self.bucket2(k)];
            if pair as u32 == k {
                out.push(k, (pair >> 32) as u32, p);
            }
        }
    }

    /// Scalar probe, branchless (Zukowski et al. \[42\]): always load both
    /// buckets and combine them with bitwise arithmetic.
    pub fn probe_scalar_branchless(&self, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        let (ok, oi, oo) = out.spare(keys.len());
        let mut j = 0usize;
        for (&k, &p) in keys.iter().zip(pays) {
            let p1 = self.pairs[self.bucket1(k)];
            let p2 = self.pairs[self.bucket2(k)];
            let m1 = (p1 as u32 == k) as u64;
            let m2 = (p2 as u32 == k) as u64;
            // Select the matching pair without branching.
            let hit = p1 * m1 + p2 * (m2 & !m1);
            ok[j] = k;
            oi[j] = (hit >> 32) as u32;
            oo[j] = p;
            j += (m1 | m2) as usize;
        }
        out.advance(j);
    }

    /// Vertical vectorized probe, *blend* variant: always gather both
    /// buckets and blend (no data-dependent control flow at all).
    pub fn probe_vertical_blend<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        s.vectorize(
            #[inline(always)]
            || self.probe_vertical_impl(s, keys, pays, out, true),
        );
    }

    /// Vertical vectorized probe (paper Algorithm 9), *select* variant:
    /// gather the second bucket selectively, only for lanes the first
    /// bucket did not match.
    pub fn probe_vertical_select<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        s.vectorize(
            #[inline(always)]
            || self.probe_vertical_impl(s, keys, pays, out, false),
        );
    }

    #[inline(always)]
    fn probe_vertical_impl<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
        blend_both: bool,
    ) {
        let w = S::LANES;
        let n = keys.len();
        let t = self.pairs.len();
        let f1 = s.splat(self.h1.factor());
        let f2 = s.splat(self.h2.factor());
        let tn = s.splat(t as u32);
        let mut i = 0usize;
        while i + w <= n {
            let k = s.load(&keys[i..]);
            let v = s.load(&pays[i..]);
            let h1 = s.mulhi(s.mullo(k, f1), tn);
            let h2 = s.mulhi(s.mullo(k, f2), tn);
            let (tk, tv);
            if blend_both {
                let (tk1, tv1) = s.gather_pairs(&self.pairs, h1);
                let (tk2, tv2) = s.gather_pairs(&self.pairs, h2);
                let m1 = s.cmpeq(tk1, k);
                tk = s.blend(m1, tk1, tk2);
                tv = s.blend(m1, tv1, tv2);
            } else {
                let (tk1, tv1) = s.gather_pairs(&self.pairs, h1);
                let miss = s.cmpne(tk1, k);
                let g = s.gather_pairs_masked((tk1, tv1), miss, &self.pairs, h2);
                tk = g.0;
                tv = g.1;
            }
            let hit = s.cmpeq(tk, k);
            if hit.any() {
                let (ok, oi, oo) = out.spare(w);
                s.selective_store(ok, hit, k);
                s.selective_store(oi, hit, tv);
                let c = s.selective_store(oo, hit, v);
                out.advance(c);
            }
            i += w;
        }
        // Scalar tail.
        for idx in i..n {
            let k = keys[idx];
            let pair = self.pairs[self.bucket1(k)];
            if pair as u32 == k {
                out.push(k, (pair >> 32) as u32, pays[idx]);
                continue;
            }
            let pair = self.pairs[self.bucket2(k)];
            if pair as u32 == k {
                out.push(k, (pair >> 32) as u32, pays[idx]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    fn workload(nb: usize, np: usize, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut rng = rsv_data::rng(seed);
        let bk = rsv_data::unique_u32(nb, &mut rng);
        let bp: Vec<u32> = (0..nb as u32).collect();
        let pk: Vec<u32> = (0..np)
            .map(|i| {
                if i % 5 == 4 {
                    bk[i % nb] ^ 0x0F0F_0F0F
                } else {
                    bk[(i * 3) % nb]
                }
            })
            .collect();
        let pp: Vec<u32> = (0..np as u32).collect();
        (bk, bp, pk, pp)
    }

    fn reference(bk: &[u32], bp: &[u32], pk: &[u32], pp: &[u32]) -> Vec<(u32, u32, u32)> {
        let map: HashMap<u32, u32> = bk.iter().copied().zip(bp.iter().copied()).collect();
        let mut out: Vec<_> = pk
            .iter()
            .zip(pp)
            .filter_map(|(&k, &p)| map.get(&k).map(|&b| (k, b, p)))
            .collect();
        out.sort_unstable();
        out
    }

    fn sorted_rows(sink: &JoinSink) -> Vec<(u32, u32, u32)> {
        let mut rows: Vec<_> = sink.iter().collect();
        rows.sort_unstable();
        rows
    }

    #[test]
    fn scalar_build_and_probe_variants_agree() {
        let (bk, bp, pk, pp) = workload(400, 2000, 21);
        let mut t = CuckooTable::new(bk.len(), 0.5);
        t.build_scalar(&bk, &bp).unwrap();
        assert_eq!(t.len(), bk.len());
        let expected = reference(&bk, &bp, &pk, &pp);

        let mut s1 = JoinSink::with_capacity(0);
        t.probe_scalar_branching(&pk, &pp, &mut s1);
        assert_eq!(sorted_rows(&s1), expected);

        let mut s2 = JoinSink::with_capacity(0);
        t.probe_scalar_branchless(&pk, &pp, &mut s2);
        assert_eq!(sorted_rows(&s2), expected);
    }

    #[test]
    fn vertical_probe_variants_match_scalar() {
        let s = Portable::<16>::new();
        let (bk, bp, pk, pp) = workload(333, 1999, 22);
        let mut t = CuckooTable::new(bk.len(), 0.5);
        t.build_scalar(&bk, &bp).unwrap();
        let expected = reference(&bk, &bp, &pk, &pp);

        let mut s1 = JoinSink::with_capacity(0);
        t.probe_vertical_blend(s, &pk, &pp, &mut s1);
        assert_eq!(sorted_rows(&s1), expected);

        let mut s2 = JoinSink::with_capacity(0);
        t.probe_vertical_select(s, &pk, &pp, &mut s2);
        assert_eq!(sorted_rows(&s2), expected);
    }

    #[test]
    fn vertical_build_matches_scalar_build() {
        let s = Portable::<16>::new();
        for (nb, np) in [(100, 500), (40, 40), (1000, 2000)] {
            let (bk, bp, pk, pp) = workload(nb, np, 23);
            let mut t = CuckooTable::new(bk.len(), 0.5);
            t.build_vertical(s, &bk, &bp).unwrap();
            assert_eq!(t.len(), bk.len(), "len mismatch nb={nb}");
            let expected = reference(&bk, &bp, &pk, &pp);
            let mut sink = JoinSink::with_capacity(0);
            t.probe_scalar_branching(&pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected, "nb={nb} np={np}");
        }
    }

    /// 2,000 spread odd keys at load 0.97, far past cuckoo's two-choice
    /// threshold, exhaust every rehash attempt on the scalar build and on
    /// the vertical build of every backend, and the engine sees a typed
    /// `RehashExhausted`.
    #[test]
    fn rehash_exhaustion_is_a_typed_error() {
        let keys: Vec<u32> = (1..=2_000u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9) | 1)
            .collect();
        let pays: Vec<u32> = keys.iter().map(|k| !k).collect();
        let build = |t: &mut CuckooTable, b: Option<rsv_simd::Backend>| match b {
            None => t.build_scalar(&keys, &pays),
            Some(b) => rsv_simd::dispatch!(b, s => { t.build_vertical(s, &keys, &pays) }),
        };
        let kernels =
            std::iter::once(None).chain(rsv_simd::Backend::all_available().into_iter().map(Some));
        for b in kernels {
            let err = build(&mut CuckooTable::new(keys.len(), 0.97), b).unwrap_err();
            assert_eq!(err.attempts, CuckooTable::MAX_REHASH, "{b:?}");
            assert!(
                matches!(
                    rsv_exec::EngineError::from(err),
                    rsv_exec::EngineError::RehashExhausted { attempts: 16, .. }
                ),
                "{b:?}"
            );
        }
    }

    /// Keys 1..=1000 at load 0.5 build on every kernel, and every key
    /// probes back to its payload.
    #[test]
    fn healthy_load_builds_and_probes_back() {
        let keys: Vec<u32> = (1..=1_000u32).collect();
        let pays: Vec<u32> = keys.iter().map(|k| k * 7).collect();
        let expected: Vec<_> = keys.iter().map(|&k| (k, k * 7, k)).collect();
        let mut t = CuckooTable::new(keys.len(), 0.5);
        t.build_scalar(&keys, &pays).unwrap();
        let mut sink = JoinSink::with_capacity(0);
        t.probe_scalar_branching(&keys, &keys, &mut sink);
        assert_eq!(sorted_rows(&sink), expected, "scalar");
        for b in rsv_simd::Backend::all_available() {
            let mut t = CuckooTable::new(keys.len(), 0.5);
            let mut sink = JoinSink::with_capacity(0);
            rsv_simd::dispatch!(b, s => {
                t.build_vertical(s, &keys, &pays).unwrap();
                t.probe_vertical_select(s, &keys, &keys, &mut sink);
            });
            assert_eq!(sorted_rows(&sink), expected, "{}", b.name());
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let (bk, bp, pk, pp) = workload(512, 4096, 29);
        let expected = reference(&bk, &bp, &pk, &pp);
        if let Some(s) = rsv_simd::Avx512::new() {
            let mut t = CuckooTable::new(bk.len(), 0.5);
            t.build_vertical(s, &bk, &bp).unwrap();
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical_select(s, &pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected);
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical_blend(s, &pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut t = CuckooTable::new(bk.len(), 0.5);
            t.build_vertical(s, &bk, &bp).unwrap();
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical_select(s, &pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected);
        }
    }
}
