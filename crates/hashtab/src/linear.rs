//! Linear probing (§5.1) and double hashing (§5.2) tables with scalar and
//! vertically vectorized build/probe.

use rsv_metrics::Metric;
use rsv_simd::{KernelKind, MaskLike, Simd};

use crate::sink::JoinSink;
use crate::{bucket_count, next_prime, MulHash, EMPTY_KEY, EMPTY_PAIR};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// An open-addressing hash table with **linear probing** and interleaved
/// key/payload buckets (paper §5.1).
#[derive(Debug, Clone)]
pub struct LinearTable {
    pairs: Vec<u64>,
    hash: MulHash,
    len: usize,
}

impl LinearTable {
    /// A table able to hold `capacity` tuples at `load_factor` occupancy.
    pub fn new(capacity: usize, load_factor: f64) -> Self {
        Self::with_hash(capacity, load_factor, MulHash::nth(0))
    }

    /// As [`LinearTable::new`] with a caller-chosen hash function.
    pub fn with_hash(capacity: usize, load_factor: f64, hash: MulHash) -> Self {
        let buckets = bucket_count(capacity, load_factor);
        LinearTable {
            pairs: vec![EMPTY_PAIR; buckets],
            hash,
            len: 0,
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

    /// Size of the table's bucket array in bytes (the paper's x-axis in
    /// Figures 6 and 7).
    pub fn size_bytes(&self) -> usize {
        self.pairs.len() * 8
    }

    #[inline(always)]
    fn check_space(&self) {
        assert!(self.len < self.pairs.len(), "hash table is full");
    }

    /// Insert one tuple (paper Algorithm 6 inner loop), starting `offset`
    /// buckets past the hash bucket (used to resume vector-lane probes).
    #[inline]
    fn insert_from(&mut self, key: u32, pay: u32, offset: usize) {
        self.check_space();
        lp_insert_raw(&mut self.pairs, self.hash, key, pay, offset);
        self.len += 1;
    }

    /// Insert one tuple (paper Algorithm 6).
    pub fn insert(&mut self, key: u32, pay: u32) {
        self.insert_from(key, pay, 0);
    }

    /// Fallible [`LinearTable::insert`]: a full table is reported as
    /// [`rsv_exec::EngineError::TableFull`] instead of panicking.
    pub fn try_insert(&mut self, key: u32, pay: u32) -> Result<(), rsv_exec::EngineError> {
        if self.len >= self.pairs.len() {
            return Err(rsv_exec::EngineError::TableFull {
                len: self.len,
                buckets: self.pairs.len(),
            });
        }
        lp_insert_raw(&mut self.pairs, self.hash, key, pay, 0);
        self.len += 1;
        Ok(())
    }

    /// Build the table from columns with scalar code (Algorithm 6).
    pub fn build_scalar(&mut self, keys: &[u32], pays: &[u32]) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        rsv_metrics::count(Metric::LpKeysBuilt, keys.len() as u64);
        for (&k, &p) in keys.iter().zip(pays) {
            self.insert(k, p);
        }
    }

    /// Fallible [`LinearTable::build_scalar`]: rejects inputs that do not
    /// leave at least one bucket free (the probe loop's termination
    /// guarantee) with [`rsv_exec::EngineError::TableFull`].
    pub fn try_build_scalar(
        &mut self,
        keys: &[u32],
        pays: &[u32],
    ) -> Result<(), rsv_exec::EngineError> {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        let _ = rsv_testkit::failpoint!("hashtab.lp.build");
        if self.len + keys.len() >= self.pairs.len() {
            return Err(rsv_exec::EngineError::TableFull {
                len: self.len + keys.len(),
                buckets: self.pairs.len(),
            });
        }
        rsv_metrics::count(Metric::LpKeysBuilt, keys.len() as u64);
        for (&k, &p) in keys.iter().zip(pays) {
            lp_insert_raw(&mut self.pairs, self.hash, k, p, 0);
            self.len += 1;
        }
        Ok(())
    }

    /// Scalar probe (paper Algorithm 4): for every probe tuple, walk the
    /// chain and emit all matches.
    pub fn probe_scalar(&self, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        let _ = rsv_testkit::failpoint!("hashtab.lp.probe");
        lp_probe_raw(
            KernelKind::SCALAR,
            &self.pairs,
            self.hash,
            keys,
            pays,
            false,
            out,
        );
    }

    /// Vertically vectorized build (paper Algorithm 7): a different input
    /// tuple per lane; gathers check for empty buckets, scatters insert,
    /// and a scatter/gather-back round detects lane conflicts.
    pub fn build_vertical<S: Simd>(&mut self, s: S, keys: &[u32], pays: &[u32]) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        assert!(
            self.len + keys.len() < self.pairs.len(),
            "hash table too small for build"
        );
        lp_build_raw(
            KernelKind::Vector(s),
            &mut self.pairs,
            self.hash,
            keys,
            pays,
        );
        self.len += keys.len();
    }

    /// Vertically vectorized probe (paper Algorithm 5): a different probe
    /// key per lane; finished lanes are selectively reloaded from the input
    /// so every lane stays busy ("out-of-order" probing — the output order
    /// differs from the input order). This is the one-strand case of
    /// [`lp_probe_vertical_strands_raw`].
    pub fn probe_vertical<S: Simd>(&self, s: S, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        let _ = rsv_testkit::failpoint!("hashtab.lp.probe");
        lp_probe_vertical_strands_raw::<S, 1>(s, &self.pairs, self.hash, keys, pays, false, out);
    }

    /// Vertically vectorized probe with four interleaved probe states (see
    /// [`lp_probe_vertical_strands_raw`]) — the software analogue of the
    /// 4-way SMT the paper's Xeon Phi uses to hide gather latency.
    pub fn probe_vertical_interleaved<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        lp_probe_vertical_strands_raw::<S, 4>(s, &self.pairs, self.hash, keys, pays, false, out);
    }
}

/// An open-addressing hash table with **double hashing** (paper §5.2,
/// Algorithm 8): collisions step by a second, key-dependent hash so repeats
/// of one key do not cluster. The bucket count is prime so the probe
/// sequence visits every bucket.
#[derive(Debug, Clone)]
pub struct DoubleHashTable {
    pairs: Vec<u64>,
    h1: MulHash,
    h2: MulHash,
    len: usize,
}

impl DoubleHashTable {
    /// A table able to hold `capacity` tuples at `load_factor` occupancy.
    pub fn new(capacity: usize, load_factor: f64) -> Self {
        Self::with_hashes(capacity, load_factor, MulHash::nth(0), MulHash::nth(1))
    }

    /// As [`DoubleHashTable::new`] with caller-chosen hash functions.
    pub fn with_hashes(capacity: usize, load_factor: f64, h1: MulHash, h2: MulHash) -> Self {
        let buckets = next_prime(bucket_count(capacity, load_factor));
        DoubleHashTable {
            pairs: vec![EMPTY_PAIR; buckets],
            h1,
            h2,
            len: 0,
        }
    }

    /// Number of buckets (prime).
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

    /// The step of `key`'s probe sequence: `1 + mulhi(k·f2, |T|-1) ∈ [1, |T|-1]`.
    #[inline(always)]
    fn step(&self, key: u32) -> usize {
        1 + self.h2.bucket(key, self.pairs.len() - 1)
    }

    /// Insert one tuple.
    pub fn insert(&mut self, key: u32, pay: u32) {
        assert_ne!(
            key, EMPTY_KEY,
            "key {key:#x} is the reserved empty sentinel"
        );
        assert!(self.len < self.pairs.len(), "hash table is full");
        let t = self.pairs.len();
        let mut h = self.h1.bucket(key, t);
        let step = self.step(key);
        while self.pairs[h] as u32 != EMPTY_KEY {
            h += step;
            if h >= t {
                h -= t;
            }
        }
        self.pairs[h] = u64::from(key) | (u64::from(pay) << 32);
        self.len += 1;
    }

    /// Build the table from columns with scalar code.
    pub fn build_scalar(&mut self, keys: &[u32], pays: &[u32]) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        rsv_metrics::count(Metric::LpKeysBuilt, keys.len() as u64);
        for (&k, &p) in keys.iter().zip(pays) {
            self.insert(k, p);
        }
    }

    /// Probe one key starting at bucket `h` (or its first bucket if `h` is
    /// `None`), emitting `(key, table payload, probe payload)` matches.
    #[inline]
    fn probe_one_from(&self, key: u32, pay: u32, h: Option<usize>, out: &mut JoinSink) {
        let t = self.pairs.len();
        let step = self.step(key);
        let mut h = h.unwrap_or_else(|| self.h1.bucket(key, t));
        let mut steps = 0u64;
        loop {
            let pair = self.pairs[h];
            steps += 1;
            let tk = pair as u32;
            if tk == EMPTY_KEY {
                break;
            }
            if tk == key {
                out.push(key, (pair >> 32) as u32, pay);
            }
            h += step;
            if h >= t {
                h -= t;
            }
        }
        rsv_metrics::count(Metric::DhProbes, steps);
    }

    /// Scalar probe.
    pub fn probe_scalar(&self, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        rsv_metrics::count(Metric::DhKeysProbed, keys.len() as u64);
        for (&k, &p) in keys.iter().zip(pays) {
            self.probe_one_from(k, p, None, out);
        }
    }

    /// Vertically vectorized probe using the paper's double hashing
    /// function (Algorithm 8 embedded in the Algorithm 5 probe loop).
    pub fn probe_vertical<S: Simd>(&self, s: S, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        s.vectorize(
            #[inline(always)]
            || self.probe_vertical_impl(s, keys, pays, out),
        );
    }

    fn probe_vertical_impl<S: Simd>(&self, s: S, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        let w = S::LANES;
        let n = keys.len();
        let t = self.pairs.len();
        rsv_metrics::count(Metric::DhKeysProbed, n as u64);
        let f1 = s.splat(self.h1.factor());
        let f2 = s.splat(self.h2.factor());
        let tn = s.splat(t as u32);
        let tn1 = s.splat(t as u32 - 1);
        let empty = s.splat(EMPTY_KEY);
        let one = s.splat(1);
        let mut k = s.zero();
        let mut v = s.zero();
        let mut h = s.zero();
        let mut m = S::M::all();
        let mut probes = 0u64;
        let mut i = 0usize;
        while i + w <= n {
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &pays[i..]);
            i += m.count();
            // Algorithm 8: new lanes hash with f1 into [0, |T|); old lanes
            // advance by 1 + mulhi(k·f2, |T|-1).
            let fl = s.blend(m, f1, f2);
            let fh = s.blend(m, tn, tn1);
            h = s.blend(m, s.zero(), s.add(h, one));
            h = s.add(h, s.mulhi(s.mullo(k, fl), fh));
            let over = s.cmpge(h, tn);
            h = s.blend(over, s.sub(h, tn), h);
            let (tk, tv) = s.gather_pairs(&self.pairs, h);
            probes += w as u64;
            m = s.cmpeq(tk, empty);
            let hit = m.andnot(s.cmpeq(tk, k));
            if hit.any() {
                let (ok, oi, oo) = out.spare(w);
                s.selective_store(ok, hit, k);
                s.selective_store(oi, hit, tv);
                let c = s.selective_store(oo, hit, v);
                out.advance(c);
            }
        }
        rsv_metrics::count(Metric::DhProbes, probes);
        let mut ka = [0u32; MAX_LANES];
        let mut va = [0u32; MAX_LANES];
        let mut ha = [0u32; MAX_LANES];
        s.store(k, &mut ka[..w]);
        s.store(v, &mut va[..w]);
        s.store(h, &mut ha[..w]);
        for lane in m.not().iter_set() {
            // Resume from the *next* bucket of this lane's sequence.
            let t = self.pairs.len();
            let mut hh = ha[lane] as usize + self.step(ka[lane]);
            if hh >= t {
                hh -= t;
            }
            self.probe_one_from(ka[lane], va[lane], Some(hh), out);
        }
        for idx in i..n {
            self.probe_one_from(keys[idx], pays[idx], None, out);
        }
    }

    /// Vertically vectorized probe with four interleaved probe states —
    /// the software analogue of the 4-way SMT the paper's Xeon Phi uses to
    /// hide gather latency (see [`lp_probe_vertical_strands_raw`]).
    pub fn probe_vertical_interleaved<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        dh_probe_vertical_strands_raw::<S, 4>(s, &self.pairs, self.h1, self.h2, keys, pays, out);
    }

    /// Vertically vectorized build (Algorithm 7 with the Algorithm 8 hash).
    pub fn build_vertical<S: Simd>(&mut self, s: S, keys: &[u32], pays: &[u32]) {
        assert_eq!(keys.len(), pays.len(), "column length mismatch");
        rsv_metrics::count(Metric::LpKeysBuilt, keys.len() as u64);
        s.vectorize(
            #[inline(always)]
            || self.build_vertical_impl(s, keys, pays),
        );
    }

    fn build_vertical_impl<S: Simd>(&mut self, s: S, keys: &[u32], pays: &[u32]) {
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
        let tn1 = s.splat(t as u32 - 1);
        let empty = s.splat(EMPTY_KEY);
        let one = s.splat(1);
        let lane_ids = s.iota();
        let mut k = s.zero();
        let mut v = s.zero();
        let mut h = s.zero();
        let mut m = S::M::all();
        let mut retries = 0u64;
        let mut i = 0usize;
        while i + w <= n {
            k = s.selective_load(k, m, &keys[i..]);
            v = s.selective_load(v, m, &pays[i..]);
            i += m.count();
            let fl = s.blend(m, f1, f2);
            let fh = s.blend(m, tn, tn1);
            h = s.blend(m, s.zero(), s.add(h, one));
            h = s.add(h, s.mulhi(s.mullo(k, fl), fh));
            let over = s.cmpge(h, tn);
            h = s.blend(over, s.sub(h, tn), h);
            let (tk, _) = s.gather_pairs(&self.pairs, h);
            let empt = s.cmpeq(tk, empty);
            s.scatter_pairs_masked(&mut self.pairs, empt, h, lane_ids, s.zero());
            let (back, _) = s.gather_pairs_masked((s.zero(), s.zero()), empt, &self.pairs, h);
            let ok = empt.and(s.cmpeq(back, lane_ids));
            s.scatter_pairs_masked(&mut self.pairs, ok, h, k, v);
            retries += (empt.count() - ok.count()) as u64;
            self.len += ok.count();
            m = ok;
        }
        rsv_metrics::count(Metric::LpBuildConflictRetries, retries);
        let mut ka = [0u32; MAX_LANES];
        let mut va = [0u32; MAX_LANES];
        let mut ha = [0u32; MAX_LANES];
        s.store(k, &mut ka[..w]);
        s.store(v, &mut va[..w]);
        s.store(h, &mut ha[..w]);
        for lane in m.not().iter_set() {
            // Continue this lane's probe sequence from its next bucket.
            let key = ka[lane];
            let step = self.step(key);
            let mut hh = ha[lane] as usize;
            loop {
                hh += step;
                if hh >= t {
                    hh -= t;
                }
                if self.pairs[hh] as u32 == EMPTY_KEY {
                    self.pairs[hh] = u64::from(key) | (u64::from(va[lane]) << 32);
                    self.len += 1;
                    break;
                }
            }
        }
        for idx in i..n {
            self.insert(keys[idx], pays[idx]);
        }
    }
}

// ---------------------------------------------------------------------
// Raw linear-probing kernels over externally managed bucket arrays.
//
// The partitioned join variants (Section 9) manage many sub-tables inside
// one allocation; these free functions run the same Algorithms 4–7 over a
// caller-provided interleaved bucket slice.
// ---------------------------------------------------------------------

/// Scalar insert (Algorithm 6 inner loop) starting `offset` buckets past
/// the hash bucket. Returns `true` if the walk passed a bucket that already
/// holds `key`.
///
/// Buckets never empty again, so of two equal keys the later insert always
/// walks over the earlier one: a build whose inserts all return `false` is
/// duplicate-free.
///
/// # Panics
/// If `key` is the empty sentinel. The caller must guarantee at least one
/// empty bucket remains or the probe loop will not terminate.
#[inline]
pub fn lp_insert_raw(pairs: &mut [u64], hash: MulHash, key: u32, pay: u32, offset: usize) -> bool {
    assert_ne!(
        key, EMPTY_KEY,
        "key {key:#x} is the reserved empty sentinel"
    );
    let t = pairs.len();
    let mut h = hash.bucket(key, t) + offset;
    if h >= t {
        h -= t;
    }
    let mut dup = false;
    loop {
        let tk = pairs[h] as u32;
        if tk == EMPTY_KEY {
            break;
        }
        dup |= tk == key;
        h += 1;
        if h == t {
            h = 0;
        }
    }
    pairs[h] = u64::from(key) | (u64::from(pay) << 32);
    dup
}

/// Scalar probe of one key (Algorithm 4 inner loop), resuming `offset`
/// buckets into its chain. On a `unique` (duplicate-free) table the walk
/// stops at the key's match; otherwise it emits every match up to the
/// first empty bucket.
#[inline]
pub fn lp_probe_one_raw(
    pairs: &[u64],
    hash: MulHash,
    key: u32,
    pay: u32,
    offset: usize,
    unique: bool,
    out: &mut JoinSink,
) {
    let t = pairs.len();
    let mut h = hash.bucket(key, t) + offset;
    if h >= t {
        h -= t;
    }
    let mut steps = 0u64;
    loop {
        let pair = pairs[h];
        steps += 1;
        let tk = pair as u32;
        if tk == EMPTY_KEY {
            break;
        }
        if tk == key {
            out.push(key, (pair >> 32) as u32, pay);
            if unique {
                break;
            }
        }
        h += 1;
        if h == t {
            h = 0;
        }
    }
    rsv_metrics::count(Metric::LpProbes, steps);
}

/// Build into a raw bucket slice with `kind`'s kernel: scalar
/// (Algorithm 6) or vertically vectorized (Algorithm 7). The caller must
/// leave at least one bucket empty. Returns `true` if the keys are
/// duplicate-free, which lets [`lp_probe_raw`] retire a key at its match.
pub fn lp_build_raw<S: Simd>(
    kind: KernelKind<S>,
    pairs: &mut [u64],
    hash: MulHash,
    keys: &[u32],
    pays: &[u32],
) -> bool {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(keys.len() < pairs.len(), "bucket slice too small for build");
    rsv_metrics::count(Metric::LpKeysBuilt, keys.len() as u64);
    match kind {
        KernelKind::Scalar => {
            let mut dup = false;
            for (&k, &p) in keys.iter().zip(pays) {
                dup |= lp_insert_raw(pairs, hash, k, p, 0);
            }
            !dup
        }
        KernelKind::Vector(s) => build_vertical_raw(s, pairs, hash, keys, pays),
    }
}

/// Probe a raw bucket slice with `kind`'s kernel: scalar (Algorithm 4) or
/// vertically vectorized in four strands
/// ([`lp_probe_vertical_strands_raw`]). `unique` is [`lp_build_raw`]'s
/// flag: on a duplicate-free table a key stops at its match, otherwise it
/// walks to the first empty bucket.
pub fn lp_probe_raw<S: Simd>(
    kind: KernelKind<S>,
    pairs: &[u64],
    hash: MulHash,
    keys: &[u32],
    pays: &[u32],
    unique: bool,
    out: &mut JoinSink,
) {
    match kind {
        KernelKind::Scalar => {
            assert_eq!(keys.len(), pays.len(), "column length mismatch");
            rsv_metrics::count(Metric::LpKeysProbed, keys.len() as u64);
            for (&k, &p) in keys.iter().zip(pays) {
                lp_probe_one_raw(pairs, hash, k, p, 0, unique, out);
            }
        }
        KernelKind::Vector(s) => {
            lp_probe_vertical_strands_raw::<S, 4>(s, pairs, hash, keys, pays, unique, out)
        }
    }
}

/// The body of [`lp_build_raw`]'s vector kernel; returns its
/// duplicate-free flag. A lane compares every occupied bucket it gathers
/// with its key, and a lane that loses an empty bucket to another lane
/// gathers the winner's key and compares that too, so no bucket a lane
/// walks past goes unchecked.
fn build_vertical_raw<S: Simd>(
    s: S,
    pairs: &mut [u64],
    hash: MulHash,
    keys: &[u32],
    pays: &[u32],
) -> bool {
    debug_assert!(
        !keys.contains(&EMPTY_KEY),
        "empty-sentinel key in build input"
    );
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let n = keys.len();
            let t = pairs.len();
            let f = s.splat(hash.factor());
            let tn = s.splat(t as u32);
            let empty = s.splat(EMPTY_KEY);
            let one = s.splat(1);
            let lane_ids = s.iota();
            let mut k = s.zero();
            let mut v = s.zero();
            let mut o = s.zero();
            let mut m = S::M::all();
            let mut dup = S::M::none();
            let mut retries = 0u64;
            let mut i = 0usize;
            while i + w <= n {
                k = s.selective_load(k, m, &keys[i..]);
                v = s.selective_load(v, m, &pays[i..]);
                i += m.count();
                let mut h = s.add(s.mulhi(s.mullo(k, f), tn), o);
                let over = s.cmpge(h, tn);
                h = s.blend(over, s.sub(h, tn), h);
                let (tk, _) = s.gather_pairs(pairs, h);
                let empt = s.cmpeq(tk, empty);
                dup = dup.or(empt.andnot(s.cmpeq(tk, k)));
                // conflict detection: scatter unique lane ids, gather back
                s.scatter_pairs_masked(pairs, empt, h, lane_ids, s.zero());
                let (back, _) = s.gather_pairs_masked((s.zero(), s.zero()), empt, pairs, h);
                let ok = empt.and(s.cmpeq(back, lane_ids));
                s.scatter_pairs_masked(pairs, ok, h, k, v);
                let lost = ok.andnot(empt);
                if lost.any() {
                    let (won, _) = s.gather_pairs_masked((s.zero(), s.zero()), lost, pairs, h);
                    dup = dup.or(lost.and(s.cmpeq(won, k)));
                }
                retries += lost.count() as u64;
                o = s.blend(ok, s.zero(), s.add(o, one));
                m = ok;
            }
            rsv_metrics::count(Metric::LpBuildConflictRetries, retries);
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            let mut oa = [0u32; MAX_LANES];
            s.store(k, &mut ka[..w]);
            s.store(v, &mut va[..w]);
            s.store(o, &mut oa[..w]);
            let mut scalar_dup = false;
            for lane in m.not().iter_set() {
                scalar_dup |= lp_insert_raw(pairs, hash, ka[lane], va[lane], oa[lane] as usize);
            }
            for idx in i..n {
                scalar_dup |= lp_insert_raw(pairs, hash, keys[idx], pays[idx], 0);
            }
            !(scalar_dup || dup.any())
        },
    )
}

/// Vertically vectorized probe (paper Algorithm 5) with `STRANDS`
/// interleaved, independent probe states. `STRANDS = 1` is Algorithm 5
/// itself: a different probe key per lane, finished lanes selectively
/// reloaded from the input so every lane stays busy ("out-of-order"
/// probing — the output order differs from the input order).
///
/// One strand is latency-bound on out-of-order CPUs: the selective
/// reload's input cursor depends on the previous iteration's gather,
/// serializing the loop. The paper's Xeon Phi hides that chain with 4-way
/// SMT; a single modern core can do the same in software by probing
/// `STRANDS` input chunks in lockstep so several gathers are in flight at
/// once (an *extension* of the paper).
///
/// On a `unique` (duplicate-free) table a lane retires at its match;
/// otherwise it retires at the first empty bucket.
pub fn lp_probe_vertical_strands_raw<S: Simd, const STRANDS: usize>(
    s: S,
    pairs: &[u64],
    hash: MulHash,
    keys: &[u32],
    pays: &[u32],
    unique: bool,
    out: &mut JoinSink,
) {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(STRANDS >= 1);
    rsv_metrics::count(Metric::LpKeysProbed, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let n = keys.len();
            let t = pairs.len();
            let f = s.splat(hash.factor());
            let tn = s.splat(t as u32);
            let empty = s.splat(EMPTY_KEY);
            let one = s.splat(1);
            let mut probes = 0u64;
            // per-strand state over contiguous input chunks
            let chunk = n / STRANDS;
            let mut k = [s.zero(); STRANDS];
            let mut v = [s.zero(); STRANDS];
            let mut o = [s.zero(); STRANDS];
            let mut m = [S::M::all(); STRANDS];
            let mut cur = [0usize; STRANDS];
            let mut end = [0usize; STRANDS];
            for st in 0..STRANDS {
                cur[st] = st * chunk;
                end[st] = if st + 1 == STRANDS {
                    n
                } else {
                    (st + 1) * chunk
                };
            }
            let mut live = STRANDS;
            while live > 0 {
                live = 0;
                for st in 0..STRANDS {
                    if cur[st] + w > end[st] {
                        continue;
                    }
                    live += 1;
                    k[st] = s.selective_load(k[st], m[st], &keys[cur[st]..]);
                    v[st] = s.selective_load(v[st], m[st], &pays[cur[st]..]);
                    cur[st] += m[st].count();
                    let mut h = s.add(s.mulhi(s.mullo(k[st], f), tn), o[st]);
                    let over = s.cmpge(h, tn);
                    h = s.blend(over, s.sub(h, tn), h);
                    let (tk, tv) = s.gather_pairs(pairs, h);
                    probes += w as u64;
                    m[st] = s.cmpeq(tk, empty);
                    let hit = m[st].andnot(s.cmpeq(tk, k[st]));
                    if hit.any() {
                        let (ok, oi, oo) = out.spare(w);
                        s.selective_store(ok, hit, k[st]);
                        s.selective_store(oi, hit, tv);
                        let c = s.selective_store(oo, hit, v[st]);
                        out.advance(c);
                    }
                    if unique {
                        m[st] = m[st].or(hit);
                    }
                    o[st] = s.blend(m[st], s.zero(), s.add(o[st], one));
                }
            }
            rsv_metrics::count(Metric::LpProbes, probes);
            // drain in-flight lanes and chunk tails with scalar code
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            let mut oa = [0u32; MAX_LANES];
            for st in 0..STRANDS {
                s.store(k[st], &mut ka[..w]);
                s.store(v[st], &mut va[..w]);
                s.store(o[st], &mut oa[..w]);
                for lane in m[st].not().iter_set() {
                    let (key, pay, off) = (ka[lane], va[lane], oa[lane] as usize);
                    lp_probe_one_raw(pairs, hash, key, pay, off, unique, out);
                }
                for idx in cur[st]..end[st] {
                    lp_probe_one_raw(pairs, hash, keys[idx], pays[idx], 0, unique, out);
                }
            }
        },
    );
}

/// Vertically vectorized **double hashing** probe with `STRANDS`
/// interleaved probe states — see [`lp_probe_vertical_strands_raw`].
pub fn dh_probe_vertical_strands_raw<S: Simd, const STRANDS: usize>(
    s: S,
    pairs: &[u64],
    h1: MulHash,
    h2: MulHash,
    keys: &[u32],
    pays: &[u32],
    out: &mut JoinSink,
) {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(STRANDS >= 1);
    rsv_metrics::count(Metric::DhKeysProbed, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let n = keys.len();
            let t = pairs.len();
            let mut probes = 0u64;
            let f1 = s.splat(h1.factor());
            let f2 = s.splat(h2.factor());
            let tn = s.splat(t as u32);
            let tn1 = s.splat(t as u32 - 1);
            let empty = s.splat(EMPTY_KEY);
            let one = s.splat(1);
            let chunk = n / STRANDS;
            let mut k = [s.zero(); STRANDS];
            let mut v = [s.zero(); STRANDS];
            let mut h = [s.zero(); STRANDS];
            let mut m = [S::M::all(); STRANDS];
            let mut cur = [0usize; STRANDS];
            let mut end = [0usize; STRANDS];
            for st in 0..STRANDS {
                cur[st] = st * chunk;
                end[st] = if st + 1 == STRANDS {
                    n
                } else {
                    (st + 1) * chunk
                };
            }
            let mut live = STRANDS;
            while live > 0 {
                live = 0;
                for st in 0..STRANDS {
                    if cur[st] + w > end[st] {
                        continue;
                    }
                    live += 1;
                    k[st] = s.selective_load(k[st], m[st], &keys[cur[st]..]);
                    v[st] = s.selective_load(v[st], m[st], &pays[cur[st]..]);
                    cur[st] += m[st].count();
                    // Algorithm 8 hash update
                    let fl = s.blend(m[st], f1, f2);
                    let fh = s.blend(m[st], tn, tn1);
                    h[st] = s.blend(m[st], s.zero(), s.add(h[st], one));
                    h[st] = s.add(h[st], s.mulhi(s.mullo(k[st], fl), fh));
                    let over = s.cmpge(h[st], tn);
                    h[st] = s.blend(over, s.sub(h[st], tn), h[st]);
                    let (tk, tv) = s.gather_pairs(pairs, h[st]);
                    probes += w as u64;
                    m[st] = s.cmpeq(tk, empty);
                    let hit = m[st].andnot(s.cmpeq(tk, k[st]));
                    if hit.any() {
                        let (ok, oi, oo) = out.spare(w);
                        s.selective_store(ok, hit, k[st]);
                        s.selective_store(oi, hit, tv);
                        let c = s.selective_store(oo, hit, v[st]);
                        out.advance(c);
                    }
                }
            }
            // drain: continue each pending lane's probe sequence scalar
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            let mut ha = [0u32; MAX_LANES];
            for st in 0..STRANDS {
                s.store(k[st], &mut ka[..w]);
                s.store(v[st], &mut va[..w]);
                s.store(h[st], &mut ha[..w]);
                for lane in m[st].not().iter_set() {
                    let key = ka[lane];
                    let step = 1 + h2.bucket(key, t - 1);
                    let mut hh = ha[lane] as usize + step;
                    if hh >= t {
                        hh -= t;
                    }
                    loop {
                        let pair = pairs[hh];
                        probes += 1;
                        let tk = pair as u32;
                        if tk == EMPTY_KEY {
                            break;
                        }
                        if tk == key {
                            out.push(key, (pair >> 32) as u32, va[lane]);
                        }
                        hh += step;
                        if hh >= t {
                            hh -= t;
                        }
                    }
                }
                for idx in cur[st]..end[st] {
                    let key = keys[idx];
                    let step = 1 + h2.bucket(key, t - 1);
                    let mut hh = h1.bucket(key, t);
                    loop {
                        let pair = pairs[hh];
                        probes += 1;
                        let tk = pair as u32;
                        if tk == EMPTY_KEY {
                            break;
                        }
                        if tk == key {
                            out.push(key, (pair >> 32) as u32, pays[idx]);
                        }
                        hh += step;
                        if hh >= t {
                            hh -= t;
                        }
                    }
                }
            }
            rsv_metrics::count(Metric::DhProbes, probes);
        },
    );
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    fn reference_join(build: &[(u32, u32)], probe: &[(u32, u32)]) -> Vec<(u32, u32, u32)> {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(k, p) in build {
            map.entry(k).or_default().push(p);
        }
        let mut out = Vec::new();
        for &(k, p) in probe {
            if let Some(pays) = map.get(&k) {
                for &bp in pays {
                    out.push((k, bp, p));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sorted_rows(sink: &JoinSink) -> Vec<(u32, u32, u32)> {
        let mut rows: Vec<_> = sink.iter().collect();
        rows.sort_unstable();
        rows
    }

    #[allow(clippy::type_complexity)]
    fn workload(nb: usize, np: usize, seed: u64) -> (Vec<(u32, u32)>, Vec<(u32, u32)>) {
        let mut rng = rsv_data::rng(seed);
        let keys = rsv_data::unique_u32(nb, &mut rng);
        let build: Vec<(u32, u32)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let probe: Vec<(u32, u32)> = (0..np)
            .map(|i| {
                // ~3/4 hits, 1/4 misses
                if i % 4 == 3 {
                    (keys[i % nb] ^ 0x5A5A_5A5A, i as u32)
                } else {
                    (keys[(i * 7) % nb], i as u32)
                }
            })
            .collect();
        (build, probe)
    }

    #[test]
    fn scalar_linear_matches_reference() {
        let (build, probe) = workload(500, 2000, 1);
        let mut t = LinearTable::new(build.len(), 0.5);
        for &(k, p) in &build {
            t.insert(k, p);
        }
        let mut sink = JoinSink::with_capacity(0);
        let keys: Vec<u32> = probe.iter().map(|x| x.0).collect();
        let pays: Vec<u32> = probe.iter().map(|x| x.1).collect();
        t.probe_scalar(&keys, &pays, &mut sink);
        assert_eq!(sorted_rows(&sink), reference_join(&build, &probe));
    }

    #[test]
    fn vertical_linear_probe_matches_scalar() {
        let s = Portable::<16>::new();
        for (nb, np) in [(100, 1000), (16, 16), (5, 40), (300, 7)] {
            let (build, probe) = workload(nb, np, 2);
            let mut t = LinearTable::new(build.len(), 0.5);
            let bk: Vec<u32> = build.iter().map(|x| x.0).collect();
            let bp: Vec<u32> = build.iter().map(|x| x.1).collect();
            t.build_scalar(&bk, &bp);
            let keys: Vec<u32> = probe.iter().map(|x| x.0).collect();
            let pays: Vec<u32> = probe.iter().map(|x| x.1).collect();
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical(s, &keys, &pays, &mut sink);
            assert_eq!(
                sorted_rows(&sink),
                reference_join(&build, &probe),
                "nb={nb} np={np}"
            );
        }
    }

    #[test]
    fn vertical_linear_build_matches_reference() {
        let s = Portable::<16>::new();
        for (nb, np) in [(100, 500), (33, 100), (1000, 100)] {
            let (build, probe) = workload(nb, np, 3);
            let mut t = LinearTable::new(build.len(), 0.5);
            let bk: Vec<u32> = build.iter().map(|x| x.0).collect();
            let bp: Vec<u32> = build.iter().map(|x| x.1).collect();
            t.build_vertical(s, &bk, &bp);
            assert_eq!(t.len(), build.len());
            let keys: Vec<u32> = probe.iter().map(|x| x.0).collect();
            let pays: Vec<u32> = probe.iter().map(|x| x.1).collect();
            let mut sink = JoinSink::with_capacity(0);
            t.probe_scalar(&keys, &pays, &mut sink);
            assert_eq!(
                sorted_rows(&sink),
                reference_join(&build, &probe),
                "nb={nb}"
            );
        }
    }

    #[test]
    fn linear_handles_duplicate_build_keys() {
        let s = Portable::<16>::new();
        let build: Vec<(u32, u32)> = (0..200).map(|i| (i % 40, i)).collect();
        let probe: Vec<(u32, u32)> = (0..40).map(|i| (i, 1000 + i)).collect();
        let bk: Vec<u32> = build.iter().map(|x| x.0).collect();
        let bp: Vec<u32> = build.iter().map(|x| x.1).collect();
        let pk: Vec<u32> = probe.iter().map(|x| x.0).collect();
        let pp: Vec<u32> = probe.iter().map(|x| x.1).collect();

        let mut t = LinearTable::new(build.len(), 0.5);
        t.build_vertical(s, &bk, &bp);
        let mut sink = JoinSink::with_capacity(0);
        t.probe_vertical(s, &pk, &pp, &mut sink);
        assert_eq!(sorted_rows(&sink), reference_join(&build, &probe));
        assert_eq!(sink.len(), 200); // every copy matched once
    }

    #[test]
    fn double_hash_scalar_and_vertical_match_reference() {
        let s = Portable::<16>::new();
        let (build, probe) = workload(400, 3000, 5);
        let bk: Vec<u32> = build.iter().map(|x| x.0).collect();
        let bp: Vec<u32> = build.iter().map(|x| x.1).collect();
        let pk: Vec<u32> = probe.iter().map(|x| x.0).collect();
        let pp: Vec<u32> = probe.iter().map(|x| x.1).collect();

        let mut t1 = DoubleHashTable::new(build.len(), 0.5);
        t1.build_scalar(&bk, &bp);
        let mut sink1 = JoinSink::with_capacity(0);
        t1.probe_scalar(&pk, &pp, &mut sink1);
        assert_eq!(sorted_rows(&sink1), reference_join(&build, &probe));

        let mut t2 = DoubleHashTable::new(build.len(), 0.5);
        t2.build_vertical(s, &bk, &bp);
        assert_eq!(t2.len(), build.len());
        let mut sink2 = JoinSink::with_capacity(0);
        t2.probe_vertical(s, &pk, &pp, &mut sink2);
        assert_eq!(sorted_rows(&sink2), reference_join(&build, &probe));
    }

    #[test]
    fn double_hash_with_repeats() {
        let s = Portable::<16>::new();
        let build: Vec<(u32, u32)> = (0..250).map(|i| (i % 50, i)).collect();
        let probe: Vec<(u32, u32)> = (0..100).map(|i| (i % 60, i)).collect();
        let bk: Vec<u32> = build.iter().map(|x| x.0).collect();
        let bp: Vec<u32> = build.iter().map(|x| x.1).collect();
        let pk: Vec<u32> = probe.iter().map(|x| x.0).collect();
        let pp: Vec<u32> = probe.iter().map(|x| x.1).collect();
        let mut t = DoubleHashTable::new(build.len(), 0.5);
        t.build_vertical(s, &bk, &bp);
        let mut sink = JoinSink::with_capacity(0);
        t.probe_vertical(s, &pk, &pp, &mut sink);
        assert_eq!(sorted_rows(&sink), reference_join(&build, &probe));
    }

    #[test]
    #[should_panic(expected = "empty sentinel")]
    fn inserting_sentinel_panics() {
        let mut t = LinearTable::new(4, 0.5);
        t.insert(EMPTY_KEY, 0);
    }

    #[test]
    fn probing_empty_table_finds_nothing() {
        let t = LinearTable::new(10, 0.5);
        let mut sink = JoinSink::with_capacity(0);
        t.probe_scalar(&[1, 2, 3], &[4, 5, 6], &mut sink);
        assert!(sink.is_empty());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_backends_match() {
        let (build, probe) = workload(777, 5000, 9);
        let bk: Vec<u32> = build.iter().map(|x| x.0).collect();
        let bp: Vec<u32> = build.iter().map(|x| x.1).collect();
        let pk: Vec<u32> = probe.iter().map(|x| x.0).collect();
        let pp: Vec<u32> = probe.iter().map(|x| x.1).collect();
        let expected = reference_join(&build, &probe);

        if let Some(s) = rsv_simd::Avx512::new() {
            let mut t = LinearTable::new(build.len(), 0.5);
            t.build_vertical(s, &bk, &bp);
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical(s, &pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected);

            let mut t = DoubleHashTable::new(build.len(), 0.5);
            t.build_vertical(s, &bk, &bp);
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical(s, &pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected);
        }
        if let Some(s) = rsv_simd::Avx2::new() {
            let mut t = LinearTable::new(build.len(), 0.5);
            t.build_vertical(s, &bk, &bp);
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical(s, &pk, &pp, &mut sink);
            assert_eq!(sorted_rows(&sink), expected);
        }
    }
}

#[cfg(test)]
mod strand_tests {
    use super::*;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    #[test]
    fn interleaved_probe_matches_reference() {
        let mut rng = rsv_data::rng(61);
        let bk = rsv_data::unique_u32(700, &mut rng);
        let bp: Vec<u32> = (0..700).collect();
        let mut t = LinearTable::new(bk.len(), 0.5);
        t.build_scalar(&bk, &bp);

        for np in [0usize, 1, 10, 63, 64, 65, 5000] {
            let pk: Vec<u32> = (0..np)
                .map(|i| {
                    if i % 6 == 5 {
                        bk[i % 700] ^ 1
                    } else {
                        bk[(i * 3) % 700]
                    }
                })
                .collect();
            let pp: Vec<u32> = (0..np as u32).collect();
            let map: HashMap<u32, u32> = bk.iter().copied().zip(bp.iter().copied()).collect();
            let mut expected: Vec<(u32, u32, u32)> = pk
                .iter()
                .zip(&pp)
                .filter_map(|(&k, &p)| map.get(&k).map(|&b| (k, b, p)))
                .collect();
            expected.sort_unstable();

            let s = Portable::<16>::new();
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical_interleaved(s, &pk, &pp, &mut sink);
            let mut rows: Vec<_> = sink.iter().collect();
            rows.sort_unstable();
            assert_eq!(rows, expected, "np={np}");

            #[cfg(target_arch = "x86_64")]
            if let Some(s) = rsv_simd::Avx512::new() {
                let mut sink = JoinSink::with_capacity(0);
                t.probe_vertical_interleaved(s, &pk, &pp, &mut sink);
                let mut rows: Vec<_> = sink.iter().collect();
                rows.sort_unstable();
                assert_eq!(rows, expected, "avx512 np={np}");
            }
        }
    }

    #[test]
    fn interleaved_probe_with_duplicates() {
        let bk: Vec<u32> = (0..300).map(|i| i % 60).collect();
        let bp: Vec<u32> = (0..300).collect();
        let mut t = LinearTable::new(bk.len(), 0.5);
        t.build_scalar(&bk, &bp);
        let pk: Vec<u32> = (0..60).collect();
        let pp: Vec<u32> = (100..160).collect();
        let s = Portable::<16>::new();
        let mut sink = JoinSink::with_capacity(0);
        t.probe_vertical_interleaved(s, &pk, &pp, &mut sink);
        assert_eq!(sink.len(), 300);
    }
}

#[cfg(test)]
mod dh_strand_tests {
    use super::*;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    #[test]
    fn dh_interleaved_probe_matches_reference() {
        let mut rng = rsv_data::rng(62);
        let bk: Vec<u32> = {
            // include duplicates
            let uniq = rsv_data::unique_u32(300, &mut rng);
            (0..600).map(|i| uniq[i % 300]).collect()
        };
        let bp: Vec<u32> = (0..600).collect();
        let mut t = DoubleHashTable::new(bk.len(), 0.5);
        t.build_scalar(&bk, &bp);

        for np in [0usize, 1, 17, 64, 3000] {
            let pk: Vec<u32> = (0..np)
                .map(|i| {
                    if i % 4 == 3 {
                        bk[i % 600] ^ 7
                    } else {
                        bk[(i * 3) % 600]
                    }
                })
                .collect();
            let pp: Vec<u32> = (0..np as u32).collect();
            let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
            for (&k, &p) in bk.iter().zip(&bp) {
                map.entry(k).or_default().push(p);
            }
            let mut expected: Vec<(u32, u32, u32)> = pk
                .iter()
                .zip(&pp)
                .flat_map(|(&k, &p)| map.get(&k).into_iter().flatten().map(move |&b| (k, b, p)))
                .collect();
            expected.sort_unstable();

            let s = Portable::<16>::new();
            let mut sink = JoinSink::with_capacity(0);
            t.probe_vertical_interleaved(s, &pk, &pp, &mut sink);
            let mut rows: Vec<_> = sink.iter().collect();
            rows.sort_unstable();
            assert_eq!(rows, expected, "np={np}");

            #[cfg(target_arch = "x86_64")]
            if let Some(s) = rsv_simd::Avx512::new() {
                let mut sink = JoinSink::with_capacity(0);
                t.probe_vertical_interleaved(s, &pk, &pp, &mut sink);
                let mut rows: Vec<_> = sink.iter().collect();
                rows.sort_unstable();
                assert_eq!(rows, expected, "avx512 np={np}");
            }
        }
    }
}

#[cfg(test)]
mod unique_tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::EMPTY_PAIR;
    use rsv_metrics::collect;
    use rsv_simd::Portable;
    use std::collections::HashMap;

    type Rows = Vec<(u32, u32, u32)>;

    fn reference_rows(bk: &[u32], bp: &[u32], pk: &[u32], pp: &[u32]) -> Rows {
        let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
        for (&k, &p) in bk.iter().zip(bp) {
            map.entry(k).or_default().push(p);
        }
        let mut rows: Rows = pk
            .iter()
            .zip(pp)
            .flat_map(|(&k, &p)| map.get(&k).into_iter().flatten().map(move |&b| (k, b, p)))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// Slots a probe of `key` inspects in the built `pairs`: its chain up
    /// to the first empty bucket, or on a `unique` table up to its match.
    fn reference_walk(pairs: &[u64], hash: MulHash, key: u32, unique: bool) -> u64 {
        let t = pairs.len();
        let mut h = hash.bucket(key, t);
        let mut steps = 1;
        loop {
            let tk = pairs[h] as u32;
            if tk == EMPTY_KEY || (unique && tk == key) {
                return steps;
            }
            steps += 1;
            h = (h + 1) % t;
        }
    }

    /// Probe with `strands` vector strands (0 = the scalar kernel),
    /// returning the sorted rows and the metered slot inspections.
    #[allow(clippy::too_many_arguments)]
    fn probe<S: Simd>(
        s: S,
        strands: usize,
        pairs: &[u64],
        hash: MulHash,
        keys: &[u32],
        pays: &[u32],
        unique: bool,
    ) -> (Rows, u64) {
        let mut sink = JoinSink::with_capacity(0);
        let ((), counts) = collect(|| match strands {
            0 => lp_probe_raw(
                KernelKind::<S>::Scalar,
                pairs,
                hash,
                keys,
                pays,
                unique,
                &mut sink,
            ),
            1 => {
                lp_probe_vertical_strands_raw::<S, 1>(s, pairs, hash, keys, pays, unique, &mut sink)
            }
            _ => lp_probe_raw(
                KernelKind::Vector(s),
                pairs,
                hash,
                keys,
                pays,
                unique,
                &mut sink,
            ),
        });
        let c = counts.total();
        assert_eq!(c.get(Metric::LpKeysProbed), keys.len() as u64);
        let mut rows: Rows = sink.iter().collect();
        rows.sort_unstable();
        (rows, c.get(Metric::LpProbes))
    }

    /// Build with both kernels, then probe in both modes the table admits
    /// with the scalar kernel and with 1 and 4 strands: the rows match the
    /// reference and `LpProbes` equals the reference walk over the table
    /// the build left.
    fn check_counts<S: Simd>(s: S, bk: &[u32], pk: &[u32], duplicate_free: bool) {
        let hash = MulHash::nth(0);
        let bp: Vec<u32> = (0..bk.len() as u32).collect();
        let pp: Vec<u32> = (0..pk.len() as u32).map(|i| i + 5000).collect();
        let expected = reference_rows(bk, &bp, pk, &pp);
        for (build, kind) in [
            ("scalar", KernelKind::Scalar),
            (s.name(), KernelKind::Vector(s)),
        ] {
            let mut pairs = vec![EMPTY_PAIR; bk.len() * 2 + 3];
            let unique = lp_build_raw(kind, &mut pairs, hash, bk, &bp);
            assert_eq!(unique, duplicate_free, "{build} build");
            let modes: &[bool] = if unique { &[true, false] } else { &[false] };
            for &mode in modes {
                let walk: u64 = pk
                    .iter()
                    .map(|&k| reference_walk(&pairs, hash, k, mode))
                    .sum();
                for strands in [0, 1, 4] {
                    let (rows, probes) = probe(s, strands, &pairs, hash, pk, &pp, mode);
                    let what = format!("{build} build, unique={mode} strands={strands}");
                    assert_eq!(rows, expected, "{what}");
                    assert_eq!(probes, walk, "{what}");
                }
            }
        }
    }

    fn probe_keys(bk: &[u32], n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| {
                let k = bk[(i * 7) % bk.len()];
                if i % 5 == 4 {
                    k ^ 0x00F0_0F00
                } else {
                    k
                }
            })
            .collect()
    }

    #[test]
    fn lp_probes_equal_the_reference_walk() {
        let mut rng = rsv_data::rng(81);
        let uniq = rsv_data::unique_u32(900, &mut rng);
        let dups: Vec<u32> = (0..900).map(|i| uniq[i % 250]).collect();
        let narrow = Portable::<8>::new();
        let wide = Portable::<16>::new();
        for (bk, duplicate_free) in [(&uniq, true), (&dups, false)] {
            let pk = probe_keys(bk, 3001);
            check_counts(wide, bk, &pk, duplicate_free);
            check_counts(narrow, bk, &pk, duplicate_free);
            #[cfg(target_arch = "x86_64")]
            if let Some(s) = rsv_simd::Avx512::new() {
                check_counts(s, bk, &pk, duplicate_free);
            }
            #[cfg(target_arch = "x86_64")]
            if let Some(s) = rsv_simd::Avx2::new() {
                check_counts(s, bk, &pk, duplicate_free);
            }
        }
        // a duplicate in the scalar tail of the vector build
        let mut tail = uniq[..40].to_vec();
        tail[39] = tail[2];
        check_counts(wide, &tail, &probe_keys(&tail, 100), false);
    }

    /// Two equal keys in one vector share their home bucket, which is
    /// empty: one lane wins it, and the other moves on without ever
    /// gathering that bucket again. Only the loser's read of the winner's
    /// key can report the duplicate.
    fn check_conflict_loser<S: Simd>(s: S) {
        let hash = MulHash::nth(0);
        let mut rng = rsv_data::rng(82);
        let mut bk = rsv_data::unique_u32(S::LANES, &mut rng);
        bk[1] = bk[0];
        let bp: Vec<u32> = (0..bk.len() as u32).collect();
        let mut pairs = vec![EMPTY_PAIR; 8 * S::LANES];
        let (unique, counts) =
            collect(|| lp_build_raw(KernelKind::Vector(s), &mut pairs, hash, &bk, &bp));
        assert!(!unique, "{}: the repeated key went unnoticed", s.name());
        assert!(counts.total().get(Metric::LpBuildConflictRetries) >= 1);
        let mut sink = JoinSink::with_capacity(0);
        lp_probe_raw(
            KernelKind::Vector(s),
            &pairs,
            hash,
            &bk[..1],
            &[7],
            unique,
            &mut sink,
        );
        let mut rows: Rows = sink.iter().collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![(bk[0], 0, 7), (bk[0], 1, 7)], "{}", s.name());
    }

    #[test]
    fn vector_build_flags_equal_keys_that_collide_in_one_vector() {
        check_conflict_loser(Portable::<16>::new());
        check_conflict_loser(Portable::<8>::new());
        #[cfg(target_arch = "x86_64")]
        if let Some(s) = rsv_simd::Avx512::new() {
            check_conflict_loser(s);
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(s) = rsv_simd::Avx2::new() {
            check_conflict_loser(s);
        }
    }
}
