//! Open-addressing pair tables: one set of scalar and vertically
//! vectorized kernels, generic over the [`Addressing`] that gives a key's
//! bucket sequence — linear probing ([`Linear`], §5.1), double hashing
//! (Algorithm 8, §5.2) or the min-partition join's concatenated
//! sub-tables ([`SubTables`], §9) — and the figure tables
//! [`LinearTable`] and [`DoubleHashTable`] on top of them.

use rsv_metrics::Metric;
use rsv_partition::PartitionFn;
use rsv_simd::{KernelKind, MaskLike, Simd};

use crate::sink::JoinSink;
use crate::{bucket_count, next_prime, MulHash, EMPTY_KEY, EMPTY_PAIR};

/// Maximum vector width any backend exposes (for stack lane buffers).
const MAX_LANES: usize = 32;

/// The bucket sequence a key walks in an interleaved pair slice: the one
/// thing in which linear probing, double hashing and min-partition's
/// sub-tables differ. The build, the probe walk and the vector loops are
/// written once over it, so every kernel visits a key's buckets in the
/// same order.
pub trait Addressing: Copy {
    /// The counter of keys probed.
    const KEYS_PROBED: Metric;
    /// The counter of buckets the probes inspect.
    const PROBES: Metric;

    /// The first bucket of `key`.
    fn first(self, key: u32) -> usize;

    /// The bucket after `h` in `key`'s sequence.
    fn next(self, key: u32, h: usize) -> usize;

    /// The vector form of both: per lane, the first bucket of its key in
    /// the lanes of `fresh` (keys just loaded) and the bucket after `h` in
    /// the others.
    fn first_or_next<S: Simd>(self, s: S, fresh: S::M, keys: S::V, h: S::V) -> S::V;
}

/// Linear probing (§5.1): the multiplicative hash's bucket, then the next
/// bucket, wrapping at the end.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    hash: MulHash,
    buckets: usize,
}

impl Linear {
    /// Linear probing with `hash` over `buckets` buckets.
    pub fn new(hash: MulHash, buckets: usize) -> Self {
        Linear { hash, buckets }
    }
}

impl Addressing for Linear {
    const KEYS_PROBED: Metric = Metric::LpKeysProbed;
    const PROBES: Metric = Metric::LpProbes;

    #[inline(always)]
    fn first(self, key: u32) -> usize {
        self.hash.bucket(key, self.buckets)
    }

    #[inline(always)]
    fn next(self, _: u32, h: usize) -> usize {
        if h + 1 == self.buckets {
            0
        } else {
            h + 1
        }
    }

    #[inline(always)]
    fn first_or_next<S: Simd>(self, s: S, fresh: S::M, keys: S::V, h: S::V) -> S::V {
        let t = s.splat(self.buckets as u32);
        let first = s.mulhi(s.mullo(keys, s.splat(self.hash.factor())), t);
        let next = s.add(h, s.splat(1));
        let next = s.blend(s.cmpeq(next, t), s.zero(), next);
        s.blend(fresh, first, next)
    }
}

/// Double hashing (§5.2, Algorithm 8): `h1`'s bucket, then steps of
/// `1 + mulhi(k·f2, |T|-1)`, so repeats of one key do not cluster. A
/// prime bucket count makes the sequence visit every bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Double {
    h1: MulHash,
    h2: MulHash,
    buckets: usize,
}

impl Addressing for Double {
    const KEYS_PROBED: Metric = Metric::DhKeysProbed;
    const PROBES: Metric = Metric::DhProbes;

    #[inline(always)]
    fn first(self, key: u32) -> usize {
        self.h1.bucket(key, self.buckets)
    }

    #[inline(always)]
    fn next(self, key: u32, h: usize) -> usize {
        let h = h + 1 + self.h2.bucket(key, self.buckets - 1);
        if h >= self.buckets {
            h - self.buckets
        } else {
            h
        }
    }

    /// Algorithm 8 in one multiply: fresh lanes hash with `f1` into
    /// `[0, |T|)`, the others advance by `1 + mulhi(k·f2, |T|-1)`.
    #[inline(always)]
    fn first_or_next<S: Simd>(self, s: S, fresh: S::M, keys: S::V, h: S::V) -> S::V {
        let t = s.splat(self.buckets as u32);
        let f = s.blend(fresh, s.splat(self.h1.factor()), s.splat(self.h2.factor()));
        let range = s.blend(fresh, t, s.splat(self.buckets as u32 - 1));
        let from = s.blend(fresh, s.zero(), s.add(h, s.splat(1)));
        let h = s.add(from, s.mulhi(s.mullo(keys, f), range));
        s.blend(s.cmpge(h, t), s.sub(h, t), h)
    }
}

/// The min-partition join's sub-tables (§9): `parts` linear-probing tables
/// of `tsize` buckets each in one slice. The partition function picks a
/// key's sub-table, and linear probing with `hash` its bucket there,
/// wrapping inside the sub-table.
#[derive(Debug, Clone, Copy)]
pub struct SubTables<F> {
    part: F,
    hash: MulHash,
    tsize: usize,
}

impl<F: PartitionFn + Copy> SubTables<F> {
    /// Sub-tables of `tsize` buckets, picked by `part` and probed
    /// linearly with `hash`.
    pub fn new(part: F, hash: MulHash, tsize: usize) -> Self {
        SubTables { part, hash, tsize }
    }
}

impl<F: PartitionFn + Copy> Addressing for SubTables<F> {
    const KEYS_PROBED: Metric = Metric::LpKeysProbed;
    const PROBES: Metric = Metric::LpProbes;

    #[inline(always)]
    fn first(self, key: u32) -> usize {
        self.part.partition(key) * self.tsize + self.hash.bucket(key, self.tsize)
    }

    #[inline(always)]
    fn next(self, key: u32, h: usize) -> usize {
        let base = self.part.partition(key) * self.tsize;
        if h + 1 == base + self.tsize {
            base
        } else {
            h + 1
        }
    }

    #[inline(always)]
    fn first_or_next<S: Simd>(self, s: S, fresh: S::M, keys: S::V, h: S::V) -> S::V {
        let t = s.splat(self.tsize as u32);
        let base = s.mullo(self.part.partition_vector(s, keys), t);
        let first = s.add(base, s.mulhi(s.mullo(keys, s.splat(self.hash.factor())), t));
        let next = s.add(h, s.splat(1));
        let next = s.blend(s.cmpeq(next, s.add(base, t)), base, next);
        s.blend(fresh, first, next)
    }
}

/// An open-addressing hash table with **linear probing** and interleaved
/// key/payload buckets (paper §5.1).
#[derive(Debug, Clone)]
pub struct LinearTable {
    pairs: Vec<u64>,
    addr: Linear,
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
            addr: Linear::new(hash, buckets),
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

    /// Insert one tuple (paper Algorithm 6).
    pub fn insert(&mut self, key: u32, pay: u32) {
        assert!(self.len < self.pairs.len(), "hash table is full");
        insert(&mut self.pairs, self.addr, key, pay, self.addr.first(key));
        self.len += 1;
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
        self.insert(key, pay);
        Ok(())
    }

    /// Build the table from columns with scalar code (Algorithm 6).
    pub fn build_scalar(&mut self, keys: &[u32], pays: &[u32]) {
        self.build(KernelKind::SCALAR, keys, pays);
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
        self.build_scalar(keys, pays);
        Ok(())
    }

    /// Vertically vectorized build (paper Algorithm 7): a different input
    /// tuple per lane; gathers check for empty buckets, scatters insert,
    /// and a scatter/gather-back round detects lane conflicts.
    pub fn build_vertical<S: Simd>(&mut self, s: S, keys: &[u32], pays: &[u32]) {
        self.build(KernelKind::Vector(s), keys, pays);
    }

    fn build<S: Simd>(&mut self, kind: KernelKind<S>, keys: &[u32], pays: &[u32]) {
        assert!(
            self.len + keys.len() < self.pairs.len(),
            "hash table too small for build"
        );
        build_raw(kind, &mut self.pairs, self.addr, keys, pays);
        self.len += keys.len();
    }

    /// Scalar probe (paper Algorithm 4): for every probe tuple, walk the
    /// chain and emit all matches.
    pub fn probe_scalar(&self, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        let _ = rsv_testkit::failpoint!("hashtab.lp.probe");
        probe_raw(
            KernelKind::SCALAR,
            &self.pairs,
            self.addr,
            keys,
            pays,
            false,
            out,
        );
    }

    /// Vertically vectorized probe (paper Algorithm 5): a different probe
    /// key per lane; finished lanes are selectively reloaded from the input
    /// so every lane stays busy ("out-of-order" probing — the output order
    /// differs from the input order). The one-strand case of
    /// [`probe_raw`]'s vector kernel.
    pub fn probe_vertical<S: Simd>(&self, s: S, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        let _ = rsv_testkit::failpoint!("hashtab.lp.probe");
        probe_vertical::<S, _, 1>(s, &self.pairs, self.addr, keys, pays, false, out);
    }

    /// Vertically vectorized probe with four interleaved probe states, as
    /// in [`probe_raw`]'s vector kernel — the software analogue of the
    /// 4-way SMT the paper's Xeon Phi uses to hide gather latency.
    pub fn probe_vertical_interleaved<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        probe_vertical::<S, _, 4>(s, &self.pairs, self.addr, keys, pays, false, out);
    }
}

/// An open-addressing hash table with **double hashing** (paper §5.2,
/// Algorithm 8): collisions step by a second, key-dependent hash so repeats
/// of one key do not cluster. The bucket count is prime so the probe
/// sequence visits every bucket.
#[derive(Debug, Clone)]
pub struct DoubleHashTable {
    pairs: Vec<u64>,
    addr: Double,
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
            addr: Double { h1, h2, buckets },
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

    /// Insert one tuple.
    pub fn insert(&mut self, key: u32, pay: u32) {
        assert!(self.len < self.pairs.len(), "hash table is full");
        insert(&mut self.pairs, self.addr, key, pay, self.addr.first(key));
        self.len += 1;
    }

    /// Build the table from columns with scalar code.
    pub fn build_scalar(&mut self, keys: &[u32], pays: &[u32]) {
        self.build(KernelKind::SCALAR, keys, pays);
    }

    /// Vertically vectorized build (Algorithm 7 with the Algorithm 8 hash).
    pub fn build_vertical<S: Simd>(&mut self, s: S, keys: &[u32], pays: &[u32]) {
        self.build(KernelKind::Vector(s), keys, pays);
    }

    fn build<S: Simd>(&mut self, kind: KernelKind<S>, keys: &[u32], pays: &[u32]) {
        assert!(
            self.len + keys.len() < self.pairs.len(),
            "hash table too small for build"
        );
        build_raw(kind, &mut self.pairs, self.addr, keys, pays);
        self.len += keys.len();
    }

    /// Scalar probe.
    pub fn probe_scalar(&self, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        probe_raw(
            KernelKind::SCALAR,
            &self.pairs,
            self.addr,
            keys,
            pays,
            false,
            out,
        );
    }

    /// Vertically vectorized probe using the paper's double hashing
    /// function (Algorithm 8 embedded in the Algorithm 5 probe loop).
    pub fn probe_vertical<S: Simd>(&self, s: S, keys: &[u32], pays: &[u32], out: &mut JoinSink) {
        probe_vertical::<S, _, 1>(s, &self.pairs, self.addr, keys, pays, false, out);
    }

    /// Vertically vectorized probe with four interleaved probe states, as
    /// in [`probe_raw`]'s vector kernel — the software analogue of the
    /// 4-way SMT the paper's Xeon Phi uses to hide gather latency.
    pub fn probe_vertical_interleaved<S: Simd>(
        &self,
        s: S,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        probe_vertical::<S, _, 4>(s, &self.pairs, self.addr, keys, pays, false, out);
    }
}

// ---------------------------------------------------------------------
// The kernels, over a caller-managed interleaved bucket slice: the joins
// (Section 9) keep their tables outside these types.
// ---------------------------------------------------------------------

/// Insert one tuple into the first empty bucket of `key`'s sequence from
/// bucket `h` on (paper Algorithm 6's inner loop): `h` is `a.first(key)`,
/// or the next bucket of a vector lane that lost its bucket. Returns
/// `true` if the walk passed a bucket that already holds `key`.
///
/// Buckets never empty again and equal keys share a sequence, so of two
/// equal keys the later insert always walks over the earlier one: a build
/// whose inserts all return `false` is duplicate-free.
///
/// # Panics
/// If `key` is the empty sentinel. The caller must guarantee at least one
/// empty bucket remains or the walk will not terminate.
#[inline]
fn insert<A: Addressing>(pairs: &mut [u64], a: A, key: u32, pay: u32, mut h: usize) -> bool {
    assert_ne!(
        key, EMPTY_KEY,
        "key {key:#x} is the reserved empty sentinel"
    );
    let mut dup = false;
    loop {
        let tk = pairs[h] as u32;
        if tk == EMPTY_KEY {
            break;
        }
        dup |= tk == key;
        h = a.next(key, h);
    }
    pairs[h] = u64::from(key) | (u64::from(pay) << 32);
    dup
}

/// Probe one key from bucket `h` of its sequence on (paper Algorithm 4's
/// inner loop), returning the buckets inspected. On a `unique`
/// (duplicate-free) table the walk stops at the key's match; otherwise it
/// emits every match up to the first empty bucket.
#[inline]
fn walk<A: Addressing>(
    pairs: &[u64],
    a: A,
    key: u32,
    pay: u32,
    mut h: usize,
    unique: bool,
    out: &mut JoinSink,
) -> u64 {
    let mut steps = 0;
    loop {
        let pair = pairs[h];
        steps += 1;
        let tk = pair as u32;
        if tk == EMPTY_KEY {
            return steps;
        }
        if tk == key {
            out.push(key, (pair >> 32) as u32, pay);
            if unique {
                return steps;
            }
        }
        h = a.next(key, h);
    }
}

/// Build into a raw bucket slice along `a`'s sequences with `kind`'s
/// kernel: scalar (Algorithm 6) or vertically vectorized (Algorithm 7).
/// The caller must leave at least one bucket empty. Returns `true` if the
/// keys are duplicate-free, which lets [`probe_raw`] retire a key at its
/// match.
pub fn build_raw<S: Simd, A: Addressing>(
    kind: KernelKind<S>,
    pairs: &mut [u64],
    a: A,
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
                dup |= insert(pairs, a, k, p, a.first(k));
            }
            !dup
        }
        KernelKind::Vector(s) => build_vertical(s, pairs, a, keys, pays),
    }
}

/// Probe a raw bucket slice along `a`'s sequences with `kind`'s kernel:
/// scalar (Algorithm 4) or vertically vectorized (Algorithm 5) in four
/// interleaved strands. `unique` is [`build_raw`]'s flag: on a
/// duplicate-free table a key stops at its match, otherwise it walks to
/// the first empty bucket.
pub fn probe_raw<S: Simd, A: Addressing>(
    kind: KernelKind<S>,
    pairs: &[u64],
    a: A,
    keys: &[u32],
    pays: &[u32],
    unique: bool,
    out: &mut JoinSink,
) {
    match kind {
        KernelKind::Scalar => {
            assert_eq!(keys.len(), pays.len(), "column length mismatch");
            rsv_metrics::count(A::KEYS_PROBED, keys.len() as u64);
            let probes: u64 = keys
                .iter()
                .zip(pays)
                .map(|(&k, &p)| walk(pairs, a, k, p, a.first(k), unique, out))
                .sum();
            rsv_metrics::count(A::PROBES, probes);
        }
        KernelKind::Vector(s) => probe_vertical::<S, A, 4>(s, pairs, a, keys, pays, unique, out),
    }
}

/// The body of [`build_raw`]'s vector kernel; returns its duplicate-free
/// flag. A lane compares every occupied bucket it gathers with its key,
/// and a lane that loses an empty bucket to another lane gathers the
/// winner's key and compares that too, so no bucket a lane walks past goes
/// unchecked.
fn build_vertical<S: Simd, A: Addressing>(
    s: S,
    pairs: &mut [u64],
    a: A,
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
            let empty = s.splat(EMPTY_KEY);
            let lane_ids = s.iota();
            let mut k = s.zero();
            let mut v = s.zero();
            let mut h = s.zero();
            let mut m = S::M::all();
            let mut dup = S::M::none();
            let mut retries = 0u64;
            let mut i = 0usize;
            while i + w <= n {
                k = s.selective_load(k, m, &keys[i..]);
                v = s.selective_load(v, m, &pays[i..]);
                i += m.count();
                h = a.first_or_next(s, m, k, h);
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
                m = ok;
            }
            rsv_metrics::count(Metric::LpBuildConflictRetries, retries);
            // finish in-flight lanes from their next bucket, then the tail
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            let mut ha = [0u32; MAX_LANES];
            s.store(k, &mut ka[..w]);
            s.store(v, &mut va[..w]);
            s.store(h, &mut ha[..w]);
            let mut scalar_dup = false;
            for lane in m.not().iter_set() {
                let from = a.next(ka[lane], ha[lane] as usize);
                scalar_dup |= insert(pairs, a, ka[lane], va[lane], from);
            }
            for (&key, &pay) in keys[i..].iter().zip(&pays[i..]) {
                scalar_dup |= insert(pairs, a, key, pay, a.first(key));
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
fn probe_vertical<S: Simd, A: Addressing, const STRANDS: usize>(
    s: S,
    pairs: &[u64],
    a: A,
    keys: &[u32],
    pays: &[u32],
    unique: bool,
    out: &mut JoinSink,
) {
    assert_eq!(keys.len(), pays.len(), "column length mismatch");
    assert!(STRANDS >= 1);
    rsv_metrics::count(A::KEYS_PROBED, keys.len() as u64);
    s.vectorize(
        #[inline(always)]
        || {
            let w = S::LANES;
            let n = keys.len();
            let empty = s.splat(EMPTY_KEY);
            let mut probes = 0u64;
            // per-strand state over contiguous input chunks
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
                    h[st] = a.first_or_next(s, m[st], k[st], h[st]);
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
                    if unique {
                        m[st] = m[st].or(hit);
                    }
                }
            }
            // drain in-flight lanes from their next bucket, then the chunk
            // tails, with the scalar walk
            let mut ka = [0u32; MAX_LANES];
            let mut va = [0u32; MAX_LANES];
            let mut ha = [0u32; MAX_LANES];
            for st in 0..STRANDS {
                s.store(k[st], &mut ka[..w]);
                s.store(v[st], &mut va[..w]);
                s.store(h[st], &mut ha[..w]);
                for lane in m[st].not().iter_set() {
                    let (key, pay) = (ka[lane], va[lane]);
                    let from = a.next(key, ha[lane] as usize);
                    probes += walk(pairs, a, key, pay, from, unique, out);
                }
                for idx in cur[st]..end[st] {
                    let key = keys[idx];
                    probes += walk(pairs, a, key, pays[idx], a.first(key), unique, out);
                }
            }
            rsv_metrics::count(A::PROBES, probes);
        },
    )
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
mod kernel_tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_metrics::collect;
    use rsv_partition::HashFn;
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

    /// An addressing scheme under test, with its `i`-th bucket of a key
    /// written out independently of its [`Addressing`] impl.
    trait Scheme: Addressing {
        /// A table for `keys`: its scheme and empty buckets.
        fn for_keys(keys: &[u32]) -> (Self, Vec<u64>);
        /// The `i`-th bucket of `key`'s sequence.
        fn bucket(self, key: u32, i: usize) -> usize;
        /// Build `keys` with `kind`'s kernel; the duplicate-free flag.
        fn build<S: Simd>(self, kind: KernelKind<S>, pairs: &mut [u64], keys: &[u32]) -> bool {
            let pays: Vec<u32> = (0..keys.len() as u32).collect();
            build_raw(kind, pairs, self, keys, &pays)
        }
        /// Whether probes may stop at a match on a duplicate-free build.
        const EARLY_EXIT: bool = true;
    }

    impl Scheme for Linear {
        fn for_keys(keys: &[u32]) -> (Self, Vec<u64>) {
            let t = keys.len() * 2 + 3;
            (Linear::new(MulHash::nth(0), t), vec![EMPTY_PAIR; t])
        }
        fn bucket(self, key: u32, i: usize) -> usize {
            (self.hash.bucket(key, self.buckets) + i) % self.buckets
        }
    }

    impl Scheme for Double {
        fn for_keys(keys: &[u32]) -> (Self, Vec<u64>) {
            let t = next_prime(keys.len() * 2 + 3);
            let (h1, h2) = (MulHash::nth(0), MulHash::nth(1));
            (Double { h1, h2, buckets: t }, vec![EMPTY_PAIR; t])
        }
        fn bucket(self, key: u32, i: usize) -> usize {
            let step = 1 + self.h2.bucket(key, self.buckets - 1);
            (self.h1.bucket(key, self.buckets) + i * step) % self.buckets
        }
        const EARLY_EXIT: bool = false;
    }

    /// Three sub-tables, sized and built part by part as the min-partition
    /// join does.
    impl Scheme for SubTables<HashFn> {
        fn for_keys(keys: &[u32]) -> (Self, Vec<u64>) {
            let part = HashFn::with_factor(3, MulHash::nth(2).factor());
            let mut sizes = [0usize; 3];
            for &k in keys {
                sizes[part.partition(k)] += 1;
            }
            let tsize = (sizes.iter().max().unwrap() * 2 + 1).next_multiple_of(2);
            let a = SubTables::new(part, MulHash::nth(0), tsize);
            (a, vec![EMPTY_PAIR; 3 * tsize])
        }
        fn bucket(self, key: u32, i: usize) -> usize {
            let local = (self.hash.bucket(key, self.tsize) + i) % self.tsize;
            self.part.partition(key) * self.tsize + local
        }
        fn build<S: Simd>(self, kind: KernelKind<S>, pairs: &mut [u64], keys: &[u32]) -> bool {
            let mut unique = true;
            for (p, sub) in pairs.chunks_mut(self.tsize).enumerate() {
                let (pk, pp): (Vec<u32>, Vec<u32>) = (0..keys.len() as u32)
                    .filter(|&i| self.part.partition(keys[i as usize]) == p)
                    .map(|i| (keys[i as usize], i))
                    .unzip();
                unique &= build_raw(kind, sub, Linear::new(self.hash, self.tsize), &pk, &pp);
            }
            unique
        }
    }

    /// Buckets a probe of `key` inspects: its sequence up to the first
    /// empty bucket, or on a `unique` table up to its match.
    fn reference_walk<A: Scheme>(a: A, pairs: &[u64], key: u32, unique: bool) -> u64 {
        for i in 0.. {
            let tk = pairs[a.bucket(key, i)] as u32;
            if tk == EMPTY_KEY || (unique && tk == key) {
                return i as u64 + 1;
            }
        }
        unreachable!()
    }

    /// Probe with the scalar kernel (`strands == 0`) or `strands` vector
    /// strands, returning the sorted rows and the metered bucket reads.
    #[allow(clippy::too_many_arguments)]
    fn probe<S: Simd, A: Addressing>(
        s: S,
        strands: usize,
        pairs: &[u64],
        a: A,
        keys: &[u32],
        pays: &[u32],
        unique: bool,
    ) -> (Rows, u64) {
        let mut sink = JoinSink::with_capacity(0);
        let ((), counts) = collect(|| match strands {
            0 => probe_raw(
                KernelKind::<S>::Scalar,
                pairs,
                a,
                keys,
                pays,
                unique,
                &mut sink,
            ),
            1 => probe_vertical::<S, A, 1>(s, pairs, a, keys, pays, unique, &mut sink),
            _ => probe_raw(
                KernelKind::Vector(s),
                pairs,
                a,
                keys,
                pays,
                unique,
                &mut sink,
            ),
        });
        let c = counts.total();
        assert_eq!(c.get(A::KEYS_PROBED), keys.len() as u64);
        let mut rows: Rows = sink.iter().collect();
        rows.sort_unstable();
        (rows, c.get(A::PROBES))
    }

    /// Build `bk` with both kernels, then probe prefixes of `pk` with the
    /// scalar kernel and 1 and 4 strands, in every mode the build admits:
    /// the build reports `duplicate_free`, the rows match the reference,
    /// and the metered probes equal the reference walk over the table the
    /// build left.
    fn check<S: Simd, A: Scheme>(s: S, bk: &[u32], pk: &[u32], duplicate_free: bool) {
        let bp: Vec<u32> = (0..bk.len() as u32).collect();
        let pp: Vec<u32> = (0..pk.len() as u32).map(|i| i + 5000).collect();
        let w = S::LANES;
        for (build, kind) in [
            ("scalar", KernelKind::Scalar),
            (s.name(), KernelKind::Vector(s)),
        ] {
            let (a, mut pairs) = A::for_keys(bk);
            let unique = a.build(kind, &mut pairs, bk);
            assert_eq!(unique, duplicate_free, "{build} build");
            let modes: &[bool] = if unique && A::EARLY_EXIT {
                &[false, true]
            } else {
                &[false]
            };
            for &mode in modes {
                for n in [0, 1, w - 1, w + 1, 63, 65, pk.len()] {
                    let (pk, pp) = (&pk[..n], &pp[..n]);
                    let expected = reference_rows(bk, &bp, pk, pp);
                    let walk: u64 = pk.iter().map(|&k| reference_walk(a, &pairs, k, mode)).sum();
                    for strands in [0, 1, 4] {
                        let (rows, probes) = probe(s, strands, &pairs, a, pk, pp, mode);
                        let what = format!("{build} build, unique={mode} n={n} strands={strands}");
                        assert_eq!(rows, expected, "{what}");
                        assert_eq!(probes, walk, "{what}");
                    }
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

    fn check_scheme<A: Scheme>() {
        let mut rng = rsv_data::rng(81);
        let uniq = rsv_data::unique_u32(900, &mut rng);
        let dups: Vec<u32> = (0..900).map(|i| uniq[i % 250]).collect();
        // a duplicate in the scalar tail of the vector build
        let mut tail = uniq[..40].to_vec();
        tail[39] = tail[2];
        for (bk, duplicate_free) in [(&uniq, true), (&dups, false), (&tail, false)] {
            let pk = probe_keys(bk, 5000);
            check::<_, A>(Portable::<16>::new(), bk, &pk, duplicate_free);
            check::<_, A>(Portable::<8>::new(), bk, &pk, duplicate_free);
            #[cfg(target_arch = "x86_64")]
            if let Some(s) = rsv_simd::Avx512::new() {
                check::<_, A>(s, bk, &pk, duplicate_free);
            }
            #[cfg(target_arch = "x86_64")]
            if let Some(s) = rsv_simd::Avx2::new() {
                check::<_, A>(s, bk, &pk, duplicate_free);
            }
        }
    }

    #[test]
    fn kernels_walk_the_reference_sequence() {
        check_scheme::<Linear>();
        check_scheme::<Double>();
        check_scheme::<SubTables<HashFn>>();
    }

    /// Two equal keys in one vector share their home bucket, which is
    /// empty: one lane wins it, and the other moves on without ever
    /// gathering that bucket again. Only the loser's read of the winner's
    /// key can report the duplicate.
    fn check_conflict_loser<S: Simd>(s: S) {
        let mut rng = rsv_data::rng(82);
        let mut bk = rsv_data::unique_u32(S::LANES, &mut rng);
        bk[1] = bk[0];
        let bp: Vec<u32> = (0..bk.len() as u32).collect();
        let mut pairs = vec![EMPTY_PAIR; 8 * S::LANES];
        let a = Linear::new(MulHash::nth(0), pairs.len());
        let (unique, counts) =
            collect(|| build_raw(KernelKind::Vector(s), &mut pairs, a, &bk, &bp));
        assert!(!unique, "{}: the repeated key went unnoticed", s.name());
        assert!(counts.total().get(Metric::LpBuildConflictRetries) >= 1);
        let mut sink = JoinSink::with_capacity(0);
        probe_raw(
            KernelKind::Vector(s),
            &pairs,
            a,
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
