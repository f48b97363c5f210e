//! Hash tables for joins and aggregation (paper Section 5).
//!
//! Three hashing schemes — **linear probing** (§5.1), **double hashing**
//! (§5.2) and **cuckoo hashing** (§5.3) — each with:
//!
//! * a **scalar** baseline (Algorithms 4 and 6),
//! * the prior state-of-the-art **horizontal** vectorization (bucketized
//!   tables: one probe key compared against `W` table keys, Ross \[30\]),
//! * the paper's **vertical** vectorization (a *different input key per
//!   vector lane*, Algorithms 5, 7, 8, 9, 10), which keeps every SIMD lane
//!   busy by selectively reloading finished lanes from the input
//!   ("out-of-order" probing).
//!
//! Tables store tuples in the interleaved key/payload layout so one 64-bit
//! gather fetches a whole bucket (paper §5.1 "fewer wider gathers",
//! Appendix E).
//!
//! The open-addressing pair tables share one kernel set: one scalar
//! insert, one scalar probe walk, one vertical build and one vertical
//! probe in `STRANDS` interleaved strands, generic over an
//! [`Addressing`] scheme that gives a key's bucket sequence — linear
//! probing ([`Linear`]), double hashing, or the min-partition join's
//! sub-tables ([`SubTables`]). [`build_raw`] and [`probe_raw`] run them
//! over a caller-managed bucket slice (the joins); [`LinearTable`] and
//! [`DoubleHashTable`] are the figures' tables on top of them.
//!
//! # Key domain
//!
//! `u32::MAX` is the *empty bucket* sentinel ([`EMPTY_KEY`]). The join
//! tables (linear, double, cuckoo, bucketized) still reserve it:
//! inserting it panics in debug builds and is rejected by `try_insert`.
//! [`GroupAggTable`] accepts it, aggregating its group out of band in a
//! side slot.
//!
//! [`group::group_by_sum`] is the engine's group-by on these tables: one
//! table per worker, or, past an L2-sized table, one radix-partitioned
//! key range per task.
//!
//! # Build failures
//!
//! A cuckoo build that still cannot place a key after
//! [`CuckooTable::MAX_REHASH`] rebuilds with fresh hash functions returns
//! a typed [`CuckooBuildError`], which converts to the engine's
//! `RehashExhausted` error. Cuckoo tables serve the paper's figures
//! (Figs. 7–9) only: no engine operator builds one.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Robustness: this crate sits on every query's hot path — recoverable
// conditions (full tables, exhausted rehashes) must surface as typed
// errors, not panics. Genuinely infallible sites carry a fn-level allow.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod agg;
mod cuckoo;
pub mod diff;
pub mod group;
mod horizontal;
mod linear;
mod sink;

pub use agg::GroupAggTable;
pub use cuckoo::{CuckooBuildError, CuckooTable};
pub use horizontal::{BucketScheme, BucketizedCuckoo, BucketizedTable};
pub use linear::{
    build_raw, probe_raw, Addressing, DoubleHashTable, Linear, LinearTable, SubTables,
};
pub use sink::JoinSink;

/// The reserved key marking an empty bucket.
pub const EMPTY_KEY: u32 = u32::MAX;

/// An empty interleaved bucket: [`EMPTY_KEY`] with a zero payload.
pub const EMPTY_PAIR: u64 = EMPTY_KEY as u64;

/// Multiplicative hashing (paper §5): `h = mulhi(k · factor, buckets)`.
///
/// The factor must be odd so `k · factor (mod 2³²)` permutes the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulHash {
    factor: u32,
}

impl MulHash {
    /// Fixed factors giving independent hash functions; `MulHash::nth(0)`
    /// and `MulHash::nth(1)` are the paper's `f1`/`f2`.
    const FACTORS: [u32; 5] = [
        0x9E37_79B1,
        0x85EB_CA77,
        0xC2B2_AE3D,
        0x27D4_EB2F,
        0x1656_67B1,
    ];

    /// The `i`-th predefined hash function (`i < 5`).
    pub fn nth(i: usize) -> Self {
        MulHash {
            factor: Self::FACTORS[i],
        }
    }

    /// A hash function with a caller-chosen factor (forced odd).
    pub fn with_factor(factor: u32) -> Self {
        MulHash { factor: factor | 1 }
    }

    /// The multiplier.
    #[inline(always)]
    pub fn factor(self) -> u32 {
        self.factor
    }

    /// Bucket of `key` in a table of `buckets` buckets.
    #[inline(always)]
    pub fn bucket(self, key: u32, buckets: usize) -> usize {
        debug_assert!(buckets > 0 && buckets <= u32::MAX as usize);
        ((u64::from(key.wrapping_mul(self.factor)) * buckets as u64) >> 32) as usize
    }
}

/// Round `n` up to the next prime (used by double hashing so the probe
/// sequence `h1 + i·(1 + h2)` cannot cycle before visiting every bucket).
pub fn next_prime(n: usize) -> usize {
    fn is_prime(x: usize) -> bool {
        if x < 2 {
            return false;
        }
        if x.is_multiple_of(2) {
            return x == 2;
        }
        let mut d = 3usize;
        while d * d <= x {
            if x.is_multiple_of(d) {
                return false;
            }
            d += 2;
        }
        true
    }
    let mut x = n.max(2);
    while !is_prime(x) {
        x += 1;
    }
    x
}

/// Number of buckets for `capacity` tuples at `load_factor` occupancy.
pub(crate) fn bucket_count(capacity: usize, load_factor: f64) -> usize {
    assert!(
        load_factor > 0.0 && load_factor < 1.0,
        "load factor must be in (0, 1)"
    );
    (((capacity.max(1)) as f64 / load_factor).ceil() as usize).max(capacity + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mulhash_spreads_uniformly() {
        let h = MulHash::nth(0);
        let buckets = 1024;
        let mut counts = vec![0usize; buckets];
        for k in 0..100_000u32 {
            counts[h.bucket(k, buckets)] += 1;
        }
        let expected = 100_000 / buckets;
        assert!(counts.iter().all(|&c| c > expected / 2 && c < expected * 2));
    }

    #[test]
    fn mulhash_stays_in_range() {
        let h = MulHash::with_factor(0xDEAD_BEEE); // even input forced odd
        assert_eq!(h.factor() % 2, 1);
        for buckets in [1usize, 2, 7, 1 << 20] {
            for k in [0u32, 1, u32::MAX, 0x8000_0000] {
                assert!(h.bucket(k, buckets) < buckets);
            }
        }
    }

    #[test]
    fn next_prime_works() {
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(2), 2);
        assert_eq!(next_prime(4), 5);
        assert_eq!(next_prime(90), 97);
        let p = next_prime(1 << 20);
        assert!(p >= 1 << 20);
        // verify primality naively
        assert!((2..1000).all(|d| !p.is_multiple_of(d) || p == d));
    }

    #[test]
    fn bucket_count_leaves_free_space() {
        assert!(bucket_count(100, 0.5) >= 200);
        assert!(bucket_count(1, 0.99) >= 2);
        assert!(bucket_count(0, 0.5) >= 1);
    }
}
