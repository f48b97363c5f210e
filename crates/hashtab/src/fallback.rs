//! Graceful degradation for cuckoo builds: when the displacement limit is
//! exhausted across every rehash attempt (adversarial keys, or a load
//! factor past cuckoo's ~50% threshold), the build falls back — counted in
//! [`Metric::FallbackBuilds`] — to a linear-probing table with the same
//! primary hash function instead of failing the query.
//!
//! Cuckoo inputs have unique keys by contract, so both structures answer a
//! probe with at most one match per key: the fallback changes worst-case
//! probe cost, never the result. A [`FallbackTable`] that degraded to
//! [`LinearTable::with_hash`]`(capacity, load_factor, MulHash::nth(0))`
//! produces byte-identical probe output to a directly built linear table,
//! which `crates/core/tests/robustness.rs` asserts.

use rsv_metrics::Metric;
use rsv_simd::{KernelKind, Simd};

use crate::cuckoo::CuckooTable;
use crate::linear::LinearTable;
use crate::sink::JoinSink;
use crate::MulHash;

#[derive(Debug, Clone)]
enum Inner {
    Cuckoo(CuckooTable),
    Linear(LinearTable),
}

/// A build-side hash table that prefers cuckoo hashing (worst-case two
/// probe accesses) and degrades transparently to linear probing when the
/// cuckoo build cannot place every key within
/// [`CuckooTable::MAX_REHASH`] rebuild attempts.
#[derive(Debug, Clone)]
pub struct FallbackTable {
    inner: Inner,
}

impl FallbackTable {
    /// Build from unique-key columns with `kind`'s build kernels: cuckoo
    /// first, linear probing on rehash exhaustion.
    pub fn build<S: Simd>(
        kind: KernelKind<S>,
        keys: &[u32],
        pays: &[u32],
        capacity: usize,
        load_factor: f64,
    ) -> Self {
        let mut cuckoo = CuckooTable::new(capacity, load_factor);
        let built = match kind {
            KernelKind::Scalar => cuckoo.build_scalar(keys, pays),
            KernelKind::Vector(s) => cuckoo.build_vertical(s, keys, pays),
        };
        if built.is_ok() {
            return FallbackTable {
                inner: Inner::Cuckoo(cuckoo),
            };
        }
        drop(cuckoo);
        rsv_metrics::count(Metric::FallbackBuilds, 1);
        let mut linear = LinearTable::with_hash(capacity, load_factor, MulHash::nth(0));
        match kind {
            KernelKind::Scalar => linear.build_scalar(keys, pays),
            KernelKind::Vector(s) => linear.build_vertical(s, keys, pays),
        }
        FallbackTable {
            inner: Inner::Linear(linear),
        }
    }

    /// `true` if the build degraded to linear probing.
    pub fn fell_back(&self) -> bool {
        matches!(self.inner, Inner::Linear(_))
    }

    /// Number of inserted tuples.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Cuckoo(t) => t.len(),
            Inner::Linear(t) => t.len(),
        }
    }

    /// `true` if no tuples were inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the bucket array in bytes.
    pub fn size_bytes(&self) -> usize {
        match &self.inner {
            Inner::Cuckoo(t) => t.size_bytes(),
            Inner::Linear(t) => t.size_bytes(),
        }
    }

    /// Probe with `kind`'s kernel, emitting `(key, table payload, probe
    /// payload)` matches.
    pub fn probe<S: Simd>(
        &self,
        kind: KernelKind<S>,
        keys: &[u32],
        pays: &[u32],
        out: &mut JoinSink,
    ) {
        match (&self.inner, kind) {
            (Inner::Cuckoo(t), KernelKind::Scalar) => t.probe_scalar_branching(keys, pays, out),
            (Inner::Cuckoo(t), KernelKind::Vector(s)) => {
                t.probe_vertical_select(s, keys, pays, out)
            }
            (Inner::Linear(t), KernelKind::Scalar) => t.probe_scalar(keys, pays, out),
            (Inner::Linear(t), KernelKind::Vector(s)) => t.probe_vertical(s, keys, pays, out),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use rsv_simd::Portable;

    #[test]
    fn healthy_build_stays_cuckoo() {
        let mut rng = rsv_data::rng(61);
        let keys = rsv_data::unique_u32(500, &mut rng);
        let pays: Vec<u32> = (0..500).collect();
        let kind = KernelKind::Vector(Portable::<16>::new());
        let t = FallbackTable::build(kind, &keys, &pays, keys.len(), 0.5);
        assert!(!t.fell_back());
        assert_eq!(t.len(), keys.len());
    }

    #[test]
    fn overfull_build_falls_back_and_answers() {
        let mut rng = rsv_data::rng(62);
        let keys = rsv_data::unique_u32(2_000, &mut rng);
        let pays: Vec<u32> = (0..2_000).collect();
        // 97% occupancy is far past cuckoo's two-choice threshold: every
        // rehash attempt fails, linear probing takes over.
        let t = FallbackTable::build(KernelKind::SCALAR, &keys, &pays, keys.len(), 0.97);
        assert!(t.fell_back());
        assert_eq!(t.len(), keys.len());
        let mut sink = JoinSink::with_capacity(0);
        t.probe(KernelKind::SCALAR, &keys, &pays, &mut sink);
        assert_eq!(sink.len(), keys.len());
    }
}
