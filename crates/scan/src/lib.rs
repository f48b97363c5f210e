//! Selection scans (paper Section 4).
//!
//! A selection scan filters a table on a range predicate
//! `k_lower ≤ key ≤ k_upper` and materializes the qualifying keys and
//! payloads. The paper evaluates six implementations (Figure 5):
//!
//! * [`scan_scalar_branching`] — Algorithm 1, one branch per tuple,
//! * [`scan_scalar_branchless`] — Algorithm 2, converts control flow to
//!   data flow with a conditional index increment,
//! * four vectorized variants crossing two design choices:
//!   * **qualifier extraction**: extract one bit of the predicate bitmask
//!     at a time ([`scan_vector_bitextract_direct`],
//!     [`scan_vector_bitextract_indirect`]) versus a vector *selective
//!     store* of all qualifiers at once ([`scan_vector_selstore_direct`],
//!     [`scan_vector_selstore_indirect`]),
//!   * **materialization**: copy key and payload *directly* during the
//!     scan, versus buffering qualifier indexes in a small cache-resident
//!     buffer and *indirectly* dereferencing (gathering) the columns when
//!     the buffer is flushed with streaming stores (Algorithm 3). The
//!     indirect variants skip payload accesses for non-qualifying tuples,
//!     which dominates at low selectivity.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod diff;
mod parallel;
mod scalar;
mod vector;

pub use parallel::scan_parallel;
pub use scalar::{scan_scalar_branching, scan_scalar_branchless};
pub use vector::{
    scan_vector_bitextract_direct, scan_vector_bitextract_indirect, scan_vector_selstore_direct,
    scan_vector_selstore_indirect,
};

/// The range predicate `lower ≤ key ≤ upper` (both inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanPredicate {
    /// Inclusive lower bound.
    pub lower: u32,
    /// Inclusive upper bound.
    pub upper: u32,
}

impl ScanPredicate {
    /// Evaluate the predicate on one key.
    #[inline(always)]
    pub fn matches(self, key: u32) -> bool {
        key >= self.lower && key <= self.upper
    }
}

/// Every selection-scan implementation in this crate, for experiment sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanVariant {
    /// Algorithm 1 (scalar, branching).
    ScalarBranching,
    /// Algorithm 2 (scalar, branchless).
    ScalarBranchless,
    /// Vector, bitmask extracted one bit at a time, direct copy.
    VectorBitExtractDirect,
    /// Vector, selective store, direct copy.
    VectorSelStoreDirect,
    /// Vector, bitmask extracted one bit at a time, index buffer + gather.
    VectorBitExtractIndirect,
    /// Vector, selective store, index buffer + gather (Algorithm 3).
    VectorSelStoreIndirect,
}

impl ScanVariant {
    /// All variants, in the order Figure 5 lists them.
    pub const ALL: [ScanVariant; 6] = [
        ScanVariant::ScalarBranching,
        ScanVariant::ScalarBranchless,
        ScanVariant::VectorBitExtractDirect,
        ScanVariant::VectorSelStoreDirect,
        ScanVariant::VectorBitExtractIndirect,
        ScanVariant::VectorSelStoreIndirect,
    ];

    /// This variant's position in [`ScanVariant::ALL`], used to index the
    /// lanes-active histograms in `rsv_metrics::Counters::scan_lanes`.
    pub fn index(self) -> usize {
        match self {
            ScanVariant::ScalarBranching => 0,
            ScanVariant::ScalarBranchless => 1,
            ScanVariant::VectorBitExtractDirect => 2,
            ScanVariant::VectorSelStoreDirect => 3,
            ScanVariant::VectorBitExtractIndirect => 4,
            ScanVariant::VectorSelStoreIndirect => 5,
        }
    }

    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ScanVariant::ScalarBranching => "scalar-branching",
            ScanVariant::ScalarBranchless => "scalar-branchless",
            ScanVariant::VectorBitExtractDirect => "vector-bitextract-direct",
            ScanVariant::VectorSelStoreDirect => "vector-selstore-direct",
            ScanVariant::VectorBitExtractIndirect => "vector-bitextract-indirect",
            ScanVariant::VectorSelStoreIndirect => "vector-selstore-indirect",
        }
    }
}

/// Run any variant on any backend (scalar variants ignore the backend).
///
/// Writes qualifiers to the front of `out_keys` / `out_pays` and returns the
/// qualifier count.
pub fn scan(
    backend: rsv_simd::Backend,
    variant: ScanVariant,
    keys: &[u32],
    pays: &[u32],
    pred: ScanPredicate,
    out_keys: &mut [u32],
    out_pays: &mut [u32],
) -> usize {
    let count = match variant {
        ScanVariant::ScalarBranching => scan_scalar_branching(keys, pays, pred, out_keys, out_pays),
        ScanVariant::ScalarBranchless => {
            scan_scalar_branchless(keys, pays, pred, out_keys, out_pays)
        }
        ScanVariant::VectorBitExtractDirect => rsv_simd::dispatch!(backend, s => {
            scan_vector_bitextract_direct(s, keys, pays, pred, out_keys, out_pays)
        }),
        ScanVariant::VectorSelStoreDirect => rsv_simd::dispatch!(backend, s => {
            scan_vector_selstore_direct(s, keys, pays, pred, out_keys, out_pays)
        }),
        ScanVariant::VectorBitExtractIndirect => rsv_simd::dispatch!(backend, s => {
            scan_vector_bitextract_indirect(s, keys, pays, pred, out_keys, out_pays)
        }),
        ScanVariant::VectorSelStoreIndirect => rsv_simd::dispatch!(backend, s => {
            scan_vector_selstore_indirect(s, keys, pays, pred, out_keys, out_pays)
        }),
    };
    rsv_metrics::count(rsv_metrics::Metric::ScanTuplesIn, keys.len() as u64);
    rsv_metrics::count(rsv_metrics::Metric::ScanTuplesOut, count as u64);
    count
}
