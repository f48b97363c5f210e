//! Execution substrate: thread parallelism, cache-aligned buffers and
//! platform inspection.
//!
//! The paper parallelizes each operator by splitting the input equally
//! among threads and synchronizing with barriers (Sections 8 and 9). This
//! crate keeps those phase barriers but replaces the static equal split
//! with morsel-driven work stealing (see [`MorselQueue`]): inputs are cut
//! into SIMD-aligned morsels that workers claim from per-worker atomic
//! cursors, stealing when their own span runs dry. [`filter_parallel`] is
//! the one order-preserving morsel filter the selection scans and the
//! Bloom semi-join run on. The crate also provides the 64-byte aligned
//! buffers the buffered-shuffling and streaming-store code paths need.
//! What each worker did (morsels claimed and stolen, named phase times)
//! is recorded in the metering session ([`rsv_metrics::collect`]), in
//! that worker's slot.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Robustness hygiene: this crate is the substrate every operator unwinds
// through, so stray `unwrap`/`expect` are held to an allow-listed minimum
// (each carries a comment arguing its infallibility).
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod aligned;
mod error;
mod morsel;
mod parallel;
mod platform;
mod run;
mod shared;

pub use aligned::AlignedVec;
pub use error::{expect_infallible, panic_message, EngineError};
pub use morsel::{filter_parallel, ExecPolicy, Morsel, MorselQueue, DEFAULT_MORSEL_TUPLES};
pub use parallel::{
    chunk_ranges, parallel_scope, parallel_scope_try, Morsels, ParallelContext, WorkerPanic,
};
pub use platform::{platform_report, PlatformReport, L2_BYTES, PART_TABLE_BYTES};
pub use run::{Budgeted, CancelToken, MemoryBudget, RunContext};
pub use shared::{SharedBuffer, SlotMap};
