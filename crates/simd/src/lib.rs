//! SIMD substrate for vectorized in-memory database operators.
//!
//! This crate implements the *fundamental vector operations* defined in
//! Section 3 of "Rethinking SIMD Vectorization for In-Memory Databases"
//! (SIGMOD 2015):
//!
//! * **selective store** (Figure 1) — write the active subset of vector
//!   lanes to memory contiguously,
//! * **selective load** (Figure 2) — load contiguous memory into the active
//!   subset of vector lanes, leaving inactive lanes untouched,
//! * **gather** (Figure 3) — load from non-contiguous locations given a
//!   vector of indexes,
//! * **scatter** (Figure 4) — store to non-contiguous locations; when
//!   multiple lanes point to the same location the *rightmost*
//!   (highest-numbered) lane wins,
//!
//! plus the arithmetic, comparison, mask, and permutation operations needed
//! to express the paper's operator kernels entirely as data flow.
//!
//! # Backends
//!
//! | Backend | Lanes (`W`) | Hardware model |
//! |---|---|---|
//! | [`Portable<W>`](Portable) | any power of two ≤ 16 | executable reference semantics, plain safe Rust |
//! | [`Avx2`] | 8 | "Haswell": hardware gathers, **no** scatters, selective load/store emulated with permutation tables (paper Appendix C/D) |
//! | [`Avx512`] | 16 | "Xeon Phi / AVX-512": hardware gathers, scatters, compress (selective store), expand (selective load), `vpconflictd` |
//!
//! Operator kernels are written once, generically over the [`Simd`] trait,
//! and instantiated per backend. Use [`Simd::vectorize`] around a kernel
//! invocation so the whole monomorphized kernel is compiled inside a
//! `#[target_feature]`-enabled frame and the intrinsics inline.
//!
//! # Example
//!
//! ```
//! use rsv_simd::{Simd, Portable, LaneMask};
//!
//! let s = Portable::<8>::new();
//! let data: Vec<u32> = (0..8).map(|x| x * 10).collect();
//! let idx = s.load(&[7, 0, 3, 1, 4, 2, 6, 5]);
//! let gathered = s.gather(&data, idx);
//! let mut out = [0u32; 8];
//! s.store(gathered, &mut out);
//! assert_eq!(out, [70, 0, 30, 10, 40, 20, 60, 50]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]
// Kernel code has no recoverable failures to unwrap; keep it that way.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod backend;
pub mod bitmap;
mod mask;
mod portable;
mod simd_trait;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

pub use backend::{Backend, KernelKind};
pub use mask::LaneMask;
pub use portable::Portable;
pub use simd_trait::{MaskLike, SetLanes, Simd};

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2;
#[cfg(target_arch = "x86_64")]
pub use avx512::Avx512;

/// Hint the CPU to bring `slice[i]` into cache ahead of a read: a
/// `prefetcht0` on x86_64, a no-op on other targets or when `i` is out of
/// range. A prefetch never faults and never changes a result; it only
/// starts a cache miss early so other work can overlap it.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(x) = slice.get(i) {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `x` points into a live slice, and SSE (which provides
        // `prefetcht0`) is part of the x86_64 baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((x as *const T).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slice, i);
}

/// The vector width (number of 32-bit lanes) the paper's Xeon Phi platform
/// uses, and the width of the [`Avx512`] and default [`Portable`] backends.
pub const PHI_LANES: usize = 16;

/// The vector width of the paper's Haswell platform ([`Avx2`] backend).
pub const HASWELL_LANES: usize = 8;
