//! Runtime backend selection.

use crate::portable::Portable;

#[cfg(target_arch = "x86_64")]
use crate::{avx2::Avx2, avx512::Avx512};

/// The SIMD backends available at runtime.
///
/// Operator crates write kernels generically over [`crate::Simd`]; callers
/// pick a backend with [`Backend::best`] (or enumerate
/// [`Backend::all_available`] for experiments) and match on the variant to
/// instantiate the kernel:
///
/// ```
/// use rsv_simd::{Backend, Simd};
///
/// fn sum(backend: Backend, data: &[u32; 16]) -> u64 {
///     fn kernel<S: Simd>(s: S, data: &[u32]) -> u64 {
///         s.vectorize(|| s.reduce_add_u64(s.load(data)))
///     }
///     match backend {
///         #[cfg(target_arch = "x86_64")]
///         Backend::Avx512(s) => kernel(s, data),
///         #[cfg(target_arch = "x86_64")]
///         Backend::Avx2(s) => kernel(s, data),
///         Backend::Portable(s) => kernel(s, data),
///     }
/// }
///
/// assert_eq!(sum(Backend::best(), &[1; 16]), 16);
/// ```
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// AVX-512 (16 lanes): hardware gather/scatter/compress/expand/conflict.
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
    /// AVX2 (8 lanes): hardware gather, everything else emulated.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
    /// Portable reference (16 lanes).
    Portable(Portable<16>),
}

impl Backend {
    /// The fastest backend available on this CPU (respecting
    /// [`Backend::forced`]).
    pub fn best() -> Backend {
        Self::all_available()[0]
    }

    /// Every backend available on this CPU, fastest first.
    ///
    /// When the `RSV_FORCE_BACKEND` environment variable names a backend
    /// (`avx512`, `avx2` or `portable`), only that backend is returned —
    /// the CI lane that forces `portable` uses this to make every
    /// cross-backend test exercise the 16-lane portable code paths on
    /// runners without AVX-512.
    ///
    /// # Panics
    /// If `RSV_FORCE_BACKEND` names a backend this CPU does not support
    /// (a silent fallback would defeat the forcing).
    pub fn all_available() -> Vec<Backend> {
        let mut v = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(s) = Avx512::new() {
                v.push(Backend::Avx512(s));
            }
            if let Some(s) = Avx2::new() {
                v.push(Backend::Avx2(s));
            }
        }
        v.push(Backend::Portable(Portable::new()));
        if let Some(name) = Self::forced() {
            v.retain(|b| b.name() == name);
            assert!(
                !v.is_empty(),
                "RSV_FORCE_BACKEND={name} is not available on this CPU"
            );
        }
        v
    }

    /// The backend name forced via `RSV_FORCE_BACKEND`, if any.
    pub fn forced() -> Option<&'static str> {
        use std::sync::OnceLock;
        static FORCED: OnceLock<Option<String>> = OnceLock::new();
        FORCED
            .get_or_init(|| match std::env::var("RSV_FORCE_BACKEND") {
                Ok(s) if !s.is_empty() => Some(s.to_ascii_lowercase()),
                _ => None,
            })
            .as_deref()
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => "avx512",
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => "avx2",
            Backend::Portable(_) => "portable",
        }
    }

    /// Number of 32-bit lanes of this backend's vectors.
    pub fn lanes(&self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512(_) => 16,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2(_) => 8,
            Backend::Portable(_) => 16,
        }
    }
}

/// Which of an operator's two kernels to run: the scalar loop, or the
/// vectorized kernel on backend token `S`. The paper pairs the two for
/// every operator (§5–§9); the operator crates match on this value inside
/// the crate that owns the kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind<S> {
    /// The scalar kernel.
    Scalar,
    /// The vectorized kernel on backend `S`.
    Vector(S),
}

impl KernelKind<Portable<16>> {
    /// The scalar kernel for callers without a backend token; the scalar
    /// kernels never touch its vector type.
    pub const SCALAR: Self = KernelKind::Scalar;
}

/// Instantiate a generic SIMD expression for a [`Backend`] value.
///
/// `$s` is bound to the backend token inside `$body`:
///
/// ```
/// use rsv_simd::{dispatch, Backend, Simd};
/// let backend = Backend::best();
/// let lanes = dispatch!(backend, s => { S::LANES });
/// assert_eq!(lanes, backend.lanes());
/// ```
#[macro_export]
macro_rules! dispatch {
    ($backend:expr, $s:ident => $body:block) => {
        match $backend {
            #[cfg(target_arch = "x86_64")]
            $crate::Backend::Avx512($s) => {
                #[allow(dead_code)]
                type S = $crate::Avx512;
                $body
            }
            #[cfg(target_arch = "x86_64")]
            $crate::Backend::Avx2($s) => {
                #[allow(dead_code)]
                type S = $crate::Avx2;
                $body
            }
            $crate::Backend::Portable($s) => {
                #[allow(dead_code)]
                type S = $crate::Portable<16>;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn best_is_first_available() {
        let all = Backend::all_available();
        assert!(!all.is_empty());
        assert_eq!(Backend::best().name(), all[0].name());
        // The portable backend is always last and always present.
        assert_eq!(all.last().unwrap().name(), "portable");
    }

    #[test]
    fn lanes_match_names() {
        for b in Backend::all_available() {
            match b.name() {
                "avx512" | "portable" => assert_eq!(b.lanes(), 16),
                "avx2" => assert_eq!(b.lanes(), 8),
                other => panic!("unknown backend {other}"),
            }
        }
    }
}
