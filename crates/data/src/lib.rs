//! Relations and synthetic workload generators.
//!
//! The paper evaluates every operator on synthetically generated, uniformly
//! distributed 32-bit columns (Section 10: "All data are synthetically
//! generated in memory and follow the uniform distribution"). This crate
//! provides those workloads deterministically (seeded), plus the verification
//! helpers the experiment harness uses to check operator output cheaply.

#![deny(missing_docs)]
#![warn(clippy::all)]
// Generators and verifiers feed the engine; they do not unwrap either.
#![warn(clippy::unwrap_used, clippy::expect_used)]

mod gen;
mod prng;
mod relation;
mod verify;

pub use gen::{
    bounded_u32, join_workload, selection_bounds, shuffle, splitters, uniform_u32, unique_u32,
    zipf_u32, JoinWorkload,
};
pub use prng::Rng;
pub use relation::Relation;
pub use verify::{multiset_fingerprint, sum_u64};

/// Construct the deterministic RNG from a seed.
pub fn rng(seed: u64) -> Rng {
    Rng::seed_from_u64(seed)
}
