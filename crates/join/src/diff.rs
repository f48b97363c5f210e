//! Differential-harness registration for the three join variants.
//!
//! The reference is an independent std-`HashMap` hash join, so the
//! differential check does not share a hash table, a build loop, or a
//! probe loop with any kernel under test. Join output order is
//! unspecified (vectorized probing is unstable and sinks are
//! per-thread), so results compare as sorted triple multisets.

use crate::{join_max_partition, join_min_partition, join_no_partition, part_tuples, JoinResult};
use rsv_data::Relation;
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::{dispatch, KernelKind};
use rsv_testkit::diff::{canonical_triples, CaseInput, DiffOp, Kernel, Registry};
use std::collections::HashMap;

/// Whether the case's inner relation repeats build keys: one case in three
/// (seeds divisible by 3) with at least four build keys. The generated
/// build keys are duplicate-free, so every other case's table is too.
pub fn repeats_build_keys(input: &CaseInput) -> bool {
    input.seed.is_multiple_of(3) && input.build_keys.len() >= 4
}

/// The case's inner and outer relations. The case's probe keys are drawn
/// independently of its build keys and so almost never match; every other
/// outer key is therefore replaced by a build key it selects, so about
/// half the probes hit and a join that misplaces tuples changes the output.
///
/// Where [`repeats_build_keys`] holds, every fourth build key is replaced
/// by a copy of an earlier one (with its own payload), so the joins also
/// probe tables that hold repeated keys, where a probe must walk past its
/// first match.
fn relations(input: &CaseInput) -> (Relation, Relation) {
    let mut build = input.build_keys.clone();
    if repeats_build_keys(input) {
        for i in (3..build.len()).step_by(4) {
            build[i] = build[i / 4];
        }
    }
    let outer_keys = input
        .keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            if i % 2 == 0 {
                build[k as usize % build.len()]
            } else {
                k
            }
        })
        .collect();
    (
        Relation::new(build, input.build_pays.clone()),
        Relation::new(outer_keys, input.pays.clone()),
    )
}

fn reference(input: &CaseInput) -> Vec<u8> {
    let (inner, outer) = relations(input);
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for (k, p) in inner.iter() {
        map.entry(k).or_default().push(p);
    }
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    for (k, p) in outer.iter() {
        if let Some(inner_pays) = map.get(&k) {
            for &ip in inner_pays {
                triples.push((k, ip, p));
            }
        }
    }
    canonical_triples(triples)
}

fn result_bytes(res: JoinResult) -> Vec<u8> {
    canonical_triples(res.sinks.iter().flat_map(|s| s.iter()).collect())
}

/// A max-partition part target of one tuple: a fuzzed build side (at most
/// 700 tuples) makes as many parts as tuples, so every side above 256
/// tuples takes the partitioner's two-level route.
pub const SMALL_PART_TUPLES: usize = 1;

/// A join kernel; a max-partition kernel also names its part-target rule,
/// a function of the inner size.
macro_rules! join_kernel {
    ($name:literal, $func:ident, $s:ident => $kind:expr $(, $target:expr)?) => {
        Kernel {
            name: $name,
            threaded: true,
            run: |b, t, i| {
                let (inner, outer) = relations(i);
                let policy = ExecPolicy::new(t);
                let res = expect_infallible(dispatch!(b, $s => {
                    $func($kind, &inner, &outer, &policy $(, ($target)(inner.len()))?)
                }));
                result_bytes(res)
            },
        }
    };
}

/// Register the join operator: no/min/max-partition (max-partition at the
/// default and a small part target), scalar and vectorized, across thread
/// counts.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "join",
        reference,
        kernels: vec![
            join_kernel!("no-partition-scalar", join_no_partition, _s => KernelKind::SCALAR),
            join_kernel!("no-partition-vector", join_no_partition, s => KernelKind::Vector(s)),
            join_kernel!("min-partition-scalar", join_min_partition, _s => KernelKind::SCALAR),
            join_kernel!("min-partition-vector", join_min_partition, s => KernelKind::Vector(s)),
            join_kernel!(
                "max-partition-scalar",
                join_max_partition,
                _s => KernelKind::SCALAR,
                part_tuples
            ),
            join_kernel!(
                "max-partition-vector",
                join_max_partition,
                s => KernelKind::Vector(s),
                part_tuples
            ),
            join_kernel!(
                "max-partition-scalar-small-parts",
                join_max_partition,
                _s => KernelKind::SCALAR,
                |_| SMALL_PART_TUPLES
            ),
            join_kernel!(
                "max-partition-vector-small-parts",
                join_max_partition,
                s => KernelKind::Vector(s),
                |_| SMALL_PART_TUPLES
            ),
        ],
    });
}
