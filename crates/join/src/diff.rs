//! Differential-harness registration for the three join variants.
//!
//! The reference is an independent std-`HashMap` hash join, so the
//! differential check does not share a hash table, a build loop, or a
//! probe loop with any kernel under test. Join output order is
//! unspecified (vectorized probing is unstable and sinks are
//! per-thread), so results compare as sorted triple multisets.

use crate::{
    join_max_partition, join_min_partition, join_no_partition, JoinResult, DEFAULT_PART_TUPLES,
};
use rsv_data::Relation;
use rsv_exec::{expect_infallible, ExecPolicy};
use rsv_simd::dispatch;
use rsv_testkit::diff::{canonical_triples, CaseInput, DiffOp, Kernel, Registry};
use std::collections::HashMap;

fn relations(input: &CaseInput) -> (Relation, Relation) {
    (
        Relation::new(input.build_keys.clone(), input.build_pays.clone()),
        Relation::new(input.keys.clone(), input.pays.clone()),
    )
}

fn reference(input: &CaseInput) -> Vec<u8> {
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for (&k, &p) in input.build_keys.iter().zip(&input.build_pays) {
        map.entry(k).or_default().push(p);
    }
    let mut triples: Vec<(u32, u32, u32)> = Vec::new();
    for (&k, &p) in input.keys.iter().zip(&input.pays) {
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

macro_rules! join_kernel {
    ($name:literal, $func:ident, $vectorized:expr $(, $extra:expr)*) => {
        Kernel {
            name: $name,
            threaded: true,
            run: |b, t, i| {
                let (inner, outer) = relations(i);
                let policy = ExecPolicy::new(t);
                let (res, _) = expect_infallible(dispatch!(b, s => {
                    $func(s, $vectorized, &inner, &outer, &policy $(, $extra)*)
                }));
                result_bytes(res)
            },
        }
    };
}

/// Register the join operator: no/min/max-partition, scalar and
/// vectorized probes, across thread counts.
pub fn register(r: &mut Registry) {
    r.register(DiffOp {
        name: "join",
        reference,
        kernels: vec![
            join_kernel!("no-partition-scalar", join_no_partition, false),
            join_kernel!("no-partition-vector", join_no_partition, true),
            join_kernel!("min-partition-scalar", join_min_partition, false),
            join_kernel!("min-partition-vector", join_min_partition, true),
            join_kernel!(
                "max-partition-scalar",
                join_max_partition,
                false,
                DEFAULT_PART_TUPLES
            ),
            join_kernel!(
                "max-partition-vector",
                join_max_partition,
                true,
                DEFAULT_PART_TUPLES
            ),
        ],
    });
}
