//! Property tests: the three join variants, scalar and vector, agree with
//! each other and with a `HashMap` reference on arbitrary workloads.

use rsv_data::Relation;
use rsv_exec::ExecPolicy;
use rsv_join::{join_max_partition, join_min_partition, join_no_partition, DEFAULT_PART_TUPLES};
use rsv_simd::Backend;
use rsv_testkit as tk;
use std::collections::HashMap;

fn reference(inner: &Relation, outer: &Relation) -> ((u64, u64), usize) {
    let mut map: HashMap<u32, Vec<u32>> = HashMap::new();
    for (k, p) in inner.iter() {
        map.entry(k).or_default().push(p);
    }
    let mut rows = Vec::new();
    for (k, p) in outer.iter() {
        if let Some(b) = map.get(&k) {
            for &bp in b {
                rows.push((k, bp, p));
            }
        }
    }
    let n = rows.len();
    (rsv_data::multiset_fingerprint(rows), n)
}

/// Keys in a narrow domain to force repeats + misses; avoid the empty
/// sentinel.
fn join_keys(rng: &mut tk::Rng, min_len: usize, max_len: usize) -> Vec<u32> {
    let n = tk::len_in(rng, min_len, max_len);
    (0..n).map(|_| tk::key_not_sentinel(rng, 64)).collect()
}

#[test]
fn all_variants_match_reference() {
    tk::check("all_variants_match_reference", 24, 0x1011, |rng| {
        let inner_keys = join_keys(rng, 1, 150);
        let outer_keys = join_keys(rng, 0, 300);
        let policy = ExecPolicy::new(1 + rng.index(3));

        let inner = Relation::with_rid_payloads(inner_keys);
        let outer = Relation::with_rid_payloads(outer_keys);
        let (expected_fp, expected_n) = reference(&inner, &outer);
        let backend = Backend::best();
        rsv_simd::dispatch!(backend, s => {
            for vectorized in [false, true] {
                let (r, _) = join_no_partition(s, vectorized, &inner, &outer, &policy).unwrap();
                assert_eq!(r.matches(), expected_n, "no-partition vec={vectorized}");
                assert_eq!(r.fingerprint(), expected_fp);

                let (r, _) = join_min_partition(s, vectorized, &inner, &outer, &policy).unwrap();
                assert_eq!(r.matches(), expected_n, "min-partition vec={vectorized}");
                assert_eq!(r.fingerprint(), expected_fp);

                let (r, _) =
                    join_max_partition(s, vectorized, &inner, &outer, &policy, DEFAULT_PART_TUPLES)
                        .unwrap();
                assert_eq!(r.matches(), expected_n, "max-partition vec={vectorized}");
                assert_eq!(r.fingerprint(), expected_fp);
            }
        });
    });
}
