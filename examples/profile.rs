//! Observability: profile a query and read its work counters.
//!
//! `Engine::profile` runs a closure of engine calls under a metering
//! session and returns the closure's result with a [`QueryProfile`]: every
//! operator-level work counter the kernels recorded (tuples scanned, hash
//! slots probed, partitions flushed, sort bytes moved, group-by parts, …)
//! and the wall time. The JSON form is the same row style the bench
//! harness emits (see README "Observability").
//!
//! Run with: `cargo run --release --example profile`

use rethinking_simd::{Engine, JoinVariant, QueryProfile, Relation};

fn main() {
    let engine = Engine::new().with_threads(2);

    let n = 100_000u32;
    let keys = (0..n).map(|i| i.wrapping_mul(2_654_435_761) >> 8).collect();
    let orders = Relation::with_rid_payloads(keys);

    // Profile a selection scan: which fraction qualified, and how much
    // work did the kernel actually do per tuple?
    let (cheap, p) = engine.profile("select", || engine.select(&orders, 1 << 20, 1 << 23));
    report(&p, cheap.len());

    // Profile a sort of the same relation: the counters show the radix
    // pass structure (4 passes × 8 bits over 32-bit keys). The copy to
    // sort in place is made outside the profiled closure.
    let mut sorted = orders.clone();
    let ((), p) = engine.profile("sort", || engine.sort(&mut sorted));
    report(&p, sorted.len());

    // Profile a max-partition hash join.
    let lookup = Relation::new(
        (0..4_096u32).map(|i| i.wrapping_mul(48_271)).collect(),
        (0..4_096).collect(),
    );
    let (joined, p) = engine.profile("join-max-partition", || {
        engine.hash_join_variant(&lookup, &orders, JoinVariant::MaxPartition)
    });
    report(&p, joined.matches());

    // Profile a group-by: (count, sum) per value of the orders' key bits
    // 8..24, up to 65,536 groups.
    let by_region = Relation::new(
        orders.keys.iter().map(|k| k >> 8).collect(),
        orders.payloads.clone(),
    );
    let (groups, p) = engine.profile("group-by", || engine.group_by_sum(&by_region, 1 << 16));
    report(&p, groups.len());
}

fn report(p: &QueryProfile, rows: usize) {
    println!("{} rows: {}", p.label, rows);
    println!("{}", p.to_json());
}
