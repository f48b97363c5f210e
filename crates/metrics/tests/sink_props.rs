//! Algebraic properties of [`CountingSink::merge`].
//!
//! Profiles merge sinks across repeats and across parallel regions, so
//! `merge` must be a per-worker sum: commutative, associative, and with
//! `CountingSink::default()` as the identity — exactly (`Eq`), histograms
//! and named phases included. Sinks are generated through the real
//! thread-local metering path (`count`/`add_scan_lanes`/`record_phase`/
//! `flush_worker`), so the properties also cover the plumbing that fills
//! worker slots.

use rsv_metrics::{CountingSink, Metric, LANE_BUCKETS, SCAN_VARIANTS, WIDTH_BUCKETS};
use rsv_testkit::Rng;

fn random_sink(rng: &mut Rng) -> CountingSink {
    let workers = rng.index(4);
    let mut plan: Vec<Box<dyn FnMut()>> = Vec::new();
    // draw the plan up front so rng state never depends on metering
    for _ in 0..workers {
        let counts: Vec<(Metric, u64)> = (0..rng.index(8))
            .map(|_| (Metric::ALL[rng.index(Metric::ALL.len())], rng.below(1_000)))
            .collect();
        let lanes = if rng.f64() < 0.5 {
            let mut h = [0u64; LANE_BUCKETS];
            for b in h.iter_mut() {
                *b = rng.below(5);
            }
            Some((rng.index(SCAN_VARIANTS), h))
        } else {
            None
        };
        let width = (rng.index(WIDTH_BUCKETS), rng.below(10));
        let phases: Vec<(&'static str, u64)> = (0..rng.index(6))
            .map(|_| (PHASES[rng.index(PHASES.len())], rng.below(1 << 30)))
            .collect();
        plan.push(Box::new(move || {
            for &(m, n) in &counts {
                rsv_metrics::count(m, n);
            }
            if let Some((variant, h)) = lanes {
                rsv_metrics::add_scan_lanes(variant, &h);
            }
            rsv_metrics::count_blocks_decoded(width.0, width.1);
            for &(name, ns) in &phases {
                rsv_metrics::record_phase(name, ns);
            }
        }));
    }
    let ((), sink) = rsv_metrics::collect(|| {
        for (w, work) in plan.iter_mut().enumerate() {
            work();
            rsv_metrics::flush_worker(w);
        }
    });
    sink
}

/// Phase names the generated sinks draw from.
const PHASES: [&str; 4] = ["histogram", "shuffle", "build", "probe"];

fn merged(a: &CountingSink, b: &CountingSink) -> CountingSink {
    let mut m = a.clone();
    m.merge(b);
    m
}

#[test]
fn merge_is_commutative() {
    rsv_testkit::check("sink-merge-commutative", 100, 0x5349_4E4B, |rng| {
        let a = random_sink(rng);
        let b = random_sink(rng);
        assert_eq!(merged(&a, &b), merged(&b, &a));
    });
}

#[test]
fn merge_is_associative() {
    rsv_testkit::check("sink-merge-associative", 100, 0x5349_4E4C, |rng| {
        let a = random_sink(rng);
        let b = random_sink(rng);
        let c = random_sink(rng);
        assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    });
}

#[test]
fn default_is_the_identity() {
    rsv_testkit::check("sink-merge-identity", 100, 0x5349_4E4D, |rng| {
        let a = random_sink(rng);
        assert_eq!(merged(&a, &CountingSink::default()), a);
        assert_eq!(merged(&CountingSink::default(), &a), a);
    });
}

/// A name's histogram counts one sample per call, in that worker's slot,
/// and its total is the sum of the calls' times; merging keeps both.
#[test]
fn phase_histograms_count_calls() {
    rsv_testkit::check("sink-phase-calls", 100, 0x5349_4E4F, |rng| {
        let calls: Vec<(usize, &'static str, u64)> = (0..rng.index(40))
            .map(|_| {
                (
                    rng.index(3),
                    PHASES[rng.index(PHASES.len())],
                    rng.below(1 << 40),
                )
            })
            .collect();
        let (on, sink) = rsv_metrics::collect(|| {
            for &(w, name, ns) in &calls {
                rsv_metrics::record_phase(name, ns);
                rsv_metrics::flush_worker(w);
            }
            rsv_metrics::enabled()
        });
        if !on {
            return; // metering compiled out
        }
        let doubled = merged(&sink, &sink);
        for w in 0..3 {
            for name in PHASES {
                let mine = calls.iter().filter(|c| (c.0, c.1) == (w, name));
                let (n, ns) = mine.fold((0, 0), |(n, t), c| (n + 1, t + c.2));
                let got = sink.workers.get(w).and_then(|c| c.phases.get(name));
                assert_eq!(got.map_or(0, |p| p.calls()), n, "worker {w} {name}");
                assert_eq!(got.map_or(0, |p| p.ns), ns, "worker {w} {name}");
                let got = doubled.workers.get(w).and_then(|c| c.phases.get(name));
                assert_eq!(got.map_or(0, |p| p.calls()), 2 * n, "worker {w} {name}");
            }
        }
    });
}

#[test]
fn merge_distributes_over_totals() {
    rsv_testkit::check("sink-merge-totals", 100, 0x5349_4E4E, |rng| {
        let a = random_sink(rng);
        let b = random_sink(rng);
        let m = merged(&a, &b).total();
        let (ta, tb) = (a.total(), b.total());
        for metric in Metric::ALL {
            assert_eq!(m.get(metric), ta.get(metric) + tb.get(metric));
        }
    });
}
