//! Wall-clock measurement helpers for the experiment harness.

use std::time::{Duration, Instant};

/// A measured result.
#[derive(Debug, Clone, Copy)]
pub struct Timed<R> {
    /// The value the measured closure returned.
    pub value: R,
    /// Elapsed wall time.
    pub elapsed: Duration,
}

/// Time one invocation of `f`.
pub fn time<R>(f: impl FnOnce() -> R) -> Timed<R> {
    let start = Instant::now();
    let value = f();
    Timed {
        value,
        elapsed: start.elapsed(),
    }
}

/// Throughput in million tuples per second, the unit of almost every figure
/// in the paper ("billion tuples / second" axes are just this / 1000).
///
/// Returns `None` for zero-duration runs (timer granularity can round a
/// trivial measurement down to zero): the alternative, `inf`, has no JSON
/// representation and used to leave unparseable rows in `results.jsonl`.
/// Callers should skip the row or emit `null`.
pub fn throughput_mtps(tuples: usize, elapsed: Duration) -> Option<f64> {
    if elapsed.is_zero() {
        return None;
    }
    Some(tuples as f64 / elapsed.as_secs_f64() / 1e6)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn time_returns_value_and_duration() {
        let t = time(|| 21 * 2);
        assert_eq!(t.value, 42);
        assert!(t.elapsed >= Duration::ZERO);
    }

    #[test]
    fn throughput_units() {
        let mtps = throughput_mtps(2_000_000, Duration::from_secs(1)).unwrap();
        assert!((mtps - 2.0).abs() < 1e-9);
        let mtps = throughput_mtps(1_000_000, Duration::from_millis(500)).unwrap();
        assert!((mtps - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_yields_no_throughput() {
        assert_eq!(throughput_mtps(1_000_000, Duration::ZERO), None);
        assert_eq!(throughput_mtps(0, Duration::ZERO), None);
    }
}
