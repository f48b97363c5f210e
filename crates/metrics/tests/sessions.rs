//! Metering sessions belong to the call tree that opened them: two
//! sessions on two threads run at the same time, and each harvests only
//! its own counts.

#![cfg(not(feature = "noop"))]

use rsv_metrics::{collect, count, Metric};
use std::sync::mpsc;
use std::time::Duration;

/// Thread A holds its session open while thread B runs a whole session.
/// If sessions were serialized process-wide, B could not start until A
/// finished, so A's bounded wait would time out instead of hanging.
#[test]
fn sessions_overlap_and_do_not_mix() {
    let (started_tx, started_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let b = std::thread::spawn(move || {
        started_rx.recv().unwrap();
        let ((), sink) = collect(|| count(Metric::ScanTuplesIn, 7));
        done_tx.send(()).unwrap();
        sink
    });
    let (b_finished, a) = collect(|| {
        count(Metric::ScanTuplesIn, 5);
        started_tx.send(()).unwrap();
        let finished = done_rx.recv_timeout(Duration::from_secs(10));
        count(Metric::ScanTuplesIn, 5);
        finished
    });
    assert!(
        b_finished.is_ok(),
        "B's session could not run while A's was open"
    );
    let b = b.join().unwrap();
    assert_eq!(a.total().get(Metric::ScanTuplesIn), 10, "A's total");
    assert_eq!(b.total().get(Metric::ScanTuplesIn), 7, "B's total");
}
