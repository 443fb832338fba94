//! Model checks for the `LatencyHistogram` lock-free recording protocol:
//! bucket count first, nanosecond sum published second with `Release`;
//! snapshots read the sum first with `Acquire`.
//!
//! Run with `RUSTFLAGS="--cfg quclassi_model" cargo test -p quclassi-serve
//! --test model_histogram`. Compiles to nothing otherwise.

#![cfg(quclassi_model)]

use interleave::thread;
use quclassi_serve::model_support::{check_protocol, mutations};
use quclassi_serve::LatencyHistogram;
use std::sync::Arc;

/// `recorders` recorders of 1 ns each racing one snapshot. With 1 ns
/// observations the documented "mean never inflated" invariant collapses
/// to `sum_ns <= count`: every nanosecond that made it into the sum must
/// have its count visible.
///
/// A 0 ns and a 2 ns observation are recorded before the recorders start,
/// so the racing 1 ns observations fall inside the extremes: each
/// recorder's two relaxed extreme loads can see only those stores and
/// take `record_ns`'s early-out, which keeps the explored tree to the
/// count/sum protocol under test. The two keep `sum_ns <= count` exact.
fn mean_never_inflated_scenario(recorders: u64) {
    let h = Arc::new(LatencyHistogram::new());
    h.record_ns(0);
    h.record_ns(2);
    let handles: Vec<_> = (0..recorders)
        .map(|_| {
            let h = Arc::clone(&h);
            thread::spawn(move || h.record_ns(1))
        })
        .collect();
    let snap = h.snapshot();
    assert!(
        snap.sum_ns() <= snap.count(),
        "inflated mean: {} ns over {} observations",
        snap.sum_ns(),
        snap.count()
    );
    for r in handles {
        r.join().unwrap();
    }
    let fin = h.snapshot();
    assert_eq!((fin.count(), fin.sum_ns()), (recorders + 2, recorders + 2));
    assert_eq!((fin.min_ns(), fin.max_ns()), (0, 2));
}

/// Two recorders racing a snapshot.
#[test]
fn snapshot_mean_is_never_inflated() {
    check_protocol(&[], || mean_never_inflated_scenario(2));
}

/// Racing `fetch_min`/`fetch_max` from two recorders converge to the true
/// extremes in every interleaving.
#[test]
fn min_max_converge_under_racing_recorders() {
    check_protocol(&[], || {
        let h = Arc::new(LatencyHistogram::new());
        let a = {
            let h = Arc::clone(&h);
            thread::spawn(move || h.record_ns(5))
        };
        h.record_ns(9);
        a.join().unwrap();
        let snap = h.snapshot();
        assert_eq!((snap.min_ns(), snap.max_ns()), (5, 9));
        assert_eq!((snap.count(), snap.sum_ns()), (2, 14));
    });
}

/// Mutation proof: weakening the sum's publish to `Relaxed` severs the
/// release/acquire pairing with the snapshot — a snapshot can observe an
/// observation's nanoseconds without its count, inflating the mean. One
/// recorder racing the snapshot already shows it, in a tree small enough
/// for the `QUCLASSI_QUICK` budget to reach the inflating interleaving
/// (the two-recorder tree does not).
#[test]
#[should_panic(expected = "interleave: model check failed")]
fn mutation_relaxed_total_is_caught() {
    check_protocol(&[mutations::HISTOGRAM_TOTAL_RELAXED], || {
        mean_never_inflated_scenario(1)
    });
}
