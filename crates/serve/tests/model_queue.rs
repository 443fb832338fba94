//! Model checks for the `AdmissionGate` protocol (mutex + condvar): the
//! capacity bound on requests running to completion on their admitting
//! threads, and shutdown's close-then-drain.
//!
//! Run with `RUSTFLAGS="--cfg quclassi_model" cargo test -p quclassi-serve
//! --test model_queue`. Compiles to nothing otherwise.

#![cfg(quclassi_model)]

use interleave::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use interleave::thread;
use quclassi_serve::model_support::{check_protocol, mutations, QueueProbe};
use std::sync::Arc;

/// Two requests race through a capacity-1 gate: they never run at the
/// same time, and one that is refused is refused as saturated.
#[test]
fn capacity_bounds_concurrent_requests() {
    check_protocol(&[], || {
        let q = Arc::new(QueueProbe::new(1));
        let active = Arc::new(AtomicUsize::new(0));
        let run = |q: &QueueProbe, active: &AtomicUsize| {
            q.run_inline(|| {
                assert_eq!(active.fetch_add(1, Ordering::AcqRel), 0, "over capacity");
                active.fetch_sub(1, Ordering::AcqRel);
            })
        };
        let other = {
            let (q, active) = (Arc::clone(&q), Arc::clone(&active));
            thread::spawn(move || run(&q, &active))
        };
        let mine = run(&q, &active);
        let theirs = other.join().unwrap();
        for outcome in [mine, theirs] {
            assert!(outcome.is_ok() || outcome == Err(true), "{outcome:?}");
        }
        assert!(mine.is_ok() || theirs.is_ok(), "one of them was admitted");
    });
}

/// Close racing a request: once shutdown's drain returns, a request
/// admitted before the close has finished, and the gate refuses every
/// later admission as shut down.
#[test]
fn close_refuses_later_admissions_after_answering_earlier_ones() {
    check_protocol(&[], || {
        let q = Arc::new(QueueProbe::new(4));
        let finished = Arc::new(AtomicBool::new(false));
        let producer = {
            let (q, finished) = (Arc::clone(&q), Arc::clone(&finished));
            thread::spawn(move || {
                q.run_inline(|| finished.store(true, Ordering::Relaxed))
                    .unwrap();
                q.close();
            })
        };
        q.wait_drained();
        assert!(
            finished.load(Ordering::Relaxed),
            "a request admitted before the close was answered"
        );
        assert_eq!(q.run_inline(|| {}), Err(false), "closed gate refuses");
        producer.join().unwrap();
    });
}

/// Run to completion racing close: once the drain returns (after which
/// shutdown returns), a request admitted to run on its own thread has
/// finished, and a refused one never ran — so `admitted == completed` at
/// that point.
fn inline_request_races_close() {
    let q = Arc::new(QueueProbe::new(4));
    let finished = Arc::new(AtomicBool::new(false));
    let runner = {
        let (q, finished) = (Arc::clone(&q), Arc::clone(&finished));
        thread::spawn(move || {
            q.run_inline(|| finished.store(true, Ordering::Relaxed))
                .is_ok()
        })
    };
    q.close();
    q.wait_drained();
    let finished_at_drain = finished.load(Ordering::Relaxed);
    let admitted = runner.join().unwrap();
    assert_eq!(
        admitted, finished_at_drain,
        "the gate drained while an admitted request was still running"
    );
}

#[test]
fn drain_waits_for_requests_running_to_completion() {
    check_protocol(&[], inline_request_races_close);
}

/// Mutation proof: a drain that ignores running requests lets shutdown
/// return while an admitted request is still being evaluated on its
/// caller's thread.
#[test]
#[should_panic(expected = "interleave: model check failed")]
fn mutation_drain_ignoring_running_requests_is_caught() {
    check_protocol(
        &[mutations::QUEUE_IGNORE_RUNNING],
        inline_request_races_close,
    );
}
