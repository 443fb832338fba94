//! Model checks for the `BoundedQueue` push / batched-pop / close-drain
//! protocol (mutex + condvar, notify after unlock), including requests
//! admitted to run to completion on their own thread.
//!
//! Run with `RUSTFLAGS="--cfg quclassi_model" cargo test -p quclassi-serve
//! --test model_queue`. Compiles to nothing otherwise.
//!
//! All scenarios use a zero batch window: the model's condvar treats timed
//! waits as immediate timeouts, so the deadline path contributes nothing
//! explorable — the rendezvous under test is the phase-1 wait loop.

#![cfg(quclassi_model)]

use interleave::sync::atomic::{AtomicBool, Ordering};
use interleave::thread;
use quclassi_serve::model_support::{check_protocol, mutations, QueueProbe};
use std::sync::Arc;

/// Two producers, one consumer: every pushed item is popped exactly once,
/// in admission order, in every interleaving.
#[test]
fn items_are_neither_lost_nor_duplicated() {
    check_protocol(&[], || {
        let q = Arc::new(QueueProbe::new(4));
        let producers: Vec<_> = [1u32, 2]
            .into_iter()
            .map(|v| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.push(v).unwrap())
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 2 {
            got.extend(q.pop_batch(2).expect("queue is not closed"));
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(q.depth(), 0);
    });
}

/// Close-drain: a close racing the consumer never strands the item pushed
/// before it — the consumer drains it, then sees the closed/empty `None`.
#[test]
fn close_drains_queued_items_before_none() {
    check_protocol(&[], || {
        let q = Arc::new(QueueProbe::new(4));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.push(7).unwrap();
                q.close();
            })
        };
        let mut got = Vec::new();
        while let Some(items) = q.pop_batch(2) {
            got.extend(items);
        }
        producer.join().unwrap();
        assert_eq!(got, vec![7], "item pushed before close must drain");
        assert!(q.push(8).is_err(), "closed queue rejects admissions");
    });
}

/// Mutation proof: notifying before the item is visible is the classic
/// lost wakeup — the consumer can check the queue, find it empty, then
/// sleep through the only (already-spent) notification. The checker
/// reports the resulting deadlock.
#[test]
#[should_panic(expected = "interleave: model check failed")]
fn mutation_notify_before_publish_is_caught() {
    check_protocol(&[mutations::QUEUE_NOTIFY_EARLY], || {
        let q = Arc::new(QueueProbe::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.pop_batch(1).expect("queue never closes"))
        };
        q.push(1).unwrap();
        assert_eq!(consumer.join().unwrap(), vec![1]);
    });
}

/// Run to completion racing close: once the consumer sees the closed
/// queue as drained (the scheduler's exit, after which shutdown returns),
/// a request admitted to run on its own thread has finished, and a
/// refused one never ran — so `admitted == completed` at that point.
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
    while q.pop_batch(1).is_some() {}
    let finished_at_drain = finished.load(Ordering::Relaxed);
    let admitted = runner.join().unwrap();
    assert_eq!(
        admitted, finished_at_drain,
        "the consumer drained while an admitted request was still running"
    );
}

#[test]
fn drain_waits_for_requests_running_to_completion() {
    check_protocol(&[], inline_request_races_close);
}

/// Mutation proof: a drain that ignores running requests lets the
/// scheduler — and shutdown — return while an admitted request is still
/// being evaluated on its caller's thread.
#[test]
#[should_panic(expected = "interleave: model check failed")]
fn mutation_drain_ignoring_running_requests_is_caught() {
    check_protocol(
        &[mutations::QUEUE_IGNORE_RUNNING],
        inline_request_races_close,
    );
}
