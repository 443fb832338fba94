//! Model checks for the `TraceRing` seqlock (writer: invalidate → release
//! fence → field stores → release publish; reader: acquire ticket → field
//! reads → acquire fence → ticket re-check).
//!
//! Run with `RUSTFLAGS="--cfg quclassi_model" cargo test -p quclassi-serve
//! --test model_seqlock`. Compiles to nothing otherwise.
//!
//! The positive tests run with the span checksum *disabled*
//! (`SEQLOCK_SKIP_CHECKSUM`), proving the bare two-ticket protocol alone
//! is torn-read-free; the checksum is defence-in-depth, not load-bearing.
//! The mutation proofs also disable it for the same reason in reverse —
//! it would mask the single-site ordering bugs they introduce.

#![cfg(quclassi_model)]

use interleave::thread;
use quclassi_serve::model_support::{check_protocol, mutations};
use quclassi_serve::{TraceRing, TraceSpan};
use std::sync::Arc;

/// A span whose every field is a distinct multiple of its id, so a torn
/// mix of two spans' fields is detectable field-by-field.
fn span(id: u64) -> TraceSpan {
    TraceSpan {
        trace_id: id,
        encode_ns: id * 3,
        compute_ns: id * 11,
        write_ns: id * 13,
        total_ns: id * 17,
        ..TraceSpan::default()
    }
}

fn assert_consistent(s: &TraceSpan) {
    assert_eq!(
        *s,
        span(s.trace_id),
        "torn span: fields from different records under one trace_id"
    );
}

/// One reader racing a lapping writer on a capacity-1 ring: every span the
/// reader gets back is internally consistent, in every interleaving and
/// for every store each relaxed load may observe.
fn lapping_writer_scenario() {
    let ring = Arc::new(TraceRing::new(1));
    ring.record(span(1));
    let writer = {
        let ring = Arc::clone(&ring);
        thread::spawn(move || ring.record(span(2)))
    };
    for s in ring.last(1) {
        assert_consistent(&s);
    }
    writer.join().unwrap();
    // Quiescent read: ticket 2 is published and must read back exactly.
    assert_eq!(ring.last(1), vec![span(2)]);
}

#[test]
fn seqlock_has_no_torn_reads_with_checksum_enabled() {
    check_protocol(&[], lapping_writer_scenario);
}

#[test]
fn seqlock_core_is_sound_without_the_checksum() {
    check_protocol(&[mutations::SEQLOCK_SKIP_CHECKSUM], lapping_writer_scenario);
}

/// Mutation proof: weakening the publish store to `Relaxed` lets a reader
/// observe the published ticket without the field stores that preceded it.
#[test]
#[should_panic(expected = "interleave: model check failed")]
fn mutation_relaxed_publish_is_caught() {
    check_protocol(
        &[
            mutations::SEQLOCK_SKIP_CHECKSUM,
            mutations::SEQLOCK_PUBLISH_RELAXED,
        ],
        lapping_writer_scenario,
    );
}

/// Mutation proof: dropping the writer's release fence breaks the
/// fence-to-fence pairing with the reader's acquire fence — a reader can
/// observe a lapping writer's field store while its ticket re-check still
/// sees the old ticket, accepting a torn span.
#[test]
#[should_panic(expected = "interleave: model check failed")]
fn mutation_skipped_release_fence_is_caught() {
    check_protocol(
        &[
            mutations::SEQLOCK_SKIP_CHECKSUM,
            mutations::SEQLOCK_SKIP_RELEASE_FENCE,
        ],
        lapping_writer_scenario,
    );
}
