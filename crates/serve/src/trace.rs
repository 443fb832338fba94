//! Per-request tracing: stage-stamped spans in a lock-free ring buffer.
//!
//! Every request admitted to the serving runtime carries a trace id (the
//! wire request's `"id"` when it has one, an auto-assigned id otherwise)
//! and accumulates monotonic stage timestamps as it moves through the
//! pipeline: **encode** (admission-side validation + angle encoding) →
//! **compute** (the evaluation, on the admitting thread) → **write**
//! (response bytes drained to the socket; zero for in-process requests).
//! The **queue wait** and **assemble** stages are kept in the span and
//! always read 0: no request is queued or batched. When the lifecycle
//! completes, one [`TraceSpan`] is recorded into the runtime's
//! [`TraceRing`] and becomes retrievable — newest last — through
//! `Client::traces` and the wire `{"op":"trace","last":N}` op.
//!
//! ## The ring
//!
//! [`TraceRing`] is a fixed-capacity overwrite-oldest buffer with the same
//! lock-free discipline as
//! [`LatencyHistogram`](crate::metrics::LatencyHistogram): recording takes
//! one atomic ticket claim plus a handful of relaxed stores — no lock, no
//! allocation — so tracing cannot perturb the latencies it measures.
//! Readers validate each slot seqlock-style: a slot's **ticket** (the
//! 1-based global record index it holds) is read before and after the
//! field reads, and a mixed **checksum** over the fields is verified, so a
//! reader that races a lapping writer *skips* the slot rather than
//! returning a torn span. Capacity 0 disables tracing entirely: recording
//! is a no-op and retrieval returns nothing.

use crate::mutation;
use crate::quclassi_sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// Default [`TraceRing`] capacity (`ServeConfig::trace_capacity`,
/// overridable via `QUCLASSI_TRACE_CAPACITY`; 0 disables tracing).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// One completed request's stage timeline, all durations in nanoseconds.
///
/// The stages partition the request's lifetime:
/// `encode + queue_wait + assemble + compute + write ≈ total` (the
/// remainder is bookkeeping between stage boundaries — microseconds, not
/// milliseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSpan {
    /// The request's trace id: a numeric wire `"id"` verbatim, a hash of a
    /// non-numeric one, or an auto-assigned id for untagged / in-process
    /// requests.
    pub trace_id: u64,
    /// Admission-side validation + rotation-angle encoding.
    pub encode_ns: u64,
    /// Time spent queued before evaluation: always 0, since every request
    /// runs to completion on its admitting thread.
    pub queue_wait_ns: u64,
    /// Batch assembly: always 0, since no request is batched.
    pub assemble_ns: u64,
    /// The request's evaluation.
    pub compute_ns: u64,
    /// Response serialisation + socket drain (0 for in-process requests,
    /// which have no write stage).
    pub write_ns: u64,
    /// End-to-end: request received → response delivered.
    pub total_ns: u64,
    /// Number of requests evaluated together: always 1.
    pub batch_size: u64,
}

const SPAN_FIELDS: usize = 8;

impl TraceSpan {
    /// Sum of the five stage durations — the traced fraction of
    /// [`TraceSpan::total_ns`].
    pub fn stage_sum_ns(&self) -> u64 {
        self.encode_ns + self.queue_wait_ns + self.assemble_ns + self.compute_ns + self.write_ns
    }

    fn to_fields(self) -> [u64; SPAN_FIELDS] {
        [
            self.trace_id,
            self.encode_ns,
            self.queue_wait_ns,
            self.assemble_ns,
            self.compute_ns,
            self.write_ns,
            self.total_ns,
            self.batch_size,
        ]
    }

    fn from_fields(f: [u64; SPAN_FIELDS]) -> Self {
        TraceSpan {
            trace_id: f[0],
            encode_ns: f[1],
            queue_wait_ns: f[2],
            assemble_ns: f[3],
            compute_ns: f[4],
            write_ns: f[5],
            total_ns: f[6],
            batch_size: f[7],
        }
    }
}

/// Order-sensitive mix of a slot's ticket and fields. Tearing insurance on
/// top of the seqlock ticket check: two writers lapping onto the same slot
/// can interleave their field stores in a way the before/after ticket
/// reads alone cannot always detect, but a mixed checksum over the exact
/// field values makes a surviving torn read astronomically unlikely.
fn span_checksum(ticket: u64, fields: &[u64; SPAN_FIELDS]) -> u64 {
    let mut acc = ticket ^ 0x9E37_79B9_7F4A_7C15;
    for &v in fields {
        acc = acc
            .rotate_left(13)
            .wrapping_mul(0x100_0000_01B3)
            .wrapping_add(v);
    }
    acc
}

struct Slot {
    /// The 1-based global record index whose span the fields hold; 0 while
    /// empty or mid-write.
    ticket: AtomicU64,
    fields: [AtomicU64; SPAN_FIELDS],
    checksum: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            ticket: AtomicU64::new(0),
            fields: std::array::from_fn(|_| AtomicU64::new(0)),
            checksum: AtomicU64::new(0),
        }
    }
}

/// A fixed-capacity, lock-free, overwrite-oldest ring of [`TraceSpan`]s.
pub struct TraceRing {
    slots: Box<[Slot]>,
    /// Total spans ever recorded (tickets are 1-based: slot `(t-1) % cap`
    /// holds ticket `t`).
    head: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl TraceRing {
    /// Creates a ring holding the most recent `capacity` spans (0 disables
    /// tracing: recording becomes a no-op).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total spans recorded since construction (not bounded by capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one span, overwriting the oldest when full. Lock-free and
    /// allocation-free: one ticket claim + relaxed field stores.
    pub fn record(&self, span: TraceSpan) {
        if self.slots.is_empty() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if ticket == 0 {
            // The 2^64th span wrapped the ticket counter onto the "empty /
            // mid-write" sentinel; drop this one span rather than publish a
            // slot readers must treat as invalid.
            return;
        }
        let slot = &self.slots[((ticket - 1) % self.slots.len() as u64) as usize];
        // Seqlock write protocol: invalidate, fence, store fields, publish.
        // The Release *fence* (not merely the release invalidation store)
        // is what orders the relaxed field stores after the invalidation
        // from the reader's point of view: it pairs with the reader's
        // Acquire fence between its field reads and ticket re-check, so a
        // reader whose re-check still sees the old ticket cannot have read
        // any of this writer's field values. The Release on the final
        // ticket store pairs with readers' Acquire ticket load, making
        // every field store visible to a reader that observes the
        // published ticket.
        slot.ticket.store(0, Ordering::Release);
        if mutation::seqlock_release_fence() {
            fence(Ordering::Release);
        }
        let fields = span.to_fields();
        for (dst, v) in slot.fields.iter().zip(fields) {
            dst.store(v, Ordering::Relaxed);
        }
        slot.checksum
            .store(span_checksum(ticket, &fields), Ordering::Relaxed);
        slot.ticket.store(ticket, mutation::seqlock_publish());
    }

    /// Reads the slot expected to hold `ticket`, seqlock-style; `None` if
    /// it was overwritten, is mid-write, or fails the checksum.
    fn read_slot(&self, ticket: u64) -> Option<TraceSpan> {
        let slot = &self.slots[((ticket - 1) % self.slots.len() as u64) as usize];
        if slot.ticket.load(Ordering::Acquire) != ticket {
            return None;
        }
        let mut fields = [0u64; SPAN_FIELDS];
        for (dst, src) in fields.iter_mut().zip(slot.fields.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        let checksum = slot.checksum.load(Ordering::Relaxed);
        // Order the field reads before the ticket re-check: if the ticket
        // is still ours afterwards *and* the checksum matches, the fields
        // form one consistent record.
        fence(Ordering::Acquire);
        if slot.ticket.load(Ordering::Relaxed) != ticket {
            return None;
        }
        if mutation::seqlock_verify_checksum() && checksum != span_checksum(ticket, &fields) {
            return None;
        }
        Some(TraceSpan::from_fields(fields))
    }

    /// Test-only: plants the ticket counter so overflow behaviour can be
    /// exercised without recording 2^64 spans.
    #[cfg(test)]
    fn seed_recorded(&self, n: u64) {
        self.head.store(n, Ordering::Relaxed);
    }

    /// The most recent `n` completed spans, oldest first. Spans that are
    /// mid-write or were overwritten while reading are skipped, never
    /// returned torn.
    pub fn last(&self, n: usize) -> Vec<TraceSpan> {
        let head = self.head.load(Ordering::Acquire);
        let capacity = self.slots.len() as u64;
        if head == 0 || capacity == 0 || n == 0 {
            return Vec::new();
        }
        let take = (n as u64).min(capacity).min(head);
        let mut spans = Vec::with_capacity(take as usize);
        for ticket in (head - take + 1)..=head {
            if let Some(span) = self.read_slot(ticket) {
                spans.push(span);
            }
        }
        spans
    }
}

/// Per-request trace bookkeeping: identity and arrival time are fixed at
/// admission; the stage durations are stamped as the request is answered.
#[derive(Debug)]
pub(crate) struct TraceState {
    /// See [`TraceSpan::trace_id`].
    pub(crate) trace_id: u64,
    /// When the request entered the runtime (wire frame interpreted /
    /// `submit` called).
    pub(crate) received: Instant,
    /// True when a wire frontend owns the write stage: the runtime then
    /// leaves span recording to the frontend's write-completion hook
    /// instead of recording when the request is answered.
    pub(crate) wire_managed: bool,
    pub(crate) encode_ns: u64,
    pub(crate) compute_ns: u64,
}

impl TraceState {
    pub(crate) fn new(trace_id: u64, received: Instant, wire_managed: bool) -> Self {
        TraceState {
            trace_id,
            received,
            wire_managed,
            encode_ns: 0,
            compute_ns: 0,
        }
    }

    /// Assembles the final span from the stamped stages.
    pub(crate) fn span(&self, write_ns: u64, total_ns: u64) -> TraceSpan {
        TraceSpan {
            trace_id: self.trace_id,
            encode_ns: self.encode_ns,
            queue_wait_ns: 0,
            assemble_ns: 0,
            compute_ns: self.compute_ns,
            write_ns,
            total_ns,
            batch_size: 1,
        }
    }
}

/// FNV-1a over a non-numeric wire id's serialised form — a stable trace id
/// for clients that tag requests with strings or structures.
pub(crate) fn hash_trace_id(serialised: &str) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in serialised.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn span(id: u64) -> TraceSpan {
        // Field values derived from the id so a torn read (fields from two
        // different records) is detectable by the invariants below.
        TraceSpan {
            trace_id: id,
            encode_ns: id.wrapping_mul(3),
            queue_wait_ns: id.wrapping_mul(5),
            assemble_ns: id.wrapping_mul(7),
            compute_ns: id.wrapping_mul(11),
            write_ns: id.wrapping_mul(13),
            total_ns: id.wrapping_mul(17),
            batch_size: id.wrapping_mul(19),
        }
    }

    fn assert_consistent(s: &TraceSpan) {
        let id = s.trace_id;
        assert_eq!(
            (
                s.encode_ns,
                s.queue_wait_ns,
                s.assemble_ns,
                s.compute_ns,
                s.write_ns,
                s.total_ns,
                s.batch_size,
            ),
            (
                id.wrapping_mul(3),
                id.wrapping_mul(5),
                id.wrapping_mul(7),
                id.wrapping_mul(11),
                id.wrapping_mul(13),
                id.wrapping_mul(17),
                id.wrapping_mul(19),
            ),
            "torn span for id {id}"
        );
    }

    #[test]
    fn zero_capacity_disables_tracing() {
        // The QUCLASSI_TRACE_CAPACITY=0 contract: recording is a no-op
        // (not merely "retrieval returns nothing") — the counter stays 0
        // no matter how much is recorded, and every retrieval shape is
        // empty without panicking on the empty slot array.
        let ring = TraceRing::new(0);
        for id in 1..=100 {
            ring.record(span(id));
        }
        assert_eq!(ring.recorded(), 0, "recording must not even count");
        assert!(ring.last(10).is_empty());
        assert!(ring.last(0).is_empty());
        assert!(ring.last(usize::MAX).is_empty());
        assert_eq!(ring.capacity(), 0);
    }

    #[test]
    fn exact_capacity_boundary_wraps_onto_the_oldest_slot() {
        let ring = TraceRing::new(4);
        // Fill to exactly capacity: nothing wrapped yet.
        for id in 1..=4 {
            ring.record(span(id));
        }
        assert_eq!(
            ring.last(4).iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Ticket capacity+1 lands on slot 0 (the boundary wrap): span 1 is
        // gone, spans 2..=5 survive, and last(n) never resurrects the
        // overwritten span no matter how large n is.
        ring.record(span(5));
        let spans = ring.last(usize::MAX);
        assert_eq!(
            spans.iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        for s in &spans {
            assert_consistent(s);
        }
        // A full second lap replaces every slot exactly once.
        for id in 6..=9 {
            ring.record(span(id));
        }
        assert_eq!(
            ring.last(4).iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn capacity_one_ring_keeps_only_the_newest() {
        let ring = TraceRing::new(1);
        for id in 1..=3 {
            ring.record(span(id));
            assert_eq!(
                ring.last(8).iter().map(|s| s.trace_id).collect::<Vec<_>>(),
                vec![id],
                "a capacity-1 ring holds exactly the newest span"
            );
        }
        assert_eq!(ring.recorded(), 3);
    }

    #[test]
    fn ticket_counter_overflow_skips_the_sentinel_and_recovers() {
        let ring = TraceRing::new(4);
        ring.seed_recorded(u64::MAX - 2);
        // The last two tickets before the wrap record and read back
        // normally (no debug-overflow panic in the ticket arithmetic).
        ring.record(span(u64::MAX - 1));
        ring.record(span(u64::MAX));
        let spans = ring.last(2);
        assert_eq!(
            spans.iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![u64::MAX - 1, u64::MAX]
        );
        for s in &spans {
            assert_consistent(s);
        }
        // The 2^64th record wraps the counter onto ticket 0 — the
        // empty/mid-write sentinel — so that one span is dropped rather
        // than published as a slot readers must reject. With the counter
        // back at 0 the ring reads as empty...
        ring.record(span(123));
        assert_eq!(ring.recorded(), 0);
        assert!(ring.last(8).is_empty());
        // ...and the next record restarts cleanly at ticket 1.
        ring.record(span(7));
        let spans = ring.last(8);
        assert_eq!(
            spans.iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![7]
        );
        for s in &spans {
            assert_consistent(s);
        }
    }

    #[test]
    fn records_retrieve_in_order_oldest_first() {
        let ring = TraceRing::new(8);
        for id in 1..=5 {
            ring.record(span(id));
        }
        assert_eq!(ring.recorded(), 5);
        let spans = ring.last(10);
        assert_eq!(
            spans.iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        for s in &spans {
            assert_consistent(s);
        }
        // last(n) bounds the result to the n newest.
        assert_eq!(
            ring.last(2).iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn full_ring_overwrites_oldest() {
        let ring = TraceRing::new(4);
        for id in 1..=10 {
            ring.record(span(id));
        }
        assert_eq!(ring.recorded(), 10);
        let spans = ring.last(10);
        assert_eq!(
            spans.iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            vec![7, 8, 9, 10],
            "only the newest capacity-many spans survive"
        );
    }

    #[test]
    fn stage_sum_tracks_the_five_stages() {
        let s = TraceSpan {
            trace_id: 1,
            encode_ns: 10,
            queue_wait_ns: 20,
            assemble_ns: 30,
            compute_ns: 40,
            write_ns: 50,
            total_ns: 160,
            batch_size: 4,
        };
        assert_eq!(s.stage_sum_ns(), 150);
    }

    #[test]
    fn hash_trace_id_is_stable_and_discriminating() {
        assert_eq!(hash_trace_id("req-a"), hash_trace_id("req-a"));
        assert_ne!(hash_trace_id("req-a"), hash_trace_id("req-b"));
    }

    #[test]
    fn concurrent_recording_never_yields_torn_spans() {
        // The seqlock satellite: N writers hammer a deliberately tiny ring
        // (constant lapping) while a reader snapshots. Every span the
        // reader gets back must be internally consistent — skipped is
        // fine, torn is not.
        let ring = Arc::new(TraceRing::new(8));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut id = w as u64 + 1;
                    while !stop.load(Ordering::Relaxed) {
                        ring.record(span(id));
                        id += 4;
                    }
                })
            })
            .collect();
        // Whether the reader sees any stable span while writers lap the
        // ring is up to the scheduler; only the consistency of what it
        // does see is asserted here.
        for _ in 0..20_000 {
            for s in ring.last(8) {
                assert_consistent(&s);
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Quiescent with a single writer, the ring reads back exactly and
        // in order — the non-emptiness check. (Right after the concurrent
        // phase some slots may hold older tickets — a stalled writer
        // publishing after being lapped — which readers correctly *skip*;
        // eight fresh records repair every slot.)
        let base = ring.recorded() + 1;
        for id in base..base + 8 {
            ring.record(span(id));
        }
        let spans = ring.last(8);
        assert_eq!(
            spans.iter().map(|s| s.trace_id).collect::<Vec<_>>(),
            (base..base + 8).collect::<Vec<_>>()
        );
        for s in &spans {
            assert_consistent(s);
        }
    }
}
