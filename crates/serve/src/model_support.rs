//! Support surface for the `--cfg quclassi_model` model-checking suite.
//!
//! Only compiled when the crate is built with
//! `RUSTFLAGS="--cfg quclassi_model"`, in which case
//! [`crate::quclassi_sync`] resolves to the vendored [`interleave`] model
//! checker instead of `std::sync`. This module gives the `tests/model_*.rs`
//! integration tests three things the crate's normal API hides:
//!
//! 1. **Probes** — thin in-crate wrappers ([`QueueProbe`], [`SlotProbe`],
//!    [`SwapProbe`]) over `pub(crate)` protocol types so the tests can
//!    drive them without widening the crate's public API.
//! 2. **Mutation flags** ([`mutations`]) — process-global switches the
//!    `#[should_panic]` mutation proofs flip to weaken exactly one
//!    ordering / fence / notify placement (see [`crate::mutation`]) and
//!    prove the checker detects the resulting bug.
//! 3. **A serialising harness** ([`check_protocol`]) — sets the requested
//!    mutation flags, runs an exploration with `QUCLASSI_QUICK`-aware
//!    bounds, and restores the flags even when the exploration panics
//!    (which, for mutation proofs, is the point).

use crate::error::ServeError;
use crate::queue::BoundedQueue;
use crate::runtime::ResponseSlot;
use crate::swap::SwapMap;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::Mutex as StdMutex;
use std::time::Duration;

/// Process-global mutation flags consulted by [`crate::mutation`] under
/// `--cfg quclassi_model`.
///
/// The flags are plain `std` atomics (never the shim — they configure the
/// exploration, they are not part of the explored program) and must only
/// be flipped through [`check_protocol`], which serialises explorations
/// and restores every flag afterwards.
pub mod mutations {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Weakens the `TraceRing` seqlock publish store to `Relaxed`.
    pub const SEQLOCK_PUBLISH_RELAXED: usize = 0;
    /// Removes the `TraceRing` writer's release fence.
    pub const SEQLOCK_SKIP_RELEASE_FENCE: usize = 1;
    /// Disables the reader-side span checksum comparison, exposing the
    /// bare two-ticket seqlock (used by both the positive soundness test
    /// and the mutation proofs — the checksum would otherwise mask any
    /// single-site ordering weakening).
    pub const SEQLOCK_SKIP_CHECKSUM: usize = 2;
    /// Weakens the `LatencyHistogram` nanosecond-sum publish to `Relaxed`.
    pub const HISTOGRAM_TOTAL_RELAXED: usize = 3;
    /// Makes `BoundedQueue::try_push` notify before publishing the item.
    pub const QUEUE_NOTIFY_EARLY: usize = 4;
    /// Makes `ResponseSlot::fulfill` notify before publishing the result.
    pub const SLOT_NOTIFY_EARLY: usize = 5;
    /// Makes `SwapMap::publish` drop the write lock between version
    /// assignment and insert.
    pub const SWAP_SPLIT_PUBLISH: usize = 6;
    /// Makes `BoundedQueue::pop_batch` report a closed, empty queue as
    /// drained while a run-to-completion request is still running.
    pub const QUEUE_IGNORE_RUNNING: usize = 7;

    pub(super) const COUNT: usize = 8;
    pub(super) static FLAGS: [AtomicBool; COUNT] = [
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    ];

    /// Whether mutation `flag` is currently active.
    pub fn active(flag: usize) -> bool {
        FLAGS[flag].load(Ordering::Relaxed)
    }
}

/// Serialises explorations within one test binary: mutation flags are
/// process-global, so two tests flipping different flags must not overlap.
static GATE: StdMutex<()> = StdMutex::new(());

/// Runs `f` under the model checker with the given mutation flags active,
/// restoring all flags (and releasing the gate) afterwards — including
/// when the exploration panics, which is what `#[should_panic]` mutation
/// proofs expect it to do.
///
/// Bounds honour `QUCLASSI_QUICK`: when set (the CI static-analysis job),
/// the iteration budget shrinks and hitting it counts as a pass
/// (`allow_incomplete`); unset, the exploration must finish exhaustively
/// within the larger budget or the test fails.
pub fn check_protocol<F>(active_mutations: &[usize], f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    /// Holds the gate for the exploration's duration and clears the flags
    /// on drop (normal return *and* should_panic unwinds).
    struct Reset<'a>(
        &'a [usize],
        #[allow(dead_code)] std::sync::MutexGuard<'a, ()>,
    );
    impl Drop for Reset<'_> {
        fn drop(&mut self) {
            for &flag in self.0 {
                mutations::FLAGS[flag].store(false, StdOrdering::Relaxed);
            }
        }
    }

    let gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for &flag in active_mutations {
        mutations::FLAGS[flag].store(true, StdOrdering::Relaxed);
    }
    let _reset = Reset(active_mutations, gate);

    let quick = std::env::var_os("QUCLASSI_QUICK").is_some();
    let mut builder = interleave::Builder::new();
    if quick {
        builder.max_iterations = 40_000;
        builder.allow_incomplete = true;
    } else {
        builder.max_iterations = 400_000;
    }
    builder.check(f);
}

/// In-crate driver for the `pub(crate)` [`BoundedQueue`] protocol.
pub struct QueueProbe {
    queue: BoundedQueue<u32>,
}

impl QueueProbe {
    /// A queue of the given capacity (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        QueueProbe {
            queue: BoundedQueue::new(capacity),
        }
    }

    /// `try_push`; `Ok(())` on admit, `Err(true)` when saturated,
    /// `Err(false)` when shut down.
    pub fn push(&self, value: u32) -> Result<(), bool> {
        match self.queue.try_push(value, || {}) {
            Ok(()) => Ok(()),
            Err(ServeError::Saturated { .. }) => Err(true),
            Err(_) => Err(false),
        }
    }

    /// Admits a request that runs to completion on this thread, runs `f`
    /// as its evaluation, then finishes it; `Err(false)` when shut down
    /// (`f` does not run).
    pub fn run_inline(&self, f: impl FnOnce()) -> Result<(), bool> {
        let _running = self.queue.admit_inline(|| {}).map_err(|_| false)?;
        f();
        Ok(())
    }

    /// `pop_batch` with a zero window (the model's condvar treats timed
    /// waits as immediate timeouts, so only the zero-window fast path is
    /// meaningfully explorable).
    pub fn pop_batch(&self, max_batch: usize) -> Option<Vec<u32>> {
        self.queue
            .pop_batch(max_batch, Duration::ZERO)
            .map(|(items, _)| items)
    }

    /// Closes the queue.
    pub fn close(&self) {
        self.queue.close();
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }
}

/// In-crate driver for the `pub(crate)` `ResponseSlot` rendezvous.
#[derive(Debug, Clone)]
pub struct SlotProbe {
    slot: crate::quclassi_sync::Arc<ResponseSlot>,
}

impl SlotProbe {
    /// A fresh, unfulfilled slot (no completion notifier).
    pub fn new() -> Self {
        SlotProbe {
            slot: crate::quclassi_sync::Arc::new(ResponseSlot::model_new()),
        }
    }

    /// Fulfils the slot with a `ShutDown` error (the cheapest result to
    /// construct; the rendezvous does not care which result it carries).
    pub fn fulfill(&self) {
        self.slot.fulfill(Err(ServeError::ShutDown));
    }

    /// Blocks until fulfilled; `true` iff the carried result was the
    /// `ShutDown` error the probe publishes.
    pub fn wait(&self) -> bool {
        matches!(self.slot.wait(), Err(ServeError::ShutDown))
    }

    /// Non-blocking readiness check.
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }
}

impl Default for SlotProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// In-crate driver for the `pub(crate)` [`SwapMap`] publication protocol.
#[derive(Debug, Default)]
pub struct SwapProbe {
    map: SwapMap<u64>,
}

impl SwapProbe {
    /// An empty map.
    pub fn new() -> Self {
        SwapProbe::default()
    }

    /// Publishes `payload` under `name`; returns the assigned version.
    pub fn publish(&self, name: &str, payload: u64) -> u64 {
        self.map.publish(name, |_| payload).0
    }

    /// The current `(version, payload)` for `name`.
    pub fn get(&self, name: &str) -> Option<(u64, u64)> {
        self.map.get(name).map(|(v, e)| (v, *e))
    }

    /// Displaced entries still strongly referenced.
    pub fn draining(&self) -> usize {
        self.map.draining()
    }
}
