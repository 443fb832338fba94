//! Support surface for the `--cfg quclassi_model` model-checking suite.
//!
//! Only compiled when the crate is built with
//! `RUSTFLAGS="--cfg quclassi_model"`, in which case
//! [`crate::quclassi_sync`] resolves to the vendored [`interleave`] model
//! checker instead of `std::sync`. This module gives the `tests/model_*.rs`
//! integration tests three things the crate's normal API hides:
//!
//! 1. **Probes** — thin in-crate wrappers ([`QueueProbe`], [`SwapProbe`])
//!    over `pub(crate)` protocol types so the tests can drive them without
//!    widening the crate's public API.
//! 2. **Mutation flags** ([`mutations`]) — process-global switches the
//!    `#[should_panic]` mutation proofs flip to weaken exactly one
//!    ordering / fence / lock scope / drain condition (see
//!    [`crate::mutation`]) and
//!    prove the checker detects the resulting bug.
//! 3. **A serialising harness** ([`check_protocol`]) — sets the requested
//!    mutation flags, runs an exploration with `QUCLASSI_QUICK`-aware
//!    bounds, and restores the flags even when the exploration panics
//!    (which, for mutation proofs, is the point).

use crate::queue::AdmissionGate;
use crate::swap::SwapMap;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::Mutex as StdMutex;

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
    /// Makes `SwapMap::publish` drop the write lock between version
    /// assignment and insert.
    pub const SWAP_SPLIT_PUBLISH: usize = 4;
    /// Makes `AdmissionGate::wait_drained` report a closed gate as drained
    /// while an admitted request is still running.
    pub const QUEUE_IGNORE_RUNNING: usize = 5;

    pub(super) const COUNT: usize = 6;
    pub(super) static FLAGS: [AtomicBool; COUNT] = [
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

/// In-crate probe of the `pub(crate)` [`AdmissionGate`] protocol.
pub struct QueueProbe {
    gate: AdmissionGate,
}

impl QueueProbe {
    /// A gate of the given capacity (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        QueueProbe {
            gate: AdmissionGate::new(capacity),
        }
    }

    /// Admits a request that runs to completion on this thread, runs `f`
    /// as its evaluation, then finishes it; `Err(true)` when saturated,
    /// `Err(false)` when shut down (`f` does not run either way).
    pub fn run_inline(&self, f: impl FnOnce()) -> Result<(), bool> {
        let _running = self
            .gate
            .admit(|| {})
            .map_err(|e| matches!(e, crate::ServeError::Saturated { .. }))?;
        f();
        Ok(())
    }

    /// Closes the gate.
    pub fn close(&self) {
        self.gate.close();
    }

    /// Blocks until the gate is closed and no admitted request runs.
    pub fn wait_drained(&self) {
        self.gate.wait_drained();
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
