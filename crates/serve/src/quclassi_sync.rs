//! The synchronisation shim: `std::sync` in real builds, the `interleave`
//! model checker's shadow types under `--cfg quclassi_model`.
//!
//! Every hand-rolled concurrent protocol in this crate — the seqlock
//! [`TraceRing`](crate::trace::TraceRing), the
//! [`LatencyHistogram`](crate::metrics::LatencyHistogram) counters, the
//! admission gate in [`queue`](crate::queue), and the hot-swap
//! publication core in [`swap`](crate::swap) — imports its
//! primitives from here instead of `std::sync` directly (the workspace
//! linter enforces this). Normal builds see plain re-exports and compile to
//! byte-identical code; the `model_*` integration tests build with
//! `RUSTFLAGS="--cfg quclassi_model"` and get shadow types whose every
//! access is a schedule/visibility point for exhaustive exploration.
//!
//! Run the model suite with:
//! `RUSTFLAGS="--cfg quclassi_model" cargo test -p quclassi-serve --test 'model_*'`

#[cfg(not(quclassi_model))]
pub(crate) use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, Weak};

#[cfg(quclassi_model)]
pub(crate) use interleave::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, Weak};

/// Shim counterpart of [`std::sync::atomic`].
pub(crate) mod atomic {
    #[cfg(not(quclassi_model))]
    pub(crate) use std::sync::atomic::{fence, AtomicU64, Ordering};

    #[cfg(quclassi_model)]
    pub(crate) use interleave::sync::atomic::{fence, AtomicU64, Ordering};
}
