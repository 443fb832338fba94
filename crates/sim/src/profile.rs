//! Opt-in kernel profiling counters (`QUCLASSI_PROFILE`).
//!
//! The serving stack needs to answer "what did the simulator actually do
//! for this traffic?" — how often the multiply-free diagonal/permutation
//! specialisations fired versus full dense sweeps, and how many amplitudes
//! those sweeps covered. This
//! module provides process-wide counters for exactly that, designed so
//! the **disabled path costs one relaxed atomic load and a predictable
//! branch per kernel invocation** — noise against the `O(2^n)` sweep the
//! kernel is about to perform.
//!
//! Profiling is off by default. It turns on when the `QUCLASSI_PROFILE`
//! environment variable is set to anything other than `0`/empty (checked
//! once, at first use), or programmatically via [`set_enabled`] (tests,
//! benches). Counters are global to the process: they aggregate across
//! every [`crate::state::StateVector`] in every thread, which is what a
//! serving process scraping its own metrics wants. Use [`snapshot`]
//! deltas to attribute work to a window, and [`reset`] only in
//! single-owner contexts (tests).
//!
//! What is counted:
//!
//! * **dense sweeps** — full dense `2^k × 2^k` unitary applications (the
//!   kernel behind gate application);
//! * **diagonal sweeps** — multiply-free phase-flip specialisations
//!   (Z, S, S†, T, T†, CZ);
//! * **permutation sweeps** — multiply-free amplitude-relabelling
//!   specialisations (X, SWAP, CNOT, CSWAP);
//! * **amplitudes touched** — the register dimension `2^n` accumulated
//!   per sweep: the number of amplitudes each sweep ranges over.

use crate::quclassi_sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::gate::Gate;

/// Tri-state cache of the `QUCLASSI_PROFILE` environment probe:
/// 0 = not probed yet, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

static DENSE_SWEEPS: AtomicU64 = AtomicU64::new(0);
static DIAGONAL_SWEEPS: AtomicU64 = AtomicU64::new(0);
static PERMUTATION_SWEEPS: AtomicU64 = AtomicU64::new(0);
static AMPLITUDES_TOUCHED: AtomicU64 = AtomicU64::new(0);

/// Whether kernel profiling is currently enabled.
///
/// The first call probes `QUCLASSI_PROFILE` (set and not `0` → enabled);
/// every later call is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => probe_env(),
    }
}

#[cold]
fn probe_env() -> bool {
    let on = std::env::var("QUCLASSI_PROFILE")
        .map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        })
        .unwrap_or(false);
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Forces profiling on or off, overriding the environment probe. Intended
/// for tests and benchmarks; serving processes should use the
/// `QUCLASSI_PROFILE` environment variable.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Records one dense `2^k × 2^k` unitary sweep over `amplitudes` amplitudes.
#[inline]
pub(crate) fn dense_sweep(amplitudes: u64) {
    if enabled() {
        DENSE_SWEEPS.fetch_add(1, Ordering::Relaxed);
        AMPLITUDES_TOUCHED.fetch_add(amplitudes, Ordering::Relaxed);
    }
}

/// Records one multiply-free specialised sweep for `gate` over
/// `amplitudes` amplitudes, classifying it as diagonal or permutation.
#[inline]
pub(crate) fn specialized_sweep(gate: &Gate, amplitudes: u64) {
    if !enabled() {
        return;
    }
    let counter = match gate {
        // Identity applies no sweep at all.
        Gate::I(_) => return,
        Gate::X(_) | Gate::Swap(..) | Gate::Cnot { .. } | Gate::CSwap { .. } => &PERMUTATION_SWEEPS,
        _ => &DIAGONAL_SWEEPS,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    AMPLITUDES_TOUCHED.fetch_add(amplitudes, Ordering::Relaxed);
}

/// A point-in-time copy of the kernel profiling counters.
///
/// Counts are process-wide totals since start (or the last [`reset`]).
/// All zeros unless profiling was enabled while kernels ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Always 0: no kernel fuses gates. Not exposed as a series; kept only
    /// because the benchmark in `perfbench/` builds a `SimProfile` field by
    /// field.
    pub fused_groups: u64,
    /// Dense `2^k × 2^k` unitary sweeps.
    pub dense_sweeps: u64,
    /// Multiply-free diagonal sweeps (Z, S, S†, T, T†, CZ).
    pub diagonal_sweeps: u64,
    /// Multiply-free permutation sweeps (X, SWAP, CNOT, CSWAP).
    pub permutation_sweeps: u64,
    /// Amplitudes ranged over, accumulated across all sweeps.
    pub amplitudes_touched: u64,
}

impl SimProfile {
    /// Total sweeps of any kind.
    pub fn total_sweeps(&self) -> u64 {
        self.dense_sweeps + self.diagonal_sweeps + self.permutation_sweeps
    }
}

/// Reads the current counter values.
pub fn snapshot() -> SimProfile {
    SimProfile {
        fused_groups: 0,
        dense_sweeps: DENSE_SWEEPS.load(Ordering::Relaxed),
        diagonal_sweeps: DIAGONAL_SWEEPS.load(Ordering::Relaxed),
        permutation_sweeps: PERMUTATION_SWEEPS.load(Ordering::Relaxed),
        amplitudes_touched: AMPLITUDES_TOUCHED.load(Ordering::Relaxed),
    }
}

/// Zeroes all counters. Not atomic across counters — only meaningful when
/// no kernels are concurrently running (tests, controlled benchmarks).
pub fn reset() {
    DENSE_SWEEPS.store(0, Ordering::Relaxed);
    DIAGONAL_SWEEPS.store(0, Ordering::Relaxed);
    PERMUTATION_SWEEPS.store(0, Ordering::Relaxed);
    AMPLITUDES_TOUCHED.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::state::StateVector;

    /// All profiling behaviour in one test: the counters are process-wide,
    /// so sub-cases run sequentially inside a single `#[test]` to avoid
    /// races with themselves (other suites in this binary leave profiling
    /// disabled, so they can only *add* counts, never remove them — every
    /// assertion below is on deltas with `>=`).
    #[test]
    fn profiling_counts_kernel_work_when_enabled() {
        // Disabled: kernels record nothing.
        set_enabled(false);
        let before = snapshot();
        let mut sv = StateVector::zero_state(3);
        sv.apply_gate(&Gate::H(0)).unwrap();
        sv.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        })
        .unwrap();
        let after = snapshot();
        assert_eq!(before, after, "disabled profiling must not count");

        // Enabled: dense + specialised sweeps and amplitude accounting.
        set_enabled(true);
        assert!(enabled());
        let before = snapshot();
        let mut sv = StateVector::zero_state(3);
        sv.apply_gate(&Gate::H(0)).unwrap(); // dense 1-qubit sweep
        sv.apply_gate(&Gate::Z(1)).unwrap(); // diagonal
        sv.apply_gate(&Gate::X(2)).unwrap(); // permutation
        sv.apply_gate(&Gate::I(0)).unwrap(); // no sweep
        let after = snapshot();
        assert!(after.dense_sweeps > before.dense_sweeps);
        assert!(after.diagonal_sweeps > before.diagonal_sweeps);
        assert!(after.permutation_sweeps > before.permutation_sweeps);
        // Each of the three sweeps ranges over all 2^3 amplitudes.
        assert!(after.amplitudes_touched >= before.amplitudes_touched + 3 * 8);
        assert!(after.total_sweeps() >= before.total_sweeps() + 3);

        // Circuit execution goes through the same kernels; nothing fuses.
        let before = snapshot();
        let mut c = Circuit::new(2);
        c.h(0).ry_param(0, 0).ry_param(1, 1).cnot(0, 1);
        c.execute(&[0.4, -0.9]).unwrap();
        let after = snapshot();
        assert!(after.dense_sweeps >= before.dense_sweeps + 3);
        assert!(after.permutation_sweeps > before.permutation_sweeps);
        assert_eq!(after.fused_groups, 0);

        set_enabled(false);
    }
}
