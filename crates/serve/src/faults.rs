//! Deterministic fault injection for the online-learning pipeline.
//!
//! Compiled only under `cfg(any(test, feature = "fault-injection"))`: the
//! hooks cost nothing in production builds, and a release binary cannot be
//! told to sabotage its own trainer.
//!
//! A [`FaultPlan`] maps learner cycle indices to lists of [`Fault`]s.
//! Plans are either hand-built ([`FaultPlan::inject`]) or drawn from a
//! seeded schedule ([`FaultPlan::seeded`]) — in both cases the plan is a
//! pure value: replaying the same plan against the same learner
//! configuration reproduces the same failures on the same cycles, which is
//! what makes the regression tests in `tests/online_learning.rs`
//! deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One injectable failure in the online-learning cycle.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Fault {
    /// The trainer thread panics mid-fit. The learner must catch it,
    /// count it, discard the candidate, and keep cycling.
    TrainerPanic,
    /// `CompiledModel::compile` of the candidate fails. The candidate must
    /// never reach the registry.
    CompileFail,
    /// The trained candidate's parameters are poisoned with a NaN before
    /// validation. Parameter validation must reject it.
    PoisonCandidate,
    /// The candidate's parameters are scrambled to finite garbage: it
    /// compiles and serves, but its accuracy craters. Combined with
    /// [`Fault::BypassGate`] this injects a post-promotion regression that
    /// must trigger an automatic rollback.
    CorruptCandidate,
    /// Compilation stalls for the given number of milliseconds, overlapping
    /// the next traffic the runtime serves. Serving must be unaffected.
    SlowCompileMs(u64),
    /// The promotion gate reports "pass" regardless of measurements —
    /// the lever that lets a corrupted candidate through so rollback can
    /// be exercised. Never drawn by [`FaultPlan::seeded`].
    BypassGate,
    /// A concurrent operator re-deploys the live artifact right before the
    /// cycle's evaluation — registry-swap-under-load. The learner must
    /// tolerate the version moving underneath it.
    SwapUnderLoad,
}

/// A deterministic schedule of faults, keyed by learner cycle index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    schedule: BTreeMap<u64, Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds `fault` at `cycle` (builder-style; multiple faults may share a
    /// cycle and fire in insertion order).
    pub fn inject(mut self, cycle: u64, fault: Fault) -> Self {
        self.schedule.entry(cycle).or_default().push(fault);
        self
    }

    /// Draws a reproducible random schedule: each of the first `cycles`
    /// cycles independently receives one fault with probability `density`,
    /// chosen uniformly from the recoverable palette (every [`Fault`]
    /// except [`Fault::BypassGate`], which deliberately breaks the safety
    /// gate and is only ever injected explicitly).
    pub fn seeded(seed: u64, cycles: u64, density: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        for cycle in 0..cycles {
            if rng.gen::<f64>() < density {
                let fault = match rng.gen_range(0..6) {
                    0 => Fault::TrainerPanic,
                    1 => Fault::CompileFail,
                    2 => Fault::PoisonCandidate,
                    3 => Fault::CorruptCandidate,
                    4 => Fault::SlowCompileMs(rng.gen_range(10..100)),
                    _ => Fault::SwapUnderLoad,
                };
                plan = plan.inject(cycle, fault);
            }
        }
        plan
    }

    /// The faults scheduled for `cycle`, in injection order.
    pub fn faults_at(&self, cycle: u64) -> &[Fault] {
        self.schedule.get(&cycle).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `cycle` has `fault` scheduled.
    pub fn has(&self, cycle: u64, fault: &Fault) -> bool {
        self.faults_at(cycle).contains(fault)
    }

    /// The scheduled slow-compile stall for `cycle`, if any.
    pub fn slow_compile_ms(&self, cycle: u64) -> Option<u64> {
        self.faults_at(cycle).iter().find_map(|f| match f {
            Fault::SlowCompileMs(ms) => Some(*ms),
            _ => None,
        })
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Number of cycles with at least one scheduled fault.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_in_order() {
        let plan = FaultPlan::new()
            .inject(2, Fault::TrainerPanic)
            .inject(0, Fault::CompileFail)
            .inject(2, Fault::SwapUnderLoad);
        assert_eq!(plan.faults_at(0), &[Fault::CompileFail]);
        assert_eq!(plan.faults_at(1), &[] as &[Fault]);
        assert_eq!(
            plan.faults_at(2),
            &[Fault::TrainerPanic, Fault::SwapUnderLoad]
        );
        assert!(plan.has(2, &Fault::TrainerPanic));
        assert!(!plan.has(1, &Fault::TrainerPanic));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn seeded_schedules_reproduce_exactly() {
        let a = FaultPlan::seeded(99, 50, 0.4);
        let b = FaultPlan::seeded(99, 50, 0.4);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        let c = FaultPlan::seeded(100, 50, 0.4);
        assert_ne!(a, c, "different seeds should differ");
        // Density 0.4 over 50 cycles lands a plausible number of faults.
        assert!(
            a.len() > 5 && a.len() < 40,
            "got {} faulted cycles",
            a.len()
        );
    }

    #[test]
    fn seeded_never_draws_bypass_gate() {
        for seed in 0..20 {
            let plan = FaultPlan::seeded(seed, 100, 1.0);
            for cycle in 0..100 {
                assert!(
                    !plan.has(cycle, &Fault::BypassGate),
                    "seed {seed} drew BypassGate"
                );
            }
        }
    }

    #[test]
    fn slow_compile_lookup_extracts_the_stall() {
        let plan = FaultPlan::new().inject(3, Fault::SlowCompileMs(75));
        assert_eq!(plan.slow_compile_ms(3), Some(75));
        assert_eq!(plan.slow_compile_ms(2), None);
    }
}
