//! Train-while-serve: the background online learner.
//!
//! An [`OnlineLearner`] runs next to a live [`crate::ServeRuntime`] and
//! closes the loop the paper leaves open (train offline, evaluate once):
//! it consumes a labelled sample stream, periodically fits a **candidate**
//! on the accumulated window, compiles it, **shadow-evaluates** it on
//! mirrored live traffic (see [`crate::shadow`]), and promotes it through
//! the registry's zero-downtime hot-swap only when an
//! accuracy-and-p99-latency gate passes. If the live model's accuracy on a
//! fresh holdout later regresses below a floor, the learner automatically
//! rolls back to the previous artifact — as a new monotonic version.
//!
//! ## One cycle
//!
//! ```text
//! stream ──▶ window ──▶ regression check (live acc on fresh holdout)
//!                        │ below floor? ──▶ rollback, next cycle
//!                        ▼
//!                      train candidate (catch_unwind: panics survive)
//!                        ▼
//!                      validate params finite ──▶ compile
//!                        ▼
//!                      accuracy gate (holdout) ──▶ shadow on live traffic
//!                        ▼
//!                      latency + failure gate ──▶ promote (hot-swap)
//! ```
//!
//! Every rejected candidate increments `candidates_rejected`; a rejected
//! or failed candidate **never reaches the registry** — user traffic only
//! ever sees fully gated versions.
//!
//! ## Determinism
//!
//! The learner's training and evaluation randomness derives from
//! [`OnlineConfig::seed`]; mirrored shadow traffic is rate-gated by a
//! deterministic accumulator; and fault injection (test builds and the
//! `fault-injection` feature only) follows a seeded `FaultPlan`
//! (compiled out of release builds, so plain docs cannot link it).
//! Gate *measurements* (latency) depend on machine load, but every
//! injected failure reproduces exactly.

use crate::error::ServeError;
use crate::runtime::{ServeRuntime, Shared};
use crate::shadow::ShadowReport;
use quclassi::model::QuClassiModel;
use quclassi::trainer::Trainer;
use quclassi_infer::CompiledModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the online learner (see module docs for the cycle they
/// control).
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Samples pulled from the stream per training cycle (train + holdout).
    pub window: usize,
    /// Training epochs over each window (the incremental continuation of
    /// the trainer's own config).
    pub epochs_per_cycle: usize,
    /// Fraction of each window held out for the accuracy gates (clamped so
    /// both sides keep at least one sample).
    pub holdout_fraction: f64,
    /// Fraction of live requests mirrored onto the candidate during
    /// shadow evaluation, in `(0, 1]`.
    pub shadow_rate: f64,
    /// Mirrored requests required before the latency gate may pass. `0`
    /// disables shadow gating entirely (promote on accuracy alone — for
    /// trafficless tests and demos).
    pub min_shadow_requests: u64,
    /// Maximum time to wait for `min_shadow_requests` worth of mirrored
    /// traffic before giving up on the candidate.
    pub shadow_wait: Duration,
    /// Holdout accuracy a candidate must reach to be promoted.
    pub promote_min_accuracy: f64,
    /// Slack by which a candidate may undercut the live model's holdout
    /// accuracy and still be promoted (new data shifts both).
    pub accuracy_tolerance: f64,
    /// Maximum allowed candidate-p99 / live-p99 ratio on mirrored traffic.
    pub max_p99_ratio: f64,
    /// Live holdout accuracy below which the learner rolls back to the
    /// previous version (when one exists).
    pub rollback_min_accuracy: f64,
    /// Stop after this many cycles (`None` = run until stopped).
    pub max_cycles: Option<u64>,
    /// Seed for the learner's training shuffles and evaluation streams.
    pub seed: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            window: 64,
            epochs_per_cycle: 1,
            holdout_fraction: 0.25,
            shadow_rate: 1.0,
            min_shadow_requests: 16,
            shadow_wait: Duration::from_millis(500),
            promote_min_accuracy: 0.75,
            accuracy_tolerance: 0.05,
            max_p99_ratio: 3.0,
            rollback_min_accuracy: 0.55,
            max_cycles: None,
            seed: 0,
        }
    }
}

impl OnlineConfig {
    /// Reads the online-learning knobs from the environment on top of the
    /// defaults: `QUCLASSI_ONLINE_WINDOW` (positive integer),
    /// `QUCLASSI_SHADOW_RATE` (float in `(0, 1]`), and
    /// `QUCLASSI_PROMOTE_MIN_ACC` (float in `[0, 1]`).
    ///
    /// # Errors
    /// A variable that is set but malformed is **rejected** with
    /// [`ServeError::InvalidConfig`] — same contract as
    /// [`crate::ServeConfig::from_env`]: a typo in a deployment knob must
    /// fail startup, not silently train with a default.
    pub fn from_env() -> Result<Self, ServeError> {
        let mut config = OnlineConfig::default();
        if let Some(raw) = env_nonempty("QUCLASSI_ONLINE_WINDOW") {
            config.window = match raw.trim().parse::<usize>() {
                Ok(n) if n >= 2 => n,
                _ => {
                    return Err(ServeError::InvalidConfig(format!(
                        "QUCLASSI_ONLINE_WINDOW must be an integer ≥ 2, got '{raw}'"
                    )))
                }
            };
        }
        if let Some(raw) = env_nonempty("QUCLASSI_SHADOW_RATE") {
            config.shadow_rate = match raw.trim().parse::<f64>() {
                Ok(r) if r > 0.0 && r <= 1.0 => r,
                _ => {
                    return Err(ServeError::InvalidConfig(format!(
                        "QUCLASSI_SHADOW_RATE must be a float in (0, 1], got '{raw}'"
                    )))
                }
            };
        }
        if let Some(raw) = env_nonempty("QUCLASSI_PROMOTE_MIN_ACC") {
            config.promote_min_accuracy = match raw.trim().parse::<f64>() {
                Ok(a) if (0.0..=1.0).contains(&a) => a,
                _ => {
                    return Err(ServeError::InvalidConfig(format!(
                        "QUCLASSI_PROMOTE_MIN_ACC must be a float in [0, 1], got '{raw}'"
                    )))
                }
            };
        }
        config.validate()?;
        Ok(config)
    }

    /// Checks the invariants.
    pub fn validate(&self) -> Result<(), ServeError> {
        let bad = |msg: String| Err(ServeError::InvalidConfig(msg));
        if self.window < 2 {
            return bad("online window must be at least 2 (train + holdout)".into());
        }
        if self.epochs_per_cycle == 0 {
            return bad("epochs_per_cycle must be at least 1".into());
        }
        if !(self.holdout_fraction > 0.0 && self.holdout_fraction < 1.0) {
            return bad(format!(
                "holdout_fraction must be in (0, 1), got {}",
                self.holdout_fraction
            ));
        }
        if !(self.shadow_rate > 0.0 && self.shadow_rate <= 1.0) {
            return bad(format!(
                "shadow_rate must be in (0, 1], got {}",
                self.shadow_rate
            ));
        }
        for (name, v) in [
            ("promote_min_accuracy", self.promote_min_accuracy),
            ("rollback_min_accuracy", self.rollback_min_accuracy),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return bad(format!("{name} must be in [0, 1], got {v}"));
            }
        }
        if self.accuracy_tolerance < 0.0 {
            return bad(format!(
                "accuracy_tolerance must be non-negative, got {}",
                self.accuracy_tolerance
            ));
        }
        if self.max_p99_ratio <= 0.0 {
            return bad(format!(
                "max_p99_ratio must be positive, got {}",
                self.max_p99_ratio
            ));
        }
        Ok(())
    }
}

fn env_nonempty(key: &str) -> Option<String> {
    std::env::var(key).ok().filter(|v| !v.trim().is_empty())
}

/// How one learner cycle ended.
#[derive(Clone, Debug, PartialEq)]
pub enum CycleOutcome {
    /// The candidate passed every gate and was hot-swapped in.
    Promoted {
        /// The registry version now serving the candidate.
        version: u64,
    },
    /// The live model regressed below the rollback floor; the previous
    /// artifact was restored.
    RolledBack {
        /// The new registry version serving the restored artifact.
        version: u64,
    },
    /// The trainer panicked; the candidate was discarded and the learner
    /// survived.
    TrainerPanicked,
    /// Training returned an error (bad window data, mismatched shapes…).
    TrainFailed,
    /// The trained candidate had non-finite parameters.
    RejectedValidation,
    /// The candidate failed to compile.
    RejectedCompile,
    /// The candidate missed the holdout-accuracy gate.
    RejectedAccuracy {
        /// Candidate holdout accuracy.
        candidate: f64,
        /// Live holdout accuracy on the same samples.
        live: f64,
    },
    /// The candidate failed on mirrored traffic the live model served.
    RejectedShadowFailures {
        /// Number of mirrored requests it failed.
        failures: u64,
    },
    /// Too little live traffic was mirrored within the shadow-wait budget
    /// to judge the candidate.
    ShadowStarved {
        /// Mirrored requests actually observed.
        requests: u64,
    },
    /// The candidate's mirrored-traffic p99 exceeded the allowed ratio.
    RejectedLatency {
        /// Measured candidate-p99 / live-p99 ratio.
        p99_ratio: f64,
    },
    /// The final hot-swap deploy (warm-up included) failed.
    RejectedDeploy,
}

/// The record of one learner cycle.
#[derive(Clone, Debug)]
pub struct CycleReport {
    /// Cycle index (0-based; also the shadow tag for this cycle).
    pub cycle: u64,
    /// Live model's accuracy on this cycle's fresh holdout.
    pub live_accuracy: f64,
    /// Candidate's holdout accuracy, once it got that far.
    pub candidate_accuracy: Option<f64>,
    /// Final shadow report, when shadow evaluation ran.
    pub shadow: Option<ShadowReport>,
    /// How the cycle ended.
    pub outcome: CycleOutcome,
}

/// Everything the learner did, returned by [`OnlineLearner::stop`].
#[derive(Clone, Debug, Default)]
pub struct OnlineReport {
    /// Per-cycle records, in cycle order.
    pub cycles: Vec<CycleReport>,
}

impl OnlineReport {
    /// Number of promoted candidates.
    pub fn promotions(&self) -> u64 {
        self.count(|o| matches!(o, CycleOutcome::Promoted { .. }))
    }

    /// Number of automatic rollbacks.
    pub fn rollbacks(&self) -> u64 {
        self.count(|o| matches!(o, CycleOutcome::RolledBack { .. }))
    }

    /// Number of caught trainer panics.
    pub fn panics(&self) -> u64 {
        self.count(|o| matches!(o, CycleOutcome::TrainerPanicked))
    }

    /// Number of candidates discarded before reaching the registry.
    pub fn rejected(&self) -> u64 {
        self.cycles.len() as u64 - self.promotions() - self.rollbacks() - self.panics()
    }

    /// The outcome of cycle `cycle`, if it ran.
    pub fn outcome_at(&self, cycle: u64) -> Option<&CycleOutcome> {
        self.cycles
            .iter()
            .find(|c| c.cycle == cycle)
            .map(|c| &c.outcome)
    }

    fn count(&self, pred: impl Fn(&CycleOutcome) -> bool) -> u64 {
        self.cycles.iter().filter(|c| pred(&c.outcome)).count() as u64
    }
}

/// Internal fault hooks: a real [`crate::FaultPlan`] in test /
/// `fault-injection` builds, a zero-sized no-op otherwise, so the cycle
/// code reads identically in both.
#[derive(Clone, Debug, Default)]
struct Hooks {
    #[cfg(any(test, feature = "fault-injection"))]
    plan: crate::faults::FaultPlan,
}

#[cfg(any(test, feature = "fault-injection"))]
impl Hooks {
    fn with_plan(plan: crate::faults::FaultPlan) -> Self {
        Hooks { plan }
    }

    fn has(&self, cycle: u64, fault: &crate::faults::Fault) -> bool {
        self.plan.has(cycle, fault)
    }

    fn trainer_panic(&self, cycle: u64) -> bool {
        self.has(cycle, &crate::faults::Fault::TrainerPanic)
    }
    fn compile_fail(&self, cycle: u64) -> bool {
        self.has(cycle, &crate::faults::Fault::CompileFail)
    }
    fn poison(&self, cycle: u64) -> bool {
        self.has(cycle, &crate::faults::Fault::PoisonCandidate)
    }
    fn corrupt(&self, cycle: u64) -> bool {
        self.has(cycle, &crate::faults::Fault::CorruptCandidate)
    }
    fn bypass_gate(&self, cycle: u64) -> bool {
        self.has(cycle, &crate::faults::Fault::BypassGate)
    }
    fn swap_under_load(&self, cycle: u64) -> bool {
        self.has(cycle, &crate::faults::Fault::SwapUnderLoad)
    }
    fn slow_compile_ms(&self, cycle: u64) -> Option<u64> {
        self.plan.slow_compile_ms(cycle)
    }
}

#[cfg(not(any(test, feature = "fault-injection")))]
impl Hooks {
    fn trainer_panic(&self, _cycle: u64) -> bool {
        false
    }
    fn compile_fail(&self, _cycle: u64) -> bool {
        false
    }
    fn poison(&self, _cycle: u64) -> bool {
        false
    }
    fn corrupt(&self, _cycle: u64) -> bool {
        false
    }
    fn bypass_gate(&self, _cycle: u64) -> bool {
        false
    }
    fn swap_under_load(&self, _cycle: u64) -> bool {
        false
    }
    fn slow_compile_ms(&self, _cycle: u64) -> Option<u64> {
        None
    }
}

/// A background trainer promoting gated candidates into a live
/// [`ServeRuntime`] (see module docs).
///
/// Dropping the learner stops and joins it; call [`OnlineLearner::stop`]
/// instead to also collect the [`OnlineReport`].
#[derive(Debug)]
pub struct OnlineLearner {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<OnlineReport>>,
}

impl OnlineLearner {
    /// Starts the learner against `runtime`'s deployed model `name`.
    ///
    /// `base` is the parameter state training continues from — normally
    /// the same model whose compilation is currently deployed as `name`.
    /// `stream` supplies labelled samples (see
    /// `quclassi_datasets::stream::ReplayStream` for the bundled
    /// datasets); it should yield without blocking, and may end (`None`),
    /// which stops the learner at the next window boundary.
    ///
    /// # Errors
    /// Rejects an invalid `config` and an unknown `name`; fails if the
    /// learner thread cannot be spawned.
    pub fn start<S>(
        runtime: &ServeRuntime,
        name: &str,
        base: QuClassiModel,
        trainer: Trainer,
        stream: S,
        config: OnlineConfig,
    ) -> Result<Self, ServeError>
    where
        S: Iterator<Item = (Vec<f64>, usize)> + Send + 'static,
    {
        Self::launch(
            runtime,
            name,
            base,
            trainer,
            stream,
            config,
            Hooks::default(),
        )
    }

    /// [`OnlineLearner::start`] with a deterministic fault-injection
    /// schedule (test builds and the `fault-injection` feature only).
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn start_with_faults<S>(
        runtime: &ServeRuntime,
        name: &str,
        base: QuClassiModel,
        trainer: Trainer,
        stream: S,
        config: OnlineConfig,
        faults: crate::faults::FaultPlan,
    ) -> Result<Self, ServeError>
    where
        S: Iterator<Item = (Vec<f64>, usize)> + Send + 'static,
    {
        Self::launch(
            runtime,
            name,
            base,
            trainer,
            stream,
            config,
            Hooks::with_plan(faults),
        )
    }

    fn launch<S>(
        runtime: &ServeRuntime,
        name: &str,
        base: QuClassiModel,
        trainer: Trainer,
        stream: S,
        config: OnlineConfig,
        hooks: Hooks,
    ) -> Result<Self, ServeError>
    where
        S: Iterator<Item = (Vec<f64>, usize)> + Send + 'static,
    {
        config.validate()?;
        let shared = Arc::clone(runtime.shared());
        shared.registry.get(name)?; // the target must already be deployed
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = Arc::clone(&stop);
            let name = name.to_string();
            std::thread::Builder::new()
                .name("quclassi-online-learner".to_string())
                .spawn(move || {
                    learner_loop(
                        &shared, &name, base, &trainer, stream, &config, &hooks, &stop,
                    )
                })
                .map_err(|e| ServeError::Io(format!("cannot spawn online learner: {e}")))?
        };
        Ok(OnlineLearner {
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the learner to stop, joins it, and returns its report.
    pub fn stop(mut self) -> OnlineReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    /// Joins the learner **without** signalling it to stop — blocks until
    /// it finishes on its own. Only meaningful with
    /// [`OnlineConfig::max_cycles`] set (or a finite stream); otherwise
    /// this blocks forever.
    pub fn join(mut self) -> OnlineReport {
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for OnlineLearner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The learner thread body: one gated train→shadow→promote cycle per
/// iteration. Never touches user-visible responses; all its evaluation
/// runs on the trainer's own executor, not the runtime's.
#[allow(clippy::too_many_arguments)]
fn learner_loop<S>(
    shared: &Arc<Shared>,
    name: &str,
    mut current: QuClassiModel,
    trainer: &Trainer,
    mut stream: S,
    config: &OnlineConfig,
    hooks: &Hooks,
    stop: &AtomicBool,
) -> OnlineReport
where
    S: Iterator<Item = (Vec<f64>, usize)>,
{
    let eval_exec = trainer.batch_executor().clone();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut last_good = current.clone();
    let mut cycles = Vec::new();
    let mut cycle: u64 = 0;

    // Mirrors a finished cycle's headline numbers into the metrics
    // registry (`quclassi_online_*` gauges) as it is pushed, so the
    // exposition tracks the learner without waiting for a final report.
    let push_cycle = |cycles: &mut Vec<CycleReport>, report: CycleReport| {
        shared.stats.online_last_cycle.set(report.cycle);
        shared.stats.online_live_accuracy.set(report.live_accuracy);
        if let Some(accuracy) = report.candidate_accuracy {
            shared.stats.online_candidate_accuracy.set(accuracy);
        }
        cycles.push(report);
    };

    'cycles: while !stop.load(Ordering::Relaxed) {
        if let Some(max) = config.max_cycles {
            if cycle >= max {
                break;
            }
        }

        // 1. Accumulate a window from the stream.
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(config.window);
        let mut ys: Vec<usize> = Vec::with_capacity(config.window);
        while xs.len() < config.window {
            if stop.load(Ordering::Relaxed) {
                break 'cycles;
            }
            match stream.next() {
                Some((x, y)) => {
                    xs.push(x);
                    ys.push(y);
                }
                None => break 'cycles, // stream ended: nothing left to learn
            }
        }
        shared.stats.train_cycles.inc();
        let holdout = ((config.window as f64 * config.holdout_fraction).ceil() as usize)
            .clamp(1, config.window - 1);
        let split = config.window - holdout;
        let (train_x, hold_x) = xs.split_at(split);
        let (train_y, hold_y) = ys.split_at(split);
        let eval_seed: u64 = rng.gen();
        let train_seed: u64 = rng.gen();

        // Fault: a concurrent operator redeploys the live artifact right
        // under the cycle (registry-swap-under-load).
        if hooks.swap_under_load(cycle) {
            if let Ok(live) = shared.registry.get(name) {
                let _ = shared.promote(name, CompiledModel::clone(live.model()));
            }
        }

        // 2. Post-promotion regression check on the *fresh* holdout: if
        // the live model has regressed below the floor and a previous
        // version exists, roll back within this cycle.
        let live_entry = match shared.registry.get(name) {
            Ok(entry) => entry,
            Err(_) => break,
        };
        let live_accuracy = live_entry
            .model()
            .evaluate_accuracy(hold_x, hold_y, &eval_exec, eval_seed)
            .unwrap_or(0.0);
        if live_accuracy < config.rollback_min_accuracy
            && shared.registry.previous_version(name).is_some()
        {
            if let Ok(version) = shared.rollback_model(name) {
                current = last_good.clone();
                push_cycle(
                    &mut cycles,
                    CycleReport {
                        cycle,
                        live_accuracy,
                        candidate_accuracy: None,
                        shadow: None,
                        outcome: CycleOutcome::RolledBack { version },
                    },
                );
                cycle += 1;
                continue;
            }
        }

        // 3. Train the candidate — inside catch_unwind so a trainer panic
        // (a bug, or the injected fault) never takes down serving.
        let mut candidate = current.clone();
        let inject_panic = hooks.trainer_panic(cycle);
        let epochs = config.epochs_per_cycle;
        let trained = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected trainer panic (fault schedule)");
            }
            let mut train_rng = StdRng::seed_from_u64(train_seed);
            trainer.fit_incremental(&mut candidate, train_x, train_y, epochs, &mut train_rng)
        }));
        let record = |candidate_accuracy: Option<f64>,
                      shadow: Option<ShadowReport>,
                      outcome: CycleOutcome| CycleReport {
            cycle,
            live_accuracy,
            candidate_accuracy,
            shadow,
            outcome,
        };
        match trained {
            Err(_) => {
                shared.stats.learner_panics.inc();
                push_cycle(
                    &mut cycles,
                    record(None, None, CycleOutcome::TrainerPanicked),
                );
                cycle += 1;
                continue;
            }
            Ok(Err(_)) => {
                shared.stats.candidates_rejected.inc();
                push_cycle(&mut cycles, record(None, None, CycleOutcome::TrainFailed));
                cycle += 1;
                continue;
            }
            Ok(Ok(_)) => {}
        }

        // Faults that corrupt the trained candidate before validation.
        if hooks.poison(cycle) {
            if let Ok(params) = candidate.class_params_mut(0) {
                if let Some(v) = params.first_mut() {
                    *v = f64::NAN;
                }
            }
        }
        if hooks.corrupt(cycle) {
            // All-zero parameters leave every class state identical, so
            // predictions collapse to class 0 — a deterministic accuracy
            // crater that still compiles, warms and serves.
            for class in 0..candidate.num_classes() {
                if let Ok(params) = candidate.class_params_mut(class) {
                    params.iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }

        // 4. Validate: non-finite parameters never reach compilation.
        let finite = (0..candidate.num_classes()).all(|c| {
            candidate
                .class_params(c)
                .map(|p| p.iter().all(|v| v.is_finite()))
                .unwrap_or(false)
        });
        if !finite {
            shared.stats.candidates_rejected.inc();
            push_cycle(
                &mut cycles,
                record(None, None, CycleOutcome::RejectedValidation),
            );
            cycle += 1;
            continue;
        }

        // 5. Compile (with injectable stall / failure).
        if let Some(ms) = hooks.slow_compile_ms(cycle) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let compiled = if hooks.compile_fail(cycle) {
            None
        } else {
            CompiledModel::compile(&candidate, trainer.estimator.clone()).ok()
        };
        let Some(compiled) = compiled else {
            shared.stats.candidates_rejected.inc();
            push_cycle(
                &mut cycles,
                record(None, None, CycleOutcome::RejectedCompile),
            );
            cycle += 1;
            continue;
        };

        // 6. Accuracy gate on the holdout.
        let candidate_accuracy = compiled
            .evaluate_accuracy(hold_x, hold_y, &eval_exec, eval_seed)
            .unwrap_or(0.0);
        let bypass = hooks.bypass_gate(cycle);
        if !bypass
            && (candidate_accuracy < config.promote_min_accuracy
                || candidate_accuracy + config.accuracy_tolerance < live_accuracy)
        {
            shared.stats.candidates_rejected.inc();
            push_cycle(
                &mut cycles,
                record(
                    Some(candidate_accuracy),
                    None,
                    CycleOutcome::RejectedAccuracy {
                        candidate: candidate_accuracy,
                        live: live_accuracy,
                    },
                ),
            );
            cycle += 1;
            continue;
        }

        // 7. Shadow-evaluate on mirrored live traffic.
        let mut shadow_report = None;
        if config.min_shadow_requests > 0 {
            if shared
                .install_shadow(name, compiled.clone(), config.shadow_rate, cycle)
                .is_ok()
            {
                let deadline = Instant::now() + config.shadow_wait;
                while !stop.load(Ordering::Relaxed) && Instant::now() < deadline {
                    if let Some(report) = shared.shadow_report() {
                        if report.requests + report.failures >= config.min_shadow_requests {
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            shadow_report = shared.take_shadow();
            if !bypass {
                let report = shadow_report.clone().unwrap_or_else(|| ShadowReport {
                    model: name.to_string(),
                    tag: cycle,
                    requests: 0,
                    batches: 0,
                    failures: 0,
                    agreements: 0,
                    live_latency: Default::default(),
                    candidate_latency: Default::default(),
                });
                if report.failures > 0 {
                    shared.stats.candidates_rejected.inc();
                    push_cycle(
                        &mut cycles,
                        record(
                            Some(candidate_accuracy),
                            Some(report.clone()),
                            CycleOutcome::RejectedShadowFailures {
                                failures: report.failures,
                            },
                        ),
                    );
                    cycle += 1;
                    continue;
                }
                if report.requests < config.min_shadow_requests {
                    shared.stats.candidates_rejected.inc();
                    push_cycle(
                        &mut cycles,
                        record(
                            Some(candidate_accuracy),
                            Some(report.clone()),
                            CycleOutcome::ShadowStarved {
                                requests: report.requests,
                            },
                        ),
                    );
                    cycle += 1;
                    continue;
                }
                let p99_ratio = report.p99_ratio();
                if p99_ratio > config.max_p99_ratio {
                    shared.stats.candidates_rejected.inc();
                    push_cycle(
                        &mut cycles,
                        record(
                            Some(candidate_accuracy),
                            Some(report),
                            CycleOutcome::RejectedLatency { p99_ratio },
                        ),
                    );
                    cycle += 1;
                    continue;
                }
            }
        }

        // 8. Promote: warm → atomic hot-swap → drain old.
        match shared.promote(name, compiled) {
            Ok(version) => {
                last_good = std::mem::replace(&mut current, candidate);
                push_cycle(
                    &mut cycles,
                    record(
                        Some(candidate_accuracy),
                        shadow_report,
                        CycleOutcome::Promoted { version },
                    ),
                );
            }
            Err(_) => {
                shared.stats.candidates_rejected.inc();
                push_cycle(
                    &mut cycles,
                    record(
                        Some(candidate_accuracy),
                        shadow_report,
                        CycleOutcome::RejectedDeploy,
                    ),
                );
            }
        }
        cycle += 1;
    }

    OnlineReport { cycles }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultPlan};
    use crate::runtime::{ServeConfig, ServeRuntime};
    use quclassi::model::QuClassiConfig;
    use quclassi::swap_test::FidelityEstimator;
    use quclassi::trainer::TrainingConfig;
    use quclassi_sim::batch::BatchExecutor;

    /// An infinite, seeded two-cluster stream: class 0 near 0.25, class 1
    /// near 0.75, 4 features.
    fn toy_stream(seed: u64) -> impl Iterator<Item = (Vec<f64>, usize)> + Send + 'static {
        let mut rng = StdRng::seed_from_u64(seed);
        std::iter::from_fn(move || {
            let label = rng.gen_range(0..2usize);
            let centre: f64 = if label == 0 { 0.25 } else { 0.75 };
            let x: Vec<f64> = (0..4)
                .map(|_| (centre + rng.gen_range(-0.15_f64..0.15)).clamp(0.0, 1.0))
                .collect();
            Some((x, label))
        })
    }

    fn base_model(seed: u64) -> QuClassiModel {
        let mut rng = StdRng::seed_from_u64(seed);
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap()
    }

    fn quick_trainer() -> Trainer {
        Trainer::new(
            TrainingConfig {
                epochs: 1,
                learning_rate: 0.2,
                ..Default::default()
            },
            FidelityEstimator::analytic(),
        )
    }

    fn trafficless_config(max_cycles: u64) -> OnlineConfig {
        OnlineConfig {
            window: 24,
            epochs_per_cycle: 2,
            min_shadow_requests: 0, // no live traffic in unit tests
            promote_min_accuracy: 0.7,
            accuracy_tolerance: 1.0, // accuracy floor only
            rollback_min_accuracy: 0.0,
            max_cycles: Some(max_cycles),
            seed: 5,
            ..Default::default()
        }
    }

    fn runtime_with(name: &str, model: &QuClassiModel) -> ServeRuntime {
        let rt =
            ServeRuntime::start(ServeConfig::default(), BatchExecutor::single_threaded(0)).unwrap();
        let compiled = CompiledModel::compile(model, FidelityEstimator::analytic()).unwrap();
        rt.deploy(name, compiled).unwrap();
        rt
    }

    #[test]
    fn config_validation_and_env_contract() {
        assert!(OnlineConfig::default().validate().is_ok());
        let bad = OnlineConfig {
            window: 1,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = OnlineConfig {
            shadow_rate: 0.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
        let bad = OnlineConfig {
            holdout_fraction: 1.0,
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn learner_trains_and_promotes_through_the_gate() {
        let base = base_model(1);
        let rt = runtime_with("m", &base);
        let learner = OnlineLearner::start(
            &rt,
            "m",
            base,
            quick_trainer(),
            toy_stream(7),
            trafficless_config(4),
        )
        .unwrap();
        // max_cycles bounds the run; join() waits for it to finish.
        let report = learner.join();
        assert_eq!(report.cycles.len(), 4);
        assert!(
            report.promotions() >= 1,
            "separable clusters should promote at least once: {:?}",
            report.cycles
        );
        let version = rt.registry().active_version("m").unwrap();
        assert!(version >= 2, "promotion must advance the version");
        let m = rt.metrics();
        assert_eq!(m.train_cycles, 4);
        assert_eq!(m.promotions, 1 + report.promotions());
        rt.shutdown();
    }

    #[test]
    fn unknown_model_is_rejected_at_start() {
        let base = base_model(1);
        let rt = runtime_with("m", &base);
        let err = OnlineLearner::start(
            &rt,
            "ghost",
            base,
            quick_trainer(),
            toy_stream(7),
            trafficless_config(1),
        )
        .map(|_| ())
        .unwrap_err();
        assert_eq!(err.kind(), "unknown_model");
        rt.shutdown();
    }

    #[test]
    fn trainer_panic_is_survived_and_counted() {
        let base = base_model(2);
        let rt = runtime_with("m", &base);
        let plan = FaultPlan::new().inject(0, Fault::TrainerPanic);
        let learner = OnlineLearner::start_with_faults(
            &rt,
            "m",
            base,
            quick_trainer(),
            toy_stream(8),
            trafficless_config(3),
            plan,
        )
        .unwrap();
        let report = learner.join();
        assert_eq!(report.outcome_at(0), Some(&CycleOutcome::TrainerPanicked));
        assert_eq!(report.panics(), 1);
        // The learner kept cycling and can still promote afterwards.
        assert!(report.promotions() >= 1, "cycles: {:?}", report.cycles);
        let m = rt.metrics();
        assert_eq!(m.learner_panics, 1);
        // The runtime is fully alive after the panic.
        let client = rt.client();
        assert!(client.predict("m", &[0.3; 4]).is_ok());
        rt.shutdown();
    }

    #[test]
    fn poisoned_and_failing_candidates_never_reach_the_registry() {
        let base = base_model(3);
        let rt = runtime_with("m", &base);
        let plan = FaultPlan::new()
            .inject(0, Fault::PoisonCandidate)
            .inject(1, Fault::CompileFail);
        let learner = OnlineLearner::start_with_faults(
            &rt,
            "m",
            base,
            quick_trainer(),
            toy_stream(9),
            trafficless_config(2),
            plan,
        )
        .unwrap();
        let report = learner.join();
        assert_eq!(
            report.outcome_at(0),
            Some(&CycleOutcome::RejectedValidation)
        );
        assert_eq!(report.outcome_at(1), Some(&CycleOutcome::RejectedCompile));
        // Neither candidate was deployed.
        assert_eq!(rt.registry().active_version("m"), Some(1));
        let m = rt.metrics();
        assert_eq!(m.candidates_rejected, 2);
        assert_eq!(m.promotions, 1, "only the initial deploy");
        rt.shutdown();
    }
}
