//! End-to-end online-learning tests: a live serving runtime under
//! concurrent producer load while an `OnlineLearner` trains, shadows,
//! promotes, and rolls back next to it — including the deterministic
//! fault-injection schedules from `quclassi_serve::faults`.
//!
//! The serving contracts under test:
//!
//! * **No lost or duplicated responses**, ever — not across promotion,
//!   not across rollback, not across injected learner failures.
//! * **Per-producer version monotonicity** — once a producer sees version
//!   `v`, it never sees `< v` again (rollback re-deploys forward).
//! * **Failed candidates never reach the registry** — a panicking
//!   trainer, a failing compile, or a NaN-poisoned candidate leaves the
//!   live artifact bit-identical.
//! * **Fault schedules are reproducible** — the same seeded plan replays
//!   the same outcome sequence.

use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi::trainer::{Trainer, TrainingConfig};
use quclassi_datasets::stream::ReplayStream;
use quclassi_infer::CompiledModel;
use quclassi_serve::{
    CycleOutcome, Fault, FaultPlan, OnlineConfig, OnlineLearner, ServeConfig, ServeError,
    ServeRuntime,
};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An untrained iris-shaped base model (4 features, 3 classes).
fn base_model(seed: u64) -> QuClassiModel {
    let mut rng = StdRng::seed_from_u64(seed);
    QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(4, 3), &mut rng).unwrap()
}

fn compile(model: &QuClassiModel) -> CompiledModel {
    CompiledModel::compile(model, FidelityEstimator::analytic()).unwrap()
}

fn quick_trainer() -> Trainer {
    Trainer::new(
        TrainingConfig {
            learning_rate: 0.1,
            ..Default::default()
        },
        FidelityEstimator::analytic(),
    )
}

fn started_runtime() -> ServeRuntime {
    ServeRuntime::start(
        ServeConfig {
            queue_capacity: 4096,
            base_seed: 0,
            ..ServeConfig::default()
        },
        BatchExecutor::single_threaded(0),
    )
    .unwrap()
}

/// Spawns `n` producer threads hammering `model` until `stop` is set.
/// Each thread returns `(responses, versions_seen)`; every response must
/// succeed (saturation is retried) and versions must be monotone.
fn spawn_producers(
    runtime: &ServeRuntime,
    model: &'static str,
    n: usize,
    stop: &Arc<AtomicBool>,
    sent: &Arc<AtomicUsize>,
) -> Vec<std::thread::JoinHandle<(usize, Vec<u64>)>> {
    // A pool of distinct iris samples to serve as live traffic.
    let mut feed = ReplayStream::iris(404);
    let (pool, _) = feed.next_window(24);
    let pool = Arc::new(pool);
    (0..n)
        .map(|producer| {
            let client = runtime.client();
            let stop = Arc::clone(stop);
            let sent = Arc::clone(sent);
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut answered = 0usize;
                let mut versions = Vec::new();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let idx = (producer * 5 + i * 3) % pool.len();
                    match client.predict(model, &pool[idx]) {
                        Ok(response) => {
                            sent.fetch_add(1, Ordering::Relaxed);
                            answered += 1;
                            versions.push(response.version);
                        }
                        Err(e @ ServeError::Saturated { .. }) => {
                            assert!(e.is_retryable());
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(other) => panic!("producer {producer}: {other}"),
                    }
                    i += 1;
                }
                (answered, versions)
            })
        })
        .collect()
}

#[test]
fn learner_promotes_and_rolls_back_under_concurrent_load() {
    let base = base_model(11);
    let runtime = started_runtime();
    runtime.deploy("iris", compile(&base)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let producers = spawn_producers(&runtime, "iris", 4, &stop, &sent);

    // Cycle 3 promotes a corrupted candidate past a bypassed gate — the
    // injected post-promotion regression the learner must detect on
    // cycle 4's fresh holdout and roll back within that one cycle.
    let plan = FaultPlan::new()
        .inject(3, Fault::CorruptCandidate)
        .inject(3, Fault::BypassGate);
    let config = OnlineConfig {
        window: 30,
        epochs_per_cycle: 3,
        holdout_fraction: 0.25,
        shadow_rate: 1.0,
        min_shadow_requests: 4,
        shadow_wait: Duration::from_secs(5),
        promote_min_accuracy: 0.55,
        accuracy_tolerance: 1.0,
        max_p99_ratio: 50.0, // generous: CI latency noise must not gate
        rollback_min_accuracy: 0.5,
        max_cycles: Some(6),
        seed: 21,
    };
    let learner = OnlineLearner::start_with_faults(
        &runtime,
        "iris",
        base,
        quick_trainer(),
        ReplayStream::iris(7),
        config,
        plan,
    )
    .unwrap();
    let report = learner.join();
    stop.store(true, Ordering::Relaxed);

    let mut answered_total = 0usize;
    for handle in producers {
        let (answered, versions) = handle.join().unwrap();
        answered_total += answered;
        // Per-producer monotonicity: promotion AND rollback only ever move
        // the version forward.
        let mut max_seen = 0;
        for &v in &versions {
            assert!(v >= max_seen, "version went backwards: {versions:?}");
            max_seen = v;
        }
    }

    // The corrupted candidate was bypassed straight through the gate…
    assert!(
        matches!(report.outcome_at(3), Some(&CycleOutcome::Promoted { .. })),
        "cycle 3 must promote the corrupted candidate: {:?}",
        report.cycles
    );
    // …and the very next cycle's holdout check rolled it back.
    assert!(
        matches!(report.outcome_at(4), Some(&CycleOutcome::RolledBack { .. })),
        "cycle 4 must roll the regression back: {:?}",
        report.cycles
    );
    assert!(report.promotions() >= 1);
    assert_eq!(report.rollbacks(), 1);
    assert_eq!(report.cycles.len(), 6);

    let metrics = runtime.shutdown();
    // Zero lost or duplicated responses across promotion and rollback:
    // every producer-side success is accounted exactly once.
    assert_eq!(metrics.completed, answered_total as u64);
    assert_eq!(metrics.completed, sent.load(Ordering::Relaxed) as u64);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.train_cycles, 6);
    assert_eq!(metrics.rollbacks, 1);
    assert!(
        metrics.promotions >= 2,
        "initial deploy + at least the bypassed promotion"
    );
    assert!(
        metrics.shadow_requests > 0,
        "mirrored traffic must have flowed through the shadow"
    );
}

#[test]
fn trainer_panics_do_not_kill_the_serving_runtime() {
    let base = base_model(12);
    let runtime = started_runtime();
    runtime.deploy("iris", compile(&base)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicUsize::new(0));
    let producers = spawn_producers(&runtime, "iris", 2, &stop, &sent);

    let plan = FaultPlan::new()
        .inject(0, Fault::TrainerPanic)
        .inject(1, Fault::TrainerPanic);
    let config = OnlineConfig {
        window: 20,
        min_shadow_requests: 0,
        rollback_min_accuracy: 0.0,
        max_cycles: Some(2),
        seed: 3,
        ..Default::default()
    };
    let learner = OnlineLearner::start_with_faults(
        &runtime,
        "iris",
        base,
        quick_trainer(),
        ReplayStream::iris(8),
        config,
        plan,
    )
    .unwrap();
    let report = learner.join();
    assert_eq!(report.panics(), 2);

    // Serving is fully alive after both panics.
    let client = runtime.client();
    client.predict("iris", &[0.4, 0.2, 0.6, 0.1]).unwrap();
    stop.store(true, Ordering::Relaxed);
    for handle in producers {
        handle.join().unwrap();
    }
    let metrics = runtime.shutdown();
    assert_eq!(metrics.learner_panics, 2);
    assert_eq!(metrics.failed, 0);
    assert_eq!(metrics.promotions, 1, "nothing but the initial deploy");
}

#[test]
fn failing_candidates_never_reach_the_registry() {
    let base = base_model(13);
    let base_artifact = compile(&base);
    let runtime = started_runtime();
    runtime.deploy("iris", base_artifact.clone()).unwrap();

    // Every cycle fails a different way; none may touch the registry. The
    // corrupted candidate (finite garbage) is NOT gate-bypassed here, so
    // the accuracy gate must reject it.
    let plan = FaultPlan::new()
        .inject(0, Fault::TrainerPanic)
        .inject(1, Fault::CompileFail)
        .inject(2, Fault::PoisonCandidate)
        .inject(3, Fault::CorruptCandidate);
    let config = OnlineConfig {
        window: 24,
        epochs_per_cycle: 1,
        min_shadow_requests: 0,
        promote_min_accuracy: 0.55,
        accuracy_tolerance: 0.0,
        rollback_min_accuracy: 0.0,
        max_cycles: Some(4),
        seed: 9,
        ..Default::default()
    };
    let learner = OnlineLearner::start_with_faults(
        &runtime,
        "iris",
        base.clone(),
        quick_trainer(),
        ReplayStream::iris(9),
        config,
        plan,
    )
    .unwrap();
    let report = learner.join();

    assert_eq!(report.outcome_at(0), Some(&CycleOutcome::TrainerPanicked));
    assert_eq!(report.outcome_at(1), Some(&CycleOutcome::RejectedCompile));
    assert_eq!(
        report.outcome_at(2),
        Some(&CycleOutcome::RejectedValidation)
    );
    assert!(
        matches!(
            report.outcome_at(3),
            Some(&CycleOutcome::RejectedAccuracy { .. })
        ),
        "the all-zero candidate must fail the accuracy gate: {:?}",
        report.cycles
    );
    assert_eq!(report.promotions(), 0);

    // The live artifact is untouched: version 1, and serving answers are
    // bit-identical to direct evaluation on the original artifact.
    assert_eq!(runtime.registry().active_version("iris"), Some(1));
    let client = runtime.client();
    let mut probe_rng = StdRng::seed_from_u64(0);
    for probe in [[0.1, 0.9, 0.4, 0.3], [0.7, 0.2, 0.5, 0.8]] {
        let served = client.predict("iris", &probe).unwrap();
        let direct = base_artifact.predict_one(&probe, &mut probe_rng).unwrap();
        assert_eq!(served.prediction, direct);
    }

    let metrics = runtime.shutdown();
    assert_eq!(metrics.candidates_rejected, 3);
    assert_eq!(metrics.learner_panics, 1);
    assert_eq!(metrics.promotions, 1, "only the initial deploy");
}

#[test]
fn seeded_fault_schedules_replay_the_same_outcome_sequence() {
    // With shadow gating disabled the entire cycle pipeline is
    // deterministic (seeded stream, seeded training, seeded faults), so
    // two identically-seeded runs must produce identical outcome
    // sequences — the property that makes fault regressions replayable.
    let run = || {
        let base = base_model(14);
        let runtime = started_runtime();
        runtime.deploy("iris", compile(&base)).unwrap();
        let learner = OnlineLearner::start_with_faults(
            &runtime,
            "iris",
            base,
            quick_trainer(),
            ReplayStream::iris(10),
            OnlineConfig {
                window: 20,
                epochs_per_cycle: 1,
                min_shadow_requests: 0,
                rollback_min_accuracy: 0.0,
                max_cycles: Some(8),
                seed: 17,
                ..Default::default()
            },
            FaultPlan::seeded(123, 8, 0.6),
        )
        .unwrap();
        let report = learner.join();
        runtime.shutdown();
        report
            .cycles
            .into_iter()
            .map(|c| c.outcome)
            .collect::<Vec<_>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), 8);
    assert_eq!(first, second, "seeded fault runs must replay exactly");
    assert_eq!(
        FaultPlan::seeded(123, 8, 0.6),
        FaultPlan::seeded(123, 8, 0.6)
    );
}
