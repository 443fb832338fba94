//! Training workloads: Algorithm 1 (`Trainer::fit`) on a procedural-MNIST
//! digit pair, and the trainer-layer measurements every traced run reports.

use crate::data::{Mnist, Split, PCA_DIMS};
use crate::oracle;
use crate::serve::{self, Frontend, Stack};
use crate::stats::{median, per_call_us, Histogram, Round};
use crate::{Options, Report};
use quclassi::gradient::{gradient_from_shifted_values, shifted_parameter_sets};
use quclassi::prelude::*;
use quclassi::trainer::TrainingHistory;
use quclassi_infer::CompiledModel;
use quclassi_sim::profile::{self, SimProfile};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Training samples per digit.
pub const TRAIN_PER_DIGIT: usize = 40;
/// Held-out samples per digit.
pub const TEST_PER_DIGIT: usize = 200;
/// Epochs of one `fit` call (one round).
const EPOCHS: usize = 5;
/// SGD learning rate.
const LEARNING_RATE: f64 = 0.2;
/// Held-out accuracy every trained model must reach: chance is 0.5 on a
/// digit pair and 1/3 on Iris. The lowest seen over 107 QC-SDE fits was
/// 0.805, over 479 QC-S fits 0.94, and on the served Iris models 0.91.
const ACCURACY_FLOOR: f64 = 0.7;

/// The trainer every workload uses: analytic fidelities, plain SGD, the
/// paper's epoch-scaled shift, single-threaded batch executor.
pub fn trainer() -> Trainer {
    Trainer::new(
        TrainingConfig {
            epochs: EPOCHS,
            learning_rate: LEARNING_RATE,
            ..Default::default()
        },
        FidelityEstimator::analytic(),
    )
}

/// One timed `fit` call.
pub struct Fit {
    pub steps: usize,
    pub secs: f64,
    pub profile: SimProfile,
}

/// Trains a freshly initialised model on `split` and times the `fit` call.
pub fn fit_fresh(
    config: &QuClassiConfig,
    trainer: &Trainer,
    split: &Split,
    rng: &mut StdRng,
) -> (QuClassiModel, Result<TrainingHistory, QuClassiError>, Fit) {
    let mut model = QuClassiModel::with_random_parameters(config.clone(), rng)
        .expect("benchmark model configurations are valid");
    let before = profile::snapshot();
    let started = Instant::now();
    let history = trainer.fit(&mut model, &split.train_x, &split.train_y, rng);
    let secs = started.elapsed().as_secs_f64();
    let after = profile::snapshot();
    let fit = Fit {
        steps: trainer.config.epochs * split.train_x.len(),
        secs,
        profile: SimProfile {
            fused_groups: after.fused_groups - before.fused_groups,
            dense_sweeps: after.dense_sweeps - before.dense_sweeps,
            diagonal_sweeps: after.diagonal_sweeps - before.diagonal_sweeps,
            permutation_sweeps: after.permutation_sweeps - before.permutation_sweeps,
            amplitudes_touched: after.amplitudes_touched - before.amplitudes_touched,
        },
    };
    (model, history, fit)
}

/// Class parameters of every class, for the product-state oracle.
pub fn class_params(model: &QuClassiModel) -> Vec<Vec<f64>> {
    (0..model.num_classes())
        .map(|c| {
            model
                .class_params(c)
                .expect("class index in range")
                .to_vec()
        })
        .collect()
}

/// The loss and held-out accuracy check of a finished QC-S training run,
/// accuracy scored by the oracle.
pub fn check_qcs_fit(
    model: &QuClassiModel,
    history: &TrainingHistory,
    split: &Split,
) -> Result<(), String> {
    let losses: Vec<f64> = history.epochs.iter().map(|e| e.mean_loss).collect();
    let accuracy = oracle::qcs_accuracy(&class_params(model), &split.test_x, &split.test_y);
    oracle::check_training(&losses, accuracy, ACCURACY_FLOOR)
}

/// The QC-SDE check: loss and accuracy, and the SWAP-test identity on the
/// held-out sample `probe` for every class.
fn check_qcsde_fit(
    model: &QuClassiModel,
    history: &TrainingHistory,
    split: &Split,
    probe: usize,
    rng: &mut StdRng,
) -> Result<(), String> {
    let losses: Vec<f64> = history.epochs.iter().map(|e| e.mean_loss).collect();
    let analytic = FidelityEstimator::analytic();
    let accuracy = model
        .evaluate_accuracy(&split.test_x, &split.test_y, &analytic, rng)
        .map_err(|e| e.to_string())?;
    oracle::check_training(&losses, accuracy, ACCURACY_FLOOR)?;
    let x = &split.test_x[probe % split.test_x.len()];
    let fidelities = model
        .class_fidelities(x, &analytic, rng)
        .map_err(|e| e.to_string())?;
    for (class, &f) in fidelities.iter().enumerate() {
        let params = model.class_params(class).map_err(|e| e.to_string())?;
        let swap = oracle::swap_test_fidelity(model.stack(), params, model.encoder(), x)?;
        oracle::check_swap_identity(f, swap)?;
    }
    Ok(())
}

/// `train-mnist-qcs` (`separable = true`) and `train-mnist-qcsde`.
pub fn run(separable: bool, opts: &Options, report: &mut Report) {
    let mut data = None;
    let setup_secs: Vec<f64> = (0..opts.setup_repeats())
        .map(|_| {
            let started = Instant::now();
            data = Some(Mnist::generate(opts.seed, TRAIN_PER_DIGIT, TEST_PER_DIGIT));
            started.elapsed().as_secs_f64()
        })
        .collect();
    let data = data.expect("at least one set-up");
    let split = &data.split;
    let config = if separable {
        QuClassiConfig::qc_s(PCA_DIMS, 2)
    } else {
        QuClassiConfig::qc_sde(PCA_DIMS, 2)
    };
    let trainer = trainer();
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x7261_696e);

    let mut fits = Vec::new();
    let mut last_model = None;
    let started = Instant::now();
    loop {
        let (model, history, fit) = fit_fresh(&config, &trainer, split, &mut rng);
        report.attempted += fit.steps as u64;
        match history {
            Err(e) => {
                report.failed += fit.steps as u64;
                report.error(format!("fit failed: {e}"));
            }
            Ok(history) => {
                let verdict = if separable {
                    check_qcs_fit(&model, &history, split)
                } else {
                    check_qcsde_fit(&model, &history, split, fits.len(), &mut rng)
                };
                report.check(verdict);
                fits.push(fit);
                last_model = Some(model);
            }
        }
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let Some(model) = last_model else {
        return;
    };

    if !opts.trace {
        // A round is one fit; its latency is the mean time per update step.
        let mut latencies = Histogram::default();
        let rounds: Vec<Round> = fits
            .iter()
            .map(|f| {
                latencies.record(1e6 * f.secs / f.steps as f64);
                Round {
                    ops: f.steps as u64,
                    secs: f.secs,
                }
            })
            .collect();
        report.end_to_end(&setup_secs, &rounds, &latencies);
        return;
    }

    report.metric("datasets.setup_ms", 1e3 * median(&setup_secs), "ms");
    trainer_layers(report, &trainer, &model, split, &fits);
    let steps: usize = fits.iter().map(|f| f.steps).sum();
    let amplitudes: u64 = fits.iter().map(|f| f.profile.amplitudes_touched).sum();
    report.metric(
        "sim.amplitudes_touched",
        amplitudes as f64 / steps as f64,
        "count",
    );
    // The serve and wire layers: the freshly trained model behind a wire
    // server, asked about fresh digits over one connection.
    let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic())
        .expect("a trained model compiles");
    let classes = class_params(&model);
    let expected = |x: &[f64]| -> Vec<f64> {
        if separable {
            oracle::qcs_fidelities(&classes, x)
        } else {
            // Entangled classes have no product-state oracle: compare with
            // the uncompiled analytic path instead.
            let mut rng = StdRng::seed_from_u64(0);
            model
                .class_fidelities(x, &FidelityEstimator::analytic(), &mut rng)
                .unwrap_or_default()
        }
    };
    let mut stack = Stack::start(compiled, Frontend::Wire).expect("serving stack starts");
    let mut input_rng = StdRng::seed_from_u64(opts.seed ^ 0x7072_6f62);
    let mut inputs = || data.fresh(&mut input_rng);
    let probe = serve::run_loop(
        &mut stack,
        Frontend::Wire,
        &mut inputs,
        &expected,
        serve::WIRE_ROUND,
        0.0,
        true,
    );
    serve::serve_layers(report, &probe);
    serve::wire_layers(report, &probe);
    serve::infer_layers(report, &stack, probe.batch_size, &mut inputs);
    stack.shutdown();
    report.check_all(&probe.errors);
}

/// Trainer-layer metrics of one workload: sweep counts per step from the
/// real `fit` calls in `fits`, and timings of `fit` and of the public
/// functions one step is made of, at `model`'s shape.
pub fn trainer_layers(
    report: &mut Report,
    trainer: &Trainer,
    model: &QuClassiModel,
    split: &Split,
    fits: &[Fit],
) {
    // One-epoch fits and the estimate_many calls of the same steps, timed
    // back to back chunk by chunk so that machine drift cancels in their
    // difference, `other_us`.
    let shift = trainer.config.shift.shift(1);
    let mut rng = StdRng::seed_from_u64(0);
    let (mut fit_secs, mut estimate_secs, mut steps) = (0.0, 0.0, 0);
    let mut values = Vec::new();
    for (xs, ys) in split.train_x.chunks(8).zip(split.train_y.chunks(8)) {
        let mut scratch = model.clone();
        let started = Instant::now();
        trainer
            .fit_incremental(&mut scratch, xs, ys, 1, &mut rng)
            .expect("fit on valid inputs");
        fit_secs += started.elapsed().as_secs_f64();
        for (x, &y) in xs.iter().zip(ys) {
            let params = model.class_params(y).expect("labels are in range");
            let mut sets = vec![params.to_vec()];
            sets.extend(shifted_parameter_sets(params, shift));
            let started = Instant::now();
            values = trainer
                .estimator
                .estimate_many(
                    model.stack(),
                    &sets,
                    model.encoder(),
                    x,
                    trainer.batch_executor(),
                    0,
                )
                .expect("estimate_many on valid inputs");
            estimate_secs += started.elapsed().as_secs_f64();
        }
        steps += xs.len();
    }
    let step_us = 1e6 * fit_secs / steps as f64;
    let estimate_us = 1e6 * estimate_secs / steps as f64;
    let params = model.class_params(0).expect("class 0 exists").to_vec();

    // The plan and the fold take well under a microsecond: time batches.
    let per_call =
        |f: &mut dyn FnMut()| median(&(0..9).map(|_| per_call_us(256, f)).collect::<Vec<_>>());
    let shifted_us = per_call(&mut || {
        black_box(shifted_parameter_sets(black_box(&params), black_box(shift)));
    });
    let assemble_us = per_call(&mut || {
        black_box(gradient_from_shifted_values(black_box(&values[1..])));
    });

    let steps: usize = fits.iter().map(|f| f.steps).sum();
    let per_step = |count: u64| count as f64 / steps as f64;
    let sim = fits
        .iter()
        .fold(SimProfile::default(), |acc, f| SimProfile {
            fused_groups: acc.fused_groups + f.profile.fused_groups,
            dense_sweeps: acc.dense_sweeps + f.profile.dense_sweeps,
            diagonal_sweeps: acc.diagonal_sweeps + f.profile.diagonal_sweeps,
            permutation_sweeps: acc.permutation_sweeps + f.profile.permutation_sweeps,
            ..SimProfile::default()
        });
    report.metric("core.trainer.step_us", step_us, "us");
    report.metric("core.swap_test.estimate_many_us", estimate_us, "us");
    report.metric("core.trainer.other_us", step_us - estimate_us, "us");
    report.metric("core.gradient.shifted_sets_us", shifted_us, "us");
    report.metric("core.gradient.assemble_us", assemble_us, "us");
    report.metric("sim.fused_groups", per_step(sim.fused_groups), "count");
    report.metric("sim.dense_sweeps", per_step(sim.dense_sweeps), "count");
    report.metric(
        "sim.diagonal_sweeps",
        per_step(sim.diagonal_sweeps),
        "count",
    );
    report.metric(
        "sim.permutation_sweeps",
        per_step(sim.permutation_sweeps),
        "count",
    );
}
