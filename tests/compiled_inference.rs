//! End-to-end regression suite for the compiled inference engine
//! (`quclassi-infer`): the compiled artifact must reproduce the uncompiled
//! serving path — bit-for-bit for deterministic serving, analytic or exact
//! SWAP test — for 1, 2 and 8 threads, and must
//! survive a round trip through `quclassi::io` persistence unchanged.

use quclassi::io::{model_from_string, model_to_string};
use quclassi::prelude::*;
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::executor::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small trained model on the Iris shape (4 features, 3 classes).
fn trained_iris_model() -> QuClassiModel {
    let mut rng = StdRng::seed_from_u64(17);
    let mut model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(4, 3), &mut rng).unwrap();
    let features: Vec<Vec<f64>> = (0..12)
        .map(|i| {
            let j = 0.02 * (i % 4) as f64;
            match i % 3 {
                0 => vec![0.1 + j, 0.15, 0.1, 0.2],
                1 => vec![0.5, 0.85 - j, 0.5, 0.6],
                _ => vec![0.9 - j, 0.2, 0.85, 0.3 + j],
            }
        })
        .collect();
    let labels: Vec<usize> = (0..12).map(|i| i % 3).collect();
    let trainer = Trainer::new(
        TrainingConfig {
            epochs: 4,
            learning_rate: 0.08,
            ..Default::default()
        },
        FidelityEstimator::analytic(),
    );
    trainer
        .fit(&mut model, &features, &labels, &mut rng)
        .unwrap();
    model
}

/// The 17-qubit MNIST shape (16 features, 2 classes) with random parameters.
fn mnist_shape_model() -> QuClassiModel {
    let mut rng = StdRng::seed_from_u64(23);
    QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(16, 2), &mut rng).unwrap()
}

fn probe_samples(dim: usize, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|s| {
            (0..dim)
                .map(|i| {
                    let v = 0.07 + 0.13 * ((s * dim + i) % 7) as f64;
                    v.min(0.97)
                })
                .collect()
        })
        .collect()
}

#[test]
fn compiled_analytic_is_bit_identical_to_uncompiled_across_thread_counts() {
    // The golden run: the pre-compilation sequential path, sample by sample.
    for model in [trained_iris_model(), mnist_shape_model()] {
        let estimator = FidelityEstimator::analytic();
        let xs = probe_samples(model.config().data_dim, 6);
        let mut rng = StdRng::seed_from_u64(0);
        let golden: Vec<Vec<u64>> = xs
            .iter()
            .map(|x| {
                model
                    .predict_proba(x, &estimator, &mut rng)
                    .unwrap()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            })
            .collect();
        let golden_labels: Vec<usize> = xs
            .iter()
            .map(|x| model.predict(x, &estimator, &mut rng).unwrap())
            .collect();

        for threads in [1usize, 2, 8] {
            let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
            let batch = BatchExecutor::new(threads, 0);
            let predictions = compiled.predict_many(&xs, &batch, 0).unwrap();
            for ((p, bits), &label) in predictions.iter().zip(golden.iter()).zip(&golden_labels) {
                let got: Vec<u64> = p.probabilities.iter().map(|v| v.to_bits()).collect();
                assert_eq!(&got, bits, "{threads} threads");
                assert_eq!(p.label, label, "{threads} threads");
            }
        }
    }
}

#[test]
fn compiled_swap_test_is_thread_invariant_and_matches_uncompiled() {
    let model = trained_iris_model();
    let estimator = FidelityEstimator::swap_test(Executor::ideal());
    let xs = probe_samples(4, 5);
    // Uncompiled sequential reference.
    let mut rng = StdRng::seed_from_u64(0);
    let reference: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| model.class_fidelities(x, &estimator, &mut rng).unwrap())
        .collect();

    let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let predictions = compiled
            .predict_many(&xs, &BatchExecutor::new(threads, 0), 0)
            .unwrap();
        for (p, r) in predictions.iter().zip(reference.iter()) {
            assert_eq!(&p.fidelities, r, "{threads} threads");
        }
        runs.push(
            predictions
                .iter()
                .map(|p| p.fidelities.iter().map(|f| f.to_bits()).collect())
                .collect(),
        );
    }
    // Across thread counts the compiled results are bit-identical.
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

#[test]
fn persisted_model_compiles_to_a_bit_identical_artifact() {
    // save → load → compile → predict_many must equal the in-memory
    // compiled path bit-for-bit: persistence prints parameters exactly
    // (17 significant digits round-trip f64), so nothing may drift.
    let model = trained_iris_model();
    let restored = model_from_string(&model_to_string(&model)).unwrap();
    assert_eq!(restored.config(), model.config());

    let xs = probe_samples(4, 6);
    let batch = BatchExecutor::new(4, 0);
    for estimator in [
        FidelityEstimator::analytic(),
        FidelityEstimator::swap_test(Executor::ideal()),
    ] {
        let in_memory = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let reloaded = CompiledModel::compile(&restored, estimator.clone()).unwrap();
        let a = in_memory.predict_many(&xs, &batch, 0).unwrap();
        let b = reloaded.predict_many(&xs, &batch, 0).unwrap();
        let bits = |ps: &[Prediction]| -> Vec<Vec<u64>> {
            ps.iter()
                .map(|p| {
                    p.fidelities
                        .iter()
                        .chain(p.probabilities.iter())
                        .map(|v| v.to_bits())
                        .collect()
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(
            a.iter().map(|p| p.label).collect::<Vec<_>>(),
            b.iter().map(|p| p.label).collect::<Vec<_>>()
        );
    }
}

#[test]
fn shot_based_serving_is_reproducible_per_seed_and_thread_invariant() {
    let model = trained_iris_model();
    let estimator = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(512)));
    let compiled = CompiledModel::compile(&model, estimator).unwrap();
    let xs = probe_samples(4, 4);
    let run = |threads: usize, seed: u64| -> Vec<Vec<u64>> {
        compiled
            .predict_many(&xs, &BatchExecutor::new(threads, 0), seed)
            .unwrap()
            .into_iter()
            .map(|p| p.fidelities.iter().map(|f| f.to_bits()).collect())
            .collect()
    };
    assert_eq!(run(1, 11), run(2, 11));
    assert_eq!(run(1, 11), run(8, 11));
    assert_ne!(run(1, 11), run(1, 12));
}

#[test]
fn cached_serving_never_changes_answers() {
    let model = trained_iris_model();
    let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
    let uncached = CompiledModel::compile(&model, FidelityEstimator::analytic())
        .unwrap()
        .with_cache_capacity(0);
    let xs = probe_samples(4, 3);
    let batch = BatchExecutor::single_threaded(0);
    // Serve the same batch three times: hits replace evaluations, answers
    // stay bit-identical to the cache-free artifact.
    let reference = uncached.predict_many(&xs, &batch, 0).unwrap();
    for round in 0..3 {
        let served = compiled.predict_many(&xs, &batch, 0).unwrap();
        assert_eq!(served, reference, "round {round}");
    }
    let stats = compiled.cache_stats();
    assert_eq!(stats.entries, 3);
    assert!(stats.hits >= 6, "expected rounds 2–3 to be cache hits");
    assert_eq!(uncached.cache_stats().entries, 0);
}

#[test]
fn evaluate_accuracy_matches_model_evaluate_accuracy() {
    let model = trained_iris_model();
    let estimator = FidelityEstimator::analytic();
    let xs = probe_samples(4, 9);
    let mut rng = StdRng::seed_from_u64(5);
    let labels: Vec<usize> = xs
        .iter()
        .map(|x| model.predict(x, &estimator, &mut rng).unwrap())
        .collect();
    let model_acc = model
        .evaluate_accuracy(&xs, &labels, &estimator, &mut rng)
        .unwrap();
    let compiled = CompiledModel::compile(&model, estimator).unwrap();
    let compiled_acc = compiled
        .evaluate_accuracy(&xs, &labels, &BatchExecutor::new(2, 0), 0)
        .unwrap();
    assert_eq!(model_acc.to_bits(), compiled_acc.to_bits());
}
