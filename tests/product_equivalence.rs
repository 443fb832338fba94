//! The product-state fidelity kernel against its oracles, and the dispatch
//! that decides who uses it.
//!
//! * Over random separable (S/D) stacks, both encodings and odd feature
//!   counts, product-path fidelities agree within 1e-12 with the
//!   statevector inner product and with `2·P(ancilla=0) − 1` of the exact
//!   SWAP-test circuit.
//! * Compiled serving scores through the same kernel as the uncompiled
//!   model: bit-identical under the analytic and the exact SWAP-test
//!   estimator, at any thread count.
//! * Entangled stacks, and shot-based or noisy executors, still run their
//!   circuits: their estimates are bit-identical to calling the circuit
//!   path directly.

use proptest::prelude::*;
use quclassi::encoding::{DataEncoder, EncodingStrategy};
use quclassi::gradient::shifted_parameter_sets;
use quclassi::layers::{LayerKind, LayerStack};
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::{
    build_class_swap_test_circuit, build_swap_test_circuit, fidelity_from_p0, FidelityEstimator,
};
use quclassi_infer::CompiledModel;
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::executor::Executor;
use quclassi_sim::fusion::FusedCircuit;
use quclassi_sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const TOL: f64 = 1e-12;

/// A random separable case: encoder, S/D stack of 1–3 layers, one
/// parameter vector and one sample. Feature counts run 1..=5 so both
/// encodings see odd counts; the SWAP-test register stays ≤ 11 qubits.
fn separable_case(seed: u64) -> (DataEncoder, LayerStack, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let strategy = if rng.gen_bool(0.5) {
        EncodingStrategy::DualAngle
    } else {
        EncodingStrategy::SingleAngle
    };
    let dim = rng.gen_range(1..=5);
    let encoder = DataEncoder::new(strategy, dim).unwrap();
    let layers = (0..rng.gen_range(1..=3))
        .map(|_| {
            if rng.gen_bool(0.5) {
                LayerKind::SingleQubitUnitary
            } else {
                LayerKind::DualQubitUnitary
            }
        })
        .collect();
    let stack = LayerStack::new(layers, encoder.num_qubits()).unwrap();
    let params = (0..stack.parameter_count())
        .map(|_| rng.gen_range(-PI..PI))
        .collect();
    let x = (0..dim).map(|_| rng.gen_range(0.0..=1.0)).collect();
    (encoder, stack, params, x)
}

/// The statevector oracle: both registers prepared in full, exact inner
/// product.
fn statevector_fidelity(
    stack: &LayerStack,
    params: &[f64],
    encoder: &DataEncoder,
    x: &[f64],
) -> f64 {
    let learned = stack.build_circuit().execute(params).unwrap();
    learned.fidelity(&encoder.encode_state(x).unwrap()).unwrap()
}

/// The SWAP-test oracle: `2·P(ancilla=0) − 1` of the full circuit, run
/// gate by gate on the exact simulator, unclamped.
fn swap_circuit_fidelity(
    stack: &LayerStack,
    params: &[f64],
    encoder: &DataEncoder,
    x: &[f64],
) -> f64 {
    let (circuit, layout) = build_swap_test_circuit(stack, encoder, x).unwrap();
    let p1 = circuit
        .execute(params)
        .unwrap()
        .probability_of_one(layout.ancilla)
        .unwrap();
    2.0 * (1.0 - p1) - 1.0
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

// Case count: PROPTEST_CASES, else 64.
proptest! {
    #[test]
    fn product_path_agrees_with_statevector_and_swap_test_circuit(seed in 0u64..u64::MAX) {
        let (encoder, stack, params, x) = separable_case(seed);
        let mut rng = StdRng::seed_from_u64(0);
        let analytic = FidelityEstimator::analytic();
        let exact_swap = FidelityEstimator::swap_test(Executor::ideal());
        prop_assert!(analytic.scores_product_states(&stack));
        prop_assert!(exact_swap.scores_product_states(&stack));

        let f = analytic.estimate(&stack, &params, &encoder, &x, &mut rng).unwrap();
        let sv = statevector_fidelity(&stack, &params, &encoder, &x);
        let swap = swap_circuit_fidelity(&stack, &params, &encoder, &x);
        prop_assert!((f - sv).abs() <= TOL, "product {} vs statevector {}", f, sv);
        prop_assert!((f - swap).abs() <= TOL, "product {} vs SWAP-test circuit {}", f, swap);

        // Both deterministic estimators share the kernel, bit for bit.
        let g = exact_swap.estimate(&stack, &params, &encoder, &x, &mut rng).unwrap();
        prop_assert_eq!(f.to_bits(), g.to_bits());

        // A training step's 2P+1 evaluations match one-by-one estimates
        // and the statevector, at any thread count.
        let mut sets = vec![params.clone()];
        sets.extend(shifted_parameter_sets(&params, PI / 2.0));
        let one_by_one: Vec<f64> = sets
            .iter()
            .map(|p| analytic.estimate(&stack, p, &encoder, &x, &mut rng).unwrap())
            .collect();
        for (p, &v) in sets.iter().zip(&one_by_one) {
            let sv = statevector_fidelity(&stack, p, &encoder, &x);
            prop_assert!((v - sv).abs() <= TOL, "shifted set: {} vs {}", v, sv);
        }
        for threads in [1, 2, 8] {
            let batch = BatchExecutor::new(threads, 0);
            for est in [&analytic, &exact_swap] {
                let many = est.estimate_many(&stack, &sets, &encoder, &x, &batch, 99).unwrap();
                prop_assert_eq!(bits(&many), bits(&one_by_one));
            }
        }
    }

    #[test]
    fn compiled_separable_models_match_uncompiled_bit_for_bit(seed in 0u64..u64::MAX) {
        let (encoder, stack, _, _) = separable_case(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let config = QuClassiConfig {
            data_dim: encoder.dim(),
            num_classes: rng.gen_range(2..=4),
            encoding: encoder.strategy(),
            layers: stack.layers().to_vec(),
        };
        let model = QuClassiModel::with_random_parameters(config, &mut rng).unwrap();
        let xs: Vec<Vec<f64>> = (0..5)
            .map(|_| (0..encoder.dim()).map(|_| rng.gen_range(0.0..=1.0)).collect())
            .collect();
        for estimator in [FidelityEstimator::analytic(), FidelityEstimator::swap_test(Executor::ideal())] {
            let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
            let uncompiled: Vec<Vec<u64>> = xs
                .iter()
                .map(|x| bits(&model.class_fidelities(x, &estimator, &mut rng).unwrap()))
                .collect();
            for (x, want) in xs.iter().zip(&uncompiled) {
                let one = compiled.predict_one(x, &mut rng).unwrap();
                prop_assert_eq!(&bits(&one.fidelities), want);
                prop_assert_eq!(one.label, model.predict(x, &estimator, &mut rng).unwrap());
            }
            for threads in [1, 2, 8] {
                let fresh = CompiledModel::compile(&model, estimator.clone()).unwrap();
                let many = fresh.predict_many(&xs, &BatchExecutor::new(threads, 0), 5).unwrap();
                let got: Vec<Vec<u64>> = many.iter().map(|p| bits(&p.fidelities)).collect();
                prop_assert_eq!(&got, &uncompiled);
            }
        }
    }
}

fn entangled_case() -> (DataEncoder, Vec<LayerStack>, Vec<f64>) {
    let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 5).unwrap();
    let stacks = vec![
        LayerStack::qc_e(3).unwrap(),
        LayerStack::qc_sde(3).unwrap(),
        LayerStack::new(
            vec![LayerKind::Entanglement, LayerKind::SingleQubitUnitary],
            3,
        )
        .unwrap(),
    ];
    (encoder, stacks, vec![0.12, 0.83, 0.45, 0.61, 0.3])
}

fn params_for(stack: &LayerStack) -> Vec<f64> {
    (0..stack.parameter_count())
        .map(|i| 0.3 + 0.41 * i as f64)
        .collect()
}

#[test]
fn entangled_stacks_still_run_their_circuits() {
    let (encoder, stacks, x) = entangled_case();
    for stack in stacks {
        let name = stack.architecture_name();
        assert!(!stack.is_separable(), "{name}");
        let params = params_for(&stack);
        let mut rng = StdRng::seed_from_u64(0);
        let analytic = FidelityEstimator::analytic();
        assert!(!analytic.scores_product_states(&stack), "{name}");
        let got = analytic
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        let want = statevector_fidelity(&stack, &params, &encoder, &x);
        assert_eq!(got.to_bits(), want.to_bits(), "{name} analytic");

        let exact = Executor::ideal();
        let got = FidelityEstimator::swap_test(exact.clone())
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        let (circuit, layout) = build_swap_test_circuit(&stack, &encoder, &x).unwrap();
        let p1 = exact
            .probability_of_one(&circuit, &params, layout.ancilla, &mut rng)
            .unwrap();
        assert_eq!(
            got.to_bits(),
            fidelity_from_p0(1.0 - p1).to_bits(),
            "{name} SWAP test"
        );
    }
}

#[test]
fn stochastic_executors_still_run_their_circuits() {
    let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
    let stack = LayerStack::qc_s(2).unwrap();
    let params = params_for(&stack);
    let x = [0.2, 0.9, 0.35, 0.5];
    let noise = NoiseModel::depolarizing(0.002, 0.02, 0.02).unwrap();
    for executor in [
        Executor::ideal().with_shots(Some(512)),
        Executor::noisy(noise.clone()).with_trajectories(4),
        Executor::noisy_density(noise),
    ] {
        let estimator = FidelityEstimator::swap_test(executor.clone());
        assert!(estimator.is_stochastic());
        assert!(!estimator.scores_product_states(&stack));

        // One estimate: the gate-by-gate circuit, same RNG stream.
        let got = estimator
            .estimate(&stack, &params, &encoder, &x, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let (circuit, layout) = build_swap_test_circuit(&stack, &encoder, &x).unwrap();
        let p1 = executor
            .probability_of_one(
                &circuit,
                &params,
                layout.ancilla,
                &mut StdRng::seed_from_u64(3),
            )
            .unwrap();
        assert_eq!(got.to_bits(), fidelity_from_p0(1.0 - p1).to_bits());

        // A training step: the fused circuit through the batch executor.
        let mut sets = vec![params.clone()];
        sets.extend(shifted_parameter_sets(&params, PI / 2.0));
        let batch = BatchExecutor::new(2, 0);
        let got = estimator
            .estimate_many(&stack, &sets, &encoder, &x, &batch, 41)
            .unwrap();
        let want: Vec<f64> = batch
            .probabilities_of_one(
                &executor,
                &FusedCircuit::compile(&circuit),
                &sets,
                layout.ancilla,
                41,
            )
            .unwrap()
            .into_iter()
            .map(|p1| fidelity_from_p0(1.0 - p1))
            .collect();
        assert_eq!(bits(&got), bits(&want));

        // Serving: one fused circuit per class, replayed per sample.
        let mut rng = StdRng::seed_from_u64(8);
        let model =
            QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let served = compiled
            .class_fidelities(&x, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let angles = encoder.encoding_angles(&x).unwrap();
        let mut replay_rng = StdRng::seed_from_u64(5);
        let want: Vec<f64> = (0..2)
            .map(|c| {
                let (circuit, layout) = build_class_swap_test_circuit(
                    model.stack(),
                    model.class_params(c).unwrap(),
                    &encoder,
                )
                .unwrap();
                let p1 = executor
                    .probability_of_one_compiled(
                        &FusedCircuit::compile(&circuit),
                        &angles,
                        layout.ancilla,
                        &mut replay_rng,
                    )
                    .unwrap();
                fidelity_from_p0(1.0 - p1)
            })
            .collect();
        assert_eq!(bits(&served), bits(&want));
    }
}

#[test]
fn compiled_entangled_models_keep_their_statevector_paths() {
    let mut rng = StdRng::seed_from_u64(21);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(5, 3), &mut rng).unwrap();
    let x = [0.12, 0.83, 0.45, 0.61, 0.3];
    for estimator in [
        FidelityEstimator::analytic(),
        FidelityEstimator::swap_test(Executor::ideal()),
    ] {
        assert!(!estimator.scores_product_states(model.stack()));
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let served = compiled.class_fidelities(&x, &mut rng).unwrap();
        let direct = model.class_fidelities(&x, &estimator, &mut rng).unwrap();
        for (s, d) in served.iter().zip(&direct) {
            // The analytic GEMM is bit-identical to per-pair fidelities;
            // fused SWAP-test replay re-associates floats.
            assert!((s - d).abs() < 1e-10, "{s} vs {d}");
        }
        for (c, &s) in served.iter().enumerate() {
            let oracle = statevector_fidelity(
                model.stack(),
                model.class_params(c).unwrap(),
                model.encoder(),
                &x,
            );
            assert!((s - oracle).abs() < 1e-10);
        }
    }
}
