//! The analytic fidelity kernels against the SWAP-test circuit, and the
//! dispatch that decides who runs a circuit.
//!
//! * Over random S/D/E stacks, both encodings and odd feature counts, the
//!   exact SWAP test returns the analytic fidelity bit for bit, and agrees
//!   within 1e-12 with `2·P(ancilla=0) − 1` of the SWAP-test
//!   circuit; separable stacks also agree with the statevector inner
//!   product. A shot-limited ideal executor draws exactly the shots the
//!   circuit's own estimate draws from the same seed.
//! * Compiled serving scores through the same kernels as the uncompiled
//!   model: bit-identical under the analytic and the exact SWAP-test
//!   estimator, at any thread count.
//! * Noisy executors run their SWAP-test circuits; shot-limited ideal
//!   executors draw the same shots from the same streams as if they did.

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
use quclassi_sim::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const TOL: f64 = 1e-12;

/// A random separable case: encoder, S/D stack of 1–3 layers, one
/// parameter vector and one sample. Feature counts run 1..=5 so both
/// encodings see odd counts; the SWAP-test register stays ≤ 11 qubits.
fn separable_case(seed: u64) -> (DataEncoder, LayerStack, Vec<f64>, Vec<f64>) {
    random_case(seed, false)
}

/// Like [`separable_case`], but with `entangled` the layers are drawn from
/// S, D and E.
fn random_case(seed: u64, entangled: bool) -> (DataEncoder, LayerStack, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let strategy = if rng.gen_bool(0.5) {
        EncodingStrategy::DualAngle
    } else {
        EncodingStrategy::SingleAngle
    };
    let dim = rng.gen_range(1..=5);
    let encoder = DataEncoder::new(strategy, dim).unwrap();
    let kinds: &[LayerKind] = if entangled {
        &[
            LayerKind::SingleQubitUnitary,
            LayerKind::DualQubitUnitary,
            LayerKind::Entanglement,
        ]
    } else {
        &[LayerKind::SingleQubitUnitary, LayerKind::DualQubitUnitary]
    };
    let layers = (0..rng.gen_range(1..=3))
        .map(|_| kinds[rng.gen_range(0..kinds.len())])
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

/// The SWAP-test oracle: `P(ancilla=1)` of the full circuit, run gate by gate,
/// through `executor`, drawing any shots from `rng`.
fn swap_circuit_p1(
    executor: &Executor,
    stack: &LayerStack,
    params: &[f64],
    encoder: &DataEncoder,
    x: &[f64],
    rng: &mut StdRng,
) -> f64 {
    let (circuit, layout) = build_swap_test_circuit(stack, encoder, x).unwrap();
    executor
        .probability_of_one(&circuit, params, layout.ancilla, rng)
        .unwrap()
}

/// `2·P(ancilla=0) − 1` of the exact SWAP-test circuit, unclamped.
fn swap_circuit_fidelity(
    stack: &LayerStack,
    params: &[f64],
    encoder: &DataEncoder,
    x: &[f64],
) -> f64 {
    let mut unused = StdRng::seed_from_u64(0);
    let p1 = swap_circuit_p1(&Executor::ideal(), stack, params, encoder, x, &mut unused);
    2.0 * (1.0 - p1) - 1.0
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

// Case count: PROPTEST_CASES, else 64.
proptest! {
    #[test]
    fn product_path_agrees_with_statevector_and_swap_test_circuit(seed in 0u64..u64::MAX) {
        let entangled = seed % 2 == 1;
        let (encoder, stack, params, x) = random_case(seed, entangled);
        let mut rng = StdRng::seed_from_u64(0);
        let analytic = FidelityEstimator::analytic();
        let exact_swap = FidelityEstimator::swap_test(Executor::ideal());
        prop_assert!(!exact_swap.simulates_circuit());

        let f = analytic.estimate(&stack, &params, &encoder, &x, &mut rng).unwrap();
        let sv = statevector_fidelity(&stack, &params, &encoder, &x);
        let swap = swap_circuit_fidelity(&stack, &params, &encoder, &x);
        prop_assert!((f - sv).abs() <= TOL, "kernel {} vs statevector {}", f, sv);
        prop_assert!((f - swap).abs() <= TOL, "kernel {} vs SWAP-test circuit {}", f, swap);

        // Both deterministic estimators share the kernel, bit for bit.
        let g = exact_swap.estimate(&stack, &params, &encoder, &x, &mut rng).unwrap();
        prop_assert_eq!(f.to_bits(), g.to_bits());

        // Shots: the same seed draws the same shots as the circuit's own
        // estimate of the ancilla.
        for shots in [1, 7, 100, 2048] {
            let executor = Executor::ideal().with_shots(Some(shots));
            let est = FidelityEstimator::swap_test(executor.clone());
            let got = est
                .estimate(&stack, &params, &encoder, &x, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let p1 = swap_circuit_p1(
                &executor, &stack, &params, &encoder, &x, &mut StdRng::seed_from_u64(seed),
            );
            prop_assert_eq!(got.to_bits(), fidelity_from_p0(1.0 - p1).to_bits(), "{} shots", shots);
        }

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
    // The learned-state circuit runs on the statevector, and the exact
    // SWAP test returns its fidelity: bit-identical to the analytic
    // method, within 1e-12 of the SWAP-test circuit.
    let (encoder, stacks, x) = entangled_case();
    for stack in stacks {
        let name = stack.architecture_name();
        assert!(!stack.is_separable(), "{name}");
        let params = params_for(&stack);
        let mut rng = StdRng::seed_from_u64(0);
        let analytic = FidelityEstimator::analytic()
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        let want = statevector_fidelity(&stack, &params, &encoder, &x);
        assert_eq!(analytic.to_bits(), want.to_bits(), "{name} analytic");

        let swap = FidelityEstimator::swap_test(Executor::ideal())
            .estimate(&stack, &params, &encoder, &x, &mut rng)
            .unwrap();
        assert_eq!(swap.to_bits(), analytic.to_bits(), "{name} SWAP test");
        let circuit = swap_circuit_fidelity(&stack, &params, &encoder, &x);
        assert!((swap - circuit).abs() <= TOL, "{name}: {swap} vs {circuit}");
    }
}

#[test]
fn stochastic_executors_still_run_their_circuits() {
    // Noisy executors run the SWAP-test circuit; a shot-limited ideal
    // executor computes F and draws the ancilla's shots instead. Either
    // way every estimate equals the circuit's own, draw for draw, on the
    // same RNG stream.
    let encoder = DataEncoder::new(EncodingStrategy::DualAngle, 4).unwrap();
    let noise = NoiseModel::depolarizing(0.002, 0.02, 0.02).unwrap();
    for stack in [LayerStack::qc_s(2).unwrap(), LayerStack::qc_sde(2).unwrap()] {
        let params = params_for(&stack);
        let x = [0.2, 0.9, 0.35, 0.5];
        for executor in [
            Executor::ideal().with_shots(Some(512)),
            Executor::noisy(noise.clone()).with_trajectories(4),
            Executor::noisy_density(noise.clone()),
        ] {
            let estimator = FidelityEstimator::swap_test(executor.clone());
            assert!(estimator.is_stochastic());
            assert_eq!(estimator.simulates_circuit(), !executor.noise().is_ideal());

            // One estimate: the gate-by-gate circuit, same RNG stream.
            let got = estimator
                .estimate(&stack, &params, &encoder, &x, &mut StdRng::seed_from_u64(3))
                .unwrap();
            let p1 = swap_circuit_p1(
                &executor,
                &stack,
                &params,
                &encoder,
                &x,
                &mut StdRng::seed_from_u64(3),
            );
            assert_eq!(got.to_bits(), fidelity_from_p0(1.0 - p1).to_bits());

            // A training step: job `i` of the batch draws from the stream
            // of `(41, i)`.
            let mut sets = vec![params.clone()];
            sets.extend(shifted_parameter_sets(&params, PI / 2.0));
            let batch = BatchExecutor::new(2, 0);
            let got = estimator
                .estimate_many(&stack, &sets, &encoder, &x, &batch, 41)
                .unwrap();
            let want: Vec<f64> = batch.run_seeded(41, sets.clone(), |_, p, rng| {
                let p1 = swap_circuit_p1(&executor, &stack, &p, &encoder, &x, rng);
                fidelity_from_p0(1.0 - p1)
            });
            assert_eq!(bits(&got), bits(&want));

            // Serving: one SWAP-test circuit per class, the sample's
            // encoding angles bound in, classes drawn in order.
            let mut rng = StdRng::seed_from_u64(8);
            let config = QuClassiConfig {
                layers: stack.layers().to_vec(),
                ..QuClassiConfig::qc_s(4, 2)
            };
            let model = QuClassiModel::with_random_parameters(config, &mut rng).unwrap();
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
                        .probability_of_one(&circuit, &angles, layout.ancilla, &mut replay_rng)
                        .unwrap();
                    fidelity_from_p0(1.0 - p1)
                })
                .collect();
            assert_eq!(bits(&served), bits(&want));
        }
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
        let compiled = CompiledModel::compile(&model, estimator.clone()).unwrap();
        let served = compiled.class_fidelities(&x, &mut rng).unwrap();
        let direct = model.class_fidelities(&x, &estimator, &mut rng).unwrap();
        // Served and direct scores take the same statevector fidelities.
        assert_eq!(bits(&served), bits(&direct));
        for (c, &s) in served.iter().enumerate() {
            let params = model.class_params(c).unwrap();
            let oracle = statevector_fidelity(model.stack(), params, model.encoder(), &x);
            assert_eq!(s.to_bits(), oracle.to_bits());
            let circuit = swap_circuit_fidelity(model.stack(), params, model.encoder(), &x);
            assert!((s - circuit).abs() <= TOL, "{s} vs {circuit}");
        }
    }
}
