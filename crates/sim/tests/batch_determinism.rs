//! Determinism and shot-statistics regression tests for the batch execution
//! engine: results must be bit-identical across thread counts, and
//! shot-based estimates must be statistically faithful.

use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::circuit::Circuit;
use quclassi_sim::executor::Executor;
use quclassi_sim::noise::NoiseModel;
use rand::rngs::StdRng;

/// `P(qubit = 1)` for every parameter set through `exec`, one job per set
/// drawing from the stream of `(base, job index)`.
fn probabilities_of_one(
    batch: &BatchExecutor,
    exec: &Executor,
    circuit: &Circuit,
    sets: &[Vec<f64>],
    qubit: usize,
    base: u64,
) -> Vec<f64> {
    batch
        .run_seeded(base, sets.to_vec(), |_, params, rng: &mut StdRng| {
            exec.probability_of_one(circuit, &params, qubit, rng)
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .unwrap()
}

/// A 3-qubit parametric circuit with entanglement: RY layer + CNOT chain.
fn parametric_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.ry_param(0, 0).ry_param(1, 1).ry_param(2, 2);
    c.cnot(0, 1).cnot(1, 2);
    c.rz_param(0, 3);
    c
}

fn param_grid(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            vec![
                0.1 + 0.37 * i as f64,
                1.9 - 0.21 * i as f64,
                -0.6 + 0.11 * i as f64,
                0.05 * i as f64,
            ]
        })
        .collect()
}

#[test]
fn probabilities_are_bit_identical_across_1_2_and_8_threads() {
    let circuit = parametric_circuit();
    let sets = param_grid(24);
    // Exact, shot-limited, and noisy configurations all must be invariant.
    let configs = vec![
        Executor::ideal(),
        Executor::ideal().with_shots(Some(500)),
        Executor::noisy(NoiseModel::depolarizing(0.01, 0.02, 0.01).unwrap()).with_trajectories(8),
    ];
    for exec in configs {
        let run = |threads: usize| -> Vec<u64> {
            probabilities_of_one(
                &BatchExecutor::new(threads, 0),
                &exec,
                &circuit,
                &sets,
                2,
                77,
            )
            .into_iter()
            .map(f64::to_bits)
            .collect()
        };
        let one = run(1);
        assert_eq!(one, run(2), "2 threads diverged from 1");
        assert_eq!(one, run(8), "8 threads diverged from 1");
    }
}

#[test]
fn per_job_streams_depend_on_index_and_base_seed_only() {
    use rand::Rng;
    let batch = BatchExecutor::new(4, 123);
    // Jobs draw different amounts of randomness; later jobs must be
    // unaffected (no shared stream).
    let draws: Vec<Vec<u64>> = batch.run(vec![1usize, 5, 2, 7, 3], |_, n, rng| {
        (0..n).map(|_| rng.gen::<u64>()).collect()
    });
    // Re-run with different draw counts for earlier jobs: job 4's stream
    // must be identical because it depends only on (root seed, index 4).
    let draws2: Vec<Vec<u64>> = batch.run(vec![9usize, 1, 1, 1, 3], |_, n, rng| {
        (0..n).map(|_| rng.gen::<u64>()).collect()
    });
    assert_eq!(draws[4], draws2[4]);
    // Distinct jobs get distinct streams.
    assert_ne!(draws[0][0], draws[3][0]);
}

#[test]
fn batched_sample_counts_sum_to_requested_shots() {
    let circuit = parametric_circuit();
    let sets = param_grid(6);
    let exec = Executor::ideal();
    let batch = BatchExecutor::new(4, 9);
    let histograms = batch
        .sample_counts(&exec, &circuit, &sets, 10_000, 5)
        .unwrap();
    assert_eq!(histograms.len(), sets.len());
    for histogram in &histograms {
        let total: usize = histogram.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10_000);
    }
    // Thread-count invariance of the sampled histograms themselves.
    let again = BatchExecutor::new(8, 9)
        .sample_counts(&exec, &circuit, &sets, 10_000, 5)
        .unwrap();
    assert_eq!(histograms, again);
}

#[test]
fn batched_histograms_match_analytic_distribution_at_10k_shots() {
    let circuit = parametric_circuit();
    let sets = param_grid(4);
    let exec = Executor::ideal();
    let shots = 10_000usize;
    let histograms = BatchExecutor::new(2, 31)
        .sample_counts(&exec, &circuit, &sets, shots, 11)
        .unwrap();
    for (params, histogram) in sets.iter().zip(histograms.iter()) {
        let probs = circuit.execute(params).unwrap().probabilities();
        for (outcome, count) in histogram {
            let frac = *count as f64 / shots as f64;
            // 5σ binomial tolerance at p(1-p)/shots, floored for tiny p.
            let p = probs[*outcome];
            let sigma = (p * (1.0 - p) / shots as f64).sqrt().max(1e-3);
            assert!(
                (frac - p).abs() < 5.0 * sigma,
                "outcome {outcome}: sampled {frac} vs analytic {p}"
            );
        }
    }
}

#[test]
fn batched_shot_probabilities_match_analytic_at_10k_shots() {
    let circuit = parametric_circuit();
    let sets = param_grid(8);
    let exec = Executor::ideal().with_shots(Some(10_000));
    let batch = BatchExecutor::new(4, 55);
    for qubit in 0..3 {
        let estimates =
            probabilities_of_one(&batch, &exec, &circuit, &sets, qubit, 1000 + qubit as u64);
        for (params, estimate) in sets.iter().zip(estimates.iter()) {
            let exact = circuit
                .execute(params)
                .unwrap()
                .probability_of_one(qubit)
                .unwrap();
            let sigma = (exact * (1.0 - exact) / 10_000.0).sqrt().max(1e-3);
            assert!(
                (estimate - exact).abs() < 5.0 * sigma,
                "qubit {qubit}: sampled {estimate} vs exact {exact}"
            );
        }
    }
}

#[test]
fn execute_statevectors_is_thread_count_invariant() {
    let circuit = parametric_circuit();
    let sets = param_grid(16);
    let run = |threads: usize| {
        BatchExecutor::new(threads, 0).run(sets.clone(), |_, params, _| {
            circuit.execute(&params).unwrap()
        })
    };
    assert_eq!(run(1), run(8));
}
