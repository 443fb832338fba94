//! The execution-engine benchmark: an exact SWAP-test training step
//! through `FidelityEstimator::estimate_many` against the SWAP-test
//! circuit it answers for.
//!
//! The workload is the training hot path: one parameter-shift step's worth
//! of fidelity evaluations (`2·P + 1` parameter vectors) of a QC-SDE model
//! under `FidelityEstimator::swap_test(Executor::ideal())`, at the
//! 4-feature Iris, 8-feature and 16-feature MNIST shapes. A noiseless SWAP
//! test measures `P(0) = ½ + ½·F` exactly, so `estimate_many` computes `F`
//! with the statevector kernels; the oracle runs the `2·m + 1`-qubit
//! circuit gate by gate for every parameter vector and reads
//! `F = 2·P(0) − 1`. Both must agree within 1e-12.
//!
//! Besides the criterion timings, the binary records the measured times to
//! `BENCH_batched_execution.json` at the workspace root. `--test` runs
//! everything once, untimed (JSON reports a single smoke repetition).

use criterion::{criterion_group, BenchmarkId, Criterion};
use quclassi::encoding::{DataEncoder, EncodingStrategy};
use quclassi::gradient::shifted_parameter_sets;
use quclassi::layers::LayerStack;
use quclassi::swap_test::{build_swap_test_circuit, FidelityEstimator};
use quclassi_bench::bench_json;
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::executor::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Workload {
    stack: LayerStack,
    encoder: DataEncoder,
    x: Vec<f64>,
    /// Base parameters plus every parameter-shift neighbour (2·P + 1 sets).
    sets: Vec<Vec<f64>>,
    total_qubits: usize,
}

fn workload(dims: usize) -> Workload {
    let encoder = DataEncoder::new(EncodingStrategy::DualAngle, dims).unwrap();
    let stack = LayerStack::qc_sde(encoder.num_qubits()).unwrap();
    let x: Vec<f64> = (0..dims)
        .map(|i| (i as f64 + 1.0) / (dims as f64 + 1.0))
        .collect();
    let params: Vec<f64> = (0..stack.parameter_count())
        .map(|i| 0.15 + 0.1 * i as f64)
        .collect();
    let mut sets = vec![params.clone()];
    sets.extend(shifted_parameter_sets(&params, std::f64::consts::FRAC_PI_2));
    let total_qubits = 2 * stack.num_qubits() + 1;
    Workload {
        stack,
        encoder,
        x,
        sets,
        total_qubits,
    }
}

/// The oracle: the SWAP-test circuit, built once and run gate by gate for
/// every parameter vector, `F = 2·P(0) − 1` unclamped.
fn circuit_oracle(w: &Workload) -> Vec<f64> {
    let executor = Executor::ideal();
    let mut unused = StdRng::seed_from_u64(0);
    let (circuit, layout) = build_swap_test_circuit(&w.stack, &w.encoder, &w.x).unwrap();
    w.sets
        .iter()
        .map(|params| {
            let p1 = executor
                .probability_of_one(&circuit, params, layout.ancilla, &mut unused)
                .unwrap();
            1.0 - 2.0 * p1
        })
        .collect()
}

/// The estimator path: every parameter set through `estimate_many`.
fn estimate_many(w: &Workload, batch: &BatchExecutor) -> Vec<f64> {
    FidelityEstimator::swap_test(Executor::ideal())
        .estimate_many(&w.stack, &w.sets, &w.encoder, &w.x, batch, 0)
        .unwrap()
}

fn bench_execution_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_execution");
    group.sample_size(12);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for dims in [4usize, 8, 16] {
        let w = workload(dims);
        group.bench_with_input(BenchmarkId::new("circuit_oracle", dims), &w, |b, w| {
            b.iter(|| black_box(circuit_oracle(w)))
        });
        let single = BatchExecutor::single_threaded(0);
        group.bench_with_input(BenchmarkId::new("estimate_many", dims), &w, |b, w| {
            b.iter(|| black_box(estimate_many(w, &single)))
        });
        let pooled = BatchExecutor::new(threads, 0);
        group.bench_with_input(
            BenchmarkId::new("estimate_many_pooled", dims),
            &w,
            |b, w| b.iter(|| black_box(estimate_many(w, &pooled))),
        );
    }
    group.finish();
}

fn emit_bench_json(smoke: bool) {
    // The 17-qubit oracle costs about a second per step: fewer reps keep
    // the full run short, and its spread is small at that scale.
    let (reps, oracle_reps) = if smoke { (1, 1) } else { (30, 5) };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pooled = BatchExecutor::new(threads, 0);
    let single = BatchExecutor::single_threaded(0);
    let mut entries = Vec::new();
    for dims in [4usize, 8, 16] {
        let w = workload(dims);
        // Consistency guard: the estimator reports the circuit's physics.
        let oracle = circuit_oracle(&w);
        let estimates = estimate_many(&w, &single);
        let max_deviation = oracle
            .iter()
            .zip(&estimates)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_deviation <= 1e-12, "paths disagree by {max_deviation}");
        let oracle_ns = bench_json::median_ns(oracle_reps, || circuit_oracle(&w));
        let single_ns = bench_json::median_ns(reps, || estimate_many(&w, &single));
        let pooled_ns = bench_json::median_ns(reps, || estimate_many(&w, &pooled));
        entries.push(format!(
            concat!(
                "    {{\"workload\": \"qc_sde_swap_test_{}_features\", \"total_qubits\": {}, ",
                "\"evaluations\": {}, \"circuit_oracle_ns\": {:.0}, \"estimate_many_ns\": {:.0}, ",
                "\"estimate_many_pooled_ns\": {:.0}, \"speedup\": {:.2}, ",
                "\"speedup_pooled\": {:.2}, \"max_deviation\": {:.1e}, \"threads\": {}}}"
            ),
            dims,
            w.total_qubits,
            w.sets.len(),
            oracle_ns,
            single_ns,
            pooled_ns,
            oracle_ns / single_ns,
            oracle_ns / pooled_ns,
            max_deviation,
            threads
        ));
    }
    bench_json::emit(
        "batched_execution",
        smoke,
        &[
            ("reps", reps.to_string()),
            ("oracle_reps", oracle_reps.to_string()),
            ("workloads", bench_json::array(&entries)),
        ],
    );
}

criterion_group!(benches, bench_execution_paths);

fn main() {
    benches();
    let smoke = std::env::args().any(|a| a == "--test");
    emit_bench_json(smoke);
}
