//! The execution-engine benchmark: gate-fused, batch-dispatched SWAP-test
//! evaluation against the unfused sequential path it replaced.
//!
//! The workload is the training hot path: one parameter-shift step's worth
//! of fidelity evaluations (`2·P + 1` parameter vectors) of the QuClassi
//! SWAP-test circuit. The headline size is the 8-feature configuration —
//! two 4-qubit registers plus the ancilla — flanked by the 4-feature Iris
//! and 16-feature MNIST shapes.
//!
//! Besides the criterion timings, the binary records the measured speedups
//! to `BENCH_batched_execution.json` at the workspace root so the perf
//! trajectory is tracked across PRs. `--test` runs everything once, untimed
//! (JSON reports a single smoke repetition).

use criterion::{criterion_group, BenchmarkId, Criterion};
use quclassi::encoding::{DataEncoder, EncodingStrategy};
use quclassi::gradient::shifted_parameter_sets;
use quclassi::layers::LayerStack;
use quclassi::swap_test::{build_swap_test_circuit, fidelity_from_p0, FidelityEstimator};
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
    let stack = LayerStack::qc_s(encoder.num_qubits()).unwrap();
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

/// The pre-fusion hot path: rebuild the SWAP-test circuit and walk it
/// gate-by-gate for every single evaluation, exactly as
/// `FidelityEstimator::estimate` must when called in a loop.
fn eval_unfused_sequential(w: &Workload) -> f64 {
    let executor = Executor::ideal();
    let mut rng = StdRng::seed_from_u64(0);
    let mut acc = 0.0;
    for params in &w.sets {
        let (circuit, layout) = build_swap_test_circuit(&w.stack, &w.encoder, &w.x).unwrap();
        let p1 = executor
            .probability_of_one(&circuit, params, layout.ancilla, &mut rng)
            .unwrap();
        acc += fidelity_from_p0(1.0 - p1);
    }
    acc
}

/// The engine path: compile once, evaluate every parameter set through the
/// fused program via the batch executor.
fn eval_fused_batched(w: &Workload, batch: &BatchExecutor) -> f64 {
    FidelityEstimator::swap_test(Executor::ideal())
        .estimate_many(&w.stack, &w.sets, &w.encoder, &w.x, batch, 0)
        .unwrap()
        .into_iter()
        .sum()
}

fn bench_execution_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_execution");
    group.sample_size(12);
    for dims in [4usize, 8, 16] {
        let w = workload(dims);
        group.bench_with_input(BenchmarkId::new("unfused_sequential", dims), &w, |b, w| {
            b.iter(|| black_box(eval_unfused_sequential(w)))
        });
        let single = BatchExecutor::single_threaded(0);
        group.bench_with_input(BenchmarkId::new("fused", dims), &w, |b, w| {
            b.iter(|| black_box(eval_fused_batched(w, &single)))
        });
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pooled = BatchExecutor::new(threads, 0);
        group.bench_with_input(BenchmarkId::new("fused_batched", dims), &w, |b, w| {
            b.iter(|| black_box(eval_fused_batched(w, &pooled)))
        });
    }
    group.finish();
}

fn emit_bench_json(smoke: bool) {
    let reps = if smoke { 1 } else { 30 };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pooled = BatchExecutor::new(threads, 0);
    let single = BatchExecutor::single_threaded(0);
    let mut entries = Vec::new();
    for dims in [4usize, 8, 16] {
        let w = workload(dims);
        // Consistency guard: all three paths must report the same physics.
        let a = eval_unfused_sequential(&w);
        let b = eval_fused_batched(&w, &single);
        assert!((a - b).abs() < 1e-9, "paths disagree: {a} vs {b}");
        let unfused = bench_json::median_ns(reps, || eval_unfused_sequential(&w));
        let fused = bench_json::median_ns(reps, || eval_fused_batched(&w, &single));
        let batched = bench_json::median_ns(reps, || eval_fused_batched(&w, &pooled));
        entries.push(format!(
            concat!(
                "    {{\"workload\": \"swap_test_{}_features\", \"total_qubits\": {}, ",
                "\"evaluations\": {}, \"unfused_sequential_ns\": {:.0}, \"fused_ns\": {:.0}, ",
                "\"fused_batched_ns\": {:.0}, \"speedup_fused\": {:.2}, ",
                "\"speedup_batched\": {:.2}, \"threads\": {}}}"
            ),
            dims,
            w.total_qubits,
            w.sets.len(),
            unfused,
            fused,
            batched,
            unfused / fused,
            unfused / batched,
            threads
        ));
    }
    bench_json::emit(
        "batched_execution",
        smoke,
        &[
            ("reps", reps.to_string()),
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
