//! The serving benchmark: compiled inference (`quclassi-infer`) against the
//! convenience path (`QuClassiModel::predict`) it replaces in deployment.
//!
//! The workload is single-sample and batched prediction on the paper's two
//! evaluation shapes — Iris (4 features / 3 classes, 5 qubits) and binary
//! MNIST (16 features / 2 classes, 17 qubits) — under the default analytic
//! estimator (what `predict` uses everywhere in this repo) and the exact
//! SWAP-test estimator (the paper-faithful circuit path). These are QC-S
//! models, scored as product states; one more cell serves an entangled
//! QC-SDE Iris model analytically, scored through statevector fidelities.
//!
//! Besides the criterion timings, the binary records the measured speedups
//! to `BENCH_inference_throughput.json` at the workspace root so the perf
//! trajectory is tracked across PRs. `--test` runs everything once, untimed
//! (smoke mode does not overwrite the committed numbers).

use criterion::{criterion_group, BenchmarkId, Criterion};
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_bench::bench_json;
use quclassi_infer::CompiledModel;
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::executor::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

struct Workload {
    name: &'static str,
    model: QuClassiModel,
    /// A rotating probe set (distinct encodings, so single-sample latency
    /// is measured cache-cold unless the path is explicitly the cached one).
    xs: Vec<Vec<f64>>,
    total_qubits: usize,
}

fn workload(name: &'static str, config: QuClassiConfig, samples: usize) -> Workload {
    let dims = config.data_dim;
    let mut rng = StdRng::seed_from_u64(dims as u64);
    let total_qubits = config.total_qubits();
    let model = QuClassiModel::with_random_parameters(config, &mut rng).unwrap();
    let xs: Vec<Vec<f64>> = (0..samples)
        .map(|s| {
            (0..dims)
                .map(|i| (0.05 + 0.09 * ((s * dims + i) % 11) as f64).min(0.95))
                .collect()
        })
        .collect();
    Workload {
        name,
        model,
        xs,
        total_qubits,
    }
}

/// The pre-compilation serving path: every `predict` call re-lowers the
/// class circuits, re-prepares every class state and re-encodes the sample.
fn serve_uncompiled(w: &Workload, estimator: &FidelityEstimator) -> usize {
    let mut rng = StdRng::seed_from_u64(0);
    let mut acc = 0;
    for x in &w.xs {
        acc += w.model.predict(x, estimator, &mut rng).unwrap();
    }
    acc
}

/// The compiled single-sample path, one `predict` per input: pure
/// evaluation cost with the cache disabled, else hits or misses as the
/// inputs and the cache's contents decide.
fn serve_compiled_single(xs: &[Vec<f64>], compiled: &CompiledModel) -> usize {
    let mut rng = StdRng::seed_from_u64(0);
    xs.iter()
        .map(|x| compiled.predict(x, &mut rng).unwrap())
        .sum()
}

/// Distinct probe inputs, `count` of them: a default-capacity cache
/// cycled through more inputs than it holds misses on every lookup, so
/// serving them times a cache miss.
fn distinct_inputs(dims: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|s| {
            (0..dims)
                .map(|i| 0.05 + 0.9 * ((s * dims + i) as f64 * 0.618_033_988_749_895).fract())
                .collect()
        })
        .collect()
}

/// The compiled batched path: one `predict_many` fan-out over the pool.
fn serve_compiled_batched(w: &Workload, compiled: &CompiledModel, batch: &BatchExecutor) -> usize {
    compiled
        .predict_many(&w.xs, batch, 0)
        .unwrap()
        .into_iter()
        .map(|p| p.label)
        .sum()
}

fn bench_serving_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_throughput");
    group.sample_size(12);
    for (dims, classes) in [(4usize, 3usize), (16, 2)] {
        let w = workload("shape", QuClassiConfig::qc_s(dims, classes), 8);
        let analytic = FidelityEstimator::analytic();
        group.bench_with_input(BenchmarkId::new("uncompiled_predict", dims), &w, |b, w| {
            b.iter(|| black_box(serve_uncompiled(w, &analytic)))
        });
        let compiled = CompiledModel::compile(&w.model, analytic.clone())
            .unwrap()
            .with_cache_capacity(0);
        group.bench_with_input(BenchmarkId::new("compiled_predict", dims), &w, |b, w| {
            b.iter(|| black_box(serve_compiled_single(&w.xs, &compiled)))
        });
        let batch = BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS");
        group.bench_with_input(
            BenchmarkId::new("compiled_predict_many", dims),
            &w,
            |b, w| b.iter(|| black_box(serve_compiled_batched(w, &compiled, &batch))),
        );
    }
    group.finish();
}

fn emit_entry(
    w: &Workload,
    method: &str,
    estimator: &FidelityEstimator,
    reps: usize,
    batch: &BatchExecutor,
) -> String {
    let n = w.xs.len() as f64;
    let compiled = CompiledModel::compile(&w.model, estimator.clone())
        .unwrap()
        .with_cache_capacity(0);
    let cached = CompiledModel::compile(&w.model, estimator.clone()).unwrap();

    // Consistency guard: compiled and uncompiled serving must agree.
    {
        let mut rng = StdRng::seed_from_u64(0);
        for x in &w.xs {
            let a = w.model.predict_proba(x, estimator, &mut rng).unwrap();
            let b = compiled.predict_proba(x, &mut rng).unwrap();
            for (p, q) in a.iter().zip(b.iter()) {
                assert!((p - q).abs() < 1e-9, "paths disagree: {p} vs {q}");
            }
        }
    }

    let uncompiled_ns = bench_json::median_ns(reps, || serve_uncompiled(w, estimator)) / n;
    let compiled_ns = bench_json::median_ns(reps, || serve_compiled_single(&w.xs, &compiled)) / n;
    // Warm the fingerprint cache once, then measure repeated-input serving.
    serve_compiled_single(&w.xs, &cached);
    let cached_ns = bench_json::median_ns(reps, || serve_compiled_single(&w.xs, &cached)) / n;
    let batched_ns =
        bench_json::median_ns(reps, || serve_compiled_batched(w, &compiled, batch)) / n;
    // Twice the default capacity of distinct inputs, cycled in order: every
    // lookup misses and, once the cache is full, every insert evicts.
    let fresh = CompiledModel::compile(&w.model, estimator.clone()).unwrap();
    let misses = distinct_inputs(w.model.config().data_dim, 2 * fresh.cache_stats().capacity);
    let miss_ns = bench_json::median_ns(reps, || serve_compiled_single(&misses, &fresh))
        / misses.len() as f64;
    assert_eq!(fresh.cache_stats().hits, 0, "every probe must miss");

    format!(
        concat!(
            "    {{\"workload\": \"{}\", \"total_qubits\": {}, \"method\": \"{}\", ",
            "\"samples\": {}, \"uncompiled_single_ns\": {:.0}, \"compiled_single_ns\": {:.0}, ",
            "\"compiled_cached_ns\": {:.0}, \"compiled_miss_ns\": {:.0}, ",
            "\"compiled_batched_per_sample_ns\": {:.0}, ",
            "\"speedup_single\": {:.2}, \"speedup_cached\": {:.2}, \"speedup_batched\": {:.2}, ",
            "\"threads\": {}, \"hardware_bound\": {}}}"
        ),
        w.name,
        w.total_qubits,
        method,
        w.xs.len(),
        uncompiled_ns,
        compiled_ns,
        cached_ns,
        miss_ns,
        batched_ns,
        uncompiled_ns / compiled_ns,
        uncompiled_ns / cached_ns,
        uncompiled_ns / batched_ns,
        // The pool that actually ran the batched timings (QUCLASSI_THREADS
        // aware), not the machine's nominal parallelism. `hardware_bound`
        // marks a 1-worker pool: batched speedups are then pure
        // engine-overhead comparisons, not parallel scaling.
        batch.threads(),
        batch.threads() == 1
    )
}

fn emit_bench_json(smoke: bool) {
    let reps = if smoke { 1 } else { 30 };
    let batch = BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS");
    let mut entries = Vec::new();
    for (name, dims, classes) in [
        ("iris_4_features", 4usize, 3usize),
        ("mnist_16_features", 16, 2),
    ] {
        let w = workload(name, QuClassiConfig::qc_s(dims, classes), 8);
        entries.push(emit_entry(
            &w,
            "analytic",
            &FidelityEstimator::analytic(),
            reps,
            &batch,
        ));
        entries.push(emit_entry(
            &w,
            "swap_test",
            &FidelityEstimator::swap_test(Executor::ideal()),
            reps,
            &batch,
        ));
    }
    let qc_sde = workload("iris_4_features_qc_sde", QuClassiConfig::qc_sde(4, 3), 8);
    entries.push(emit_entry(
        &qc_sde,
        "analytic",
        &FidelityEstimator::analytic(),
        reps,
        &batch,
    ));
    bench_json::emit(
        "inference_throughput",
        smoke,
        &[
            ("reps", reps.to_string()),
            ("workloads", bench_json::array(&entries)),
        ],
    );
}

criterion_group!(benches, bench_serving_paths);

fn main() {
    benches();
    let smoke = std::env::args().any(|a| a == "--test");
    emit_bench_json(smoke);
}
