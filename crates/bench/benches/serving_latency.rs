//! The serving-runtime benchmark: a closed-loop load generator driving
//! `quclassi-serve` over 1, 2, 4 and 8 producers for four artifact kinds —
//! QC-SDE Iris and QC-SDE MNIST-16 under the analytic estimator, QC-S
//! Iris with 1024-shot SWAP tests, and QC-S Iris with 1024-shot SWAP tests
//! under `ibmq_london` noise (trajectory simulation). Every request runs
//! to completion on its producer's thread; only the noisy kind fans its
//! classes out over the runtime's executor.
//!
//! Each cell runs N closed-loop producer threads (every producer fires its
//! next request the moment the previous one is answered) for a fixed
//! request count against one runtime, then reads throughput and p50/p99
//! end-to-end latency from the runtime's own histogram. Before any timing,
//! every kind is checked against direct evaluation: deterministic kinds
//! must be bit-identical to `CompiledModel::predict_one`, and sequential
//! submission `i` of a stochastic kind must equal
//! `predict_many_from_angles` on its angles with seed
//! `job_seed(job_seed(0, i), 0)`.
//!
//! A second axis sweeps **open connections** (100 / 1k / 10k mostly-idle
//! sockets) against the event-loop `WireServer`, measuring connection
//! setup, round-trip latency through the crowd, and pipelined throughput.
//! The idle sockets are held by a child process (this binary re-executed
//! with `idle-client-helper`), so each process stays inside its own
//! `RLIMIT_NOFILE` budget: the server end of every connection lives here,
//! the client end in the child.
//!
//! Results go to `BENCH_serving_latency.json` at the workspace root;
//! `--test` runs everything once, tiny and untimed, without touching the
//! committed numbers.

use criterion::{criterion_group, BenchmarkId, Criterion};
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi::trainer::{Trainer, TrainingConfig};
use quclassi_bench::bench_json;
use quclassi_datasets::stream::ReplayStream;
use quclassi_infer::CompiledModel;
use quclassi_serve::{
    OnlineConfig, OnlineLearner, ServeConfig, ServeRuntime, WireClient, WireConfig, WireServer,
};
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::device::DeviceModel;
use quclassi_sim::executor::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Workload {
    name: &'static str,
    total_qubits: usize,
    model: QuClassiModel,
    estimator: FidelityEstimator,
    /// Distinct probe samples, cycled by every producer.
    pool: Vec<Vec<f64>>,
}

/// A workload served under the analytic estimator.
fn workload(name: &'static str, config: QuClassiConfig) -> Workload {
    let dims = config.data_dim;
    let mut rng = StdRng::seed_from_u64(dims as u64);
    let total_qubits = config.total_qubits();
    let model = QuClassiModel::with_random_parameters(config, &mut rng).unwrap();
    let pool: Vec<Vec<f64>> = (0..16)
        .map(|s| {
            (0..dims)
                .map(|i| (0.05 + 0.09 * ((s * dims + i) % 11) as f64).min(0.95))
                .collect()
        })
        .collect();
    Workload {
        name,
        total_qubits,
        model,
        estimator: FidelityEstimator::analytic(),
        pool,
    }
}

/// Compiles the workload's model for serving with the fingerprint cache
/// off, so the load generator measures honest evaluation throughput
/// rather than cache hits.
fn artifact(w: &Workload) -> CompiledModel {
    CompiledModel::compile(&w.model, w.estimator.clone())
        .unwrap()
        .with_cache_capacity(0)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4096,
        base_seed: 0,
        ..ServeConfig::default()
    }
}

/// The artifact kinds of the load sweep, with the architecture and
/// estimator each is reported under.
fn sweep_kinds() -> Vec<(Workload, &'static str, &'static str)> {
    let shots = Executor::ideal().with_shots(Some(1024));
    let noisy = Executor::noisy(DeviceModel::ibmq_london().noise).with_shots(Some(1024));
    let iris = || workload("qc_s_iris", QuClassiConfig::qc_s(4, 3));
    vec![
        (
            workload("qc_sde_iris_analytic", QuClassiConfig::qc_sde(4, 3)),
            "QC-SDE",
            "analytic",
        ),
        (
            workload("qc_sde_mnist16_analytic", QuClassiConfig::qc_sde(16, 2)),
            "QC-SDE",
            "analytic",
        ),
        (
            Workload {
                name: "qc_s_iris_1024_shots",
                estimator: FidelityEstimator::swap_test(shots),
                ..iris()
            },
            "QC-S",
            "swap_test_1024_shots",
        ),
        (
            Workload {
                name: "qc_s_iris_noisy_ibmq_london",
                estimator: FidelityEstimator::swap_test(noisy),
                ..iris()
            },
            "QC-S",
            "swap_test_1024_shots_ibmq_london_trajectories",
        ),
    ]
}

struct CellResult {
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// One closed-loop measurement: `producers` threads, each issuing
/// `requests_per_producer` blocking predictions back to back.
fn run_cell(w: &Workload, producers: usize, requests_per_producer: usize) -> CellResult {
    run_cell_with(serve_config(), w, producers, requests_per_producer)
}

/// `run_cell` with an explicit runtime config — the observability cell
/// needs to vary the trace-ring capacity against an otherwise identical
/// load.
fn run_cell_with(
    config: ServeConfig,
    w: &Workload,
    producers: usize,
    requests_per_producer: usize,
) -> CellResult {
    let runtime = ServeRuntime::start(
        config,
        BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS"),
    )
    .unwrap();
    runtime.deploy("latency", artifact(w)).unwrap();
    let pool = Arc::new(w.pool.clone());

    let started = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|producer| {
            let client = runtime.client();
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || {
                let mut acc = 0usize;
                for i in 0..requests_per_producer {
                    let x = &pool[(producer * 5 + i) % pool.len()];
                    acc += client
                        .predict("latency", x)
                        .map(|r| r.prediction.label)
                        .unwrap_or_else(|_| {
                            unreachable!("closed-loop producers never saturate a 4096 cap")
                        });
                }
                acc
            })
        })
        .collect();
    let mut acc = 0usize;
    for handle in handles {
        acc += handle.join().unwrap();
    }
    black_box(acc);
    let elapsed = started.elapsed();
    let metrics = runtime.shutdown();
    let total = (producers * requests_per_producer) as f64;
    CellResult {
        throughput_rps: total / elapsed.as_secs_f64(),
        p50_us: metrics.latency.p50_us(),
        p99_us: metrics.latency.p99_us(),
    }
}

/// Sustained capability of a cell: the best of `reps` closed-loop runs.
/// Each run is short (milliseconds), so a single OS scheduling hiccup on a
/// small container can halve one measurement; the max over repetitions is
/// what the configuration can sustain.
fn measure_cell(
    w: &Workload,
    producers: usize,
    requests_per_producer: usize,
    reps: usize,
) -> CellResult {
    let mut best: Option<CellResult> = None;
    for _ in 0..reps {
        let r = run_cell(w, producers, requests_per_producer);
        best = match best {
            Some(b) if b.throughput_rps >= r.throughput_rps => Some(b),
            _ => Some(r),
        };
    }
    best.expect("reps >= 1")
}

/// Serving must not change answers: sequential submissions through the
/// runtime equal direct evaluation — bit-identical to `predict_one` for a
/// deterministic artifact, and for a stochastic one the evaluation of
/// submission `i` on its own seed stream.
fn assert_serving_consistency(w: &Workload) {
    let direct_artifact = artifact(w);
    let executor = BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS");
    let runtime = ServeRuntime::start(serve_config(), executor.clone()).unwrap();
    runtime.deploy("consistency", artifact(w)).unwrap();
    let client = runtime.client();
    let mut rng = StdRng::seed_from_u64(0);
    for (i, x) in w.pool.iter().enumerate() {
        let want = if direct_artifact.estimator().is_stochastic() {
            let angles = direct_artifact.encoder().encoding_angles(x).unwrap();
            let seed = BatchExecutor::job_seed(BatchExecutor::job_seed(0, i as u64), 0);
            direct_artifact
                .predict_many_from_angles(vec![angles], &executor, seed)
                .unwrap()
                .remove(0)
        } else {
            direct_artifact.predict_one(x, &mut rng).unwrap()
        };
        let got = client.predict("consistency", x).unwrap();
        assert_eq!(got.prediction, want, "{}: request {i} diverged", w.name);
    }
    runtime.shutdown();
}

fn bench_serving_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("serving_latency");
    group.sample_size(10);
    for (dims, classes) in [(4usize, 3usize), (16, 2)] {
        let w = workload("roundtrip", QuClassiConfig::qc_s(dims, classes));
        let runtime = ServeRuntime::start(
            serve_config(),
            BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS"),
        )
        .unwrap();
        runtime.deploy("roundtrip", artifact(&w)).unwrap();
        let client = runtime.client();
        group.bench_with_input(BenchmarkId::new("predict_roundtrip", dims), &w, |b, w| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % w.pool.len();
                black_box(
                    client
                        .predict("roundtrip", &w.pool[i])
                        .unwrap()
                        .prediction
                        .label,
                )
            })
        });
        runtime.shutdown();
    }
    group.finish();
}

fn emit_cell_json(producers: usize, requests: usize, label: &str, r: &CellResult) -> String {
    format!(
        concat!(
            "        {{\"mode\": \"{}\", \"producers\": {}, \"requests\": {}, ",
            "\"throughput_rps\": {:.0}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}"
        ),
        label, producers, requests, r.throughput_rps, r.p50_us, r.p99_us
    )
}

fn emit_bench_json(smoke: bool) {
    let requests_per_producer = if smoke { 5 } else { 400 };
    let reps = if smoke { 1 } else { 3 };
    let producer_sweep: &[usize] = if smoke { &[2] } else { &[1, 2, 4, 8] };
    let executor = BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS");
    let mut workload_entries = Vec::new();
    for (w, architecture, method) in sweep_kinds() {
        assert_serving_consistency(&w);
        let mut cells = Vec::new();
        for &producers in producer_sweep {
            // Warm-up pass so thread spawn and first-touch costs are not
            // attributed to the cell.
            run_cell(&w, producers, requests_per_producer / 5 + 1);
            let r = measure_cell(&w, producers, requests_per_producer, reps);
            let total = producers * requests_per_producer;
            cells.push(emit_cell_json(producers, total, "closed_loop", &r));
        }
        workload_entries.push(format!(
            concat!(
                "    {{\"workload\": \"{}\", \"total_qubits\": {}, \"architecture\": \"{}\", ",
                "\"method\": \"{}\", \"threads\": {},\n",
                "      \"sweep\": [\n{}\n      ]}}"
            ),
            w.name,
            w.total_qubits,
            architecture,
            method,
            executor.threads(),
            cells.join(",\n")
        ));
    }
    bench_json::emit(
        "serving_latency",
        smoke,
        &[
            ("requests_per_producer", requests_per_producer.to_string()),
            ("connections_sweep", emit_connections_json(smoke)),
            ("online_penalty", emit_online_json(smoke)),
            ("observability_overhead", emit_observability_json(smoke)),
            ("workloads", bench_json::array(&workload_entries)),
        ],
    );
}

/// One closed-loop measurement with an `OnlineLearner` training, shadowing
/// and promoting concurrently on the same machine — the steady-state cost
/// of train-while-serve. Producers hammer the runtime for as long as the
/// learner's `max_cycles` take, so the measurement window is wall-to-wall
/// concurrent training. Returns the cell plus requests answered and the
/// learner-side counters.
fn run_online_cell(
    w: &Workload,
    producers: usize,
    max_cycles: u64,
) -> (CellResult, usize, u64, u64) {
    let runtime = ServeRuntime::start(
        serve_config(),
        BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS"),
    )
    .unwrap();
    runtime.deploy("latency", artifact(w)).unwrap();
    // Replayed MNIST 3-vs-6, average-pooled to a 4×4 grid — the
    // workload's 16 features.
    let stream = ReplayStream::mnist_pair(3, 6, 64, 4, 11);
    let trainer = Trainer::new(
        TrainingConfig {
            learning_rate: 0.05,
            ..Default::default()
        },
        FidelityEstimator::analytic(),
    );
    let learner = OnlineLearner::start(
        &runtime,
        "latency",
        w.model.clone(),
        trainer,
        stream,
        OnlineConfig {
            window: 16,
            epochs_per_cycle: 1,
            shadow_rate: 1.0,
            min_shadow_requests: 4,
            shadow_wait: Duration::from_secs(2),
            promote_min_accuracy: 0.5,
            accuracy_tolerance: 1.0,
            max_p99_ratio: 1e6, // measure the penalty, don't gate on it
            rollback_min_accuracy: 0.0,
            max_cycles: Some(max_cycles),
            seed: 7,
            ..Default::default()
        },
    )
    .unwrap();

    let pool = Arc::new(w.pool.clone());
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let started = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|producer| {
            let client = runtime.client();
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut answered = 0usize;
                let mut i = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let x = &pool[(producer * 5 + i) % pool.len()];
                    black_box(
                        client
                            .predict("latency", x)
                            .map(|r| r.prediction.label)
                            .unwrap_or_else(|_| {
                                unreachable!("closed-loop producers never saturate a 4096 cap")
                            }),
                    );
                    answered += 1;
                    i += 1;
                }
                answered
            })
        })
        .collect();
    let report = learner.join();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let answered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let elapsed = started.elapsed();
    let metrics = runtime.shutdown();
    (
        CellResult {
            throughput_rps: answered as f64 / elapsed.as_secs_f64(),
            p50_us: metrics.latency.p50_us(),
            p99_us: metrics.latency.p99_us(),
        },
        answered,
        metrics.train_cycles,
        report.promotions(),
    )
}

/// The train-while-serve penalty on the 17-qubit MNIST shape: identical
/// closed-loop load with and without a concurrent online learner.
fn emit_online_json(smoke: bool) -> String {
    let producers = 2;
    let requests_per_producer = if smoke { 10 } else { 400 };
    let max_cycles = if smoke { 1 } else { 3 };
    let w = workload("latency", QuClassiConfig::qc_s(16, 2));
    // Warm-up, then baseline without any training alongside.
    run_cell(&w, producers, requests_per_producer / 5 + 1);
    let baseline = run_cell(&w, producers, requests_per_producer);
    let (online, answered, train_cycles, promotions) = run_online_cell(&w, producers, max_cycles);
    format!(
        concat!(
            "{{\"workload\": \"mnist_16_features\", \"total_qubits\": {}, ",
            "\"producers\": {}, \"train_cycles\": {}, \"promotions\": {},\n",
            "    \"throughput_penalty\": {:.2}, \"p99_inflation\": {:.2},\n",
            "    \"cells\": [\n{},\n{}\n    ]}}"
        ),
        w.total_qubits,
        producers,
        train_cycles,
        promotions,
        baseline.throughput_rps / online.throughput_rps.max(1e-9),
        online.p99_us / baseline.p99_us.max(1e-9),
        emit_cell_json(
            producers,
            producers * requests_per_producer,
            "serve_only",
            &baseline
        ),
        emit_cell_json(producers, answered, "serve_while_training", &online)
    )
}

/// The cost of observability itself: identical closed-loop load with the
/// trace ring disabled (`trace_capacity = 0`), with tracing + the metrics
/// registry live (the default), and with kernel profiling forced on —
/// the three states a deployment can run in. The contract: tracing and
/// the registry cost within noise of disabled, and with
/// `QUCLASSI_PROFILE` off the kernel hooks are indistinguishable no-ops.
fn emit_observability_json(smoke: bool) -> String {
    let producers = 4;
    let requests_per_producer = if smoke { 10 } else { 400 };
    let reps = if smoke { 1 } else { 5 };
    let w = workload("latency", QuClassiConfig::qc_s(4, 3));
    let config_for = |trace_capacity: usize| ServeConfig {
        trace_capacity,
        ..serve_config()
    };
    // The three states are compared *interleaved*, one rep of each per
    // round, not state-by-state: the differences under test are a few
    // percent, far below the drift a shared machine shows between two
    // back-to-back measurement blocks, so any sequential ordering would
    // attribute warm-up and scheduling noise to whichever state ran
    // first. Best-of-reps per state, as elsewhere in this bench.
    // Profiling is toggled around its own runs only — every other
    // measurement keeps the kernel hooks in their default no-op state.
    let states: [(usize, bool); 3] = [
        (0, false),
        (quclassi_serve::DEFAULT_TRACE_CAPACITY, false),
        (quclassi_serve::DEFAULT_TRACE_CAPACITY, true),
    ];
    let mut best: [Option<CellResult>; 3] = [None, None, None];
    for rep in 0..=reps {
        for (i, &(trace_capacity, profiled)) in states.iter().enumerate() {
            quclassi_sim::profile::set_enabled(profiled);
            let r = run_cell_with(
                config_for(trace_capacity),
                &w,
                producers,
                requests_per_producer,
            );
            quclassi_sim::profile::set_enabled(false);
            if rep == 0 {
                continue; // round 0 is warm-up for all three states
            }
            best[i] = match best[i].take() {
                Some(b) if b.throughput_rps >= r.throughput_rps => Some(b),
                _ => Some(r),
            };
        }
    }
    let [disabled, enabled, profiled] = best.map(|b| b.expect("reps >= 1"));
    let total = producers * requests_per_producer;
    format!(
        concat!(
            "{{\"workload\": \"iris_4_features\", ",
            "\"producers\": {}, \"trace_capacity\": {},\n",
            "    \"enabled_vs_disabled_throughput\": {:.3}, ",
            "\"profiled_vs_disabled_throughput\": {:.3},\n",
            "    \"cells\": [\n{},\n{},\n{}\n    ]}}"
        ),
        producers,
        quclassi_serve::DEFAULT_TRACE_CAPACITY,
        enabled.throughput_rps / disabled.throughput_rps.max(1e-9),
        profiled.throughput_rps / disabled.throughput_rps.max(1e-9),
        emit_cell_json(producers, total, "tracing_disabled", &disabled),
        emit_cell_json(producers, total, "tracing_and_registry", &enabled),
        emit_cell_json(producers, total, "kernel_profiling_on", &profiled)
    )
}

/// Child-process mode: hold `count` idle client connections to `addr`
/// until stdin closes. Keeps the client end of the connection sweep in a
/// separate fd namespace so 10k connections never collide with the
/// parent's `RLIMIT_NOFILE`.
fn run_idle_client_helper(addr: &str, count: usize) {
    let addr: SocketAddr = addr.parse().expect("helper addr");
    let mut held = Vec::with_capacity(count);
    for i in 0..count {
        match TcpStream::connect(addr) {
            Ok(stream) => held.push(stream),
            Err(e) => {
                // Report the shortfall instead of dying: the parent
                // records how many connections the server actually held.
                eprintln!("helper: connect {i}/{count} failed: {e}");
                break;
            }
        }
    }
    println!("ready {}", held.len());
    std::io::stdout().flush().ok();
    // Park until the parent is done measuring (stdin EOF), then drop the
    // herd all at once.
    let mut sink = String::new();
    while std::io::stdin().read_line(&mut sink).is_ok_and(|n| n > 0) {
        sink.clear();
    }
    drop(held);
}

/// Spawns the helper child and waits for its herd to be fully connected.
/// Returns the child and how many sockets it holds.
fn spawn_idle_herd(addr: SocketAddr, count: usize) -> (std::process::Child, usize) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .arg("idle-client-helper")
        .arg(addr.to_string())
        .arg(count.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn idle-client helper");
    let stdout = child.stdout.take().expect("helper stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("helper ready line");
    let held = line
        .trim()
        .strip_prefix("ready ")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    (child, held)
}

struct WireCell {
    setup_ms: f64,
    held: usize,
    refusals: u64,
    p50_us: f64,
    p99_us: f64,
    pipelined_rps: f64,
}

/// One cell of the connection sweep: `connections` idle sockets held by
/// the child, then round-trip latency and pipelined throughput measured
/// through the crowd from this process.
fn run_wire_cell(
    w: &Workload,
    connections: usize,
    roundtrips: usize,
    pipelined: usize,
) -> WireCell {
    let runtime = ServeRuntime::start(
        serve_config(),
        BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS"),
    )
    .unwrap();
    runtime.deploy("wire", artifact(w)).unwrap();
    let config = WireConfig {
        max_connections: connections + 64,
        // The herd is deliberately idle; a read deadline would reap it
        // mid-measurement.
        read_timeout: None,
        write_timeout: Some(Duration::from_secs(30)),
        shards: 2,
    };
    let server = WireServer::start_with("127.0.0.1:0", runtime.client(), config).unwrap();
    let addr = server.local_addr();

    let setup_started = Instant::now();
    let (mut child, held) = spawn_idle_herd(addr, connections);
    let setup_ms = setup_started.elapsed().as_secs_f64() * 1e3;

    // Round-trip latency through the idle crowd, measured client-side.
    let mut wire = WireClient::connect(addr).unwrap();
    let x = &w.pool[0];
    wire.predict("wire", x).unwrap(); // warm the connection
    let mut samples_us = Vec::with_capacity(roundtrips);
    for i in 0..roundtrips {
        let x = &w.pool[i % w.pool.len()];
        let t = Instant::now();
        wire.predict("wire", x).unwrap();
        samples_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    samples_us.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| samples_us[((samples_us.len() - 1) as f64 * p) as usize];

    // Pipelined throughput: fire a burst without reading, then drain.
    let t = Instant::now();
    for i in 0..pipelined {
        wire.send_predict("wire", &w.pool[i % w.pool.len()])
            .unwrap();
    }
    for _ in 0..pipelined {
        let (_, response) = wire.recv_response().unwrap();
        assert_eq!(
            response
                .get("ok")
                .and_then(quclassi_serve::json::Json::as_bool),
            Some(true)
        );
    }
    let pipelined_rps = pipelined as f64 / t.elapsed().as_secs_f64();

    let refusals = runtime.metrics().wire_refusals;
    drop(child.stdin.take()); // EOF → the child drops its herd and exits
    let _ = child.wait();
    server.shutdown();
    runtime.shutdown();
    WireCell {
        setup_ms,
        held,
        refusals,
        p50_us: q(0.50),
        p99_us: q(0.99),
        pipelined_rps,
    }
}

fn emit_wire_cell_json(server: &str, connections: usize, r: &WireCell) -> String {
    format!(
        concat!(
            "        {{\"server\": \"{}\", \"connections\": {}, \"held\": {}, ",
            "\"refusals\": {}, \"setup_ms\": {:.1}, \"p50_us\": {:.1}, ",
            "\"p99_us\": {:.1}, \"pipelined_rps\": {:.0}}}"
        ),
        server, connections, r.held, r.refusals, r.setup_ms, r.p50_us, r.p99_us, r.pipelined_rps
    )
}

/// The connection-count sweep: 100/1k/10k mostly-idle sockets, one active
/// client measuring through the crowd.
fn emit_connections_json(smoke: bool) -> String {
    let connection_sweep: &[usize] = if smoke { &[50] } else { &[100, 1_000, 10_000] };
    let roundtrips = if smoke { 20 } else { 2_000 };
    let pipelined = if smoke { 16 } else { 1_024 };
    let w = workload("wire", QuClassiConfig::qc_s(4, 3));
    let mut cells = Vec::new();
    for &connections in connection_sweep {
        let r = run_wire_cell(&w, connections, roundtrips, pipelined);
        cells.push(emit_wire_cell_json("event_loop", connections, &r));
    }
    format!(
        "{{\"workload\": \"iris_4_features\", \"roundtrips\": {}, \"pipelined_burst\": {},\n    \"cells\": [\n{}\n    ]}}",
        roundtrips,
        pipelined,
        cells.join(",\n")
    )
}

criterion_group!(benches, bench_serving_roundtrip);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("idle-client-helper") {
        run_idle_client_helper(&args[2], args[3].parse().expect("helper count"));
        return;
    }
    // Re-measure the observability cell alone (it is by far the cheapest
    // section; splice the printed object into BENCH_serving_latency.json
    // by hand when refreshing it in isolation).
    if args.iter().any(|a| a == "observability-only") {
        println!(
            "{}",
            emit_observability_json(quclassi_bench::runtime::quick())
        );
        return;
    }
    benches();
    // QUCLASSI_QUICK forces smoke sizing even without `--test`, so CI can
    // exercise the full load-generator path in seconds without clobbering
    // the committed numbers.
    let smoke = std::env::args().any(|a| a == "--test") || quclassi_bench::runtime::quick();
    emit_bench_json(smoke);
}
