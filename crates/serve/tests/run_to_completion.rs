//! Run-to-completion serving: every request is answered on the thread
//! that admits it — the in-process caller or the wire shard — before
//! `submit` returns, whatever the artifact kind and whether or not a
//! shadow mirrors it. These tests pin what that path keeps: bit-identical
//! answers for deterministic kinds, seed streams that follow the admission
//! order for stochastic ones, version pinning across hot-swap, complete
//! trace spans, latency accounting, shadow mirroring and lossless shutdown.

mod common;

use common::{compiled, started_runtime};
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_serve::json::Json;
use quclassi_serve::{ServeConfig, ServeError, ServeRuntime, TraceSpan, WireClient, WireServer};
use quclassi_sim::batch::BatchExecutor;
use quclassi_sim::device::DeviceModel;
use quclassi_sim::executor::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn samples(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![0.05 * i as f64, 0.9 - 0.03 * i as f64, 0.4, 0.6])
        .collect()
}

/// What a direct `predict_one` on a separate artifact answers.
fn direct(artifact: &CompiledModel, x: &[f64]) -> Prediction {
    artifact
        .predict_one(x, &mut StdRng::seed_from_u64(0))
        .unwrap()
}

/// A 3-class artifact over 4 features with random parameters from `seed`.
fn artifact(config: QuClassiConfig, estimator: FidelityEstimator, seed: u64) -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = QuClassiModel::with_random_parameters(config, &mut rng).unwrap();
    CompiledModel::compile(&model, estimator).unwrap()
}

/// An entangled (QC-SDE) analytic artifact: scored through statevector
/// fidelities, not as product states.
fn entangled(seed: u64) -> CompiledModel {
    artifact(
        QuClassiConfig::qc_sde(4, 3),
        FidelityEstimator::analytic(),
        seed,
    )
}

fn assert_inline_span(span: &TraceSpan) {
    assert!(span.compute_ns > 0, "the model ran: {span:?}");
    assert!(span.stage_sum_ns() <= span.total_ns, "{span:?}");
}

#[test]
fn in_process_answers_are_ready_at_submit_and_bit_identical() {
    let runtime = started_runtime(ServeConfig::default());
    let client = runtime.client();
    let reference = compiled(7);
    let xs = samples(12);
    for (i, x) in xs.iter().enumerate() {
        let pending = client.submit("iris", x).unwrap();
        assert_eq!(
            client.metrics().completed,
            i as u64 + 1,
            "answered before submit returned"
        );
        let response = pending.wait().unwrap();
        assert_eq!(response.prediction, direct(&reference, x));
        assert_eq!(response.version, 1);
    }
    let spans = client.traces(xs.len());
    assert_eq!(spans.len(), xs.len());
    for span in &spans {
        assert_inline_span(span);
        assert_eq!(span.write_ns, 0, "no wire write in process");
    }
    let m = runtime.shutdown();
    let n = xs.len() as u64;
    assert_eq!((m.admitted, m.completed, m.failed), (n, n, 0));
    assert_eq!(m.in_flight, 0);
    assert_eq!(m.stage_compute.count(), n);
    assert_eq!(m.latency.count(), n);
}

#[test]
fn latency_runs_from_admission_to_the_end_of_evaluation() {
    let runtime = started_runtime(ServeConfig::default());
    let client = runtime.client();
    let xs = samples(16);
    for x in &xs {
        client.predict("iris", x).unwrap();
    }
    for span in client.traces(xs.len()) {
        assert!(span.stage_sum_ns() <= span.total_ns, "{span:?}");
    }
    let m = runtime.shutdown();
    // One latency per answered request, spanning its encode and compute
    // stages (disjoint intervals between admission and the end of
    // evaluation), both runtime-wide and for the one model served.
    let stages = m.stage_encode.sum_ns() + m.stage_compute.sum_ns();
    assert_eq!(m.completed, xs.len() as u64);
    assert_eq!(m.latency.count(), m.completed);
    assert!(
        m.latency.sum_ns() >= stages,
        "{} < {stages}",
        m.latency.sum_ns()
    );
    let model = &m.models[0].stats;
    assert_eq!(model.latency.count(), model.completed);
    assert!(model.latency.sum_ns() >= stages);
}

#[test]
fn every_artifact_kind_shadowed_or_not_is_answered_at_submit() {
    let noisy = DeviceModel::ibmq_london().noise;
    let kinds: Vec<(&str, QuClassiConfig, FidelityEstimator, bool)> = vec![
        (
            "QC-S analytic",
            QuClassiConfig::qc_s(4, 3),
            FidelityEstimator::analytic(),
            true,
        ),
        (
            "QC-S exact SWAP test",
            QuClassiConfig::qc_s(4, 3),
            FidelityEstimator::swap_test(Executor::ideal()),
            true,
        ),
        (
            "QC-SDE analytic",
            QuClassiConfig::qc_sde(4, 3),
            FidelityEstimator::analytic(),
            true,
        ),
        (
            "QC-SDE exact SWAP test",
            QuClassiConfig::qc_sde(4, 3),
            FidelityEstimator::swap_test(Executor::ideal()),
            true,
        ),
        (
            "QC-S 64 shots",
            QuClassiConfig::qc_s(4, 3),
            FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(64))),
            false,
        ),
        (
            "QC-S noisy",
            QuClassiConfig::qc_s(4, 3),
            FidelityEstimator::swap_test(Executor::noisy(noisy).with_trajectories(2)),
            false,
        ),
    ];
    for (name, config, estimator, deterministic) in kinds {
        for shadowed in [false, true] {
            let runtime =
                ServeRuntime::start(ServeConfig::default(), BatchExecutor::new(2, 0)).unwrap();
            runtime
                .deploy("m", artifact(config.clone(), estimator.clone(), 7))
                .unwrap();
            if shadowed {
                let candidate = artifact(config.clone(), estimator.clone(), 8);
                runtime.start_shadow("m", candidate, 1.0, 1).unwrap();
            }
            let client = runtime.client();
            let reference = artifact(config.clone(), estimator.clone(), 7);
            for (i, x) in samples(4).iter().enumerate() {
                let pending = client.submit("m", x).unwrap();
                let m = client.metrics();
                let answered = i as u64 + 1;
                assert_eq!(m.completed, answered, "{name}: answered at submit");
                let mirrored = if shadowed { answered } else { 0 };
                assert_eq!(m.shadow_requests, mirrored, "{name}: mirrored at submit");
                let response = pending.wait().unwrap();
                if deterministic {
                    assert_eq!(response.prediction, direct(&reference, x), "{name}");
                }
            }
            let m = runtime.shutdown();
            assert_eq!(m.latency.count(), m.completed, "{name}");
        }
    }
}

#[test]
fn stochastic_answers_follow_the_admission_order_seed_stream() {
    const BASE_SEED: u64 = 99;
    let estimator = FidelityEstimator::swap_test(Executor::ideal().with_shots(Some(1024)));
    let reference = artifact(QuClassiConfig::qc_s(4, 3), estimator.clone(), 7);
    let xs = samples(10);
    // Submission `i` is evaluated alone on the stream of admission `i`.
    let want: Vec<Prediction> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let angles = reference.encoder().encoding_angles(x).unwrap();
            let seed = BatchExecutor::job_seed(BatchExecutor::job_seed(BASE_SEED, i as u64), 0);
            reference
                .predict_many_from_angles(vec![angles], &BatchExecutor::single_threaded(0), seed)
                .unwrap()
                .remove(0)
        })
        .collect();
    // Two runtimes for each worker count: the same answers every time.
    for threads in [1, 2, 1, 2] {
        let runtime = ServeRuntime::start(
            ServeConfig {
                base_seed: BASE_SEED,
                ..ServeConfig::default()
            },
            BatchExecutor::new(threads, 0),
        )
        .unwrap();
        runtime
            .deploy(
                "m",
                artifact(QuClassiConfig::qc_s(4, 3), estimator.clone(), 7),
            )
            .unwrap();
        let client = runtime.client();
        for (i, (x, want)) in xs.iter().zip(&want).enumerate() {
            let got = client.predict("m", x).unwrap().prediction;
            assert_eq!(&got, want, "submission {i}, {threads} worker(s)");
        }
        runtime.shutdown();
    }
    // The shots do draw: some answer differs from the exact fidelities.
    let exact = artifact(QuClassiConfig::qc_s(4, 3), FidelityEstimator::analytic(), 7);
    assert!(xs
        .iter()
        .zip(&want)
        .any(|(x, w)| direct(&exact, x).fidelities != w.fidelities));
}

#[test]
fn hot_swap_under_load_pins_each_request_to_its_admitting_version() {
    let runtime = Arc::new(started_runtime(ServeConfig::default()));
    let references = [compiled(7), compiled(8), compiled(9)];
    let xs = Arc::new(samples(8));
    let stop = Arc::new(AtomicBool::new(false));
    let producers: Vec<_> = (0..3)
        .map(|p| {
            let client = runtime.client();
            let (xs, stop) = (Arc::clone(&xs), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut answers = Vec::new();
                let mut i = p;
                while !stop.load(Ordering::Relaxed) || answers.len() < 32 {
                    let x = &xs[i % xs.len()];
                    let response = client.predict("iris", x).unwrap();
                    answers.push((i % xs.len(), response.version, response.prediction));
                    i += 3;
                }
                answers
            })
        })
        .collect();
    for seed in [8, 9] {
        std::thread::sleep(Duration::from_millis(5));
        runtime.deploy("iris", compiled(seed)).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for producer in producers {
        for (i, version, prediction) in producer.join().unwrap() {
            let want = direct(&references[version as usize - 1], &xs[i]);
            assert_eq!(prediction, want, "version {version}, sample {i}");
        }
    }
    assert_eq!(runtime.client().predict("iris", &xs[0]).unwrap().version, 3);
}

#[test]
fn wire_predicts_are_answered_by_the_shard_with_complete_spans() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    let reference = compiled(7);
    let xs = samples(16);
    // Pipelined: every frame is sent before any response is read.
    let mut sent = HashMap::new();
    for x in &xs {
        sent.insert(wire.send_predict("iris", x).unwrap(), x.clone());
    }
    for _ in 0..xs.len() {
        let (id, response) = wire.recv_response().unwrap();
        let x = sent.remove(&id.expect("predicts echo their id")).unwrap();
        let want = direct(&reference, &x);
        let bits = |key: &str| -> Vec<u64> {
            response
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap().to_bits())
                .collect()
        };
        let want_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|p| p.to_bits()).collect() };
        assert_eq!(bits("probabilities"), want_bits(&want.probabilities));
        assert_eq!(bits("fidelities"), want_bits(&want.fidelities));
        assert_eq!(
            response.get("label").and_then(Json::as_u64),
            Some(want.label as u64)
        );
    }
    // The shard answers the ping after recording every span above: it
    // records a span right after the response's last byte is written.
    wire.ping().unwrap();
    let spans = runtime.client().traces(xs.len());
    assert_eq!(spans.len(), xs.len());
    for span in &spans {
        assert_inline_span(span);
        assert!(span.write_ns > 0, "the shard stamps the write: {span:?}");
    }
    // The `trace` op carries the stored fields and nothing else.
    let trace = wire.trace(xs.len()).unwrap();
    let wire_spans = trace.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(wire_spans.len(), xs.len());
    for span in wire_spans {
        let Json::Obj(fields) = span else {
            panic!("a span is an object: {span}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "trace_id",
                "encode_ns",
                "compute_ns",
                "write_ns",
                "total_ns"
            ]
        );
    }
    server.shutdown();
    let m = runtime.shutdown();
    let n = xs.len() as u64;
    assert_eq!((m.completed, m.latency.count()), (n, n));
}

#[test]
fn wire_answers_follow_hot_swaps_and_shadows_bit_for_bit() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    let xs = samples(6);
    let check = |wire: &mut WireClient, version: u64, reference: &CompiledModel| {
        for x in &xs {
            let got = wire.predict("iris", x).unwrap();
            let want = direct(reference, x);
            assert_eq!(got.version, version);
            assert_eq!(got.label, want.label);
            assert_eq!(got.probabilities, want.probabilities);
            assert_eq!(got.fidelities, want.fidelities);
        }
    };
    check(&mut wire, 1, &compiled(7));
    runtime.deploy("iris", compiled(8)).unwrap();
    check(&mut wire, 2, &compiled(8));
    // Entangled artifacts, analytic and exact SWAP test, run on the shard
    // too.
    runtime.deploy("iris", entangled(9)).unwrap();
    check(&mut wire, 3, &entangled(9));
    let exact = || {
        let estimator = FidelityEstimator::swap_test(Executor::ideal());
        artifact(QuClassiConfig::qc_sde(4, 3), estimator, 10)
    };
    runtime.deploy("iris", exact()).unwrap();
    check(&mut wire, 4, &exact());
    // The shard mirrors each answered predict onto the shadow; answers
    // still come from the live version, bit for bit.
    runtime.start_shadow("iris", compiled(9), 1.0, 1).unwrap();
    check(&mut wire, 4, &exact());
    server.shutdown();
    let m = runtime.shutdown();
    assert_eq!(
        m.shadow_requests, 6,
        "every shadowed wire predict was mirrored"
    );
}

#[test]
fn shutdown_racing_submitters_answers_and_counts_every_admitted_request() {
    for artifact in [compiled(7), entangled(7)] {
        let runtime =
            ServeRuntime::start(ServeConfig::default(), BatchExecutor::single_threaded(0)).unwrap();
        runtime.deploy("m", artifact).unwrap();
        let submitters: Vec<_> = (0..3)
            .map(|p| {
                let client = runtime.client();
                std::thread::spawn(move || {
                    let mut answered = 0u64;
                    for i in 0.. {
                        let x = [0.01 * ((p * 31 + i) % 97) as f64, 0.5, 0.25, 0.75];
                        match client.predict("m", &x) {
                            Ok(_) => answered += 1,
                            Err(ServeError::ShutDown) => break,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    (client, answered)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        let m = runtime.shutdown();
        assert_eq!(
            m.admitted,
            m.completed + m.failed,
            "every admitted request is answered before shutdown returns"
        );
        let mut answered = 0;
        for submitter in submitters {
            let (client, n) = submitter.join().unwrap();
            answered += n;
            assert!(matches!(
                client.predict("m", &[0.1; 4]),
                Err(ServeError::ShutDown)
            ));
        }
        assert_eq!(
            answered, m.completed,
            "every completed request reached its caller"
        );
    }
}
