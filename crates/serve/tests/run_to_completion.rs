//! Run-to-completion serving: under a zero batch window, a product-state
//! artifact with no shadow is answered on the admitting thread — the
//! in-process caller or the wire shard — and never visits the queue.
//! These tests pin what that path must keep from the scheduler path
//! (bit-identical answers, version pinning across hot-swap, complete trace
//! spans, flush accounting, lossless shutdown) and which deployments must
//! stay on the scheduler (shadowed, entangled, nonzero window).

mod common;

use common::{compiled, started_runtime};
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_serve::json::Json;
use quclassi_serve::{
    CompletionNotifier, ServeConfig, ServeError, ServeRuntime, TraceSpan, WireClient, WireServer,
};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn zero_window() -> ServeConfig {
    ServeConfig {
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    }
}

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

/// An entangled (QC-SDE) analytic artifact: scored by the GEMM path, not
/// as product states.
fn entangled(seed: u64) -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(4, 3), &mut rng).unwrap();
    CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap()
}

fn assert_inline_span(span: &TraceSpan) {
    assert_eq!(span.queue_wait_ns, 0, "no queue on this path: {span:?}");
    assert_eq!(span.assemble_ns, 0, "no batch assembly: {span:?}");
    assert!(span.compute_ns > 0, "the model ran: {span:?}");
    assert_eq!(span.batch_size, 1, "a flush of one: {span:?}");
    assert!(span.stage_sum_ns() <= span.total_ns, "{span:?}");
}

#[test]
fn in_process_answers_are_ready_at_submit_and_bit_identical() {
    let runtime = started_runtime(zero_window());
    let client = runtime.client();
    let reference = compiled(7);
    let xs = samples(12);
    for x in &xs {
        let pending = client.submit("iris", x).unwrap();
        assert!(pending.is_ready(), "answered before submit returned");
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
    assert_eq!((m.batches, m.batched_requests), (n, n));
    assert_eq!(m.flush_on_deadline, n, "a zero window has always expired");
    assert_eq!(m.peak_queue_depth, 0, "nothing was queued");
    assert_eq!(m.in_flight, 0);
    assert_eq!(m.stage_queue_wait.count(), n);
    assert_eq!(m.stage_compute.count(), n);
    assert_eq!(m.latency.count(), n);
}

#[test]
fn notifier_fires_once_after_the_inline_answer_is_published() {
    let runtime = started_runtime(zero_window());
    let client = runtime.client();
    let fired = Arc::new(AtomicU64::new(0));
    let notifier: CompletionNotifier = {
        let fired = Arc::clone(&fired);
        Arc::new(move || {
            fired.fetch_add(1, Ordering::Relaxed);
        })
    };
    let pending = client
        .submit_with_notifier("iris", &[0.2, 0.4, 0.6, 0.8], notifier)
        .unwrap();
    assert_eq!(fired.load(Ordering::Relaxed), 1);
    let answer = pending.take_if_ready().expect("published before notifying");
    assert_eq!(
        answer.unwrap().prediction,
        direct(&compiled(7), &[0.2, 0.4, 0.6, 0.8])
    );
    runtime.shutdown();
}

#[test]
fn hot_swap_under_load_pins_each_request_to_its_admitting_version() {
    let runtime = Arc::new(started_runtime(zero_window()));
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
    let runtime = started_runtime(zero_window());
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
    server.shutdown();
    let m = runtime.shutdown();
    let n = xs.len() as u64;
    assert_eq!((m.completed, m.batches, m.batched_requests), (n, n, n));
    assert_eq!(m.peak_queue_depth, 0, "the shard never queued a predict");
}

#[test]
fn wire_answers_follow_hot_swaps_and_shadows_bit_for_bit() {
    let runtime = started_runtime(zero_window());
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
    // A shadow moves the model back onto the scheduler; answers still
    // come from the live version, bit for bit.
    runtime.start_shadow("iris", compiled(9), 1.0, 1).unwrap();
    check(&mut wire, 2, &compiled(8));
    server.shutdown();
    let m = runtime.shutdown();
    assert!(m.shadow_requests > 0, "wire traffic was mirrored");
    assert!(m.peak_queue_depth >= 1, "shadowed predicts were queued");
}

#[test]
fn a_shadowed_model_stays_on_the_scheduler_and_still_mirrors() {
    let runtime = started_runtime(zero_window());
    runtime.start_shadow("iris", compiled(8), 1.0, 1).unwrap();
    let client = runtime.client();
    let reference = compiled(7);
    for x in &samples(16) {
        assert_eq!(
            client.predict("iris", x).unwrap().prediction,
            direct(&reference, x)
        );
    }
    let m = runtime.shutdown();
    assert!(m.peak_queue_depth >= 1, "shadowed requests are queued");
    assert!(m.shadow_requests > 0, "the shadow saw mirrored traffic");
}

#[test]
fn entangled_or_windowed_deployments_stay_on_the_scheduler() {
    let windowed = ServeConfig {
        batch_window: Duration::from_micros(50),
        ..ServeConfig::default()
    };
    for (config, artifact, reference) in [
        (zero_window(), entangled(7), entangled(7)),
        (windowed, compiled(7), compiled(7)),
    ] {
        let runtime = ServeRuntime::start(config, BatchExecutor::single_threaded(0)).unwrap();
        runtime.deploy("m", artifact).unwrap();
        let client = runtime.client();
        for x in &samples(8) {
            assert_eq!(
                client.predict("m", x).unwrap().prediction,
                direct(&reference, x)
            );
        }
        let m = runtime.shutdown();
        assert!(m.peak_queue_depth >= 1, "requests went through the queue");
        assert_eq!(m.completed, 8);
    }
}

#[test]
fn shutdown_racing_submitters_answers_and_counts_every_admitted_request() {
    for (artifact, config) in [(compiled(7), zero_window()), (entangled(7), zero_window())] {
        let runtime = ServeRuntime::start(config, BatchExecutor::single_threaded(0)).unwrap();
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
