//! End-to-end observability tests: the `trace` op must reconstruct a
//! complete stage timeline for pipelined (out-of-order) requests on the
//! wire server, and the Prometheus-style `metrics_text` exposition must
//! agree with the JSON `metrics` op it rides alongside.

use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::CompiledModel;
use quclassi_serve::json::Json;
use quclassi_serve::{ServeConfig, ServeRuntime, WireClient, WireServer};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn compiled(seed: u64) -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 3), &mut rng).unwrap();
    CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap()
}

fn started_runtime() -> ServeRuntime {
    let runtime =
        ServeRuntime::start(ServeConfig::default(), BatchExecutor::single_threaded(0)).unwrap();
    runtime.deploy("iris", compiled(7)).unwrap();
    runtime
}

/// A span decoded from the `trace` op's JSON.
#[derive(Debug)]
struct Span {
    encode_ns: u64,
    queue_wait_ns: u64,
    assemble_ns: u64,
    compute_ns: u64,
    write_ns: u64,
    total_ns: u64,
    batch_size: u64,
}

impl Span {
    fn from_json(span: &Json) -> (u64, Span) {
        let field = |name: &str| {
            span.get(name)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("span field {name} missing in {span}"))
        };
        (
            field("trace_id"),
            Span {
                encode_ns: field("encode_ns"),
                queue_wait_ns: field("queue_wait_ns"),
                assemble_ns: field("assemble_ns"),
                compute_ns: field("compute_ns"),
                write_ns: field("write_ns"),
                total_ns: field("total_ns"),
                batch_size: field("batch_size"),
            },
        )
    }

    fn stage_sum_ns(&self) -> u64 {
        self.encode_ns + self.queue_wait_ns + self.assemble_ns + self.compute_ns + self.write_ns
    }
}

/// The stage partition must tile the end-to-end latency: every stage fits
/// inside the total, and the unattributed remainder (notifier hand-off,
/// admission stamping) is bounded — the timeline genuinely reconstructs
/// where the request's time went.
fn assert_timeline_reconstructs(span: &Span, requests: usize) {
    assert!(span.total_ns > 0, "a served request took nonzero time");
    assert!(
        span.stage_sum_ns() <= span.total_ns,
        "stages are disjoint sub-intervals of the lifecycle: {span:?}"
    );
    let unattributed = span.total_ns - span.stage_sum_ns();
    assert!(
        unattributed < 250_000_000,
        "stage sum accounts for the end-to-end latency up to hand-off \
         slack: {unattributed} ns unattributed in {span:?}"
    );
    assert!(
        span.write_ns > 0,
        "wire-managed spans stamp the write stage: {span:?}"
    );
    assert!(
        span.batch_size >= 1 && span.batch_size <= requests as u64,
        "batch size is the request's actual group size: {span:?}"
    );
}

fn pipeline_and_trace(wire: &mut WireClient, requests: usize) {
    // Fire every prediction before reading anything: responses may
    // complete out of request order (the id pairs them back up), and the
    // trace ring must still hold one complete lifecycle per request.
    let xs: Vec<Vec<f64>> = (0..requests)
        .map(|i| vec![0.05 * i as f64, 0.9 - 0.03 * i as f64, 0.4, 0.6])
        .collect();
    let mut ids = Vec::new();
    for x in &xs {
        ids.push(wire.send_predict("iris", x).unwrap());
    }
    for _ in 0..requests {
        let (id, response) = wire.recv_response().unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        assert!(ids.contains(&id.expect("predict responses echo their id")));
    }

    // All responses are on the wire, so (same-connection ordering) every
    // span is recorded before the trace op is interpreted.
    let trace = wire.trace(requests).unwrap();
    assert!(trace.get("capacity").and_then(Json::as_u64).unwrap() >= requests as u64);
    assert!(trace.get("recorded").and_then(Json::as_u64).unwrap() >= requests as u64);
    let spans: HashMap<u64, Span> = trace
        .get("spans")
        .and_then(Json::as_arr)
        .expect("trace response carries a span array")
        .iter()
        .map(Span::from_json)
        .collect();
    for id in &ids {
        let span = spans
            .get(id)
            .unwrap_or_else(|| panic!("request {id} left a span in the ring"));
        assert_timeline_reconstructs(span, requests);
    }
}

#[test]
fn trace_op_reconstructs_stage_timelines_on_the_event_loop_server() {
    let runtime = started_runtime();
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    pipeline_and_trace(&mut wire, 16);
    server.shutdown();
    runtime.shutdown();
}

#[test]
fn in_process_requests_leave_spans_without_a_write_stage() {
    let runtime = started_runtime();
    let client = runtime.client();
    for i in 0..8 {
        client
            .predict("iris", &[0.1 * i as f64, 0.5, 0.3, 0.7])
            .unwrap();
    }
    assert_eq!(client.traces_recorded(), 8);
    let spans = client.traces(8);
    assert_eq!(spans.len(), 8);
    for span in &spans {
        assert_eq!(span.write_ns, 0, "no wire write for in-process requests");
        assert!(span.total_ns > 0);
        assert!(span.stage_sum_ns() <= span.total_ns);
        assert!(span.batch_size >= 1);
    }
    runtime.shutdown();
}

#[test]
fn a_zero_capacity_ring_disables_tracing_without_disabling_serving() {
    let runtime = ServeRuntime::start(
        ServeConfig {
            trace_capacity: 0,
            ..ServeConfig::default()
        },
        BatchExecutor::single_threaded(0),
    )
    .unwrap();
    runtime.deploy("iris", compiled(7)).unwrap();
    let client = runtime.client();
    client.predict("iris", &[0.1, 0.2, 0.3, 0.4]).unwrap();
    assert_eq!(client.trace_capacity(), 0);
    assert_eq!(client.traces_recorded(), 0);
    assert!(client.traces(4).is_empty());
    runtime.shutdown();
}

/// Parses a text exposition into `name{labels} -> value`, skipping
/// comment lines.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut samples = HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed exposition line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable sample value in line: {line:?}"));
        samples.insert(name.to_string(), value);
    }
    samples
}

#[test]
fn text_exposition_round_trips_against_the_json_metrics_op() {
    let runtime = started_runtime();
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();

    // Drive some traffic (including a failure) so the counters are
    // nonzero, then drain it completely: with nothing in flight the two
    // snapshots below observe identical values.
    for i in 0..12 {
        let x = [0.08 * i as f64, 0.4, 0.5, 0.2];
        assert!(!wire.predict("iris", &x).unwrap().probabilities.is_empty());
    }
    assert!(wire.predict("no-such-model", &[0.0; 4]).is_err());

    let json = wire.metrics().unwrap();
    let samples = parse_exposition(&wire.metrics_text().unwrap());

    let json_num = |name: &str| {
        json.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("metrics JSON lacks {name}"))
    };
    let sample = |name: &str| {
        *samples
            .get(name)
            .unwrap_or_else(|| panic!("exposition lacks {name}"))
    };

    // Every serve/online/wire counter the JSON op reports must appear in
    // the exposition with the same value.
    let counter_pairs = [
        ("admitted", "quclassi_serve_admitted_total"),
        ("rejected", "quclassi_serve_rejected_total"),
        ("completed", "quclassi_serve_completed_total"),
        ("failed", "quclassi_serve_failed_total"),
        ("batches", "quclassi_serve_batches_total"),
        ("flush_on_size", "quclassi_serve_flush_size_total"),
        ("flush_on_deadline", "quclassi_serve_flush_deadline_total"),
        ("flush_on_close", "quclassi_serve_flush_close_total"),
        ("wire_refusals", "quclassi_wire_refusals_total"),
        (
            "refusal_write_failures",
            "quclassi_wire_refusal_write_failures_total",
        ),
        ("promotions", "quclassi_online_promotions_total"),
        ("rollbacks", "quclassi_online_rollbacks_total"),
        (
            "candidates_rejected",
            "quclassi_online_candidates_rejected_total",
        ),
        ("train_cycles", "quclassi_online_train_cycles_total"),
        ("learner_panics", "quclassi_online_learner_panics_total"),
        ("shadow_batches", "quclassi_online_shadow_batches_total"),
        ("shadow_requests", "quclassi_online_shadow_requests_total"),
        ("queue_depth", "quclassi_serve_queue_depth"),
        ("in_flight", "quclassi_serve_in_flight"),
    ];
    for (json_name, text_name) in counter_pairs {
        assert_eq!(
            json_num(json_name),
            sample(text_name),
            "{json_name} and {text_name} must agree"
        );
    }
    assert!(json_num("admitted") >= 12.0);
    assert!(
        json_num("rejected") >= 1.0,
        "unknown model counted rejected"
    );
    assert_eq!(json_num("in_flight"), 0.0);

    // Histogram families expose a count that matches the JSON stage
    // breakdown, plus +Inf buckets that equal it.
    let stages = json.get("stages").expect("metrics JSON has a stage map");
    for stage in ["encode", "queue_wait", "assemble", "compute", "write"] {
        let json_count = stages
            .get(stage)
            .and_then(|s| s.get("count"))
            .and_then(Json::as_f64)
            .unwrap();
        let family = format!("quclassi_serve_stage_{stage}_ns");
        assert_eq!(json_count, sample(&format!("{family}_count")));
        assert_eq!(
            json_count,
            sample(&format!("{family}_bucket{{le=\"+Inf\"}}"))
        );
    }
    assert_eq!(
        json_num("completed"),
        sample("quclassi_serve_latency_ns_count")
    );

    // Per-model and cache series carry the model name as a label.
    let model = json
        .get("models")
        .and_then(Json::as_arr)
        .and_then(|models| models.first())
        .expect("one deployed model");
    assert_eq!(
        model.get("completed").and_then(Json::as_f64).unwrap(),
        sample("quclassi_model_completed_total{model=\"iris\"}")
    );
    assert_eq!(
        model.get("cache_entries").and_then(Json::as_f64).unwrap(),
        sample("quclassi_cache_entries{model=\"iris\"}")
    );
    assert_eq!(
        model.get("cache_evictions").and_then(Json::as_f64).unwrap(),
        sample("quclassi_cache_evictions_total{model=\"iris\"}")
    );

    // Whether kernel profiling is live is itself exposed.
    assert!(samples.contains_key("quclassi_sim_profile_enabled"));

    server.shutdown();
    runtime.shutdown();
}
