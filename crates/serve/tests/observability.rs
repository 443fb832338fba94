//! End-to-end observability tests: the `trace` op must reconstruct a
//! complete stage timeline for pipelined requests on the
//! wire server, and the Prometheus-style `metrics_text` exposition must
//! agree with the JSON `metrics` op it rides alongside.

mod common;

use common::{compiled, started_runtime};
use quclassi_serve::json::Json;
use quclassi_serve::metrics::{Column, CACHE_COLUMNS, MODEL_COLUMNS, RUNTIME_COLUMNS};
use quclassi_serve::{ServeConfig, ServeRuntime, TraceSpan, WireClient, WireServer};
use quclassi_sim::batch::BatchExecutor;
use std::collections::HashMap;

/// A span decoded from the `trace` op's JSON.
fn span_from_json(span: &Json) -> (u64, TraceSpan) {
    let field = |name: &str| {
        span.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("span field {name} missing in {span}"))
    };
    let trace_id = field("trace_id");
    let span = TraceSpan {
        trace_id,
        encode_ns: field("encode_ns"),
        queue_wait_ns: field("queue_wait_ns"),
        assemble_ns: field("assemble_ns"),
        compute_ns: field("compute_ns"),
        write_ns: field("write_ns"),
        total_ns: field("total_ns"),
        batch_size: field("batch_size"),
    };
    (trace_id, span)
}

/// The stage partition must tile the end-to-end latency: every stage fits
/// inside the total, and the unattributed remainder (notifier hand-off,
/// admission stamping) is bounded — the timeline genuinely reconstructs
/// where the request's time went.
fn assert_timeline_reconstructs(span: &TraceSpan, requests: usize) {
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
    let spans: HashMap<u64, TraceSpan> = trace
        .get("spans")
        .and_then(Json::as_arr)
        .expect("trace response carries a span array")
        .iter()
        .map(span_from_json)
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
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    pipeline_and_trace(&mut wire, 16);
    server.shutdown();
    runtime.shutdown();
}

#[test]
fn in_process_requests_leave_spans_without_a_write_stage() {
    let runtime = started_runtime(ServeConfig::default());
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

/// The JSON value at a dotted key (`stages.encode`).
fn json_at<'a>(json: &'a Json, key: &str) -> &'a Json {
    key.split('.').fold(json, |at, part| {
        at.get(part)
            .unwrap_or_else(|| panic!("metrics JSON lacks {key}"))
    })
}

fn sample(samples: &HashMap<String, f64>, name: &str) -> f64 {
    *samples
        .get(name)
        .unwrap_or_else(|| panic!("exposition lacks {name}"))
}

/// Asserts that every column of a metrics table reads the same in the JSON
/// object and in the exposition samples carrying `label`: a counter or
/// gauge by value, a histogram by its count and its `+Inf` bucket.
fn assert_views_agree<T>(
    columns: &[Column<T>],
    json: &Json,
    samples: &HashMap<String, f64>,
    label: &str,
) {
    for column in columns {
        let name = column.name;
        let value = json_at(json, column.json);
        if column.kind != "histogram" {
            let series = format!("{name}{label}");
            assert_eq!(
                value.as_f64(),
                Some(sample(samples, &series)),
                "{} vs {series}",
                column.json
            );
            continue;
        }
        let count = value.get("count").and_then(Json::as_f64);
        let inf = match label {
            "" => "{le=\"+Inf\"}".to_string(),
            _ => format!("{}, le=\"+Inf\"}}", label.trim_end_matches('}')),
        };
        for series in [
            format!("{name}_count{label}"),
            format!("{name}_bucket{inf}"),
        ] {
            assert_eq!(
                count,
                Some(sample(samples, &series)),
                "{}.count vs {series}",
                column.json
            );
        }
    }
}

/// Asserts the JSON `models[]` entry of `model` and its `{model="…"}` text
/// series agree column by column, and returns the entry.
fn model_views_agree(json: &Json, samples: &HashMap<String, f64>, model: &str) -> Json {
    let entry = json
        .get("models")
        .and_then(Json::as_arr)
        .and_then(|models| {
            models
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(model))
        })
        .unwrap_or_else(|| panic!("metrics JSON has no models[] entry for {model}"))
        .clone();
    let label = format!("{{model=\"{model}\"}}");
    assert_views_agree(MODEL_COLUMNS, &entry, samples, &label);
    assert_views_agree(CACHE_COLUMNS, &entry, samples, &label);
    entry
}

#[test]
fn text_exposition_round_trips_against_the_json_metrics_op() {
    let runtime = started_runtime(ServeConfig::default());
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

    // Every runtime-wide series, by its JSON key against its exposition
    // sample.
    assert_views_agree(RUNTIME_COLUMNS, &json, &samples, "");
    let num = |key: &str| json_at(&json, key).as_f64().unwrap();
    assert!(num("admitted") >= 12.0);
    assert!(num("rejected") >= 1.0, "unknown model counted rejected");
    assert_eq!(num("in_flight"), 0.0);
    assert_eq!(num("wire_connections"), 1.0);
    assert_eq!(num("completed"), num("latency.count"));

    // Per-model and cache series carry the model name as a label.
    let model = model_views_agree(&json, &samples, "iris");
    assert_eq!(model.get("completed").and_then(Json::as_f64), Some(12.0));

    // Whether kernel profiling is live is itself exposed.
    assert!(samples.contains_key("quclassi_sim_profile_enabled"));

    server.shutdown();
    runtime.shutdown();
}

/// Asserts that both views of `"iris"` agree and report `version` with
/// `served` answered requests and `rejected` rejections.
fn expect_iris(wire: &mut WireClient, version: u64, served: f64, rejected: f64) {
    let samples = parse_exposition(&wire.metrics_text().unwrap());
    let entry = model_views_agree(&wire.metrics().unwrap(), &samples, "iris");
    for (column, want) in [
        ("version", version as f64),
        ("admitted", served),
        ("completed", served),
        ("failed", 0.0),
        ("rejected", rejected),
        ("latency.count", served),
    ] {
        assert_eq!(
            json_at(&entry, column).as_f64(),
            Some(want),
            "{column} of version {version}"
        );
    }
}

/// Checks that `version` starts from zero, then serves it `n` predicts
/// and one rejected request.
fn serve_version(wire: &mut WireClient, version: u64, n: usize) {
    expect_iris(wire, version, 0.0, 0.0);
    for i in 0..n {
        let x = [0.1 * i as f64, 0.3, 0.6, 0.2];
        assert_eq!(wire.predict("iris", &x).unwrap().version, version);
    }
    assert!(wire.predict("iris", &[0.1, 0.2]).is_err());
    expect_iris(wire, version, n as f64, 1.0);
}

#[test]
fn model_series_follow_the_active_version_across_hot_swap_and_rollback() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    serve_version(&mut wire, 1, 5);
    assert_eq!(runtime.deploy("iris", compiled(8)).unwrap(), 2);
    serve_version(&mut wire, 2, 3);
    assert_eq!(runtime.rollback("iris").unwrap(), 3);
    serve_version(&mut wire, 3, 2);
    server.shutdown();
    runtime.shutdown();
}
