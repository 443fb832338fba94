//! End-to-end wire-protocol tests: a real `TcpListener` on loopback, a
//! real runtime behind it, and byte-level assertions that remote serving
//! is indistinguishable from in-process serving.

mod common;

use common::{compiled, started_runtime};
use quclassi_serve::json::Json;
use quclassi_serve::{ServeConfig, WireClient, WireServer};

#[test]
fn wire_predictions_are_bit_identical_to_in_process_serving() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    let local = runtime.client();

    let xs: Vec<Vec<f64>> = (0..5)
        .map(|i| vec![0.12 * i as f64, 0.8, 0.33, 1.0 - 0.11 * i as f64])
        .collect();
    for x in &xs {
        let remote = wire.predict("iris", x).unwrap();
        let direct = local.predict("iris", x).unwrap();
        assert_eq!(remote.label, direct.prediction.label);
        assert_eq!(remote.version, direct.version);
        // Shortest-round-trip float formatting ⇒ the *bits* survive TCP.
        let remote_bits: Vec<u64> = remote.probabilities.iter().map(|p| p.to_bits()).collect();
        let direct_bits: Vec<u64> = direct
            .prediction
            .probabilities
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(remote_bits, direct_bits);
        let remote_fid: Vec<u64> = remote.fidelities.iter().map(|p| p.to_bits()).collect();
        let direct_fid: Vec<u64> = direct
            .prediction
            .fidelities
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(remote_fid, direct_fid);
    }

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn wire_errors_carry_stable_kinds() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();

    // Unknown model.
    let err = wire.predict("ghost", &[0.1; 4]).unwrap_err();
    assert_eq!(err.kind(), "unknown_model");

    // Bad input dimension: a client error, reported as such.
    let response = wire
        .call(&Json::obj(vec![
            ("op", Json::str("predict")),
            ("model", Json::str("iris")),
            ("features", Json::nums(&[0.1, 0.2])),
        ]))
        .unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("bad_request")
    );

    // Protocol violations (bad ops, malformed shapes) keep the connection
    // alive and report kind "protocol".
    for bad in [
        Json::obj(vec![("op", Json::str("teleport"))]),
        Json::obj(vec![("not_op", Json::Bool(true))]),
        Json::obj(vec![
            ("op", Json::str("predict")),
            ("model", Json::str("iris")),
        ]),
        Json::obj(vec![
            ("op", Json::str("predict")),
            ("model", Json::str("iris")),
            ("features", Json::Arr(vec![Json::str("NaN")])),
        ]),
    ] {
        let response = wire.call(&bad).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("kind").and_then(Json::as_str),
            Some("protocol"),
            "for {bad}"
        );
    }
    // …and the connection still works afterwards.
    wire.ping().unwrap();

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn wire_exposes_models_and_metrics() {
    let runtime = started_runtime(ServeConfig::default());
    runtime.deploy("mnist", compiled(9)).unwrap();
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();

    wire.ping().unwrap();
    let response = wire
        .call(&Json::obj(vec![("op", Json::str("models"))]))
        .unwrap();
    let models = response.get("models").unwrap().as_arr().unwrap();
    let names: Vec<&str> = models
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(names, vec!["iris", "mnist"]);

    for i in 0..4 {
        wire.predict("iris", &[0.2, 0.4, 0.6, 0.1 * i as f64])
            .unwrap();
    }
    let metrics = wire.metrics().unwrap();
    assert_eq!(metrics.get("completed").and_then(Json::as_u64), Some(4));
    assert!(
        metrics
            .get("throughput_rps")
            .and_then(Json::as_f64)
            .unwrap()
            > 0.0
    );
    assert!(metrics.get("p50_us").and_then(Json::as_f64).unwrap() > 0.0);
    // The online-learning counters ride along on the same op: two deploys
    // count as promotions, nothing has been rejected or rolled back yet.
    assert_eq!(metrics.get("promotions").and_then(Json::as_u64), Some(2));
    for quiet in [
        "rollbacks",
        "candidates_rejected",
        "train_cycles",
        "learner_panics",
        "shadow_batches",
        "shadow_requests",
    ] {
        assert_eq!(
            metrics.get(quiet).and_then(Json::as_u64),
            Some(0),
            "{quiet} should start at zero"
        );
    }
    let per_model = metrics.get("models").unwrap().as_arr().unwrap();
    assert_eq!(per_model.len(), 2);
    assert_eq!(
        per_model[0].get("completed").and_then(Json::as_u64),
        Some(4),
        "iris served all four"
    );

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn concurrent_wire_connections_are_served_independently() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut wire = WireClient::connect(addr).unwrap();
                let mut labels = Vec::new();
                for i in 0..10 {
                    let x = vec![0.05 * t as f64, 0.5, 0.09 * i as f64, 0.7];
                    labels.push(wire.predict("iris", &x).unwrap().label);
                }
                labels
            })
        })
        .collect();
    for handle in handles {
        let labels = handle.join().unwrap();
        assert_eq!(labels.len(), 10);
    }
    let metrics = runtime.metrics();
    assert_eq!(metrics.completed, 40);

    server.shutdown();
    runtime.shutdown();
}
