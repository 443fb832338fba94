//! Request-multiplexing tests for the event-loop wire server: many
//! pipelined requests per connection, responses paired with requests by
//! their echoed `"id"`, and frame assembly under hostile byte chunking.

mod common;

use common::started_runtime;
use quclassi_serve::json::Json;
use quclassi_serve::wire::write_frame;
use quclassi_serve::{ServeConfig, WireClient, WireServer};
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn pipelined_predictions_resolve_by_id_and_match_in_process_serving() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    let local = runtime.client();

    // Fire 16 predictions down one connection without reading anything.
    let xs: Vec<Vec<f64>> = (0..16)
        .map(|i| vec![0.06 * i as f64, 0.9 - 0.04 * i as f64, 0.33, 0.5])
        .collect();
    let mut expected = HashMap::new();
    for x in &xs {
        let id = wire.send_predict("iris", x).unwrap();
        expected.insert(id, x.clone());
    }

    // Collect 16 responses in whatever order they arrive; the id — not
    // the order — pairs each with its request.
    for _ in 0..xs.len() {
        let (id, response) = wire.recv_response().unwrap();
        let id = id.expect("predict responses echo their request id");
        let x = expected.remove(&id).expect("each id resolves exactly once");
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        let direct = local.predict("iris", &x).unwrap();
        assert_eq!(
            response.get("label").and_then(Json::as_u64),
            Some(direct.prediction.label as u64)
        );
        let remote_bits: Vec<u64> = response
            .get("probabilities")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|p| p.as_f64().unwrap().to_bits())
            .collect();
        let direct_bits: Vec<u64> = direct
            .prediction
            .probabilities
            .iter()
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(
            remote_bits, direct_bits,
            "multiplexed responses stay bit-identical"
        );
    }
    assert!(expected.is_empty());

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn errors_are_multiplexed_by_id_too() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();

    // One good predict, one unknown model, one bad dimension — pipelined.
    let good = wire.send_predict("iris", &[0.1, 0.2, 0.3, 0.4]).unwrap();
    let ghost = wire.send_predict("ghost", &[0.1, 0.2, 0.3, 0.4]).unwrap();
    let short = wire.send_predict("iris", &[0.1]).unwrap();

    let mut outcomes = HashMap::new();
    for _ in 0..3 {
        let (id, response) = wire.recv_response().unwrap();
        outcomes.insert(id.unwrap(), response);
    }
    assert_eq!(
        outcomes[&good].get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        outcomes[&ghost].get("kind").and_then(Json::as_str),
        Some("unknown_model")
    );
    assert_eq!(
        outcomes[&short].get("kind").and_then(Json::as_str),
        Some("bad_request")
    );
    // The connection survives all of it.
    wire.ping().unwrap();

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn frames_split_at_hostile_byte_boundaries_still_assemble() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // A ping delivered one byte per segment: the worst chunking TCP can
    // produce, including splits inside the 4-byte length header.
    let mut framed = Vec::new();
    write_frame(&mut framed, br#"{"op":"ping","id":1}"#).unwrap();
    for byte in &framed {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut reader = stream.try_clone().unwrap();
    let frame = quclassi_serve::wire::read_frame(&mut reader)
        .unwrap()
        .unwrap();
    let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(response.get("id").and_then(Json::as_u64), Some(1));

    // Two requests fused into one segment — the opposite failure mode —
    // plus a third split across the fused tail.
    let mut fused = Vec::new();
    write_frame(&mut fused, br#"{"op":"ping","id":2}"#).unwrap();
    write_frame(&mut fused, br#"{"op":"ping","id":3}"#).unwrap();
    let mut third = Vec::new();
    write_frame(&mut third, br#"{"op":"ping","id":4}"#).unwrap();
    fused.extend_from_slice(&third[..3]);
    stream.write_all(&fused).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(&third[3..]).unwrap();
    stream.flush().unwrap();
    for expected_id in [2u64, 3, 4] {
        let frame = quclassi_serve::wire::read_frame(&mut reader)
            .unwrap()
            .unwrap();
        let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(
            response.get("id").and_then(Json::as_u64),
            Some(expected_id),
            "fused/split frames must resolve in order"
        );
    }

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn trickled_oversize_claim_is_rejected_and_the_server_survives() {
    // End-to-end shape of the trickle attack: claim a frame over the
    // limit, never send it. The server must answer with a protocol error
    // (from the header alone) and close — without buffering the claim.
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let claim = ((16 * 1024 * 1024 + 1) as u32).to_be_bytes();
    stream.write_all(&claim).unwrap();
    let mut reader = stream.try_clone().unwrap();
    let frame = quclassi_serve::wire::read_frame(&mut reader)
        .expect("server answers the oversized claim")
        .expect("error frame, not silent EOF");
    let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("protocol")
    );
    // After the error frame the connection closes (framing is poisoned).
    assert!(quclassi_serve::wire::read_frame(&mut reader)
        .map(|f| f.is_none())
        .unwrap_or(true));

    // The rest of the server is untouched.
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    wire.ping().unwrap();

    server.shutdown();
    runtime.shutdown();
}
