//! Adversarial/slow-client tests for the TCP boundary: a real listener,
//! real sockets, and hostile peers. These are the regression tests for
//! the serve-layer robustness bugs:
//!
//! 1. a client that connects and never sends a length header used to pin
//!    its connection thread forever (no read deadline);
//! 2. the accept loop used to spawn handler threads without bound (no
//!    connection cap);
//! 3. a deeply nested JSON payload used to be limited only by the parser
//!    depth cap — pinned here end-to-end: the server answers with a
//!    client-error frame and keeps serving.

mod common;

use common::started_runtime;
use quclassi_serve::json::{Json, MAX_PARSE_DEPTH};
use quclassi_serve::wire::{read_frame, write_frame};
use quclassi_serve::{ServeConfig, WireClient, WireConfig, WireServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn slow_client_is_disconnected_by_the_read_deadline() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start_with(
        "127.0.0.1:0",
        runtime.client(),
        WireConfig {
            read_timeout: Some(Duration::from_millis(150)),
            write_timeout: Some(Duration::from_millis(150)),
            ..WireConfig::default()
        },
    )
    .unwrap();

    // A slowloris peer: sends half a length header, then goes silent.
    let mut slow = TcpStream::connect(server.local_addr()).unwrap();
    slow.write_all(&[0u8, 0]).unwrap();
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 16];
    // The server must close the connection once the read deadline fires —
    // observed here as EOF (Ok(0)) or a reset, well before our 5 s guard.
    let disconnected = match slow.read(&mut buf) {
        Ok(0) | Err(_) => true,
        Ok(_) => false,
    };
    assert!(disconnected, "server kept a silent connection alive");
    assert!(
        start.elapsed() < Duration::from_secs(4),
        "disconnect took {:?} — the deadline did not fire",
        start.elapsed()
    );

    // A well-behaved client on the same server still gets served.
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    wire.ping().unwrap();
    assert_eq!(
        wire.predict("iris", &[0.2, 0.4, 0.6, 0.8]).unwrap().model,
        "iris"
    );

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn connections_beyond_the_cap_get_a_retryable_saturated_error() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start_with(
        "127.0.0.1:0",
        runtime.client(),
        WireConfig {
            max_connections: 2,
            ..WireConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Fill the cap with two live connections (pinged so the handlers are
    // demonstrably running before the third connect).
    let mut first = WireClient::connect(addr).unwrap();
    first.ping().unwrap();
    let mut second = WireClient::connect(addr).unwrap();
    second.ping().unwrap();

    // The third connection is refused with a saturated error frame.
    let mut refused = TcpStream::connect(addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let frame = read_frame(&mut refused)
        .expect("refusal frame must arrive")
        .expect("refusal, not silent EOF");
    let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        response.get("kind").and_then(Json::as_str),
        Some("saturated"),
        "over-cap refusal must carry the retryable backpressure kind"
    );
    assert_eq!(response.get("capacity").and_then(Json::as_u64), Some(2));

    // The refusal is counted — and counted as *delivered*: the error
    // frame reached the peer, so the write-failure counter stays zero.
    // (Refusal-write failures used to be silently discarded; the unit
    // test in wire.rs pins the failing-write side of this counter.)
    let metrics = first.metrics().unwrap();
    assert!(
        metrics.get("wire_refusals").and_then(Json::as_u64).unwrap() >= 1,
        "over-cap refusals must be counted"
    );
    assert_eq!(
        metrics.get("refusal_write_failures").and_then(Json::as_u64),
        Some(0),
        "this refusal frame was delivered, not dropped"
    );

    // The capped connections are unaffected…
    first.ping().unwrap();
    second.ping().unwrap();

    // …and once one disconnects, a retry is admitted (the backpressure
    // contract: saturated means try again later, not never).
    drop(first);
    let start = Instant::now();
    let mut retried = loop {
        // The acceptor reaps finished handlers lazily (on the next
        // accept), so the first retry may still see the old count.
        if let Ok(mut wire) = WireClient::connect(addr) {
            if wire.ping().is_ok() {
                break wire;
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "retry after a slot freed was never admitted"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        retried
            .predict("iris", &[0.1, 0.3, 0.5, 0.7])
            .unwrap()
            .model,
        "iris"
    );

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn deeply_nested_payloads_get_an_error_frame_and_the_process_survives() {
    let runtime = started_runtime(ServeConfig::default());
    let server = WireServer::start("127.0.0.1:0", runtime.client()).unwrap();

    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A 200k-deep array bomb (400 KiB for the attacker, a would-be ~200k
    // recursion frames for the parser) and an object bomb.
    for bomb in [
        "[".repeat(200_000) + &"]".repeat(200_000),
        "{\"a\":".repeat(200_000) + "1" + &"}".repeat(200_000),
        // Nesting buried inside an otherwise valid predict request.
        format!(
            "{{\"op\":\"predict\",\"model\":\"iris\",\"features\":{}1{}}}",
            "[".repeat(MAX_PARSE_DEPTH + 10),
            "]".repeat(MAX_PARSE_DEPTH + 10)
        ),
    ] {
        write_frame(&mut stream, bomb.as_bytes()).unwrap();
        let frame = read_frame(&mut stream)
            .expect("server must answer, not die")
            .expect("error frame, not EOF");
        let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            response.get("kind").and_then(Json::as_str),
            Some("protocol"),
            "nesting bomb must be classified as a client error"
        );
    }

    // Same connection keeps working — framing never desynchronised…
    write_frame(&mut stream, b"{\"op\":\"ping\"}").unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));

    // …and so does the rest of the server.
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    assert_eq!(
        wire.predict("iris", &[0.9, 0.1, 0.2, 0.6]).unwrap().model,
        "iris"
    );

    server.shutdown();
    runtime.shutdown();
}

#[test]
fn wire_config_validation_and_defaults() {
    assert!(WireConfig::default().validate().is_ok());
    assert!(WireConfig {
        max_connections: 0,
        ..WireConfig::default()
    }
    .validate()
    .is_err());
    assert!(WireConfig {
        read_timeout: Some(Duration::ZERO),
        ..WireConfig::default()
    }
    .validate()
    .is_err());
    assert!(WireConfig {
        write_timeout: Some(Duration::ZERO),
        ..WireConfig::default()
    }
    .validate()
    .is_err());
    // Disabled deadlines are a legal (if trusting) configuration.
    assert!(WireConfig {
        read_timeout: None,
        write_timeout: None,
        ..WireConfig::default()
    }
    .validate()
    .is_ok());
}
