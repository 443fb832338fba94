//! Connection-scale soak: thousands of simultaneously open, mostly idle
//! connections against the event-loop server. A thread per connection
//! could not run this shape (10k threads); the event loop holds the
//! sockets as epoll registrations and keeps serving live traffic around
//! them.
//!
//! The connection count is sized from the process's actual
//! `RLIMIT_NOFILE` budget (both socket ends live in this process), so the
//! test scales itself down on constrained CI instead of failing on
//! `EMFILE`.

use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::CompiledModel;
use quclassi_serve::json::Json;
use quclassi_serve::wire::{read_frame, write_frame};
use quclassi_serve::{ServeConfig, ServeRuntime, WireClient, WireConfig, WireServer};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn thousands_of_idle_connections_soak() {
    // Every connection costs two fds here (client end + server end), plus
    // headroom for the harness, runtime, epoll and eventfd descriptors.
    let budget = poll::raise_nofile_limit().unwrap_or(1024);
    let target = (budget.saturating_sub(256) / 2).min(10_000) as usize;
    if target < 100 {
        eprintln!("skipping soak: RLIMIT_NOFILE budget of {budget} is too small");
        return;
    }

    let mut rng = StdRng::seed_from_u64(7);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
    let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
    let runtime =
        ServeRuntime::start(ServeConfig::default(), BatchExecutor::single_threaded(0)).unwrap();
    runtime.deploy("iris", compiled).unwrap();

    let server = WireServer::start_with(
        "127.0.0.1:0",
        runtime.client(),
        WireConfig {
            max_connections: target + 16,
            // Idle is the point: no read deadline, or the herd would be
            // reaped mid-test.
            read_timeout: None,
            write_timeout: Some(Duration::from_secs(30)),
            shards: 2,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Open the herd. Each socket is accepted, capped, dealt to a shard,
    // and registered — then sits idle.
    let mut herd: Vec<TcpStream> = Vec::with_capacity(target);
    for i in 0..target {
        match TcpStream::connect(addr) {
            Ok(stream) => herd.push(stream),
            Err(e) => panic!("connect {i}/{target} failed: {e}"),
        }
    }

    // Live traffic still flows around the idle herd.
    let mut wire = WireClient::connect(addr).unwrap();
    wire.ping().unwrap();
    let prediction = wire.predict("iris", &[0.2, 0.4, 0.6, 0.8]).unwrap();
    assert_eq!(prediction.model, "iris");

    // A sample of the herd wakes up and gets served — the registrations
    // are live connections, not just accepted-and-forgotten sockets.
    let stride = (target / 64).max(1);
    let mut sampled = 0;
    for i in (0..herd.len()).step_by(stride) {
        let stream = &mut herd[i];
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write_frame(stream, br#"{"op":"ping","id":1}"#).unwrap();
        let frame = read_frame(stream).unwrap().expect("idle conn still served");
        let response = Json::parse(std::str::from_utf8(&frame).unwrap()).unwrap();
        assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
        sampled += 1;
    }
    assert!(sampled >= 32, "sampled only {sampled} of the herd");

    // Hang-ups release their slots: close half the herd, then the cap
    // still admits a newcomer (the count is decremented on close).
    herd.truncate(target / 2);
    let mut late = WireClient::connect(addr).unwrap();
    late.ping().unwrap();

    drop(herd);
    server.shutdown();
    runtime.shutdown();
}
