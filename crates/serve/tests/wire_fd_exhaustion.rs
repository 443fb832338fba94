//! File-descriptor behaviour of the wire server at the edge of the
//! process's `RLIMIT_NOFILE` budget.
//!
//! Two properties are pinned here, both first broken and found by the
//! 10k-connection bench cell:
//!
//! 1. **no fd amplification** — every accepted connection costs the
//!    server exactly one descriptor (a `try_clone` per socket would
//!    double the cost and halve the connection count the budget allows).
//! 2. **no accept livelock on `EMFILE`** — with descriptors exhausted,
//!    `accept` fails but the pending connection keeps the listener
//!    readable, so a level-triggered poll re-reports it instantly and an
//!    accept loop without backoff spins at 100% CPU (starving every
//!    established connection on small machines) until fds free. The
//!    server backs off briefly after a persistent accept failure and
//!    recovers as soon as descriptors free up.
//!
//! Everything here is Linux-specific by construction (the poll shim, the
//! `/proc/self` introspection, `EMFILE` provocation via `setrlimit`).

#![cfg(target_os = "linux")]

use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::CompiledModel;
use quclassi_serve::json::Json;
use quclassi_serve::wire::{read_frame, write_frame};
use quclassi_serve::{ServeConfig, ServeRuntime, WireConfig, WireServer};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::Duration;

/// Open descriptors of this process right now (the transient fd used to
/// read the directory is included in the listing, so this overcounts the
/// steady state by exactly one — fine for deltas).
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd readable")
        .count()
}

/// This process's cumulative CPU time (user + system, all threads). Reads
/// through a pre-opened handle because it is called while the process is
/// deliberately out of descriptors.
fn process_cpu(stat_file: &mut std::fs::File) -> Duration {
    use std::io::{Read, Seek, SeekFrom};
    stat_file.seek(SeekFrom::Start(0)).expect("stat seekable");
    let mut stat = String::new();
    stat_file
        .read_to_string(&mut stat)
        .expect("/proc/self/stat readable");
    // Fields 14/15 (utime/stime) counted after the parenthesised comm,
    // which may itself contain spaces.
    let after_comm = &stat[stat.rfind(')').expect("comm closes") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let utime: u64 = fields[11].parse().expect("utime parses");
    let stime: u64 = fields[12].parse().expect("stime parses");
    let tick = Duration::from_secs(1) / 100; // USER_HZ is 100 on Linux
    tick * (utime + stime) as u32
}

fn ping(stream: &mut TcpStream) {
    let request = Json::obj(vec![("op", Json::str("ping"))]);
    write_frame(stream, request.to_string().as_bytes()).expect("ping write");
    let payload = read_frame(stream)
        .expect("ping read")
        .expect("connection open");
    let response = Json::parse(std::str::from_utf8(&payload).expect("utf8")).expect("json");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
}

/// The EMFILE provocation: establish a probe,
/// exhaust descriptors, connect a client the server cannot accept, prove
/// the accept loop idles instead of spinning, then free descriptors and
/// prove the starved connection is adopted and served.
fn emfile_dance(addr: std::net::SocketAddr) {
    let mut probe = TcpStream::connect(addr).expect("probe connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    ping(&mut probe);

    // Leave exactly one spare descriptor: enough for the next client
    // socket, nothing left for the server to accept it with. The CPU
    // census handle is opened first — once exhausted, even /proc reads
    // would fail.
    let mut stat_file = std::fs::File::open("/proc/self/stat").expect("stat opens");
    let used = fd_count();
    poll::set_nofile_limit(used as u64).expect("lower soft limit");
    let mut starved = TcpStream::connect(addr).expect("kernel-level connect via backlog");
    starved
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // The connection is established in the kernel but the server's
    // accept now fails with EMFILE. A spinning accept loop would burn
    // ~100% of a core here; the backoff path burns (almost) none.
    let cpu_before = process_cpu(&mut stat_file);
    std::thread::sleep(Duration::from_millis(400));
    let spent = process_cpu(&mut stat_file) - cpu_before;
    assert!(
        spent < Duration::from_millis(200),
        "accept loop burned {spent:?} of CPU over 400ms of fd exhaustion \
         (EMFILE livelock)"
    );

    // Descriptors free up → the very next accept pass must adopt the
    // starved connection and serve it.
    poll::raise_nofile_limit().expect("restore budget");
    ping(&mut starved);
    ping(&mut probe);
}

/// One test, not several: every section manipulates process-global state
/// (`RLIMIT_NOFILE`, `/proc/self/fd` census) that parallel test threads
/// would corrupt.
#[test]
fn one_descriptor_per_connection_and_no_accept_livelock() {
    poll::raise_nofile_limit().expect("rlimit adjustable");
    let mut rng = StdRng::seed_from_u64(11);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
    let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
    let runtime =
        ServeRuntime::start(ServeConfig::default(), BatchExecutor::single_threaded(0)).unwrap();
    runtime.deploy("iris", compiled).unwrap();
    let config = WireConfig {
        max_connections: 256,
        read_timeout: None,
        write_timeout: Some(Duration::from_secs(10)),
        shards: 1,
    };
    let server = WireServer::start_with("127.0.0.1:0", runtime.client(), config).unwrap();
    let addr = server.local_addr();

    // ---- Section 1: one server-side descriptor per connection. ----
    let before = fd_count();
    let mut herd: Vec<TcpStream> = Vec::new();
    for _ in 0..100 {
        herd.push(TcpStream::connect(addr).expect("connect"));
    }
    // A ping round-trip per socket proves each one is fully accepted and
    // has been adopted by a shard, so every descriptor the server will
    // ever hold for the herd exists before the census.
    for stream in &mut herd {
        ping(stream);
    }
    let delta = fd_count() - before;
    // 100 client ends + 100 server ends = 200. A try_clone per accepted
    // socket would hold 300; leave slack for harness noise but stay well
    // under it.
    assert!(
        delta <= 240,
        "100 connections grew the fd table by {delta} \
         (> 2 per connection: server-side descriptor amplification)"
    );

    // ---- Section 2: EMFILE must not livelock the acceptor. ----
    emfile_dance(addr);
    drop(herd);
    server.shutdown();
    runtime.shutdown();
}
