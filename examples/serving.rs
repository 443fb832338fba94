//! The serving runtime end to end: start `quclassi-serve`, deploy a
//! model, serve concurrent traffic, hot-swap a better version with zero
//! downtime, talk to the same runtime over the TCP wire protocol, and
//! read the metrics.
//!
//! ```text
//! cargo run --release -p quclassi-examples --example serving
//! ```

use quclassi::prelude::*;
use quclassi_datasets::iris;
use quclassi_datasets::preprocess::normalize_split;
use quclassi_examples::percent;
use quclassi_infer::CompiledModel;
use quclassi_serve::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn train_iris(epochs: usize, rng: &mut StdRng) -> (CompiledModel, Vec<Vec<f64>>, Vec<usize>) {
    let dataset = iris::load();
    let (train_raw, test_raw) = dataset.stratified_split(0.7, rng);
    let (train, test) = normalize_split(&train_raw, &test_raw);
    let mut model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(4, 3), rng).unwrap();
    Trainer::new(
        TrainingConfig {
            epochs,
            learning_rate: 0.05,
            ..Default::default()
        },
        FidelityEstimator::analytic(),
    )
    .fit(&mut model, &train.features, &train.labels, rng)
    .expect("training succeeds");
    let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
    (compiled, test.features, test.labels)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. Start the runtime: an admission gate capping the requests in
    //    flight (QUCLASSI_QUEUE_CAPACITY when set), and a thread pool sized
    //    from the environment. Every request runs to completion on the
    //    thread that submits it; the pool only serves artifacts that
    //    simulate noisy circuits.
    let config = ServeConfig::from_env().expect("valid serve configuration");
    let executor = BatchExecutor::from_env(0).expect("invalid QUCLASSI_THREADS");
    println!(
        "starting runtime: capacity={}, {} executor thread(s)",
        config.queue_capacity,
        executor.threads()
    );
    let runtime = ServeRuntime::start(config, executor).unwrap();

    // 2. Deploy v1: a barely trained model (5 epochs).
    let (v1, test_x, test_y) = train_iris(5, &mut rng);
    let version = runtime.deploy("iris", v1).unwrap();
    println!("deployed iris v{version}");

    // 3. Serve concurrent traffic through in-process clients.
    let serve_all = |tag: &str| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let client = runtime.client();
                let xs = test_x.clone();
                let ys = test_y.clone();
                std::thread::spawn(move || {
                    let mut correct = 0usize;
                    for (x, &y) in xs.iter().zip(ys.iter()).skip(t).step_by(4) {
                        let reply = client.predict("iris", x).unwrap();
                        if reply.prediction.label == y {
                            correct += 1;
                        }
                    }
                    correct
                })
            })
            .collect();
        let correct: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        println!(
            "{tag}: test accuracy {} over {} concurrent requests",
            percent(correct as f64 / test_x.len() as f64),
            test_x.len()
        );
    };
    serve_all("v1 (5 epochs)");

    // 4. Hot-swap to v2 (25 epochs) with zero downtime: the new artifact
    //    is warmed before the atomic switch; in-flight v1 requests drain
    //    on v1.
    let (v2, _, _) = train_iris(25, &mut rng);
    let version = runtime.deploy("iris", v2).unwrap();
    println!("hot-swapped to iris v{version} (warm → atomic switch → drain old)");
    serve_all("v2 (25 epochs)");

    // 5. The same runtime over TCP: length-prefixed JSON on loopback,
    //    with the hardening knobs (connection cap, socket deadlines) read
    //    from QUCLASSI_MAX_CONNECTIONS / QUCLASSI_WIRE_TIMEOUT_MS — a
    //    malformed value fails startup here, never a silent default.
    let wire_config = WireConfig::from_env().expect("valid wire configuration");
    let server = WireServer::start_with("127.0.0.1:0", runtime.client(), wire_config).unwrap();
    let mut wire = WireClient::connect(server.local_addr()).unwrap();
    wire.ping().unwrap();
    let remote = wire.predict("iris", &test_x[0]).unwrap();
    println!(
        "wire predict @ {}: label {} from v{} (confidence via probabilities: {})",
        server.local_addr(),
        remote.label,
        remote.version,
        percent(remote.probabilities[remote.label])
    );

    // 5b. Request multiplexing: pipeline several predictions on the one
    //     connection without reading a response in between. Every request
    //     carries an auto-assigned `id` echoed verbatim on its response,
    //     which pairs it with its request.
    let mut pending = std::collections::BTreeSet::new();
    for x in test_x.iter().take(4) {
        pending.insert(wire.send_predict("iris", x).unwrap());
    }
    while !pending.is_empty() {
        let (id, response) = wire.recv_response().unwrap();
        let id = id.expect("id-tagged request gets an id-tagged response");
        assert!(pending.remove(&id), "response carries an unknown id");
        assert_eq!(
            response
                .get("ok")
                .and_then(quclassi_serve::json::Json::as_bool),
            Some(true)
        );
    }
    println!("pipelined 4 id-tagged predictions on one connection");
    server.shutdown();

    // 6. Metrics: latency percentiles, cache hits.
    let metrics = runtime.shutdown();
    println!("\n== serving metrics ==");
    println!(
        "admitted {}, completed {}, rejected {}",
        metrics.admitted, metrics.completed, metrics.rejected
    );
    println!(
        "latency p50 {:.1}µs, p90 {:.1}µs, p99 {:.1}µs",
        metrics.latency.p50_us(),
        metrics.latency.p90_us(),
        metrics.latency.p99_us()
    );
    for m in &metrics.models {
        println!(
            "model {} v{}: completed {}, cache hit rate {}, entries {}",
            m.name,
            m.version,
            m.stats.completed,
            percent(m.cache.hit_rate()),
            m.cache.entries
        );
    }
}
