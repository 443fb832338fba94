//! Serving-runtime stress tests: many producer threads against one
//! runtime, asserting the serving layer's core contract — **no lost or
//! duplicated responses, and every response bit-identical to a direct
//! `CompiledModel` evaluation** for the analytic estimator, regardless of
//! executor thread count or arrival order.

use proptest::prelude::*;
use quclassi::model::{QuClassiConfig, QuClassiModel};
use quclassi::swap_test::FidelityEstimator;
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_serve::{ServeConfig, ServeError, ServeRuntime};
use quclassi_sim::batch::BatchExecutor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn trained_compiled(seed: u64) -> CompiledModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let model =
        QuClassiModel::with_random_parameters(QuClassiConfig::qc_sde(4, 3), &mut rng).unwrap();
    CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap()
}

/// A pool of distinct samples, indexable from any producer thread.
fn sample_pool(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..4)
                .map(|d| ((0.07 * (1 + i * 4 + d) as f64).sin().abs() * 0.9).min(0.95))
                .collect()
        })
        .collect()
}

/// Direct (un-served) references: what every response must equal, bit for
/// bit. Computed on a *separate* artifact so the runtime's cache state
/// cannot influence the reference.
fn references(seed: u64, pool: &[Vec<f64>]) -> Vec<Prediction> {
    let artifact = trained_compiled(seed);
    let mut rng = StdRng::seed_from_u64(0);
    pool.iter()
        .map(|x| artifact.predict_one(x, &mut rng).unwrap())
        .collect()
}

#[test]
fn concurrent_producers_lose_nothing_and_match_direct_evaluation() {
    const PRODUCERS: usize = 8;
    const REQUESTS_PER_PRODUCER: usize = 25;
    let pool = Arc::new(sample_pool(16));
    let reference = Arc::new(references(42, &pool));

    // Sweep the knob that must NOT change any answer: executor threads.
    for threads in [1usize, 2, 4] {
        let runtime = ServeRuntime::start(
            ServeConfig {
                queue_capacity: 4096,
                base_seed: 0,
                ..ServeConfig::default()
            },
            BatchExecutor::new(threads, 0),
        )
        .unwrap();
        runtime.deploy("stress", trained_compiled(42)).unwrap();

        let answered = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let client = runtime.client();
                let pool = Arc::clone(&pool);
                let reference = Arc::clone(&reference);
                let answered = Arc::clone(&answered);
                std::thread::spawn(move || {
                    for i in 0..REQUESTS_PER_PRODUCER {
                        // Every producer walks the pool at its own stride,
                        // so arrival order interleaves differently each run.
                        let idx = (producer * 7 + i * 3) % pool.len();
                        let response = client.predict("stress", &pool[idx]).unwrap();
                        assert_eq!(
                            response.prediction, reference[idx],
                            "producer {producer}, request {i}, sample {idx}, \
                             {threads} threads"
                        );
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let metrics = runtime.shutdown();
        let total = (PRODUCERS * REQUESTS_PER_PRODUCER) as u64;
        // No lost responses: every blocking call returned (join proves it)…
        assert_eq!(answered.load(Ordering::Relaxed) as u64, total);
        // …and no duplicated/phantom work in the accounting.
        assert_eq!(metrics.admitted, total);
        assert_eq!(metrics.completed, total);
        assert_eq!(metrics.rejected, 0);
        assert_eq!(metrics.failed, 0);
        assert_eq!(metrics.batched_requests, total);
        assert_eq!(metrics.latency.count(), total);
    }
}

#[test]
fn hot_swap_under_load_serves_every_request_on_a_consistent_version() {
    const PRODUCERS: usize = 4;
    const REQUESTS_PER_PRODUCER: usize = 30;
    let pool = Arc::new(sample_pool(8));
    let reference_v1 = Arc::new(references(1, &pool));
    let reference_v2 = Arc::new(references(2, &pool));

    let runtime = ServeRuntime::start(
        ServeConfig {
            queue_capacity: 4096,
            base_seed: 0,
            ..ServeConfig::default()
        },
        BatchExecutor::single_threaded(0),
    )
    .unwrap();
    runtime.deploy("swap", trained_compiled(1)).unwrap();

    // Each producer sends at least REQUESTS_PER_PRODUCER requests and
    // keeps going until the swap has answered one of them, so the swap
    // lands mid-flight on every schedule.
    let answered = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..PRODUCERS)
        .map(|producer| {
            let client = runtime.client();
            let pool = Arc::clone(&pool);
            let v1 = Arc::clone(&reference_v1);
            let v2 = Arc::clone(&reference_v2);
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let mut seen_versions = Vec::new();
                let mut i = 0;
                while i < REQUESTS_PER_PRODUCER || seen_versions.last() != Some(&2) {
                    let idx = (producer + i * 5) % pool.len();
                    i += 1;
                    let response = client.predict("swap", &pool[idx]).unwrap();
                    // Whatever version served the request, the answer must
                    // be that version's exact direct evaluation.
                    let expected: &Prediction = match response.version {
                        1 => &v1[idx],
                        2 => &v2[idx],
                        v => panic!("unexpected version {v}"),
                    };
                    assert_eq!(&response.prediction, expected);
                    seen_versions.push(response.version);
                    answered.fetch_add(1, Ordering::Relaxed);
                }
                seen_versions
            })
        })
        .collect();

    // Swap mid-flight, once the producers are under way.
    while answered.load(Ordering::Relaxed) < PRODUCERS * 4 {
        std::thread::yield_now();
    }
    runtime.deploy("swap", trained_compiled(2)).unwrap();

    let mut all_versions = Vec::new();
    for handle in handles {
        let versions = handle.join().unwrap();
        // Per producer, versions are monotone: once v2 answered, v1 never
        // answers again (admission resolves to the newest entry).
        let mut max_seen = 0;
        for &v in &versions {
            assert!(v >= max_seen, "version went backwards: {versions:?}");
            max_seen = v;
        }
        all_versions.extend(versions);
    }
    assert!(
        all_versions.contains(&2),
        "the swap should have become visible to producers"
    );
    let metrics = runtime.shutdown();
    assert_eq!(metrics.completed, all_versions.len() as u64);
    assert_eq!(metrics.failed, 0);
    // Nothing still drains once all requests finished.
    assert_eq!(metrics.draining_models, 0);
}

#[test]
fn saturated_runtime_rejects_excess_but_answers_every_admitted_request() {
    // A 4-request cap under 8 concurrent producers: whether any request is
    // refused depends on how the producers happen to overlap, but on every
    // schedule each refusal is a retryable saturation, every admitted
    // request is answered, and admitted + rejected == offered. (The
    // deterministic over-cap refusal is a unit test of the gate.)
    let pool = sample_pool(4);
    let runtime = ServeRuntime::start(
        ServeConfig {
            queue_capacity: 4,
            base_seed: 0,
            ..ServeConfig::default()
        },
        BatchExecutor::single_threaded(0),
    )
    .unwrap();
    runtime.deploy("tiny", trained_compiled(3)).unwrap();

    let offered = Arc::new(AtomicUsize::new(0));
    let served = Arc::new(AtomicUsize::new(0));
    let rejected = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|producer| {
            let client = runtime.client();
            let pool = pool.clone();
            let offered = Arc::clone(&offered);
            let served = Arc::clone(&served);
            let rejected = Arc::clone(&rejected);
            std::thread::spawn(move || {
                for i in 0..10 {
                    offered.fetch_add(1, Ordering::Relaxed);
                    match client.predict("tiny", &pool[(producer + i) % pool.len()]) {
                        Ok(_) => {
                            served.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e @ ServeError::Saturated { .. }) => {
                            assert!(e.is_retryable());
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let metrics = runtime.shutdown();
    assert_eq!(
        served.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
        offered.load(Ordering::Relaxed)
    );
    assert_eq!(metrics.admitted, served.load(Ordering::Relaxed) as u64);
    assert_eq!(metrics.completed, metrics.admitted, "admitted ⇒ answered");
    assert_eq!(metrics.rejected, rejected.load(Ordering::Relaxed) as u64);
    assert_eq!(metrics.in_flight, 0);
}

proptest! {
    // Each case spins up a full runtime with producer threads, so keep the
    // case count small; the knob space is still swept meaningfully.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shadow evaluation is invisible to users: with a candidate mirroring
    /// live traffic at any rate, every user response stays bit-identical
    /// to the direct evaluation of the live artifact — which is exactly
    /// what a shadow-disabled runtime returns — for any executor thread
    /// count.
    #[test]
    fn shadow_mirroring_never_changes_user_responses(
        threads in 1usize..4,
        rate_pct in 1u32..=100,
    ) {
        const PRODUCERS: usize = 4;
        const REQUESTS_PER_PRODUCER: usize = 20;
        let pool = Arc::new(sample_pool(12));
        let reference = Arc::new(references(21, &pool));

        let runtime = ServeRuntime::start(
            ServeConfig {
                queue_capacity: 4096,
                base_seed: 0,
                ..ServeConfig::default()
            },
            BatchExecutor::new(threads, 0),
        )
        .unwrap();
        runtime.deploy("live", trained_compiled(21)).unwrap();
        runtime
            .start_shadow("live", trained_compiled(22), rate_pct as f64 / 100.0, 0)
            .unwrap();

        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let client = runtime.client();
                let pool = Arc::clone(&pool);
                let reference = Arc::clone(&reference);
                std::thread::spawn(move || {
                    for i in 0..REQUESTS_PER_PRODUCER {
                        let idx = (producer * 7 + i * 3) % pool.len();
                        let response = client.predict("live", &pool[idx]).unwrap();
                        assert_eq!(
                            response.prediction, reference[idx],
                            "shadow at {rate_pct}% changed a user response \
                             (producer {producer}, request {i}, sample {idx})"
                        );
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        let report = runtime.clear_shadow().expect("shadow was installed");
        prop_assert_eq!(report.failures, 0);
        let metrics = runtime.shutdown();
        let total = (PRODUCERS * REQUESTS_PER_PRODUCER) as u64;
        prop_assert_eq!(metrics.completed, total);
        prop_assert_eq!(metrics.failed, 0);
        // The mirror only ever duplicates traffic, never consumes it. A
        // request is mirrored before its `predict` returns, so once every
        // producer has joined the report has seen every mirror.
        prop_assert!(report.requests <= total);
        prop_assert_eq!(metrics.shadow_requests, report.requests);
    }
}
