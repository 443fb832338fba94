//! # quclassi-serve
//!
//! The serving runtime for compiled QuClassi models: the layer that turns
//! the immutable [`quclassi_infer::CompiledModel`] artifact into a system
//! that accepts concurrent requests and answers them under load.
//!
//! The QuClassi deployment regime (Stein et al., MLSys 2022) is
//! read-heavy: one trained model, millions of cheap fidelity-based
//! queries. This crate supplies the missing runtime between "an artifact
//! that can score a batch" and "a server":
//!
//! * **Admission control & backpressure** — an admission gate that
//!   rejects (with a retryable, explicit error) once `queue_capacity`
//!   requests are in flight, instead of buffering without bound.
//! * **Run to completion** — every request is evaluated on the thread that
//!   admits it (the caller, or a wire shard) through
//!   [`quclassi_infer::CompiledModel::predict_from_angles`]. QuClassi
//!   scores each sample on its own, so there is nothing to batch; only
//!   artifacts that simulate noisy circuits fan their classes out over a
//!   shared [`quclassi_sim::batch::BatchExecutor`].
//! * **Multi-model registry** — named models with versioned, zero-downtime
//!   hot-swap (load → warm → atomic switch → drain old) and per-model
//!   stats.
//! * **Metrics** — lock-free p50/p90/p99 latency histograms, in-flight
//!   requests, throughput, and per-model cache hit rates.
//! * **Two frontends** — the in-process [`Client`] handle (primary,
//!   test-friendly), and a minimal length-prefixed-JSON TCP protocol
//!   ([`WireServer`] / [`WireClient`]) with graceful shutdown, no
//!   dependencies, and a hardened boundary: read/write idle deadlines, a
//!   connection cap with a retryable `saturated` refusal, frame-size
//!   limits and a JSON nesting cap ([`WireConfig`],
//!   `QUCLASSI_MAX_CONNECTIONS` / `QUCLASSI_WIRE_TIMEOUT_MS` /
//!   `QUCLASSI_WIRE_SHARDS`). The TCP server is a readiness-driven
//!   event loop (sharded epoll, request multiplexing via `"id"` echo —
//!   see [`eventloop`]).
//!
//! ## Determinism
//!
//! Serving never changes answers: for deterministic estimators, a
//! response is bit-identical to calling
//! [`quclassi_infer::CompiledModel::predict_one`] directly on the same
//! artifact — regardless of executor thread count or how concurrent
//! requests interleave (pinned by the `serving` stress suite in the
//! workspace `tests` crate).
//!
//! ## Quickstart
//!
//! ```
//! use quclassi::prelude::*;
//! use quclassi_infer::CompiledModel;
//! use quclassi_serve::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let model =
//!     QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
//! let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
//!
//! let runtime = ServeRuntime::start(
//!     ServeConfig::default(),
//!     BatchExecutor::single_threaded(0),
//! )
//! .unwrap();
//! runtime.deploy("quickstart", compiled).unwrap();
//!
//! let client = runtime.client();
//! let reply = client.predict("quickstart", &[0.2, 0.8, 0.5, 0.1]).unwrap();
//! assert_eq!((reply.model.as_str(), reply.version), ("quickstart", 1));
//!
//! let metrics = runtime.shutdown();
//! assert_eq!(metrics.completed, 1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod eventloop;
#[cfg(any(test, feature = "fault-injection"))]
pub mod faults;
pub mod json;
pub mod metrics;
#[cfg(quclassi_model)]
pub mod model_support;
pub(crate) mod mutation;
pub mod online;
pub(crate) mod quclassi_sync;
mod queue;
pub mod registry;
pub mod runtime;
pub mod shadow;
pub(crate) mod swap;
pub mod trace;
pub mod wire;

pub use error::ServeError;
pub use eventloop::WireServer;
#[cfg(any(test, feature = "fault-injection"))]
pub use faults::{Fault, FaultPlan};
pub use metrics::{
    Counter, FloatGauge, FlushReason, Gauge, HistogramSnapshot, LatencyHistogram, MetricsRegistry,
    MetricsSnapshot, ModelMetrics, ModelStatsSnapshot,
};
pub use online::{CycleOutcome, CycleReport, OnlineConfig, OnlineLearner, OnlineReport};
pub use registry::{ModelEntry, ModelRegistry};
pub use runtime::{Client, PendingPrediction, ServeConfig, ServeResponse, ServeRuntime};
pub use shadow::ShadowReport;
pub use trace::{TraceRing, TraceSpan, DEFAULT_TRACE_CAPACITY};
pub use wire::{FrameDecoder, WireClient, WireConfig, WirePrediction};

/// An analytic QC-S artifact over 4 features and `classes` classes, with
/// random parameters drawn from `seed`, for unit tests.
#[cfg(test)]
pub(crate) fn test_artifact(seed: u64, classes: usize) -> quclassi_infer::CompiledModel {
    use quclassi::model::{QuClassiConfig, QuClassiModel};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let model = QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, classes), &mut rng);
    let estimator = quclassi::swap_test::FidelityEstimator::analytic();
    quclassi_infer::CompiledModel::compile(&model.unwrap(), estimator).unwrap()
}

/// Re-exports of the most commonly used serving types.
pub mod prelude {
    pub use crate::error::ServeError;
    pub use crate::eventloop::WireServer;
    pub use crate::metrics::MetricsSnapshot;
    pub use crate::online::{OnlineConfig, OnlineLearner};
    pub use crate::runtime::{Client, ServeConfig, ServeResponse, ServeRuntime};
    pub use crate::shadow::ShadowReport;
    pub use crate::wire::{WireClient, WireConfig};
    pub use quclassi_sim::batch::BatchExecutor;
}
