//! The serving runtime: admission → evaluation on the admitting thread →
//! reply.
//!
//! One [`ServeRuntime`] owns the admission gate, the model registry and a
//! shared [`BatchExecutor`]; it spawns no thread. Any number of cloneable
//! [`Client`] handles, and the wire shards, submit to it concurrently.
//!
//! ## Life of a request
//!
//! 1. **Admission** ([`Client::submit`]) — the model name resolves to its
//!    current registry entry and the sample is validated and encoded to
//!    its rotation angles. A bad request is rejected here. Once
//!    `queue_capacity` requests are admitted and not yet answered, the
//!    next one is rejected with [`ServeError::Saturated`] — backpressure,
//!    not unbounded buffering.
//! 2. **Evaluation** — on the same thread (the in-process caller or a wire
//!    shard), through [`CompiledModel::predict_from_angles`] on the angles
//!    admission encoded, borrowed rather than copied. QuClassi scores a
//!    sample with one fidelity per class, so a sample's cost does not
//!    depend on any other sample and a batch would have nothing to share.
//!    A deterministic artifact answers a repeated encoding from its
//!    fingerprint cache; a miss costs one keyed hash and no allocation in
//!    the cache. An artifact that simulates noisy circuits (about a
//!    millisecond per request) fans its classes out over the runtime's
//!    [`BatchExecutor`]; every other artifact evaluates on the calling
//!    thread alone, where a hand-off would cost more than the evaluation.
//!    The request keeps the registry entry that admitted it, even across a
//!    hot-swap.
//! 3. **Reply** — the request is accounted (latency, counters, trace span)
//!    and answered before `submit` returns. If a shadow candidate mirrors
//!    the model and draws this request, the candidate then evaluates the
//!    same angles on the same thread; the answer is already fixed.
//!
//! Shutdown closes the gate — later admissions fail with
//! [`ServeError::ShutDown`] — and waits until every admitted request has
//! been answered, so [`ServeRuntime::shutdown`] counts each one.
//!
//! ## Determinism
//!
//! For deterministic estimators (analytic, exact SWAP test) a response is
//! **bit-identical to a direct [`CompiledModel::predict_one`] call** on the
//! same artifact, at any executor thread count and under any interleaving
//! of concurrent requests: evaluation is per sample, and the batch
//! executor's results do not depend on its thread count.
//!
//! For stochastic estimators (shots, noise), request `i` — the `i`-th
//! admission, counted from 0 under the gate lock — is answered with
//! `predict_from_angles(&angles, executor, seed)` where
//! `seed = job_seed(job_seed(base_seed, i), 0)` (see
//! [`BatchExecutor::job_seed`]); that is bit-identical to
//! `predict_many_from_angles(vec![angles], executor, seed)`, a one-row
//! batch on the same seed streams. Outputs therefore depend on the arrival
//! order alone: not on the executor's thread count, and not on what other
//! requests were in flight.

use crate::error::ServeError;
use crate::metrics::{self, MetricsRegistry, MetricsSnapshot, ModelMetrics, RuntimeStats};
use crate::quclassi_sync::atomic::{AtomicU64, Ordering};
use crate::quclassi_sync::{Arc, RwLock};
use crate::queue::AdmissionGate;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::shadow::{ShadowReport, ShadowState};
use crate::trace::{TraceRing, TraceSpan, TraceState, DEFAULT_TRACE_CAPACITY};
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_sim::batch::BatchExecutor;
use std::time::{Duration, Instant};

/// Tuning knobs of the serving runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Ignored: every request runs to completion on its admitting thread,
    /// so there is no batching window. Kept only because the benchmark in
    /// `perfbench/` sets it.
    pub batch_window: Duration,
    /// Most requests admitted and not yet answered; admissions beyond it
    /// are rejected with [`ServeError::Saturated`].
    pub queue_capacity: usize,
    /// Base seed of the per-request RNG streams (stochastic estimators
    /// only; deterministic estimators ignore it).
    pub base_seed: u64,
    /// Capacity of the per-request trace ring (most recent completed
    /// request timelines, retrievable via `Client::traces` and the wire
    /// `trace` op). 0 disables tracing entirely.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_window: Duration::ZERO,
            queue_capacity: 1024,
            base_seed: 0,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// Reads the runtime knobs from the environment on top of the
    /// defaults: `QUCLASSI_QUEUE_CAPACITY` (positive integer) and
    /// `QUCLASSI_TRACE_CAPACITY` (trace-ring capacity; 0 disables
    /// tracing).
    ///
    /// # Errors
    /// A variable that is set but malformed is **rejected** with
    /// [`ServeError::InvalidConfig`] — the same contract as
    /// [`BatchExecutor::from_env`]: a typo in a deployment knob must fail
    /// startup, not silently serve with a default.
    pub fn from_env() -> Result<Self, ServeError> {
        let mut config = ServeConfig::default();
        if let Some(raw) = env_nonempty("QUCLASSI_QUEUE_CAPACITY") {
            config.queue_capacity = parse_positive("QUCLASSI_QUEUE_CAPACITY", &raw)?;
        }
        if let Some(raw) = env_nonempty("QUCLASSI_TRACE_CAPACITY") {
            config.trace_capacity = raw.trim().parse().map_err(|_| {
                ServeError::InvalidConfig(format!(
                    "QUCLASSI_TRACE_CAPACITY must be a non-negative integer \
                     (0 disables tracing), got '{raw}'"
                ))
            })?;
        }
        config.validate()?;
        Ok(config)
    }

    /// Checks the invariant `queue_capacity ≥ 1`.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

pub(crate) fn env_nonempty(key: &str) -> Option<String> {
    std::env::var(key).ok().filter(|v| !v.trim().is_empty())
}

pub(crate) fn parse_positive(key: &str, raw: &str) -> Result<usize, ServeError> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(ServeError::InvalidConfig(format!(
            "{key} must be a positive integer, got '{raw}'"
        ))),
    }
}

/// One served prediction, tagged with the model (and version) that
/// produced it — under hot-swap, the version that was active when the
/// request was *admitted*.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeResponse {
    /// Registry name the request was addressed to.
    pub model: String,
    /// Version of the entry that served the request.
    pub version: u64,
    /// The prediction (label, probabilities, fidelities, top-k helpers).
    pub prediction: Prediction,
}

/// An admitted request's answer: its response, or the error its
/// evaluation hit.
pub(crate) type Answer = Result<ServeResponse, ServeError>;

/// The answer to a request admitted by [`Client::submit`]. Requests run
/// to completion inside `submit`, so the answer is already here.
#[derive(Debug)]
pub struct PendingPrediction {
    answer: Answer,
}

impl PendingPrediction {
    /// The response, or the error the request's evaluation hit. Never
    /// blocks.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.answer
    }
}

pub(crate) struct Shared {
    gate: AdmissionGate,
    pub(crate) registry: ModelRegistry,
    /// Fans the classes of a request that simulates noisy circuits out
    /// over its workers.
    executor: BatchExecutor,
    /// Evaluates every other request on the calling thread.
    inline: BatchExecutor,
    pub(crate) stats: RuntimeStats,
    /// The registry every runtime counter/gauge/histogram is registered
    /// in; [`Client::exposition`] renders it plus the dynamic per-model,
    /// cache and simulator sections.
    pub(crate) metrics: MetricsRegistry,
    /// Completed-request timelines (capacity [`ServeConfig::trace_capacity`]).
    pub(crate) trace: TraceRing,
    /// Trace ids for requests the wire layer did not tag (in-process
    /// clients); monotonically assigned, disjoint by starting at 1.
    pub(crate) next_trace_id: AtomicU64,
    pub(crate) config: ServeConfig,
    pub(crate) started: Instant,
    /// The installed shadow candidate, if any (see [`crate::shadow`]),
    /// read once per request; install/clear replace the whole `Arc`, so a
    /// cycle boundary never tears a report.
    pub(crate) shadow: RwLock<Option<Arc<ShadowState>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .field("models", &self.registry.names())
            .finish_non_exhaustive()
    }
}

/// The serving runtime: admission gate + registry + metrics.
///
/// ```
/// use quclassi::prelude::*;
/// use quclassi_infer::CompiledModel;
/// use quclassi_serve::{ServeConfig, ServeRuntime};
/// use quclassi_sim::batch::BatchExecutor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let model =
///     QuClassiModel::with_random_parameters(QuClassiConfig::qc_s(4, 2), &mut rng).unwrap();
/// let compiled = CompiledModel::compile(&model, FidelityEstimator::analytic()).unwrap();
///
/// let runtime = ServeRuntime::start(
///     ServeConfig::default(),
///     BatchExecutor::single_threaded(0),
/// )
/// .unwrap();
/// runtime.deploy("demo", compiled).unwrap();
///
/// let client = runtime.client();
/// let reply = client.predict("demo", &[0.1, 0.9, 0.4, 0.3]).unwrap();
/// assert_eq!(reply.model, "demo");
/// assert_eq!(reply.version, 1);
/// assert!(reply.prediction.label < 2);
///
/// let metrics = runtime.shutdown();
/// assert_eq!(metrics.completed, 1);
/// ```
#[derive(Debug)]
pub struct ServeRuntime {
    shared: Arc<Shared>,
}

impl ServeRuntime {
    /// Starts the runtime: validates `config` and keeps `executor` for
    /// requests that simulate noisy circuits. Spawns no thread: requests
    /// run on the threads that submit them.
    pub fn start(config: ServeConfig, executor: BatchExecutor) -> Result<Self, ServeError> {
        config.validate()?;
        let metrics = MetricsRegistry::new();
        let stats = RuntimeStats::register(&metrics);
        let shared = Arc::new(Shared {
            gate: AdmissionGate::new(config.queue_capacity),
            registry: ModelRegistry::new(),
            inline: BatchExecutor::single_threaded(executor.root_seed()),
            executor,
            stats,
            metrics,
            trace: TraceRing::new(config.trace_capacity),
            next_trace_id: AtomicU64::new(1),
            config,
            started: Instant::now(),
            shadow: RwLock::new(None),
        });
        Ok(ServeRuntime { shared })
    }

    /// The model registry (for deploys, version queries, drain tracking).
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// Convenience for [`ModelRegistry::deploy`] on the runtime's registry.
    /// Every successful deploy counts as a promotion in
    /// [`MetricsSnapshot::promotions`].
    pub fn deploy(&self, name: &str, model: CompiledModel) -> Result<u64, ServeError> {
        self.shared.promote(name, model)
    }

    /// Rolls `name` back to its previous artifact (see
    /// [`ModelRegistry::rollback`]), counting it in
    /// [`MetricsSnapshot::rollbacks`]. Returns the new version serving the
    /// restored artifact.
    pub fn rollback(&self, name: &str) -> Result<u64, ServeError> {
        self.shared.rollback_model(name)
    }

    /// Installs `candidate` as the shadow for `model`: from now on a
    /// deterministic fraction `rate` of requests for `model` are mirrored
    /// onto the candidate *after* their live answers are fixed
    /// (user-visible output is bit-identical to a shadow-free run — see
    /// [`crate::shadow`]). Replaces any previously installed
    /// shadow, discarding its report.
    ///
    /// # Errors
    /// Rejects a rate outside `(0, 1]`, an unknown model name, or a
    /// candidate whose encoder shape differs from the live model's (its
    /// mirrored angle rows could never evaluate).
    pub fn start_shadow(
        &self,
        model: &str,
        candidate: CompiledModel,
        rate: f64,
        tag: u64,
    ) -> Result<(), ServeError> {
        self.shared.install_shadow(model, candidate, rate, tag)
    }

    /// The report of the currently installed shadow, if any (leaves the
    /// shadow running).
    pub fn shadow_report(&self) -> Option<ShadowReport> {
        self.shared.shadow_report()
    }

    /// Uninstalls the shadow and returns its final report, if one was
    /// installed.
    pub fn clear_shadow(&self) -> Option<ShadowReport> {
        self.shared.take_shadow()
    }

    /// The runtime internals, for in-crate composition (online learner).
    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// A cloneable handle for submitting requests and reading metrics.
    pub fn client(&self) -> Client {
        Client {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot(&self.shared)
    }

    /// Gracefully shuts down: stops admitting, waits until every
    /// already-admitted request is answered, and returns the final
    /// metrics.
    pub fn shutdown(self) -> MetricsSnapshot {
        self.shutdown_in_place();
        snapshot(&self.shared)
    }

    fn shutdown_in_place(&self) {
        self.shared.gate.close();
        self.shared.gate.wait_drained();
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// A cloneable, thread-safe handle into a [`ServeRuntime`].
#[derive(Clone, Debug)]
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Submits one request and returns its response.
    pub fn predict(&self, model: &str, x: &[f64]) -> Result<ServeResponse, ServeError> {
        self.submit(model, x)?.wait()
    }

    /// Submits one request and runs it to completion on this thread:
    /// resolution, validation, encoding and evaluation. An admission error
    /// is returned here; the returned pending holds the answer.
    pub fn submit(&self, model: &str, x: &[f64]) -> Result<PendingPrediction, ServeError> {
        let (answer, _) = self.submit_inner(model, x, None, false)?;
        Ok(PendingPrediction { answer })
    }

    /// [`Client::submit`] for wire frontends: tags the request with the
    /// caller-derived trace id (or assigns one when the frame carried no
    /// `"id"`) and hands back its trace state with the answer, so the
    /// frontend records the span through [`Client::finish_wire_write`]
    /// once the response is written. An admission error has no trace.
    pub(crate) fn submit_wire(
        &self,
        model: &str,
        x: &[f64],
        trace_id: Option<u64>,
    ) -> (Answer, Option<TraceState>) {
        match self.submit_inner(model, x, trace_id, true) {
            Ok((answer, trace)) => (answer, Some(trace)),
            Err(e) => (Err(e), None),
        }
    }

    fn submit_inner(
        &self,
        model: &str,
        x: &[f64],
        trace_id: Option<u64>,
        wire_managed: bool,
    ) -> Result<(Answer, TraceState), ServeError> {
        let received = Instant::now();
        let entry = match self.shared.registry.get(model) {
            Ok(entry) => entry,
            Err(e) => {
                // Counted runtime-wide (admitted + rejected reconstructs
                // offered load) but not per-model: there is no entry.
                self.shared.stats.rejected.inc();
                return Err(e);
            }
        };
        let angles = match entry.model().encoder().encoding_angles(x) {
            Ok(angles) => angles,
            Err(e) => {
                entry.stats().rejected.inc();
                self.shared.stats.rejected.inc();
                return Err(ServeError::Model(e));
            }
        };
        let encode_ns = received.elapsed().as_nanos() as u64;
        self.shared.stats.stage_encode.record_ns(encode_ns);
        let trace_id =
            trace_id.unwrap_or_else(|| self.shared.next_trace_id.fetch_add(1, Ordering::Relaxed));
        let mut trace = TraceState::new(trace_id, received, wire_managed);
        trace.encode_ns = encode_ns;
        // Counted under the gate lock, before the request can be answered.
        let admitted = self.shared.gate.admit(|| {
            self.shared.stats.admitted.inc();
            self.shared.stats.in_flight.add(1);
            entry.stats().admitted.inc();
        });
        let running = match admitted {
            Ok(running) => running,
            Err(e) => {
                self.shared.stats.rejected.inc();
                entry.stats().rejected.inc();
                return Err(e);
            }
        };
        let answer = self
            .shared
            .serve(&entry, &angles, &mut trace, running.index());
        // Answered: shutdown may now return.
        drop(running);
        Ok((answer, trace))
    }

    /// Deployed model names with their active versions, sorted by name.
    pub fn models(&self) -> Vec<(String, u64)> {
        self.shared
            .registry
            .entries()
            .into_iter()
            .map(|e| (e.name().to_string(), e.version()))
            .collect()
    }

    /// Current metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot(&self.shared)
    }

    /// The runtime-wide counters, for wire-frontend bookkeeping (refusal
    /// accounting happens at the socket boundary, outside admission).
    pub(crate) fn runtime_stats(&self) -> &RuntimeStats {
        &self.shared.stats
    }

    /// The metrics registry, for wire frontends that register their own
    /// gauges (per-shard connection counts) alongside the runtime's.
    pub(crate) fn metrics_registry(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The most recent `last` completed request timelines, oldest first
    /// (see [`TraceRing::last`]). Empty when tracing is disabled
    /// (`trace_capacity` 0).
    pub fn traces(&self, last: usize) -> Vec<TraceSpan> {
        self.shared.trace.last(last)
    }

    /// The configured trace-ring capacity.
    pub fn trace_capacity(&self) -> usize {
        self.shared.trace.capacity()
    }

    /// Total spans recorded since the runtime started (not bounded by the
    /// ring capacity).
    pub fn traces_recorded(&self) -> u64 {
        self.shared.trace.recorded()
    }

    /// Prometheus-style text exposition of every runtime metric: the
    /// registered counters/gauges/histograms plus dynamic per-model,
    /// encoding-cache and simulator-profiling sections.
    pub fn exposition(&self) -> String {
        self.shared.exposition()
    }

    /// Stamps the wire-write stage on an answered request and records its
    /// span: called by wire frontends once the response bytes have drained
    /// to the socket (`write_ns` = response enqueued → drained).
    pub(crate) fn finish_wire_write(&self, trace: &TraceState, write_ns: u64) {
        self.shared.stats.stage_write.record_ns(write_ns);
        let total_ns = trace.received.elapsed().as_nanos() as u64;
        self.shared.trace.record(trace.span(write_ns, total_ns));
    }
}

fn snapshot(shared: &Shared) -> MetricsSnapshot {
    shared.stats.snapshot(
        shared.started.elapsed(),
        shared.gate.capacity(),
        shared.registry.draining(),
        shared.model_metrics(),
    )
}

impl Shared {
    /// Deploys through the registry and counts the promotion.
    pub(crate) fn promote(&self, name: &str, model: CompiledModel) -> Result<u64, ServeError> {
        let version = self.registry.deploy(name, model)?;
        self.stats.promotions.inc();
        Ok(version)
    }

    /// Rolls back through the registry and counts the rollback.
    pub(crate) fn rollback_model(&self, name: &str) -> Result<u64, ServeError> {
        let version = self.registry.rollback(name)?;
        self.stats.rollbacks.inc();
        Ok(version)
    }

    pub(crate) fn install_shadow(
        &self,
        model: &str,
        candidate: CompiledModel,
        rate: f64,
        tag: u64,
    ) -> Result<(), ServeError> {
        if !(rate > 0.0 && rate <= 1.0) {
            return Err(ServeError::InvalidConfig(format!(
                "shadow rate must be in (0, 1], got {rate}"
            )));
        }
        let live = self.registry.get(model)?;
        let live_angles = live.model().encoder().num_angles();
        let candidate_angles = candidate.encoder().num_angles();
        if candidate_angles != live_angles {
            return Err(ServeError::InvalidConfig(format!(
                "shadow candidate expects {candidate_angles} encoding angles \
                 but live model '{model}' produces {live_angles}"
            )));
        }
        let state = Arc::new(ShadowState::new(model, candidate, rate, tag));
        *self.shadow.write().unwrap_or_else(|e| e.into_inner()) = Some(state);
        Ok(())
    }

    pub(crate) fn shadow_report(&self) -> Option<ShadowReport> {
        self.shadow
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|s| s.report())
    }

    pub(crate) fn take_shadow(&self) -> Option<ShadowReport> {
        self.shadow
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|s| s.report())
    }

    fn model_metrics(&self) -> Vec<ModelMetrics> {
        self.registry
            .entries()
            .into_iter()
            .map(|e| ModelMetrics {
                name: e.name().to_string(),
                version: e.version(),
                stats: e.stats().snapshot(),
                cache: e.model().cache_stats(),
            })
            .collect()
    }

    /// Renders the full text exposition: the registered runtime series
    /// first (registration order), then dynamic per-model, encoding-cache
    /// and simulator-profiling sections built from live snapshots.
    pub(crate) fn exposition(&self) -> String {
        let mut out = self.metrics.expose();
        metrics::expose_models(&mut out, &self.model_metrics());
        metrics::expose_sim(&mut out);
        out
    }

    /// The executor a request for `model` evaluates on: the worker pool
    /// for artifacts that simulate noisy circuits (about a millisecond per
    /// request, so fanning the classes out pays), the calling thread for
    /// every other artifact. Answers are the same either way: the batch
    /// executor's results do not depend on its thread count.
    fn executor_for(&self, model: &CompiledModel) -> &BatchExecutor {
        if model.estimator().simulates_circuit() {
            &self.executor
        } else {
            &self.inline
        }
    }

    /// Answers admission `index` on the calling thread: evaluates it on
    /// the entry that admitted it, accounts it (counters, latency, stage
    /// histograms, trace span), then — if the installed shadow mirrors this
    /// model and draws this request — evaluates the candidate on the same
    /// angles.
    ///
    /// Two clock reads bracket the evaluation and time the compute stage;
    /// with the admission stamp, the second also times the request's
    /// latency and an in-process request's span.
    fn serve(
        &self,
        entry: &ModelEntry,
        angles: &[f64],
        trace: &mut TraceState,
        index: u64,
    ) -> Answer {
        let seed =
            BatchExecutor::job_seed(BatchExecutor::job_seed(self.config.base_seed, index), 0);
        let model = entry.model();
        let eval_started = Instant::now();
        let outcome = model.predict_from_angles(angles, self.executor_for(model), seed);
        let eval_finished = Instant::now();
        let live_elapsed = eval_finished.duration_since(eval_started);
        let compute_ns = live_elapsed.as_nanos() as u64;
        let total_ns = eval_finished.duration_since(trace.received).as_nanos() as u64;
        let answer = match outcome {
            Ok(prediction) => {
                self.stats.latency.record_ns(total_ns);
                entry.stats().latency.record_ns(total_ns);
                self.stats.completed.inc();
                entry.stats().completed.inc();
                Ok(ServeResponse {
                    model: entry.name().to_string(),
                    version: entry.version(),
                    prediction,
                })
            }
            Err(e) => {
                self.stats.failed.inc();
                entry.stats().failed.inc();
                Err(ServeError::Model(e))
            }
        };
        self.stats.stage_compute.record_ns(compute_ns);
        trace.compute_ns = compute_ns;
        self.stats.in_flight.sub(1);
        if !trace.wire_managed {
            // In-process requests have no write stage: the span is
            // complete, and in the ring before `submit` returns.
            self.trace.record(trace.span(0, total_ns));
        }
        // Every request for the shadowed model draws from the mirror's
        // credit, but a candidate is never judged on traffic the live
        // model could not serve either.
        let mirror = self
            .shadow
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .filter(|s| s.model() == entry.name() && s.should_mirror())
            .map(Arc::clone);
        if let (Some(state), Ok(response)) = (mirror, &answer) {
            self.shadow_evaluate(
                &state,
                angles,
                response.prediction.label,
                live_elapsed,
                seed,
            );
        }
        answer
    }

    /// Runs one mirrored request on the shadow candidate and folds the
    /// outcome into its report, strictly after the live answer is fixed.
    fn shadow_evaluate(
        &self,
        state: &ShadowState,
        angles: &[f64],
        live_label: usize,
        live_elapsed: Duration,
        live_seed: u64,
    ) {
        // A seed stream disjoint from the live request's, so a stochastic
        // candidate cannot consume or perturb live randomness.
        let shadow_seed = BatchExecutor::job_seed(live_seed, u64::MAX);
        let candidate = state.candidate();
        let started = Instant::now();
        match candidate.predict_from_angles(angles, self.executor_for(candidate), shadow_seed) {
            Ok(prediction) => {
                let agreed = prediction.label == live_label;
                state.record(agreed, live_elapsed, started.elapsed());
                self.stats.shadow_batches.inc();
                self.stats.shadow_requests.inc();
            }
            Err(_) => {
                state.record_failure();
                self.stats.shadow_batches.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compiled(seed: u64) -> CompiledModel {
        crate::test_artifact(seed, 3)
    }

    fn runtime(config: ServeConfig) -> ServeRuntime {
        ServeRuntime::start(config, BatchExecutor::single_threaded(0)).unwrap()
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(ServeConfig {
            queue_capacity: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn responses_match_direct_compiled_prediction_bit_for_bit() {
        let artifact = compiled(3);
        let xs: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.1 * i as f64, 0.3, 0.5, 0.9 - 0.1 * i as f64])
            .collect();
        let mut rng = StdRng::seed_from_u64(0);
        let direct: Vec<Prediction> = xs
            .iter()
            .map(|x| artifact.predict_one(x, &mut rng).unwrap())
            .collect();
        let rt = runtime(ServeConfig::default());
        rt.deploy("m", compiled(3)).unwrap();
        let client = rt.client();
        for (x, want) in xs.iter().zip(direct.iter()) {
            let got = client.predict("m", x).unwrap();
            assert_eq!(&got.prediction, want);
            assert_eq!(got.version, 1);
        }
        rt.shutdown();
    }

    #[test]
    fn admission_rejects_bad_input_synchronously() {
        let rt = runtime(ServeConfig::default());
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        // Unknown model.
        assert!(matches!(
            client.predict("ghost", &[0.1; 4]),
            Err(ServeError::UnknownModel(_))
        ));
        // Wrong dimension and out-of-range features are client errors.
        let err = client.predict("m", &[0.1, 0.2]).unwrap_err();
        assert_eq!(err.kind(), "bad_request");
        let err = client.predict("m", &[0.1, 0.2, 0.3, 7.0]).unwrap_err();
        assert_eq!(err.kind(), "bad_request");
        let metrics = rt.shutdown();
        assert_eq!(metrics.completed, 0);
        assert_eq!(
            metrics.rejected, 3,
            "all three admission failures count toward offered load"
        );
        // The unknown-model rejection has no entry to attribute to; the
        // two bad inputs land on model 'm'.
        assert_eq!(metrics.models[0].stats.rejected, 2);
    }

    #[test]
    fn saturation_applies_backpressure() {
        // Two requests held running (as if still evaluating on other
        // threads) fill a capacity-2 runtime: the next submit is rejected,
        // retryably, and counted as rejected, not admitted.
        let rt = runtime(ServeConfig {
            queue_capacity: 2,
            ..Default::default()
        });
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        let gate = &rt.shared().gate;
        let held = [gate.admit(|| {}).unwrap(), gate.admit(|| {}).unwrap()];
        let err = client.submit("m", &[0.1; 4]).unwrap_err();
        assert_eq!(
            err,
            ServeError::Saturated {
                depth: 2,
                capacity: 2
            }
        );
        assert!(err.is_retryable());
        drop(held);
        assert!(client.predict("m", &[0.1; 4]).is_ok(), "capacity freed");
        let m = rt.shutdown();
        assert_eq!((m.admitted, m.completed, m.rejected), (1, 1, 1));
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_rejects_new_ones() {
        let rt = runtime(ServeConfig::default());
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        let pending: Vec<PendingPrediction> = (0..8)
            .map(|i| client.submit("m", &[0.1 + 0.05 * i as f64; 4]).unwrap())
            .collect();
        let metrics = rt.shutdown();
        assert_eq!(metrics.admitted, 8);
        assert_eq!(metrics.completed, 8, "every admitted request is answered");
        for p in pending {
            assert!(p.wait().is_ok());
        }
        assert!(matches!(
            client.predict("m", &[0.1; 4]),
            Err(ServeError::ShutDown)
        ));
    }

    #[test]
    fn hot_swap_serves_each_request_on_the_version_that_admitted_it() {
        let rt = runtime(ServeConfig::default());
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        assert_eq!(client.predict("m", &[0.2; 4]).unwrap().version, 1);
        rt.deploy("m", compiled(2)).unwrap();
        assert_eq!(client.predict("m", &[0.2; 4]).unwrap().version, 2);
        assert_eq!(client.models(), vec![("m".to_string(), 2)]);
        // Old version drains once nothing references it.
        assert_eq!(rt.registry().draining(), 0);
        rt.shutdown();
    }

    #[test]
    fn metrics_reflect_batching_and_latency() {
        let rt = runtime(ServeConfig::default());
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        for i in 0..8 {
            let before = client.metrics().completed;
            let pending = client.submit("m", &[0.05 + 0.1 * i as f64; 4]).unwrap();
            // Answered and counted before `submit` returned.
            assert_eq!(client.metrics().completed, before + 1);
            pending.wait().unwrap();
        }
        let m = rt.shutdown();
        assert_eq!(m.completed, 8);
        assert_eq!(m.latency.count(), 8);
        assert!(m.latency.quantile_ns(0.5) > 0);
        assert!(m.throughput_rps() > 0.0);
        assert_eq!(m.models.len(), 1);
        assert_eq!(m.models[0].stats.completed, 8);
        assert_eq!(m.models[0].stats.latency.count(), 8);
    }

    #[test]
    fn wire_submissions_leave_span_recording_to_the_frontend() {
        let rt = runtime(ServeConfig::default());
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        let (answer, trace) = client.submit_wire("m", &[0.3; 4], Some(7));
        assert_eq!(
            answer.unwrap().prediction,
            client.predict("m", &[0.3; 4]).unwrap().prediction
        );
        let trace = trace.expect("an admitted request has a trace");
        // Only the in-process predict above has a span so far.
        assert_eq!(client.traces_recorded(), 1);
        client.finish_wire_write(&trace, 5);
        let span = client.traces(1)[0];
        assert_eq!((span.trace_id, span.write_ns), (7, 5));
        // An admission error has no trace to finish.
        let (answer, trace) = client.submit_wire("ghost", &[0.3; 4], Some(8));
        assert!(answer.is_err() && trace.is_none());
        assert_eq!(rt.shutdown().completed, 2);
    }

    #[test]
    fn per_model_stats_are_attributed_correctly() {
        let rt = runtime(ServeConfig::default());
        rt.deploy("a", compiled(1)).unwrap();
        rt.deploy("b", compiled(2)).unwrap();
        let client = rt.client();
        for _ in 0..3 {
            client.predict("a", &[0.3; 4]).unwrap();
        }
        client.predict("b", &[0.3; 4]).unwrap();
        let m = rt.shutdown();
        let by_name: std::collections::HashMap<&str, &ModelMetrics> =
            m.models.iter().map(|mm| (mm.name.as_str(), mm)).collect();
        assert_eq!(by_name["a"].stats.completed, 3);
        assert_eq!(by_name["b"].stats.completed, 1);
        // Repeated identical inputs on 'a' hit its fingerprint cache.
        assert!(by_name["a"].cache.hits >= 1);
    }
}
