//! The serving runtime: admission → bounded queue → micro-batch scheduler
//! → batched evaluation → reply.
//!
//! One [`ServeRuntime`] owns the bounded request queue, the model registry,
//! a shared [`BatchExecutor`], and a single scheduler thread. Any number of
//! cloneable [`Client`] handles feed it concurrently.
//!
//! ## Life of a request
//!
//! 1. **Admission** ([`Client::submit`]) — the model name resolves to its
//!    current registry entry and the sample is validated + encoded to its
//!    rotation angles *on the caller's thread*. A bad request is rejected
//!    here, synchronously, and can never poison a batch. If the bounded
//!    queue is full the request is rejected with
//!    [`ServeError::Saturated`] — backpressure, not unbounded buffering.
//! 2. **Run to completion, or batching** — with a zero `batch_window`, a
//!    request for a product-state artifact
//!    ([`CompiledModel::scores_product_states`]) with no shadow installed
//!    is evaluated right there, on the admitting thread (the in-process
//!    caller or a wire shard), and answered before `submit` returns. A
//!    zero window means "do not wait for company", and a product artifact
//!    scores every sample on its own anyway: the trip to the scheduler
//!    and back would add two thread hand-offs and no batching gain. Every
//!    other request is queued: the scheduler blocks for the first queued
//!    request, then drains up to `max_batch` requests, waiting at most
//!    `batch_window` for the batch to fill (a zero window drains whatever
//!    has accumulated — natural batching with no added latency).
//! 3. **Evaluation** — one function serves both paths (a request run to
//!    completion is a flush of one). The batch is grouped by model entry
//!    (requests keep the exact version that admitted them, even across a
//!    hot-swap) and each group goes through
//!    [`CompiledModel::predict_many_from_angles`] on the shared executor.
//!    Separable artifacts under a deterministic estimator score inline
//!    through the product-state kernel, a few nanoseconds per qubit and
//!    class. For entangled analytic artifacts the flush is a samples ×
//!    classes fidelity GEMM: every worker encodes its sample rows into a
//!    reused scratch register and sweeps them against the model's packed
//!    class-state matrix (`quclassi_sim::gemm::StateMatrix`), so a
//!    steady-state flush performs no per-sample statevector or gate-list
//!    allocations.
//! 4. **Reply** — each request's one-shot slot is fulfilled; blocked
//!    callers wake with a [`ServeResponse`].
//!
//! Shutdown closes the queue to both paths at once: admission on either
//! path takes the queue lock, and the scheduler exits only when the
//! queue is closed, empty and no request is still running to completion,
//! so every admitted request is answered and counted before
//! [`ServeRuntime::shutdown`] returns.
//!
//! ## Threading
//!
//! The runtime's evaluation parallelism is entirely the
//! [`BatchExecutor`]'s: its worker count (`QUCLASSI_THREADS`, via
//! [`BatchExecutor::from_env`]) fans batched requests out one job per
//! sample × class, and each circuit runs on one thread. The worker count
//! is a pure throughput knob (see the determinism section below).
//!
//! ## Determinism
//!
//! For deterministic estimators (analytic, exact SWAP test) a response is
//! **bit-identical to a direct [`CompiledModel::predict_one`] call** on the
//! same artifact, regardless of batch window, batch size, thread count, or
//! how requests interleave: per-sample evaluation is independent of batch
//! composition, and the batch executor's results are thread-count
//! invariant. For stochastic estimators each model group in a flush
//! derives its RNG streams from `(base_seed, flush index, group index)`,
//! so results are reproducible for a fixed arrival order but — as in any
//! dynamically batched server — depend on how requests happened to batch.

use crate::error::ServeError;
use crate::metrics::{
    self, FlushReason, MetricsRegistry, MetricsSnapshot, ModelMetrics, RuntimeStats,
};
use crate::mutation;
use crate::quclassi_sync::atomic::{AtomicU64, Ordering};
use crate::quclassi_sync::{Arc, Condvar, Mutex, RwLock};
use crate::queue::{flush_reason, BoundedQueue};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::shadow::{ShadowReport, ShadowState};
use crate::trace::{TraceRing, TraceSpan, TraceState, DEFAULT_TRACE_CAPACITY};
use quclassi_infer::{CompiledModel, Prediction};
use quclassi_sim::batch::BatchExecutor;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of the serving runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Flush a micro-batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// How long the scheduler waits (from the first queued request) for a
    /// batch to fill before flushing what it has. `Duration::ZERO` flushes
    /// whatever has accumulated without waiting — maximum-throughput
    /// natural batching — and runs requests for product-state artifacts to
    /// completion on the admitting thread (see the module docs).
    pub batch_window: Duration,
    /// Bounded queue capacity; admissions beyond it are rejected with
    /// [`ServeError::Saturated`].
    pub queue_capacity: usize,
    /// Base seed for per-flush RNG streams (stochastic estimators only;
    /// deterministic estimators ignore it).
    pub base_seed: u64,
    /// Capacity of the per-request trace ring (most recent completed
    /// request timelines, retrievable via `Client::traces` and the wire
    /// `trace` op). 0 disables tracing entirely.
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::from_micros(200),
            queue_capacity: 1024,
            base_seed: 0,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

impl ServeConfig {
    /// Reads the batching knobs from the environment on top of the
    /// defaults: `QUCLASSI_MAX_BATCH` (positive integer),
    /// `QUCLASSI_BATCH_WINDOW_US` (microseconds, 0 allowed),
    /// `QUCLASSI_QUEUE_CAPACITY` (positive integer), and
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
        if let Some(raw) = env_nonempty("QUCLASSI_MAX_BATCH") {
            config.max_batch = parse_positive("QUCLASSI_MAX_BATCH", &raw)?;
        }
        if let Some(raw) = env_nonempty("QUCLASSI_BATCH_WINDOW_US") {
            let us: u64 = raw.trim().parse().map_err(|_| {
                ServeError::InvalidConfig(format!(
                    "QUCLASSI_BATCH_WINDOW_US must be a non-negative integer \
                     (microseconds), got '{raw}'"
                ))
            })?;
            config.batch_window = Duration::from_micros(us);
        }
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

    /// Checks the invariants (`max_batch ≥ 1`, `queue_capacity ≥ 1`).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".to_string(),
            ));
        }
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

/// A callback invoked the moment a submitted request's response is ready:
/// from the scheduler thread, or from the admitting thread for a request
/// run to completion (before `submit_with_notifier` returns). The
/// event-loop wire frontend registers its shard waker here, so a
/// completion immediately unblocks the shard's `epoll_wait` instead of
/// requiring a blocked thread per in-flight request. Must be cheap and
/// non-blocking — it runs on the serving hot path.
pub type CompletionNotifier = Arc<dyn Fn() + Send + Sync>;

/// One-shot rendezvous between a blocked caller and the scheduler.
pub(crate) struct ResponseSlot {
    cell: Mutex<Option<Result<ServeResponse, ServeError>>>,
    ready: Condvar,
    /// Invoked after the result is published (see [`CompletionNotifier`]).
    notifier: Option<CompletionNotifier>,
    /// Per-request stage timeline, stamped as the request moves through
    /// admission → queue → scheduler (→ wire write) and folded into the
    /// trace ring when the lifecycle ends.
    pub(crate) trace: TraceState,
}

impl std::fmt::Debug for ResponseSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseSlot")
            .field("notified", &self.notifier.is_some())
            .finish_non_exhaustive()
    }
}

impl ResponseSlot {
    fn new(notifier: Option<CompletionNotifier>, trace: TraceState) -> Self {
        ResponseSlot {
            cell: Mutex::new(None),
            ready: Condvar::new(),
            notifier,
            trace,
        }
    }

    /// Publishes the result, then wakes the waiter and calls the notifier.
    pub(crate) fn fulfill(&self, result: Result<ServeResponse, ServeError>) {
        let notify_early = mutation::slot_notify_early();
        if notify_early {
            // Mutation point: notifying before the result is published is
            // the lost-wakeup bug — the waiter can find the cell empty
            // under the lock, then sleep through this already-spent
            // notification forever. tests/model_slot.rs proves the checker
            // reports the resulting deadlock.
            self.ready.notify_all();
        }
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        *cell = Some(result);
        drop(cell);
        if !notify_early {
            self.ready.notify_all();
        }
        if let Some(notifier) = &self.notifier {
            notifier();
        }
    }

    /// Blocks until the result is published, then takes it.
    pub(crate) fn wait(&self) -> Result<ServeResponse, ServeError> {
        let mut cell = self.cell.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = self.ready.wait(cell).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Whether the result has been published (non-blocking).
    pub(crate) fn is_ready(&self) -> bool {
        self.cell
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }
}

#[cfg(quclassi_model)]
impl ResponseSlot {
    /// Model-suite constructor: a bare slot with no notifier and a dummy
    /// trace (the model tests exercise the rendezvous, not the timeline).
    pub(crate) fn model_new() -> Self {
        ResponseSlot::new(None, TraceState::new(0, Instant::now(), false))
    }
}

/// A submitted-but-not-yet-answered request (see [`Client::submit`]).
#[derive(Debug)]
pub struct PendingPrediction {
    slot: Arc<ResponseSlot>,
}

impl PendingPrediction {
    /// Blocks until this request is answered.
    pub fn wait(self) -> Result<ServeResponse, ServeError> {
        self.slot.wait()
    }

    /// Whether the response has arrived (non-blocking).
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }

    /// Takes the response if it has arrived (non-blocking); `None` while
    /// the request is still in flight. Once this returns `Some`, the slot
    /// is empty — a later [`PendingPrediction::wait`] would block forever,
    /// so consume the pending through exactly one of the two.
    pub fn take_if_ready(&self) -> Option<Result<ServeResponse, ServeError>> {
        self.slot
            .cell
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// The underlying slot, for wire frontends that stamp the write stage
    /// after the response bytes actually drain to the socket.
    pub(crate) fn trace_slot(&self) -> Arc<ResponseSlot> {
        Arc::clone(&self.slot)
    }
}

/// A queued request: everything the scheduler needs, with the per-request
/// work (resolution, validation, encoding) already done at admission.
pub(crate) struct Request {
    entry: Arc<ModelEntry>,
    angles: Vec<f64>,
    slot: Arc<ResponseSlot>,
    admitted: Instant,
}

pub(crate) struct Shared {
    pub(crate) queue: BoundedQueue<Request>,
    pub(crate) registry: ModelRegistry,
    pub(crate) executor: BatchExecutor,
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
    /// The installed shadow candidate, if any (see [`crate::shadow`]). The
    /// scheduler reads it once per flush, and admission to decide whether
    /// a request may run to completion; install/clear replace the whole
    /// `Arc`, so a cycle boundary never tears a report.
    pub(crate) shadow: RwLock<Option<Arc<ShadowState>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .field("queue_depth", &self.queue.depth())
            .field("models", &self.registry.names())
            .finish_non_exhaustive()
    }
}

/// The serving runtime: queue + scheduler + registry + metrics.
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
    scheduler: Option<JoinHandle<()>>,
}

impl ServeRuntime {
    /// Starts the runtime: validates `config`, then spawns the scheduler
    /// thread on top of `executor`.
    pub fn start(config: ServeConfig, executor: BatchExecutor) -> Result<Self, ServeError> {
        config.validate()?;
        let metrics = MetricsRegistry::new();
        let stats = RuntimeStats::register(&metrics);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::with_depth_gauge(config.queue_capacity, stats.queue_depth.clone()),
            registry: ModelRegistry::new(),
            executor,
            stats,
            metrics,
            trace: TraceRing::new(config.trace_capacity),
            next_trace_id: AtomicU64::new(1),
            config: config.clone(),
            started: Instant::now(),
            shadow: RwLock::new(None),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("quclassi-serve-scheduler".to_string())
                .spawn(move || scheduler_loop(&shared))
                .map_err(|e| ServeError::Io(format!("cannot spawn scheduler: {e}")))?
        };
        Ok(ServeRuntime {
            shared,
            scheduler: Some(scheduler),
        })
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
    /// deterministic fraction `rate` of scheduler flushes for `model` are
    /// mirrored onto the candidate *after* the live responses are
    /// fulfilled (user-visible output is bit-identical to a shadow-free
    /// run — see [`crate::shadow`]). Replaces any previously installed
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

    /// Gracefully shuts down: stops admitting, drains and answers every
    /// already-admitted request, joins the scheduler, and returns the
    /// final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        snapshot(&self.shared)
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
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
    /// Submits one request and blocks until its response.
    pub fn predict(&self, model: &str, x: &[f64]) -> Result<ServeResponse, ServeError> {
        self.submit(model, x)?.wait()
    }

    /// Submits one request without waiting. Resolution, validation and
    /// encoding run synchronously here (errors surface immediately);
    /// evaluation happens on the scheduler — or here too, for a request
    /// run to completion (see the module docs), in which case the returned
    /// pending is already answered.
    pub fn submit(&self, model: &str, x: &[f64]) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(model, x, None, None, false)
    }

    /// [`Client::submit`] with a [`CompletionNotifier`] invoked the moment
    /// the response is published. This is the non-blocking completion path
    /// the event-loop wire frontend multiplexes on: submit many requests,
    /// get woken once per completion, collect with
    /// [`PendingPrediction::take_if_ready`].
    pub fn submit_with_notifier(
        &self,
        model: &str,
        x: &[f64],
        notifier: CompletionNotifier,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(model, x, Some(notifier), None, false)
    }

    /// [`Client::submit_with_notifier`] for wire frontends: tags the
    /// request with the caller-derived trace id (or assigns one when the
    /// frame carried no `"id"`) and defers trace-ring recording to
    /// [`Client::finish_wire_write`], so the recorded timeline includes
    /// the socket write stage. A request run to completion is answered
    /// before this returns and does **not** invoke `notifier`: the
    /// frontend collects it right away instead of waking itself.
    pub(crate) fn submit_wire(
        &self,
        model: &str,
        x: &[f64],
        notifier: Option<CompletionNotifier>,
        trace_id: Option<u64>,
    ) -> Result<PendingPrediction, ServeError> {
        self.submit_inner(model, x, notifier, trace_id, true)
    }

    fn submit_inner(
        &self,
        model: &str,
        x: &[f64],
        notifier: Option<CompletionNotifier>,
        trace_id: Option<u64>,
        wire_managed: bool,
    ) -> Result<PendingPrediction, ServeError> {
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
        let trace = TraceState::new(trace_id, received, wire_managed);
        trace.encode_ns.store(encode_ns, Ordering::Relaxed);
        let inline = self.shared.runs_to_completion(&entry);
        // A wire frontend collects an inline answer as `submit_wire`
        // returns; waking its own shard for it would be a wasted round trip.
        let notifier = notifier.filter(|_| !(inline && wire_managed));
        let slot = Arc::new(ResponseSlot::new(notifier, trace));
        let request = Request {
            entry: Arc::clone(&entry),
            angles,
            slot: Arc::clone(&slot),
            admitted: Instant::now(),
        };
        // Counted under the queue lock, before the request can be answered.
        let count_admitted = || {
            self.shared.stats.admitted.inc();
            self.shared.stats.in_flight.add(1);
            entry.stats().admitted.inc();
        };
        let admitted = if inline {
            let running = self.shared.queue.admit_inline(count_admitted);
            running.map(|running| {
                let group = vec![(Arc::clone(&entry), vec![request])];
                let reason = flush_reason(1, self.shared.config.max_batch, false);
                // Product artifacts are deterministic: the seed is unused.
                serve_flush(&self.shared, group, reason, 0, 0, None);
                drop(running);
            })
        } else {
            self.shared.queue.try_push(request, count_admitted)
        };
        match admitted {
            Ok(()) => Ok(PendingPrediction { slot }),
            Err(e) => {
                self.shared.stats.rejected.inc();
                entry.stats().rejected.inc();
                Err(e)
            }
        }
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

    /// Stamps the wire-write stage on a completed request and records its
    /// span: called by wire frontends once the response bytes have drained
    /// to the socket (`write_ns` = response enqueued → drained).
    pub(crate) fn finish_wire_write(&self, slot: &ResponseSlot, write_ns: u64) {
        self.shared.stats.stage_write.record_ns(write_ns);
        let total_ns = slot.trace.received.elapsed().as_nanos() as u64;
        self.shared
            .trace
            .record(slot.trace.span(write_ns, total_ns));
    }
}

fn snapshot(shared: &Shared) -> MetricsSnapshot {
    shared.stats.snapshot(
        shared.started.elapsed(),
        shared.queue.capacity(),
        shared.queue.peak_depth(),
        shared.registry.draining(),
        shared.model_metrics(),
    )
}

impl Shared {
    /// Whether a request for `entry` runs to completion on its admitting
    /// thread: a zero batch window, a product-state artifact, and no
    /// shadow mirroring this model (mirroring and its p99 gate stay on the
    /// scheduler).
    fn runs_to_completion(&self, entry: &ModelEntry) -> bool {
        self.config.batch_window.is_zero()
            && entry.model().scores_product_states()
            && self
                .shadow
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .is_none_or(|shadow| shadow.model() != entry.name())
    }

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
        let p = quclassi_sim::profile::snapshot();
        let enabled = u64::from(quclassi_sim::profile::enabled());
        for (kind, name, value) in [
            ("gauge", "quclassi_sim_profile_enabled", enabled),
            // Always 0 (no kernel fuses gates); kept so scrapes keep the series.
            ("counter", "quclassi_sim_fused_groups_total", p.fused_groups),
            ("counter", "quclassi_sim_dense_sweeps_total", p.dense_sweeps),
            (
                "counter",
                "quclassi_sim_diagonal_sweeps_total",
                p.diagonal_sweeps,
            ),
            (
                "counter",
                "quclassi_sim_permutation_sweeps_total",
                p.permutation_sweeps,
            ),
            (
                "counter",
                "quclassi_sim_amplitudes_touched_total",
                p.amplitudes_touched,
            ),
        ] {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            metrics::append_sample(&mut out, name, &value.to_string());
        }
        out
    }
}

/// The scheduler: drains micro-batches, stamps each request's queue wait,
/// groups the batch by model entry and serves it.
fn scheduler_loop(shared: &Shared) {
    let mut flush_index: u64 = 0;
    while let Some((requests, reason)) = shared
        .queue
        .pop_batch(shared.config.max_batch, shared.config.batch_window)
    {
        let assemble_started = Instant::now();
        // Group by registry entry, preserving arrival order within each
        // group. Requests pin the entry that admitted them, so a batch
        // spanning a hot-swap serves each request on its own version.
        let mut groups: Vec<(Arc<ModelEntry>, Vec<Request>)> = Vec::new();
        for request in requests {
            // Queue wait ends at scheduler pickup; stamped per request.
            let queue_wait_ns = assemble_started
                .saturating_duration_since(request.admitted)
                .as_nanos() as u64;
            request
                .slot
                .trace
                .queue_wait_ns
                .store(queue_wait_ns, Ordering::Relaxed);
            match groups
                .iter_mut()
                .find(|(entry, _)| Arc::ptr_eq(entry, &request.entry))
            {
                Some((_, members)) => members.push(request),
                None => {
                    let entry = Arc::clone(&request.entry);
                    groups.push((entry, vec![request]));
                }
            }
        }
        // One assembly stamp per flush (drain → group → dispatch); requests
        // in later groups also wait behind earlier groups' compute, which
        // stays unattributed — hence stage-sum ≈ total, not ==.
        let assemble_ns = assemble_started.elapsed().as_nanos() as u64;
        // One seed per flush, split again per model group, so stochastic
        // streams are a pure function of (base_seed, flush index, group
        // index) — groups in the same flush never share streams.
        let flush_seed = BatchExecutor::job_seed(shared.config.base_seed, flush_index);
        flush_index += 1;
        // One shadow read per flush: install/clear between flushes, never
        // mid-flush.
        let shadow = shared
            .shadow
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        serve_flush(
            shared,
            groups,
            reason,
            assemble_ns,
            flush_seed,
            shadow.as_ref(),
        );
    }
}

/// Serves one flush on the calling thread: evaluates each model group,
/// accounts and fulfils every request, then mirrors the group onto
/// `shadow` if it drew a mirror. The scheduler calls it for every batch it
/// pops; a request run to completion is a flush of one on its admitting
/// thread, with no queue wait, no assembly and no shadow.
fn serve_flush(
    shared: &Shared,
    groups: Vec<(Arc<ModelEntry>, Vec<Request>)>,
    reason: FlushReason,
    assemble_ns: u64,
    flush_seed: u64,
    shadow: Option<&Arc<ShadowState>>,
) {
    let batch_len = groups.iter().map(|(_, members)| members.len()).sum();
    shared.stats.record_flush(batch_len, reason);
    for (group_index, (entry, mut members)) in groups.into_iter().enumerate() {
        let angles: Vec<Vec<f64>> = members
            .iter_mut()
            .map(|r| std::mem::take(&mut r.angles))
            .collect();
        let seed = BatchExecutor::job_seed(flush_seed, group_index as u64);
        // Decide mirroring before the live evaluation (the angles are
        // consumed by it), but run the candidate only *after* every user
        // slot is fulfilled: live responses, seeds and ordering are
        // untouched by the presence of a shadow.
        let mirror = shadow
            .filter(|s| s.model() == entry.name() && s.should_mirror())
            .map(Arc::clone);
        let mirror_angles = mirror.as_ref().map(|_| angles.clone());
        let eval_started = Instant::now();
        let outcome = entry
            .model()
            .predict_many_from_angles(angles, &shared.executor, seed);
        let live_elapsed = eval_started.elapsed();
        let compute_ns = live_elapsed.as_nanos() as u64;
        let batch_size = members.len() as u64;
        // A failed live evaluation fails every member (each still gets a
        // complete trace lifecycle) and drops the mirrored copy: a
        // candidate is never judged on traffic the live model could not
        // serve either.
        let (predictions, error) = match outcome {
            Ok(predictions) => (predictions, None),
            Err(e) => (Vec::new(), Some(ServeError::Model(e))),
        };
        let live_labels: Option<Vec<usize>> = mirror
            .as_ref()
            .filter(|_| error.is_none())
            .map(|_| predictions.iter().map(|p| p.label).collect());
        let mut predictions = predictions.into_iter();
        for request in members {
            let result = match predictions.next() {
                Some(prediction) => {
                    let latency_ns = request.admitted.elapsed().as_nanos() as u64;
                    shared.stats.latency.record_ns(latency_ns);
                    entry.stats().latency.record_ns(latency_ns);
                    shared.stats.completed.inc();
                    entry.stats().completed.inc();
                    Ok(ServeResponse {
                        model: entry.name().to_string(),
                        version: entry.version(),
                        prediction,
                    })
                }
                None => {
                    shared.stats.failed.inc();
                    entry.stats().failed.inc();
                    Err(error.clone().expect("one prediction per member on success"))
                }
            };
            finish_request(shared, &request, assemble_ns, compute_ns, batch_size);
            request.slot.fulfill(result);
        }
        if let (Some(state), Some(angles), Some(labels)) = (mirror, mirror_angles, live_labels) {
            shadow_evaluate(shared, &state, angles, &labels, live_elapsed, seed);
        }
    }
}

/// Final per-request stage bookkeeping, just before fulfilment: stamps the
/// assemble/compute stages and batch size, records the stage histograms
/// (queue wait as stamped at scheduler pickup, 0 for a request run to
/// completion), releases the in-flight gauge, and — for
/// in-process requests, which have no write stage — records the completed
/// span into the trace ring. Wire-managed requests defer recording to
/// [`Client::finish_wire_write`] so the span includes the socket drain.
fn finish_request(
    shared: &Shared,
    request: &Request,
    assemble_ns: u64,
    compute_ns: u64,
    batch_size: u64,
) {
    let trace = &request.slot.trace;
    let queue_wait_ns = trace.queue_wait_ns.load(Ordering::Relaxed);
    shared.stats.stage_queue_wait.record_ns(queue_wait_ns);
    shared.stats.stage_assemble.record_ns(assemble_ns);
    shared.stats.stage_compute.record_ns(compute_ns);
    trace.assemble_ns.store(assemble_ns, Ordering::Relaxed);
    trace.compute_ns.store(compute_ns, Ordering::Relaxed);
    trace.batch_size.store(batch_size, Ordering::Relaxed);
    shared.stats.in_flight.sub(1);
    if !trace.wire_managed {
        // Record before fulfil: a local waiter that returns from `wait`
        // can immediately find its own lifecycle in the ring.
        let total_ns = trace.received.elapsed().as_nanos() as u64;
        shared.trace.record(trace.span(0, total_ns));
    }
}

/// Runs one mirrored group on the shadow candidate and folds the outcome
/// into its report. Runs on the scheduler thread (shadowed models never
/// run to completion), strictly after the group's user slots were
/// fulfilled from the live model.
fn shadow_evaluate(
    shared: &Shared,
    state: &ShadowState,
    angles: Vec<Vec<f64>>,
    live_labels: &[usize],
    live_elapsed: Duration,
    live_seed: u64,
) {
    let requests = angles.len() as u64;
    // A seed stream disjoint from every live group's (group indices are
    // tiny; u64::MAX is unreachable), so stochastic candidates cannot
    // consume or perturb live randomness.
    let shadow_seed = BatchExecutor::job_seed(live_seed, u64::MAX);
    let started = Instant::now();
    match state
        .candidate()
        .predict_many_from_angles(angles, &shared.executor, shadow_seed)
    {
        Ok(predictions) => {
            let agreements = live_labels
                .iter()
                .zip(&predictions)
                .filter(|(live, shadow)| **live == shadow.label)
                .count() as u64;
            state.record_batch(requests, agreements, live_elapsed, started.elapsed());
            shared.stats.shadow_batches.inc();
            shared.stats.shadow_requests.add(requests);
        }
        Err(_) => {
            state.record_failure(requests);
            shared.stats.shadow_batches.inc();
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
            max_batch: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
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
        for window_us in [0u64, 100, 5000] {
            let rt = runtime(ServeConfig {
                batch_window: Duration::from_micros(window_us),
                ..Default::default()
            });
            rt.deploy("m", compiled(3)).unwrap();
            let client = rt.client();
            for (x, want) in xs.iter().zip(direct.iter()) {
                let got = client.predict("m", x).unwrap();
                assert_eq!(&got.prediction, want, "window {window_us}µs");
                assert_eq!(got.version, 1);
            }
            rt.shutdown();
        }
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
        // A runtime whose scheduler is effectively stalled behind a huge
        // window cannot drain; a capacity-2 queue must reject the third
        // concurrent submission.
        let rt = runtime(ServeConfig {
            queue_capacity: 2,
            max_batch: 64,
            batch_window: Duration::from_secs(5),
            ..Default::default()
        });
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        let a = client.submit("m", &[0.1; 4]).unwrap();
        let b = client.submit("m", &[0.2; 4]).unwrap();
        // The scheduler may have already drained 0, 1 or 2 of those into
        // its forming batch; fill whatever queue slack remains, then the
        // next submit must saturate.
        let mut pending = vec![a, b];
        let mut rejected = None;
        for i in 0..4 {
            match client.submit("m", &[0.05 + 0.01 * i as f64; 4]) {
                Ok(p) => pending.push(p),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let err = rejected.expect("queue should have saturated");
        assert_eq!(err.kind(), "saturated");
        assert!(err.is_retryable());
        // Shutdown drains the admitted requests; all pending slots resolve.
        let rt_metrics = rt.shutdown();
        for p in pending {
            assert!(p.wait().is_ok());
        }
        assert!(rt_metrics.rejected >= 1);
    }

    #[test]
    fn shutdown_drains_admitted_requests_and_rejects_new_ones() {
        let rt = runtime(ServeConfig {
            batch_window: Duration::from_millis(50),
            ..Default::default()
        });
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
        let rt = runtime(ServeConfig {
            batch_window: Duration::from_millis(20),
            max_batch: 8,
            ..Default::default()
        });
        rt.deploy("m", compiled(1)).unwrap();
        let client = rt.client();
        // Submit a burst without waiting, so the scheduler can batch them.
        let pending: Vec<PendingPrediction> = (0..8)
            .map(|i| client.submit("m", &[0.05 + 0.1 * i as f64; 4]).unwrap())
            .collect();
        for p in pending {
            p.wait().unwrap();
        }
        let m = rt.shutdown();
        assert_eq!(m.completed, 8);
        assert!(m.batches >= 1 && m.batches <= 8);
        assert_eq!(m.batched_requests, 8);
        assert!(m.mean_batch_occupancy() >= 1.0);
        assert_eq!(m.latency.count(), 8);
        assert!(m.latency.quantile_ns(0.5) > 0);
        assert!(m.throughput_rps() > 0.0);
        assert_eq!(m.models.len(), 1);
        assert_eq!(m.models[0].stats.completed, 8);
        assert_eq!(m.models[0].stats.latency.count(), 8);
    }

    #[test]
    fn wire_submissions_answered_inline_do_not_fire_the_notifier() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let notifier: CompletionNotifier = {
            let fired = Arc::clone(&fired);
            Arc::new(move || {
                fired.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            })
        };
        for (window, inline) in [(Duration::ZERO, true), (Duration::from_secs(5), false)] {
            let rt = runtime(ServeConfig {
                batch_window: window,
                ..Default::default()
            });
            rt.deploy("m", compiled(1)).unwrap();
            let before = fired.load(std::sync::atomic::Ordering::Relaxed);
            let pending = rt
                .client()
                .submit_wire("m", &[0.3; 4], Some(Arc::clone(&notifier)), Some(7))
                .unwrap();
            assert_eq!(pending.is_ready(), inline);
            let metrics = rt.shutdown();
            assert_eq!(metrics.completed, 1);
            let notified = fired.load(std::sync::atomic::Ordering::Relaxed) - before;
            assert_eq!(notified, usize::from(!inline), "window {window:?}");
        }
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
