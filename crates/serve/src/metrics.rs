//! Serving metrics: the central registry, lock-free latency histograms,
//! per-model counters, the runtime-wide snapshot, and the tables that
//! declare every series once.
//!
//! Everything on the hot path is a relaxed atomic — recording a latency or
//! bumping a counter never takes a lock, so metrics cannot perturb the
//! batching behaviour they measure. Quantiles come from a fixed
//! power-of-two-bucketed histogram: each observation lands in bucket
//! `floor(log2(ns))` (zero allocation, O(64) snapshot cost), and read-outs
//! interpolate linearly *within* the landing bucket by the requested
//! rank's position among the bucket's entries. The raw bucketing alone is
//! only exact to within a factor of 2, which made distinct load points
//! report byte-identical p50 and p99 (e.g. 11.6/11.6 µs) whenever both
//! ranks landed in the same bucket; the sub-bucket interpolation keeps the
//! lock-free recording path untouched while separating quantiles that
//! differ in rank, not just in bucket. Exact lock-free min/max accompany
//! every histogram, and quantile read-outs are clamped into `[min, max]`
//! so interpolation can never report a value outside what was observed.
//!
//! ## The registry
//!
//! [`MetricsRegistry`] is the single namespace every serving metric lives
//! in: counters, gauges, float gauges, and histograms are registered once
//! by name and handed back as cheap cloneable handles ([`Counter`],
//! [`Gauge`], [`FloatGauge`], `Arc<`[`LatencyHistogram`]`>`) that write
//! with relaxed atomics. [`MetricsRegistry::expose`] renders the whole
//! namespace as Prometheus-style text so it can be scraped or diffed
//! without JSON parsing. Names follow
//! `quclassi_<area>_<metric>[_total|_ns]` — `_total` for monotone
//! counters, `_ns` for nanosecond histograms, labels in `{key="value"}`
//! form for per-shard / per-model series.
//!
//! ## One declaration per metric
//!
//! Every runtime-wide series is one row of the `runtime_metrics!` table
//! below: `field: kind "exposition_name" => "json.key"` under its doc
//! comment. The row yields the hot-path handle in [`RuntimeStats`], its
//! registration (and so its exposition series), the typed
//! [`MetricsSnapshot`] field, and its row of [`RUNTIME_COLUMNS`], which
//! renders the JSON `metrics` op. Per-model and encoding-cache series are
//! read from each model's snapshot at scrape time through
//! [`MODEL_COLUMNS`] and [`CACHE_COLUMNS`], which render both the JSON
//! `models[]` objects and the `{model="…"}` text series; they stay per
//! registry entry, so a hot-swap starts the new version from zero and
//! the registry does not grow with promotions.

use crate::json::Json;
use crate::mutation;
use crate::quclassi_sync::atomic::{AtomicU64, Ordering};
use crate::quclassi_sync::{Arc, Mutex};
use quclassi_infer::CacheStats;
use std::time::Duration;

/// Number of histogram buckets: one per possible `floor(log2)` of a `u64`
/// nanosecond count.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free latency histogram with power-of-two buckets and exact
/// min/max tracking.
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    total_ns: AtomicU64,
    /// Smallest observation; `u64::MAX` until the first record.
    min_ns: AtomicU64,
    /// Largest observation; 0 until the first record.
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `ns` nanoseconds.
    ///
    /// Write order is load-bearing for [`LatencyHistogram::snapshot`]:
    /// the bucket count is bumped *first* and the nanosecond sum is
    /// published *second* with `Release`. A snapshot that observes an
    /// observation's nanoseconds is thereby guaranteed to also observe
    /// its count, so a concurrent snapshot's mean can only be skewed
    /// *downward* (extra count, missing nanoseconds), never upward.
    pub fn record_ns(&self, ns: u64) {
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        // A read-modify-write only for a new extreme: the extremes only
        // ever move outward, so a load that already shows `ns` inside
        // them shows an extreme the RMW would have kept.
        if ns < self.min_ns.load(Ordering::Relaxed) {
            self.min_ns.fetch_min(ns, Ordering::Relaxed);
        }
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
        self.total_ns.fetch_add(ns, mutation::histogram_total());
    }

    /// An immutable copy of the current counts.
    ///
    /// The nanosecond sum is read *before* the bucket counts (the mirror
    /// of [`LatencyHistogram::record_ns`]'s write order, paired via
    /// `Acquire`/`Release` on `total_ns`): every observation whose
    /// nanoseconds made it into the sum has its count visible by the time
    /// the buckets are read. Racing recorders can therefore only leave a
    /// snapshot with *more* counts than summed nanoseconds — the reported
    /// mean is exact in quiescence and a lower bound under concurrency,
    /// never inflated.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let total_ns = self.total_ns.load(Ordering::Acquire);
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (slot, c) in counts.iter_mut().zip(self.counts.iter()) {
            *slot = c.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            total_ns,
            min_ns: self.min_ns.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`], with quantile read-outs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; HISTOGRAM_BUCKETS],
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded observations, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.total_ns
    }

    /// Smallest recorded observation in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.min_ns == u64::MAX {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded observation in nanoseconds (0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Per-bucket counts, for exposition rendering.
    pub(crate) fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Mean observation in nanoseconds (0.0 when empty). The mean is exact
    /// — it is computed from the true sum, not from bucket midpoints.
    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.total_ns as f64 / n as f64
        }
    }

    /// The approximate `q`-quantile in nanoseconds (`q` clamped to
    /// `[0, 1]`); 0 when the histogram is empty.
    ///
    /// The observation with rank `ceil(q·n)` is located in its log2
    /// bucket, then interpolated linearly across the bucket's span
    /// `[2^b, 2^(b+1))` by the rank's midpoint position among the
    /// bucket's entries (the entries are assumed uniformly spread across
    /// the span). Two quantiles whose ranks differ therefore read out
    /// differently even when both land in the same bucket — the raw
    /// bucket midpoint used to collapse them into identical values.
    /// Interpolated values are clamped into the exact observed
    /// `[min, max]` range, so the worst-case read-out (p100) is the true
    /// maximum rather than a bucket-granular estimate.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        // The extreme ranks are tracked exactly — no interpolation needed.
        if self.min_ns <= self.max_ns {
            if rank == 1 {
                return self.min_ns;
            }
            if rank == n {
                return self.max_ns;
            }
        }
        let mut seen = 0u64;
        for (bucket, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            if seen >= rank {
                // Rank position among this bucket's entries, midpoint
                // rule: the k-th of c entries sits at (k − ½)/c of the
                // bucket span. Bucket b spans [2^b, 2^(b+1)); the span is
                // narrowed to the observed [min, max] range where they
                // overlap (the buckets holding the extremes), so quantiles
                // stay distinct even when every observation shares one
                // bucket instead of collapsing to the clamped maximum.
                let into = rank - (seen - c);
                let mut low = (1u64 << bucket) as f64;
                let mut high = low * 2.0;
                if self.min_ns <= self.max_ns {
                    low = low.max(self.min_ns as f64);
                    high = high.min(self.max_ns as f64 + 1.0).max(low);
                }
                let position = (into as f64 - 0.5) / c as f64;
                return self.clamp_to_observed((low + (high - low) * position).round() as u64);
            }
        }
        u64::MAX
    }

    /// Clamps an interpolated quantile into the observed `[min, max]`
    /// range. Skipped when the tracked extremes are inconsistent
    /// (`min > max`), which happens transiently when a snapshot races a
    /// recorder between its count and min/max updates.
    fn clamp_to_observed(&self, ns: u64) -> u64 {
        if self.min_ns <= self.max_ns {
            ns.clamp(self.min_ns, self.max_ns)
        } else {
            ns
        }
    }

    /// Median latency in microseconds.
    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.50) as f64 / 1_000.0
    }

    /// 90th-percentile latency in microseconds.
    pub fn p90_us(&self) -> f64 {
        self.quantile_ns(0.90) as f64 / 1_000.0
    }

    /// 99th-percentile latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.quantile_ns(0.99) as f64 / 1_000.0
    }
}

/// A monotonically increasing counter handle.
///
/// Cheap to clone (an `Arc` around one atomic); all writes are relaxed
/// single instructions. Handed out by [`MetricsRegistry::counter`] — or
/// free-standing via `Counter::default()` for unregistered use in tests.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down (queue depth, open
/// connections, in-flight requests).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements by `n`, saturating at zero (a racing double-decrement
    /// must read as an empty gauge, not wrap to 2^64).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (accuracies, ratios), stored as raw bits in
/// one atomic so reads and writes stay lock-free and tear-free.
#[derive(Clone, Debug)]
pub struct FloatGauge(Arc<AtomicU64>);

impl Default for FloatGauge {
    fn default() -> Self {
        FloatGauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl FloatGauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// One registered metric.
#[derive(Debug)]
struct Metric {
    name: String,
    kind: MetricKind,
}

#[derive(Debug)]
enum MetricKind {
    Counter(Counter),
    Gauge(Gauge),
    FloatGauge(FloatGauge),
    Histogram(Arc<LatencyHistogram>),
}

impl MetricKind {
    fn type_name(&self) -> &'static str {
        match self {
            MetricKind::Counter(_) => "counter",
            MetricKind::Gauge(_) | MetricKind::FloatGauge(_) => "gauge",
            MetricKind::Histogram(_) => "histogram",
        }
    }
}

/// The registry's typed register-or-get methods, one per handle kind:
/// `method -> Handle: MetricKind variant`.
macro_rules! register_methods {
    ($($(#[doc = $doc:literal])+ $method:ident -> $handle:ty: $variant:ident;)+) => {
        $($(#[doc = $doc])+
        pub fn $method(&self, name: &str) -> $handle {
            self.register_or_get(name, MetricKind::$variant, |kind| match kind {
                MetricKind::$variant(handle) => Some(handle.clone()),
                _ => None,
            })
        })+
    };
}

/// The central namespace of named serving metrics.
///
/// Registration is register-or-get: asking for an existing name of the
/// same kind returns a handle to the *same* underlying metric (so shards,
/// frontends and the runtime can share series without plumbing), while a
/// kind mismatch panics — that is a naming bug, not a runtime condition.
/// Registration takes a lock; the returned handles never do.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<Vec<Metric>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn register_or_get<T: Clone + Default>(
        &self,
        name: &str,
        wrap: fn(T) -> MetricKind,
        get: fn(&MetricKind) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        if let Some(existing) = metrics.iter().find(|m| m.name == name) {
            return get(&existing.kind).unwrap_or_else(|| {
                panic!(
                    "metric {name:?} already registered as a {}",
                    existing.kind.type_name()
                )
            });
        }
        let handle = T::default();
        metrics.push(Metric {
            name: name.to_string(),
            kind: wrap(handle.clone()),
        });
        handle
    }

    register_methods! {
        /// Registers (or retrieves) a counter.
        counter -> Counter: Counter;
        /// Registers (or retrieves) a gauge.
        gauge -> Gauge: Gauge;
        /// Registers (or retrieves) a float gauge.
        float_gauge -> FloatGauge: FloatGauge;
        /// Registers (or retrieves) a latency histogram.
        histogram -> Arc<LatencyHistogram>: Histogram;
    }

    /// Registered metric names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.metrics
            .lock()
            .expect("metrics registry poisoned")
            .iter()
            .map(|m| m.name.clone())
            .collect()
    }

    /// Renders every registered metric as Prometheus-style text.
    ///
    /// One `# TYPE` line per metric family (the name with any `{…}` label
    /// suffix stripped), then the sample lines. Histograms render
    /// cumulative `_bucket{le="…"}` series over their non-empty log2
    /// buckets plus `_sum`, `_count`, and the exact `_min`/`_max`.
    pub fn expose(&self) -> String {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(metrics.len() * 64);
        let mut typed: Vec<&str> = Vec::new();
        for m in metrics.iter() {
            let base = family_name(&m.name);
            if !typed.contains(&base) {
                typed.push(base);
                out.push_str("# TYPE ");
                out.push_str(base);
                out.push(' ');
                out.push_str(m.kind.type_name());
                out.push('\n');
            }
            let histogram;
            let sample = match &m.kind {
                MetricKind::Counter(c) => Sample::Int(c.get()),
                MetricKind::Gauge(g) => Sample::Int(g.get()),
                MetricKind::FloatGauge(g) => Sample::Float(g.get()),
                MetricKind::Histogram(h) => {
                    histogram = h.snapshot();
                    Sample::Histogram(&histogram)
                }
            };
            sample.expose(&mut out, &m.name);
        }
        out
    }
}

/// The metric-family name: the registered name with any label suffix
/// stripped.
fn family_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

pub(crate) fn append_sample(out: &mut String, name: &str, value: &str) {
    out.push_str(name);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Formats an `f64` for exposition (finite shortest-form, `NaN`/`±Inf`
/// spelled the Prometheus way).
pub(crate) fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Renders one histogram snapshot in exposition form. Shared by the
/// registry (registered histograms) and the runtime's dynamic per-model
/// series.
pub(crate) fn expose_histogram(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    // `base{labels}`: the bucket series add `le` to the labels, the
    // summary series put a suffix on the base name.
    let (base, labels) = name.split_once('{').map_or((name, ""), |(base, rest)| {
        (base, rest.strip_suffix('}').unwrap_or(rest))
    });
    let bucket = |le: &str| match labels {
        "" => format!("{base}_bucket{{le=\"{le}\"}}"),
        _ => format!("{base}_bucket{{{labels}, le=\"{le}\"}}"),
    };
    let mut cumulative = 0u64;
    for (bucket_index, &c) in snap.bucket_counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        // Bucket b spans [2^b, 2^(b+1)): its inclusive upper bound.
        let le = match bucket_index {
            63 => u64::MAX,
            b => (1u64 << (b + 1)) - 1,
        };
        append_sample(out, &bucket(&le.to_string()), &cumulative.to_string());
    }
    append_sample(out, &bucket("+Inf"), &cumulative.to_string());
    let labels = match labels {
        "" => String::new(),
        _ => format!("{{{labels}}}"),
    };
    for (suffix, value) in [
        ("_sum", snap.sum_ns()),
        ("_count", snap.count()),
        ("_min", snap.min_ns()),
        ("_max", snap.max_ns()),
    ] {
        append_sample(out, &format!("{base}{suffix}{labels}"), &value.to_string());
    }
}

/// Escapes a label value for exposition (`\` → `\\`, `"` → `\"`,
/// newline → `\n`).
pub(crate) fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Lock-free per-model counters, owned by a registry entry and shared by
/// every request that resolves to it.
#[derive(Debug, Default)]
pub struct ModelStats {
    pub(crate) admitted: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) rejected: Counter,
    pub(crate) latency: LatencyHistogram,
}

impl ModelStats {
    /// An immutable copy of the counters.
    pub fn snapshot(&self) -> ModelStatsSnapshot {
        ModelStatsSnapshot {
            admitted: self.admitted.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            rejected: self.rejected.get(),
            latency: self.latency.snapshot(),
        }
    }
}

/// A point-in-time copy of one model's serving counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModelStatsSnapshot {
    /// Requests admitted to the queue for this model.
    pub admitted: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that failed during batch evaluation.
    pub failed: u64,
    /// Requests rejected at admission (invalid input or queue saturated).
    pub rejected: u64,
    /// End-to-end (admission → reply) latency histogram.
    pub latency: HistogramSnapshot,
}

/// Why a flush happened. Every request runs to completion as a flush of
/// one, counted as [`FlushReason::Deadline`]; the other reasons are kept
/// so their counters keep their series and read 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The batch reached the configured size target.
    Size,
    /// The batching window expired (or was zero) before the target filled.
    Deadline,
    /// The runtime is draining at shutdown.
    Close,
}

/// One series' value read from a snapshot.
#[derive(Clone, Copy, Debug)]
enum Sample<'a> {
    Int(u64),
    Float(f64),
    Histogram(&'a HistogramSnapshot),
}

impl Sample<'_> {
    fn to_json(self) -> Json {
        match self {
            Sample::Int(v) => Json::Num(v as f64),
            Sample::Float(v) => Json::Num(v),
            Sample::Histogram(h) => Json::obj(vec![
                ("count", Json::Num(h.count() as f64)),
                ("mean_us", Json::Num(h.mean_ns() / 1_000.0)),
                ("p50_us", Json::Num(h.p50_us())),
                ("p99_us", Json::Num(h.p99_us())),
            ]),
        }
    }

    fn expose(self, out: &mut String, name: &str) {
        match self {
            Sample::Int(v) => append_sample(out, name, &v.to_string()),
            Sample::Float(v) => append_sample(out, name, &format_f64(v)),
            Sample::Histogram(h) => expose_histogram(out, name, h),
        }
    }
}

/// One row of a metrics table: a series' exposition name, its JSON key,
/// its kind, and how to read it from a snapshot of type `T`.
pub struct Column<T> {
    /// Exposition family name.
    pub name: &'static str,
    /// Key in the JSON `metrics` op; a dotted key (`stages.encode`) nests
    /// inside an object. Histograms render as
    /// `{count, mean_us, p50_us, p99_us}`.
    pub json: &'static str,
    /// The exposition `# TYPE`: `counter`, `gauge` or `histogram`.
    pub kind: &'static str,
    read: fn(&T) -> Sample<'_>,
}

/// One table row: `column!(kind "exposition_name" => "json.key", |snapshot| value)`.
macro_rules! column {
    ($kind:ident $name:literal => $json:literal, |$v:ident| $read:expr) => {
        Column {
            name: $name,
            json: $json,
            kind: series!(kind $kind),
            read: |$v| series!(sample $kind, $read),
        }
    };
}

/// What each series kind maps to: its registry handle, its snapshot value,
/// how a handle is read, how a value is sampled, and its `# TYPE`.
macro_rules! series {
    (handle counter) => { Counter };
    (handle gauge) => { Gauge };
    (handle float_gauge) => { FloatGauge };
    (handle histogram) => { Arc<LatencyHistogram> };
    (value float_gauge) => { f64 };
    (value histogram) => { HistogramSnapshot };
    (value $other:ident) => { u64 };
    (read histogram, $h:expr) => { $h.snapshot() };
    (read $other:ident, $h:expr) => { $h.get() };
    (sample float_gauge, $v:expr) => { Sample::Float($v) };
    (sample histogram, $v:expr) => { Sample::Histogram(&$v) };
    (sample $other:ident, $v:expr) => { Sample::Int($v) };
    (kind float_gauge) => { "gauge" };
    (kind $kind:ident) => { stringify!($kind) };
}

/// Declares every runtime-wide series once. Each row
/// `field: kind "exposition_name" => "json.key"` yields the hot-path handle
/// `RuntimeStats::field` registered under `exposition_name` (so the text
/// exposition renders it), the typed `MetricsSnapshot::field`, and its row
/// of [`RUNTIME_COLUMNS`], which renders the JSON `metrics` op.
macro_rules! runtime_metrics {
    ($($(#[doc = $doc:literal])+ $field:ident: $kind:ident $name:literal => $json:literal,)+) => {
        /// Runtime-wide counters, gauges, and histograms: every field is a
        /// handle into one shared [`MetricsRegistry`], so the same values
        /// are readable as typed fields (hot paths, [`MetricsSnapshot`])
        /// and as named series in the text exposition.
        #[derive(Debug)]
        pub struct RuntimeStats {
            $($(#[doc = $doc])+ pub(crate) $field: series!(handle $kind),)+
        }

        impl RuntimeStats {
            /// Registers every runtime-wide metric into `registry` and
            /// returns the handle bundle. Calling twice against one
            /// registry returns handles to the *same* series
            /// (register-or-get).
            pub(crate) fn register(registry: &MetricsRegistry) -> Self {
                RuntimeStats {
                    $($field: registry.$kind($name),)+
                }
            }

            /// Reads every series, next to the figures the runtime keeps
            /// outside the registry.
            pub(crate) fn snapshot(
                &self,
                uptime: Duration,
                queue_capacity: usize,
                draining_models: usize,
                models: Vec<ModelMetrics>,
            ) -> MetricsSnapshot {
                MetricsSnapshot {
                    uptime,
                    queue_capacity,
                    peak_queue_depth: 0,
                    draining_models,
                    $($field: series!(read $kind, self.$field),)+
                    models,
                }
            }
        }

        /// Point-in-time metrics of the whole runtime (see
        /// [`crate::Client::metrics`]).
        #[derive(Clone, Debug)]
        pub struct MetricsSnapshot {
            /// Time since the runtime started.
            pub uptime: Duration,
            /// Configured cap on requests admitted and not yet answered
            /// (`ServeConfig::queue_capacity`).
            pub queue_capacity: usize,
            /// High-water mark of the queue depth: always 0, since no
            /// request is queued.
            pub peak_queue_depth: usize,
            /// Retired (hot-swapped-out) versions still serving in-flight
            /// requests.
            pub draining_models: usize,
            $($(#[doc = $doc])+ pub $field: series!(value $kind),)+
            /// Per-model metrics, sorted by name.
            pub models: Vec<ModelMetrics>,
        }

        /// Every runtime-wide series, in registration (and so exposition)
        /// order.
        pub const RUNTIME_COLUMNS: &[Column<MetricsSnapshot>] = &[
            $(column!($kind $name => $json, |s| s.$field),)+
        ];
    };
}

runtime_metrics! {
    /// Requests admitted by the admission gate.
    admitted: counter "quclassi_serve_admitted_total" => "admitted",
    /// Requests rejected at admission (unknown model, invalid input,
    /// saturation, or shutdown): `admitted + rejected` reconstructs the
    /// offered load.
    rejected: counter "quclassi_serve_rejected_total" => "rejected",
    /// Requests answered successfully.
    completed: counter "quclassi_serve_completed_total" => "completed",
    /// Requests that failed during evaluation.
    failed: counter "quclassi_serve_failed_total" => "failed",
    /// Flushes: one per evaluated request (no request is batched).
    batches: counter "quclassi_serve_batches_total" => "batches",
    /// Total requests across all flushes (equal to `batches`).
    batched_requests: counter "quclassi_serve_batched_requests_total" => "batched_requests",
    /// Flushes that reached a size target: always 0.
    flush_on_size: counter "quclassi_serve_flush_size_total" => "flush_on_size",
    /// Flushes of one: every evaluated request.
    flush_on_deadline: counter "quclassi_serve_flush_deadline_total" => "flush_on_deadline",
    /// Flushes while draining at shutdown: always 0.
    flush_on_close: counter "quclassi_serve_flush_close_total" => "flush_on_close",
    /// Connections refused at the wire boundary (over the connection cap)
    /// with a retryable `saturated` error frame.
    wire_refusals: counter "quclassi_wire_refusals_total" => "wire_refusals",
    /// Refusals whose error frame could not be written to the peer. A
    /// refused client that also failed the write never *saw* the
    /// backpressure signal, so it is counted apart from a served refusal.
    refusal_write_failures: counter "quclassi_wire_refusal_write_failures_total" => "refusal_write_failures",
    /// Successful deploys through the runtime (initial deploys and
    /// online-learner candidate promotions alike).
    promotions: counter "quclassi_online_promotions_total" => "promotions",
    /// Rollbacks to a name's previous artifact (each redeployed as a new
    /// monotonic version, so a rollback never reuses a version number).
    rollbacks: counter "quclassi_online_rollbacks_total" => "rollbacks",
    /// Online-learner candidates that failed validation, compilation, the
    /// promotion gate, or the deploy warm-up; none reached the registry.
    candidates_rejected: counter "quclassi_online_candidates_rejected_total" => "candidates_rejected",
    /// Training cycles the online learner has started.
    train_cycles: counter "quclassi_online_train_cycles_total" => "train_cycles",
    /// Trainer panics caught and survived by the online learner.
    learner_panics: counter "quclassi_online_learner_panics_total" => "learner_panics",
    /// Requests mirrored to a shadow candidate, failed mirrors included.
    shadow_batches: counter "quclassi_online_shadow_batches_total" => "shadow_batches",
    /// Requests duplicated onto a shadow candidate (user responses always
    /// come from the live model only).
    shadow_requests: counter "quclassi_online_shadow_requests_total" => "shadow_requests",
    /// Requests currently queued: always 0, since no request is queued.
    queue_depth: gauge "quclassi_serve_queue_depth" => "queue_depth",
    /// Requests admitted but not yet answered (mid-evaluation).
    in_flight: gauge "quclassi_serve_in_flight" => "in_flight",
    /// Open wire connections across all frontends and shards.
    wire_connections: gauge "quclassi_wire_connections" => "wire_connections",
    /// Live-model holdout accuracy from the latest online-learner cycle.
    online_live_accuracy: float_gauge "quclassi_online_live_accuracy" => "online_live_accuracy",
    /// Candidate holdout accuracy from the latest cycle that trained one.
    online_candidate_accuracy: float_gauge "quclassi_online_candidate_accuracy" => "online_candidate_accuracy",
    /// Index of the most recently completed online-learner cycle.
    online_last_cycle: gauge "quclassi_online_last_cycle" => "online_last_cycle",
    /// End-to-end (admission → reply) latency across all models.
    latency: histogram "quclassi_serve_latency_ns" => "latency",
    /// Admission-side encoding (feature → rotation angles) stage.
    stage_encode: histogram "quclassi_serve_stage_encode_ns" => "stages.encode",
    /// Queue-wait stage: never recorded, since no request is queued.
    stage_queue_wait: histogram "quclassi_serve_stage_queue_wait_ns" => "stages.queue_wait",
    /// Batch-assembly stage: never recorded, since no request is batched.
    stage_assemble: histogram "quclassi_serve_stage_assemble_ns" => "stages.assemble",
    /// Compute stage: the `predict_from_angles` call, from the cache
    /// lookup to the scored prediction.
    stage_compute: histogram "quclassi_serve_stage_compute_ns" => "stages.compute",
    /// Wire write stage (response enqueued → bytes drained to the socket);
    /// empty for in-process requests, which have no write stage.
    stage_write: histogram "quclassi_serve_stage_write_ns" => "stages.write",
}

/// The `{model="…"}` series and `models[]` keys of each deployed model.
pub const MODEL_COLUMNS: &[Column<ModelMetrics>] = &[
    column!(gauge "quclassi_model_version" => "version", |m| m.version),
    column!(counter "quclassi_model_admitted_total" => "admitted", |m| m.stats.admitted),
    column!(counter "quclassi_model_completed_total" => "completed", |m| m.stats.completed),
    column!(counter "quclassi_model_failed_total" => "failed", |m| m.stats.failed),
    column!(counter "quclassi_model_rejected_total" => "rejected", |m| m.stats.rejected),
    column!(histogram "quclassi_model_latency_ns" => "latency", |m| m.stats.latency),
];

/// The encoding-cache series of each deployed model's active artifact,
/// labelled and keyed like [`MODEL_COLUMNS`].
pub const CACHE_COLUMNS: &[Column<CacheStats>] = &[
    column!(counter "quclassi_cache_hits_total" => "cache_hits", |c| c.hits),
    column!(counter "quclassi_cache_misses_total" => "cache_misses", |c| c.misses),
    column!(counter "quclassi_cache_evictions_total" => "cache_evictions", |c| c.evictions),
    column!(gauge "quclassi_cache_entries" => "cache_entries", |c| c.entries as u64),
    column!(gauge "quclassi_cache_capacity" => "cache_capacity", |c| c.capacity as u64),
];

/// Appends each column of `item` to a JSON object's fields, nesting a
/// dotted key inside the object its prefix names.
fn put_columns<T>(fields: &mut Vec<(String, Json)>, columns: &[Column<T>], item: &T) {
    for column in columns {
        let value = (column.read)(item).to_json();
        let Some((outer, inner)) = column.json.split_once('.') else {
            fields.push((column.json.to_string(), value));
            continue;
        };
        let at = match fields.iter().position(|(key, _)| key == outer) {
            Some(at) => at,
            None => {
                fields.push((outer.to_string(), Json::Obj(Vec::new())));
                fields.len() - 1
            }
        };
        if let Json::Obj(nested) = &mut fields[at].1 {
            nested.push((inner.to_string(), value));
        }
    }
}

/// Renders one `# TYPE` family per column, with one sample per labelled
/// item.
fn expose_columns<T>(out: &mut String, columns: &[Column<T>], items: &[(String, &T)]) {
    for column in columns {
        out.push_str(&format!("# TYPE {} {}\n", column.name, column.kind));
        for (label, item) in items {
            (column.read)(item).expose(out, &format!("{}{label}", column.name));
        }
    }
}

/// Point-in-time serving metrics for one deployed model.
#[derive(Clone, Debug)]
pub struct ModelMetrics {
    /// Registry name.
    pub name: String,
    /// Currently active version.
    pub version: u64,
    /// Admission/completion/failure/rejection counters + latency of the
    /// active version.
    pub stats: ModelStatsSnapshot,
    /// Encoding-fingerprint cache counters of the active artifact.
    pub cache: CacheStats,
}

impl ModelMetrics {
    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::str(self.name.clone()))];
        put_columns(&mut fields, MODEL_COLUMNS, self);
        put_columns(&mut fields, CACHE_COLUMNS, &self.cache);
        for (key, value) in [
            ("p50_us", self.stats.latency.p50_us()),
            ("p99_us", self.stats.latency.p99_us()),
            ("cache_hit_rate", self.cache.hit_rate()),
        ] {
            fields.push((key.to_string(), Json::Num(value)));
        }
        Json::Obj(fields)
    }
}

/// Appends the `{model="…"}` sections (model and cache tables) of the
/// text exposition; nothing when no model is deployed.
pub(crate) fn expose_models(out: &mut String, models: &[ModelMetrics]) {
    if models.is_empty() {
        return;
    }
    let labels: Vec<String> = models
        .iter()
        .map(|m| format!("{{model=\"{}\"}}", escape_label(&m.name)))
        .collect();
    let by_model: Vec<(String, &ModelMetrics)> = labels.iter().cloned().zip(models).collect();
    expose_columns(out, MODEL_COLUMNS, &by_model);
    let by_cache: Vec<(String, &CacheStats)> = labels
        .into_iter()
        .zip(models.iter().map(|m| &m.cache))
        .collect();
    expose_columns(out, CACHE_COLUMNS, &by_cache);
}

impl MetricsSnapshot {
    /// Completed requests per second of uptime.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Mean number of requests per flush (0.0 before the first flush):
    /// 1.0, since every request is a flush of one.
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batches as f64
        }
    }

    /// The JSON `metrics` op's object: every [`RUNTIME_COLUMNS`] series by
    /// its key, the figures derived from them, and one `models[]` object
    /// per model.
    pub(crate) fn to_json(&self) -> Json {
        let latency = &self.latency;
        let mut fields: Vec<(String, Json)> = [
            ("uptime_us", self.uptime.as_micros() as f64),
            ("queue_capacity", self.queue_capacity as f64),
            ("peak_queue_depth", self.peak_queue_depth as f64),
            ("draining_models", self.draining_models as f64),
            ("mean_batch_occupancy", self.mean_batch_occupancy()),
            ("throughput_rps", self.throughput_rps()),
            ("p50_us", latency.p50_us()),
            ("p90_us", latency.p90_us()),
            ("p99_us", latency.p99_us()),
            ("min_us", latency.min_ns() as f64 / 1_000.0),
            ("max_us", latency.max_ns() as f64 / 1_000.0),
        ]
        .into_iter()
        .map(|(key, value)| (key.to_string(), Json::Num(value)))
        .collect();
        put_columns(&mut fields, RUNTIME_COLUMNS, self);
        let models = self.models.iter().map(ModelMetrics::to_json).collect();
        fields.push(("models".to_string(), Json::Arr(models)));
        Json::Obj(fields)
    }
}

impl RuntimeStats {
    pub(crate) fn record_flush(&self, occupancy: usize, reason: FlushReason) {
        self.batches.inc();
        self.batched_requests.add(occupancy as u64);
        let counter = match reason {
            FlushReason::Size => &self.flush_on_size,
            FlushReason::Deadline => &self.flush_on_deadline,
            FlushReason::Close => &self.flush_on_close,
        };
        counter.inc();
    }
}

impl Default for RuntimeStats {
    /// Stand-alone stats backed by a private throwaway registry (tests,
    /// contexts with no exposition). The serving runtime registers into
    /// its shared registry via `RuntimeStats::register` instead.
    fn default() -> Self {
        Self::register(&MetricsRegistry::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_and_tracks_the_exact_mean() {
        let h = LatencyHistogram::new();
        for ns in [1u64, 2, 3, 1000, 1_000_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        assert!((s.mean_ns() - (1.0 + 2.0 + 3.0 + 1000.0 + 1_000_000.0) / 5.0).abs() < 1e-9);
        assert_eq!(s.sum_ns(), 1 + 2 + 3 + 1000 + 1_000_000);
    }

    #[test]
    fn min_max_track_exact_extremes() {
        let h = LatencyHistogram::new();
        let empty = h.snapshot();
        assert_eq!((empty.min_ns(), empty.max_ns()), (0, 0));
        for ns in [700u64, 3, 90_000, 41] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.min_ns(), 3);
        assert_eq!(s.max_ns(), 90_000);
        // Quantiles never leave the observed range, even at the extremes
        // where bucket interpolation alone would overshoot.
        assert!(s.quantile_ns(0.0) >= 3);
        assert_eq!(s.quantile_ns(1.0), 90_000);
    }

    #[test]
    fn single_observation_quantiles_collapse_to_the_observation() {
        // With exactly one observation, every quantile must read out the
        // observed value itself — min/max clamping pins the interpolation.
        let h = LatencyHistogram::new();
        h.record_ns(10_000);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile_ns(q), 10_000);
        }
    }

    #[test]
    fn quantiles_with_distinct_ranks_read_out_distinctly() {
        // Regression for the p50 == p99 collapse: 100 observations all in
        // the *same* log2 bucket used to report the identical bucket
        // midpoint for every quantile. Sub-bucket interpolation must
        // separate them monotonically.
        let h = LatencyHistogram::new();
        for i in 0..100u64 {
            h.record_ns(9_000 + 20 * i); // all inside bucket [8192, 16384)
        }
        let s = h.snapshot();
        let p50 = s.quantile_ns(0.50);
        let p90 = s.quantile_ns(0.90);
        let p99 = s.quantile_ns(0.99);
        assert!(p50 < p90 && p90 < p99, "p50={p50} p90={p90} p99={p99}");
        // All three stay inside the landing bucket's span.
        for q in [p50, p90, p99] {
            assert!((8192..16384).contains(&q), "quantile {q} left its bucket");
        }
    }

    #[test]
    fn quantiles_are_within_a_factor_of_two() {
        let h = LatencyHistogram::new();
        // 98 fast observations at ~10µs, 2 slow at ~10ms.
        for _ in 0..98 {
            h.record_ns(10_000);
        }
        for _ in 0..2 {
            h.record_ns(10_000_000);
        }
        let s = h.snapshot();
        let p50 = s.quantile_ns(0.50) as f64;
        assert!((5_000.0..=20_000.0).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile_ns(0.99) as f64;
        assert!((5_000_000.0..=20_000_000.0).contains(&p99), "p99 = {p99}");
        // The microsecond helpers agree with the raw read-outs.
        assert!((s.p50_us() - p50 / 1000.0).abs() < 1e-9);
        assert!((s.p99_us() - p99 / 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero_edge_cases() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile_ns(0.5), 0);
        assert_eq!(s.mean_ns(), 0.0);
        let h = LatencyHistogram::new();
        h.record_ns(0); // clamps into bucket 0 rather than panicking
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!((s.min_ns(), s.max_ns()), (0, 0));
    }

    #[test]
    fn concurrent_snapshots_never_inflate_the_mean() {
        use std::sync::atomic::AtomicBool;

        // Every recorded observation is exactly V ns, so any correct
        // snapshot has mean ≤ V: total_ns is k·V for the k observations
        // whose sum is visible, over a count m ≥ k. The pre-fix ordering
        // (count read before total) allowed m < k — a mean *above* V —
        // under recorder/reader races; hammer that interleaving.
        const V: u64 = 4096;
        let h = Arc::new(LatencyHistogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                // Record before the first look at `stop`, so every writer
                // contributes at least one observation however the
                // scheduler orders the threads.
                std::thread::spawn(move || loop {
                    h.record_ns(V);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                })
            })
            .collect();
        for _ in 0..20_000 {
            let s = h.snapshot();
            let (count, total) = (s.count(), s.mean_ns() * s.count() as f64);
            assert!(
                s.mean_ns() <= V as f64,
                "snapshot mean {} exceeds the only recorded value {V} \
                 (count {count}, total {total})",
                s.mean_ns()
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Quiescent snapshot: the mean is exact again.
        let s = h.snapshot();
        assert!(s.count() >= 4, "each writer records at least once");
        assert_eq!(s.mean_ns(), V as f64);
        assert_eq!((s.min_ns(), s.max_ns()), (V, V));
    }

    #[test]
    fn concurrent_recording_counts_never_exceed_observations() {
        use std::sync::atomic::AtomicBool;

        // Proptest-style stress: N writers record while a reader snapshots.
        // Each writer publishes how many observations it has *finished*
        // (after record_ns returns). A snapshot taken at any moment may see
        // in-progress observations, so its count is bounded by the number
        // finished *after* it completes; and every quantile/extreme must
        // stay within the only values ever recorded.
        const VALUES: [u64; 3] = [1_000, 30_000, 2_000_000];
        let h = Arc::new(LatencyHistogram::new());
        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                let finished = Arc::clone(&finished);
                std::thread::spawn(move || {
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        h.record_ns(VALUES[i % VALUES.len()]);
                        finished.fetch_add(1, Ordering::Release);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..10_000 {
            let before = finished.load(Ordering::Acquire);
            let s = h.snapshot();
            // Upper bound: finished-after + one in-flight per writer.
            let after = finished.load(Ordering::Acquire);
            assert!(s.count() >= before.saturating_sub(4));
            assert!(
                s.count() <= after + 4,
                "count {} exceeds observations {}",
                s.count(),
                after + 4
            );
            if s.count() > 0 {
                let (min, max) = (s.min_ns(), s.max_ns());
                assert!(VALUES.contains(&min) || min == 0, "min {min} unobserved");
                assert!(VALUES.contains(&max) || max == 0, "max {max} unobserved");
                if min <= max && max > 0 {
                    let p99 = s.quantile_ns(0.99);
                    assert!(p99 >= min && p99 <= max, "p99 {p99} outside [{min},{max}]");
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        // Quiescent: count is exactly the number of finished observations.
        assert_eq!(h.snapshot().count(), finished.load(Ordering::Acquire));
    }

    #[test]
    fn flush_reasons_are_counted_separately() {
        let stats = RuntimeStats::default();
        stats.record_flush(4, FlushReason::Size);
        stats.record_flush(1, FlushReason::Deadline);
        stats.record_flush(2, FlushReason::Close);
        stats.record_flush(8, FlushReason::Size);
        assert_eq!(stats.batches.get(), 4);
        assert_eq!(stats.batched_requests.get(), 15);
        assert_eq!(stats.flush_on_size.get(), 2);
        assert_eq!(stats.flush_on_deadline.get(), 1);
        assert_eq!(stats.flush_on_close.get(), 1);
    }

    #[test]
    fn registry_register_or_get_shares_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("demo_total");
        let b = reg.counter("demo_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let g = reg.gauge("demo_gauge");
        g.set(7);
        g.add(3);
        g.sub(4);
        assert_eq!(reg.gauge("demo_gauge").get(), 6);
        g.sub(100); // saturates, never wraps
        assert_eq!(g.get(), 0);
        let f = reg.float_gauge("demo_ratio");
        f.set(0.25);
        assert_eq!(reg.float_gauge("demo_ratio").get(), 0.25);
        let h = reg.histogram("demo_ns");
        h.record_ns(5);
        assert_eq!(reg.histogram("demo_ns").snapshot().count(), 1);
        assert_eq!(
            reg.names(),
            vec!["demo_total", "demo_gauge", "demo_ratio", "demo_ns"]
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("oops");
        reg.gauge("oops");
    }

    #[test]
    fn exposition_renders_every_metric_kind() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total").add(41);
        reg.gauge("x_depth").set(3);
        reg.float_gauge("x_ratio").set(0.5);
        let h = reg.histogram("x_ns");
        h.record_ns(100);
        h.record_ns(300);
        reg.gauge("x_shard{shard=\"0\"}").set(2);
        reg.gauge("x_shard{shard=\"1\"}").set(5);
        let text = reg.expose();
        assert!(text.contains("# TYPE x_total counter\nx_total 41\n"));
        assert!(text.contains("# TYPE x_depth gauge\nx_depth 3\n"));
        assert!(text.contains("x_ratio 0.5\n"));
        assert!(text.contains("# TYPE x_ns histogram\n"));
        // 100 lands in [64,128) → le=127; 300 in [256,512) → le=511.
        assert!(text.contains("x_ns_bucket{le=\"127\"} 1\n"), "{text}");
        assert!(text.contains("x_ns_bucket{le=\"511\"} 2\n"), "{text}");
        assert!(text.contains("x_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("x_ns_sum 400\n"));
        assert!(text.contains("x_ns_count 2\n"));
        assert!(text.contains("x_ns_min 100\n"));
        assert!(text.contains("x_ns_max 300\n"));
        // Labeled series share one TYPE line for the family.
        assert_eq!(text.matches("# TYPE x_shard gauge").count(), 1);
        assert!(text.contains("x_shard{shard=\"0\"} 2\n"));
        assert!(text.contains("x_shard{shard=\"1\"} 5\n"));
    }

    #[test]
    fn runtime_stats_register_exposes_every_counter() {
        let reg = MetricsRegistry::new();
        let stats = RuntimeStats::register(&reg);
        stats.promotions.inc();
        stats.refusal_write_failures.add(2);
        let text = reg.expose();
        for column in RUNTIME_COLUMNS {
            let type_line = format!("# TYPE {} {}\n", column.name, column.kind);
            assert!(text.contains(&type_line), "exposition missing {type_line}");
        }
        assert_eq!(reg.names().len(), RUNTIME_COLUMNS.len());
        assert!(text.contains("quclassi_online_promotions_total 1\n"));
        assert!(text.contains("quclassi_wire_refusal_write_failures_total 2\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
