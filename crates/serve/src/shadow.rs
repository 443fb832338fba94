//! Shadow evaluation: mirror a deterministic fraction of live traffic onto
//! a candidate artifact without touching user-visible responses.
//!
//! A shadow is installed per runtime (at most one at a time — the online
//! learner evaluates one candidate per cycle). A request for the shadowed
//! model name *may* send its already-encoded angles to the candidate a
//! second time — on the admitting thread, after the live answer is fixed
//! and accounted, on a disjoint RNG stream. Users therefore receive
//! responses that are bit-identical to a shadow-disabled run; the
//! candidate's predictions are folded into the [`ShadowReport`] (volume,
//! failures, label agreement, and separate live/candidate compute-latency
//! histograms) that feeds the promotion gate.
//!
//! Mirroring is governed by a **deterministic rate accumulator**, not a
//! coin flip: with rate `r`, every eligible request adds `r` to a running
//! credit and is mirrored exactly when the credit reaches 1 — so a rate of
//! 0.25 mirrors precisely every 4th eligible request, and a
//! fault-injection schedule replays identically run after run.

use crate::metrics::{HistogramSnapshot, LatencyHistogram};
use quclassi_infer::CompiledModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Point-in-time results of a shadow evaluation (see
/// [`crate::ServeRuntime::shadow_report`]).
#[derive(Clone, Debug)]
pub struct ShadowReport {
    /// Registry name whose traffic is mirrored.
    pub model: String,
    /// Caller-chosen tag (the online learner uses its cycle index).
    pub tag: u64,
    /// Requests mirrored onto the candidate.
    pub requests: u64,
    /// Mirrors attempted: one per mirrored request, whether the candidate
    /// answered it or failed.
    pub batches: u64,
    /// Mirrored requests the candidate failed to evaluate. Any failure
    /// disqualifies a candidate: the same traffic succeeded on the live
    /// model.
    pub failures: u64,
    /// Mirrored requests where the candidate agreed with the live label.
    pub agreements: u64,
    /// Compute latency of the *live* evaluation of mirrored requests.
    pub live_latency: HistogramSnapshot,
    /// Compute latency of the candidate evaluation of the same requests.
    pub candidate_latency: HistogramSnapshot,
}

impl ShadowReport {
    /// Fraction of mirrored requests where candidate and live agreed
    /// (1.0 when nothing was mirrored — no evidence of disagreement).
    pub fn agreement_rate(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.agreements as f64 / self.requests as f64
        }
    }

    /// Candidate p99 over live p99 on the mirrored traffic (1.0 when there
    /// is no data; the live p99 is floored at 1µs so an idle-fast live
    /// model cannot produce an unbounded ratio).
    pub fn p99_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 1.0;
        }
        let live = (self.live_latency.quantile_ns(0.99) as f64).max(1_000.0);
        self.candidate_latency.quantile_ns(0.99) as f64 / live
    }
}

/// Scheduler-facing state of one installed shadow.
#[derive(Debug)]
pub(crate) struct ShadowState {
    model: String,
    tag: u64,
    candidate: Arc<CompiledModel>,
    rate: f64,
    /// Mirroring credit, taken once per request for the shadowed model.
    credit: Mutex<f64>,
    requests: AtomicU64,
    batches: AtomicU64,
    failures: AtomicU64,
    agreements: AtomicU64,
    live_latency: LatencyHistogram,
    candidate_latency: LatencyHistogram,
}

impl ShadowState {
    pub(crate) fn new(model: &str, candidate: CompiledModel, rate: f64, tag: u64) -> Self {
        ShadowState {
            model: model.to_string(),
            tag,
            candidate: Arc::new(candidate),
            rate,
            credit: Mutex::new(0.0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            agreements: AtomicU64::new(0),
            live_latency: LatencyHistogram::new(),
            candidate_latency: LatencyHistogram::new(),
        }
    }

    pub(crate) fn model(&self) -> &str {
        &self.model
    }

    pub(crate) fn candidate(&self) -> &Arc<CompiledModel> {
        &self.candidate
    }

    /// Deterministic rate gate: accumulate `rate` per eligible request and
    /// mirror whenever the credit crosses 1.
    pub(crate) fn should_mirror(&self) -> bool {
        let mut credit = self.credit.lock().unwrap_or_else(|e| e.into_inner());
        *credit += self.rate;
        if *credit >= 1.0 {
            *credit -= 1.0;
            true
        } else {
            false
        }
    }

    /// Records one request the candidate answered.
    pub(crate) fn record(&self, agreed: bool, live_elapsed: Duration, candidate_elapsed: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.agreements
            .fetch_add(u64::from(agreed), Ordering::Relaxed);
        self.live_latency.record_ns(live_elapsed.as_nanos() as u64);
        self.candidate_latency
            .record_ns(candidate_elapsed.as_nanos() as u64);
    }

    /// Records a mirrored request the candidate failed to evaluate.
    pub(crate) fn record_failure(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn report(&self) -> ShadowReport {
        ShadowReport {
            model: self.model.clone(),
            tag: self.tag,
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            agreements: self.agreements.load(Ordering::Relaxed),
            live_latency: self.live_latency.snapshot(),
            candidate_latency: self.candidate_latency.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate() -> CompiledModel {
        crate::test_artifact(0, 2)
    }

    #[test]
    fn rate_accumulator_is_exact_and_deterministic() {
        let state = ShadowState::new("m", candidate(), 0.25, 0);
        let pattern: Vec<bool> = (0..12).map(|_| state.should_mirror()).collect();
        // Every 4th request mirrors, starting at the 4th.
        let want: Vec<bool> = (1..=12).map(|i| i % 4 == 0).collect();
        assert_eq!(pattern, want);
        // Rate 1.0 mirrors every request.
        let state = ShadowState::new("m", candidate(), 1.0, 0);
        assert!((0..8).all(|_| state.should_mirror()));
        // A second identically-configured state replays the same pattern.
        let again = ShadowState::new("m", candidate(), 0.25, 0);
        let replay: Vec<bool> = (0..12).map(|_| again.should_mirror()).collect();
        assert_eq!(replay, pattern);
    }

    #[test]
    fn fractional_rates_mirror_the_right_share() {
        let state = ShadowState::new("m", candidate(), 0.3, 0);
        let mirrored = (0..1000).filter(|_| state.should_mirror()).count() as i64;
        // The credit accumulator sums 0.3 a thousand times, so float
        // rounding may shift one firing across the boundary.
        assert!(
            (mirrored - 300).abs() <= 1,
            "rate 0.3 must mirror ~30%, got {mirrored}"
        );
    }

    #[test]
    fn report_aggregates_batches_and_agreement() {
        let state = ShadowState::new("m", candidate(), 1.0, 7);
        state.record(true, Duration::from_micros(10), Duration::from_micros(30));
        state.record(true, Duration::from_micros(10), Duration::from_micros(30));
        state.record(false, Duration::from_micros(10), Duration::from_micros(10));
        state.record_failure();
        let report = state.report();
        assert_eq!(report.tag, 7);
        assert_eq!(report.batches, 4);
        assert_eq!(report.requests, 3);
        assert_eq!(report.agreements, 2);
        assert_eq!(report.failures, 1);
        assert!((report.agreement_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.live_latency.count(), 3);
        assert_eq!(report.candidate_latency.count(), 3);
        // The candidate was slower on the mirrored traffic (30µs vs 10µs
        // per request at the tail), so the p99 ratio exceeds 1.
        assert!(report.p99_ratio() > 1.0);
    }

    #[test]
    fn empty_report_defaults_are_benign() {
        let state = ShadowState::new("m", candidate(), 0.5, 0);
        let report = state.report();
        assert_eq!(report.requests, 0);
        assert_eq!(report.agreement_rate(), 1.0);
        assert_eq!(report.p99_ratio(), 1.0);
    }
}
