//! Order statistics and process figures shared by every workload.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentiles of any number of samples (µs) in fixed memory, so that the
/// benchmark's own storage does not grow with the program's throughput
/// and show up in `peak_rss_mb`. Samples fall into buckets 0.1 % wide on a
/// log scale; a percentile reads the mean of the samples in its bucket.
#[derive(Clone, Default)]
pub struct Histogram {
    /// (samples, their sum) per bucket; bucket 0 holds everything at or
    /// below 1 ns, zeros included.
    buckets: Vec<(u64, f64)>,
    count: u64,
}

impl Histogram {
    pub fn record(&mut self, us: f64) {
        let i = if us <= 1e-3 {
            0
        } else {
            1 + ((us * 1e3).ln() / 1.001f64.ln()) as usize
        };
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, (0, 0.0));
        }
        self.buckets[i].0 += 1;
        self.buckets[i].1 += us;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sample of rank `q·(count − 1)`, to 0.1 %; `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = (q.clamp(0.0, 1.0) * self.count.saturating_sub(1) as f64).round() as u64;
        let mut seen = 0;
        for &(n, sum) in &self.buckets {
            seen += n;
            if n > 0 && seen > rank {
                return sum / n as f64;
            }
        }
        f64::NAN
    }
}

/// One round of a run: the operations it completed and their wall time.
pub struct Round {
    pub ops: u64,
    pub secs: f64,
}

/// Operations per second over the rounds' summed wall time.
pub fn throughput(rounds: &[Round]) -> f64 {
    let ops: u64 = rounds.iter().map(|r| r.ops).sum();
    let secs: f64 = rounds.iter().map(|r| r.secs).sum();
    ops as f64 / secs
}

/// Mean microseconds per call of `f` over `calls` back-to-back calls: for
/// functions too quick to time one call at a time.
pub fn per_call_us(calls: usize, f: &mut dyn FnMut()) -> f64 {
    let started = std::time::Instant::now();
    for _ in 0..calls {
        f();
    }
    1e6 * started.elapsed().as_secs_f64() / calls as f64
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn histogram_quantiles_are_within_a_tenth_of_a_percent() {
        let values: Vec<f64> = (0..10_000).map(|i| 0.5 + (i as f64).powf(1.5)).collect();
        let mut h = Histogram::default();
        values.iter().for_each(|&v| h.record(v));
        h.record(0.0);
        assert_eq!(h.count(), 10_001);
        assert_eq!(h.quantile(0.0), 0.0);
        for q in [0.5, 0.9, 0.99, 1.0] {
            let want = quantile(&values, q);
            assert!((h.quantile(q) - want).abs() <= 2e-3 * want, "q {q}");
        }
        assert!(Histogram::default().quantile(0.5).is_nan());
    }

    #[test]
    fn throughput_sums_the_rounds() {
        let rounds = [Round { ops: 10, secs: 1.0 }, Round { ops: 30, secs: 2.0 }];
        assert!((throughput(&rounds) - 40.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
