//! The QuClassi benchmark: one workload per process, inputs generated from
//! a seed, outputs checked against computations made apart from the
//! program, and one JSON result line on standard output.
//!
//! ```text
//! quclassi-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with the simulator's profile counters on and prints the
//! per-layer metrics. `--smoke` runs one round after one set-up. See
//! README.md for the workloads, the metrics and the steadiness figures.

mod data;
mod oracle;
mod serve;
mod stats;
mod train;

use quclassi_serve::json::Json;
use std::time::Duration;

/// The workloads. `BENCHMARK.json` lists the two serving ones; the two
/// training ones run the same way but spread too much between runs on a
/// shared host to gate on (see README.md).
const WORKLOADS: [&str; 4] = [
    "train-mnist-qcs",
    "train-mnist-qcsde",
    "wire-iris-analytic",
    "serve-mnist17-swap",
];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// A run that is still going after this long is stopped with an error
/// rather than left hanging.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Parsed command line.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Options {
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// What a run prints: operation counts, check failures and metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    errors: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed output check; the first few are printed to stderr.
    pub fn error(&mut self, message: String) {
        self.errors += 1;
        if self.errors <= 10 {
            eprintln!("check failed: {message}");
        }
    }

    /// The end-to-end metrics other than `peak_rss_mb`, and the p99 with
    /// its sample count on standard error as a reference figure.
    pub fn end_to_end(
        &mut self,
        setup_secs: &[f64],
        rounds: &[stats::Round],
        latencies: &stats::Histogram,
    ) {
        self.metric("setup_s", stats::median(setup_secs), "s");
        self.metric("throughput_per_s", stats::throughput(rounds), "1/s");
        self.metric("p50_us", latencies.quantile(0.5), "us");
        self.metric("p90_us", latencies.quantile(0.9), "us");
        eprintln!(
            "reference: p99_us {} over {} samples",
            latencies.quantile(0.99),
            latencies.count()
        );
    }

    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.error(e);
        }
    }

    pub fn check_all(&mut self, errors: &[String]) {
        for e in errors {
            self.error(e.clone());
        }
    }

    fn to_json(&self) -> Json {
        let correct = self.errors == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(*unit)),
                ]);
                (name.clone(), entry)
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

fn parse_args() -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, got {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if opts.smoke {
        opts.seconds = 0.0;
    }
    Ok((workload, opts))
}

fn main() {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("quclassi-perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("quclassi-perfbench: still running after {WATCHDOG:?}, giving up");
        std::process::exit(3);
    });
    // Traced runs count simulator work; untraced runs leave the counters
    // off, as a serving process does by default.
    quclassi_sim::profile::set_enabled(opts.trace);

    let mut report = Report::default();
    match workload.as_str() {
        "train-mnist-qcs" => train::run(true, &opts, &mut report),
        "train-mnist-qcsde" => train::run(false, &opts, &mut report),
        "wire-iris-analytic" => serve::run(true, &opts, &mut report),
        _ => serve::run(false, &opts, &mut report),
    }
    if !opts.trace {
        report.metric("peak_rss_mb", stats::peak_rss_mib(), "MiB");
    }
    println!("{}", report.to_json());
}
