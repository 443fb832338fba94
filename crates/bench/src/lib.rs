//! # quclassi-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation section (see DESIGN.md §6 for the experiment index).
//! Each figure/table has a dedicated binary under `src/bin/`; Criterion
//! micro-benchmarks live under `benches/`.
//!
//! The library part of the crate provides what those binaries share:
//!
//! * [`report`] — a tabular experiment report that prints to the terminal and
//!   writes a TSV file under `target/experiments/`;
//! * [`data`] — dataset preparation pipelines (Iris, PCA-reduced synthetic
//!   MNIST digit subsets) matching the paper's preprocessing;
//! * [`runtime`] — the `QUCLASSI_QUICK` switch that shrinks workloads for
//!   smoke runs;
//! * [`bench_json`] — the writer of the `BENCH_*.json` reports the
//!   criterion benches keep at the workspace root, each stamped with the
//!   host it was measured on.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

/// Tabular experiment reports.
pub mod report {
    use std::fs;
    use std::path::PathBuf;

    /// A named table of experiment results.
    #[derive(Clone, Debug)]
    pub struct ExperimentReport {
        /// Experiment identifier, e.g. `fig9_mnist_binary`.
        pub name: String,
        /// Column headers.
        pub columns: Vec<String>,
        /// Rows of cells, aligned with `columns`.
        pub rows: Vec<Vec<String>>,
    }

    impl ExperimentReport {
        /// Creates an empty report.
        pub fn new(name: &str, columns: &[&str]) -> Self {
            ExperimentReport {
                name: name.to_string(),
                columns: columns.iter().map(|c| c.to_string()).collect(),
                rows: Vec::new(),
            }
        }

        /// Appends a row (must match the column count).
        pub fn add_row(&mut self, cells: Vec<String>) {
            assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
            self.rows.push(cells);
        }

        /// Renders an aligned text table.
        pub fn to_table(&self) -> String {
            let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
            for row in &self.rows {
                for (w, cell) in widths.iter_mut().zip(row.iter()) {
                    *w = (*w).max(cell.len());
                }
            }
            let mut out = String::new();
            let header: Vec<String> = self
                .columns
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out.push_str(&header.join("  "));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
            out.push('\n');
            for row in &self.rows {
                let line: Vec<String> = row
                    .iter()
                    .zip(widths.iter())
                    .map(|(c, w)| format!("{c:<w$}"))
                    .collect();
                out.push_str(&line.join("  "));
                out.push('\n');
            }
            out
        }

        /// Prints the table with a heading.
        pub fn print(&self) {
            println!("\n== {} ==", self.name);
            println!("{}", self.to_table());
        }

        /// Writes the report as a TSV file under `target/experiments/` and
        /// returns the path. Failures to write are reported but not fatal.
        pub fn save_tsv(&self) -> Option<PathBuf> {
            let dir = PathBuf::from("target/experiments");
            if let Err(e) = fs::create_dir_all(&dir) {
                eprintln!("warning: could not create {dir:?}: {e}");
                return None;
            }
            let path = dir.join(format!("{}.tsv", self.name));
            let mut content = self.columns.join("\t");
            content.push('\n');
            for row in &self.rows {
                content.push_str(&row.join("\t"));
                content.push('\n');
            }
            match fs::write(&path, content) {
                Ok(()) => Some(path),
                Err(e) => {
                    eprintln!("warning: could not write {path:?}: {e}");
                    None
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn table_rendering_aligns_columns() {
            let mut r = ExperimentReport::new("demo", &["task", "accuracy"]);
            r.add_row(vec!["(3,6)".into(), "0.978".into()]);
            r.add_row(vec!["ten-class".into(), "0.78".into()]);
            let t = r.to_table();
            assert!(t.contains("task"));
            assert!(t.lines().count() >= 4);
        }

        #[test]
        #[should_panic(expected = "row width mismatch")]
        fn row_width_checked() {
            let mut r = ExperimentReport::new("demo", &["a", "b"]);
            r.add_row(vec!["only one".into()]);
        }
    }
}

/// Runtime knobs shared by the experiment binaries.
pub mod runtime {
    /// True when the `QUCLASSI_QUICK` environment variable is set to a
    /// non-empty, non-"0" value: binaries then shrink sample counts and epoch
    /// counts so a full figure regenerates in seconds rather than minutes.
    pub fn quick() -> bool {
        std::env::var("QUCLASSI_QUICK")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    }

    /// Picks between the full and the quick value of a workload knob.
    pub fn scaled(full: usize, quick_value: usize) -> usize {
        if quick() {
            quick_value
        } else {
            full
        }
    }
}

/// The `BENCH_*.json` reports of the criterion benches, and the timing
/// helper their numbers come from.
pub mod bench_json {
    use quclassi_serve::json::Json;
    use std::process::Command;

    /// The workspace root, where the reports live.
    const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    /// Trimmed stdout of a command run at the workspace root, or
    /// `"unknown"` when it cannot run or fails.
    fn command_output(program: &str, args: &[&str]) -> String {
        Command::new(program)
            .args(args)
            .current_dir(ROOT)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|text| text.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    }

    /// The host a report is measured on: core count, CPU model (from
    /// `/proc/cpuinfo`), `rustc --version` and the `git rev-parse HEAD`
    /// commit. A figure that cannot be read is `"unknown"`.
    fn host() -> Json {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
            .map_or("unknown", |(_, model)| model.trim());
        let sha = command_output("git", &["rev-parse", "HEAD"]);
        Json::obj(vec![
            ("cores", Json::Num(cores as f64)),
            ("cpu", Json::str(cpu)),
            ("rustc", Json::str(command_output("rustc", &["--version"]))),
            ("git_sha", Json::str(sha)),
        ])
    }

    /// Renders the report of `bench`: `bench`, `smoke` and the `host`
    /// stamp, then each `(key, JSON value text)` section in order.
    fn render(bench: &str, smoke: bool, sections: &[(&str, String)]) -> String {
        let mut out = format!(
            "{{\n  \"bench\": {},\n  \"smoke\": {smoke},\n  \"host\": {}",
            Json::str(bench),
            host()
        );
        for (key, value) in sections {
            out.push_str(&format!(",\n  {}: {value}", Json::str(*key)));
        }
        out + "\n}\n"
    }

    /// Prints the report of `bench`. Unless `smoke`, it also replaces
    /// `BENCH_<bench>.json` at the workspace root; smoke runs exercise the
    /// paths but must not overwrite the committed numbers with
    /// single-repetition noise.
    pub fn emit(bench: &str, smoke: bool, sections: &[(&str, String)]) {
        let json = render(bench, smoke, sections);
        if smoke {
            println!("smoke mode: skipping BENCH_{bench}.json update");
        } else {
            let path = format!("{ROOT}/BENCH_{bench}.json");
            match std::fs::write(&path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        print!("{json}");
    }

    /// Median wall-clock nanoseconds of `reps` runs of `f`.
    pub fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
        let mut samples: Vec<f64> = (0..reps)
            .map(|_| {
                let start = std::time::Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// A JSON array of pre-rendered entries, one per line.
    pub fn array(entries: &[String]) -> String {
        format!("[\n{}\n  ]", entries.join(",\n"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn reports_parse_and_carry_the_host_stamp() {
            let sections = [
                ("reps", "3".to_string()),
                ("workloads", array(&["    {\"x\": 1}".to_string()])),
            ];
            let text = render("demo", true, &sections);
            let report = Json::parse(&text).expect("a report is valid JSON");
            assert_eq!(report.get("bench").and_then(Json::as_str), Some("demo"));
            assert_eq!(report.get("reps").and_then(Json::as_u64), Some(3));
            let stamp = report.get("host").expect("host stamp");
            assert!(stamp.get("cores").and_then(Json::as_u64).unwrap() >= 1);
            for key in ["cpu", "rustc", "git_sha"] {
                assert!(!stamp.get(key).and_then(Json::as_str).unwrap().is_empty());
            }
            let workloads = report.get("workloads").and_then(Json::as_arr).unwrap();
            assert_eq!(workloads[0].get("x").and_then(Json::as_u64), Some(1));
        }
    }
}

/// Dataset preparation pipelines shared by the experiment binaries.
pub mod data {
    use quclassi_classical::pca::Pca;
    use quclassi_datasets::dataset::Dataset;
    use quclassi_datasets::preprocess::MinMaxScaler;
    use quclassi_datasets::{iris, mnist};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A normalised train/test pair ready for quantum encoding.
    #[derive(Clone, Debug)]
    pub struct PreparedTask {
        /// Training split (features in [0, 1]).
        pub train: Dataset,
        /// Test split (features in [0, 1]).
        pub test: Dataset,
        /// Human-readable task name, e.g. `mnist(3,6)@16d`.
        pub name: String,
    }

    /// Prepares the Iris task: stratified 70/30 split, min–max normalised to
    /// [0, 1] with statistics from the training split.
    pub fn iris_task(seed: u64) -> PreparedTask {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = iris::load();
        let (train_raw, test_raw) = dataset.stratified_split(0.7, &mut rng);
        let scaler = MinMaxScaler::fit(&train_raw.features);
        let mut train = train_raw.clone();
        train.features = scaler.transform(&train_raw.features);
        let mut test = test_raw.clone();
        test.features = scaler.transform(&test_raw.features);
        PreparedTask {
            train,
            test,
            name: "iris@4d".to_string(),
        }
    }

    /// Prepares a synthetic-MNIST digit-subset task: generates the digits,
    /// PCA-reduces to `dims` components (PCA fitted on the training split),
    /// then min–max normalises into [0, 1].
    ///
    /// `digits` selects and orders the classes (e.g. `&[3, 6]` for the (3,6)
    /// binary task); `per_class` is the number of *training* images per
    /// class; a further `per_class / 3 + 5` images per class form the test
    /// split.
    pub fn mnist_task(digits: &[usize], dims: usize, per_class: usize, seed: u64) -> PreparedTask {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let test_per_class = per_class / 3 + 5;
        let full = mnist::generate(per_class + test_per_class, seed);
        let subset = full.filter_classes(digits);
        // Split per class: first `per_class` samples train, rest test.
        let mut train_features = Vec::new();
        let mut train_labels = Vec::new();
        let mut test_features = Vec::new();
        let mut test_labels = Vec::new();
        let mut seen = vec![0usize; digits.len()];
        for (x, &y) in subset.features.iter().zip(subset.labels.iter()) {
            if seen[y] < per_class {
                train_features.push(x.clone());
                train_labels.push(y);
            } else {
                test_features.push(x.clone());
                test_labels.push(y);
            }
            seen[y] += 1;
        }
        // PCA on the raw pixels of the training split.
        let pca = Pca::fit(&train_features, dims, &mut rng);
        let train_z = pca.transform(&train_features);
        let test_z = pca.transform(&test_features);
        let scaler = MinMaxScaler::fit(&train_z);
        let train = Dataset::new(scaler.transform(&train_z), train_labels, digits.len());
        let test = Dataset::new(scaler.transform(&test_z), test_labels, digits.len());
        let digit_list: Vec<String> = digits.iter().map(|d| d.to_string()).collect();
        PreparedTask {
            train,
            test,
            name: format!("mnist({})@{}d", digit_list.join(","), dims),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn iris_task_is_normalised_and_split() {
            let t = iris_task(1);
            assert_eq!(t.train.dim(), 4);
            assert_eq!(t.train.num_classes, 3);
            assert!(!t.test.is_empty());
            for row in t.train.features.iter().chain(t.test.features.iter()) {
                for &v in row {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
        }

        #[test]
        fn mnist_task_reduces_and_relabels() {
            let t = mnist_task(&[3, 6], 8, 12, 3);
            assert_eq!(t.train.dim(), 8);
            assert_eq!(t.train.num_classes, 2);
            assert_eq!(t.train.class_counts(), vec![12, 12]);
            assert!(!t.test.is_empty());
            for row in &t.test.features {
                for &v in row {
                    assert!((0.0..=1.0).contains(&v));
                }
            }
            assert!(t.name.contains("3,6"));
        }
    }
}
