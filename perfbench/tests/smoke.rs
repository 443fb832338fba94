//! Runs every workload in smoke mode, untraced and traced, and checks the
//! result line against the metric lists in `BENCHMARK.json`.

use quclassi_serve::json::Json;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Json, key: &str, field: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} list"))
        .iter()
        .map(|entry| {
            entry
                .get(field)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        })
        .collect()
}

/// Runs the benchmark with space-separated `args`.
fn run(args: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_quclassi-perfbench"))
        .args(args.split(' '))
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    (out.status.success(), stdout)
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    let spec = benchmark_json();
    let mut workloads = names(&spec, "workloads", "name");
    // Not gated, but kept runnable: see README.md.
    workloads.extend([
        "train-mnist-qcs".to_string(),
        "train-mnist-qcsde".to_string(),
    ]);
    for workload in workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run(&format!(
                "--workload {workload} --seed 7 --seconds 1 --trace {trace} --smoke"
            ));
            assert!(ok, "{workload} --trace {trace} exited with an error");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            let field = |key: &str| result.get(key).cloned();
            assert_eq!(
                field("correct"),
                Some(Json::Bool(true)),
                "{workload}: {last}"
            );
            assert_eq!(field("failed"), Some(Json::Num(0.0)), "{workload}: {last}");
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let Some(Json::Obj(printed)) = field("metrics") else {
                panic!("{workload}: no metrics object")
            };
            let mut printed: Vec<String> = printed.into_iter().map(|(k, _)| k).collect();
            let mut wanted = names(&spec, list, "name");
            printed.sort();
            wanted.sort();
            assert_eq!(printed, wanted, "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        "--workload no-such-workload --seed 1 --seconds 1 --trace 0",
        "--workload wire-iris-analytic --seed x --seconds 1 --trace 0",
        "--workload wire-iris-analytic --seed 1 --seconds 1 --trace 2",
        "--seed 1",
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.is_empty(), "{args}");
    }
}
