//! Byte-for-byte regression of the fig/table binaries' quick mode.
//!
//! Each test runs one binary with `QUCLASSI_QUICK=1` in a fresh working
//! directory and compares its stdout and the TSV it writes to
//! `target/experiments/` with the files committed under `results/quick/`.
//! Wall-clock columns are masked on both sides before comparing.
//!
//! A change that moves an output re-baselines the file: run the binary
//! with `QUCLASSI_QUICK=1` from an empty directory, copy its stdout and
//! TSV into `results/quick/`, mask any wall-clock column with `*`, and
//! state the reason and the largest deviation in CHANGES.md.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Replaces every numeric cell at or after byte `column` of a table row
/// with `*`: the wall-clock column of an aligned stdout table.
fn mask_table_column(text: &str, header: &str) -> String {
    let Some(column) = text.lines().find_map(|l| l.find(header)) else {
        return text.to_string();
    };
    text.lines()
        .map(|line| match line.get(column..) {
            Some(cell) if cell.trim().parse::<f64>().is_ok() => format!("{}*", &line[..column]),
            _ => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + if text.ends_with('\n') { "\n" } else { "" }
}

/// Replaces the numeric cells of TSV column `index` with `*`.
fn mask_tsv_column(text: &str, index: usize) -> String {
    text.lines()
        .map(|line| {
            let mut cells: Vec<&str> = line.split('\t').collect();
            if cells.get(index).is_some_and(|c| c.parse::<f64>().is_ok()) {
                cells[index] = "*";
            }
            cells.join("\t")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + if text.ends_with('\n') { "\n" } else { "" }
}

/// A wall-clock column to mask: its stdout header and TSV index.
struct Mask {
    header: &'static str,
    index: usize,
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/quick")
}

fn check_golden(name: &str, exe: &str, mask: Option<Mask>) {
    let workdir =
        std::env::temp_dir().join(format!("quclassi-golden-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).unwrap();
    let output = Command::new(exe)
        .current_dir(&workdir)
        .env("QUCLASSI_QUICK", "1")
        .output()
        .unwrap_or_else(|e| panic!("{name} did not start: {e}"));
    assert!(
        output.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let tsv_path = workdir
        .join("target/experiments")
        .join(format!("{name}.tsv"));
    let tsv = std::fs::read_to_string(&tsv_path)
        .unwrap_or_else(|e| panic!("{name} wrote no {}: {e}", tsv_path.display()));
    std::fs::remove_dir_all(&workdir).unwrap();

    let (stdout, tsv) = match &mask {
        Some(m) => (
            mask_table_column(&stdout, m.header),
            mask_tsv_column(&tsv, m.index),
        ),
        None => (stdout, tsv),
    };
    for (got, ext) in [(stdout, "stdout"), (tsv, "tsv")] {
        let path = golden_dir().join(format!("{name}.{ext}"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert!(
            got == want,
            "{name} {ext} differs from {}\n--- golden\n{want}\n--- got\n{got}",
            path.display()
        );
    }
}

#[test]
fn ablation_fidelity_method_matches_its_golden() {
    check_golden(
        "ablation_fidelity_method",
        env!("CARGO_BIN_EXE_ablation_fidelity_method"),
        Some(Mask {
            header: "training time (s)",
            index: 2,
        }),
    );
}

#[test]
fn fig11_noisy_iris_matches_its_golden() {
    check_golden(
        "fig11_noisy_iris",
        env!("CARGO_BIN_EXE_fig11_noisy_iris"),
        None,
    );
}

#[test]
fn fig12_noisy_mnist_matches_its_golden() {
    check_golden(
        "fig12_noisy_mnist",
        env!("CARGO_BIN_EXE_fig12_noisy_mnist"),
        None,
    );
}

#[test]
fn table_ionq_vs_ibmq_matches_its_golden() {
    check_golden(
        "table_ionq_vs_ibmq",
        env!("CARGO_BIN_EXE_table_ionq_vs_ibmq"),
        None,
    );
}

#[test]
fn masks_replace_only_the_wall_clock_cells() {
    let table = "est  acc  time (s)\n---------------\na    0.5  0.01\nb    0.7  12.34\n";
    assert_eq!(
        mask_table_column(table, "time (s)"),
        "est  acc  time (s)\n---------------\na    0.5  *\nb    0.7  *\n"
    );
    let tsv = "est\tacc\ttime (s)\na\t0.5\t0.01\n";
    assert_eq!(mask_tsv_column(tsv, 2), "est\tacc\ttime (s)\na\t0.5\t*\n");
}
