//! Workspace invariant linter (`quclassi-lint`).
//!
//! Enforces the cross-cutting conventions the compiler cannot see — the
//! ones that rot silently between PRs. Deliberately **line-wise** (no
//! `syn`, no parsing): every rule is a scan over source lines plus a
//! little file-path context, so the linter builds in milliseconds, has no
//! dependencies, and its false-positive surface is small enough to keep
//! at zero findings (CI runs it with findings denied).
//!
//! # Rules
//!
//! | rule | invariant |
//! |---|---|
//! | `unsafe-confinement` | `unsafe` code only in `vendor/poll` (FFI) and the allocator harness `crates/sim/tests/zero_alloc.rs` |
//! | `crate-attributes` | first-party lib roots carry `#![forbid(unsafe_code)]` **and** `#![deny(missing_docs)]`; bin roots carry `#![forbid(unsafe_code)]` |
//! | `env-knobs` | every `QUCLASSI_*` variable read in code has a row in README's knob table, and every table row names a variable the code reads |
//! | `metric-names` | registry metric literals match `quclassi_<area>_<metric>`; counters end `_total`, histograms end `_ns`, gauges end in neither |
//! | `metric-single-definition` | each `quclassi_*` metric name literal appears at exactly one site in `crates/*/src` non-test code |
//! | `error-kinds` | the wire `kind` strings in `crates/serve/src/error.rs` exactly match README's documented stable set |
//! | `seqcst-justification` | no `SeqCst` in first-party code without a `// seqcst:` justification on the same or previous line |
//! | `shim-bypass` | model-checked protocol files use `crate::quclassi_sync`, never `std::sync` directly (test modules exempt) |
//!
//! # Heuristics (accepted, documented)
//!
//! * Comment-only lines and `//` tails are ignored for token scans; a
//!   `//` inside a string literal would truncate the scan of that line.
//! * A `#[cfg(test)]` attribute followed by a `mod` item marks the rest
//!   of the file as test code (the workspace convention keeps test
//!   modules at file tails).
//! * Templated metric names (format strings carrying `{label}` sets or
//!   interpolated segments) are charset-checked up to the first `{`;
//!   the suffix/shape rules need the full literal name, and
//!   `metric-single-definition` compares the prefix before the `{`.
//! * A metric's kind is the word right before its literal, past any `(`,
//!   `&`, `,`, quotes and spaces: `registry.counter("…")`, a
//!   declaration-table row `field: counter "…" => "…"`,
//!   `column!(counter "…" => …)`, or a `("counter", "…")` tuple.
//!   `float_gauge` counts as a gauge; a literal with no kind word in front
//!   is shape-checked only.
//! * The linter's own sources are excluded from the token-scan rules
//!   (`env-knobs`, `metric-names`, `unsafe-confinement`,
//!   `seqcst-justification`): rule fixtures and messages necessarily
//!   spell the violations they describe.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One rule violation at a workspace-relative location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (kebab-case, stable).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line, or 0 for whole-file findings.
    pub line: usize,
    /// What is wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// A source file held in memory: the unit the rules operate on, so tests
/// can feed seeded violations without touching disk.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The file's lines, without terminators.
    pub lines: Vec<String>,
}

impl SourceFile {
    /// Builds a file from a path and its full text.
    pub fn new(path: impl Into<String>, text: &str) -> Self {
        SourceFile {
            path: path.into(),
            lines: text.lines().map(str::to_string).collect(),
        }
    }

    /// The index from which the file is test code (`#[cfg(test)]` +
    /// `mod`), or `lines.len()` when none is found.
    fn test_tail_start(&self) -> usize {
        let mut i = 0;
        while i < self.lines.len() {
            if self.lines[i].trim() == "#[cfg(test)]" {
                // Skip further attributes, then require a mod item.
                let mut j = i + 1;
                while j < self.lines.len() && self.lines[j].trim_start().starts_with("#[") {
                    j += 1;
                }
                if j < self.lines.len() {
                    let after = self.lines[j].trim_start();
                    if after.starts_with("mod ") || after.starts_with("pub(crate) mod ") {
                        return i;
                    }
                }
            }
            i += 1;
        }
        self.lines.len()
    }
}

/// The comment-stripped code portion of a line (`""` for comment-only
/// lines). Heuristic: truncates at the first `//`, which is correct for
/// everything but `//` inside string literals.
fn code_portion(line: &str) -> &str {
    let trimmed = line.trim_start();
    if trimmed.starts_with("//") {
        return "";
    }
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Whether `hay` contains `needle` as a whole word (not merely as a
/// substring of a longer identifier).
fn contains_word(hay: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !hay[..at].chars().next_back().is_some_and(is_ident);
        let after = at + needle.len();
        let after_ok = after >= hay.len() || !hay[after..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Directories/files where `unsafe` code is allowed, with why.
const UNSAFE_ALLOWED: &[(&str, &str)] = &[
    ("vendor/poll/", "raw epoll/eventfd FFI"),
    (
        "crates/sim/tests/zero_alloc.rs",
        "GlobalAlloc counting harness",
    ),
];

/// Model-checked protocol files that must route all synchronisation
/// through the `quclassi_sync` shim.
const SHIMMED_FILES: &[&str] = &[
    "crates/serve/src/trace.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/runtime.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/swap.rs",
    "crates/sim/src/profile.rs",
];

fn is_first_party(path: &str) -> bool {
    path.starts_with("crates/") || path.starts_with("tools/")
}

fn is_lint_source(path: &str) -> bool {
    path.starts_with("tools/lint/")
}

/// Runs every rule over the in-memory file set (which must include
/// `README.md` for the documentation-sync rules to have a target).
pub fn lint(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_unsafe_confinement(files, &mut findings);
    rule_crate_attributes(files, &mut findings);
    rule_env_knobs(files, &mut findings);
    rule_metric_names(files, &mut findings);
    rule_metric_single_definition(files, &mut findings);
    rule_error_kinds(files, &mut findings);
    rule_seqcst_justification(files, &mut findings);
    rule_shim_bypass(files, &mut findings);
    findings.sort_by(|a, b| (a.path.as_str(), a.line).cmp(&(b.path.as_str(), b.line)));
    findings
}

fn rule_unsafe_confinement(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| f.path.ends_with(".rs")) {
        if is_lint_source(&f.path)
            || UNSAFE_ALLOWED
                .iter()
                .any(|(prefix, _)| f.path.starts_with(prefix))
        {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            let code = code_portion(line);
            if contains_word(code, "unsafe") && !code.contains("unsafe_code") {
                findings.push(Finding {
                    rule: "unsafe-confinement",
                    path: f.path.clone(),
                    line: i + 1,
                    message: format!(
                        "`unsafe` outside the allowed locations ({}); \
                         keep unsafe code confined to the vendored FFI shim",
                        UNSAFE_ALLOWED
                            .iter()
                            .map(|(p, why)| format!("{p} — {why}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
    }
}

fn rule_crate_attributes(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let is_lib_root = |p: &str| {
        (p.starts_with("crates/") || p.starts_with("tools/"))
            && p.ends_with("/src/lib.rs")
            && p.matches('/').count() == 3
    };
    let is_bin_root = |p: &str| {
        (p.starts_with("crates/") || p.starts_with("tools/"))
            && p.ends_with("/src/main.rs")
            && p.matches('/').count() == 3
    };
    for f in files.iter() {
        let lib = is_lib_root(&f.path);
        let bin = is_bin_root(&f.path);
        if !lib && !bin {
            continue;
        }
        let has = |attr: &str| f.lines.iter().any(|l| l.trim() == attr);
        if !has("#![forbid(unsafe_code)]") {
            findings.push(Finding {
                rule: "crate-attributes",
                path: f.path.clone(),
                line: 0,
                message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            });
        }
        if lib && !has("#![deny(missing_docs)]") {
            findings.push(Finding {
                rule: "crate-attributes",
                path: f.path.clone(),
                line: 0,
                message: "library crate root is missing `#![deny(missing_docs)]`".to_string(),
            });
        }
    }
}

/// Extracts every `QUCLASSI_<NAME>` token in a line.
fn scan_env_vars(line: &str, out: &mut Vec<String>) {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find("QUCLASSI_") {
        let at = start + pos;
        let mut end = at + "QUCLASSI_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end] == b'_'
                || bytes[end].is_ascii_digit())
        {
            end += 1;
        }
        if end > at + "QUCLASSI_".len() {
            out.push(line[at..end].trim_end_matches('_').to_string());
        }
        start = end;
    }
}

/// Rows of a README markdown table section: the first backticked token of
/// every `| \`...\`` row between `heading` and the next same-or-higher
/// heading. Returns `(row, line)` pairs, or `None` if the heading is
/// missing entirely.
fn readme_table_rows(
    readme: &SourceFile,
    heading: &str,
    prefix: &str,
) -> Option<Vec<(String, usize)>> {
    let level = heading.chars().take_while(|&c| c == '#').count();
    let start = readme.lines.iter().position(|l| l.trim() == heading)?;
    let mut rows = Vec::new();
    for (i, line) in readme.lines.iter().enumerate().skip(start + 1) {
        let t = line.trim();
        let hashes = t.chars().take_while(|&c| c == '#').count();
        if hashes > 0 && hashes <= level && t[hashes..].starts_with(' ') {
            break;
        }
        if let Some(rest) = t.strip_prefix("| `") {
            if let Some(end) = rest.find('`') {
                let token = &rest[..end];
                if token.starts_with(prefix) {
                    rows.push((token.to_string(), i + 1));
                }
            }
        }
    }
    Some(rows)
}

const KNOB_HEADING: &str = "## Runtime knobs (environment variables)";

fn rule_env_knobs(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut used: Vec<(String, String, usize)> = Vec::new(); // (var, path, line)
    for f in files.iter().filter(|f| f.path.ends_with(".rs")) {
        if !is_first_party(&f.path) || is_lint_source(&f.path) {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            let mut vars = Vec::new();
            scan_env_vars(line, &mut vars);
            for v in vars {
                used.push((v, f.path.clone(), i + 1));
            }
        }
    }
    let Some(readme) = files.iter().find(|f| f.path == "README.md") else {
        return;
    };
    let Some(rows) = readme_table_rows(readme, KNOB_HEADING, "QUCLASSI_") else {
        findings.push(Finding {
            rule: "env-knobs",
            path: readme.path.clone(),
            line: 0,
            message: format!("README is missing the `{KNOB_HEADING}` section"),
        });
        return;
    };
    let documented: Vec<&str> = rows.iter().map(|(v, _)| v.as_str()).collect();
    let mut reported = Vec::new();
    for (var, path, line) in &used {
        if !documented.contains(&var.as_str()) && !reported.contains(var) {
            reported.push(var.clone());
            findings.push(Finding {
                rule: "env-knobs",
                path: path.clone(),
                line: *line,
                message: format!(
                    "`{var}` is read here but has no row in README's runtime-knob table"
                ),
            });
        }
    }
    for (var, line) in &rows {
        if !used.iter().any(|(v, _, _)| v == var) {
            findings.push(Finding {
                rule: "env-knobs",
                path: readme.path.clone(),
                line: *line,
                message: format!(
                    "README documents `{var}` but nothing in crates/ or tools/ reads it"
                ),
            });
        }
    }
}

/// The metric kind named right before a literal at `quote`: the trailing
/// word of `code[..quote]` once `(`, `&`, `,`, quotes and spaces are
/// skipped.
fn kind_before(code: &str, quote: usize) -> Option<&'static str> {
    let head = code[..quote].trim_end_matches([' ', '(', '&', ',', '"']);
    let word_start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |i| i + 1);
    match &head[word_start..] {
        "counter" => Some("counter"),
        "histogram" => Some("histogram"),
        "gauge" | "float_gauge" => Some("gauge"),
        _ => None,
    }
}

/// Every `quclassi_*` literal in `crates/*/src` non-test code, as
/// `(path, 1-based line, code portion, quote offset, literal)`.
fn metric_literal_sites(files: &[SourceFile]) -> Vec<(&str, usize, &str, usize, String)> {
    let mut sites = Vec::new();
    for f in files {
        if !f.path.starts_with("crates/") || !f.path.contains("/src/") || !f.path.ends_with(".rs") {
            continue;
        }
        let tail = f.test_tail_start();
        for (i, line) in f.lines.iter().take(tail).enumerate() {
            let code = code_portion(line);
            let mut start = 0;
            while let Some(pos) = code[start..].find("\"quclassi_") {
                let quote = start + pos;
                let Some(len) = code[quote + 1..].find('"') else {
                    break;
                };
                let name = code[quote + 1..quote + 1 + len].to_string();
                sites.push((f.path.as_str(), i + 1, code, quote, name));
                start = quote + len + 2;
            }
        }
    }
    sites
}

fn rule_metric_names(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for (path, line, code, quote, name) in metric_literal_sites(files) {
        let mut flag = |message: String| {
            findings.push(Finding {
                rule: "metric-names",
                path: path.to_string(),
                line,
                message,
            })
        };
        let clean = |name: &str| {
            name.split('_').all(|part| {
                !part.is_empty()
                    && part
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
            })
        };
        // A `{` marks a format-string template (a Prometheus label set, or
        // an interpolated name segment): only the charset of the static
        // prefix can be checked.
        if let Some(brace) = name.find('{') {
            if !clean(name[..brace].trim_end_matches('_')) {
                flag(format!(
                    "templated metric `{name}` has a malformed static prefix \
                     (want lowercase `quclassi_<area>_...`)"
                ));
            }
            continue;
        }
        if !clean(&name) || name.split('_').count() < 3 {
            flag(format!(
                "metric `{name}` does not match `quclassi_<area>_<metric>[_total|_ns]`"
            ));
            continue;
        }
        match kind_before(code, quote) {
            Some("counter") if !name.ends_with("_total") => {
                flag(format!("counter `{name}` must end in `_total`"))
            }
            Some("histogram") if !name.ends_with("_ns") => {
                flag(format!("histogram `{name}` must end in `_ns`"))
            }
            Some("gauge") if name.ends_with("_total") || name.ends_with("_ns") => flag(format!(
                "gauge `{name}` must not use the `_total`/`_ns` reserved suffixes"
            )),
            _ => {}
        }
    }
}

fn rule_metric_single_definition(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let mut first: Vec<(String, String, usize)> = Vec::new(); // (name, path, line)
    for (path, line, _, _, literal) in metric_literal_sites(files) {
        let name = literal.split('{').next().unwrap_or(&literal).to_string();
        match first.iter().find(|(n, _, _)| *n == name) {
            Some((_, p, l)) if (p.as_str(), *l) != (path, line) => findings.push(Finding {
                rule: "metric-single-definition",
                path: path.to_string(),
                line,
                message: format!(
                    "metric `{name}` is already spelled out at {p}:{l}; declare each \
                     metric once and read its name from that declaration"
                ),
            }),
            Some(_) => {}
            None => first.push((name, path.to_string(), line)),
        }
    }
}

const ERROR_KINDS_HEADING: &str = "### Wire error kinds";

fn rule_error_kinds(files: &[SourceFile], findings: &mut Vec<Finding>) {
    let Some(error_rs) = files.iter().find(|f| f.path == "crates/serve/src/error.rs") else {
        return;
    };
    // The `kind()` strings: every `=> "..."` match arm in non-test code.
    let tail = error_rs.test_tail_start();
    let mut kinds: Vec<(String, usize)> = Vec::new();
    for (i, line) in error_rs.lines.iter().take(tail).enumerate() {
        let code = code_portion(line);
        if let Some(pos) = code.find("=> \"") {
            let at = pos + 4;
            if let Some(end) = code[at..].find('"') {
                kinds.push((code[at..at + end].to_string(), i + 1));
            }
        }
    }
    let Some(readme) = files.iter().find(|f| f.path == "README.md") else {
        return;
    };
    let Some(rows) = readme_table_rows(readme, ERROR_KINDS_HEADING, "") else {
        findings.push(Finding {
            rule: "error-kinds",
            path: readme.path.clone(),
            line: 0,
            message: format!(
                "README is missing the `{ERROR_KINDS_HEADING}` section documenting the stable \
                 wire `kind` strings"
            ),
        });
        return;
    };
    for (kind, line) in &kinds {
        if !rows.iter().any(|(r, _)| r == kind) {
            findings.push(Finding {
                rule: "error-kinds",
                path: error_rs.path.clone(),
                line: *line,
                message: format!(
                    "wire error kind `{kind}` is not documented in README's \
                     `{ERROR_KINDS_HEADING}` table — remote clients branch on these strings"
                ),
            });
        }
    }
    for (row, line) in &rows {
        if row == "kind" {
            continue; // table header
        }
        if !kinds.iter().any(|(k, _)| k == row) {
            findings.push(Finding {
                rule: "error-kinds",
                path: readme.path.clone(),
                line: *line,
                message: format!(
                    "README documents wire error kind `{row}` that the code never produces"
                ),
            });
        }
    }
}

fn rule_seqcst_justification(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files.iter().filter(|f| f.path.ends_with(".rs")) {
        if !is_first_party(&f.path) || is_lint_source(&f.path) {
            continue;
        }
        for (i, line) in f.lines.iter().enumerate() {
            if !code_portion(line).contains("SeqCst") {
                continue;
            }
            let justified =
                line.contains("// seqcst:") || (i > 0 && f.lines[i - 1].contains("// seqcst:"));
            if !justified {
                findings.push(Finding {
                    rule: "seqcst-justification",
                    path: f.path.clone(),
                    line: i + 1,
                    message: "`SeqCst` without a `// seqcst:` justification — the model checker \
                              treats SeqCst as AcqRel, so protocols relying on the total order \
                              are unverifiable; prefer acquire/release, or justify"
                        .to_string(),
                });
            }
        }
    }
}

fn rule_shim_bypass(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files
        .iter()
        .filter(|f| SHIMMED_FILES.contains(&f.path.as_str()))
    {
        let tail = f.test_tail_start();
        for (i, line) in f.lines.iter().take(tail).enumerate() {
            if code_portion(line).contains("std::sync") {
                findings.push(Finding {
                    rule: "shim-bypass",
                    path: f.path.clone(),
                    line: i + 1,
                    message: "model-checked protocol file must go through `crate::quclassi_sync`, \
                              not `std::sync` — direct use is invisible to the model checker"
                        .to_string(),
                });
            }
        }
    }
}

/// Loads the workspace tree rooted at `root` into memory: `README.md`
/// plus every `.rs` file under `crates/`, `tools/`, and `vendor/`.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let readme = root.join("README.md");
    if readme.is_file() {
        files.push(SourceFile::new("README.md", &fs::read_to_string(readme)?));
    }
    for top in ["crates", "tools", "vendor"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn collect_rs(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs(root, &path, files)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walk stays under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::new(rel, &fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// [`load_workspace`] + [`lint`]: the full run the binary performs.
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint(&load_workspace(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal clean workspace the seeded-violation tests perturb.
    fn clean_files() -> Vec<SourceFile> {
        vec![
            SourceFile::new(
                "README.md",
                "# repo\n\
                 ## Runtime knobs (environment variables)\n\
                 | knob | read by | meaning |\n\
                 |---|---|---|\n\
                 | `QUCLASSI_THREADS` | executor | workers |\n\
                 ## CI\n\
                 ### Wire error kinds\n\
                 | `kind` | meaning |\n\
                 |---|---|\n\
                 | `saturated` | retry later |\n\
                 ## Next\n",
            ),
            SourceFile::new(
                "crates/serve/src/lib.rs",
                "#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub mod error;\n",
            ),
            SourceFile::new(
                "crates/serve/src/error.rs",
                "impl ServeError {\n    pub fn kind(&self) -> &str {\n        match self {\n            ServeError::Saturated { .. } => \"saturated\",\n        }\n    }\n}\n",
            ),
            SourceFile::new(
                "crates/serve/src/trace.rs",
                "use crate::quclassi_sync::atomic::AtomicU64;\n\
                 fn read_env() { std::env::var(\"QUCLASSI_THREADS\").ok(); }\n\
                 #[cfg(test)]\n\
                 mod tests {\n    use std::sync::Arc;\n}\n",
            ),
        ]
    }

    #[test]
    fn clean_workspace_has_zero_findings() {
        assert_eq!(lint(&clean_files()), Vec::new());
    }

    #[test]
    fn unsafe_outside_the_allowlist_is_flagged() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/bad.rs",
            "fn f() { unsafe { std::hint::unreachable_unchecked() } }\n",
        ));
        let findings = lint(&files);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "unsafe-confinement" && f.path == "crates/serve/src/bad.rs"),
            "{findings:?}"
        );
    }

    #[test]
    fn unsafe_in_vendor_poll_and_comments_is_allowed() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "vendor/poll/src/extra.rs",
            "fn f() { unsafe { libc_call() } }\n",
        ));
        files.push(SourceFile::new(
            "crates/serve/src/ok.rs",
            "// this crate has no unsafe code\nfn safe_unsafety() {}\n",
        ));
        assert_eq!(lint(&files), Vec::new());
    }

    #[test]
    fn missing_crate_attributes_are_flagged() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/extra/src/lib.rs",
            "//! docs\npub fn f() {}\n",
        ));
        let findings = lint(&files);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "crate-attributes" && f.path == "crates/extra/src/lib.rs")
            .collect();
        assert_eq!(hits.len(), 2, "both attributes missing: {findings:?}");
    }

    #[test]
    fn undocumented_env_var_is_flagged_at_the_read_site() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/config.rs",
            "fn f() { std::env::var(\"QUCLASSI_SECRET_KNOB\").ok(); }\n",
        ));
        let findings = lint(&files);
        assert!(
            findings.iter().any(|f| f.rule == "env-knobs"
                && f.path == "crates/serve/src/config.rs"
                && f.message.contains("QUCLASSI_SECRET_KNOB")),
            "{findings:?}"
        );
    }

    #[test]
    fn stale_readme_knob_row_is_flagged() {
        let mut files = clean_files();
        let readme = files.iter_mut().find(|f| f.path == "README.md").unwrap();
        let at = readme
            .lines
            .iter()
            .position(|l| l.contains("QUCLASSI_THREADS"))
            .unwrap();
        readme.lines.insert(
            at + 1,
            "| `QUCLASSI_REMOVED_KNOB` | nothing | gone |".to_string(),
        );
        let findings = lint(&files);
        assert!(
            findings.iter().any(|f| f.rule == "env-knobs"
                && f.path == "README.md"
                && f.message.contains("QUCLASSI_REMOVED_KNOB")),
            "{findings:?}"
        );
    }

    #[test]
    fn counter_without_total_suffix_is_flagged() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/m.rs",
            "fn f(r: &R) { r.counter(\"quclassi_serve_admitted\"); }\n\
             fn g(r: &R) { r.histogram(\"quclassi_serve_latency_ns\"); }\n",
        ));
        let findings = lint(&files);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "metric-names")
            .collect();
        assert_eq!(hits.len(), 1, "only the counter is malformed: {findings:?}");
        assert!(hits[0].message.contains("`_total`"));
    }

    #[test]
    fn malformed_metric_shape_is_flagged_even_in_tuples() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/m.rs",
            "const M: (&str, &str) = (\"quclassi_Bad\", \"gauge\");\n",
        ));
        assert!(lint(&files)
            .iter()
            .any(|f| f.rule == "metric-names" && f.message.contains("quclassi_Bad")));
    }

    #[test]
    fn templated_metric_names_check_only_the_static_prefix() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/m.rs",
            "fn f() { s(&format!(\"quclassi_model_version{label}\")); }\n\
             fn g() { s(&format!(\"quclassi_Model_{name}_total{label}\")); }\n",
        ));
        let findings = lint(&files);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "metric-names")
            .collect();
        assert_eq!(
            hits.len(),
            1,
            "only the uppercase prefix fires: {findings:?}"
        );
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn declaration_table_rows_are_kind_checked() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/m.rs",
            "runtime_metrics! {\n\
             /// Fine.\n\
             admitted: counter \"quclassi_serve_admitted_total\" => \"admitted\",\n\
             rejected: counter \"quclassi_serve_rejected\" => \"rejected\",\n\
             depth: gauge \"quclassi_serve_depth_total\" => \"depth\",\n\
             ratio: float_gauge \"quclassi_serve_ratio_ns\" => \"ratio\",\n\
             latency: histogram \"quclassi_serve_latency\" => \"latency\",\n\
             }\n\
             const C: &[Column<S>] = &[\n\
             column!(counter \"quclassi_cache_hits\" => \"cache_hits\", |c| c.hits),\n\
             column!(gauge \"quclassi_cache_entries\" => \"cache_entries\", |c| c.entries),\n\
             (\"counter\", \"quclassi_sim_sweeps\", p.sweeps),\n\
             ];\n",
        ));
        let findings = lint(&files);
        let lines: Vec<usize> = findings
            .iter()
            .filter(|f| f.rule == "metric-names")
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, vec![4, 5, 6, 7, 10, 12], "{findings:?}");
    }

    #[test]
    fn a_metric_spelled_out_twice_is_flagged() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/a.rs",
            "fn f(r: &R) { r.counter(\"quclassi_serve_x_total\"); }\n\
             fn g(r: &R) { r.gauge(&format!(\"quclassi_wire_shard{{shard=\\\"{i}\\\"}}\")); }\n\
             #[cfg(test)]\n\
             mod tests {\n    const N: &str = \"quclassi_serve_x_total\";\n}\n",
        ));
        assert_eq!(lint(&files), Vec::new(), "one site each; test tails exempt");
        files.push(SourceFile::new(
            "crates/serve/src/b.rs",
            "fn h(s: &S) -> u64 { s.get(\"quclassi_serve_x_total\") }\n\
             fn k(r: &R) { r.gauge(&format!(\"quclassi_wire_shard{{id=\\\"{i}\\\"}}\")); }\n",
        ));
        let findings = lint(&files);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "metric-single-definition")
            .map(|f| (f.path.as_str(), f.line))
            .collect();
        assert_eq!(
            hits,
            vec![("crates/serve/src/b.rs", 1), ("crates/serve/src/b.rs", 2)],
            "{findings:?}"
        );
        assert!(findings[0].message.contains("crates/serve/src/a.rs:1"));
    }

    #[test]
    fn undocumented_error_kind_is_flagged() {
        let mut files = clean_files();
        let err = files
            .iter_mut()
            .find(|f| f.path == "crates/serve/src/error.rs")
            .unwrap();
        err.lines.insert(
            4,
            "            ServeError::Novel => \"novel_kind\",".to_string(),
        );
        let findings = lint(&files);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "error-kinds" && f.message.contains("novel_kind")),
            "{findings:?}"
        );
    }

    #[test]
    fn stale_readme_error_kind_is_flagged() {
        let mut files = clean_files();
        let readme = files.iter_mut().find(|f| f.path == "README.md").unwrap();
        let at = readme
            .lines
            .iter()
            .position(|l| l.contains("`saturated`"))
            .unwrap();
        readme
            .lines
            .insert(at + 1, "| `vanished` | never produced |".to_string());
        let findings = lint(&files);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "error-kinds" && f.message.contains("vanished")),
            "{findings:?}"
        );
    }

    #[test]
    fn seqcst_needs_a_justification_comment() {
        let mut files = clean_files();
        files.push(SourceFile::new(
            "crates/serve/src/s.rs",
            "fn f(a: &A) { a.load(Ordering::SeqCst); }\n\
             // seqcst: store-load order against the flush flag is required\n\
             fn g(a: &A) { a.load(Ordering::SeqCst); }\n\
             fn h(a: &A) { a.load(Ordering::SeqCst); } // seqcst: ditto\n",
        ));
        let findings = lint(&files);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "seqcst-justification")
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn std_sync_in_a_shimmed_protocol_file_is_flagged_outside_tests() {
        let mut files = clean_files();
        let trace = files
            .iter_mut()
            .find(|f| f.path == "crates/serve/src/trace.rs")
            .unwrap();
        trace
            .lines
            .insert(1, "use std::sync::atomic::Ordering;".to_string());
        let findings = lint(&files);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "shim-bypass")
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert_eq!(hits[0].line, 2, "the test-tail use stays exempt");
    }

    #[test]
    fn the_real_workspace_is_clean() {
        // The acceptance bar: zero findings on the actual tree. Running
        // from the crate dir, the workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = run(&root).expect("workspace tree is readable");
        assert_eq!(
            findings,
            Vec::new(),
            "the linter must report zero findings on the committed tree"
        );
    }
}
