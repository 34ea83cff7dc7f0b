//! Two source-level guards over the workspace:
//!
//! 1. No String allocation or formatting on the machine's per-event
//!    dispatch path. The [`MACHINE_HOT`] functions in
//!    `crates/core/src/machine.rs` and the [`TELEMETRY_HOT`] recorders in
//!    `crates/core/src/telemetry.rs` run once (or more) per simulated
//!    event; the only allowed string work is inside the opt-in `#[cold]`
//!    trace helpers.
//! 2. `unsafe` appears nowhere under `crates/` except
//!    `crates/cbir/src/simd.rs`, the one sanctioned home for the
//!    `#[target_feature]` SIMD kernels. Every other crate forbids
//!    `unsafe_code` at its root; this catches the reach-cbir modules, where
//!    the root lint is only `deny` (simd.rs needs a local allow).

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The machine's per-event functions.
const MACHINE_HOT: [&str; 9] = [
    "run",
    "complete",
    "dispatch",
    "price_data",
    "nm_stream",
    "price_dma",
    "start_dma",
    "process_actions",
    "sample_queues",
];

/// The `MachineMetrics` recorders the machine calls per event, and the
/// tenant lookup they share.
const TELEMETRY_HOT: [&str; 9] = [
    "task_executed",
    "dma",
    "sample_queue_depth",
    "events_drained",
    "stage_completed",
    "job_completed",
    "tenant",
    "tenant_dispatched",
    "tenant_rejected",
];

/// String allocation/formatting constructs banned on the per-event path.
/// (A per-run scratch Vec is fine; per-event string work is not.)
const BANNED: [&str; 5] = [
    "format!",
    ".to_string(",
    "String::",
    ".to_owned(",
    ".clone(",
];

const MACHINE: &str = "crates/core/src/machine.rs";
const TELEMETRY: &str = "crates/core/src/telemetry.rs";
const SIMD: &str = "crates/cbir/src/simd.rs";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The name of the method a line declares: exactly four spaces of indent,
/// an optional `pub ` or `pub(crate) `, then `fn NAME`.
fn method_name(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("    ")?;
    let rest = rest
        .strip_prefix("pub ")
        .or_else(|| rest.strip_prefix("pub(crate) "))
        .unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// What the hot-path scan of one source file found.
#[derive(Debug, Default, PartialEq)]
struct HotPathScan {
    /// `(line number, function, line)` for each banned construct.
    violations: Vec<(usize, String, String)>,
    /// Functions of the hot list the source does not declare.
    missing: Vec<&'static str>,
}

/// Scans the `hot` functions of `src` for banned string work.
fn scan_hot_path(src: &str, hot: &[&'static str]) -> HotPathScan {
    let mut current: Option<&str> = None;
    let mut cold = false;
    let mut pending_cold = false;
    let mut found = BTreeSet::new();
    let mut scan = HotPathScan::default();
    for (i, line) in src.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed == "#[cold]" {
            pending_cold = true;
            continue;
        }
        if let Some(name) = method_name(line) {
            found.insert(name);
            current = Some(name);
            cold = pending_cold;
            pending_cold = false;
        } else if !trimmed.is_empty() && !line.starts_with(' ') {
            current = None;
        }
        // An attribute between `#[cold]` and its `fn` keeps the exemption;
        // any other line ends it.
        if pending_cold && !trimmed.is_empty() && !trimmed.starts_with("#[") {
            pending_cold = false;
        }
        if let Some(name) = current.filter(|n| hot.contains(n)) {
            if !cold && BANNED.iter().any(|b| line.contains(b)) {
                scan.violations
                    .push((i + 1, name.to_string(), line.trim_end().to_string()));
            }
        }
    }
    scan.missing = hot.iter().copied().filter(|h| !found.contains(h)).collect();
    scan
}

/// Whether `code` holds the keyword `unsafe` as a whole word.
fn has_unsafe_keyword(code: &str) -> bool {
    let is_word = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, kw)| {
        let before = code[..at].chars().next_back();
        let after = code[at + kw.len()..].chars().next();
        !before.is_some_and(is_word) && !after.is_some_and(is_word)
    })
}

/// `(line number, line)` for each use of `unsafe` outside comments.
/// Mentions of the lint level itself (`forbid(unsafe_code)` /
/// `deny(unsafe_code)`) are attributes, not code.
fn scan_unsafe(src: &str) -> Vec<(usize, String)> {
    src.lines()
        .enumerate()
        .filter_map(|(i, line)| {
            let code = line.split("//").next().unwrap_or_default();
            (!code.contains("unsafe_code") && has_unsafe_keyword(code))
                .then(|| (i + 1, line.trim().to_string()))
        })
        .collect()
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn hot_path_is_free_of_string_work() {
    for (file, hot) in [(MACHINE, &MACHINE_HOT[..]), (TELEMETRY, &TELEMETRY_HOT[..])] {
        let src = fs::read_to_string(repo_root().join(file))
            .unwrap_or_else(|e| panic!("read {file}: {e}"));
        let scan = scan_hot_path(&src, hot);
        assert!(
            scan.missing.is_empty(),
            "functions not found in {file}: {:?}",
            scan.missing
        );
        assert!(
            scan.violations.is_empty(),
            "allocation/formatting on the per-event path in {file}: {:#?}",
            scan.violations
        );
    }
}

#[test]
fn unsafe_is_confined_to_the_simd_module() {
    let root = repo_root();
    assert!(root.join(SIMD).is_file(), "expected SIMD module at {SIMD}");
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    files.sort();
    let allowed = root.join(SIMD);
    let mut violations = Vec::new();
    for path in files.iter().filter(|p| **p != allowed) {
        let src = fs::read_to_string(path).expect("source is readable");
        for (line, text) in scan_unsafe(&src) {
            violations.push(format!("{}:{line}: {text}", path.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "`unsafe` outside {SIMD}: {violations:#?}"
    );
}

/// A machine-like source declaring every hot function, with `body` as the
/// body of `dispatch` and a `#[cold]` helper whose body is `cold_body`.
fn seeded_machine(body: &str, cold_body: &str) -> String {
    let mut src = String::from("impl Machine {\n");
    for name in MACHINE_HOT {
        src.push_str(&format!("    fn {name}(&mut self) {{\n"));
        if name == "dispatch" {
            src.push_str(&format!("        {body}\n"));
        }
        src.push_str("    }\n\n");
    }
    src.push_str(&format!(
        "    #[cold]\n    #[inline(never)]\n    fn record_trace(&mut self) {{\n        {cold_body}\n    }}\n}}\n"
    ));
    src
}

#[test]
fn hot_path_scan_flags_seeded_violations() {
    for banned in BANNED {
        let body = format!("let label = stage{banned}x);");
        let scan = scan_hot_path(&seeded_machine(&body, ""), &MACHINE_HOT);
        assert_eq!(scan.missing, Vec::<&str>::new());
        assert_eq!(scan.violations.len(), 1, "{banned} not flagged");
        assert_eq!(scan.violations[0].1, "dispatch");
    }
}

#[test]
fn hot_path_scan_exempts_cold_helpers_and_reports_missing_functions() {
    let clean = seeded_machine("let n = self.len();", "let label = format!(\"{}\", 1);");
    assert_eq!(scan_hot_path(&clean, &MACHINE_HOT), HotPathScan::default());

    let without_run = clean.replace("fn run(", "fn walk(");
    assert_eq!(
        scan_hot_path(&without_run, &MACHINE_HOT).missing,
        vec!["run"]
    );
}

#[test]
fn hot_path_scan_sees_crate_visible_recorders() {
    let src = "\
impl MachineMetrics {
    pub(crate) fn dma(&mut self) {
        let pair = format!(\"{}\", 1);
    }
}
";
    let scan = scan_hot_path(src, &["dma"]);
    assert_eq!(scan.missing, Vec::<&str>::new());
    assert_eq!(scan.violations.len(), 1);
    assert_eq!(scan.violations[0].1, "dma");
}

#[test]
fn unsafe_scan_flags_seeded_violations_only() {
    let src = "\
#![forbid(unsafe_code)]
// unsafe in a comment is fine
let ok = unsafely_named + not_unsafe;
let bad = unsafe { *ptr };
unsafe fn raw() {}
let trailing = 1; // unsafe here too
";
    let lines: Vec<usize> = scan_unsafe(src).into_iter().map(|(l, _)| l).collect();
    assert_eq!(lines, vec![4, 5]);
}
