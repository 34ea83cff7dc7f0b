//! `experiments --metrics PATH` and `sweep --metrics PATH`, end to end:
//! the telemetry export leaves stdout untouched and carries the scenario
//! list (plus, for `experiments`, the process-wide counter block).

use std::process::Command;

fn experiments(extra: &[&str]) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig12", "extension-graph-corun", "--jobs", "4"])
        .args(extra)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "experiments failed: {out:?}");
    out.stdout
}

#[test]
fn metrics_export_keeps_stdout_and_carries_the_process_block() {
    let path = std::env::temp_dir().join(format!("reach-metrics-it-{}.json", std::process::id()));
    let with_metrics = experiments(&["--metrics", path.to_str().unwrap()]);
    assert_eq!(with_metrics, experiments(&[]), "--metrics changed stdout");

    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    assert!(doc.contains("\"schema\": \"reach-run-metrics-v1\""));
    let (scenarios, process) = doc.split_once("\"process\": {").expect("process block");
    assert!(scenarios.contains("\"label\": "), "no scenarios captured");
    for key in [
        "cbir.simd_dispatch",
        "cbir.cache_hits",
        "cbir.cache_misses",
        "runner.result_cache_hits",
        "runner.result_cache_misses",
        "runner.result_cache_disk_hits",
        "runner.result_cache_disk_misses",
        "runner.result_cache_disk_flushes",
        "runner.result_cache_disk_bytes_written",
        "runner.fleet_cache_hits",
        "runner.fleet_cache_misses",
    ] {
        assert!(
            process.contains(&format!("\"{key}\": {{\"kind\"")),
            "missing process metric {key}"
        );
    }
}

/// `extension-recall` computes each codec's norm column once, at build or
/// train time (1 IVF centroid column, 8 + 4 PQ codebook columns), and
/// every distance pass reads it: one IVF short-list pass over the query
/// batch, and one read per PQ subspace for each of the 32 queries.
#[test]
fn recall_computes_each_norm_column_once_and_reads_it_per_pass() {
    let path = std::env::temp_dir().join(format!("reach-recall-it-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["extension-recall", "--jobs", "2", "--metrics"])
        .arg(&path)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "experiments failed: {out:?}");
    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    let (_, process) = doc.split_once("\"process\": {").expect("process block");
    let counter = |key: &str| -> u64 {
        let field = format!("\"{key}\": {{\"kind\":\"counter\",\"value\":");
        let (_, rest) = process
            .split_once(&field)
            .unwrap_or_else(|| panic!("missing process metric {key}"));
        let digits = rest.split('}').next().expect("counter value");
        digits.parse().expect("integer counter")
    };
    assert_eq!(counter("cbir.cache_misses"), 13);
    assert_eq!(counter("cbir.cache_hits"), 1 + 32 * (8 + 4));
}

/// `sweep --metrics PATH` writes the `reach-run-metrics-v1` document, one
/// entry per grid point in grid order, and leaves stdout as it is.
#[test]
fn sweep_metrics_export_lists_the_grid_in_order_and_keeps_stdout() {
    let sweep = |extra: &[&std::ffi::OsStr]| -> Vec<u8> {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args([
                "--nm",
                "1,2",
                "--ns",
                "1",
                "--batches",
                "1",
                "--batch-size",
                "4",
                "--candidates",
                "64",
            ])
            .args(extra)
            .output()
            .expect("spawn sweep");
        assert!(out.status.success(), "sweep failed: {out:?}");
        out.stdout
    };
    let path =
        std::env::temp_dir().join(format!("reach-sweep-metrics-{}.json", std::process::id()));
    let with_metrics = sweep(&["--metrics".as_ref(), path.as_os_str()]);
    assert_eq!(with_metrics, sweep(&[]), "--metrics changed stdout");

    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    assert!(doc.contains("\"schema\": \"reach-run-metrics-v1\""));
    let labels: Vec<&str> = doc
        .match_indices("\"label\": \"")
        .map(|(at, key)| {
            let rest = &doc[at + key.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect();
    assert_eq!(labels, ["sweep/ReACH/nm1-ns1", "sweep/ReACH/nm2-ns1"]);
}
