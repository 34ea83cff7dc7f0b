//! `experiments --metrics PATH`, end to end: the telemetry export leaves
//! stdout untouched and carries the scenario list plus the process-wide
//! counter block.

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
