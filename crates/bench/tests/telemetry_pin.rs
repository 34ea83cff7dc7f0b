//! Pins the per-scenario telemetry of the tile-walk-heavy experiments and
//! of the whole suite.
//!
//! Stdout never prints the near-memory controller's busy time, bytes or
//! contended cycles (`mem.ddr.near_mem.*`), yet the closed-form tile walk
//! in `MemoryController::stream` computes exactly those. This test runs
//! the experiments whose DMAs are tile walks, cold and sequentially, and
//! compares an FNV-1a-64 digest of the export's `scenarios` array with a
//! value recorded before the walk was put in closed form. A mismatch means
//! some simulated value moved; diff the export of the failing build
//! against one of the recording commit to see which.
//!
//! The whole-suite pin covers what the four tile-walk ids leave out: the
//! tenant, latency-quantile and engine metrics of the traffic, co-run and
//! graph scenarios, none of which stdout prints either.

use std::process::Command;

/// `checksum64` of the tile-walk `scenarios` array, recorded with the
/// per-tile walk.
const SCENARIOS_DIGEST: u64 = 0x8cd7_8c5e_bb4b_6c2c;

/// `checksum64` of the whole suite's `scenarios` array, recorded while the
/// machine still recorded through a name-keyed metrics registry.
const SUITE_SCENARIOS_DIGEST: u64 = 0x2caf_733d_347f_f997;

/// Runs `experiments` with `args` plus `--metrics` into a temporary file
/// named after `tag`, and returns the export's `scenarios` array.
fn exported_scenarios(tag: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!(
        "reach-telemetry-pin-{tag}-{}.json",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .arg("--metrics")
        .arg(&path)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "experiments failed: {out:?}");

    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    let start = doc.find("\"scenarios\": [").expect("scenarios array");
    let end = doc.find("\n  ]").expect("end of scenarios array");
    doc[start..end + 4].to_string()
}

#[test]
fn tile_walk_telemetry_matches_the_per_tile_walk() {
    let scenarios = exported_scenarios(
        "tile-walk",
        &[
            "extension-traffic",
            "extension-fleet",
            "ablation-interleave",
            "fig13",
            "--jobs",
            "1",
            "--no-result-cache",
        ],
    );
    assert!(
        scenarios.contains("mem.ddr.near_mem.ch0.bytes"),
        "no near-memory channel telemetry captured"
    );
    let digest = reach_sim::checksum64(scenarios.as_bytes());
    assert_eq!(
        digest, SCENARIOS_DIGEST,
        "scenario telemetry moved: digest {digest:#018x}"
    );
}

#[test]
fn whole_suite_telemetry_matches_the_registry_recording() {
    let scenarios = exported_scenarios("suite", &["--jobs", "2"]);
    for name in [
        "tenant.scan.latency.p99_ps",
        "latency.job.p999_ps",
        "engine.events_processed",
    ] {
        assert!(scenarios.contains(name), "no {name} captured");
    }
    let digest = reach_sim::checksum64(scenarios.as_bytes());
    assert_eq!(
        digest, SUITE_SCENARIOS_DIGEST,
        "suite telemetry moved: digest {digest:#018x}"
    );
}
