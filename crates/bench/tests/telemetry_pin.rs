//! Pins the per-scenario telemetry of the tile-walk-heavy experiments.
//!
//! Stdout never prints the near-memory controller's busy time, bytes or
//! contended cycles (`mem.ddr.near_mem.*`), yet the closed-form tile walk
//! in `MemoryController::stream` computes exactly those. This test runs
//! the experiments whose DMAs are tile walks, cold and sequentially, and
//! compares an FNV-1a-64 digest of the export's `scenarios` array with a
//! value recorded before the walk was put in closed form. A mismatch means
//! some simulated value moved; diff the export of the failing build
//! against one of the recording commit to see which.

use std::process::Command;

/// `checksum64` of the `scenarios` array below, recorded with the per-tile
/// walk.
const SCENARIOS_DIGEST: u64 = 0x8cd7_8c5e_bb4b_6c2c;

#[test]
fn tile_walk_telemetry_matches_the_per_tile_walk() {
    let path =
        std::env::temp_dir().join(format!("reach-telemetry-pin-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "extension-traffic",
            "extension-fleet",
            "ablation-interleave",
            "fig13",
            "--jobs",
            "1",
            "--no-result-cache",
            "--metrics",
        ])
        .arg(&path)
        .output()
        .expect("spawn experiments");
    assert!(out.status.success(), "experiments failed: {out:?}");

    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let _ = std::fs::remove_file(&path);
    let start = doc.find("\"scenarios\": [").expect("scenarios array");
    let end = doc.find("\n  ]").expect("end of scenarios array");
    let scenarios = &doc[start..end + 4];
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
