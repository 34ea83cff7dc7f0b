//! Configuration-fingerprint stability across the full experiment suite.
//!
//! The scenario-result cache keys on `Scenario::config_fingerprint`, so a
//! silent change to the fingerprint encoding (or to what a scenario feeds
//! into it) would quietly turn every warm cache cold — or worse, alias two
//! different configurations. This test pins the fingerprint of **every**
//! scenario the `experiments` suite submits, in submission order, against
//! a golden file.
//!
//! Regenerate after an intentional encoding change with
//! `UPDATE_GOLDEN=1 cargo test -p reach-integration --test fingerprints`.

use reach::{Scenario, ScenarioExecutor, ScenarioResult, SequentialExecutor};
use std::sync::Mutex;

/// Delegates to the sequential reference executor, recording every
/// scenario's fingerprint and label on the way through.
#[derive(Default)]
struct HarvestExecutor {
    rows: Mutex<Vec<String>>,
}

impl HarvestExecutor {
    fn rendered(&self) -> String {
        let rows = self.rows.lock().expect("harvest rows poisoned");
        let mut out = String::new();
        for row in rows.iter() {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

impl ScenarioExecutor for HarvestExecutor {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        {
            let mut rows = self.rows.lock().expect("harvest rows poisoned");
            for s in &scenarios {
                let fp = s
                    .config_fingerprint()
                    .map_or_else(|| "-".repeat(32), |f| f.to_string());
                rows.push(format!("{fp}  {}", s.label()));
            }
        }
        SequentialExecutor.run_all(scenarios)
    }
}

fn check_golden(rendered: &str, path: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")), rendered)
            .expect("golden file is writable");
        return;
    }
    assert!(
        rendered == golden,
        "{path} drifted — the fingerprint encoding or a scenario's inputs \
         changed. If intentional, regenerate with UPDATE_GOLDEN=1.\n\
         --- rendered ---\n{rendered}\n--- golden ---\n{golden}"
    );
}

#[test]
fn full_suite_fingerprints_match_golden_file() {
    let harvest = HarvestExecutor::default();
    for (_, render) in reach_bench::renderers() {
        let _ = render(&harvest);
    }
    let rendered = harvest.rendered();
    let lines: Vec<&str> = rendered.lines().collect();
    assert!(
        lines.len() >= 100,
        "expected the full suite, saw {} scenarios",
        lines.len()
    );
    // Every suite scenario is keyed: specs derive their keys from their
    // fields, and the named scenarios write their own.
    let unkeyed: Vec<&&str> = lines.iter().filter(|l| l.starts_with("----")).collect();
    assert!(
        unkeyed.is_empty(),
        "{}/{} scenarios unkeyed — a fingerprint regression: {unkeyed:?}",
        unkeyed.len(),
        lines.len()
    );
    check_golden(
        &rendered,
        "../../tests/golden/fingerprints.txt",
        include_str!("golden/fingerprints.txt"),
    );
}
