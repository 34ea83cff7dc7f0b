//! A warm runner answers the whole suite from its store: every experiment
//! id rendered against a filled disk store reproduces the golden stdout
//! while no scenario prepares or simulates, and every experiment that
//! simulates does so through its executor.

use reach::fleet::{FleetBlueprint, FleetScenario};
use reach::{
    ConfigFingerprint, Machine, MachineBlueprint, RunReport, Scenario, ScenarioExecutor,
    ScenarioResult,
};
use reach_bench::{renderers, ScenarioRunner};
use std::sync::Mutex;

/// Analytics points: four selectivities, each host-side and near-storage.
const ANALYTICS_POINTS: usize = 8;

/// A scenario whose key, label and machine are the wrapped one's, but
/// which panics if an executor prepares or simulates it.
struct Unrunnable(Box<dyn Scenario>);

impl Scenario for Unrunnable {
    fn label(&self) -> String {
        self.0.label()
    }

    fn seed(&self) -> u64 {
        self.0.seed()
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.0.blueprint()
    }

    fn prepare(&self) {
        panic!("a warm pass prepared {}", self.0.label());
    }

    fn run(&self, _machine: &mut Machine) -> RunReport {
        panic!("a warm pass simulated {}", self.0.label());
    }

    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        self.0.config_fingerprint()
    }
}

/// A fleet whose shards are all [`Unrunnable`].
struct UnrunnableFleet(Box<dyn FleetScenario>);

impl FleetScenario for UnrunnableFleet {
    fn label(&self) -> String {
        self.0.label()
    }

    fn fleet(&self) -> FleetBlueprint {
        self.0.fleet()
    }

    fn shard_scenario(&self, shard: usize) -> Box<dyn Scenario> {
        Box::new(Unrunnable(self.0.shard_scenario(shard)))
    }

    fn aggregate(&self, shard_reports: Vec<RunReport>) -> RunReport {
        self.0.aggregate(shard_reports)
    }

    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        self.0.config_fingerprint()
    }
}

/// Hands every scenario and fleet to `inner` unrunnable, counting the
/// scenarios it was given.
struct Probe {
    inner: ScenarioRunner,
    scenarios: Mutex<usize>,
}

impl ScenarioExecutor for Probe {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        *self.scenarios.lock().unwrap() += scenarios.len();
        self.inner.run_all(
            scenarios
                .into_iter()
                .map(|s| Box::new(Unrunnable(s)) as Box<dyn Scenario>)
                .collect(),
        )
    }

    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        self.inner.run_fleets(
            fleets
                .into_iter()
                .map(|f| Box::new(UnrunnableFleet(f)) as Box<dyn FleetScenario>)
                .collect(),
        )
    }
}

#[test]
fn warm_runner_renders_the_whole_suite_without_simulating() {
    let dir = std::env::temp_dir().join(format!("reach-warm-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let cold = ScenarioRunner::new(2).with_disk_cache(&dir);
    for (_, render) in renderers() {
        let _ = render(&cold);
    }
    cold.flush();

    // A fresh runner on the same store: a new process, in effect.
    let probe = Probe {
        inner: ScenarioRunner::new(2).with_disk_cache(&dir),
        scenarios: Mutex::new(0),
    };
    let ids = renderers();
    assert_eq!(ids.len(), 25);
    let mut stdout = String::new();
    let mut analytics = None;
    for (i, (id, render)) in ids.iter().enumerate() {
        if i > 0 {
            stdout.push('\n');
        }
        let before = *probe.scenarios.lock().unwrap();
        stdout.push_str(&render(&probe));
        if *id == "extension-analytics" {
            analytics = Some(*probe.scenarios.lock().unwrap() - before);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert!(
        stdout == include_str!("../../../tests/golden/experiments_stdout.txt"),
        "warm stdout drifted from the golden:\n{stdout}"
    );
    let disk = probe.inner.disk_cache_stats();
    assert_eq!(disk.misses, 0, "a warm pass missed the store");
    assert!(disk.hits > 0);
    assert_eq!(
        analytics,
        Some(ANALYTICS_POINTS),
        "extension-analytics bypassed its executor"
    );
}
