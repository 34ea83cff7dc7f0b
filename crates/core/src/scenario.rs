//! The scenario layer: one trait for every experiment point.
//!
//! A [`Scenario`] is a self-contained, independent unit of simulation — a
//! figure point, an ablation point, an analytics co-run, a sweep point.
//! It knows how to describe the machine it needs (a
//! [`MachineBlueprint`]) and what to do with it (`run`). Because scenarios
//! are `Send + Sync` and instantiate their own machines, any
//! [`ScenarioExecutor`] can fan them out — sequentially here in core, or
//! across threads in `reach-bench`'s `ScenarioRunner` — with byte-identical
//! results: determinism comes from each scenario's own seed, never from
//! execution order.

use crate::blueprint::MachineBlueprint;
use crate::fingerprint::ConfigFingerprint;
use crate::fleet::FleetScenario;
use crate::machine::Machine;
use crate::report::RunReport;

/// Default seed for scenarios that do not choose one
/// (re-exported from `reach_sim::rng`).
pub use reach_sim::rng::DEFAULT_SEED;

/// An independent experiment point.
pub trait Scenario: Send + Sync {
    /// Human-readable identity, e.g. `"fig8/near-memory/x4"`.
    fn label(&self) -> String;

    /// The seed this scenario derives all its randomness from. Executors
    /// never inject randomness, so runs replay bit-for-bit. Defaults to the
    /// process-wide session seed ([`DEFAULT_SEED`] unless `--seed N`
    /// overrode it via [`reach_sim::rng::set_session_seed`]).
    fn seed(&self) -> u64 {
        reach_sim::rng::session_seed()
    }

    /// The machine this scenario runs on.
    fn blueprint(&self) -> MachineBlueprint;

    /// Host-side work `run` will need, done ahead of time. Optional and
    /// idempotent: the default does nothing, `run` must work whether or
    /// not this was called, and calling it twice does the work once.
    ///
    /// Executors that fan scenarios out across threads call it on the
    /// calling thread, in submission order, for exactly the scenarios they
    /// are about to simulate (never for one a result cache answers), so
    /// large host allocations happen on one thread instead of in every
    /// worker's allocator arena.
    fn prepare(&self) {}

    /// Drives `machine` and reports. The machine is freshly instantiated
    /// from [`Scenario::blueprint`] and owned by this call.
    fn run(&self, machine: &mut Machine) -> RunReport;

    /// Instantiates the blueprint and runs — the one-stop entry point.
    fn execute(&self) -> RunReport {
        let mut machine = self.blueprint().instantiate();
        self.run(&mut machine)
    }

    /// A canonical digest of *everything* that determines this scenario's
    /// [`RunReport`] — machine blueprint, compiled pipeline, batch count,
    /// execution mode, seed — or `None` if the scenario cannot fully
    /// describe itself. A [`crate::ScenarioSpec`] derives it from its
    /// fields.
    ///
    /// The contract a `Some` return signs up for: two scenarios with equal
    /// fingerprints produce byte-identical reports, so executors may run
    /// one and replay the report for the other. Return `None` unless every
    /// input to `run` is covered; an under-keyed fingerprint silently
    /// poisons any result cache built on it.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        None
    }
}

/// A labelled report produced by an executor.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario's [`Scenario::label`].
    pub label: String,
    /// The report its run produced.
    pub report: RunReport,
}

/// Something that can execute a batch of scenarios.
///
/// The contract every executor must honour: results come back **in
/// submission order** and are **identical to sequential execution** —
/// parallelism is an implementation detail, never an observable one.
pub trait ScenarioExecutor {
    /// Executes every scenario and returns their results in submission
    /// order.
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult>;

    /// Executes a batch of fleet scenarios, in submission order.
    ///
    /// Every fleet expands into one ordinary [`Scenario`] per shard; the
    /// whole expansion is submitted to [`ScenarioExecutor::run_all`] as a
    /// single flat batch, so thread fan-out, shard-level result caching
    /// and fingerprint harvesting all apply unchanged. The per-shard
    /// reports are then reduced by each fleet's
    /// [`FleetScenario::aggregate`] — sequentially, in submission order,
    /// which keeps the output byte-identical at any job count.
    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        let mut batch: Vec<Box<dyn Scenario>> = Vec::new();
        let mut spans = Vec::with_capacity(fleets.len());
        for fleet in &fleets {
            let start = batch.len();
            let shards = fleet.fleet().shards();
            for shard in 0..shards {
                batch.push(fleet.shard_scenario(shard));
            }
            spans.push(start..batch.len());
        }
        let mut results = self.run_all(batch).into_iter();
        fleets
            .iter()
            .zip(spans)
            .map(|(fleet, span)| {
                let reports: Vec<RunReport> = span
                    .map(|_| {
                        results
                            .next()
                            .expect("run_all returns one result per scenario")
                            .report
                    })
                    .collect();
                ScenarioResult {
                    label: fleet.label(),
                    report: fleet.aggregate(reports),
                }
            })
            .collect()
    }
}

/// The trivial executor: runs scenarios one after another on the calling
/// thread. The reference implementation all parallel executors must match.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialExecutor;

impl ScenarioExecutor for SequentialExecutor {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        scenarios
            .iter()
            .map(|s| ScenarioResult {
                label: s.label(),
                report: s.execute(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExecMode, Level, Pipeline, ReachConfig};
    use crate::spec::{JobSource, LoweredPipeline, ScenarioSpec, Tenant};
    use crate::work::TaskWork;

    fn demo_scenario(batches: usize) -> impl Scenario {
        let mut cfg = ReachConfig::new();
        let acc = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let mut pipeline = Pipeline::new(cfg.build().expect("demo config"));
        pipeline.call(acc, TaskWork::compute(1_000_000_000), "fe");
        let jobs = JobSource::Closed {
            batches,
            mode: ExecMode::Pipelined,
        };
        ScenarioSpec::new(
            format!("demo/x{batches}"),
            MachineBlueprint::paper(),
            vec![Tenant::new("demo", LoweredPipeline::new(pipeline), jobs)],
        )
    }

    #[test]
    fn execute_builds_and_runs() {
        let scenario = demo_scenario(2);
        let report = scenario.execute();
        assert_eq!(report.jobs, 2);
        assert_eq!(scenario.label(), "demo/x2");
        assert_eq!(scenario.seed(), DEFAULT_SEED);
    }

    #[test]
    fn sequential_executor_preserves_order() {
        let batch: Vec<Box<dyn Scenario>> = vec![
            Box::new(demo_scenario(1)),
            Box::new(demo_scenario(3)),
            Box::new(demo_scenario(2)),
        ];
        let results = SequentialExecutor.run_all(batch);
        let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["demo/x1", "demo/x3", "demo/x2"]);
        assert_eq!(results[1].report.jobs, 3);
    }
}
