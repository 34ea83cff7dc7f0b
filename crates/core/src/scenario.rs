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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

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
    /// Executors that fan scenarios out across threads call it for
    /// exactly the scenarios they are about to simulate (never for one a
    /// result cache answers), claiming the calls in submission order from
    /// the same workers that then run them, so one scenario's `run` may
    /// overlap another's `prepare`. Work several scenarios share belongs
    /// in a [`SharedSetup`]: there `prepare` skips a build another thread
    /// has claimed instead of waiting for it, so the worker moves on to
    /// the next distinct piece of work.
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

/// Host-side set-up that several scenarios of one batch share (a graph
/// traversal, a training set), built at most once, by whichever of them
/// first needs it.
///
/// [`SharedSetup::prepare`] is the [`Scenario::prepare`] half: it builds
/// only if nobody has claimed the cell yet, and otherwise returns at once,
/// so a worker never blocks on a build in flight.
/// [`SharedSetup::get_or_build`] is the [`Scenario::run`] half: it returns
/// the value, building it if nobody has, and waits if a build is in
/// flight. Because `prepare` never blocks, a scenario whose own work is
/// done may call it on cells another scenario of its batch will wait for,
/// to help build them (help-then-wait: the recall codecs train PQ 8x8b's
/// codebooks this way).
#[derive(Debug)]
pub struct SharedSetup<T> {
    value: OnceLock<T>,
    /// Set by the first caller of either half. It publishes no data (the
    /// `OnceLock` does), so `Relaxed` is enough.
    claimed: AtomicBool,
}

impl<T> SharedSetup<T> {
    /// An empty, unclaimed cell.
    #[must_use]
    pub const fn new() -> Self {
        SharedSetup {
            value: OnceLock::new(),
            claimed: AtomicBool::new(false),
        }
    }

    /// Claims the cell and builds the value with `build`, unless another
    /// caller claimed it first (whether its build is finished or not).
    pub fn prepare(&self, build: impl FnOnce() -> T) {
        if !self.claimed.swap(true, Ordering::Relaxed) {
            let _ = self.value.get_or_init(build);
        }
    }

    /// The value, built with `build` if no build has started; waits for a
    /// build in flight.
    pub fn get_or_build(&self, build: impl FnOnce() -> T) -> &T {
        self.claimed.store(true, Ordering::Relaxed);
        self.value.get_or_init(build)
    }

    /// The value, if a build has finished.
    #[must_use]
    pub fn get(&self) -> Option<&T> {
        self.value.get()
    }
}

impl<T> Default for SharedSetup<T> {
    fn default() -> Self {
        Self::new()
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
    fn prepare_skips_a_build_in_flight_and_get_or_build_waits_for_it() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        let setup = &SharedSetup::new();
        let builds = AtomicUsize::new(0);
        let build = |value| {
            builds.fetch_add(1, Ordering::Relaxed);
            value
        };
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                setup.prepare(|| {
                    started_tx.send(()).expect("test thread waits");
                    release_rx.recv().expect("test thread releases");
                    build(1)
                });
            });
            started_rx
                .recv()
                .expect("the first prepare starts its build");
            // The first build is held open: a second prepare returns
            // without building or waiting.
            setup.prepare(|| build(2));
            assert!(setup.get().is_none(), "the held build finished early");
            let run = s.spawn(|| *setup.get_or_build(|| build(3)));
            release_tx.send(()).expect("the first build waits");
            assert_eq!(run.join().expect("get_or_build"), 1);
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        assert_eq!(setup.get(), Some(&1));
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
