//! Deterministic thread-parallel scenario execution.
//!
//! [`ScenarioRunner`] is the parallel counterpart of
//! [`reach::SequentialExecutor`]: it fans a batch of scenarios across up to
//! `jobs` OS threads and collects the results **in submission order**.
//! Scenarios are independent by contract (each instantiates its own machine
//! from its blueprint and derives all randomness from its own seed), so the
//! output is byte-identical to sequential execution — parallelism only
//! changes the wall clock, never a report.
//!
//! The runner uses `std::thread::scope` and an atomic work index; there is
//! no thread pool, no channel and no external dependency. Machines are
//! built and dropped inside the worker that claims the scenario, so only
//! the scenarios themselves and their finished [`ScenarioResult`]s cross
//! thread boundaries.
//!
//! ## The result cache
//!
//! By default every runner carries a shared [`ResultCache`]. Before any
//! thread spawns, a **sequential** pass over the batch (in submission
//! order) fingerprints each scenario via `Scenario::config_fingerprint`
//! and resolves it to one of: replay a stored report, follow an earlier
//! in-batch duplicate, or actually simulate. Only the simulate subset is
//! fanned across workers. Because the resolution pass never races, the
//! hit/miss counters, the cache contents and the returned reports are all
//! byte-identical at any job count — caching, like parallelism, is never
//! observable in the output, only in the wall clock. Build with
//! [`ScenarioRunner::without_cache`] (the `--no-result-cache` flag) to
//! force every scenario to simulate.

use crate::cache::{CacheStats, EvictionPolicy, ResultCache};
use crate::diskcache::{DiskCache, DiskCacheStats};
use reach::fleet::FleetScenario;
use reach::{
    ConfigFingerprint, MetricsSnapshot, RunReport, Scenario, ScenarioExecutor, ScenarioResult,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How the sequential fingerprint pass resolved one scenario.
enum Slot {
    /// No fingerprint (e.g. closure-backed): simulate, don't store.
    Run,
    /// First sighting of this fingerprint: simulate and store.
    Lead(ConfigFingerprint),
    /// Duplicate of the in-batch leader at this index.
    Follow(usize),
    /// Already cached: replay without simulating.
    Replay(RunReport),
}

/// A work-stealing, order-preserving executor over OS threads, with a
/// two-tier scenario-result cache in front of the simulator: the
/// in-memory [`ResultCache`], optionally backed by a persistent
/// [`DiskCache`] (`--result-cache-dir`). Lookup order is memory →
/// in-batch leader → disk → simulate; both tiers are consulted and filled
/// only from the sequential phases, so their ledgers are identical at any
/// job count.
#[derive(Clone, Debug)]
pub struct ScenarioRunner {
    jobs: usize,
    cache: Option<Arc<ResultCache>>,
    disk: Option<Arc<Mutex<DiskCache>>>,
    /// Fleet-level aggregated-report cache ledger (`run_fleets` consults
    /// the same two tiers under fleet fingerprints; these counters keep
    /// that accounting separate from the shard-level ledger).
    fleet_hits: Arc<AtomicU64>,
    fleet_misses: Arc<AtomicU64>,
}

impl ScenarioRunner {
    /// An executor that runs at most `jobs` scenarios concurrently, with
    /// result caching on. Clones share the same cache.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        assert!(jobs > 0, "ScenarioRunner needs at least one worker");
        ScenarioRunner {
            jobs,
            cache: Some(Arc::new(ResultCache::new())),
            disk: None,
            fleet_hits: Arc::new(AtomicU64::new(0)),
            fleet_misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// An executor with the result cache disabled: every scenario
    /// simulates, every time. The escape hatch behind `--no-result-cache`.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    #[must_use]
    pub fn without_cache(jobs: usize) -> Self {
        ScenarioRunner {
            cache: None,
            ..Self::new(jobs)
        }
    }

    /// An executor whose cache evicts per `policy` (the
    /// `--result-cache-policy` flag). [`ScenarioRunner::new`] is the FIFO
    /// shorthand.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero.
    #[must_use]
    pub fn with_cache_policy(jobs: usize, policy: EvictionPolicy) -> Self {
        ScenarioRunner {
            cache: Some(Arc::new(ResultCache::with_policy(
                ResultCache::DEFAULT_CAPACITY,
                policy,
            ))),
            ..Self::new(jobs)
        }
    }

    /// Attaches the persistent disk tier rooted at `dir` (the
    /// `--result-cache-dir` flag). The store is keyed to the running
    /// simulator build via [`reach::simulator_version_stamp`]; opening a
    /// foreign, corrupt, or unwritable store degrades to an empty one with
    /// a stderr warning — never an error. The disk tier is only consulted
    /// when the in-memory cache is enabled (it backs that cache; with
    /// `--no-result-cache` nothing is looked up or stored at all).
    #[must_use]
    pub fn with_disk_cache(mut self, dir: &Path) -> Self {
        self.disk = Some(Arc::new(Mutex::new(DiskCache::open(dir))));
        self
    }

    /// [`ScenarioRunner::with_disk_cache`] over an already-opened store —
    /// the test seam for injecting a [`DiskCache`] with a foreign version
    /// stamp.
    #[must_use]
    pub fn with_disk_cache_store(mut self, store: DiskCache) -> Self {
        self.disk = Some(Arc::new(Mutex::new(store)));
        self
    }

    /// The configured worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Whether a result cache is attached.
    #[must_use]
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Hit/miss counters of the attached cache (all zero when disabled).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache
            .as_deref()
            .map(ResultCache::stats)
            .unwrap_or_default()
    }

    /// Whether a persistent disk tier is attached.
    #[must_use]
    pub fn disk_cache_enabled(&self) -> bool {
        self.disk.is_some()
    }

    /// Hit/miss counters of the disk tier (all zero when absent). When
    /// attached, every in-memory miss — shard-level (counted in
    /// [`ScenarioRunner::cache_stats`]) or fleet-level (counted in
    /// [`ScenarioRunner::fleet_cache_stats`]) — falls through to exactly
    /// one disk lookup.
    #[must_use]
    pub fn disk_cache_stats(&self) -> DiskCacheStats {
        self.disk
            .as_ref()
            .map(|d| d.lock().expect("disk cache poisoned").stats())
            .unwrap_or_default()
    }

    /// Hit/miss counters of the fleet-level aggregated-report cache
    /// (all zero when the cache is disabled or no fleets ran).
    #[must_use]
    pub fn fleet_cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.fleet_hits.load(Ordering::Relaxed),
            misses: self.fleet_misses.load(Ordering::Relaxed),
        }
    }

    /// Looks `fp` up in the disk tier, counting a hit or miss. `None`
    /// when no disk tier is attached (nothing is counted).
    fn disk_lookup(&self, fp: ConfigFingerprint) -> Option<RunReport> {
        let disk = self.disk.as_ref()?;
        let mut disk = disk.lock().expect("disk cache poisoned");
        match disk.get(fp.as_u128()) {
            Some(report) => {
                disk.record_hit();
                Some(report)
            }
            None => {
                disk.record_miss();
                None
            }
        }
    }

    /// Stores a freshly simulated report in the disk tier, if attached.
    fn disk_store(&self, fp: ConfigFingerprint, report: &RunReport) {
        if let Some(disk) = &self.disk {
            disk.lock()
                .expect("disk cache poisoned")
                .insert(fp.as_u128(), report);
        }
    }

    /// Persists any new disk-tier entries (atomic rename; warns once and
    /// degrades on failure).
    fn disk_flush(&self) {
        if let Some(disk) = &self.disk {
            disk.lock().expect("disk cache poisoned").flush();
        }
    }

    /// Executes the scenarios at `indices` (into `scenarios`), returning
    /// reports in a vector indexed like `scenarios`. Runs on the calling
    /// thread below two effective workers, across scoped threads otherwise.
    fn execute_subset(
        &self,
        scenarios: &[Box<dyn Scenario>],
        indices: &[usize],
    ) -> Vec<Option<RunReport>> {
        let workers = self.jobs.min(indices.len());
        if workers <= 1 {
            let mut reports: Vec<Option<RunReport>> = (0..scenarios.len()).map(|_| None).collect();
            for &i in indices {
                reports[i] = Some(scenarios[i].execute());
            }
            return reports;
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<RunReport>>> =
            Mutex::new((0..scenarios.len()).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= indices.len() {
                        break;
                    }
                    let i = indices[k];
                    // The machine is instantiated, driven and dropped
                    // entirely inside this worker.
                    let report = scenarios[i].execute();
                    slots.lock().expect("result slots poisoned")[i] = Some(report);
                });
            }
        });
        slots.into_inner().expect("result slots poisoned")
    }
}

impl ScenarioExecutor for ScenarioRunner {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        let n = scenarios.len();

        // Phase 1 (sequential, submission order): resolve every scenario
        // against both cache tiers. Sequencing this phase is what makes
        // the hit/miss counters and the cache contents independent of
        // `jobs`. A memory miss falls through to the disk tier; a disk hit
        // also fills the memory tier, so later in-batch duplicates resolve
        // as ordinary memory hits.
        let mut slots: Vec<Slot> = Vec::with_capacity(n);
        match &self.cache {
            None => slots.extend((0..n).map(|_| Slot::Run)),
            Some(cache) => {
                let mut leaders: HashMap<ConfigFingerprint, usize> = HashMap::new();
                for (i, s) in scenarios.iter().enumerate() {
                    slots.push(match s.config_fingerprint() {
                        None => Slot::Run,
                        Some(fp) => {
                            if let Some(report) = cache.get(&fp) {
                                cache.record_hit();
                                Slot::Replay(report)
                            } else if let Some(&leader) = leaders.get(&fp) {
                                cache.record_hit();
                                Slot::Follow(leader)
                            } else {
                                cache.record_miss();
                                if let Some(report) = self.disk_lookup(fp) {
                                    cache.insert(fp, report.clone());
                                    Slot::Replay(report)
                                } else {
                                    leaders.insert(fp, i);
                                    Slot::Lead(fp)
                                }
                            }
                        }
                    });
                }
            }
        }

        // Phase 2 (parallel): simulate only what phase 1 could not answer.
        let to_run: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| matches!(slot, Slot::Run | Slot::Lead(_)))
            .map(|(i, _)| i)
            .collect();
        let mut reports = self.execute_subset(&scenarios, &to_run);

        // Phase 3 (sequential, submission order): assemble results, store
        // leader reports in both tiers, clone them for in-batch followers.
        let results = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                let report = match slot {
                    Slot::Run => reports[i].take().expect("executed scenario has a report"),
                    Slot::Lead(fp) => {
                        let report = reports[i].clone().expect("executed scenario has a report");
                        if let Some(cache) = &self.cache {
                            cache.insert(fp, report.clone());
                        }
                        self.disk_store(fp, &report);
                        report
                    }
                    // Leaders always precede their followers, so the
                    // leader's slot is still populated (Lead never takes).
                    Slot::Follow(leader) => reports[leader]
                        .clone()
                        .expect("leader precedes its followers"),
                    Slot::Replay(report) => report,
                };
                ScenarioResult {
                    label: scenarios[i].label(),
                    report,
                }
            })
            .collect();
        self.disk_flush();
        results
    }

    /// Fleet batches resolve through the same two-tier cache at *fleet*
    /// granularity before any shard expands: a fleet whose aggregated
    /// report is already cached (under its [`FleetScenario`] fingerprint)
    /// replays it outright — no shard scenarios, no shard lookups. Only
    /// missed fleets expand, through [`ScenarioExecutor::run_all`] as one
    /// flat batch, so shard-level caching and thread fan-out still apply
    /// within a cold run; their aggregated reports are then stored in both
    /// tiers. Resolution and aggregation are sequential in submission
    /// order, so the fleet ledger ([`ScenarioRunner::fleet_cache_stats`])
    /// is byte-identical at any job count.
    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        enum FleetSlot {
            /// Expand and aggregate, optionally storing under the fleet
            /// fingerprint afterwards.
            Expand(Option<ConfigFingerprint>),
            /// Aggregated report already cached: replay it.
            Replay(RunReport),
        }

        // Sequential resolution, fleet by fleet.
        let slots: Vec<FleetSlot> = fleets
            .iter()
            .map(|fleet| match (&self.cache, fleet.config_fingerprint()) {
                (Some(cache), Some(fp)) => {
                    if let Some(report) = cache.get(&fp) {
                        self.fleet_hits.fetch_add(1, Ordering::Relaxed);
                        FleetSlot::Replay(report)
                    } else if let Some(report) = self.disk_lookup(fp) {
                        self.fleet_hits.fetch_add(1, Ordering::Relaxed);
                        cache.insert(fp, report.clone());
                        FleetSlot::Replay(report)
                    } else {
                        self.fleet_misses.fetch_add(1, Ordering::Relaxed);
                        FleetSlot::Expand(Some(fp))
                    }
                }
                _ => FleetSlot::Expand(None),
            })
            .collect();

        // Expand every missed fleet into one flat shard batch.
        let mut batch: Vec<Box<dyn Scenario>> = Vec::new();
        let mut spans = Vec::with_capacity(fleets.len());
        for (fleet, slot) in fleets.iter().zip(&slots) {
            let start = batch.len();
            if matches!(slot, FleetSlot::Expand(_)) {
                for shard in 0..fleet.fleet().shards() {
                    batch.push(fleet.shard_scenario(shard));
                }
            }
            spans.push(start..batch.len());
        }
        let mut shard_results = self.run_all(batch).into_iter();

        // Sequential aggregation + store, in submission order.
        let results: Vec<ScenarioResult> = fleets
            .iter()
            .zip(slots)
            .zip(spans)
            .map(|((fleet, slot), span)| {
                let report = match slot {
                    FleetSlot::Replay(report) => report,
                    FleetSlot::Expand(fp) => {
                        let reports: Vec<RunReport> = span
                            .map(|_| {
                                shard_results
                                    .next()
                                    .expect("run_all returns one result per scenario")
                                    .report
                            })
                            .collect();
                        let report = fleet.aggregate(reports);
                        if let Some(fp) = fp {
                            if let Some(cache) = &self.cache {
                                cache.insert(fp, report.clone());
                            }
                            self.disk_store(fp, &report);
                        }
                        report
                    }
                };
                ScenarioResult {
                    label: fleet.label(),
                    report,
                }
            })
            .collect();
        self.disk_flush();
        results
    }
}

/// The headline numbers and telemetry snapshot of one finished scenario,
/// captured by a [`RecordingExecutor`].
#[derive(Clone, Debug)]
pub struct CapturedScenario {
    /// The scenario's label (e.g. `"fig13/ReACH"`).
    pub label: String,
    /// Simulated makespan in picoseconds.
    pub makespan_ps: u64,
    /// Jobs completed.
    pub jobs: u64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// The machine-wide telemetry snapshot.
    pub metrics: MetricsSnapshot,
}

impl CapturedScenario {
    /// Jobs per simulated second (0.0 for an empty run).
    #[must_use]
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        if self.makespan_ps == 0 {
            0.0
        } else {
            self.jobs as f64 / (self.makespan_ps as f64 * 1e-12)
        }
    }
}

/// Wraps an executor and captures every finished scenario's label, headline
/// numbers and telemetry snapshot — in submission order, so the capture
/// stream is byte-identical regardless of the inner executor's job count.
pub struct RecordingExecutor<'a> {
    inner: &'a dyn ScenarioExecutor,
    captured: Mutex<Vec<CapturedScenario>>,
}

impl<'a> RecordingExecutor<'a> {
    /// Records scenarios delegated to `inner`.
    #[must_use]
    pub fn new(inner: &'a dyn ScenarioExecutor) -> Self {
        RecordingExecutor {
            inner,
            captured: Mutex::new(Vec::new()),
        }
    }

    /// Takes everything captured since the last drain.
    #[must_use]
    pub fn drain(&self) -> Vec<CapturedScenario> {
        std::mem::take(&mut *self.captured.lock().expect("capture buffer poisoned"))
    }

    fn capture(&self, results: &[ScenarioResult]) {
        let mut captured = self.captured.lock().expect("capture buffer poisoned");
        for r in results {
            captured.push(CapturedScenario {
                label: r.label.clone(),
                makespan_ps: r.report.makespan.as_ps(),
                jobs: r.report.jobs,
                energy_j: r.report.total_energy_j(),
                metrics: r.report.metrics.clone(),
            });
        }
    }
}

impl ScenarioExecutor for RecordingExecutor<'_> {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        let results = self.inner.run_all(scenarios);
        self.capture(&results);
        results
    }

    // Forward instead of taking the trait default, so the inner
    // executor's fleet-level result caching applies. What gets captured
    // is the *aggregated* fleet result (label + report with the
    // `fleet.*` telemetry block), not the per-shard expansion.
    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        let results = self.inner.run_fleets(fleets);
        self.capture(&results);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;
    use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirScenario, CbirWorkload};

    fn batch() -> Vec<Box<dyn Scenario>> {
        let w = CbirWorkload::paper_setup();
        CbirMapping::ALL
            .iter()
            .map(|&mapping| {
                Box::new(CbirScenario::full(
                    format!("runner/{}", mapping.name()),
                    blueprint_with(4, 4),
                    CbirPipeline::new(w, mapping),
                    2,
                )) as Box<dyn Scenario>
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = SequentialExecutor.run_all(batch());
        let par = ScenarioRunner::new(4).run_all(batch());
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.report.makespan, p.report.makespan);
            assert_eq!(s.report.to_string(), p.report.to_string());
        }
    }

    #[test]
    fn more_workers_than_scenarios_is_fine() {
        let results = ScenarioRunner::new(64).run_all(batch());
        assert_eq!(results.len(), CbirMapping::ALL.len());
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = ScenarioRunner::new(0);
    }

    #[test]
    fn recording_captures_each_scenario_and_each_fleet_in_submission_order() {
        use reach::fleet::ShardPlacement;
        use reach_cbir::fleet::CbirFleetScenario;
        let fleets = || -> Vec<Box<dyn FleetScenario>> {
            vec![
                Box::new(CbirFleetScenario::sharded(
                    4,
                    ShardPlacement::NearStorage,
                    1,
                )),
                Box::new(CbirFleetScenario::sharded(2, ShardPlacement::NearMemory, 1)),
            ]
        };
        let capture = |jobs| {
            let runner = ScenarioRunner::new(jobs);
            let recording = RecordingExecutor::new(&runner);
            let _ = recording.run_all(batch());
            let _ = recording.run_fleets(fleets());
            recording
                .drain()
                .into_iter()
                .map(|c| (c.label, c.makespan_ps, c.jobs, c.metrics.to_json()))
                .collect::<Vec<_>>()
        };
        let sequential = capture(1);
        let labels: Vec<&str> = sequential.iter().map(|c| c.0.as_str()).collect();
        let mut expected: Vec<String> = batch().iter().map(|s| s.label()).collect();
        expected.extend(fleets().iter().map(|f| f.label()));
        // One entry per fleet, not per shard.
        assert_eq!(labels, expected);
        assert_eq!(sequential, capture(4), "capture stream changed with jobs");
    }

    fn rendered(results: &[reach::ScenarioResult]) -> String {
        results
            .iter()
            .map(|r| format!("{}\n{}", r.label, r.report))
            .collect()
    }

    #[test]
    fn cached_output_is_byte_identical_to_uncached() {
        let cached = ScenarioRunner::new(4);
        let warm = rendered(&cached.run_all(batch()));
        let hot = rendered(&cached.run_all(batch()));
        let cold = rendered(&ScenarioRunner::without_cache(4).run_all(batch()));
        assert_eq!(warm, cold);
        assert_eq!(hot, cold, "replayed reports must render identically");
        let stats = cached.cache_stats();
        let n = CbirMapping::ALL.len() as u64;
        assert_eq!(stats.misses, n, "first pass simulates everything");
        assert_eq!(stats.hits, n, "second pass replays everything");
    }

    #[test]
    fn cache_stats_are_identical_across_job_counts() {
        let mut per_jobs = Vec::new();
        for jobs in [1, 4, 8] {
            let runner = ScenarioRunner::new(jobs);
            let _ = runner.run_all(batch());
            let _ = runner.run_all(batch());
            per_jobs.push(runner.cache_stats());
        }
        assert_eq!(per_jobs[0], per_jobs[1]);
        assert_eq!(per_jobs[1], per_jobs[2]);
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let w = CbirWorkload::paper_setup();
        let point = || -> Box<dyn Scenario> {
            Box::new(CbirScenario::full(
                "dup",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::Proper),
                2,
            ))
        };
        let runner = ScenarioRunner::new(4);
        let results = runner.run_all(vec![point(), point(), point()]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].report.to_string(), results[1].report.to_string());
        assert_eq!(results[0].report.to_string(), results[2].report.to_string());
        let stats = runner.cache_stats();
        assert_eq!(stats.misses, 1, "one leader simulates");
        assert_eq!(stats.hits, 2, "two followers replay");
    }

    #[test]
    fn uncacheable_scenarios_bypass_the_cache() {
        use reach::{FnScenario, MachineBlueprint};
        let point = || -> Box<dyn Scenario> {
            Box::new(FnScenario::new(
                "closure",
                MachineBlueprint::paper(),
                |machine| {
                    let w = CbirWorkload::paper_setup();
                    CbirPipeline::new(w, CbirMapping::AllOnChip).run(machine, 1)
                },
            ))
        };
        let runner = ScenarioRunner::new(2);
        let _ = runner.run_all(vec![point(), point()]);
        assert_eq!(runner.cache_stats(), crate::cache::CacheStats::default());
    }

    #[test]
    fn cache_policy_is_never_observable_in_output() {
        // LRU vs FIFO changes *which* entries survive a full cache, never
        // what a lookup returns — at these batch sizes both policies hold
        // everything, and even at capacity a hit is a hit.
        let fifo = rendered(&ScenarioRunner::new(4).run_all(batch()));
        let lru_runner = ScenarioRunner::with_cache_policy(4, EvictionPolicy::Lru);
        assert_eq!(fifo, rendered(&lru_runner.run_all(batch())));
        assert_eq!(fifo, rendered(&lru_runner.run_all(batch())), "warm replay");
    }

    #[test]
    fn without_cache_never_counts() {
        let runner = ScenarioRunner::without_cache(4);
        let _ = runner.run_all(batch());
        let _ = runner.run_all(batch());
        assert!(!runner.cache_enabled());
        assert_eq!(runner.cache_stats(), crate::cache::CacheStats::default());
    }
}
