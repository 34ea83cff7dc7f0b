//! The fleet topology layer: many machines, one dataset.
//!
//! One [`crate::MachineBlueprint`] describes one machine. Serving a
//! billion-vector dataset means a *fleet*: N machines, each owning a shard
//! of the dataset, queried scatter-gather style — the aggregator broadcasts
//! each query batch to every shard (the paper's `Broadcast` stream pattern,
//! lifted to the inter-machine link), each machine runs the same pipeline
//! against its shard, and the per-shard partial top-K results are collected
//! (the `Collect` pattern) and merged into the global answer.
//!
//! * [`FleetBlueprint`] composes N node blueprints with the topology knobs:
//!   shard placement, replication, and the inter-machine
//!   [`InterMachineLink`] (latency + bandwidth, modelled in `reach-sim`).
//! * [`FleetScenario`] is the fleet counterpart of [`crate::Scenario`]: it
//!   expands into one ordinary scenario per shard plus a deterministic
//!   `aggregate` step. Executors run the shard scenarios through their
//!   normal [`crate::ScenarioExecutor::run_all`] path (so parallel fan-out
//!   and the shard-level result cache apply unchanged), then reduce.
//! * [`aggregate_scatter_gather`] is the reference reduction: an analytic,
//!   integer-exact timing model of broadcast / compute / collect / merge.
//!
//! A single-node fleet is the degenerate case by construction:
//! [`aggregate_scatter_gather`] returns the lone shard's report **unchanged**
//! (the aggregator is co-located with the only shard, so no link hop is
//! billed), which is what keeps every existing single-machine scenario
//! byte-identical when wrapped as a 1-node fleet.

use crate::blueprint::MachineBlueprint;
use crate::fingerprint::ConfigFingerprint;
use crate::report::{RunReport, StageSummary};
use crate::scenario::Scenario;
use reach_sim::{Bandwidth, FingerprintBuilder, MetricsSnapshot, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The inter-machine link model: fixed propagation latency plus
/// serialization bandwidth (re-exported from `reach-sim`, where the timing
/// resource lives).
pub use reach_sim::Link as InterMachineLink;

/// Which compute level of each node owns its dataset shard — the fleet
/// analogue of a [`crate::api::Level`] choice for the short-list store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShardPlacement {
    /// Shards live in the nodes' near-memory DIMMs.
    NearMemory,
    /// Shards live behind the nodes' near-storage SSDs.
    NearStorage,
}

impl ShardPlacement {
    /// Both placements, in presentation order.
    pub const ALL: [ShardPlacement; 2] = [ShardPlacement::NearMemory, ShardPlacement::NearStorage];

    /// Stable lowercase name used in labels and rendered rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShardPlacement::NearMemory => "near-memory",
            ShardPlacement::NearStorage => "near-storage",
        }
    }
}

/// A rack-class default link: 2 us one-way latency, 12.5 GB/s (100 GbE
/// wire rate) serialization.
#[must_use]
pub fn rack_link() -> InterMachineLink {
    InterMachineLink::new(
        SimDuration::from_us(2),
        Bandwidth::from_bytes_per_sec(12_500_000_000),
    )
}

/// An immutable recipe for a fleet: N node blueprints, an inter-machine
/// link, a shard placement level and a replication factor.
///
/// Like [`MachineBlueprint`], a `FleetBlueprint` is a cheap-to-clone value
/// describing topology only; [`FleetScenario`]s decide what runs on it.
/// Replication is a topology/fingerprint knob: replicas are modelled as
/// failover standbys and do not change the timing of a healthy run.
#[derive(Clone, Debug)]
pub struct FleetBlueprint {
    nodes: Vec<MachineBlueprint>,
    link: InterMachineLink,
    placement: ShardPlacement,
    replication: usize,
}

impl FleetBlueprint {
    /// The trivial fleet: one node, no replication, rack-class link. Every
    /// single-machine scenario is this fleet in disguise.
    #[must_use]
    pub fn single(node: MachineBlueprint) -> Self {
        Self::uniform(node, 1)
    }

    /// A homogeneous fleet of `shards` copies of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn uniform(node: MachineBlueprint, shards: usize) -> Self {
        assert!(shards > 0, "FleetBlueprint needs at least one node");
        FleetBlueprint {
            nodes: vec![node; shards],
            link: rack_link(),
            placement: ShardPlacement::NearStorage,
            replication: 1,
        }
    }

    /// A copy with a different inter-machine link.
    #[must_use]
    pub fn with_link(mut self, link: InterMachineLink) -> Self {
        self.link = link;
        self
    }

    /// A copy with a different shard placement level.
    #[must_use]
    pub fn with_placement(mut self, placement: ShardPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// A copy with a different replication factor (minimum 1 = no
    /// replicas). Replicas are standby copies of each shard; they appear in
    /// the fingerprint and the fleet metrics but a healthy scatter-gather
    /// run never routes to them.
    ///
    /// # Panics
    ///
    /// Panics if `replication` is zero.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication > 0, "replication factor must be at least 1");
        self.replication = replication;
        self
    }

    /// Number of dataset shards (= primary nodes).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.nodes.len()
    }

    /// The blueprint of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node(&self, i: usize) -> &MachineBlueprint {
        &self.nodes[i]
    }

    /// All node blueprints, in shard order.
    #[must_use]
    pub fn nodes(&self) -> &[MachineBlueprint] {
        &self.nodes
    }

    /// The inter-machine link.
    #[must_use]
    pub fn link(&self) -> InterMachineLink {
        self.link
    }

    /// The shard placement level.
    #[must_use]
    pub fn placement(&self) -> ShardPlacement {
        self.placement
    }

    /// The replication factor (1 = primaries only).
    #[must_use]
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Canonical digest of the whole topology: every node blueprint (in
    /// shard order), the link's latency and bandwidth, the placement and
    /// the replication factor. Two fleets with equal fingerprints simulate
    /// identically under the same [`FleetScenario`].
    #[must_use]
    pub fn fingerprint(&self) -> ConfigFingerprint {
        let mut b = FingerprintBuilder::new("reach-fleet-v1");
        b.write_usize(self.nodes.len());
        for node in &self.nodes {
            node.fingerprint().write_into(&mut b);
        }
        b.write_u64(self.link.latency().as_ps());
        b.write_u64(self.link.bandwidth().as_bytes_per_sec());
        b.write_debug(&self.placement);
        b.write_usize(self.replication);
        ConfigFingerprint::from_builder(b)
    }
}

/// A fleet experiment point: a topology plus one ordinary [`Scenario`] per
/// shard plus a deterministic reduction of the per-shard reports.
///
/// Executors run fleets via
/// [`crate::ScenarioExecutor::run_fleets`], which expands every fleet into
/// its shard scenarios, drives them through the executor's normal
/// `run_all` path (thread fan-out, result caching and fingerprint
/// harvesting all apply at shard granularity), and then calls
/// [`FleetScenario::aggregate`] in submission order.
pub trait FleetScenario: Send + Sync {
    /// Human-readable identity, e.g. `"fleet/near-storage/x8"`.
    fn label(&self) -> String;

    /// The topology this point runs on.
    fn fleet(&self) -> FleetBlueprint;

    /// The single-machine scenario shard `shard` runs (indices
    /// `0..fleet().shards()`).
    fn shard_scenario(&self, shard: usize) -> Box<dyn Scenario>;

    /// Reduces the per-shard reports (in shard order) into the fleet-level
    /// report. Must be deterministic: same reports in, byte-identical
    /// report out.
    fn aggregate(&self, shard_reports: Vec<RunReport>) -> RunReport;

    /// A canonical digest of everything that determines this fleet point's
    /// aggregated report, or `None` if it cannot fully describe itself.
    /// Same contract as [`Scenario::config_fingerprint`].
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        None
    }
}

/// The byte volumes and merge cost of one scatter-gather round trip,
/// expressed in the paper's stream vocabulary: `scatter_bytes` rides a
/// `Broadcast` fan-out from the aggregator to every shard, `gather_bytes`
/// rides the `Collect` fan-in back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterGatherSpec {
    /// Bytes broadcast to **each** shard per job (e.g. the query batch).
    pub scatter_bytes: u64,
    /// Bytes collected from **each** shard per job (e.g. the partial
    /// top-K).
    pub gather_bytes: u64,
    /// Aggregator time to merge the N partial results of one job.
    pub merge_cost: SimDuration,
}

/// The reference scatter-gather reduction: an analytic, integer-exact
/// timing model over per-shard [`RunReport`]s.
///
/// The model, per shard `i` and job `j` (all picosecond-exact):
///
/// * **Scatter** — the aggregator serializes the broadcast copies one
///   after another on its NIC, so shard `i`'s timeline starts at
///   `scatter_done_i = latency + (i+1) * tx(scatter_bytes)`. Later jobs
///   pipeline behind the first, so the offset is charged once per shard,
///   not once per job.
/// * **Compute** — shard `i` finishes job `j` at
///   `scatter_done_i + completions_i[j]` (its own report's completion
///   instant, shifted onto the fleet timeline).
/// * **Gather + merge** — job `j`'s fleet answer is ready one link latency
///   plus N serialized `tx(gather_bytes)` plus `merge_cost` after the
///   **slowest** shard's completion.
///
/// Latencies are the shard-0 latencies plus each job's fleet-added delay
/// (shard 0 is the reference timeline; all shards run the same query
/// stream). Stages are merged by name across shards — busy and task counts
/// summed, windows shifted onto the fleet timeline and unioned. Energy
/// ledgers and GAM counters sum across shards. Fleet-level telemetry
/// (per-shard busy and makespan, link traffic and occupancy, aggregator
/// merge time) replaces the per-machine snapshot.
///
/// **The 1-shard case returns the report completely unchanged** — the
/// aggregator is co-located with the only shard, so no link hop and no
/// merge is billed. This is the byte-identity guarantee existing
/// single-machine scenarios rely on.
///
/// # Panics
///
/// Panics if `reports` does not have exactly one report per shard, if the
/// shards disagree on job count, or if a shard completed zero jobs.
#[must_use]
pub fn aggregate_scatter_gather(
    fleet: &FleetBlueprint,
    mut reports: Vec<RunReport>,
    spec: &ScatterGatherSpec,
) -> RunReport {
    let n = fleet.shards();
    assert_eq!(
        reports.len(),
        n,
        "aggregate_scatter_gather: {} report(s) for {n} shard(s)",
        reports.len()
    );
    if n == 1 {
        return reports.pop().expect("one shard, one report");
    }
    let jobs = reports[0].jobs;
    assert!(jobs > 0, "aggregate_scatter_gather: empty shard runs");
    for r in &reports {
        assert_eq!(r.jobs, jobs, "shards disagree on job count");
        assert_eq!(
            r.completions.len(),
            jobs as usize,
            "shard report missing per-job completions"
        );
    }
    let link = fleet.link();
    let scatter_tx = link.bandwidth().transfer_time(spec.scatter_bytes);
    let scatter_done: Vec<SimDuration> = (0..n)
        .map(|i| link.latency() + scatter_tx * (i as u64 + 1))
        .collect();
    let gather_cost = link.latency()
        + link.bandwidth().transfer_time(spec.gather_bytes) * n as u64
        + spec.merge_cost;

    // Per-job fleet completion instants, on the fleet timeline.
    let completions: Vec<SimTime> = (0..jobs as usize)
        .map(|j| {
            let slowest = reports
                .iter()
                .zip(&scatter_done)
                .map(|(r, &offset)| r.completions[j] + offset)
                .max()
                .expect("at least one shard");
            slowest + gather_cost
        })
        .collect();
    let last = *completions.last().expect("jobs > 0");
    let makespan_floor = reports
        .iter()
        .zip(&scatter_done)
        .map(|(r, &offset)| offset + r.makespan)
        .max()
        .expect("at least one shard");
    let makespan = makespan_floor.max(last.since(SimTime::ZERO));

    // Latency deltas versus the shard-0 reference timeline.
    let delta_ps: Vec<u64> = completions
        .iter()
        .zip(&reports[0].completions)
        .map(|(fleet_c, shard_c)| fleet_c.as_ps() - shard_c.as_ps())
        .collect();
    let mean_delta = SimDuration::from_ps(delta_ps.iter().sum::<u64>() / jobs);
    let job_latency_mean = reports[0].job_latency_mean + mean_delta;
    let job_latency_last =
        reports[0].job_latency_last + SimDuration::from_ps(*delta_ps.last().expect("jobs > 0"));

    // Stages merged by name: busy and tasks summed, windows shifted onto
    // the fleet timeline and unioned. BTreeMap keeps the sorted-by-name
    // invariant of RunReport::stages.
    let mut stages: BTreeMap<String, StageSummary> = BTreeMap::new();
    for (r, &offset) in reports.iter().zip(&scatter_done) {
        for s in &r.stages {
            let window = (s.window.0 + offset, s.window.1 + offset);
            stages
                .entry(s.name.clone())
                .and_modify(|m| {
                    m.busy += s.busy;
                    m.tasks += s.tasks;
                    m.window = (m.window.0.min(window.0), m.window.1.max(window.1));
                })
                .or_insert_with(|| StageSummary {
                    name: s.name.clone(),
                    busy: s.busy,
                    window,
                    tasks: s.tasks,
                });
        }
    }

    let mut ledger = reports[0].ledger.clone();
    for r in &reports[1..] {
        ledger.merge(&r.ledger);
    }

    // Fleet-level telemetry replaces the per-machine snapshots.
    let mut metrics = MetricsSnapshot::new(makespan.as_ps());
    metrics.set_counter("fleet.shards", n as u64);
    metrics.set_counter("fleet.replication", fleet.replication() as u64);
    for (i, r) in reports.iter().enumerate() {
        let busy: SimDuration = r.stages.iter().map(|s| s.busy).sum();
        metrics.set_counter(format!("fleet.shard{i}.busy_ps"), busy.as_ps());
        metrics.set_counter(format!("fleet.shard{i}.makespan_ps"), r.makespan.as_ps());
    }
    let scatter_bytes_total = spec.scatter_bytes * n as u64;
    let gather_bytes_total = spec.gather_bytes * n as u64 * jobs;
    let link_busy =
        scatter_tx * n as u64 + link.bandwidth().transfer_time(spec.gather_bytes) * n as u64 * jobs;
    metrics.set_counter("fleet.link.scatter_bytes", scatter_bytes_total);
    metrics.set_counter("fleet.link.gather_bytes", gather_bytes_total);
    metrics.set_counter("fleet.link.busy_ps", link_busy.as_ps());
    metrics.set_counter(
        "fleet.aggregator.merge_ps",
        (spec.merge_cost * jobs).as_ps(),
    );

    RunReport {
        makespan,
        jobs,
        job_latency_mean,
        job_latency_last,
        stages: stages.into_values().collect(),
        ledger,
        completions,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_energy::{EnergyLedger, SystemComponent};

    fn shard_report(makespan_ms: u64, jobs: u64) -> RunReport {
        let mut ledger = EnergyLedger::new();
        ledger.add(SystemComponent::Accelerator, "sl", 1.5);
        let per_job = SimDuration::from_ms(makespan_ms) / jobs;
        RunReport {
            makespan: SimDuration::from_ms(makespan_ms),
            jobs,
            job_latency_mean: per_job,
            job_latency_last: per_job,
            stages: vec![StageSummary {
                name: "sl".into(),
                busy: SimDuration::from_ms(makespan_ms / 2),
                window: (
                    SimTime::ZERO,
                    SimTime::ZERO + SimDuration::from_ms(makespan_ms),
                ),
                tasks: jobs,
            }],
            ledger,
            completions: (1..=jobs).map(|j| SimTime::ZERO + per_job * j).collect(),
            metrics: MetricsSnapshot::new(0),
        }
    }

    fn fleet_of(n: usize) -> FleetBlueprint {
        FleetBlueprint::uniform(MachineBlueprint::paper(), n)
    }

    const SPEC: ScatterGatherSpec = ScatterGatherSpec {
        scatter_bytes: 1_000_000,
        gather_bytes: 1_000,
        merge_cost: SimDuration::from_us(1),
    };

    #[test]
    fn single_shard_report_is_returned_unchanged() {
        let report = shard_report(100, 4);
        let reference = report.to_string();
        let merged = aggregate_scatter_gather(&fleet_of(1), vec![report], &SPEC);
        assert_eq!(merged.to_string(), reference);
        assert!(merged.metrics.get("fleet.shards").is_none());
    }

    #[test]
    fn multi_shard_merge_sums_and_shifts() {
        let merged = aggregate_scatter_gather(
            &fleet_of(4),
            (0..4).map(|_| shard_report(100, 4)).collect(),
            &SPEC,
        );
        assert_eq!(merged.jobs, 4);
        // Fan-out, compute, fan-in: strictly slower than one shard alone.
        assert!(merged.makespan > SimDuration::from_ms(100));
        // All four shards' busy time and energy are accounted.
        assert_eq!(merged.stages.len(), 1);
        assert_eq!(merged.stages[0].busy, SimDuration::from_ms(200));
        assert_eq!(merged.stages[0].tasks, 16);
        assert!((merged.total_energy_j() - 6.0).abs() < 1e-9);
        // Per-job latency grows by the fleet round trip.
        assert!(merged.job_latency_mean > SimDuration::from_ms(25));
        assert_eq!(merged.completions.len(), 4);
    }

    #[test]
    fn fleet_metrics_cover_shards_link_and_merge() {
        let merged = aggregate_scatter_gather(
            &fleet_of(2),
            (0..2).map(|_| shard_report(10, 2)).collect(),
            &SPEC,
        );
        for name in [
            "fleet.shards",
            "fleet.replication",
            "fleet.shard0.busy_ps",
            "fleet.shard1.makespan_ps",
            "fleet.link.scatter_bytes",
            "fleet.link.gather_bytes",
            "fleet.link.busy_ps",
            "fleet.aggregator.merge_ps",
        ] {
            assert!(merged.metrics.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn slowest_shard_gates_every_job() {
        let fast = shard_report(100, 2);
        let slow = shard_report(200, 2);
        let merged = aggregate_scatter_gather(&fleet_of(2), vec![fast, slow.clone()], &SPEC);
        // Completion of the last job is bounded below by the slow shard's.
        let slow_last = slow.completions.last().expect("jobs").as_ps();
        assert!(merged.completions.last().expect("jobs").as_ps() > slow_last);
    }

    #[test]
    #[should_panic(expected = "shards disagree")]
    fn mismatched_job_counts_rejected() {
        let _ = aggregate_scatter_gather(
            &fleet_of(2),
            vec![shard_report(10, 2), shard_report(10, 3)],
            &SPEC,
        );
    }

    #[test]
    #[should_panic(expected = "report(s) for")]
    fn report_count_must_match_shards() {
        let _ = aggregate_scatter_gather(&fleet_of(3), vec![shard_report(10, 1)], &SPEC);
    }

    #[test]
    fn builders_and_accessors() {
        let link = InterMachineLink::new(SimDuration::from_us(5), Bandwidth::from_gbps(25));
        let fleet = FleetBlueprint::uniform(MachineBlueprint::paper(), 4)
            .with_link(link)
            .with_placement(ShardPlacement::NearMemory)
            .with_replication(2);
        assert_eq!(fleet.shards(), 4);
        assert_eq!(fleet.nodes().len(), 4);
        assert_eq!(fleet.link(), link);
        assert_eq!(fleet.placement(), ShardPlacement::NearMemory);
        assert_eq!(fleet.replication(), 2);
        assert_eq!(
            FleetBlueprint::single(MachineBlueprint::paper()).shards(),
            1
        );
        assert_eq!(ShardPlacement::NearMemory.name(), "near-memory");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_shards_rejected() {
        let _ = FleetBlueprint::uniform(MachineBlueprint::paper(), 0);
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn zero_replication_rejected() {
        let _ = FleetBlueprint::single(MachineBlueprint::paper()).with_replication(0);
    }

    /// Flipping any fleet knob — shard count, placement, replication, link
    /// latency, link bandwidth, a node's shape — must change the
    /// fingerprint; a missed knob would alias two different fleets in the
    /// result cache.
    #[test]
    fn fingerprint_tracks_every_fleet_knob() {
        let base = || FleetBlueprint::uniform(MachineBlueprint::paper(), 4);
        type Mutation = (&'static str, Box<dyn Fn(FleetBlueprint) -> FleetBlueprint>);
        let mutations: Vec<Mutation> = vec![
            (
                "shard count",
                Box::new(|_| FleetBlueprint::uniform(MachineBlueprint::paper(), 8)),
            ),
            (
                "placement",
                Box::new(|f| f.with_placement(ShardPlacement::NearMemory)),
            ),
            ("replication", Box::new(|f| f.with_replication(3))),
            (
                "link latency",
                Box::new(|f| {
                    let bw = f.link().bandwidth();
                    f.with_link(InterMachineLink::new(SimDuration::from_us(20), bw))
                }),
            ),
            (
                "link bandwidth",
                Box::new(|f| {
                    let lat = f.link().latency();
                    f.with_link(InterMachineLink::new(lat, Bandwidth::from_gbps(100)))
                }),
            ),
            (
                "node shape",
                Box::new(|_| {
                    FleetBlueprint::uniform(
                        MachineBlueprint::paper()
                            .map_config(|cfg| cfg.near_memory_accelerators = 16),
                        4,
                    )
                }),
            ),
        ];
        let reference = base().fingerprint();
        let mut seen = vec![reference];
        for (knob, mutate) in mutations {
            let fp = mutate(base()).fingerprint();
            assert!(
                !seen.contains(&fp),
                "{knob} did not change the fleet fingerprint"
            );
            seen.push(fp);
        }
        // Stability: the same topology digests to the same value.
        assert_eq!(base().fingerprint(), reference);
    }
}
