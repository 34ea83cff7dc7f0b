//! Sharded-dataset scatter-gather CBIR across a fleet of machines.
//!
//! The billion-vector dataset is split into N equal shards, one per
//! machine: each node holds `centroid_store_bytes / N` of the short-list
//! store and answers each query batch with its own partial top-K over
//! `candidates_per_query / N` rerank candidates. The aggregator broadcasts
//! the query images to every shard, collects the N partial top-K lists and
//! merges them (see [`crate::topk::merge_top_k`] for the proof that the
//! merged list equals the unsharded answer). Timing rides
//! [`reach::aggregate_scatter_gather`]'s analytic model.
//!
//! With N = 1 the shard workload **is** the paper's setup and the fleet
//! report is the single-machine report byte-for-byte — the degenerate case
//! every existing scenario reduces to.

use crate::pipeline::{CbirMapping, CbirPipeline, IMAGE_BYTES};
use crate::scenarios::{blueprint_with, CbirScenario};
use crate::workload::CbirWorkload;
use reach::fingerprint::ConfigFingerprint;
use reach::fleet::{
    aggregate_scatter_gather, FleetBlueprint, FleetScenario, ScatterGatherSpec, ShardPlacement,
};
use reach::{RunReport, Scenario, ScenarioExecutor, ScenarioSpec};
use reach_sim::{FingerprintBuilder, SimDuration};
use std::fmt;

/// Shard counts swept by the fleet scatter-gather experiment.
pub const FLEET_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Query batches per fleet point.
pub const FLEET_BATCHES: usize = 8;

/// One scatter-gather CBIR point: a homogeneous fleet whose shards each
/// run the paper's pipeline over `1/N`-th of the dataset.
#[derive(Clone, Debug)]
pub struct CbirFleetScenario {
    label: String,
    fleet: FleetBlueprint,
    batches: usize,
}

impl CbirFleetScenario {
    /// A fleet of `shards` paper-shaped nodes (4 near-memory + 4
    /// near-storage accelerators each) with the dataset split evenly and
    /// placed at `placement`, labelled `fleet/<placement>/x<shards>`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn sharded(shards: usize, placement: ShardPlacement, batches: usize) -> Self {
        let fleet = FleetBlueprint::uniform(blueprint_with(4, 4), shards).with_placement(placement);
        CbirFleetScenario {
            label: format!("fleet/{}/x{shards}", placement.name()),
            fleet,
            batches,
        }
    }

    /// A copy with the topology adjusted by `adjust` — the idiom for
    /// varying one fleet knob (link, replication) around a base point.
    #[must_use]
    pub fn map_fleet(mut self, adjust: impl FnOnce(FleetBlueprint) -> FleetBlueprint) -> Self {
        self.fleet = adjust(self.fleet);
        self
    }

    /// The per-shard workload: the paper's setup with the short-list store
    /// and the rerank candidate volume divided by the shard count. One
    /// shard reproduces `CbirWorkload::paper_setup()` exactly.
    #[must_use]
    pub fn shard_workload(&self) -> CbirWorkload {
        let n = self.fleet.shards();
        let mut w = CbirWorkload::paper_setup();
        w.centroid_store_bytes /= n as u64;
        w.candidates_per_query /= n;
        w
    }

    /// The pipeline mapping implied by the shard placement: near-storage
    /// shards run the paper's proper (ReACH) mapping, near-memory shards
    /// keep every stage at the near-memory level.
    #[must_use]
    pub fn mapping(&self) -> CbirMapping {
        match self.fleet.placement() {
            ShardPlacement::NearStorage => CbirMapping::Proper,
            ShardPlacement::NearMemory => CbirMapping::AllNearMemory,
        }
    }

    fn shard_cbir(&self, shard: usize) -> ScenarioSpec {
        CbirScenario::full(
            format!("{}/shard{shard}", self.label),
            self.fleet.node(shard).clone(),
            CbirPipeline::new(self.shard_workload(), self.mapping()),
            self.batches,
        )
    }

    fn spec(&self) -> ScatterGatherSpec {
        let full = CbirWorkload::paper_setup();
        let shard = self.shard_workload();
        ScatterGatherSpec {
            // Broadcast: the raw query images of one batch, to each shard.
            scatter_bytes: full.batch as u64 * IMAGE_BYTES,
            // Collect: one partial top-K (batch x k x 8 B) from each shard.
            gather_bytes: shard.result_bytes(),
            // K-way merge of N sorted k-lists at one element per
            // nanosecond, per query in the batch.
            merge_cost: SimDuration::from_ns((full.batch * full.k * self.fleet.shards()) as u64),
        }
    }
}

impl FleetScenario for CbirFleetScenario {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn fleet(&self) -> FleetBlueprint {
        self.fleet.clone()
    }

    fn shard_scenario(&self, shard: usize) -> Box<dyn Scenario> {
        Box::new(self.shard_cbir(shard))
    }

    fn aggregate(&self, shard_reports: Vec<RunReport>) -> RunReport {
        aggregate_scatter_gather(&self.fleet, shard_reports, &self.spec())
    }

    /// Composes the fleet topology digest with every shard scenario's own
    /// fingerprint and the batch count — so any knob that changes a shard's
    /// simulation, or the topology around it, changes the fleet digest.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-cbir-fleet-v1");
        self.fleet.fingerprint().write_into(&mut b);
        for shard in 0..self.fleet.shards() {
            self.shard_cbir(shard)
                .config_fingerprint()?
                .write_into(&mut b);
        }
        b.write_usize(self.batches);
        Some(ConfigFingerprint::from_builder(b))
    }
}

/// One rendered row of the fleet scatter-gather experiment.
#[derive(Clone, Debug)]
pub struct FleetRow {
    /// Where the shards live.
    pub placement: ShardPlacement,
    /// Dataset shard count.
    pub shards: usize,
    /// Fleet makespan in milliseconds.
    pub makespan_ms: f64,
    /// Throughput gain over the same-placement single-machine point.
    pub throughput_gain: f64,
    /// Mean accelerator busy time per shard, in milliseconds.
    pub shard_busy_ms: f64,
    /// Inter-machine link occupancy in milliseconds (0 for one shard).
    pub link_busy_ms: f64,
    /// Aggregator merge time in milliseconds (0 for one shard).
    pub merge_ms: f64,
    /// Total fleet energy in joules.
    pub energy_j: f64,
}

impl fmt::Display for FleetRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} x{:<2} makespan {:>9.3}ms  throughput {:>5.2}x  busy/shard {:>9.3}ms  \
             link {:>7.3}ms  merge {:>6.3}ms  {:>7.2}J",
            self.placement.name(),
            self.shards,
            self.makespan_ms,
            self.throughput_gain,
            self.shard_busy_ms,
            self.link_busy_ms,
            self.merge_ms,
            self.energy_j
        )
    }
}

/// Runs the scatter-gather sweep — [`FLEET_SWEEP`] shard counts at both
/// placements — through `executor` and reduces each fleet to a
/// [`FleetRow`]. Throughput gains are normalized per placement against its
/// own 1-shard point.
#[must_use]
pub fn fleet_scatter_gather_with(executor: &dyn ScenarioExecutor) -> Vec<FleetRow> {
    let mut fleets: Vec<Box<dyn FleetScenario>> = Vec::new();
    for placement in ShardPlacement::ALL {
        for &shards in &FLEET_SWEEP {
            fleets.push(Box::new(CbirFleetScenario::sharded(
                shards,
                placement,
                FLEET_BATCHES,
            )));
        }
    }
    let results = executor.run_fleets(fleets);
    let mut rows = Vec::with_capacity(results.len());
    for (p, placement) in ShardPlacement::ALL.into_iter().enumerate() {
        let group = &results[p * FLEET_SWEEP.len()..(p + 1) * FLEET_SWEEP.len()];
        let base_throughput = group[0].report.throughput_jobs_per_sec();
        for (r, &shards) in group.iter().zip(&FLEET_SWEEP) {
            // A fleet counter reads 0 when absent: the 1-shard case carries
            // the unchanged single-machine snapshot.
            let counter = |name: &str| r.report.metrics.counter(name).unwrap_or(0);
            let total_busy: SimDuration = r.report.stages.iter().map(|s| s.busy).sum();
            rows.push(FleetRow {
                placement,
                shards,
                makespan_ms: r.report.makespan.as_ms_f64(),
                throughput_gain: r.report.throughput_jobs_per_sec() / base_throughput,
                shard_busy_ms: total_busy.as_ms_f64() / shards as f64,
                link_busy_ms: counter("fleet.link.busy_ps") as f64 * 1e-9,
                merge_ms: counter("fleet.aggregator.merge_ps") as f64 * 1e-9,
                energy_j: r.report.total_energy_j(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    #[test]
    fn one_shard_workload_is_the_paper_setup() {
        let point = CbirFleetScenario::sharded(1, ShardPlacement::NearStorage, 4);
        assert_eq!(point.shard_workload(), CbirWorkload::paper_setup());
        assert_eq!(point.label(), "fleet/near-storage/x1");
    }

    #[test]
    fn shards_split_store_and_candidates_evenly() {
        let point = CbirFleetScenario::sharded(8, ShardPlacement::NearMemory, 4);
        let w = point.shard_workload();
        assert_eq!(w.centroid_store_bytes, 2_200_000_000 / 8);
        assert_eq!(w.candidates_per_query, 4096 / 8);
        assert_eq!(point.mapping(), CbirMapping::AllNearMemory);
    }

    #[test]
    fn shard_scenarios_share_one_fingerprint() {
        // All shards of a homogeneous fleet are configured identically, so
        // the runner simulates one and replays the rest.
        let point = CbirFleetScenario::sharded(4, ShardPlacement::NearStorage, 2);
        let fp0 = point.shard_scenario(0).config_fingerprint();
        assert!(fp0.is_some());
        for shard in 1..4 {
            assert_eq!(point.shard_scenario(shard).config_fingerprint(), fp0);
        }
    }

    /// Flipping any fleet-scenario knob must change the composed
    /// fingerprint (the topology-level knobs are covered by the
    /// `FleetBlueprint` test in `reach::fleet`).
    #[test]
    fn fingerprint_tracks_fleet_scenario_knobs() {
        let base = CbirFleetScenario::sharded(4, ShardPlacement::NearStorage, 2);
        let variants = [
            CbirFleetScenario::sharded(8, ShardPlacement::NearStorage, 2),
            CbirFleetScenario::sharded(4, ShardPlacement::NearMemory, 2),
            CbirFleetScenario::sharded(4, ShardPlacement::NearStorage, 4),
            CbirFleetScenario::sharded(4, ShardPlacement::NearStorage, 2)
                .map_fleet(|f| f.with_replication(2)),
        ];
        let reference = base.config_fingerprint().expect("cacheable");
        let mut seen = vec![reference];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.config_fingerprint().expect("cacheable");
            assert!(!seen.contains(&fp), "variant {i} aliased a fingerprint");
            seen.push(fp);
        }
        assert_eq!(base.config_fingerprint(), Some(reference));
    }

    #[test]
    fn sweep_produces_rows_in_grid_order() {
        // A trimmed sweep via the trait machinery, not the full 10-fleet
        // grid (kept small: this is a unit test, the full grid runs in the
        // integration suite and the experiments binary).
        let fleets: Vec<Box<dyn FleetScenario>> = vec![
            Box::new(CbirFleetScenario::sharded(
                1,
                ShardPlacement::NearStorage,
                2,
            )),
            Box::new(CbirFleetScenario::sharded(
                2,
                ShardPlacement::NearStorage,
                2,
            )),
        ];
        let results = SequentialExecutor.run_fleets(fleets);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "fleet/near-storage/x1");
        assert_eq!(results[1].label, "fleet/near-storage/x2");
        assert_eq!(results[0].report.jobs, 2);
        assert_eq!(results[1].report.jobs, 2);
        // The 2-shard point carries fleet telemetry; the 1-shard point is
        // the unchanged single-machine report.
        assert_eq!(results[1].report.metrics.counter("fleet.shards"), Some(2));
        assert_eq!(results[0].report.metrics.counter("fleet.shards"), None);
    }
}
