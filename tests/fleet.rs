//! The fleet topology layer, end to end: scatter-gather CBIR fleets must
//! be deterministic at any job count, degenerate to the single-machine
//! scenarios at N = 1, and replay through the scenario-result cache at
//! shard granularity.

use reach::fleet::{FleetScenario, InterMachineLink, ShardPlacement};
use reach::{ScenarioExecutor, SequentialExecutor, SimDuration};
use reach_bench::ScenarioRunner;
use reach_cbir::fleet::{CbirFleetScenario, FLEET_BATCHES, FLEET_SWEEP};
use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirScenario, CbirWorkload};
use reach_sim::Bandwidth;

/// The acceptance contract: a 1-node fleet *is* the single-machine
/// scenario. The wrapped report must render byte-identically to running
/// the equivalent `CbirScenario` directly — per placement, since each
/// implies a different pipeline mapping.
#[test]
fn one_shard_fleet_is_byte_identical_to_single_machine_scenario() {
    for (placement, mapping) in [
        (ShardPlacement::NearStorage, CbirMapping::Proper),
        (ShardPlacement::NearMemory, CbirMapping::AllNearMemory),
    ] {
        let fleet: Vec<Box<dyn FleetScenario>> = vec![Box::new(CbirFleetScenario::sharded(
            1,
            placement,
            FLEET_BATCHES,
        ))];
        let fleet_report = SequentialExecutor.run_fleets(fleet).remove(0).report;

        let single = CbirScenario::full(
            "reference",
            blueprint_with(4, 4),
            CbirPipeline::new(CbirWorkload::paper_setup(), mapping),
            FLEET_BATCHES,
        );
        let single_report = SequentialExecutor
            .run_all(vec![Box::new(single)])
            .remove(0)
            .report;

        assert_eq!(
            fleet_report.to_string(),
            single_report.to_string(),
            "1-shard {} fleet diverged from the single-machine scenario",
            placement.name()
        );
        // And no fleet telemetry is bolted on — the report is untouched.
        assert!(fleet_report.metrics.get("fleet.shards").is_none());
    }
}

/// The full scatter-gather sweep (both placements x N in {1,2,4,8,16})
/// rendered through the `experiments` code path must be byte-identical
/// sequentially, at 1/4/8 worker threads, and with the result cache
/// disabled — the fleet expansion must not leak scheduling anywhere.
#[test]
fn fleet_suite_is_byte_identical_across_job_counts_and_cache_modes() {
    let reference = reach_bench::render_extension_fleet(&SequentialExecutor);
    assert!(!reference.is_empty());
    for jobs in [1, 4, 8] {
        assert_eq!(
            reference,
            reach_bench::render_extension_fleet(&ScenarioRunner::new(jobs)),
            "fleet suite diverged at {jobs} jobs"
        );
        assert_eq!(
            reference,
            reach_bench::render_extension_fleet(&ScenarioRunner::without_cache(jobs)),
            "fleet suite diverged without the result cache at {jobs} jobs"
        );
    }
}

/// Two-level result caching over fleets. Cold pass: every fleet misses at
/// fleet granularity and expands, but a homogeneous fleet's shards share
/// one fingerprint, so the runner simulates one shard per distinct
/// (placement, N) point and replays the rest. Warm pass: every fleet's
/// *aggregated* report replays at fleet granularity — no shard expands, so
/// the shard ledger does not move at all. Both ledgers are identical at
/// any job count.
#[test]
fn fleet_shards_replay_through_the_result_cache() {
    let mut ledgers = Vec::new();
    for jobs in [1, 4] {
        let runner = ScenarioRunner::new(jobs);
        let cold = reach_bench::render_extension_fleet(&runner);
        let cold_stats = runner.cache_stats();
        let cold_fleet = runner.fleet_cache_stats();
        let warm = reach_bench::render_extension_fleet(&runner);
        let warm_stats = runner.cache_stats();
        let warm_fleet = runner.fleet_cache_stats();
        assert_eq!(cold, warm, "cache replay changed the fleet suite");

        // 2 placements x FLEET_SWEEP shard counts, each homogeneous: one
        // shard miss per distinct point, every other shard is a replay.
        let points = 2 * FLEET_SWEEP.len();
        let shard_total: usize = 2 * FLEET_SWEEP.iter().sum::<usize>();
        assert_eq!(cold_fleet.misses, points as u64);
        assert_eq!(cold_fleet.hits, 0);
        assert_eq!(cold_stats.misses, points as u64);
        assert_eq!(cold_stats.hits, (shard_total - points) as u64);
        // The warm pass replays whole fleets: one fleet-level hit per
        // point and an untouched shard ledger.
        assert_eq!(warm_fleet.misses, cold_fleet.misses);
        assert_eq!(warm_fleet.hits, points as u64);
        assert_eq!(warm_stats, cold_stats, "warm pass touched the shard ledger");
        ledgers.push((cold_stats, warm_stats, cold_fleet, warm_fleet));
    }
    assert_eq!(ledgers[0], ledgers[1], "accounting depends on job count");
}

/// Fleet reports carry the fleet-level telemetry and it behaves: shard
/// counters for every shard, link occupancy that grows with N, and a
/// strictly positive aggregator merge time.
#[test]
fn fleet_telemetry_scales_with_shard_count() {
    let counter = |report: &reach::RunReport, name: &str| -> u64 {
        report
            .metrics
            .counter(name)
            .unwrap_or_else(|| panic!("missing fleet counter {name}"))
    };
    let run = |shards: usize| {
        let fleet: Vec<Box<dyn FleetScenario>> = vec![Box::new(CbirFleetScenario::sharded(
            shards,
            ShardPlacement::NearStorage,
            2,
        ))];
        SequentialExecutor.run_fleets(fleet).remove(0).report
    };
    let (r2, r8) = (run(2), run(8));
    assert_eq!(counter(&r2, "fleet.shards"), 2);
    assert_eq!(counter(&r8, "fleet.shards"), 8);
    for i in 0..8 {
        assert!(counter(&r8, &format!("fleet.shard{i}.busy_ps")) > 0);
        assert!(counter(&r8, &format!("fleet.shard{i}.makespan_ps")) > 0);
    }
    assert!(
        counter(&r8, "fleet.link.scatter_bytes") > counter(&r2, "fleet.link.scatter_bytes"),
        "broadcast volume must grow with the fan-out"
    );
    assert!(counter(&r8, "fleet.link.busy_ps") > counter(&r2, "fleet.link.busy_ps"));
    assert!(counter(&r8, "fleet.aggregator.merge_ps") > 0);
}

/// A slower inter-machine link can only push completions later — the
/// analytic model must be monotone in both link knobs.
#[test]
fn slower_links_never_speed_up_the_fleet() {
    let base = CbirFleetScenario::sharded(4, ShardPlacement::NearStorage, 2);
    let slow_lat = base.clone().map_fleet(|f| {
        let bw = f.link().bandwidth();
        f.with_link(InterMachineLink::new(SimDuration::from_ms(1), bw))
    });
    let slow_bw = base.clone().map_fleet(|f| {
        let lat = f.link().latency();
        f.with_link(InterMachineLink::new(
            lat,
            Bandwidth::from_bytes_per_sec(100_000_000),
        ))
    });
    let fleets: Vec<Box<dyn FleetScenario>> =
        vec![Box::new(base), Box::new(slow_lat), Box::new(slow_bw)];
    let results = SequentialExecutor.run_fleets(fleets);
    let makespans: Vec<u64> = results.iter().map(|r| r.report.makespan.as_ps()).collect();
    assert!(makespans[1] > makespans[0], "added latency must cost time");
    assert!(makespans[2] > makespans[0], "lost bandwidth must cost time");
}

/// Replication is a standby knob: it changes the fingerprint (a different
/// deployment) but never the timing of a healthy run.
#[test]
fn replication_changes_fingerprint_but_not_timing() {
    let base = CbirFleetScenario::sharded(2, ShardPlacement::NearStorage, 2);
    let replicated = base.clone().map_fleet(|f| f.with_replication(3));
    assert_ne!(base.config_fingerprint(), replicated.config_fingerprint());
    let fleets: Vec<Box<dyn FleetScenario>> = vec![Box::new(base), Box::new(replicated)];
    let results = SequentialExecutor.run_fleets(fleets);
    assert_eq!(
        results[0].report.makespan, results[1].report.makespan,
        "standby replicas must not change healthy-run timing"
    );
}
