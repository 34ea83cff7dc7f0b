//! Ablations: sensitivity studies on the design choices the paper makes in
//! prose but does not quantify.
//!
//! Each function isolates one mechanism (status-poll pacing, partial
//! reconfiguration, cross-job pipelining, the GEMM tile budget, batch
//! sizing, rerank candidate volume) and sweeps it with everything else held
//! at the paper's configuration. The `experiments` binary renders these
//! under `ablation-*` ids.

use crate::pipeline::{CbirMapping, CbirPipeline};
use crate::scenarios::CbirScenario;
use crate::workload::CbirWorkload;
use reach::{MachineBlueprint, Scenario, ScenarioExecutor, SimDuration};
use std::fmt;

/// A generic ablation row: one parameter value and its outcomes.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Human-readable parameter setting.
    pub setting: String,
    /// Batches per second.
    pub throughput: f64,
    /// Mean per-batch latency in milliseconds.
    pub latency_ms: f64,
    /// Energy per batch in joules.
    pub energy_j: f64,
}

impl fmt::Display for AblationRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<28} {:>8.2} batches/s {:>10.1} ms {:>8.2} J",
            self.setting, self.throughput, self.latency_ms, self.energy_j
        )
    }
}

/// One ablation point before measurement: a setting name, the machine, the
/// deployment and the steady-state batch count.
struct Point {
    setting: String,
    blueprint: MachineBlueprint,
    pipeline: CbirPipeline,
    batches: usize,
}

/// Measures every point (steady-state throughput from a `batches`-deep run,
/// latency and energy from a single-batch run) through `executor`. Each
/// point contributes two independent scenarios, so a parallel executor
/// fans the whole family out at once.
fn measure_points(executor: &dyn ScenarioExecutor, points: Vec<Point>) -> Vec<AblationRow> {
    let scenarios: Vec<Box<dyn Scenario>> = points
        .iter()
        .flat_map(|p| {
            let steady: Box<dyn Scenario> = Box::new(CbirScenario::full(
                format!("ablation/{}/steady", p.setting),
                p.blueprint.clone(),
                p.pipeline,
                p.batches,
            ));
            let single: Box<dyn Scenario> = Box::new(CbirScenario::full(
                format!("ablation/{}/single", p.setting),
                p.blueprint.clone(),
                p.pipeline,
                1,
            ));
            [steady, single]
        })
        .collect();
    let results = executor.run_all(scenarios);
    points
        .into_iter()
        .zip(results.chunks(2))
        .map(|(p, pair)| AblationRow {
            setting: p.setting,
            throughput: pair[0].report.throughput_jobs_per_sec(),
            latency_ms: pair[1].report.job_latency_mean.as_ms_f64(),
            energy_j: pair[1].report.total_energy_j(),
        })
        .collect()
}

/// Sweep the GAM's minimum status-poll interval. The paper's protocol polls
/// at the estimated completion time; a *coarser* floor makes completion
/// observation lazier, a finer one floods the interconnect with packets for
/// under-estimated tasks.
#[must_use]
pub fn poll_interval_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
    let base = MachineBlueprint::paper();
    let points = [10u64, 50, 200, 1_000, 5_000, 20_000]
        .into_iter()
        .map(|us| Point {
            setting: format!("min poll interval {us} us"),
            blueprint: base.map_config(|cfg| cfg.gam.min_poll_interval = SimDuration::from_us(us)),
            pipeline: p,
            batches: 8,
        })
        .collect();
    measure_points(executor, points)
}

/// Sweep the partial-reconfiguration delay. The paper ignores it ("today's
/// FPGA technology can reduce this delay to sub-millisecond"); this shows
/// what that assumption is worth on the single-slot on-chip baseline, which
/// swaps CNN -> GeMM -> KNN every batch.
#[must_use]
pub fn reconfig_delay_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllOnChip);
    let base = MachineBlueprint::paper();
    let points = [0u64, 500, 1_000, 5_000, 20_000, 100_000]
        .into_iter()
        .map(|us| Point {
            setting: format!("reconfig delay {:.1} ms", us as f64 / 1_000.0),
            blueprint: base.map_config(|cfg| cfg.reconfig_delay = SimDuration::from_us(us)),
            pipeline: p,
            batches: 4,
        })
        .collect();
    measure_points(executor, points)
}

/// GAM cross-job pipelining on vs off, per mapping — quantifying "assigns
/// tasks from the next job … without waiting".
#[must_use]
pub fn pipelining_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let w = CbirWorkload::paper_setup();
    let batches = 8;
    let paper = MachineBlueprint::paper();
    let scenarios: Vec<Box<dyn Scenario>> = CbirMapping::ALL
        .iter()
        .flat_map(|&mapping| {
            let p = CbirPipeline::new(w, mapping);
            let seq: Box<dyn Scenario> = Box::new(CbirScenario::synchronous(
                format!("ablation/{}/synchronous", mapping.name()),
                paper.clone(),
                p,
                batches,
            ));
            let pipe: Box<dyn Scenario> = Box::new(CbirScenario::full(
                format!("ablation/{}/pipelined", mapping.name()),
                paper.clone(),
                p,
                batches,
            ));
            [seq, pipe]
        })
        .collect();
    let results = executor.run_all(scenarios);
    CbirMapping::ALL
        .iter()
        .zip(results.chunks(2))
        .flat_map(|(&mapping, pair)| {
            let seq = &pair[0].report;
            let pipe = &pair[1].report;
            [
                AblationRow {
                    setting: format!("{} / synchronous", mapping.name()),
                    throughput: seq.throughput_jobs_per_sec(),
                    latency_ms: seq.job_latency_mean.as_ms_f64(),
                    energy_j: seq.energy_per_job_j(),
                },
                AblationRow {
                    setting: format!("{} / GAM pipelined", mapping.name()),
                    throughput: pipe.throughput_jobs_per_sec(),
                    latency_ms: pipe.job_latency_last.as_ms_f64(),
                    energy_j: pipe.energy_per_job_j(),
                },
            ]
        })
        .collect()
}

/// Sweep the embedded GEMM tile budget (BRAM capacity proxy). The budget
/// decides when a short-list shard must be re-streamed — the mechanism
/// behind Figure 10's single-instance penalty.
#[must_use]
pub fn sl_tile_budget_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let paper = MachineBlueprint::paper();
    let points = [275u64, 550, 1_100, 2_200]
        .into_iter()
        .map(|mb| {
            let mut w = CbirWorkload::paper_setup();
            w.embedded_sl_fit_bytes = mb * 1_000_000;
            Point {
                setting: format!("GEMM tile budget {mb} MB"),
                blueprint: paper.clone(),
                pipeline: CbirPipeline::new(w, CbirMapping::Proper),
                batches: 8,
            }
        })
        .collect();
    measure_points(executor, points)
}

/// Sweep the query batch size. Larger batches amortize transfers but
/// lengthen every stage; the paper fixes 16.
#[must_use]
pub fn batch_size_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let paper = MachineBlueprint::paper();
    let sizes = [4usize, 8, 16, 32, 64];
    let points = sizes
        .into_iter()
        .map(|b| {
            let mut w = CbirWorkload::paper_setup();
            w.batch = b;
            Point {
                setting: format!("batch size {b}"),
                blueprint: paper.clone(),
                pipeline: CbirPipeline::new(w, CbirMapping::Proper),
                batches: 8,
            }
        })
        .collect();
    let mut rows = measure_points(executor, points);
    // Report *queries* per second so sizes are comparable.
    for (row, b) in rows.iter_mut().zip(sizes) {
        row.throughput *= b as f64;
    }
    rows
}

/// Sweep the rerank candidate volume (the paper fixes 4096 per query "to
/// make the simulation time manageable"): more candidates shift the
/// bottleneck toward the storage level and amplify ReACH's advantage.
#[must_use]
pub fn candidate_volume_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let paper = MachineBlueprint::paper();
    let points = [1_024usize, 4_096, 16_384, 65_536]
        .into_iter()
        .flat_map(|c| {
            let mut w = CbirWorkload::paper_setup();
            w.candidates_per_query = c;
            [CbirMapping::AllOnChip, CbirMapping::Proper].map(|mapping| Point {
                setting: format!("{} candidates / {}", c, mapping.name()),
                blueprint: paper.clone(),
                pipeline: CbirPipeline::new(w, mapping),
                batches: 6,
            })
        })
        .collect();
    measure_points(executor, points)
}

/// The GAM's memory-space reorganization (Section III-B), on vs off: with
/// cache-line interleaving left in place, each near-memory GEMM finds only
/// a fraction of its shard locally and drags the rest over the shared
/// AIMbus.
#[must_use]
pub fn interleave_reorganization_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    let w = CbirWorkload::paper_setup();
    let base = MachineBlueprint::paper();
    let points = [true, false]
        .into_iter()
        .map(|tiled| Point {
            setting: if tiled {
                "tile interleave (GAM reorganized)".into()
            } else {
                "cache-line interleave (not reorganized)".into()
            },
            blueprint: base.map_config(|cfg| cfg.nm_tile_interleave = tiled),
            pipeline: CbirPipeline::new(w, CbirMapping::Proper),
            batches: 8,
        })
        .collect();
    measure_points(executor, points)
}

/// Sweep the rerank stage's placement with everything else mapped properly
/// — is near-storage really the right home? (Section IV-B's argument.)
#[must_use]
pub fn rerank_placement_with(executor: &dyn ScenarioExecutor) -> Vec<AblationRow> {
    use crate::pipeline::CbirStage as S;
    let w = CbirWorkload::paper_setup();
    let paper = MachineBlueprint::paper();
    // Build three custom mappings by reusing the named ones for FE/SL and
    // measuring rerank at each level through single-stage runs relative to
    // the full pipeline.
    let scenarios: Vec<Box<dyn Scenario>> = CbirMapping::ALL
        .iter()
        .map(|&mapping| {
            let boxed: Box<dyn Scenario> = Box::new(CbirScenario::stage(
                format!("ablation/rerank-at-{}", mapping.level_of(S::Rerank)),
                paper.clone(),
                CbirPipeline::new(w, mapping),
                S::Rerank,
                1,
            ));
            boxed
        })
        .collect();
    let results = executor.run_all(scenarios);
    CbirMapping::ALL
        .iter()
        .zip(results)
        .map(|(&mapping, result)| AblationRow {
            setting: format!("rerank at {}", mapping.level_of(S::Rerank)),
            throughput: result.report.throughput_jobs_per_sec(),
            latency_ms: result.report.makespan.as_ms_f64(),
            energy_j: result.report.total_energy_j(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    #[test]
    fn poll_interval_has_a_sweet_spot() {
        let rows = poll_interval_with(&SequentialExecutor);
        // Very coarse polling must hurt latency relative to the default.
        let fine = &rows[1]; // 50 us (default)
        let coarse = rows.last().unwrap(); // 20 ms
        assert!(
            coarse.latency_ms > fine.latency_ms,
            "coarse polling should cost latency: {} vs {}",
            coarse.latency_ms,
            fine.latency_ms
        );
    }

    #[test]
    fn reconfig_delay_matters_only_when_large() {
        let rows = reconfig_delay_with(&SequentialExecutor);
        let zero = &rows[0];
        let sub_ms = &rows[1]; // 0.5 ms
        let huge = rows.last().unwrap(); // 100 ms
                                         // Sub-millisecond reprogramming is within 2% of free — the paper's
                                         // justification for ignoring it.
        assert!(
            (sub_ms.latency_ms - zero.latency_ms) / zero.latency_ms < 0.02,
            "sub-ms reconfig visibly hurt: {} vs {}",
            sub_ms.latency_ms,
            zero.latency_ms
        );
        assert!(huge.latency_ms > zero.latency_ms * 1.3);
    }

    #[test]
    fn pipelining_always_helps_throughput() {
        let rows = pipelining_with(&SequentialExecutor);
        for pair in rows.chunks(2) {
            assert!(
                pair[1].throughput >= pair[0].throughput * 0.999,
                "{}: pipelined {} < sequential {}",
                pair[1].setting,
                pair[1].throughput,
                pair[0].throughput
            );
        }
    }

    #[test]
    fn bigger_tile_budget_never_hurts() {
        let rows = sl_tile_budget_with(&SequentialExecutor);
        for w in rows.windows(2) {
            assert!(
                w[1].throughput >= w[0].throughput * 0.99,
                "{} -> {}: throughput regressed",
                w[0].setting,
                w[1].setting
            );
        }
    }

    #[test]
    fn candidate_volume_widens_reach_advantage() {
        let rows = candidate_volume_with(&SequentialExecutor);
        // gain(c) = proper/onchip throughput at candidate volume c.
        let gain = |i: usize| rows[2 * i + 1].throughput / rows[2 * i].throughput;
        let small = gain(0); // 1k candidates
        let large = gain(3); // 64k candidates
        assert!(
            large > small,
            "more rerank volume should widen ReACH's advantage: {small:.2} -> {large:.2}"
        );
    }

    #[test]
    fn tile_reorganization_pays() {
        let rows = interleave_reorganization_with(&SequentialExecutor);
        assert!(
            rows[0].throughput > rows[1].throughput,
            "tiled {} should beat cache-line {} (AIMbus contention)",
            rows[0].throughput,
            rows[1].throughput
        );
    }

    #[test]
    fn rerank_home_is_near_storage() {
        let rows = rerank_placement_with(&SequentialExecutor);
        let ns = rows
            .iter()
            .find(|r| r.setting.contains("NearStor"))
            .unwrap();
        for other in rows.iter().filter(|r| !r.setting.contains("NearStor")) {
            assert!(
                ns.energy_j <= other.energy_j * 1.05,
                "near-storage rerank should be (near-)cheapest: {} vs {}",
                ns.energy_j,
                other.energy_j
            );
        }
    }
}
