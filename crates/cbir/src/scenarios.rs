//! CBIR experiment points as [`Scenario`]s.
//!
//! Every figure point, ablation point and sweep point in this crate is a
//! [`CbirScenario`]: a machine blueprint, a [`CbirPipeline`] deployment,
//! a batch count and an execution mode. The experiment functions in
//! [`crate::experiments`] and [`crate::ablations`] build batches of these
//! and hand them to a [`reach::ScenarioExecutor`] — the sequential one by
//! default, or `reach-bench`'s thread-parallel `ScenarioRunner`, which by
//! contract produces byte-identical results.

use crate::pipeline::{CbirPipeline, CbirStage};
use reach::fingerprint::ConfigFingerprint;
use reach::{ExecMode, Machine, MachineBlueprint, RunReport, Scenario, SystemConfig};
use reach_sim::FingerprintBuilder;
use std::sync::Mutex;

/// Blueprint for `mapping`-style runs with the given number of
/// near-memory / near-storage instances (the paper's Table II shape
/// otherwise).
///
/// Blueprints are immutable, so every call for one shape returns a clone
/// of the first one built: all points of all figures on that shape share
/// one fingerprint memo, and all shapes share one template registry.
#[must_use]
pub fn blueprint_with(nm: usize, ns: usize) -> MachineBlueprint {
    static BUILT: Mutex<Vec<((usize, usize), MachineBlueprint)>> = Mutex::new(Vec::new());
    let shape = (nm.max(1), ns.max(1));
    let mut built = BUILT.lock().expect("blueprint table poisoned");
    if let Some((_, blueprint)) = built.iter().find(|(s, _)| *s == shape) {
        return blueprint.clone();
    }
    let cfg = SystemConfig::paper_table2()
        .with_near_memory(shape.0)
        .with_near_storage(shape.1);
    let blueprint = match built.first() {
        Some((_, first)) => first.map_config(|c| *c = cfg),
        None => MachineBlueprint::new(cfg),
    };
    built.push((shape, blueprint.clone()));
    blueprint
}

/// One CBIR simulation point: which machine, which deployment, how many
/// batches, which execution mode, optionally restricted to one stage.
#[derive(Clone, Debug)]
pub struct CbirScenario {
    label: String,
    blueprint: MachineBlueprint,
    pipeline: CbirPipeline,
    stage: Option<CbirStage>,
    batches: usize,
    mode: ExecMode,
}

impl CbirScenario {
    /// A full-pipeline point with GAM cross-batch pipelining.
    #[must_use]
    pub fn full(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        batches: usize,
    ) -> Self {
        CbirScenario {
            label: label.into(),
            blueprint,
            pipeline,
            stage: None,
            batches,
            mode: ExecMode::Pipelined,
        }
    }

    /// A full-pipeline point run synchronously (the conventional
    /// host-driven baseline flow).
    #[must_use]
    pub fn synchronous(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        batches: usize,
    ) -> Self {
        CbirScenario {
            mode: ExecMode::Sequential,
            ..Self::full(label, blueprint, pipeline, batches)
        }
    }

    /// A single-stage point (Figures 9–11).
    #[must_use]
    pub fn stage(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        stage: CbirStage,
        batches: usize,
    ) -> Self {
        CbirScenario {
            stage: Some(stage),
            ..Self::full(label, blueprint, pipeline, batches)
        }
    }

    /// The deployment this point runs.
    #[must_use]
    pub fn pipeline(&self) -> &CbirPipeline {
        &self.pipeline
    }
}

impl Scenario for CbirScenario {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.blueprint.clone()
    }

    fn run(&self, machine: &mut Machine) -> RunReport {
        let compiled = match self.stage {
            Some(stage) => self.pipeline.build_stages(machine, &[stage]),
            None => self.pipeline.build(machine),
        };
        compiled.run_mode(machine, self.batches, self.mode)
    }

    /// A CBIR point is fully described by its blueprint, the pipeline it
    /// compiles for that shape, the batch count, the mode and the seed —
    /// exactly what `run` consumes — so it is always cacheable. The label
    /// is deliberately excluded: two points with different labels but the
    /// same configuration produce byte-identical reports, and the sweep
    /// result cache exists to exploit that.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let stages: &[CbirStage] = match &self.stage {
            Some(stage) => std::slice::from_ref(stage),
            None => &CbirStage::ALL,
        };
        let compiled =
            self.pipeline
                .compile(self.blueprint.config(), self.blueprint.registry(), stages);
        let mut b = FingerprintBuilder::new("reach-cbir-scenario-v1");
        self.blueprint.fingerprint().write_into(&mut b);
        compiled.fingerprint().write_into(&mut b);
        b.write_usize(self.batches);
        b.write_debug(&self.mode);
        b.write_u64(self.seed());
        Some(ConfigFingerprint::from_builder(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CbirMapping;
    use crate::workload::CbirWorkload;
    use reach::scenario::{ScenarioExecutor, SequentialExecutor};

    #[test]
    fn scenario_matches_direct_run() {
        let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
        let scenario = CbirScenario::full("proper/x2", blueprint_with(4, 4), p, 2);
        let via_scenario = scenario.execute();
        let direct = p.run(&mut blueprint_with(4, 4).instantiate(), 2);
        assert_eq!(via_scenario.makespan, direct.makespan);
        assert_eq!(via_scenario.jobs, direct.jobs);
    }

    #[test]
    fn executor_runs_mixed_batch_in_order() {
        let w = CbirWorkload::paper_setup();
        let batch: Vec<Box<dyn Scenario>> = vec![
            Box::new(CbirScenario::synchronous(
                "onchip/sync",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::AllOnChip),
                2,
            )),
            Box::new(CbirScenario::stage(
                "nm/fe",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::AllNearMemory),
                CbirStage::FeatureExtraction,
                1,
            )),
        ];
        let results = SequentialExecutor.run_all(batch);
        assert_eq!(results[0].label, "onchip/sync");
        assert_eq!(results[1].label, "nm/fe");
        assert_eq!(results[1].report.stages.len(), 1);
    }

    #[test]
    fn fingerprint_ignores_the_label() {
        let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
        let a = CbirScenario::full("fig13/ReACH", blueprint_with(4, 4), p, 8);
        let b = CbirScenario::full("ablation/baseline", blueprint_with(4, 4), p, 8);
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        assert!(a.config_fingerprint().is_some());
    }

    /// Flipping any scenario knob — machine shape, mapping, workload,
    /// batches, mode, stage subset — must change the fingerprint; a missed
    /// knob would alias two different simulations in the result cache.
    #[test]
    fn fingerprint_tracks_every_scenario_knob() {
        let w = CbirWorkload::paper_setup();
        let base = CbirScenario::full(
            "x",
            blueprint_with(4, 4),
            CbirPipeline::new(w, CbirMapping::Proper),
            8,
        );
        let mut narrower_batch = w;
        narrower_batch.batch = 8;
        let mut fewer_candidates = w;
        fewer_candidates.candidates_per_query = 1024;
        let variants: Vec<CbirScenario> = vec![
            CbirScenario::full(
                "x",
                blueprint_with(8, 4),
                CbirPipeline::new(w, CbirMapping::Proper),
                8,
            ),
            CbirScenario::full(
                "x",
                blueprint_with(4, 8),
                CbirPipeline::new(w, CbirMapping::Proper),
                8,
            ),
            CbirScenario::full(
                "x",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::AllOnChip),
                8,
            ),
            CbirScenario::full(
                "x",
                blueprint_with(4, 4),
                CbirPipeline::new(narrower_batch, CbirMapping::Proper),
                8,
            ),
            CbirScenario::full(
                "x",
                blueprint_with(4, 4),
                CbirPipeline::new(fewer_candidates, CbirMapping::Proper),
                8,
            ),
            CbirScenario::full(
                "x",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::Proper),
                4,
            ),
            CbirScenario::synchronous(
                "x",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::Proper),
                8,
            ),
            CbirScenario::stage(
                "x",
                blueprint_with(4, 4),
                CbirPipeline::new(w, CbirMapping::Proper),
                CbirStage::Rerank,
                8,
            ),
        ];
        let mut seen = vec![base.config_fingerprint().unwrap()];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.config_fingerprint().unwrap();
            assert!(
                !seen.contains(&fp),
                "variant {i} did not change the fingerprint"
            );
            seen.push(fp);
        }
    }

    #[test]
    fn equal_fingerprints_mean_byte_identical_reports() {
        let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllNearStorage);
        let a = CbirScenario::full("first", blueprint_with(2, 2), p, 2);
        let b = CbirScenario::full("second", blueprint_with(2, 2), p, 2);
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(a.execute().to_string(), b.execute().to_string());
    }
}
