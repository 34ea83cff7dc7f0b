//! CBIR experiment points as [`ScenarioSpec`]s.
//!
//! Every figure point, ablation point and sweep point in this crate is
//! built by a [`CbirScenario`] constructor: a machine blueprint, a
//! [`CbirPipeline`] deployment lowered for it, a batch count and an
//! execution mode. The experiment functions in
//! [`crate::experiments`] and [`crate::ablations`] build batches of these
//! and hand them to a [`reach::ScenarioExecutor`] — the sequential one by
//! default, or `reach-bench`'s thread-parallel `ScenarioRunner`, which by
//! contract produces byte-identical results.

use crate::pipeline::{CbirPipeline, CbirStage};
use reach::fingerprint::ConfigFingerprint;
use reach::{
    ExecMode, JobSource, LoweredPipeline, MachineBlueprint, ScenarioSpec, SystemConfig, Tenant,
};
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

/// `pipeline` compiled for `blueprint` with `stages` — exactly
/// `pipeline.compile(config, registry, stages)` — with its digest,
/// memoized process-wide.
///
/// Every CBIR scenario runs and keys on this lowering, and compiling plus
/// digesting a pipeline costs tens of microseconds, while a suite pass asks
/// for far fewer distinct pipelines than it has points. The memo is keyed
/// on exactly what `compile` reads: the blueprint fingerprint (which
/// covers the config and the template registry), the pipeline (workload
/// and mapping) and which stages are present. So a lowering is only ever
/// replayed for an identical compile, and stage-only points whose
/// workloads differ only in fields that stage ignores still share one
/// digest, and hence one cached result.
#[must_use]
pub fn lowered(
    blueprint: &MachineBlueprint,
    pipeline: &CbirPipeline,
    stages: &[CbirStage],
) -> LoweredPipeline {
    type Entry = (ConfigFingerprint, CbirPipeline, u8, LoweredPipeline);
    static LOWERED: Mutex<Vec<Entry>> = Mutex::new(Vec::new());
    let machine = blueprint.fingerprint();
    // `compile` asks only whether each stage is present.
    let mask = CbirStage::ALL
        .iter()
        .enumerate()
        .filter(|(_, stage)| stages.contains(stage))
        .fold(0u8, |mask, (i, _)| mask | 1 << i);
    let find = |entries: &[Entry]| {
        entries
            .iter()
            .find(|(m, p, s, _)| *m == machine && p == pipeline && *s == mask)
            .map(|entry| entry.3.clone())
    };
    if let Some(lowered) = find(&LOWERED.lock().expect("pipeline memo poisoned")) {
        return lowered;
    }
    // Compile outside the lock, so callers on other threads lowering
    // other pipelines do not wait on this one.
    let lowered =
        LoweredPipeline::new(pipeline.compile(blueprint.config(), blueprint.registry(), stages));
    let mut entries = LOWERED.lock().expect("pipeline memo poisoned");
    match find(&entries) {
        Some(first) => first,
        None => {
            entries.push((machine, *pipeline, mask, lowered.clone()));
            lowered
        }
    }
}

/// Constructors of CBIR points. Each returns a [`ScenarioSpec`] with one
/// closed-loop tenant running the [`lowered`] pipeline; open-loop serving
/// points are in [`crate::traffic`].
pub enum CbirScenario {}

impl CbirScenario {
    /// A full-pipeline point with GAM cross-batch pipelining.
    #[must_use]
    pub fn full(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        batches: usize,
    ) -> ScenarioSpec {
        Self::closed(
            label,
            blueprint,
            pipeline,
            &CbirStage::ALL,
            batches,
            ExecMode::Pipelined,
        )
    }

    /// A full-pipeline point run synchronously (the conventional
    /// host-driven baseline flow).
    #[must_use]
    pub fn synchronous(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        batches: usize,
    ) -> ScenarioSpec {
        Self::closed(
            label,
            blueprint,
            pipeline,
            &CbirStage::ALL,
            batches,
            ExecMode::Sequential,
        )
    }

    /// A single-stage point (Figures 9–11).
    #[must_use]
    pub fn stage(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        stage: CbirStage,
        batches: usize,
    ) -> ScenarioSpec {
        Self::closed(
            label,
            blueprint,
            pipeline,
            &[stage],
            batches,
            ExecMode::Pipelined,
        )
    }

    fn closed(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        pipeline: CbirPipeline,
        stages: &[CbirStage],
        batches: usize,
        mode: ExecMode,
    ) -> ScenarioSpec {
        let lowered = lowered(&blueprint, &pipeline, stages);
        ScenarioSpec::new(
            label,
            blueprint,
            vec![Tenant::new(
                "cbir",
                lowered,
                JobSource::Closed { batches, mode },
            )],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::CbirMapping;
    use crate::workload::CbirWorkload;
    use reach::scenario::{ScenarioExecutor, SequentialExecutor};
    use reach::Scenario;

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
        let variants: Vec<ScenarioSpec> = vec![
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

    /// Every non-empty stage subset, multi-stage ones in both orders.
    fn stage_subsets() -> Vec<Vec<CbirStage>> {
        let mut subsets = Vec::new();
        for mask in 1..8u32 {
            let subset: Vec<CbirStage> = CbirStage::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, s)| *s)
                .collect();
            if subset.len() > 1 {
                subsets.push(subset.iter().rev().copied().collect());
            }
            subsets.push(subset);
        }
        subsets
    }

    /// The direct digest the memo stands in for.
    fn compiled_digest(
        blueprint: &MachineBlueprint,
        pipeline: &CbirPipeline,
        stages: &[CbirStage],
    ) -> ConfigFingerprint {
        pipeline
            .compile(blueprint.config(), blueprint.registry(), stages)
            .fingerprint()
    }

    #[test]
    fn memoized_pipeline_digest_equals_a_direct_compile() {
        let w = CbirWorkload::paper_setup();
        let mut blueprints: Vec<MachineBlueprint> =
            [(1, 1), (2, 2), (4, 4), (8, 4), (4, 8), (16, 2)]
                .iter()
                .map(|&(nm, ns)| blueprint_with(nm, ns))
                .collect();
        blueprints.push(blueprint_with(4, 4).map_config(|c| c.near_memory_accelerators = 6));
        for blueprint in &blueprints {
            for mapping in CbirMapping::ALL {
                let pipeline = CbirPipeline::new(w, mapping);
                for stages in stage_subsets() {
                    let direct = compiled_digest(blueprint, &pipeline, &stages);
                    // The first call may fill the memo; the second replays it.
                    for _ in 0..2 {
                        assert_eq!(
                            lowered(blueprint, &pipeline, &stages).digest(),
                            direct,
                            "{:?} {mapping:?} {stages:?}",
                            blueprint.config().near_memory_accelerators
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn workloads_differing_in_one_field_never_share_a_digest() {
        let base = CbirWorkload::paper_setup();
        let variants = [
            CbirWorkload { batch: 8, ..base },
            CbirWorkload { dim: 64, ..base },
            CbirWorkload {
                centroids: 500,
                ..base
            },
            CbirWorkload {
                candidates_per_query: 1024,
                ..base
            },
            CbirWorkload { k: 5, ..base },
            CbirWorkload {
                centroid_store_bytes: 1_000_000_000,
                ..base
            },
            CbirWorkload {
                rerank_page_bytes: 8192,
                ..base
            },
            CbirWorkload {
                feature_macs_per_image: base.feature_macs_per_image + 1,
                ..base
            },
            CbirWorkload {
                onchip_sl_restream_pct: 150,
                ..base
            },
            CbirWorkload {
                embedded_sl_fit_bytes: 500_000_000,
                ..base
            },
        ];
        let blueprint = blueprint_with(4, 4);
        // Fill the memo with the base workload's digests first, so an entry
        // that aliased a variant with its base would be replayed below.
        for mapping in CbirMapping::ALL {
            for stages in stage_subsets() {
                let _ = lowered(&blueprint, &CbirPipeline::new(base, mapping), &stages);
            }
        }
        for (i, variant) in variants.iter().enumerate() {
            let mut moved = false;
            for mapping in CbirMapping::ALL {
                let pipeline = CbirPipeline::new(*variant, mapping);
                for stages in stage_subsets() {
                    let direct = compiled_digest(&blueprint, &pipeline, &stages);
                    assert_eq!(
                        lowered(&blueprint, &pipeline, &stages).digest(),
                        direct,
                        "variant {i}, {mapping:?} {stages:?}"
                    );
                    moved |= direct
                        != compiled_digest(&blueprint, &CbirPipeline::new(base, mapping), &stages);
                }
            }
            assert!(moved, "variant {i} never changes a compiled pipeline");
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
