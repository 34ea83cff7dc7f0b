//! Mapping the CBIR pipeline onto the compute hierarchy.
//!
//! Section IV-B of the paper derives the *proper* mapping — feature
//! extraction on-chip, short-list retrieval near memory, rerank near
//! storage (Figure 7) — and Section VI compares it against running the
//! whole pipeline at a single level. [`CbirMapping`] enumerates those
//! options and [`CbirPipeline`] compiles any of them into a
//! [`reach::Pipeline`] over the ReACH programming API, so the comparison
//! changes *only* the configuration, never the application flow — the
//! paper's portability claim, executed.

use crate::workload::CbirWorkload;
use reach::api::Acc;
use reach::{
    Arg, ExecMode, Level, Machine, Pipeline, ReachConfig, RunReport, StreamType, SystemConfig,
    TaskWork, TemplateRegistry,
};

/// Binds the present arguments to consecutive slots starting at 0. Stage
/// subsets (e.g. rerank alone) drop leading streams; compacting keeps the
/// binding a clean prefix of the kernel signature, which is what
/// `ReachConfig::build` demands.
fn bind_args(cfg: &mut ReachConfig, acc: Acc, args: &[Option<Arg>]) {
    for (slot, arg) in args.iter().flatten().enumerate() {
        cfg.set_arg(acc, slot, *arg);
    }
}

/// Raw bytes of one 224x224 RGB query image shipped from the host.
pub const IMAGE_BYTES: u64 = 224 * 224 * 3;

/// The three stages of the online pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CbirStage {
    /// CNN feature extraction.
    FeatureExtraction,
    /// Centroid-distance GEMM + partial sort.
    ShortList,
    /// Candidate gathering + KNN + partial sort.
    Rerank,
}

impl CbirStage {
    /// All stages in pipeline order.
    pub const ALL: [CbirStage; 3] = [
        CbirStage::FeatureExtraction,
        CbirStage::ShortList,
        CbirStage::Rerank,
    ];

    /// The stage label used in reports (sorted to pipeline order).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CbirStage::FeatureExtraction => "1-feature-extraction",
            CbirStage::ShortList => "2-short-list",
            CbirStage::Rerank => "3-rerank",
        }
    }
}

/// Which level each stage runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CbirMapping {
    /// Everything on the on-chip accelerator (the paper's baseline).
    AllOnChip,
    /// Everything on the near-memory accelerators.
    AllNearMemory,
    /// Everything on the near-storage accelerators.
    AllNearStorage,
    /// The paper's optimized mapping: FE on-chip, SL near-memory, RR
    /// near-storage (Figure 7).
    Proper,
}

impl CbirMapping {
    /// The four options compared in Figure 13.
    pub const ALL: [CbirMapping; 4] = [
        CbirMapping::AllOnChip,
        CbirMapping::AllNearMemory,
        CbirMapping::AllNearStorage,
        CbirMapping::Proper,
    ];

    /// Level of each stage under this mapping.
    #[must_use]
    pub fn level_of(self, stage: CbirStage) -> Level {
        match self {
            CbirMapping::AllOnChip => Level::OnChip,
            CbirMapping::AllNearMemory => Level::NearMem,
            CbirMapping::AllNearStorage => Level::NearStor,
            CbirMapping::Proper => match stage {
                CbirStage::FeatureExtraction => Level::OnChip,
                CbirStage::ShortList => Level::NearMem,
                CbirStage::Rerank => Level::NearStor,
            },
        }
    }

    /// Short human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CbirMapping::AllOnChip => "on-chip",
            CbirMapping::AllNearMemory => "near-memory",
            CbirMapping::AllNearStorage => "near-storage",
            CbirMapping::Proper => "ReACH",
        }
    }
}

fn template_for(stage: CbirStage, level: Level) -> &'static str {
    match (stage, level) {
        (CbirStage::FeatureExtraction, Level::OnChip) => "VGG16-VU9P",
        (CbirStage::FeatureExtraction, _) => "VGG16-ZCU9",
        (CbirStage::ShortList, Level::OnChip) => "GEMM-VU9P",
        (CbirStage::ShortList, _) => "GEMM-ZCU9",
        (CbirStage::Rerank, Level::OnChip) => "KNN-VU9P",
        (CbirStage::Rerank, _) => "KNN-ZCU9",
    }
}

/// A CBIR deployment: workload + mapping, compilable onto any machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CbirPipeline {
    workload: CbirWorkload,
    mapping: CbirMapping,
}

impl CbirPipeline {
    /// Creates a deployment of `workload` under `mapping`.
    #[must_use]
    pub fn new(workload: CbirWorkload, mapping: CbirMapping) -> Self {
        CbirPipeline { workload, mapping }
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &CbirWorkload {
        &self.workload
    }

    /// The mapping.
    #[must_use]
    pub fn mapping(&self) -> CbirMapping {
        self.mapping
    }

    /// Number of accelerator instances `cfg` offers at `level`.
    fn instances(cfg: &SystemConfig, level: Level) -> usize {
        match level {
            Level::OnChip | Level::Cpu => cfg.onchip_accelerators,
            Level::NearMem => cfg.near_memory_accelerators,
            Level::NearStor => cfg.near_storage_accelerators,
        }
    }

    /// Compiles the full three-stage pipeline for `machine`.
    #[must_use]
    pub fn build(&self, machine: &Machine) -> Pipeline {
        self.build_stages(machine, &CbirStage::ALL)
    }

    /// Compiles a pipeline containing only `stages` (used by the per-stage
    /// experiments of Figures 9–11).
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or a required level has no instances.
    #[must_use]
    pub fn build_stages(&self, machine: &Machine, stages: &[CbirStage]) -> Pipeline {
        self.compile(machine.config(), machine.registry(), stages)
    }

    /// Compiles a pipeline against a machine *shape* rather than a live
    /// machine — the same result [`Self::build_stages`] produces for a
    /// machine instantiated from that shape. This is what lets a
    /// [`crate::CbirScenario`] lower (and key) its exact workload without
    /// paying for a machine instantiation.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or a required level has no instances.
    #[must_use]
    pub fn compile(
        &self,
        sys: &SystemConfig,
        registry: &TemplateRegistry,
        stages: &[CbirStage],
    ) -> Pipeline {
        assert!(!stages.is_empty(), "CbirPipeline: no stages selected");
        let w = &self.workload;
        let mut cfg = ReachConfig::new();

        let fe_level = self.mapping.level_of(CbirStage::FeatureExtraction);
        let sl_level = self.mapping.level_of(CbirStage::ShortList);
        let rr_level = self.mapping.level_of(CbirStage::Rerank);

        let has = |s: CbirStage| stages.contains(&s);

        // ---- Buffers and streams (the paper's config.h) ----
        // Query image batch arrives from the CPU.
        let input = has(CbirStage::FeatureExtraction).then(|| {
            cfg.create_stream(
                Level::Cpu,
                fe_level,
                StreamType::Pair,
                w.batch as u64 * IMAGE_BYTES,
                2,
            )
        });
        // CNN parameters are sedentary at the FE level (compressed to fit
        // on-chip SRAM; duplicated per embedded instance).
        let params = has(CbirStage::FeatureExtraction).then(|| {
            cfg.create_fixed_buffer(
                "vgg16_param",
                fe_level,
                crate::features::VGG16_COMPRESSED_PARAM_BYTES,
            )
        });
        // The centroid + cell-info store is sedentary at the SL level. Its
        // functional counterpart is [`crate::IvfIndex`], which keeps the
        // `||c||^2` column "alongside the centroids" as the paper does.
        let centroid_store = has(CbirStage::ShortList)
            .then(|| cfg.create_fixed_buffer("centroid_store", sl_level, w.centroid_store_bytes));
        // The feature database always lives on the SSDs; rerank either runs
        // there (no movement) or drags candidate pages up the hierarchy.
        let db = has(CbirStage::Rerank)
            .then(|| cfg.create_fixed_buffer("feature_db", Level::NearStor, w.rerank_bytes()));

        // Inter-stage streams.
        let features =
            (has(CbirStage::FeatureExtraction) && has(CbirStage::ShortList)).then(|| {
                cfg.create_stream(
                    fe_level,
                    sl_level,
                    StreamType::Broadcast,
                    w.feature_batch_bytes(),
                    2,
                )
            });
        let shortlists = (has(CbirStage::ShortList) && has(CbirStage::Rerank)).then(|| {
            cfg.create_stream(
                sl_level,
                rr_level,
                StreamType::Broadcast,
                w.feature_batch_bytes() + w.shortlist_result_bytes(),
                2,
            )
        });
        let result = has(CbirStage::Rerank).then(|| {
            cfg.create_stream(
                rr_level,
                Level::Cpu,
                StreamType::Collect,
                w.result_bytes(),
                2,
            )
        });

        // ---- Accelerators + host flow (config.h registration + host.cpp) ----
        let mut pipeline_calls: Vec<(reach::api::Acc, TaskWork, CbirStage)> = Vec::new();

        if has(CbirStage::FeatureExtraction) {
            let n = Self::instances(sys, fe_level);
            assert!(n > 0, "no accelerators at {fe_level}");
            let template = template_for(CbirStage::FeatureExtraction, fe_level);
            if fe_level == Level::OnChip {
                // One batched instance, parameters in on-chip SRAM.
                let acc = cfg.register_acc(template, fe_level);
                bind_args(
                    &mut cfg,
                    acc,
                    &[
                        Some(input.expect("fe stage has input").into()),
                        Some(params.expect("fe stage has params").into()),
                        features.map(Arg::from),
                    ],
                );
                pipeline_calls.push((
                    acc,
                    TaskWork::compute(w.feature_macs()),
                    CbirStage::FeatureExtraction,
                ));
            } else {
                // One single-image task per query, parameters duplicated per
                // module (Section VI-B): no layer partitioning, no
                // inter-accelerator transfers.
                let accs: Vec<_> = (0..n)
                    .map(|_| {
                        let acc = cfg.register_acc(template, fe_level);
                        bind_args(
                            &mut cfg,
                            acc,
                            &[
                                Some(input.expect("fe stage has input").into()),
                                Some(params.expect("fe stage has params").into()),
                                features.map(Arg::from),
                            ],
                        );
                        acc
                    })
                    .collect();
                for img in 0..w.batch {
                    pipeline_calls.push((
                        accs[img % n],
                        TaskWork::compute(w.feature_macs_per_image),
                        CbirStage::FeatureExtraction,
                    ));
                }
            }
        }

        if has(CbirStage::ShortList) {
            let n = Self::instances(sys, sl_level);
            assert!(n > 0, "no accelerators at {sl_level}");
            let template = template_for(CbirStage::ShortList, sl_level);
            if sl_level == Level::OnChip {
                let acc = cfg.register_acc(template, sl_level);
                bind_args(
                    &mut cfg,
                    acc,
                    &[
                        features.map(Arg::from),
                        Some(centroid_store.expect("sl stage has store").into()),
                        shortlists.map(Arg::from),
                    ],
                );
                pipeline_calls.push((
                    acc,
                    TaskWork::stream(w.shortlist_macs(), w.onchip_sl_traffic()),
                    CbirStage::ShortList,
                ));
            } else {
                // The store is tiled across the modules; each instance
                // scans its own shard (and re-streams it if it exceeds the
                // kernel's tile budget).
                let shard = w.centroid_store_bytes / n as u64;
                for i in 0..n {
                    let acc = cfg.register_acc(template, sl_level);
                    bind_args(
                        &mut cfg,
                        acc,
                        &[
                            features.map(Arg::from),
                            Some(centroid_store.expect("sl stage has store").into()),
                            shortlists.map(Arg::from),
                        ],
                    );
                    let _ = i;
                    pipeline_calls.push((
                        acc,
                        TaskWork::stream(
                            w.shortlist_macs() / n as u64,
                            w.embedded_sl_traffic(shard),
                        ),
                        CbirStage::ShortList,
                    ));
                }
            }
        }

        if has(CbirStage::Rerank) {
            let n = Self::instances(sys, rr_level);
            assert!(n > 0, "no accelerators at {rr_level}");
            let template = template_for(CbirStage::Rerank, rr_level);
            let shards = if rr_level == Level::OnChip {
                1
            } else {
                n as u64
            };
            for i in 0..shards {
                let acc = cfg.register_acc(template, rr_level);
                bind_args(
                    &mut cfg,
                    acc,
                    &[
                        shortlists.map(Arg::from),
                        Some(db.expect("rerank stage has db").into()),
                        result.map(Arg::from),
                    ],
                );
                let _ = i;
                pipeline_calls.push((
                    acc,
                    TaskWork::gather(
                        w.rerank_macs() / shards,
                        w.rerank_bytes() / shards,
                        w.rerank_page_bytes,
                    ),
                    CbirStage::Rerank,
                ));
            }
        }

        let mut pipeline = Pipeline::new(
            cfg.build_with(registry)
                .expect("CBIR mapping produced an invalid configuration"),
        );
        for (acc, work, stage) in pipeline_calls {
            pipeline.call(acc, work, stage.label());
        }
        pipeline
    }

    /// Builds and runs the full pipeline for `batches` batches in the
    /// given [`ExecMode`].
    #[must_use]
    pub fn run_mode(&self, machine: &mut Machine, batches: usize, mode: ExecMode) -> RunReport {
        self.build(machine).run_mode(machine, batches, mode)
    }

    /// Builds and runs the full pipeline for `batches` batches with GAM
    /// cross-batch pipelining.
    #[must_use]
    pub fn run(&self, machine: &mut Machine, batches: usize) -> RunReport {
        self.run_mode(machine, batches, ExecMode::Pipelined)
    }

    /// Builds and runs synchronously (one batch at a time) — the
    /// conventional host-driven baseline flow.
    #[must_use]
    pub fn run_sequential(&self, machine: &mut Machine, batches: usize) -> RunReport {
        self.run_mode(machine, batches, ExecMode::Sequential)
    }

    /// Builds and runs a single stage for `batches` batches (Figures 9–11).
    #[must_use]
    pub fn run_stage(&self, machine: &mut Machine, stage: CbirStage, batches: usize) -> RunReport {
        self.build_stages(machine, &[stage]).run(machine, batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::MachineBlueprint;

    fn machine() -> Machine {
        MachineBlueprint::paper().instantiate()
    }

    #[test]
    fn onchip_baseline_stage_times_match_calibration() {
        let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllOnChip);
        let mut m = machine();
        let r = p.run(&mut m, 1);
        let fe = r.stage("1-feature-extraction").unwrap().span().as_ms_f64();
        let sl = r.stage("2-short-list").unwrap().span().as_ms_f64();
        let rr = r.stage("3-rerank").unwrap().span().as_ms_f64();
        // DESIGN.md calibration anchors.
        assert!((fe - 100.0).abs() < 8.0, "fe {fe} ms");
        assert!((sl - 132.0).abs() < 12.0, "sl {sl} ms");
        // ~185 ms of kernel-bound gathering plus ~43 ms of SSD->DRAM
        // staging that the GAM serializes before dispatch.
        assert!((rr - 228.0).abs() < 25.0, "rr {rr} ms (incl. staging)");
    }

    #[test]
    fn proper_mapping_beats_onchip_on_throughput_and_latency() {
        let w = CbirWorkload::paper_setup();
        let base = CbirPipeline::new(w, CbirMapping::AllOnChip).run(&mut machine(), 8);
        let reach = CbirPipeline::new(w, CbirMapping::Proper).run(&mut machine(), 8);
        let tput = reach.throughput_jobs_per_sec() / base.throughput_jobs_per_sec();
        let lat = base.job_latency_last.as_secs_f64() / reach.job_latency_last.as_secs_f64();
        assert!(tput > 2.0, "throughput gain only {tput:.2}x");
        assert!(lat > 1.3, "latency gain only {lat:.2}x");
    }

    #[test]
    fn every_mapping_runs_to_completion() {
        let w = CbirWorkload::paper_setup();
        for mapping in CbirMapping::ALL {
            let r = CbirPipeline::new(w, mapping).run(&mut machine(), 2);
            assert_eq!(r.jobs, 2, "{} lost a job", mapping.name());
            for stage in CbirStage::ALL {
                assert!(
                    r.stage(stage.label()).is_some(),
                    "{} missing {}",
                    mapping.name(),
                    stage.label()
                );
            }
        }
    }

    #[test]
    fn single_stage_pipelines_run() {
        let w = CbirWorkload::paper_setup();
        for stage in CbirStage::ALL {
            let r = CbirPipeline::new(w, CbirMapping::AllNearMemory).run_stage(
                &mut machine(),
                stage,
                1,
            );
            assert_eq!(r.jobs, 1);
            assert_eq!(r.stages.len(), 1);
        }
    }

    #[test]
    fn embedded_fe_splits_batch_across_instances() {
        let w = CbirWorkload::paper_setup();
        let mut m = machine();
        let r = CbirPipeline::new(w, CbirMapping::AllNearMemory).run_stage(
            &mut m,
            CbirStage::FeatureExtraction,
            1,
        );
        let s = r.stage("1-feature-extraction").unwrap();
        assert_eq!(s.tasks, 16, "one task per image");
        // 16 images over 4 instances, 4 rounds of ~47.6 ms per image
        // (the embedded CNN is ~7.6x slower per image than on-chip).
        let span = s.span().as_ms_f64();
        assert!((span - 190.0).abs() < 25.0, "span {span} ms");
    }
}
