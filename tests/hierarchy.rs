//! Cross-crate behaviour of the assembled hierarchy: contention,
//! saturation and scaling properties that must *emerge* from the substrate
//! models rather than being scripted.

use reach::{
    Level, Machine, MachineBlueprint, Pipeline, ReachConfig, StreamType, SystemConfig, TaskWork,
};
use reach_cbir::blueprint_with;
use reach_cbir::pipeline::CbirStage;
use reach_cbir::{CbirMapping, CbirPipeline, CbirWorkload};

fn machine_with(nm: usize, ns: usize) -> Machine {
    blueprint_with(nm, ns).instantiate()
}

fn rerank_only(nm: usize, ns: usize, mapping: CbirMapping) -> f64 {
    let w = CbirWorkload::paper_setup();
    CbirPipeline::new(w, mapping)
        .run_stage(&mut machine_with(nm, ns), CbirStage::Rerank, 1)
        .makespan
        .as_secs_f64()
}

/// Doubling near-storage units ~halves rerank time: every unit owns its
/// own SSD, so there is no shared bottleneck.
#[test]
fn near_storage_rerank_scales_linearly() {
    let t2 = rerank_only(4, 2, CbirMapping::AllNearStorage);
    let t4 = rerank_only(4, 4, CbirMapping::AllNearStorage);
    let t8 = rerank_only(4, 8, CbirMapping::AllNearStorage);
    let s24 = t2 / t4;
    let s48 = t4 / t8;
    assert!(s24 > 1.7 && s24 < 2.3, "2->4 scaling {s24:.2}");
    assert!(s48 > 1.6 && s48 < 2.3, "4->8 scaling {s48:.2}");
}

/// Near-memory rerank is capped by the shared host IO interface: beyond
/// ~8 instances, adding more barely helps.
#[test]
fn near_memory_rerank_saturates_host_io() {
    let t8 = rerank_only(8, 4, CbirMapping::AllNearMemory);
    let t16 = rerank_only(16, 4, CbirMapping::AllNearMemory);
    let t32 = rerank_only(32, 4, CbirMapping::AllNearMemory);
    assert!(
        t16 / t8 > 0.6,
        "8->16 should be mostly flat: {:.2}",
        t16 / t8
    );
    assert!(t32 / t16 > 0.8, "16->32 must be flat: {:.2}", t32 / t16);
}

/// The same task costs differently at different levels — the asymmetry the
/// whole paper rests on. A streaming scan is cheapest near its data.
#[test]
fn streams_are_cheapest_near_their_data() {
    // One task streaming 1 GB that is resident at near-storage.
    let run = |level: Level| -> f64 {
        let mut cfg = ReachConfig::new();
        let data = cfg.create_fixed_buffer("data", Level::NearStor, 1 << 30);
        let template = match level {
            Level::OnChip => "KNN-VU9P",
            _ => "KNN-ZCU9",
        };
        let acc = cfg.register_acc(template, level);
        cfg.set_arg(acc, 0, data);
        let mut p = Pipeline::new(cfg.build().expect("valid config"));
        p.call(acc, TaskWork::stream(1 << 20, 1 << 30), "scan");
        let mut m = MachineBlueprint::paper().instantiate();
        p.run(&mut m, 1).makespan.as_secs_f64()
    };
    let onchip = run(Level::OnChip);
    let nearstor = run(Level::NearStor);
    assert!(
        nearstor < onchip,
        "near-storage scan ({nearstor:.3}s) should beat on-chip ({onchip:.3}s) for SSD-resident data"
    );
}

/// Feature extraction (compute-bound, SRAM-resident parameters) prefers
/// the big on-chip fabric at low instance counts.
#[test]
fn compute_bound_work_prefers_onchip() {
    let w = CbirWorkload::paper_setup();
    let onchip = CbirPipeline::new(w, CbirMapping::AllOnChip)
        .run_stage(&mut machine_with(4, 4), CbirStage::FeatureExtraction, 1)
        .makespan;
    let nm4 = CbirPipeline::new(w, CbirMapping::AllNearMemory)
        .run_stage(&mut machine_with(4, 4), CbirStage::FeatureExtraction, 1)
        .makespan;
    assert!(onchip < nm4, "on-chip {onchip} vs 4x near-memory {nm4}");
}

/// Two pipelines sharing the machine contend: running the short-list and
/// rerank stages concurrently on one level is slower than the slower of
/// the two alone — but not slower than their sum (overlap exists).
#[test]
fn concurrent_stages_share_resources() {
    let w = CbirWorkload::paper_setup();
    let sl_alone = CbirPipeline::new(w, CbirMapping::AllOnChip)
        .run_stage(&mut machine_with(4, 4), CbirStage::ShortList, 1)
        .makespan
        .as_secs_f64();
    let rr_alone = CbirPipeline::new(w, CbirMapping::AllOnChip)
        .run_stage(&mut machine_with(4, 4), CbirStage::Rerank, 1)
        .makespan
        .as_secs_f64();
    let both = CbirPipeline::new(w, CbirMapping::AllOnChip)
        .build_stages(
            &machine_with(4, 4),
            &[CbirStage::ShortList, CbirStage::Rerank],
        )
        .run(&mut machine_with(4, 4), 1)
        .makespan
        .as_secs_f64();
    assert!(both >= sl_alone.max(rr_alone) * 0.95);
    assert!(both <= (sl_alone + rr_alone) * 1.05);
}

/// More batches never reduce total simulated time, and throughput is
/// monotone non-decreasing in batch count for the pipelined mapping.
#[test]
fn batching_monotonicity() {
    let w = CbirWorkload::paper_setup();
    let p = CbirPipeline::new(w, CbirMapping::Proper);
    let mut last_makespan = 0.0;
    let mut last_tput = 0.0;
    for batches in [1usize, 2, 4, 8] {
        let r = p.run(&mut machine_with(4, 4), batches);
        let makespan = r.makespan.as_secs_f64();
        assert!(makespan > last_makespan, "makespan must grow with batches");
        let tput = r.throughput_jobs_per_sec();
        assert!(
            tput > last_tput * 0.999,
            "throughput should not degrade with batches: {tput} after {last_tput}"
        );
        last_makespan = makespan;
        last_tput = tput;
    }
}

/// Energy conservation: the sum of per-stage, per-component cells equals
/// the reported total, and every cell is non-negative.
#[test]
fn energy_ledger_is_consistent() {
    let w = CbirWorkload::paper_setup();
    for mapping in CbirMapping::ALL {
        let r = CbirPipeline::new(w, mapping).run(&mut machine_with(4, 4), 2);
        let by_stage: f64 = r
            .ledger
            .stages()
            .iter()
            .map(|s| r.ledger.stage_total(s))
            .sum();
        let by_component: f64 = reach::SystemComponent::ALL
            .iter()
            .map(|&c| r.ledger.component_total(c))
            .sum();
        let total = r.total_energy_j();
        assert!((by_stage - total).abs() < 1e-9 * total.max(1.0));
        assert!((by_component - total).abs() < 1e-9 * total.max(1.0));
        assert!(total > 0.0);
    }
}

/// A bigger batch moves more data and takes longer, at every mapping.
#[test]
fn workload_scaling_is_sane() {
    let mut small = CbirWorkload::paper_setup();
    small.batch = 8;
    let mut big = CbirWorkload::paper_setup();
    big.batch = 32;
    for mapping in CbirMapping::ALL {
        let ts = CbirPipeline::new(small, mapping)
            .run(&mut machine_with(4, 4), 1)
            .makespan;
        let tb = CbirPipeline::new(big, mapping)
            .run(&mut machine_with(4, 4), 1)
            .makespan;
        assert!(
            tb > ts,
            "{}: batch 32 ({tb}) not slower than batch 8 ({ts})",
            mapping.name()
        );
    }
}

/// The GAM's reconfiguration support: swapping kernels on one slot costs
/// the configured delay but works end-to-end.
#[test]
fn reconfiguration_delay_is_billed() {
    let mut cfg_fast = SystemConfig::paper_table2();
    cfg_fast.reconfig_delay = reach::SimDuration::ZERO;
    let mut cfg_slow = SystemConfig::paper_table2();
    cfg_slow.reconfig_delay = reach::SimDuration::from_ms(10);

    let w = CbirWorkload::paper_setup();
    // All-on-chip swaps CNN -> GEMM -> KNN on the single slot every batch.
    let fast = CbirPipeline::new(w, CbirMapping::AllOnChip)
        .run(&mut MachineBlueprint::new(cfg_fast).instantiate(), 2)
        .makespan;
    let slow = CbirPipeline::new(w, CbirMapping::AllOnChip)
        .run(&mut MachineBlueprint::new(cfg_slow).instantiate(), 2)
        .makespan;
    let delta_ms = slow.as_ms_f64() - fast.as_ms_f64();
    assert!(
        delta_ms > 20.0,
        "expected >= 2 batches x >=1 swap x 10 ms of reconfiguration, got {delta_ms:.1} ms"
    );
}

/// Stream pattern plumbing: a broadcast buffer is transferred once per
/// destination level, not once per consumer.
#[test]
fn broadcast_transfers_once_per_level() {
    let mut cfg = ReachConfig::new();
    let feats = cfg.create_stream(
        Level::OnChip,
        Level::NearStor,
        StreamType::Broadcast,
        1 << 20,
        2,
    );
    let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
    cfg.set_arg(cnn, 0, feats);
    let mut consumers = Vec::new();
    for _ in 0..4 {
        let k = cfg.register_acc("KNN-ZCU9", Level::NearStor);
        cfg.set_arg(k, 0, feats);
        consumers.push(k);
    }
    let mut p = Pipeline::new(cfg.build().expect("valid config"));
    p.call(cnn, TaskWork::compute(1_000_000_000), "produce");
    for &k in &consumers {
        p.call(k, TaskWork::stream(1_000, 1 << 20), "consume");
    }
    let mut m = MachineBlueprint::paper().instantiate();
    let r = p.run(&mut m, 1);
    assert_eq!(
        r.metrics.counter("gam.dmas"),
        Some(1),
        "broadcast must share one DMA per level"
    );
}
