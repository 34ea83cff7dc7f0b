//! The telemetry layer, end to end: machine-recorded metrics surface in
//! the run report under stable names, the exporters are byte-stable
//! (golden files), and the Chrome trace keeps its one-process-row-per-level
//! / one-thread-row-per-instance shape.
//!
//! Regenerate the golden files with `UPDATE_GOLDEN=1 cargo test -p
//! reach-integration --test telemetry` after an intentional schema change.

use reach::{Machine, MetricValue, MetricsSnapshot, TraceKind};
use reach_cbir::pipeline::CbirStage;
use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirWorkload};
use reach_sim::{Histogram, SimTime, TimeWeighted, WindowedGauge};

fn proper_run() -> reach::RunReport {
    let w = CbirWorkload::paper_setup();
    let mut m = blueprint_with(4, 4).instantiate();
    CbirPipeline::new(w, CbirMapping::Proper).run(&mut m, 2)
}

// ------------------------------------------------------------------ //
// Machine-recorded metrics
// ------------------------------------------------------------------ //

#[test]
fn run_report_carries_machine_telemetry() {
    let r = proper_run();
    let m = &r.metrics;
    assert_eq!(m.horizon_ps(), r.makespan.as_ps());

    // Queue-depth gauges exist for every level; the proper mapping queues
    // work at near-storage (rerank shards outnumber units).
    for slug in ["on_chip", "near_mem", "near_stor"] {
        assert!(
            m.get(&format!("gam.queue.{slug}.depth")).is_some(),
            "missing queue gauge for {slug}"
        );
    }

    // Per-resource occupancy: every level computed something, so each
    // occupancy gauge peaks at >= 1 concurrent busy instance.
    for slug in ["on_chip", "near_mem", "near_stor"] {
        match m.get(&format!("accel.{slug}.occupancy")) {
            Some(MetricValue::Occupancy { peak, .. }) => {
                assert!(*peak >= 1.0, "{slug} occupancy peak {peak}");
            }
            other => panic!("accel.{slug}.occupancy: {other:?}"),
        }
    }

    // Per-link traffic: rerank gathers hit the SSDs, features ride the
    // host interconnect, near-memory GEMM streams its own DIMMs.
    let counter = |name: &str| m.counter(name).expect(name);
    assert!(counter("storage.ssd0.read_bytes") > 0);
    assert!(counter("mem.ddr.host.ch0.bytes") > 0);
    assert!(counter("mem.ddr.near_mem.ch0.bytes") > 0);
    assert!(counter("gam.dma_bytes") > 0);

    // Busy accounting agrees with the per-stage report.
    let total_busy: u64 = ["on_chip", "near_mem", "near_stor"]
        .iter()
        .map(|s| counter(&format!("accel.{s}.busy_ps")))
        .sum();
    let stage_busy: u64 = r.stages.iter().map(|s| s.busy.as_ps()).sum();
    assert_eq!(total_busy, stage_busy);
}

#[test]
fn telemetry_is_deterministic_across_runs() {
    let a = proper_run();
    let b = proper_run();
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
}

// ------------------------------------------------------------------ //
// Exporter golden files
// ------------------------------------------------------------------ //

/// A small snapshot exercising every metric kind with hand-checkable
/// numbers (the golden files pin the exact serialization).
fn golden_snapshot() -> MetricsSnapshot {
    let until = SimTime::from_ps(1000);
    let mut depth = TimeWeighted::new();
    depth.set(SimTime::ZERO, 1.0);
    depth.set(SimTime::from_ps(500), 3.0);
    let mut lat = Histogram::new();
    lat.record(1000);
    lat.record(3000);
    let mut occ = WindowedGauge::new();
    occ.record(SimTime::ZERO, SimTime::from_ps(500), 1.0);
    occ.record(SimTime::from_ps(250), until, 1.0);
    let mut snap = MetricsSnapshot::new(until.as_ps());
    snap.set_counter("mem.ddr.ch0.bytes", 4096);
    snap.set("gam.queue.near_mem.depth", depth.summary(until));
    snap.set("accel.on_chip.task_ps", lat.summary());
    snap.set("accel.near_stor.occupancy", occ.summary(until));
    snap.set_counter("storage.ssd0.read_bytes", 1 << 20);
    snap
}

fn check_golden(rendered: &str, path: &str, golden: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(format!("{}/{path}", env!("CARGO_MANIFEST_DIR")), rendered)
            .expect("golden file is writable");
        return;
    }
    assert!(
        rendered == golden,
        "{path} drifted from the exporter output; \
         run with UPDATE_GOLDEN=1 if the change is intentional.\n\
         --- rendered ---\n{rendered}\n--- golden ---\n{golden}"
    );
}

#[test]
fn json_exporter_matches_golden_file() {
    check_golden(
        &golden_snapshot().to_json(),
        "../../tests/golden/metrics.json",
        include_str!("golden/metrics.json"),
    );
}

#[test]
fn scenario_metrics_export_matches_golden_file() {
    let mut ledger = reach::EnergyLedger::new();
    ledger.add(reach::SystemComponent::Dram, "scan", 1.5);
    let captured = reach::ScenarioResult {
        label: "golden/one".to_string(),
        report: reach::RunReport {
            makespan: reach::SimDuration::from_ps(1000),
            jobs: 2,
            job_latency_mean: reach::SimDuration::ZERO,
            job_latency_last: reach::SimDuration::ZERO,
            stages: Vec::new(),
            ledger,
            completions: Vec::new(),
            metrics: golden_snapshot(),
        },
    };
    check_golden(
        &reach_bench::scenario_metrics_json(&[captured]),
        "../../tests/golden/scenario_metrics.json",
        include_str!("golden/scenario_metrics.json"),
    );
}

// ------------------------------------------------------------------ //
// Chrome trace rows
// ------------------------------------------------------------------ //

/// Runs short-list + rerank with tracing on a machine with several
/// instances per level and returns (trace JSON, machine).
fn traced_run() -> (String, Machine) {
    let w = CbirWorkload::paper_setup();
    let mut m = blueprint_with(4, 4).instantiate();
    m.enable_trace();
    let p = CbirPipeline::new(w, CbirMapping::Proper);
    let _ = p
        .build_stages(&m, &[CbirStage::ShortList, CbirStage::Rerank])
        .run(&mut m, 1);
    let json = m.trace().expect("trace enabled").to_chrome_json();
    (json, m)
}

#[test]
fn chrome_trace_has_one_process_row_per_level() {
    let (json, m) = traced_run();
    // Task events carry their level as the pid; each level used by the
    // mapping appears exactly as its display name.
    assert!(json.contains("\"pid\":\"near-memory\""));
    assert!(json.contains("\"pid\":\"near-storage\""));
    // Thread rows: one tid per instance at near-storage (4 units all busy
    // reranking), no tid beyond the instance count.
    for tid in 0..m.config().near_storage_accelerators {
        assert!(
            json.contains(&format!("\"pid\":\"near-storage\",\"tid\":{tid}}}")),
            "missing near-storage lane {tid}"
        );
    }
    let beyond = m.config().near_storage_accelerators;
    assert!(!json.contains(&format!("\"pid\":\"near-storage\",\"tid\":{beyond}}}")));
}

#[test]
fn chrome_trace_rows_match_recorded_events() {
    let (json, m) = traced_run();
    let trace = m.trace().expect("trace enabled");
    assert_eq!(json.matches("{\"name\"").count(), trace.len());
    // Every task event's (track, lane) is a registered instance.
    for e in trace.events() {
        if e.kind == TraceKind::Task {
            let limit = match e.track.as_str() {
                "on-chip" => m.config().onchip_accelerators,
                "near-memory" => m.config().near_memory_accelerators,
                "near-storage" => m.config().near_storage_accelerators,
                other => panic!("unexpected task track {other}"),
            };
            assert!(e.lane < limit, "{} lane {} out of range", e.track, e.lane);
        }
    }
}
