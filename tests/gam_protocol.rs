//! The GAM protocol under the full machine: status polling, estimated wait
//! times, DMA initiation and host interrupts — Figure 5's micro-architecture
//! exercised end to end.

use reach::{ComputeLevel, Machine, MachineBlueprint, RunReport, SystemConfig, TaskWork};
use reach_gam::JobBuilder;
use reach_sim::SimDuration;
use std::collections::HashMap;

fn machine() -> Machine {
    MachineBlueprint::paper().instantiate()
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_ms(n)
}

/// The report's `gam.<name>` counter.
fn gam(r: &RunReport, name: &str) -> u64 {
    let metric = format!("gam.{name}");
    r.metrics.counter(&metric).expect(&metric)
}

/// Off-chip tasks are observed by poll; on-chip tasks are not.
#[test]
fn polling_only_for_offchip_levels() {
    let mut m = machine();
    let mut job = JobBuilder::new(0);
    let onchip = job.task(
        "a",
        "VGG16-VU9P",
        ComputeLevel::OnChip,
        ms(10),
        vec![],
        vec![],
        vec![],
    );
    let offchip = job.task(
        "b",
        "KNN-ZCU9",
        ComputeLevel::NearStorage,
        ms(10),
        vec![],
        vec![],
        vec![],
    );
    m.submit(
        job.build(),
        HashMap::from([
            (onchip, TaskWork::compute(1_000_000_000)),
            (offchip, TaskWork::compute(100_000_000)),
        ]),
    );
    let r = m.run();
    assert_eq!(r.jobs, 1);
    assert!(
        gam(&r, "polls_sent") >= 1,
        "near-storage task must be polled"
    );
}

/// An under-estimated task triggers the "new wait time" path: the first
/// poll finds it running and a later poll collects it.
#[test]
fn underestimated_task_is_repolled() {
    let mut m = machine();
    let mut job = JobBuilder::new(0);
    // Estimate 1 ms, actual ~47 ms (7.75 GMACs on the embedded CNN).
    let t = job.task(
        "fe",
        "VGG16-ZCU9",
        ComputeLevel::NearMemory,
        ms(1),
        vec![],
        vec![],
        vec![],
    );
    m.submit(
        job.build(),
        HashMap::from([(t, TaskWork::compute(7_750_000_000))]),
    );
    let r = m.run();
    assert!(
        gam(&r, "polls_missed") >= 1,
        "expected at least one missed poll"
    );
    assert!(gam(&r, "polls_sent") > gam(&r, "polls_missed"));
    assert_eq!(r.jobs, 1, "the job still completes");
}

/// An over-estimated task is observed late: its effective completion is
/// quantized to the (correct-side) poll instant, so makespan >= estimate.
#[test]
fn overestimated_task_completion_is_poll_quantized() {
    let mut m = machine();
    let mut job = JobBuilder::new(0);
    // Actual ~0.6 ms of compute, estimate 50 ms.
    let t = job.task(
        "x",
        "KNN-ZCU9",
        ComputeLevel::NearStorage,
        ms(50),
        vec![],
        vec![],
        vec![],
    );
    m.submit(
        job.build(),
        HashMap::from([(t, TaskWork::compute(100_000_000))]),
    );
    let r = m.run();
    assert!(
        r.makespan >= ms(50),
        "completion observed before the first status poll: {}",
        r.makespan
    );
    assert!(
        r.makespan < ms(60),
        "poll overhead exploded: {}",
        r.makespan
    );
}

/// Dependent tasks at different levels trigger exactly the DMA transfers
/// the buffer table implies, and inputs never arrive after dispatch.
#[test]
fn inter_level_dependencies_move_data_once() {
    let mut m = machine();
    let mut job = JobBuilder::new(0);
    let feats = job.buffer("features", 6_144, None);
    let fe = job.task(
        "fe",
        "VGG16-VU9P",
        ComputeLevel::OnChip,
        ms(100),
        vec![],
        vec![feats],
        vec![],
    );
    let rr = job.task(
        "rr",
        "KNN-ZCU9",
        ComputeLevel::NearStorage,
        ms(5),
        vec![feats],
        vec![],
        vec![fe],
    );
    m.submit(
        job.build(),
        HashMap::from([
            (fe, TaskWork::compute(124_000_000_000)),
            (rr, TaskWork::compute(100_000_000)),
        ]),
    );
    let r = m.run();
    assert_eq!(gam(&r, "dmas"), 1, "one feature transfer expected");
    assert_eq!(gam(&r, "dma_bytes"), 6_144);
    // The rerank window starts after feature extraction's ~100 ms.
    let rr_stage = r.stage("rr").expect("rr ran");
    assert!(rr_stage.window.0.as_ms_f64() >= 99.0);
}

/// Tasks queue FIFO-by-job on a busy level: with one near-storage unit,
/// three independent tasks serialize; with four units they overlap.
#[test]
fn level_parallelism_matches_instance_count() {
    let run = |units: usize| -> f64 {
        let mut m = MachineBlueprint::new(SystemConfig::paper_table2().with_near_storage(units))
            .instantiate();
        let mut job = JobBuilder::new(0);
        let mut works = HashMap::new();
        for i in 0..4 {
            let t = job.task(
                &format!("t{i}"),
                "KNN-ZCU9",
                ComputeLevel::NearStorage,
                ms(10),
                vec![],
                vec![],
                vec![],
            );
            works.insert(t, TaskWork::stream(1_000_000, 64 << 20));
        }
        m.submit(job.build(), works);
        m.run().makespan.as_secs_f64()
    };
    let serial = run(1);
    let parallel = run(4);
    let speedup = serial / parallel;
    assert!(speedup > 3.0, "expected ~4x from 4 units, got {speedup:.2}");
}

/// Host interrupts arrive once per job, in submission order for an
/// in-order pipeline.
#[test]
fn one_interrupt_per_job() {
    let mut m = machine();
    for b in 0..5 {
        let mut job = JobBuilder::new(b);
        let t = job.task(
            "w",
            "GEMM-VU9P",
            ComputeLevel::OnChip,
            ms(2),
            vec![],
            vec![],
            vec![],
        );
        m.submit(
            job.build(),
            HashMap::from([(t, TaskWork::stream(1_000_000, 16 << 20))]),
        );
    }
    let r = m.run();
    assert_eq!(r.jobs, 5);
    assert_eq!(gam(&r, "jobs_completed"), 5);
    assert_eq!(gam(&r, "dispatches"), 5);
}

/// Command latency is charged: a zero-work task still takes at least the
/// command packet time plus pipeline fill.
#[test]
fn command_latency_floor() {
    let mut m = machine();
    let mut job = JobBuilder::new(0);
    let t = job.task(
        "nop",
        "GEMM-VU9P",
        ComputeLevel::OnChip,
        ms(1),
        vec![],
        vec![],
        vec![],
    );
    m.submit(job.build(), HashMap::from([(t, TaskWork::compute(0))]));
    let r = m.run();
    let floor = m.config().gam.command_latency;
    assert!(
        r.makespan >= floor,
        "makespan {} below command latency",
        r.makespan
    );
}
