//! Failure injection: the hierarchy under degraded components.
//!
//! The GAM's status-poll protocol exists precisely because task durations
//! are estimates; these tests degrade the substrates (SSD latency jitter,
//! slow reconfiguration, pathological poll pacing) and check that the
//! system still completes correctly and the headline behaviour degrades
//! gracefully rather than collapsing.

use reach::{Machine, MachineBlueprint, SimDuration, SystemConfig};
use reach_cbir::blueprint_with;
use reach_cbir::{CbirMapping, CbirPipeline, CbirWorkload};

fn proper() -> CbirPipeline {
    CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper)
}

fn machine_with(nm: usize, ns: usize) -> Machine {
    blueprint_with(nm, ns).instantiate()
}

/// 30% SSD latency jitter: every job still completes, results stay
/// deterministic, and the throughput penalty is bounded.
#[test]
fn ssd_jitter_degrades_gracefully() {
    let clean = proper().run(&mut machine_with(4, 4), 8);
    let jittered = {
        let cfg = SystemConfig::paper_table2().with_ssd_jitter(30);
        proper().run(&mut MachineBlueprint::new(cfg).instantiate(), 8)
    };
    assert_eq!(jittered.jobs, 8, "jobs lost under jitter");
    let slowdown = jittered.makespan.as_secs_f64() / clean.makespan.as_secs_f64();
    assert!(
        (0.99..1.5).contains(&slowdown),
        "30% command jitter should cost <50% end-to-end (rerank is \
         bandwidth-bound, not latency-bound): {slowdown:.3}"
    );
    // Deterministic replay under jitter too.
    let again = {
        let cfg = SystemConfig::paper_table2().with_ssd_jitter(30);
        proper().run(&mut MachineBlueprint::new(cfg).instantiate(), 8)
    };
    assert_eq!(jittered.makespan, again.makespan);
}

/// A pathologically slow poll floor delays completion observation but
/// never deadlocks or reorders results.
#[test]
fn coarse_polling_is_safe() {
    let mut cfg = SystemConfig::paper_table2();
    cfg.gam.min_poll_interval = SimDuration::from_ms(50);
    let r = proper().run(&mut MachineBlueprint::new(cfg).instantiate(), 4);
    assert_eq!(r.jobs, 4);
    // Completions remain ordered (in-order pipeline).
    let c = r.job_completions();
    assert!(c.windows(2).all(|w| w[0] <= w[1]), "completions reordered");
}

/// Very slow partial reconfiguration makes the single-slot baseline
/// proportionally slower but the multi-level mapping barely notices
/// (each level keeps one kernel resident).
#[test]
fn slow_reconfiguration_hurts_only_the_shared_slot() {
    let mut slow = SystemConfig::paper_table2();
    slow.reconfig_delay = SimDuration::from_ms(20);

    let base_fast = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllOnChip)
        .run(&mut machine_with(4, 4), 4);
    let base_slow = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllOnChip)
        .run(&mut MachineBlueprint::new(slow.clone()).instantiate(), 4);
    let reach_fast = proper().run(&mut machine_with(4, 4), 4);
    let reach_slow = proper().run(&mut MachineBlueprint::new(slow).instantiate(), 4);

    let base_penalty = base_slow.makespan.as_secs_f64() / base_fast.makespan.as_secs_f64();
    let reach_penalty = reach_slow.makespan.as_secs_f64() / reach_fast.makespan.as_secs_f64();
    assert!(
        base_penalty > 1.05,
        "baseline should feel 20 ms swaps: {base_penalty:.3}"
    );
    assert!(
        reach_penalty < base_penalty,
        "ReACH should be less sensitive: {reach_penalty:.3} vs {base_penalty:.3}"
    );
}

/// Starved hardware: a machine with a single accelerator at each level
/// still completes the proper mapping (no capacity deadlock).
#[test]
fn minimal_machine_completes() {
    let r = proper().run(&mut machine_with(1, 1), 2);
    assert_eq!(r.jobs, 2);
    assert!(r.makespan > SimDuration::ZERO);
}

/// Oversubscription: 64 batches through the minimal machine — queues grow
/// and drain, every job completes exactly once.
#[test]
fn deep_oversubscription_drains() {
    let r = proper().run(&mut machine_with(1, 1), 64);
    assert_eq!(r.jobs, 64);
    assert_eq!(r.metrics.counter("gam.jobs_completed"), Some(64));
    let c = r.job_completions();
    assert_eq!(c.len(), 64);
    assert!(c.windows(2).all(|w| w[0] <= w[1]));
}
