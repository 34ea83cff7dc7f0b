//! Multi-tenant co-execution: CBIR and analytics sharing one hierarchy.
//!
//! The GAM exists to coordinate *multiple* workloads: the paper's design
//! goals include "reducing inter-task memory access interference" and
//! resource balancing "during runtime". This module co-schedules the CBIR
//! proper mapping with a near-storage scan query on one machine and
//! measures what each pays for the other's presence — the interference the
//! buffer-table isolation and per-level queues are meant to bound.

use crate::queries::ScanQuery;
use crate::templates::{analytics_blueprint, analytics_registry};
use reach::fingerprint::ConfigFingerprint;
use reach::{
    FnScenario, Level, Pipeline, ReachConfig, Scenario, ScenarioExecutor, StreamType, TaskWork,
};
use reach_cbir::pipeline::CbirStage;
use reach_cbir::{pipeline_fingerprint, CbirMapping, CbirPipeline, CbirWorkload};
use reach_sim::{FingerprintBuilder, SimDuration};

/// Results of the co-run experiment.
#[derive(Clone, Debug)]
pub struct CoRunReport {
    /// CBIR makespan alone (batches as configured).
    pub cbir_alone: SimDuration,
    /// CBIR makespan sharing the machine with the scan.
    pub cbir_shared: SimDuration,
    /// Scan makespan alone.
    pub scan_alone: SimDuration,
    /// Scan makespan sharing the machine with CBIR.
    pub scan_shared: SimDuration,
}

impl CoRunReport {
    /// CBIR's slowdown factor from sharing.
    #[must_use]
    pub fn cbir_slowdown(&self) -> f64 {
        self.cbir_shared.as_secs_f64() / self.cbir_alone.as_secs_f64()
    }

    /// The scan's slowdown factor from sharing.
    #[must_use]
    pub fn scan_slowdown(&self) -> f64 {
        self.scan_shared.as_secs_f64() / self.scan_alone.as_secs_f64()
    }
}

/// Builds the near-storage scan pipeline used by the co-run (the analytics
/// accelerators live alongside the CBIR ones, so both fit one machine).
fn scan_pipeline(query: &ScanQuery, shards: u64) -> Pipeline {
    let mut rc = ReachConfig::new();
    let table = rc.create_fixed_buffer("table", Level::NearStor, query.table_bytes);
    let survivors = rc.create_stream(
        Level::NearStor,
        Level::OnChip,
        StreamType::Collect,
        query.survivor_bytes().max(1),
        2,
    );
    let result = rc.create_stream(Level::OnChip, Level::Cpu, StreamType::Pair, 4 << 10, 2);
    let scans: Vec<_> = (0..shards)
        .map(|_| {
            let s = rc.register_acc("SCAN-ZCU9", Level::NearStor);
            rc.set_arg(s, 0, table);
            rc.set_arg(s, 1, survivors);
            s
        })
        .collect();
    let agg = rc.register_acc("AGG-VU9P", Level::OnChip);
    rc.set_arg(agg, 0, survivors);
    rc.set_arg(agg, 1, result);
    let mut p = Pipeline::new(
        rc.build_with(&analytics_registry())
            .expect("co-run scan config"),
    );
    for s in scans {
        p.call(
            s,
            TaskWork::stream(query.scan_macs() / shards, query.table_bytes / shards),
            "scan",
        );
    }
    p.call(
        agg,
        TaskWork::stream(query.survivor_bytes() / 8, query.survivor_bytes().max(1)),
        "aggregate",
    );
    p
}

/// Runs CBIR (proper mapping, `cbir_batches` batches) and a near-storage
/// scan, each alone and then together on one machine, and reports the
/// mutual slowdown.
///
/// Job-id spaces are disjoint (CBIR batches from 0, the scan at 512+), so
/// the GAM schedules both tenants through the same per-level queues. The
/// two isolated runs and the shared run are three independent scenarios.
#[must_use]
pub fn co_run_interference_with(
    executor: &dyn ScenarioExecutor,
    cbir_batches: usize,
    query: &ScanQuery,
) -> CoRunReport {
    let blueprint = analytics_blueprint();
    let shards = blueprint.config().near_storage_accelerators as u64;
    let cbir = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
    let query = *query;

    // Vouched fingerprints for the closures below. Each closure's report is
    // fully determined by the blueprint, the two compiled pipelines, the
    // CBIR batch count and the session seed; the scan job-id base (512) is
    // a constant covered by the domain string. Digesting all of them for
    // every tag over-keys the two "alone" points slightly, which costs
    // nothing (the suite never varies one input while expecting the others
    // to hit) and can never under-key.
    let cbir_fp = pipeline_fingerprint(&blueprint, &cbir, &CbirStage::ALL);
    let scan_p = scan_pipeline(&query, shards);
    let seed = reach_sim::rng::session_seed();
    let vouch = |tag: &str| {
        let mut b = FingerprintBuilder::new("reach-corun-v1");
        b.write_str(tag);
        blueprint.fingerprint().write_into(&mut b);
        cbir_fp.write_into(&mut b);
        scan_p.fingerprint().write_into(&mut b);
        b.write_usize(cbir_batches);
        b.write_u64(seed);
        ConfigFingerprint::from_builder(b)
    };

    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(
            FnScenario::new("corun/cbir-alone", blueprint.clone(), move |machine| {
                cbir.run(machine, cbir_batches)
            })
            .with_fingerprint(vouch("cbir-alone")),
        ),
        Box::new(
            FnScenario::new("corun/scan-alone", blueprint.clone(), move |machine| {
                scan_pipeline(&query, shards).run(machine, 1)
            })
            .with_fingerprint(vouch("scan-alone")),
        ),
        Box::new(
            FnScenario::new(
                "corun/shared",
                blueprint.clone(),
                // Shared run: submit both tenants' jobs up front.
                move |machine| {
                    let cbir_p = cbir.build(machine);
                    for batch in 0..cbir_batches {
                        let (job, works) = cbir_p.job_for_batch(batch as u64);
                        machine.submit(job, works);
                    }
                    let scan_p = scan_pipeline(&query, shards);
                    let (scan_job, scan_works) = scan_p.job_for_batch(512);
                    machine.submit(scan_job, scan_works);
                    machine.run()
                },
            )
            .with_fingerprint(vouch("shared")),
        ),
    ];
    let results = executor.run_all(scenarios);
    let [cbir_alone_r, scan_alone_r, shared] = &results[..] else {
        unreachable!("three scenarios in, three results out")
    };

    // Completions are reported in job-id order: CBIR batches first, the
    // scan job (id-space 512) last.
    let completions = shared.report.job_completions();
    assert_eq!(completions.len(), cbir_batches + 1);
    let cbir_shared = completions[cbir_batches - 1].since(reach_sim::SimTime::ZERO);
    let scan_shared = completions[cbir_batches].since(reach_sim::SimTime::ZERO);

    CoRunReport {
        cbir_alone: cbir_alone_r.report.makespan,
        cbir_shared,
        scan_alone: scan_alone_r.report.makespan,
        scan_shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    fn query() -> ScanQuery {
        ScanQuery {
            table_bytes: 4 << 30,
            selectivity_pct: 2,
            row_bytes: 64,
        }
    }

    #[test]
    fn co_run_completes_both_tenants() {
        let r = co_run_interference_with(&SequentialExecutor, 4, &query());
        assert!(
            r.cbir_shared >= r.cbir_alone,
            "sharing cannot speed CBIR up"
        );
        assert!(
            r.scan_shared >= r.scan_alone,
            "sharing cannot speed the scan up"
        );
    }

    #[test]
    fn interference_is_bounded() {
        // The tenants collide on the near-storage level (the scan owns the
        // SSD accelerators while rerank tasks queue behind it); the GAM's
        // per-level FIFO bounds the damage to roughly serialized occupancy,
        // not a collapse.
        let r = co_run_interference_with(&SequentialExecutor, 4, &query());
        assert!(
            r.cbir_slowdown() < 3.0,
            "CBIR slowdown {:.2} suggests starvation",
            r.cbir_slowdown()
        );
        assert!(
            r.scan_slowdown() < 6.0,
            "scan slowdown {:.2} suggests starvation",
            r.scan_slowdown()
        );
    }

    #[test]
    fn some_interference_exists_on_the_shared_level() {
        // Both tenants use the near-storage accelerators; at least one of
        // them must feel the other.
        let r = co_run_interference_with(&SequentialExecutor, 4, &query());
        let total = r.cbir_slowdown().max(r.scan_slowdown());
        assert!(
            total > 1.02,
            "no measurable interference ({:.3} / {:.3}) — the co-run is not actually sharing",
            r.cbir_slowdown(),
            r.scan_slowdown()
        );
    }
}
