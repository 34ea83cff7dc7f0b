//! Multi-tenant co-execution: CBIR and analytics sharing one hierarchy.
//!
//! The GAM exists to coordinate *multiple* workloads: the paper's design
//! goals include "reducing inter-task memory access interference" and
//! resource balancing "during runtime". This module co-schedules the CBIR
//! proper mapping with a near-storage scan query on one machine and
//! measures what each pays for the other's presence — the interference the
//! buffer-table isolation and per-level queues are meant to bound.

use crate::queries::{AnalyticsPlacement, ScanQuery};
use crate::templates::analytics_blueprint;
use reach::{
    ExecMode, JobSource, LoweredPipeline, Scenario, ScenarioExecutor, ScenarioSpec, Tenant,
};
use reach_cbir::pipeline::CbirStage;
use reach_cbir::{lowered, CbirMapping, CbirPipeline, CbirWorkload};
use reach_sim::SimDuration;

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

/// First job id of the scan tenant in the shared run (CBIR batches count
/// up from 0).
const SCAN_JOB_BASE: u64 = 512;

/// Runs CBIR (proper mapping, `cbir_batches` batches) and a near-storage
/// scan, each alone and then together on one machine, and reports the
/// mutual slowdown.
///
/// The three runs are [`ScenarioSpec`]s over the same two tenants: each
/// alone, then both sharing the machine with disjoint job ids (CBIR from
/// 0, the scan at `SCAN_JOB_BASE`), so the GAM schedules them through
/// the same per-level queues.
#[must_use]
pub fn co_run_interference_with(
    executor: &dyn ScenarioExecutor,
    cbir_batches: usize,
    query: &ScanQuery,
) -> CoRunReport {
    let blueprint = analytics_blueprint();
    let cbir = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
    let closed = |batches| JobSource::Closed {
        batches,
        mode: ExecMode::Pipelined,
    };
    let cbir = Tenant::new(
        "cbir",
        lowered(&blueprint, &cbir, &CbirStage::ALL),
        closed(cbir_batches),
    );
    let scan = Tenant::new(
        "scan",
        LoweredPipeline::new(query.lower(AnalyticsPlacement::NearStorage, &blueprint)),
        closed(1),
    );
    let shared = vec![
        cbir.clone(),
        Tenant {
            first_job: SCAN_JOB_BASE,
            ..scan.clone()
        },
    ];
    let scenarios: Vec<Box<dyn Scenario>> = vec![
        Box::new(ScenarioSpec::new(
            "corun/cbir-alone",
            blueprint.clone(),
            vec![cbir],
        )),
        Box::new(ScenarioSpec::new(
            "corun/scan-alone",
            blueprint.clone(),
            vec![scan],
        )),
        Box::new(ScenarioSpec::new("corun/shared", blueprint, shared)),
    ];
    let results = executor.run_all(scenarios);
    let [cbir_alone_r, scan_alone_r, shared] = &results[..] else {
        unreachable!("three scenarios in, three results out")
    };

    // Completions are reported in job-id order: CBIR batches first, the
    // scan job last.
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
