//! The `extension-graph-corun` experiment: CBIR traffic served while graph
//! batch jobs run on the same hierarchy.
//!
//! The GAM's reason to exist is coordinating *multiple* workloads on one
//! reconfigurable hierarchy. This module measures what that coordination
//! costs the latency-sensitive tenant: open-loop CBIR query traffic
//! (the admission-queue serving of `extension-traffic`) co-runs with a stream of PageRank
//! batch jobs whose near-memory gathers occupy the same accelerator slots
//! and DIMMs the CBIR short-list stage needs. Each swept rate produces a
//! solo baseline and a co-run point with identical arrivals, so the p99
//! delta is pure interference — backed by the new contention gauges
//! (`mem.ddr.contended_cycles`, `mem.aimbus.queued_ps`) and per-tenant
//! dispatch/latency attribution (`tenant.<name>.*`, declared through
//! [`reach::Machine::declare_tenant`]).
//!
//! Both runs are [`ScenarioSpec`]s with the same CBIR tenant and admission
//! depth; the shared one adds the graph tenant, whose job ids start at
//! [`GRAPH_JOB_BASE`], and attributes each tenant's dispatches, admissions
//! and latency separately.

use crate::csr::{GraphKind, GraphSpec};
use crate::pipeline::{pagerank_pipeline, GraphPlacement};
use crate::templates::graph_registry;
use reach::{
    ArrivalProcess, JobSource, LoweredPipeline, MachineBlueprint, Pipeline, Scenario,
    ScenarioExecutor, ScenarioSpec, SystemConfig, Tenant,
};
use reach_cbir::pipeline::CbirStage;
use reach_cbir::{lowered, CbirMapping, CbirPipeline, CbirWorkload};
use reach_sim::SimDuration;
use std::fmt;

/// Offered CBIR arrival rates swept, in query batches per second. Both
/// sit below the proper mapping's saturation knee, where p99 reflects the
/// pipeline (and any interference) rather than the tenant's own queueing.
pub const CORUN_RATES_PER_SEC: [u64; 2] = [4, 8];

/// CBIR batch arrivals offered at each rate.
pub const CORUN_OFFERED: usize = 16;

/// Admission-queue depth for arrivals — graph jobs in flight count
/// against it, so it is deliberately deeper than the traffic sweep's: the
/// batch tenant's backlog can push the queue to the bound and bounce CBIR
/// arrivals, which is admission control doing its job, visibly.
pub const CORUN_QUEUE_DEPTH: usize = 12;

/// Graph batch jobs submitted per CBIR arrival instant (see
/// [`graph_corun_rows_with`] for why they share instants).
pub const GRAPH_JOBS_PER_ARRIVAL: usize = 2;

/// Graph batch jobs submitted during the serving window.
pub const CORUN_GRAPH_BATCHES: usize = CORUN_OFFERED * GRAPH_JOBS_PER_ARRIVAL;

/// First job id of the graph tenant (CBIR owns `0..GRAPH_JOB_BASE`).
pub const GRAPH_JOB_BASE: u64 = 512;

/// The graph batch tenant's workload: a near-memory PageRank big enough
/// that each iteration's gather occupies an accelerator slot for tens of
/// milliseconds at a time — the same order as one CBIR short-list shard,
/// so a query landing behind a graph task feels it. Priced from the spec's
/// counts: the graph itself is never built.
fn corun_graph_pipeline() -> Pipeline {
    let spec = GraphSpec {
        nodes: 262_144,
        avg_degree: 32,
        kind: GraphKind::Uniform,
        seed: reach_sim::rng::session_seed(),
    };
    pagerank_pipeline(&spec, GraphPlacement::NearMemory)
}

/// The co-run machine: the paper shape widened to 4 near-memory and 4
/// near-storage units, with both the CBIR and graph kernels registered.
#[must_use]
pub fn corun_blueprint() -> MachineBlueprint {
    MachineBlueprint::with_registry(
        SystemConfig::paper_table2()
            .with_near_memory(4)
            .with_near_storage(4),
        graph_registry(),
    )
}

/// One co-run sweep row: the solo and shared serving points at one rate.
#[derive(Clone, Debug)]
pub struct CorunRow {
    /// Offered CBIR arrival rate, batches per second.
    pub rate_per_sec: u64,
    /// CBIR arrivals offered (same in both runs).
    pub offered: usize,
    /// CBIR arrivals admitted, solo.
    pub solo_admitted: u64,
    /// CBIR arrivals bounced, solo.
    pub solo_rejected: u64,
    /// CBIR p99 latency, solo, ms.
    pub solo_p99_ms: f64,
    /// DDR contended cycles, solo.
    pub solo_ddr_contended: u64,
    /// CBIR arrivals admitted, co-run.
    pub corun_admitted: u64,
    /// CBIR arrivals bounced, co-run.
    pub corun_rejected: u64,
    /// CBIR p99 latency, co-run, ms.
    pub corun_p99_ms: f64,
    /// DDR contended cycles, co-run.
    pub corun_ddr_contended: u64,
    /// AIMbus queueing, co-run, ps.
    pub corun_aimbus_queued_ps: u64,
    /// Graph batch jobs completed in the co-run.
    pub graph_jobs: u64,
    /// GAM dispatches attributed to the CBIR tenant, co-run.
    pub cbir_dispatches: u64,
    /// GAM dispatches attributed to the graph tenant, co-run.
    pub graph_dispatches: u64,
}

impl CorunRow {
    /// What co-running cost CBIR at p99, ms (positive = slower).
    #[must_use]
    pub fn p99_delta_ms(&self) -> f64 {
        self.corun_p99_ms - self.solo_p99_ms
    }
}

impl fmt::Display for CorunRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "corun @{:>2}/s    solo  admitted {:>2}/{:<2} rejected {:>2}  cbir-p99 {:>9.3}ms  \
             ddr-contended {:>8}cy",
            self.rate_per_sec,
            self.solo_admitted,
            self.offered,
            self.solo_rejected,
            self.solo_p99_ms,
            self.solo_ddr_contended,
        )?;
        write!(
            f,
            "  corun @{:>2}/s  shared  admitted {:>2}/{:<2} rejected {:>2}  cbir-p99 {:>9.3}ms  \
             ddr-contended {:>8}cy  aimbus-queued {}ps  graph-jobs {}  \
             dispatches cbir/graph {}/{}  p99-delta {:+.3}ms",
            self.rate_per_sec,
            self.corun_admitted,
            self.offered,
            self.corun_rejected,
            self.corun_p99_ms,
            self.corun_ddr_contended,
            self.corun_aimbus_queued_ps,
            self.graph_jobs,
            self.cbir_dispatches,
            self.graph_dispatches,
            self.p99_delta_ms(),
        )
    }
}

/// Runs the co-run sweep — solo and shared serving points at each
/// [`CORUN_RATES_PER_SEC`] rate — through `executor` and reduces each rate
/// to a [`CorunRow`].
#[must_use]
pub fn graph_corun_rows_with(executor: &dyn ScenarioExecutor) -> Vec<CorunRow> {
    let blueprint = corun_blueprint();
    let cbir = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
    let cbir = lowered(&blueprint, &cbir, &CbirStage::ALL);
    let graph = LoweredPipeline::new(corun_graph_pipeline());

    let mut scenarios: Vec<Box<dyn Scenario>> = Vec::new();
    for &rate in &CORUN_RATES_PER_SEC {
        let arrival = ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_secs_f64(1.0 / rate as f64),
            seed: reach_sim::rng::session_seed(),
        };
        let cbir = Tenant::new(
            "cbir",
            cbir.clone(),
            JobSource::Open {
                arrival: arrival.clone(),
                offered: CORUN_OFFERED,
                jobs_per_arrival: 1,
                admission: Some(CORUN_QUEUE_DEPTH),
            },
        );
        // The batch tenant submits its jobs at the query arrival instants
        // (fully correlated phase): every serving point then measures
        // interference by construction instead of leaving the overlap
        // between the two tenants to the luck of the seed. Its jobs are
        // never bounced, but count against the CBIR admission bound.
        let graph = Tenant {
            first_job: GRAPH_JOB_BASE,
            ..Tenant::new(
                "graph",
                graph.clone(),
                JobSource::Open {
                    arrival,
                    offered: CORUN_OFFERED,
                    jobs_per_arrival: GRAPH_JOBS_PER_ARRIVAL,
                    admission: None,
                },
            )
        };
        scenarios.push(Box::new(ScenarioSpec::new(
            format!("corun/{rate}qps/solo"),
            blueprint.clone(),
            vec![cbir.clone()],
        )));
        scenarios.push(Box::new(ScenarioSpec::new(
            format!("corun/{rate}qps/shared"),
            blueprint.clone(),
            vec![cbir, graph],
        )));
    }

    let results = executor.run_all(scenarios);
    let ms = |ps: u64| ps as f64 * 1e-9;
    CORUN_RATES_PER_SEC
        .iter()
        .zip(results.chunks(2))
        .map(|(&rate, pair)| {
            let [solo, shared] = pair else {
                unreachable!("two scenarios per rate")
            };
            let s = |name: &str| solo.report.metrics.counter(name).unwrap_or(0);
            let c = |name: &str| shared.report.metrics.counter(name).unwrap_or(0);
            // The solo run has one tenant, so its CBIR figures are the
            // machine-wide ones.
            CorunRow {
                rate_per_sec: rate,
                offered: CORUN_OFFERED,
                solo_admitted: solo.report.jobs,
                solo_rejected: s("gam.jobs_rejected"),
                solo_p99_ms: ms(s("latency.job.p99_ps")),
                solo_ddr_contended: s("mem.ddr.contended_cycles"),
                corun_admitted: c("tenant.cbir.jobs_completed"),
                corun_rejected: c("tenant.cbir.jobs_rejected"),
                corun_p99_ms: ms(c("tenant.cbir.latency.p99_ps")),
                corun_ddr_contended: c("mem.ddr.contended_cycles"),
                corun_aimbus_queued_ps: c("mem.aimbus.queued_ps"),
                graph_jobs: c("tenant.graph.jobs_completed"),
                cbir_dispatches: c("tenant.cbir.dispatches"),
                graph_dispatches: c("tenant.graph.dispatches"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    #[test]
    fn corun_cbir_digest_is_the_direct_compile() {
        // The co-run machine carries the graph registry, so its CBIR side
        // has a memo entry of its own, and it must be the direct digest.
        let blueprint = corun_blueprint();
        let cbir = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);
        let direct = cbir
            .compile(blueprint.config(), blueprint.registry(), &CbirStage::ALL)
            .fingerprint();
        for _ in 0..2 {
            assert_eq!(lowered(&blueprint, &cbir, &CbirStage::ALL).digest(), direct);
        }
    }

    #[test]
    fn corun_shows_measurable_contention() {
        let rows = graph_corun_rows_with(&SequentialExecutor);
        assert_eq!(rows.len(), CORUN_RATES_PER_SEC.len());
        for row in &rows {
            // The acceptance bar: co-running strictly raises CBIR's p99 at
            // the same offered rate, and the ledgers balance per tenant.
            assert!(
                row.corun_p99_ms > row.solo_p99_ms,
                "@{}qps: co-run p99 {:.3}ms not above solo {:.3}ms",
                row.rate_per_sec,
                row.corun_p99_ms,
                row.solo_p99_ms
            );
            assert_eq!(
                row.solo_admitted + row.solo_rejected,
                row.offered as u64,
                "@{}qps solo ledger",
                row.rate_per_sec
            );
            assert_eq!(
                row.corun_admitted + row.corun_rejected,
                row.offered as u64,
                "@{}qps co-run ledger",
                row.rate_per_sec
            );
            assert_eq!(row.graph_jobs, CORUN_GRAPH_BATCHES as u64);
            assert!(row.cbir_dispatches > 0 && row.graph_dispatches > 0);
        }
    }

    #[test]
    fn corun_rows_replay_byte_identically() {
        let a: Vec<String> = graph_corun_rows_with(&SequentialExecutor)
            .iter()
            .map(ToString::to_string)
            .collect();
        let b: Vec<String> = graph_corun_rows_with(&SequentialExecutor)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn contention_gauges_move_under_co_run() {
        let rows = graph_corun_rows_with(&SequentialExecutor);
        for row in &rows {
            assert!(
                row.corun_ddr_contended > row.solo_ddr_contended,
                "@{}qps: co-run did not raise DDR contention ({} -> {} cycles)",
                row.rate_per_sec,
                row.solo_ddr_contended,
                row.corun_ddr_contended
            );
        }
    }
}
