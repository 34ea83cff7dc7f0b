//! Timed analytics queries on the compute hierarchy.
//!
//! A [`ScanQuery`] describes a selective scan-and-aggregate over a table
//! resident on the SSD array; [`ScanQuery::lower`] deploys it either
//! host-side (data hauled through the shared IO interface to the on-chip
//! accelerator) or near-storage (each SSD's accelerator scans its own shard
//! and only survivors travel). The speedup tracks the ratio between the
//! aggregate SSD bandwidth and the shared host interface — the
//! Netezza-style offloading result the paper cites as prior evidence.

use crate::templates::analytics_blueprint;
use reach::{
    ExecMode, JobSource, Level, LoweredPipeline, MachineBlueprint, Pipeline, ReachConfig,
    RunReport, Scenario, ScenarioSpec, StreamType, TaskWork, Tenant,
};

/// Where the scan runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalyticsPlacement {
    /// Stream the table up to the on-chip accelerator (conventional).
    Host,
    /// Scan on the per-SSD accelerators; ship only survivors (ReACH-style).
    NearStorage,
}

impl AnalyticsPlacement {
    /// Short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AnalyticsPlacement::Host => "host",
            AnalyticsPlacement::NearStorage => "near-storage",
        }
    }
}

/// A selective scan + aggregate over an SSD-resident table.
///
/// # Example
///
/// ```
/// use reach_analytics::{AnalyticsPlacement, ScanQuery};
///
/// let q = ScanQuery { table_bytes: 1 << 30, selectivity_pct: 5, row_bytes: 64 };
/// let near = q.run(AnalyticsPlacement::NearStorage);
/// assert_eq!(near.jobs, 1);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ScanQuery {
    /// Total table size in bytes.
    pub table_bytes: u64,
    /// Fraction of rows surviving the predicate, in percent.
    pub selectivity_pct: u32,
    /// Bytes per row (drives the per-row compare work).
    pub row_bytes: u64,
}

impl ScanQuery {
    /// A 64 GB table with 1% selectivity and 64 B rows.
    #[must_use]
    pub fn example_64gb() -> Self {
        ScanQuery {
            table_bytes: 64 << 30,
            selectivity_pct: 1,
            row_bytes: 64,
        }
    }

    /// Bytes surviving the predicate.
    #[must_use]
    pub fn survivor_bytes(&self) -> u64 {
        self.table_bytes * u64::from(self.selectivity_pct) / 100
    }

    /// Comparator work: one MAC-equivalent per row word.
    #[must_use]
    pub fn scan_macs(&self) -> u64 {
        self.table_bytes / 8
    }

    /// The query's pipeline under `placement`, lowered for `blueprint`
    /// (whose registry must hold the analytics kernels, and whose
    /// near-storage accelerators each scan one shard).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate query (no rows, selectivity > 100%).
    #[must_use]
    pub fn lower(&self, placement: AnalyticsPlacement, blueprint: &MachineBlueprint) -> Pipeline {
        assert!(self.table_bytes > 0 && self.row_bytes > 0, "empty query");
        assert!(self.selectivity_pct <= 100, "selectivity over 100%");
        let mut rc = ReachConfig::new();
        let result = rc.create_stream(Level::OnChip, Level::Cpu, StreamType::Pair, 4 << 10, 2);
        let table = rc.create_fixed_buffer("table", Level::NearStor, self.table_bytes);
        let (survivors, scans) = match placement {
            AnalyticsPlacement::Host => {
                // The whole table is dragged to the on-chip accelerator.
                let scan = rc.register_acc("SCAN-VU9P", Level::OnChip);
                rc.set_arg(scan, 0, table);
                let work = TaskWork::gather(self.scan_macs(), self.table_bytes, 4096);
                (None, vec![(scan, work)])
            }
            AnalyticsPlacement::NearStorage => {
                // Each SSD's accelerator scans its shard; survivors collect
                // on-chip for the final aggregation.
                let shards = blueprint.config().near_storage_accelerators as u64;
                let survivors = rc.create_stream(
                    Level::NearStor,
                    Level::OnChip,
                    StreamType::Collect,
                    self.survivor_bytes().max(1),
                    2,
                );
                let work = TaskWork::stream(self.scan_macs() / shards, self.table_bytes / shards);
                let scans = (0..shards)
                    .map(|_| {
                        let s = rc.register_acc("SCAN-ZCU9", Level::NearStor);
                        rc.set_arg(s, 0, table);
                        rc.set_arg(s, 1, survivors);
                        (s, work.clone())
                    })
                    .collect();
                (Some(survivors), scans)
            }
        };
        // The aggregate reads the collected survivors, if any, and writes
        // the result.
        let agg = rc.register_acc("AGG-VU9P", Level::OnChip);
        for (slot, arg) in survivors.into_iter().chain([result]).enumerate() {
            rc.set_arg(agg, slot, arg);
        }
        let mut p = Pipeline::new(rc.build_with(blueprint.registry()).expect("scan config"));
        for (scan, work) in scans {
            p.call(scan, work, "1-scan");
        }
        p.call(
            agg,
            TaskWork::stream(self.survivor_bytes() / 8, self.survivor_bytes().max(1)),
            "2-aggregate",
        );
        p
    }

    /// One run of the query under `placement` on [`analytics_blueprint`],
    /// as a single-batch [`ScenarioSpec`].
    ///
    /// # Panics
    ///
    /// Panics on a degenerate query (no rows, selectivity > 100%).
    #[must_use]
    pub fn scenario(&self, placement: AnalyticsPlacement) -> ScenarioSpec {
        let blueprint = analytics_blueprint();
        let scan = LoweredPipeline::new(self.lower(placement, &blueprint));
        ScenarioSpec::new(
            format!(
                "analytics/{}/{}GiB/sel{}",
                placement.name(),
                self.table_bytes >> 30,
                self.selectivity_pct
            ),
            blueprint,
            vec![Tenant::new(
                "scan",
                scan,
                JobSource::Closed {
                    batches: 1,
                    mode: ExecMode::Pipelined,
                },
            )],
        )
    }

    /// Runs the query once under `placement` and returns the machine report.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate query (no rows, selectivity > 100%).
    #[must_use]
    pub fn run(&self, placement: AnalyticsPlacement) -> RunReport {
        self.scenario(placement).execute()
    }

    /// Near-storage speedup over the host placement for this query.
    #[must_use]
    pub fn near_storage_speedup(&self) -> f64 {
        let host = self.run(AnalyticsPlacement::Host);
        let near = self.run(AnalyticsPlacement::NearStorage);
        host.makespan.as_secs_f64() / near.makespan.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_storage_scan_wins_big_on_selective_queries() {
        let q = ScanQuery {
            table_bytes: 8 << 30,
            selectivity_pct: 1,
            row_bytes: 64,
        };
        let speedup = q.near_storage_speedup();
        // 4 SSDs x ~12 GB/s local vs ~12 GB/s shared host IO gives ~4x on
        // the haul alone; the host placement additionally pays to stage the
        // table into DRAM before scanning it, stretching the win further.
        assert!(
            speedup > 2.5 && speedup < 10.0,
            "selective scan speedup {speedup:.2}"
        );
    }

    #[test]
    fn speedup_shrinks_with_low_selectivity_wins_remain() {
        let selective = ScanQuery {
            table_bytes: 4 << 30,
            selectivity_pct: 1,
            row_bytes: 64,
        }
        .near_storage_speedup();
        let unselective = ScanQuery {
            table_bytes: 4 << 30,
            selectivity_pct: 80,
            row_bytes: 64,
        }
        .near_storage_speedup();
        assert!(
            unselective < selective,
            "shipping 80% of the table should blunt the win: {unselective:.2} vs {selective:.2}"
        );
        assert!(unselective > 1.0, "near-storage still avoids one full haul");
    }

    #[test]
    fn both_placements_complete_and_bill_energy() {
        let q = ScanQuery {
            table_bytes: 2 << 30,
            selectivity_pct: 10,
            row_bytes: 64,
        };
        for placement in [AnalyticsPlacement::Host, AnalyticsPlacement::NearStorage] {
            let r = q.run(placement);
            assert_eq!(r.jobs, 1, "{} lost the job", placement.name());
            assert!(r.total_energy_j() > 0.0);
            assert!(r.stage("1-scan").is_some());
            assert!(r.stage("2-aggregate").is_some());
        }
    }

    #[test]
    fn survivor_math() {
        let q = ScanQuery::example_64gb();
        assert_eq!(q.survivor_bytes(), (64u64 << 30) / 100);
        assert_eq!(q.scan_macs(), (64u64 << 30) / 8);
    }
}
