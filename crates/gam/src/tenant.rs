//! Two-tenant (and N-tenant) accounting for co-run scenarios.
//!
//! When two workloads share one machine — CBIR serving open-loop traffic
//! while a graph batch job runs — every GAM counter in [`crate::GamStats`]
//! aggregates over both, which is exactly the wrong granularity for asking
//! "who got the dispatch slots?". A [`TenantLedger`] splits the accounting
//! by *job-id range*: each workload submits its jobs from a disjoint id
//! span (the co-run scenarios put CBIR at `0..` and graph batches at
//! `512..`), and the machine attributes dispatches, completions and
//! admission rejections to the span the job id falls in.
//!
//! The ledger is deliberately not part of [`crate::Gam`] itself: the GAM is
//! a hardware block that neither knows nor cares which host process a job
//! came from. Attribution is a *measurement* concern, so it lives beside
//! the stats and is fed by the machine model's event loop.

use crate::task::JobId;

/// One tenant's accumulated share of the GAM's work.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Task dispatches attributed to this tenant's jobs.
    pub dispatches: u64,
    /// Jobs from this tenant that ran to completion.
    pub jobs_completed: u64,
    /// Jobs from this tenant bounced at the admission queue.
    pub jobs_rejected: u64,
}

/// A named, half-open job-id span `[lo, hi)` with its accumulated stats.
#[derive(Clone, Debug)]
struct Tenant {
    name: String,
    lo: u64,
    hi: u64,
    stats: TenantStats,
}

/// Per-tenant attribution of GAM work, keyed by disjoint job-id spans.
///
/// # Example
///
/// ```
/// use reach_gam::{JobId, TenantLedger};
///
/// let mut ledger = TenantLedger::new();
/// ledger.declare("cbir", 0, 512);
/// ledger.declare("graph", 512, 1024);
/// ledger.on_dispatch(JobId(3));
/// ledger.on_complete(JobId(512));
/// assert_eq!(ledger.stats("cbir").unwrap().dispatches, 1);
/// assert_eq!(ledger.stats("graph").unwrap().jobs_completed, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TenantLedger {
    tenants: Vec<Tenant>,
}

impl TenantLedger {
    /// An empty ledger: attribution is off until a tenant is declared.
    #[must_use]
    pub fn new() -> Self {
        TenantLedger::default()
    }

    /// True when no tenant has been declared (the common single-workload
    /// case — the machine skips all attribution work).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Number of declared tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Declares a tenant owning job ids `lo..hi`. Returns its index.
    ///
    /// # Panics
    ///
    /// Panics on an empty span, or one that overlaps an existing tenant —
    /// ambiguous attribution would silently double-count.
    pub fn declare(&mut self, name: &str, lo: u64, hi: u64) -> usize {
        assert!(lo < hi, "TenantLedger::declare: empty span {lo}..{hi}");
        for t in &self.tenants {
            assert!(
                hi <= t.lo || lo >= t.hi,
                "TenantLedger::declare: span {lo}..{hi} overlaps tenant '{}' ({}..{})",
                t.name,
                t.lo,
                t.hi
            );
        }
        self.tenants.push(Tenant {
            name: name.to_string(),
            lo,
            hi,
            stats: TenantStats::default(),
        });
        self.tenants.len() - 1
    }

    /// The tenant index owning `job`, if any span covers it.
    #[must_use]
    pub fn index_of(&self, job: JobId) -> Option<usize> {
        self.tenants
            .iter()
            .position(|t| t.lo <= job.0 && job.0 < t.hi)
    }

    /// Tenant name at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn name(&self, index: usize) -> &str {
        &self.tenants[index].name
    }

    /// Stats for the named tenant, if declared.
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<&TenantStats> {
        self.tenants
            .iter()
            .find(|t| t.name == name)
            .map(|t| &t.stats)
    }

    /// Stats at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn stats_at(&self, index: usize) -> &TenantStats {
        &self.tenants[index].stats
    }

    /// Iterates `(name, stats)` in declaration order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TenantStats)> {
        self.tenants.iter().map(|t| (t.name.as_str(), &t.stats))
    }

    /// Attributes one task dispatch to `job`'s tenant (no-op for jobs
    /// outside every span).
    pub fn on_dispatch(&mut self, job: JobId) {
        if let Some(i) = self.index_of(job) {
            self.tenants[i].stats.dispatches += 1;
        }
    }

    /// Attributes one job completion.
    pub fn on_complete(&mut self, job: JobId) {
        if let Some(i) = self.index_of(job) {
            self.tenants[i].stats.jobs_completed += 1;
        }
    }

    /// Attributes one admission rejection.
    pub fn on_reject(&mut self, job: JobId) {
        if let Some(i) = self.index_of(job) {
            self.tenants[i].stats.jobs_rejected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_follows_spans() {
        let mut l = TenantLedger::new();
        l.declare("a", 0, 4);
        l.declare("b", 512, 516);
        l.on_dispatch(JobId(0));
        l.on_dispatch(JobId(3));
        l.on_dispatch(JobId(513));
        l.on_complete(JobId(1));
        l.on_reject(JobId(515));
        assert_eq!(
            *l.stats("a").unwrap(),
            TenantStats {
                dispatches: 2,
                jobs_completed: 1,
                jobs_rejected: 0
            }
        );
        assert_eq!(
            *l.stats("b").unwrap(),
            TenantStats {
                dispatches: 1,
                jobs_completed: 0,
                jobs_rejected: 1
            }
        );
    }

    #[test]
    fn jobs_outside_every_span_are_ignored() {
        let mut l = TenantLedger::new();
        l.declare("a", 0, 4);
        l.on_dispatch(JobId(100));
        l.on_complete(JobId(100));
        assert_eq!(*l.stats("a").unwrap(), TenantStats::default());
    }

    #[test]
    fn boundaries_are_half_open() {
        let mut l = TenantLedger::new();
        l.declare("a", 0, 4);
        l.declare("b", 4, 8); // hi == next lo is NOT an overlap
        assert_eq!(l.index_of(JobId(3)), Some(0));
        assert_eq!(l.index_of(JobId(4)), Some(1));
        assert_eq!(l.index_of(JobId(8)), None);
    }

    #[test]
    #[should_panic(expected = "overlaps tenant")]
    fn overlapping_spans_rejected() {
        let mut l = TenantLedger::new();
        l.declare("a", 0, 10);
        l.declare("b", 5, 15);
    }

    #[test]
    #[should_panic(expected = "empty span")]
    fn empty_span_rejected() {
        let mut l = TenantLedger::new();
        l.declare("a", 7, 7);
    }

    #[test]
    fn iter_is_declaration_ordered() {
        let mut l = TenantLedger::new();
        l.declare("z", 0, 1);
        l.declare("a", 1, 2);
        let names: Vec<&str> = l.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["z", "a"]);
    }

    #[test]
    fn new_ledger_is_empty_and_attributes_nothing() {
        let mut l = TenantLedger::new();
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        l.on_dispatch(JobId(0));
        assert_eq!(l.index_of(JobId(0)), None);
        assert!(l.stats("a").is_none());
    }

    #[test]
    fn declare_returns_the_index_name_and_stats_use() {
        let mut l = TenantLedger::new();
        assert_eq!(l.declare("cbir", 0, 512), 0);
        assert_eq!(l.declare("graph", 512, 1024), 1);
        assert_eq!(l.len(), 2);
        assert_eq!(l.name(1), "graph");
        l.on_reject(JobId(600));
        assert_eq!(l.stats_at(1).jobs_rejected, 1);
        assert_eq!(*l.stats_at(0), TenantStats::default());
    }

    #[test]
    #[should_panic(expected = "overlaps tenant 'inner'")]
    fn enclosing_span_rejected() {
        let mut l = TenantLedger::new();
        l.declare("inner", 5, 6);
        l.declare("outer", 0, 10);
    }
}
