//! Machine-wide telemetry: the typed fields the [`crate::Machine`] records
//! into on the hot path, and the one function that writes them into a
//! [`reach_sim::MetricsSnapshot`].
//!
//! The machine owns one `MachineMetrics`. Dispatch, DMA, job completion
//! and the event loop record into its plain fields (no lookup and no
//! string work per sample); `MachineMetrics::snapshot` names them all once
//! at report time. The statistics that already live in the substrate
//! models (memory-channel bytes, SSD flash traffic, per-instance busy time,
//! GAM counters) are pulled by the machine into the same snapshot under the
//! same hierarchical namespace:
//!
//! ```text
//! accel.<level>.busy_ps          accelerator busy time per level
//! accel.<level>.<i>.busy_ps      …and per instance
//! accel.<level>.occupancy        concurrent-busy-instance occupancy
//! gam.queue.<level>.depth        ready-queue depth gauge
//! gam.dma.<from>.<to>.bytes      GAM-initiated staging traffic
//! latency.job.p99_ps             end-to-end job latency quantiles
//! mem.ddr.host.ch<i>.bytes       host memory-channel traffic
//! mem.noc.port.<port>.busy_ps    on-chip network port busy time
//! storage.ssd<i>.read_bytes      flash traffic per drive
//! tenant.<name>.dispatches       a co-run tenant's share of the GAM work
//! ```
//!
//! Levels appear as `on_chip`, `near_mem`, `near_stor`.
//!
//! Co-run scenarios also declare *tenants*: named, disjoint job-id spans
//! whose dispatches, completions, rejections and latency are attributed
//! to whichever span the job id falls in (`tenant.<name>.*`). The GAM
//! itself never learns which workload a job came from; attribution is a
//! measurement concern, so it lives here.

use reach_accel::ComputeLevel;
use reach_gam::JobId;
use reach_sim::{
    Histogram, LatencyHistogram, MetricsSnapshot, SimDuration, SimTime, Symbol, TimeWeighted,
    WindowedGauge,
};
use std::collections::HashMap;

/// Stable dotted-name segment for a compute level.
#[must_use]
pub(crate) fn level_slug(level: ComputeLevel) -> &'static str {
    match level {
        ComputeLevel::OnChip => "on_chip",
        ComputeLevel::NearMemory => "near_mem",
        ComputeLevel::NearStorage => "near_stor",
    }
}

fn level_index(level: ComputeLevel) -> usize {
    match level {
        ComputeLevel::OnChip => 0,
        ComputeLevel::NearMemory => 1,
        ComputeLevel::NearStorage => 2,
    }
}

/// One compute level's hot-path metrics.
#[derive(Default)]
struct LevelMetrics {
    /// GAM ready-queue depth over simulated time.
    queue_depth: TimeWeighted,
    dispatches: u64,
    busy_ps: u64,
    /// Service time per executed task.
    task_ps: Histogram,
    /// Concurrently busy instances.
    occupancy: WindowedGauge,
}

/// One co-run tenant: a named, half-open job-id span `[lo, hi)` and the
/// share of the machine's work its jobs took.
#[derive(Default)]
struct TenantMetrics {
    name: String,
    lo: u64,
    hi: u64,
    dispatches: u64,
    jobs_rejected: u64,
    /// End-to-end latency of the tenant's completed jobs; its count is the
    /// tenant's completions.
    latency: LatencyHistogram,
}

/// Every metric the machine records while it runs.
///
/// [`MachineMetrics::snapshot`] writes the level and DMA metrics whether
/// or not anything was recorded, so every run of the same machine shape
/// exports the same schema.
#[derive(Default)]
pub(crate) struct MachineMetrics {
    levels: [LevelMetrics; 3],
    /// `[from][to]` staging transfers, indexed by hierarchy order.
    dma_bytes: [[u64; 3]; 3],
    dma_count: [[u64; 3]; 3],
    /// End-to-end job latency distribution (submission -> host interrupt).
    job_latency: LatencyHistogram,
    /// Exact sum and last value of the job latencies, for the report.
    job_latency_sum_ps: u128,
    job_latency_last: SimDuration,
    /// Submission -> stage-completion latency distribution per stage.
    stage_latency: HashMap<Symbol, LatencyHistogram>,
    /// Co-run tenants in declaration order; empty for a single workload,
    /// which then does no attribution work.
    tenants: Vec<TenantMetrics>,
    events_processed: u64,
    queue_depth_peak: usize,
}

impl MachineMetrics {
    /// Declares a tenant owning job ids `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics on an empty span, on a span that overlaps a declared
    /// tenant's (its jobs would count twice), or on a name already
    /// declared (two tenants would share one set of `tenant.<name>.*`
    /// metrics).
    pub(crate) fn declare_tenant(&mut self, name: &str, lo: u64, hi: u64) {
        assert!(lo < hi, "declare_tenant: empty span {lo}..{hi}");
        for t in &self.tenants {
            assert!(
                t.name != name,
                "declare_tenant: tenant '{name}' is already declared"
            );
            assert!(
                hi <= t.lo || lo >= t.hi,
                "declare_tenant: span {lo}..{hi} overlaps tenant '{}' ({}..{})",
                t.name,
                t.lo,
                t.hi
            );
        }
        self.tenants.push(TenantMetrics {
            name: name.to_string(),
            lo,
            hi,
            ..TenantMetrics::default()
        });
    }

    /// The tenant whose span holds `job`, if any.
    fn tenant(&mut self, job: JobId) -> Option<&mut TenantMetrics> {
        self.tenants
            .iter_mut()
            .find(|t| t.lo <= job.0 && job.0 < t.hi)
    }

    /// Attributes one task dispatch to `job`'s tenant.
    pub(crate) fn tenant_dispatched(&mut self, job: JobId) {
        if let Some(t) = self.tenant(job) {
            t.dispatches += 1;
        }
    }

    /// Attributes one admission rejection to `job`'s tenant.
    pub(crate) fn tenant_rejected(&mut self, job: JobId) {
        if let Some(t) = self.tenant(job) {
            t.jobs_rejected += 1;
        }
    }

    /// Records one executed task: the busy window `[start, end)` on `level`
    /// with service time `duration` (excludes load/reconfiguration skew
    /// between `start` and the priced duration).
    pub(crate) fn task_executed(
        &mut self,
        level: ComputeLevel,
        start: SimTime,
        end: SimTime,
        duration: SimDuration,
    ) {
        let l = &mut self.levels[level_index(level)];
        l.dispatches += 1;
        l.busy_ps += duration.as_ps();
        l.task_ps.record(duration.as_ps());
        l.occupancy.record(start, end, 1.0);
    }

    /// Records one GAM-initiated staging transfer.
    pub(crate) fn dma(&mut self, from: ComputeLevel, to: ComputeLevel, bytes: u64) {
        let (f, t) = (level_index(from), level_index(to));
        self.dma_bytes[f][t] += bytes;
        self.dma_count[f][t] += 1;
    }

    /// Samples the GAM ready-queue depth of `level` at instant `at`.
    /// Samples must arrive in time order (the event loop is monotonic).
    pub(crate) fn sample_queue_depth(&mut self, level: ComputeLevel, at: SimTime, depth: usize) {
        self.levels[level_index(level)]
            .queue_depth
            .set(at, depth as f64);
    }

    /// Counts one drained instant of `events` events, with `pending` more
    /// still queued behind it.
    pub(crate) fn events_drained(&mut self, events: usize, pending: usize) {
        self.queue_depth_peak = self.queue_depth_peak.max(pending + events);
        self.events_processed += events as u64;
    }

    /// Records how long a job had been in the system when `stage`
    /// finished with it.
    pub(crate) fn stage_completed(&mut self, stage: Symbol, latency: SimDuration) {
        self.stage_latency
            .entry(stage)
            .or_default()
            .record(latency.as_ps());
    }

    /// Records `job`'s end-to-end latency, and against its tenant when the
    /// job belongs to a declared one.
    pub(crate) fn job_completed(&mut self, job: JobId, latency: SimDuration) {
        self.job_latency.record(latency.as_ps());
        self.job_latency_sum_ps += u128::from(latency.as_ps());
        self.job_latency_last = latency;
        if let Some(t) = self.tenant(job) {
            t.latency.record(latency.as_ps());
        }
    }

    /// `(jobs completed, mean latency, last latency)`; zero durations when
    /// no job completed.
    pub(crate) fn job_latency(&self) -> (u64, SimDuration, SimDuration) {
        let jobs = self.job_latency.count();
        let mean = match self.job_latency_sum_ps.checked_div(u128::from(jobs)) {
            Some(mean) => SimDuration::from_ps(mean as u64),
            None => SimDuration::ZERO,
        };
        (jobs, mean, self.job_latency_last)
    }

    /// Writes every recorded metric into a snapshot over `[0, until]`.
    pub(crate) fn snapshot(&self, until: SimTime) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new(until.since(SimTime::ZERO).as_ps());
        for (level, l) in ComputeLevel::ALL.into_iter().zip(&self.levels) {
            let slug = level_slug(level);
            snap.set(
                format!("gam.queue.{slug}.depth"),
                l.queue_depth.summary(until),
            );
            snap.set_counter(format!("gam.dispatch.{slug}.count"), l.dispatches);
            snap.set_counter(format!("accel.{slug}.busy_ps"), l.busy_ps);
            snap.set(format!("accel.{slug}.task_ps"), l.task_ps.summary());
            snap.set(
                format!("accel.{slug}.occupancy"),
                l.occupancy.summary(until),
            );
        }
        for from in ComputeLevel::ALL {
            for to in ComputeLevel::ALL {
                let (f, t) = (level_index(from), level_index(to));
                let pair = format!("gam.dma.{}.{}", level_slug(from), level_slug(to));
                snap.set_counter(format!("{pair}.bytes"), self.dma_bytes[f][t]);
                snap.set_counter(format!("{pair}.count"), self.dma_count[f][t]);
            }
        }

        // Latency-distribution quantiles (submission -> completion, in
        // picoseconds), from the deterministic log-bucketed histograms.
        // Emitted only once something completed, so closed-loop runs that
        // predate the traffic layer keep their exact metric schema.
        let quantiles = |snap: &mut MetricsSnapshot, prefix: &str, h: &LatencyHistogram| {
            snap.set_counter(format!("{prefix}.samples"), h.count());
            snap.set_counter(format!("{prefix}.p50_ps"), h.p50());
            snap.set_counter(format!("{prefix}.p95_ps"), h.p95());
            snap.set_counter(format!("{prefix}.p99_ps"), h.p99());
            snap.set_counter(format!("{prefix}.p999_ps"), h.p999());
        };
        if self.job_latency.count() > 0 {
            quantiles(&mut snap, "latency.job", &self.job_latency);
        }
        let mut stage_hists: Vec<(&'static str, &LatencyHistogram)> = self
            .stage_latency
            .iter()
            .map(|(s, h)| (s.resolve(), h))
            .collect();
        stage_hists.sort_unstable_by_key(|&(name, _)| name);
        for (name, h) in stage_hists {
            quantiles(&mut snap, &format!("latency.stage.{name}"), h);
        }
        // Per-tenant attribution, only when a co-run scenario declared
        // tenants, so single-workload runs keep their exact metric schema.
        for t in &self.tenants {
            let name = &t.name;
            snap.set_counter(format!("tenant.{name}.dispatches"), t.dispatches);
            snap.set_counter(format!("tenant.{name}.jobs_completed"), t.latency.count());
            snap.set_counter(format!("tenant.{name}.jobs_rejected"), t.jobs_rejected);
            if t.latency.count() > 0 {
                quantiles(&mut snap, &format!("tenant.{name}.latency"), &t.latency);
            }
        }

        // Event-loop throughput counters (fed to the experiments stderr
        // summary; never printed on stdout).
        snap.set_counter("engine.events_processed", self.events_processed);
        snap.set_counter("engine.queue_depth_peak", self.queue_depth_peak as u64);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::MetricValue;

    #[test]
    fn schema_is_complete_before_any_recording() {
        let m = MachineMetrics::default();
        let snap = m.snapshot(SimTime::ZERO);
        for slug in ["on_chip", "near_mem", "near_stor"] {
            assert!(snap.get(&format!("gam.queue.{slug}.depth")).is_some());
            assert!(snap.get(&format!("accel.{slug}.busy_ps")).is_some());
            assert!(snap.get(&format!("accel.{slug}.occupancy")).is_some());
        }
        assert!(snap.get("gam.dma.on_chip.near_stor.bytes").is_some());
        assert_eq!(
            snap.get("engine.events_processed"),
            Some(&MetricValue::Counter { value: 0 })
        );
        assert!(snap.get("latency.job.samples").is_none());
        assert_eq!(snap.len(), 15 + 18 + 2);
    }

    #[test]
    fn task_execution_lands_in_every_level_metric() {
        let mut m = MachineMetrics::default();
        m.task_executed(
            ComputeLevel::NearMemory,
            SimTime::from_ps(10),
            SimTime::from_ps(30),
            SimDuration::from_ps(20),
        );
        let snap = m.snapshot(SimTime::from_ps(40));
        assert_eq!(
            snap.get("accel.near_mem.busy_ps"),
            Some(&MetricValue::Counter { value: 20 })
        );
        match snap.get("accel.near_mem.occupancy").unwrap() {
            MetricValue::Occupancy { mean, peak } => {
                assert!((mean - 0.5).abs() < 1e-12, "mean {mean}");
                assert!((peak - 1.0).abs() < 1e-12);
            }
            other => panic!("expected occupancy, got {other:?}"),
        }
        assert_eq!(
            snap.get("gam.dispatch.near_mem.count"),
            Some(&MetricValue::Counter { value: 1 })
        );
    }

    #[test]
    fn dma_routes_to_the_directed_pair() {
        let mut m = MachineMetrics::default();
        m.dma(ComputeLevel::NearStorage, ComputeLevel::OnChip, 4096);
        let snap = m.snapshot(SimTime::ZERO);
        assert_eq!(
            snap.get("gam.dma.near_stor.on_chip.bytes"),
            Some(&MetricValue::Counter { value: 4096 })
        );
        assert_eq!(
            snap.get("gam.dma.on_chip.near_stor.bytes"),
            Some(&MetricValue::Counter { value: 0 })
        );
    }

    #[test]
    fn job_latency_feeds_the_report_and_the_tenant_quantiles() {
        let mut m = MachineMetrics::default();
        assert_eq!(m.job_latency(), (0, SimDuration::ZERO, SimDuration::ZERO));
        m.declare_tenant("scan", 0, 10);
        m.job_completed(JobId(3), SimDuration::from_ps(10));
        m.job_completed(JobId(10), SimDuration::from_ps(5));
        assert_eq!(
            m.job_latency(),
            (2, SimDuration::from_ps(7), SimDuration::from_ps(5))
        );
        m.events_drained(3, 4);
        m.events_drained(1, 0);
        let snap = m.snapshot(SimTime::from_ps(20));
        assert_eq!(snap.counter("latency.job.samples"), Some(2));
        assert_eq!(snap.counter("tenant.scan.latency.samples"), Some(1));
        assert_eq!(snap.counter("tenant.scan.jobs_completed"), Some(1));
        assert_eq!(snap.counter("engine.events_processed"), Some(4));
        assert_eq!(snap.counter("engine.queue_depth_peak"), Some(7));
    }

    /// `(dispatches, jobs_completed, jobs_rejected)` of tenant `name`.
    fn tenant_counts(snap: &MetricsSnapshot, name: &str) -> [u64; 3] {
        ["dispatches", "jobs_completed", "jobs_rejected"].map(|what| {
            let metric = format!("tenant.{name}.{what}");
            snap.counter(&metric).expect(&metric)
        })
    }

    #[test]
    fn tenant_attribution_follows_spans() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("a", 0, 4);
        m.declare_tenant("b", 512, 516);
        for job in [0, 3, 513] {
            m.tenant_dispatched(JobId(job));
        }
        m.job_completed(JobId(1), SimDuration::from_ps(5));
        m.tenant_rejected(JobId(515));
        let snap = m.snapshot(SimTime::from_ps(10));
        assert_eq!(tenant_counts(&snap, "a"), [2, 1, 0]);
        assert_eq!(tenant_counts(&snap, "b"), [1, 0, 1]);
        // Quantiles appear only once the tenant completed a job.
        assert!(snap.get("tenant.a.latency.p99_ps").is_some());
        assert!(snap.get("tenant.b.latency.samples").is_none());
    }

    #[test]
    fn declared_tenants_report_under_their_names() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("cbir", 0, 512);
        m.declare_tenant("graph", 512, 1024);
        assert_eq!(m.tenants.len(), 2);
        assert_eq!(m.tenants[1].name, "graph");
        m.tenant_rejected(JobId(600));
        let snap = m.snapshot(SimTime::ZERO);
        assert_eq!(tenant_counts(&snap, "graph"), [0, 0, 1]);
        assert_eq!(tenant_counts(&snap, "cbir"), [0, 0, 0]);
    }

    #[test]
    fn tenant_spans_are_half_open() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("a", 0, 4);
        m.declare_tenant("b", 4, 8); // hi == next lo is not an overlap
        for job in [3, 4, 8] {
            m.tenant_dispatched(JobId(job));
        }
        let snap = m.snapshot(SimTime::ZERO);
        assert_eq!(tenant_counts(&snap, "a"), [1, 0, 0]);
        assert_eq!(tenant_counts(&snap, "b"), [1, 0, 0]);
    }

    #[test]
    fn jobs_outside_every_tenant_span_are_ignored() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("a", 0, 4);
        m.tenant_dispatched(JobId(100));
        m.tenant_rejected(JobId(100));
        m.job_completed(JobId(100), SimDuration::from_ps(5));
        let snap = m.snapshot(SimTime::from_ps(10));
        assert_eq!(tenant_counts(&snap, "a"), [0, 0, 0]);
        // The job still counts machine-wide.
        assert_eq!(
            snap.get("latency.job.samples"),
            Some(&MetricValue::Counter { value: 1 })
        );
    }

    #[test]
    fn tenants_keep_declaration_order() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("z", 0, 1);
        m.declare_tenant("a", 1, 2);
        let names: Vec<&str> = m.tenants.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, ["z", "a"]);
    }

    #[test]
    fn no_tenants_means_no_attribution() {
        let mut m = MachineMetrics::default();
        m.tenant_dispatched(JobId(0));
        m.tenant_rejected(JobId(1));
        m.job_completed(JobId(2), SimDuration::from_ps(5));
        assert!(m.tenants.is_empty());
        let snap = m.snapshot(SimTime::from_ps(10));
        assert!(snap.iter().all(|(name, _)| !name.starts_with("tenant.")));
    }

    #[test]
    #[should_panic(expected = "empty span 7..7")]
    fn empty_tenant_span_rejected() {
        MachineMetrics::default().declare_tenant("a", 7, 7);
    }

    #[test]
    #[should_panic(expected = "span 5..15 overlaps tenant 'a' (0..10)")]
    fn overlapping_tenant_spans_rejected() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("a", 0, 10);
        m.declare_tenant("b", 5, 15);
    }

    #[test]
    #[should_panic(expected = "overlaps tenant 'inner'")]
    fn enclosing_tenant_span_rejected() {
        let mut m = MachineMetrics::default();
        m.declare_tenant("inner", 5, 6);
        m.declare_tenant("outer", 0, 10);
    }
}
