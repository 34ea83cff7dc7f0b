//! The full-system machine model.
//!
//! `Machine` wires every substrate together — host memory controller and
//! LLC, the near-memory controller with AIM modules and the AIMbus, the
//! host PCIe switch with its NVMe near-storage units, the FPGA slots at all
//! three levels — and drives the [`Gam`] state machine over a deterministic
//! event queue. GAM actions are *priced* against resource calendars, so
//! queueing, saturation and cross-stage interference come out of contention
//! rather than closed-form formulas.
//!
//! ## Task pricing
//!
//! A dispatched task's duration is `max(compute, data)`:
//!
//! * compute comes from the kernel's MAC-rate model
//!   ([`reach_accel::KernelSpec::compute_time`]),
//! * data depends on the level x access-pattern pair, e.g. an on-chip
//!   `Stream` is priced against the host channels *and* the coherent-path
//!   effective rate, a near-memory `Stream` against the module's own DIMM,
//!   a near-storage `Gather` against flash page latency, queue depth and the
//!   kernel's datapath width.
//!
//! ## Completion observation
//!
//! On-chip tasks complete through the coherent interconnect at their true
//! finish time. Near-memory and near-storage tasks are observed *by status
//! poll*: the GAM sends a status packet when the estimated runtime elapses,
//! and an unfinished task answers with a new wait time — so a task's
//! effective latency is quantized by the polling protocol, exactly as in the
//! paper's Figure 5 design.

use crate::blueprint::MachineBlueprint;
use crate::config::SystemConfig;
use crate::report::{RunReport, StageSummary};
use crate::telemetry::{level_slug, MachineMetrics};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::work::{DataAccess, TaskWork};
use reach_accel::{Accelerator, AcceleratorId, ComputeLevel, TemplateRegistry};
use reach_energy::{EnergyLedger, EnergyPresets, SystemComponent};
use reach_gam::manager::{DmaId, Gam, GamAction};
use reach_gam::{Job, JobId, TaskId, TenantLedger};
use reach_mem::{
    AccessKind, AimBus, AimModule, MemoryController, Noc, NocConfig, NocPort, Tlb, TlbConfig,
};
use reach_sim::{EventQueue, SimDuration, SimTime, Symbol};
use reach_storage::{NearStorageDevice, PcieSwitch};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Events the machine schedules for itself.
#[derive(Clone, Debug)]
enum Event {
    /// An on-chip task reached its true completion.
    TaskDone { task: TaskId },
    /// A GAM status poll fires for an off-chip task.
    Poll { task: TaskId },
    /// A GAM-initiated DMA finished.
    DmaDone { id: DmaId },
    /// A deferred job submission (host-side arrival) comes due.
    SubmitJob { index: usize },
}

/// Per-stage usage accounting used to build the energy ledger.
#[derive(Clone, Debug, Default)]
struct StageAcct {
    acc_active_j: f64,
    acc_busy: SimDuration,
    tasks: u64,
    window: Option<(SimTime, SimTime)>,
    cache_accesses: u64,
    dram_bytes: u64,
    dram_activations: u64,
    ssd_bytes: u64,
    ssd_busy: SimDuration,
    interconnect_bytes: u64,
    pcie_bytes: u64,
}

impl StageAcct {
    fn widen(&mut self, start: SimTime, end: SimTime) {
        self.window = Some(match self.window {
            None => (start, end),
            Some((s, e)) => (s.min(start), e.max(end)),
        });
    }
}

/// Per-task state, flattened to `Copy` fields so the dispatch path reads it
/// without cloning anything.
struct TaskMeta {
    macs: u64,
    access: DataAccess,
    stage: Symbol,
    /// Registry index of the task's kernel, resolved once at submit time so
    /// dispatch never repeats the string lookup.
    kernel: usize,
    /// Owning job, so task completion can look up the submission instant
    /// for the per-stage latency histograms.
    job: JobId,
    actual_finish: Option<SimTime>,
    acc: Option<AcceleratorId>,
}

/// A host-side arrival waiting for its submission instant, with the
/// admission-queue bound it must clear (if any).
struct DeferredJob {
    job: Job,
    /// `Some(depth)`: reject the arrival if `depth` jobs are already in
    /// flight when it comes due. `None`: always admit.
    limit: Option<usize>,
}

struct DmaMeta {
    /// Stage the transfer was billed to (kept for debugging dumps).
    #[allow(dead_code)]
    stage: Symbol,
}

/// The assembled ReACH machine.
///
/// See the crate-level docs for a runnable example.
pub struct Machine {
    cfg: SystemConfig,
    presets: EnergyPresets,
    registry: Arc<TemplateRegistry>,
    host_mc: MemoryController,
    nm_mc: MemoryController,
    noc: Noc,
    onchip_tlb: Tlb,
    aim_modules: Vec<AimModule>,
    aimbus: AimBus,
    host_switch: PcieSwitch,
    ns_devices: Vec<NearStorageDevice>,
    accelerators: BTreeMap<AcceleratorId, Accelerator>,
    gam: Gam,
    queue: EventQueue<Event>,
    tasks: HashMap<TaskId, TaskMeta>,
    dmas: HashMap<DmaId, DmaMeta>,
    job_submit: BTreeMap<JobId, SimTime>,
    job_done: BTreeMap<JobId, SimTime>,
    /// Symbol-keyed so per-event accounting hashes a `u32`, not a string.
    /// Report building sorts by the resolved name to keep output stable.
    stages: HashMap<Symbol, StageAcct>,
    /// Fallback stage for DMAs whose consumer task is already retired.
    sym_transfer: Symbol,
    ns_cursor: u64,
    deferred: Vec<Option<DeferredJob>>,
    /// Per-workload attribution for co-run scenarios; empty (and fully
    /// skipped) unless [`Machine::declare_tenant`] was called.
    tenants: TenantLedger,
    trace: Option<Trace>,
    metrics: MachineMetrics,
}

impl Machine {
    /// Builds a machine from a configuration, with the paper's Table III
    /// template registry and Table IV energy presets.
    ///
    /// Shorthand for `MachineBlueprint::new(cfg).instantiate()` — prefer
    /// holding a [`MachineBlueprint`] when the same shape is built more
    /// than once.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see
    /// [`SystemConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        MachineBlueprint::new(cfg).instantiate()
    }

    /// Builds a machine with a custom template registry (for user kernels).
    ///
    /// Shorthand for `MachineBlueprint::with_registry(..).instantiate()`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    #[must_use]
    pub fn with_registry(cfg: SystemConfig, registry: TemplateRegistry) -> Self {
        MachineBlueprint::with_registry(cfg, registry).instantiate()
    }

    /// Assembles the runtime from blueprint parts. Only
    /// [`MachineBlueprint::instantiate`] calls this; the config has already
    /// been validated there.
    pub(crate) fn assemble(
        cfg: SystemConfig,
        registry: Arc<TemplateRegistry>,
        presets: EnergyPresets,
    ) -> Self {
        let mut gam = Gam::new(cfg.gam);
        let mut accelerators = BTreeMap::new();
        let mut register = |level: ComputeLevel, count: usize| {
            for index in 0..count {
                let id = AcceleratorId { level, index };
                gam.register_instance(id);
                accelerators.insert(id, Accelerator::new(id, cfg.reconfig_delay));
            }
        };
        register(ComputeLevel::OnChip, cfg.onchip_accelerators);
        register(ComputeLevel::NearMemory, cfg.near_memory_accelerators);
        register(ComputeLevel::NearStorage, cfg.near_storage_accelerators);

        let nm_mc_cfg = cfg.nm_mc();
        let aim_modules = (0..cfg.near_memory_accelerators)
            .map(|i| AimModule::new(i % nm_mc_cfg.channels, i / nm_mc_cfg.channels))
            .collect();

        // Pending events are bounded by in-flight work: at most one
        // completion/poll per accelerator, plus staging DMAs and deferred
        // submissions. Pre-sizing from the blueprint keeps the heap from
        // reallocating mid-run.
        let instances =
            cfg.onchip_accelerators + cfg.near_memory_accelerators + cfg.near_storage_accelerators;
        let queue_capacity = 4 * instances + 32;

        Machine {
            presets,
            registry,
            host_mc: MemoryController::new(cfg.host_mc),
            nm_mc: MemoryController::new(nm_mc_cfg),
            noc: Noc::new(NocConfig::paper_default()),
            onchip_tlb: Tlb::new(TlbConfig {
                entries: cfg.onchip_tlb_entries,
                page_bytes: 4 << 10,
            }),
            aim_modules,
            aimbus: AimBus::new(cfg.aimbus_bandwidth, cfg.aimbus_latency),
            host_switch: PcieSwitch::paper_host_io(),
            ns_devices: (0..cfg.near_storage_accelerators)
                .map(|_| NearStorageDevice::new(cfg.ns_device))
                .collect(),
            accelerators,
            gam,
            queue: EventQueue::with_capacity(queue_capacity),
            tasks: HashMap::new(),
            dmas: HashMap::new(),
            job_submit: BTreeMap::new(),
            job_done: BTreeMap::new(),
            stages: HashMap::new(),
            sym_transfer: Symbol::intern("transfer"),
            ns_cursor: 0,
            deferred: Vec::new(),
            tenants: TenantLedger::new(),
            trace: None,
            metrics: MachineMetrics::default(),
            cfg,
        }
    }

    /// Declares a co-run tenant owning job ids `lo..hi`, so dispatches,
    /// completions, rejections and end-to-end latency are attributed
    /// per-workload (`tenant.<name>.*` in the metrics snapshot). A machine
    /// with no declared tenants skips all attribution work.
    ///
    /// # Panics
    ///
    /// Panics on an empty or overlapping span (see
    /// [`TenantLedger::declare`]).
    pub fn declare_tenant(&mut self, name: &str, lo: u64, hi: u64) {
        self.tenants.declare(name, lo, hi);
        self.metrics.declare_tenant();
    }

    /// The per-tenant ledger (empty unless [`Machine::declare_tenant`] ran).
    #[must_use]
    pub fn tenants(&self) -> &TenantLedger {
        &self.tenants
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The template registry in use.
    #[must_use]
    pub fn registry(&self) -> &TemplateRegistry {
        &self.registry
    }

    /// Starts recording a timeline of task executions, DMA transfers and
    /// status polls (see [`crate::trace`]). Call before submitting work.
    pub fn enable_trace(&mut self) {
        self.trace.get_or_insert_with(Trace::new);
    }

    /// The recorded timeline, if tracing was enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Submits a job with the work descriptors for each of its tasks.
    /// Multiple jobs may be submitted before [`Machine::run`]; the GAM
    /// pipelines them.
    ///
    /// # Panics
    ///
    /// Panics if a task has no work descriptor or references an unknown
    /// template.
    pub fn submit(&mut self, job: Job, works: HashMap<TaskId, TaskWork>) {
        self.register_tasks(&job, &works, "Machine::submit");
        self.job_submit.insert(job.id, self.queue.now());
        self.queue.reserve(job.tasks.len());
        let actions = self.gam.submit_job(job);
        self.process_actions(actions);
        self.sample_queues();
    }

    /// Schedules a job to be submitted to the GAM at a future instant —
    /// the host-side arrival of a new query batch.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Machine::submit`], or if `at`
    /// is in the simulated past.
    pub fn submit_at(&mut self, at: SimTime, job: Job, works: HashMap<TaskId, TaskWork>) {
        self.register_tasks(&job, &works, "Machine::submit_at");
        let index = self.deferred.len();
        self.deferred.push(Some(DeferredJob { job, limit: None }));
        self.queue.push(at, Event::SubmitJob { index });
    }

    /// Schedules a job arrival behind a bounded admission queue: when `at`
    /// comes due, the job is submitted only if fewer than `queue_depth`
    /// jobs are in flight; otherwise the arrival is *rejected* — counted in
    /// [`reach_gam::manager::GamStats::jobs_rejected`] and dropped, never
    /// simulated. This is what keeps an open-loop source past saturation
    /// from queueing work without bound.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Machine::submit_at`], or if
    /// `queue_depth` is zero (a queue that admits nothing).
    pub fn submit_at_bounded(
        &mut self,
        at: SimTime,
        job: Job,
        works: HashMap<TaskId, TaskWork>,
        queue_depth: usize,
    ) {
        assert!(
            queue_depth > 0,
            "Machine::submit_at_bounded: zero admission-queue depth"
        );
        self.register_tasks(&job, &works, "Machine::submit_at_bounded");
        let index = self.deferred.len();
        self.deferred.push(Some(DeferredJob {
            job,
            limit: Some(queue_depth),
        }));
        self.queue.push(at, Event::SubmitJob { index });
    }

    /// Validates and records per-task metadata for a job about to be
    /// submitted (now or at a deferred instant). `caller` names the public
    /// entry point in panic messages.
    fn register_tasks(&mut self, job: &Job, works: &HashMap<TaskId, TaskWork>, caller: &str) {
        for t in &job.tasks {
            let work = works
                .get(&t.id)
                .unwrap_or_else(|| panic!("{caller}: no TaskWork for {}", t.id));
            let kernel = self
                .registry
                .resolve_index(t.template.resolve(), t.level)
                .unwrap_or_else(|| {
                    panic!("{caller}: unknown template {} at {}", t.template, t.level)
                });
            let stage = work.stage_label.as_deref().map_or(t.stage, Symbol::intern);
            self.tasks.insert(
                t.id,
                TaskMeta {
                    macs: work.macs,
                    access: work.access,
                    stage,
                    kernel,
                    job: job.id,
                    actual_finish: None,
                    acc: None,
                },
            );
        }
    }

    /// Drains the event queue and produces the run report.
    ///
    /// Events are drained one *instant* at a time through a reusable scratch
    /// buffer ([`EventQueue::pop_batch_into`]) instead of re-popping the
    /// heap per event. The observable order is identical to repeated `pop`:
    /// anything scheduled while a batch is processed carries a later
    /// sequence number than every event already drained.
    pub fn run(&mut self) -> RunReport {
        let mut batch: Vec<Event> = Vec::new();
        while let Some(now) = self.queue.pop_batch_into(&mut batch) {
            self.metrics.events_drained(batch.len(), self.queue.len());
            for ev in batch.drain(..) {
                match ev {
                    Event::TaskDone { task } => {
                        self.note_stage_latency(task, now);
                        let actions = self.gam.complete(task);
                        self.record_host_interrupts(&actions, now);
                        self.process_actions(actions);
                    }
                    Event::Poll { task } => {
                        let af = self.tasks[&task]
                            .actual_finish
                            .expect("polled task has a finish time");
                        if self.trace.is_some() {
                            self.record_poll_trace(task, now);
                        }
                        if af <= now {
                            self.note_stage_latency(task, now);
                            let actions = self.gam.complete(task);
                            self.record_host_interrupts(&actions, now);
                            self.process_actions(actions);
                        } else {
                            let actions = self.gam.poll_missed(task, now, af.since(now));
                            self.process_actions(actions);
                        }
                    }
                    Event::DmaDone { id } => {
                        let actions = self.gam.dma_finished(id);
                        self.process_actions(actions);
                    }
                    Event::SubmitJob { index } => {
                        let due = self.deferred[index]
                            .take()
                            .expect("deferred job submitted twice");
                        let full = due
                            .limit
                            .is_some_and(|depth| self.gam.jobs_in_flight() >= depth);
                        if full {
                            self.reject_arrival(due.job);
                        } else {
                            self.job_submit.insert(due.job.id, now);
                            let actions = self.gam.submit_job(due.job);
                            self.process_actions(actions);
                        }
                    }
                }
                self.sample_queues();
            }
        }
        assert!(
            self.gam.idle(),
            "Machine::run: queue drained but GAM not idle"
        );
        self.report()
    }

    /// Trace recording is opt-in and string-heavy; kept out of the hot loop.
    #[cold]
    fn record_poll_trace(&mut self, task: TaskId, now: SimTime) {
        let meta = &self.tasks[&task];
        let acc = meta.acc.expect("polled task placed");
        let ev = TraceEvent {
            name: format!("poll {}", meta.stage),
            kind: TraceKind::Poll,
            track: acc.level.to_string(),
            lane: acc.index,
            start: now,
            duration: self.cfg.gam.poll_latency,
        };
        self.trace.as_mut().expect("trace enabled").record(ev);
    }

    /// Samples the GAM ready-queue depth at every level. Called after each
    /// event is fully processed, so the gauges see the settled backlog.
    fn sample_queues(&mut self) {
        let now = self.queue.now();
        for level in ComputeLevel::ALL {
            self.metrics
                .sample_queue_depth(level, now, self.gam.queue_depth(level));
        }
    }

    /// Observes one task completion into its stage's latency histogram:
    /// the distribution of job-submission -> stage-completion times, i.e.
    /// how long a query batch has been in the system when each pipeline
    /// stage finishes with it. Symbol-keyed and allocation-free after the
    /// first sample per stage.
    fn note_stage_latency(&mut self, task: TaskId, now: SimTime) {
        let meta = &self.tasks[&task];
        let submitted = self.job_submit[&meta.job];
        self.metrics
            .stage_completed(meta.stage, now.since(submitted));
    }

    /// An arrival bounced off a full admission queue: drop its task state
    /// and count the rejection. Off the hot path — below saturation this
    /// never runs.
    #[cold]
    fn reject_arrival(&mut self, job: Job) {
        for t in &job.tasks {
            self.tasks.remove(&t.id);
        }
        if !self.tenants.is_empty() {
            self.tenants.on_reject(job.id);
        }
        self.gam.reject_job();
    }

    fn record_host_interrupts(&mut self, actions: &[GamAction], now: SimTime) {
        for a in actions {
            if let GamAction::HostInterrupt { job } = a {
                let submitted = self.job_submit[job];
                let latency = now.since(submitted);
                let mut tenant = None;
                if !self.tenants.is_empty() {
                    tenant = self.tenants.index_of(*job);
                    self.tenants.on_complete(*job);
                }
                self.metrics.job_completed(latency, tenant);
                self.job_done.insert(*job, now);
            }
        }
    }

    fn process_actions(&mut self, actions: Vec<GamAction>) {
        for action in actions {
            match action {
                GamAction::Dispatch { acc, task } => self.dispatch(acc, task),
                GamAction::Dma {
                    id,
                    buffer: _,
                    bytes,
                    from,
                    to,
                    dest,
                } => self.start_dma(id, bytes, from, to, dest),
                GamAction::Poll { task, at, .. } => {
                    self.queue
                        .push(at.max(self.queue.now()), Event::Poll { task });
                }
                GamAction::HostInterrupt { .. } => { /* recorded by the caller */ }
            }
        }
    }

    // ----------------------------------------------------------------- //
    // Task dispatch and pricing
    // ----------------------------------------------------------------- //

    fn dispatch(&mut self, acc_id: AcceleratorId, task: TaskId) {
        let (stage, macs, access, kernel_idx, job) = {
            let meta = &self.tasks[&task];
            (meta.stage, meta.macs, meta.access, meta.kernel, meta.job)
        };
        if !self.tenants.is_empty() {
            self.tenants.on_dispatch(job);
        }
        // Resolved to a registry index at submit time; `KernelSpec` is
        // `Copy`, so dispatch performs no lookup and no heap traffic.
        let kernel = *self.registry.spec_at(kernel_idx);
        let now = self.queue.now();
        let command = self.cfg.gam.command_latency;
        let accel = self
            .accelerators
            .get_mut(&acc_id)
            .expect("dispatch to registered accelerator");
        let ready = accel.load(now + command, kernel);

        let compute = kernel.compute_time(macs);
        let io_rate = kernel.io_rate_bytes_per_sec();
        let data_end = self.price_data(acc_id, ready, &access, io_rate, stage);
        let duration = compute.max(data_end.since(ready));

        let accel = self
            .accelerators
            .get_mut(&acc_id)
            .expect("accelerator exists");
        let res = accel.run(ready, duration);
        let finish = res.ready;

        // Accounting.
        self.metrics
            .task_executed(acc_id.level, res.start, finish, duration);
        let power = kernel.power_w;
        let acct = self.stages.entry(stage).or_default();
        acct.acc_active_j += power * duration.as_secs_f64();
        acct.acc_busy += duration;
        acct.tasks += 1;
        acct.widen(res.start, finish);

        if self.trace.is_some() {
            self.record_task_trace(stage, acc_id, res.start, finish);
        }
        let meta = self.tasks.get_mut(&task).expect("task meta");
        meta.actual_finish = Some(finish);
        meta.acc = Some(acc_id);

        // Completion observation: direct for on-chip, polled otherwise.
        match acc_id.level {
            ComputeLevel::OnChip => self.queue.push(finish, Event::TaskDone { task }),
            _ => {
                let actions = self.gam.task_started(task, res.start);
                self.process_actions(actions);
            }
        }
    }

    #[cold]
    fn record_task_trace(
        &mut self,
        stage: Symbol,
        acc_id: AcceleratorId,
        start: SimTime,
        end: SimTime,
    ) {
        let ev = TraceEvent {
            name: stage.resolve().to_string(),
            kind: TraceKind::Task,
            track: acc_id.level.to_string(),
            lane: acc_id.index,
            start,
            duration: end.since(start),
        };
        self.trace.as_mut().expect("trace enabled").record(ev);
    }

    /// Prices the data movement of `access` performed from level
    /// `acc.level`, starting at `ready`; returns when the last byte is
    /// consumed. Also bills per-stage usage counters.
    fn price_data(
        &mut self,
        acc: AcceleratorId,
        ready: SimTime,
        access: &DataAccess,
        io_rate: Option<f64>,
        stage: Symbol,
    ) -> SimTime {
        let bytes = access.bytes();
        if bytes == 0 {
            return ready;
        }
        let kernel_floor = |b: u64| match io_rate {
            Some(r) => SimDuration::from_secs_f64(b as f64 / r),
            None => SimDuration::ZERO,
        };

        match (acc.level, access) {
            (_, DataAccess::None) => ready,
            (_, DataAccess::Resident { bytes }) => {
                // Consumed from the level's stream buffer / SPM.
                ready + kernel_floor(*bytes)
            }
            (ComputeLevel::OnChip, DataAccess::Stream { bytes }) => {
                let res = self.host_mc.stream(ready, 0, *bytes, AccessKind::Read);
                let noc = self
                    .noc
                    .transfer(ready, NocPort::Cache, NocPort::Accelerator, *bytes);
                let coherent =
                    SimDuration::from_secs_f64(*bytes as f64 / self.cfg.onchip_stream_rate());
                let acct = self.stages.entry(stage).or_default();
                acct.dram_bytes += bytes;
                acct.dram_activations += bytes / self.cfg.host_mc.dimm.row_bytes;
                acct.interconnect_bytes += bytes;
                acct.cache_accesses += bytes / self.cfg.cache.line_bytes;
                res.complete
                    .max(noc.complete)
                    .max(ready + coherent)
                    .max(ready + kernel_floor(*bytes))
            }
            (ComputeLevel::OnChip, DataAccess::Gather { bytes, granule }) => {
                let res = self.host_mc.stream(ready, 0, *bytes, AccessKind::Read);
                let noc = self
                    .noc
                    .transfer(ready, NocPort::Cache, NocPort::Accelerator, *bytes);
                let records = bytes / (*granule).max(1);
                let mshr = self.cfg.onchip_gather_mshr;
                // Address translation: page walks ride the gather's critical
                // path (Figure 2's TLB + page-table walkers). The touched
                // span is conservatively the whole gathered range.
                let walks = self.onchip_tlb.estimated_walks(records, *granule, *bytes);
                let latency_bound = (self.cfg.onchip_gather_latency.scaled(records)
                    + self.cfg.page_walk_latency.scaled(walks))
                .div_ceil(mshr);
                let acct = self.stages.entry(stage).or_default();
                acct.dram_bytes += bytes;
                acct.dram_activations += records;
                acct.interconnect_bytes += bytes;
                acct.cache_accesses += bytes / self.cfg.cache.line_bytes;
                res.complete
                    .max(noc.complete)
                    .max(ready + latency_bound)
                    .max(ready + kernel_floor(*bytes))
            }
            (ComputeLevel::NearMemory, DataAccess::Stream { bytes }) => {
                let res = self.nm_stream(acc.index, ready, *bytes, stage);
                res.max(ready + kernel_floor(*bytes))
            }
            (ComputeLevel::NearMemory, DataAccess::Gather { bytes, granule }) => {
                let end = self.nm_stream(acc.index, ready, *bytes, stage);
                // Each record additionally pays a closed-row activate +
                // precharge turnaround on the module's DIMM.
                let records = bytes / (*granule).max(1);
                let t = self.cfg.nm_dimm.timing;
                let per_record = t.conflict_latency();
                let overhead = per_record.scaled(records);
                let acct = self.stages.entry(stage).or_default();
                acct.dram_activations += records;
                end.max(ready + overhead).max(ready + kernel_floor(*bytes))
            }
            (ComputeLevel::NearStorage, DataAccess::Stream { bytes }) => {
                let slot = acc.index % self.ns_devices.len().max(1);
                let dev = &mut self.ns_devices[slot];
                let addr = self.ns_cursor % (dev.config().ssd.capacity / 2);
                self.ns_cursor = self.ns_cursor.wrapping_add(*bytes);
                let res = dev.device_read(ready, addr, *bytes);
                let acct = self.stages.entry(stage).or_default();
                acct.ssd_bytes += bytes;
                acct.ssd_busy += SimDuration::from_secs_f64(
                    *bytes as f64 / dev.config().ssd.internal_bandwidth().as_bytes_per_sec() as f64,
                );
                res.complete.max(ready + kernel_floor(*bytes))
            }
            (ComputeLevel::NearStorage, DataAccess::Gather { bytes, granule }) => {
                let slot = acc.index % self.ns_devices.len().max(1);
                let dev = &mut self.ns_devices[slot];
                let page = dev.config().ssd.page_bytes.max(*granule);
                let pages = bytes.div_ceil(page);
                // Queue-depth-limited random page reads.
                const QUEUE_DEPTH: u64 = 32;
                let latency_bound = dev
                    .config()
                    .ssd
                    .read_latency
                    .scaled(pages)
                    .div_ceil(QUEUE_DEPTH);
                let addr = self.ns_cursor % (dev.config().ssd.capacity / 2);
                self.ns_cursor = self.ns_cursor.wrapping_add(*bytes);
                let res = dev.device_read(ready, addr, *bytes);
                let acct = self.stages.entry(stage).or_default();
                acct.ssd_bytes += bytes;
                acct.ssd_busy += SimDuration::from_secs_f64(
                    *bytes as f64 / dev.config().ssd.internal_bandwidth().as_bytes_per_sec() as f64,
                );
                res.complete
                    .max(ready + latency_bound)
                    .max(ready + kernel_floor(*bytes))
            }
        }
    }

    /// Streams from a near-memory module's own DIMM (acquiring ownership on
    /// first use), billing DRAM usage.
    /// If the GAM did *not* reorganize the near-memory channels to tile
    /// interleaving, only `1/n` of the module's working set is local; the
    /// remainder arrives from the other modules over the shared AIMbus —
    /// the inter-DIMM path the AIM memory-access filter provides.
    fn nm_stream(&mut self, index: usize, ready: SimTime, bytes: u64, stage: Symbol) -> SimTime {
        let n = self.aim_modules.len().max(1);
        let slot = index % n;
        let (local_bytes, remote_bytes) = if self.cfg.nm_tile_interleave || n == 1 {
            (bytes, 0)
        } else {
            (bytes / n as u64, bytes - bytes / n as u64)
        };
        let module = &mut self.aim_modules[slot];
        let start = if module.owner() == reach_mem::DimmOwner::Host {
            module.acquire(ready, &mut self.nm_mc)
        } else {
            ready
        };
        let cap = self.cfg.nm_dimm.capacity;
        let mut end = start;
        let mut remaining = local_bytes;
        while remaining > 0 {
            let chunk = remaining.min(cap);
            let res = module.stream_local(end, &mut self.nm_mc, 0, chunk, AccessKind::Read);
            end = res.complete;
            remaining -= chunk;
        }
        if remote_bytes > 0 {
            // Remote lines are read on their home DIMMs (overlapped with
            // the local stream) and forwarded over the shared AIMbus.
            let bus = self.aimbus.transfer(start, remote_bytes);
            end = end.max(bus.complete);
        }
        let acct = self.stages.entry(stage).or_default();
        acct.dram_bytes += bytes;
        acct.dram_activations += bytes / self.cfg.nm_dimm.row_bytes;
        acct.interconnect_bytes += remote_bytes;
        end
    }

    // ----------------------------------------------------------------- //
    // DMA pricing
    // ----------------------------------------------------------------- //

    fn start_dma(
        &mut self,
        id: DmaId,
        bytes: u64,
        from: ComputeLevel,
        to: ComputeLevel,
        dest: TaskId,
    ) {
        let now = self.queue.now();
        // Attribute the transfer to the stage of the task that consumes it.
        let stage = self.tasks.get(&dest).map_or(self.sym_transfer, |m| m.stage);
        let done = self.price_dma(now, bytes, from, to, stage);
        self.metrics.dma(from, to, bytes);
        if self.trace.is_some() {
            self.record_dma_trace(stage, bytes, from, to, now, done);
        }
        self.dmas.insert(id, DmaMeta { stage });
        self.queue.push(done, Event::DmaDone { id });
    }

    #[cold]
    fn record_dma_trace(
        &mut self,
        stage: Symbol,
        bytes: u64,
        from: ComputeLevel,
        to: ComputeLevel,
        now: SimTime,
        done: SimTime,
    ) {
        let ev = TraceEvent {
            name: format!("{stage} ({from}->{to}, {bytes} B)"),
            kind: TraceKind::Dma,
            track: "transfers".to_string(),
            lane: 0,
            start: now,
            duration: done.since(now),
        };
        self.trace.as_mut().expect("trace enabled").record(ev);
    }

    fn price_dma(
        &mut self,
        now: SimTime,
        bytes: u64,
        from: ComputeLevel,
        to: ComputeLevel,
        stage: Symbol,
    ) -> SimTime {
        use ComputeLevel::{NearMemory, NearStorage, OnChip};
        #[allow(unused_assignments)]
        let mut end = now;
        let mut dram = 0u64;
        let mut interconnect = 0u64;
        let mut pcie = 0u64;
        let mut ssd = 0u64;

        match (from, to) {
            (OnChip, OnChip) | (NearMemory, NearMemory) | (NearStorage, NearStorage) => {
                // Same level: near-memory modules use the AIMbus; others are
                // local copies at memory speed.
                if from == NearMemory {
                    let res = self.aimbus.transfer(now, bytes);
                    interconnect += bytes;
                    end = res.complete;
                } else {
                    end = now + SimDuration::from_secs_f64(bytes as f64 / 19.2e9);
                    dram += bytes;
                }
            }
            (OnChip, NearMemory) => {
                // Forced cache write-back, read from host DRAM, write into
                // the accelerator DIMMs over the memory network.
                let rd = self.host_mc.stream(now, 0, bytes, AccessKind::Read);
                let wr = self.nm_mc.stream(now, 0, bytes, AccessKind::Write);
                dram += bytes * 2;
                interconnect += bytes;
                end = rd.complete.max(wr.complete);
            }
            (NearMemory, OnChip) => {
                let rd = self.nm_mc.stream(now, 0, bytes, AccessKind::Read);
                let wr = self.host_mc.stream(now, 0, bytes, AccessKind::Write);
                dram += bytes * 2;
                interconnect += bytes;
                end = rd.complete.max(wr.complete);
            }
            (OnChip, NearStorage) | (NearMemory, NearStorage) => {
                // Host memory -> PCIe switch -> device DRAM buffer.
                let rd = if from == OnChip {
                    self.host_mc.stream(now, 0, bytes, AccessKind::Read)
                } else {
                    self.nm_mc.stream(now, 0, bytes, AccessKind::Read)
                };
                let sw = self.host_switch.host_transfer(now, bytes);
                dram += bytes;
                interconnect += bytes;
                pcie += bytes;
                end = rd.complete.max(sw.complete);
            }
            (NearStorage, OnChip) | (NearStorage, NearMemory) => {
                // SSD -> device link -> PCIe switch -> host/nm DRAM,
                // pipelined: completion is the slowest leg.
                let dev = &mut self.ns_devices[0];
                let flash = dev.passthrough_read(now, 0, bytes.min(dev.config().ssd.capacity / 2));
                let sw = self.host_switch.host_transfer(now, bytes);
                let wr = if to == OnChip {
                    self.host_mc.stream(now, 0, bytes, AccessKind::Write)
                } else {
                    self.nm_mc.stream(now, 0, bytes, AccessKind::Write)
                };
                ssd += bytes;
                pcie += bytes;
                dram += bytes;
                interconnect += bytes;
                end = flash.complete.max(sw.complete).max(wr.complete);
            }
        }

        let acct = self.stages.entry(stage).or_default();
        acct.dram_bytes += dram;
        acct.interconnect_bytes += interconnect;
        acct.pcie_bytes += pcie;
        acct.ssd_bytes += ssd;
        if ssd > 0 {
            acct.ssd_busy += SimDuration::from_secs_f64(ssd as f64 / 12.8e9);
        }
        acct.widen(now, end);
        end
    }

    // ----------------------------------------------------------------- //
    // Reporting
    // ----------------------------------------------------------------- //

    /// Writes the hot-path telemetry, then pulls the statistics the
    /// substrate models already keep (channel traffic, SSD flash bytes,
    /// per-instance busy time, GAM counters) into the same name-sorted
    /// snapshot.
    fn metrics_snapshot(&self) -> reach_sim::MetricsSnapshot {
        let mut snap = self.metrics.snapshot(self.queue.now(), &self.tenants);

        // Memory: host and near-memory DDR channels, NoC ports, AIMbus.
        for (prefix, mc) in [
            ("mem.ddr.host", &self.host_mc),
            ("mem.ddr.near_mem", &self.nm_mc),
        ] {
            for ch in 0..mc.config().channels {
                snap.set_counter(format!("{prefix}.ch{ch}.bytes"), mc.channel_bytes(ch));
                snap.set_counter(
                    format!("{prefix}.ch{ch}.busy_ps"),
                    mc.channel_busy(ch).as_ps(),
                );
            }
        }
        snap.set_counter("mem.noc.bytes", self.noc.stats().bytes);
        snap.set_counter("mem.noc.transfers", self.noc.stats().transfers);
        let port_slug = |p: NocPort| match p {
            NocPort::Cpu => "cpu",
            NocPort::Accelerator => "accel",
            NocPort::Gam => "gam",
            NocPort::Cache => "cache",
            NocPort::Pcie => "pcie",
        };
        for port in NocPort::ALL {
            snap.set_counter(
                format!("mem.noc.port.{}.busy_ps", port_slug(port)),
                self.noc.port_busy(port).as_ps(),
            );
        }
        snap.set_counter("mem.aimbus.bytes", self.aimbus.bytes_transferred());
        snap.set_counter("mem.aimbus.busy_ps", self.aimbus.busy_time().as_ps());

        // Contention gauges: time spent queued behind *other* traffic, the
        // co-run scenarios' primary observable. Zero for solo workloads.
        snap.set_counter(
            "mem.ddr.host.contended_cycles",
            self.host_mc.contended_cycles(),
        );
        snap.set_counter(
            "mem.ddr.near_mem.contended_cycles",
            self.nm_mc.contended_cycles(),
        );
        snap.set_counter(
            "mem.ddr.contended_cycles",
            self.host_mc.contended_cycles() + self.nm_mc.contended_cycles(),
        );
        snap.set_counter("mem.aimbus.queued_ps", self.aimbus.queued_time().as_ps());

        // Storage: the shared host IO interface and each near-storage unit.
        snap.set_counter(
            "storage.pcie.host.bytes",
            self.host_switch.bytes_transferred(),
        );
        snap.set_counter(
            "storage.pcie.host.busy_ps",
            self.host_switch.busy_time().as_ps(),
        );
        for (i, dev) in self.ns_devices.iter().enumerate() {
            let ssd = dev.ssd().stats();
            snap.set_counter(format!("storage.ssd{i}.read_bytes"), ssd.bytes_read);
            snap.set_counter(format!("storage.ssd{i}.write_bytes"), ssd.bytes_written);
            snap.set_counter(
                format!("storage.ssd{i}.flash_busy_ps"),
                dev.ssd().flash_busy_time().as_ps(),
            );
            snap.set_counter(
                format!("storage.ssd{i}.link.bytes"),
                dev.device_link_bytes(),
            );
            snap.set_counter(
                format!("storage.ssd{i}.link.busy_ps"),
                dev.device_link_busy().as_ps(),
            );
        }

        // Accelerators: per-instance busy time and reconfigurations.
        for (id, acc) in &self.accelerators {
            let slug = level_slug(id.level);
            snap.set_counter(
                format!("accel.{slug}.{}.busy_ps", id.index),
                acc.busy_time().as_ps(),
            );
            snap.set_counter(
                format!("accel.{slug}.{}.reconfigs", id.index),
                acc.stats().reconfigurations,
            );
        }

        // GAM aggregates.
        let g = self.gam.stats();
        snap.set_counter("gam.jobs_submitted", g.jobs_submitted);
        snap.set_counter("gam.jobs_completed", g.jobs_completed);
        snap.set_counter("gam.dispatches", g.dispatches);
        snap.set_counter("gam.polls_sent", g.polls_sent);
        snap.set_counter("gam.polls_missed", g.polls_missed);
        snap.set_counter("gam.dmas", g.dmas);
        snap.set_counter("gam.dma_bytes", g.dma_bytes);
        snap.set_counter("gam.jobs_rejected", g.jobs_rejected);

        // Per-tenant attribution, only when a co-run scenario declared
        // tenants — single-workload runs keep their exact metric schema.
        for (name, stats) in self.tenants.iter() {
            snap.set_counter(format!("tenant.{name}.dispatches"), stats.dispatches);
            snap.set_counter(
                format!("tenant.{name}.jobs_completed"),
                stats.jobs_completed,
            );
            snap.set_counter(format!("tenant.{name}.jobs_rejected"), stats.jobs_rejected);
        }
        snap
    }

    fn report(&self) -> RunReport {
        let makespan = self.queue.now().since(SimTime::ZERO);
        let mut ledger = EnergyLedger::new();
        let p = &self.presets;

        // Usage totals for static-energy attribution weights.
        let total_ssd_bytes: u64 = self.stages.values().map(|a| a.ssd_bytes).sum();
        let total_pcie_bytes: u64 = self.stages.values().map(|a| a.pcie_bytes).sum();
        let total_busy: SimDuration = self.stages.values().map(|a| a.acc_busy).sum();

        // Two static-energy attribution rules (see EXPERIMENTS.md):
        // storage-path components (SSD, PCIe) are billed to the stages that
        // *use* them, weighted by bytes; always-on memory-side components
        // (DRAM background, cache leakage, MC/NoC static) are billed by
        // wall-clock stage extent.
        let weight = |part: u64, whole: u64, acct: &StageAcct| -> f64 {
            if whole > 0 {
                part as f64 / whole as f64
            } else if !total_busy.is_zero() {
                acct.acc_busy.as_ps() as f64 / total_busy.as_ps() as f64
            } else {
                0.0
            }
        };
        let total_span: f64 = self
            .stages
            .values()
            .filter_map(|a| a.window.map(|(s, e)| e.since(s).as_ps() as f64))
            .sum();
        let weight_time = |acct: &StageAcct| -> f64 {
            match acct.window {
                Some((s, e)) if total_span > 0.0 => e.since(s).as_ps() as f64 / total_span,
                _ => 0.0,
            }
        };

        // Static energy pools.
        let dimms = self.cfg.host_mc.channels * self.cfg.host_mc.dimms_per_channel
            + self.cfg.near_memory_accelerators;
        let dram_static = p.dram.energy_j(0, 0, dimms, makespan);
        let cache_static = p.cache.energy_j(0, makespan);
        let ssd_static = p
            .ssd
            .energy_j(SimDuration::ZERO, self.ns_devices.len(), makespan);
        let ic_static = p.mc_interconnect.energy_j(0, makespan);
        let pcie_static = p.pcie.energy_j(0, makespan);

        // Accelerator idle pools per level (kernel idle power x idle time).
        let mut acc_idle_j = 0.0;
        for acc in self.accelerators.values() {
            let busy = acc.busy_time().min(makespan);
            let idle = makespan - busy;
            acc_idle_j += acc.active_power_w() * p.accel_idle_fraction * idle.as_secs_f64();
        }

        // Resolve symbols once and sort by name so the report is identical
        // to the old string-keyed BTreeMap iteration order.
        let mut stage_rows: Vec<(&'static str, &StageAcct)> = self
            .stages
            .iter()
            .map(|(sym, acct)| (sym.resolve(), acct))
            .collect();
        stage_rows.sort_unstable_by_key(|&(name, _)| name);

        let mut summaries = Vec::new();
        for &(name, acct) in &stage_rows {
            // Dynamic terms.
            ledger.add(SystemComponent::Accelerator, name, acct.acc_active_j);
            ledger.add(
                SystemComponent::Cache,
                name,
                p.cache.pj_per_access * 1e-12 * acct.cache_accesses as f64,
            );
            ledger.add(
                SystemComponent::Dram,
                name,
                p.dram.pj_per_activation * 1e-12 * acct.dram_activations as f64
                    + p.dram.pj_per_byte * 1e-12 * acct.dram_bytes as f64,
            );
            let ssd_active = (p.ssd.active_w - p.ssd.idle_w).max(0.0) * acct.ssd_busy.as_secs_f64();
            ledger.add(SystemComponent::Ssd, name, ssd_active);
            ledger.add(
                SystemComponent::McInterconnect,
                name,
                p.mc_interconnect.pj_per_byte * 1e-12 * acct.interconnect_bytes as f64,
            );
            ledger.add(
                SystemComponent::Pcie,
                name,
                p.pcie.pj_per_byte * 1e-12 * acct.pcie_bytes as f64,
            );

            // Static attributions: time-extent for memory-side components,
            // usage for storage-path components.
            ledger.add(SystemComponent::Dram, name, dram_static * weight_time(acct));
            ledger.add(
                SystemComponent::Cache,
                name,
                cache_static * weight_time(acct),
            );
            ledger.add(
                SystemComponent::Ssd,
                name,
                ssd_static * weight(acct.ssd_bytes, total_ssd_bytes, acct),
            );
            ledger.add(
                SystemComponent::McInterconnect,
                name,
                ic_static * weight_time(acct),
            );
            ledger.add(
                SystemComponent::Pcie,
                name,
                pcie_static * weight(acct.pcie_bytes, total_pcie_bytes, acct),
            );
            if !total_busy.is_zero() {
                ledger.add(
                    SystemComponent::Accelerator,
                    name,
                    acc_idle_j * acct.acc_busy.as_ps() as f64 / total_busy.as_ps() as f64,
                );
            }

            summaries.push(StageSummary {
                name: name.to_string(),
                busy: acct.acc_busy,
                window: acct.window.unwrap_or((SimTime::ZERO, SimTime::ZERO)),
                tasks: acct.tasks,
            });
        }

        let (jobs, job_latency_mean, job_latency_last) = self.metrics.job_latency();
        RunReport {
            makespan,
            jobs,
            job_latency_mean,
            job_latency_last,
            stages: summaries,
            ledger,
            gam: *self.gam.stats(),
            completions: self.job_done.values().copied().collect(),
            metrics: self.metrics_snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_gam::JobBuilder;
    use std::collections::HashMap;

    fn machine() -> Machine {
        Machine::new(SystemConfig::paper_table2())
    }

    fn compute_job(
        job_id: u64,
        macs: u64,
        level: ComputeLevel,
        template: &str,
    ) -> (Job, HashMap<TaskId, TaskWork>) {
        let mut b = JobBuilder::new(job_id);
        let t = b.task(
            "w",
            template,
            level,
            SimDuration::from_ms(1),
            vec![],
            vec![],
            vec![],
        );
        (b.build(), HashMap::from([(t, TaskWork::compute(macs))]))
    }

    #[test]
    fn submit_at_defers_work() {
        let mut m = machine();
        let (job, works) = compute_job(0, 1_000_000_000, ComputeLevel::OnChip, "VGG16-VU9P");
        let start = SimTime::ZERO + SimDuration::from_ms(250);
        m.submit_at(start, job, works);
        let r = m.run();
        // Nothing ran before the deferred submission instant.
        assert!(r.makespan >= SimDuration::from_ms(250));
        assert_eq!(r.jobs, 1);
        assert_eq!(r.job_completions().len(), 1);
        assert!(r.job_completions()[0] >= start);
    }

    #[test]
    fn repeated_run_accumulates_jobs() {
        let mut m = machine();
        let (j0, w0) = compute_job(0, 1_000_000_000, ComputeLevel::OnChip, "VGG16-VU9P");
        m.submit(j0, w0);
        let r0 = m.run();
        assert_eq!(r0.jobs, 1);
        let (j1, w1) = compute_job(1, 1_000_000_000, ComputeLevel::OnChip, "VGG16-VU9P");
        m.submit(j1, w1);
        let r1 = m.run();
        assert_eq!(r1.jobs, 2, "reports accumulate across run() calls");
        assert!(r1.makespan > r0.makespan);
    }

    #[test]
    fn dma_paths_bill_the_right_components() {
        // NearStorage -> OnChip staging must touch SSD, PCIe and DRAM.
        let mut m = machine();
        let mut b = JobBuilder::new(0);
        let buf = b.buffer("db", 64 << 20, Some(ComputeLevel::NearStorage));
        let t = b.task(
            "stage",
            "KNN-VU9P",
            ComputeLevel::OnChip,
            SimDuration::from_ms(1),
            vec![buf],
            vec![],
            vec![],
        );
        m.submit(
            b.build(),
            HashMap::from([(t, TaskWork::gather(1_000_000, 64 << 20, 4096))]),
        );
        let r = m.run();
        for c in [
            SystemComponent::Ssd,
            SystemComponent::Pcie,
            SystemComponent::Dram,
        ] {
            assert!(
                r.ledger.component_total(c) > 0.0,
                "{c} not billed on the staging path"
            );
        }
    }

    #[test]
    fn onchip_to_nearmem_dma_skips_pcie() {
        let mut m = machine();
        let mut b = JobBuilder::new(0);
        let buf = b.buffer("tiles", 32 << 20, Some(ComputeLevel::OnChip));
        let t = b.task(
            "nm",
            "GEMM-ZCU9",
            ComputeLevel::NearMemory,
            SimDuration::from_ms(1),
            vec![buf],
            vec![],
            vec![],
        );
        m.submit(
            b.build(),
            HashMap::from([(t, TaskWork::stream(1_000_000, 32 << 20))]),
        );
        let r = m.run();
        // Dynamic PCIe energy only comes from bytes; none should have moved.
        let pcie = r.ledger.component_total(SystemComponent::Pcie);
        let static_only = reach_energy::EnergyPresets::paper_table4()
            .pcie
            .energy_j(0, r.makespan);
        assert!(
            (pcie - static_only).abs() < 1e-9,
            "PCIe billed dynamic energy on a memory-network transfer"
        );
    }

    #[test]
    fn noc_carries_onchip_stream_traffic() {
        let mut m = machine();
        let (job, works) = {
            let mut b = JobBuilder::new(0);
            let t = b.task(
                "s",
                "GEMM-VU9P",
                ComputeLevel::OnChip,
                SimDuration::from_ms(1),
                vec![],
                vec![],
                vec![],
            );
            (
                b.build(),
                HashMap::from([(t, TaskWork::stream(1, 16 << 20))]),
            )
        };
        m.submit(job, works);
        let _ = m.run();
        assert_eq!(m.noc.stats().bytes, 16 << 20);
    }

    #[test]
    #[should_panic(expected = "no TaskWork")]
    fn missing_work_descriptor_rejected() {
        let mut m = machine();
        let mut b = JobBuilder::new(0);
        b.task(
            "x",
            "VGG16-VU9P",
            ComputeLevel::OnChip,
            SimDuration::from_ms(1),
            vec![],
            vec![],
            vec![],
        );
        m.submit(b.build(), HashMap::new());
    }

    #[test]
    #[should_panic(expected = "unknown template")]
    fn unknown_template_rejected() {
        let mut m = machine();
        let mut b = JobBuilder::new(0);
        let t = b.task(
            "x",
            "NOT-A-KERNEL",
            ComputeLevel::OnChip,
            SimDuration::from_ms(1),
            vec![],
            vec![],
            vec![],
        );
        m.submit(b.build(), HashMap::from([(t, TaskWork::compute(1))]));
    }
}
