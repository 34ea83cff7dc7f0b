//! The GAM state machine: scheduling queue, progress table, buffer table.

use crate::task::{BufferDesc, BufferId, Job, JobId, TaskId, TaskState};
use reach_accel::{AcceleratorId, ComputeLevel};
use reach_sim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies an in-flight GAM-initiated DMA transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DmaId(pub u64);

/// GAM timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GamConfig {
    /// Latency of an ACC command packet from the GAM to an accelerator.
    pub command_latency: SimDuration,
    /// Round-trip latency of a status-request packet.
    pub poll_latency: SimDuration,
    /// Minimum interval between consecutive polls of the same task, so an
    /// underestimated task does not flood the interconnect.
    pub min_poll_interval: SimDuration,
}

impl Default for GamConfig {
    fn default() -> Self {
        GamConfig {
            command_latency: SimDuration::from_ns(500),
            poll_latency: SimDuration::from_us(2),
            min_poll_interval: SimDuration::from_us(50),
        }
    }
}

/// What the GAM asks the machine to do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GamAction {
    /// Launch `task` on accelerator `acc` (the machine computes the actual
    /// duration from the kernel model and data paths).
    Dispatch {
        /// Target accelerator slot.
        acc: AcceleratorId,
        /// Task to launch.
        task: TaskId,
    },
    /// Move a buffer between levels (forced write-backs and PCIe transfers
    /// are billed by the machine).
    Dma {
        /// Transfer id, echoed back via [`Gam::dma_finished`].
        id: DmaId,
        /// The buffer being moved.
        buffer: BufferId,
        /// Payload size.
        bytes: u64,
        /// Source level.
        from: ComputeLevel,
        /// Destination level.
        to: ComputeLevel,
        /// The first consumer task waiting on this transfer (for stage
        /// attribution in the machine's accounting).
        dest: TaskId,
    },
    /// Send a status-request packet for `task` at time `at`.
    Poll {
        /// Accelerator being polled.
        acc: AcceleratorId,
        /// Task being polled.
        task: TaskId,
        /// When the packet should be sent (estimated completion).
        at: SimTime,
    },
    /// Interrupt the host: `job` is complete.
    HostInterrupt {
        /// The finished job.
        job: JobId,
    },
}

/// Aggregate GAM statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GamStats {
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs completed (host interrupts raised).
    pub jobs_completed: u64,
    /// Tasks dispatched.
    pub dispatches: u64,
    /// Status polls sent.
    pub polls_sent: u64,
    /// Polls that found the task still running.
    pub polls_missed: u64,
    /// DMA transfers initiated.
    pub dmas: u64,
    /// Bytes moved by GAM-initiated DMA.
    pub dma_bytes: u64,
    /// Job arrivals turned away by admission control before submission
    /// (never entered the GAM's task tables).
    pub jobs_rejected: u64,
}

impl GamStats {
    /// Accumulates `other` into `self`, field by field — the reduction a
    /// fleet aggregator applies over per-machine GAM counters.
    pub fn merge(&mut self, other: &GamStats) {
        self.jobs_submitted += other.jobs_submitted;
        self.jobs_completed += other.jobs_completed;
        self.dispatches += other.dispatches;
        self.polls_sent += other.polls_sent;
        self.polls_missed += other.polls_missed;
        self.dmas += other.dmas;
        self.dma_bytes += other.dma_bytes;
        self.jobs_rejected += other.jobs_rejected;
    }
}

struct TaskEntry {
    task: crate::task::Task,
    state: TaskState,
    unmet_deps: usize,
    pending_inputs: usize,
    assigned: Option<AcceleratorId>,
}

struct BufferEntry {
    desc: BufferDesc,
    copies: BTreeSet<ComputeLevel>,
}

/// The Global Accelerator Manager.
///
/// Drive it with notifications; execute the [`GamAction`]s it returns. See
/// the crate docs for the protocol and `reach::Machine` for the production
/// driver. The state machine is deterministic: same notification sequence,
/// same actions.
///
/// # Example
///
/// ```
/// use reach_gam::{Gam, GamConfig, GamAction, JobBuilder};
/// use reach_accel::{AcceleratorId, ComputeLevel};
/// use reach_sim::SimDuration;
///
/// let mut gam = Gam::new(GamConfig::default());
/// gam.register_instance(AcceleratorId { level: ComputeLevel::OnChip, index: 0 });
/// let mut job = JobBuilder::new(0);
/// let t = job.task("w", "K", ComputeLevel::OnChip, SimDuration::from_ms(1),
///                  vec![], vec![], vec![]);
/// let actions = gam.submit_job(job.build());
/// assert!(matches!(actions[0], GamAction::Dispatch { task, .. } if task == t));
/// let done = gam.complete(t);
/// assert!(matches!(done[0], GamAction::HostInterrupt { .. }));
/// ```
pub struct Gam {
    config: GamConfig,
    buffers: BTreeMap<BufferId, BufferEntry>,
    tasks: BTreeMap<TaskId, TaskEntry>,
    dependents: BTreeMap<TaskId, Vec<TaskId>>,
    queues: BTreeMap<ComputeLevel, BTreeSet<TaskId>>,
    instances: BTreeMap<AcceleratorId, Option<TaskId>>,
    jobs_remaining: BTreeMap<JobId, usize>,
    dma_waiters: BTreeMap<(BufferId, ComputeLevel), Vec<TaskId>>,
    dma_inflight: BTreeMap<DmaId, (BufferId, ComputeLevel)>,
    next_dma: u64,
    stats: GamStats,
}

impl Gam {
    /// Creates a GAM with no registered accelerators.
    #[must_use]
    pub fn new(config: GamConfig) -> Self {
        Gam {
            config,
            buffers: BTreeMap::new(),
            tasks: BTreeMap::new(),
            dependents: BTreeMap::new(),
            queues: BTreeMap::new(),
            instances: BTreeMap::new(),
            jobs_remaining: BTreeMap::new(),
            dma_waiters: BTreeMap::new(),
            dma_inflight: BTreeMap::new(),
            next_dma: 0,
            stats: GamStats::default(),
        }
    }

    /// The GAM configuration.
    #[must_use]
    pub fn config(&self) -> &GamConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &GamStats {
        &self.stats
    }

    /// Registers an accelerator slot (done once during ReACH configuration).
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration.
    pub fn register_instance(&mut self, acc: AcceleratorId) {
        let prev = self.instances.insert(acc, None);
        assert!(prev.is_none(), "Gam: accelerator {acc} registered twice");
    }

    /// Current state of a task, if known.
    #[must_use]
    pub fn task_state(&self, task: TaskId) -> Option<TaskState> {
        self.tasks.get(&task).map(|e| e.state)
    }

    /// Tasks ready at `level` but waiting for a free instance — the
    /// dispatch backlog a telemetry gauge samples.
    #[must_use]
    pub fn queue_depth(&self, level: ComputeLevel) -> usize {
        self.queues.get(&level).map_or(0, BTreeSet::len)
    }

    /// Jobs submitted but not yet completed — the backlog an admission
    /// queue bounds.
    #[must_use]
    pub fn jobs_in_flight(&self) -> usize {
        (self.stats.jobs_submitted - self.stats.jobs_completed) as usize
    }

    /// Records a job arrival turned away by admission control. The job is
    /// never submitted; only the rejection counter moves.
    pub fn reject_job(&mut self) {
        self.stats.jobs_rejected += 1;
    }

    /// Submits a job: allocates buffer-table entries, threads dependencies,
    /// and returns the initial dispatch/DMA actions.
    ///
    /// # Panics
    ///
    /// Panics if the job references an unknown cross-job dependency, reuses
    /// a task id, or targets a level with no registered accelerator.
    pub fn submit_job(&mut self, job: Job) -> Vec<GamAction> {
        self.stats.jobs_submitted += 1;
        let mut actions = Vec::new();
        for desc in &job.buffers {
            let mut copies = BTreeSet::new();
            if let Some(level) = desc.resident {
                copies.insert(level);
            }
            self.buffers.insert(
                desc.id,
                BufferEntry {
                    desc: desc.clone(),
                    copies,
                },
            );
        }
        self.jobs_remaining.insert(job.id, job.tasks.len());

        // First pass: create entries so intra-job forward deps resolve.
        for task in &job.tasks {
            assert!(
                self.instances.keys().any(|a| a.level == task.level),
                "Gam: {} targets {} but no accelerator is registered there",
                task.id,
                task.level
            );
            let unmet = task
                .deps
                .iter()
                .filter(|d| {
                    let state = self
                        .tasks
                        .get(d)
                        .map(|e| e.state)
                        .or_else(|| {
                            job.tasks
                                .iter()
                                .any(|t| t.id == **d)
                                .then_some(TaskState::Blocked)
                        })
                        .unwrap_or_else(|| panic!("Gam: {} depends on unknown {d}", task.id));
                    state != TaskState::Done
                })
                .count();
            let prev = self.tasks.insert(
                task.id,
                TaskEntry {
                    task: task.clone(),
                    state: TaskState::Blocked,
                    unmet_deps: unmet,
                    pending_inputs: 0,
                    assigned: None,
                },
            );
            assert!(prev.is_none(), "Gam: duplicate task id {}", task.id);
            for d in &task.deps {
                self.dependents.entry(*d).or_default().push(task.id);
            }
        }

        // Second pass: tasks with no unmet deps start their input transfers.
        for task in &job.tasks {
            if self.tasks[&task.id].unmet_deps == 0 {
                actions.extend(self.stage_inputs(task.id));
            }
        }
        actions.extend(self.try_dispatch());
        actions
    }

    /// Requests DMAs for every input of `task` that is not yet resident at
    /// its level; marks the task Ready if nothing needs to move.
    fn stage_inputs(&mut self, task_id: TaskId) -> Vec<GamAction> {
        let entry = &self.tasks[&task_id];
        let level = entry.task.level;
        let inputs = entry.task.inputs.clone();
        let mut actions = Vec::new();
        let mut pending = 0;
        for buf in inputs {
            let b = self
                .buffers
                .get(&buf)
                .unwrap_or_else(|| panic!("Gam: {task_id} reads unknown {buf}"));
            if b.copies.contains(&level) {
                continue;
            }
            let from = *b.copies.iter().next().unwrap_or_else(|| {
                panic!(
                    "Gam: {task_id} needs {buf} but no valid copy exists (producer not finished?)"
                )
            });
            pending += 1;
            let key = (buf, level);
            let waiters = self.dma_waiters.entry(key).or_default();
            waiters.push(task_id);
            if waiters.len() == 1 {
                // First consumer triggers the transfer; the rest share it.
                let id = DmaId(self.next_dma);
                self.next_dma += 1;
                self.dma_inflight.insert(id, key);
                self.stats.dmas += 1;
                self.stats.dma_bytes += b.desc.bytes;
                actions.push(GamAction::Dma {
                    id,
                    buffer: buf,
                    bytes: b.desc.bytes,
                    from,
                    to: level,
                    dest: task_id,
                });
            }
        }
        let entry = self.tasks.get_mut(&task_id).expect("task exists");
        entry.pending_inputs = pending;
        if pending == 0 {
            entry.state = TaskState::Ready;
            self.queues.entry(level).or_default().insert(task_id);
        }
        actions
    }

    /// Fills every free accelerator from its level queue.
    fn try_dispatch(&mut self) -> Vec<GamAction> {
        let mut actions = Vec::new();
        let free: Vec<AcceleratorId> = self
            .instances
            .iter()
            .filter(|(_, t)| t.is_none())
            .map(|(a, _)| *a)
            .collect();
        for acc in free {
            let Some(queue) = self.queues.get_mut(&acc.level) else {
                continue;
            };
            let Some(task) = queue.pop_first() else {
                continue;
            };
            self.instances.insert(acc, Some(task));
            let entry = self.tasks.get_mut(&task).expect("queued task exists");
            entry.state = TaskState::Running;
            entry.assigned = Some(acc);
            self.stats.dispatches += 1;
            actions.push(GamAction::Dispatch { acc, task });
        }
        actions
    }

    /// The machine reports that `task` started on its accelerator at
    /// `started`; for near-memory / near-storage tasks the GAM schedules the
    /// first status poll at the estimated completion.
    #[must_use]
    pub fn task_started(&mut self, task: TaskId, started: SimTime) -> Vec<GamAction> {
        let entry = &self.tasks[&task];
        assert_eq!(entry.state, TaskState::Running, "Gam: {task} not running");
        let acc = entry.assigned.expect("running task has an accelerator");
        if acc.level == ComputeLevel::OnChip {
            // Coherent: completion arrives as a direct notification.
            return Vec::new();
        }
        self.stats.polls_sent += 1;
        vec![GamAction::Poll {
            acc,
            task,
            at: started + self.config.command_latency + entry.task.est_duration,
        }]
    }

    /// A status poll came back "not finished"; the progress table records the
    /// new wait time and another poll is scheduled.
    #[must_use]
    pub fn poll_missed(
        &mut self,
        task: TaskId,
        now: SimTime,
        remaining: SimDuration,
    ) -> Vec<GamAction> {
        let entry = &self.tasks[&task];
        assert_eq!(
            entry.state,
            TaskState::Running,
            "Gam: polled {task} not running"
        );
        let acc = entry.assigned.expect("running task has an accelerator");
        self.stats.polls_missed += 1;
        self.stats.polls_sent += 1;
        let wait = remaining.max(self.config.min_poll_interval);
        vec![GamAction::Poll {
            acc,
            task,
            at: now + wait + self.config.poll_latency,
        }]
    }

    /// The machine observed `task` complete (directly for on-chip, via a
    /// successful poll otherwise). Outputs become resident, dependents
    /// unblock, the instance frees, and the host is interrupted when the
    /// whole job is done.
    #[must_use]
    pub fn complete(&mut self, task: TaskId) -> Vec<GamAction> {
        let (level, outputs, job, acc) = {
            let entry = self.tasks.get_mut(&task).expect("completing unknown task");
            assert_eq!(entry.state, TaskState::Running, "Gam: {task} not running");
            entry.state = TaskState::Done;
            (
                entry.task.level,
                entry.task.outputs.clone(),
                entry.task.job,
                entry
                    .assigned
                    .take()
                    .expect("running task has an accelerator"),
            )
        };
        self.instances.insert(acc, None);
        for buf in outputs {
            self.buffers
                .get_mut(&buf)
                .expect("output buffer declared")
                .copies
                .insert(level);
        }

        let mut actions = Vec::new();
        for dep in self.dependents.remove(&task).unwrap_or_default() {
            let e = self.tasks.get_mut(&dep).expect("dependent exists");
            e.unmet_deps -= 1;
            if e.unmet_deps == 0 {
                actions.extend(self.stage_inputs(dep));
            }
        }

        let remaining = self.jobs_remaining.get_mut(&job).expect("job tracked");
        *remaining -= 1;
        if *remaining == 0 {
            self.stats.jobs_completed += 1;
            actions.push(GamAction::HostInterrupt { job });
        }
        actions.extend(self.try_dispatch());
        actions
    }

    /// A GAM-initiated DMA finished: the destination copy is valid and any
    /// waiting tasks move toward Ready.
    #[must_use]
    pub fn dma_finished(&mut self, id: DmaId) -> Vec<GamAction> {
        let (buffer, to) = self
            .dma_inflight
            .remove(&id)
            .expect("Gam: unknown DMA completion");
        self.buffers
            .get_mut(&buffer)
            .expect("DMA of known buffer")
            .copies
            .insert(to);
        let waiters = self.dma_waiters.remove(&(buffer, to)).unwrap_or_default();
        let mut actions = Vec::new();
        for task in waiters {
            let e = self.tasks.get_mut(&task).expect("waiter exists");
            e.pending_inputs -= 1;
            if e.pending_inputs == 0 && e.unmet_deps == 0 {
                e.state = TaskState::Ready;
                self.queues.entry(e.task.level).or_default().insert(task);
            }
        }
        actions.extend(self.try_dispatch());
        actions
    }

    /// `true` when no task is queued, staged or running — used by the
    /// machine loop to detect quiescence.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.tasks.values().all(|e| e.state == TaskState::Done)
    }
}

impl std::fmt::Debug for Gam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gam")
            .field("tasks", &self.tasks.len())
            .field("instances", &self.instances.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::JobBuilder;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_ms(n)
    }

    fn gam_with(levels: &[(ComputeLevel, usize)]) -> Gam {
        let mut g = Gam::new(GamConfig::default());
        for &(level, n) in levels {
            for index in 0..n {
                g.register_instance(AcceleratorId { level, index });
            }
        }
        g
    }

    /// A two-stage job: on-chip producer feeding a near-storage consumer.
    fn pipeline_job(id: u64) -> (Job, TaskId, TaskId, BufferId) {
        let mut b = JobBuilder::new(id);
        let feats = b.buffer("features", 6144, None);
        let t1 = b.task(
            "fe",
            "CNN",
            ComputeLevel::OnChip,
            ms(100),
            vec![],
            vec![feats],
            vec![],
        );
        let t2 = b.task(
            "rr",
            "KNN",
            ComputeLevel::NearStorage,
            ms(80),
            vec![feats],
            vec![],
            vec![t1],
        );
        (b.build(), t1, t2, feats)
    }

    #[test]
    fn submit_dispatches_unblocked_tasks_only() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job, t1, t2, _) = pipeline_job(0);
        let actions = g.submit_job(job);
        assert_eq!(
            actions,
            vec![GamAction::Dispatch {
                acc: AcceleratorId {
                    level: ComputeLevel::OnChip,
                    index: 0
                },
                task: t1
            }]
        );
        assert_eq!(g.task_state(t2), Some(TaskState::Blocked));
    }

    #[test]
    fn completion_stages_dependent_inputs_via_dma() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job, t1, t2, feats) = pipeline_job(0);
        g.submit_job(job);
        let actions = g.complete(t1);
        // The features buffer is on-chip; t2 needs it near-storage -> DMA.
        match &actions[0] {
            GamAction::Dma {
                buffer,
                from,
                to,
                bytes,
                ..
            } => {
                assert_eq!(*buffer, feats);
                assert_eq!(*from, ComputeLevel::OnChip);
                assert_eq!(*to, ComputeLevel::NearStorage);
                assert_eq!(*bytes, 6144);
            }
            other => panic!("expected DMA, got {other:?}"),
        }
        assert_eq!(g.task_state(t2), Some(TaskState::Blocked));
        // DMA completion makes t2 dispatchable.
        let id = match &actions[0] {
            GamAction::Dma { id, .. } => *id,
            _ => unreachable!(),
        };
        let actions = g.dma_finished(id);
        assert!(matches!(actions[0], GamAction::Dispatch { task, .. } if task == t2));
    }

    #[test]
    fn job_completion_interrupts_host() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job, t1, t2, _) = pipeline_job(0);
        let jid = job.id;
        g.submit_job(job);
        let a1 = g.complete(t1);
        let dma = a1
            .iter()
            .find_map(|a| match a {
                GamAction::Dma { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let _ = g.dma_finished(dma);
        let a2 = g.complete(t2);
        assert!(a2.contains(&GamAction::HostInterrupt { job: jid }));
        assert!(g.idle());
        assert_eq!(g.stats().jobs_completed, 1);
    }

    #[test]
    fn offchip_tasks_get_polled_onchip_do_not() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job, t1, t2, _) = pipeline_job(0);
        g.submit_job(job);
        assert!(g.task_started(t1, SimTime::ZERO).is_empty());
        let a = g.complete(t1);
        let dma = a
            .iter()
            .find_map(|x| match x {
                GamAction::Dma { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let _ = g.dma_finished(dma);
        let started = SimTime::from_ps(1_000);
        let polls = g.task_started(t2, started);
        match polls.as_slice() {
            [GamAction::Poll { task, at, .. }] => {
                assert_eq!(*task, t2);
                // est 80 ms + command latency.
                assert!(*at >= started + ms(80));
            }
            other => panic!("expected poll, got {other:?}"),
        }
    }

    #[test]
    fn missed_poll_reschedules_with_new_wait() {
        let mut g = gam_with(&[(ComputeLevel::NearMemory, 1)]);
        let mut b = JobBuilder::new(0);
        let t = b.task(
            "s",
            "K",
            ComputeLevel::NearMemory,
            ms(10),
            vec![],
            vec![],
            vec![],
        );
        g.submit_job(b.build());
        let _ = g.task_started(t, SimTime::ZERO);
        let now = SimTime::ZERO + ms(10);
        let again = g.poll_missed(t, now, ms(3));
        match again.as_slice() {
            [GamAction::Poll { at, .. }] => assert!(*at >= now + ms(3)),
            other => panic!("expected poll, got {other:?}"),
        }
        assert_eq!(g.stats().polls_missed, 1);
        assert_eq!(g.stats().polls_sent, 2);
    }

    #[test]
    fn cross_job_pipelining_dispatches_next_job_early() {
        // Two identical jobs; the second's on-chip task must dispatch as
        // soon as the on-chip accelerator frees, not when job 0 finishes.
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job0, t1a, _t2a, _) = pipeline_job(0);
        let (job1, t1b, _t2b, _) = pipeline_job(1);
        g.submit_job(job0);
        let a = g.submit_job(job1);
        // Job 1's CNN waits: the single on-chip instance is busy.
        assert!(a.is_empty());
        let actions = g.complete(t1a);
        // Completing job 0's CNN both stages job 0's DMA and dispatches job
        // 1's CNN on the freed instance.
        assert!(actions
            .iter()
            .any(|x| matches!(x, GamAction::Dispatch { task, .. } if *task == t1b)));
        assert_eq!(g.stats().dispatches, 2);
    }

    #[test]
    fn broadcast_buffer_shares_one_dma_per_level() {
        // One producer, two near-storage consumers of the same buffer:
        // only one DMA to the near-storage level must be issued.
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 2)]);
        let mut b = JobBuilder::new(0);
        let feats = b.buffer("features", 4096, None);
        let t1 = b.task(
            "fe",
            "CNN",
            ComputeLevel::OnChip,
            ms(1),
            vec![],
            vec![feats],
            vec![],
        );
        let _k0 = b.task(
            "rr",
            "KNN",
            ComputeLevel::NearStorage,
            ms(1),
            vec![feats],
            vec![],
            vec![t1],
        );
        let _k1 = b.task(
            "rr",
            "KNN",
            ComputeLevel::NearStorage,
            ms(1),
            vec![feats],
            vec![],
            vec![t1],
        );
        g.submit_job(b.build());
        let actions = g.complete(t1);
        let dmas = actions
            .iter()
            .filter(|a| matches!(a, GamAction::Dma { .. }))
            .count();
        assert_eq!(dmas, 1, "broadcast must share the transfer");
        // Both consumers dispatch once the single DMA lands.
        let id = actions
            .iter()
            .find_map(|a| match a {
                GamAction::Dma { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let after = g.dma_finished(id);
        let dispatches = after
            .iter()
            .filter(|a| matches!(a, GamAction::Dispatch { .. }))
            .count();
        assert_eq!(dispatches, 2);
    }

    #[test]
    fn parallel_instances_drain_one_queue() {
        let mut g = gam_with(&[(ComputeLevel::NearMemory, 4)]);
        let mut b = JobBuilder::new(0);
        for _ in 0..6 {
            b.task(
                "s",
                "G",
                ComputeLevel::NearMemory,
                ms(1),
                vec![],
                vec![],
                vec![],
            );
        }
        let job = b.build();
        let ids: Vec<TaskId> = job.tasks.iter().map(|t| t.id).collect();
        let actions = g.submit_job(job);
        let dispatched = actions
            .iter()
            .filter(|a| matches!(a, GamAction::Dispatch { .. }))
            .count();
        assert_eq!(dispatched, 4, "all four instances fill");
        // Completing one task pulls in the fifth.
        let next = g.complete(ids[0]);
        assert!(next
            .iter()
            .any(|a| matches!(a, GamAction::Dispatch { task, .. } if *task == ids[4])));
    }

    #[test]
    #[should_panic(expected = "no accelerator is registered")]
    fn submit_to_unregistered_level_rejected() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1)]);
        let mut b = JobBuilder::new(0);
        b.task(
            "s",
            "K",
            ComputeLevel::NearStorage,
            ms(1),
            vec![],
            vec![],
            vec![],
        );
        g.submit_job(b.build());
    }

    #[test]
    fn prestaged_inputs_skip_dma() {
        let mut g = gam_with(&[(ComputeLevel::NearStorage, 1)]);
        let mut b = JobBuilder::new(0);
        let db = b.buffer("db", 1 << 20, Some(ComputeLevel::NearStorage));
        let t = b.task(
            "rr",
            "KNN",
            ComputeLevel::NearStorage,
            ms(1),
            vec![db],
            vec![],
            vec![],
        );
        let actions = g.submit_job(b.build());
        assert!(matches!(
            actions.as_slice(),
            [GamAction::Dispatch { task, .. }] if *task == t
        ));
        assert_eq!(g.stats().dmas, 0);
    }
}
