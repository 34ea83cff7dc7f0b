//! The GAM state machine: one table of job slots, per-level ready queues
//! and free-instance sets, and the in-flight DMA window.
//!
//! # Tables
//!
//! * **Job slots.** Every job in flight owns one slot, found from its
//!   [`JobId`] by a single map lookup. Task and buffer ids are
//!   `job << 20 | index`, so inside the slot a task's row and a buffer's
//!   row are plain `Vec` entries at `index`. A task row holds the
//!   [`TaskState`], the unmet-dependency and pending-input counts, the
//!   assigned accelerator and the driver's payload `P` (the machine keeps
//!   its pricing inputs there). A buffer row holds the levels with a valid
//!   copy as a bitmask and the DMA in flight to each level. Dependents are
//!   reverse edges, in task-index order, packed into one `Vec` per slot.
//!   The task graph itself is an `Arc<Job>` shared by every job of the same
//!   shape, so a driver that submits one shape many times builds it once.
//!   A slot is freed, and its `Vec`s kept for the next job, when its job
//!   raises its host interrupt.
//! * **Ready queues**, one per level, ordered by [`TaskId`]: FIFO by job,
//!   then by position in the job.
//! * **Free instances**, one set per level, walked in [`AcceleratorId`]
//!   order, so dispatch fills the lowest free index first.
//! * **DMAs in flight**, a window indexed by [`DmaId`]; each entry names its
//!   slot, buffer and destination level and the tasks waiting on it.
//!
//! Every task state change goes through one `transition`, which checks
//! (in debug builds) that the task moves Blocked → Ready → Running → Done
//! and never skips or repeats a step.

use crate::task::{
    index_of, job_fits, job_of, BufferId, Job, JobId, TaskId, TaskState, JOB_ID_SHIFT,
};
use reach_accel::{AcceleratorId, ComputeLevel};
use reach_sim::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

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
        /// Transfer id, echoed back via [`Gam::dma_finished_into`].
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

/// A task's row in its job slot: the dynamic half of the task table (the
/// static half is the shared [`Job`]).
struct TaskRow {
    state: TaskState,
    unmet_deps: u32,
    pending_inputs: u32,
    assigned: Option<AcceleratorId>,
}

impl TaskRow {
    /// The one place a task changes state. Drivers' protocol errors are
    /// caught by the public entry points; this checks the GAM's own
    /// bookkeeping: each task moves Blocked → Ready → Running → Done, one
    /// step at a time.
    fn transition(&mut self, task: TaskId, from: TaskState, to: TaskState) {
        debug_assert_eq!(
            self.state, from,
            "Gam: {task} is {:?}, not {from:?}",
            self.state
        );
        debug_assert!(
            matches!(
                (from, to),
                (TaskState::Blocked, TaskState::Ready)
                    | (TaskState::Ready, TaskState::Running)
                    | (TaskState::Running, TaskState::Done)
            ),
            "Gam: {task} cannot move {from:?} -> {to:?}"
        );
        self.state = to;
    }
}

/// A buffer's row in its job slot.
#[derive(Clone, Copy)]
struct BufferRow {
    /// Levels holding a valid copy, one bit per [`ComputeLevel`] in
    /// hierarchy order.
    copies: u8,
    /// The transfer in flight to each level, if any.
    inflight: [Option<DmaId>; 3],
}

fn level_bit(level: ComputeLevel) -> u8 {
    1 << level as u8
}

/// One job in flight.
struct JobSlot<P> {
    job: JobId,
    /// The task graph, shared by every job of its shape. Ids inside it are
    /// under its own job id; only their indices are read. `None` while the
    /// slot is free.
    graph: Option<Arc<Job>>,
    /// Tasks not yet done.
    remaining: usize,
    tasks: Vec<TaskRow>,
    buffers: Vec<BufferRow>,
    /// Reverse dependency edges: the dependents of task `i` are
    /// `dependents[first_dependent[i]..first_dependent[i + 1]]`.
    first_dependent: Vec<u32>,
    dependents: Vec<u32>,
    payload: Vec<P>,
}

impl<P> JobSlot<P> {
    fn graph(&self) -> &Job {
        self.graph.as_deref().expect("occupied slot has a graph")
    }

    fn task_id(&self, index: usize) -> TaskId {
        TaskId(self.job.0 << JOB_ID_SHIFT | index as u64)
    }
}

/// A DMA in flight.
struct DmaRow {
    slot: u32,
    buffer: u32,
    to: ComputeLevel,
    /// Indices of the tasks waiting on the transfer, in request order.
    waiters: Vec<u32>,
}

/// One level's dispatch state.
#[derive(Default)]
struct LevelQueue {
    /// Ready tasks with their slots, lowest [`TaskId`] first.
    ready: BinaryHeap<Reverse<(TaskId, u32)>>,
    /// Free instance indices, lowest first.
    free: BTreeSet<usize>,
    /// Registered instances.
    instances: usize,
}

/// Hashes a job id with one multiply: ids are already well spread integers.
#[derive(Default)]
struct JobIdHasher(u64);

impl Hasher for JobIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a JobId hashes as one u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The Global Accelerator Manager.
///
/// Drive it with notifications; execute the [`GamAction`]s it pushes into
/// the caller's buffer. `P` is a per-task payload the driver stores in the
/// task's row (the machine keeps its pricing inputs there); the plain
/// `Gam` carries `()`. See the crate docs for the protocol and
/// `reach::Machine` for the production driver. The state machine is
/// deterministic: same notification sequence, same actions.
///
/// # Example
///
/// ```
/// use reach_gam::{Gam, GamConfig, GamAction, JobBuilder};
/// use reach_accel::{AcceleratorId, ComputeLevel};
/// use reach_sim::SimDuration;
/// use std::sync::Arc;
///
/// let mut gam: Gam = Gam::new(GamConfig::default());
/// gam.register_instance(AcceleratorId { level: ComputeLevel::OnChip, index: 0 });
/// let mut job = JobBuilder::new(0);
/// let t = job.task("w", "K", ComputeLevel::OnChip, SimDuration::from_ms(1),
///                  vec![], vec![], vec![]);
/// let job = job.build();
/// let mut actions = Vec::new();
/// gam.submit_into(job.id, Arc::new(job), [()], &mut actions);
/// assert!(matches!(actions[0], GamAction::Dispatch { task, .. } if task == t));
/// actions.clear();
/// gam.complete_into(t, &mut actions);
/// assert!(matches!(actions[0], GamAction::HostInterrupt { .. }));
/// assert!(gam.idle());
/// ```
pub struct Gam<P = ()> {
    config: GamConfig,
    slots: Vec<JobSlot<P>>,
    free_slots: Vec<u32>,
    slot_of: HashMap<JobId, u32, BuildHasherDefault<JobIdHasher>>,
    levels: [LevelQueue; 3],
    registered: BTreeSet<AcceleratorId>,
    /// DMAs from id `dma_base` on, in id order; finished ones are `None`
    /// until the window's front passes them.
    dmas: VecDeque<Option<DmaRow>>,
    dma_base: u64,
    stats: GamStats,
}

impl<P> Gam<P> {
    /// Creates a GAM with no registered accelerators whose task rows carry
    /// a `P` each.
    #[must_use]
    pub fn new(config: GamConfig) -> Self {
        Gam {
            config,
            slots: Vec::new(),
            free_slots: Vec::new(),
            slot_of: HashMap::default(),
            levels: Default::default(),
            registered: BTreeSet::new(),
            dmas: VecDeque::new(),
            dma_base: 0,
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
        assert!(
            self.registered.insert(acc),
            "Gam: accelerator {acc} registered twice"
        );
        let level = &mut self.levels[acc.level as usize];
        level.instances += 1;
        level.free.insert(acc.index);
    }

    /// Current state of a task, or `None` once its job has completed (or
    /// if it was never submitted).
    #[must_use]
    pub fn task_state(&self, task: TaskId) -> Option<TaskState> {
        let slot = self.slot_of.get(&task.job())?;
        let rows = &self.slots[*slot as usize].tasks;
        rows.get(index_of(task.0)).map(|r| r.state)
    }

    /// The payload stored with `task` at submission.
    ///
    /// # Panics
    ///
    /// Panics if `task` belongs to no job in flight.
    #[must_use]
    pub fn payload(&self, task: TaskId) -> &P {
        let (slot, index) = self.locate(task);
        &self.slots[slot].payload[index]
    }

    /// Mutable access to `task`'s payload.
    ///
    /// # Panics
    ///
    /// Panics if `task` belongs to no job in flight.
    pub fn payload_mut(&mut self, task: TaskId) -> &mut P {
        let (slot, index) = self.locate(task);
        &mut self.slots[slot].payload[index]
    }

    /// Tasks ready at `level` but waiting for a free instance — the
    /// dispatch backlog a telemetry gauge samples.
    #[must_use]
    pub fn queue_depth(&self, level: ComputeLevel) -> usize {
        self.levels[level as usize].ready.len()
    }

    /// Jobs submitted but not yet completed — the backlog an admission
    /// queue bounds.
    #[must_use]
    pub fn jobs_in_flight(&self) -> usize {
        (self.stats.jobs_submitted - self.stats.jobs_completed) as usize
    }

    /// Job slots holding a job in flight (a job with no tasks takes none).
    #[must_use]
    pub fn slots_held(&self) -> usize {
        self.slot_of.len()
    }

    /// Job slots allocated so far, held or free: the high-water mark of
    /// jobs in flight at once.
    #[must_use]
    pub fn slots_allocated(&self) -> usize {
        self.slots.len()
    }

    /// Records a job arrival turned away by admission control. The job is
    /// never submitted; only the rejection counter moves.
    pub fn reject_job(&mut self) {
        self.stats.jobs_rejected += 1;
    }

    /// The slot and row index of `task`.
    fn locate(&self, task: TaskId) -> (usize, usize) {
        let slot = *self
            .slot_of
            .get(&task.job())
            .unwrap_or_else(|| panic!("Gam: {task} belongs to no job in flight"));
        let index = index_of(task.0);
        assert!(
            index < self.slots[slot as usize].tasks.len(),
            "Gam: {task} is not a task of its job"
        );
        (slot as usize, index)
    }

    /// Submits job `id` with task graph `graph` and one payload per task:
    /// takes a job slot, threads dependencies, and pushes the initial
    /// dispatch/DMA actions. `graph` may be shared by any number of jobs;
    /// its own ids only locate tasks and buffers within it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the 2^44 job id space or already in
    /// flight, if a task depends on a task or reads a buffer outside
    /// `graph`, if a task targets a level with no registered accelerator,
    /// or if `payload` does not yield one item per task.
    pub fn submit_into(
        &mut self,
        id: JobId,
        graph: Arc<Job>,
        payload: impl IntoIterator<Item = P>,
        actions: &mut Vec<GamAction>,
    ) {
        assert!(job_fits(id.0), "Gam: {id} is outside the 2^44 job id space");
        self.stats.jobs_submitted += 1;
        let n = graph.tasks.len();
        if n == 0 {
            // Nothing to track: no slot, and (as ever) no interrupt.
            return;
        }
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slots.push(JobSlot {
                    job: id,
                    graph: None,
                    remaining: 0,
                    tasks: Vec::new(),
                    buffers: Vec::new(),
                    first_dependent: Vec::new(),
                    dependents: Vec::new(),
                    payload: Vec::new(),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let prev = self.slot_of.insert(id, slot);
        assert!(prev.is_none(), "Gam: {id} is already in flight");

        let s = &mut self.slots[slot as usize];
        s.job = id;
        s.remaining = n;
        s.payload.extend(payload);
        assert_eq!(s.payload.len(), n, "Gam: {id} needs one payload per task");
        s.buffers.extend(graph.buffers.iter().map(|b| BufferRow {
            copies: b.resident.map_or(0, level_bit),
            inflight: [None; 3],
        }));
        // Reverse edges: count each task's dependents, turn the counts into
        // range ends, then fill backwards so each range ends up in
        // ascending task order and `first_dependent[i]` at its start.
        let local = graph.id.0;
        s.first_dependent.resize(n + 1, 0);
        for (i, task) in graph.tasks.iter().enumerate() {
            assert!(
                self.levels[task.level as usize].instances > 0,
                "Gam: {} targets {} but no accelerator is registered there",
                s.task_id(i),
                task.level
            );
            for b in task.inputs.iter().chain(&task.outputs) {
                assert!(
                    job_of(b.0) == local && index_of(b.0) < s.buffers.len(),
                    "Gam: {} references unknown {b}",
                    s.task_id(i)
                );
            }
            for d in &task.deps {
                assert!(
                    job_of(d.0) == local && index_of(d.0) < n,
                    "Gam: {} depends on unknown {d}",
                    s.task_id(i)
                );
                s.first_dependent[index_of(d.0)] += 1;
            }
            s.tasks.push(TaskRow {
                state: TaskState::Blocked,
                unmet_deps: task.deps.len() as u32,
                pending_inputs: 0,
                assigned: None,
            });
        }
        for i in 1..=n {
            s.first_dependent[i] += s.first_dependent[i - 1];
        }
        s.dependents.resize(s.first_dependent[n] as usize, 0);
        for (i, task) in graph.tasks.iter().enumerate().rev() {
            for d in task.deps.iter().rev() {
                let at = &mut s.first_dependent[index_of(d.0)];
                *at -= 1;
                s.dependents[*at as usize] = i as u32;
            }
        }
        s.graph = Some(graph);

        // Tasks with no unmet deps start their input transfers.
        for i in 0..n {
            if self.slots[slot as usize].tasks[i].unmet_deps == 0 {
                self.stage_inputs(slot, i, actions);
            }
        }
        self.try_dispatch(actions);
    }

    /// Requests DMAs for every input of task `index` of `slot` that is not
    /// yet resident at its level; marks the task Ready if nothing needs to
    /// move.
    fn stage_inputs(&mut self, slot: u32, index: usize, actions: &mut Vec<GamAction>) {
        let s = &mut self.slots[slot as usize];
        let graph = s.graph.as_deref().expect("occupied slot has a graph");
        let task_id = s.task_id(index);
        let task = &graph.tasks[index];
        let level = task.level;
        let mut pending = 0;
        for buf in &task.inputs {
            let b = index_of(buf.0);
            let row = &mut s.buffers[b];
            if row.copies & level_bit(level) != 0 {
                continue;
            }
            assert!(
                row.copies != 0,
                "Gam: {task_id} needs {buf} but no valid copy exists (producer not finished?)"
            );
            pending += 1;
            if let Some(DmaId(id)) = row.inflight[level as usize] {
                // A transfer to this level is already under way; share it.
                let dma = self.dmas[(id - self.dma_base) as usize]
                    .as_mut()
                    .expect("in-flight DMA has a row");
                dma.waiters.push(index as u32);
                continue;
            }
            let from = ComputeLevel::ALL[row.copies.trailing_zeros() as usize];
            let id = DmaId(self.dma_base + self.dmas.len() as u64);
            row.inflight[level as usize] = Some(id);
            let bytes = graph.buffers[b].bytes;
            self.dmas.push_back(Some(DmaRow {
                slot,
                buffer: b as u32,
                to: level,
                waiters: vec![index as u32],
            }));
            self.stats.dmas += 1;
            self.stats.dma_bytes += bytes;
            actions.push(GamAction::Dma {
                id,
                buffer: BufferId(s.job.0 << JOB_ID_SHIFT | b as u64),
                bytes,
                from,
                to: level,
                dest: task_id,
            });
        }
        let row = &mut s.tasks[index];
        row.pending_inputs = pending;
        if pending == 0 {
            row.transition(task_id, TaskState::Blocked, TaskState::Ready);
            self.levels[level as usize]
                .ready
                .push(Reverse((task_id, slot)));
        }
    }

    /// Fills every free accelerator from its level's ready queue, levels
    /// in hierarchy order and instances lowest index first.
    fn try_dispatch(&mut self, actions: &mut Vec<GamAction>) {
        for level in ComputeLevel::ALL {
            let q = &mut self.levels[level as usize];
            while !q.ready.is_empty() {
                let Some(index) = q.free.pop_first() else {
                    break;
                };
                let Reverse((task, slot)) = q.ready.pop().expect("non-empty ready queue");
                let acc = AcceleratorId { level, index };
                let row = &mut self.slots[slot as usize].tasks[index_of(task.0)];
                row.transition(task, TaskState::Ready, TaskState::Running);
                row.assigned = Some(acc);
                self.stats.dispatches += 1;
                actions.push(GamAction::Dispatch { acc, task });
            }
        }
    }

    /// The running row of `task`, with its slot and index.
    fn running(&self, task: TaskId, what: &str) -> (usize, usize, AcceleratorId) {
        let (slot, index) = self.locate(task);
        let row = &self.slots[slot].tasks[index];
        assert_eq!(
            row.state,
            TaskState::Running,
            "Gam: {what} {task} not running"
        );
        (
            slot,
            index,
            row.assigned.expect("running task has an accelerator"),
        )
    }

    /// The machine reports that `task` started on its accelerator at
    /// `started`; for near-memory / near-storage tasks the GAM schedules the
    /// first status poll at the estimated completion.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not running.
    pub fn task_started_into(
        &mut self,
        task: TaskId,
        started: SimTime,
        actions: &mut Vec<GamAction>,
    ) {
        let (slot, index, acc) = self.running(task, "started");
        if acc.level == ComputeLevel::OnChip {
            // Coherent: completion arrives as a direct notification.
            return;
        }
        self.stats.polls_sent += 1;
        let est = self.slots[slot].graph().tasks[index].est_duration;
        actions.push(GamAction::Poll {
            acc,
            task,
            at: started + self.config.command_latency + est,
        });
    }

    /// A status poll came back "not finished"; the progress table records the
    /// new wait time and another poll is scheduled.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not running.
    pub fn poll_missed_into(
        &mut self,
        task: TaskId,
        now: SimTime,
        remaining: SimDuration,
        actions: &mut Vec<GamAction>,
    ) {
        let (_, _, acc) = self.running(task, "polled");
        self.stats.polls_missed += 1;
        self.stats.polls_sent += 1;
        let wait = remaining.max(self.config.min_poll_interval);
        actions.push(GamAction::Poll {
            acc,
            task,
            at: now + wait + self.config.poll_latency,
        });
    }

    /// The machine observed `task` complete (directly for on-chip, via a
    /// successful poll otherwise). Outputs become resident, dependents
    /// unblock, the instance frees, and the host is interrupted — and the
    /// job's slot freed — when the whole job is done.
    ///
    /// # Panics
    ///
    /// Panics if `task` is not running, or its job is not in flight.
    pub fn complete_into(&mut self, task: TaskId, actions: &mut Vec<GamAction>) {
        let (slot, index, acc) = self.running(task, "completed");
        let s = &mut self.slots[slot];
        let row = &mut s.tasks[index];
        row.transition(task, TaskState::Running, TaskState::Done);
        row.assigned = None;
        self.levels[acc.level as usize].free.insert(acc.index);
        let graph = s.graph.as_deref().expect("occupied slot has a graph");
        for buf in &graph.tasks[index].outputs {
            s.buffers[index_of(buf.0)].copies |= level_bit(acc.level);
        }

        let (lo, hi) = (s.first_dependent[index], s.first_dependent[index + 1]);
        for e in lo..hi {
            let s = &mut self.slots[slot];
            let dep = s.dependents[e as usize] as usize;
            let row = &mut s.tasks[dep];
            row.unmet_deps -= 1;
            if row.unmet_deps == 0 {
                self.stage_inputs(slot as u32, dep, actions);
            }
        }

        let s = &mut self.slots[slot];
        s.remaining -= 1;
        if s.remaining == 0 {
            let job = s.job;
            self.stats.jobs_completed += 1;
            actions.push(GamAction::HostInterrupt { job });
            self.free_slot(slot, job);
        }
        self.try_dispatch(actions);
    }

    /// Returns a finished job's slot to the free list, keeping its `Vec`s.
    fn free_slot(&mut self, slot: usize, job: JobId) {
        self.slot_of.remove(&job);
        let s = &mut self.slots[slot];
        s.graph = None;
        s.tasks.clear();
        s.buffers.clear();
        s.first_dependent.clear();
        s.dependents.clear();
        s.payload.clear();
        self.free_slots.push(slot as u32);
    }

    /// A GAM-initiated DMA finished: the destination copy is valid and any
    /// waiting tasks move toward Ready.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a DMA in flight.
    pub fn dma_finished_into(&mut self, id: DmaId, actions: &mut Vec<GamAction>) {
        let DmaRow {
            slot,
            buffer,
            to,
            waiters,
        } =
            id.0.checked_sub(self.dma_base)
                .and_then(|i| self.dmas.get_mut(i as usize))
                .and_then(Option::take)
                .expect("Gam: unknown DMA completion");
        while matches!(self.dmas.front(), Some(None)) {
            self.dmas.pop_front();
            self.dma_base += 1;
        }
        let s = &mut self.slots[slot as usize];
        let row = &mut s.buffers[buffer as usize];
        row.copies |= level_bit(to);
        row.inflight[to as usize] = None;
        for &w in &waiters {
            let task = s.task_id(w as usize);
            let row = &mut s.tasks[w as usize];
            row.pending_inputs -= 1;
            if row.pending_inputs == 0 && row.unmet_deps == 0 {
                row.transition(task, TaskState::Blocked, TaskState::Ready);
                self.levels[to as usize].ready.push(Reverse((task, slot)));
            }
        }
        self.try_dispatch(actions);
    }

    /// `true` when no task is queued, staged or running — used by the
    /// machine loop to detect quiescence.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.slot_of.is_empty()
    }
}

impl<P> std::fmt::Debug for Gam<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gam")
            .field("slots_held", &self.slot_of.len())
            .field("instances", &self.registered.len())
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

    /// The actions one `*_into` call pushes.
    fn step(call: impl FnOnce(&mut Vec<GamAction>)) -> Vec<GamAction> {
        let mut actions = Vec::new();
        call(&mut actions);
        actions
    }

    /// Submits `job` with a `()` payload per task; returns its actions.
    fn submit(g: &mut Gam, job: Job) -> Vec<GamAction> {
        let (id, n) = (job.id, job.tasks.len());
        step(|a| g.submit_into(id, Arc::new(job), vec![(); n], a))
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
        let actions = submit(&mut g, job);
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
        submit(&mut g, job);
        let actions = step(|a| g.complete_into(t1, a));
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
        let actions = step(|a| g.dma_finished_into(id, a));
        assert!(matches!(actions[0], GamAction::Dispatch { task, .. } if task == t2));
    }

    #[test]
    fn job_completion_interrupts_host() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job, t1, t2, _) = pipeline_job(0);
        let jid = job.id;
        submit(&mut g, job);
        let a1 = step(|a| g.complete_into(t1, a));
        let dma = a1
            .iter()
            .find_map(|a| match a {
                GamAction::Dma { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let _ = step(|a| g.dma_finished_into(dma, a));
        let a2 = step(|a| g.complete_into(t2, a));
        assert!(a2.contains(&GamAction::HostInterrupt { job: jid }));
        assert!(g.idle());
        assert_eq!(g.stats().jobs_completed, 1);
    }

    #[test]
    fn offchip_tasks_get_polled_onchip_do_not() {
        let mut g = gam_with(&[(ComputeLevel::OnChip, 1), (ComputeLevel::NearStorage, 1)]);
        let (job, t1, t2, _) = pipeline_job(0);
        submit(&mut g, job);
        assert!(step(|a| g.task_started_into(t1, SimTime::ZERO, a)).is_empty());
        let a = step(|a| g.complete_into(t1, a));
        let dma = a
            .iter()
            .find_map(|x| match x {
                GamAction::Dma { id, .. } => Some(*id),
                _ => None,
            })
            .unwrap();
        let _ = step(|a| g.dma_finished_into(dma, a));
        let started = SimTime::from_ps(1_000);
        let polls = step(|a| g.task_started_into(t2, started, a));
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
        submit(&mut g, b.build());
        let _ = step(|a| g.task_started_into(t, SimTime::ZERO, a));
        let now = SimTime::ZERO + ms(10);
        let again = step(|a| g.poll_missed_into(t, now, ms(3), a));
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
        submit(&mut g, job0);
        let a = submit(&mut g, job1);
        // Job 1's CNN waits: the single on-chip instance is busy.
        assert!(a.is_empty());
        let actions = step(|a| g.complete_into(t1a, a));
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
        submit(&mut g, b.build());
        let actions = step(|a| g.complete_into(t1, a));
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
        let after = step(|a| g.dma_finished_into(id, a));
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
        let actions = submit(&mut g, job);
        let dispatched = actions
            .iter()
            .filter(|a| matches!(a, GamAction::Dispatch { .. }))
            .count();
        assert_eq!(dispatched, 4, "all four instances fill");
        // Completing one task pulls in the fifth.
        let next = step(|a| g.complete_into(ids[0], a));
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
        submit(&mut g, b.build());
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
        let actions = submit(&mut g, b.build());
        assert!(matches!(
            actions.as_slice(),
            [GamAction::Dispatch { task, .. }] if *task == t
        ));
        assert_eq!(g.stats().dmas, 0);
    }
}
