//! Jobs, tasks and buffers — the units the GAM schedules.

use reach_accel::ComputeLevel;
use reach_sim::{SimDuration, Symbol};
use std::fmt;

/// Identifies a job (one host-side `execute` group).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// Identifies a task within the GAM (globally unique, not per-job).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// Identifies a buffer in the GAM buffer table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufferId(pub u64);

impl TaskId {
    /// The job this task belongs to.
    #[must_use]
    pub fn job(self) -> JobId {
        JobId(job_of(self.0))
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}
impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}
impl fmt::Display for BufferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "buf{}", self.0)
    }
}

/// A buffer-table entry: where a region of data currently lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BufferDesc {
    /// Identifier.
    pub id: BufferId,
    /// Human-readable name for reports.
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Which level's memory currently holds the valid copy (`None` while the
    /// producing task has not finished).
    pub resident: Option<ComputeLevel>,
}

/// Life-cycle of a task inside the GAM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting on dependencies or input transfers.
    Blocked,
    /// All inputs ready; sitting in its level's dispatch queue.
    Ready,
    /// Running on an accelerator.
    Running,
    /// Finished; outputs valid.
    Done,
}

/// One schedulable unit of work.
#[derive(Clone, Debug)]
pub struct Task {
    /// Identifier (assigned by [`JobBuilder`]).
    pub id: TaskId,
    /// The job this task belongs to (its *task group* in paper terms).
    pub job: JobId,
    /// Stage label for reports (e.g. `"short-list"`), interned so the
    /// per-event accounting path never clones or hashes strings.
    pub stage: Symbol,
    /// Accelerator template this task needs, e.g. `"GEMM-ZCU9"`, interned.
    pub template: Symbol,
    /// Level the task is mapped to.
    pub level: ComputeLevel,
    /// Estimated execution time, from the kernel synthesis report — what
    /// the progress table uses to time status polls.
    pub est_duration: SimDuration,
    /// Input buffers that must be resident at `level` before dispatch.
    pub inputs: Vec<BufferId>,
    /// Buffers this task produces.
    pub outputs: Vec<BufferId>,
    /// Tasks (possibly in earlier jobs) that must finish first.
    pub deps: Vec<TaskId>,
}

/// A job: a group of tasks submitted together.
#[derive(Clone, Debug)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Tasks, in submission order.
    pub tasks: Vec<Task>,
    /// Buffers referenced by the tasks (new entries for the buffer table).
    pub buffers: Vec<BufferDesc>,
}

/// Task and buffer ids are `job << JOB_ID_SHIFT | index`: a job holds at
/// most `1 << JOB_ID_SHIFT` tasks and as many buffers, and job ids stay
/// below `1 << (64 - JOB_ID_SHIFT)`, so ids of different jobs never collide.
pub(crate) const JOB_ID_SHIFT: u32 = 20;

/// The job an id of this layout belongs to.
pub(crate) fn job_of(id: u64) -> u64 {
    id >> JOB_ID_SHIFT
}

/// The index of a task or buffer within its job.
pub(crate) fn index_of(id: u64) -> usize {
    (id & ((1 << JOB_ID_SHIFT) - 1)) as usize
}

/// Whether `job` fits the job id space.
pub(crate) fn job_fits(job: u64) -> bool {
    job < 1 << (64 - JOB_ID_SHIFT)
}

/// Builds a [`Job`] with correctly threaded identifiers.
///
/// # Example
///
/// ```
/// use reach_gam::JobBuilder;
/// use reach_accel::ComputeLevel;
/// use reach_sim::SimDuration;
///
/// let mut b = JobBuilder::new(0);
/// let feats = b.buffer("features", 6144, None);
/// let cnn = b.task("feature-extraction", "VGG16-VU9P", ComputeLevel::OnChip,
///                  SimDuration::from_ms(100), vec![], vec![feats], vec![]);
/// let _knn = b.task("rerank", "KNN-ZCU9", ComputeLevel::NearStorage,
///                   SimDuration::from_ms(80), vec![feats], vec![], vec![cnn]);
/// let job = b.build();
/// assert_eq!(job.tasks.len(), 2);
/// ```
#[derive(Debug)]
pub struct JobBuilder {
    job: JobId,
    tasks: Vec<Task>,
    buffers: Vec<BufferDesc>,
    /// Index within the job of the next task.
    next_task: u64,
    /// Index within the job of the next buffer.
    next_buffer: u64,
}

impl JobBuilder {
    /// Starts a job with the given id; task and buffer ids are namespaced
    /// under it so ids from different jobs never collide.
    ///
    /// # Panics
    ///
    /// Panics if `job` is `2^44` or more: its ids would alias a lower job's.
    #[must_use]
    pub fn new(job: u64) -> Self {
        assert!(
            job_fits(job),
            "JobBuilder::new: job {job} is outside the 2^44 job id space"
        );
        JobBuilder {
            job: JobId(job),
            tasks: Vec::new(),
            buffers: Vec::new(),
            next_task: 0,
            next_buffer: 0,
        }
    }

    /// The id of the `index`-th task or buffer of this job.
    fn id(&self, index: u64, what: &str) -> u64 {
        assert!(
            index < 1 << JOB_ID_SHIFT,
            "JobBuilder: {} already holds 2^20 {what}s, the most its id space fits",
            self.job
        );
        self.job.0 << JOB_ID_SHIFT | index
    }

    /// Declares a buffer. `resident` says which level already holds valid
    /// data (`None` for outputs yet to be produced).
    pub fn buffer(&mut self, name: &str, bytes: u64, resident: Option<ComputeLevel>) -> BufferId {
        let id = BufferId(self.id(self.next_buffer, "buffer"));
        self.next_buffer += 1;
        self.buffers.push(BufferDesc {
            id,
            name: name.to_string(),
            bytes,
            resident,
        });
        id
    }

    /// Declares a task and returns its id for dependency wiring.
    #[allow(clippy::too_many_arguments)]
    pub fn task(
        &mut self,
        stage: &str,
        template: &str,
        level: ComputeLevel,
        est_duration: SimDuration,
        inputs: Vec<BufferId>,
        outputs: Vec<BufferId>,
        deps: Vec<TaskId>,
    ) -> TaskId {
        let id = TaskId(self.id(self.next_task, "task"));
        self.next_task += 1;
        self.tasks.push(Task {
            id,
            job: self.job,
            stage: Symbol::intern(stage),
            template: Symbol::intern(template),
            level,
            est_duration,
            inputs,
            outputs,
            deps,
        });
        id
    }

    /// Finalizes the job.
    ///
    /// # Panics
    ///
    /// Panics if a task references an undeclared buffer or dependency, or if
    /// the dependency graph has a forward reference to a later task in the
    /// same job that would deadlock dispatch (self-cycles).
    #[must_use]
    pub fn build(self) -> Job {
        // Ids are `job << JOB_ID_SHIFT | index`, so an id is declared in
        // this job iff its job part matches and its index is in range.
        let declared =
            |id: u64, count: u64| job_of(id) == self.job.0 && (index_of(id) as u64) < count;
        for t in &self.tasks {
            for b in t.inputs.iter().chain(&t.outputs) {
                assert!(
                    declared(b.0, self.next_buffer),
                    "JobBuilder: {} references undeclared {b}",
                    t.id
                );
            }
            for d in &t.deps {
                assert!(
                    declared(d.0, self.next_task),
                    "JobBuilder: {} depends on undeclared {d} (cross-job deps are wired at submit time)",
                    t.id
                );
                assert!(*d != t.id, "JobBuilder: {} depends on itself", t.id);
            }
        }
        Job {
            id: self.job,
            tasks: self.tasks,
            buffers: self.buffers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_threads_ids() {
        let mut b = JobBuilder::new(3);
        let buf = b.buffer("x", 64, Some(ComputeLevel::OnChip));
        let t = b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::from_ms(1),
            vec![buf],
            vec![],
            vec![],
        );
        let job = b.build();
        assert_eq!(job.id, JobId(3));
        assert_eq!(job.tasks[0].id, t);
        assert_eq!(job.buffers[0].id, buf);
        // Namespaced under the job id.
        assert_eq!(t.0 >> 20, 3);
    }

    #[test]
    fn different_jobs_never_collide() {
        let mut a = JobBuilder::new(1);
        let mut b = JobBuilder::new(2);
        let ta = a.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![],
            vec![],
            vec![],
        );
        let tb = b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![],
            vec![],
            vec![],
        );
        assert_ne!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_buffer_rejected() {
        let mut b = JobBuilder::new(0);
        b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![BufferId(999)],
            vec![],
            vec![],
        );
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "depends on itself")]
    fn self_dependency_rejected() {
        let mut b = JobBuilder::new(0);
        // The first task id under job 0 is 0 << 20 = 0.
        b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![],
            vec![],
            vec![TaskId(0)],
        );
        let _ = b.build();
    }

    fn demo_task(b: &mut JobBuilder) -> TaskId {
        b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![],
            vec![],
            vec![],
        )
    }

    #[test]
    fn largest_job_keeps_its_ids_in_its_own_space() {
        let job = (1 << 44) - 1;
        let mut b = JobBuilder::new(job);
        assert_eq!(demo_task(&mut b).0 >> 20, job);
        assert_eq!(b.buffer("x", 1, None).0 >> 20, job);
    }

    #[test]
    #[should_panic(expected = "job 17592186044416 is outside the 2^44 job id space")]
    fn job_past_the_id_space_rejected() {
        // 2^44 << 20 wraps to 0: its ids would alias job 0's.
        let _ = JobBuilder::new(1 << 44);
    }

    #[test]
    #[should_panic(expected = "job0 already holds 2^20 tasks")]
    fn task_past_the_job_id_space_rejected() {
        let mut b = JobBuilder::new(0);
        b.next_task = (1 << 20) - 1;
        assert_eq!(demo_task(&mut b), TaskId((1 << 20) - 1));
        // The next id would be job 1's first task id.
        let _ = demo_task(&mut b);
    }

    #[test]
    #[should_panic(expected = "job3 already holds 2^20 buffers")]
    fn buffer_past_the_job_id_space_rejected() {
        let mut b = JobBuilder::new(3);
        b.next_buffer = (1 << 20) - 1;
        assert_eq!(b.buffer("x", 1, None), BufferId((4 << 20) - 1));
        // The next id would be job 4's first buffer id.
        let _ = b.buffer("y", 1, None);
    }

    #[test]
    fn ids_display() {
        assert_eq!(JobId(5).to_string(), "job5");
        assert_eq!(TaskId(7).to_string(), "task7");
        assert_eq!(BufferId(2).to_string(), "buf2");
    }

    #[test]
    fn task_records_its_wiring() {
        let mut b = JobBuilder::new(9);
        let input = b.buffer("db", 1 << 20, Some(ComputeLevel::NearStorage));
        let output = b.buffer("hits", 4096, None);
        let first = b.task(
            "short-list",
            "GEMM-ZCU9",
            ComputeLevel::NearStorage,
            SimDuration::from_ms(3),
            vec![input],
            vec![output],
            vec![],
        );
        let second = b.task(
            "rerank",
            "KNN-ZCU9",
            ComputeLevel::NearStorage,
            SimDuration::from_ms(5),
            vec![output],
            vec![],
            vec![first],
        );
        let job = b.build();
        let t = &job.tasks[1];
        assert_eq!(t.id, second);
        assert_eq!(second.0, first.0 + 1);
        assert_eq!(t.job, JobId(9));
        assert_eq!(t.stage.resolve(), "rerank");
        assert_eq!(t.template.resolve(), "KNN-ZCU9");
        assert_eq!(t.level, ComputeLevel::NearStorage);
        assert_eq!(t.est_duration, SimDuration::from_ms(5));
        assert_eq!(
            (t.inputs.clone(), t.deps.clone()),
            (vec![output], vec![first])
        );
        assert!(t.outputs.is_empty());
    }

    #[test]
    fn buffers_keep_declaration_order_and_residency() {
        let mut b = JobBuilder::new(1);
        let a = b.buffer("a", 10, None);
        let c = b.buffer("c", 30, Some(ComputeLevel::NearMemory));
        let job = b.build();
        assert_eq!(c.0, a.0 + 1);
        assert_eq!(
            job.buffers,
            vec![
                BufferDesc {
                    id: a,
                    name: "a".to_string(),
                    bytes: 10,
                    resident: None,
                },
                BufferDesc {
                    id: c,
                    name: "c".to_string(),
                    bytes: 30,
                    resident: Some(ComputeLevel::NearMemory),
                },
            ]
        );
        assert!(job.tasks.is_empty());
    }

    #[test]
    #[should_panic(expected = "references undeclared buf")]
    fn undeclared_output_rejected() {
        let mut b = JobBuilder::new(0);
        b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![],
            vec![BufferId(7)],
            vec![],
        );
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "depends on undeclared task")]
    fn undeclared_dependency_rejected() {
        let mut b = JobBuilder::new(2);
        b.task(
            "s",
            "K",
            ComputeLevel::OnChip,
            SimDuration::ZERO,
            vec![],
            vec![],
            vec![TaskId(12345)],
        );
        let _ = b.build();
    }
}
