//! # reach-gam — the Global Accelerator Manager
//!
//! The GAM (Section II-D of the paper) is an on-chip hardware block that
//! frees the CPU cores from managing the compute hierarchy. It:
//!
//! 1. receives job requests for accelerators from the cores,
//! 2. distributes the tasks within each job to available accelerators,
//! 3. tracks running/waiting tasks with their start and *estimated*
//!    execution times,
//! 4. initiates data transfers between dependent tasks, and
//! 5. interrupts the host core when a requested job completes.
//!
//! Because memory- and storage-side modules cannot interrupt the GAM, task
//! completion at those levels is observed through *status-request packets*
//! sent when the estimated runtime elapses; an unfinished task answers with
//! a new wait time (Figure 5). On-chip tasks complete through the coherent
//! interconnect and need no polling.
//!
//! This crate is the *decision logic*: a deterministic state machine that
//! consumes `submit / started / poll / dma-finished` notifications and
//! pushes [`GamAction`]s (dispatches, DMA requests, polls, host interrupts)
//! into a buffer the caller owns. The machine model in `reach` (the core
//! crate) executes those actions against the timing substrates and feeds
//! the results back — which is exactly the hardware/software split of the
//! paper's design. Its bookkeeping is one table of dense job slots; see
//! [`manager`] for the layout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manager;
pub mod task;

pub use manager::{Gam, GamAction, GamConfig, GamStats};
pub use task::{BufferDesc, BufferId, Job, JobBuilder, JobId, Task, TaskId, TaskState};
