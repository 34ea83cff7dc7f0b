//! # reach-mem — memory-hierarchy timing models
//!
//! The main-memory substrate of the ReACH simulator:
//!
//! * [`ddr`] — DDR4 DIMM timing: banks, rows, open- vs closed-page policy,
//!   activate/CAS/precharge windows, refresh blackouts, and the event counts
//!   (activations, read/write bursts) the energy model bills.
//! * [`controller`] — the host memory controller: multiple channels, an
//!   FR-FCFS-approximating scheduling model, and the two interleaving
//!   policies the paper's GAM switches between (cache-line interleave for
//!   CPU/on-chip traffic, tile interleave for near-memory accelerators).
//! * [`cache`] — the shared LLC's geometry. There is no hit/miss model:
//!   on-chip cache traffic is billed per line against the on-chip
//!   accelerator's 100 GB/s cache port.
//! * [`noc`] — the on-chip crossbar tying cores, accelerator, GAM and the
//!   shared cache together (Figure 2).
//! * [`tlb`] — the on-chip accelerator's address translation (TLB +
//!   page-walk estimation), also from Figure 2.
//! * [`aim`] — the accelerator-interposed-memory (AIM) modules: DIMM
//!   ownership hand-over with forced closed-row policy, the configuration /
//!   memory-access filters, and the AIMbus that lets near-memory accelerators
//!   exchange data without crossing the host memory channels.
//!
//! All models are *transaction-level*: they reserve windows on
//! [`reach_sim`] resource calendars, so channel saturation and bank conflicts
//! emerge from contention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aim;
pub mod cache;
pub mod controller;
pub mod ddr;
pub mod noc;
pub mod tlb;

pub use aim::{AimBus, AimModule, DimmOwner};
pub use cache::CacheConfig;
pub use controller::{Interleave, MemoryController, MemoryControllerConfig};
pub use ddr::{AccessKind, DdrTiming, Dimm, DimmConfig, RowPolicy};
pub use noc::{Noc, NocConfig, NocPort};
pub use tlb::{Tlb, TlbConfig};
