//! # reach-storage — storage-hierarchy timing models
//!
//! The IO substrate of the ReACH simulator:
//!
//! * [`pcie`] — PCIe links (generation x lanes x protocol efficiency) and
//!   the host IO switch. The paper's motivating bandwidth gap lives here:
//!   a host PCIe Gen3 x16 is 16 GB/s on paper but ~12 GB/s effective through
//!   the IO software stack, shared by *all* SSDs, while each SSD's internal
//!   flash array can sustain ~12 GB/s on its own.
//! * [`ssd`] — an NVMe SSD: parallel flash channels behind a command queue,
//!   page-granular reads with realistic first-access latency, and separate
//!   *host-path* (through the shared switch) and *device-path* (from the
//!   attached near-storage accelerator) entry points.
//! * [`near_storage`] — the near-storage accelerator carrier: the device
//!   link from the attached accelerator to flash, plus the pass-through
//!   logic that lets ordinary host IO bypass the accelerator. Device reads
//!   always come from flash; the carrier's private DRAM buffer is a
//!   configured size only, with no parameter-caching model behind it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod near_storage;
pub mod pcie;
pub mod ssd;

pub use near_storage::{NearStorageDevice, NearStorageDeviceConfig};
pub use pcie::{PcieGen, PcieLink, PcieSwitch};
pub use ssd::{Ssd, SsdConfig};
