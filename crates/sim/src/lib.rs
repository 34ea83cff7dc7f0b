//! # reach-sim — discrete-event simulation engine
//!
//! This crate is the substrate under the ReACH compute-hierarchy simulator.
//! It provides the pieces every timing model in the workspace is built from:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer picosecond timeline, so that
//!   a 2 GHz core, 273/200/150 MHz FPGA kernels, DDR4 bus ticks and PCIe
//!   serialization delays can share one clock without rounding drift.
//! * [`EventQueue`] — a deterministic priority queue of timestamped events,
//!   kept in a binary heap. Ties are broken by insertion order, which makes
//!   every simulation in the workspace reproducible bit-for-bit.
//! * [`resource`] — *resource calendars*: the serial-server and bandwidth
//!   models used for DRAM banks, memory channels, PCIe links, SSD flash
//!   channels and accelerators. Contention, queueing delay and saturation
//!   emerge from these calendars instead of being hard-coded.
//! * [`stats`] — counters, histograms and time-weighted averages used to
//!   build the experiment reports.
//!
//! The engine is *transaction-level*: components reserve time windows on
//! resources rather than exchanging per-cycle messages. This reproduces the
//! bandwidth/occupancy behaviour the ReACH paper's conclusions rest on while
//! remaining fast enough to sweep configurations on a laptop.
//!
//! ## Example
//!
//! ```
//! use reach_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_ns(5), "later");
//! q.push(SimTime::ZERO + SimDuration::from_ns(1), "sooner");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "sooner");
//! assert_eq!(t, SimTime::ZERO + SimDuration::from_ns(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fingerprint;
pub mod intern;
pub mod metrics;
pub mod rate;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use fingerprint::{checksum64, Fingerprint, FingerprintBuilder};
pub use intern::Symbol;
pub use metrics::{
    CounterId, GaugeId, HistogramId, MetricValue, MetricsRegistry, MetricsSnapshot, OccupancyId,
    WindowedGauge,
};
pub use rate::{Bandwidth, Frequency, Link};
pub use resource::{BandwidthResource, MultiResource, Reservation, SerialResource};
pub use stats::{Counter, Histogram, LatencyHistogram, TimeWeighted};
pub use time::{SimDuration, SimTime};
