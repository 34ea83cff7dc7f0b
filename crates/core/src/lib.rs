//! # reach — the Reconfigurable Accelerator Compute Hierarchy
//!
//! This crate is the paper's primary contribution as a library: a compute
//! hierarchy that combines **on-chip**, **near-memory** and **near-storage**
//! reconfigurable accelerators, coordinated by a hardware **Global
//! Accelerator Manager** (GAM), programmed through a uniform library
//! interface that decouples the application from the hierarchy
//! configuration.
//!
//! ## Layers
//!
//! * [`config`] — [`SystemConfig`]: the machine shape (Table II of the
//!   paper) plus the handful of microarchitectural rates the experiments
//!   depend on.
//! * [`work`] — [`TaskWork`]/[`DataAccess`]: how a task touches data
//!   (stream / gather / resident) and how many MACs it performs; the machine
//!   turns this plus the kernel template into an actual duration.
//! * [`machine`] — [`Machine`]: the full-system model. It executes
//!   [`reach_gam::GamAction`]s against the timing substrates (DDR4 DIMMs,
//!   the shared LLC, AIM modules and AIMbus, the host PCIe switch, NVMe
//!   SSDs, FPGA slots) and accounts component-by-stage usage for the energy
//!   ledger.
//! * [`report`] — [`RunReport`]: makespan, per-stage times, throughput /
//!   latency and the energy ledger of a run.
//! * [`api`] — the programming interface of Listings 1–3: `Level`,
//!   `StreamType`, `ReachConfig` (buffers, streams, accelerator
//!   registration, `set_arg` bindings) and the host-side `Pipeline` driver.
//! * [`blueprint`] — [`MachineBlueprint`]: an immutable, cheap-to-clone
//!   machine recipe (config + template registry + energy presets);
//!   `instantiate()` builds a fresh [`Machine`] per run.
//! * [`scenario`] — [`Scenario`]: one trait for every experiment point
//!   (figures, ablations, co-runs, sweeps), plus the [`ScenarioExecutor`]
//!   contract that lets `reach-bench` fan independent points across
//!   threads with byte-identical results.
//! * [`spec`] — [`ScenarioSpec`]: the one structural scenario — a
//!   blueprint, a seed and one or more tenants (a lowered [`Pipeline`]
//!   plus a closed or open-loop job source), keyed on those fields alone.
//! * [`fleet`] — [`FleetBlueprint`]/[`FleetScenario`]: the topology layer
//!   above single machines — N nodes with dataset shards, an inter-machine
//!   link, and a deterministic scatter-gather aggregator.
//!
//! ## Quick start
//!
//! ```
//! use reach::{Machine, SystemConfig, TaskWork, DataAccess};
//! use reach_gam::JobBuilder;
//! use reach_accel::ComputeLevel;
//! use reach_sim::SimDuration;
//!
//! let mut machine = Machine::new(SystemConfig::paper_table2());
//! let mut job = JobBuilder::new(0);
//! let t = job.task("demo", "VGG16-VU9P", ComputeLevel::OnChip,
//!                  SimDuration::from_ms(100), vec![], vec![], vec![]);
//! machine.submit(job.build(), [(t, TaskWork {
//!     macs: 16 * 7_750_000_000,
//!     access: DataAccess::None,
//! })].into());
//! let report = machine.run();
//! assert!((report.makespan.as_ms_f64() - 100.0).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod blueprint;
pub mod codec;
pub mod config;
pub mod fingerprint;
pub mod fleet;
pub mod machine;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod telemetry;
pub mod trace;
pub mod traffic;
pub mod work;

pub use api::{
    Arg, ArgSlot, ConfigError, ExecMode, Level, Pipeline, ReachConfig, StreamType, ValidatedConfig,
};
pub use blueprint::MachineBlueprint;
pub use codec::{
    decode_report, encode_report, simulator_version_stamp, CodecError, REPORT_CODEC_VERSION,
};
pub use config::SystemConfig;
pub use fingerprint::ConfigFingerprint;
pub use fleet::{
    aggregate_scatter_gather, rack_link, FleetBlueprint, FleetScenario, InterMachineLink,
    ScatterGatherSpec, ShardPlacement,
};
pub use machine::Machine;
pub use report::{RunReport, StageSummary};
pub use scenario::{Scenario, ScenarioExecutor, ScenarioResult, SequentialExecutor, SharedSetup};
pub use spec::{JobSource, LoweredPipeline, ScenarioSpec, Tenant};
pub use trace::{Trace, TraceEvent, TraceKind};
pub use traffic::ArrivalProcess;
pub use work::{DataAccess, TaskWork};

// Re-export the vocabulary types users need alongside the API.
pub use reach_accel::{AcceleratorId, ComputeLevel, KernelSpec, TemplateRegistry};
pub use reach_energy::{EnergyLedger, SystemComponent};
pub use reach_gam::{Job, JobBuilder, JobId, TaskId};
pub use reach_sim::{MetricValue, MetricsSnapshot, SimDuration, SimTime};
