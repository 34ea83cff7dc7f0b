//! The ReACH programming interface — Listings 1–3 of the paper.
//!
//! The paper separates three things the application programmer writes:
//!
//! 1. **`ReACH.h`** (Listing 1): `RegisterAcc`, `CreateFixedBuffer`,
//!    `CreateStream` with *Broadcast / Collect / Pair* patterns — here the
//!    methods of [`ReachConfig`].
//! 2. **`config.h`** (Listing 2): the *configuration*, instantiating a meta
//!    accelerator from templates, placing fixed buffers at levels, wiring
//!    streams between levels and binding them to kernel arguments with
//!    `set_arg` — here a built [`ReachConfig`] value.
//! 3. **`host.cpp`** (Listing 3): the host flow calling `execute` per
//!    accelerator per batch — here [`Pipeline`], which records the call
//!    sequence once and replays it per batch.
//!
//! The separation is the point: the same [`Pipeline`] runs unmodified on a
//! machine with a different [`ReachConfig`] (all-on-chip, all-near-memory,
//! or the proper hierarchical mapping), which is how the paper's Figure 12
//! and Figure 13 comparisons are produced.
//!
//! A finished configuration is checked **before** anything runs:
//! [`ReachConfig::build`] resolves every template, checks each argument
//! binding against the kernel's driver arity and each stream endpoint
//! against the accelerator's placement, and returns a [`ValidatedConfig`]
//! (or a typed [`ConfigError`]). [`Pipeline::new`] takes the validated
//! form, so a mis-wired `config.h` fails at build time, not mid-run.
//!
//! # Example
//!
//! ```
//! use reach::{Machine, SystemConfig, ReachConfig, Level, StreamType, Pipeline, TaskWork};
//!
//! let mut cfg = ReachConfig::new();
//! let params = cfg.create_fixed_buffer("vgg16_param", Level::OnChip, 11_300_000);
//! let input = cfg.create_stream(Level::Cpu, Level::OnChip, StreamType::Pair, 2 << 20, 2);
//! let feats = cfg.create_stream(Level::OnChip, Level::NearStor, StreamType::Broadcast, 6144, 2);
//! let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
//! cfg.set_arg(cnn, 0, input);
//! cfg.set_arg(cnn, 1, params);
//! cfg.set_arg(cnn, 2, feats);
//! let knn = cfg.register_acc("KNN-ZCU9", Level::NearStor);
//! cfg.set_arg(knn, 0, feats);
//!
//! let mut pipeline = Pipeline::new(cfg.build().expect("valid config"));
//! pipeline.call(cnn, TaskWork::compute(124_000_000_000), "feature-extraction");
//! pipeline.call(knn, TaskWork::gather(1_000_000, 256 << 20, 4096), "rerank");
//!
//! let mut machine = Machine::new(SystemConfig::paper_table2());
//! let report = pipeline.run(&mut machine, 2);
//! assert_eq!(report.jobs, 2);
//! ```

use crate::fingerprint::ConfigFingerprint;
use crate::machine::{Machine, ShapedJob, TaskCost};
use crate::report::RunReport;
use crate::work::TaskWork;
use reach_accel::{ComputeLevel, KernelSpec, TemplateRegistry};
use reach_gam::{JobBuilder, JobId, TaskId};
use reach_sim::{FingerprintBuilder, SimDuration, Symbol};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// How a [`Pipeline`] feeds batches to the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// All batches are enqueued up front; the GAM pipelines across batches
    /// wherever dependencies allow. This is the ReACH execution model.
    Pipelined,
    /// Each batch completes before the next is submitted — the
    /// conventional host-driven accelerator flow, used as the paper's
    /// on-chip baseline.
    Sequential,
}

/// Where a buffer or stream endpoint lives (Listing 1's `enum Level`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// The cache-coherent on-chip accelerator.
    OnChip,
    /// Near-memory (AIM) accelerators.
    NearMem,
    /// Near-storage (SSD-attached) accelerators.
    NearStor,
    /// The host CPU (stream sources/sinks).
    Cpu,
}

impl Level {
    /// The compute level backing this endpoint; CPU endpoints live in host
    /// memory, which the hierarchy reaches through the on-chip level.
    #[must_use]
    pub fn compute_level(self) -> ComputeLevel {
        match self {
            Level::OnChip | Level::Cpu => ComputeLevel::OnChip,
            Level::NearMem => ComputeLevel::NearMemory,
            Level::NearStor => ComputeLevel::NearStorage,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::OnChip => "OnChip",
            Level::NearMem => "NearMem",
            Level::NearStor => "NearStor",
            Level::Cpu => "CPU",
        })
    }
}

/// Stream communication patterns (Listing 1's `enum StreamType`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamType {
    /// One producer, every destination-level accelerator gets a copy.
    Broadcast,
    /// Every source-level accelerator contributes; one consumer.
    Collect,
    /// One-to-one.
    Pair,
}

/// Handle to a registered accelerator (`ReACH::ACC`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Acc(usize);

/// Handle to a fixed buffer (`ReACH::Buffer<T>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FixedBuffer(usize);

/// Handle to a stream (`ReACH::Stream<T>`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stream(usize);

/// Something that can be bound to a kernel argument slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arg {
    /// A fixed buffer.
    Buffer(FixedBuffer),
    /// A stream endpoint.
    Stream(Stream),
}

impl From<FixedBuffer> for Arg {
    fn from(b: FixedBuffer) -> Arg {
        Arg::Buffer(b)
    }
}
impl From<Stream> for Arg {
    fn from(s: Stream) -> Arg {
        Arg::Stream(s)
    }
}

/// An argument slot in a kernel's driver signature.
///
/// Slots are validated against the template's arity when the configuration
/// is [built](ReachConfig::build): a slot at or past the kernel's
/// `arg_slots` is a [`ConfigError::ArgOutOfRange`] instead of a silent
/// misbinding. Plain `usize` indices convert implicitly, so
/// `cfg.set_arg(acc, 0, buf)` keeps reading like Listing 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArgSlot(usize);

impl ArgSlot {
    /// Slot with the given zero-based index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        ArgSlot(index)
    }

    /// Zero-based index of the slot.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ArgSlot {
    fn from(index: usize) -> ArgSlot {
        ArgSlot(index)
    }
}

impl fmt::Display for ArgSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "arg{}", self.0)
    }
}

/// Everything [`ReachConfig::build`] can reject. Each variant corresponds
/// to a distinct way a `config.h` can be mis-wired; none of them survive
/// to run time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No template with this name is registered at the accelerator's level.
    UnknownTemplate {
        /// The requested template name.
        template: String,
        /// The requested placement.
        level: Level,
    },
    /// An accelerator was registered at [`Level::Cpu`].
    CpuAccelerator {
        /// The requested template name.
        template: String,
    },
    /// A binding targets a slot at or past the kernel's driver arity.
    ArgOutOfRange {
        /// The accelerator's template.
        template: String,
        /// The offending slot index.
        slot: usize,
        /// The kernel's arity (`arg_slots`).
        arity: usize,
    },
    /// Two bindings target the same slot of one accelerator.
    DuplicateArg {
        /// The accelerator's template.
        template: String,
        /// The slot bound twice.
        slot: usize,
    },
    /// A slot below a bound slot was left unbound (the driver would read a
    /// hole in its argument list).
    UnboundArg {
        /// The accelerator's template.
        template: String,
        /// The unbound slot index.
        slot: usize,
    },
    /// A stream that neither starts nor ends at the accelerator's level
    /// was bound to one of its slots.
    MisplacedStream {
        /// The accelerator's template.
        template: String,
        /// The accelerator's placement.
        level: Level,
        /// The stream's source level.
        src: Level,
        /// The stream's destination level.
        dst: Level,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownTemplate { template, level } => {
                write!(f, "unknown template {template} at {level}")
            }
            ConfigError::CpuAccelerator { template } => {
                write!(f, "{template}: CPU is not an accelerator level")
            }
            ConfigError::ArgOutOfRange {
                template,
                slot,
                arity,
            } => write!(
                f,
                "{template}: arg slot {slot} out of range (kernel arity {arity})"
            ),
            ConfigError::DuplicateArg { template, slot } => {
                write!(f, "{template}: arg slot {slot} bound twice")
            }
            ConfigError::UnboundArg { template, slot } => {
                write!(f, "{template}: arg slot {slot} unbound below a bound slot")
            }
            ConfigError::MisplacedStream {
                template,
                level,
                src,
                dst,
            } => write!(
                f,
                "{template}: stream {src}->{dst} does not touch level {level}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[derive(Clone, Debug)]
struct AccEntry {
    template: String,
    level: Level,
    args: Vec<(ArgSlot, Arg)>,
}

#[derive(Clone, Debug)]
struct BufferEntry {
    name: String,
    level: Level,
    bytes: u64,
}

#[derive(Clone, Debug)]
struct StreamEntry {
    src: Level,
    dst: Level,
    /// Pattern, recorded for validation and debugging dumps; the GAM's
    /// per-level copy dedup realizes broadcast/collect semantics.
    #[allow(dead_code)]
    ty: StreamType,
    bytes: u64,
    /// Queue depth (double-buffering); recorded for future backpressure
    /// modelling.
    #[allow(dead_code)]
    depth: usize,
}

/// A ReACH configuration: registered accelerators, fixed buffers, streams
/// and argument bindings — the contents of the paper's `config.h`.
#[derive(Clone, Debug, Default)]
pub struct ReachConfig {
    accs: Vec<AccEntry>,
    buffers: Vec<BufferEntry>,
    streams: Vec<StreamEntry>,
}

impl ReachConfig {
    /// An empty configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `RegisterAcc(template, level)`: requests an accelerator instance of
    /// `template` at `level`. Registering the same template twice creates
    /// two logical accelerators (like `knn0` / `knn1` in Listing 2).
    ///
    /// Registering at [`Level::Cpu`] is recorded but rejected by
    /// [`Self::build`] — the CPU is not an accelerator.
    pub fn register_acc(&mut self, template: &str, level: Level) -> Acc {
        self.accs.push(AccEntry {
            template: template.to_string(),
            level,
            args: Vec::new(),
        });
        Acc(self.accs.len() - 1)
    }

    /// `CreateFixedBuffer(path, level, size)`: declares data pre-placed in
    /// `level`'s memory during configuration (the runtime loads it from the
    /// file system before the pipeline starts, so it is *sedentary* at run
    /// time — the paper's key mechanism for limiting data movement).
    pub fn create_fixed_buffer(&mut self, name: &str, level: Level, bytes: u64) -> FixedBuffer {
        self.buffers.push(BufferEntry {
            name: name.to_string(),
            level,
            bytes,
        });
        FixedBuffer(self.buffers.len() - 1)
    }

    /// `CreateStream(src, dst, type, size, depth)`: a communication buffer
    /// between two levels, realized as a queue pair in both levels' memory.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn create_stream(
        &mut self,
        src: Level,
        dst: Level,
        ty: StreamType,
        bytes: u64,
        depth: usize,
    ) -> Stream {
        assert!(depth > 0, "create_stream: zero depth");
        self.streams.push(StreamEntry {
            src,
            dst,
            ty,
            bytes,
            depth,
        });
        Stream(self.streams.len() - 1)
    }

    /// `acc.setArgs(slot, arg)`: binds a buffer or stream to a kernel
    /// argument slot.
    ///
    /// Binding a fixed buffer that lives at a *different* level is legal —
    /// it means the GAM must move the data before each execution, which is
    /// exactly the cost the hierarchy exists to avoid (and the cost the
    /// single-level baselines pay). The binding itself is checked by
    /// [`Self::build`]: out-of-arity slots, duplicate slots and streams
    /// that do not touch the accelerator's level all become typed
    /// [`ConfigError`]s there.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is a stale handle.
    pub fn set_arg(&mut self, acc: Acc, slot: impl Into<ArgSlot>, arg: impl Into<Arg>) {
        self.accs[acc.0].args.push((slot.into(), arg.into()));
    }

    /// Number of registered accelerators.
    #[must_use]
    pub fn acc_count(&self) -> usize {
        self.accs.len()
    }

    /// Writes a canonical encoding of the configuration — every buffer,
    /// stream (endpoints, pattern, size, depth), registration and binding
    /// — into `b`. Shared by the [`ValidatedConfig`] and [`Pipeline`]
    /// fingerprints.
    pub(crate) fn fingerprint_into(&self, b: &mut FingerprintBuilder) {
        b.write_usize(self.buffers.len());
        for buf in &self.buffers {
            b.write_str(&buf.name);
            b.write_debug(&buf.level);
            b.write_u64(buf.bytes);
        }
        b.write_usize(self.streams.len());
        for s in &self.streams {
            b.write_debug(&s.src);
            b.write_debug(&s.dst);
            b.write_debug(&s.ty);
            b.write_u64(s.bytes);
            b.write_usize(s.depth);
        }
        b.write_usize(self.accs.len());
        for acc in &self.accs {
            b.write_str(&acc.template);
            b.write_debug(&acc.level);
            b.write_usize(acc.args.len());
            for (slot, arg) in &acc.args {
                b.write_usize(slot.index());
                b.write_debug(arg);
            }
        }
    }

    /// Validates the configuration against the paper's Table III template
    /// registry. See [`Self::build_with`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found, in accelerator
    /// registration order.
    pub fn build(self) -> Result<ValidatedConfig, ConfigError> {
        let registry = TemplateRegistry::paper_table3();
        self.build_with(&registry)
    }

    /// Validates the configuration against `registry`, resolving every
    /// template and checking every argument binding, and returns the
    /// [`ValidatedConfig`] that [`Pipeline::new`] consumes.
    ///
    /// Checked per accelerator, in registration order:
    ///
    /// * the placement is not [`Level::Cpu`];
    /// * the template resolves at the placement's compute level;
    /// * every bound slot is below the kernel's `arg_slots` arity and no
    ///   slot is bound twice;
    /// * every bound stream starts or ends at the accelerator's level;
    /// * the bound slots have no holes — a prefix `0..n` of the signature
    ///   may be left entirely unbound (work parameters passed at `execute`
    ///   time), but a gap below a bound slot is an error.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn build_with(self, registry: &TemplateRegistry) -> Result<ValidatedConfig, ConfigError> {
        let mut kernels = Vec::with_capacity(self.accs.len());
        for acc in &self.accs {
            if acc.level == Level::Cpu {
                return Err(ConfigError::CpuAccelerator {
                    template: acc.template.clone(),
                });
            }
            let kernel = registry
                .resolve(&acc.template, acc.level.compute_level())
                .ok_or_else(|| ConfigError::UnknownTemplate {
                    template: acc.template.clone(),
                    level: acc.level,
                })?;
            let mut bound = vec![false; kernel.arg_slots];
            for &(slot, arg) in &acc.args {
                let i = slot.index();
                if i >= kernel.arg_slots {
                    return Err(ConfigError::ArgOutOfRange {
                        template: acc.template.clone(),
                        slot: i,
                        arity: kernel.arg_slots,
                    });
                }
                if bound[i] {
                    return Err(ConfigError::DuplicateArg {
                        template: acc.template.clone(),
                        slot: i,
                    });
                }
                bound[i] = true;
                if let Arg::Stream(s) = arg {
                    let entry = &self.streams[s.0];
                    if entry.src != acc.level && entry.dst != acc.level {
                        return Err(ConfigError::MisplacedStream {
                            template: acc.template.clone(),
                            level: acc.level,
                            src: entry.src,
                            dst: entry.dst,
                        });
                    }
                }
            }
            if let Some(top) = bound.iter().rposition(|&b| b) {
                if let Some(hole) = bound[..top].iter().position(|&b| !b) {
                    return Err(ConfigError::UnboundArg {
                        template: acc.template.clone(),
                        slot: hole,
                    });
                }
            }
            kernels.push(*kernel);
        }
        Ok(ValidatedConfig {
            config: self,
            kernels,
        })
    }
}

/// A [`ReachConfig`] that passed [`ReachConfig::build`]: every template is
/// resolved (the [`KernelSpec`]s are captured here, so the pipeline never
/// consults a registry mid-run) and every binding is checked.
#[derive(Clone, Debug)]
pub struct ValidatedConfig {
    config: ReachConfig,
    kernels: Vec<KernelSpec>,
}

impl ValidatedConfig {
    /// The underlying configuration.
    #[must_use]
    pub fn config(&self) -> &ReachConfig {
        &self.config
    }

    /// The resolved kernel for each registered accelerator, in
    /// registration order.
    #[must_use]
    pub fn kernels(&self) -> &[KernelSpec] {
        &self.kernels
    }

    /// Canonical digest of the validated configuration: the full
    /// [`ReachConfig`] wiring plus every resolved [`KernelSpec`] (so a
    /// registry change that resolves the same template name to different
    /// timing changes the digest too).
    #[must_use]
    pub fn fingerprint(&self) -> ConfigFingerprint {
        let mut b = FingerprintBuilder::new("reach-validated-config-v1");
        self.fingerprint_into(&mut b);
        ConfigFingerprint::from_builder(b)
    }

    pub(crate) fn fingerprint_into(&self, b: &mut FingerprintBuilder) {
        self.config.fingerprint_into(b);
        b.write_usize(self.kernels.len());
        for k in &self.kernels {
            b.write_debug(k);
        }
    }
}

#[derive(Clone, Debug)]
struct Call {
    acc: Acc,
    work: TaskWork,
    stage: String,
}

/// The host-side flow (Listing 3): a recorded sequence of `execute` calls
/// replayed once per batch, with inter-call dependencies derived from the
/// stream wiring.
///
/// The job every batch submits is compiled once, on first use: the task
/// graph (buffers, stream producers, dependencies, estimates, interned
/// stage and template labels) and each task's pricing row. A batch then
/// only stamps its job id on the shared shape.
#[derive(Clone, Debug)]
pub struct Pipeline {
    config: ReachConfig,
    /// Resolved kernels, parallel to the config's accelerators. Captured at
    /// [`ReachConfig::build`] time, so job building never consults a
    /// registry and cannot fail mid-run.
    kernels: Vec<KernelSpec>,
    calls: Vec<Call>,
    /// The compiled job shape under job id 0; reset by [`Pipeline::call`].
    shape: OnceLock<ShapedJob>,
}

impl Pipeline {
    /// Wraps a validated configuration. [`ReachConfig::build`] is the only
    /// way to obtain one, so every pipeline's templates are resolved and
    /// its bindings checked before the first batch is built.
    #[must_use]
    pub fn new(config: ValidatedConfig) -> Self {
        Pipeline {
            config: config.config,
            kernels: config.kernels,
            calls: Vec::new(),
            shape: OnceLock::new(),
        }
    }

    /// Records `acc.execute()` with the given work, labelled `stage` for
    /// time/energy accounting. Returns `&mut self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale.
    pub fn call(&mut self, acc: Acc, work: TaskWork, stage: &str) -> &mut Self {
        assert!(
            acc.0 < self.config.acc_count(),
            "Pipeline::call: stale handle"
        );
        self.calls.push(Call {
            acc,
            work,
            stage: stage.to_string(),
        });
        self.shape = OnceLock::new();
        self
    }

    /// The configuration this pipeline runs on.
    #[must_use]
    pub fn config(&self) -> &ReachConfig {
        &self.config
    }

    /// Canonical digest of everything the pipeline will submit: the
    /// validated configuration (wiring + resolved kernels) and the
    /// recorded call sequence (callee, [`TaskWork`], stage label). Equal
    /// fingerprints build identical jobs batch for batch.
    #[must_use]
    pub fn fingerprint(&self) -> ConfigFingerprint {
        let mut b = FingerprintBuilder::new("reach-pipeline-v1");
        self.config.fingerprint_into(&mut b);
        b.write_usize(self.kernels.len());
        for k in &self.kernels {
            b.write_debug(k);
        }
        b.write_usize(self.calls.len());
        for call in &self.calls {
            b.write_usize(call.acc.0);
            b.write_debug(&call.work);
            b.write_str(&call.stage);
        }
        ConfigFingerprint::from_builder(b)
    }

    /// Runs `batches` batches through `machine` in the given [`ExecMode`]
    /// and reports.
    ///
    /// Under [`ExecMode::Pipelined`] all batches are enqueued up front and
    /// the GAM pipelines across batches wherever dependencies allow, so
    /// throughput reflects the longest stage rather than the sum of
    /// stages. Under [`ExecMode::Sequential`] each batch completes before
    /// the next is submitted and the last batch's report is returned.
    ///
    /// With `batches == 0` nothing is submitted and both modes return an
    /// empty report (zero jobs, zero makespan).
    ///
    /// # Panics
    ///
    /// Panics if the pipeline is empty.
    pub fn run_mode(&self, machine: &mut Machine, batches: usize, mode: ExecMode) -> RunReport {
        assert!(!self.calls.is_empty(), "Pipeline::run_mode: empty pipeline");
        let mut report = None;
        for batch in 0..batches {
            machine.submit_shaped(self.job_for_batch(batch as u64));
            if mode == ExecMode::Sequential {
                report = Some(machine.run());
            }
        }
        match (mode, report) {
            (ExecMode::Sequential, Some(r)) => r,
            // Pipelined, or Sequential with zero batches: run whatever is
            // queued (possibly nothing) and report on that.
            _ => machine.run(),
        }
    }

    /// Runs `batches` batches in [`ExecMode::Pipelined`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Pipeline::run_mode`].
    pub fn run(&self, machine: &mut Machine, batches: usize) -> RunReport {
        self.run_mode(machine, batches, ExecMode::Pipelined)
    }

    /// Runs `batches` batches in [`ExecMode::Sequential`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`Pipeline::run_mode`].
    pub fn run_sequential(&self, machine: &mut Machine, batches: usize) -> RunReport {
        self.run_mode(machine, batches, ExecMode::Sequential)
    }

    /// The job for one batch, without submitting it — used by
    /// deferred-submission drivers such as the open-loop tenants of
    /// [`crate::ScenarioSpec`]. It shares the compiled shape; only its id is
    /// the batch's.
    pub(crate) fn job_for_batch(&self, batch: u64) -> ShapedJob {
        let shape = self.shape.get_or_init(|| self.compile());
        ShapedJob {
            id: JobId(batch),
            graph: Arc::clone(&shape.graph),
            cost: Arc::clone(&shape.cost),
        }
    }

    /// Compiles the job shape every batch shares, under job id 0.
    fn compile(&self) -> ShapedJob {
        let mut b = JobBuilder::new(0);

        // Declare fixed buffers (resident at their level).
        let fixed: Vec<_> = self
            .config
            .buffers
            .iter()
            .map(|buf| b.buffer(&buf.name, buf.bytes, Some(buf.level.compute_level())))
            .collect();

        // Declare stream buffers. A stream whose source is the CPU starts
        // resident in host memory; all others are produced by a task.
        let streams: Vec<_> = self
            .config
            .streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let resident = (s.src == Level::Cpu).then(|| s.src.compute_level());
                b.buffer(&format!("stream{i}"), s.bytes, resident)
            })
            .collect();

        // Producer lists: which call indices write each stream (several,
        // for collect-pattern streams fed by sharded accelerators), in
        // ascending order. For a same-level Pair stream the first call
        // touching it is the producer; later calls consume.
        let mut producer: Vec<Vec<usize>> = vec![Vec::new(); self.config.streams.len()];
        for (ci, call) in self.calls.iter().enumerate() {
            let acc = &self.config.accs[call.acc.0];
            for (_, arg) in &acc.args {
                if let Arg::Stream(s) = arg {
                    let entry = &self.config.streams[s.0];
                    let v = &mut producer[s.0];
                    let produces = if entry.src == entry.dst {
                        v.is_empty() || v == &[ci]
                    } else {
                        entry.src == acc.level
                    };
                    if produces && v.last() != Some(&ci) {
                        v.push(ci);
                    }
                }
            }
        }

        // Emit tasks in call order with stream-derived dependencies.
        let mut task_ids: Vec<TaskId> = Vec::new();
        let mut cost = Vec::with_capacity(self.calls.len());
        for (ci, call) in self.calls.iter().enumerate() {
            let acc = &self.config.accs[call.acc.0];
            let level = acc.level.compute_level();
            // The kernel was resolved (and the binding checked) at
            // ReachConfig::build time.
            let kernel = &self.kernels[call.acc.0];

            let mut inputs = Vec::new();
            let mut outputs = Vec::new();
            let mut deps = Vec::new();
            for (_, arg) in &acc.args {
                match arg {
                    Arg::Buffer(fb) => inputs.push(fixed[fb.0]),
                    Arg::Stream(s) => {
                        let entry = &self.config.streams[s.0];
                        let producers = &producer[s.0];
                        let is_producer = producers.binary_search(&ci).is_ok();
                        let same_level = entry.src == entry.dst;
                        if (same_level && is_producer) || (!same_level && entry.src == acc.level) {
                            outputs.push(streams[s.0]);
                        } else {
                            inputs.push(streams[s.0]);
                            let earlier = producers.partition_point(|&p| p < ci);
                            deps.extend(producers[..earlier].iter().map(|&p| task_ids[p]));
                        }
                    }
                }
            }

            // Estimate: kernel model without contention (the "synthesis
            // report" estimate the GAM progress table uses for polls).
            let mut est = kernel.compute_time(call.work.macs);
            if let Some(rate) = kernel.io_rate_bytes_per_sec() {
                let data = SimDuration::from_secs_f64(call.work.access.bytes() as f64 / rate);
                est = est.max(data);
            }

            let id = b.task(
                &call.stage,
                &acc.template,
                level,
                est,
                inputs,
                outputs,
                deps,
            );
            cost.push(TaskCost {
                macs: call.work.macs,
                access: call.work.access,
                stage: Symbol::intern(&call.stage),
            });
            task_ids.push(id);
        }
        ShapedJob {
            id: JobId(0),
            graph: Arc::new(b.build()),
            cost: cost.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn simple_pipeline() -> Pipeline {
        let mut cfg = ReachConfig::new();
        let feats = cfg.create_stream(
            Level::OnChip,
            Level::NearStor,
            StreamType::Broadcast,
            6144,
            2,
        );
        let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        cfg.set_arg(cnn, 0, feats);
        let knn = cfg.register_acc("KNN-ZCU9", Level::NearStor);
        cfg.set_arg(knn, 0, feats);
        let mut p = Pipeline::new(cfg.build().expect("valid test config"));
        p.call(cnn, TaskWork::compute(10_000_000_000), "fe");
        p.call(knn, TaskWork::stream(1_000_000, 64 << 20), "rr");
        p
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let mut machine = Machine::new(SystemConfig::paper_table2());
        let report = simple_pipeline().run(&mut machine, 1);
        assert_eq!(report.jobs, 1);
        assert!(report.stage("fe").is_some());
        assert!(report.stage("rr").is_some());
        // The rerank stage cannot start before feature extraction ends.
        let fe = report.stage("fe").unwrap().window.1;
        let rr = report.stage("rr").unwrap().window.0;
        assert!(
            rr >= fe,
            "dependency violated: rr {rr:?} before fe end {fe:?}"
        );
    }

    #[test]
    fn batches_pipeline_for_throughput() {
        let mut m1 = Machine::new(SystemConfig::paper_table2());
        let one = simple_pipeline().run(&mut m1, 1);
        let mut m8 = Machine::new(SystemConfig::paper_table2());
        let eight = simple_pipeline().run(&mut m8, 8);
        // Eight batches must take far less than eight times one batch.
        let speedup = 8.0 * one.makespan.as_secs_f64() / eight.makespan.as_secs_f64();
        assert!(speedup > 1.5, "no cross-batch pipelining: {speedup}");
    }

    #[test]
    fn level_mapping() {
        assert_eq!(Level::Cpu.compute_level(), ComputeLevel::OnChip);
        assert_eq!(Level::NearMem.compute_level(), ComputeLevel::NearMemory);
        assert_eq!(Level::NearStor.compute_level(), ComputeLevel::NearStorage);
    }

    #[test]
    fn cpu_accelerator_rejected_at_build() {
        let mut cfg = ReachConfig::new();
        cfg.register_acc("VGG16-VU9P", Level::Cpu);
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::CpuAccelerator {
                template: "VGG16-VU9P".to_string()
            }
        );
    }

    #[test]
    fn unknown_template_rejected_at_build() {
        let mut cfg = ReachConfig::new();
        cfg.register_acc("NOT-A-KERNEL", Level::OnChip);
        let err = cfg.build().unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnknownTemplate {
                template: "NOT-A-KERNEL".to_string(),
                level: Level::OnChip
            }
        );
        assert!(err.to_string().contains("unknown template"));
    }

    #[test]
    fn unrelated_stream_binding_rejected_at_build() {
        let mut cfg = ReachConfig::new();
        let s = cfg.create_stream(Level::Cpu, Level::OnChip, StreamType::Pair, 64, 1);
        let knn = cfg.register_acc("KNN-ZCU9", Level::NearStor);
        cfg.set_arg(knn, 0, s);
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::MisplacedStream {
                template: "KNN-ZCU9".to_string(),
                level: Level::NearStor,
                src: Level::Cpu,
                dst: Level::OnChip
            }
        );
    }

    #[test]
    fn out_of_arity_slot_rejected_at_build() {
        // The CNN driver exposes three slots; slot 7 is a typo'd index
        // that used to misbind silently.
        let mut cfg = ReachConfig::new();
        let buf = cfg.create_fixed_buffer("params", Level::OnChip, 1 << 20);
        let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        cfg.set_arg(cnn, 7, buf);
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::ArgOutOfRange {
                template: "VGG16-VU9P".to_string(),
                slot: 7,
                arity: 3
            }
        );
    }

    #[test]
    fn duplicate_slot_rejected_at_build() {
        let mut cfg = ReachConfig::new();
        let buf = cfg.create_fixed_buffer("params", Level::OnChip, 1 << 20);
        let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        cfg.set_arg(cnn, 1, buf);
        cfg.set_arg(cnn, 1, buf);
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::DuplicateArg {
                template: "VGG16-VU9P".to_string(),
                slot: 1
            }
        );
    }

    #[test]
    fn hole_below_bound_slot_rejected_at_build() {
        // Binding slot 2 while slot 1 is unbound leaves a hole in the
        // driver's argument list; a clean prefix (slots 0..n unbound with
        // nothing above them) stays legal.
        let mut cfg = ReachConfig::new();
        let buf = cfg.create_fixed_buffer("params", Level::OnChip, 1 << 20);
        let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        cfg.set_arg(cnn, 0, buf);
        cfg.set_arg(cnn, 2, buf);
        assert_eq!(
            cfg.build().unwrap_err(),
            ConfigError::UnboundArg {
                template: "VGG16-VU9P".to_string(),
                slot: 1
            }
        );
    }

    #[test]
    fn zero_and_prefix_bindings_stay_legal() {
        // Work parameters can be passed at execute time, so partially
        // bound (or entirely unbound) signatures must build.
        let mut cfg = ReachConfig::new();
        cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let buf = cfg.create_fixed_buffer("db", Level::NearMem, 1 << 20);
        let gemm = cfg.register_acc("GEMM-ZCU9", Level::NearMem);
        cfg.set_arg(gemm, 0, buf);
        assert!(cfg.build().is_ok());
    }

    #[test]
    fn arg_slot_conversions() {
        assert_eq!(ArgSlot::from(3).index(), 3);
        assert_eq!(ArgSlot::new(2), ArgSlot::from(2));
        assert_eq!(ArgSlot::new(1).to_string(), "arg1");
    }

    #[test]
    fn zero_batches_is_an_empty_run_in_both_modes() {
        for mode in [ExecMode::Pipelined, ExecMode::Sequential] {
            let mut m = Machine::new(SystemConfig::paper_table2());
            let r = simple_pipeline().run_mode(&mut m, 0, mode);
            assert_eq!(r.jobs, 0, "{mode:?}");
            assert!(r.makespan.is_zero(), "{mode:?}");
            assert!(r.stages.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn validated_pipeline_runs_without_registry_lookups() {
        // The kernels captured at build time are the whole story: a job
        // builds and runs against a machine without consulting its registry.
        let mut cfg = ReachConfig::new();
        let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let mut p = Pipeline::new(cfg.build().expect("valid config"));
        p.call(cnn, TaskWork::compute(1_000_000_000), "fe");
        let mut m = Machine::new(SystemConfig::paper_table2());
        assert_eq!(p.run(&mut m, 1).jobs, 1);
    }

    #[test]
    fn cross_level_buffer_binding_is_a_transfer() {
        // A near-storage-resident database bound to an on-chip kernel is
        // legal; the GAM stages it up the hierarchy (and the run pays).
        let mut cfg = ReachConfig::new();
        let buf = cfg.create_fixed_buffer("db", Level::NearStor, 64 << 20);
        let knn = cfg.register_acc("KNN-VU9P", Level::OnChip);
        cfg.set_arg(knn, 0, buf);
        let mut p = Pipeline::new(cfg.build().expect("valid test config"));
        p.call(knn, TaskWork::gather(1_000_000, 64 << 20, 4096), "rr");
        let mut m = Machine::new(SystemConfig::paper_table2());
        let r = p.run(&mut m, 1);
        assert!(
            r.metrics.counter("gam.dmas").expect("gam.dmas") >= 1,
            "expected a GAM staging DMA"
        );
    }
}
