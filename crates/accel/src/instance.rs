//! Accelerator instances: a physical FPGA slot in the hierarchy.

use crate::kernel::{ComputeLevel, KernelSpec};
use reach_sim::{Reservation, SerialResource, SimDuration, SimTime};
use std::fmt;

/// Identifies one accelerator slot in the machine: its level and its index
/// within that level (DIMM number for near-memory, SSD number for
/// near-storage, always 0 on-chip).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AcceleratorId {
    /// Hierarchy level.
    pub level: ComputeLevel,
    /// Index within the level.
    pub index: usize,
}

impl fmt::Display for AcceleratorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.level, self.index)
    }
}

/// Busy-time and task statistics of one accelerator slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AcceleratorStats {
    /// Tasks executed.
    pub tasks: u64,
    /// Reconfigurations performed.
    pub reconfigurations: u64,
}

/// One reconfigurable accelerator slot.
///
/// An `Accelerator` owns a busy-until calendar (tasks on the same slot
/// serialize), the currently loaded kernel, and a partial-reconfiguration
/// delay billed whenever a different kernel is swapped in. Today's FPGAs
/// swap partial bitstreams in sub-millisecond time (the paper cites the
/// Versal ACAP and deliberately ignores the delay in its baseline); the
/// default here is 500 us and can be set to zero to match the paper exactly.
///
/// # Example
///
/// ```
/// use reach_accel::{Accelerator, AcceleratorId, ComputeLevel, TemplateRegistry};
/// use reach_sim::{SimTime, SimDuration};
///
/// let registry = TemplateRegistry::paper_table3();
/// let kernel = registry.get("VGG16-VU9P").unwrap();
/// let mut acc = Accelerator::new(
///     AcceleratorId { level: ComputeLevel::OnChip, index: 0 },
///     SimDuration::ZERO, // reprogramming delay ignored, as in the paper
/// );
/// let ready = acc.load(SimTime::ZERO, kernel.clone());
/// let run = acc.run(ready, kernel.compute_time(1_000_000_000));
/// assert!(run.complete > ready);
/// ```
#[derive(Clone, Debug)]
pub struct Accelerator {
    id: AcceleratorId,
    loaded: Option<KernelSpec>,
    engine: SerialResource,
    reconfig_delay: SimDuration,
    stats: AcceleratorStats,
}

impl Accelerator {
    /// Creates an empty (unconfigured) slot.
    #[must_use]
    pub fn new(id: AcceleratorId, reconfig_delay: SimDuration) -> Self {
        Accelerator {
            id,
            loaded: None,
            engine: SerialResource::new(),
            reconfig_delay,
            stats: AcceleratorStats::default(),
        }
    }

    /// The slot identifier.
    #[must_use]
    pub fn id(&self) -> AcceleratorId {
        self.id
    }

    /// The currently loaded kernel, if any.
    #[must_use]
    pub fn loaded(&self) -> Option<&KernelSpec> {
        self.loaded.as_ref()
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &AcceleratorStats {
        &self.stats
    }

    /// Loads `kernel` onto the slot, billing the partial-reconfiguration
    /// delay if a *different* kernel was resident. Returns when the slot is
    /// ready to run.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was synthesized for a different hierarchy level —
    /// a bitstream for the on-chip Virtex part cannot configure an embedded
    /// Zynq module.
    pub fn load(&mut self, now: SimTime, kernel: KernelSpec) -> SimTime {
        assert_eq!(
            kernel.level, self.id.level,
            "Accelerator::load: kernel {} targets {} but slot {} is {}",
            kernel.name, kernel.level, self.id, self.id.level
        );
        let same = self.loaded.as_ref().is_some_and(|k| k.name == kernel.name);
        if same {
            return now.max(self.engine.free_at());
        }
        self.stats.reconfigurations += 1;
        let res = self.engine.reserve(now, self.reconfig_delay);
        self.loaded = Some(kernel);
        res.ready
    }

    /// Runs one task occupying the engine for `duration` (computed by the
    /// caller from the kernel model and the data-path time).
    ///
    /// # Panics
    ///
    /// Panics if no kernel is loaded.
    pub fn run(&mut self, now: SimTime, duration: SimDuration) -> Reservation {
        assert!(
            self.loaded.is_some(),
            "Accelerator::run: no kernel loaded on {}",
            self.id
        );
        self.stats.tasks += 1;
        self.engine.reserve(now, duration)
    }

    /// When the slot next becomes free.
    #[must_use]
    pub fn free_at(&self) -> SimTime {
        self.engine.free_at()
    }

    /// Total busy time (drives active-power energy billing).
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.engine.busy_time()
    }

    /// Active power of the loaded kernel in watts (0 when unconfigured).
    #[must_use]
    pub fn active_power_w(&self) -> f64 {
        self.loaded.as_ref().map_or(0.0, |k| k.power_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TemplateRegistry;

    fn slot(level: ComputeLevel) -> Accelerator {
        Accelerator::new(AcceleratorId { level, index: 0 }, SimDuration::from_us(500))
    }

    #[test]
    fn load_bills_reconfiguration_once() {
        let reg = TemplateRegistry::paper_table3();
        let k = *reg.get("VGG16-VU9P").unwrap();
        let mut acc = slot(ComputeLevel::OnChip);
        let r1 = acc.load(SimTime::ZERO, k);
        assert_eq!(r1, SimTime::ZERO + SimDuration::from_us(500));
        // Reloading the same kernel is free.
        let r2 = acc.load(r1, k);
        assert_eq!(r2, r1);
        assert_eq!(acc.stats().reconfigurations, 1);
    }

    #[test]
    fn swapping_kernels_bills_again() {
        let reg = TemplateRegistry::paper_table3();
        let mut acc = slot(ComputeLevel::OnChip);
        acc.load(SimTime::ZERO, *reg.get("VGG16-VU9P").unwrap());
        acc.load(SimTime::ZERO, *reg.get("GEMM-VU9P").unwrap());
        assert_eq!(acc.stats().reconfigurations, 2);
        assert_eq!(acc.loaded().unwrap().name, "GEMM-VU9P");
    }

    #[test]
    fn tasks_serialize_on_one_slot() {
        let reg = TemplateRegistry::paper_table3();
        let mut acc = slot(ComputeLevel::OnChip);
        let t0 = acc.load(SimTime::ZERO, *reg.get("KNN-VU9P").unwrap());
        let a = acc.run(t0, SimDuration::from_ms(2));
        let b = acc.run(t0, SimDuration::from_ms(2));
        assert_eq!(b.start, a.ready);
        assert_eq!(acc.stats().tasks, 2);
        assert_eq!(
            acc.busy_time(),
            SimDuration::from_ms(4) + SimDuration::from_us(500)
        );
    }

    #[test]
    #[should_panic(expected = "targets")]
    fn level_mismatch_rejected() {
        let reg = TemplateRegistry::paper_table3();
        let mut acc = slot(ComputeLevel::NearMemory);
        acc.load(SimTime::ZERO, *reg.get("VGG16-VU9P").unwrap());
    }

    #[test]
    #[should_panic(expected = "no kernel loaded")]
    fn run_requires_kernel() {
        let mut acc = slot(ComputeLevel::OnChip);
        acc.run(SimTime::ZERO, SimDuration::from_ms(1));
    }

    #[test]
    fn id_display() {
        let id = AcceleratorId {
            level: ComputeLevel::NearStorage,
            index: 3,
        };
        assert_eq!(id.to_string(), "near-storage[3]");
    }

    #[test]
    fn active_power_follows_loaded_kernel() {
        let reg = TemplateRegistry::paper_table3();
        let mut acc = slot(ComputeLevel::OnChip);
        assert_eq!(acc.active_power_w(), 0.0);
        acc.load(SimTime::ZERO, *reg.get("VGG16-VU9P").unwrap());
        assert!((acc.active_power_w() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn new_slot_is_idle_and_unconfigured() {
        let acc = slot(ComputeLevel::NearMemory);
        assert_eq!(
            acc.id(),
            AcceleratorId {
                level: ComputeLevel::NearMemory,
                index: 0
            }
        );
        assert!(acc.loaded().is_none());
        assert_eq!(acc.free_at(), SimTime::ZERO);
        assert_eq!(acc.busy_time(), SimDuration::ZERO);
        assert_eq!(*acc.stats(), AcceleratorStats::default());
    }

    #[test]
    fn swap_waits_for_the_running_task() {
        let reg = TemplateRegistry::paper_table3();
        let mut acc = slot(ComputeLevel::OnChip);
        let t0 = acc.load(SimTime::ZERO, *reg.get("KNN-VU9P").unwrap());
        let task = acc.run(t0, SimDuration::from_ms(2));
        // Reloading the resident kernel returns when the slot frees up.
        assert_eq!(
            acc.load(SimTime::ZERO, *reg.get("KNN-VU9P").unwrap()),
            task.ready
        );
        // Swapping in a different one reconfigures after the task.
        let swapped = acc.load(SimTime::ZERO, *reg.get("GEMM-VU9P").unwrap());
        assert_eq!(swapped, task.ready + SimDuration::from_us(500));
    }

    #[test]
    fn zero_reconfiguration_delay_is_free_but_counted() {
        let reg = TemplateRegistry::paper_table3();
        let mut acc = Accelerator::new(
            AcceleratorId {
                level: ComputeLevel::OnChip,
                index: 0,
            },
            SimDuration::ZERO,
        );
        let now = SimTime::ZERO + SimDuration::from_us(7);
        assert_eq!(acc.load(now, *reg.get("VGG16-VU9P").unwrap()), now);
        assert_eq!(acc.load(now, *reg.get("GEMM-VU9P").unwrap()), now);
        assert_eq!(acc.stats().reconfigurations, 2);
        assert_eq!(acc.busy_time(), SimDuration::ZERO);
    }
}
