//! Per-component energy models.
//!
//! Every model follows the same two-term shape the paper's tools produce:
//! a *static* term (idle/leakage/background power x wall-clock time) and a
//! *dynamic* term (energy per event x event count, or active power x busy
//! time). All results are joules.

use reach_sim::SimDuration;

const PJ: f64 = 1e-12;

/// FPGA accelerator energy: Table III active power while busy, a fraction of
/// it while configured but idle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccelEnergy {
    /// Active (kernel running) power in watts.
    pub active_w: f64,
    /// Idle (configured, clocked, not processing) power in watts.
    pub idle_w: f64,
}

impl AccelEnergy {
    /// Energy over a window of `makespan` during which the accelerator was
    /// busy for `busy`.
    ///
    /// # Panics
    ///
    /// Panics if `busy` exceeds `makespan`.
    #[must_use]
    pub fn energy_j(&self, busy: SimDuration, makespan: SimDuration) -> f64 {
        assert!(busy <= makespan, "busy time exceeds makespan");
        let idle = makespan - busy;
        self.active_w * busy.as_secs_f64() + self.idle_w * idle.as_secs_f64()
    }
}

/// Cache energy (CACTI-style): per-access dynamic energy plus leakage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheEnergy {
    /// Dynamic energy per access in picojoules.
    pub pj_per_access: f64,
    /// Leakage power in watts.
    pub leakage_w: f64,
}

impl CacheEnergy {
    /// Energy for `accesses` over a window of `makespan`.
    #[must_use]
    pub fn energy_j(&self, accesses: u64, makespan: SimDuration) -> f64 {
        self.pj_per_access * PJ * accesses as f64 + self.leakage_w * makespan.as_secs_f64()
    }
}

/// DRAM energy (Micron-power-calculator-style): per-activation and per-byte
/// dynamic terms plus per-DIMM background power.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DramEnergy {
    /// Energy per row activation in picojoules.
    pub pj_per_activation: f64,
    /// Read/write + I/O energy per byte in picojoules.
    pub pj_per_byte: f64,
    /// Background (refresh + standby) power per DIMM in watts.
    pub background_w_per_dimm: f64,
}

impl DramEnergy {
    /// Energy for the given event counts across `dimms` DIMMs over
    /// `makespan`.
    #[must_use]
    pub fn energy_j(
        &self,
        activations: u64,
        bytes: u64,
        dimms: usize,
        makespan: SimDuration,
    ) -> f64 {
        self.pj_per_activation * PJ * activations as f64
            + self.pj_per_byte * PJ * bytes as f64
            + self.background_w_per_dimm * dimms as f64 * makespan.as_secs_f64()
    }
}

/// NVMe SSD energy: active power while the flash array works, idle power
/// otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SsdEnergy {
    /// Active power per drive at full internal bandwidth, watts.
    pub active_w: f64,
    /// Idle power per drive, watts.
    pub idle_w: f64,
}

impl SsdEnergy {
    /// Energy of `drives` drives over `makespan`, of which the flash arrays
    /// were busy for `busy` in total (summed across drives).
    #[must_use]
    pub fn energy_j(&self, busy: SimDuration, drives: usize, makespan: SimDuration) -> f64 {
        let total = makespan.as_secs_f64() * drives as f64;
        let busy_s = busy.as_secs_f64().min(total);
        self.active_w * busy_s + self.idle_w * (total - busy_s)
    }
}

/// Interconnect energy (memory channels, NoC, AIMbus, PCIe links and
/// switch): per-byte dynamic energy plus static power for the always-on
/// PHYs/switch core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkEnergy {
    /// Dynamic energy per byte in picojoules.
    pub pj_per_byte: f64,
    /// Static power in watts.
    pub static_w: f64,
}

impl LinkEnergy {
    /// Energy for `bytes` moved over a window of `makespan`.
    #[must_use]
    pub fn energy_j(&self, bytes: u64, makespan: SimDuration) -> f64 {
        self.pj_per_byte * PJ * bytes as f64 + self.static_w * makespan.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_ms(n)
    }

    #[test]
    fn accel_energy_blends_active_and_idle() {
        let m = AccelEnergy {
            active_w: 25.0,
            idle_w: 2.5,
        };
        // 100 ms busy + 100 ms idle = 2.5 J + 0.25 J.
        let e = m.energy_j(ms(100), ms(200));
        assert!((e - 2.75).abs() < 1e-9, "{e}");
    }

    #[test]
    #[should_panic(expected = "busy time exceeds makespan")]
    fn accel_energy_validates_window() {
        let _ = AccelEnergy {
            active_w: 1.0,
            idle_w: 0.0,
        }
        .energy_j(ms(2), ms(1));
    }

    #[test]
    fn cache_energy_counts_accesses_and_leakage() {
        let m = CacheEnergy {
            pj_per_access: 600.0,
            leakage_w: 1.0,
        };
        let e = m.energy_j(1_000_000, ms(100));
        // 1e6 x 600 pJ = 0.6 mJ; leakage 0.1 J.
        assert!((e - 0.1006).abs() < 1e-6, "{e}");
    }

    #[test]
    fn dram_energy_terms() {
        let m = DramEnergy {
            pj_per_activation: 15_000.0,
            pj_per_byte: 100.0,
            background_w_per_dimm: 2.0,
        };
        let e = m.energy_j(1_000, 1 << 20, 8, ms(100));
        let expect = 1_000.0 * 15e-9 + (1u64 << 20) as f64 * 100e-12 + 16.0 * 0.1;
        assert!((e - expect).abs() < 1e-9, "{e} vs {expect}");
    }

    #[test]
    fn ssd_energy_caps_busy_at_window() {
        let m = SsdEnergy {
            active_w: 12.0,
            idle_w: 5.0,
        };
        // Fully idle: 4 drives x 5 W x 0.1 s = 2 J.
        let idle = m.energy_j(SimDuration::ZERO, 4, ms(100));
        assert!((idle - 2.0).abs() < 1e-9);
        // Busy exceeding the window is clamped (defensive against summed
        // multi-drive busy slightly overshooting).
        let clamped = m.energy_j(ms(1_000), 4, ms(100));
        assert!((clamped - 12.0 * 0.4).abs() < 1e-9);
    }

    #[test]
    fn link_energy_scales_with_bytes() {
        let m = LinkEnergy {
            pj_per_byte: 80.0,
            static_w: 0.5,
        };
        let e = m.energy_j(1_000_000_000, ms(100));
        assert!((e - (0.08 + 0.05)).abs() < 1e-9, "{e}");
    }

    #[test]
    fn ssd_energy_splits_busy_across_drives() {
        let m = SsdEnergy {
            active_w: 12.0,
            idle_w: 5.0,
        };
        // 100 ms busy out of 4 drives x 100 ms: 1.2 J active + 1.5 J idle.
        let e = m.energy_j(ms(100), 4, ms(100));
        assert!((e - 2.7).abs() < 1e-9, "{e}");
    }

    #[test]
    fn empty_window_costs_nothing() {
        let accel = AccelEnergy {
            active_w: 25.0,
            idle_w: 2.5,
        };
        let cache = CacheEnergy {
            pj_per_access: 600.0,
            leakage_w: 1.0,
        };
        let link = LinkEnergy {
            pj_per_byte: 80.0,
            static_w: 0.5,
        };
        assert_eq!(accel.energy_j(SimDuration::ZERO, SimDuration::ZERO), 0.0);
        assert_eq!(cache.energy_j(0, SimDuration::ZERO), 0.0);
        assert_eq!(link.energy_j(0, SimDuration::ZERO), 0.0);
    }
}
