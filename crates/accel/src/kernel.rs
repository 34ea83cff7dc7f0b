//! Kernel specifications and the MAC-rate timing model.
//!
//! The paper extracts "kernel frequency, initiation interval, pipeline depth
//! and iterations" from HLS synthesis reports and plugs them into its
//! simulator. We reconstruct the same information from the published
//! Table III (utilization, frequency, power): a kernel's sustained rate is
//!
//! ```text
//! macs_per_cycle = dsp_slices x dsp_utilization x mac_efficiency
//! ```
//!
//! where `mac_efficiency` captures how much of the occupied DSP fabric does
//! useful multiply-accumulates each cycle (systolic CNN arrays come close to
//! 1.0; latency-bound kernels sit lower). Pipeline fill is billed through an
//! explicit `pipeline_depth`.

use crate::fpga::{FpgaPart, Utilization};
use reach_sim::{Frequency, SimDuration};
use std::fmt;

/// Which level of the hierarchy an accelerator sits at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComputeLevel {
    /// Cache-coherent on-chip accelerator.
    OnChip,
    /// Accelerator-interposed memory (one per DIMM).
    NearMemory,
    /// SSD-attached accelerator (one per drive).
    NearStorage,
}

impl ComputeLevel {
    /// All levels, in hierarchy order.
    pub const ALL: [ComputeLevel; 3] = [
        ComputeLevel::OnChip,
        ComputeLevel::NearMemory,
        ComputeLevel::NearStorage,
    ];
}

impl fmt::Display for ComputeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ComputeLevel::OnChip => "on-chip",
            ComputeLevel::NearMemory => "near-memory",
            ComputeLevel::NearStorage => "near-storage",
        })
    }
}

/// The algorithmic family of a kernel (the paper designs one of each per
/// FPGA part).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Convolutional neural network (feature extraction).
    Cnn,
    /// General matrix-matrix multiplication (short-list retrieval).
    Gemm,
    /// K-nearest-neighbours distance + partial sort (rerank).
    Knn,
}

impl fmt::Display for KernelClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelClass::Cnn => "CNN",
            KernelClass::Gemm => "GeMM",
            KernelClass::Knn => "KNN",
        })
    }
}

/// A synthesized kernel: everything the simulator needs to time and power
/// one accelerator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelSpec {
    /// Template name, e.g. `"VGG16-VU9P"`.
    pub name: &'static str,
    /// Algorithmic family.
    pub class: KernelClass,
    /// Target part.
    pub part: FpgaPart,
    /// Hierarchy level this template is synthesized for.
    pub level: ComputeLevel,
    /// Post-route clock.
    pub frequency: Frequency,
    /// Resource utilization (Table III).
    pub utilization: Utilization,
    /// Active power in watts (Table III; near-memory and near-storage
    /// variants of the same Zynq kernel differ because of the DRAM buffer).
    pub power_w: f64,
    /// Useful MACs per occupied DSP per cycle.
    pub mac_efficiency: f64,
    /// Pipeline depth in cycles (fill latency billed once per task).
    pub pipeline_depth: u64,
    /// Width of the kernel's streaming datapath in bytes consumed per cycle
    /// (0 = the datapath never limits ingest). For streaming kernels (KNN)
    /// this is the binding constraint the paper observes: a narrow embedded
    /// datapath caps how fast the kernel can drink from its data medium.
    pub io_bytes_per_cycle: f64,
    /// Number of argument slots the kernel's driver signature exposes —
    /// the arity `SetArg` calls are validated against.
    pub arg_slots: usize,
}

impl KernelSpec {
    /// Sustained multiply-accumulate rate in MACs per second.
    #[must_use]
    pub fn macs_per_sec(&self) -> f64 {
        let dsp = self.part.dsp_used(self.utilization) as f64;
        dsp * self.mac_efficiency * self.frequency.as_hz() as f64
    }

    /// Time to execute `macs` multiply-accumulates, including one pipeline
    /// fill.
    ///
    /// # Panics
    ///
    /// Panics if the kernel has no usable DSP fabric.
    #[must_use]
    pub fn compute_time(&self, macs: u64) -> SimDuration {
        let rate = self.macs_per_sec();
        assert!(
            rate > 0.0,
            "KernelSpec::compute_time: {} has no DSP fabric",
            self.name
        );
        let fill = self.frequency.cycles(self.pipeline_depth);
        fill + SimDuration::from_secs_f64(macs as f64 / rate)
    }

    /// The streaming rate at which this kernel can *consume* input bytes,
    /// given `macs_per_byte` arithmetic intensity — the lesser of the
    /// MAC-rate bound and the datapath-width bound. Used to decide whether a
    /// stage is compute- or bandwidth-bound.
    #[must_use]
    pub fn consume_bytes_per_sec(&self, macs_per_byte: f64) -> f64 {
        assert!(macs_per_byte > 0.0, "arithmetic intensity must be positive");
        let mac_bound = self.macs_per_sec() / macs_per_byte;
        match self.io_rate_bytes_per_sec() {
            Some(io) => mac_bound.min(io),
            None => mac_bound,
        }
    }

    /// The datapath ingest rate in bytes/s, or `None` when unbounded.
    #[must_use]
    pub fn io_rate_bytes_per_sec(&self) -> Option<f64> {
        if self.io_bytes_per_cycle > 0.0 {
            Some(self.io_bytes_per_cycle * self.frequency.as_hz() as f64)
        } else {
            None
        }
    }
}

impl fmt::Display for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} on {} @{} {}W]",
            self.name, self.class, self.part, self.frequency, self.power_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vu9p_cnn() -> KernelSpec {
        KernelSpec {
            name: "VGG16-VU9P",
            class: KernelClass::Cnn,
            part: FpgaPart::vu9p(),
            level: ComputeLevel::OnChip,
            frequency: Frequency::from_mhz(273),
            utilization: Utilization::new(36, 81, 78, 42),
            power_w: 25.0,
            mac_efficiency: 0.273,
            pipeline_depth: 120,
            io_bytes_per_cycle: 0.0,
            arg_slots: 3,
        }
    }

    fn zu9_cnn() -> KernelSpec {
        KernelSpec {
            name: "VGG16-ZCU9",
            class: KernelClass::Cnn,
            part: FpgaPart::zu9eg(),
            level: ComputeLevel::NearMemory,
            frequency: Frequency::from_mhz(200),
            utilization: Utilization::new(11, 31, 38, 36),
            power_w: 5.19,
            mac_efficiency: 0.273,
            pipeline_depth: 120,
            io_bytes_per_cycle: 0.0,
            arg_slots: 3,
        }
    }

    #[test]
    fn onchip_cnn_is_7_to_10x_faster_than_embedded() {
        // The paper (Section VI-B): a single on-chip CNN instance is 7-10x
        // faster than a single near-memory/near-storage instance.
        let ratio = vu9p_cnn().macs_per_sec() / zu9_cnn().macs_per_sec();
        assert!(ratio > 7.0 && ratio < 10.0, "speed ratio {ratio}");
    }

    #[test]
    fn compute_time_scales_with_macs() {
        let k = vu9p_cnn();
        let one = k.compute_time(1_000_000_000);
        let ten = k.compute_time(10_000_000_000);
        let ratio = ten.as_secs_f64() / one.as_secs_f64();
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn pipeline_fill_billed_once() {
        let k = vu9p_cnn();
        let fill = k.frequency.cycles(k.pipeline_depth);
        assert_eq!(k.compute_time(0), fill);
    }

    #[test]
    fn consume_rate_inverts_intensity() {
        let k = vu9p_cnn();
        let half = k.consume_bytes_per_sec(2.0);
        let quarter = k.consume_bytes_per_sec(4.0);
        assert!((half / quarter - 2.0).abs() < 1e-9);
    }

    #[test]
    fn level_display_and_order() {
        assert_eq!(ComputeLevel::OnChip.to_string(), "on-chip");
        assert_eq!(ComputeLevel::ALL.len(), 3);
        assert!(ComputeLevel::OnChip < ComputeLevel::NearStorage);
    }

    #[test]
    fn spec_display_is_informative() {
        let s = vu9p_cnn().to_string();
        assert!(s.contains("VGG16-VU9P") && s.contains("273MHz") && s.contains("25"));
    }

    #[test]
    fn unbounded_datapath_leaves_the_mac_bound() {
        let k = vu9p_cnn();
        assert_eq!(k.io_rate_bytes_per_sec(), None);
        assert_eq!(k.consume_bytes_per_sec(4.0), k.macs_per_sec() / 4.0);
    }

    #[test]
    fn narrow_datapath_caps_the_consume_rate() {
        let k = KernelSpec {
            io_bytes_per_cycle: 8.0,
            ..zu9_cnn()
        };
        // 8 B/cycle at 200 MHz.
        let io = k.io_rate_bytes_per_sec().unwrap();
        assert_eq!(io, 1.6e9);
        // Low intensity: the datapath binds. High intensity: the MACs do.
        assert_eq!(k.consume_bytes_per_sec(1e-3), io);
        let heavy = 1e6;
        assert_eq!(k.consume_bytes_per_sec(heavy), k.macs_per_sec() / heavy);
    }

    #[test]
    #[should_panic(expected = "arithmetic intensity must be positive")]
    fn zero_intensity_rejected() {
        let _ = vu9p_cnn().consume_bytes_per_sec(0.0);
    }

    #[test]
    #[should_panic(expected = "has no DSP fabric")]
    fn kernel_without_dsps_cannot_be_timed() {
        let k = KernelSpec {
            utilization: Utilization::new(10, 10, 0, 10),
            ..vu9p_cnn()
        };
        let _ = k.compute_time(1);
    }

    #[test]
    fn class_labels() {
        assert_eq!(KernelClass::Cnn.to_string(), "CNN");
        assert_eq!(KernelClass::Gemm.to_string(), "GeMM");
        assert_eq!(KernelClass::Knn.to_string(), "KNN");
        assert_eq!(ComputeLevel::NearMemory.to_string(), "near-memory");
        assert_eq!(ComputeLevel::NearStorage.to_string(), "near-storage");
    }
}
