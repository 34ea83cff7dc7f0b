//! Analytics accelerator templates.
//!
//! Scan/filter and aggregation kernels for the on-chip Virtex part and the
//! embedded Zynq parts, registered *on top of* the paper's Table III
//! registry — the extension path Section III-A describes ("for any new
//! accelerator, once a compute kernel is carefully designed … stored as an
//! accelerator template").

use reach::{MachineBlueprint, SystemConfig, TemplateRegistry};
use reach_accel::{ComputeLevel, FpgaPart, KernelClass, KernelSpec, Utilization};
use reach_sim::Frequency;
use std::sync::OnceLock;

/// The machine every analytics experiment runs on: the paper's Table II
/// shape with the analytics kernels registered alongside the CBIR ones.
///
/// Every call returns a clone of the first one built, so all analytics
/// points share one blueprint fingerprint memo.
#[must_use]
pub fn analytics_blueprint() -> MachineBlueprint {
    static BUILT: OnceLock<MachineBlueprint> = OnceLock::new();
    BUILT
        .get_or_init(|| {
            MachineBlueprint::with_registry(SystemConfig::paper_table2(), analytics_registry())
        })
        .clone()
}

/// The Table III registry extended with the analytics kernels.
#[must_use]
pub fn analytics_registry() -> TemplateRegistry {
    let mut reg = TemplateRegistry::paper_table3();
    let vu9p = FpgaPart::vu9p();
    let zu9 = FpgaPart::zu9eg();

    // Streaming scan+filter: trivial logic, wide datapath. The embedded
    // variant is sized to drink the full device-link rate, which is the
    // whole point of pushing selection near storage.
    reg.register(KernelSpec {
        name: "SCAN-VU9P",
        class: KernelClass::Knn, // streaming-comparison family
        part: vu9p,
        level: ComputeLevel::OnChip,
        frequency: Frequency::from_mhz(273),
        utilization: Utilization::new(8, 12, 4, 18),
        power_w: 9.5,
        mac_efficiency: 0.5,
        pipeline_depth: 24,
        io_bytes_per_cycle: 128.0, // 35 GB/s: never the bottleneck on-chip
        arg_slots: 2,
    });
    for (level, power) in [
        (ComputeLevel::NearMemory, 2.1),
        (ComputeLevel::NearStorage, 2.8),
    ] {
        reg.register(KernelSpec {
            name: "SCAN-ZCU9",
            class: KernelClass::Knn,
            part: zu9,
            level,
            frequency: Frequency::from_mhz(200),
            utilization: Utilization::new(12, 16, 6, 24),
            power_w: power,
            mac_efficiency: 0.5,
            pipeline_depth: 24,
            io_bytes_per_cycle: 64.0, // 12.8 GB/s: matches one SSD
            arg_slots: 2,
        });
    }

    // Aggregation/reduction kernel (sum/min/max trees + hash probe).
    reg.register(KernelSpec {
        name: "AGG-VU9P",
        class: KernelClass::Gemm, // dense-arithmetic family
        part: vu9p,
        level: ComputeLevel::OnChip,
        frequency: Frequency::from_mhz(273),
        utilization: Utilization::new(18, 20, 30, 34),
        power_w: 13.2,
        mac_efficiency: 0.8,
        pipeline_depth: 48,
        io_bytes_per_cycle: 128.0,
        arg_slots: 2,
    });
    for (level, power) in [
        (ComputeLevel::NearMemory, 3.4),
        (ComputeLevel::NearStorage, 4.2),
    ] {
        reg.register(KernelSpec {
            name: "AGG-ZCU9",
            class: KernelClass::Gemm,
            part: zu9,
            level,
            frequency: Frequency::from_mhz(150),
            utilization: Utilization::new(22, 24, 40, 46),
            power_w: power,
            mac_efficiency: 0.8,
            pipeline_depth: 48,
            io_bytes_per_cycle: 64.0,
            arg_slots: 2,
        });
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_table3_plus_analytics() {
        let reg = analytics_registry();
        // 9 paper kernels + 2 SCAN-ZCU9 + 1 SCAN-VU9P + 2 AGG-ZCU9 + 1 AGG-VU9P.
        assert_eq!(reg.len(), 15);
        assert!(reg
            .resolve("SCAN-ZCU9", ComputeLevel::NearStorage)
            .is_some());
        assert!(reg.resolve("VGG16-VU9P", ComputeLevel::OnChip).is_some());
    }

    #[test]
    fn embedded_scan_keeps_up_with_the_device_link() {
        let reg = analytics_registry();
        let scan = reg.resolve("SCAN-ZCU9", ComputeLevel::NearStorage).unwrap();
        let rate = scan.io_rate_bytes_per_sec().unwrap();
        assert!(
            rate >= 12.0e9,
            "scan datapath {rate:.2e} below the 12 GB/s link"
        );
    }

    #[test]
    fn analytics_kernels_fit_their_parts() {
        for k in analytics_registry().iter() {
            assert!(
                k.part.fits(k.utilization),
                "{} overflows {}",
                k.name,
                k.part
            );
        }
    }
}
