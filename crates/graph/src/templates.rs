//! Graph-analytics accelerator templates.
//!
//! Frontier-traversal and rank-update kernels for the on-chip Virtex part
//! and the embedded Zynq parts, registered on top of the paper's Table III
//! registry — the same extension path the analytics case study uses. The
//! traversal kernel is sized like the FPGA graph accelerators surveyed by
//! Dann & Ritter ("Demystifying Memory Access Patterns of FPGA-Based Graph
//! Processing Accelerators"): trivial arithmetic, entirely bound by
//! irregular memory access, which is why its interesting deployments are
//! the near-data levels.

use reach::{MachineBlueprint, SystemConfig, TemplateRegistry};
use reach_accel::{ComputeLevel, FpgaPart, KernelClass, KernelSpec, Utilization};
use reach_sim::Frequency;

/// The machine every graph experiment runs on: the paper's Table II shape
/// with the graph kernels registered alongside the CBIR ones (co-run
/// scenarios schedule both workloads on this one machine).
#[must_use]
pub fn graph_blueprint() -> MachineBlueprint {
    MachineBlueprint::with_registry(SystemConfig::paper_table2(), graph_registry())
}

/// The Table III registry extended with the graph kernels.
#[must_use]
pub fn graph_registry() -> TemplateRegistry {
    let mut reg = TemplateRegistry::paper_table3();
    let vu9p = FpgaPart::vu9p();
    let zu9 = FpgaPart::zu9eg();

    // Frontier traversal: per-edge work is a compare-and-mark, so the
    // datapath is wide and shallow and the kernel lives or dies on gather
    // throughput (the opposite of CBIR's GEMM stages).
    reg.register(KernelSpec {
        name: "GTRAV-VU9P",
        class: KernelClass::Knn, // streaming-comparison family
        part: vu9p,
        level: ComputeLevel::OnChip,
        frequency: Frequency::from_mhz(273),
        utilization: Utilization::new(10, 14, 5, 20),
        power_w: 10.1,
        mac_efficiency: 0.5,
        pipeline_depth: 16,
        io_bytes_per_cycle: 128.0,
        arg_slots: 3,
    });
    for (level, power) in [
        (ComputeLevel::NearMemory, 2.3),
        (ComputeLevel::NearStorage, 3.0),
    ] {
        reg.register(KernelSpec {
            name: "GTRAV-ZCU9",
            class: KernelClass::Knn,
            part: zu9,
            level,
            frequency: Frequency::from_mhz(200),
            utilization: Utilization::new(14, 18, 7, 26),
            power_w: power,
            mac_efficiency: 0.5,
            pipeline_depth: 16,
            io_bytes_per_cycle: 64.0,
            arg_slots: 3,
        });
    }

    // Rank update: multiply-accumulate over the out-edge shares plus the
    // damped base term — dense-arithmetic family, stream-shaped over the
    // edge list with a gathered rank vector.
    reg.register(KernelSpec {
        name: "GRANK-VU9P",
        class: KernelClass::Gemm,
        part: vu9p,
        level: ComputeLevel::OnChip,
        frequency: Frequency::from_mhz(273),
        utilization: Utilization::new(16, 18, 26, 30),
        power_w: 12.4,
        mac_efficiency: 0.8,
        pipeline_depth: 40,
        io_bytes_per_cycle: 128.0,
        arg_slots: 3,
    });
    for (level, power) in [
        (ComputeLevel::NearMemory, 3.1),
        (ComputeLevel::NearStorage, 3.9),
    ] {
        reg.register(KernelSpec {
            name: "GRANK-ZCU9",
            class: KernelClass::Gemm,
            part: zu9,
            level,
            frequency: Frequency::from_mhz(150),
            utilization: Utilization::new(20, 22, 36, 42),
            power_w: power,
            mac_efficiency: 0.8,
            pipeline_depth: 40,
            io_bytes_per_cycle: 64.0,
            arg_slots: 3,
        });
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_table3_plus_graph() {
        let reg = graph_registry();
        // 9 paper kernels + 1 GTRAV-VU9P + 2 GTRAV-ZCU9 + 1 GRANK-VU9P
        // + 2 GRANK-ZCU9.
        assert_eq!(reg.len(), 15);
        assert!(reg
            .resolve("GTRAV-ZCU9", ComputeLevel::NearMemory)
            .is_some());
        assert!(reg
            .resolve("GRANK-ZCU9", ComputeLevel::NearStorage)
            .is_some());
        assert!(reg.resolve("VGG16-VU9P", ComputeLevel::OnChip).is_some());
    }

    #[test]
    fn embedded_traversal_keeps_up_with_its_medium() {
        let reg = graph_registry();
        let trav = reg.resolve("GTRAV-ZCU9", ComputeLevel::NearMemory).unwrap();
        let rate = trav.io_rate_bytes_per_sec().unwrap();
        assert!(
            rate >= 12.0e9,
            "traversal datapath {rate:.2e} below one DDR channel"
        );
    }

    /// The blueprint digest computed the way it was before it was
    /// memoized.
    fn reference_fingerprint(bp: &MachineBlueprint) -> reach::ConfigFingerprint {
        let mut b = reach_sim::FingerprintBuilder::new("reach-blueprint-v1");
        b.write_debug(bp.config());
        b.write_debug(bp.registry());
        b.write_debug(bp.presets());
        reach::ConfigFingerprint::from_builder(b)
    }

    #[test]
    fn memoized_blueprint_fingerprints_equal_the_old_digest() {
        use reach_cbir::blueprint_with;
        let blueprints = [
            MachineBlueprint::paper(),
            blueprint_with(4, 4),
            blueprint_with(1, 16),
            blueprint_with(16, 2),
            // A shape built before comes back as a clone; the memo it
            // shares must still be this shape's digest.
            blueprint_with(1, 16),
            graph_blueprint(),
            crate::co_run::corun_blueprint(),
        ];
        for bp in &blueprints {
            assert_eq!(bp.fingerprint(), reference_fingerprint(bp), "{bp:?}");
            assert_eq!(bp.fingerprint(), reference_fingerprint(bp), "{bp:?}");
        }
        assert_ne!(blueprints[2].fingerprint(), blueprints[3].fingerprint());
    }

    #[test]
    fn graph_kernels_fit_their_parts() {
        for k in graph_registry().iter() {
            assert!(
                k.part.fits(k.utilization),
                "{} overflows {}",
                k.name,
                k.part
            );
        }
    }
}
