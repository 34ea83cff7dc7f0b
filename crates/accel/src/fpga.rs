//! FPGA parts and resource accounting.

use std::fmt;

/// Programmable-fabric resource counts of an FPGA part.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Resources {
    /// Flip-flops.
    pub ff: u64,
    /// Look-up tables.
    pub lut: u64,
    /// DSP slices.
    pub dsp: u64,
    /// Block RAM tiles (36 Kb each).
    pub bram36: u64,
}

/// Fraction of each resource class a kernel occupies, in percent
/// (the unit the paper's Table III reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Utilization {
    /// Flip-flop utilization, percent.
    pub ff: u8,
    /// LUT utilization, percent.
    pub lut: u8,
    /// DSP utilization, percent.
    pub dsp: u8,
    /// BRAM utilization, percent.
    pub bram: u8,
}

impl Utilization {
    /// Creates a utilization vector.
    ///
    /// # Panics
    ///
    /// Panics if any component exceeds 100%.
    #[must_use]
    pub fn new(ff: u8, lut: u8, dsp: u8, bram: u8) -> Self {
        assert!(
            ff <= 100 && lut <= 100 && dsp <= 100 && bram <= 100,
            "Utilization: components must be <= 100%"
        );
        Utilization { ff, lut, dsp, bram }
    }

    /// The largest component — the resource class that limits placement.
    #[must_use]
    pub fn peak(&self) -> u8 {
        self.ff.max(self.lut).max(self.dsp).max(self.bram)
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(ff {}%, lut {}%, dsp {}%, bram {}%)",
            self.ff, self.lut, self.dsp, self.bram
        )
    }
}

/// An FPGA part: a named resource vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FpgaPart {
    /// Marketing name, e.g. `"XCVU9P"`.
    pub name: &'static str,
    /// Fabric resources.
    pub resources: Resources,
}

impl FpgaPart {
    /// Xilinx Virtex UltraScale+ XCVU9P — the on-chip accelerator fabric.
    #[must_use]
    pub fn vu9p() -> Self {
        FpgaPart {
            name: "XCVU9P",
            resources: Resources {
                ff: 2_364_480,
                lut: 1_182_240,
                dsp: 6_840,
                bram36: 2_160,
            },
        }
    }

    /// Xilinx Zynq UltraScale+ ZU9EG — the embedded near-memory /
    /// near-storage fabric.
    #[must_use]
    pub fn zu9eg() -> Self {
        FpgaPart {
            name: "ZU9EG",
            resources: Resources {
                ff: 548_160,
                lut: 274_080,
                dsp: 2_520,
                bram36: 912,
            },
        }
    }

    /// Number of DSP slices a kernel with the given utilization occupies.
    #[must_use]
    pub fn dsp_used(&self, util: Utilization) -> u64 {
        self.resources.dsp * u64::from(util.dsp) / 100
    }

    /// `true` when a kernel with utilization `util` fits on this part
    /// (every component at or below 100% — Table III utilizations are
    /// already relative to the part).
    #[must_use]
    pub fn fits(&self, util: Utilization) -> bool {
        util.peak() <= 100
    }
}

impl fmt::Display for FpgaPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn part_resource_ratios() {
        let big = FpgaPart::vu9p();
        let small = FpgaPart::zu9eg();
        // The on-chip part is roughly 2.7x the embedded part in DSPs —
        // the asymmetry the compute hierarchy trades on.
        let ratio = big.resources.dsp as f64 / small.resources.dsp as f64;
        assert!(ratio > 2.5 && ratio < 3.0, "dsp ratio {ratio}");
    }

    #[test]
    fn dsp_used_scales_with_utilization() {
        let part = FpgaPart::vu9p();
        let util = Utilization::new(36, 81, 78, 42);
        assert_eq!(part.dsp_used(util), 6_840 * 78 / 100);
    }

    #[test]
    fn peak_picks_binding_resource() {
        let util = Utilization::new(24, 27, 56, 77);
        assert_eq!(util.peak(), 77);
    }

    #[test]
    #[should_panic(expected = "<= 100%")]
    fn over_100_percent_rejected() {
        let _ = Utilization::new(10, 101, 10, 10);
    }

    #[test]
    fn display_formats() {
        let util = Utilization::new(10, 10, 10, 22);
        assert_eq!(util.to_string(), "(ff 10%, lut 10%, dsp 10%, bram 22%)");
        assert_eq!(FpgaPart::vu9p().to_string(), "XCVU9P");
    }

    #[test]
    fn full_utilization_still_fits() {
        let util = Utilization::new(100, 100, 100, 100);
        assert_eq!(util.peak(), 100);
        assert!(FpgaPart::zu9eg().fits(util));
        // Hand-built vectors past 100% do not.
        let over = Utilization {
            ff: 0,
            lut: 0,
            dsp: 101,
            bram: 0,
        };
        assert!(!FpgaPart::zu9eg().fits(over));
    }

    #[test]
    fn dsp_used_rounds_down() {
        // 2,520 x 38% = 957.6 slices: a partial slice is not usable.
        let util = Utilization::new(0, 0, 38, 0);
        assert_eq!(FpgaPart::zu9eg().dsp_used(util), 957);
        assert_eq!(FpgaPart::zu9eg().dsp_used(Utilization::new(0, 0, 0, 0)), 0);
    }
}
