//! The component-by-stage energy ledger.
//!
//! Figure 8 of the paper reports energy along two axes at once: system
//! component (accelerator, cache, DRAM, SSD, MC+interconnect, PCIe) and
//! pipeline stage (feature extraction, short-list retrieval, rerank), with a
//! compute-vs-data-movement rollup. [`EnergyLedger`] is that matrix.

use std::collections::BTreeMap;
use std::fmt;

/// The component axis of Figure 8 / Figure 13c.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SystemComponent {
    /// FPGA accelerators at any level.
    Accelerator,
    /// Shared cache.
    Cache,
    /// Main-memory DIMMs (including near-storage private buffers).
    Dram,
    /// NVMe SSDs.
    Ssd,
    /// Memory controllers, memory channels, NoC and AIMbus.
    McInterconnect,
    /// PCIe links and the host IO switch.
    Pcie,
}

impl SystemComponent {
    /// All components, in the order the paper's figures list them.
    pub const ALL: [SystemComponent; 6] = [
        SystemComponent::Accelerator,
        SystemComponent::Cache,
        SystemComponent::Dram,
        SystemComponent::Ssd,
        SystemComponent::McInterconnect,
        SystemComponent::Pcie,
    ];

    /// `true` for the component the paper counts as *compute*; everything
    /// else is data movement ("energy spent on the memory hierarchy and
    /// interconnects").
    #[must_use]
    pub fn is_compute(&self) -> bool {
        matches!(self, SystemComponent::Accelerator)
    }
}

impl fmt::Display for SystemComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SystemComponent::Accelerator => "ACC",
            SystemComponent::Cache => "Cache",
            SystemComponent::Dram => "DRAM",
            SystemComponent::Ssd => "SSD",
            SystemComponent::McInterconnect => "MC+Interconnect",
            SystemComponent::Pcie => "PCIe",
        })
    }
}

/// A component x stage energy matrix in joules.
///
/// # Example
///
/// ```
/// use reach_energy::{EnergyLedger, SystemComponent};
///
/// let mut ledger = EnergyLedger::new();
/// ledger.add(SystemComponent::Accelerator, "feature-extraction", 2.5);
/// ledger.add(SystemComponent::Dram, "feature-extraction", 1.0);
/// ledger.add(SystemComponent::Ssd, "rerank", 4.0);
/// assert_eq!(ledger.total(), 7.5);
/// assert_eq!(ledger.stage_total("rerank"), 4.0);
/// assert!((ledger.movement_fraction() - 5.0 / 7.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EnergyLedger {
    cells: BTreeMap<(SystemComponent, String), f64>,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `joules` to the (`component`, `stage`) cell.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn add(&mut self, component: SystemComponent, stage: &str, joules: f64) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "EnergyLedger::add: invalid energy {joules} for {component}/{stage}"
        );
        *self
            .cells
            .entry((component, stage.to_string()))
            .or_insert(0.0) += joules;
    }

    /// Energy in one cell.
    #[must_use]
    pub fn cell(&self, component: SystemComponent, stage: &str) -> f64 {
        self.cells
            .get(&(component, stage.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Total energy of one component across stages.
    #[must_use]
    pub fn component_total(&self, component: SystemComponent) -> f64 {
        self.cells
            .iter()
            .filter(|((c, _), _)| *c == component)
            .map(|(_, &j)| j)
            .sum()
    }

    /// Total energy of one stage across components.
    #[must_use]
    pub fn stage_total(&self, stage: &str) -> f64 {
        self.cells
            .iter()
            .filter(|((_, s), _)| s == stage)
            .map(|(_, &j)| j)
            .sum()
    }

    /// Grand total in joules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.cells.values().sum()
    }

    /// Fraction of total energy spent on data movement (everything except
    /// the accelerators) — the headline 79% of Figure 8.
    #[must_use]
    pub fn movement_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        let compute: f64 = SystemComponent::ALL
            .iter()
            .filter(|c| c.is_compute())
            .map(|c| self.component_total(*c))
            .sum();
        (total - compute) / total
    }

    /// The stage names present, sorted.
    #[must_use]
    pub fn stages(&self) -> Vec<String> {
        let mut v: Vec<String> = self.cells.keys().map(|(_, s)| s.clone()).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Every `(component, stage, joules)` cell in deterministic
    /// (component, stage) order — the serialization walk: feeding these
    /// triples back through [`EnergyLedger::add`] reconstructs the ledger
    /// bit-exactly (cells are only ever built by summing non-negative
    /// finite values, so re-adding each final sum once is lossless).
    pub fn cells(&self) -> impl Iterator<Item = (SystemComponent, &str, f64)> {
        self.cells.iter().map(|((c, s), &j)| (*c, s.as_str(), j))
    }

    /// Number of populated cells.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Merges another ledger into this one (summing overlapping cells).
    pub fn merge(&mut self, other: &EnergyLedger) {
        for ((c, s), &j) in &other.cells {
            self.add(*c, s, j);
        }
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<18} {:>10}  breakdown", "component", "J")?;
        for c in SystemComponent::ALL {
            let total = self.component_total(c);
            if total == 0.0 {
                continue;
            }
            write!(f, "{:<18} {:>10.3}  ", c.to_string(), total)?;
            for stage in self.stages() {
                let j = self.cell(c, &stage);
                if j > 0.0 {
                    write!(f, "{stage}={j:.3} ")?;
                }
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "total {:.3} J, data movement {:.1}%",
            self.total(),
            self.movement_fraction() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnergyLedger {
        let mut l = EnergyLedger::new();
        l.add(SystemComponent::Accelerator, "fe", 2.0);
        l.add(SystemComponent::Accelerator, "rr", 1.0);
        l.add(SystemComponent::Dram, "fe", 3.0);
        l.add(SystemComponent::Ssd, "rr", 6.0);
        l
    }

    #[test]
    fn totals_add_up() {
        let l = sample();
        assert_eq!(l.total(), 12.0);
        assert_eq!(l.component_total(SystemComponent::Accelerator), 3.0);
        assert_eq!(l.stage_total("fe"), 5.0);
        assert_eq!(l.stage_total("rr"), 7.0);
        assert_eq!(l.cell(SystemComponent::Dram, "fe"), 3.0);
        assert_eq!(l.cell(SystemComponent::Dram, "rr"), 0.0);
    }

    #[test]
    fn movement_fraction_excludes_accelerators() {
        let l = sample();
        assert!((l.movement_fraction() - 9.0 / 12.0).abs() < 1e-12);
        assert_eq!(EnergyLedger::new().movement_fraction(), 0.0);
    }

    #[test]
    fn add_accumulates() {
        let mut l = EnergyLedger::new();
        l.add(SystemComponent::Pcie, "s", 1.5);
        l.add(SystemComponent::Pcie, "s", 2.5);
        assert_eq!(l.cell(SystemComponent::Pcie, "s"), 4.0);
    }

    #[test]
    fn merge_sums_cells() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.total(), 24.0);
    }

    #[test]
    fn stages_sorted_unique() {
        let l = sample();
        assert_eq!(l.stages(), vec!["fe".to_string(), "rr".to_string()]);
    }

    #[test]
    fn cells_round_trip_bit_exactly() {
        let l = sample();
        assert_eq!(l.cell_count(), 4);
        let mut rebuilt = EnergyLedger::new();
        for (c, s, j) in l.cells() {
            rebuilt.add(c, s, j);
        }
        assert_eq!(rebuilt.cell_count(), l.cell_count());
        for ((c, s, a), (c2, s2, b)) in l.cells().zip(rebuilt.cells()) {
            assert_eq!((c, s), (c2, s2));
            assert_eq!(a.to_bits(), b.to_bits(), "cell {c}/{s} drifted");
        }
    }

    #[test]
    #[should_panic(expected = "invalid energy")]
    fn negative_energy_rejected() {
        EnergyLedger::new().add(SystemComponent::Dram, "x", -1.0);
    }

    #[test]
    fn display_mentions_components_and_total() {
        let text = sample().to_string();
        assert!(text.contains("ACC") && text.contains("SSD"));
        assert!(text.contains("data movement 75.0%"));
    }

    #[test]
    fn only_the_accelerator_counts_as_compute() {
        let compute: Vec<_> = SystemComponent::ALL
            .iter()
            .filter(|c| c.is_compute())
            .collect();
        assert_eq!(compute, vec![&SystemComponent::Accelerator]);
    }

    #[test]
    fn component_labels_follow_the_figure_order() {
        let labels: Vec<String> = SystemComponent::ALL
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            labels,
            ["ACC", "Cache", "DRAM", "SSD", "MC+Interconnect", "PCIe"]
        );
    }

    #[test]
    #[should_panic(expected = "invalid energy")]
    fn non_finite_energy_rejected() {
        EnergyLedger::new().add(SystemComponent::Ssd, "x", f64::NAN);
    }

    #[test]
    fn display_skips_components_with_no_energy() {
        let mut l = EnergyLedger::new();
        l.add(SystemComponent::Dram, "rr", 2.0);
        let text = l.to_string();
        assert!(text.contains("DRAM") && text.contains("rr=2.000"));
        assert!(!text.contains("ACC") && !text.contains("PCIe"));
        assert!(text.contains("total 2.000 J, data movement 100.0%"));
    }

    #[test]
    fn merging_an_empty_ledger_changes_nothing() {
        let mut l = sample();
        l.merge(&EnergyLedger::new());
        assert_eq!(l.total(), 12.0);
        assert_eq!(l.cell_count(), 4);
        let mut empty = EnergyLedger::new();
        empty.merge(&sample());
        assert_eq!(empty.cell(SystemComponent::Ssd, "rr"), 6.0);
    }
}
