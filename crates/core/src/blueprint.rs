//! Immutable machine blueprints.
//!
//! A [`MachineBlueprint`] captures everything needed to build a
//! [`Machine`] — the [`SystemConfig`], the kernel [`TemplateRegistry`] and
//! the [`EnergyPresets`] — as a cheap-to-clone value. Experiments describe
//! the machine once and call [`MachineBlueprint::instantiate`] per run,
//! which is what makes fan-out across threads safe: each run owns a fresh
//! `Machine`, while the blueprint (and the `Arc`-shared registry inside
//! it) is shared read-only.
//!
//! A blueprint's [`fingerprint`](MachineBlueprint::fingerprint) is computed
//! once and memoized in a cell its clones share, so a renderer that clones
//! one blueprint into every point pays for one digest, not one per point.

use crate::config::SystemConfig;
use crate::fingerprint::ConfigFingerprint;
use crate::machine::Machine;
use reach_accel::TemplateRegistry;
use reach_energy::EnergyPresets;
use reach_sim::FingerprintBuilder;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An immutable recipe for building [`Machine`]s.
///
/// ```
/// use reach::{MachineBlueprint, SystemConfig};
///
/// let blueprint = MachineBlueprint::new(SystemConfig::paper_table2());
/// let a = blueprint.instantiate();
/// let b = blueprint.instantiate(); // independent machine, same shape
/// assert_eq!(a.config().onchip_accelerators, b.config().onchip_accelerators);
/// ```
#[derive(Clone)]
pub struct MachineBlueprint {
    cfg: SystemConfig,
    registry: Arc<TemplateRegistry>,
    presets: EnergyPresets,
    /// Memoized [`MachineBlueprint::fingerprint`], shared by clones. Every
    /// way of deriving a blueprint with different parts starts a fresh one.
    fingerprint: Arc<OnceLock<ConfigFingerprint>>,
}

/// The three parts only: the memo cell is a cache, not part of the recipe.
impl fmt::Debug for MachineBlueprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MachineBlueprint")
            .field("cfg", &self.cfg)
            .field("registry", &self.registry)
            .field("presets", &self.presets)
            .finish()
    }
}

impl MachineBlueprint {
    /// A blueprint with the paper's Table III template registry and
    /// Table IV energy presets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (see
    /// [`SystemConfig::validate`]).
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        Self::with_registry(cfg, TemplateRegistry::paper_table3())
    }

    /// The paper's Table II machine with default registry and presets.
    #[must_use]
    pub fn paper() -> Self {
        Self::new(SystemConfig::paper_table2())
    }

    /// A blueprint with a custom template registry (for user kernels).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    #[must_use]
    pub fn with_registry(cfg: SystemConfig, registry: TemplateRegistry) -> Self {
        Self::with_shared_registry(cfg, Arc::new(registry))
    }

    /// A blueprint sharing an already-`Arc`'d registry (avoids cloning the
    /// template table when many blueprints differ only in config).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate.
    #[must_use]
    pub fn with_shared_registry(cfg: SystemConfig, registry: Arc<TemplateRegistry>) -> Self {
        cfg.validate();
        MachineBlueprint {
            cfg,
            registry,
            presets: EnergyPresets::paper_table4(),
            fingerprint: Arc::default(),
        }
    }

    /// A copy with the configuration adjusted by `adjust` — the idiom for
    /// ablation sweeps that vary one knob around a base blueprint.
    ///
    /// # Panics
    ///
    /// Panics if the adjusted configuration is degenerate.
    #[must_use]
    pub fn map_config(&self, adjust: impl FnOnce(&mut SystemConfig)) -> Self {
        let mut next = self.clone();
        adjust(&mut next.cfg);
        next.cfg.validate();
        next.fingerprint = Arc::default();
        next
    }

    /// The machine configuration this blueprint builds.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The template registry this blueprint builds with.
    #[must_use]
    pub fn registry(&self) -> &TemplateRegistry {
        &self.registry
    }

    /// The energy presets this blueprint builds with.
    #[must_use]
    pub fn presets(&self) -> &EnergyPresets {
        &self.presets
    }

    /// Builds a fresh machine. Every call returns an independent runtime;
    /// the blueprint itself is never consumed or mutated.
    #[must_use]
    pub fn instantiate(&self) -> Machine {
        Machine::assemble(self.cfg.clone(), Arc::clone(&self.registry), self.presets)
    }

    /// Canonical digest of the machine recipe: every [`SystemConfig`] knob
    /// (including nested component configs), the full template registry
    /// and the energy presets. Two blueprints with equal fingerprints
    /// instantiate machines that simulate identically.
    ///
    /// The three parts are plain-data structs with derived `Debug`, so the
    /// digest covers every field they have — including ones added after
    /// this method was written. Formatting them is the expensive part, so
    /// the digest is computed on the first call and replayed from a memo
    /// that clones share.
    #[must_use]
    pub fn fingerprint(&self) -> ConfigFingerprint {
        *self.fingerprint.get_or_init(|| {
            let mut b = FingerprintBuilder::new("reach-blueprint-v1");
            b.write_debug(&self.cfg);
            b.write_debug(&*self.registry);
            b.write_debug(&self.presets);
            ConfigFingerprint::from_builder(b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiations_are_independent() {
        let bp = MachineBlueprint::paper();
        let mut a = bp.instantiate();
        let b = bp.instantiate();
        a.enable_trace();
        // `b` and the blueprint are unaffected by mutating `a`.
        assert_eq!(
            b.config().onchip_accelerators,
            bp.config().onchip_accelerators
        );
    }

    #[test]
    fn map_config_leaves_base_untouched() {
        let base = MachineBlueprint::paper();
        let wide = base.map_config(|cfg| cfg.near_memory_accelerators = 16);
        assert_eq!(wide.config().near_memory_accelerators, 16);
        assert_ne!(
            base.config().near_memory_accelerators,
            wide.config().near_memory_accelerators
        );
    }

    /// The digest as computed before it was memoized: the reference every
    /// memoized value must equal.
    fn reference_fingerprint(bp: &MachineBlueprint) -> ConfigFingerprint {
        let mut b = FingerprintBuilder::new("reach-blueprint-v1");
        b.write_debug(&bp.cfg);
        b.write_debug(&*bp.registry);
        b.write_debug(&bp.presets);
        ConfigFingerprint::from_builder(b)
    }

    #[test]
    fn clones_share_the_fingerprint_memo() {
        let bp = MachineBlueprint::paper();
        let clone = bp.clone();
        assert!(Arc::ptr_eq(&bp.fingerprint, &clone.fingerprint));
        assert!(clone.fingerprint.get().is_none());
        let fp = bp.fingerprint();
        assert_eq!(clone.fingerprint.get(), Some(&fp), "clone missed the memo");
        assert_eq!(fp, reference_fingerprint(&bp));
    }

    #[test]
    fn derived_blueprints_recompute_the_fingerprint() {
        let base = MachineBlueprint::paper();
        let base_fp = base.fingerprint();

        let wide = base.map_config(|cfg| cfg.near_memory_accelerators = 16);
        assert!(wide.fingerprint.get().is_none(), "map_config kept the memo");
        assert_ne!(wide.fingerprint(), base_fp);
        assert_eq!(wide.fingerprint(), reference_fingerprint(&wide));

        // An identity adjustment still starts afresh, and lands on the same
        // digest.
        let same = base.map_config(|_| {});
        assert!(same.fingerprint.get().is_none());
        assert_eq!(same.fingerprint(), base_fp);
    }

    #[test]
    fn memoized_fingerprint_equals_a_direct_recomputation() {
        let paper = MachineBlueprint::paper();
        let variants = [
            paper.clone(),
            paper.map_config(|cfg| cfg.near_storage_accelerators = 8),
            MachineBlueprint::new(SystemConfig::paper_table2().with_near_memory(2)),
            MachineBlueprint::with_registry(
                SystemConfig::paper_table2(),
                TemplateRegistry::paper_table3(),
            ),
        ];
        for bp in &variants {
            // Twice: the first call fills the memo, the second replays it.
            assert_eq!(bp.fingerprint(), reference_fingerprint(bp));
            assert_eq!(bp.fingerprint(), reference_fingerprint(bp));
        }
    }

    #[test]
    fn debug_output_leaves_out_the_memo() {
        let bp = MachineBlueprint::paper();
        let before = format!("{bp:?}");
        let _ = bp.fingerprint();
        assert_eq!(format!("{bp:?}"), before);
        assert!(before.starts_with("MachineBlueprint { cfg: "));
        assert!(!before.contains("OnceLock") && !before.contains("fingerprint"));
    }

    #[test]
    #[should_panic]
    fn degenerate_config_rejected() {
        let _ = MachineBlueprint::paper().map_config(|cfg| {
            cfg.onchip_accelerators = 0;
            cfg.near_memory_accelerators = 0;
            cfg.near_storage_accelerators = 0;
        });
    }
}
