//! Canonical configuration fingerprints.
//!
//! A [`ConfigFingerprint`] is a stable 128-bit digest of *everything that
//! determines a simulated outcome*: the machine shape ([`SystemConfig`]
//! down to every timing and capacity knob), the kernel templates, the
//! ReACH configuration (buffers, streams with their patterns and depths,
//! accelerator registrations and argument bindings), the recorded host
//! flow, the batch count, the execution mode and the seed. Two runs with
//! equal fingerprints produce byte-identical [`crate::RunReport`]s — the
//! invariant the sweep-point result cache in `reach-bench` rests on, and
//! the same keying discipline memoized design-space exploration uses in
//! accelerator simulators (PARADE / gem5-Aladdin style sweeps).
//!
//! Fingerprints are built from [`reach_sim::FingerprintBuilder`]'s framed
//! FNV-1a-128 stream, so they are stable across processes, platforms and
//! Rust versions — which is why a golden file of suite fingerprints can
//! live in CI and catch accidental keying changes (a silent keying change
//! would quietly disable, or worse poison, any persisted cache).
//!
//! The encoding convention, per type:
//!
//! * plain-data config structs whose fields are all public and `Debug`
//!   (e.g. [`SystemConfig`] and its nested component configs) are written
//!   via `write_debug` — derived `Debug` lists every field, so a knob
//!   added next year flows into the fingerprint without anyone updating a
//!   hand-written encoder;
//! * structural types with identity semantics (the ReACH config, the
//!   pipeline call sequence) are written field by field under a domain
//!   tag, so the unit tests below can state exactly which flip changes
//!   the digest.

use reach_sim::{Fingerprint, FingerprintBuilder};
use std::fmt;

/// A stable digest of one complete run configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigFingerprint(Fingerprint);

impl ConfigFingerprint {
    /// Wraps a finished builder.
    #[must_use]
    pub fn from_builder(builder: FingerprintBuilder) -> Self {
        ConfigFingerprint(builder.finish())
    }

    /// The raw 128-bit value.
    #[must_use]
    pub fn as_u128(self) -> u128 {
        self.0 .0
    }

    /// Folds this fingerprint into an outer builder (used when a scenario
    /// fingerprint composes a blueprint digest and a pipeline digest).
    pub fn write_into(self, builder: &mut FingerprintBuilder) {
        builder.write_bytes(&self.as_u128().to_le_bytes());
    }

    /// Parses the 32-hex-digit `Display` form (golden-file round trips).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Fingerprint::parse(s).map(ConfigFingerprint)
    }
}

impl fmt::Display for ConfigFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl fmt::Debug for ConfigFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConfigFingerprint({})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ExecMode, Level, Pipeline, ReachConfig, StreamType};
    use crate::blueprint::MachineBlueprint;
    use crate::config::SystemConfig;
    use crate::work::TaskWork;
    use reach_sim::SimDuration;

    type Mutation<T> = (&'static str, Box<dyn Fn(&mut T)>);
    type Builder<T> = (&'static str, Box<dyn Fn() -> T>);

    fn base_config() -> ReachConfig {
        let mut cfg = ReachConfig::new();
        let params = cfg.create_fixed_buffer("vgg16_param", Level::OnChip, 11_300_000);
        let feats = cfg.create_stream(
            Level::OnChip,
            Level::NearStor,
            StreamType::Broadcast,
            6144,
            2,
        );
        let cnn = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        cfg.set_arg(cnn, 0, params);
        cfg.set_arg(cnn, 1, feats);
        let knn = cfg.register_acc("KNN-ZCU9", Level::NearStor);
        cfg.set_arg(knn, 0, feats);
        cfg
    }

    fn base_fp() -> ConfigFingerprint {
        base_config().build().expect("valid").fingerprint()
    }

    #[test]
    fn validated_config_fingerprint_is_stable() {
        assert_eq!(base_fp(), base_fp());
    }

    /// Flipping any single configuration knob must change the fingerprint
    /// — buffers, stream endpoints/patterns/sizes/depths, registrations,
    /// bindings. A knob the fingerprint missed would alias two different
    /// configurations onto one cache entry.
    #[test]
    fn every_reach_config_knob_changes_the_fingerprint() {
        let base = base_fp();
        let variants: Vec<Mutation<ReachConfig>> = vec![
            (
                "buffer name",
                Box::new(|c| {
                    c.create_fixed_buffer("extra", Level::OnChip, 1);
                }),
            ),
            (
                "stream bytes",
                Box::new(|c| {
                    c.create_stream(Level::Cpu, Level::OnChip, StreamType::Pair, 64, 1);
                }),
            ),
            (
                "extra acc",
                Box::new(|c| {
                    c.register_acc("GEMM-ZCU9", Level::NearMem);
                }),
            ),
        ];
        let mut seen = vec![base];
        for (what, mutate) in variants {
            let mut cfg = base_config();
            mutate(&mut cfg);
            let fp = cfg.build().expect("still valid").fingerprint();
            assert!(!seen.contains(&fp), "{what} did not change the fingerprint");
            seen.push(fp);
        }

        // Field-level flips on otherwise-identical shapes.
        let mut cfg = ReachConfig::new();
        cfg.create_stream(Level::OnChip, Level::NearMem, StreamType::Broadcast, 64, 2);
        cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let a = cfg.build().expect("valid").fingerprint();
        let variants: Vec<Builder<ReachConfig>> = vec![
            (
                "stream type",
                Box::new(|| {
                    let mut c = ReachConfig::new();
                    c.create_stream(Level::OnChip, Level::NearMem, StreamType::Collect, 64, 2);
                    c.register_acc("VGG16-VU9P", Level::OnChip);
                    c
                }),
            ),
            (
                "stream depth",
                Box::new(|| {
                    let mut c = ReachConfig::new();
                    c.create_stream(Level::OnChip, Level::NearMem, StreamType::Broadcast, 64, 3);
                    c.register_acc("VGG16-VU9P", Level::OnChip);
                    c
                }),
            ),
            (
                "stream dst",
                Box::new(|| {
                    let mut c = ReachConfig::new();
                    c.create_stream(Level::OnChip, Level::NearStor, StreamType::Broadcast, 64, 2);
                    c.register_acc("VGG16-VU9P", Level::OnChip);
                    c
                }),
            ),
        ];
        for (what, build) in variants {
            let b = build().build().expect("valid").fingerprint();
            assert_ne!(a, b, "{what} did not change the fingerprint");
        }
    }

    #[test]
    fn pipeline_calls_change_the_fingerprint() {
        let make = |macs: u64, stage: &str, batchesless_extra: bool| {
            let mut cfg = ReachConfig::new();
            let acc = cfg.register_acc("VGG16-VU9P", Level::OnChip);
            let mut p = Pipeline::new(cfg.build().expect("valid"));
            p.call(acc, TaskWork::compute(macs), stage);
            if batchesless_extra {
                p.call(acc, TaskWork::compute(1), "extra");
            }
            p.fingerprint()
        };
        let base = make(1_000, "fe", false);
        assert_eq!(base, make(1_000, "fe", false), "not stable");
        assert_ne!(base, make(1_001, "fe", false), "macs knob missed");
        assert_ne!(base, make(1_000, "fe2", false), "stage label missed");
        assert_ne!(base, make(1_000, "fe", true), "call count missed");
    }

    /// Every machine knob — instance counts, bandwidths, latencies,
    /// efficiencies, nested component configs — must flow into the
    /// blueprint fingerprint.
    #[test]
    fn every_machine_knob_changes_the_fingerprint() {
        let base = MachineBlueprint::paper().fingerprint();
        let knobs: Vec<Mutation<SystemConfig>> = vec![
            (
                "near_memory_accelerators",
                Box::new(|c| c.near_memory_accelerators = 8),
            ),
            (
                "near_storage_accelerators",
                Box::new(|c| c.near_storage_accelerators = 2),
            ),
            (
                "onchip_stream_efficiency",
                Box::new(|c| c.onchip_stream_efficiency = 0.5),
            ),
            ("onchip_gather_mshr", Box::new(|c| c.onchip_gather_mshr = 8)),
            ("nm_tile_bytes", Box::new(|c| c.nm_tile_bytes = 1 << 21)),
            (
                "nm_tile_interleave",
                Box::new(|c| c.nm_tile_interleave = false),
            ),
            ("cache capacity", Box::new(|c| c.cache.capacity *= 2)),
            (
                "aimbus latency",
                Box::new(|c| c.aimbus_latency = SimDuration::from_ns(80)),
            ),
            (
                "reconfig delay",
                Box::new(|c| c.reconfig_delay = SimDuration::from_us(1)),
            ),
            (
                "gam poll interval",
                Box::new(|c| c.gam.min_poll_interval = SimDuration::from_ms(5)),
            ),
            (
                "ssd jitter",
                Box::new(|c| c.ns_device.ssd.latency_jitter_pct = 7),
            ),
            (
                "host mc read queue",
                Box::new(|c| c.host_mc.read_queue = 32),
            ),
        ];
        let mut seen = vec![base];
        for (what, adjust) in knobs {
            let fp = MachineBlueprint::paper().map_config(adjust).fingerprint();
            assert!(!seen.contains(&fp), "{what} did not change the fingerprint");
            seen.push(fp);
        }
    }

    #[test]
    fn exec_mode_and_domains_are_distinguished() {
        // Same bit content under different domains must not collide.
        let mut a = FingerprintBuilder::new("reach-a");
        a.write_debug(&ExecMode::Pipelined);
        let mut b = FingerprintBuilder::new("reach-b");
        b.write_debug(&ExecMode::Pipelined);
        assert_ne!(
            ConfigFingerprint::from_builder(a),
            ConfigFingerprint::from_builder(b)
        );
    }

    #[test]
    fn display_round_trips() {
        let fp = base_fp();
        assert_eq!(ConfigFingerprint::parse(&fp.to_string()), Some(fp));
    }
}
