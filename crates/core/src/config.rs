//! System configuration — the paper's Table II plus the microarchitectural
//! rates the experiments depend on.

use reach_gam::GamConfig;
use reach_mem::{CacheConfig, DimmConfig, Interleave, MemoryControllerConfig};
use reach_sim::{Bandwidth, SimDuration};
use reach_storage::NearStorageDeviceConfig;

/// Full-system configuration.
///
/// The defaults ([`SystemConfig::paper_table2`]) reproduce the paper's
/// experimental setup: one out-of-order x86 core at 2 GHz with a 2 MB shared
/// L2, two memory controllers over 8 DDR4 DIMMs (4 reserved for near-memory
/// accelerators), 4 NVMe SSDs behind a PCIe Gen3 x16 host interface, a
/// Virtex UltraScale+ on-chip accelerator with 100 GB/s to the shared cache,
/// Zynq UltraScale+ near-memory accelerators at 18 GB/s to their DIMMs, and
/// Zynq UltraScale+ near-storage accelerators with a 1 GB DRAM buffer and a
/// 12 GB/s effective link to their SSDs.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of on-chip accelerator slots (the paper uses 1).
    pub onchip_accelerators: usize,
    /// Number of AIM near-memory modules (= accelerator-carrying DIMMs).
    pub near_memory_accelerators: usize,
    /// Number of FPGA+SSD near-storage units.
    pub near_storage_accelerators: usize,
    /// Host-side memory controller (CPU + on-chip accelerator DIMMs).
    pub host_mc: MemoryControllerConfig,
    /// DIMM geometry for the near-memory side.
    pub nm_dimm: DimmConfig,
    /// Tile size used when the GAM switches the near-memory channels to
    /// tile interleaving.
    pub nm_tile_bytes: u64,
    /// Whether the GAM reorganizes the near-memory channels to tile
    /// interleaving (Section III-B). When `false` the channels stay
    /// cache-line interleaved, so each AIM module finds only `1/n` of its
    /// working set in its own DIMM and must pull the rest over the shared
    /// AIMbus — the access-interference case the reorganization prevents.
    pub nm_tile_interleave: bool,
    /// Shared last-level cache.
    pub cache: CacheConfig,
    /// AIMbus rate and hop latency.
    pub aimbus_bandwidth: Bandwidth,
    /// AIMbus hop latency.
    pub aimbus_latency: SimDuration,
    /// Per-unit near-storage device (SSD + buffer + device link).
    pub ns_device: NearStorageDeviceConfig,
    /// On-chip accelerator port into the shared cache (100 GB/s in Table II).
    pub onchip_cache_bandwidth: Bandwidth,
    /// Fraction of peak DRAM bandwidth the on-chip accelerator sustains when
    /// streaming through the coherent cache hierarchy (miss-handling and
    /// contention overheads; 0.74 reproduces the ~28 GB/s effective rate the
    /// calibration in DESIGN.md derives).
    pub onchip_stream_efficiency: f64,
    /// Outstanding misses the on-chip accelerator's address-translation /
    /// MSHR path sustains on *random* (gather) accesses.
    pub onchip_gather_mshr: u64,
    /// Average on-chip round-trip latency of one gathered line (NoC + cache
    /// miss + DRAM activate).
    pub onchip_gather_latency: SimDuration,
    /// On-chip accelerator TLB entries (Figure 2's address translation).
    pub onchip_tlb_entries: usize,
    /// Page-table-walk latency billed per accelerator TLB miss.
    pub page_walk_latency: SimDuration,
    /// Partial-reconfiguration delay (the paper assumes sub-millisecond and
    /// excludes it; default 0 to match).
    pub reconfig_delay: SimDuration,
    /// GAM timing parameters.
    pub gam: GamConfig,
}

impl SystemConfig {
    /// The paper's experimental setup (Table II).
    #[must_use]
    pub fn paper_table2() -> Self {
        SystemConfig {
            onchip_accelerators: 1,
            near_memory_accelerators: 4,
            near_storage_accelerators: 4,
            host_mc: MemoryControllerConfig {
                channels: 2,
                dimms_per_channel: 2,
                dimm: DimmConfig::ddr4_16gb(),
                read_queue: 64,
                write_queue: 64,
                interleave: Interleave::CacheLine,
            },
            nm_dimm: DimmConfig::ddr4_16gb(),
            nm_tile_bytes: 1 << 20,
            nm_tile_interleave: true,
            cache: CacheConfig::shared_l2_2mb(),
            aimbus_bandwidth: Bandwidth::from_mbps(12_800),
            aimbus_latency: SimDuration::from_ns(40),
            ns_device: NearStorageDeviceConfig::paper_default(),
            onchip_cache_bandwidth: Bandwidth::from_gbps(100),
            onchip_stream_efficiency: 0.74,
            onchip_gather_mshr: 4,
            onchip_gather_latency: SimDuration::from_ns(88),
            onchip_tlb_entries: 64,
            page_walk_latency: SimDuration::from_ns(120),
            reconfig_delay: SimDuration::ZERO,
            gam: GamConfig::default(),
        }
    }

    /// A copy with `n` near-memory accelerators (instance-scaling sweeps).
    #[must_use]
    pub fn with_near_memory(mut self, n: usize) -> Self {
        self.near_memory_accelerators = n;
        self
    }

    /// A copy with `n` near-storage units.
    #[must_use]
    pub fn with_near_storage(mut self, n: usize) -> Self {
        self.near_storage_accelerators = n;
        self
    }

    /// A copy with `pct` percent of deterministic SSD latency jitter
    /// (failure-injection knob: FTL interference / flash-die variation).
    #[must_use]
    pub fn with_ssd_jitter(mut self, pct: u8) -> Self {
        self.ns_device.ssd.latency_jitter_pct = pct;
        self
    }

    /// The memory-controller configuration for the near-memory side: two
    /// channels carrying however many accelerator DIMMs the config asks for,
    /// tile-interleaved by the GAM.
    #[must_use]
    pub fn nm_mc(&self) -> MemoryControllerConfig {
        let n = self.near_memory_accelerators.max(1);
        MemoryControllerConfig {
            channels: 2.min(n),
            dimms_per_channel: n.div_ceil(2.min(n)),
            dimm: self.nm_dimm,
            read_queue: 64,
            write_queue: 64,
            interleave: if self.nm_tile_interleave {
                Interleave::Tile(self.nm_tile_bytes)
            } else {
                Interleave::CacheLine
            },
        }
    }

    /// Effective sequential-stream rate of the on-chip accelerator through
    /// the coherent hierarchy, in bytes/s.
    #[must_use]
    pub fn onchip_stream_rate(&self) -> f64 {
        let channels = self.host_mc.channels as u64;
        let peak = {
            let d = reach_mem::Dimm::new(self.host_mc.dimm);
            d.peak_bandwidth_bytes_per_sec() * channels
        };
        (peak as f64 * self.onchip_stream_efficiency)
            .min(self.onchip_cache_bandwidth.as_bytes_per_sec() as f64)
    }

    /// Effective random-gather rate of the on-chip accelerator in bytes/s
    /// (MSHR-limited: `mshr x line / latency`).
    #[must_use]
    pub fn onchip_gather_rate(&self) -> f64 {
        let line = self.host_mc.dimm.line_bytes as f64;
        self.onchip_gather_mshr as f64 * line / self.onchip_gather_latency.as_secs_f64()
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (no accelerators anywhere, zero
    /// efficiency, …).
    pub fn validate(&self) {
        assert!(
            self.onchip_accelerators
                + self.near_memory_accelerators
                + self.near_storage_accelerators
                > 0,
            "SystemConfig: no accelerators configured"
        );
        assert!(
            self.onchip_stream_efficiency > 0.0 && self.onchip_stream_efficiency <= 1.0,
            "SystemConfig: stream efficiency out of (0,1]"
        );
        assert!(self.onchip_gather_mshr > 0, "SystemConfig: zero MSHRs");
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_table2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let c = SystemConfig::paper_table2();
        assert_eq!(c.onchip_accelerators, 1);
        assert_eq!(c.near_memory_accelerators, 4);
        assert_eq!(c.near_storage_accelerators, 4);
        assert_eq!(c.host_mc.channels * c.host_mc.dimms_per_channel, 4);
        assert_eq!(c.cache.line_bytes, 64);
        c.validate();
    }

    #[test]
    fn onchip_stream_rate_is_about_28_gbps() {
        let c = SystemConfig::paper_table2();
        let rate = c.onchip_stream_rate();
        assert!((rate - 28.4e9).abs() < 1e9, "rate {rate:.3e}");
    }

    #[test]
    fn onchip_gather_rate_is_about_2_9_gbps() {
        let c = SystemConfig::paper_table2();
        let rate = c.onchip_gather_rate();
        assert!((rate - 2.9e9).abs() < 0.2e9, "rate {rate:.3e}");
    }

    #[test]
    fn nm_mc_scales_with_instances() {
        let c = SystemConfig::paper_table2().with_near_memory(16);
        let mc = c.nm_mc();
        assert_eq!(mc.channels * mc.dimms_per_channel, 16);
        let c1 = SystemConfig::paper_table2().with_near_memory(1);
        assert_eq!(c1.nm_mc().channels, 1);
    }

    #[test]
    fn builders_chain() {
        let c = SystemConfig::paper_table2()
            .with_near_memory(8)
            .with_near_storage(16);
        assert_eq!(c.near_memory_accelerators, 8);
        assert_eq!(c.near_storage_accelerators, 16);
    }

    #[test]
    #[should_panic(expected = "no accelerators")]
    fn degenerate_config_rejected() {
        let mut c = SystemConfig::paper_table2();
        c.onchip_accelerators = 0;
        c.near_memory_accelerators = 0;
        c.near_storage_accelerators = 0;
        c.validate();
    }
}
