//! PCIe links and the host IO switch.
//!
//! Link rates follow the PCI-SIG per-lane raw rates with 128b/130b encoding;
//! the *effective* host bandwidth is further derated for protocol and IO
//! software-stack overheads, matching the ~12 GB/s the paper (citing
//! INSIDER) measures for a Gen3 x16 host interface.

use reach_sim::{Bandwidth, BandwidthResource, Reservation, SimDuration, SimTime};

/// PCI Express generation (per-lane raw gigatransfers/s).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// 8 GT/s per lane, 128b/130b encoding (~0.985 GB/s raw per lane).
    Gen3,
    /// 16 GT/s per lane.
    Gen4,
}

impl PcieGen {
    /// Raw per-lane payload rate in bytes/s after line encoding.
    #[must_use]
    pub fn lane_bytes_per_sec(self) -> u64 {
        match self {
            PcieGen::Gen3 => 984_615_384,   // 8 GT/s * 128/130 / 8 bits
            PcieGen::Gen4 => 1_969_230_769, // 16 GT/s * 128/130 / 8 bits
        }
    }
}

/// A point-to-point PCIe link.
///
/// # Example
///
/// ```
/// use reach_storage::{PcieGen, PcieLink};
/// use reach_sim::SimTime;
///
/// // The local FPGA-SSD link of a near-storage accelerator.
/// let mut link = PcieLink::new(PcieGen::Gen3, 16, 0.95);
/// let r = link.transfer(SimTime::ZERO, 1 << 20);
/// assert!(r.complete > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct PcieLink {
    link: BandwidthResource,
    lanes: u32,
    gen: PcieGen,
}

impl PcieLink {
    /// Creates a link with the given generation, lane count and protocol
    /// efficiency in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero or `efficiency` is outside `(0, 1]`.
    #[must_use]
    pub fn new(gen: PcieGen, lanes: u32, efficiency: f64) -> Self {
        assert!(lanes > 0, "PcieLink: need at least one lane");
        let raw = Bandwidth::from_bytes_per_sec(gen.lane_bytes_per_sec() * u64::from(lanes));
        PcieLink {
            link: BandwidthResource::new(raw.derate(efficiency), SimDuration::from_ns(500)),
            lanes,
            gen,
        }
    }

    /// The host-side Gen3 x16 interface at the ~12 GB/s *effective* rate the
    /// paper assumes after IO software-stack overheads.
    #[must_use]
    pub fn host_gen3_x16_effective() -> Self {
        // 15.75 GB/s raw x16 -> 12 GB/s effective: 0.762 efficiency.
        Self::new(PcieGen::Gen3, 16, 0.762)
    }

    /// Effective bandwidth of this link.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        self.link.bandwidth()
    }

    /// Lane count.
    #[must_use]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// Generation.
    #[must_use]
    pub fn gen(&self) -> PcieGen {
        self.gen
    }

    /// Moves `bytes` across the link.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        self.link.transfer(now, bytes)
    }

    /// Total bytes carried (for link-energy accounting).
    #[must_use]
    pub fn bytes_transferred(&self) -> u64 {
        self.link.bytes_transferred()
    }

    /// Total occupied wire time.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.link.busy_time()
    }

    /// The instant the link next becomes free.
    #[must_use]
    pub fn free_at(&self) -> SimTime {
        self.link.free_at()
    }
}

/// The host IO switch: every host<->storage transfer crosses one shared
/// upstream port, which is exactly the bottleneck the paper's near-storage
/// level removes.
///
/// # Example
///
/// ```
/// use reach_storage::PcieSwitch;
/// use reach_sim::SimTime;
///
/// let mut sw = PcieSwitch::paper_host_io();
/// let a = sw.host_transfer(SimTime::ZERO, 6_000_000_000); // ~0.5 s at 12 GB/s
/// let b = sw.host_transfer(SimTime::ZERO, 6_000_000_000);
/// assert_eq!(b.start, a.ready); // serialized on the shared upstream port
/// ```
#[derive(Debug)]
pub struct PcieSwitch {
    upstream: PcieLink,
}

impl PcieSwitch {
    /// Creates a switch with the given upstream link.
    #[must_use]
    pub fn new(upstream: PcieLink) -> Self {
        PcieSwitch { upstream }
    }

    /// The paper's host IO configuration: a Gen3 x16 upstream at ~12 GB/s
    /// effective, fronting 4 NVMe SSDs.
    #[must_use]
    pub fn paper_host_io() -> Self {
        Self::new(PcieLink::host_gen3_x16_effective())
    }

    /// Moves `bytes` between the host and any downstream device, reserving
    /// the shared upstream port.
    pub fn host_transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        self.upstream.transfer(now, bytes)
    }

    /// Bytes that crossed the upstream port.
    #[must_use]
    pub fn bytes_transferred(&self) -> u64 {
        self.upstream.bytes_transferred()
    }

    /// Occupied time of the upstream port.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.upstream.busy_time()
    }

    /// Effective upstream bandwidth.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        self.upstream.bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen3_x16_raw_rate() {
        let link = PcieLink::new(PcieGen::Gen3, 16, 1.0);
        let gbps = link.bandwidth().as_gbps_f64();
        assert!((gbps - 15.75).abs() < 0.1, "raw x16 {gbps}");
    }

    #[test]
    fn effective_host_rate_is_about_12_gbps() {
        let link = PcieLink::host_gen3_x16_effective();
        let gbps = link.bandwidth().as_gbps_f64();
        assert!((gbps - 12.0).abs() < 0.1, "effective {gbps}");
    }

    #[test]
    fn gen4_doubles_gen3() {
        let g3 = PcieLink::new(PcieGen::Gen3, 4, 1.0)
            .bandwidth()
            .as_bytes_per_sec();
        let g4 = PcieLink::new(PcieGen::Gen4, 4, 1.0)
            .bandwidth()
            .as_bytes_per_sec();
        let ratio = g4 as f64 / g3 as f64;
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn switch_serializes_concurrent_streams() {
        let mut sw = PcieSwitch::paper_host_io();
        let bytes = 1_200_000_000; // 0.1 s at 12 GB/s
        let a = sw.host_transfer(SimTime::ZERO, bytes);
        let b = sw.host_transfer(SimTime::ZERO, bytes);
        assert_eq!(b.start, a.ready);
        let total = (b.complete - SimTime::ZERO).as_secs_f64();
        assert!(
            (total - 0.2).abs() < 0.01,
            "two streams take ~0.2 s, got {total}"
        );
    }

    #[test]
    fn transfer_accumulates_stats() {
        let mut link = PcieLink::new(PcieGen::Gen3, 4, 1.0);
        link.transfer(SimTime::ZERO, 1_000);
        link.transfer(SimTime::ZERO, 2_000);
        assert_eq!(link.bytes_transferred(), 3_000);
        assert!(link.busy_time() > reach_sim::SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = PcieLink::new(PcieGen::Gen3, 0, 1.0);
    }

    #[test]
    fn link_reports_its_lanes_and_generation() {
        let link = PcieLink::new(PcieGen::Gen4, 8, 1.0);
        assert_eq!(link.lanes(), 8);
        assert_eq!(link.gen(), PcieGen::Gen4);
    }

    #[test]
    fn efficiency_derates_bandwidth_linearly() {
        let full = PcieLink::new(PcieGen::Gen3, 8, 1.0)
            .bandwidth()
            .as_bytes_per_sec();
        let half = PcieLink::new(PcieGen::Gen3, 8, 0.5)
            .bandwidth()
            .as_bytes_per_sec();
        assert_eq!(half, full / 2);
    }

    #[test]
    fn idle_link_starts_at_request_time_and_adds_propagation() {
        let mut link = PcieLink::new(PcieGen::Gen3, 16, 1.0);
        let now = SimTime::ZERO + SimDuration::from_us(3);
        let r = link.transfer(now, 4096);
        assert_eq!(r.start, now);
        assert_eq!(r.ready, now + link.bandwidth().transfer_time(4096));
        assert_eq!(r.complete, r.ready + SimDuration::from_ns(500));
        assert_eq!(link.free_at(), r.ready);
    }

    #[test]
    fn busy_time_is_wire_time_only() {
        let mut link = PcieLink::new(PcieGen::Gen3, 4, 1.0);
        let wire = link.bandwidth().transfer_time(1 << 20);
        link.transfer(SimTime::ZERO, 1 << 20);
        // A later request after an idle gap adds its own wire time, not the gap.
        link.transfer(SimTime::ZERO + SimDuration::from_ms(1), 1 << 20);
        assert_eq!(link.busy_time(), wire + wire);
    }

    #[test]
    fn switch_reports_its_upstream_counters() {
        let mut sw = PcieSwitch::paper_host_io();
        assert_eq!(
            sw.bandwidth(),
            PcieLink::host_gen3_x16_effective().bandwidth()
        );
        assert_eq!(sw.bytes_transferred(), 0);
        assert_eq!(sw.busy_time(), SimDuration::ZERO);
        sw.host_transfer(SimTime::ZERO, 3_000);
        sw.host_transfer(SimTime::ZERO, 5_000);
        assert_eq!(sw.bytes_transferred(), 8_000);
        assert_eq!(
            sw.busy_time(),
            sw.bandwidth().transfer_time(3_000) + sw.bandwidth().transfer_time(5_000)
        );
    }
}
