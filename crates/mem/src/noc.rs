//! Network-on-chip model.
//!
//! Figure 2 of the paper ties the CPU cores, the on-chip accelerator, the
//! GAM and the last-level cache together with "a high-bandwidth
//! network-on-chip". The model here is a crossbar: every endpoint owns an
//! injection and an ejection port with a configured link rate, and the
//! fabric itself has a bisection-bandwidth calendar. A transfer reserves
//! source port, bisection and destination port in parallel (they pipeline)
//! and completes after the slowest reservation plus the hop latency.

use reach_sim::{Bandwidth, Reservation, SerialResource, SimDuration, SimTime};

/// Endpoints on the on-chip crossbar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NocPort {
    /// CPU core cluster.
    Cpu,
    /// The on-chip reconfigurable accelerator.
    Accelerator,
    /// The global accelerator manager.
    Gam,
    /// The shared last-level cache (front door to DRAM).
    Cache,
    /// The PCIe root port (to the storage hierarchy).
    Pcie,
}

impl NocPort {
    /// All ports, in index order.
    pub const ALL: [NocPort; 5] = [
        NocPort::Cpu,
        NocPort::Accelerator,
        NocPort::Gam,
        NocPort::Cache,
        NocPort::Pcie,
    ];

    fn index(self) -> usize {
        match self {
            NocPort::Cpu => 0,
            NocPort::Accelerator => 1,
            NocPort::Gam => 2,
            NocPort::Cache => 3,
            NocPort::Pcie => 4,
        }
    }
}

/// NoC configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NocConfig {
    /// Per-port link rate (Table II: 100 GB/s accelerator-to-cache).
    pub port_bandwidth: Bandwidth,
    /// Total bisection bandwidth of the fabric.
    pub bisection_bandwidth: Bandwidth,
    /// One-way hop latency.
    pub hop_latency: SimDuration,
}

impl NocConfig {
    /// The paper's on-chip fabric: 100 GB/s ports, 400 GB/s bisection,
    /// 20 ns hops.
    #[must_use]
    pub fn paper_default() -> Self {
        NocConfig {
            port_bandwidth: Bandwidth::from_gbps(100),
            bisection_bandwidth: Bandwidth::from_gbps(400),
            hop_latency: SimDuration::from_ns(20),
        }
    }
}

/// Per-port traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Bytes injected.
    pub bytes: u64,
    /// Transfers performed.
    pub transfers: u64,
}

/// The on-chip crossbar.
///
/// # Example
///
/// ```
/// use reach_mem::noc::{Noc, NocConfig, NocPort};
/// use reach_sim::SimTime;
///
/// let mut noc = Noc::new(NocConfig::paper_default());
/// let r = noc.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, 1 << 20);
/// assert!(r.complete > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct Noc {
    config: NocConfig,
    inject: Vec<SerialResource>,
    eject: Vec<SerialResource>,
    bisection: SerialResource,
    stats: NocStats,
}

impl Noc {
    /// Creates an idle crossbar.
    #[must_use]
    pub fn new(config: NocConfig) -> Self {
        Noc {
            config,
            inject: vec![SerialResource::new(); NocPort::ALL.len()],
            eject: vec![SerialResource::new(); NocPort::ALL.len()],
            bisection: SerialResource::new(),
            stats: NocStats::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Moves `bytes` from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (loopback traffic never enters the fabric) or
    /// `bytes` is zero.
    pub fn transfer(
        &mut self,
        now: SimTime,
        src: NocPort,
        dst: NocPort,
        bytes: u64,
    ) -> Reservation {
        assert!(src != dst, "Noc::transfer: loopback {src:?}");
        assert!(bytes > 0, "Noc::transfer: empty transfer");
        let port_time = self.config.port_bandwidth.transfer_time(bytes);
        let fabric_time = self.config.bisection_bandwidth.transfer_time(bytes);

        let s = self.inject[src.index()].reserve(now, port_time);
        let f = self.bisection.reserve(now, fabric_time);
        let e = self.eject[dst.index()].reserve(now, port_time);
        let ready = s.ready.max(f.ready).max(e.ready);
        self.stats.bytes += bytes;
        self.stats.transfers += 1;
        Reservation {
            start: s.start.min(f.start).min(e.start),
            ready,
            complete: ready + self.config.hop_latency.scaled(2),
        }
    }

    /// Total time a given port's injection link was busy.
    #[must_use]
    pub fn port_busy(&self, port: NocPort) -> SimDuration {
        self.inject[port.index()].busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> Noc {
        Noc::new(NocConfig::paper_default())
    }

    #[test]
    fn transfer_is_port_rate_bound() {
        let mut n = noc();
        let bytes: u64 = 1 << 30;
        let r = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, bytes);
        let secs = (r.complete - SimTime::ZERO).as_secs_f64();
        let rate = bytes as f64 / secs;
        assert!(rate < 100.1e9 && rate > 95e9, "rate {rate:.3e}");
    }

    #[test]
    fn distinct_pairs_share_only_the_bisection() {
        let mut n = noc();
        let bytes: u64 = 1 << 28;
        let a = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, bytes);
        let b = n.transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Pcie, bytes);
        // 2 x 100 GB/s of demand against 400 GB/s bisection: both proceed at
        // port rate. Completion within a hair of each other.
        assert!(a.ready.as_ps().abs_diff(b.ready.as_ps()) < 2_000_000);
    }

    #[test]
    fn same_source_serializes_on_the_injection_port() {
        let mut n = noc();
        let bytes: u64 = 1 << 28;
        let a = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, bytes);
        let b = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Pcie, bytes);
        assert!(b.ready >= a.ready + (a.ready - a.start) - reach_sim::SimDuration::from_ns(1));
    }

    #[test]
    fn bisection_saturates_under_many_flows() {
        let mut n = Noc::new(NocConfig {
            port_bandwidth: Bandwidth::from_gbps(100),
            bisection_bandwidth: Bandwidth::from_gbps(150),
            hop_latency: SimDuration::ZERO,
        });
        let bytes: u64 = 1 << 28;
        // Two disjoint flows want 200 GB/s; the 150 GB/s bisection caps them.
        let a = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, bytes);
        let b = n.transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Pcie, bytes);
        let last = a.ready.max(b.ready);
        let agg = (2 * bytes) as f64 / (last - SimTime::ZERO).as_secs_f64();
        assert!(agg < 151e9, "aggregate {agg:.3e} exceeds bisection");
    }

    #[test]
    fn hop_latency_added_to_completion() {
        let mut n = noc();
        let r = n.transfer(SimTime::ZERO, NocPort::Gam, NocPort::Accelerator, 64);
        assert!(r.complete >= r.ready + SimDuration::from_ns(40));
    }

    #[test]
    fn stats_accumulate() {
        let mut n = noc();
        n.transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Cache, 100);
        n.transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Cache, 200);
        assert_eq!(n.stats().bytes, 300);
        assert_eq!(n.stats().transfers, 2);
        assert!(n.port_busy(NocPort::Cpu) > SimDuration::ZERO);
        assert_eq!(n.port_busy(NocPort::Pcie), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_rejected() {
        noc().transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Cpu, 64);
    }

    #[test]
    #[should_panic(expected = "empty transfer")]
    fn empty_transfer_rejected() {
        noc().transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Cache, 0);
    }

    #[test]
    fn opposite_directions_do_not_share_ports() {
        let mut n = noc();
        let bytes: u64 = 1 << 28;
        let a = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, bytes);
        let b = n.transfer(SimTime::ZERO, NocPort::Cache, NocPort::Accelerator, bytes);
        // 200 GB/s of demand fits the 400 GB/s bisection: no queueing.
        assert_eq!(a.complete, b.complete);
    }

    #[test]
    fn same_destination_serializes_on_the_ejection_port() {
        let mut n = noc();
        let bytes: u64 = 1 << 28;
        let a = n.transfer(SimTime::ZERO, NocPort::Accelerator, NocPort::Cache, bytes);
        let b = n.transfer(SimTime::ZERO, NocPort::Cpu, NocPort::Cache, bytes);
        assert_eq!(b.ready, a.ready + (a.ready - a.start));
    }

    #[test]
    fn port_busy_is_the_sources_wire_time() {
        let mut n = noc();
        let bytes = 1_000_000_000; // 10 ms at 100 GB/s
        n.transfer(SimTime::ZERO, NocPort::Pcie, NocPort::Cache, bytes);
        assert_eq!(n.port_busy(NocPort::Pcie), SimDuration::from_ms(10));
        // Ejection at the destination is not injection-port time.
        assert_eq!(n.port_busy(NocPort::Cache), SimDuration::ZERO);
        assert_eq!(n.config(), &NocConfig::paper_default());
    }
}
