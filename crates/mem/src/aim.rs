//! Accelerator-interposed memory (AIM) modules and the AIMbus.
//!
//! An AIM module sits between a DIMM and the memory network (Cong et al.,
//! MEMSYS'17 — the design the paper's near-memory level is based on). It
//! contains an embedded FPGA, a *configuration filter* that picks accelerator
//! commands out of the memory channel, and a *memory access filter* that
//! routes DRAM responses to the local accelerator, a remote accelerator over
//! the AIMbus, or back to the host.
//!
//! The protocol modeled here follows Section II-B of the paper:
//!
//! 1. the host launches a kernel on the module; the host memory controller
//!    *hands over* the DIMM (all banks drain and precharge),
//! 2. while owned, the module accesses its DIMM locally with a forced
//!    **closed-row policy**, so that when ownership returns the host can
//!    assume every bank is precharged,
//! 3. inter-DIMM traffic rides the AIMbus instead of the host channels.

use crate::controller::MemoryController;
use crate::ddr::{AccessKind, RowPolicy};
use reach_sim::{Bandwidth, BandwidthResource, Reservation, SimDuration, SimTime};

/// Who currently owns a DIMM's timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DimmOwner {
    /// The host memory controller (normal operation).
    #[default]
    Host,
    /// The AIM module's embedded accelerator.
    Accelerator,
}

/// The shared inter-DIMM bus connecting all AIM modules.
///
/// # Example
///
/// ```
/// use reach_mem::AimBus;
/// use reach_sim::SimTime;
///
/// let mut bus = AimBus::paper_default();
/// let r = bus.transfer(SimTime::ZERO, 4096);
/// assert!(r.complete > SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct AimBus {
    link: BandwidthResource,
    queued: SimDuration,
}

impl AimBus {
    /// Creates an AIMbus with the given rate and hop latency.
    #[must_use]
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        AimBus {
            link: BandwidthResource::new(bandwidth, latency),
            queued: SimDuration::ZERO,
        }
    }

    /// The configuration used in the experiments: a 12.8 GB/s shared bus
    /// with 40 ns hop latency — comparable to one DDR4 channel, as the AIM
    /// paper's point-to-point ring provides.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(Bandwidth::from_mbps(12_800), SimDuration::from_ns(40))
    }

    /// Moves `bytes` between two AIM modules.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let r = self.link.transfer(now, bytes);
        self.queued += r.queueing(now);
        r
    }

    /// Total bytes carried (for interconnect energy).
    #[must_use]
    pub fn bytes_transferred(&self) -> u64 {
        self.link.bytes_transferred()
    }

    /// Total time the bus was occupied.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.link.busy_time()
    }

    /// Total time transfers waited behind earlier traffic before reaching
    /// the wire — the `aimbus.queued_ps` telemetry gauge. Zero while one
    /// workload has the bus to itself; co-running gather kernels grow it.
    #[must_use]
    pub fn queued_time(&self) -> SimDuration {
        self.queued
    }
}

/// One accelerator-interposed-memory module attached to a specific DIMM.
#[derive(Clone, Debug)]
pub struct AimModule {
    channel: usize,
    slot: usize,
    owner: DimmOwner,
}

impl AimModule {
    /// Creates a module interposed in front of DIMM (`channel`, `slot`).
    #[must_use]
    pub fn new(channel: usize, slot: usize) -> Self {
        AimModule {
            channel,
            slot,
            owner: DimmOwner::Host,
        }
    }

    /// Which DIMM this module fronts.
    #[must_use]
    pub fn position(&self) -> (usize, usize) {
        (self.channel, self.slot)
    }

    /// The current DIMM owner.
    #[must_use]
    pub fn owner(&self) -> DimmOwner {
        self.owner
    }

    /// The host launches a kernel: the configuration filter accepts the
    /// command and the memory controller hands the DIMM over. Returns the
    /// instant the accelerator may start issuing local accesses.
    ///
    /// # Panics
    ///
    /// Panics if the module already owns the DIMM — the paper's protocol
    /// launches one kernel at a time per module.
    pub fn acquire(&mut self, now: SimTime, mc: &mut MemoryController) -> SimTime {
        assert_eq!(
            self.owner,
            DimmOwner::Host,
            "AimModule::acquire: DIMM already owned by the accelerator"
        );
        let ready = mc.dimm_mut(self.channel, self.slot).hand_over(now);
        self.owner = DimmOwner::Accelerator;
        ready
    }

    /// Returns the DIMM to the host. Because every owned access used the
    /// closed-row policy, all banks are already precharged; the hand-back
    /// costs only the drain of in-flight work.
    ///
    /// # Panics
    ///
    /// Panics if the module does not own the DIMM.
    pub fn release(&mut self, now: SimTime, mc: &mut MemoryController) -> SimTime {
        assert_eq!(
            self.owner,
            DimmOwner::Accelerator,
            "AimModule::release: DIMM not owned"
        );
        let ready = mc.dimm_mut(self.channel, self.slot).hand_over(now);
        self.owner = DimmOwner::Host;
        ready
    }

    /// Streams `bytes` from the module's own DIMM, bypassing the host
    /// channel, with the forced closed-row policy.
    ///
    /// # Panics
    ///
    /// Panics if the module does not own the DIMM: the memory access filter
    /// only routes responses to the local accelerator while a kernel runs.
    pub fn stream_local(
        &mut self,
        now: SimTime,
        mc: &mut MemoryController,
        local_addr: u64,
        bytes: u64,
        kind: AccessKind,
    ) -> Reservation {
        assert_eq!(
            self.owner,
            DimmOwner::Accelerator,
            "AimModule::stream_local: kernel not launched (DIMM owned by host)"
        );
        mc.dimm_mut(self.channel, self.slot).stream(
            now,
            local_addr,
            bytes,
            kind,
            RowPolicy::ClosedRow,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MemoryControllerConfig;

    fn setup() -> (MemoryController, AimModule) {
        (
            MemoryController::new(MemoryControllerConfig::paper_mc()),
            AimModule::new(0, 0),
        )
    }

    #[test]
    fn acquire_use_release_roundtrip() {
        let (mut mc, mut aim) = setup();
        assert_eq!(aim.owner(), DimmOwner::Host);
        let t0 = aim.acquire(SimTime::ZERO, &mut mc);
        assert_eq!(aim.owner(), DimmOwner::Accelerator);
        let r = aim.stream_local(t0, &mut mc, 0, 1 << 20, AccessKind::Read);
        let t1 = aim.release(r.complete, &mut mc);
        assert_eq!(aim.owner(), DimmOwner::Host);
        assert!(t1 >= r.complete);
    }

    #[test]
    #[should_panic(expected = "kernel not launched")]
    fn local_access_requires_ownership() {
        let (mut mc, mut aim) = setup();
        aim.stream_local(SimTime::ZERO, &mut mc, 0, 64, AccessKind::Read);
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_acquire_rejected() {
        let (mut mc, mut aim) = setup();
        aim.acquire(SimTime::ZERO, &mut mc);
        aim.acquire(SimTime::ZERO, &mut mc);
    }

    #[test]
    fn owned_accesses_use_closed_row() {
        let (mut mc, mut aim) = setup();
        let t0 = aim.acquire(SimTime::ZERO, &mut mc);
        let a = aim.stream_local(t0, &mut mc, 0, 64, AccessKind::Read);
        // Closed-row: the local stream leaves its row precharged, so the
        // next line of the same row activates it again instead of hitting.
        mc.dimm_mut(0, 0)
            .access(a.ready, 64, AccessKind::Read, RowPolicy::OpenPage);
        assert_eq!(mc.dimm(0, 0).stats().row_hits, 0);
        assert_eq!(mc.dimm(0, 0).stats().activations, 2);
    }

    #[test]
    fn local_stream_does_not_touch_host_channel() {
        let (mut mc, mut aim) = setup();
        let t0 = aim.acquire(SimTime::ZERO, &mut mc);
        aim.stream_local(t0, &mut mc, 0, 1 << 20, AccessKind::Read);
        assert_eq!(mc.total_channel_bytes(), 0);
    }

    #[test]
    fn parallel_modules_scale_bandwidth() {
        let mut mc = MemoryController::new(MemoryControllerConfig::paper_mc());
        let mut a = AimModule::new(0, 0);
        let mut b = AimModule::new(1, 0);
        let bytes: u64 = 64 << 20;
        let ta = a.acquire(SimTime::ZERO, &mut mc);
        let tb = b.acquire(SimTime::ZERO, &mut mc);
        let ra = a.stream_local(ta, &mut mc, 0, bytes, AccessKind::Read);
        let rb = b.stream_local(tb, &mut mc, 0, bytes, AccessKind::Read);
        // Two modules on distinct DIMMs finish in about the same time as one.
        let skew =
            ra.complete.as_ps().abs_diff(rb.complete.as_ps()) as f64 / ra.complete.as_ps() as f64;
        assert!(
            skew < 0.05,
            "independent DIMMs should not contend: skew {skew}"
        );
    }

    #[test]
    fn aimbus_serializes_transfers() {
        let mut bus = AimBus::paper_default();
        let a = bus.transfer(SimTime::ZERO, 1 << 20);
        let b = bus.transfer(SimTime::ZERO, 1 << 20);
        assert_eq!(b.start, a.ready);
        assert_eq!(bus.bytes_transferred(), 2 << 20);
    }

    #[test]
    fn aimbus_queued_time_counts_only_waiting() {
        let mut bus = AimBus::paper_default();
        let a = bus.transfer(SimTime::ZERO, 1 << 20);
        // The first transfer hit an idle bus: nothing queued yet.
        assert_eq!(bus.queued_time(), SimDuration::ZERO);
        let b = bus.transfer(SimTime::ZERO, 1 << 20);
        // The second waited for the first's wire time exactly.
        assert_eq!(bus.queued_time(), b.start.since(SimTime::ZERO));
        assert_eq!(b.start, a.ready);
    }

    #[test]
    fn handback_leaves_banks_precharged_for_host() {
        let (mut mc, mut aim) = setup();
        let t0 = aim.acquire(SimTime::ZERO, &mut mc);
        let r = aim.stream_local(t0, &mut mc, 0, 8 << 10, AccessKind::Read);
        let t1 = aim.release(r.complete, &mut mc);
        // Host access after hand-back pays activation (no stale open row),
        // i.e. the closed-row contract held.
        let hits_before = mc.dimm(0, 0).stats().row_hits;
        mc.dimm_mut(0, 0)
            .access(t1, 0, AccessKind::Read, RowPolicy::OpenPage);
        assert_eq!(mc.dimm(0, 0).stats().row_hits, hits_before);
    }

    #[test]
    #[should_panic(expected = "DIMM not owned")]
    fn release_without_ownership_rejected() {
        let (mut mc, mut aim) = setup();
        aim.release(SimTime::ZERO, &mut mc);
    }

    #[test]
    fn release_hands_the_dimm_back_for_the_next_launch() {
        let (mut mc, mut aim) = setup();
        assert_eq!(aim.position(), (0, 0));
        assert_eq!(AimModule::new(3, 1).position(), (3, 1));
        for _ in 0..3 {
            let t = aim.acquire(SimTime::ZERO, &mut mc);
            assert_eq!(aim.owner(), DimmOwner::Accelerator);
            aim.release(t, &mut mc);
            assert_eq!(aim.owner(), DimmOwner::Host);
        }
    }

    #[test]
    fn aimbus_bills_wire_time_and_hop_latency() {
        let mut bus = AimBus::paper_default();
        // 12.8 MB at 12.8 GB/s is 1 ms on the wire.
        let r = bus.transfer(SimTime::ZERO, 12_800_000);
        assert_eq!(r.ready, SimTime::ZERO + SimDuration::from_ms(1));
        assert_eq!(r.complete, r.ready + SimDuration::from_ns(40));
        assert_eq!(bus.busy_time(), SimDuration::from_ms(1));
    }
}
