//! Host memory controller: channels, interleaving, FR-FCFS approximation.
//!
//! The paper's GAM "reorganizes the memory space" between the CPU, the
//! on-chip accelerator and the near-memory accelerators by reprogramming the
//! memory controllers: channels serving CPU/on-chip traffic interleave at
//! cache-line granularity for aggregate bandwidth, while channels whose
//! DIMMs carry near-memory accelerators interleave at *tile* granularity so
//! each AIM module owns contiguous data (Section III-B). Both policies are
//! implemented here.
//!
//! Scheduling fidelity: a full FR-FCFS queue is approximated by (a) the
//! open-page row-hit fast path inside [`crate::ddr::Dimm`] — the "FR" part —
//! and (b) per-bank and per-bus calendars that serialize conflicting work in
//! arrival order — the "FCFS" part. The read/write queue depths in
//! [`MemoryControllerConfig`] bound how many line requests a single bulk
//! operation may pipeline at once.

use crate::ddr::{AccessKind, Dimm, DimmConfig, RowPolicy};
use reach_sim::{Reservation, SerialResource, SimDuration, SimTime};

/// How the physical address space is spread across DIMMs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Interleave {
    /// Consecutive cache lines rotate across every DIMM (high aggregate
    /// bandwidth for CPU / on-chip accelerator traffic).
    CacheLine,
    /// Contiguous tiles of the given size map to one DIMM each, so a
    /// near-memory accelerator finds whole tiles in its own DIMM.
    Tile(u64),
}

/// Memory controller configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryControllerConfig {
    /// Number of channels under this controller.
    pub channels: usize,
    /// DIMMs per channel.
    pub dimms_per_channel: usize,
    /// Per-DIMM geometry and timing.
    pub dimm: DimmConfig,
    /// Read request queue depth (bounds in-flight pipelining).
    pub read_queue: usize,
    /// Write request queue depth.
    pub write_queue: usize,
    /// Interleaving policy.
    pub interleave: Interleave,
}

impl MemoryControllerConfig {
    /// One of the paper's two controllers: 2 channels x 2 DIMMs, 64/64-entry
    /// read/write queues, FR-FCFS, cache-line interleave.
    #[must_use]
    pub fn paper_mc() -> Self {
        MemoryControllerConfig {
            channels: 2,
            dimms_per_channel: 2,
            dimm: DimmConfig::ddr4_16gb(),
            read_queue: 64,
            write_queue: 64,
            interleave: Interleave::CacheLine,
        }
    }
}

/// Aggregate transfer statistics for interconnect-energy accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Bytes that crossed this channel (host-side traffic only; AIM-local
    /// accesses bypass the channel).
    pub bytes: u64,
    /// Time requests spent queued behind other traffic for this channel's
    /// bus — the FCFS half of the FR-FCFS approximation made visible. Zero
    /// on an uncontended channel; co-running workloads grow it.
    pub contended: SimDuration,
}

struct Channel {
    bus: SerialResource,
    dimms: Vec<Dimm>,
    stats: ChannelStats,
}

/// A host memory controller.
///
/// # Example
///
/// ```
/// use reach_mem::{MemoryController, MemoryControllerConfig, AccessKind};
/// use reach_sim::SimTime;
///
/// let mut mc = MemoryController::new(MemoryControllerConfig::paper_mc());
/// let r = mc.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Read);
/// assert!(r.complete > SimTime::ZERO);
/// ```
pub struct MemoryController {
    config: MemoryControllerConfig,
    channels: Vec<Channel>,
}

impl MemoryController {
    /// Creates an idle controller with all DIMMs precharged.
    ///
    /// # Panics
    ///
    /// Panics if `channels` or `dimms_per_channel` is zero, or if a
    /// tile-interleave size is not a multiple of the line size.
    #[must_use]
    pub fn new(config: MemoryControllerConfig) -> Self {
        assert!(config.channels > 0, "MemoryController: need channels");
        assert!(config.dimms_per_channel > 0, "MemoryController: need DIMMs");
        if let Interleave::Tile(t) = config.interleave {
            assert!(
                t > 0 && t % config.dimm.line_bytes == 0,
                "MemoryController: tile size must be a positive multiple of the line size"
            );
        }
        let channels = (0..config.channels)
            .map(|_| Channel {
                bus: SerialResource::new(),
                dimms: (0..config.dimms_per_channel)
                    .map(|_| Dimm::new(config.dimm))
                    .collect(),
                stats: ChannelStats::default(),
            })
            .collect();
        MemoryController { config, channels }
    }

    /// The controller configuration.
    #[must_use]
    pub fn config(&self) -> &MemoryControllerConfig {
        &self.config
    }

    /// Switches the interleaving policy (the GAM does this when it
    /// reorganizes the memory space for near-memory kernels).
    pub fn set_interleave(&mut self, interleave: Interleave) {
        if let Interleave::Tile(t) = interleave {
            assert!(
                t > 0 && t % self.config.dimm.line_bytes == 0,
                "set_interleave: tile size must be a positive multiple of the line size"
            );
        }
        self.config.interleave = interleave;
    }

    /// Total number of DIMMs under this controller.
    #[must_use]
    pub fn dimm_count(&self) -> usize {
        self.config.channels * self.config.dimms_per_channel
    }

    /// Maps an address to `(channel, dimm-slot, address-within-dimm)`.
    #[must_use]
    pub fn map(&self, addr: u64) -> (usize, usize, u64) {
        let n = self.dimm_count() as u64;
        let unit = match self.config.interleave {
            Interleave::CacheLine => self.config.dimm.line_bytes,
            Interleave::Tile(t) => t,
        };
        let idx = addr / unit;
        let dimm_linear = (idx % n) as usize;
        let local = (idx / n) * unit + (addr % unit);
        (
            dimm_linear % self.config.channels,
            dimm_linear / self.config.channels,
            local,
        )
    }

    /// Accesses one line through the channel (host-side path).
    pub fn access_line(&mut self, now: SimTime, addr: u64, kind: AccessKind) -> Reservation {
        let (ch, slot, local) = self.map(addr);
        let line = self.config.dimm.line_bytes;
        let burst = self.config.dimm.timing.burst_time();
        let channel = &mut self.channels[ch];
        let dram = channel.dimms[slot].access(now, local, kind, RowPolicy::OpenPage);
        // The burst also crosses the channel bus.
        let issued = dram.complete - burst;
        let bus = channel.bus.reserve(issued, burst);
        channel.stats.bytes += line;
        channel.stats.contended += bus.queueing(issued);
        Reservation {
            start: dram.start,
            ready: bus.ready,
            complete: bus.ready,
        }
    }

    /// Streams `bytes` starting at `addr` through the host channels.
    ///
    /// Under cache-line interleave the transfer is spread across every DIMM
    /// and proceeds in parallel, bounded by each channel bus; under tile
    /// interleave it touches only the DIMMs its tiles live on. Completion is
    /// when the last byte arrives.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or larger than the controller's DIMMs hold
    /// together, naming `bytes`, the DIMM count and the per-DIMM capacity.
    pub fn stream(&mut self, now: SimTime, addr: u64, bytes: u64, kind: AccessKind) -> Reservation {
        assert!(bytes > 0, "MemoryController::stream: empty transfer");
        let n = self.dimm_count() as u64;
        let capacity = self.config.dimm.capacity;
        assert!(
            bytes <= n.saturating_mul(capacity),
            "MemoryController::stream: {bytes} bytes exceed {n} DIMMs x {capacity} bytes"
        );
        let mut start = SimTime::MAX;
        let mut complete = now;

        match self.config.interleave {
            Interleave::CacheLine => {
                // Even split across all DIMMs; each share streams locally and
                // its channel bus carries the channel's portion.
                let share = (bytes / n).max(self.config.dimm.line_bytes);
                for ch in 0..self.config.channels {
                    let per_channel = share * self.config.dimms_per_channel as u64;
                    // A partial last line still occupies the bus for a
                    // whole burst.
                    let bus_time = self
                        .config
                        .dimm
                        .timing
                        .burst_time()
                        .scaled(per_channel.div_ceil(self.config.dimm.line_bytes));
                    let channel = &mut self.channels[ch];
                    let bus = channel.bus.reserve(now, bus_time);
                    channel.stats.bytes += per_channel;
                    channel.stats.contended += bus.queueing(now);
                    for slot in 0..self.config.dimms_per_channel {
                        let local = (addr / n).min(capacity - share);
                        let r = channel.dimms[slot].stream(
                            now,
                            local,
                            share,
                            kind,
                            RowPolicy::OpenPage,
                        );
                        start = start.min(r.start);
                        complete = complete.max(r.complete).max(bus.ready);
                    }
                }
            }
            Interleave::Tile(tile) => {
                // Every tile is requested at `now`, and channel buses and
                // DIMMs are independent calendars, so the walk regroups
                // without changing any result: a partial head tile first,
                // then each channel's and each DIMM's share of the whole
                // tiles in one step, then a partial tail tile — the order
                // each calendar saw them in, tile by tile.
                let mut offset = addr;
                let mut remaining = bytes;
                let mut walk = |mc: &mut Self, offset: u64, len: u64, count: u64| {
                    let r = mc.stream_tiles(now, tile, offset, len, count, kind);
                    start = start.min(r.start);
                    complete = complete.max(r.complete);
                };
                if !offset.is_multiple_of(tile) {
                    let head = (tile - offset % tile).min(remaining);
                    walk(self, offset, head, 1);
                    offset += head;
                    remaining -= head;
                }
                let whole = remaining / tile;
                if whole > 0 {
                    walk(self, offset, tile, whole);
                    offset += tile * whole;
                }
                if !remaining.is_multiple_of(tile) {
                    walk(self, offset, remaining % tile, 1);
                }
            }
        }

        Reservation {
            start: if start == SimTime::MAX { now } else { start },
            ready: complete,
            complete,
        }
    }

    /// Streams `count` ranges of `len` bytes at `offset + i·tile`, each
    /// inside one tile (so `len == tile` whenever `count > 1`), as the
    /// tile-by-tile walk would: each range reserves its channel bus at
    /// `now` and streams from its DIMM.
    ///
    /// Work is proportional to the channels and DIMMs touched, not to
    /// `count`: a channel's ranges are identical bus reservations at
    /// `now`, made with one `reserve_many` whose queueing sums in closed
    /// form, and a DIMM's ranges are contiguous in its local space, so
    /// [`Dimm::stream_repeated`] streams them.
    ///
    /// # Panics
    ///
    /// Panics if the summed queueing of one channel's ranges overflows,
    /// naming its values.
    fn stream_tiles(
        &mut self,
        now: SimTime,
        tile: u64,
        offset: u64,
        len: u64,
        count: u64,
        kind: AccessKind,
    ) -> Reservation {
        let channels = self.config.channels as u64;
        let n = self.dimm_count() as u64;
        let line = self.config.dimm.line_bytes;
        let bus_time = self
            .config
            .dimm
            .timing
            .burst_time()
            .scaled(len.div_ceil(line));
        let mut start = SimTime::MAX;
        let mut complete = now;

        // `channels` divides the DIMM count, so range `i` rides channel
        // `(first + i) mod channels`.
        let first = offset / tile;
        for c in 0..count.min(channels) {
            let ch = ((first + c) % channels) as usize;
            let on_channel = (count - c).div_ceil(channels);
            let channel = &mut self.channels[ch];
            let bus = channel.bus.reserve_many(now, bus_time, on_channel);
            // The k-th range starts `k·bus_time` after the first, so the
            // ranges queue `on_channel·lag + bus_time·on_channel(on_channel−1)/2`.
            let lag = bus.queueing(now).as_ps();
            let pairs = if on_channel.is_multiple_of(2) {
                (on_channel / 2) * (on_channel - 1)
            } else {
                on_channel * ((on_channel - 1) / 2)
            };
            let queued = on_channel
                .checked_mul(lag)
                .zip(pairs.checked_mul(bus_time.as_ps()))
                .and_then(|(lags, spread)| lags.checked_add(spread))
                .unwrap_or_else(|| {
                    panic!(
                        "MemoryController::stream: {on_channel} ranges of {bus_time:?} \
                         queued {lag} ps behind channel {ch} overflow its queueing sum"
                    )
                });
            channel.stats.bytes += on_channel * len;
            channel.stats.contended += SimDuration::from_ps(queued);
            complete = complete.max(bus.ready);
        }

        for d in 0..count.min(n) {
            let (ch, slot, local) = self.map(offset + d * tile);
            let on_dimm = (count - d).div_ceil(n);
            let r = self.channels[ch].dimms[slot].stream_repeated(
                now,
                local,
                len,
                on_dimm,
                kind,
                RowPolicy::OpenPage,
            );
            start = start.min(r.start);
            complete = complete.max(r.complete);
        }

        Reservation {
            start,
            ready: complete,
            complete,
        }
    }

    /// Direct mutable access to a DIMM (the AIM path, bypassing the channel).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn dimm_mut(&mut self, channel: usize, slot: usize) -> &mut Dimm {
        &mut self.channels[channel].dimms[slot]
    }

    /// Shared view of a DIMM.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn dimm(&self, channel: usize, slot: usize) -> &Dimm {
        &self.channels[channel].dimms[slot]
    }

    /// Host-side bytes that crossed channel `ch`.
    #[must_use]
    pub fn channel_bytes(&self, ch: usize) -> u64 {
        self.channels[ch].stats.bytes
    }

    /// Host-side bytes summed over all channels (memory-channel interconnect
    /// energy is billed per byte).
    #[must_use]
    pub fn total_channel_bytes(&self) -> u64 {
        self.channels.iter().map(|c| c.stats.bytes).sum()
    }

    /// Accumulated busy time of channel `ch`'s bus.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn channel_busy(&self, ch: usize) -> SimDuration {
        self.channels[ch].bus.busy_time()
    }

    /// Time requests queued behind other traffic for channel `ch`'s bus.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn channel_contended(&self, ch: usize) -> SimDuration {
        self.channels[ch].stats.contended
    }

    /// Bus queueing time summed over all channels.
    #[must_use]
    pub fn total_contended(&self) -> SimDuration {
        self.channels
            .iter()
            .fold(SimDuration::ZERO, |acc, c| acc + c.stats.contended)
    }

    /// [`MemoryController::total_contended`] expressed in IO-clock cycles of
    /// this controller's DIMMs (DDR4-2400: 1200 MHz), rounded down — the
    /// `ddr.contended_cycles` telemetry gauge.
    #[must_use]
    pub fn contended_cycles(&self) -> u64 {
        let cycle = self.config.dimm.timing.io_clock.cycles(1).as_ps();
        self.total_contended().as_ps() / cycle
    }

    /// Aggregate DRAM statistics over all DIMMs.
    #[must_use]
    pub fn dram_stats(&self) -> crate::ddr::DimmStats {
        let mut total = crate::ddr::DimmStats::default();
        for ch in &self.channels {
            for d in &ch.dimms {
                let s = d.stats();
                total.activations += s.activations;
                total.read_bursts += s.read_bursts;
                total.write_bursts += s.write_bursts;
                total.row_hits += s.row_hits;
                total.bytes += s.bytes;
            }
        }
        total
    }
}

impl std::fmt::Debug for MemoryController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryController")
            .field("config", &self.config)
            .field("total_channel_bytes", &self.total_channel_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddr::tests::regime_config;
    use proptest::prelude::*;

    fn mc() -> MemoryController {
        MemoryController::new(MemoryControllerConfig::paper_mc())
    }

    #[test]
    fn map_cache_line_rotates_across_dimms() {
        let m = mc();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4u64 {
            let (ch, slot, _) = m.map(i * 64);
            seen.insert((ch, slot));
        }
        assert_eq!(seen.len(), 4, "4 consecutive lines hit 4 distinct DIMMs");
    }

    #[test]
    fn map_tile_keeps_tiles_contiguous() {
        let mut m = mc();
        m.set_interleave(Interleave::Tile(1 << 20));
        let (ch0, slot0, local0) = m.map(0);
        let (ch1, slot1, local1) = m.map((1 << 20) - 64);
        assert_eq!((ch0, slot0), (ch1, slot1));
        assert_eq!(local1 - local0, (1 << 20) - 64);
        let (ch2, slot2, _) = m.map(1 << 20);
        assert_ne!((ch0, slot0), (ch2, slot2));
    }

    #[test]
    fn map_local_addresses_stay_in_capacity() {
        let m = mc();
        let cap = m.config().dimm.capacity;
        // Highest host address = 4 DIMMs worth of capacity.
        let top = cap * 4 - 64;
        let (_, _, local) = m.map(top);
        assert!(local < cap);
    }

    #[test]
    fn stream_uses_aggregate_bandwidth() {
        let mut m = mc();
        let bytes: u64 = 256 << 20;
        let r = m.stream(SimTime::ZERO, 0, bytes, AccessKind::Read);
        let secs = (r.complete - SimTime::ZERO).as_secs_f64();
        let achieved = bytes as f64 / secs;
        // 2 channels x 19.2 GB/s = 38.4 GB/s aggregate; expect > 75% of it.
        assert!(achieved > 0.75 * 38.4e9, "achieved {achieved:.3e}");
        assert!(achieved < 38.4e9 * 1.001);
    }

    #[test]
    fn concurrent_streams_halve_throughput() {
        let mut m = mc();
        let bytes: u64 = 64 << 20;
        let solo = {
            let mut m2 = mc();
            m2.stream(SimTime::ZERO, 0, bytes, AccessKind::Read)
                .complete
        };
        let a = m.stream(SimTime::ZERO, 0, bytes, AccessKind::Read);
        let b = m.stream(SimTime::ZERO, 1 << 30, bytes, AccessKind::Read);
        let last = a.complete.max(b.complete);
        let ratio = last.as_ps() as f64 / solo.as_ps() as f64;
        assert!(ratio > 1.7, "channel contention expected, ratio {ratio}");
    }

    #[test]
    fn access_line_reserves_channel_bus() {
        let mut m = mc();
        let a = m.access_line(SimTime::ZERO, 0, AccessKind::Read);
        assert!(a.complete > SimTime::ZERO);
        assert_eq!(m.total_channel_bytes(), 64);
    }

    #[test]
    fn channel_bytes_track_streams() {
        let mut m = mc();
        m.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Write);
        // Even split across 2 channels.
        assert_eq!(m.channel_bytes(0), m.channel_bytes(1));
        assert_eq!(m.total_channel_bytes(), 1 << 20);
    }

    #[test]
    fn partial_burst_bills_a_whole_burst() {
        let mut m = mc();
        // 400 bytes over 4 DIMMs: 200 per channel, 3.125 lines, 4 bursts.
        m.stream(SimTime::ZERO, 0, 400, AccessKind::Read);
        let burst = DimmConfig::ddr4_16gb().timing.burst_time();
        assert_eq!(m.channel_bytes(0), 200);
        assert_eq!(m.channel_busy(0), burst.scaled(4));
    }

    #[test]
    fn dram_stats_aggregate() {
        let mut m = mc();
        m.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Read);
        let s = m.dram_stats();
        assert_eq!(s.bytes, 1 << 20);
        assert!(s.activations > 0);
        assert_eq!(s.read_bursts, (1 << 20) / 64);
    }

    #[test]
    fn uncontended_access_records_no_queueing() {
        let mut m = mc();
        m.access_line(SimTime::ZERO, 0, AccessKind::Read);
        assert_eq!(m.total_contended(), SimDuration::ZERO);
        assert_eq!(m.contended_cycles(), 0);
    }

    #[test]
    fn concurrent_streams_accumulate_contended_time() {
        let mut m = mc();
        let bytes: u64 = 64 << 20;
        m.stream(SimTime::ZERO, 0, bytes, AccessKind::Read);
        m.stream(SimTime::ZERO, 1 << 30, bytes, AccessKind::Read);
        // The second stream found both channel buses busy, so it queued for
        // roughly the first stream's wire time.
        assert!(m.total_contended() > SimDuration::ZERO);
        assert!(m.contended_cycles() > 0);
        assert_eq!(
            m.total_contended(),
            m.channel_contended(0) + m.channel_contended(1)
        );
    }

    #[test]
    #[should_panic(expected = "tile size")]
    fn bad_tile_size_rejected() {
        let mut m = mc();
        m.set_interleave(Interleave::Tile(100)); // not a line multiple
    }

    #[test]
    #[should_panic(
        expected = "MemoryController::stream: 4194368 bytes exceed 4 DIMMs x 1048576 bytes"
    )]
    fn oversized_cache_line_stream_names_its_size() {
        // One line past what four 1 MiB DIMMs hold: each DIMM's share would
        // exceed its capacity, which used to underflow the start clamp.
        let mut config = MemoryControllerConfig::paper_mc();
        config.dimm.capacity = 1 << 20;
        let mut m = MemoryController::new(config);
        m.stream(SimTime::ZERO, 0, (4 << 20) + 64, AccessKind::Read);
    }

    /// The tile-by-tile walk `stream` made before the walk was regrouped,
    /// kept verbatim as the equivalence oracle for `Interleave::Tile`.
    fn tile_stream_reference(
        m: &mut MemoryController,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
    ) -> Reservation {
        let Interleave::Tile(tile) = m.config.interleave else {
            panic!("reference walk needs tile interleave")
        };
        let mut start = SimTime::MAX;
        let mut complete = now;
        let mut offset = addr;
        let mut remaining = bytes;
        while remaining > 0 {
            let in_tile = (tile - (offset % tile)).min(remaining);
            let (ch, slot, local) = m.map(offset);
            let bus_time = m
                .config
                .dimm
                .timing
                .burst_time()
                .scaled(in_tile.div_ceil(m.config.dimm.line_bytes));
            let channel = &mut m.channels[ch];
            let bus = channel.bus.reserve(now, bus_time);
            channel.stats.bytes += in_tile;
            channel.stats.contended += bus.queueing(now);
            let r = channel.dimms[slot].stream(now, local, in_tile, kind, RowPolicy::OpenPage);
            start = start.min(r.start);
            complete = complete.max(r.complete).max(bus.ready);
            offset += in_tile;
            remaining -= in_tile;
        }
        Reservation {
            start: if start == SimTime::MAX { now } else { start },
            ready: complete,
            complete,
        }
    }

    /// Streams on `fast` with [`MemoryController::stream`] and on `slow`
    /// with the per-tile reference, then asserts the same reservation and
    /// the same state on every channel and DIMM.
    fn assert_tile_stream_matches_reference(
        fast: &mut MemoryController,
        slow: &mut MemoryController,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
    ) -> Reservation {
        let rf = fast.stream(now, addr, bytes, kind);
        let rs = tile_stream_reference(slow, now, addr, bytes, kind);
        assert_eq!(rf, rs, "reservation");
        for (ch, (f, s)) in fast.channels.iter().zip(&slow.channels).enumerate() {
            assert_eq!(f.stats, s.stats, "channel {ch} bytes and contended time");
            assert_eq!(f.bus.free_at(), s.bus.free_at(), "channel {ch} bus free");
            assert_eq!(f.bus.busy_time(), s.bus.busy_time(), "channel {ch} busy");
            assert_eq!(f.bus.served(), s.bus.served(), "channel {ch} served");
            for (slot, (fd, sd)) in f.dimms.iter().zip(&s.dimms).enumerate() {
                fd.assert_same_state(sd, &format!("DIMM ({ch}, {slot})"));
            }
        }
        rf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The regrouped tile walk is identical to the per-tile walk for
        /// random timings in every refresh regime plus the paper DIMM, tile
        /// sizes that are and are not row multiples, 1–4 channels x 1–4
        /// DIMMs, unaligned starts with partial head and tail tiles, and
        /// buses and DIMMs loaded by earlier streams — down to a follow-up
        /// line access and every DIMM's hand-over.
        #[test]
        fn tile_walk_matches_per_tile_reference(
            regime in 0u64..5,
            geometry in (200u64..2_000, 1u64..9, 4u64..9, 1u64..33),
            draws in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            shape in (1usize..5, 1usize..5),
            tile_rows in 1u64..24,
            tile_extra_lines in 0u64..3,
            walks in proptest::collection::vec((0u64..(1u64 << 26), 1u64..(1u64 << 24), 0u64..4_000_000), 1..4),
            write in any::<bool>(),
        ) {
            let (mhz, burst_half, row_log, banks) = geometry;
            let dimm = regime_config(regime, mhz, burst_half, row_log, banks, [draws.0, draws.1, draws.2]);
            let (channels, dimms_per_channel) = shape;
            let tile = tile_rows * dimm.row_bytes + tile_extra_lines * dimm.line_bytes;
            let mut fast = MemoryController::new(MemoryControllerConfig {
                channels,
                dimms_per_channel,
                dimm,
                interleave: Interleave::Tile(tile),
                ..MemoryControllerConfig::paper_mc()
            });
            let mut slow = MemoryController::new(*fast.config());
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            // Earlier walks load the buses and DIMMs the last one meets.
            let mut last = None;
            for &(addr, bytes, at_ps) in &walks {
                let now = SimTime::from_ps(at_ps);
                last = Some(assert_tile_stream_matches_reference(&mut fast, &mut slow, now, addr, bytes, kind));
            }
            let done = last.expect("at least one walk").complete;
            let (addr, _, _) = walks[0];
            prop_assert_eq!(
                fast.access_line(done, addr, kind),
                slow.access_line(done, addr, kind)
            );
            for ch in 0..channels {
                for slot in 0..dimms_per_channel {
                    prop_assert_eq!(fast.dimm_mut(ch, slot).hand_over(done), slow.dimm_mut(ch, slot).hand_over(done));
                }
            }
        }
    }

    #[test]
    fn gib_tile_walk_makes_bounded_dimm_calls() {
        // A 1 GiB walk in 1 MiB tiles over the paper controller puts 256
        // tiles on each DIMM. Each DIMM's whole tiles jump the 9-tile
        // DDR4-2400 phase cycle, so the genuine `Dimm::stream` calls per
        // DIMM stay bounded whatever the tile count — for a walk 16x
        // smaller too. The unaligned start adds a head and a tail tile.
        for bytes in [1u64 << 30, 64 << 20] {
            let config = MemoryControllerConfig {
                interleave: Interleave::Tile(1 << 20),
                ..MemoryControllerConfig::paper_mc()
            };
            let mut fast = MemoryController::new(config);
            let mut slow = MemoryController::new(config);
            assert_tile_stream_matches_reference(
                &mut fast,
                &mut slow,
                SimTime::from_ps(1_234_567),
                4_160,
                bytes,
                AccessKind::Read,
            );
            for ch in 0..2 {
                for slot in 0..2 {
                    let calls = fast.dimm(ch, slot).stream_calls();
                    assert!(
                        calls <= 20,
                        "{bytes} bytes: DIMM ({ch}, {slot}) made {calls} calls"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow its queueing sum")]
    fn tile_walk_queueing_overflow_names_its_values() {
        // Both channel buses busy until ~2^62 ps: four tiles per channel
        // requested at zero queue ~2^64 ps between them, which the
        // per-tile walk could not have summed either.
        let mut m = mc();
        m.set_interleave(Interleave::Tile(1 << 20));
        m.stream(SimTime::from_ps(1 << 62), 0, 2 << 20, AccessKind::Read);
        m.stream(SimTime::ZERO, 0, 8 << 20, AccessKind::Read);
    }

    #[test]
    fn wide_controller_walk_touches_only_its_dimms() {
        // 4,096 near-memory DIMMs: a 3-tile walk streams three of them
        // and leaves the rest idle.
        let mut m = MemoryController::new(MemoryControllerConfig {
            channels: 2,
            dimms_per_channel: 2_048,
            interleave: Interleave::Tile(1 << 20),
            ..MemoryControllerConfig::paper_mc()
        });
        m.stream(SimTime::ZERO, 0, 3 << 20, AccessKind::Read);
        let busy: Vec<(usize, usize)> = (0..2)
            .flat_map(|ch| (0..2_048).map(move |slot| (ch, slot)))
            .filter(|&(ch, slot)| m.dimm(ch, slot).stream_calls() > 0)
            .collect();
        assert_eq!(busy, [(0, 0), (0, 1), (1, 0)]);
    }

    #[test]
    fn tile_stream_touches_only_owning_dimms() {
        let mut m = mc();
        m.set_interleave(Interleave::Tile(1 << 20));
        // Stream exactly one tile: only DIMM (0,0) should see traffic.
        m.stream(SimTime::ZERO, 0, 1 << 20, AccessKind::Read);
        assert_eq!(m.dimm(0, 0).stats().bytes, 1 << 20);
        assert_eq!(m.dimm(1, 0).stats().bytes, 0);
        assert_eq!(m.dimm(0, 1).stats().bytes, 0);
    }
}
