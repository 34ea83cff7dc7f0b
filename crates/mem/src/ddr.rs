//! DDR4 DIMM timing model.
//!
//! A [`Dimm`] is a set of banks, each with an open-row register and a
//! busy-until calendar, plus a shared data bus. Accesses are issued at
//! cache-line (burst) granularity; streaming transfers use
//! [`Dimm::stream`], which reserves whole-row bursts, batches the rows of
//! each refresh period and, once the periods repeat, reserves all of them
//! in closed form. A multi-gigabyte scan therefore costs the host a bounded
//! number of steps, without losing bus-contention fidelity.
//! [`Dimm::stream_repeated`] does the same one level up for the back-to-back
//! equal ranges of a tile-interleaved walk: once the bus phase recurs, it
//! takes whole cycles of ranges in one step.
//!
//! The timing parameters follow the JEDEC DDR4-2400 speed grade the paper's
//! configuration (8 DDR4 DIMMs, 2 memory controllers) implies.

use reach_sim::{Frequency, Reservation, SerialResource, SimDuration, SimTime};

/// Whether an access reads or writes the DRAM array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read burst.
    Read,
    /// A write burst.
    Write,
}

/// Row-buffer management policy.
///
/// The host memory controller runs open-page; an AIM module that owns a DIMM
/// enforces closed-row so the host can assume all banks are precharged when
/// control is handed back (paper, Section II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RowPolicy {
    /// Leave the row open after an access (row hits get CAS-only latency).
    #[default]
    OpenPage,
    /// Precharge immediately after every access.
    ClosedRow,
}

/// DDR4 timing parameters, in device clock cycles unless noted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DdrTiming {
    /// I/O bus frequency (the "2400" in DDR4-2400 is megatransfers/s; the
    /// bus clock is half that).
    pub io_clock: Frequency,
    /// CAS latency (column access strobe), cycles.
    pub cl: u64,
    /// Row-to-column delay, cycles.
    pub t_rcd: u64,
    /// Precharge time, cycles.
    pub t_rp: u64,
    /// Minimum row-active time, cycles.
    pub t_ras: u64,
    /// Refresh cycle time.
    pub t_rfc: SimDuration,
    /// Average refresh interval.
    pub t_refi: SimDuration,
    /// Burst length in bus transfers (8 for DDR4).
    pub burst_len: u64,
}

impl DdrTiming {
    /// JEDEC DDR4-2400 (CL17) timing.
    #[must_use]
    pub fn ddr4_2400() -> Self {
        DdrTiming {
            io_clock: Frequency::from_mhz(1200),
            cl: 17,
            t_rcd: 17,
            t_rp: 17,
            t_ras: 39,
            t_rfc: SimDuration::from_ns(350),
            t_refi: SimDuration::from_ns(7_800),
            burst_len: 8,
        }
    }

    fn cycles(&self, n: u64) -> SimDuration {
        self.io_clock.cycles(n)
    }

    /// Time the data bus is occupied by one burst (half the burst length in
    /// bus-clock cycles, because DDR transfers on both edges).
    #[must_use]
    pub fn burst_time(&self) -> SimDuration {
        self.cycles(self.burst_len / 2)
    }

    /// CAS-only access latency (row already open).
    #[must_use]
    pub fn hit_latency(&self) -> SimDuration {
        self.cycles(self.cl) + self.burst_time()
    }

    /// Activate + CAS latency (bank precharged).
    #[must_use]
    pub fn act_latency(&self) -> SimDuration {
        self.cycles(self.t_rcd + self.cl) + self.burst_time()
    }

    /// Precharge + activate + CAS latency (row conflict).
    #[must_use]
    pub fn conflict_latency(&self) -> SimDuration {
        self.cycles(self.t_rp + self.t_rcd + self.cl) + self.burst_time()
    }
}

/// Geometry and policy configuration of one DIMM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DimmConfig {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Number of banks (rank x bank-group x bank flattened).
    pub banks: u64,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Transfer granularity in bytes — one cache line per burst.
    pub line_bytes: u64,
    /// Timing parameters.
    pub timing: DdrTiming,
}

impl DimmConfig {
    /// A 16 GiB DDR4-2400 DIMM with 16 banks and 8 KiB rows — the shape the
    /// paper's Table II system (8 DDR4 DIMMs) uses.
    #[must_use]
    pub fn ddr4_16gb() -> Self {
        DimmConfig {
            capacity: 16 << 30,
            banks: 16,
            row_bytes: 8 << 10,
            line_bytes: 64,
            timing: DdrTiming::ddr4_2400(),
        }
    }
}

/// Statistics a DIMM accumulates for the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DimmStats {
    /// Row activations issued.
    pub activations: u64,
    /// Read bursts issued.
    pub read_bursts: u64,
    /// Write bursts issued.
    pub write_bursts: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Bytes moved over the data bus.
    pub bytes: u64,
}

impl DimmStats {
    /// Adds `times` more copies of what accrued since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if a repeated total overflows, naming its values.
    fn repeat_since(&mut self, earlier: &DimmStats, times: u64) {
        let repeat = |now: &mut u64, then: u64, what: &str| {
            let total = (*now - then)
                .checked_mul(times)
                .and_then(|step| now.checked_add(step));
            *now = total.unwrap_or_else(|| {
                panic!("DimmStats::repeat_since: {what} {then} -> {now} repeated {times} more times overflows")
            });
        };
        repeat(&mut self.activations, earlier.activations, "activations");
        repeat(&mut self.read_bursts, earlier.read_bursts, "read bursts");
        repeat(&mut self.write_bursts, earlier.write_bursts, "write bursts");
        repeat(&mut self.row_hits, earlier.row_hits, "row hits");
        repeat(&mut self.bytes, earlier.bytes, "bytes");
    }
}

/// Calls [`Dimm::stream_repeated`] searches for a recurring bus phase
/// before it falls back to one call per range.
const CYCLE_SEARCH_CALLS: usize = 64;

/// State of one DRAM bank.
#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    ready_at: SimTime,
}

/// One DDR4 DIMM: banks plus a shared data bus.
///
/// # Example
///
/// ```
/// use reach_mem::{Dimm, DimmConfig, AccessKind, RowPolicy};
/// use reach_sim::SimTime;
///
/// let mut dimm = Dimm::new(DimmConfig::ddr4_16gb());
/// let first = dimm.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
/// let second = dimm.access(first.complete, 64, AccessKind::Read, RowPolicy::OpenPage);
/// // Same row: the second access is a row hit and therefore faster.
/// assert!(second.complete - second.start < first.complete - first.start);
/// ```
#[derive(Clone, Debug)]
pub struct Dimm {
    config: DimmConfig,
    banks: Vec<Bank>,
    bus: SerialResource,
    stats: DimmStats,
    /// Loop trips taken by [`Dimm::stream`], for tests that bound them.
    #[cfg(test)]
    stream_trips: u64,
    /// Genuine [`Dimm::stream`] calls, for tests that bound the calls
    /// [`Dimm::stream_repeated`] makes.
    #[cfg(test)]
    stream_calls: u64,
}

impl Dimm {
    /// Creates an idle DIMM with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero banks, or a row
    /// smaller than a line).
    #[must_use]
    pub fn new(config: DimmConfig) -> Self {
        assert!(config.banks > 0, "Dimm: need at least one bank");
        assert!(
            config.row_bytes >= config.line_bytes && config.line_bytes > 0,
            "Dimm: row must hold at least one line"
        );
        Dimm {
            config,
            banks: vec![Bank::default(); config.banks as usize],
            bus: SerialResource::new(),
            stats: DimmStats::default(),
            #[cfg(test)]
            stream_trips: 0,
            #[cfg(test)]
            stream_calls: 0,
        }
    }

    /// The DIMM's configuration.
    #[must_use]
    pub fn config(&self) -> &DimmConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DimmStats {
        &self.stats
    }

    /// Peak data-bus bandwidth of this DIMM in bytes/s.
    #[must_use]
    pub fn peak_bandwidth_bytes_per_sec(&self) -> u64 {
        let line_time = self.config.timing.burst_time().as_ps();
        self.config.line_bytes * 1_000_000_000_000 / line_time
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.config.row_bytes;
        let bank = (row_index % self.config.banks) as usize;
        let row = row_index / self.config.banks;
        (bank, row)
    }

    /// Pushes `t` past any refresh blackout it lands in. Refresh is modeled
    /// as a periodic whole-device blackout of `t_rfc` every `t_refi`.
    fn refresh_adjust(&self, t: SimTime) -> SimTime {
        let refi = self.config.timing.t_refi.as_ps();
        let rfc = self.config.timing.t_rfc.as_ps();
        let phase = t.as_ps() % refi;
        if phase < rfc {
            SimTime::from_ps(t.as_ps() - phase + rfc)
        } else {
            t
        }
    }

    /// Performs one line-granularity access at `addr`.
    ///
    /// The returned [`Reservation`] covers queueing behind the bank and the
    /// shared data bus; `complete` is when the data burst finishes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the DIMM capacity.
    pub fn access(
        &mut self,
        now: SimTime,
        addr: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        assert!(
            addr < self.config.capacity,
            "Dimm::access: address {addr:#x} beyond capacity"
        );
        let (bank_idx, row) = self.locate(addr);
        let t = self.config.timing;
        let bank_ready = self.banks[bank_idx].ready_at;
        let start = self.refresh_adjust(now.max(bank_ready));
        let bank = &mut self.banks[bank_idx];
        let (array_latency, hit) = match bank.open_row {
            Some(open) if open == row => (t.hit_latency(), true),
            Some(_) => (t.conflict_latency(), false),
            None => (t.act_latency(), false),
        };
        if !hit {
            self.stats.activations += 1;
        } else {
            self.stats.row_hits += 1;
        }

        // The burst occupies the shared data bus at the tail of the access.
        let burst = t.burst_time();
        let data_at = start + (array_latency - burst);
        let bus_res = self.bus.reserve(data_at, burst);
        let complete = bus_res.ready;

        bank.open_row = match policy {
            RowPolicy::OpenPage => Some(row),
            RowPolicy::ClosedRow => None,
        };
        // Bank is busy until the burst drains (plus precharge under
        // closed-row); enforce minimum row-active time for new activations.
        let mut ready = complete;
        if policy == RowPolicy::ClosedRow {
            ready += t.cycles(t.t_rp);
        }
        if !hit {
            ready = ready.max(start + t.cycles(t.t_ras));
        }
        bank.ready_at = ready;

        match kind {
            AccessKind::Read => self.stats.read_bursts += 1,
            AccessKind::Write => self.stats.write_bursts += 1,
        }
        self.stats.bytes += self.config.line_bytes;

        Reservation {
            start,
            ready,
            complete,
        }
    }

    /// Streams `bytes` sequentially starting at `addr` — the fast path for
    /// the multi-gigabyte scans in the CBIR experiments.
    ///
    /// The stream is billed row by row: each row pays one activation plus
    /// back-to-back bursts on the shared bus, so a competing stream on the
    /// same DIMM still contends for bus time. Row activations overlap the
    /// previous row's bursts (bank-level parallelism), matching how an
    /// FR-FCFS controller pipelines a sequential scan.
    ///
    /// Interior full rows are reserved in refresh-period batches via
    /// [`SerialResource::reserve_many`]. When a whole batch ends so that the
    /// next one starts at the same phase modulo `t_refi`, every later whole
    /// period repeats it exactly, and [`SerialResource::reserve_periodic`]
    /// reserves them all in one step. At DDR4-2400 that phase is `t_rfc`,
    /// with 18 rows per period. Timing and stats are bit-identical to the
    /// row-by-row loop (property tests check this against a reference
    /// implementation over random timings), and when the phase repeats the
    /// loop makes a bounded number of trips, whatever `bytes` is. Timings
    /// whose phase never repeats fall back to one trip per period. The
    /// first row (activate lead-in), the final `banks + 1` rows (per-bank
    /// open-row/ready state) and any partial rows stay on the per-row path.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the DIMM capacity (naming `addr`,
    /// `bytes` and the capacity) or `bytes` is zero.
    pub fn stream(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        assert!(bytes > 0, "Dimm::stream: empty transfer");
        #[cfg(test)]
        {
            self.stream_calls += 1;
        }
        let capacity = self.config.capacity;
        assert!(
            addr.checked_add(bytes).is_some_and(|end| end <= capacity),
            "Dimm::stream: {bytes} bytes at {addr:#x} run beyond capacity {capacity}"
        );
        let t = self.config.timing;
        let row_bytes = self.config.row_bytes;
        let line = self.config.line_bytes;

        let mut offset = addr;
        let mut remaining = bytes;
        let mut first_start: Option<SimTime> = None;
        let mut complete = now;

        while remaining > 0 {
            #[cfg(test)]
            {
                self.stream_trips += 1;
            }
            let in_row = (row_bytes - (offset % row_bytes)).min(remaining);

            // Batched fast path: runs of interior full rows within one
            // refresh period collapse into a single bus reservation. The
            // per-row loop below would give every one of them zero lead-in,
            // a start of `refresh_adjust(now.max(bus.free_at()))` (the
            // identity inside a period, since starts advance monotonically
            // past the blackout) and an identical service time, so
            // `reserve_many` reproduces its timing exactly. The final
            // `banks + 1` rows are excluded so each bank's open-row and
            // ready-at state is written by the genuine last row touching it.
            if first_start.is_some() && in_row == row_bytes {
                let full_rows_left = remaining / row_bytes;
                let tail_rows = self.config.banks + 1;
                if full_rows_left > tail_rows {
                    let lines_per_row = row_bytes / line;
                    let row_service = t.burst_time().scaled(lines_per_row);
                    let p_adj = self.refresh_adjust(now.max(self.bus.free_at()));
                    let refi = t.t_refi.as_ps();
                    let period_end = (p_adj.as_ps() / refi + 1) * refi;
                    // Rows fitting before the next blackout: starts are
                    // p_adj + i*service, valid while strictly below the
                    // period end.
                    let fit = (period_end - p_adj.as_ps()).div_ceil(row_service.as_ps().max(1));
                    let take = fit.min(full_rows_left - tail_rows);
                    if take > 0 {
                        let res = self.bus.reserve_many(p_adj, row_service, take);
                        complete = res.ready;
                        let mut rows = take;
                        // Steady-state jump: if the next batch would start
                        // at the same phase modulo `t_refi`, it fits the
                        // same rows and starts exactly `period` later, and
                        // so does every whole batch after it. Reserve all
                        // of them at once; `period >= fit * row_service`
                        // because the next start is at or after this
                        // batch's end.
                        let next = self.refresh_adjust(complete);
                        let periods = (full_rows_left - tail_rows - take) / fit;
                        if take == fit && periods > 0 && next.as_ps() % refi == p_adj.as_ps() % refi
                        {
                            let period = next - p_adj;
                            complete = self
                                .bus
                                .reserve_periodic(next, period, row_service, fit, periods)
                                .ready;
                            rows += periods * fit;
                        }
                        self.stats.activations += rows;
                        self.stats.bytes += rows * row_bytes;
                        match kind {
                            AccessKind::Read => self.stats.read_bursts += rows * lines_per_row,
                            AccessKind::Write => self.stats.write_bursts += rows * lines_per_row,
                        }
                        offset += rows * row_bytes;
                        remaining -= rows * row_bytes;
                        continue;
                    }
                }
            }

            let lines = in_row.div_ceil(line);
            let burst_total = t.burst_time().scaled(lines);

            // First row pays the full activate latency; subsequent rows hide
            // it behind the previous row's bursts (pipelined activation in
            // another bank), paying only the bus time.
            let lead_in = if first_start.is_none() {
                t.cycles(t.t_rcd + t.cl)
            } else {
                SimDuration::ZERO
            };
            let start = self.refresh_adjust(now.max(self.bus.free_at()));
            let res = self.bus.reserve(start + lead_in, burst_total);
            first_start.get_or_insert(res.start - lead_in);
            complete = res.ready;

            self.stats.activations += 1;
            self.stats.bytes += lines * line;
            match kind {
                AccessKind::Read => self.stats.read_bursts += lines,
                AccessKind::Write => self.stats.write_bursts += lines,
            }
            // Track which row ends open for policy accounting.
            let (bank_idx, row) = self.locate(offset);
            self.banks[bank_idx].open_row = match policy {
                RowPolicy::OpenPage => Some(row),
                RowPolicy::ClosedRow => None,
            };
            self.banks[bank_idx].ready_at = complete;

            offset += in_row;
            remaining -= in_row;
        }

        Reservation {
            start: first_start.expect("stream issued at least one row"),
            ready: complete,
            complete,
        }
    }

    /// Streams `count` back-to-back ranges of `bytes` each, starting at
    /// `addr`, all requested at `now` — the whole tiles a tile-interleaved
    /// controller walk finds in this DIMM.
    ///
    /// Exactly equivalent to `count` [`Dimm::stream`] calls at
    /// `addr + i·bytes`; the returned reservation spans them all (`start`
    /// is the first call's start, `ready`/`complete` the last call's
    /// finish). Once the bus is busy past `now`, a call's timing depends
    /// only on the bus's phase modulo `t_refi`, and `stream` only writes
    /// bank state, never reads it. So when a call would start at a phase
    /// an earlier call started at, the calls in between form a cycle that
    /// every later call repeats, shifted by whole refresh periods. All
    /// remaining whole cycles are taken in one step: the bus calendar is
    /// moved on with [`SerialResource::repeat_since`] and the stats billed
    /// by multiplication. The final calls, enough to cover `banks` rows,
    /// run for real, so every bank's open row and ready time are written
    /// by the genuine last row touching it. At DDR4-2400 a 1 MiB range has
    /// a 9-call cycle. The jump needs `bytes` to be a multiple of the row
    /// size (so every call splits into rows alike); other sizes, and
    /// cycles not found within the first 64 calls, keep one call per
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` or `count` is zero, or if the ranges run beyond
    /// the DIMM capacity (naming `count`, `bytes`, `addr` and the
    /// capacity).
    pub fn stream_repeated(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
        count: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        assert!(count > 0, "Dimm::stream_repeated: no ranges");
        let capacity = self.config.capacity;
        assert!(
            bytes
                .checked_mul(count)
                .and_then(|total| total.checked_add(addr))
                .is_some_and(|end| end <= capacity),
            "Dimm::stream_repeated: {count} x {bytes} bytes at {addr:#x} run beyond capacity {capacity}"
        );
        let refi = self.config.timing.t_refi.as_ps();
        let row_bytes = self.config.row_bytes;
        // Real calls kept at the end: enough consecutive rows to touch
        // every bank.
        let tail = if bytes.is_multiple_of(row_bytes) {
            self.config.banks.div_ceil(bytes / row_bytes)
        } else {
            0
        };
        // (call index, bus, stats) before each call searched so far.
        let mut seen: Vec<(u64, SerialResource, DimmStats)> = Vec::new();
        let mut searching = tail > 0;

        let first = self.stream(now, addr, bytes, kind, policy);
        let mut complete = first.complete;
        let mut i = 1;
        while i < count {
            if searching {
                // The first call leaves the bus busy past `now`, so from
                // here on the phase decides each call's timing.
                let phase = self.bus.free_at().as_ps() % refi;
                let repeat = seen
                    .iter()
                    .position(|(_, bus, _)| bus.free_at().as_ps() % refi == phase);
                if let Some(at) = repeat {
                    let (since, bus, stats) = &seen[at];
                    let len = i - since;
                    let cycles = (count - i).saturating_sub(tail) / len;
                    if cycles > 0 {
                        self.bus.repeat_since(bus, cycles);
                        self.stats.repeat_since(stats, cycles);
                        i += cycles * len;
                    }
                    searching = false;
                } else if seen.len() < CYCLE_SEARCH_CALLS {
                    seen.push((i, self.bus.clone(), self.stats));
                } else {
                    searching = false;
                }
            }
            complete = self
                .stream(now, addr + i * bytes, bytes, kind, policy)
                .complete;
            i += 1;
        }

        Reservation {
            start: first.start,
            ready: complete,
            complete,
        }
    }

    /// Leaves every bank precharged and returns when the hand-over to a new
    /// owner is complete (all in-flight work drained plus one precharge).
    pub fn hand_over(&mut self, now: SimTime) -> SimTime {
        let t = self.config.timing;
        let mut done = now.max(self.bus.free_at());
        for bank in &mut self.banks {
            done = done.max(bank.ready_at);
            bank.open_row = None;
        }
        let done = done + t.cycles(t.t_rp);
        for bank in &mut self.banks {
            bank.ready_at = done;
        }
        done
    }

    /// Genuine [`Dimm::stream`] calls so far.
    #[cfg(test)]
    pub(crate) fn stream_calls(&self) -> u64 {
        self.stream_calls
    }

    /// Asserts that `self` and `other` are in the same state: stats, bus
    /// calendar and every bank's open row and ready time.
    #[cfg(test)]
    pub(crate) fn assert_same_state(&self, other: &Dimm, what: &str) {
        assert_eq!(self.stats, other.stats, "{what}: stats");
        assert_eq!(self.bus.free_at(), other.bus.free_at(), "{what}: bus free");
        assert_eq!(
            self.bus.busy_time(),
            other.bus.busy_time(),
            "{what}: bus busy"
        );
        assert_eq!(self.bus.served(), other.bus.served(), "{what}: bus served");
        for (b, (f, s)) in self.banks.iter().zip(&other.banks).enumerate() {
            assert_eq!(f.open_row, s.open_row, "{what}: bank {b} open row");
            assert_eq!(f.ready_at, s.ready_at, "{what}: bank {b} ready");
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dimm() -> Dimm {
        Dimm::new(DimmConfig::ddr4_16gb())
    }

    /// The pre-batching row-by-row stream, kept verbatim as the equivalence
    /// oracle for the `reserve_many` fast path in [`Dimm::stream`].
    fn stream_reference(
        d: &mut Dimm,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) -> Reservation {
        let t = d.config.timing;
        let row_bytes = d.config.row_bytes;
        let line = d.config.line_bytes;

        let mut offset = addr;
        let mut remaining = bytes;
        let mut first_start: Option<SimTime> = None;
        let mut complete = now;

        while remaining > 0 {
            let in_row = (row_bytes - (offset % row_bytes)).min(remaining);
            let lines = in_row.div_ceil(line);
            let burst_total = t.burst_time().scaled(lines);
            let lead_in = if first_start.is_none() {
                t.cycles(t.t_rcd + t.cl)
            } else {
                SimDuration::ZERO
            };
            let start = d.refresh_adjust(now.max(d.bus.free_at()));
            let res = d.bus.reserve(start + lead_in, burst_total);
            first_start.get_or_insert(res.start - lead_in);
            complete = res.ready;

            d.stats.activations += 1;
            d.stats.bytes += lines * line;
            match kind {
                AccessKind::Read => d.stats.read_bursts += lines,
                AccessKind::Write => d.stats.write_bursts += lines,
            }
            let (bank_idx, row) = d.locate(offset);
            d.banks[bank_idx].open_row = match policy {
                RowPolicy::OpenPage => Some(row),
                RowPolicy::ClosedRow => None,
            };
            d.banks[bank_idx].ready_at = complete;

            offset += in_row;
            remaining -= in_row;
        }

        Reservation {
            start: first_start.expect("stream issued at least one row"),
            ready: complete,
            complete,
        }
    }

    #[test]
    fn row_hit_is_faster_than_activation() {
        let t = DdrTiming::ddr4_2400();
        assert!(t.hit_latency() < t.act_latency());
        assert!(t.act_latency() < t.conflict_latency());
    }

    #[test]
    fn sequential_same_row_accesses_hit() {
        let mut d = dimm();
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let b = d.access(a.complete, 64, AccessKind::Read, RowPolicy::OpenPage);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().activations, 1);
        assert!(b.complete - b.start < a.complete - a.start);
    }

    #[test]
    fn closed_row_policy_never_hits() {
        let mut d = dimm();
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::ClosedRow);
        let _b = d.access(a.ready, 64, AccessKind::Read, RowPolicy::ClosedRow);
        assert_eq!(d.stats().row_hits, 0);
        assert_eq!(d.stats().activations, 2);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dimm();
        let cfg = *d.config();
        // Two addresses in the same bank but different rows: stride by
        // row_bytes * banks.
        let conflict_addr = cfg.row_bytes * cfg.banks;
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let b = d.access(
            a.ready,
            conflict_addr,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        assert_eq!((b.complete - b.start), cfg.timing.conflict_latency());
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = dimm();
        let cfg = *d.config();
        // Addresses in different banks: consecutive rows.
        let a = d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let b = d.access(
            SimTime::ZERO,
            cfg.row_bytes,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        // Bank work overlaps; only the bus serializes the two bursts.
        assert!(b.complete < a.complete + cfg.timing.act_latency());
    }

    #[test]
    fn stream_approaches_peak_bandwidth() {
        let mut d = dimm();
        let bytes: u64 = 64 << 20; // 64 MiB
        let r = d.stream(
            SimTime::ZERO,
            0,
            bytes,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        let secs = (r.complete - r.start).as_secs_f64();
        let achieved = bytes as f64 / secs;
        let peak = d.peak_bandwidth_bytes_per_sec() as f64;
        // Streaming should reach at least 80% of peak (refresh + lead-in
        // overheads), and never exceed it.
        assert!(
            achieved > 0.8 * peak,
            "achieved {achieved:.2e} vs peak {peak:.2e}"
        );
        assert!(achieved <= peak * 1.001);
    }

    #[test]
    fn stream_counts_bursts_and_bytes() {
        let mut d = dimm();
        d.stream(
            SimTime::ZERO,
            0,
            1 << 20,
            AccessKind::Write,
            RowPolicy::OpenPage,
        );
        assert_eq!(d.stats().write_bursts, (1 << 20) / 64);
        assert_eq!(d.stats().bytes, 1 << 20);
        // 1 MiB crosses 128 rows of 8 KiB.
        assert_eq!(d.stats().activations, 128);
    }

    #[test]
    fn two_streams_share_the_bus() {
        let mut d = dimm();
        let solo_time = {
            let mut d2 = dimm();
            let r = d2.stream(
                SimTime::ZERO,
                0,
                8 << 20,
                AccessKind::Read,
                RowPolicy::OpenPage,
            );
            r.complete
        };
        let a = d.stream(
            SimTime::ZERO,
            0,
            8 << 20,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        let b = d.stream(
            SimTime::ZERO,
            1 << 30,
            8 << 20,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        // The later of the two concurrent streams takes ~2x the solo time.
        let concurrent = a.complete.max(b.complete);
        let ratio = concurrent.as_ps() as f64 / solo_time.as_ps() as f64;
        assert!(ratio > 1.8, "expected bus sharing, ratio {ratio}");
    }

    #[test]
    fn refresh_blackout_delays_accesses() {
        let mut d = dimm();
        // Land exactly inside the first refresh window [0, tRFC).
        let r = d.access(
            SimTime::from_ps(1),
            0,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
        assert!(r.start >= SimTime::ZERO + d.config().timing.t_rfc);
    }

    #[test]
    fn hand_over_precharges_everything() {
        let mut d = dimm();
        d.access(SimTime::ZERO, 0, AccessKind::Read, RowPolicy::OpenPage);
        let done = d.hand_over(SimTime::from_ps(1));
        // After hand-over the next access must activate (no open row)...
        let r = d.access(done, 64, AccessKind::Read, RowPolicy::OpenPage);
        assert_eq!(d.stats().row_hits, 0); // would have been a hit without hand-over
        assert_eq!(r.complete - r.start, d.config().timing.act_latency());
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn access_out_of_range_panics() {
        let mut d = dimm();
        let cap = d.config().capacity;
        d.access(SimTime::ZERO, cap, AccessKind::Read, RowPolicy::OpenPage);
    }

    #[test]
    #[should_panic(
        expected = "Dimm::stream: 16384 bytes at 0x3ffffe000 run beyond capacity 17179869184"
    )]
    fn stream_out_of_range_names_its_range() {
        let mut d = dimm();
        let cap = d.config().capacity;
        d.stream(
            SimTime::ZERO,
            cap - 8192,
            16_384,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Completion times are causal (complete >= start >= issue) and the
        /// bus never moves more bytes than the stats record, for any access
        /// mix.
        #[test]
        fn accesses_are_causal(
            ops in proptest::collection::vec((0u64..(1u64 << 24), any::<bool>()), 1..64),
        ) {
            let mut d = dimm();
            let mut now = SimTime::ZERO;
            for &(addr, write) in &ops {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let r = d.access(now, addr, kind, RowPolicy::OpenPage);
                prop_assert!(r.start >= now);
                prop_assert!(r.complete >= r.start);
                prop_assert!(r.ready >= r.complete);
                now = r.complete;
            }
            prop_assert_eq!(d.stats().bytes, ops.len() as u64 * 64);
            prop_assert_eq!(
                d.stats().row_hits + d.stats().activations,
                ops.len() as u64
            );
        }

        /// Streaming N bytes never beats the theoretical peak bandwidth.
        #[test]
        fn stream_respects_peak(kib in 64u64..8_192) {
            let mut d = dimm();
            let bytes = kib << 10;
            let r = d.stream(SimTime::ZERO, 0, bytes, AccessKind::Read, RowPolicy::OpenPage);
            let secs = (r.complete - r.start).as_secs_f64();
            let rate = bytes as f64 / secs;
            prop_assert!(rate <= d.peak_bandwidth_bytes_per_sec() as f64 * 1.001,
                "rate {rate:.3e}");
        }

        /// Closed-row policy never produces a row hit.
        #[test]
        fn closed_row_never_hits(
            addrs in proptest::collection::vec(0u64..(1u64 << 20), 1..50),
        ) {
            let mut d = dimm();
            let mut now = SimTime::ZERO;
            for &a in &addrs {
                let r = d.access(now, a, AccessKind::Read, RowPolicy::ClosedRow);
                now = r.ready;
            }
            prop_assert_eq!(d.stats().row_hits, 0);
        }
    }

    /// A DIMM whose refresh timing puts the row service time `s` in one of
    /// the regimes of the stream's period map, from raw random draws:
    ///
    /// 0. `s < t_rfc`: every period's last row overshoots into the next
    ///    blackout, so phase `t_rfc` is a fixed point after one period.
    /// 1. `t_rfc < s < t_refi`, with the batch from phase `t_rfc` ending
    ///    `g > t_rfc` into the next period and `s` not dividing `t_refi`:
    ///    no phase is a fixed point, so the per-period loop runs.
    /// 2. `s >= t_refi`: one row per period.
    /// 3. `t_rfc` and `t_refi` drawn freely around `s`.
    /// 4. The paper's DDR4-2400 DIMM (`s` = 426,752 ps > `t_rfc`, yet
    ///    phase `t_rfc` is a fixed point).
    pub(crate) fn regime_config(
        regime: u64,
        mhz: u64,
        burst_half: u64,
        row_log: u64,
        banks: u64,
        draws: [u64; 3],
    ) -> DimmConfig {
        let paper = DimmConfig::ddr4_16gb();
        if regime == 4 {
            return paper;
        }
        let mut timing = DdrTiming {
            io_clock: Frequency::from_mhz(mhz),
            burst_len: 2 * burst_half,
            ..paper.timing
        };
        let row_bytes = paper.line_bytes << row_log;
        let s = timing
            .burst_time()
            .scaled(row_bytes / paper.line_bytes)
            .as_ps();
        // Uniform-ish pick in the inclusive range [lo, hi].
        let pick = |draw: u64, lo: u64, hi: u64| lo + draw % (hi - lo + 1);
        let [d0, d1, d2] = draws;
        let (rfc, refi) = match regime {
            0 => {
                let rfc = pick(d0, s + 1, 4 * s);
                (rfc, rfc + pick(d1, 1, 40 * s))
            }
            1 => {
                let rfc = pick(d0, 1, s - 2);
                let g = pick(d1, rfc + 1, s - 1);
                (rfc, rfc + pick(d2, 2, 40) * s - g)
            }
            2 => {
                let rfc = pick(d0, 1, s / 2);
                (rfc, pick(d1, rfc + 1, s))
            }
            _ => {
                let rfc = pick(d0, 1, 2 * s);
                (rfc, rfc + pick(d1, 1, 40 * s))
            }
        };
        timing.t_rfc = SimDuration::from_ps(rfc);
        timing.t_refi = SimDuration::from_ps(refi);
        DimmConfig {
            banks,
            row_bytes,
            timing,
            ..paper
        }
    }

    /// Streams on `fast` with [`Dimm::stream`] and on `slow` with the
    /// reference, then asserts both DIMMs are in the same state: the same
    /// reservation, stats, bus calendar and per-bank state, and the same
    /// answer to a follow-up access.
    fn assert_stream_matches_reference(
        fast: &mut Dimm,
        slow: &mut Dimm,
        now: SimTime,
        addr: u64,
        bytes: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) {
        let rf = fast.stream(now, addr, bytes, kind, policy);
        let rs = stream_reference(slow, now, addr, bytes, kind, policy);
        assert_eq!(rf, rs);
        fast.assert_same_state(slow, "stream");
        let f2 = fast.access(rf.complete, addr, kind, policy);
        let s2 = slow.access(rs.complete, addr, kind, policy);
        assert_eq!(f2, s2);
    }

    /// Loop trips a stream may take when its phase map has a fixed point:
    /// the first row, up to four period batches (two transient, the jump,
    /// one short leftover), the `banks + 1` tail rows and a partial row.
    fn steady_state_trip_bound(d: &Dimm) -> u64 {
        d.config.banks + 7
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// The batched stream is bit-identical to the row-by-row reference
        /// for random timings and geometry in every refresh regime, streams
        /// up to 64 MiB (hundreds of jumped periods), arbitrary
        /// (mis)alignment, policy and prior traffic.
        #[test]
        fn batched_stream_matches_row_by_row_reference(
            regime in 0u64..5,
            geometry in (200u64..2_000, 1u64..9, 4u64..9, 1u64..33),
            draws in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            addr_lines in 0u64..(1u64 << 14),
            misalign in 0u64..64,
            extra_bytes in 0u64..16_384,
            kib in 1u64..65_537,
            write in any::<bool>(),
            closed in any::<bool>(),
            pre in proptest::collection::vec(0u64..(1u64 << 20), 0..6),
        ) {
            let (mhz, burst_half, row_log, banks) = geometry;
            let config = regime_config(regime, mhz, burst_half, row_log, banks, [draws.0, draws.1, draws.2]);
            let mut fast = Dimm::new(config);
            let mut slow = Dimm::new(config);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let policy = if closed { RowPolicy::ClosedRow } else { RowPolicy::OpenPage };

            // Warm both DIMMs with identical traffic so the stream starts
            // from a non-trivial bus/bank state.
            let mut now = SimTime::ZERO;
            for &a in &pre {
                let rf = fast.access(now, a, kind, policy);
                let rs = slow.access(now, a, kind, policy);
                prop_assert_eq!(rf, rs);
                now = rf.complete;
            }

            let addr = addr_lines * 64 + misalign;
            let bytes = (kib << 10) + extra_bytes; // up to ~64 MiB, odd tails
            assert_stream_matches_reference(&mut fast, &mut slow, now, addr, bytes, kind, policy);
            if regime == 0 || regime == 4 {
                prop_assert!(fast.stream_trips <= steady_state_trip_bound(&fast),
                    "{} trips", fast.stream_trips);
            }
        }
    }

    #[test]
    fn gib_stream_jumps_to_the_ddr4_fixed_point() {
        // At DDR4-2400 a row's 128 bursts take 426,752 ps. From phase
        // t_rfc = 350 ns, 18 rows start before the period ends at 7.8 us
        // and the 18th overshoots it by 231,536 ps, inside the next
        // blackout, so the next batch starts at phase t_rfc again: the
        // fixed point, 18 rows per period. A 1 GiB stream (131,072 rows,
        // ~7,280 periods) matches the row-by-row reference in a bounded
        // number of trips, as does one 16x smaller.
        for bytes in [1u64 << 30, 64 << 20] {
            let mut fast = dimm();
            let mut slow = dimm();
            assert_stream_matches_reference(
                &mut fast,
                &mut slow,
                SimTime::from_ps(1_234_567),
                4_160,
                bytes,
                AccessKind::Read,
                RowPolicy::OpenPage,
            );
            assert!(
                fast.stream_trips <= steady_state_trip_bound(&fast),
                "{bytes} bytes took {} trips",
                fast.stream_trips
            );
        }
    }

    /// Streams `count` ranges on `fast` with [`Dimm::stream_repeated`] and
    /// on a clone of it with one [`Dimm::stream`] per range, then asserts
    /// the same envelope, the same DIMM state and the same follow-up
    /// access.
    fn assert_repeated_matches_loop(
        fast: &mut Dimm,
        now: SimTime,
        addr: u64,
        bytes: u64,
        count: u64,
        kind: AccessKind,
        policy: RowPolicy,
    ) {
        let mut slow = fast.clone();
        let rf = fast.stream_repeated(now, addr, bytes, count, kind, policy);
        let first = slow.stream(now, addr, bytes, kind, policy);
        let mut last = first;
        for i in 1..count {
            last = slow.stream(now, addr + i * bytes, bytes, kind, policy);
        }
        assert_eq!(rf.start, first.start, "start");
        assert_eq!(rf.complete, last.complete, "complete");
        fast.assert_same_state(&slow, "stream_repeated");
        let f2 = fast.access(rf.complete, addr, kind, policy);
        let s2 = slow.access(last.complete, addr, kind, policy);
        assert_eq!(f2, s2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// `stream_repeated` equals its loop of `stream` calls for random
        /// timings and geometry in every refresh regime, ranges that are
        /// and are not row multiples, unaligned starts, either policy and
        /// prior traffic.
        #[test]
        fn repeated_stream_matches_loop_of_streams(
            regime in 0u64..5,
            geometry in (200u64..2_000, 1u64..9, 4u64..9, 1u64..33),
            draws in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            addr_lines in 0u64..(1u64 << 14),
            misalign in 0u64..64,
            rows in 1u64..48,
            extra_lines in 0u64..4,
            count in 1u64..300,
            write in any::<bool>(),
            closed in any::<bool>(),
            pre in proptest::collection::vec(0u64..(1u64 << 20), 0..6),
        ) {
            let (mhz, burst_half, row_log, banks) = geometry;
            let config = regime_config(regime, mhz, burst_half, row_log, banks, [draws.0, draws.1, draws.2]);
            let mut fast = Dimm::new(config);
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let policy = if closed { RowPolicy::ClosedRow } else { RowPolicy::OpenPage };
            let mut now = SimTime::ZERO;
            for &a in &pre {
                now = fast.access(now, a, kind, policy).complete;
            }
            // A quarter of the cases are row multiples, which may jump
            // cycles.
            let bytes = rows * config.row_bytes + extra_lines * config.line_bytes;
            let addr = addr_lines * 64 + misalign;
            assert_repeated_matches_loop(&mut fast, now, addr, bytes, count, kind, policy);
        }
    }

    #[test]
    fn repeated_mib_ranges_jump_the_ddr4_cycle() {
        // At DDR4-2400 a 1 MiB range (128 rows) leaves the bus at a phase
        // that recurs every 9 ranges, so 1,024 ranges — 1 GiB on one DIMM —
        // make a bounded number of genuine calls, as do 16.
        for count in [1_024u64, 16] {
            let mut fast = dimm();
            fast.stream(
                SimTime::ZERO,
                1 << 30,
                4_160,
                AccessKind::Write,
                RowPolicy::OpenPage,
            );
            let calls_before = fast.stream_calls();
            assert_repeated_matches_loop(
                &mut fast,
                SimTime::from_ps(1_234_567),
                0,
                1 << 20,
                count,
                AccessKind::Read,
                RowPolicy::OpenPage,
            );
            let calls = fast.stream_calls() - calls_before;
            assert!(calls <= 20, "{count} ranges made {calls} calls");
        }
    }

    #[test]
    fn ddr4_mib_phase_map_has_a_nine_range_cycle() {
        // The bus phase before each 1 MiB range, once the bus is busy.
        let mut d = dimm();
        let refi = d.config.timing.t_refi.as_ps();
        let mut phases = Vec::new();
        for i in 0..40u64 {
            d.stream(
                SimTime::ZERO,
                i << 20,
                1 << 20,
                AccessKind::Read,
                RowPolicy::OpenPage,
            );
            phases.push(d.bus.free_at().as_ps() % refi);
        }
        let last = phases[39];
        let cycle = (1..40)
            .find(|k| phases[39 - k] == last)
            .expect("phase recurs");
        assert_eq!(cycle, 9);
    }

    #[test]
    #[should_panic(
        expected = "Dimm::stream_repeated: 3 x 8192 bytes at 0x3ffffc000 run beyond capacity 17179869184"
    )]
    fn repeated_stream_out_of_range_names_its_ranges() {
        let mut d = dimm();
        let cap = d.config().capacity;
        d.stream_repeated(
            SimTime::ZERO,
            cap - 16_384,
            8_192,
            3,
            AccessKind::Read,
            RowPolicy::OpenPage,
        );
    }

    #[test]
    fn peak_bandwidth_matches_ddr4_2400() {
        let d = dimm();
        // DDR4-2400 x64: 2400 MT/s * 8 B = 19.2 GB/s.
        let peak = d.peak_bandwidth_bytes_per_sec() as f64;
        assert!((peak - 19.2e9).abs() / 19.2e9 < 0.02, "peak {peak:.3e}");
    }
}
