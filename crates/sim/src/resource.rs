//! Resource calendars: the contention model underneath every shared
//! component in the hierarchy.
//!
//! A *calendar* tracks when a physical resource (a DRAM bank, a memory
//! channel, a PCIe link, an SSD flash channel, an accelerator) is next free.
//! Requests reserve service windows of `[max(now, free_at), +service)`.
//! Queueing delay, saturation and crossover points in the experiments emerge
//! from these reservations rather than from hand-tuned curves: e.g. the
//! near-memory rerank plateau in Figure 11 appears because eight accelerators
//! reserving windows on one host PCIe calendar push each other's start times
//! out.

use crate::rate::Bandwidth;
use crate::time::{SimDuration, SimTime};

/// The window granted by a reservation: the request occupies the resource
/// during `[start, ready)` and its result is visible at `complete`
/// (`ready` plus any non-occupying latency such as flight time on a link).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reservation {
    /// When the resource actually started serving the request.
    pub start: SimTime,
    /// When the resource becomes free for the next request.
    pub ready: SimTime,
    /// When the requester observes completion (>= `ready`).
    pub complete: SimTime,
}

impl Reservation {
    /// Queueing delay experienced before service began.
    #[must_use]
    pub fn queueing(&self, issued: SimTime) -> SimDuration {
        self.start.since(issued)
    }

    /// Total latency from issue to observed completion.
    #[must_use]
    pub fn latency(&self, issued: SimTime) -> SimDuration {
        self.complete.since(issued)
    }
}

/// A single serially-shared server.
///
/// # Example
///
/// ```
/// use reach_sim::{SerialResource, SimTime, SimDuration};
///
/// let mut bus = SerialResource::new();
/// let a = bus.reserve(SimTime::ZERO, SimDuration::from_ns(10));
/// let b = bus.reserve(SimTime::ZERO, SimDuration::from_ns(10));
/// assert_eq!(a.ready, b.start); // second request queues behind the first
/// ```
#[derive(Clone, Debug, Default)]
pub struct SerialResource {
    free_at: SimTime,
    busy: SimDuration,
    served: u64,
}

impl SerialResource {
    /// Creates an idle resource.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves `service` time starting no earlier than `now`.
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let start = now.max(self.free_at);
        let ready = start + service;
        self.free_at = ready;
        self.busy += service;
        self.served += 1;
        Reservation {
            start,
            ready,
            complete: ready,
        }
    }

    /// Reserves `count` back-to-back slots of `service` time, all requested
    /// at the same instant `now`, in one operation.
    ///
    /// Exactly equivalent to calling [`SerialResource::reserve`] `count`
    /// times with the same arguments — same final state, same busy time and
    /// served count — but O(1) instead of O(count). The returned
    /// reservation spans the whole batch: `start` is the first slot's start
    /// and `ready`/`complete` are the last slot's finish. Callers that model
    /// page- or row-granular streams (an SSD read striped over flash pages,
    /// a DRAM stream walking rows) use this to collapse millions of
    /// identical reservations into one.
    pub fn reserve_many(&mut self, now: SimTime, service: SimDuration, count: u64) -> Reservation {
        assert!(count > 0, "SerialResource::reserve_many: empty batch");
        let start = now.max(self.free_at);
        // After the first slot the server is busy past `now`, so every
        // subsequent slot starts exactly where the previous one ended.
        let ready = start + service * count;
        self.free_at = ready;
        self.busy += service * count;
        self.served += count;
        Reservation {
            start,
            ready,
            complete: ready,
        }
    }

    /// Reserves `periods` batches of `count` back-to-back `service` slots,
    /// batch `i` requested at `first + i·period`, in one operation.
    ///
    /// Exactly equivalent to calling [`SerialResource::reserve_many`]
    /// `periods` times with those request instants — same final state, same
    /// busy time and served count — but O(1) instead of O(periods). The
    /// returned reservation spans every batch: `start` is the first batch's
    /// start and `ready`/`complete` are the last batch's finish. A DRAM
    /// stream in its refresh steady state uses this to reserve every
    /// remaining refresh period of a scan at once.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `periods` is zero, or if one batch overruns its
    /// period (`count·service > period`).
    pub fn reserve_periodic(
        &mut self,
        first: SimTime,
        period: SimDuration,
        service: SimDuration,
        count: u64,
        periods: u64,
    ) -> Reservation {
        assert!(count > 0, "SerialResource::reserve_periodic: empty batch");
        assert!(
            periods > 0,
            "SerialResource::reserve_periodic: zero periods"
        );
        let batch = service * count;
        assert!(
            batch <= period,
            "SerialResource::reserve_periodic: batch of {count} x {service:?} overruns period {period:?}"
        );
        let start = first.max(self.free_at);
        // A batch starting `lag` after its request instant ends `lag + batch`
        // after it, so the next batch starts `lag - (period - batch)` late,
        // or on time once the period's slack has absorbed the lag.
        let lag = (start - first).as_ps();
        let slack = (period - batch).as_ps();
        let last_lag = lag.saturating_sub(slack.saturating_mul(periods - 1));
        let ready = first + period * (periods - 1) + SimDuration::from_ps(last_lag) + batch;
        self.free_at = ready;
        self.busy += batch * periods;
        self.served += count * periods;
        Reservation {
            start,
            ready,
            complete: ready,
        }
    }

    /// Repeats, `times` more times, the reservations made since `earlier`
    /// (a clone of this resource taken before them), in one operation.
    ///
    /// Exactly equivalent to making those reservations again `times` over
    /// when each repetition finds the resource in the state the previous
    /// one left, shifted by how far `free_at` moved since `earlier` — a
    /// cycle in a periodic schedule, such as a DRAM stream whose refresh
    /// phase recurs. `free_at` moves on by `times` such steps, and busy
    /// time and served count grow by `times` copies of what accrued since
    /// `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not an earlier state of this resource, or if
    /// a repeated total overflows, naming its values.
    pub fn repeat_since(&mut self, earlier: &SerialResource, times: u64) {
        assert!(
            earlier.free_at <= self.free_at
                && earlier.busy <= self.busy
                && earlier.served <= self.served,
            "SerialResource::repeat_since: {earlier:?} is not an earlier state of {self:?}"
        );
        let repeat = |now: u64, then: u64, what: &str| {
            (now - then)
                .checked_mul(times)
                .and_then(|step| now.checked_add(step))
                .unwrap_or_else(|| {
                    panic!("SerialResource::repeat_since: {what} {then} -> {now} repeated {times} more times overflows")
                })
        };
        self.free_at = SimTime::from_ps(repeat(
            self.free_at.as_ps(),
            earlier.free_at.as_ps(),
            "free_at",
        ));
        self.busy = SimDuration::from_ps(repeat(self.busy.as_ps(), earlier.busy.as_ps(), "busy"));
        self.served = repeat(self.served, earlier.served, "served");
    }

    /// The instant the resource next becomes free.
    #[must_use]
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total time spent serving requests (for utilization and busy-power
    /// energy accounting).
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of requests served.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.served
    }
}

/// `k` identical servers fed from one queue (e.g. the flash channels of an
/// SSD, or a bank group). A request is placed on the earliest-free server;
/// ties resolve to the lowest index, keeping simulations deterministic.
///
/// # Example
///
/// ```
/// use reach_sim::{MultiResource, SimTime, SimDuration};
///
/// let mut chans = MultiResource::new(2);
/// let d = SimDuration::from_ns(8);
/// let a = chans.reserve(SimTime::ZERO, d);
/// let b = chans.reserve(SimTime::ZERO, d);
/// let c = chans.reserve(SimTime::ZERO, d);
/// assert_eq!(a.start, b.start);      // two servers run in parallel
/// assert_eq!(c.start, a.ready);      // third request queues
/// ```
#[derive(Clone, Debug)]
pub struct MultiResource {
    servers: Vec<SerialResource>,
}

impl MultiResource {
    /// Creates `k` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "MultiResource requires at least one server");
        MultiResource {
            servers: vec![SerialResource::new(); k],
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn width(&self) -> usize {
        self.servers.len()
    }

    /// Reserves `service` time on the earliest-available server.
    pub fn reserve(&mut self, now: SimTime, service: SimDuration) -> Reservation {
        let idx = self.earliest_free();
        self.servers[idx].reserve(now, service)
    }

    /// Reserves `count` back-to-back slots on a *specific* server `idx`
    /// (e.g. a request pinned to the flash channel holding its data), all
    /// requested at `now`. See
    /// [`SerialResource::reserve_many`] for the equivalence contract.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `count` is zero.
    pub fn reserve_many_on(
        &mut self,
        idx: usize,
        now: SimTime,
        service: SimDuration,
        count: u64,
    ) -> Reservation {
        self.servers[idx].reserve_many(now, service, count)
    }

    /// Index of the server that frees up first (lowest index wins ties).
    fn earliest_free(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.servers.iter().enumerate().skip(1) {
            if s.free_at() < self.servers[best].free_at() {
                best = i;
            }
        }
        best
    }

    /// Sum of busy time across all servers.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.servers.iter().map(SerialResource::busy_time).sum()
    }

    /// Total requests served across all servers.
    #[must_use]
    pub fn served(&self) -> u64 {
        self.servers.iter().map(SerialResource::served).sum()
    }
}

/// A pipe with finite bandwidth and a fixed propagation latency.
///
/// Serialization time (`bytes / bandwidth`) occupies the pipe; propagation
/// latency delays completion but does not block the next transfer, matching
/// how pipelined links (PCIe, memory channels, NoC hops) behave.
///
/// # Example
///
/// ```
/// use reach_sim::{BandwidthResource, Bandwidth, SimTime, SimDuration};
///
/// let mut link = BandwidthResource::new(Bandwidth::from_gbps(1), SimDuration::from_ns(100));
/// let r = link.transfer(SimTime::ZERO, 1_000); // 1 KB at 1 GB/s = 1 us wire time
/// assert_eq!(r.ready, SimTime::from_ps(1_000_000));
/// assert_eq!(r.complete, SimTime::from_ps(1_100_000)); // + 100 ns flight
/// ```
#[derive(Clone, Debug)]
pub struct BandwidthResource {
    bandwidth: Bandwidth,
    latency: SimDuration,
    pipe: SerialResource,
    bytes: u64,
}

impl BandwidthResource {
    /// Creates an idle link with the given rate and propagation latency.
    #[must_use]
    pub fn new(bandwidth: Bandwidth, latency: SimDuration) -> Self {
        BandwidthResource {
            bandwidth,
            latency,
            pipe: SerialResource::new(),
            bytes: 0,
        }
    }

    /// The configured line rate.
    #[must_use]
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The configured propagation latency.
    #[must_use]
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Transfers `bytes` starting no earlier than `now`.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let wire = self.bandwidth.transfer_time(bytes);
        let mut r = self.pipe.reserve(now, wire);
        r.complete = r.ready + self.latency;
        self.bytes += bytes;
        r
    }

    /// Total bytes moved (for per-link energy accounting).
    #[must_use]
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// Total time the wire was occupied.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.pipe.busy_time()
    }

    /// The instant the wire next becomes free.
    #[must_use]
    pub fn free_at(&self) -> SimTime {
        self.pipe.free_at()
    }

    /// Utilization over `[SimTime::ZERO, horizon]` as a fraction in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    #[must_use]
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "utilization over empty horizon");
        (self.busy_time().as_ps() as f64 / horizon.as_ps() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimDuration {
        SimDuration::from_ns(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::from_ps(n * 1_000)
    }

    #[test]
    fn serial_back_to_back_requests_queue() {
        let mut r = SerialResource::new();
        let a = r.reserve(at(0), ns(10));
        let b = r.reserve(at(0), ns(10));
        assert_eq!(a.start, at(0));
        assert_eq!(a.ready, at(10));
        assert_eq!(b.start, at(10));
        assert_eq!(b.ready, at(20));
        assert_eq!(b.queueing(at(0)), ns(10));
        assert_eq!(r.busy_time(), ns(20));
        assert_eq!(r.served(), 2);
    }

    #[test]
    fn reserve_many_matches_repeated_reserve() {
        // Same final state and same batch envelope as n sequential
        // reserves at one instant — including when the server starts busy.
        for initial in [0u64, 7] {
            let mut seq = SerialResource::new();
            let mut bat = SerialResource::new();
            if initial > 0 {
                seq.reserve(at(0), ns(initial));
                bat.reserve(at(0), ns(initial));
            }
            let n = 1000;
            let mut first_start = SimTime::MAX;
            let mut last_ready = at(0);
            for _ in 0..n {
                let r = seq.reserve(at(3), ns(4));
                first_start = first_start.min(r.start);
                last_ready = last_ready.max(r.ready);
            }
            let r = bat.reserve_many(at(3), ns(4), n);
            assert_eq!(r.start, first_start);
            assert_eq!(r.ready, last_ready);
            assert_eq!(bat.free_at(), seq.free_at());
            assert_eq!(bat.busy_time(), seq.busy_time());
            assert_eq!(bat.served(), seq.served());
        }
    }

    #[test]
    fn reserve_many_of_one_is_reserve() {
        let mut a = SerialResource::new();
        let mut b = SerialResource::new();
        let ra = a.reserve(at(5), ns(3));
        let rb = b.reserve_many(at(5), ns(3), 1);
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn reserve_many_zero_rejected() {
        let mut r = SerialResource::new();
        let _ = r.reserve_many(at(0), ns(1), 0);
    }

    /// `reserve_periodic` against the loop of `reserve_many` calls it
    /// replaces: same envelope and same final state.
    fn assert_periodic_matches_loop(
        busy_until: u64,
        first: u64,
        period: u64,
        service: u64,
        count: u64,
        periods: u64,
    ) {
        let mut seq = SerialResource::new();
        let mut bat = SerialResource::new();
        if busy_until > 0 {
            seq.reserve(at(0), ns(busy_until));
            bat.reserve(at(0), ns(busy_until));
        }
        let mut envelope: Option<Reservation> = None;
        for i in 0..periods {
            let r = seq.reserve_many(at(first + i * period), ns(service), count);
            envelope = Some(match envelope {
                None => r,
                Some(e) => Reservation {
                    start: e.start,
                    ..r
                },
            });
        }
        let r = bat.reserve_periodic(at(first), ns(period), ns(service), count, periods);
        let case = (busy_until, first, period, service, count, periods);
        assert_eq!(Some(r), envelope, "{case:?}");
        assert_eq!(bat.free_at(), seq.free_at(), "{case:?}");
        assert_eq!(bat.busy_time(), seq.busy_time(), "{case:?}");
        assert_eq!(bat.served(), seq.served(), "{case:?}");
    }

    #[test]
    fn reserve_periodic_matches_loop_of_reserve_many() {
        // Idle server, a server busy past a few periods (the lag drains
        // over several batches), and one busy past the whole run.
        for busy_until in [0, 3, 250, 10_000] {
            for (period, service, count) in [(100, 7, 13), (100, 9, 11), (64, 16, 4), (50, 1, 1)] {
                for periods in [1, 2, 7, 40] {
                    assert_periodic_matches_loop(busy_until, 5, period, service, count, periods);
                }
            }
        }
    }

    #[test]
    fn reserve_periodic_full_period_keeps_its_lag() {
        // count·service == period: no slack, so a late first batch makes
        // every batch exactly as late.
        assert_periodic_matches_loop(0, 0, 64, 16, 4, 9);
        assert_periodic_matches_loop(30, 0, 64, 16, 4, 9);
        let mut r = SerialResource::new();
        r.reserve(at(0), ns(30));
        let res = r.reserve_periodic(at(0), ns(64), ns(16), 4, 9);
        assert_eq!(res.start, at(30));
        assert_eq!(res.ready, at(8 * 64 + 30 + 64));
    }

    #[test]
    #[should_panic(expected = "reserve_periodic: empty batch")]
    fn reserve_periodic_zero_count_rejected() {
        let mut r = SerialResource::new();
        let _ = r.reserve_periodic(at(0), ns(10), ns(1), 0, 3);
    }

    #[test]
    #[should_panic(expected = "reserve_periodic: zero periods")]
    fn reserve_periodic_zero_periods_rejected() {
        let mut r = SerialResource::new();
        let _ = r.reserve_periodic(at(0), ns(10), ns(1), 3, 0);
    }

    #[test]
    #[should_panic(expected = "batch of 3 x 4000ps overruns period 10000ps")]
    fn reserve_periodic_overrun_rejected() {
        let mut r = SerialResource::new();
        let _ = r.reserve_periodic(at(0), ns(10), ns(4), 3, 2);
    }

    #[test]
    fn repeat_since_matches_repeated_reservations() {
        // A cycle of two reservations requested while the server is busy,
        // so every repetition is the first shifted by 15 ns.
        let mut seq = SerialResource::new();
        seq.reserve(at(0), ns(40));
        let mut bat = seq.clone();
        for _ in 0..6 {
            seq.reserve(at(3), ns(10));
            seq.reserve(at(3), ns(5));
        }
        let earlier = bat.clone();
        bat.reserve(at(3), ns(10));
        bat.reserve(at(3), ns(5));
        bat.repeat_since(&earlier, 5);
        assert_eq!(bat.free_at(), seq.free_at());
        assert_eq!(bat.busy_time(), seq.busy_time());
        assert_eq!(bat.served(), seq.served());
    }

    #[test]
    #[should_panic(
        expected = "repeat_since: free_at 0 -> 10000 repeated 18446744073709551615 more times overflows"
    )]
    fn repeat_since_overflow_names_its_values() {
        let earlier = SerialResource::new();
        let mut r = earlier.clone();
        r.reserve(at(0), ns(10));
        r.repeat_since(&earlier, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "is not an earlier state")]
    fn repeat_since_rejects_a_later_snapshot() {
        let mut later = SerialResource::new();
        later.reserve(at(0), ns(10));
        SerialResource::new().repeat_since(&later, 1);
    }

    #[test]
    fn serial_idle_gap_not_counted_busy() {
        let mut r = SerialResource::new();
        r.reserve(at(0), ns(5));
        r.reserve(at(100), ns(5));
        assert_eq!(r.busy_time(), ns(10));
        assert_eq!(r.free_at(), at(105));
    }

    #[test]
    fn multi_parallelism_then_queueing() {
        let mut m = MultiResource::new(3);
        let d = ns(10);
        let rs: Vec<_> = (0..5).map(|_| m.reserve(at(0), d)).collect();
        assert!(rs[0..3].iter().all(|r| r.start == at(0)));
        assert_eq!(rs[3].start, at(10));
        assert_eq!(rs[4].start, at(10));
        assert_eq!(m.busy_time(), ns(50));
        assert_eq!(m.served(), 5);
    }

    #[test]
    fn multi_ties_resolve_to_lowest_index() {
        let m = MultiResource::new(4);
        assert_eq!(m.earliest_free(), 0);
    }

    #[test]
    fn multi_reserve_many_on_pins_server() {
        let mut m = MultiResource::new(2);
        let a = m.reserve_many_on(1, at(0), ns(10), 1);
        let b = m.reserve_many_on(1, at(0), ns(10), 1);
        assert_eq!(a.ready, b.start);
        // Server 0 is still free.
        assert_eq!(m.earliest_free(), 0);
    }

    #[test]
    fn bandwidth_latency_does_not_block_pipe() {
        let mut link = BandwidthResource::new(Bandwidth::from_gbps(1), ns(100));
        let a = link.transfer(at(0), 1_000); // 1 us wire
        let b = link.transfer(at(0), 1_000);
        assert_eq!(b.start, a.ready); // queues behind serialization only
        assert_eq!(a.complete, a.ready + ns(100));
        assert_eq!(link.bytes_transferred(), 2_000);
    }

    #[test]
    fn bandwidth_saturation_emerges() {
        // Push 10 MB through a 1 GB/s link: total wire time must be 10 ms.
        let mut link = BandwidthResource::new(Bandwidth::from_gbps(1), SimDuration::ZERO);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = link.transfer(SimTime::ZERO, 1_000_000).complete;
        }
        assert_eq!(last, SimTime::from_ps(10_000_000_000)); // 10 ms
        assert!((link.utilization(last) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_utilization_counts_only_wire_time() {
        let mut link = BandwidthResource::new(Bandwidth::from_gbps(1), ns(500));
        link.transfer(at(0), 1_000); // 1 us wire, 500 ns flight
        assert_eq!(link.busy_time(), ns(1_000));
        assert!((link.utilization(at(4_000)) - 0.25).abs() < 1e-12);
        // A horizon shorter than the busy time saturates at 1.
        assert_eq!(link.utilization(at(500)), 1.0);
    }

    #[test]
    #[should_panic(expected = "empty horizon")]
    fn bandwidth_utilization_rejects_empty_horizon() {
        let link = BandwidthResource::new(Bandwidth::from_gbps(1), ns(0));
        let _ = link.utilization(SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn multi_rejects_zero_width() {
        let _ = MultiResource::new(0);
    }

    #[test]
    fn reservation_latency_accounts_queueing_and_flight() {
        let mut link = BandwidthResource::new(Bandwidth::from_gbps(1), ns(50));
        link.transfer(at(0), 1_000);
        let r = link.transfer(at(0), 1_000);
        assert_eq!(r.latency(at(0)), ns(1_000) + ns(1_000) + ns(50));
    }
}
