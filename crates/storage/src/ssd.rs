//! NVMe SSD model: parallel flash channels behind a command interface.
//!
//! The model captures the two properties the paper's near-storage argument
//! rests on:
//!
//! 1. the *internal* flash array bandwidth (channels x per-channel rate) is
//!    comparable to or higher than one device's external link, and
//! 2. it aggregates linearly across devices — which the shared host IO
//!    interface cannot exploit, but per-device accelerators can.

use reach_sim::{Bandwidth, MultiResource, Reservation, SimDuration, SimTime};

/// SSD geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SsdConfig {
    /// Usable capacity in bytes.
    pub capacity: u64,
    /// Number of independent flash channels.
    pub channels: usize,
    /// Sustained bandwidth of one channel.
    pub channel_bandwidth: Bandwidth,
    /// Flash page size (minimum read granularity).
    pub page_bytes: u64,
    /// Command latency from submission to first data (FTL + flash read).
    pub read_latency: SimDuration,
    /// Additional program latency for writes.
    pub write_latency: SimDuration,
    /// Latency jitter in percent: each command's latency is scaled by a
    /// deterministic pseudo-random factor in `[1, 1 + jitter/100]`,
    /// modelling FTL interference and flash-die variation. 0 disables it.
    pub latency_jitter_pct: u8,
}

impl SsdConfig {
    /// An enterprise NVMe drive of the Seagate Nytro class the paper cites:
    /// 8 channels x 1.6 GB/s (12.8 GB/s internal), 4 KiB pages, ~70 us read
    /// latency.
    #[must_use]
    pub fn nytro_class() -> Self {
        SsdConfig {
            capacity: 4 << 40,
            channels: 8,
            channel_bandwidth: Bandwidth::from_mbps(1_600),
            page_bytes: 4 << 10,
            read_latency: SimDuration::from_us(70),
            write_latency: SimDuration::from_us(100),
            latency_jitter_pct: 0,
        }
    }

    /// The same drive with `pct` percent of deterministic latency jitter.
    #[must_use]
    pub fn with_jitter(mut self, pct: u8) -> Self {
        self.latency_jitter_pct = pct;
        self
    }

    /// Aggregate internal bandwidth across all channels.
    #[must_use]
    pub fn internal_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(
            self.channel_bandwidth.as_bytes_per_sec() * self.channels as u64,
        )
    }
}

/// Per-drive statistics for the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SsdStats {
    /// Bytes read from flash.
    pub bytes_read: u64,
    /// Bytes written to flash.
    pub bytes_written: u64,
    /// Read commands served.
    pub read_cmds: u64,
    /// Write commands served.
    pub write_cmds: u64,
}

/// One NVMe SSD.
///
/// # Example
///
/// ```
/// use reach_storage::{Ssd, SsdConfig};
/// use reach_sim::SimTime;
///
/// let mut ssd = Ssd::new(SsdConfig::nytro_class());
/// let r = ssd.read(SimTime::ZERO, 0, 1 << 20);
/// assert!(r.complete.as_us_f64() >= 70.0); // at least the command latency
/// ```
#[derive(Debug)]
pub struct Ssd {
    config: SsdConfig,
    flash: MultiResource,
    stats: SsdStats,
    /// xorshift state for deterministic per-command jitter.
    jitter_state: u64,
}

impl Ssd {
    /// Creates an idle drive.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (no channels or zero-size page).
    #[must_use]
    pub fn new(config: SsdConfig) -> Self {
        assert!(config.channels > 0, "Ssd: need flash channels");
        assert!(config.page_bytes > 0, "Ssd: zero page size");
        Ssd {
            flash: MultiResource::new(config.channels),
            config,
            stats: SsdStats::default(),
            jitter_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Applies the configured jitter to a base latency, advancing the
    /// deterministic jitter stream.
    fn jittered(&mut self, base: SimDuration) -> SimDuration {
        if self.config.latency_jitter_pct == 0 {
            return base;
        }
        // xorshift64*.
        let mut x = self.jitter_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.jitter_state = x;
        let draw = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % 101; // 0..=100
        let extra =
            base.as_ps() as u128 * u128::from(self.config.latency_jitter_pct) * draw as u128
                / 10_000;
        base + SimDuration::from_ps(extra as u64)
    }

    /// The drive configuration.
    #[must_use]
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SsdStats {
        &self.stats
    }

    fn io(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
        latency: SimDuration,
        write: bool,
    ) -> Reservation {
        assert!(bytes > 0, "Ssd: empty IO");
        let capacity = self.config.capacity;
        assert!(
            addr.checked_add(bytes).is_some_and(|end| end <= capacity),
            "Ssd: IO of {bytes} bytes at {addr:#x} beyond capacity {capacity}"
        );
        // Round to page granularity: a 1-byte read still fetches a page.
        let first_page = addr / self.config.page_bytes;
        let last_page = (addr + bytes).div_ceil(self.config.page_bytes);
        let pages = last_page - first_page;
        let page_time = self
            .config
            .channel_bandwidth
            .transfer_time(self.config.page_bytes);

        // Stripe pages round-robin over the channels; each page occupies its
        // channel for one page transfer time. All of a channel's pages are
        // requested at the same `now`, so its whole share collapses into one
        // batched reservation: channel `(first_page + i) % C` serves page
        // `i`, `i + C`, `i + 2C`, ... — `pages / C` each, plus one more for
        // the first `pages % C` channels in stripe order.
        let channels = self.config.channels as u64;
        let base = pages / channels;
        let rem = pages % channels;
        let mut complete = now;
        let mut start = SimTime::MAX;
        for i in 0..channels.min(pages) {
            let ch = ((first_page + i) % channels) as usize;
            let share = base + u64::from(i < rem);
            let r = self.flash.reserve_many_on(ch, now, page_time, share);
            start = start.min(r.start);
            complete = complete.max(r.ready);
        }
        // The command latency covers FTL lookup and the first flash read; it
        // overlaps the striped transfer of the remaining pages.
        let complete = complete.max(now + latency);

        let moved = pages * self.config.page_bytes;
        if write {
            self.stats.bytes_written += moved;
            self.stats.write_cmds += 1;
        } else {
            self.stats.bytes_read += moved;
            self.stats.read_cmds += 1;
        }
        Reservation {
            start: if start == SimTime::MAX { now } else { start },
            ready: complete,
            complete,
        }
    }

    /// Reads `bytes` starting at `addr`. The reservation's `complete` is when
    /// the last byte is available at the drive's edge; link time to wherever
    /// the data goes (host switch or device accelerator) is billed by the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity or `bytes` is zero.
    pub fn read(&mut self, now: SimTime, addr: u64, bytes: u64) -> Reservation {
        let lat = self.jittered(self.config.read_latency);
        self.io(now, addr, bytes, lat, false)
    }

    /// Writes `bytes` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds capacity or `bytes` is zero.
    pub fn write(&mut self, now: SimTime, addr: u64, bytes: u64) -> Reservation {
        let lat = self.jittered(self.config.write_latency);
        self.io(now, addr, bytes, lat, true)
    }

    /// Total time the flash channels were busy, summed over channels.
    #[must_use]
    pub fn flash_busy_time(&self) -> SimDuration {
        self.flash.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> Ssd {
        Ssd::new(SsdConfig::nytro_class())
    }

    #[test]
    fn small_read_pays_command_latency() {
        let mut s = ssd();
        let r = s.read(SimTime::ZERO, 0, 64);
        assert_eq!(r.complete, SimTime::ZERO + SimDuration::from_us(70));
        // Page rounding: 64 bytes still reads one 4 KiB page.
        assert_eq!(s.stats().bytes_read, 4 << 10);
    }

    #[test]
    fn large_read_approaches_internal_bandwidth() {
        let mut s = ssd();
        let bytes: u64 = 1 << 30;
        let r = s.read(SimTime::ZERO, 0, bytes);
        let secs = (r.complete - SimTime::ZERO).as_secs_f64();
        let achieved = bytes as f64 / secs;
        let internal = s.config().internal_bandwidth().as_bytes_per_sec() as f64;
        assert!(
            achieved > 0.9 * internal,
            "achieved {achieved:.3e} vs {internal:.3e}"
        );
        assert!(achieved <= internal * 1.001);
    }

    #[test]
    fn unaligned_read_rounds_to_pages() {
        let mut s = ssd();
        // Crossing one page boundary with 2 bytes reads 2 pages.
        s.read(SimTime::ZERO, 4095, 2);
        assert_eq!(s.stats().bytes_read, 2 * 4096);
    }

    #[test]
    fn channels_parallelize_pages() {
        let mut s = ssd();
        // 8 pages across 8 channels: all transfer in parallel.
        let r8 = s.read(SimTime::ZERO, 0, 8 * 4096);
        let mut s2 = ssd();
        let r1 = s2.read(SimTime::ZERO, 0, 4096);
        // Both bounded by command latency here.
        assert_eq!(r8.complete, r1.complete);
    }

    #[test]
    fn sequential_commands_queue_on_channels() {
        let mut s = ssd();
        let big: u64 = 256 << 20;
        let a = s.read(SimTime::ZERO, 0, big);
        let b = s.read(SimTime::ZERO, big, big);
        // Second command finishes roughly twice as late as the first.
        let ratio = (b.complete.as_ps()) as f64 / (a.complete.as_ps()) as f64;
        assert!(ratio > 1.8, "flash contention expected, ratio {ratio}");
    }

    #[test]
    fn writes_tracked_separately() {
        let mut s = ssd();
        s.write(SimTime::ZERO, 0, 4096);
        assert_eq!(s.stats().write_cmds, 1);
        assert_eq!(s.stats().bytes_written, 4096);
        assert_eq!(s.stats().bytes_read, 0);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn read_past_end_rejected() {
        let mut s = ssd();
        let cap = s.config().capacity;
        s.read(SimTime::ZERO, cap - 100, 200);
    }

    #[test]
    #[should_panic(
        expected = "Ssd: IO of 8192 bytes at 0x3fffffff000 beyond capacity 4398046511104"
    )]
    fn write_past_end_names_its_range() {
        let mut s = ssd();
        let cap = s.config().capacity;
        s.write(SimTime::ZERO, cap - 4096, 8192);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let cfg = SsdConfig::nytro_class().with_jitter(30);
        let run = || {
            let mut s = Ssd::new(cfg);
            (0..50)
                .map(|i| s.read(SimTime::ZERO, i * 4096, 64).complete.as_ps())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "jitter must be deterministic");
        let base = SsdConfig::nytro_class().read_latency.as_ps();
        assert!(
            a.iter().all(|&t| t >= base),
            "jitter never shortens latency"
        );
        assert!(
            a.iter().all(|&t| t <= base * 13 / 10 + 1),
            "jitter bounded at +30%"
        );
        // It actually varies.
        assert!(a.iter().collect::<std::collections::BTreeSet<_>>().len() > 10);
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut s = ssd();
        let r = s.read(SimTime::ZERO, 0, 64);
        assert_eq!(r.complete, SimTime::ZERO + SimDuration::from_us(70));
    }

    #[test]
    fn internal_bandwidth_matches_config() {
        let c = SsdConfig::nytro_class();
        assert_eq!(c.internal_bandwidth().as_bytes_per_sec(), 12_800_000_000);
    }

    #[test]
    fn small_write_pays_write_latency() {
        let mut s = ssd();
        let r = s.write(SimTime::ZERO, 0, 64);
        assert_eq!(r.complete, SimTime::ZERO + SimDuration::from_us(100));
        assert_eq!(s.stats().bytes_written, 4 << 10);
    }

    #[test]
    fn idle_ssd_starts_io_at_request_time() {
        let mut s = ssd();
        let now = SimTime::ZERO + SimDuration::from_ms(2);
        let r = s.read(now, 0, 4096);
        assert_eq!(r.start, now);
        assert_eq!(r.complete, now + SimDuration::from_us(70));
    }

    #[test]
    fn flash_busy_time_counts_every_page() {
        let mut s = ssd();
        let cfg = *s.config();
        s.read(SimTime::ZERO, 0, 20 * cfg.page_bytes);
        let page_time = cfg.channel_bandwidth.transfer_time(cfg.page_bytes);
        assert_eq!(s.flash_busy_time(), page_time.scaled(20));
    }

    #[test]
    fn with_jitter_changes_only_the_jitter() {
        let base = SsdConfig::nytro_class();
        let jittered = base.with_jitter(15);
        assert_eq!(jittered.latency_jitter_pct, 15);
        assert_eq!(
            SsdConfig {
                latency_jitter_pct: 0,
                ..jittered
            },
            base
        );
    }

    #[test]
    #[should_panic(expected = "empty IO")]
    fn empty_io_rejected() {
        ssd().read(SimTime::ZERO, 0, 0);
    }

    #[test]
    #[should_panic(expected = "need flash channels")]
    fn zero_channels_rejected() {
        let _ = Ssd::new(SsdConfig {
            channels: 0,
            ..SsdConfig::nytro_class()
        });
    }
}
