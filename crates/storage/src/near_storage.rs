//! The near-storage accelerator carrier device.
//!
//! Figure 4 of the paper: an embedded FPGA with a host interface, an
//! FPGA-SSD interface over a local PCIe link, a private DRAM buffer that
//! caches accelerator parameters "to limit disk accesses and exploit the
//! parameters' reuse ratio", and pass-through logic that forwards ordinary
//! host IO to the SSD with minimal overhead.
//!
//! The accelerator itself (kernel timing, power) lives in `reach-accel`;
//! this module models the *data paths* the accelerator uses.

use crate::pcie::{PcieGen, PcieLink};
use crate::ssd::{Ssd, SsdConfig};
use reach_sim::{Bandwidth, BandwidthResource, Reservation, SimDuration, SimTime};
use std::collections::BTreeMap;

/// Configuration of a near-storage device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NearStorageDeviceConfig {
    /// The attached SSD.
    pub ssd: SsdConfig,
    /// Private DRAM buffer capacity (1 GB in Table II).
    pub buffer_capacity: u64,
    /// Private DRAM buffer bandwidth.
    pub buffer_bandwidth: Bandwidth,
    /// Effective FPGA-SSD link bandwidth (12 GB/s in Table II).
    pub device_link: Bandwidth,
}

impl NearStorageDeviceConfig {
    /// Table II: Zynq UltraScale+ carrier with 1 GB DRAM and a 12 GB/s
    /// effective link to the NVMe SSD.
    #[must_use]
    pub fn paper_default() -> Self {
        NearStorageDeviceConfig {
            ssd: SsdConfig::nytro_class(),
            buffer_capacity: 1 << 30,
            buffer_bandwidth: Bandwidth::from_gbps(19),
            device_link: Bandwidth::from_gbps(12),
        }
    }
}

/// Where a device-side read was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferOutcome {
    /// The range was resident in the private DRAM buffer.
    BufferHit,
    /// The range came from flash over the device link (and was not cached).
    Flash,
}

/// Statistics of the near-storage data paths.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NearStorageStats {
    /// Device-side bytes served from the DRAM buffer.
    pub buffer_bytes: u64,
    /// Device-side bytes read from flash.
    pub flash_bytes: u64,
    /// Host IO bytes forwarded by the pass-through logic.
    pub passthrough_bytes: u64,
}

/// A near-storage accelerator carrier: SSD + private DRAM buffer + links.
///
/// # Example
///
/// ```
/// use reach_storage::{NearStorageDevice, NearStorageDeviceConfig, BufferOutcome};
/// use reach_sim::SimTime;
///
/// let mut dev = NearStorageDevice::new(NearStorageDeviceConfig::paper_default());
/// // Pin the kernel parameters into the private buffer…
/// dev.pin(0, 16 << 20).unwrap();
/// // …then device-side reads of that range hit DRAM instead of flash.
/// let (r, outcome) = dev.device_read(SimTime::ZERO, 0, 1 << 20);
/// assert_eq!(outcome, BufferOutcome::BufferHit);
/// assert!(r.complete.as_us_f64() < 70.0); // faster than a flash read
/// ```
#[derive(Debug)]
pub struct NearStorageDevice {
    config: NearStorageDeviceConfig,
    ssd: Ssd,
    device_link: PcieLink,
    buffer: BandwidthResource,
    /// Pinned ranges: start -> end (non-overlapping, coalesced).
    pinned: BTreeMap<u64, u64>,
    pinned_bytes: u64,
    stats: NearStorageStats,
}

impl NearStorageDevice {
    /// Creates an idle device with an empty buffer.
    #[must_use]
    pub fn new(config: NearStorageDeviceConfig) -> Self {
        // Model the device link as a Gen3 x16 derated to the configured
        // effective bandwidth.
        let raw_x16 = PcieGen::Gen3.lane_bytes_per_sec() * 16;
        let eff = (config.device_link.as_bytes_per_sec() as f64 / raw_x16 as f64).min(1.0);
        NearStorageDevice {
            ssd: Ssd::new(config.ssd),
            device_link: PcieLink::new(PcieGen::Gen3, 16, eff),
            buffer: BandwidthResource::new(config.buffer_bandwidth, SimDuration::from_ns(100)),
            pinned: BTreeMap::new(),
            pinned_bytes: 0,
            stats: NearStorageStats::default(),
            config,
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &NearStorageDeviceConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &NearStorageStats {
        &self.stats
    }

    /// The attached SSD (for host-path IO and stats).
    #[must_use]
    pub fn ssd(&self) -> &Ssd {
        &self.ssd
    }

    /// Bytes currently pinned in the private buffer.
    #[must_use]
    pub fn pinned_bytes(&self) -> u64 {
        self.pinned_bytes
    }

    /// Pins `[addr, addr+len)` of the SSD's address space into the private
    /// DRAM buffer (parameter caching). Returns an error message if the
    /// buffer would overflow.
    ///
    /// # Errors
    ///
    /// Fails when the pinned working set would exceed the buffer capacity.
    pub fn pin(&mut self, addr: u64, len: u64) -> Result<(), String> {
        if self.pinned_bytes + len > self.config.buffer_capacity {
            return Err(format!(
                "near-storage buffer overflow: {} + {} > {}",
                self.pinned_bytes, len, self.config.buffer_capacity
            ));
        }
        self.pinned.insert(addr, addr + len);
        self.pinned_bytes += len;
        Ok(())
    }

    /// Releases every pinned range (e.g. on kernel reconfiguration).
    pub fn unpin_all(&mut self) {
        self.pinned.clear();
        self.pinned_bytes = 0;
    }

    fn is_pinned(&self, addr: u64, len: u64) -> bool {
        self.pinned
            .range(..=addr)
            .next_back()
            .is_some_and(|(_, &end)| addr + len <= end)
    }

    /// A device-side read issued by the attached accelerator: served from the
    /// private buffer when pinned, otherwise from flash across the device
    /// link.
    pub fn device_read(
        &mut self,
        now: SimTime,
        addr: u64,
        bytes: u64,
    ) -> (Reservation, BufferOutcome) {
        if self.is_pinned(addr, bytes) {
            self.stats.buffer_bytes += bytes;
            (self.buffer.transfer(now, bytes), BufferOutcome::BufferHit)
        } else {
            self.stats.flash_bytes += bytes;
            let flash = self.ssd.read(now, addr, bytes);
            // The PCIe hop is pipelined with the flash stream: the link
            // starts forwarding as soon as the first page arrives and cannot
            // finish before the flash array delivers the last byte.
            let first_data = flash.start + self.config.ssd.read_latency;
            let link = self.device_link.transfer(first_data, bytes);
            let complete = link.complete.max(flash.complete);
            (
                Reservation {
                    start: flash.start,
                    ready: complete,
                    complete,
                },
                BufferOutcome::Flash,
            )
        }
    }

    /// A device-side write from the accelerator to flash.
    pub fn device_write(&mut self, now: SimTime, addr: u64, bytes: u64) -> Reservation {
        let link = self.device_link.transfer(now, bytes);
        self.stats.flash_bytes += bytes;
        self.ssd.write(link.complete, addr, bytes)
    }

    /// Host IO forwarded through the pass-through logic (the near-storage
    /// module adds only its link hop; the host switch is billed by the
    /// caller, which owns the shared upstream port).
    pub fn passthrough_read(&mut self, now: SimTime, addr: u64, bytes: u64) -> Reservation {
        self.stats.passthrough_bytes += bytes;
        let flash = self.ssd.read(now, addr, bytes);
        self.device_link.transfer(flash.complete, bytes)
    }

    /// Occupied time of the device link (energy accounting).
    #[must_use]
    pub fn device_link_busy(&self) -> SimDuration {
        self.device_link.busy_time()
    }

    /// Bytes that crossed the device link.
    #[must_use]
    pub fn device_link_bytes(&self) -> u64 {
        self.device_link.bytes_transferred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NearStorageDevice {
        NearStorageDevice::new(NearStorageDeviceConfig::paper_default())
    }

    #[test]
    fn pinned_reads_hit_buffer() {
        let mut d = dev();
        d.pin(0, 32 << 20).unwrap();
        let (r, out) = d.device_read(SimTime::ZERO, 1 << 20, 1 << 20);
        assert_eq!(out, BufferOutcome::BufferHit);
        assert!(r.complete.as_us_f64() < 70.0);
        assert_eq!(d.stats().buffer_bytes, 1 << 20);
        assert_eq!(d.stats().flash_bytes, 0);
    }

    #[test]
    fn unpinned_reads_go_to_flash() {
        let mut d = dev();
        let (r, out) = d.device_read(SimTime::ZERO, 0, 1 << 20);
        assert_eq!(out, BufferOutcome::Flash);
        assert!(r.complete.as_us_f64() >= 70.0);
        assert_eq!(d.stats().flash_bytes, 1 << 20);
    }

    #[test]
    fn read_straddling_pin_boundary_misses() {
        let mut d = dev();
        d.pin(0, 1 << 20).unwrap();
        let (_, out) = d.device_read(SimTime::ZERO, (1 << 20) - 512, 1024);
        assert_eq!(out, BufferOutcome::Flash);
    }

    #[test]
    fn pin_respects_capacity() {
        let mut d = dev();
        assert!(d.pin(0, 1 << 30).is_ok());
        assert!(d.pin(1 << 30, 1).is_err());
        d.unpin_all();
        assert!(d.pin(0, 1 << 30).is_ok());
        assert_eq!(d.pinned_bytes(), 1 << 30);
    }

    #[test]
    fn device_path_beats_host_latency_for_streaming() {
        // Stream 1 GiB: device path is bounded by the 12 GB/s device link,
        // i.e. ~89 ms; the same data over a 12 GB/s *shared* host port takes
        // the same time alone but halves when two devices compete — that
        // contention case is exercised at the machine level in reach-core.
        let mut d = dev();
        let (r, _) = d.device_read(SimTime::ZERO, 0, 1 << 30);
        let secs = (r.complete - SimTime::ZERO).as_secs_f64();
        assert!(secs < 0.12, "device-path stream took {secs}s");
    }

    #[test]
    fn passthrough_counts_separately() {
        let mut d = dev();
        d.passthrough_read(SimTime::ZERO, 0, 4096);
        assert_eq!(d.stats().passthrough_bytes, 4096);
        assert_eq!(d.stats().flash_bytes, 0);
        assert_eq!(d.ssd().stats().read_cmds, 1);
    }

    #[test]
    fn device_write_reaches_flash() {
        let mut d = dev();
        let r = d.device_write(SimTime::ZERO, 0, 8192);
        assert!(r.complete.as_us_f64() >= 100.0);
        assert_eq!(d.ssd().stats().bytes_written, 8192);
    }

    #[test]
    fn link_stats_accumulate() {
        let mut d = dev();
        d.device_read(SimTime::ZERO, 0, 1 << 20);
        assert_eq!(d.device_link_bytes(), 1 << 20);
        assert!(d.device_link_busy() > SimDuration::ZERO);
    }
}
