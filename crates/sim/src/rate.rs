//! Clock frequencies and link bandwidths.
//!
//! Two quantities recur in every timing model in this workspace: *how long is
//! one cycle of this clock* and *how long does it take to push N bytes down
//! this pipe*. [`Frequency`] and [`Bandwidth`] answer those questions with
//! 128-bit intermediate arithmetic so the conversions stay exact across the
//! full range of values the experiments use (150 MHz kernels to 100 GB/s
//! cache ports).

use crate::time::SimDuration;
use std::fmt;

const PS_PER_S: u128 = 1_000_000_000_000;

/// A clock frequency in hertz.
///
/// # Example
///
/// ```
/// use reach_sim::Frequency;
/// let kernel = Frequency::from_mhz(273);
/// assert_eq!(kernel.cycles(273_000_000).as_secs_f64(), 1.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Frequency(u64);

impl Frequency {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero: a zero-frequency clock would make every cycle
    /// count conversion meaningless.
    #[must_use]
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "Frequency must be positive");
        Frequency(hz)
    }

    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero or the hertz value overflows `u64`.
    #[must_use]
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(
            mhz.checked_mul(1_000_000)
                .unwrap_or_else(|| panic!("Frequency::from_mhz: {mhz} MHz overflows u64 hertz")),
        )
    }

    /// Creates a frequency from gigahertz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is zero or the hertz value overflows `u64`.
    #[must_use]
    pub fn from_ghz(ghz: u64) -> Self {
        Self::from_hz(
            ghz.checked_mul(1_000_000_000)
                .unwrap_or_else(|| panic!("Frequency::from_ghz: {ghz} GHz overflows u64 hertz")),
        )
    }

    /// Returns the frequency in hertz.
    #[must_use]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The period of one clock cycle, rounded up to the next picosecond so a
    /// cycle is never under-billed.
    #[must_use]
    pub fn period(self) -> SimDuration {
        SimDuration::from_ps((PS_PER_S.div_ceil(u128::from(self.0))) as u64)
    }

    /// The time taken by `n` cycles of this clock, computed in one shot (not
    /// `n * period()`) so rounding error does not accumulate.
    #[must_use]
    pub fn cycles(self, n: u64) -> SimDuration {
        let ps = (u128::from(n) * PS_PER_S).div_ceil(u128::from(self.0));
        assert!(
            ps <= u128::from(u64::MAX),
            "Frequency::cycles: {n} cycles at {self} overflows the timeline"
        );
        SimDuration::from_ps(ps as u64)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.0 / 1_000_000)
        } else {
            write!(f, "{}Hz", self.0)
        }
    }
}

/// A transfer rate in bytes per second.
///
/// # Example
///
/// ```
/// use reach_sim::Bandwidth;
/// let ddr4_channel = Bandwidth::from_gbps(19);
/// let line = ddr4_channel.transfer_time(64);
/// assert!(line.as_ns_f64() < 4.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero; a zero-bandwidth link can never
    /// complete a transfer.
    #[must_use]
    pub fn from_bytes_per_sec(bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "Bandwidth must be positive");
        Bandwidth(bytes_per_sec)
    }

    /// Creates a bandwidth from megabytes per second (decimal MB).
    ///
    /// # Panics
    ///
    /// Panics if `mb_per_sec` is zero or the bytes/s value overflows `u64`.
    #[must_use]
    pub fn from_mbps(mb_per_sec: u64) -> Self {
        Self::from_bytes_per_sec(mb_per_sec.checked_mul(1_000_000).unwrap_or_else(|| {
            panic!("Bandwidth::from_mbps: {mb_per_sec} MB/s overflows u64 bytes/s")
        }))
    }

    /// Creates a bandwidth from gigabytes per second (decimal GB).
    ///
    /// # Panics
    ///
    /// Panics if `gb_per_sec` is zero or the bytes/s value overflows `u64`.
    #[must_use]
    pub fn from_gbps(gb_per_sec: u64) -> Self {
        Self::from_bytes_per_sec(gb_per_sec.checked_mul(1_000_000_000).unwrap_or_else(|| {
            panic!("Bandwidth::from_gbps: {gb_per_sec} GB/s overflows u64 bytes/s")
        }))
    }

    /// Returns the rate in bytes per second.
    #[must_use]
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Returns the rate in (fractional) GB/s.
    #[must_use]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization time for `bytes` at this rate, rounded up to the next
    /// picosecond (a transfer is never under-billed).
    #[must_use]
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        let ps = (u128::from(bytes) * PS_PER_S).div_ceil(u128::from(self.0));
        assert!(
            ps <= u128::from(u64::MAX),
            "Bandwidth::transfer_time: {bytes} bytes at {self} overflows the timeline"
        );
        SimDuration::from_ps(ps as u64)
    }

    /// Splits this rate evenly across `ways` consumers, rounding down; the
    /// result never exceeds the fair share.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or the share rounds to zero.
    #[must_use]
    pub fn share(self, ways: u64) -> Bandwidth {
        assert!(ways > 0, "Bandwidth::share: zero ways");
        let each = self.0 / ways;
        assert!(
            each > 0,
            "Bandwidth::share: {self} split {ways} ways rounds to zero"
        );
        Self::from_bytes_per_sec(each)
    }

    /// Scales the rate by a dimensionless efficiency factor in `(0, 1]`,
    /// e.g. PCIe protocol efficiency.
    ///
    /// # Panics
    ///
    /// Panics if `eff` is outside `(0, 1]` or the result rounds to zero.
    #[must_use]
    pub fn derate(self, eff: f64) -> Bandwidth {
        assert!(
            eff > 0.0 && eff <= 1.0,
            "Bandwidth::derate: efficiency {eff} outside (0, 1]"
        );
        let derated = (self.0 as f64 * eff) as u64;
        assert!(
            derated > 0,
            "Bandwidth::derate: {self} at efficiency {eff} rounds to zero"
        );
        Self::from_bytes_per_sec(derated)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}GB/s", self.as_gbps_f64())
        } else {
            write!(f, "{:.1}MB/s", self.0 as f64 / 1e6)
        }
    }
}

/// A point-to-point link: fixed propagation latency plus serialization at a
/// [`Bandwidth`]. The timing resource behind inter-machine transfers — one
/// message of `bytes` costs `latency + bandwidth.transfer_time(bytes)`.
///
/// # Example
///
/// ```
/// use reach_sim::{Bandwidth, Link, SimDuration};
/// let rack = Link::new(SimDuration::from_us(2), Bandwidth::from_gbps(12));
/// assert!(rack.transfer_time(0) == SimDuration::from_us(2));
/// assert!(rack.transfer_time(12_000).as_us_f64() > 2.9);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Link {
    latency: SimDuration,
    bandwidth: Bandwidth,
}

impl Link {
    /// A link with the given propagation latency and serialization rate.
    #[must_use]
    pub fn new(latency: SimDuration, bandwidth: Bandwidth) -> Self {
        Link { latency, bandwidth }
    }

    /// One-way propagation latency (charged once per message).
    #[must_use]
    pub fn latency(self) -> SimDuration {
        self.latency
    }

    /// Serialization bandwidth.
    #[must_use]
    pub fn bandwidth(self) -> Bandwidth {
        self.bandwidth
    }

    /// End-to-end time for one message of `bytes`: propagation plus
    /// serialization (rounded up by [`Bandwidth::transfer_time`]).
    #[must_use]
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        self.latency + self.bandwidth.transfer_time(bytes)
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}", self.latency, self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn period_of_common_clocks() {
        assert_eq!(Frequency::from_ghz(2).period().as_ps(), 500);
        assert_eq!(Frequency::from_ghz(1).period().as_ps(), 1_000);
        assert_eq!(Frequency::from_mhz(200).period().as_ps(), 5_000);
        // 273 MHz does not divide 1e12 exactly; period rounds up.
        assert_eq!(Frequency::from_mhz(273).period().as_ps(), 3_664);
    }

    #[test]
    fn bulk_cycles_do_not_accumulate_rounding() {
        let f = Frequency::from_mhz(273);
        // One million cycles at 273 MHz = 3.663003663...ms
        let d = f.cycles(1_000_000);
        let exact = 1e6 / 273e6;
        assert!((d.as_secs_f64() - exact).abs() / exact < 1e-9);
    }

    #[test]
    fn transfer_time_scales_linearly() {
        let bw = Bandwidth::from_gbps(12);
        let one = bw.transfer_time(1_000_000);
        let ten = bw.transfer_time(10_000_000);
        let ratio = ten.as_ps() as f64 / one.as_ps() as f64;
        assert!((ratio - 10.0).abs() < 1e-6);
    }

    #[test]
    fn transfer_time_rounds_up() {
        // 1 byte at 3 B/s = 333333333333.33 ps, must round up.
        let bw = Bandwidth::from_bytes_per_sec(3);
        assert_eq!(bw.transfer_time(1).as_ps(), 333_333_333_334);
    }

    #[test]
    fn share_and_derate() {
        let bw = Bandwidth::from_gbps(16);
        assert_eq!(bw.share(4).as_bytes_per_sec(), 4_000_000_000);
        assert_eq!(bw.derate(0.75).as_bytes_per_sec(), 12_000_000_000);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn derate_rejects_out_of_range() {
        let _ = Bandwidth::from_gbps(1).derate(1.5);
    }

    #[test]
    #[should_panic(expected = "Frequency::from_mhz: 18446744073710 MHz overflows")]
    fn from_mhz_names_the_overflowing_value() {
        let _ = Frequency::from_mhz(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "Frequency::from_ghz: 18446744074 GHz overflows")]
    fn from_ghz_names_the_overflowing_value() {
        let _ = Frequency::from_ghz(u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "Bandwidth::from_mbps: 18446744073710 MB/s overflows")]
    fn from_mbps_names_the_overflowing_value() {
        let _ = Bandwidth::from_mbps(u64::MAX / 1_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "Bandwidth::from_gbps: 18446744074 GB/s overflows")]
    fn from_gbps_names_the_overflowing_value() {
        let _ = Bandwidth::from_gbps(u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    #[should_panic(expected = "3.0MB/s split 4000000 ways rounds to zero")]
    fn share_names_the_rounded_to_zero_split() {
        let _ = Bandwidth::from_mbps(3).share(4_000_000);
    }

    #[test]
    #[should_panic(expected = "at efficiency 0.0000000001 rounds to zero")]
    fn derate_names_the_rounded_to_zero_result() {
        let _ = Bandwidth::from_bytes_per_sec(100).derate(1e-10);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Frequency::from_ghz(2).to_string(), "2GHz");
        assert_eq!(Frequency::from_mhz(150).to_string(), "150MHz");
        assert_eq!(Bandwidth::from_gbps(12).to_string(), "12.0GB/s");
        assert_eq!(Bandwidth::from_mbps(500).to_string(), "500.0MB/s");
    }

    #[test]
    fn zero_transfer_is_instant() {
        assert_eq!(Bandwidth::from_gbps(1).transfer_time(0), SimDuration::ZERO);
        assert_eq!(Frequency::from_ghz(1).cycles(0), SimDuration::ZERO);
    }

    #[test]
    fn link_charges_latency_plus_serialization() {
        let link = Link::new(SimDuration::from_us(2), Bandwidth::from_gbps(10));
        // An empty message still pays propagation.
        assert_eq!(link.transfer_time(0), SimDuration::from_us(2));
        // 10 KB at 10 GB/s = 1 us of serialization on top.
        assert_eq!(link.transfer_time(10_000), SimDuration::from_us(3));
        assert_eq!(link.latency(), SimDuration::from_us(2));
        assert_eq!(link.bandwidth(), Bandwidth::from_gbps(10));
        assert_eq!(link.to_string(), "2.000us + 10.0GB/s");
    }
}
