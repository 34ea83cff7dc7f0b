//! Statistics primitives used to assemble the experiment reports.

use crate::metrics::MetricValue;
use crate::time::SimTime;
use std::fmt;

/// A power-of-two bucketed histogram for latency-like quantities.
///
/// Bucket `i` holds samples in `[2^i, 2^(i+1))`; bucket 0 also holds zero.
///
/// # Example
///
/// ```
/// use reach_sim::Histogram;
/// let mut h = Histogram::new();
/// h.record(5);   // bucket 2: [4, 8)
/// h.record(6);
/// h.record(100); // bucket 6: [64, 128)
/// assert_eq!(h.bucket_count(2), 2);
/// assert_eq!(h.bucket_count(6), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Number of samples in bucket `i` (`[2^i, 2^(i+1))`).
    #[must_use]
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the p-th percentile (the top of the bucket holding
    /// that rank), `p` in `[0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p > 100`.
    #[must_use]
    pub fn percentile_bound(&self, p: u8) -> u64 {
        assert!(p <= 100, "percentile must be in [0, 100]");
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(p))
            .div_ceil(100)
            .max(1);
        let mut seen: u128 = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += u128::from(c);
            if seen >= rank {
                return if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        u64::MAX
    }

    /// The snapshot summary: count, mean and the p50/p99 bounds.
    #[must_use]
    pub fn summary(&self) -> MetricValue {
        MetricValue::Histogram {
            count: self.count,
            mean: self.mean(),
            p50: self.percentile_bound(50),
            p99: self.percentile_bound(99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Sub-buckets per octave in a [`LatencyHistogram`] (as a power of two).
const LAT_SUB_BITS: u32 = 3;
/// Sub-buckets per octave (8): each bucket spans 12.5% of its octave.
const LAT_SUBS: usize = 1 << LAT_SUB_BITS;
/// Values below `LAT_SUBS` get one exact bucket each; octaves 3..=63 get
/// `LAT_SUBS` buckets each: 8 + 61 * 8 = 496.
const LAT_BUCKETS: usize = LAT_SUBS + (64 - LAT_SUB_BITS as usize) * LAT_SUBS;

/// A log-bucketed latency histogram with deterministic quantiles.
///
/// Unlike [`Histogram`] (one bucket per octave, percentiles in whole
/// percent), this splits every octave into 8 sub-buckets (12.5% relative
/// resolution) and reports quantiles per mille, so p99.9 is expressible.
/// Everything is integer arithmetic over fixed bucket boundaries: recording
/// order never matters, [`LatencyHistogram::merge`] is a plain bucket-wise
/// sum, and equal contents always produce equal quantiles — which is what
/// lets latency percentiles appear in byte-identical reports at any worker
/// count.
///
/// # Example
///
/// ```
/// use reach_sim::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in 1..=1000u64 { h.record(v); }
/// assert_eq!(h.count(), 1000);
/// // Quantile bounds are bucket tops: within 12.5% above the exact rank.
/// let p50 = h.quantile_per_mille(500);
/// assert!((500..=575).contains(&p50), "p50 bound {p50}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; LAT_BUCKETS],
    count: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; LAT_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket index holding `v`.
    fn index(v: u64) -> usize {
        if v < LAT_SUBS as u64 {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (e - LAT_SUB_BITS as usize)) as usize) & (LAT_SUBS - 1);
        (e - (LAT_SUB_BITS as usize - 1)) * LAT_SUBS + sub
    }

    /// The largest value bucket `i` can hold (inclusive), saturating at
    /// `u64::MAX` for the top octave.
    fn upper_bound(i: usize) -> u64 {
        if i < LAT_SUBS {
            return i as u64;
        }
        let e = i / LAT_SUBS + (LAT_SUB_BITS as usize - 1);
        let sub = (i % LAT_SUBS) as u128;
        let low = (1u128 << e) + sub * (1u128 << (e - LAT_SUB_BITS as usize));
        let high = low + (1u128 << (e - LAT_SUB_BITS as usize)) - 1;
        u64::try_from(high).unwrap_or(u64::MAX)
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Folds another histogram into this one. Bucket-wise addition, so the
    /// merge order of any partition of the same samples is irrelevant.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value, 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-per-mille quantile (the top of the bucket
    /// holding that rank); `p` in `[0, 1000]`, so `p999` is
    /// `quantile_per_mille(999)`. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p > 1000`.
    #[must_use]
    pub fn quantile_per_mille(&self, p: u16) -> u64 {
        assert!(p <= 1000, "quantile must be in [0, 1000] per mille");
        if self.count == 0 {
            return 0;
        }
        let rank = (u128::from(self.count) * u128::from(p))
            .div_ceil(1000)
            .max(1);
        let mut seen: u128 = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += u128::from(c);
            if seen >= rank {
                return Self::upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Median upper bound.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile_per_mille(500)
    }

    /// 95th-percentile upper bound.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.quantile_per_mille(950)
    }

    /// 99th-percentile upper bound.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile_per_mille(990)
    }

    /// 99.9th-percentile upper bound.
    #[must_use]
    pub fn p999(&self) -> u64 {
        self.quantile_per_mille(999)
    }
}

impl fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50<={} p99<={} p999<={}",
            self.count,
            self.mean(),
            self.p50(),
            self.p99(),
            self.p999()
        )
    }
}

/// Time-weighted average of a piecewise-constant signal (e.g. queue depth or
/// outstanding-request count over simulated time).
///
/// # Example
///
/// ```
/// use reach_sim::{TimeWeighted, SimTime};
/// let mut depth = TimeWeighted::new();
/// depth.set(SimTime::from_ps(0), 2.0);
/// depth.set(SimTime::from_ps(10), 4.0);
/// assert_eq!(depth.average(SimTime::from_ps(20)), 3.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TimeWeighted {
    last_change: SimTime,
    value: f64,
    weighted_sum: f64,
}

impl TimeWeighted {
    /// Creates a signal that is 0.0 from the origin.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the signal value at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous change (signals are appended in
    /// time order).
    pub fn set(&mut self, at: SimTime, value: f64) {
        let span = at.since(self.last_change);
        self.weighted_sum += self.value * span.as_ps() as f64;
        self.last_change = at;
        self.value = value;
    }

    /// Current value of the signal.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Time-weighted average over `[ZERO, until]`.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last recorded change or is zero.
    #[must_use]
    pub fn average(&self, until: SimTime) -> f64 {
        assert!(until > SimTime::ZERO, "average over empty horizon");
        let tail = until.since(self.last_change);
        let total = self.weighted_sum + self.value * tail.as_ps() as f64;
        total / until.as_ps() as f64
    }

    /// The snapshot summary over `[ZERO, until]`: the time-weighted mean
    /// (0.0 over an empty horizon) and the current value.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last recorded change.
    #[must_use]
    pub fn summary(&self, until: SimTime) -> MetricValue {
        let mean = if until == SimTime::ZERO {
            0.0
        } else {
            self.average(until)
        };
        MetricValue::Gauge {
            mean,
            last: self.value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.bucket_count(0), 2); // 0 and 1
        assert_eq!(h.bucket_count(1), 2); // 2 and 3
        assert_eq!(h.bucket_count(10), 1); // 1024
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 206.0);
    }

    #[test]
    fn histogram_percentile_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(10); // bucket 3: [8, 16)
        }
        h.record(1 << 20);
        assert_eq!(h.percentile_bound(50), 15);
        assert_eq!(h.percentile_bound(99), 15);
        assert_eq!(h.percentile_bound(100), (1 << 21) - 1);
        assert_eq!(Histogram::new().percentile_bound(99), 0);
    }

    #[test]
    fn latency_histogram_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..8u64 {
            h.record(v);
        }
        // Below 8 every value has its own bucket, so quantile bounds are
        // exact order statistics.
        assert_eq!(h.quantile_per_mille(0), 0);
        assert_eq!(h.quantile_per_mille(500), 3);
        assert_eq!(h.quantile_per_mille(1000), 7);
    }

    #[test]
    fn latency_histogram_bounds_are_within_one_sub_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(1000);
        let p = h.p50();
        // 1000 lands in octave [512, 1024), sub-bucket width 64:
        // the bound is at most 12.5% of the octave above the sample.
        assert!((1000..1064).contains(&p), "bound {p}");
    }

    #[test]
    fn latency_histogram_merge_is_bucket_sum() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for (i, v) in [3u64, 77, 12_345, 9, 1 << 40, 0, 500].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v)
            } else {
                b.record(*v)
            }
            whole.record(*v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(ab.count(), 7);
        assert!((ab.mean() - whole.mean()).abs() < 1e-9);
    }

    #[test]
    fn latency_histogram_p999_needs_per_mille_resolution() {
        let mut h = LatencyHistogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(1 << 30);
        assert_eq!(h.p99(), 10);
        assert!(h.p999() == 10);
        assert!(h.quantile_per_mille(1000) >= 1 << 30);
    }

    #[test]
    fn latency_histogram_saturates_at_u64_max() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.p50(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "per mille")]
    fn latency_histogram_rejects_out_of_range_quantile() {
        let _ = LatencyHistogram::new().quantile_per_mille(1001);
    }

    #[test]
    fn time_weighted_average() {
        let mut s = TimeWeighted::new();
        s.set(SimTime::from_ps(0), 1.0);
        s.set(SimTime::from_ps(50), 2.0);
        // [0, 50): 1.0; [50, 100): 2.0 -> avg 1.5
        assert!((s.average(SimTime::from_ps(100)) - 1.5).abs() < 1e-12);
        assert_eq!(s.current(), 2.0);
    }
}
