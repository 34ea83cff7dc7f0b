//! The snapshot a finished run exports, and the windowed occupancy gauge.
//!
//! A simulation core records into the primitives of [`crate::stats`]
//! ([`Histogram`], [`TimeWeighted`]) and into [`WindowedGauge`], held as
//! typed fields, and writes them once at the end of a run into a
//! [`MetricsSnapshot`] under hierarchical dotted names
//! (`mem.ddr.ch0.busy_ps`, `gam.queue.near_mem.depth`,
//! `storage.ssd0.read_bytes`). The snapshot is a name-sorted,
//! schema-stable map of scalar summaries with one exporter, a hand-rolled
//! JSON dump (same no-dependency style as the Chrome trace serializer).
//!
//! [`Histogram`]: crate::stats::Histogram
//! [`TimeWeighted`]: crate::stats::TimeWeighted
//!
//! # Example
//!
//! ```
//! use reach_sim::{MetricsSnapshot, SimTime, TimeWeighted};
//!
//! let mut depth = TimeWeighted::new();
//! depth.set(SimTime::from_ps(0), 2.0);
//! depth.set(SimTime::from_ps(50), 4.0);
//! let mut snap = MetricsSnapshot::new(100);
//! snap.set_counter("mem.ddr.ch0.bytes", 4096);
//! snap.set("gam.queue.near_mem.depth", depth.summary(SimTime::from_ps(100)));
//! assert!(snap.to_json().contains("\"mean\":3.000000"));
//! ```

use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// A time-windowed occupancy signal built from `[start, end)` busy windows.
///
/// Unlike [`crate::TimeWeighted`], windows may be recorded **out of order** — a
/// discrete-event core discovers resource busy intervals in completion
/// order, not in start order. The gauge stores signed edges and sorts them
/// once at snapshot time.
#[derive(Clone, Debug, Default)]
pub struct WindowedGauge {
    /// `(instant_ps, delta)` edges: `+amount` where a window opens,
    /// `-amount` where it closes.
    edges: Vec<(u64, f64)>,
}

impl WindowedGauge {
    /// An empty gauge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one busy window of weight `amount` over `[start, end)`.
    /// Zero-length windows contribute nothing to the average but still
    /// count toward the peak at their instant.
    pub fn record(&mut self, start: SimTime, end: SimTime, amount: f64) {
        let s = start.since(SimTime::ZERO).as_ps();
        let e = end.since(SimTime::ZERO).as_ps();
        debug_assert!(s <= e, "WindowedGauge::record: window ends before start");
        self.edges.push((s, amount));
        self.edges.push((e, -amount));
    }

    /// Number of recorded windows.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.edges.len() / 2
    }

    /// `(time-weighted mean over [0, horizon], peak concurrent value)`.
    /// The mean is 0.0 over an empty horizon.
    #[must_use]
    pub fn summarize(&self, horizon: SimTime) -> (f64, f64) {
        let horizon_ps = horizon.since(SimTime::ZERO).as_ps();
        let mut edges = self.edges.clone();
        // Sort by time, closing edges first at ties so a window that ends
        // exactly where another starts never inflates the peak.
        edges.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).expect("finite")));
        let mut value = 0.0;
        let mut peak = 0.0f64;
        let mut weighted = 0.0;
        let mut last = 0u64;
        for (at, delta) in edges {
            let at = at.min(horizon_ps);
            weighted += value * (at - last) as f64;
            last = at;
            value += delta;
            peak = peak.max(value);
        }
        weighted += value * horizon_ps.saturating_sub(last) as f64;
        let mean = if horizon_ps == 0 {
            0.0
        } else {
            weighted / horizon_ps as f64
        };
        (mean, peak)
    }

    /// The snapshot summary over `[0, horizon]`: mean and peak occupancy.
    #[must_use]
    pub fn summary(&self, horizon: SimTime) -> MetricValue {
        let (mean, peak) = self.summarize(horizon);
        MetricValue::Occupancy { mean, peak }
    }
}

/// One summarized metric value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter {
        /// Final value.
        value: u64,
    },
    /// A piecewise-constant signal.
    Gauge {
        /// Time-weighted mean over the horizon.
        mean: f64,
        /// Last sampled value.
        last: f64,
    },
    /// A sample distribution.
    Histogram {
        /// Samples recorded.
        count: u64,
        /// Mean sample.
        mean: f64,
        /// Upper bound on the median.
        p50: u64,
        /// Upper bound on the 99th percentile.
        p99: u64,
    },
    /// A windowed occupancy summary.
    Occupancy {
        /// Time-weighted mean concurrent occupancy.
        mean: f64,
        /// Peak concurrent occupancy.
        peak: f64,
    },
}

/// Stable float formatting for the exporters: six decimal places, which is
/// enough for ratios and means while keeping golden files byte-comparable.
fn fmt_f64(v: f64) -> String {
    format!("{v:.6}")
}

/// A name-sorted, schema-stable summary of every metric of a run.
///
/// Clones share one map and copy it on the first write to either side, so
/// a replayed report is cloned without copying its metric names.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    horizon_ps: u64,
    metrics: Arc<BTreeMap<String, MetricValue>>,
}

impl MetricsSnapshot {
    /// An empty snapshot over `[0, horizon_ps]`.
    #[must_use]
    pub fn new(horizon_ps: u64) -> Self {
        MetricsSnapshot {
            horizon_ps,
            metrics: Arc::default(),
        }
    }

    /// A snapshot over `[0, horizon_ps]` holding `metrics`, which must be
    /// in strictly ascending name order (as [`MetricsSnapshot::iter`]
    /// yields them). The map is built in one pass, without a tree search
    /// per name.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the names are not strictly ascending.
    #[must_use]
    pub fn from_sorted(horizon_ps: u64, metrics: Vec<(String, MetricValue)>) -> Self {
        debug_assert!(
            metrics.windows(2).all(|w| w[0].0 < w[1].0),
            "MetricsSnapshot::from_sorted: names not strictly ascending"
        );
        MetricsSnapshot {
            horizon_ps,
            metrics: Arc::new(metrics.into_iter().collect()),
        }
    }

    /// The snapshot horizon in picoseconds.
    #[must_use]
    pub fn horizon_ps(&self) -> u64 {
        self.horizon_ps
    }

    /// Inserts (or overwrites) a metric. A map shared with a clone is
    /// copied first, so the clone never sees the write.
    pub fn set(&mut self, name: impl Into<String>, value: MetricValue) {
        Arc::make_mut(&mut self.metrics).insert(name.into(), value);
    }

    /// Shorthand for inserting a [`MetricValue::Counter`] — the shape every
    /// end-of-run component pull uses.
    pub fn set_counter(&mut self, name: impl Into<String>, value: u64) {
        self.set(name, MetricValue::Counter { value });
    }

    /// Shorthand for inserting a point-in-time [`MetricValue::Gauge`]
    /// (`mean == last == value`) — process-level facts recorded once per
    /// run, like the selected SIMD dispatch path.
    pub fn set_gauge(&mut self, name: impl Into<String>, value: f64) {
        self.set(
            name,
            MetricValue::Gauge {
                mean: value,
                last: value,
            },
        );
    }

    /// The metric under `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// The value of the counter under `name`; `None` if there is no
    /// metric of that name or it is not a counter.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter { value } => Some(*value),
            _ => None,
        }
    }

    /// The last sampled value of the gauge under `name`; `None` if there
    /// is no metric of that name or it is not a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge { last, .. } => Some(*last),
            _ => None,
        }
    }

    /// Metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// `true` when no metric was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Serializes as a hand-rolled JSON object. Metrics appear in name
    /// order, floats at fixed precision, so the output is byte-stable for
    /// a given run — golden files and CI diffs work.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"reach-metrics-v1\",");
        let _ = writeln!(out, "  \"horizon_ps\": {},", self.horizon_ps);
        out.push_str("  \"metrics\": {");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": ", escape(name));
            match v {
                MetricValue::Counter { value } => {
                    let _ = write!(out, "{{\"kind\":\"counter\",\"value\":{value}}}");
                }
                MetricValue::Gauge { mean, last } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"gauge\",\"mean\":{},\"last\":{}}}",
                        fmt_f64(*mean),
                        fmt_f64(*last)
                    );
                }
                MetricValue::Histogram {
                    count,
                    mean,
                    p50,
                    p99,
                } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"histogram\",\"count\":{count},\"mean\":{},\"p50\":{p50},\"p99\":{p99}}}",
                        fmt_f64(*mean)
                    );
                }
                MetricValue::Occupancy { mean, peak } => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"occupancy\",\"mean\":{},\"peak\":{}}}",
                        fmt_f64(*mean),
                        fmt_f64(*peak)
                    );
                }
            }
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Histogram, TimeWeighted};

    fn ps(n: u64) -> SimTime {
        SimTime::from_ps(n)
    }

    #[test]
    fn gauge_summarizes_time_weighted() {
        let mut g = TimeWeighted::new();
        g.set(ps(0), 2.0);
        g.set(ps(50), 4.0);
        match g.summary(ps(100)) {
            MetricValue::Gauge { mean, last } => {
                assert!((mean - 3.0).abs() < 1e-12);
                assert_eq!(last, 4.0);
            }
            other => panic!("expected gauge, got {other:?}"),
        }
        assert_eq!(
            TimeWeighted::new().summary(SimTime::ZERO),
            MetricValue::Gauge {
                mean: 0.0,
                last: 0.0
            }
        );
    }

    #[test]
    fn windowed_gauge_tolerates_out_of_order_windows() {
        let mut w = WindowedGauge::new();
        // Later window recorded first: [50, 100) then [0, 50).
        w.record(ps(50), ps(100), 1.0);
        w.record(ps(0), ps(50), 1.0);
        w.record(ps(25), ps(75), 1.0); // overlaps both
        let (mean, peak) = w.summarize(ps(100));
        assert!((mean - 1.5).abs() < 1e-12, "mean {mean}");
        assert!((peak - 2.0).abs() < 1e-12, "peak {peak}");
        assert_eq!(w.windows(), 3);
    }

    #[test]
    fn windowed_gauge_empty_horizon() {
        let w = WindowedGauge::new();
        assert_eq!(w.summarize(SimTime::ZERO), (0.0, 0.0));
    }

    #[test]
    fn back_to_back_windows_do_not_inflate_peak() {
        let mut w = WindowedGauge::new();
        w.record(ps(0), ps(10), 1.0);
        w.record(ps(10), ps(20), 1.0);
        let (_, peak) = w.summarize(ps(20));
        assert!((peak - 1.0).abs() < 1e-12, "peak {peak}");
    }

    #[test]
    fn counter_reads_only_a_present_counter() {
        let mut snap = MetricsSnapshot::new(10);
        snap.set_counter("gam.dmas", 3);
        snap.set_gauge("runner.simd", 2.0);
        assert_eq!(snap.counter("gam.dmas"), Some(3));
        assert_eq!(snap.counter("gam.dma_bytes"), None, "missing name");
        assert_eq!(
            snap.counter("runner.simd"),
            None,
            "a gauge is not a counter"
        );
    }

    #[test]
    fn gauge_reads_the_last_value_not_the_mean() {
        let mut snap = MetricsSnapshot::new(10);
        snap.set(
            "q.depth",
            MetricValue::Gauge {
                mean: 1.5,
                last: 4.0,
            },
        );
        snap.set_counter("gam.dmas", 3);
        assert_eq!(snap.gauge("q.depth"), Some(4.0));
        assert_eq!(snap.gauge("q.width"), None, "missing name");
        assert_eq!(snap.gauge("gam.dmas"), None, "a counter is not a gauge");
    }

    #[test]
    fn snapshot_orders_by_name_and_counts() {
        let mut snap = MetricsSnapshot::new(10);
        snap.set_counter("b.count", 1);
        snap.set_counter("a.count", 2);
        let names: Vec<&str> = snap.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.count", "b.count"]);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        assert_eq!(snap.horizon_ps(), 10);
    }

    #[test]
    fn histogram_summary_in_snapshot() {
        let mut h = Histogram::new();
        for v in [8, 9, 10, 1 << 20] {
            h.record(v);
        }
        match h.summary() {
            MetricValue::Histogram { count, p50, .. } => {
                assert_eq!(count, 4);
                assert_eq!(p50, 15);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_summary_matches_summarize() {
        let mut w = WindowedGauge::new();
        w.record(ps(0), ps(50), 1.0);
        w.record(ps(25), ps(100), 1.0);
        assert_eq!(
            w.summary(ps(100)),
            MetricValue::Occupancy {
                mean: 1.25,
                peak: 2.0
            }
        );
    }

    #[test]
    fn json_escapes_names() {
        let mut snap = MetricsSnapshot::new(0);
        snap.set("weird\"name", MetricValue::Counter { value: 1 });
        assert!(snap.to_json().contains("weird\\\"name"));
    }

    #[test]
    fn a_write_to_either_clone_leaves_the_other_unchanged() {
        let mut a = MetricsSnapshot::new(5);
        a.set_counter("x", 1);
        let mut b = a.clone();
        b.set_counter("x", 2);
        b.set_gauge("y", 0.5);
        assert_eq!(a.get("x"), Some(&MetricValue::Counter { value: 1 }));
        assert_eq!(a.len(), 1);
        let c = a.clone();
        a.set_counter(String::from("z"), 3);
        assert_eq!(c.len(), 1);
        assert!(c.get("z").is_none());
        assert_eq!(b.get("x"), Some(&MetricValue::Counter { value: 2 }));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn from_sorted_equals_a_snapshot_built_with_set() {
        let values = [
            ("a.count", MetricValue::Counter { value: 7 }),
            (
                "b.depth",
                MetricValue::Gauge {
                    mean: 1.5,
                    last: 3.0,
                },
            ),
            (
                "c.lat",
                MetricValue::Histogram {
                    count: 4,
                    mean: 0.8,
                    p50: 15,
                    p99: 31,
                },
            ),
            (
                "d.occ",
                MetricValue::Occupancy {
                    mean: 0.25,
                    peak: 2.0,
                },
            ),
        ];
        let mut by_set = MetricsSnapshot::new(9);
        for (name, v) in values.iter().rev() {
            by_set.set(*name, *v);
        }
        let sorted = MetricsSnapshot::from_sorted(
            9,
            values.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        );
        assert_eq!(sorted, by_set);
        assert_eq!(format!("{sorted:?}"), format!("{by_set:?}"));
        assert_eq!(sorted.to_json(), by_set.to_json());
        assert_eq!(
            MetricsSnapshot::from_sorted(9, Vec::new()),
            MetricsSnapshot::new(9)
        );
    }

    #[test]
    fn set_counter_shorthand() {
        let mut snap = MetricsSnapshot::new(5);
        snap.set_counter("x.bytes", 42);
        assert_eq!(
            snap.get("x.bytes"),
            Some(&MetricValue::Counter { value: 42 })
        );
    }
}
