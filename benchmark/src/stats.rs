//! Order statistics and interval arithmetic for pass timings and spans.

/// First quartile, median and third quartile of `values`, interpolated like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so the spreads printed here match what a script computes from the same
/// samples. A single sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice or a NaN: every caller has at least one
/// measured pass, and durations are never NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("sample is not NaN"));
    let ld = data.len();
    if ld == 1 {
        return [data[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The median of `values` (see [`quartiles`]).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank percentile `p` (0–100] of `values`; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("sample is not NaN"));
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

/// Total length covered by the half-open intervals `[start, end)`,
/// counting overlapping stretches once.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of a span: its duration minus the union of its children's
/// intervals, each clipped to the span. Children on two worker threads
/// overlap; counting their overlap twice would drive self time negative.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(span.0), e.min(span.1)))
        .collect();
    (span.1 - span.0) - union_len(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([7, 1, 3], n=4) == [1.0, 3.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0]), [1.0, 3.0, 7.0]);
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[0.5]), [0.5; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn union_self_time_with_overlapping_spans_from_two_threads() {
        // A runner span [0, 100) whose two workers ran scenario spans
        // thread 0: [10, 40) and [50, 70); thread 1: [20, 60) and [90, 120).
        // Covered: [10, 70) ∪ [90, 100) = 70, so self time is 30 — a plain
        // sum of child durations (30+20+40+30 = 120) would exceed the span.
        let children = [(10, 40), (50, 70), (20, 60), (90, 120)];
        assert_eq!(union_len(&children), 60 + 30);
        assert_eq!(self_time((0, 100), &children), 30);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100), (0, 100)]), 0);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0);
    }
}
