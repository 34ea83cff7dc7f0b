//! Open-loop traffic serving, end to end: the `extension-traffic` suite
//! must be byte-identical at any worker count and cache mode, replay
//! through the scenario-result cache, and rest on a latency histogram
//! whose quantiles are merge-order-independent and monotone in rank.

use proptest::prelude::*;
use reach::{ArrivalProcess, SequentialExecutor, SimDuration};
use reach_bench::ScenarioRunner;
use reach_cbir::traffic::{TRAFFIC_OFFERED, TRAFFIC_QUEUE_DEPTH, TRAFFIC_RATES_PER_SEC};
use reach_sim::LatencyHistogram;

/// The acceptance contract: the whole traffic sweep (four placements x
/// five rates plus the bursty/trace demo pair) rendered through the
/// `experiments` code path is byte-identical sequentially, at 1/4/8
/// worker threads and with the result cache disabled — arrivals,
/// admission and quantiles leak no scheduling.
#[test]
fn traffic_suite_is_byte_identical_across_job_counts_and_cache_modes() {
    let reference = reach_bench::render_extension_traffic(&SequentialExecutor);
    assert!(!reference.is_empty());
    for jobs in [1, 4, 8] {
        assert_eq!(
            reference,
            reach_bench::render_extension_traffic(&ScenarioRunner::new(jobs)),
            "traffic suite diverged at {jobs} jobs"
        );
        assert_eq!(
            reference,
            reach_bench::render_extension_traffic(&ScenarioRunner::without_cache(jobs)),
            "traffic suite diverged without the result cache at {jobs} jobs"
        );
    }
}

/// Every traffic scenario is fingerprinted (arrival process, rate, seed,
/// queue depth), so a warm second pass replays the entire sweep from the
/// result cache without changing a byte.
#[test]
fn traffic_suite_replays_through_the_result_cache() {
    let runner = ScenarioRunner::new(2);
    let cold = reach_bench::render_extension_traffic(&runner);
    let cold_stats = runner.cache_stats();
    let warm = reach_bench::render_extension_traffic(&runner);
    let warm_stats = runner.cache_stats();
    assert_eq!(cold, warm, "cache replay changed the traffic suite");

    // 4 placements x rates, plus the bursty and trace demo rows — all
    // distinct configurations, so the cold pass misses once each.
    let points = 4 * TRAFFIC_RATES_PER_SEC.len() + 2;
    assert_eq!(cold_stats.misses, points as u64);
    assert_eq!(cold_stats.hits, 0);
    // The warm pass adds zero misses: every scenario is a replay.
    assert_eq!(warm_stats.misses, cold_stats.misses);
    assert_eq!(warm_stats.hits, points as u64);
}

/// The printed sweep carries its own contract in-band: per placement the
/// rejection count never decreases with offered load, nothing is rejected
/// at the lowest rate, and every row's admission ledger balances —
/// including the bursty/trace demo pair.
#[test]
fn rendered_traffic_rows_balance_and_saturate_monotonically() {
    let rows = reach_cbir::traffic::traffic_knee_with(&SequentialExecutor);
    assert_eq!(rows.len(), 4 * TRAFFIC_RATES_PER_SEC.len() + 2);
    for row in &rows[4 * TRAFFIC_RATES_PER_SEC.len()..] {
        assert_eq!(row.offered, TRAFFIC_OFFERED, "{}", row.source);
        assert_eq!(
            row.admitted + row.rejected,
            TRAFFIC_OFFERED as u64,
            "{}: ledger does not balance",
            row.source
        );
    }
    for chunk in rows[..4 * TRAFFIC_RATES_PER_SEC.len()].chunks(TRAFFIC_RATES_PER_SEC.len()) {
        assert_eq!(
            chunk[0].rejected, 0,
            "{}: rejects at the lowest rate",
            chunk[0].source
        );
        for pair in chunk.windows(2) {
            assert!(
                pair[1].rejected >= pair[0].rejected,
                "{}: rejections fell as offered load rose",
                pair[1].source
            );
        }
        // Admitted is capped by what fits through the queue, never more
        // than offered; the ledger always balances.
        for row in chunk {
            assert_eq!(row.admitted + row.rejected, TRAFFIC_OFFERED as u64);
            assert_eq!(row.offered, TRAFFIC_OFFERED);
            assert!(row.admitted >= TRAFFIC_QUEUE_DEPTH as u64);
        }
    }
}

/// A recorded trace replays any stochastic process bit-for-bit — the
/// mechanism behind the suite's trace demo row.
#[test]
fn recorded_bursty_trace_replays_bitwise() {
    let bursty = ArrivalProcess::Bursty {
        on_gap: SimDuration::from_ms(83),
        burst: SimDuration::from_ms(1500),
        idle: SimDuration::from_ms(3000),
        seed: 17,
    };
    let trace = ArrivalProcess::Trace {
        gaps: bursty.record_trace(TRAFFIC_OFFERED),
    };
    assert_eq!(
        bursty.arrivals(TRAFFIC_OFFERED),
        trace.arrivals(TRAFFIC_OFFERED)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging per-worker histograms must not care how the samples were
    /// sharded or in what order the shards merge — the property that makes
    /// the exported quantiles independent of `--jobs`.
    #[test]
    fn latency_quantiles_are_merge_order_independent(
        samples in proptest::collection::vec(0u64..u64::MAX, 1..300),
        split in 1usize..8,
    ) {
        let mut whole = LatencyHistogram::new();
        for &s in &samples {
            whole.record(s);
        }

        // Shard round-robin into `split` histograms, then merge them in
        // reverse order — different sharding *and* different merge order.
        let mut shards = vec![LatencyHistogram::new(); split];
        for (i, &s) in samples.iter().enumerate() {
            shards[i % split].record(s);
        }
        let mut merged = LatencyHistogram::new();
        for shard in shards.iter().rev() {
            merged.merge(shard);
        }

        prop_assert_eq!(&merged, &whole);
        for p in [0, 1, 500, 950, 990, 999, 1000] {
            prop_assert_eq!(merged.quantile_per_mille(p), whole.quantile_per_mille(p));
        }
    }

    /// Quantiles must be monotone in rank: asking for a higher percentile
    /// can never return a lower latency.
    #[test]
    fn latency_quantiles_are_monotone_in_rank(
        samples in proptest::collection::vec(0u64..u64::MAX, 1..300),
        p_lo in 0u16..1001,
        p_hi in 0u16..1001,
    ) {
        let mut hist = LatencyHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let (lo, hi) = if p_lo <= p_hi { (p_lo, p_hi) } else { (p_hi, p_lo) };
        prop_assert!(hist.quantile_per_mille(lo) <= hist.quantile_per_mille(hi));
        // And the named accessors are just fixed ranks of the same curve.
        prop_assert!(hist.p50() <= hist.p95());
        prop_assert!(hist.p95() <= hist.p99());
        prop_assert!(hist.p99() <= hist.p999());
    }
}
