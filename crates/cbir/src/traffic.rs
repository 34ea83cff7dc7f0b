//! Open-loop CBIR traffic serving: the latency-vs-offered-load curve.
//!
//! The paper reports closed-loop throughput (fig. 13); this module measures
//! what the north star actually promises — serving query traffic. A
//! serving point ([`CbirScenario::poisson`], [`bursty_demo`],
//! [`trace_demo`]) is a [`ScenarioSpec`] whose one tenant is open-loop: a
//! Poisson / bursty / trace-driven [`ArrivalProcess`] of query batches
//! offered to the GAM through a bounded admission queue. Its report holds
//! the latency quantiles of the admitted jobs plus the rejection count.
//! Sweeping the arrival rate across all four placements locates each
//! placement's *saturation knee*: the offered load where queueing delay
//! takes over and the admission queue starts bouncing arrivals. The proper ReACH mapping holds its knee at
//! several times the on-chip baseline's rate — the serving-traffic
//! restatement of the paper's throughput claim.
//!
//! Determinism contract: arrivals come from the scenario seed via
//! [`reach_sim::rng`] streams, latency quantiles from integer-bucketed
//! histograms, so every row is byte-identical at any `--jobs` and replays
//! through the scenario-result cache (the spec's key covers the arrival
//! process, offered count, queue depth and seed).

use crate::pipeline::{CbirMapping, CbirPipeline, CbirStage};
use crate::scenarios::{blueprint_with, lowered, CbirScenario};
use crate::workload::CbirWorkload;
use reach::{
    ArrivalProcess, JobSource, RunReport, Scenario, ScenarioExecutor, ScenarioSpec, SimDuration,
    Tenant,
};
use std::fmt;

/// Offered arrival rates swept per placement, in query batches per second.
pub const TRAFFIC_RATES_PER_SEC: [u64; 5] = [1, 2, 4, 8, 16];

/// Batch arrivals offered at each sweep point.
pub const TRAFFIC_OFFERED: usize = 24;

/// Admission-queue depth: arrivals finding this many jobs in flight bounce.
pub const TRAFFIC_QUEUE_DEPTH: usize = 4;

impl CbirScenario {
    /// A Poisson serving point at `rate_per_sec` batch arrivals per second
    /// on the paper-shape machine. The arrival stream derives from the
    /// session seed, so `--seed N` reshuffles the arrivals of every point
    /// at once.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is zero.
    #[must_use]
    pub fn poisson(mapping: CbirMapping, rate_per_sec: u64) -> ScenarioSpec {
        assert!(rate_per_sec > 0, "CbirScenario::poisson: zero arrival rate");
        serving(
            format!("traffic/{}/{}qps", mapping.name(), rate_per_sec),
            mapping,
            ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs_f64(1.0 / rate_per_sec as f64),
                seed: reach_sim::rng::session_seed(),
            },
        )
    }
}

/// [`TRAFFIC_OFFERED`] arrivals of `arrival`, one query batch each, served
/// by `mapping` behind a [`TRAFFIC_QUEUE_DEPTH`]-deep admission queue.
fn serving(label: String, mapping: CbirMapping, arrival: ArrivalProcess) -> ScenarioSpec {
    let blueprint = blueprint_with(4, 4);
    let pipeline = CbirPipeline::new(CbirWorkload::paper_setup(), mapping);
    let lowered = lowered(&blueprint, &pipeline, &CbirStage::ALL);
    ScenarioSpec::new(
        label,
        blueprint,
        vec![Tenant::new(
            "cbir",
            lowered,
            JobSource::Open {
                arrival,
                offered: TRAFFIC_OFFERED,
                jobs_per_arrival: 1,
                admission: Some(TRAFFIC_QUEUE_DEPTH),
            },
        )],
    )
}

/// One rendered sweep row: a (source, rate) point's admission ledger and
/// latency quantiles.
#[derive(Clone, Debug)]
pub struct TrafficRow {
    /// Placement name for sweep rows; "bursty" / "trace" for the demo rows.
    pub source: &'static str,
    /// Offered arrival rate in batches per second.
    pub rate_per_sec: u64,
    /// Arrivals offered.
    pub offered: usize,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals bounced by the admission queue.
    pub rejected: u64,
    /// Mean end-to-end latency of admitted jobs, ms.
    pub mean_ms: f64,
    /// Latency quantile upper bounds of admitted jobs, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
    /// 99.9th percentile, ms.
    pub p999_ms: f64,
}

impl fmt::Display for TrafficRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} @ {:>2}/s  admitted {:>2}/{:<2} rejected {:>2}  mean {:>9.3}ms  \
             p50 {:>9.3}ms  p95 {:>9.3}ms  p99 {:>9.3}ms  p999 {:>9.3}ms",
            self.source,
            self.rate_per_sec,
            self.admitted,
            self.offered,
            self.rejected,
            self.mean_ms,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.p999_ms
        )
    }
}

fn row_from(source: &'static str, rate_per_sec: u64, offered: usize, r: &RunReport) -> TrafficRow {
    let counter = |name: &str| r.metrics.counter(name).unwrap_or(0);
    let ms = |ps: u64| ps as f64 * 1e-9;
    TrafficRow {
        source,
        rate_per_sec,
        offered,
        admitted: r.jobs,
        rejected: counter("gam.jobs_rejected"),
        mean_ms: r.job_latency_mean.as_ms_f64(),
        p50_ms: ms(counter("latency.job.p50_ps")),
        p95_ms: ms(counter("latency.job.p95_ps")),
        p99_ms: ms(counter("latency.job.p99_ps")),
        p999_ms: ms(counter("latency.job.p999_ps")),
    }
}

/// MMPP on/off arrivals averaging `rate_per_sec` with a 1-in-3 duty cycle
/// (3x the rate inside bursts).
fn bursty_arrival(rate_per_sec: u64) -> ArrivalProcess {
    ArrivalProcess::Bursty {
        on_gap: SimDuration::from_secs_f64(1.0 / (3.0 * rate_per_sec as f64)),
        burst: SimDuration::from_ms(1_500),
        idle: SimDuration::from_ms(3_000),
        seed: reach_sim::rng::session_seed(),
    }
}

/// The bursty demo point: the proper mapping serving
/// `bursty_arrival`s.
#[must_use]
pub fn bursty_demo(rate_per_sec: u64) -> ScenarioSpec {
    serving(
        format!("traffic/bursty/{rate_per_sec}qps"),
        CbirMapping::Proper,
        bursty_arrival(rate_per_sec),
    )
}

/// The trace demo point: replays the recorded arrival instants of
/// [`bursty_demo`] at the same rate — proof that a captured trace
/// reproduces a live process bit-for-bit.
#[must_use]
pub fn trace_demo(rate_per_sec: u64) -> ScenarioSpec {
    serving(
        format!("traffic/trace/{rate_per_sec}qps"),
        CbirMapping::Proper,
        ArrivalProcess::Trace {
            gaps: bursty_arrival(rate_per_sec).record_trace(TRAFFIC_OFFERED),
        },
    )
}

/// Runs the saturation-knee sweep — [`TRAFFIC_RATES_PER_SEC`] Poisson rates
/// at all four placements, plus the bursty/trace replay pair — through
/// `executor` and reduces each point to a [`TrafficRow`].
#[must_use]
pub fn traffic_knee_with(executor: &dyn ScenarioExecutor) -> Vec<TrafficRow> {
    let demo_rate = TRAFFIC_RATES_PER_SEC[2];
    let mut scenarios: Vec<Box<dyn Scenario>> = Vec::new();
    for mapping in CbirMapping::ALL {
        for &rate in &TRAFFIC_RATES_PER_SEC {
            scenarios.push(Box::new(CbirScenario::poisson(mapping, rate)));
        }
    }
    scenarios.push(Box::new(bursty_demo(demo_rate)));
    scenarios.push(Box::new(trace_demo(demo_rate)));
    let results = executor.run_all(scenarios);

    let mut rows = Vec::with_capacity(results.len());
    for (m, mapping) in CbirMapping::ALL.into_iter().enumerate() {
        let group =
            &results[m * TRAFFIC_RATES_PER_SEC.len()..(m + 1) * TRAFFIC_RATES_PER_SEC.len()];
        for (r, &rate) in group.iter().zip(&TRAFFIC_RATES_PER_SEC) {
            rows.push(row_from(mapping.name(), rate, TRAFFIC_OFFERED, &r.report));
        }
    }
    let demos = &results[results.len() - 2..];
    rows.push(row_from(
        "bursty",
        demo_rate,
        TRAFFIC_OFFERED,
        &demos[0].report,
    ));
    rows.push(row_from(
        "trace",
        demo_rate,
        TRAFFIC_OFFERED,
        &demos[1].report,
    ));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    fn rejected(r: &RunReport) -> u64 {
        r.metrics
            .counter("gam.jobs_rejected")
            .expect("gam.jobs_rejected")
    }

    #[test]
    fn low_rate_admits_everything() {
        let r = CbirScenario::poisson(CbirMapping::Proper, 1).execute();
        assert_eq!(r.jobs, TRAFFIC_OFFERED as u64);
        assert_eq!(rejected(&r), 0);
    }

    #[test]
    fn saturating_rate_rejects_and_still_terminates() {
        let r = CbirScenario::poisson(CbirMapping::AllOnChip, 16).execute();
        assert!(rejected(&r) > 0, "no rejections at 16 qps on-chip");
        assert_eq!(r.jobs + rejected(&r), TRAFFIC_OFFERED as u64);
    }

    #[test]
    fn trace_replay_matches_bursty_source_byte_for_byte() {
        let rate = TRAFFIC_RATES_PER_SEC[2];
        let bursty = bursty_demo(rate).execute();
        let trace = trace_demo(rate).execute();
        assert_eq!(bursty.to_string(), trace.to_string());
        assert_eq!(rejected(&bursty), rejected(&trace));
    }

    #[test]
    fn reports_export_per_stage_quantiles() {
        let r = CbirScenario::poisson(CbirMapping::Proper, 2).execute();
        for stage in ["1-feature-extraction", "2-short-list", "3-rerank"] {
            for q in ["p50_ps", "p95_ps", "p99_ps", "p999_ps", "samples"] {
                let name = format!("latency.stage.{stage}.{q}");
                assert!(r.metrics.counter(&name).is_some(), "missing {name}");
            }
        }
        let counter = |name: &str| r.metrics.counter(name).unwrap_or(0);
        assert!(counter("latency.job.p999_ps") >= counter("latency.job.p50_ps"));
    }

    /// Rate, placement and arrival shape each move a serving point's key
    /// (the spec's own tests flip every field one by one).
    #[test]
    fn fingerprint_tracks_every_traffic_knob() {
        let base = CbirScenario::poisson(CbirMapping::Proper, 4);
        let variants = [
            CbirScenario::poisson(CbirMapping::Proper, 8),
            CbirScenario::poisson(CbirMapping::AllOnChip, 4),
            bursty_demo(4),
            trace_demo(4),
        ];
        let mut seen = vec![base.config_fingerprint().unwrap()];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.config_fingerprint().unwrap();
            assert!(
                !seen.contains(&fp),
                "variant {i} did not change the fingerprint"
            );
            seen.push(fp);
        }
    }

    #[test]
    fn equal_fingerprints_mean_byte_identical_reports() {
        let a = CbirScenario::poisson(CbirMapping::AllNearStorage, 4);
        let b = CbirScenario::poisson(CbirMapping::AllNearStorage, 4);
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(a.execute().to_string(), b.execute().to_string());
    }

    #[test]
    fn knee_rows_cover_every_placement_and_the_demo_pair() {
        let rows = traffic_knee_with(&SequentialExecutor);
        assert_eq!(
            rows.len(),
            CbirMapping::ALL.len() * TRAFFIC_RATES_PER_SEC.len() + 2
        );
        for mapping in CbirMapping::ALL {
            let group: Vec<&TrafficRow> =
                rows.iter().filter(|r| r.source == mapping.name()).collect();
            assert_eq!(group.len(), TRAFFIC_RATES_PER_SEC.len());
            // The knee contract: latency and rejections never improve as
            // offered load grows, and the lowest rate is below every
            // placement's knee.
            assert_eq!(group[0].rejected, 0, "{} rejects at 1 qps", mapping.name());
            for w in group.windows(2) {
                assert!(
                    w[1].mean_ms >= w[0].mean_ms,
                    "{} mean latency dipped between {} and {} qps",
                    mapping.name(),
                    w[0].rate_per_sec,
                    w[1].rate_per_sec
                );
                assert!(w[1].rejected >= w[0].rejected);
            }
        }
        let bursty = rows.iter().find(|r| r.source == "bursty").unwrap();
        let trace = rows.iter().find(|r| r.source == "trace").unwrap();
        assert_eq!(bursty.mean_ms, trace.mean_ms);
        assert_eq!(bursty.rejected, trace.rejected);
    }
}
