//! Open-loop CBIR traffic serving: the latency-vs-offered-load curve.
//!
//! The paper reports closed-loop throughput (fig. 13); this module measures
//! what the north star actually promises — serving query traffic. A
//! [`CbirTrafficScenario`] drives a Poisson / bursty / trace-driven
//! [`ArrivalProcess`] of query batches into the GAM through a bounded
//! admission queue ([`reach::OpenLoop`]) and reports the latency quantiles
//! of the admitted jobs plus the rejection count. Sweeping the arrival rate
//! across all four placements locates each placement's *saturation knee*:
//! the offered load where queueing delay takes over and the admission queue
//! starts bouncing arrivals. The proper ReACH mapping holds its knee at
//! several times the on-chip baseline's rate — the serving-traffic
//! restatement of the paper's throughput claim.
//!
//! Determinism contract: arrivals come from the scenario seed via
//! [`reach_sim::rng`] streams, latency quantiles from integer-bucketed
//! histograms, so every row is byte-identical at any `--jobs` and replays
//! through the scenario-result cache (fingerprint `reach-cbir-traffic-v1`
//! covers the arrival process, offered count, queue depth and seed).

use crate::pipeline::{CbirMapping, CbirPipeline, CbirStage};
use crate::scenarios::{blueprint_with, pipeline_fingerprint};
use crate::workload::CbirWorkload;
use reach::fingerprint::ConfigFingerprint;
use reach::traffic::ArrivalProcess;
use reach::{
    Machine, MachineBlueprint, MetricValue, OpenLoop, RunReport, Scenario, ScenarioExecutor,
    SimDuration,
};
use reach_sim::FingerprintBuilder;
use std::fmt;

/// Offered arrival rates swept per placement, in query batches per second.
pub const TRAFFIC_RATES_PER_SEC: [u64; 5] = [1, 2, 4, 8, 16];

/// Batch arrivals offered at each sweep point.
pub const TRAFFIC_OFFERED: usize = 24;

/// Admission-queue depth: arrivals finding this many jobs in flight bounce.
pub const TRAFFIC_QUEUE_DEPTH: usize = 4;

/// One open-loop serving point: an arrival process offering query batches
/// to a CBIR deployment behind a bounded admission queue.
#[derive(Clone, Debug)]
pub struct CbirTrafficScenario {
    label: String,
    blueprint: MachineBlueprint,
    pipeline: CbirPipeline,
    arrival: ArrivalProcess,
    offered: usize,
    queue_depth: usize,
    seed: u64,
}

impl CbirTrafficScenario {
    /// A Poisson point at `rate_per_sec` batch arrivals per second on the
    /// paper-shape machine. The arrival stream derives from the session
    /// seed, so `--seed N` reshuffles the arrivals of every point at once.
    ///
    /// # Panics
    ///
    /// Panics if `rate_per_sec` is zero.
    #[must_use]
    pub fn poisson(mapping: CbirMapping, rate_per_sec: u64) -> Self {
        assert!(rate_per_sec > 0, "CbirTrafficScenario: zero arrival rate");
        let seed = reach_sim::rng::session_seed();
        Self::with_arrival(
            format!("traffic/{}/{}qps", mapping.name(), rate_per_sec),
            mapping,
            ArrivalProcess::Poisson {
                mean_gap: SimDuration::from_secs_f64(1.0 / rate_per_sec as f64),
                seed,
            },
            TRAFFIC_OFFERED,
            TRAFFIC_QUEUE_DEPTH,
        )
    }

    /// A point with an explicit arrival process and admission bound.
    #[must_use]
    pub fn with_arrival(
        label: impl Into<String>,
        mapping: CbirMapping,
        arrival: ArrivalProcess,
        offered: usize,
        queue_depth: usize,
    ) -> Self {
        CbirTrafficScenario {
            label: label.into(),
            blueprint: blueprint_with(4, 4),
            pipeline: CbirPipeline::new(CbirWorkload::paper_setup(), mapping),
            arrival,
            offered,
            queue_depth,
            seed: reach_sim::rng::session_seed(),
        }
    }

    /// The arrival process this point offers.
    #[must_use]
    pub fn arrival(&self) -> &ArrivalProcess {
        &self.arrival
    }
}

impl Scenario for CbirTrafficScenario {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.blueprint.clone()
    }

    fn run(&self, machine: &mut Machine) -> RunReport {
        let compiled = self.pipeline.build(machine);
        let open = OpenLoop {
            arrival: self.arrival.clone(),
            offered: self.offered,
            queue_depth: self.queue_depth,
        };
        open.serve(&compiled, machine).run
    }

    /// Everything `run` consumes: machine shape, compiled pipeline, the
    /// arrival process (variant, parameters and its embedded seed, via the
    /// debug rendering), offered count, queue depth and the scenario seed.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-cbir-traffic-v1");
        self.blueprint.fingerprint().write_into(&mut b);
        pipeline_fingerprint(&self.blueprint, &self.pipeline, &CbirStage::ALL).write_into(&mut b);
        b.write_debug(&self.arrival);
        b.write_usize(self.offered);
        b.write_usize(self.queue_depth);
        b.write_u64(self.seed);
        Some(ConfigFingerprint::from_builder(b))
    }
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

/// Final value of a latency counter in a report's telemetry (0 if absent).
fn latency_counter(report: &RunReport, name: &str) -> u64 {
    match report.metrics.get(name) {
        Some(MetricValue::Counter { value }) => *value,
        _ => 0,
    }
}

fn row_from(source: &'static str, rate_per_sec: u64, offered: usize, r: &RunReport) -> TrafficRow {
    let ms = |ps: u64| ps as f64 * 1e-9;
    TrafficRow {
        source,
        rate_per_sec,
        offered,
        admitted: r.jobs,
        rejected: r.gam.jobs_rejected,
        mean_ms: r.job_latency_mean.as_ms_f64(),
        p50_ms: ms(latency_counter(r, "latency.job.p50_ps")),
        p95_ms: ms(latency_counter(r, "latency.job.p95_ps")),
        p99_ms: ms(latency_counter(r, "latency.job.p99_ps")),
        p999_ms: ms(latency_counter(r, "latency.job.p999_ps")),
    }
}

/// The bursty demo point: MMPP on/off arrivals averaging `rate_per_sec`
/// with a 1-in-3 duty cycle (3x the rate inside bursts).
#[must_use]
pub fn bursty_demo(rate_per_sec: u64) -> CbirTrafficScenario {
    let seed = reach_sim::rng::session_seed();
    CbirTrafficScenario::with_arrival(
        format!("traffic/bursty/{rate_per_sec}qps"),
        CbirMapping::Proper,
        ArrivalProcess::Bursty {
            on_gap: SimDuration::from_secs_f64(1.0 / (3.0 * rate_per_sec as f64)),
            burst: SimDuration::from_ms(1_500),
            idle: SimDuration::from_ms(3_000),
            seed,
        },
        TRAFFIC_OFFERED,
        TRAFFIC_QUEUE_DEPTH,
    )
}

/// The trace demo point: replays the recorded arrival instants of
/// [`bursty_demo`] at the same rate — proof that a captured trace
/// reproduces a live process bit-for-bit.
#[must_use]
pub fn trace_demo(rate_per_sec: u64) -> CbirTrafficScenario {
    let gaps = bursty_demo(rate_per_sec)
        .arrival()
        .record_trace(TRAFFIC_OFFERED);
    CbirTrafficScenario::with_arrival(
        format!("traffic/trace/{rate_per_sec}qps"),
        CbirMapping::Proper,
        ArrivalProcess::Trace { gaps },
        TRAFFIC_OFFERED,
        TRAFFIC_QUEUE_DEPTH,
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
            scenarios.push(Box::new(CbirTrafficScenario::poisson(mapping, rate)));
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

    #[test]
    fn low_rate_admits_everything() {
        let r = CbirTrafficScenario::poisson(CbirMapping::Proper, 1).execute();
        assert_eq!(r.jobs, TRAFFIC_OFFERED as u64);
        assert_eq!(r.gam.jobs_rejected, 0);
    }

    #[test]
    fn saturating_rate_rejects_and_still_terminates() {
        let r = CbirTrafficScenario::poisson(CbirMapping::AllOnChip, 16).execute();
        assert!(r.gam.jobs_rejected > 0, "no rejections at 16 qps on-chip");
        assert_eq!(r.jobs + r.gam.jobs_rejected, TRAFFIC_OFFERED as u64);
    }

    #[test]
    fn trace_replay_matches_bursty_source_byte_for_byte() {
        let rate = TRAFFIC_RATES_PER_SEC[2];
        let bursty = bursty_demo(rate).execute();
        let trace = trace_demo(rate).execute();
        assert_eq!(bursty.to_string(), trace.to_string());
        assert_eq!(bursty.gam.jobs_rejected, trace.gam.jobs_rejected);
    }

    #[test]
    fn reports_export_per_stage_quantiles() {
        let r = CbirTrafficScenario::poisson(CbirMapping::Proper, 2).execute();
        for stage in ["1-feature-extraction", "2-short-list", "3-rerank"] {
            for q in ["p50_ps", "p95_ps", "p99_ps", "p999_ps", "samples"] {
                let name = format!("latency.stage.{stage}.{q}");
                assert!(
                    matches!(r.metrics.get(&name), Some(MetricValue::Counter { .. })),
                    "missing {name}"
                );
            }
        }
        assert!(
            latency_counter(&r, "latency.job.p999_ps") >= latency_counter(&r, "latency.job.p50_ps")
        );
    }

    #[test]
    fn fingerprint_tracks_every_traffic_knob() {
        let base = CbirTrafficScenario::poisson(CbirMapping::Proper, 4);
        let mut deeper = base.clone();
        deeper.queue_depth += 1;
        let mut more_offered = base.clone();
        more_offered.offered += 1;
        let mut reseeded = base.clone();
        reseeded.seed ^= 1;
        let variants: Vec<CbirTrafficScenario> = vec![
            CbirTrafficScenario::poisson(CbirMapping::Proper, 8),
            CbirTrafficScenario::poisson(CbirMapping::AllOnChip, 4),
            bursty_demo(4),
            trace_demo(4),
            deeper,
            more_offered,
            reseeded,
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
        let a = CbirTrafficScenario::poisson(CbirMapping::AllNearStorage, 4);
        let b = CbirTrafficScenario::poisson(CbirMapping::AllNearStorage, 4);
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
