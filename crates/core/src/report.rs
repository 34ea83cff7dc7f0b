//! Run reports: what an experiment harness reads out of a finished run.

use reach_energy::EnergyLedger;
use reach_sim::{MetricsSnapshot, SimDuration, SimTime};
use std::fmt;

/// Per-stage accounting.
#[derive(Clone, Debug)]
pub struct StageSummary {
    /// Stage label (e.g. `"rerank"`).
    pub name: String,
    /// Sum of accelerator busy time attributed to the stage.
    pub busy: SimDuration,
    /// Earliest start and latest completion of the stage's tasks.
    pub window: (SimTime, SimTime),
    /// Tasks executed under this label.
    pub tasks: u64,
}

impl StageSummary {
    /// Wall-clock extent of the stage window.
    #[must_use]
    pub fn span(&self) -> SimDuration {
        self.window.1.since(self.window.0)
    }
}

/// The result of running a workload on a [`crate::Machine`].
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Wall-clock simulated time from first submission to quiescence.
    pub makespan: SimDuration,
    /// Jobs completed.
    pub jobs: u64,
    /// Mean per-job latency (submission to host interrupt).
    pub job_latency_mean: SimDuration,
    /// Latency of the last job (steady-state pipeline latency).
    pub job_latency_last: SimDuration,
    /// Per-stage summaries, sorted by name.
    pub stages: Vec<StageSummary>,
    /// Component-by-stage energy.
    pub ledger: EnergyLedger,
    /// Completion instant of each job, in job-id (submission) order.
    pub completions: Vec<SimTime>,
    /// Machine-wide telemetry: queue depths, occupancy, link traffic (see
    /// [`crate::telemetry`] for the namespace). Not part of [`fmt::Display`]
    /// — export it with [`MetricsSnapshot::to_json`].
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Jobs per second over the whole run.
    ///
    /// # Panics
    ///
    /// Panics if the run completed no simulated time.
    #[must_use]
    pub fn throughput_jobs_per_sec(&self) -> f64 {
        assert!(!self.makespan.is_zero(), "throughput of an empty run");
        self.jobs as f64 / self.makespan.as_secs_f64()
    }

    /// Total energy in joules.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.ledger.total()
    }

    /// Energy per job in joules.
    #[must_use]
    pub fn energy_per_job_j(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.ledger.total() / self.jobs as f64
        }
    }

    /// The stage summary with the given name, if present.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Completion instants per job in job-id order.
    #[must_use]
    pub fn job_completions(&self) -> &[SimTime] {
        &self.completions
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "makespan {} | {} job(s) | mean latency {} | {:.3} jobs/s | {:.2} J/job",
            self.makespan,
            self.jobs,
            self.job_latency_mean,
            self.throughput_jobs_per_sec(),
            self.energy_per_job_j()
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  stage {:<22} busy {:>12} span {:>12} ({} task(s))",
                s.name,
                s.busy.to_string(),
                s.span().to_string(),
                s.tasks
            )?;
        }
        write!(f, "{}", self.ledger)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_energy::SystemComponent;

    fn report() -> RunReport {
        let mut ledger = EnergyLedger::new();
        ledger.add(SystemComponent::Accelerator, "fe", 2.0);
        ledger.add(SystemComponent::Ssd, "rr", 6.0);
        RunReport {
            makespan: SimDuration::from_ms(500),
            jobs: 2,
            job_latency_mean: SimDuration::from_ms(250),
            job_latency_last: SimDuration::from_ms(250),
            stages: vec![StageSummary {
                name: "fe".into(),
                busy: SimDuration::from_ms(100),
                window: (SimTime::from_ps(0), SimTime::from_ps(100_000_000_000)),
                tasks: 2,
            }],
            ledger,
            completions: vec![
                SimTime::from_ps(250_000_000_000),
                SimTime::from_ps(500_000_000_000),
            ],
            metrics: MetricsSnapshot::new(500_000_000_000),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.throughput_jobs_per_sec() - 4.0).abs() < 1e-9);
        assert!((r.total_energy_j() - 8.0).abs() < 1e-12);
        assert!((r.energy_per_job_j() - 4.0).abs() < 1e-12);
        assert_eq!(r.stage("fe").unwrap().tasks, 2);
        assert!(r.stage("nope").is_none());
        assert_eq!(r.stage("fe").unwrap().span(), SimDuration::from_ms(100));
    }

    #[test]
    fn display_contains_key_numbers() {
        let text = report().to_string();
        assert!(text.contains("2 job(s)"));
        assert!(text.contains("stage fe"));
        assert!(text.contains("4.00 J/job"));
    }

    #[test]
    fn energy_per_job_is_zero_without_jobs() {
        let r = RunReport {
            jobs: 0,
            ..report()
        };
        assert_eq!(r.energy_per_job_j(), 0.0);
        assert!((r.total_energy_j() - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "throughput of an empty run")]
    fn throughput_of_an_empty_run_rejected() {
        let r = RunReport {
            makespan: SimDuration::ZERO,
            ..report()
        };
        let _ = r.throughput_jobs_per_sec();
    }

    #[test]
    fn completions_stay_in_submission_order() {
        let r = report();
        assert_eq!(
            r.job_completions(),
            [
                SimTime::ZERO + SimDuration::from_ms(250),
                SimTime::ZERO + SimDuration::from_ms(500)
            ]
        );
        let instant = StageSummary {
            window: (SimTime::ZERO, SimTime::ZERO),
            ..r.stages[0].clone()
        };
        assert_eq!(instant.span(), SimDuration::ZERO);
    }
}
