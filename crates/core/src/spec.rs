//! [`ScenarioSpec`]: one structural scenario for every pipeline-driven
//! experiment point.
//!
//! A figure point, an open-loop serving point and a two-workload co-run
//! are the same thing described with different numbers: a machine
//! blueprint, a seed, and one or more *tenants*, each a lowered
//! [`Pipeline`] fed by a job source. The source is either closed (a fixed
//! number of batches, pipelined or run one at a time) or open-loop
//! (arrival instants from an [`ArrivalProcess`], optionally behind a
//! bounded admission queue).
//!
//! Because the spec holds every input of its run as data, its
//! [`Scenario::config_fingerprint`] is derived from those fields alone —
//! never from the label, never hand-written — so "equal fingerprint ⇒
//! identical report" holds by construction.

use crate::api::{ExecMode, Pipeline};
use crate::blueprint::MachineBlueprint;
use crate::fingerprint::ConfigFingerprint;
use crate::machine::Machine;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::traffic::ArrivalProcess;
use reach_sim::FingerprintBuilder;
use std::sync::Arc;

/// A compiled [`Pipeline`] with its digest, computed once. Cheap to clone
/// (the pipeline is shared), and the only way to build one is from the
/// pipeline itself, so the digest always describes the pipeline beside it.
#[derive(Clone, Debug)]
pub struct LoweredPipeline {
    pipeline: Arc<Pipeline>,
    digest: ConfigFingerprint,
}

impl LoweredPipeline {
    /// Digests `pipeline` ([`Pipeline::fingerprint`]) and keeps both.
    #[must_use]
    pub fn new(pipeline: Pipeline) -> Self {
        LoweredPipeline {
            digest: pipeline.fingerprint(),
            pipeline: Arc::new(pipeline),
        }
    }

    /// The compiled pipeline.
    #[must_use]
    pub(crate) fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Its [`Pipeline::fingerprint`].
    #[must_use]
    pub fn digest(&self) -> ConfigFingerprint {
        self.digest
    }
}

/// Where a tenant's jobs come from.
#[derive(Clone, Debug)]
pub enum JobSource {
    /// `batches` jobs submitted up front ([`ExecMode::Pipelined`]) or one
    /// at a time, each run to completion ([`ExecMode::Sequential`]).
    Closed {
        /// Jobs submitted.
        batches: usize,
        /// How they are submitted.
        mode: ExecMode,
    },
    /// `offered` arrivals drawn from `arrival`, each submitting
    /// `jobs_per_arrival` jobs at the arrival instant. With an `admission`
    /// bound, an arrival finding that many jobs in flight is rejected and
    /// counted under `gam.jobs_rejected`; without one every job is admitted.
    Open {
        /// When jobs arrive.
        arrival: ArrivalProcess,
        /// Arrival instants offered.
        offered: usize,
        /// Jobs submitted at each instant.
        jobs_per_arrival: usize,
        /// Admission-queue depth, if bounded.
        admission: Option<usize>,
    },
}

impl JobSource {
    /// Jobs this source offers in total.
    fn jobs(&self) -> usize {
        match self {
            JobSource::Closed { batches, .. } => *batches,
            JobSource::Open {
                offered,
                jobs_per_arrival,
                ..
            } => offered * jobs_per_arrival,
        }
    }
}

/// One workload of a [`ScenarioSpec`]: a lowered pipeline whose jobs take
/// ids from `first_job` on, fed by `jobs`.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Name in the `tenant.<name>.*` metrics of a multi-tenant run.
    pub name: String,
    /// What each job runs.
    pub pipeline: LoweredPipeline,
    /// Id of the tenant's first job; later jobs count up from it.
    pub first_job: u64,
    /// The job source.
    pub jobs: JobSource,
}

impl Tenant {
    /// A tenant whose job ids start at 0.
    #[must_use]
    pub fn new(name: &str, pipeline: LoweredPipeline, jobs: JobSource) -> Self {
        Tenant {
            name: name.to_string(),
            pipeline,
            first_job: 0,
            jobs,
        }
    }

    /// The job ids this tenant submits, `[first_job, first_job + jobs)`.
    fn span(&self) -> (u64, u64) {
        (self.first_job, self.first_job + self.jobs.jobs() as u64)
    }
}

/// A labelled machine running one or more tenants' jobs.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    label: String,
    blueprint: MachineBlueprint,
    seed: u64,
    tenants: Vec<Tenant>,
}

impl ScenarioSpec {
    /// A spec running `tenants` on `blueprint`, at the session seed.
    ///
    /// # Panics
    ///
    /// Panics if there are no tenants, if an open-loop tenant offers no
    /// jobs, or — with two or more tenants — if a tenant offers no jobs,
    /// runs [`ExecMode::Sequential`] (running the machine between its
    /// batches would drain the others' queued jobs), repeats another's
    /// name, or shares job ids with another.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        tenants: Vec<Tenant>,
    ) -> Self {
        let label = label.into();
        assert!(!tenants.is_empty(), "ScenarioSpec {label}: no tenants");
        let shared = tenants.len() > 1;
        for (i, t) in tenants.iter().enumerate() {
            let open = matches!(t.jobs, JobSource::Open { .. });
            assert!(
                t.jobs.jobs() > 0 || !(open || shared),
                "ScenarioSpec {label}: tenant {} offers no jobs",
                t.name
            );
            if !shared {
                continue;
            }
            assert!(
                !matches!(
                    t.jobs,
                    JobSource::Closed {
                        mode: ExecMode::Sequential,
                        ..
                    }
                ),
                "ScenarioSpec {label}: tenant {} runs ExecMode::Sequential, \
                 which a multi-tenant spec cannot interleave",
                t.name
            );
            let (lo, hi) = t.span();
            for other in &tenants[..i] {
                let (other_lo, other_hi) = other.span();
                assert!(
                    other.name != t.name,
                    "ScenarioSpec {label}: tenant name {} declared twice",
                    t.name
                );
                assert!(
                    hi <= other_lo || other_hi <= lo,
                    "ScenarioSpec {label}: tenants {} and {} share job ids",
                    other.name,
                    t.name
                );
            }
        }
        ScenarioSpec {
            label,
            blueprint,
            seed: reach_sim::rng::session_seed(),
            tenants,
        }
    }
}

impl Scenario for ScenarioSpec {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.blueprint.clone()
    }

    /// Declares the tenants (only when there are two or more, so a
    /// single-workload report keeps its metric schema), submits their jobs
    /// tenant by tenant in declaration order, and runs the machine.
    ///
    /// # Panics
    ///
    /// Panics if an open-loop tenant's admitted and rejected jobs do not
    /// add up to the jobs it offered.
    fn run(&self, machine: &mut Machine) -> RunReport {
        let shared = self.tenants.len() > 1;
        if shared {
            for t in &self.tenants {
                let (lo, hi) = t.span();
                machine.declare_tenant(&t.name, lo, hi);
            }
        }
        let mut last = None;
        for t in &self.tenants {
            let pipeline = t.pipeline.pipeline();
            let mut ids = t.first_job..;
            match &t.jobs {
                JobSource::Closed { batches, mode } => {
                    for id in ids.by_ref().take(*batches) {
                        machine.submit_shaped(pipeline.job_for_batch(id));
                        if *mode == ExecMode::Sequential {
                            last = Some(machine.run());
                        }
                    }
                }
                JobSource::Open {
                    arrival,
                    offered,
                    jobs_per_arrival,
                    admission,
                } => {
                    for at in arrival.arrivals(*offered) {
                        for id in ids.by_ref().take(*jobs_per_arrival) {
                            machine.defer(at, pipeline.job_for_batch(id), *admission);
                        }
                    }
                }
            }
        }
        let report = last.unwrap_or_else(|| machine.run());
        for t in &self.tenants {
            if matches!(t.jobs, JobSource::Open { .. }) {
                let prefix = if shared {
                    format!("tenant.{}.", t.name)
                } else {
                    "gam.".to_owned()
                };
                let counter = |what: &str| {
                    let name = format!("{prefix}{what}");
                    report
                        .metrics
                        .counter(&name)
                        .unwrap_or_else(|| panic!("ScenarioSpec {}: no counter {name}", self.label))
                };
                let (admitted, rejected) = (counter("jobs_completed"), counter("jobs_rejected"));
                assert_eq!(
                    admitted + rejected,
                    t.jobs.jobs() as u64,
                    "ScenarioSpec {}: tenant {}'s offered jobs were neither completed nor rejected",
                    self.label,
                    t.name
                );
            }
        }
        report
    }

    /// The blueprint, the seed and, per tenant, the pipeline digest, the
    /// first job id and every job-source field — plus the tenant's name
    /// when there are several, since only then does it reach the report.
    /// The label is left out: points that differ only in label share one
    /// result.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-scenario-spec-v1");
        self.blueprint.fingerprint().write_into(&mut b);
        b.write_u64(self.seed);
        b.write_usize(self.tenants.len());
        for t in &self.tenants {
            if self.tenants.len() > 1 {
                b.write_str(&t.name);
            }
            t.pipeline.digest().write_into(&mut b);
            b.write_u64(t.first_job);
            match &t.jobs {
                JobSource::Closed { batches, mode } => {
                    b.write_str("closed");
                    b.write_usize(*batches);
                    b.write_debug(mode);
                }
                JobSource::Open {
                    arrival,
                    offered,
                    jobs_per_arrival,
                    admission,
                } => {
                    b.write_str("open");
                    b.write_debug(arrival);
                    b.write_usize(*offered);
                    b.write_usize(*jobs_per_arrival);
                    b.write_debug(admission);
                }
            }
        }
        Some(ConfigFingerprint::from_builder(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Level, ReachConfig};
    use crate::work::TaskWork;
    use reach_sim::SimDuration;

    fn lowered(macs: u64) -> LoweredPipeline {
        let mut cfg = ReachConfig::new();
        let acc = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let mut pipeline = Pipeline::new(cfg.build().expect("demo config"));
        pipeline.call(acc, TaskWork::compute(macs), "fe");
        LoweredPipeline::new(pipeline)
    }

    fn closed(batches: usize, mode: ExecMode) -> JobSource {
        JobSource::Closed { batches, mode }
    }

    fn open_with(
        arrival: ArrivalProcess,
        offered: usize,
        jobs_per_arrival: usize,
        admission: Option<usize>,
    ) -> JobSource {
        JobSource::Open {
            arrival,
            offered,
            jobs_per_arrival,
            admission,
        }
    }

    fn poisson() -> ArrivalProcess {
        ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_ms(50),
            seed: 3,
        }
    }

    fn open() -> JobSource {
        open_with(poisson(), 6, 1, Some(2))
    }

    fn two_tenants() -> Vec<Tenant> {
        vec![
            Tenant::new("a", lowered(1_000_000_000), open()),
            Tenant {
                first_job: 100,
                ..Tenant::new("b", lowered(2_000_000_000), closed(2, ExecMode::Pipelined))
            },
        ]
    }

    fn spec(tenants: Vec<Tenant>) -> ScenarioSpec {
        ScenarioSpec::new("spec", MachineBlueprint::paper(), tenants)
    }

    fn key(spec: &ScenarioSpec) -> ConfigFingerprint {
        spec.config_fingerprint().expect("specs are always keyed")
    }

    #[test]
    fn key_ignores_the_label() {
        let a = spec(two_tenants());
        let b = ScenarioSpec::new("another label", MachineBlueprint::paper(), two_tenants());
        assert_eq!(key(&a), key(&b));
    }

    /// Every field `run` reads moves the key; a missed one would alias two
    /// different simulations in the result cache.
    #[test]
    fn flipping_any_field_changes_the_key() {
        let base = two_tenants();
        let edit = |f: &dyn Fn(&mut Vec<Tenant>)| {
            let mut tenants = base.clone();
            f(&mut tenants);
            key(&spec(tenants))
        };
        let open = |source: JobSource| edit(&|ts| ts[0].jobs = source.clone());
        let variants = [
            (
                "blueprint",
                key(&ScenarioSpec::new(
                    "spec",
                    MachineBlueprint::paper().map_config(|c| c.near_memory_accelerators += 1),
                    base.clone(),
                )),
            ),
            ("seed", {
                let mut reseeded = spec(base.clone());
                reseeded.seed ^= 1;
                key(&reseeded)
            }),
            (
                "pipeline",
                edit(&|ts| ts[1].pipeline = lowered(3_000_000_000)),
            ),
            ("first job", edit(&|ts| ts[1].first_job = 200)),
            (
                "batches",
                edit(&|ts| ts[1].jobs = closed(3, ExecMode::Pipelined)),
            ),
            ("name", edit(&|ts| ts[1].name = "c".into())),
            (
                "arrival",
                open(open_with(
                    ArrivalProcess::Uniform {
                        gap: SimDuration::from_ms(50),
                    },
                    6,
                    1,
                    Some(2),
                )),
            ),
            ("offered", open(open_with(poisson(), 7, 1, Some(2)))),
            (
                "jobs per arrival",
                open(open_with(poisson(), 6, 2, Some(2))),
            ),
            ("admission", open(open_with(poisson(), 6, 1, None))),
            ("tenant order", edit(&|ts| ts.reverse())),
            ("tenant count", edit(&|ts| ts.truncate(1))),
        ];
        // The execution mode only matters with one tenant.
        let single = |mode| {
            key(&spec(vec![Tenant::new(
                "a",
                lowered(1_000_000_000),
                closed(2, mode),
            )]))
        };
        let mut seen = vec![key(&spec(base.clone()))];
        for (field, fp) in variants.into_iter().chain([
            ("mode, pipelined", single(ExecMode::Pipelined)),
            ("mode, sequential", single(ExecMode::Sequential)),
        ]) {
            assert!(!seen.contains(&fp), "flipping {field} kept the key");
            seen.push(fp);
        }
    }

    #[test]
    fn a_single_tenants_name_is_not_part_of_its_key() {
        let named = |name| spec(vec![Tenant::new(name, lowered(1_000_000_000), open())]);
        assert_eq!(key(&named("cbir")), key(&named("scan")));
    }

    #[test]
    fn single_tenant_reports_carry_no_tenant_metrics() {
        let report = spec(vec![Tenant::new("a", lowered(1_000_000_000), open())]).execute();
        assert!(report.jobs > 0);
        assert!(
            report
                .metrics
                .iter()
                .all(|(name, _)| !name.starts_with("tenant.")),
            "a single-tenant spec declared a tenant"
        );
        let shared = spec(two_tenants()).execute();
        assert!(shared.metrics.get("tenant.a.jobs_completed").is_some());
        assert!(shared.metrics.get("tenant.b.jobs_completed").is_some());
    }

    #[test]
    fn closed_tenant_runs_like_its_pipeline() {
        let p = lowered(1_000_000_000);
        for mode in [ExecMode::Pipelined, ExecMode::Sequential] {
            let via_spec = spec(vec![Tenant::new("a", p.clone(), closed(3, mode))]).execute();
            let direct =
                p.pipeline()
                    .run_mode(&mut MachineBlueprint::paper().instantiate(), 3, mode);
            assert_eq!(via_spec.to_string(), direct.to_string(), "{mode:?}");
        }
    }

    #[test]
    fn open_tenants_balance_their_ledgers() {
        let report = spec(two_tenants()).execute();
        let counter = |name: &str| report.metrics.counter(name).expect(name);
        assert_eq!(
            counter("tenant.a.jobs_completed") + counter("tenant.a.jobs_rejected"),
            6
        );
        assert_eq!(counter("tenant.b.jobs_completed"), 2);
    }

    #[test]
    #[should_panic(expected = "tenant b runs ExecMode::Sequential")]
    fn two_tenants_under_sequential_mode_are_rejected() {
        let mut tenants = two_tenants();
        tenants[1].jobs = closed(2, ExecMode::Sequential);
        let _ = spec(tenants);
    }

    #[test]
    #[should_panic(expected = "tenants a and b share job ids")]
    fn overlapping_job_ids_are_rejected() {
        let mut tenants = two_tenants();
        tenants[1].first_job = 5;
        let _ = spec(tenants);
    }

    #[test]
    #[should_panic(expected = "no tenants")]
    fn an_empty_spec_is_rejected() {
        let _ = spec(Vec::new());
    }
}
