//! Configuration for the `sweep` binary: run any CBIR mapping on any
//! machine shape — or a grid of shapes — from the command line.
//!
//! `--nm` and `--ns` accept comma-separated lists; the sweep runs the cross
//! product of shapes, one [`CbirScenario`] spec per point, fanned across
//! `--jobs` threads by the [`crate::ScenarioRunner`]. Results come back in grid
//! order regardless of the job count. The runner-facing flags (`--jobs`,
//! `--seed`, `--no-result-cache`, `--result-cache-dir`) are the shared
//! [`CommonRunnerArgs`] grammar, identical to the `experiments` binary,
//! and so are the parse errors ([`ParseArgsError`]).

use crate::cli::{CommonRunnerArgs, ParseArgsError};
use reach::Scenario;
use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirScenario, CbirWorkload};

/// Parsed sweep parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepArgs {
    /// Near-memory accelerator counts (one sweep axis).
    pub nm: Vec<usize>,
    /// Near-storage unit counts (the other sweep axis).
    pub ns: Vec<usize>,
    /// Batches to run per point.
    pub batches: usize,
    /// Mapping to deploy.
    pub mapping: CbirMapping,
    /// Rerank candidates per query.
    pub candidates: usize,
    /// Query batch size.
    pub batch_size: usize,
    /// Run synchronously (no GAM cross-batch pipelining).
    pub sequential: bool,
    /// Telemetry JSON output path (`--metrics PATH`), if set.
    pub metrics: Option<String>,
    /// The shared runner flags (`--jobs`, `--seed`, cache controls).
    pub common: CommonRunnerArgs,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            nm: vec![4],
            ns: vec![4],
            batches: 8,
            mapping: CbirMapping::Proper,
            candidates: 4096,
            batch_size: 16,
            sequential: false,
            metrics: None,
            common: CommonRunnerArgs::default(),
        }
    }
}

impl SweepArgs {
    /// Parses `--key value` style arguments.
    ///
    /// Accepted keys: `--nm`, `--ns` (both accept comma-separated lists),
    /// `--batches`, `--batch-size`, `--candidates`,
    /// `--mapping onchip|near-mem|near-stor|proper`, `--sequential`,
    /// `--metrics PATH` (the grid's telemetry as `reach-run-metrics-v1`
    /// JSON), plus the shared runner flags `--jobs`, `--seed`,
    /// `--no-result-cache` and `--result-cache-dir PATH`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag on unknown keys,
    /// missing values, unparsable numbers or zero counts.
    pub fn parse(args: &[String]) -> Result<Self, ParseArgsError> {
        let mut out = SweepArgs::default();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            // Shared grammar first, so `--jobs 0` etc. fail with the same
            // message here as in the `experiments` binary.
            if out.common.accept(key.as_str(), &mut it)? {
                continue;
            }
            let mut take = |key: &str| -> Result<&String, ParseArgsError> {
                it.next()
                    .ok_or_else(|| ParseArgsError(format!("{key} needs a value")))
            };
            let take_usize = |v: &str, key: &str| -> Result<usize, ParseArgsError> {
                v.parse()
                    .map_err(|_| ParseArgsError(format!("{key} needs an integer")))
            };
            let take_list = |v: &str, key: &str| -> Result<Vec<usize>, ParseArgsError> {
                v.split(',').map(|tok| take_usize(tok, key)).collect()
            };
            match key.as_str() {
                "--nm" => out.nm = take_list(take("--nm")?, "--nm")?,
                "--ns" => out.ns = take_list(take("--ns")?, "--ns")?,
                "--batches" => out.batches = take_usize(take("--batches")?, "--batches")?,
                "--batch-size" => {
                    out.batch_size = take_usize(take("--batch-size")?, "--batch-size")?;
                }
                "--candidates" => {
                    out.candidates = take_usize(take("--candidates")?, "--candidates")?;
                }
                "--metrics" => out.metrics = Some(take("--metrics")?.clone()),
                "--sequential" => out.sequential = true,
                "--mapping" => {
                    let v = take("--mapping")?;
                    out.mapping = match v.as_str() {
                        "onchip" | "on-chip" => CbirMapping::AllOnChip,
                        "near-mem" | "nearmem" => CbirMapping::AllNearMemory,
                        "near-stor" | "nearstor" => CbirMapping::AllNearStorage,
                        "proper" | "reach" => CbirMapping::Proper,
                        other => return Err(ParseArgsError(format!("unknown mapping '{other}'"))),
                    };
                }
                other => return Err(ParseArgsError(format!("unknown flag '{other}'"))),
            }
        }
        if out.nm.is_empty() || out.nm.contains(&0) {
            return Err(ParseArgsError(
                "--nm needs positive accelerator counts".into(),
            ));
        }
        if out.ns.is_empty() || out.ns.contains(&0) {
            return Err(ParseArgsError("--ns needs positive unit counts".into()));
        }
        if out.batches == 0 {
            return Err(ParseArgsError("--batches must be positive".into()));
        }
        if out.batch_size == 0 {
            return Err(ParseArgsError("--batch-size must be positive".into()));
        }
        Ok(out)
    }

    /// The sweep grid: one scenario per `(nm, ns)` shape, in grid order.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Box<dyn Scenario>> {
        let mut workload = CbirWorkload::paper_setup();
        workload.candidates_per_query = self.candidates;
        workload.batch = self.batch_size;
        let pipeline = CbirPipeline::new(workload, self.mapping);
        let mut points: Vec<Box<dyn Scenario>> = Vec::new();
        for &nm in &self.nm {
            for &ns in &self.ns {
                let label = format!("sweep/{}/nm{nm}-ns{ns}", self.mapping.name());
                let blueprint = blueprint_with(nm, ns);
                points.push(Box::new(if self.sequential {
                    CbirScenario::synchronous(label, blueprint, pipeline, self.batches)
                } else {
                    CbirScenario::full(label, blueprint, pipeline, self.batches)
                }));
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::{ScenarioExecutor, ScenarioResult};

    /// Runs the grid once on the runner the arguments select.
    fn run_all(args: &SweepArgs) -> Vec<ScenarioResult> {
        args.common.runner().run_all(args.scenarios())
    }

    fn parse(tokens: &[&str]) -> Result<SweepArgs, ParseArgsError> {
        SweepArgs::parse(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_and_overrides() {
        let d = parse(&[]).unwrap();
        assert_eq!(d, SweepArgs::default());
        let a = parse(&["--nm", "8", "--mapping", "near-stor", "--sequential"]).unwrap();
        assert_eq!(a.nm, vec![8]);
        assert_eq!(a.mapping, CbirMapping::AllNearStorage);
        assert!(a.sequential);
    }

    #[test]
    fn parses_lists_and_jobs() {
        let a = parse(&["--nm", "2,4,8", "--ns", "1,2", "--jobs", "3"]).unwrap();
        assert_eq!(a.nm, vec![2, 4, 8]);
        assert_eq!(a.ns, vec![1, 2]);
        assert_eq!(a.common.jobs, 3);
        assert_eq!(a.scenarios().len(), 6);
    }

    #[test]
    fn parses_metrics_path() {
        let a = parse(&["--metrics", "out/metrics.json"]).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("out/metrics.json"));
        assert!(parse(&["--metrics"]).is_err());
    }

    #[test]
    fn parses_seed_override() {
        let a = parse(&["--seed", "42"]).unwrap();
        assert_eq!(a.common.seed, Some(42));
        assert!(parse(&["--seed", "lucky"]).is_err());
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--nm"]).is_err());
        assert!(parse(&["--nm", "x"]).is_err());
        assert!(parse(&["--nm", "4,"]).is_err());
        assert!(parse(&["--mapping", "sideways"]).is_err());
        assert!(parse(&["--batches", "0"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        // Removed flags are unknown now.
        assert!(parse(&["--repeat", "2"]).is_err());
        assert!(parse(&["--metrics-dir", "out"]).is_err());
    }

    #[test]
    fn zero_counts_name_the_offending_flag() {
        // `--jobs 0` goes through the shared grammar, so the sweep binary
        // prints the exact same message as `experiments`.
        let jobs = parse(&["--jobs", "0"]).unwrap_err().to_string();
        assert!(
            jobs.contains("--jobs needs a positive integer"),
            "got: {jobs}"
        );
        let batches = parse(&["--batches", "0"]).unwrap_err().to_string();
        assert!(
            batches.contains("--batches must be positive"),
            "got: {batches}"
        );
        let nm = parse(&["--nm", "0,4"]).unwrap_err().to_string();
        assert!(nm.contains("--nm"), "got: {nm}");
    }

    #[test]
    fn parses_cache_flags() {
        let a = parse(&["--no-result-cache"]).unwrap();
        assert!(a.common.no_result_cache);
        assert!(!a.common.runner().cache_enabled());
        assert!(parse(&[]).unwrap().common.runner().cache_enabled());
    }

    #[test]
    fn cached_grid_matches_uncached() {
        let args = parse(&["--nm", "2,4", "--ns", "2", "--batches", "2", "--jobs", "2"]).unwrap();
        let mut uncached = args.clone();
        uncached.common.no_result_cache = true;
        let render = |rs: &[ScenarioResult]| -> String {
            rs.iter()
                .map(|r| format!("{}\n{}", r.label, r.report))
                .collect()
        };
        assert_eq!(render(&run_all(&args)), render(&run_all(&uncached)));
    }

    #[test]
    fn runs_a_small_grid() {
        let args = parse(&["--nm", "2,4", "--ns", "2", "--batches", "2", "--jobs", "2"]).unwrap();
        let results = run_all(&args);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].label, "sweep/ReACH/nm2-ns2");
        for r in &results {
            assert_eq!(r.report.jobs, 2);
            assert!(r.report.total_energy_j() > 0.0);
        }
    }
}
