//! Argument parsing for the `experiments` binary, kept out of `main` so
//! the accepted grammar — and in particular its rejections, like
//! `--jobs 0` — is unit-testable instead of only exercisable by spawning
//! the binary.
//!
//! The flags shared by every runner-driving binary (`--jobs`,
//! `--no-result-cache`, `--result-cache-dir`, `--seed`) live in
//! [`CommonRunnerArgs`]: one accept-loop, one set of rejection messages,
//! embedded by both [`ExperimentsArgs`] and [`crate::sweep::SweepArgs`] so
//! the two grammars cannot drift.

use crate::runner::ScenarioRunner;
use std::fmt;

/// The runner-facing flags every batch-running binary accepts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommonRunnerArgs {
    /// Worker threads for each scenario batch (`--jobs N`, default 1).
    pub jobs: usize,
    /// Disable the scenario-result cache (`--no-result-cache`).
    pub no_result_cache: bool,
    /// Session-seed override (`--seed N`); `None` keeps
    /// [`reach_sim::rng::DEFAULT_SEED`]. Covered by every scenario
    /// fingerprint, so cached results never leak across seeds.
    pub seed: Option<u64>,
    /// Directory of the persistent result cache (`--result-cache-dir
    /// PATH`); `None` keeps the cache in-memory only.
    pub result_cache_dir: Option<String>,
}

impl Default for CommonRunnerArgs {
    fn default() -> Self {
        CommonRunnerArgs {
            jobs: 1,
            no_result_cache: false,
            seed: None,
            result_cache_dir: None,
        }
    }
}

impl CommonRunnerArgs {
    /// Tries to consume `key` (and its value, if any) from the iterator.
    /// Returns `Ok(true)` when the flag was one of the shared ones,
    /// `Ok(false)` when the caller should match it against its own grammar.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag when a value is missing
    /// or out of range.
    pub fn accept(
        &mut self,
        key: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, ParseArgsError> {
        match key {
            "--jobs" => {
                self.jobs = match it.next().map(|v| v.parse::<usize>()) {
                    Some(Ok(n)) if n >= 1 => n,
                    _ => {
                        return Err(ParseArgsError(
                            "--jobs needs a positive integer (at least 1)".into(),
                        ))
                    }
                };
            }
            "--seed" => {
                self.seed = match it.next().map(|v| v.parse::<u64>()) {
                    Some(Ok(n)) => Some(n),
                    _ => return Err(ParseArgsError("--seed needs an unsigned integer".into())),
                };
            }
            "--no-result-cache" => self.no_result_cache = true,
            "--result-cache-dir" => {
                self.result_cache_dir = match it.next() {
                    Some(p) if !p.is_empty() => Some(p.clone()),
                    _ => {
                        return Err(ParseArgsError(
                            "--result-cache-dir needs a directory path".into(),
                        ))
                    }
                };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The runner these flags select: `jobs` workers, result cache on
    /// unless `--no-result-cache`, and the persistent disk tier attached
    /// when `--result-cache-dir` is set (unless `--no-result-cache` — the
    /// disk tier backs the in-memory cache, so disabling the cache
    /// disables persistence too).
    #[must_use]
    pub fn runner(&self) -> ScenarioRunner {
        if self.no_result_cache {
            return ScenarioRunner::without_cache(self.jobs);
        }
        let runner = ScenarioRunner::new(self.jobs);
        match &self.result_cache_dir {
            Some(dir) => runner.with_disk_cache(std::path::Path::new(dir)),
            None => runner,
        }
    }

    /// Installs the `--seed` override as the process-wide session seed.
    /// Call once, right after parsing, before any scenario is built.
    pub fn apply_seed(&self) {
        if let Some(seed) = self.seed {
            reach_sim::rng::set_session_seed(seed);
        }
    }
}

/// Parsed `experiments` command line.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ExperimentsArgs {
    /// The shared runner flags.
    pub common: CommonRunnerArgs,
    /// Telemetry JSON output path (`--metrics PATH`).
    pub metrics: Option<String>,
    /// Print the known experiment ids and exit (`--list`).
    pub list: bool,
    /// Experiment ids to run (empty means all).
    pub ids: Vec<String>,
}

/// A parse failure, ready to print to stderr.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseArgsError {}

impl ExperimentsArgs {
    /// Parses the arguments after the program name. Anything that is not a
    /// recognized flag is collected as an experiment id (validated against
    /// the renderer table by the binary, which knows the ids).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending flag when a value is missing
    /// or out of range — notably `--jobs 0`, which would otherwise panic
    /// deep inside the runner.
    pub fn parse(raw: &[String]) -> Result<Self, ParseArgsError> {
        let mut out = ExperimentsArgs::default();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if out.common.accept(a.as_str(), &mut it)? {
                continue;
            }
            match a.as_str() {
                "--metrics" => match it.next() {
                    Some(p) => out.metrics = Some(p.clone()),
                    None => return Err(ParseArgsError("--metrics needs a file path".into())),
                },
                "--list" => out.list = true,
                other => out.ids.push(other.to_string()),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ExperimentsArgs, ParseArgsError> {
        ExperimentsArgs::parse(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a, ExperimentsArgs::default());
        assert_eq!(a.common.jobs, 1);
        assert!(!a.common.no_result_cache);
        assert_eq!(a.common.seed, None);
    }

    #[test]
    fn flags_and_ids() {
        let a = parse(&[
            "fig13",
            "--jobs",
            "4",
            "--metrics",
            "m.json",
            "--no-result-cache",
            "table1",
        ])
        .unwrap();
        assert_eq!(a.common.jobs, 4);
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert!(a.common.no_result_cache);
        assert_eq!(a.ids, ["fig13", "table1"]);
    }

    #[test]
    fn seed_parses_without_applying() {
        // Parsing records the override; only `apply_seed` (called by the
        // binaries, never by tests) touches the process-wide seed.
        let a = parse(&["--seed", "7"]).unwrap();
        assert_eq!(a.common.seed, Some(7));
        assert_eq!(reach_sim::rng::session_seed(), reach_sim::rng::DEFAULT_SEED);
    }

    // Every rejection message of the shared grammar, asserted in one
    // place — the sweep parser routes through the same `accept`, so these
    // cover both binaries.

    #[test]
    fn rejects_zero_jobs_with_a_clear_message() {
        let err = parse(&["--jobs", "0"]).unwrap_err();
        assert!(
            err.to_string().contains("--jobs needs a positive integer"),
            "unhelpful message: {err}"
        );
    }

    #[test]
    fn rejects_missing_or_malformed_values() {
        assert!(parse(&["--jobs"]).is_err());
        assert!(parse(&["--jobs", "many"]).is_err());
        assert!(parse(&["--jobs", "-1"]).is_err());
        assert!(parse(&["--metrics"]).is_err());
    }

    #[test]
    fn rejects_missing_or_malformed_seed() {
        for bad in [&["--seed"][..], &["--seed", "lucky"], &["--seed", "-3"]] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.to_string().contains("--seed needs an unsigned integer"),
                "unhelpful message: {err}"
            );
        }
    }

    #[test]
    fn list_flag_parses() {
        assert!(parse(&["--list"]).unwrap().list);
    }

    #[test]
    fn common_runner_selects_cache_mode() {
        assert!(parse(&[]).unwrap().common.runner().cache_enabled());
        assert!(!parse(&["--no-result-cache"])
            .unwrap()
            .common
            .runner()
            .cache_enabled());
    }

    #[test]
    fn result_cache_dir_parses_and_requires_a_path() {
        let a = parse(&["--result-cache-dir", "/tmp/reach-cache"]).unwrap();
        assert_eq!(
            a.common.result_cache_dir.as_deref(),
            Some("/tmp/reach-cache")
        );
        let err = parse(&["--result-cache-dir"]).unwrap_err();
        assert!(
            err.to_string()
                .contains("--result-cache-dir needs a directory path"),
            "unhelpful message: {err}"
        );
        assert!(parse(&["--result-cache-dir", ""]).is_err());
    }

    #[test]
    fn disk_tier_attaches_only_when_asked_and_the_cache_is_on() {
        let dir = std::env::temp_dir().join(format!("reach-cli-disk-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap();
        // No dir: memory-only.
        assert!(!parse(&[]).unwrap().common.runner().disk_cache_enabled());
        // Dir given: disk tier on.
        let on = parse(&["--result-cache-dir", dir_s])
            .unwrap()
            .common
            .runner();
        assert!(on.cache_enabled() && on.disk_cache_enabled());
        // --no-result-cache disables both tiers.
        let off = parse(&["--result-cache-dir", dir_s, "--no-result-cache"])
            .unwrap()
            .common
            .runner();
        assert!(!off.cache_enabled() && !off.disk_cache_enabled());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
