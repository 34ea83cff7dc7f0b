//! The parent side: a work directory, the reference pass that is the output
//! oracle, one child process per measured pass, and the tally of a
//! workload's passes.
//!
//! The load is a closed loop of one client: the next pass spawns when the
//! previous one has exited, and each pass runs the suite at `--jobs 2`.

use crate::json::Json;
use crate::spec::{Store, Workload};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Runner threads per pass, matching the two cores the benchmark was
/// sized on. They are the pass's only compute threads (see [`spawn`]).
const JOBS: &str = "2";

/// The `experiments` stdout at the default seed.
const GOLDEN: &str = include_str!("../../tests/golden/experiments_stdout.txt");

/// What a pass prints on its last stdout line.
#[derive(Clone, Debug, Default)]
pub struct ChildReport {
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub simd: String,
    /// Experiment id → digest of its rendered bytes.
    pub renders: BTreeMap<String, String>,
    /// Per-layer values; empty for an untraced pass.
    pub layers: BTreeMap<String, f64>,
    pub sim_digest: Option<String>,
}

fn parse_report(stdout: &str) -> Result<ChildReport, String> {
    let line = stdout.lines().last().ok_or("pass printed nothing")?;
    let doc = Json::parse(line).map_err(|e| format!("pass report: {e}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("pass report lacks {key}"))
    };
    let map = |key: &str| doc.get(key).and_then(Json::as_object).unwrap_or(&[]);
    Ok(ChildReport {
        setup_s: number("setup_s")?,
        peak_rss_mib: number("peak_rss_mib")?,
        simd: doc
            .get("simd")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        renders: map("renders")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        layers: map("layers")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        sim_digest: doc
            .get("sim_digest")
            .and_then(Json::as_str)
            .map(str::to_string),
    })
}

/// One pass as the parent saw it: spawn-to-exit wall time and the child's
/// report, or why there is none.
pub struct PassResult {
    pub wall_s: f64,
    pub report: Result<ChildReport, String>,
}

fn spawn(exe: &Path, flags: &[String], experiments: &[String]) -> PassResult {
    let mut cmd = Command::new(exe);
    cmd.arg("pass")
        .args(flags)
        .arg("--")
        .args(experiments)
        // The pass's threads are its `--jobs` runner workers: with kernel
        // fan-out on top, two workers can run four threads on two cores,
        // and `recall-train` (one scenario whose GEMMs fan out) measured
        // about half again as noisy. Output is identical at any setting.
        // No kernel-tier override leaks in from the caller's shell.
        .env("REACH_KERNEL_JOBS", "1")
        .env_remove("REACH_SIMD")
        .stdin(Stdio::null());
    let start = Instant::now();
    let output = cmd.output();
    let wall_s = start.elapsed().as_secs_f64();
    let report = match output {
        Err(e) => Err(format!("cannot spawn a pass: {e}")),
        Ok(o) if !o.status.success() => Err(format!(
            "pass exited with {}: {}",
            o.status,
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Ok(o) => parse_report(&String::from_utf8_lossy(&o.stdout)),
    };
    PassResult { wall_s, report }
}

/// Renders of `ids` that failed: every one when the pass produced no
/// report, otherwise each whose digest differs from the reference's.
pub fn failed_renders(
    reference: &BTreeMap<String, String>,
    ids: &[&str],
    got: Option<&ChildReport>,
) -> u64 {
    let Some(got) = got else {
        return ids.len() as u64;
    };
    ids.iter()
        .filter(|id| {
            let want = reference.get(**id);
            want.is_none() || want != got.renders.get(**id)
        })
        .count() as u64
}

/// Removes the work directory when the benchmark ends, however it ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too, unless another session still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// A benchmark session at one seed: the work directory and the reference
/// pass every measured pass is checked against.
pub struct Session {
    exe: PathBuf,
    work: WorkDir,
    pub seed: u64,
    reference: BTreeMap<String, String>,
    /// Whether the reference was compared with the golden stdout (only the
    /// default seed has one).
    pub golden_checked: bool,
    pub simd: String,
}

impl Session {
    /// Creates the work directory next to the binary (inside the build
    /// directory of the checkout) and runs the reference pass: the full
    /// suite, cold, filling the store `warm-replay` reads. At the default
    /// seed its bytes must equal the golden stdout.
    pub fn start(seed: u64) -> Result<Session, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the binary has no parent directory")?
            .join("reach-benchmark-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let work = WorkDir(dir);
        let dump = work.0.join("reference.out");
        let all: Vec<&str> = reach_bench::renderers()
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        let flags = ["--dump".to_string(), path_arg(&dump)];
        let store = work.0.join("reference-store");
        let reference = spawn(&exe, &flags, &experiments_args(seed, Some(&store), &all))
            .report
            .map_err(|e| format!("reference pass failed: {e}"))?;
        let golden_checked = seed == reach_sim::rng::DEFAULT_SEED;
        if golden_checked {
            let out = std::fs::read_to_string(&dump)
                .map_err(|e| format!("cannot read the reference output: {e}"))?;
            if out != GOLDEN {
                let at = out
                    .bytes()
                    .zip(GOLDEN.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(out.len().min(GOLDEN.len()));
                return Err(format!(
                    "the reference pass differs from tests/golden/experiments_stdout.txt \
                     at byte {at} (default seed)"
                ));
            }
        }
        Ok(Session {
            exe,
            work,
            seed,
            simd: reference.simd.clone(),
            reference: reference.renders,
            golden_checked,
        })
    }

    /// Runs pass `k` of workload `w` in a fresh child process.
    pub fn pass(
        &self,
        w: &Workload,
        k: usize,
        traced: bool,
        trace_out: Option<&Path>,
    ) -> PassResult {
        let store = match w.store {
            Store::None => None,
            Store::Fresh => Some(self.work.0.join(format!("store-{k}"))),
            Store::Warm => Some(self.work.0.join("reference-store")),
        };
        let mut flags = Vec::new();
        if traced {
            flags.push("--traced".to_string());
        }
        if let Some(path) = trace_out {
            flags.extend([
                "--trace-out".into(),
                path_arg(path),
                "--pass".into(),
                k.to_string(),
            ]);
        }
        let result = spawn(
            &self.exe,
            &flags,
            &experiments_args(self.seed, store.as_deref(), &w.ids()),
        );
        if w.store == Store::Fresh {
            if let Some(dir) = store {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        result
    }
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// The `experiments` command line of a pass.
fn experiments_args(seed: u64, store: Option<&Path>, ids: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--jobs".into(),
        JOBS.into(),
        "--seed".into(),
        seed.to_string(),
    ];
    if let Some(dir) = store {
        args.extend(["--result-cache-dir".into(), path_arg(dir)]);
    }
    args.extend(ids.iter().map(|id| id.to_string()));
    args
}

/// One end-to-end metric of a run: the reported value and the spread.
pub struct Summary {
    pub value: f64,
    /// p25, median, p75.
    pub quartiles: [f64; 3],
    pub min: f64,
    pub n: usize,
}

/// Everything measured over one workload's passes.
#[derive(Default)]
pub struct Tally {
    wall: Vec<f64>,
    setup: Vec<f64>,
    rss: Vec<f64>,
    traced_wall: Vec<f64>,
    layers: Vec<BTreeMap<String, f64>>,
    sim_digests: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, session: &Session, w: &Workload, result: PassResult, traced: bool) {
        self.attempted += w.ids().len() as u64;
        self.failed += failed_renders(&session.reference, &w.ids(), result.report.as_ref().ok());
        match result.report {
            Ok(r) if traced => {
                self.traced_wall.push(result.wall_s);
                self.layers.push(r.layers);
                self.sim_digests.push(r.sim_digest.unwrap_or_default());
            }
            Ok(r) => {
                self.wall.push(result.wall_s);
                self.setup.push(r.setup_s);
                self.rss.push(r.peak_rss_mib);
            }
            Err(e) => self.errors.push(e),
        }
    }

    pub fn untraced_passes(&self) -> usize {
        self.wall.len()
    }

    pub fn traced_passes(&self) -> usize {
        self.traced_wall.len()
    }

    /// An end-to-end metric over the untraced passes.
    ///
    /// The times (`wall_s`, `setup_s`) take the fastest pass. On a shared
    /// host, interference comes in phases lasting seconds to minutes
    /// (successive pass times correlate at 0.8-0.9) and only ever adds
    /// time, so the fastest pass is the steadiest estimate of what the
    /// program costs; the quartiles are recorded beside it.
    /// `peak_rss_mib` takes the median.
    pub fn end_to_end(&self, name: &str) -> Option<Summary> {
        let (samples, fastest) = match name {
            "wall_s" => (&self.wall, true),
            "setup_s" => (&self.setup, true),
            "peak_rss_mib" => (&self.rss, false),
            _ => return None,
        };
        if samples.is_empty() {
            return None;
        }
        let quartiles = quartiles(samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        Some(Summary {
            value: if fastest { min } else { quartiles[1] },
            quartiles,
            min,
            n: samples.len(),
        })
    }

    /// Median of each per-layer value over the traced passes, plus the
    /// tracing overhead against the untraced passes of the same workload.
    pub fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let Some(first) = self.layers.first() else {
            return out;
        };
        for name in first.keys() {
            let values: Vec<f64> = self
                .layers
                .iter()
                .filter_map(|l| l.get(name).copied())
                .collect();
            out.insert(name.clone(), median(&values));
        }
        if !self.wall.is_empty() {
            out.insert(
                "trace.overhead_share".into(),
                median(&self.traced_wall) / median(&self.wall) - 1.0,
            );
        }
        out
    }

    /// The simulated-work digest, if every traced pass agrees on it.
    pub fn sim_digest(&self) -> Option<&str> {
        let first = self.sim_digests.first()?;
        self.sim_digests
            .iter()
            .all(|d| d == first)
            .then_some(first.as_str())
    }

    /// No failed render, and every traced pass simulated the same work.
    pub fn correct(&self) -> bool {
        self.failed == 0 && (self.sim_digests.is_empty() || self.sim_digest().is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::fnv64;

    #[test]
    fn a_one_byte_output_change_is_a_failed_render() {
        let digest = |s: &str| format!("{:016x}", fnv64(s.as_bytes()));
        let reference: BTreeMap<String, String> = [
            ("fig12".to_string(), digest("FIGURE 12.\n  row 1.00x\n")),
            ("fig13".to_string(), digest("FIGURE 13.\n  row 4.50x\n")),
        ]
        .into();
        let mut pass = ChildReport {
            renders: reference.clone(),
            ..ChildReport::default()
        };
        let ids = ["fig12", "fig13"];
        assert_eq!(failed_renders(&reference, &ids, Some(&pass)), 0);
        pass.renders
            .insert("fig13".into(), digest("FIGURE 13.\n  row 4.51x\n"));
        assert_eq!(failed_renders(&reference, &ids, Some(&pass)), 1);
        pass.renders.remove("fig12");
        assert_eq!(failed_renders(&reference, &ids, Some(&pass)), 2);
        assert_eq!(
            failed_renders(&reference, &ids, None),
            2,
            "a crashed pass fails every render"
        );
        assert_eq!(
            failed_renders(&reference, &["fig8"], Some(&pass)),
            1,
            "no reference, no pass"
        );
    }

    #[test]
    fn pass_reports_parse_and_reject_garbage() {
        let line = r#"{"setup_s":1e-5,"peak_rss_mib":9.5,"simd":"avx2","renders":{"fig8":"00ff"},"layers":{"render.self_s":0.1},"sim_digest":"ab"}"#;
        let r = parse_report(&format!("noise\n{line}")).unwrap();
        assert_eq!(r.renders["fig8"], "00ff");
        assert_eq!(r.layers["render.self_s"], 0.1);
        assert_eq!(r.sim_digest.as_deref(), Some("ab"));
        assert!(parse_report("").is_err());
        assert!(parse_report("{\"setup_s\":1}").is_err());
        assert!(parse_report("panicked at 'x'").is_err());
    }
}
