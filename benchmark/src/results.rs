//! The results file of a full `run`, and `agree`, which compares two of
//! them against the bounds in `BENCHMARK.json`.

use crate::json::{num, quote, Json};
use crate::measure::Tally;
use crate::spec::{valid_name, Spec, Workload, PER_LAYER};
use crate::trace::COUNTERS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The header of a results file: what ran, where.
pub struct Header {
    pub seed: u64,
    pub golden_checked: bool,
    pub nproc: usize,
    pub cpu: String,
    pub simd: String,
}

/// The host's CPU model from `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The results document for `tallies` (one per workload, in spec order).
pub fn write(header: &Header, spec: &Spec, tallies: &[(Workload, Tally)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{\n  \"schema\": \"reach-benchmark-results-v1\",");
    let _ = writeln!(s, "  \"seed\": {},", header.seed);
    let _ = writeln!(s, "  \"golden_checked\": {},", header.golden_checked);
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"cpu\": {}, \"simd\": {}}},",
        header.nproc,
        quote(&header.cpu),
        quote(&header.simd)
    );
    let _ = writeln!(
        s,
        "  \"load\": \"closed loop: one pass process at a time, --jobs 2\","
    );
    let _ = writeln!(s, "  \"workloads\": {{");
    for (wi, (w, t)) in tallies.iter().enumerate() {
        let _ = writeln!(s, "    {}: {{", quote(w.name));
        let _ = writeln!(
            s,
            "      \"ids\": {}, \"passes\": {}, \"traced_passes\": {}, \"attempted\": {}, \"failed\": {}, \"failed_share\": {},",
            w.ids().len(),
            t.untraced_passes(),
            t.traced_passes(),
            t.attempted,
            t.failed,
            num(t.failed as f64 / t.attempted.max(1) as f64)
        );
        let _ = writeln!(s, "      \"end_to_end\": {{");
        let e2e: Vec<String> = spec
            .end_to_end
            .iter()
            .filter_map(|m| {
                let s = t.end_to_end(&m.name)?;
                let [p25, median, p75] = s.quartiles;
                Some(format!(
                    "        {}: {{\"unit\": {}, \"value\": {}, \"min\": {}, \"p25\": {}, \"median\": {}, \"p75\": {}, \"n\": {}}}",
                    quote(&m.name),
                    quote(&m.unit),
                    num(s.value),
                    num(s.min),
                    num(p25),
                    num(median),
                    num(p75),
                    s.n
                ))
            })
            .collect();
        let _ = writeln!(s, "{}\n      }},", e2e.join(",\n"));
        let layers: Vec<String> = t
            .per_layer()
            .iter()
            .map(|(name, value)| {
                format!(
                    "        {}: {{\"unit\": {}, \"value\": {}}}",
                    quote(name),
                    quote(unit_of(name)),
                    num(*value)
                )
            })
            .collect();
        let _ = writeln!(
            s,
            "      \"per_layer\": {{\n{}\n      }},",
            layers.join(",\n")
        );
        let _ = writeln!(
            s,
            "      \"sim_digest\": {}",
            quote(t.sim_digest().unwrap_or("inconsistent"))
        );
        let comma = if wi + 1 < tallies.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  }}\n}}");
    s
}

/// What `agree` needs from one workload of a results file.
struct WorkloadResult {
    values: BTreeMap<String, f64>,
    per_layer: BTreeMap<String, f64>,
    sim_digest: String,
    failed: f64,
}

fn read(path: &str) -> Result<BTreeMap<String, WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or(format!("{path}: no \"workloads\" object"))?;
    let mut out = BTreeMap::new();
    for (name, w) in workloads {
        Workload::by_name(name).map_err(|e| format!("{path}: {e}"))?;
        let ctx = format!("{path}: workload \"{name}\"");
        let section = |key: &str| {
            w.get(key)
                .and_then(Json::as_object)
                .ok_or(format!("{ctx}: no \"{key}\" object"))
        };
        let mut values = BTreeMap::new();
        for (metric, m) in section("end_to_end")? {
            if !valid_name(metric) {
                return Err(format!("{ctx}: bad metric name {metric:?}"));
            }
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .filter(|v| *v > 0.0)
                .ok_or(format!("{ctx}: \"{metric}\" has no positive value"))?;
            values.insert(metric.clone(), value);
        }
        let mut per_layer = BTreeMap::new();
        for (metric, m) in section("per_layer")? {
            if !valid_name(metric) {
                return Err(format!("{ctx}: bad metric name {metric:?}"));
            }
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_layer.insert(metric.clone(), v);
            }
        }
        let sim_digest = w
            .get("sim_digest")
            .and_then(Json::as_str)
            .ok_or(format!("{ctx}: no \"sim_digest\""))?
            .to_string();
        let failed = w
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or(format!("{ctx}: no \"failed\" count"))?;
        out.insert(
            name.clone(),
            WorkloadResult {
                values,
                per_layer,
                sim_digest,
                failed,
            },
        );
    }
    Ok(out)
}

/// Compares results files `a` and `b`: every end-to-end value within its
/// bound of `a`'s, equal simulated-work digests and counts, and no failed
/// render. Returns one line per disagreement (empty when they agree).
pub fn agree(spec: &Spec, a_path: &str, b_path: &str) -> Result<Vec<String>, String> {
    let (a, b) = (read(a_path)?, read(b_path)?);
    let mut outside = Vec::new();
    for w in &spec.workloads {
        let (ra, rb) = match (a.get(w.name), b.get(w.name)) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => {
                return Err(format!(
                    "workload \"{}\" is missing from a results file",
                    w.name
                ))
            }
        };
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (Some(&ma), Some(&mb)) = (ra.values.get(&m.name), rb.values.get(&m.name)) else {
                return Err(format!(
                    "{} {}: missing from a results file",
                    w.name, m.name
                ));
            };
            let change = (mb - ma) / ma;
            let verdict = if change.abs() <= bound {
                "ok"
            } else {
                "OUTSIDE"
            };
            println!(
                "{:<12} {:<13} {ma:>12.6} {mb:>12.6} {:>+7.2}%  bound ±{:.0}%  {verdict}",
                w.name,
                m.name,
                change * 100.0,
                bound * 100.0
            );
            if verdict != "ok" {
                outside.push(format!(
                    "{} {}: {:+.2}% (bound ±{:.0}%)",
                    w.name,
                    m.name,
                    change * 100.0,
                    bound * 100.0
                ));
            }
        }
        if ra.sim_digest != rb.sim_digest {
            outside.push(format!(
                "{} sim_digest: {} vs {}",
                w.name, ra.sim_digest, rb.sim_digest
            ));
        }
        for name in COUNTERS.iter().chain(&["scenario_run.calls"]) {
            let (va, vb) = (ra.per_layer.get(*name), rb.per_layer.get(*name));
            if va != vb {
                outside.push(format!("{} {name}: {va:?} vs {vb:?}", w.name));
            }
        }
        if ra.failed != 0.0 || rb.failed != 0.0 {
            outside.push(format!(
                "{} failed renders: {} and {}",
                w.name, ra.failed, rb.failed
            ));
        }
    }
    Ok(outside)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(wall: f64, digest: &str) -> String {
        format!(
            r#"{{"workloads": {{"cbir-sim": {{"failed": 0, "sim_digest": "{digest}",
                "end_to_end": {{"wall_s": {{"unit": "s", "value": {wall}}}}},
                "per_layer": {{"engine.events_processed": {{"unit": "count", "value": 18000}}}}}}}}}}"#
        )
    }

    fn spec() -> Spec {
        crate::spec::parse(
            r#"{"workloads": [{"name": "cbir-sim", "why": "w"}],
                "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "render.self_s", "unit": "s", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    /// A directory of test files under the package's target directory,
    /// removed when the test ends.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(test: &str) -> TestDir {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join(format!("test-files-{}-{test}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn file(&self, name: &str, body: &str) -> String {
            let path = self.0.join(name);
            std::fs::write(&path, body).unwrap();
            path.to_string_lossy().into_owned()
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn agreement_is_judged_by_the_spec_bounds_and_digests() {
        let dir = TestDir::new("agree");
        let a = dir.file("a.json", &results(0.50, "d1"));
        let close = dir.file("close.json", &results(0.54, "d1"));
        let far = dir.file("far.json", &results(0.60, "d1"));
        let other = dir.file("other.json", &results(0.50, "d2"));
        assert!(agree(&spec(), &a, &close).unwrap().is_empty());
        let outside = agree(&spec(), &a, &far).unwrap();
        assert_eq!(outside.len(), 1);
        assert!(outside[0].starts_with("cbir-sim wall_s"), "{outside:?}");
        assert!(agree(&spec(), &a, &other).unwrap()[0].contains("sim_digest"));
    }

    #[test]
    fn malformed_results_files_are_errors_not_panics() {
        let dir = TestDir::new("malformed");
        let a = dir.file("ok.json", &results(0.5, "d"));
        let cases = [
            ("garbage.json", "not json".to_string(), "invalid JSON"),
            ("empty.json", "{}".to_string(), "no \"workloads\""),
            (
                "unknown.json",
                results(0.5, "d").replace("cbir-sim", "cbir-fast"),
                "unknown workload",
            ),
            (
                "badname.json",
                results(0.5, "d").replace("\"wall_s\"", "\"wall s\""),
                "bad metric name",
            ),
            ("zero.json", results(0.0, "d"), "no positive value"),
            (
                "missing.json",
                results(0.5, "d").replace("\"failed\": 0,", ""),
                "no \"failed\"",
            ),
        ];
        for (name, body, expected) in cases {
            let b = dir.file(name, &body);
            let err = agree(&spec(), &a, &b).expect_err(name);
            assert!(err.contains(expected), "{name}: {err}");
        }
        let err = agree(&spec(), &a, "/nonexistent/b.json").unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
