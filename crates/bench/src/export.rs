//! Metrics exporters for the harness binaries.
//!
//! Hand-rolled JSON in the same no-dependency style as the Chrome trace
//! serializer and [`reach_sim::MetricsSnapshot::to_json`]: name-ordered
//! keys and fixed-precision floats, so a given run's exports are
//! byte-stable and CI can diff them.

use reach::ScenarioResult;
use std::fmt::Write as _;

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Re-indents an embedded pretty-printed JSON document by `pad` spaces so
/// it nests cleanly inside a larger document.
fn indent(doc: &str, pad: usize) -> String {
    let prefix = " ".repeat(pad);
    doc.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{prefix}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Serializes the telemetry of a batch of scenarios as one JSON document
/// (`reach-run-metrics-v1`): an array of `{label, headline, metrics}`
/// entries in capture order.
#[must_use]
pub fn scenario_metrics_json(scenarios: &[ScenarioResult]) -> String {
    run_metrics_json(scenarios, None)
}

/// [`scenario_metrics_json`] with an optional run-level snapshot of
/// process-wide counters (e.g. `cbir.cache_hits` / `cbir.cache_misses`
/// from the cross-batch distance cache) appended as a top-level
/// `"process"` object. Existing consumers of the scenario array are
/// unaffected — the extra key is additive.
#[must_use]
pub fn run_metrics_json(
    scenarios: &[ScenarioResult],
    process: Option<&reach::MetricsSnapshot>,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"reach-run-metrics-v1\",\n  \"scenarios\": [");
    for (i, s) in scenarios.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let makespan_ps = s.report.makespan.as_ps();
        // Jobs per simulated second; 0 for a run that took no time.
        let throughput = if makespan_ps == 0 {
            0.0
        } else {
            s.report.jobs as f64 / (makespan_ps as f64 * 1e-12)
        };
        let _ = write!(
            out,
            "\n    {{\n      \"label\": \"{}\",\n      \"makespan_ps\": {},\n      \
             \"jobs\": {},\n      \"throughput_jobs_per_sec\": {:.6},\n      \
             \"energy_j\": {:.6},\n      \"metrics\": {}\n    }}",
            escape(&s.label),
            makespan_ps,
            s.report.jobs,
            throughput,
            s.report.total_energy_j(),
            indent(&s.report.metrics.to_json(), 6)
        );
    }
    out.push_str("\n  ]");
    if let Some(snapshot) = process {
        let _ = write!(out, ",\n  \"process\": {}", indent(&snapshot.to_json(), 2));
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::{EnergyLedger, MetricsSnapshot, RunReport, SimDuration, SystemComponent};

    fn captured(label: &str) -> ScenarioResult {
        let mut metrics = MetricsSnapshot::new(2_000_000_000_000);
        metrics.set_counter("gam.dispatches", 7);
        let mut ledger = EnergyLedger::new();
        ledger.add(SystemComponent::Accelerator, "rerank", 12.5);
        ScenarioResult {
            label: label.to_string(),
            report: RunReport {
                makespan: SimDuration::from_ps(2_000_000_000_000),
                jobs: 4,
                job_latency_mean: SimDuration::ZERO,
                job_latency_last: SimDuration::ZERO,
                stages: Vec::new(),
                ledger,
                completions: Vec::new(),
                metrics,
            },
        }
    }

    #[test]
    fn metrics_json_embeds_snapshots() {
        let doc = scenario_metrics_json(&[captured("fig13/ReACH"), captured("fig13/on-chip")]);
        assert!(doc.contains("\"schema\": \"reach-run-metrics-v1\""));
        assert!(doc.contains("\"label\": \"fig13/ReACH\""));
        assert!(doc.contains("\"gam.dispatches\": {\"kind\":\"counter\",\"value\":7}"));
        // 4 jobs over 2 simulated seconds.
        assert!(doc.contains("\"throughput_jobs_per_sec\": 2.000000"));
        assert!(doc.contains("\"energy_j\": 12.500000"));
        // A run that took no simulated time exports zero throughput.
        let mut empty = captured("recall");
        empty.report.makespan = SimDuration::ZERO;
        let doc = scenario_metrics_json(&[empty]);
        assert!(doc.contains("\"throughput_jobs_per_sec\": 0.000000"));
    }

    #[test]
    fn labels_escape_and_sanitize() {
        let doc = scenario_metrics_json(&[captured("a\"b")]);
        assert!(doc.contains("a\\\"b"));
    }

    #[test]
    fn process_snapshot_is_appended() {
        let mut process = MetricsSnapshot::new(0);
        process.set_counter("cbir.cache_hits", 41);
        process.set_counter("cbir.cache_misses", 5);
        let doc = run_metrics_json(&[captured("x")], Some(&process));
        assert!(doc.contains("\"process\": {"));
        assert!(doc.contains("\"cbir.cache_hits\": {\"kind\":\"counter\",\"value\":41}"));
        // Scenario entries are unchanged relative to the plain export.
        assert!(doc.contains("\"label\": \"x\""));
        assert!(!scenario_metrics_json(&[captured("x")]).contains("process"));
    }

    #[test]
    fn exports_are_deterministic() {
        let batch = vec![captured("x"), captured("y")];
        assert_eq!(scenario_metrics_json(&batch), scenario_metrics_json(&batch));
    }
}
