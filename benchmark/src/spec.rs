//! `BENCHMARK.json` — the workloads, metrics and regression bounds the
//! benchmark reports — checked against what this binary knows how to run
//! and measure.

use crate::json::Json;

/// How a workload's passes find the persistent result store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// No `--result-cache-dir`: the in-memory cache only.
    None,
    /// A fresh, empty store directory per pass: every miss is encoded and
    /// flushed, so the pass exercises the write side of the disk tier.
    Fresh,
    /// The store the reference pass filled: a pass simulates nothing.
    Warm,
}

/// One workload: which experiment ids a pass renders and from what cache
/// state, and how many passes the full `run` measures.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub store: Store,
    pub passes: usize,
}

/// The graph experiments: gather-shaped traffic and 262,144-node graphs
/// rebuilt by their renderers, about 60% of the cold suite.
const GRAPH_IDS: [&str; 2] = ["extension-graph", "extension-graph-corun"];
/// The recall experiment: codec training on the host, no simulated events.
const RECALL_IDS: [&str; 1] = ["extension-recall"];

/// Every workload this binary can run. The three cold ones partition the
/// suite, so together they render every experiment id exactly once.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cbir-sim",
        store: Store::Fresh,
        passes: 40,
    },
    Workload {
        name: "graph-corun",
        store: Store::None,
        passes: 20,
    },
    Workload {
        name: "recall-train",
        store: Store::None,
        passes: 30,
    },
    Workload {
        name: "warm-replay",
        store: Store::Warm,
        passes: 20,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .copied()
            .ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload '{name}'; known: {}", known.join(", "))
            })
    }

    /// The experiment ids one pass renders, in suite order.
    pub fn ids(&self) -> Vec<&'static str> {
        let all = reach_bench::renderers().into_iter().map(|(id, _)| id);
        match self.name {
            "graph-corun" => all.filter(|id| GRAPH_IDS.contains(id)).collect(),
            "recall-train" => all.filter(|id| RECALL_IDS.contains(id)).collect(),
            "cbir-sim" => all
                .filter(|id| !GRAPH_IDS.contains(id) && !RECALL_IDS.contains(id))
                .collect(),
            _ => all.collect(),
        }
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The checked contents of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// End-to-end metrics this binary measures, with their units.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics this binary measures in a traced pass, with their
/// units. Host times are in `s`/`ms`/`ns`; simulated quantities carry
/// their own units and repeat exactly at a given seed.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("render.self_s", "s"),
    ("runner.self_s", "s"),
    ("runner.calls", "count"),
    ("scenario_level.s", "s"),
    ("fingerprint.s", "s"),
    ("fingerprint.calls", "count"),
    ("instantiate.s", "s"),
    ("instantiate.calls", "count"),
    ("scenario_run.s", "s"),
    ("scenario_run.calls", "count"),
    ("scenario_run.p50_ms", "ms"),
    ("scenario_run.p90_ms", "ms"),
    ("fleet_aggregate.s", "s"),
    ("diskcache.open_s", "s"),
    ("sim.host_ns_per_event", "ns"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.setup_s", "s"),
    ("trace.in_process_s", "s"),
    ("trace.accounted_s", "s"),
    ("engine.events_processed", "count"),
    ("engine.queue_depth_peak", "count"),
    ("gam.dispatches", "count"),
    ("gam.dmas", "count"),
    ("gam.dma_bytes", "bytes"),
    ("gam.jobs_completed", "count"),
    ("gam.jobs_rejected", "count"),
    ("gam.polls_sent", "count"),
    ("gam.polls_missed", "count"),
    ("gam.poll_hit_ratio", "ratio"),
    ("mem.noc.bytes", "bytes"),
    ("mem.aimbus.bytes", "bytes"),
    ("mem.ddr.contended_cycles", "cycles"),
    ("mem.aimbus.queued_ps", "sim_ps"),
    ("storage.pcie.host.bytes", "bytes"),
    ("storage.ssd.read_bytes", "bytes"),
    ("accel.reconfigs", "count"),
    ("runner.result_cache_hit_ratio", "ratio"),
    ("runner.result_cache_hits", "count"),
    ("runner.result_cache_misses", "count"),
    ("runner.disk_hit_ratio", "ratio"),
    ("runner.disk_hits", "count"),
    ("runner.disk_misses", "count"),
    ("cbir.cache_hit_ratio", "ratio"),
    ("cbir.cache_hits", "count"),
    ("cbir.cache_misses", "count"),
    ("runner.fleet_hits", "count"),
    ("runner.fleet_misses", "count"),
    ("scenarios.resolved", "count"),
    ("scenarios.simulated", "count"),
];

/// `[A-Za-z0-9_.-]`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn field<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing \"{key}\""))
}

fn text<'a>(obj: &'a Json, key: &str, ctx: &str) -> Result<&'a str, String> {
    field(obj, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: \"{key}\" must be a string"))
}

fn metric(
    entry: &Json,
    ctx: &str,
    known: &[(&str, &str)],
    bounded: bool,
) -> Result<MetricSpec, String> {
    let name = text(entry, "name", ctx)?;
    if !valid_name(name) {
        return Err(format!(
            "{ctx}: metric name {name:?} must be 1-64 of [A-Za-z0-9_.-], starting with a letter or digit"
        ));
    }
    let ctx = format!("{ctx} \"{name}\"");
    let unit = text(entry, "unit", &ctx)?;
    let &(_, measured_unit) = known
        .iter()
        .find(|(n, _)| *n == name)
        .ok_or_else(|| format!("{ctx}: not a metric this benchmark measures"))?;
    if unit != measured_unit {
        return Err(format!(
            "{ctx}: unit is \"{measured_unit}\", not \"{unit}\""
        ));
    }
    match text(entry, "better", &ctx)? {
        "lower" | "higher" => {}
        other => {
            return Err(format!(
                "{ctx}: \"better\" must be lower or higher, not {other:?}"
            ))
        }
    }
    let bound = if bounded {
        match field(entry, "bound", &ctx)?.as_f64() {
            Some(b) if b > 0.0 && b <= 0.25 => Some(b),
            _ => return Err(format!("{ctx}: \"bound\" must be a number in (0, 0.25]")),
        }
    } else {
        None
    };
    Ok(MetricSpec {
        name: name.to_string(),
        unit: unit.to_string(),
        bound,
    })
}

fn metric_list(
    doc: &Json,
    key: &str,
    known: &[(&str, &str)],
    bounded: bool,
) -> Result<Vec<MetricSpec>, String> {
    let ctx = format!("BENCHMARK.json {key}");
    let entries = field(doc, key, "BENCHMARK.json")?
        .as_array()
        .ok_or_else(|| format!("{ctx} must be a list"))?;
    let mut out: Vec<MetricSpec> = Vec::new();
    for entry in entries {
        let m = metric(entry, &ctx, known, bounded)?;
        if out.iter().any(|o| o.name == m.name) {
            return Err(format!("{ctx}: metric \"{}\" listed twice", m.name));
        }
        out.push(m);
    }
    if out.is_empty() {
        return Err(format!("{ctx} is empty"));
    }
    Ok(out)
}

/// Parses and checks `BENCHMARK.json`.
pub fn parse(text_: &str) -> Result<Spec, String> {
    let doc = Json::parse(text_).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    if doc.as_object().is_none() {
        return Err("BENCHMARK.json must be an object".into());
    }
    let entries = field(&doc, "workloads", "BENCHMARK.json")?
        .as_array()
        .ok_or("BENCHMARK.json workloads must be a list")?;
    let mut workloads: Vec<Workload> = Vec::new();
    for entry in entries {
        let name = text(entry, "name", "BENCHMARK.json workloads")?;
        if !valid_name(name) {
            return Err(format!("BENCHMARK.json workloads: bad name {name:?}"));
        }
        text(entry, "why", &format!("BENCHMARK.json workload \"{name}\""))?;
        let w = Workload::by_name(name).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        if workloads.iter().any(|o| o.name == w.name) {
            return Err(format!("BENCHMARK.json: workload \"{name}\" listed twice"));
        }
        workloads.push(w);
    }
    if workloads.is_empty() {
        return Err("BENCHMARK.json lists no workloads".into());
    }
    Ok(Spec {
        workloads,
        end_to_end: metric_list(&doc, "end_to_end", &END_TO_END, true)?,
        per_layer: metric_list(&doc, "per_layer", &PER_LAYER, false)?,
    })
}

/// Reads and checks `BENCHMARK.json` from the current directory, which is
/// the repository root for every documented invocation.
pub fn load() -> Result<Spec, String> {
    let text_ = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    parse(&text_)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "command": ["x"], "paths": ["benchmark"], "run_seconds": 5,
      "workloads": [{"name": "cbir-sim", "why": "w"}, {"name": "warm-replay", "why": "w"}],
      "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
      "per_layer": [{"name": "render.self_s", "unit": "s", "better": "lower"}]
    }"#;

    #[test]
    fn accepts_the_documented_shape() {
        let spec = parse(GOOD).unwrap();
        assert_eq!(spec.workloads.len(), 2);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
    }

    #[test]
    fn the_cold_workloads_partition_the_suite() {
        let mut ids: Vec<&str> = ["cbir-sim", "graph-corun", "recall-train"]
            .iter()
            .flat_map(|n| Workload::by_name(n).unwrap().ids())
            .collect();
        assert_eq!(Workload::by_name("cbir-sim").unwrap().ids().len(), 22);
        ids.sort_unstable();
        let mut all = Workload::by_name("warm-replay").unwrap().ids();
        all.sort_unstable();
        assert_eq!(ids, all);
        assert_eq!(all.len(), 25);
    }

    #[test]
    fn rejects_malformed_specs_with_a_message() {
        let cases = [
            ("{", "invalid JSON"),
            ("[]", "must be an object"),
            (r#"{"workloads": []}"#, "lists no workloads"),
            (
                &GOOD.replace("cbir-sim", "cbir-fast"),
                "unknown workload 'cbir-fast'",
            ),
            (
                &GOOD.replace("\"wall_s\"", "\"wall s\""),
                "must be 1-64 of [A-Za-z0-9_.-]",
            ),
            (
                &GOOD.replace("\"wall_s\"", "\"wall/s\""),
                "must be 1-64 of [A-Za-z0-9_.-]",
            ),
            (
                &GOOD.replace("\"wall_s\"", "\"latency_ms\""),
                "not a metric this benchmark measures",
            ),
            (&GOOD.replace("0.1}", "0.5}"), "\"bound\" must be a number"),
            (
                &GOOD.replace("0.1}", "\"0.1\"}"),
                "\"bound\" must be a number",
            ),
            (
                &GOOD.replace(
                    "\"unit\": \"s\", \"better\": \"lower\", \"bound\"",
                    "\"unit\": \"ms\", \"better\": \"lower\", \"bound\"",
                ),
                "unit is \"s\"",
            ),
            (
                &GOOD.replace("\"better\": \"lower\"}", "\"better\": \"up\"}"),
                "lower or higher",
            ),
            (
                &GOOD.replace("{\"name\": \"warm-replay\"", "{\"name\": \"cbir-sim\""),
                "listed twice",
            ),
            (
                &GOOD.replace(", \"why\": \"w\"}, {", "}, {"),
                "missing \"why\"",
            ),
        ];
        for (doc, expected) in cases {
            let err = parse(doc).expect_err(doc);
            assert!(
                err.contains(expected),
                "{doc}\n  gave {err:?}, wanted {expected:?}"
            );
        }
    }
}
