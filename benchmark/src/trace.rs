//! Outside-in tracing of one pass: wrappers around the runner and around
//! every scenario it is handed, so host time is attributed to the layers'
//! public entry points without editing any crate.
//!
//! Span tree per experiment id:
//!
//! ```text
//! render                       the renderer (scenario construction, host math)
//! └─ runner.run_all/run_fleets one executor call (cache tiers, thread fan-out)
//!    ├─ fingerprint            Scenario/FleetScenario::config_fingerprint
//!    ├─ instantiate            MachineBlueprint::instantiate
//!    ├─ scenario_run           Scenario::run (the Machine and all under it)
//!    └─ fleet_aggregate        FleetScenario::aggregate
//! ```
//!
//! `execute` is re-implemented as instantiate-then-run, which is the trait's
//! default; no scenario in the suite overrides it. Spans stay in memory and
//! are summarized (and optionally written as a Chrome trace) after the last
//! render.

use crate::json::{num, quote};
use crate::stats::{percentile, self_time, union_len};
use reach::fleet::{FleetBlueprint, FleetScenario};
use reach::{
    ConfigFingerprint, Machine, MachineBlueprint, RunReport, Scenario, ScenarioExecutor,
    ScenarioResult,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Names of the spans below an executor call.
const SCENARIO_LEVEL: [&str; 4] = [
    "fingerprint",
    "instantiate",
    "scenario_run",
    "fleet_aggregate",
];

/// One timed call, in nanoseconds since the pass started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub thread: u32,
    /// The experiment id or scenario label the work was done for.
    pub request: String,
}

fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    INDEX.with(|i| *i)
}

/// FNV-1a, 64-bit: the digest of rendered bytes and simulated counters.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The simulated counters a traced pass totals over its reports.
pub const COUNTERS: [&str; 16] = [
    "engine.events_processed",
    "engine.queue_depth_peak",
    "gam.dispatches",
    "gam.dmas",
    "gam.dma_bytes",
    "gam.jobs_completed",
    "gam.jobs_rejected",
    "gam.polls_sent",
    "gam.polls_missed",
    "mem.noc.bytes",
    "mem.aimbus.bytes",
    "mem.ddr.contended_cycles",
    "mem.aimbus.queued_ps",
    "storage.pcie.host.bytes",
    "storage.ssd.read_bytes",
    "accel.reconfigs",
];

/// Folds one counter of a simulated report into the pass totals: the
/// per-device SSD reads and per-instance reconfigurations are summed under
/// one name, the queue-depth peak is a maximum, the rest are sums. Counters
/// outside [`COUNTERS`] are skipped.
pub fn fold_counter(totals: &mut BTreeMap<String, u64>, name: &str, value: u64) {
    let is_ssd_read = name
        .strip_prefix("storage.ssd")
        .and_then(|rest| rest.strip_suffix(".read_bytes"))
        .is_some_and(|i| !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit()));
    let key = if is_ssd_read {
        "storage.ssd.read_bytes"
    } else if name.starts_with("accel.") && name.ends_with(".reconfigs") {
        "accel.reconfigs"
    } else if COUNTERS.contains(&name) && name != "storage.ssd.read_bytes" {
        name
    } else {
        return;
    };
    let total = totals.entry(key.to_string()).or_insert(0);
    *total = if key == "engine.queue_depth_peak" {
        (*total).max(value)
    } else {
        *total + value
    };
}

/// Span store and simulated-work totals of one traced pass.
pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<String, u64>>,
    /// One digest per report `Scenario::run` returned.
    report_digests: Mutex<Vec<u64>>,
}

impl Tracer {
    /// A tracer whose clock starts at `t0`, the pass's `main` entry.
    pub fn new(t0: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            t0,
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(COUNTERS.iter().map(|&k| (k.to_string(), 0)).collect()),
            report_digests: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).expect("pass shorter than 584 years")
    }

    /// Runs `f` inside a span; `f` gets the span's id to parent children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: &str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let start = self.now();
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            start,
            end,
            id,
            parent,
            thread: thread_index(),
            request: request.to_string(),
        });
        out
    }

    fn record_report(&self, label: &str, report: &RunReport) {
        let mut counters = self.counters.lock().expect("counter totals poisoned");
        for (name, value) in report.metrics.iter() {
            if let reach::MetricValue::Counter { value } = value {
                fold_counter(&mut counters, name, *value);
            }
        }
        let mut bytes = format!("{label}\n{}\n{}\n", report.makespan.as_ps(), report.jobs);
        bytes.push_str(&report.metrics.to_json());
        self.report_digests
            .lock()
            .expect("report digests poisoned")
            .push(fnv64(bytes.as_bytes()));
    }

    /// Digest of every simulated report, independent of the order the two
    /// workers finished them in.
    pub fn sim_digest(&self) -> String {
        let mut digests = self
            .report_digests
            .lock()
            .expect("report digests poisoned")
            .clone();
        digests.sort_unstable();
        let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
        format!("{:016x}", fnv64(&bytes))
    }

    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .lock()
            .expect("counter totals poisoned")
            .clone()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Times every executor call and wraps each scenario it is handed.
pub struct TracedExecutor<'a> {
    inner: &'a dyn ScenarioExecutor,
    tracer: Arc<Tracer>,
    /// The render span and experiment id executor calls belong to.
    render: Mutex<(u64, String)>,
    resolved: AtomicU64,
}

impl<'a> TracedExecutor<'a> {
    pub fn new(inner: &'a dyn ScenarioExecutor, tracer: Arc<Tracer>) -> Self {
        TracedExecutor {
            inner,
            tracer,
            render: Mutex::new((0, String::new())),
            resolved: AtomicU64::new(0),
        }
    }

    /// Runs one renderer inside a `render` span for experiment `id`.
    pub fn render(&self, id: &str, render: fn(&dyn ScenarioExecutor) -> String) -> String {
        let tracer = Arc::clone(&self.tracer);
        tracer.span("render", 0, id, |span| {
            *self.render.lock().expect("render context poisoned") = (span, id.to_string());
            render(self)
        })
    }

    /// Results handed back to renderers: replays and simulations alike.
    pub fn resolved(&self) -> u64 {
        self.resolved.load(Ordering::Relaxed)
    }

    fn call(
        &self,
        name: &'static str,
        f: impl FnOnce(u64) -> Vec<ScenarioResult>,
    ) -> Vec<ScenarioResult> {
        let (parent, id) = self.render.lock().expect("render context poisoned").clone();
        let out = self.tracer.span(name, parent, &id, f);
        self.resolved.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }
}

impl ScenarioExecutor for TracedExecutor<'_> {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        self.call("runner.run_all", |span| {
            let wrapped = scenarios
                .into_iter()
                .map(|s| TracedScenario::boxed(s, &self.tracer, span))
                .collect();
            self.inner.run_all(wrapped)
        })
    }

    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        self.call("runner.run_fleets", |span| {
            let wrapped = fleets
                .into_iter()
                .map(|inner| {
                    let label = inner.label();
                    Box::new(TracedFleet {
                        inner,
                        tracer: Arc::clone(&self.tracer),
                        parent: span,
                        label,
                    }) as Box<dyn FleetScenario>
                })
                .collect();
            self.inner.run_fleets(wrapped)
        })
    }
}

/// A scenario whose fingerprint, instantiation and run are timed.
struct TracedScenario {
    inner: Box<dyn Scenario>,
    tracer: Arc<Tracer>,
    parent: u64,
    label: String,
}

impl TracedScenario {
    fn boxed(inner: Box<dyn Scenario>, tracer: &Arc<Tracer>, parent: u64) -> Box<dyn Scenario> {
        let label = inner.label();
        Box::new(TracedScenario {
            inner,
            tracer: Arc::clone(tracer),
            parent,
            label,
        })
    }
}

impl Scenario for TracedScenario {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.inner.blueprint()
    }

    fn run(&self, machine: &mut Machine) -> RunReport {
        self.inner.run(machine)
    }

    fn execute(&self) -> RunReport {
        let t = &self.tracer;
        let mut machine = t.span("instantiate", self.parent, &self.label, |_| {
            self.inner.blueprint().instantiate()
        });
        let report = t.span("scenario_run", self.parent, &self.label, |_| {
            let report = self.inner.run(&mut machine);
            drop(machine);
            report
        });
        t.record_report(&self.label, &report);
        report
    }

    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        self.tracer
            .span("fingerprint", self.parent, &self.label, |_| {
                self.inner.config_fingerprint()
            })
    }
}

/// A fleet whose fingerprint and aggregation are timed, and whose shard
/// scenarios are traced like any other.
struct TracedFleet {
    inner: Box<dyn FleetScenario>,
    tracer: Arc<Tracer>,
    parent: u64,
    label: String,
}

impl FleetScenario for TracedFleet {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn fleet(&self) -> FleetBlueprint {
        self.inner.fleet()
    }

    fn shard_scenario(&self, shard: usize) -> Box<dyn Scenario> {
        TracedScenario::boxed(self.inner.shard_scenario(shard), &self.tracer, self.parent)
    }

    fn aggregate(&self, shard_reports: Vec<RunReport>) -> RunReport {
        self.tracer
            .span("fleet_aggregate", self.parent, &self.label, |_| {
                self.inner.aggregate(shard_reports)
            })
    }

    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        self.tracer
            .span("fingerprint", self.parent, &self.label, |_| {
                self.inner.config_fingerprint()
            })
    }
}

/// Per-layer host times of one traced pass, in seconds unless named
/// otherwise. `setup_ns` and `wall_ns` are the pass's set-up and in-process
/// wall time, for the coverage check.
pub fn layer_times(spans: &[Span], setup_ns: u64, wall_ns: u64) -> BTreeMap<&'static str, f64> {
    let interval = |s: &Span| (s.start, s.end);
    let children = |parent: u64, names: &[&str]| -> Vec<(u64, u64)> {
        spans
            .iter()
            .filter(|s| s.parent == parent && names.contains(&s.name))
            .map(interval)
            .collect()
    };
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let busy = |name: &'static str| named(name).map(|s| s.end - s.start).sum::<u64>();
    let count = |name: &'static str| named(name).count() as f64;
    let secs = |ns: u64| ns as f64 * 1e-9;

    let runner_names = ["runner.run_all", "runner.run_fleets"];
    let render_self: u64 = named("render")
        .map(|r| self_time(interval(r), &children(r.id, &runner_names)))
        .sum();
    let runners: Vec<&Span> = spans
        .iter()
        .filter(|s| runner_names.contains(&s.name))
        .collect();
    let runner_self: u64 = runners
        .iter()
        .map(|r| self_time(interval(r), &children(r.id, &SCENARIO_LEVEL)))
        .sum();
    let scenario_level: u64 = runners
        .iter()
        .map(|r| union_len(&children(r.id, &SCENARIO_LEVEL)))
        .sum();
    let run_ms: Vec<f64> = named("scenario_run")
        .map(|s| (s.end - s.start) as f64 * 1e-6)
        .collect();
    let accounted = setup_ns + render_self + runner_self + scenario_level;

    BTreeMap::from([
        ("render.self_s", secs(render_self)),
        ("runner.self_s", secs(runner_self)),
        ("runner.calls", runners.len() as f64),
        ("scenario_level.s", secs(scenario_level)),
        ("fingerprint.s", secs(busy("fingerprint"))),
        ("fingerprint.calls", count("fingerprint")),
        ("instantiate.s", secs(busy("instantiate"))),
        ("instantiate.calls", count("instantiate")),
        ("scenario_run.s", secs(busy("scenario_run"))),
        ("scenario_run.calls", count("scenario_run")),
        ("scenario_run.p50_ms", percentile(&run_ms, 50.0)),
        ("scenario_run.p90_ms", percentile(&run_ms, 90.0)),
        ("fleet_aggregate.s", secs(busy("fleet_aggregate"))),
        ("trace.accounted_s", secs(accounted)),
        ("trace.coverage", accounted as f64 / wall_ns.max(1) as f64),
    ])
}

/// The spans as Chrome-trace events (comma-separated, no brackets), one
/// process per pass so passes of a workload can share one file.
pub fn chrome_events(spans: &[Span], pass: usize) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":\"reach-benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":{pass},\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"request\":{}}}}}",
            quote(s.name),
            num(s.start as f64 / 1e3),
            num((s.end - s.start) as f64 / 1e3),
            s.thread,
            s.id,
            s.parent,
            quote(&s.request)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_aggregation_sums_ssds_and_takes_the_queue_peak_max() {
        let mut totals = BTreeMap::new();
        for (name, value) in [
            ("storage.ssd0.read_bytes", 100),
            ("storage.ssd1.read_bytes", 20),
            ("storage.ssd12.read_bytes", 3),
            ("storage.ssd0.write_bytes", 999),
            ("storage.ssd0.link.bytes", 999),
            ("storage.ssdx.read_bytes", 999),
            ("engine.queue_depth_peak", 7),
            ("engine.queue_depth_peak", 16),
            ("engine.queue_depth_peak", 9),
            ("engine.events_processed", 10),
            ("engine.events_processed", 5),
            ("accel.near_mem.0.reconfigs", 2),
            ("accel.on_chip.3.reconfigs", 1),
            ("accel.on_chip.busy_ps", 999),
        ] {
            fold_counter(&mut totals, name, value);
        }
        assert_eq!(totals["storage.ssd.read_bytes"], 123);
        assert_eq!(totals["engine.queue_depth_peak"], 16);
        assert_eq!(totals["engine.events_processed"], 15);
        assert_eq!(totals["accel.reconfigs"], 3);
        assert_eq!(totals.len(), 4);
    }

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64, thread: u32) -> Span {
        Span {
            name,
            start,
            end,
            id,
            parent,
            thread,
            request: String::new(),
        }
    }

    #[test]
    fn layer_times_account_for_the_whole_pass() {
        // setup [0, 10); render [10, 200) with one executor call [20, 180)
        // whose two workers overlap; [200, 205) is the loop after the render.
        let spans = [
            span("render", 1, 0, 10, 200, 0),
            span("runner.run_all", 2, 1, 20, 180, 0),
            span("fingerprint", 3, 2, 20, 30, 0),
            span("instantiate", 4, 2, 40, 50, 1),
            span("scenario_run", 5, 2, 50, 150, 1),
            span("instantiate", 6, 2, 45, 55, 2),
            span("scenario_run", 7, 2, 55, 170, 2),
        ];
        let t = layer_times(&spans, 10, 205);
        let ns = |k: &str| (t[k] * 1e9).round() as u64;
        assert_eq!(ns("render.self_s"), 190 - 160);
        assert_eq!(ns("scenario_level.s"), 10 + 130);
        assert_eq!(ns("runner.self_s"), 160 - 140);
        assert_eq!(ns("scenario_run.s"), 100 + 115);
        assert_eq!(t["instantiate.calls"], 2.0);
        assert_eq!(ns("trace.accounted_s"), 200);
        assert!((t["trace.coverage"] - 200.0 / 205.0).abs() < 1e-12);
    }
}
