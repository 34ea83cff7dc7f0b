//! One measured pass: a fresh child process that renders experiment ids
//! exactly as the `experiments` binary does and prints one JSON report
//! line on stdout.
//!
//! ```text
//! reach-benchmark pass [--traced] [--trace-out FILE] [--dump FILE] [--pass K] \
//!     -- <experiments arguments: --jobs 2 --seed N [--result-cache-dir DIR] ids...>
//! ```

use crate::json::{num, quote};
use crate::trace::{chrome_events, fnv64, layer_times, Span, TracedExecutor, Tracer};
use reach_bench::{ExperimentsArgs, ScenarioRunner};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

struct PassArgs {
    traced: bool,
    trace_out: Option<String>,
    dump: Option<String>,
    pass: usize,
    experiments: Vec<String>,
}

fn parse(args: &[String]) -> Result<PassArgs, String> {
    let mut out = PassArgs {
        traced: false,
        trace_out: None,
        dump: None,
        pass: 0,
        experiments: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--traced" => out.traced = true,
            "--trace-out" => out.trace_out = Some(value()?),
            "--dump" => out.dump = Some(value()?),
            "--pass" => out.pass = value()?.parse().map_err(|_| "--pass needs an integer")?,
            "--" => {
                out.experiments = it.cloned().collect();
                break;
            }
            other => return Err(format!("unknown pass flag {other:?}")),
        }
    }
    Ok(out)
}

/// Runs the pass. `t0` is taken on entry to `main`.
pub fn main(t0: Instant, args: &[String]) -> ExitCode {
    match run(t0, args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reach-benchmark pass: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(t0: Instant, args: &[String]) -> Result<String, String> {
    let args = parse(args)?;
    // The construction path of the `experiments` binary.
    let parsed = ExperimentsArgs::parse(&args.experiments).map_err(|e| e.to_string())?;
    parsed.common.apply_seed();
    let opening = Instant::now();
    let runner = parsed.common.runner();
    let open_s = if runner.disk_cache_enabled() {
        opening.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let renderers = reach_bench::renderers();
    let selected = parsed
        .ids
        .iter()
        .map(|id| {
            renderers
                .iter()
                .find(|(name, _)| name == id)
                .ok_or(format!("unknown experiment id {id:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tracer = args.traced.then(|| Tracer::new(t0));
    let traced = tracer
        .as_ref()
        .map(|t| TracedExecutor::new(&runner, t.clone()));

    let setup = t0.elapsed();
    let mut digests = Vec::with_capacity(selected.len());
    let mut dump = String::new();
    for (i, (id, render)) in selected.iter().enumerate() {
        let out = match &traced {
            Some(executor) => executor.render(id, *render),
            None => render(&runner),
        };
        digests.push((*id, fnv64(out.as_bytes())));
        if args.dump.is_some() {
            if i > 0 {
                dump.push('\n');
            }
            dump.push_str(&out);
        }
    }
    let wall = t0.elapsed();

    if let Some(path) = &args.dump {
        std::fs::write(path, &dump).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    let mut line = format!(
        "{{\"setup_s\":{},\"peak_rss_mib\":{},\"simd\":{},\"renders\":{{",
        num(setup.as_secs_f64()),
        num(peak_rss_mib()?),
        quote(reach_cbir::simd::active().name()),
    );
    for (i, (id, digest)) in digests.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(line, "{sep}{}:\"{digest:016x}\"", quote(id));
    }
    line.push('}');
    if let (Some(tracer), Some(executor)) = (&tracer, &traced) {
        let spans = tracer.spans();
        let layers = layer_values(&spans, tracer, executor, &runner, open_s, setup, wall);
        line.push_str(",\"layers\":{");
        for (i, (name, value)) in layers.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(line, "{sep}{}:{}", quote(name), num(*value));
        }
        let _ = write!(line, "}},\"sim_digest\":\"{}\"", tracer.sim_digest());
        if let Some(path) = &args.trace_out {
            std::fs::write(path, chrome_events(&spans, args.pass))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
    }
    line.push('}');
    Ok(line)
}

/// Every per-layer value of a traced pass: span times, simulated counters
/// and the public cache statistics.
fn layer_values(
    spans: &[Span],
    tracer: &Tracer,
    executor: &TracedExecutor,
    runner: &ScenarioRunner,
    open_s: f64,
    setup: Duration,
    wall: Duration,
) -> BTreeMap<String, f64> {
    let nanos = |d: Duration| u64::try_from(d.as_nanos()).expect("pass shorter than 584 years");
    let mut out: BTreeMap<String, f64> = layer_times(spans, nanos(setup), nanos(wall))
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let counters = tracer.counters();
    out.extend(counters.iter().map(|(k, v)| (k.clone(), *v as f64)));
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let events = counters["engine.events_processed"];
    let (polls, missed) = (counters["gam.polls_sent"], counters["gam.polls_missed"]);
    let mem = runner.cache_stats();
    let disk = runner.disk_cache_stats();
    let fleet = runner.fleet_cache_stats();
    let (cbir_hits, cbir_misses) = reach_cbir::cache::cache_stats();
    let per_event = if events > 0 {
        out["scenario_run.s"] * 1e9 / events as f64
    } else {
        0.0
    };
    let simulated = out["scenario_run.calls"];
    for (name, value) in [
        ("trace.setup_s", setup.as_secs_f64()),
        ("trace.in_process_s", wall.as_secs_f64()),
        ("diskcache.open_s", open_s),
        ("sim.host_ns_per_event", per_event),
        (
            "gam.poll_hit_ratio",
            ratio(polls.saturating_sub(missed), missed),
        ),
        ("runner.result_cache_hit_ratio", ratio(mem.hits, mem.misses)),
        ("runner.result_cache_hits", mem.hits as f64),
        ("runner.result_cache_misses", mem.misses as f64),
        ("runner.disk_hit_ratio", ratio(disk.hits, disk.misses)),
        ("runner.disk_hits", disk.hits as f64),
        ("runner.disk_misses", disk.misses as f64),
        ("cbir.cache_hit_ratio", ratio(cbir_hits, cbir_misses)),
        ("cbir.cache_hits", cbir_hits as f64),
        ("cbir.cache_misses", cbir_misses as f64),
        ("runner.fleet_hits", fleet.hits as f64),
        ("runner.fleet_misses", fleet.misses as f64),
        ("scenarios.resolved", executor.resolved() as f64),
        ("scenarios.simulated", simulated),
    ] {
        out.insert(name.to_string(), value);
    }
    out
}
