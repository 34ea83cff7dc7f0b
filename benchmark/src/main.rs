//! `reach-benchmark` — an outside-in benchmark of the ReACH experiments
//! suite. See `benchmark/README.md`.
//!
//! ```text
//! reach-benchmark --workload NAME [--seed N] --seconds S [--trace 0|1]
//! reach-benchmark run [--seed N] [--trace DIR] --out FILE
//! reach-benchmark agree A.json B.json
//! ```
//!
//! The first form measures one workload for `S` seconds and prints one JSON
//! line; `run` measures every workload of `BENCHMARK.json` for its fixed
//! number of passes and writes a results file; `agree` compares two results
//! files. Every form runs from the repository root.

mod json;
mod measure;
mod pass;
mod results;
mod spec;
mod stats;
mod trace;

use json::{num, quote};
use measure::{Session, Tally};
use spec::{Spec, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Traced passes per workload in a full `run`.
const TRACED_PASSES: usize = 5;
/// Fewest untraced (and, with `--trace 1`, traced) passes a timed
/// measurement takes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("pass") => return pass::main(t0, &args[1..]),
        Some("run") => run(&args[1..]),
        Some("agree") => agree(&args[1..]),
        Some(flag) if flag.starts_with("--") => timed(&args),
        _ => Err(
            "usage: reach-benchmark --workload NAME [--seed N] --seconds S [--trace 0|1]\n\
                  \x20      reach-benchmark run [--seed N] [--trace DIR] --out FILE\n\
                  \x20      reach-benchmark agree A.json B.json"
                .into(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("reach-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Flag values by name; every flag takes one value.
fn flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if out.insert(flag.clone(), value.clone()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(out)
}

fn seed_flag(f: &BTreeMap<String, String>) -> Result<u64, String> {
    f.get("--seed")
        .map_or(Ok(reach_sim::rng::DEFAULT_SEED), |v| {
            v.parse()
                .map_err(|_| "--seed needs an unsigned integer".into())
        })
}

/// The workload's spec entry, or an error naming the known ones.
fn workload_in(spec: &Spec, name: &str) -> Result<Workload, String> {
    let w = Workload::by_name(name)?;
    if spec.workloads.iter().any(|s| s.name == w.name) {
        Ok(w)
    } else {
        Err(format!("workload '{name}' is not listed in BENCHMARK.json"))
    }
}

fn describe(session: &Session, w: &Workload, t: &Tally) -> String {
    let mut s = format!(
        "{}: {} passes + {} traced, {} renders attempted, {} failed, seed {}{}",
        w.name,
        t.untraced_passes(),
        t.traced_passes(),
        t.attempted,
        t.failed,
        session.seed,
        if session.golden_checked {
            " (reference = golden stdout)"
        } else {
            ""
        }
    );
    for e in t.errors.iter().take(3) {
        s.push_str("\n  pass error: ");
        s.push_str(e);
    }
    s
}

/// The timed form: one workload for `--seconds`, one JSON line last.
fn timed(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let spec = spec::load()?;
    let w = workload_in(&spec, f.get("--workload").ok_or("--workload is required")?)?;
    let seed = seed_flag(&f)?;
    let seconds: u64 = match f.get("--seconds").map(|v| v.parse()) {
        Some(Ok(s)) if (1..=3600).contains(&s) => s,
        _ => return Err("--seconds needs a whole number from 1 to 3600".into()),
    };
    let traced = match f.get("--trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        _ => return Err("--trace needs 0 or 1".into()),
    };

    let session = Session::start(seed)?;
    let mut tally = Tally::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    for k in 0.. {
        // With tracing, traced and untraced passes alternate so both see
        // the same host conditions; the untraced ones give the overhead.
        let traced_pass = traced && k % 2 == 1;
        let result = session.pass(&w, k, traced_pass, None);
        tally.add(&session, &w, result, traced_pass);
        let enough = tally.untraced_passes() >= MIN_PASSES
            && (!traced || tally.traced_passes() >= MIN_PASSES);
        if (Instant::now() >= deadline && enough) || tally.errors.len() >= MIN_PASSES {
            break;
        }
    }
    eprintln!("{}", describe(&session, &w, &tally));

    let (declared, values): (_, BTreeMap<String, f64>) = if traced {
        (&spec.per_layer, tally.per_layer())
    } else {
        let e2e = spec
            .end_to_end
            .iter()
            .filter_map(|m| Some((m.name.clone(), tally.end_to_end(&m.name)?.value)))
            .collect();
        (&spec.end_to_end, e2e)
    };
    let mut metrics = Vec::new();
    for m in declared {
        let value = values
            .get(&m.name)
            .ok_or(format!("no successful pass measured {}", m.name))?;
        eprintln!("  {:<30} {:>16} {}", m.name, format!("{value:.6}"), m.unit);
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(&m.name),
            num(*value),
            quote(&m.unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// `run`: every workload for its fixed pass count, with the traced passes
/// spread among them, written to one results file.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args, &["--seed", "--trace", "--out"])?;
    let out = f.get("--out").ok_or("--out FILE is required")?;
    let trace_dir = f.get("--trace").map(std::path::PathBuf::from);
    let spec = spec::load()?;
    let session = Session::start(seed_flag(&f)?)?;
    if let Some(dir) = &trace_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    println!(
        "reach-benchmark: seed {}, {} cores, {}, simd {}{}",
        session.seed,
        nproc(),
        results::cpu_model(),
        session.simd,
        if session.golden_checked {
            ", reference pass = golden stdout"
        } else {
            ""
        }
    );

    let mut tallies = Vec::new();
    for w in &spec.workloads {
        let mut tally = Tally::default();
        let mut events = Vec::new();
        // The traced passes are spread evenly among the untraced ones, so
        // both sets see the same host conditions.
        let total = w.passes + TRACED_PASSES;
        for k in 0..total {
            let traced = (k + 1) * TRACED_PASSES / total > k * TRACED_PASSES / total;
            let fragment = trace_dir
                .as_ref()
                .filter(|_| traced)
                .map(|d| d.join(format!("{}.pass{k}.json", w.name)));
            tally.add(
                &session,
                w,
                session.pass(w, k, traced, fragment.as_deref()),
                traced,
            );
            if let Some(path) = fragment {
                events.push(std::fs::read_to_string(&path).unwrap_or_default());
                let _ = std::fs::remove_file(path);
            }
        }
        if let Some(dir) = &trace_dir {
            let path = dir.join(format!("{}.trace.json", w.name));
            std::fs::write(
                &path,
                format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
            )
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        print_workload(&session, &spec, w, &tally);
        tallies.push((*w, tally));
    }

    let header = results::Header {
        seed: session.seed,
        golden_checked: session.golden_checked,
        nproc: nproc(),
        cpu: results::cpu_model(),
        simd: session.simd.clone(),
    };
    std::fs::write(out, results::write(&header, &spec, &tallies))
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    let ok = tallies
        .iter()
        .all(|(_, t)| t.correct() && t.errors.is_empty());
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn print_workload(session: &Session, spec: &Spec, w: &Workload, t: &Tally) {
    println!("\n{}", describe(session, w, t));
    for m in &spec.end_to_end {
        if let Some(s) = t.end_to_end(&m.name) {
            let [p25, median, p75] = s.quartiles;
            println!(
                "  {:<14} {:>12.6} {:<4} (min {:.6}, p25 {p25:.6}, median {median:.6}, p75 {p75:.6}, n {})",
                m.name, s.value, m.unit, s.min, s.n
            );
        }
    }
    let layers = t.per_layer();
    let l = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    println!(
        "  coverage: setup {:.4} + render self {:.4} + runner self {:.4} + scenario-level {:.4} \
         = {:.4} s of {:.4} s in-process wall ({:.1}%)",
        l("trace.setup_s"),
        l("render.self_s"),
        l("runner.self_s"),
        l("scenario_level.s"),
        l("trace.accounted_s"),
        l("trace.in_process_s"),
        l("trace.coverage") * 100.0
    );
    for (name, unit) in spec::PER_LAYER {
        if let Some(v) = layers.get(name) {
            println!("  {name:<30} {v:>16.6} {unit}");
        }
    }
    println!(
        "  sim_digest {}",
        t.sim_digest().unwrap_or("inconsistent across passes")
    );
}

/// `agree A B`: exit 0 only when the two results files agree.
fn agree(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: reach-benchmark agree A.json B.json".into());
    };
    let outside = results::agree(&spec::load()?, a, b)?;
    if outside.is_empty() {
        println!("agree: every metric within its bound, simulated work identical");
        return Ok(ExitCode::SUCCESS);
    }
    for line in &outside {
        println!("outside: {line}");
    }
    Ok(ExitCode::FAILURE)
}
