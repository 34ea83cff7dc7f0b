//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p reach-bench --bin experiments --release            # everything
//! cargo run -p reach-bench --bin experiments --release -- fig13  # one id
//! cargo run -p reach-bench --bin experiments --release -- --jobs 4
//! cargo run -p reach-bench --bin experiments --release -- \
//!     fig13 --metrics metrics.json
//! ```
//!
//! `--jobs N` fans each experiment's scenarios across `N` threads via
//! [`reach_bench::ScenarioRunner`]; the printed rows are byte-identical to
//! the default sequential run (`--jobs 1`). The wall-clock summary goes to
//! stderr so stdout stays comparable across job counts.
//!
//! A scenario-result cache replays reports for repeated configurations
//! (several figures and ablations share points); `--no-result-cache`
//! disables it. Stdout is byte-identical either way.
//!
//! `--result-cache-dir PATH` backs the cache with a persistent on-disk
//! store keyed by fingerprint + simulator build stamp, so a *second
//! process* replays previously simulated scenarios too (a warm run of the
//! full suite performs zero simulations). Stdout is byte-identical cold or
//! warm. The store is written once, after the last experiment.
//!
//! `--seed N` overrides the session RNG seed (default
//! `reach_sim::rng::DEFAULT_SEED`) for every stochastic scenario — traffic
//! arrival processes, noisy sweeps. The seed is part of each scenario's
//! fingerprint, so cached results never leak across seeds, and the same
//! seed always reproduces the same stdout bytes.
//!
//! `--metrics PATH` writes every executed scenario's machine telemetry
//! (queue depths, occupancy, link traffic) as `reach-run-metrics-v1` JSON
//! to a file, never to stdout, so the determinism contract above holds.
//!
//! CI runs the full suite at several `--jobs` counts, in every cache mode
//! and on the scalar and SIMD kernel tiers, and compares stdout against
//! the committed golden `tests/golden/experiments_stdout.txt` (see
//! `ci/determinism.sh`).

use reach_bench::runner::RecordingExecutor;
use reach_bench::ExperimentsArgs;
use reach_sim::MetricsSnapshot;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let renderers = reach_bench::renderers();

    let parsed = match ExperimentsArgs::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // Install any `--seed N` override before the first scenario is built —
    // scenarios capture the session seed at construction.
    parsed.common.apply_seed();
    let jobs = parsed.common.jobs;
    let metrics_path = parsed.metrics.clone();

    if parsed.list {
        for (name, _) in &renderers {
            println!("{name}");
        }
        return ExitCode::SUCCESS;
    }

    let selected: Vec<&reach_bench::Renderer> = if parsed.ids.is_empty() {
        renderers.iter().collect()
    } else {
        let mut picked = Vec::new();
        for a in &parsed.ids {
            match renderers.iter().find(|(n, _)| n == a) {
                Some(r) => picked.push(r),
                None => {
                    eprintln!(
                        "unknown experiment '{a}'; known ids: {}",
                        renderers
                            .iter()
                            .map(|(n, _)| *n)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };

    // Always go through the ScenarioRunner — even at the default
    // `--jobs 1` — so the scenario-result cache replays repeated
    // configurations across figures and ablations. Caching, like
    // parallelism, never changes stdout (enforced by
    // tests/runner_determinism.rs), only the wall clock.
    let runner = parsed.common.runner();
    let recording = RecordingExecutor::new(&runner);

    let started = Instant::now();
    let mut captured = Vec::new();
    for (i, (id, render)) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let exp_started = Instant::now();
        print!("{}", render(&recording));
        let wall_s = exp_started.elapsed().as_secs_f64();
        let scenarios = recording.drain();
        // Engine load per experiment — stderr only, so stdout stays
        // byte-comparable across job counts.
        let engine_counter =
            |metrics: &MetricsSnapshot, name: &str| metrics.counter(name).unwrap_or(0);
        let events: u64 = scenarios
            .iter()
            .map(|s| engine_counter(&s.report.metrics, "engine.events_processed"))
            .sum();
        let peak_depth = scenarios
            .iter()
            .map(|s| engine_counter(&s.report.metrics, "engine.queue_depth_peak"))
            .max()
            .unwrap_or(0);
        eprintln!(
            "  {id}: {events} event(s), {:.0} event/s, peak queue depth {peak_depth}",
            events as f64 / wall_s.max(1e-9)
        );
        captured.extend(scenarios);
    }
    // The one write of the persistent store, before the summary reads its
    // counters.
    runner.flush();
    eprintln!(
        "ran {} scenario(s) across {} experiment(s) with {} job(s) in {:.2}s",
        captured.len(),
        selected.len(),
        jobs,
        started.elapsed().as_secs_f64()
    );
    // Cache effectiveness — stderr + metrics export only, so stdout stays
    // byte-comparable across job counts and cache settings.
    let (cache_hits, cache_misses) = reach_cbir::cache::cache_stats();
    eprintln!(
        "cbir stored norm columns: {cache_hits} read(s) by distance passes (hits), \
         {cache_misses} computed (misses)"
    );
    let result_cache = runner.cache_stats();
    let disk_cache = runner.disk_cache_stats();
    let fleet_cache = runner.fleet_cache_stats();
    // All four scenario-cache counters on one line, so a warm run is
    // visible without opening the metrics JSON.
    eprintln!(
        "scenario result cache: {} mem hit(s), {} mem miss(es), \
         {} disk hit(s), {} disk miss(es){}",
        result_cache.hits,
        result_cache.misses,
        disk_cache.hits,
        disk_cache.misses,
        if parsed.common.no_result_cache {
            " (disabled)"
        } else if !runner.disk_cache_enabled() {
            " (no disk tier)"
        } else {
            ""
        }
    );
    eprintln!(
        "fleet result cache: {} hit(s), {} miss(es)",
        fleet_cache.hits, fleet_cache.misses
    );
    if runner.disk_cache_enabled() {
        eprintln!(
            "scenario result store: {} flush(es), {} byte(s) written",
            disk_cache.flushes, disk_cache.bytes_written
        );
    }

    if let Some(path) = metrics_path {
        let mut process = MetricsSnapshot::new(0);
        // Which kernel tier served this run (0 scalar, 1 avx2, 2 neon) —
        // resolving it here also emits the once-per-process stderr note,
        // so a --metrics run is always attributable even if no functional
        // kernel happened to execute.
        process.set_gauge(
            "cbir.simd_dispatch",
            reach_cbir::simd::active().gauge_value(),
        );
        process.set_counter("cbir.cache_hits", cache_hits);
        process.set_counter("cbir.cache_misses", cache_misses);
        process.set_counter("runner.result_cache_hits", result_cache.hits);
        process.set_counter("runner.result_cache_misses", result_cache.misses);
        process.set_counter("runner.result_cache_disk_hits", disk_cache.hits);
        process.set_counter("runner.result_cache_disk_misses", disk_cache.misses);
        process.set_counter("runner.result_cache_disk_flushes", disk_cache.flushes);
        process.set_counter(
            "runner.result_cache_disk_bytes_written",
            disk_cache.bytes_written,
        );
        process.set_counter("runner.fleet_cache_hits", fleet_cache.hits);
        process.set_counter("runner.fleet_cache_misses", fleet_cache.misses);
        let doc = reach_bench::run_metrics_json(&captured, Some(&process));
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote telemetry for {} scenario(s) to {path}",
            captured.len()
        );
    }
    ExitCode::SUCCESS
}
