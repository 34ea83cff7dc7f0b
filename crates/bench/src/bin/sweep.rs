//! Ad-hoc CBIR sweeps from the command line.
//!
//! ```text
//! cargo run -p reach-bench --bin sweep --release -- \
//!     --nm 2,4,8 --ns 4 --batches 16 --mapping proper --jobs 4 \
//!     --metrics metrics.json
//! ```
//!
//! With `--metrics PATH`, the grid's machine telemetry is written to
//! `PATH` as the `reach-run-metrics-v1` JSON document that
//! `experiments --metrics` writes, one entry per grid point in grid order.
//! Stdout stays identical with or without the flag.

use reach::ScenarioExecutor;
use reach_bench::sweep::SweepArgs;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match SweepArgs::parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: sweep [--nm N[,N..]] [--ns N[,N..]] [--batches N] [--batch-size N] \
                 [--candidates N] [--mapping onchip|near-mem|near-stor|proper] [--sequential] \
                 [--jobs N] [--seed N] [--metrics PATH] [--no-result-cache] \
                 [--result-cache-dir PATH]"
            );
            return ExitCode::FAILURE;
        }
    };
    // Install any `--seed N` override before the first scenario is built.
    args.common.apply_seed();
    println!(
        "mapping {:?}, nm {:?} x ns {:?}, {} batches of {} queries, {} candidates/query{}",
        args.mapping,
        args.nm,
        args.ns,
        args.batches,
        args.batch_size,
        args.candidates,
        if args.sequential { " (sequential)" } else { "" }
    );
    let started = Instant::now();
    let runner = args.common.runner();
    let results = runner.run_all(args.scenarios());
    for r in &results {
        println!();
        println!("{}", r.label);
        println!("{}", r.report);
    }
    runner.flush();
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, reach_bench::scenario_metrics_json(&results)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote telemetry for {} scenario(s) to {path}",
            results.len()
        );
    }
    let stats = runner.cache_stats();
    let disk = runner.disk_cache_stats();
    eprintln!(
        "ran {} scenario(s) with {} job(s) in {:.2}s \
         (result cache: {} mem hit(s), {} mem miss(es), \
         {} disk hit(s), {} disk miss(es){})",
        results.len(),
        args.common.jobs,
        started.elapsed().as_secs_f64(),
        stats.hits,
        stats.misses,
        disk.hits,
        disk.misses,
        if args.common.no_result_cache {
            ", disabled"
        } else if !runner.disk_cache_enabled() {
            ", no disk tier"
        } else {
            ""
        }
    );
    ExitCode::SUCCESS
}
