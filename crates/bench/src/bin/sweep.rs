//! Ad-hoc CBIR sweeps from the command line.
//!
//! ```text
//! cargo run -p reach-bench --bin sweep --release -- \
//!     --nm 2,4,8 --ns 4 --batches 16 --mapping proper --jobs 4 \
//!     --metrics-dir out/metrics
//! ```
//!
//! With `--metrics-dir DIR`, each grid point drops its machine telemetry
//! as `DIR/<label>.csv` (one row per metric) for spreadsheet or pandas
//! post-processing. Stdout stays identical with or without the flag.
//!
//! `--repeat N` runs the whole grid `N` times in one process — the shape
//! of iterative design-space exploration. Passes after the first replay
//! from the scenario-result cache unless `--no-result-cache` is given;
//! stdout is byte-identical either way, only the wall clock moves.

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
                 [--jobs N] [--seed N] [--metrics-dir DIR] [--repeat N] [--no-result-cache] \
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
    // One runner for all passes, so `--repeat` passes share the result
    // cache. Reports are deterministic, so every pass prints identically
    // whether it simulated or replayed.
    let runner = args.runner();
    let mut results = Vec::new();
    for _ in 0..args.repeat {
        results = runner.run_all(args.scenarios());
        for r in &results {
            println!();
            println!("{}", r.label);
            println!("{}", r.report);
        }
    }
    if let Some(dir) = &args.metrics_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for r in &results {
            let path = format!("{dir}/{}.csv", reach_bench::label_file_stem(&r.label));
            if let Err(e) = std::fs::write(&path, r.report.metrics.to_csv()) {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        eprintln!("wrote {} telemetry CSV(s) to {dir}", results.len());
    }
    let stats = runner.cache_stats();
    let disk = runner.disk_cache_stats();
    eprintln!(
        "ran {} scenario(s) x {} pass(es) with {} job(s) in {:.2}s \
         (result cache: {} mem hit(s), {} mem miss(es), \
         {} disk hit(s), {} disk miss(es){})",
        results.len(),
        args.repeat,
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
