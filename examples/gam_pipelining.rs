//! GAM asynchronous task-flow control, made visible.
//!
//! The paper's GAM "assigns tasks from the next job to accelerators without
//! waiting for all the tasks in the previous job to complete". This example
//! runs the same 8-batch workload twice — once synchronously (conventional
//! host-driven flow) and once under the GAM — and prints the pipelining
//! gain plus the GAM's own statistics (dispatches, status polls, DMAs).
//!
//! ```text
//! cargo run --example gam_pipelining --release
//! ```

use reach_cbir::{CbirMapping, CbirPipeline, CbirWorkload};

fn main() {
    let w = CbirWorkload::paper_setup();
    let p = CbirPipeline::new(w, CbirMapping::Proper);
    let batches = 8;

    let seq = p.run_sequential(&mut reach_cbir::blueprint_with(4, 4).instantiate(), batches);
    let pipe = p.run(&mut reach_cbir::blueprint_with(4, 4).instantiate(), batches);

    println!("== {batches} batches, proper mapping (FE on-chip, SL near-mem, RR near-storage) ==");
    println!(
        "synchronous host flow : {} ({:.2} batches/s)",
        seq.makespan,
        seq.throughput_jobs_per_sec()
    );
    println!(
        "GAM pipelined flow    : {} ({:.2} batches/s)",
        pipe.makespan,
        pipe.throughput_jobs_per_sec()
    );
    println!(
        "pipelining gain       : {:.2}x",
        seq.makespan.as_secs_f64() / pipe.makespan.as_secs_f64()
    );

    println!();
    println!("GAM statistics (pipelined run):");
    let g = |name: &str| pipe.metrics.counter(name).expect(name);
    println!(
        "  jobs        submitted {} / completed {}",
        g("gam.jobs_submitted"),
        g("gam.jobs_completed")
    );
    println!("  dispatches  {}", g("gam.dispatches"));
    println!(
        "  status polls {} sent, {} found the task still running",
        g("gam.polls_sent"),
        g("gam.polls_missed")
    );
    println!(
        "  DMA         {} transfers, {:.1} MB",
        g("gam.dmas"),
        g("gam.dma_bytes") as f64 / 1e6
    );

    println!();
    println!("stage occupancy (pipelined run):");
    for s in &pipe.stages {
        println!(
            "  {:<24} busy {:>12} window {:>12}  ({} tasks)",
            s.name,
            s.busy.to_string(),
            s.span().to_string(),
            s.tasks
        );
    }
    println!();
    println!(
        "note how every stage's window covers most of the {} makespan:\n\
         all three levels work concurrently on different batches.",
        pipe.makespan
    );
}
