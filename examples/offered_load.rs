//! Offered-load operating curves: query-batch latency vs arrival rate.
//!
//! The paper states CBIR throughput "is crucial to user experience" and
//! assumes queries arrive "sufficiently frequent for batched processing".
//! This example makes that operational with the serving points the
//! `extension-traffic` experiment prints: Poisson arrivals of 16-query
//! batches, offered to each placement through a bounded admission queue.
//! As the arrival rate approaches a placement's bottleneck service rate,
//! queueing delay takes over and the queue starts rejecting arrivals — and
//! ReACH sustains several times the load of the on-chip baseline before it
//! does.
//!
//! ```text
//! cargo run --example offered_load --release
//! ```

use reach::Scenario;
use reach_cbir::traffic::{TRAFFIC_OFFERED, TRAFFIC_RATES_PER_SEC};
use reach_cbir::{CbirMapping, CbirScenario};

fn main() {
    println!(
        "{:<16} {:>10} {:>14} {:>14}",
        "batches/s", "admitted", "mean latency", "p99 latency"
    );
    for mapping in CbirMapping::ALL {
        println!("--- {} ---", mapping.name());
        for rate in TRAFFIC_RATES_PER_SEC {
            let report = CbirScenario::poisson(mapping, rate).execute();
            let p99_ps = report.metrics.counter("latency.job.p99_ps").unwrap_or(0);
            let p99_ms = p99_ps as f64 * 1e-9;
            println!(
                "{:<16} {:>10} {:>14} {:>12.3}ms",
                format!("{rate}/s"),
                format!("{}/{TRAFFIC_OFFERED}", report.jobs),
                report.job_latency_mean.to_string(),
                p99_ms
            );
        }
    }
    println!();
    println!(
        "each arrival is one 16-query batch; arrivals that find the admission\n\
         queue full are rejected, so a saturated placement admits fewer than\n\
         it is offered while the latency of the admitted batches climbs."
    );
}
