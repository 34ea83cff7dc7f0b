//! Near-data analytics on ReACH: the paper's motivating workload class.
//!
//! Times selective scan + aggregate queries over an SSD-resident table on
//! the hierarchy, host-side vs near-storage placement.
//!
//! ```text
//! cargo run --example analytics_offload --release
//! ```

use reach_analytics::{AnalyticsPlacement, ScanQuery};

fn main() {
    println!("== timed placement comparison (16 GiB table, 4 SSDs) ==");
    println!(
        "{:<16} {:>14} {:>12} {:>10}",
        "selectivity", "host", "near-storage", "speedup"
    );
    for sel in [1u32, 10, 50, 100] {
        let q = ScanQuery {
            table_bytes: 16 << 30,
            selectivity_pct: sel,
            row_bytes: 64,
        };
        let host = q.run(AnalyticsPlacement::Host);
        let near = q.run(AnalyticsPlacement::NearStorage);
        println!(
            "{:<16} {:>14} {:>12} {:>9.2}x",
            format!("{sel}%"),
            host.makespan.to_string(),
            near.makespan.to_string(),
            host.makespan.as_secs_f64() / near.makespan.as_secs_f64()
        );
    }
    println!();
    println!(
        "selection pushed to the SSDs exposes the aggregate flash bandwidth\n\
         and ships only survivors — the same mechanism behind the CBIR rerank win."
    );
}
