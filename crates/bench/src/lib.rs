//! # reach-bench — experiment harness
//!
//! The front doors to the paper's evaluation:
//!
//! * the **`experiments` binary** (`cargo run -p reach-bench --bin
//!   experiments --release [-- fig13]`) prints every table and figure in
//!   the paper's row/series format;
//! * the **`sweep` binary** runs an nm × ns grid of CBIR points;
//! * the **Criterion benches** (`cargo bench`: `substrates`,
//!   `cbir_kernels`, `hotpath`) time the simulation substrates, the
//!   functional CBIR kernels and the simulator hot paths.
//!
//! This library holds what the binaries share: one renderer per
//! experiment id, the thread-parallel [`ScenarioRunner`] with its
//! two-tier result cache, the shared command-line grammar and the
//! telemetry export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod diskcache;
pub mod export;
pub mod runner;
pub mod sweep;

pub use cache::{CacheStats, ResultCache};
pub use cli::{CommonRunnerArgs, ExperimentsArgs};
pub use diskcache::{DiskCache, DiskCacheStats};
pub use export::{run_metrics_json, scenario_metrics_json};
pub use runner::{RecordingExecutor, ScenarioRunner};

use reach::{Scenario, ScenarioExecutor};
use reach_cbir::experiments as exp;
use std::fmt::Write as _;

/// Renders Table I in the paper's layout.
#[must_use]
pub fn render_table1(_executor: &dyn ScenarioExecutor) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE I. MEMORY AND COMPUTE REQUIREMENTS PER CBIR STAGE");
    for row in exp::table1() {
        let _ = writeln!(s, "  {:<22} {:<55} {}", row.stage, row.memory, row.compute);
    }
    s
}

/// Renders Table II (the system configuration).
#[must_use]
pub fn render_table2(_executor: &dyn ScenarioExecutor) -> String {
    let cfg = exp::table2();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TABLE II. EXPERIMENTAL SETUP OF THE COMPUTE HIERARCHY SYSTEM"
    );
    let _ = writeln!(
        s,
        "  CPU: 1 x86-64 OoO core @ 2 GHz, 32 KB L1, 2 MB shared L2"
    );
    let _ = writeln!(
        s,
        "  Memory controllers: 2 MCs, {}-entry read / {}-entry write queues, FR-FCFS",
        cfg.host_mc.read_queue, cfg.host_mc.write_queue
    );
    let host_dimms = cfg.host_mc.channels * cfg.host_mc.dimms_per_channel;
    let _ = writeln!(
        s,
        "  Memory system: {} DDR4 DIMMs ({} near-memory accelerators + {} for CPU/on-chip)",
        host_dimms + cfg.near_memory_accelerators,
        cfg.near_memory_accelerators,
        host_dimms
    );
    let _ = writeln!(
        s,
        "  Storage: {} NVMe SSDs behind PCIe Gen3 x16 (~12 GB/s effective)",
        cfg.near_storage_accelerators
    );
    let _ = writeln!(
        s,
        "  On-chip accelerator: Virtex UltraScale+, {} to shared cache",
        cfg.onchip_cache_bandwidth
    );
    let _ = writeln!(
        s,
        "  Near-memory accelerator: Zynq UltraScale+, ~18 GB/s to its DDR4 DIMM"
    );
    let _ = writeln!(
        s,
        "  Near-storage accelerator: Zynq UltraScale+ with {} GB DRAM, 12 GB/s to its SSD",
        cfg.ns_device.buffer_capacity >> 30
    );
    s
}

/// Renders Table III (the kernel registry).
#[must_use]
pub fn render_table3(_executor: &dyn ScenarioExecutor) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "TABLE III. FPGA UTILIZATION FOR EACH ACCELERATOR");
    let _ = writeln!(
        s,
        "  {:<14} {:<6} {:<28} {:>8} {:>8}",
        "kernel", "part", "utilization (ff,lut,dsp,bram)", "freq", "power"
    );
    for k in exp::table3().iter() {
        let _ = writeln!(
            s,
            "  {:<14} {:<6} {:<28} {:>8} {:>7}W  ({})",
            k.name,
            k.part.name,
            k.utilization.to_string(),
            k.frequency.to_string(),
            k.power_w,
            k.level
        );
    }
    s
}

/// Renders Table IV (the energy model).
#[must_use]
pub fn render_table4(_executor: &dyn ScenarioExecutor) -> String {
    let p = exp::table4();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "TABLE IV. ENERGY MODEL CONSTANTS (TOOLS REDUCED TO NUMBERS)"
    );
    let _ = writeln!(
        s,
        "  Cache (CACTI-class): {} pJ/access, {} W leakage",
        p.cache.pj_per_access, p.cache.leakage_w
    );
    let _ = writeln!(
        s,
        "  DRAM (Micron-calculator-class): {} pJ/activation, {} pJ/B, {} W/DIMM background",
        p.dram.pj_per_activation, p.dram.pj_per_byte, p.dram.background_w_per_dimm
    );
    let _ = writeln!(
        s,
        "  SSD (NVMe datasheet): {} W active, {} W idle per drive",
        p.ssd.active_w, p.ssd.idle_w
    );
    let _ = writeln!(
        s,
        "  MC+interconnect: {} pJ/B, {} W static;  PCIe: {} pJ/B, {} W static",
        p.mc_interconnect.pj_per_byte,
        p.mc_interconnect.static_w,
        p.pcie.pj_per_byte,
        p.pcie.static_w
    );
    let _ = writeln!(
        s,
        "  Accelerators: Table III active power; idle = {:.0}% of active",
        p.accel_idle_fraction * 100.0
    );
    s
}

/// Renders Figure 8 (baseline energy breakdown).
#[must_use]
pub fn render_fig8(executor: &dyn ScenarioExecutor) -> String {
    let f = exp::fig8_with(executor);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "FIGURE 8. ENERGY BREAKDOWN, CBIR FULLY ON-CHIP (one batch)"
    );
    let _ = write!(s, "{}", f.ledger);
    let _ = writeln!(
        s,
        "  data movement: {:.1}% of total (paper: 79%)",
        f.movement_fraction * 100.0
    );
    let _ = writeln!(
        s,
        "  stage shares: feature extraction {:.1}%, short-list {:.1}%, rerank {:.1}% (paper: 22/17/61)",
        f.stage_shares[0] * 100.0,
        f.stage_shares[1] * 100.0,
        f.stage_shares[2] * 100.0
    );
    s
}

fn render_stage_scaling(title: &str, rows: &[exp::StageScalingRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "  (runtime and energy normalized to the on-chip accelerator)"
    );
    for r in rows {
        let _ = writeln!(s, "  {r}");
    }
    s
}

/// Renders Figure 9 (feature-extraction scaling).
#[must_use]
pub fn render_fig9(executor: &dyn ScenarioExecutor) -> String {
    render_stage_scaling(
        "FIGURE 9. FEATURE EXTRACTION AT NEAR-MEMORY / NEAR-STORAGE",
        &exp::fig9_with(executor),
    )
}

/// Renders Figure 10 (short-list retrieval scaling).
#[must_use]
pub fn render_fig10(executor: &dyn ScenarioExecutor) -> String {
    render_stage_scaling(
        "FIGURE 10. SHORT-LIST RETRIEVAL AT NEAR-MEMORY / NEAR-STORAGE",
        &exp::fig10_with(executor),
    )
}

/// Renders Figure 11 (rerank scaling).
#[must_use]
pub fn render_fig11(executor: &dyn ScenarioExecutor) -> String {
    render_stage_scaling(
        "FIGURE 11. RERANK AT NEAR-MEMORY / NEAR-STORAGE",
        &exp::fig11_with(executor),
    )
}

/// Renders Figure 12 (end-to-end, single compute level).
#[must_use]
pub fn render_fig12(executor: &dyn ScenarioExecutor) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "FIGURE 12. END-TO-END CBIR ON A SINGLE COMPUTE LEVEL");
    for r in exp::fig12_with(executor) {
        let _ = writeln!(s, "  {r}");
    }
    s
}

/// Renders Figure 13 (the headline comparison).
#[must_use]
pub fn render_fig13(executor: &dyn ScenarioExecutor) -> String {
    let rows = exp::fig13_with(executor);
    let mut s = String::new();
    let _ = writeln!(s, "FIGURE 13. CBIR ON ReACH VS SINGLE-LEVEL ACCELERATION");
    for r in &rows {
        let _ = writeln!(s, "  {r}");
        let parts: Vec<String> = r
            .energy_by_component
            .iter()
            .filter(|(_, j)| *j > 0.005)
            .map(|(c, j)| format!("{c}={j:.2}J"))
            .collect();
        let _ = writeln!(s, "      {}", parts.join(" "));
    }
    let base = rows
        .iter()
        .find(|r| r.mapping == reach_cbir::CbirMapping::AllOnChip)
        .expect("baseline present");
    let reach = rows
        .iter()
        .find(|r| r.mapping == reach_cbir::CbirMapping::Proper)
        .expect("ReACH present");
    let _ = writeln!(
        s,
        "  headline: {:.2}x throughput (paper 4.5x), {:.2}x latency (paper 2.2x), {:.0}% energy reduction (paper 52%)",
        reach.throughput_gain,
        reach.latency_gain,
        (1.0 - reach.energy_total / base.energy_total) * 100.0
    );
    s
}

fn render_ablation(title: &str, rows: &[reach_cbir::ablations::AblationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    for r in rows {
        let _ = writeln!(s, "  {r}");
    }
    s
}

/// Renders the status-poll interval ablation.
#[must_use]
pub fn render_ablation_poll(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. GAM MINIMUM STATUS-POLL INTERVAL (proper mapping)",
        &reach_cbir::ablations::poll_interval_with(executor),
    )
}

/// Renders the reconfiguration-delay ablation.
#[must_use]
pub fn render_ablation_reconfig(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. PARTIAL-RECONFIGURATION DELAY (on-chip baseline)",
        &reach_cbir::ablations::reconfig_delay_with(executor),
    )
}

/// Renders the cross-job pipelining ablation.
#[must_use]
pub fn render_ablation_pipelining(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. GAM CROSS-JOB PIPELINING ON/OFF",
        &reach_cbir::ablations::pipelining_with(executor),
    )
}

/// Renders the GEMM tile-budget ablation.
#[must_use]
pub fn render_ablation_tile(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. EMBEDDED GEMM TILE BUDGET (BRAM capacity proxy)",
        &reach_cbir::ablations::sl_tile_budget_with(executor),
    )
}

/// Renders the batch-size ablation (throughput column is queries/s).
#[must_use]
pub fn render_ablation_batch(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. QUERY BATCH SIZE (throughput column = queries/s)",
        &reach_cbir::ablations::batch_size_with(executor),
    )
}

/// Renders the rerank candidate-volume ablation.
#[must_use]
pub fn render_ablation_candidates(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. RERANK CANDIDATE VOLUME",
        &reach_cbir::ablations::candidate_volume_with(executor),
    )
}

/// Renders the interleave-reorganization ablation.
#[must_use]
pub fn render_ablation_interleave(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. GAM MEMORY-SPACE REORGANIZATION (tile vs cache-line interleave)",
        &reach_cbir::ablations::interleave_reorganization_with(executor),
    )
}

/// Renders the rerank-placement ablation.
#[must_use]
pub fn render_ablation_rerank_home(executor: &dyn ScenarioExecutor) -> String {
    render_ablation(
        "ABLATION. RERANK STAGE PLACEMENT (single-stage runs)",
        &reach_cbir::ablations::rerank_placement_with(executor),
    )
}

/// Renders the recall-vs-compression extension experiment. The evaluation
/// runs as five cacheable codec scenarios, so a parallel runner trains the
/// codecs concurrently and a warm process replays every row from the
/// persistent result cache instead of re-training.
#[must_use]
pub fn render_extension_recall(executor: &dyn ScenarioExecutor) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. RECALL VS COMPRESSION (Section IV-A's argument, executed)"
    );
    for r in exp::recall_vs_compression_with(executor) {
        let _ = writeln!(s, "  {r}");
    }
    let _ = writeln!(
        s,
        "  -> lossy compression buys bytes but pays recall; ReACH keeps full\n\
            precision and buys the bytes back with near-data bandwidth."
    );
    s
}

/// Renders the analytics-offload extension experiment: a 16 GiB scan at
/// four selectivities, host-side and near-storage, as eight scenarios
/// through the executor.
#[must_use]
pub fn render_extension_analytics(executor: &dyn ScenarioExecutor) -> String {
    use reach_analytics::{AnalyticsPlacement, ScanQuery};
    const SELECTIVITIES: [u32; 4] = [1, 10, 50, 100];
    let mut scenarios: Vec<Box<dyn Scenario>> = Vec::new();
    for selectivity_pct in SELECTIVITIES {
        let q = ScanQuery {
            table_bytes: 16 << 30,
            selectivity_pct,
            row_bytes: 64,
        };
        for placement in [AnalyticsPlacement::Host, AnalyticsPlacement::NearStorage] {
            scenarios.push(Box::new(q.scenario(placement)));
        }
    }
    let results = executor.run_all(scenarios);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. NEAR-DATA ANALYTICS (selective scan + aggregate, 16 GB table)"
    );
    for (sel, pair) in SELECTIVITIES.iter().zip(results.chunks(2)) {
        let (host, near) = (&pair[0].report, &pair[1].report);
        let _ = writeln!(
            s,
            "  selectivity {:>3}%   host {:>12}   near-storage {:>12}   speedup {:>5.2}x",
            sel,
            host.makespan.to_string(),
            near.makespan.to_string(),
            host.makespan.as_secs_f64() / near.makespan.as_secs_f64()
        );
    }
    s
}

/// Renders the multi-tenant co-run extension experiment.
#[must_use]
pub fn render_extension_corun(executor: &dyn ScenarioExecutor) -> String {
    use reach_analytics::{co_run_interference_with, ScanQuery};
    let q = ScanQuery {
        table_bytes: 8 << 30,
        selectivity_pct: 2,
        row_bytes: 64,
    };
    let r = co_run_interference_with(executor, 6, &q);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. MULTI-TENANT CO-RUN (CBIR proper mapping + 8 GB near-storage scan)"
    );
    let _ = writeln!(
        s,
        "  CBIR : alone {:>12}, shared {:>12}  (slowdown {:.2}x)",
        r.cbir_alone.to_string(),
        r.cbir_shared.to_string(),
        r.cbir_slowdown()
    );
    let _ = writeln!(
        s,
        "  scan : alone {:>12}, shared {:>12}  (slowdown {:.2}x)",
        r.scan_alone.to_string(),
        r.scan_shared.to_string(),
        r.scan_slowdown()
    );
    let _ = writeln!(
        s,
        "  -> the tenants collide only on the near-storage level; the GAM's\n\
            per-level queues and buffer isolation bound the damage."
    );
    s
}

/// Renders the fleet scatter-gather extension experiment: the CBIR dataset
/// sharded across N machines per placement level, queries scattered from an
/// aggregator and per-shard partial top-K gathered back over the
/// inter-machine link.
#[must_use]
pub fn render_extension_fleet(executor: &dyn ScenarioExecutor) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. FLEET SCATTER-GATHER (N dataset shards, partial top-K merged at the aggregator)"
    );
    for r in reach_cbir::fleet::fleet_scatter_gather_with(executor) {
        let _ = writeln!(s, "  {r}");
    }
    let _ = writeln!(
        s,
        "  -> sharding divides the centroid store and rerank volume per machine;\n\
         \x20    the rack link and the serial merge set the floor."
    );
    s
}

/// Renders the graph-analytics extension experiment: BFS and PageRank as
/// pipelines over the hierarchy, swept across placements and graph scales.
/// The printed frontier sizes and residuals come from the host-side
/// reference traversal, so this stdout doubles as a correctness witness.
#[must_use]
pub fn render_extension_graph(executor: &dyn ScenarioExecutor) -> String {
    use reach_graph::scenarios::{GRAPH_DEGREE, GRAPH_SCALES};
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. GRAPH ANALYTICS (BFS + PageRank, avg degree {GRAPH_DEGREE}, \
         scales {GRAPH_SCALES:?})"
    );
    for r in reach_graph::graph_sweep_with(executor) {
        let _ = writeln!(s, "  {r}");
    }
    let _ = writeln!(
        s,
        "  -> the traversal kernels are gather-bound: near-memory wins once the\n\
         \x20    frontier stops fitting the on-chip gather window, while the\n\
         \x20    near-storage edge-list rescan pays the full list every level."
    );
    s
}

/// Renders the graph + CBIR co-run extension experiment: open-loop CBIR
/// traffic served while PageRank batch jobs gather on the same near-memory
/// level, with per-tenant admission ledgers, latency quantiles and the DDR
/// / AIMbus contention gauges.
#[must_use]
pub fn render_extension_graph_corun(executor: &dyn ScenarioExecutor) -> String {
    use reach_graph::co_run::{CORUN_OFFERED, CORUN_QUEUE_DEPTH};
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. GRAPH + CBIR CO-RUN ({CORUN_OFFERED} offered query batches, \
         admission queue depth {CORUN_QUEUE_DEPTH}, PageRank batch tenant near memory)"
    );
    for r in reach_graph::graph_corun_rows_with(executor) {
        let _ = writeln!(s, "  {r}");
    }
    let _ = writeln!(
        s,
        "  -> the batch tenant's gathers hold near-memory slots the short-list\n\
         \x20    stage needs: the p99 delta is the price of co-residency, and the\n\
         \x20    contended-cycle gauges show where it was paid."
    );
    s
}

/// Renders the open-loop traffic-serving extension experiment: Poisson
/// query-batch arrivals swept across rates at every placement behind a
/// bounded admission queue, reporting admission/rejection counts and
/// latency quantiles — the saturation knee per placement — plus a bursty
/// arrival point and its bit-for-bit trace replay.
#[must_use]
pub fn render_extension_traffic(executor: &dyn ScenarioExecutor) -> String {
    use reach_cbir::traffic::{TRAFFIC_OFFERED, TRAFFIC_QUEUE_DEPTH};
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION. TRAFFIC SERVING (open-loop arrivals, {TRAFFIC_OFFERED} offered batches, \
         admission queue depth {TRAFFIC_QUEUE_DEPTH})"
    );
    for r in reach_cbir::traffic::traffic_knee_with(executor) {
        let _ = writeln!(s, "  {r}");
    }
    let _ = writeln!(
        s,
        "  -> each placement saturates where rejections appear and tail latency flattens\n\
         \x20    at the queue bound; the trace row replays the bursty arrivals bit-for-bit."
    );
    s
}

/// A named experiment renderer. Every renderer drives its simulations
/// through the given executor, so the whole suite parallelizes with one
/// [`ScenarioRunner`] — with output byte-identical to sequential.
pub type Renderer = (&'static str, fn(&dyn ScenarioExecutor) -> String);

/// Every renderer keyed by the experiment id accepted on the command line.
#[must_use]
pub fn renderers() -> Vec<Renderer> {
    vec![
        (
            "table1",
            render_table1 as fn(&dyn ScenarioExecutor) -> String,
        ),
        ("table2", render_table2),
        ("table3", render_table3),
        ("table4", render_table4),
        ("fig8", render_fig8),
        ("fig9", render_fig9),
        ("fig10", render_fig10),
        ("fig11", render_fig11),
        ("fig12", render_fig12),
        ("fig13", render_fig13),
        ("ablation-poll", render_ablation_poll),
        ("ablation-reconfig", render_ablation_reconfig),
        ("ablation-pipelining", render_ablation_pipelining),
        ("ablation-tile", render_ablation_tile),
        ("ablation-batch", render_ablation_batch),
        ("ablation-candidates", render_ablation_candidates),
        ("ablation-rerank-home", render_ablation_rerank_home),
        ("ablation-interleave", render_ablation_interleave),
        ("extension-recall", render_extension_recall),
        ("extension-analytics", render_extension_analytics),
        ("extension-corun", render_extension_corun),
        // Appended last: the golden stdout/fingerprint files are append-only,
        // so new experiments must not reorder existing output.
        ("extension-fleet", render_extension_fleet),
        ("extension-traffic", render_extension_traffic),
        ("extension-graph", render_extension_graph),
        ("extension-graph-corun", render_extension_graph_corun),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    use reach::SequentialExecutor;

    #[test]
    fn all_renderers_produce_output() {
        for (name, f) in renderers() {
            let out = f(&SequentialExecutor);
            assert!(out.len() > 40, "{name} output too short:\n{out}");
        }
    }

    #[test]
    fn fig13_render_mentions_headline() {
        let out = render_fig13(&SequentialExecutor);
        assert!(out.contains("throughput"));
        assert!(out.contains("paper 4.5x"));
    }
}
