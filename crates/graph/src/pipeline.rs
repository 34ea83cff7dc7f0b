//! Graph workloads expressed as ReACH pipelines.
//!
//! A BFS run becomes one task per frontier level, chained through
//! same-level frontier streams; a PageRank run becomes one task per
//! iteration, chained through rank-vector streams. Building a pipeline is
//! two steps: a host [`Traversal`] (generate the graph, run the algorithm
//! of [`crate::algo`]) and a pure lowering of its shape and counts. A BFS
//! task's work comes from the edges its real frontier scanned; a PageRank
//! iteration touches every edge record and rank entry whatever the edges
//! are, so [`pagerank_pipeline`] prices it from the spec's counts without
//! building the graph. Placement decides the access shape the simulator
//! prices:
//!
//! * **DRAM levels (on-chip, near-memory)** — `Gather` in 64-byte lines:
//!   per-frontier irregular row activations (the near-memory path batches
//!   row reservations through `reserve_many` inside the DIMM model, and
//!   pays the closed-row conflict penalty per line);
//! * **near-storage** — `Stream` of the whole edge list per level /
//!   iteration: the semi-external pattern out-of-core graph engines use,
//!   because random 8-byte reads at 4 KiB flash-page granularity would be
//!   catastrophically worse than a full rescan.

use crate::algo::{bfs_levels, pagerank, PAGERANK_DAMPING};
use crate::csr::GraphSpec;
use crate::templates::graph_registry;
use reach::{Level, Pipeline, ReachConfig, StreamType, TaskWork};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per CSR edge record the kernels move (4 B destination id + 4 B
/// mark / rank-share payload).
pub const EDGE_BYTES: u64 = 8;

/// Bytes per rank-vector entry (one f64).
pub const RANK_BYTES: u64 = 8;

/// DRAM gather granule: one cache line.
pub const DRAM_GRANULE: u64 = 64;

/// PageRank iteration count every experiment uses — enough for the
/// residual trend to be unmistakable, few enough to keep the suite fast.
pub const PAGERANK_ITERATIONS: usize = 6;

/// Which graph algorithm a pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphWorkload {
    /// Level-synchronous breadth-first search from node 0.
    Bfs,
    /// Fixed-iteration PageRank ([`PAGERANK_ITERATIONS`] iterations).
    Pagerank,
}

impl GraphWorkload {
    /// All workloads, sweep order.
    pub const ALL: [GraphWorkload; 2] = [GraphWorkload::Bfs, GraphWorkload::Pagerank];

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphWorkload::Bfs => "bfs",
            GraphWorkload::Pagerank => "pagerank",
        }
    }
}

/// Where the graph kernels run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphPlacement {
    /// The on-chip accelerator (coherent, TLB-translated gathers).
    OnChip,
    /// Near-memory AIM modules (closed-row gathers on their own DIMMs).
    NearMemory,
    /// Near-storage units (edge-list streaming from the SSD).
    NearStorage,
}

impl GraphPlacement {
    /// All placements, sweep order.
    pub const ALL: [GraphPlacement; 3] = [
        GraphPlacement::OnChip,
        GraphPlacement::NearMemory,
        GraphPlacement::NearStorage,
    ];

    /// Stable name used in labels and rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphPlacement::OnChip => "on-chip",
            GraphPlacement::NearMemory => "near-memory",
            GraphPlacement::NearStorage => "near-storage",
        }
    }

    /// The config level this placement maps to.
    #[must_use]
    pub fn level(self) -> Level {
        match self {
            GraphPlacement::OnChip => Level::OnChip,
            GraphPlacement::NearMemory => Level::NearMem,
            GraphPlacement::NearStorage => Level::NearStor,
        }
    }

    /// The traversal / rank kernel template names at this placement.
    #[must_use]
    pub fn templates(self) -> (&'static str, &'static str) {
        match self {
            GraphPlacement::OnChip => ("GTRAV-VU9P", "GRANK-VU9P"),
            _ => ("GTRAV-ZCU9", "GRANK-ZCU9"),
        }
    }

    /// The work descriptor for `macs` of compute over `touched`
    /// randomly-addressed bytes when the full edge list holds
    /// `edge_list_bytes`: gather on DRAM levels, whole-list stream near
    /// storage (see the module docs).
    #[must_use]
    fn work(self, macs: u64, touched: u64, edge_list_bytes: u64) -> TaskWork {
        match self {
            GraphPlacement::NearStorage => TaskWork::stream(macs, edge_list_bytes.max(1)),
            _ => TaskWork::gather(macs, touched.max(1), DRAM_GRANULE),
        }
    }
}

/// The shape of a host traversal — everything the experiment rows print
/// about the host-side computation, and nothing per node.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadShape {
    /// BFS: the per-level frontier structure.
    Bfs {
        /// Frontier size per level, starting with `[1]` for the source.
        /// Every entry is positive; the sum is the reachable-node count.
        frontier_sizes: Vec<u32>,
        /// Edges scanned expanding each frontier (the gather volume of the
        /// corresponding simulated task).
        edges_scanned: Vec<u64>,
    },
    /// PageRank: the per-iteration L1 residuals.
    Pagerank {
        /// L1 distance between successive iterates.
        residuals: Vec<f64>,
    },
}

impl WorkloadShape {
    /// Edge-traversal events a run of this shape performs on a graph of
    /// `edges` edges (BFS: edges scanned over all frontiers; PageRank:
    /// edges × iterations).
    #[must_use]
    pub fn events(&self, edges: u64) -> u64 {
        match self {
            WorkloadShape::Bfs { edges_scanned, .. } => edges_scanned.iter().sum(),
            WorkloadShape::Pagerank { residuals } => edges * residuals.len() as u64,
        }
    }
}

/// Process-wide count of [`Traversal::run`] calls.
static TRAVERSALS: AtomicU64 = AtomicU64::new(0);

/// How many host traversals ([`Traversal::run`]) this process has run —
/// the observable behind "a cache hit builds no graph".
#[doc(hidden)]
#[must_use]
pub fn traversals_run() -> u64 {
    TRAVERSALS.load(Ordering::Relaxed)
}

/// One host traversal of a generated graph: the shape the rows print and
/// the counts the lowering prices. A traversal is placement-free, so one
/// serves every [`GraphPlacement`] of the same (spec, workload).
#[derive(Clone, Debug)]
pub struct Traversal {
    /// Host-side traversal summary.
    pub shape: WorkloadShape,
    /// Node count of the underlying graph.
    pub nodes: u32,
    /// Edge count of the underlying graph.
    pub edges: u64,
}

impl Traversal {
    /// Generates `spec`'s graph and runs `workload` on it.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (see [`GraphSpec::edge_count`]).
    #[must_use]
    pub fn run(spec: &GraphSpec, workload: GraphWorkload) -> Self {
        TRAVERSALS.fetch_add(1, Ordering::Relaxed);
        let g = spec.build();
        let shape = match workload {
            GraphWorkload::Bfs => {
                let r = bfs_levels(&g, 0);
                WorkloadShape::Bfs {
                    frontier_sizes: r.frontier_sizes,
                    edges_scanned: r.edges_scanned,
                }
            }
            GraphWorkload::Pagerank => WorkloadShape::Pagerank {
                residuals: pagerank(&g, PAGERANK_ITERATIONS, PAGERANK_DAMPING).residuals,
            },
        };
        Traversal {
            shape,
            nodes: g.node_count(),
            edges: g.edge_count(),
        }
    }

    /// Lowers this traversal to the pipeline at `placement`. BFS is priced
    /// from its real frontiers; PageRank from the counts alone, exactly as
    /// [`pagerank_pipeline`] prices it.
    #[must_use]
    pub fn lower(&self, placement: GraphPlacement) -> Pipeline {
        match &self.shape {
            WorkloadShape::Bfs {
                frontier_sizes,
                edges_scanned,
            } => {
                let (trav_tpl, _) = placement.templates();
                let steps: Vec<Step> = edges_scanned
                    .iter()
                    .zip(frontier_sizes)
                    .map(|(&scanned, &frontier)| {
                        (
                            trav_tpl,
                            scanned,                 // one compare-and-mark per edge
                            scanned * EDGE_BYTES,    // rows touched expanding the frontier
                            u64::from(frontier) * 4, // next-frontier hand-off
                            "frontier",
                        )
                    })
                    .collect();
                lower(self.nodes, self.edges, placement, &steps)
            }
            WorkloadShape::Pagerank { .. } => lower_pagerank(self.nodes, self.edges, placement),
        }
    }
}

/// The PageRank pipeline for `spec`'s graph at `placement`, priced from the
/// spec's counts without generating the graph: every iteration touches all
/// `|E|` edge records and hands off all `|V|` rank entries, whatever the
/// edges are.
///
/// # Panics
///
/// Panics if the spec is degenerate (see [`GraphSpec::edge_count`]).
#[must_use]
pub fn pagerank_pipeline(spec: &GraphSpec, placement: GraphPlacement) -> Pipeline {
    lower_pagerank(spec.node_count(), spec.edge_count(), placement)
}

fn lower_pagerank(nodes: u32, edges: u64, placement: GraphPlacement) -> Pipeline {
    let (_, rank_tpl) = placement.templates();
    let step = (
        rank_tpl,
        2 * edges, // multiply + accumulate per edge
        edges * EDGE_BYTES,
        u64::from(nodes) * RANK_BYTES,
        "rank-update",
    );
    lower(nodes, edges, placement, &[step; PAGERANK_ITERATIONS])
}

/// Per-step work: (template, macs, touched-bytes, hand-off bytes, stage).
type Step = (&'static str, u64, u64, u64, &'static str);

/// Lowers `steps` over a graph of `nodes` and `edges` to the pipeline at
/// `placement`.
fn lower(nodes: u32, edges: u64, placement: GraphPlacement, steps: &[Step]) -> Pipeline {
    let level = placement.level();
    let edge_list_bytes = edges * EDGE_BYTES;

    let mut rc = ReachConfig::new();
    // CSR footprint: the row-pointer array plus the column array.
    let csr_bytes = 4 * (u64::from(nodes) + 1) + 4 * edges;
    let csr = rc.create_fixed_buffer("csr", level, csr_bytes.max(1));

    // Chain the steps: seed stream from the CPU, one same-level hand-off
    // stream between consecutive steps, final results back to the CPU.
    // Stream wiring is what derives the task dependencies, so the GAM runs
    // the levels strictly in order — BFS is level-synchronous by
    // construction, not by luck.
    let seed_bytes = steps.first().map_or(4, |s| s.3);
    let mut input = rc.create_stream(Level::Cpu, level, StreamType::Pair, seed_bytes.max(4), 2);
    let mut calls = Vec::with_capacity(steps.len());
    for (i, &(tpl, macs, touched, hand_off, stage)) in steps.iter().enumerate() {
        let last = i + 1 == steps.len();
        let output = if last {
            rc.create_stream(level, Level::Cpu, StreamType::Pair, hand_off.max(4), 2)
        } else {
            rc.create_stream(level, level, StreamType::Pair, hand_off.max(4), 2)
        };
        let acc = rc.register_acc(tpl, level);
        rc.set_arg(acc, 0, csr);
        rc.set_arg(acc, 1, input);
        rc.set_arg(acc, 2, output);
        calls.push((acc, placement.work(macs, touched, edge_list_bytes), stage));
        input = output;
    }

    let mut pipeline = Pipeline::new(
        rc.build_with(&graph_registry())
            .expect("graph pipeline config"),
    );
    for (acc, work, stage) in calls {
        pipeline.call(acc, work, stage);
    }
    pipeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphKind;
    use crate::templates::graph_blueprint;

    fn spec() -> GraphSpec {
        GraphSpec {
            nodes: 512,
            avg_degree: 4,
            kind: GraphKind::Uniform,
            seed: 5,
        }
    }

    #[test]
    fn bfs_pipeline_has_one_task_per_level() {
        let t = Traversal::run(&spec(), GraphWorkload::Bfs);
        let WorkloadShape::Bfs { frontier_sizes, .. } = &t.shape else {
            panic!("bfs shape expected")
        };
        let mut machine = graph_blueprint().instantiate();
        let report = t.lower(GraphPlacement::NearMemory).run(&mut machine, 1);
        assert_eq!(report.jobs, 1);
        // One "frontier" task per BFS level.
        let frontier = report
            .stages
            .iter()
            .find(|s| s.name == "frontier")
            .expect("frontier stage");
        assert_eq!(frontier.tasks, frontier_sizes.len() as u64);
    }

    #[test]
    fn bfs_traversal_shape_accounts_for_every_reached_node() {
        // The shape keeps no per-node levels, so hold it to the full BFS
        // result on the swept graph kinds and scales: as many levels, every
        // frontier non-empty, and the frontiers summing to the nodes BFS
        // reached.
        use crate::scenarios::{GRAPH_DEGREE, GRAPH_SCALES};
        for kind in [GraphKind::Rmat, GraphKind::Uniform] {
            for nodes in GRAPH_SCALES {
                let spec = GraphSpec {
                    nodes,
                    avg_degree: GRAPH_DEGREE,
                    kind,
                    seed: reach_sim::rng::DEFAULT_SEED,
                };
                let t = Traversal::run(&spec, GraphWorkload::Bfs);
                let WorkloadShape::Bfs {
                    frontier_sizes,
                    edges_scanned,
                } = &t.shape
                else {
                    panic!("bfs shape expected")
                };
                let full = bfs_levels(&spec.build(), 0);
                assert_eq!(frontier_sizes, &full.frontier_sizes);
                assert_eq!(edges_scanned, &full.edges_scanned);
                assert!(frontier_sizes.iter().all(|&f| f > 0));
                let visited: u64 = frontier_sizes.iter().map(|&f| u64::from(f)).sum();
                let by_levels = full.levels.iter().filter(|&&l| l != u32::MAX).count() as u64;
                assert_eq!(visited, by_levels, "{}", spec.label());
                assert_eq!(t.nodes, spec.node_count());
                assert_eq!(t.edges, spec.edge_count());
            }
        }
    }

    #[test]
    fn pagerank_pipeline_runs_at_every_placement() {
        for placement in GraphPlacement::ALL {
            let mut machine = graph_blueprint().instantiate();
            let report = pagerank_pipeline(&spec(), placement).run(&mut machine, 1);
            assert_eq!(report.jobs, 1, "{}", placement.name());
            let rank = report
                .stages
                .iter()
                .find(|s| s.name == "rank-update")
                .expect("rank-update stage");
            assert_eq!(rank.tasks, PAGERANK_ITERATIONS as u64);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate graph")]
    fn count_priced_lowering_rejects_what_build_rejects() {
        let _ = pagerank_pipeline(
            &GraphSpec {
                avg_degree: 0,
                ..spec()
            },
            GraphPlacement::NearMemory,
        );
    }

    #[test]
    fn near_storage_costs_more_than_near_memory_per_level() {
        // Near-storage rescans the whole edge list per level while the DRAM
        // placements gather only the frontier's rows, so the out-of-core
        // run must take longer on the same workload.
        let t = Traversal::run(&spec(), GraphWorkload::Bfs);
        let run = |placement| {
            let mut machine = graph_blueprint().instantiate();
            t.lower(placement).run(&mut machine, 1).makespan
        };
        let nm = run(GraphPlacement::NearMemory);
        let ns = run(GraphPlacement::NearStorage);
        assert!(
            ns > nm,
            "edge-list streaming ({ns:?}) should dominate frontier gathers ({nm:?})"
        );
    }
}
