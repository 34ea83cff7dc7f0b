//! Graph-analytics workloads for the ReACH hierarchy, and their co-run
//! scenarios against CBIR traffic.
//!
//! The CBIR case study exercises the hierarchy with regular, dense-compute
//! pipelines. This crate adds the opposite pole — irregular, memory-bound
//! graph traversal — and then puts both on the *same* machine at the same
//! time:
//!
//! * [`csr`] — compressed-sparse-row graphs with deterministic generators
//!   (uniform random, RMAT-skewed, and a hand-checkable golden graph);
//! * [`algo`] — reference BFS and PageRank on the host, producing the
//!   traversal shapes the rows print (frontier sizes, residuals) and BFS's
//!   simulated kernels are priced from;
//! * [`templates`] — traversal and rank-update kernel templates for each
//!   hierarchy level, on top of the paper's Table III registry;
//! * [`pipeline`] — the workloads as ReACH pipelines: one task per BFS
//!   level / PageRank iteration, dependency-chained through frontier
//!   streams, with gather-shaped DRAM access and edge-list streaming at
//!   the near-storage level;
//! * [`scenarios`] — the `extension-graph` placement × scale sweep;
//! * [`co_run`] — the `extension-graph-corun` rows: CBIR open-loop traffic
//!   served while graph batch jobs run, with per-tenant latency accounting
//!   and the DDR/AIMbus contention gauges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod co_run;
pub mod csr;
pub mod pipeline;
pub mod scenarios;
pub mod templates;

pub use algo::{bfs_levels, pagerank, BfsResult, PagerankResult, PAGERANK_DAMPING};
pub use co_run::{graph_corun_rows_with, CorunRow};
pub use csr::{Graph, GraphKind, GraphSpec};
pub use pipeline::{
    pagerank_pipeline, GraphPlacement, GraphWorkload, Traversal, WorkloadShape, EDGE_BYTES,
    PAGERANK_ITERATIONS,
};
pub use scenarios::{graph_sweep_with, GraphRow, GraphScenario};
pub use templates::{graph_blueprint, graph_registry};
