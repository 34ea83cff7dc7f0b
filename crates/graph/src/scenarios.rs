//! The `extension-graph` experiment: placement × scale sweep of the graph
//! workloads.
//!
//! Each point runs one workload (BFS on an RMAT graph, PageRank on a
//! uniform graph) at one placement and one scale, and reports the makespan
//! plus the traversal shape — frontier sizes for BFS, per-iteration L1
//! residuals for PageRank. The shape numbers come from the host-side
//! reference run, so the printed rows double as a correctness witness
//! (frontiers positive and summing to the visited count; residuals
//! strictly decreasing) pinned by the committed golden stdout.
//!
//! Determinism contract: graphs derive from fixed seeds through
//! [`reach_sim::rng`] streams, simulation from the event queue — every row
//! is byte-identical at any `--jobs` and replays through the
//! scenario-result cache (fingerprint `reach-graph-v1`).

use crate::csr::{GraphKind, GraphSpec};
use crate::pipeline::{GraphPlacement, GraphWorkload, Traversal, WorkloadShape};
use crate::templates::graph_blueprint;
use reach::fingerprint::ConfigFingerprint;
use reach::{Machine, MachineBlueprint, Pipeline, RunReport, Scenario, ScenarioExecutor};
use reach_sim::FingerprintBuilder;
use std::fmt;

/// Node counts swept per workload × placement.
pub const GRAPH_SCALES: [u32; 3] = [1024, 4096, 16384];

/// Average out-degree of every swept graph.
pub const GRAPH_DEGREE: u32 = 8;

/// One graph sweep point: a workload on a generated graph at a placement.
#[derive(Clone, Debug)]
pub struct GraphScenario {
    label: String,
    blueprint: MachineBlueprint,
    spec: GraphSpec,
    workload: GraphWorkload,
    placement: GraphPlacement,
    /// Lowered once at construction; `run` and `config_fingerprint` share it.
    pipeline: Pipeline,
    batches: usize,
    seed: u64,
}

impl GraphScenario {
    /// A sweep point on the paper-shape machine with the graph kernels
    /// registered, traversing `spec`'s graph for this point alone. The
    /// graph seed derives from the session seed, so `--seed N` reshuffles
    /// every generated graph at once.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (see [`GraphSpec::edge_count`]).
    #[must_use]
    pub fn new(spec: GraphSpec, workload: GraphWorkload, placement: GraphPlacement) -> Self {
        Self::lowered(spec, workload, placement, &Traversal::run(&spec, workload))
    }

    /// A sweep point lowered from `traversal`, which must be `workload` run
    /// on `spec`'s graph.
    fn lowered(
        spec: GraphSpec,
        workload: GraphWorkload,
        placement: GraphPlacement,
        traversal: &Traversal,
    ) -> Self {
        GraphScenario {
            label: format!(
                "graph/{}/{}/{}",
                workload.name(),
                placement.name(),
                spec.label()
            ),
            blueprint: graph_blueprint(),
            spec,
            workload,
            placement,
            pipeline: traversal.lower(placement),
            batches: 1,
            seed: reach_sim::rng::session_seed(),
        }
    }

    /// The graph spec this point traverses.
    #[must_use]
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }
}

impl Scenario for GraphScenario {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.blueprint.clone()
    }

    fn run(&self, machine: &mut Machine) -> RunReport {
        self.pipeline.run(machine, self.batches)
    }

    /// Everything `run` consumes: machine shape, the compiled pipeline
    /// (which itself digests the traversal shape, hence the graph), the
    /// generating spec, workload, placement, batch count and seed.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-graph-v1");
        self.blueprint.fingerprint().write_into(&mut b);
        self.pipeline.fingerprint().write_into(&mut b);
        b.write_debug(&self.spec);
        b.write_str(self.workload.name());
        b.write_str(self.placement.name());
        b.write_usize(self.batches);
        b.write_u64(self.seed);
        Some(ConfigFingerprint::from_builder(b))
    }
}

/// One rendered sweep row.
#[derive(Clone, Debug)]
pub struct GraphRow {
    /// Workload name (`bfs` / `pagerank`).
    pub workload: &'static str,
    /// Placement name.
    pub placement: &'static str,
    /// Graph label, e.g. `rmat/4096`.
    pub graph: String,
    /// Directed edge count.
    pub edges: u64,
    /// Simulated makespan, ms.
    pub makespan_ms: f64,
    /// Edge traversals per simulated second.
    pub events_per_sec: f64,
    /// Traversal shape: frontier sizes (BFS) or residuals (PageRank).
    pub shape: WorkloadShape,
}

impl GraphRow {
    /// Edge-traversal events this row's run performed (BFS: edges scanned
    /// over all frontiers; PageRank: edges × iterations).
    #[must_use]
    pub fn events(&self) -> u64 {
        match &self.shape {
            WorkloadShape::Bfs(r) => r.edges_scanned.iter().sum(),
            WorkloadShape::Pagerank { residuals } => self.edges * residuals.len() as u64,
        }
    }
}

impl fmt::Display for GraphRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>8} {:>12} {:>12}  {:>8} edges  {:>10.3}ms  {:>12.0} ev/s  ",
            self.workload,
            self.placement,
            self.graph,
            self.edges,
            self.makespan_ms,
            self.events_per_sec
        )?;
        match &self.shape {
            WorkloadShape::Bfs(r) => {
                write!(f, "frontiers [")?;
                for (i, s) in r.frontier_sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "] visited {}", r.visited())
            }
            WorkloadShape::Pagerank { residuals } => {
                write!(f, "residuals [")?;
                for (i, r) in residuals.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{r:.3e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// The swept (workload, graph kind) pairs.
const SWEEP: [(GraphWorkload, GraphKind); 2] = [
    (GraphWorkload::Bfs, GraphKind::Rmat),
    (GraphWorkload::Pagerank, GraphKind::Uniform),
];

/// Runs the placement × scale sweep through `executor` and reduces each
/// point to a [`GraphRow`]. Each (workload, scale) graph is generated and
/// traversed once; its placements, their fingerprints and its rows all
/// share that traversal.
#[must_use]
pub fn graph_sweep_with(executor: &dyn ScenarioExecutor) -> Vec<GraphRow> {
    let seed = reach_sim::rng::session_seed();
    let mut scenarios: Vec<Box<dyn Scenario>> = Vec::new();
    let mut rows = Vec::new();
    for (workload, kind) in SWEEP {
        let traversals: Vec<(GraphSpec, Traversal)> = GRAPH_SCALES
            .iter()
            .map(|&nodes| {
                let spec = GraphSpec {
                    nodes,
                    avg_degree: GRAPH_DEGREE,
                    kind,
                    seed,
                };
                (spec, Traversal::run(&spec, workload))
            })
            .collect();
        for placement in GraphPlacement::ALL {
            for (spec, t) in &traversals {
                scenarios.push(Box::new(GraphScenario::lowered(
                    *spec, workload, placement, t,
                )));
                rows.push(GraphRow {
                    workload: workload.name(),
                    placement: placement.name(),
                    graph: spec.label(),
                    edges: t.edges,
                    makespan_ms: 0.0,
                    events_per_sec: 0.0,
                    shape: t.shape.clone(),
                });
            }
        }
    }

    for (row, res) in rows.iter_mut().zip(executor.run_all(scenarios)) {
        let makespan = res.report.makespan;
        row.makespan_ms = makespan.as_ms_f64();
        row.events_per_sec = row.events() as f64 / makespan.as_secs_f64();
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    fn spec() -> GraphSpec {
        GraphSpec {
            nodes: 1024,
            avg_degree: 8,
            kind: GraphKind::Rmat,
            seed: reach_sim::rng::session_seed(),
        }
    }

    #[test]
    fn sweep_graphs_are_bit_pinned() {
        // The golden stdout pins only BFS frontiers and PageRank residuals;
        // this pins every row pointer and column of the six sweep graphs.
        // The digest was taken before the branch-free RMAT descent and the
        // counting-sort CSR build replaced the f64 descent and per-row sort.
        let mut fp = FingerprintBuilder::new("graph-sweep-csr");
        for (_, kind) in SWEEP {
            for nodes in GRAPH_SCALES {
                let g = GraphSpec {
                    nodes,
                    avg_degree: GRAPH_DEGREE,
                    kind,
                    seed: reach_sim::rng::DEFAULT_SEED,
                }
                .build();
                let (row_ptr, col) = g.csr();
                for array in [row_ptr, col] {
                    let bytes: Vec<u8> = array.iter().flat_map(|x| x.to_le_bytes()).collect();
                    fp.write_bytes(&bytes);
                }
            }
        }
        assert_eq!(fp.finish().to_string(), "043f0656fd3e1fa14cd0e8f2280b9f7d");
    }

    fn point() -> GraphScenario {
        GraphScenario::new(spec(), GraphWorkload::Bfs, GraphPlacement::NearMemory)
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = spec();
        let at = |spec, workload, placement| GraphScenario::new(spec, workload, placement);
        let nm = GraphPlacement::NearMemory;
        let bfs = GraphWorkload::Bfs;
        let mut variants = vec![
            at(
                GraphSpec {
                    nodes: 2048,
                    ..base
                },
                bfs,
                nm,
            ),
            at(
                GraphSpec {
                    seed: base.seed ^ 1,
                    ..base
                },
                bfs,
                nm,
            ),
            at(
                GraphSpec {
                    kind: GraphKind::Uniform,
                    ..base
                },
                bfs,
                nm,
            ),
            at(base, GraphWorkload::Pagerank, nm),
            at(base, bfs, GraphPlacement::NearStorage),
        ];
        let mut v = point();
        v.batches = 2;
        variants.push(v);
        let mut v = point();
        v.seed ^= 1;
        variants.push(v);

        let mut seen = vec![point().config_fingerprint().unwrap()];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.config_fingerprint().unwrap();
            assert!(
                !seen.contains(&fp),
                "variant {i} did not change the fingerprint"
            );
            seen.push(fp);
        }
    }

    #[test]
    fn equal_fingerprints_mean_byte_identical_rows() {
        let a = point();
        let b = point();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(
            a.execute().makespan,
            b.execute().makespan,
            "equal fingerprints must replay identically"
        );

        // The sweep lowers every placement from one shared traversal; each
        // such point must be the point built on its own.
        for workload in GraphWorkload::ALL {
            let t = Traversal::run(&spec(), workload);
            for placement in GraphPlacement::ALL {
                let shared = GraphScenario::lowered(spec(), workload, placement, &t);
                let alone = GraphScenario::new(spec(), workload, placement);
                let what = format!("{} at {}", workload.name(), placement.name());
                assert_eq!(
                    shared.config_fingerprint(),
                    alone.config_fingerprint(),
                    "{what}"
                );
                assert_eq!(
                    shared.execute().makespan,
                    alone.execute().makespan,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn sweep_rows_cover_the_grid_with_sound_traversal_shapes() {
        let rows = graph_sweep_with(&SequentialExecutor);
        assert_eq!(rows.len(), 2 * 3 * GRAPH_SCALES.len());
        for row in &rows {
            assert!(row.makespan_ms > 0.0, "{}: empty run", row.graph);
            match &row.shape {
                WorkloadShape::Bfs(r) => {
                    assert!(r.frontier_sizes.iter().all(|&f| f > 0));
                    let by_levels = r.levels.iter().filter(|&&l| l != u32::MAX).count() as u64;
                    assert_eq!(r.visited(), by_levels);
                }
                WorkloadShape::Pagerank { residuals } => {
                    assert!(residuals.len() >= 2, "too few residuals in {}", row.graph);
                    for w in residuals.windows(2) {
                        assert!(w[1] < w[0], "residual rose in {}", row.graph);
                    }
                }
            }
        }
    }
}
