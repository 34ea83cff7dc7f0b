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
//! A point is keyed on its spec, not on its graph: the fingerprint
//! (`reach-graph-v2`) covers the blueprint, the [`GraphSpec`] (seed
//! included), workload, placement, batch count and session seed. The
//! lowered pipeline is a pure function of those plus code, and the
//! simulator version stamp keys code. So the graph is generated and
//! traversed only when a point actually simulates, and the traversal's
//! host-side numbers ride back in the report's `graph.*` metrics: every
//! row is built from its report alone, and a warm replay builds no graph.
//!
//! Determinism contract: graphs derive from fixed seeds through
//! [`reach_sim::rng`] streams, simulation from the event queue — every row
//! is byte-identical at any `--jobs` and replays through the
//! scenario-result cache.

use crate::csr::{GraphKind, GraphSpec};
use crate::pipeline::{GraphPlacement, GraphWorkload, Traversal, WorkloadShape};
use crate::templates::graph_blueprint;
use reach::fingerprint::ConfigFingerprint;
use reach::{
    Machine, MachineBlueprint, MetricsSnapshot, RunReport, Scenario, ScenarioExecutor, SharedSetup,
};
use reach_sim::FingerprintBuilder;
use std::fmt;
use std::sync::Arc;

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
    /// The host traversal, run on first use by `prepare` or `run` and
    /// shared by every placement of one (spec, workload) in a sweep. A
    /// point the result cache answers never fills it.
    traversal: Arc<SharedSetup<Traversal>>,
    batches: usize,
    seed: u64,
}

impl GraphScenario {
    /// A sweep point on the paper-shape machine with the graph kernels
    /// registered, traversing `spec`'s graph for this point alone. The
    /// graph seed derives from the session seed, so `--seed N` reshuffles
    /// every generated graph at once. Nothing is generated until the point
    /// is prepared or run.
    #[must_use]
    pub fn new(spec: GraphSpec, workload: GraphWorkload, placement: GraphPlacement) -> Self {
        Self::sharing(
            &graph_blueprint(),
            spec,
            workload,
            placement,
            &Arc::default(),
        )
    }

    /// A sweep point on (a clone of) `blueprint` whose traversal lives in
    /// `traversal`, which every point sharing it must key on the same
    /// `spec` and `workload`.
    fn sharing(
        blueprint: &MachineBlueprint,
        spec: GraphSpec,
        workload: GraphWorkload,
        placement: GraphPlacement,
        traversal: &Arc<SharedSetup<Traversal>>,
    ) -> Self {
        GraphScenario {
            label: format!(
                "graph/{}/{}/{}",
                workload.name(),
                placement.name(),
                spec.label()
            ),
            blueprint: blueprint.clone(),
            spec,
            workload,
            placement,
            traversal: Arc::clone(traversal),
            batches: 1,
            seed: reach_sim::rng::session_seed(),
        }
    }

    /// The graph spec this point traverses.
    #[must_use]
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }

    /// The host traversal, run on the first call (or awaited, if another
    /// point sharing it is running it).
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (see [`GraphSpec::edge_count`]).
    fn traversal(&self) -> &Traversal {
        self.traversal
            .get_or_build(|| Traversal::run(&self.spec, self.workload))
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

    /// Generates and traverses the graph, unless a point sharing this
    /// traversal already started to.
    fn prepare(&self) {
        self.traversal
            .prepare(|| Traversal::run(&self.spec, self.workload));
    }

    /// Lowers the traversal at this placement, simulates it, and records
    /// the traversal's host-side numbers in the report's `graph.*` metrics
    /// (see [`GraphRow::from_report`]).
    fn run(&self, machine: &mut Machine) -> RunReport {
        let traversal = self.traversal();
        let mut report = traversal.lower(self.placement).run(machine, self.batches);
        record_traversal(traversal, &mut report.metrics);
        report
    }

    /// Everything `run` consumes, as a spec: machine shape, the generating
    /// spec (its seed included), workload, placement, batch count and
    /// seed. The graph, its traversal and the lowered pipeline are pure
    /// functions of these plus code, and the simulator version stamp keys
    /// code — so this fingerprint is complete without building anything.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-graph-v2");
        self.blueprint.fingerprint().write_into(&mut b);
        b.write_debug(&self.spec);
        b.write_str(self.workload.name());
        b.write_str(self.placement.name());
        b.write_usize(self.batches);
        b.write_u64(self.seed);
        Some(ConfigFingerprint::from_builder(b))
    }
}

/// Writes `t`'s host-side numbers into `metrics`: `graph.edges`, then BFS's
/// `graph.bfs.levels` and per-level `graph.bfs.NN.{frontier,edges_scanned}`
/// counters, or PageRank's `graph.pagerank.iterations` counter and
/// per-iteration `graph.pagerank.NN.residual` gauges (exact through the
/// report codec, which stores `f64` bits).
fn record_traversal(t: &Traversal, metrics: &mut MetricsSnapshot) {
    metrics.set_counter("graph.edges", t.edges);
    match &t.shape {
        WorkloadShape::Bfs {
            frontier_sizes,
            edges_scanned,
        } => {
            metrics.set_counter("graph.bfs.levels", frontier_sizes.len() as u64);
            for (i, (&frontier, &scanned)) in frontier_sizes.iter().zip(edges_scanned).enumerate() {
                metrics.set_counter(format!("graph.bfs.{i:02}.frontier"), u64::from(frontier));
                metrics.set_counter(format!("graph.bfs.{i:02}.edges_scanned"), scanned);
            }
        }
        WorkloadShape::Pagerank { residuals } => {
            metrics.set_counter("graph.pagerank.iterations", residuals.len() as u64);
            for (i, &r) in residuals.iter().enumerate() {
                metrics.set_gauge(format!("graph.pagerank.{i:02}.residual"), r);
            }
        }
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
    /// The row of `workload` on `spec`'s graph at `placement`, from the
    /// report its [`GraphScenario`] produced — fresh or replayed, since the
    /// traversal's numbers travel in the report's `graph.*` metrics.
    ///
    /// # Panics
    ///
    /// Panics if the report lacks those metrics — possible only if a result
    /// cache replayed a report from a different scenario under a graph
    /// fingerprint.
    #[must_use]
    pub fn from_report(
        workload: GraphWorkload,
        placement: GraphPlacement,
        spec: &GraphSpec,
        report: &RunReport,
    ) -> Self {
        let counter = |name: &str| {
            report
                .metrics
                .counter(name)
                .unwrap_or_else(|| panic!("graph report missing {name}, or it is not a counter"))
        };
        let edges = counter("graph.edges");
        let shape = match workload {
            GraphWorkload::Bfs => {
                let levels = 0..counter("graph.bfs.levels");
                WorkloadShape::Bfs {
                    frontier_sizes: levels
                        .clone()
                        .map(|i| {
                            let f = counter(&format!("graph.bfs.{i:02}.frontier"));
                            u32::try_from(f).expect("frontier size fits u32")
                        })
                        .collect(),
                    edges_scanned: levels
                        .map(|i| counter(&format!("graph.bfs.{i:02}.edges_scanned")))
                        .collect(),
                }
            }
            GraphWorkload::Pagerank => WorkloadShape::Pagerank {
                residuals: (0..counter("graph.pagerank.iterations"))
                    .map(|i| {
                        let name = format!("graph.pagerank.{i:02}.residual");
                        report.metrics.gauge(&name).unwrap_or_else(|| {
                            panic!("graph report missing {name}, or it is not a gauge")
                        })
                    })
                    .collect(),
            },
        };
        let makespan = report.makespan;
        GraphRow {
            workload: workload.name(),
            placement: placement.name(),
            graph: spec.label(),
            edges,
            makespan_ms: makespan.as_ms_f64(),
            events_per_sec: shape.events(edges) as f64 / makespan.as_secs_f64(),
            shape,
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
            WorkloadShape::Bfs { frontier_sizes, .. } => {
                write!(f, "frontiers [")?;
                for (i, s) in frontier_sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                let visited: u64 = frontier_sizes.iter().map(|&s| u64::from(s)).sum();
                write!(f, "] visited {visited}")
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
/// point's report to a [`GraphRow`]. The points share one blueprint (so its
/// fingerprint is computed once), and the three placements of each
/// (workload, scale) share one traversal cell: a cold pass generates and
/// traverses each of the 6 graphs once, a warm replay none.
#[must_use]
pub fn graph_sweep_with(executor: &dyn ScenarioExecutor) -> Vec<GraphRow> {
    let blueprint = graph_blueprint();
    let seed = reach_sim::rng::session_seed();
    let mut scenarios: Vec<Box<dyn Scenario>> = Vec::new();
    let mut points = Vec::new();
    for (workload, kind) in SWEEP {
        let graphs: Vec<(GraphSpec, Arc<SharedSetup<Traversal>>)> = GRAPH_SCALES
            .iter()
            .map(|&nodes| {
                let spec = GraphSpec {
                    nodes,
                    avg_degree: GRAPH_DEGREE,
                    kind,
                    seed,
                };
                (spec, Arc::default())
            })
            .collect();
        for placement in GraphPlacement::ALL {
            for (spec, traversal) in &graphs {
                scenarios.push(Box::new(GraphScenario::sharing(
                    &blueprint, *spec, workload, placement, traversal,
                )));
                points.push((workload, placement, *spec));
            }
        }
    }

    points
        .iter()
        .zip(executor.run_all(scenarios))
        .map(|(&(workload, placement, spec), res)| {
            GraphRow::from_report(workload, placement, &spec, &res.report)
        })
        .collect()
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
    fn fingerprinting_builds_no_graph_and_prepare_traverses_once() {
        let a = point();
        let _ = a.config_fingerprint();
        assert!(a.traversal.get().is_none(), "fingerprinting traversed");

        // Placements sharing a cell traverse once between them, and a
        // second `prepare` is free.
        let cell = Arc::default();
        let bp = graph_blueprint();
        let at =
            |placement| GraphScenario::sharing(&bp, spec(), GraphWorkload::Bfs, placement, &cell);
        let (nm, ns) = (
            at(GraphPlacement::NearMemory),
            at(GraphPlacement::NearStorage),
        );
        nm.prepare();
        let first = nm.traversal() as *const Traversal;
        nm.prepare();
        ns.prepare();
        assert!(std::ptr::eq(first, nm.traversal()));
        assert!(std::ptr::eq(first, ns.traversal()));
    }

    #[test]
    fn equal_fingerprints_mean_byte_identical_rows() {
        let a = point();
        let b = point();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        let (ra, rb) = (a.execute(), b.execute());
        assert_eq!(
            ra.makespan, rb.makespan,
            "equal fingerprints must replay identically"
        );
        assert_eq!(ra.metrics, rb.metrics);

        // The sweep's points share a blueprint and a traversal; each such
        // point must be the point built on its own, and `prepare` must not
        // change what it reports.
        let bp = graph_blueprint();
        for workload in GraphWorkload::ALL {
            let cell = Arc::default();
            for placement in GraphPlacement::ALL {
                let shared = GraphScenario::sharing(&bp, spec(), workload, placement, &cell);
                shared.prepare();
                let alone = GraphScenario::new(spec(), workload, placement);
                let what = format!("{} at {}", workload.name(), placement.name());
                assert_eq!(
                    shared.config_fingerprint(),
                    alone.config_fingerprint(),
                    "{what}"
                );
                let (s, a) = (shared.execute(), alone.execute());
                assert_eq!(s.makespan, a.makespan, "{what}");
                assert_eq!(s.metrics, a.metrics, "{what}");
            }
        }
    }

    #[test]
    fn rows_from_replayed_reports_equal_rows_from_fresh_ones() {
        // A row is a function of its report alone, and the report codec
        // carries every number it needs bit-exactly.
        for workload in GraphWorkload::ALL {
            let point = GraphScenario::new(spec(), workload, GraphPlacement::OnChip);
            let fresh = point.execute();
            let replayed =
                reach::codec::decode_report(&reach::codec::encode_report(&fresh)).expect("decode");
            let row = |r| GraphRow::from_report(workload, GraphPlacement::OnChip, &spec(), r);
            let (a, b) = (row(&fresh), row(&replayed));
            assert_eq!(a.to_string(), b.to_string());
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.shape, point.traversal().shape, "{}", workload.name());
            assert_eq!(a.edges, point.traversal().edges);
        }
    }

    #[test]
    #[should_panic(expected = "graph report missing graph.edges")]
    fn a_report_without_graph_metrics_is_rejected() {
        let mut report = point().execute();
        report.metrics = MetricsSnapshot::new(report.metrics.horizon_ps());
        let _ = GraphRow::from_report(
            GraphWorkload::Bfs,
            GraphPlacement::NearMemory,
            &spec(),
            &report,
        );
    }

    #[test]
    fn sweep_rows_cover_the_grid_with_sound_traversal_shapes() {
        let rows = graph_sweep_with(&SequentialExecutor);
        assert_eq!(rows.len(), 2 * 3 * GRAPH_SCALES.len());
        for row in &rows {
            assert!(row.makespan_ms > 0.0, "{}: empty run", row.graph);
            match &row.shape {
                WorkloadShape::Bfs {
                    frontier_sizes,
                    edges_scanned,
                } => {
                    assert!(frontier_sizes.iter().all(|&f| f > 0));
                    assert_eq!(frontier_sizes.len(), edges_scanned.len());
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
