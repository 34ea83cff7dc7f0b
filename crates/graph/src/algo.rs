//! Reference BFS and PageRank over [`Graph`], with the traversal-shape
//! summaries the simulated pipelines are priced from.
//!
//! These run on the host for real (integer frontiers, f64 ranks) — the
//! simulator prices *time*, not values, so the values must come from an
//! actual computation for the frontier sizes and residuals printed by the
//! experiments to mean anything. Both algorithms are strictly
//! deterministic: fixed iteration order, no data-dependent float
//! reassociation.

use crate::csr::Graph;

/// Level-synchronous BFS from `source`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BfsResult {
    /// Per-node level, `u32::MAX` for unreachable nodes.
    pub levels: Vec<u32>,
    /// Frontier size per level, starting with `[1]` for the source. Every
    /// entry is positive; the sum is the reachable-node count.
    pub frontier_sizes: Vec<u32>,
    /// Edges scanned expanding each frontier (the gather volume of the
    /// corresponding simulated task).
    pub edges_scanned: Vec<u64>,
}

impl BfsResult {
    /// Nodes reached, including the source.
    #[must_use]
    pub fn visited(&self) -> u64 {
        self.frontier_sizes.iter().map(|&f| u64::from(f)).sum()
    }
}

/// Runs level-synchronous BFS (the frontier-expansion shape the traversal
/// kernels simulate) from `source`.
///
/// # Panics
///
/// Panics if `source` is out of range.
#[must_use]
pub fn bfs_levels(g: &Graph, source: u32) -> BfsResult {
    assert!(source < g.node_count(), "bfs_levels: source out of range");
    let n = g.node_count() as usize;
    let mut levels = vec![u32::MAX; n];
    levels[source as usize] = 0;
    let mut frontier = vec![source];
    let mut frontier_sizes = Vec::new();
    let mut edges_scanned = Vec::new();
    let mut depth = 0u32;
    while !frontier.is_empty() {
        frontier_sizes.push(frontier.len() as u32);
        let mut scanned = 0u64;
        let mut next = Vec::new();
        for &u in &frontier {
            scanned += u64::from(g.out_degree(u));
            for &v in g.neighbors(u) {
                if levels[v as usize] == u32::MAX {
                    levels[v as usize] = depth + 1;
                    next.push(v);
                }
            }
        }
        edges_scanned.push(scanned);
        frontier = next;
        depth += 1;
    }
    BfsResult {
        levels,
        frontier_sizes,
        edges_scanned,
    }
}

/// Fixed-iteration PageRank.
#[derive(Clone, Debug, PartialEq)]
pub struct PagerankResult {
    /// Final rank per node; sums to 1 within float tolerance.
    pub ranks: Vec<f64>,
    /// L1 distance between successive iterates, one entry per iteration —
    /// strictly decreasing for damping < 1 on any fixed graph.
    pub residuals: Vec<f64>,
}

/// The damping factor every experiment uses.
pub const PAGERANK_DAMPING: f64 = 0.85;

/// Runs `iterations` of push-style PageRank with damping `d`, redistributing
/// dangling mass uniformly so every iterate sums to 1.
///
/// # Panics
///
/// Panics if the graph is empty, `iterations` is zero, or `d` is outside
/// `(0, 1)`.
#[must_use]
pub fn pagerank(g: &Graph, iterations: usize, d: f64) -> PagerankResult {
    let n = g.node_count() as usize;
    assert!(n > 0, "pagerank: empty graph");
    assert!(iterations > 0, "pagerank: zero iterations");
    assert!(d > 0.0 && d < 1.0, "pagerank: damping {d} outside (0, 1)");
    let uniform = 1.0 / n as f64;
    let mut ranks = vec![uniform; n];
    let mut residuals = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0f64;
        for (u, &rank) in ranks.iter().enumerate() {
            let deg = g.out_degree(u as u32);
            if deg == 0 {
                dangling += rank;
            } else {
                let share = rank / f64::from(deg);
                for &v in g.neighbors(u as u32) {
                    next[v as usize] += share;
                }
            }
        }
        let base = (1.0 - d) * uniform + d * dangling * uniform;
        let mut residual = 0.0f64;
        for u in 0..n {
            let r = base + d * next[u];
            residual += (r - ranks[u]).abs();
            ranks[u] = r;
        }
        residuals.push(residual);
    }
    PagerankResult { ranks, residuals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{GraphKind, GraphSpec};

    #[test]
    fn golden_bfs_levels_match_hand_computation() {
        let r = bfs_levels(&Graph::golden(), 0);
        assert_eq!(r.levels, vec![0, 1, 1, 2, 2, 2, 3, u32::MAX]);
        assert_eq!(r.frontier_sizes, vec![1, 2, 3, 1]);
        assert_eq!(r.visited(), 7);
        assert_eq!(r.edges_scanned.iter().sum::<u64>(), 8);
    }

    #[test]
    fn pagerank_sums_to_one_every_iteration() {
        let g = GraphSpec {
            nodes: 512,
            avg_degree: 4,
            kind: GraphKind::Rmat,
            seed: 9,
        }
        .build();
        // Re-run with increasing iteration counts: the *final* iterate of
        // each run is an intermediate iterate of the longest run.
        for iters in 1..=8 {
            let r = pagerank(&g, iters, PAGERANK_DAMPING);
            let sum: f64 = r.ranks.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "iteration {iters}: rank mass {sum} drifted"
            );
        }
    }

    #[test]
    fn pagerank_residuals_strictly_decrease() {
        let g = GraphSpec {
            nodes: 1024,
            avg_degree: 8,
            kind: GraphKind::Uniform,
            seed: 4,
        }
        .build();
        let r = pagerank(&g, 8, PAGERANK_DAMPING);
        assert_eq!(r.residuals.len(), 8);
        for w in r.residuals.windows(2) {
            assert!(w[1] < w[0], "residual rose: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn bfs_frontiers_partition_the_reachable_set() {
        let g = GraphSpec {
            nodes: 2048,
            avg_degree: 8,
            kind: GraphKind::Uniform,
            seed: 12,
        }
        .build();
        let r = bfs_levels(&g, 0);
        assert!(r.frontier_sizes.iter().all(|&f| f > 0));
        let by_levels = r.levels.iter().filter(|&&l| l != u32::MAX).count() as u64;
        assert_eq!(r.visited(), by_levels);
    }

    #[test]
    fn isolated_source_visits_only_itself() {
        let g = Graph::from_edges(3, [(1, 2)]);
        let r = bfs_levels(&g, 0);
        assert_eq!(r.levels, vec![0, u32::MAX, u32::MAX]);
        assert_eq!(r.frontier_sizes, vec![1]);
        assert_eq!(r.edges_scanned, vec![0]);
        assert_eq!(r.visited(), 1);
    }

    #[test]
    #[should_panic(expected = "source out of range")]
    fn bfs_source_out_of_range_rejected() {
        let _ = bfs_levels(&Graph::golden(), 8);
    }

    #[test]
    fn pagerank_of_a_cycle_is_uniform_from_the_start() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let r = pagerank(&g, 4, PAGERANK_DAMPING);
        for &rank in &r.ranks {
            assert!((rank - 1.0 / 3.0).abs() < 1e-15, "rank {rank}");
        }
        assert!(r.residuals.iter().all(|&x| x < 1e-15));
    }

    #[test]
    fn edgeless_graph_redistributes_dangling_mass_uniformly() {
        let g = Graph::from_edges(4, []);
        let r = pagerank(&g, 2, 0.5);
        assert!(r.ranks.iter().all(|&x| (x - 0.25).abs() < 1e-15));
    }

    #[test]
    #[should_panic(expected = "damping 1 outside (0, 1)")]
    fn pagerank_damping_of_one_rejected() {
        let _ = pagerank(&Graph::golden(), 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "zero iterations")]
    fn pagerank_zero_iterations_rejected() {
        let _ = pagerank(&Graph::golden(), 0, PAGERANK_DAMPING);
    }
}
