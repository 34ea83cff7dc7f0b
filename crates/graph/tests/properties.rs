//! Property tests over the graph structures and reference algorithms.

use proptest::prelude::*;
use reach_graph::{
    bfs_levels, pagerank, pagerank_pipeline, Graph, GraphKind, GraphPlacement, GraphSpec,
    GraphWorkload, Traversal, PAGERANK_DAMPING,
};
use std::collections::BinaryHeap;

/// Dijkstra with unit edge weights: the independent oracle for BFS levels.
/// Same reachability semantics, completely different traversal order.
fn unit_dijkstra(g: &Graph, source: u32) -> Vec<u32> {
    let n = g.node_count() as usize;
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut heap = BinaryHeap::new();
    heap.push((std::cmp::Reverse(0u32), source));
    while let Some((std::cmp::Reverse(d), u)) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &v in g.neighbors(u) {
            let nd = d + 1;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push((std::cmp::Reverse(nd), v));
            }
        }
    }
    dist
}

/// Builds the spec the raw drawn inputs describe (the vendored proptest
/// has no `prop_map`, so the mapping lives here).
fn spec_of(nodes: u32, avg_degree: u32, rmat: bool, seed: u64) -> GraphSpec {
    GraphSpec {
        nodes,
        avg_degree,
        kind: if rmat {
            GraphKind::Rmat
        } else {
            GraphKind::Uniform
        },
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// BFS levels equal unit-weight Dijkstra distances on arbitrary
    /// generated graphs — including the unreachable (`u32::MAX`) nodes.
    #[test]
    fn bfs_levels_match_unit_dijkstra(
        nodes in 2u32..200,
        avg_degree in 1u32..8,
        rmat in any::<bool>(),
        seed in any::<u64>(),
        source_ix in 0u32..200,
    ) {
        let g = spec_of(nodes, avg_degree, rmat, seed).build();
        let source = source_ix % g.node_count();
        let bfs = bfs_levels(&g, source);
        prop_assert_eq!(&bfs.levels, &unit_dijkstra(&g, source));
    }

    /// Rank mass is conserved: every PageRank iterate sums to 1 within
    /// 1e-9, for any generated graph, damping in (0, 1) and depth.
    #[test]
    fn pagerank_conserves_mass(
        nodes in 2u32..200,
        avg_degree in 1u32..8,
        rmat in any::<bool>(),
        seed in any::<u64>(),
        iterations in 1usize..6,
        d_millis in 1u32..1000,
    ) {
        let g = spec_of(nodes, avg_degree, rmat, seed).build();
        let d = f64::from(d_millis) / 1000.0;
        let r = pagerank(&g, iterations, d);
        let sum: f64 = r.ranks.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "rank mass {} drifted", sum);
        prop_assert_eq!(r.residuals.len(), iterations);
    }

    /// The CSR round-trips the generator's edge multiset: rebuilding a
    /// graph from `edges()` reproduces it exactly, and `edges()` is the
    /// sorted edge list.
    #[test]
    fn csr_round_trips_the_edge_list(
        nodes in 2u32..200,
        avg_degree in 1u32..8,
        rmat in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = spec_of(nodes, avg_degree, rmat, seed).build();
        let edges = g.edges();
        prop_assert_eq!(edges.len() as u64, g.edge_count());
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&sorted, &edges, "edges() not sorted by (src, dst)");
        prop_assert_eq!(&Graph::from_edges(g.node_count(), &edges), &g);
    }

    /// Frontier accounting is consistent on arbitrary graphs: sizes are
    /// positive, they sum to the reachable-node count, and the scanned
    /// edges per level equal the out-degrees of that frontier.
    #[test]
    fn bfs_frontier_accounting_is_exact(
        nodes in 2u32..200,
        avg_degree in 1u32..8,
        rmat in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let g = spec_of(nodes, avg_degree, rmat, seed).build();
        let r = bfs_levels(&g, 0);
        prop_assert!(r.frontier_sizes.iter().all(|&f| f > 0));
        let reachable = r.levels.iter().filter(|&&l| l != u32::MAX).count() as u64;
        prop_assert_eq!(r.visited(), reachable);
        for (depth, &scanned) in r.edges_scanned.iter().enumerate() {
            let expected: u64 = (0..g.node_count())
                .filter(|&u| r.levels[u as usize] == depth as u32)
                .map(|u| u64::from(g.out_degree(u)))
                .sum();
            prop_assert_eq!(scanned, expected, "level {}", depth);
        }
    }

    /// The co-run prices PageRank from the spec alone. That is sound only
    /// while the generators keep every drawn edge: the spec's counts must
    /// be the built graph's, and the count-priced pipeline must be the one
    /// priced from a real traversal, at every placement.
    #[test]
    fn count_priced_pagerank_matches_the_built_graph(
        nodes in 2u32..200,
        avg_degree in 1u32..8,
        rmat in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let spec = spec_of(nodes, avg_degree, rmat, seed);
        let g = spec.build();
        prop_assert_eq!(g.node_count(), spec.node_count());
        prop_assert_eq!(g.edge_count(), spec.edge_count());
        let traversal = Traversal::run(&spec, GraphWorkload::Pagerank);
        for placement in GraphPlacement::ALL {
            prop_assert_eq!(
                pagerank_pipeline(&spec, placement).fingerprint(),
                traversal.lower(placement).fingerprint(),
                "{}", placement.name()
            );
        }
    }
}

#[test]
fn golden_spec_counts_are_the_golden_graph() {
    let spec = GraphSpec {
        nodes: 1 << 20,
        avg_degree: 64,
        kind: GraphKind::Golden,
        seed: 3,
    };
    let g = spec.build();
    assert_eq!(g.node_count(), spec.node_count());
    assert_eq!(g.edge_count(), spec.edge_count());
    let traversal = Traversal::run(&spec, GraphWorkload::Pagerank);
    for placement in GraphPlacement::ALL {
        assert_eq!(
            pagerank_pipeline(&spec, placement).fingerprint(),
            traversal.lower(placement).fingerprint()
        );
    }
}

#[test]
fn damping_envelope_in_the_paper_setting() {
    // Non-property anchor: the canonical damping on a midsize graph keeps
    // residuals strictly decreasing for a deep run.
    let g = GraphSpec {
        nodes: 4096,
        avg_degree: 8,
        kind: GraphKind::Rmat,
        seed: 17,
    }
    .build();
    let r = pagerank(&g, 12, PAGERANK_DAMPING);
    for w in r.residuals.windows(2) {
        assert!(w[1] < w[0]);
    }
}
