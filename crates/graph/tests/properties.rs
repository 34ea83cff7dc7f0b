//! Property tests over the graph structures and reference algorithms.

use proptest::prelude::*;
use rand::Rng;
use reach::Scenario;
use reach_graph::csr::rmat_edges;
use reach_graph::{
    bfs_levels, pagerank, pagerank_pipeline, Graph, GraphKind, GraphPlacement, GraphScenario,
    GraphSpec, GraphWorkload, Traversal, PAGERANK_DAMPING,
};
use std::collections::BinaryHeap;
use std::sync::OnceLock;

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

/// The RMAT generator as it was before its integer-threshold descent: one
/// `gen_range(0.0..1.0)` draw per level and a three-way branch on the
/// canonical (0.57, 0.19, 0.19, 0.05) skew. The reference the branch-free
/// descent must equal edge for edge.
fn rmat_edges_f64(nodes: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = reach_sim::rng::derived(seed, "graph-rmat");
    let levels = 32 - (nodes - 1).leading_zeros().min(31);
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..levels {
            u <<= 1;
            v <<= 1;
            let p: f64 = rng.gen_range(0.0..1.0);
            if p < 0.57 {
                // quadrant a: (0, 0)
            } else if p < 0.76 {
                v |= 1;
            } else if p < 0.95 {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u < nodes && v < nodes && u != v {
            edges.push((u, v));
        }
    }
    edges
}

/// The CSR build as it was before the counting sort: scatter by source,
/// then sort every row. Returns each node's neighbor list.
fn sorted_rows(nodes: u32, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut rows = vec![Vec::new(); nodes as usize];
    for &(u, v) in edges {
        rows[u as usize].push(v);
    }
    for row in &mut rows {
        row.sort_unstable();
    }
    rows
}

/// Asserts that `Graph::from_edges` equals the sort-per-row reference:
/// equal node and edge counts and equal rows fix `row_ptr` and `col`.
fn assert_csr_matches_reference(nodes: u32, edges: &[(u32, u32)]) {
    let g = Graph::from_edges(nodes, edges);
    assert_eq!(g.node_count(), nodes);
    assert_eq!(g.edge_count(), edges.len() as u64);
    for (u, row) in sorted_rows(nodes, edges).iter().enumerate() {
        assert_eq!(g.neighbors(u as u32), row.as_slice(), "row {u}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The branch-free RMAT descent draws the same edges, in the same
    /// order, as the f64 reference — at power-of-two node counts and at
    /// counts whose quadrant descent overshoots and resamples.
    #[test]
    fn rmat_descent_matches_the_f64_reference(
        nodes in 2u32..70_001,
        log2 in 1u32..17,
        power_of_two in any::<bool>(),
        avg_degree in 1u32..9,
        seed in any::<u64>(),
    ) {
        let nodes = if power_of_two { 1 << log2 } else { nodes };
        let count = (nodes * avg_degree) as usize;
        prop_assert_eq!(
            rmat_edges(nodes, count, seed),
            rmat_edges_f64(nodes, count, seed),
            "{} nodes, degree {}, seed {}", nodes, avg_degree, seed
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The counting-sort CSR equals the sort-per-row reference on random
    /// multigraphs. Small node counts force duplicate edges and
    /// self-loops; short edge lists leave nodes isolated, down to none.
    #[test]
    fn csr_build_matches_sort_per_row(
        nodes in 1u32..48,
        raw in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..200),
    ) {
        let edges: Vec<(u32, u32)> = raw.iter().map(|&(u, v)| (u % nodes, v % nodes)).collect();
        assert_csr_matches_reference(nodes, &edges);
    }
}

#[test]
fn csr_build_handles_empty_and_degenerate_edge_lists() {
    assert_csr_matches_reference(0, &[]);
    assert_csr_matches_reference(5, &[]);
    assert_csr_matches_reference(1, &[(0, 0), (0, 0)]);
    assert_csr_matches_reference(4, &[(3, 1), (3, 1), (3, 0), (3, 3), (0, 3), (3, 1)]);
}

#[test]
#[should_panic(expected = "Graph::from_edges: endpoint 2->5 out of range")]
fn csr_build_rejects_out_of_range_endpoints() {
    let _ = Graph::from_edges(5, [(0, 1), (2, 5)]);
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

/// The encoded reports of two real graph scenarios (BFS, PageRank),
/// `graph.*` metrics and all, simulated once per test process.
fn encoded_graph_reports() -> &'static [Vec<u8>; 2] {
    static REPORTS: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    REPORTS.get_or_init(|| {
        GraphWorkload::ALL.map(|workload| {
            let spec = spec_of(256, 4, true, 11);
            let report = GraphScenario::new(spec, workload, GraphPlacement::NearMemory).execute();
            assert!(
                report
                    .metrics
                    .iter()
                    .any(|(name, _)| name.starts_with("graph.")),
                "no graph metrics to corrupt"
            );
            reach::codec::encode_report(&report)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Graph rows are rebuilt from replayed reports, so the codec must
    /// survive any single-bit corruption of one: an error or a report,
    /// never a panic.
    #[test]
    fn bit_flipped_graph_reports_decode_or_error(
        pagerank in any::<bool>(),
        bit in 0usize..usize::MAX,
    ) {
        let mut bytes = encoded_graph_reports()[usize::from(pagerank)].clone();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = reach::codec::decode_report(&bytes);
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
