//! Compressed-sparse-row graphs and their deterministic generators.
//!
//! The graph is the *data* side of the workload model: the simulated
//! kernels' cost comes from the traversal shape (how many edges each BFS
//! frontier scans, how many rank entries each PageRank iteration touches),
//! and that shape is computed here, on the host, from a real CSR structure
//! — not mocked. Everything derives from a [`GraphSpec`] through
//! [`reach_sim::rng`] streams, so the same spec always yields the same
//! graph, bit for bit, at any thread count.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// Which generator family a [`GraphSpec`] draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphKind {
    /// Uniform random: every edge's endpoints drawn independently.
    Uniform,
    /// RMAT-style skewed: recursive quadrant descent with the canonical
    /// (0.57, 0.19, 0.19, 0.05) probabilities, yielding the power-law
    /// degree distribution real web/social graphs show.
    Rmat,
    /// A small fixed graph with a hand-checkable BFS tree (see
    /// [`Graph::golden`]); `nodes`, `avg_degree` and `seed` are ignored.
    Golden,
}

impl GraphKind {
    /// Stable lower-case name for labels and fingerprints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Uniform => "uniform",
            GraphKind::Rmat => "rmat",
            GraphKind::Golden => "golden",
        }
    }
}

/// Everything that determines a generated graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GraphSpec {
    /// Node count (rounded up to a power of two internally by the RMAT
    /// quadrant descent; stored counts are exact).
    pub nodes: u32,
    /// Average out-degree: the generator draws `nodes * avg_degree` edges.
    pub avg_degree: u32,
    /// Generator family.
    pub kind: GraphKind,
    /// Seed for the generator's RNG stream.
    pub seed: u64,
}

impl GraphSpec {
    /// Node count of the graph [`GraphSpec::build`] returns — the one
    /// definition shared with the count-priced lowering
    /// ([`crate::pipeline::pagerank_pipeline`]).
    ///
    /// # Panics
    ///
    /// Same conditions as [`GraphSpec::edge_count`].
    #[must_use]
    pub fn node_count(&self) -> u32 {
        match self.kind {
            GraphKind::Golden => GOLDEN_NODES,
            _ => {
                // A spec `build()` rejects has no node count either.
                self.generated_edge_count();
                self.nodes
            }
        }
    }

    /// Directed edge count of the graph [`GraphSpec::build`] returns: the
    /// generators keep every drawn edge (duplicates included), so this is
    /// exactly `nodes * avg_degree`.
    ///
    /// # Panics
    ///
    /// Panics for a generated kind if `nodes < 2`, `avg_degree` is zero, or
    /// `nodes * avg_degree` exceeds `u32::MAX` (the CSR's row pointers are
    /// `u32`).
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        match self.kind {
            GraphKind::Golden => GOLDEN_EDGES.len() as u64,
            _ => self.generated_edge_count(),
        }
    }

    /// The validated edge count of a generated kind.
    fn generated_edge_count(&self) -> u64 {
        assert!(
            self.nodes > 1 && self.avg_degree > 0,
            "GraphSpec: degenerate graph ({} nodes, average degree {})",
            self.nodes,
            self.avg_degree
        );
        let edges = u64::from(self.nodes) * u64::from(self.avg_degree);
        assert!(
            edges <= u64::from(u32::MAX),
            "GraphSpec: {} nodes x average degree {} = {edges} edges exceeds the \
             u32 CSR limit of {}",
            self.nodes,
            self.avg_degree,
            u32::MAX
        );
        edges
    }

    /// Builds the graph this spec describes. Up to 65,536 nodes the
    /// generator writes each edge as one packed `u32`, which cuts the
    /// build's peak memory from 12 to 8 bytes per edge; the CSR is the
    /// same either way.
    ///
    /// # Panics
    ///
    /// Same conditions as [`GraphSpec::edge_count`].
    #[must_use]
    pub fn build(&self) -> Graph {
        match self.kind {
            GraphKind::Golden => Graph::golden(),
            _ if self.nodes <= PACKED_MAX_NODES => self.generate::<PackedEdge>(),
            _ => self.generate::<(u32, u32)>(),
        }
    }

    /// Draws a generated kind's edges as `E` words and builds the CSR.
    fn generate<E: Edge>(&self) -> Graph {
        let count = self.edge_count() as usize;
        let edges: Vec<E> = match self.kind {
            GraphKind::Uniform => uniform_edges(self.nodes, count, self.seed),
            GraphKind::Rmat => rmat_edges_as(self.nodes, count, self.seed),
            GraphKind::Golden => unreachable!("the golden graph is not generated"),
        };
        Graph::from_edge_words(self.nodes, edges)
    }

    /// Stable label, e.g. `rmat/4096`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.kind {
            GraphKind::Golden => "golden".to_string(),
            _ => format!("{}/{}", self.kind.name(), self.nodes),
        }
    }
}

/// Node count of [`Graph::golden`].
const GOLDEN_NODES: u32 = 8;

/// Edge list of [`Graph::golden`]: a two-level tree plus a back edge and a
/// cross edge.
const GOLDEN_EDGES: [(u32, u32); 8] = [
    (0, 1),
    (0, 2),
    (1, 3),
    (1, 4),
    (2, 5),
    (5, 6),
    (6, 2), // back edge
    (3, 5), // cross edge
];

/// Largest node count whose edges [`GraphSpec::build`] packs into one
/// `u32`: every endpoint is then below 2¹⁶.
const PACKED_MAX_NODES: u32 = 1 << 16;

/// One directed edge as the generators write it and the CSR build reads
/// it.
trait Edge: Copy {
    fn new(u: u32, v: u32) -> Self;
    /// `(source, destination)`.
    fn ends(self) -> (u32, u32);
}

impl Edge for (u32, u32) {
    fn new(u: u32, v: u32) -> Self {
        (u, v)
    }

    fn ends(self) -> (u32, u32) {
        self
    }
}

/// An edge of a graph of at most [`PACKED_MAX_NODES`] nodes, as
/// `u << 16 | v`.
#[derive(Clone, Copy)]
struct PackedEdge(u32);

impl Edge for PackedEdge {
    fn new(u: u32, v: u32) -> Self {
        PackedEdge(u << 16 | v)
    }

    fn ends(self) -> (u32, u32) {
        (self.0 >> 16, self.0 & 0xffff)
    }
}

/// The uniform generator's raw output: `count` directed edges. Its two
/// `u128 %` draws per edge stay: a bit-identical rewrite as three `u64`
/// mods measured slower (DESIGN.md, "Graph generation").
fn uniform_edges<E: Edge>(nodes: u32, count: usize, seed: u64) -> Vec<E> {
    let mut rng = reach_sim::rng::derived(seed, "graph-uniform");
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let u = rng.gen_range(0..nodes);
        let v = rng.gen_range(0..nodes);
        if u != v {
            edges.push(E::new(u, v));
        }
    }
    edges
}

/// One RMAT threshold as an integer bound on the raw 53-bit draw.
///
/// The vendored `gen_range(0.0..1.0)` returns exactly `m·2⁻⁵³`, where
/// `m = next_u64() >> 11`. Every canonical threshold lies in `[0.5, 1)`,
/// where consecutive `f64`s are `2⁻⁵³` apart, so `t·2⁵³` is an integer `T`
/// and `m·2⁻⁵³ < t` holds exactly when `m < T`. The assert makes the
/// exactness a compile-time check.
const fn rmat_threshold(t: f64) -> u64 {
    let scaled = t * (1u64 << 53) as f64;
    let bound = scaled as u64;
    assert!(
        bound as f64 == scaled,
        "RMAT threshold is not exact in 53 bits"
    );
    bound
}

/// Quadrant a ends here: the canonical skew is (a, b, c, d) =
/// (0.57, 0.19, 0.19, 0.05).
const RMAT_A: u64 = rmat_threshold(0.57);
/// Quadrant b ends here.
const RMAT_AB: u64 = rmat_threshold(0.76);
/// Quadrant c ends here; quadrant d takes the rest.
const RMAT_ABC: u64 = rmat_threshold(0.95);

/// One RMAT endpoint pair: descend `log2(n)` quadrant levels with the
/// canonical skew. Each level consumes one draw and picks its quadrant
/// with three compares and no branch: `u`'s bit is set in quadrants c and
/// d (`m ≥ AB`), `v`'s in b and d.
fn rmat_edge(rng: &mut StdRng, levels: u32) -> (u32, u32) {
    let (mut u, mut v) = (0u32, 0u32);
    for _ in 0..levels {
        let m = rng.next_u64() >> 11;
        let u_bit = m >= RMAT_AB;
        let v_bit = ((m >= RMAT_A) & !u_bit) | (m >= RMAT_ABC);
        u = (u << 1) | u32::from(u_bit);
        v = (v << 1) | u32::from(v_bit);
    }
    (u, v)
}

/// The RMAT generator's raw output: `count` directed edges, in draw order.
/// Public only so the equivalence tests can compare it with the `f64`
/// reference descent.
#[doc(hidden)]
#[must_use]
pub fn rmat_edges(nodes: u32, count: usize, seed: u64) -> Vec<(u32, u32)> {
    rmat_edges_as(nodes, count, seed)
}

/// [`rmat_edges`] as `E` words.
fn rmat_edges_as<E: Edge>(nodes: u32, count: usize, seed: u64) -> Vec<E> {
    let mut rng = reach_sim::rng::derived(seed, "graph-rmat");
    let levels = 32 - (nodes - 1).leading_zeros().min(31);
    let mut edges = Vec::with_capacity(count);
    while edges.len() < count {
        let (u, v) = rmat_edge(&mut rng, levels);
        // The quadrant descent covers the power-of-two closure of the node
        // range; resample anything past the requested count (and loops).
        if u < nodes && v < nodes && u != v {
            edges.push(E::new(u, v));
        }
    }
    edges
}

/// Turns per-node counts into running totals in place.
fn inclusive_sums(counts: &mut [u32]) {
    let mut acc = 0u32;
    for c in counts {
        acc += *c;
        *c = acc;
    }
}

/// A directed graph in compressed-sparse-row form.
///
/// # Example
///
/// ```
/// use reach_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
/// assert_eq!(g.out_degree(0), 2);
/// assert_eq!(g.neighbors(1), &[2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    nodes: u32,
    row_ptr: Vec<u32>,
    col: Vec<u32>,
}

impl Graph {
    /// Builds the CSR from a directed edge list (duplicates kept — a
    /// multigraph stays a multigraph, which is what makes the round trip
    /// through [`Graph::edges`] exact). Rows are sorted, so equal edge
    /// multisets yield equal CSRs whatever order the edges come in.
    ///
    /// The build is a two-pass counting sort, with no per-row sort:
    ///
    /// - pass one buckets every edge's source by destination;
    /// - pass two walks the destinations from the highest down and places
    ///   each at the back of its sources' rows. Every row fills back to
    ///   front in descending order, so it reads ascending.
    ///
    /// Both passes fill from the ends, so the inclusive degree sums walk
    /// down to the exclusive ones and no cursor array is needed. An owned
    /// `Vec` is freed between the passes, so the edge list and the column
    /// array are never alive at once.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    #[must_use]
    pub fn from_edges<L: AsRef<[(u32, u32)]>>(nodes: u32, edges: L) -> Self {
        Self::from_edge_words(nodes, edges)
    }

    /// [`Graph::from_edges`] over any edge word.
    fn from_edge_words<E: Edge, L: AsRef<[E]>>(nodes: u32, edges: L) -> Self {
        let n = nodes as usize;
        let list = edges.as_ref();
        let mut row_ptr = vec![0u32; n + 1];
        let mut bucket_ptr = vec![0u32; n + 1];
        for &e in list {
            let (u, v) = e.ends();
            assert!(
                u < nodes && v < nodes,
                "Graph::from_edges: endpoint {u}->{v} out of range"
            );
            row_ptr[u as usize] += 1;
            bucket_ptr[v as usize] += 1;
        }
        inclusive_sums(&mut row_ptr);
        inclusive_sums(&mut bucket_ptr);

        let mut srcs = vec![0u32; list.len()];
        for &e in list {
            let (u, v) = e.ends();
            let end = &mut bucket_ptr[v as usize];
            *end -= 1;
            srcs[*end as usize] = u;
        }
        drop(edges);

        let mut col = vec![0u32; srcs.len()];
        for v in (0..n).rev() {
            for &u in &srcs[bucket_ptr[v] as usize..bucket_ptr[v + 1] as usize] {
                let end = &mut row_ptr[u as usize];
                *end -= 1;
                col[*end as usize] = v as u32;
            }
        }
        Graph {
            nodes,
            row_ptr,
            col,
        }
    }

    /// The fixed golden graph: 8 nodes, a two-level tree plus a back edge
    /// and a cross edge, with BFS levels from node 0 of
    /// `[0, 1, 1, 2, 2, 2, 3, unreachable]`.
    #[must_use]
    pub fn golden() -> Self {
        Graph::from_edges(GOLDEN_NODES, GOLDEN_EDGES)
    }

    /// Node count.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Directed edge count.
    #[must_use]
    pub fn edge_count(&self) -> u64 {
        self.col.len() as u64
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn out_degree(&self, u: u32) -> u32 {
        self.row_ptr[u as usize + 1] - self.row_ptr[u as usize]
    }

    /// Out-neighbors of `u`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn neighbors(&self, u: u32) -> &[u32] {
        &self.col[self.row_ptr[u as usize] as usize..self.row_ptr[u as usize + 1] as usize]
    }

    /// The raw CSR arrays `(row_ptr, col)`, for the digest tests.
    #[cfg(test)]
    pub(crate) fn csr(&self) -> (&[u32], &[u32]) {
        (&self.row_ptr, &self.col)
    }

    /// Reconstructs the edge list, sorted by `(source, destination)` —
    /// exactly the generator's edge multiset.
    #[must_use]
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.col.len());
        for u in 0..self.nodes {
            for &v in self.neighbors(u) {
                out.push((u, v));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_graph_shape() {
        let g = Graph::golden();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.out_degree(7), 0);
    }

    #[test]
    fn generators_are_deterministic() {
        for kind in [GraphKind::Uniform, GraphKind::Rmat] {
            let spec = GraphSpec {
                nodes: 256,
                avg_degree: 4,
                kind,
                seed: 42,
            };
            assert_eq!(spec.build(), spec.build(), "{kind:?} not reproducible");
        }
    }

    #[test]
    fn seed_changes_the_graph() {
        let a = GraphSpec {
            nodes: 256,
            avg_degree: 4,
            kind: GraphKind::Uniform,
            seed: 1,
        };
        let b = GraphSpec { seed: 2, ..a };
        assert_ne!(a.build(), b.build());
    }

    #[test]
    fn generated_edge_counts_are_exact() {
        for kind in [GraphKind::Uniform, GraphKind::Rmat] {
            let g = GraphSpec {
                nodes: 512,
                avg_degree: 8,
                kind,
                seed: 7,
            }
            .build();
            assert_eq!(g.edge_count(), 512 * 8, "{kind:?}");
        }
    }

    #[test]
    fn golden_counts_ignore_the_size_fields() {
        let spec = GraphSpec {
            nodes: 0,
            avg_degree: 0,
            kind: GraphKind::Golden,
            seed: 0,
        };
        assert_eq!((spec.node_count(), spec.edge_count()), (8, 8));
        let g = spec.build();
        assert_eq!((g.node_count(), g.edge_count()), (8, 8));
    }

    fn generated(nodes: u32, avg_degree: u32) -> GraphSpec {
        GraphSpec {
            nodes,
            avg_degree,
            kind: GraphKind::Uniform,
            seed: 1,
        }
    }

    #[test]
    #[should_panic(expected = "degenerate graph (1 nodes, average degree 4)")]
    fn single_node_spec_is_rejected() {
        let _ = generated(1, 4).node_count();
    }

    #[test]
    #[should_panic(expected = "degenerate graph (64 nodes, average degree 0)")]
    fn zero_degree_spec_is_rejected() {
        let _ = generated(64, 0).edge_count();
    }

    #[test]
    #[should_panic(expected = "131072 nodes x average degree 65536 = 8589934592 edges exceeds")]
    fn edge_count_past_the_u32_csr_is_rejected() {
        // Rejected before any edge is drawn: `build` asks for the count
        // first, so this never allocates the 64 GiB edge list.
        let _ = generated(1 << 17, 1 << 16).build();
    }

    #[test]
    fn rmat_is_skewed_uniform_is_not() {
        let max_deg = |kind| {
            let g = GraphSpec {
                nodes: 1024,
                avg_degree: 8,
                kind,
                seed: 3,
            }
            .build();
            (0..1024).map(|u| g.out_degree(u)).max().unwrap()
        };
        let rmat = max_deg(GraphKind::Rmat);
        let uniform = max_deg(GraphKind::Uniform);
        assert!(
            rmat > 2 * uniform,
            "RMAT hub degree {rmat} not clearly above uniform max {uniform}"
        );
    }

    #[test]
    fn from_edges_keeps_duplicates_and_sorts_rows() {
        let g = Graph::from_edges(3, [(0, 2), (2, 0), (0, 1), (0, 2)]);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(0), &[1, 2, 2]);
        assert_eq!(g.out_degree(1), 0);
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (0, 2), (2, 0)]);
    }

    #[test]
    fn edge_order_does_not_change_the_csr() {
        let mut edges = Graph::golden().edges();
        edges.reverse();
        assert_eq!(Graph::from_edges(GOLDEN_NODES, edges), Graph::golden());
    }

    #[test]
    fn packed_builds_equal_pair_builds_at_the_packing_limit() {
        // 65,536 nodes is the largest packed spec, 65,537 the smallest
        // unpacked one: both must equal the CSR of the generator's pairs.
        for nodes in [PACKED_MAX_NODES, PACKED_MAX_NODES + 1] {
            for kind in [GraphKind::Uniform, GraphKind::Rmat] {
                let spec = GraphSpec {
                    nodes,
                    avg_degree: 2,
                    kind,
                    seed: 11,
                };
                let count = spec.edge_count() as usize;
                let pairs = match kind {
                    GraphKind::Uniform => uniform_edges::<(u32, u32)>(nodes, count, spec.seed),
                    _ => rmat_edges(nodes, count, spec.seed),
                };
                assert_eq!(
                    spec.build(),
                    Graph::from_edges(nodes, pairs),
                    "{kind:?} at {nodes} nodes"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "endpoint 1->3 out of range")]
    fn edge_endpoint_out_of_range_rejected() {
        let _ = Graph::from_edges(3, [(0, 1), (1, 3)]);
    }
}
