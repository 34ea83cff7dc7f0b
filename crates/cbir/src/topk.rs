//! Partial selection: the top-K smallest distances.
//!
//! Both short-list retrieval and rerank end in a partial sort ("a partial
//! sorting on the computed distances is required to produce the K-nearest
//! data points"). The implementation keeps a bounded max-heap, so selecting
//! K from N costs `O(N log K)` instead of a full sort's `O(N log N)`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, index)` candidate with a total order suitable for heaps:
/// NaN distances are rejected at construction.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Candidate {
    dist: f32,
    index: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: distance first, index as a deterministic tie-break.
        self.dist
            .partial_cmp(&other.dist)
            .expect("NaN rejected at insert")
            .then(self.index.cmp(&other.index))
    }
}

/// Selects the `k` smallest `(distance, index)` pairs, returned in
/// ascending distance order with index tie-breaks. `k` larger than the
/// input returns everything.
///
/// # Panics
///
/// Panics if any distance is NaN (a poisoned distance would silently
/// corrupt retrieval results).
///
/// # Example
///
/// ```
/// let dists = [3.0_f32, 1.0, 2.0, 0.5];
/// let top = reach_cbir::top_k(dists.iter().copied().enumerate().map(|(i, d)| (d, i)), 2);
/// assert_eq!(top, vec![(0.5, 3), (1.0, 1)]);
/// ```
#[must_use]
pub fn top_k(items: impl IntoIterator<Item = (f32, usize)>, k: usize) -> Vec<(f32, usize)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(k + 1);
    // Cache the current k-th best (the heap root) so a candidate that
    // cannot enter the top-K is rejected on one comparison, without even
    // peeking the heap. On realistic distance streams most candidates lose,
    // so this is the common path.
    let mut worst = Candidate {
        dist: f32::INFINITY,
        index: usize::MAX,
    };
    for (dist, index) in items {
        assert!(!dist.is_nan(), "top_k: NaN distance for index {index}");
        let c = Candidate { dist, index };
        if heap.len() < k {
            heap.push(c);
            if heap.len() == k {
                worst = *heap.peek().expect("non-empty heap");
            }
        } else if c < worst {
            heap.pop();
            heap.push(c);
            worst = *heap.peek().expect("non-empty heap");
        }
    }
    let mut out: Vec<Candidate> = heap.into_vec();
    out.sort_unstable();
    out.into_iter().map(|c| (c.dist, c.index)).collect()
}

/// Merges per-shard partial top-K lists into the global top-K.
///
/// Each shard list must carry **global** indices and hold that shard's own
/// `k` best candidates (a per-shard [`top_k`] output). Because every global
/// winner is, by definition, among its own shard's `k` best, re-selecting
/// over the chained partials recovers exactly the unsharded answer — same
/// distances, same index tie-breaks, same order. Empty shards contribute
/// nothing; shards smaller than `k` simply contribute everything they have.
///
/// # Panics
///
/// Panics if any distance is NaN (inherited from [`top_k`]).
///
/// # Example
///
/// ```
/// use reach_cbir::{merge_top_k, top_k};
/// let shard_a = top_k([(3.0, 0), (1.0, 2)], 2);
/// let shard_b = top_k([(2.0, 1), (0.5, 3)], 2);
/// assert_eq!(merge_top_k(&[shard_a, shard_b], 2), vec![(0.5, 3), (1.0, 2)]);
/// ```
#[must_use]
pub fn merge_top_k(shards: &[Vec<(f32, usize)>], k: usize) -> Vec<(f32, usize)> {
    top_k(shards.iter().flatten().copied(), k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn selects_smallest_in_order() {
        let d = [5.0, 1.0, 4.0, 2.0, 3.0];
        let got = top_k(d.iter().copied().enumerate().map(|(i, x)| (x, i)), 3);
        assert_eq!(got, vec![(1.0, 1), (2.0, 3), (3.0, 4)]);
    }

    #[test]
    fn k_zero_and_k_big() {
        let d = [(1.0, 0), (2.0, 1)];
        assert!(top_k(d, 0).is_empty());
        let all = top_k(d, 10);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn empty_stream_yields_empty_result() {
        // An empty candidate list (e.g. a rerank over zero survivors)
        // must come back empty, not panic.
        assert!(top_k(std::iter::empty(), 5).is_empty());
        assert!(top_k(std::iter::empty(), 0).is_empty());
    }

    #[test]
    fn ties_break_by_index() {
        let d = [(1.0, 2), (1.0, 0), (1.0, 1)];
        assert_eq!(top_k(d, 2), vec![(1.0, 0), (1.0, 1)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = top_k([(f32::NAN, 0)], 1);
    }

    #[test]
    fn merge_handles_empty_shards_and_oversized_k() {
        // Two empty shards, one tiny shard smaller than k.
        let shards = vec![Vec::new(), vec![(2.0, 5), (1.0, 7)], Vec::new()];
        assert_eq!(merge_top_k(&shards, 10), vec![(1.0, 7), (2.0, 5)]);
        assert!(merge_top_k(&[], 10).is_empty());
        assert!(merge_top_k(&shards, 0).is_empty());
    }

    #[test]
    fn infinities_rank_at_the_ends() {
        let d = [(f32::INFINITY, 0), (1.0, 1), (f32::NEG_INFINITY, 2)];
        assert_eq!(
            top_k(d, 3),
            vec![(f32::NEG_INFINITY, 2), (1.0, 1), (f32::INFINITY, 0)]
        );
        // An infinite distance still fills a slot when nothing beats it.
        assert_eq!(top_k([(f32::INFINITY, 4)], 1), vec![(f32::INFINITY, 4)]);
    }

    proptest! {
        /// top_k == sorted prefix, for every input and k.
        #[test]
        fn matches_full_sort(
            dists in proptest::collection::vec(-1e6f32..1e6, 0..200),
            k in 0usize..32,
        ) {
            let items: Vec<(f32, usize)> =
                dists.iter().copied().enumerate().map(|(i, d)| (d, i)).collect();
            let got = top_k(items.clone(), k);
            let mut want = items;
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            want.truncate(k);
            prop_assert_eq!(got, want);
        }

        /// The scatter-gather contract: partition the candidates across N
        /// shards (round-robin, preserving global indices), select k per
        /// shard, merge — the result equals the unsharded top_k exactly.
        /// Small inputs leave some shards empty, and k regularly exceeds a
        /// shard's size, so both edge cases are inside the search space.
        #[test]
        fn merged_shard_topk_equals_global_topk(
            dists in proptest::collection::vec(-1e6f32..1e6, 0..200),
            shards in 1usize..9,
            k in 0usize..32,
        ) {
            let items: Vec<(f32, usize)> =
                dists.iter().copied().enumerate().map(|(i, d)| (d, i)).collect();
            let mut parts: Vec<Vec<(f32, usize)>> = vec![Vec::new(); shards];
            for (i, item) in items.iter().enumerate() {
                parts[i % shards].push(*item);
            }
            let partials: Vec<Vec<(f32, usize)>> =
                parts.into_iter().map(|p| top_k(p, k)).collect();
            prop_assert_eq!(merge_top_k(&partials, k), top_k(items, k));
        }

        /// Duplicate distances everywhere: ties must break by global index
        /// identically on the sharded and unsharded paths.
        #[test]
        fn merge_breaks_ties_identically_to_global(
            n in 0usize..120,
            shards in 1usize..9,
            k in 0usize..32,
            quantum in 1u32..4,
        ) {
            // Coarsely quantized distances force heavy tie pressure.
            let items: Vec<(f32, usize)> = (0..n)
                .map(|i| (((i * 7919) % quantum as usize) as f32, i))
                .collect();
            let mut parts: Vec<Vec<(f32, usize)>> = vec![Vec::new(); shards];
            for (i, item) in items.iter().enumerate() {
                parts[i % shards].push(*item);
            }
            let partials: Vec<Vec<(f32, usize)>> =
                parts.into_iter().map(|p| top_k(p, k)).collect();
            prop_assert_eq!(merge_top_k(&partials, k), top_k(items, k));
        }
    }
}
