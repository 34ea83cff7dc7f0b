//! The IVF (inverted-file) index: short-list retrieval + rerank.
//!
//! This is the online pipeline of Section IV-A, functionally:
//!
//! 1. **Short-list retrieval** — decomposed distances (Equation 1) from the
//!    query batch to the centroids, read against the `||c||^2` column the
//!    index stores alongside them, then the `nprobe` nearest clusters per
//!    query form its short list.
//! 2. **Rerank** — gather the member points of the short-listed clusters
//!    (optionally capped, as the paper caps candidates at 4096), compute
//!    exact distances (Equation 2) and keep the top K.

use crate::kmeans::kmeans;
use crate::linalg::{batch_dist_sq_with_norms, dist_sq, Matrix};
use crate::topk::top_k;
use rand::Rng;

/// An inverted-file index over a point set. It keeps each centroid's
/// squared norm next to the centroid, computed once at build time, so a
/// short-list pass costs one GEMM plus broadcast adds.
///
/// # Example
///
/// ```
/// use reach_cbir::{Dataset, IvfIndex};
/// use reach_sim::rng::seeded;
///
/// let mut rng = seeded(3);
/// let ds = Dataset::gaussian_mixture(500, 8, 5, 0.3, &mut rng);
/// let index = IvfIndex::build(&ds.points, 5, &mut rng);
/// let (queries, _) = ds.queries(2, 0.05, &mut rng);
/// let results = index.search(&ds.points, &queries, 2, 3, None);
/// assert_eq!(results.len(), 2);
/// assert_eq!(results[0].len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct IvfIndex {
    centroids: Matrix,
    /// `||c||^2` of each centroid, in centroid order.
    centroid_norms: Vec<f32>,
    /// Posting list per cluster: the indices of its member points.
    postings: Vec<Vec<usize>>,
}

/// The short list of one query: the probed cluster ids, nearest first.
pub type ShortList = Vec<usize>;

impl IvfIndex {
    /// Builds an index by clustering `points` into `clusters` cells
    /// (the paper's offline stage).
    ///
    /// # Panics
    ///
    /// Panics if `clusters` is zero or exceeds the point count.
    #[must_use]
    pub fn build(points: &Matrix, clusters: usize, rng: &mut impl Rng) -> Self {
        let clustering = kmeans(points, clusters, 30, rng);
        let mut postings = vec![Vec::new(); clusters];
        for (i, &c) in clustering.assignments.iter().enumerate() {
            postings[c].push(i);
        }
        IvfIndex {
            centroid_norms: crate::cache::norm_column(&clustering.centroids),
            centroids: clustering.centroids,
            postings,
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.postings.len()
    }

    /// The centroid matrix (`clusters x d`).
    #[must_use]
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// The posting list of cluster `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn posting(&self, c: usize) -> &[usize] {
        &self.postings[c]
    }

    /// Short-list retrieval for a query batch: the `nprobe` nearest
    /// clusters of each query, via one GEMM + broadcast add (Equation 1)
    /// over the stored centroid norms — the computation the GeMM
    /// accelerator template performs.
    ///
    /// # Panics
    ///
    /// Panics if `nprobe` is zero or exceeds the cluster count.
    #[must_use]
    pub fn short_lists(&self, queries: &Matrix, nprobe: usize) -> Vec<ShortList> {
        assert!(
            nprobe > 0 && nprobe <= self.clusters(),
            "short_lists: nprobe {nprobe} out of range"
        );
        let norms = crate::cache::read(&self.centroid_norms);
        let dists = batch_dist_sq_with_norms(queries, &self.centroids, norms);
        (0..queries.rows())
            .map(|qi| {
                top_k(
                    dists
                        .row(qi)
                        .iter()
                        .copied()
                        .enumerate()
                        .map(|(c, d)| (d, c)),
                    nprobe,
                )
                .into_iter()
                .map(|(_, c)| c)
                .collect()
            })
            .collect()
    }

    /// Rerank one query against the candidates of its short list, keeping
    /// the `k` nearest. `max_candidates` caps the candidate list (the paper
    /// uses 4096 "to make the simulation time manageable"); `None` scans
    /// every member of the probed clusters.
    ///
    /// Returns `(distance, point-index)` pairs, nearest first.
    #[must_use]
    pub fn rerank(
        &self,
        points: &Matrix,
        query: &[f32],
        short_list: &[usize],
        k: usize,
        max_candidates: Option<usize>,
    ) -> Vec<(f32, usize)> {
        let cap = max_candidates.unwrap_or(usize::MAX);
        let candidates = short_list
            .iter()
            .flat_map(|&c| self.postings[c].iter().copied())
            .take(cap);
        top_k(candidates.map(|i| (dist_sq(query, points.row(i)), i)), k)
    }

    /// The full online pipeline for a query batch: short lists then rerank.
    /// Returns each query's K nearest point indices.
    #[must_use]
    pub fn search(
        &self,
        points: &Matrix,
        queries: &Matrix,
        nprobe: usize,
        k: usize,
        max_candidates: Option<usize>,
    ) -> Vec<Vec<usize>> {
        let lists = self.short_lists(queries, nprobe);
        (0..queries.rows())
            .map(|qi| {
                self.rerank(points, queries.row(qi), &lists[qi], k, max_candidates)
                    .into_iter()
                    .map(|(_, i)| i)
                    .collect()
            })
            .collect()
    }

    /// Total candidate count a short list implies (before capping) — used
    /// by the timed workload to size rerank traffic.
    #[must_use]
    pub fn candidate_count(&self, short_list: &[usize]) -> usize {
        short_list.iter().map(|&c| self.postings[c].len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{recall, Dataset};
    use reach_sim::rng::seeded;

    fn setup() -> (Dataset, IvfIndex, Matrix, Vec<Vec<usize>>) {
        let mut rng = seeded(31);
        let ds = Dataset::gaussian_mixture(2_000, 16, 24, 0.4, &mut rng);
        let index = IvfIndex::build(&ds.points, 24, &mut rng);
        let (queries, _) = ds.queries(20, 0.05, &mut rng);
        let truth = ds.ground_truth(&queries, 10);
        (ds, index, queries, truth)
    }

    #[test]
    fn postings_partition_the_dataset() {
        let (ds, index, _, _) = setup();
        let total: usize = (0..index.clusters()).map(|c| index.posting(c).len()).sum();
        assert_eq!(total, ds.len());
        // No duplicates across postings.
        let mut seen = vec![false; ds.len()];
        for c in 0..index.clusters() {
            for &i in index.posting(c) {
                assert!(!seen[i], "point {i} in two clusters");
                seen[i] = true;
            }
        }
    }

    #[test]
    fn search_with_enough_probes_matches_brute_force() {
        let (ds, index, queries, truth) = setup();
        // Probing every cluster must be exact.
        let got = index.search(&ds.points, &queries, index.clusters(), 10, None);
        let r = recall(&got, &truth, 10);
        assert!(
            (r.recall_at_k - 1.0).abs() < 1e-12,
            "recall {}",
            r.recall_at_k
        );
    }

    #[test]
    fn few_probes_keep_high_recall_on_clustered_data() {
        let (ds, index, queries, truth) = setup();
        let got = index.search(&ds.points, &queries, 4, 10, None);
        let r = recall(&got, &truth, 10);
        assert!(
            r.recall_at_k > 0.9,
            "recall@10 {} with nprobe=4",
            r.recall_at_k
        );
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let (ds, index, queries, truth) = setup();
        let r1 = recall(&index.search(&ds.points, &queries, 1, 10, None), &truth, 10);
        let r4 = recall(&index.search(&ds.points, &queries, 4, 10, None), &truth, 10);
        let rall = recall(
            &index.search(&ds.points, &queries, index.clusters(), 10, None),
            &truth,
            10,
        );
        assert!(r1.recall_at_k <= r4.recall_at_k + 1e-9);
        assert!(r4.recall_at_k <= rall.recall_at_k + 1e-9);
    }

    #[test]
    fn candidate_cap_limits_work() {
        let (ds, index, queries, _) = setup();
        let lists = index.short_lists(&queries, 4);
        let full = index.candidate_count(&lists[0]);
        let capped = index.rerank(&ds.points, queries.row(0), &lists[0], 10, Some(32));
        assert!(capped.len() <= 10);
        assert!(full > 32, "test needs more candidates than the cap");
    }

    #[test]
    fn stored_norm_distances_match_batch_dist_sq_bitwise() {
        let (_, index, queries, _) = setup();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Several batches against the one stored column: each must equal
        // the form that recomputes every centroid norm.
        for batch in 0..3 {
            let q = Matrix::from_vec(4, 16, queries.as_slice()[batch * 64..][..64].to_vec());
            let stored = batch_dist_sq_with_norms(&q, index.centroids(), &index.centroid_norms);
            let fresh = crate::linalg::batch_dist_sq(&q, index.centroids());
            assert_eq!(bits(&stored), bits(&fresh), "batch {batch} diverged");
        }
        let fresh = crate::linalg::batch_dist_sq(&queries, index.centroids());
        for (qi, list) in index.short_lists(&queries, 4).iter().enumerate() {
            let by_hand: Vec<usize> = top_k(fresh.row(qi).iter().copied().zip(0..), 4)
                .into_iter()
                .map(|(_, c)| c)
                .collect();
            assert_eq!(*list, by_hand, "query {qi}");
        }
    }

    #[test]
    fn short_lists_are_nearest_first() {
        let (_, index, queries, _) = setup();
        let lists = index.short_lists(&queries, 3);
        for (qi, list) in lists.iter().enumerate() {
            let d: Vec<f32> = list
                .iter()
                .map(|&c| crate::linalg::dist_sq(queries.row(qi), index.centroids().row(c)))
                .collect();
            assert!(
                d.windows(2).all(|w| w[0] <= w[1]),
                "unsorted short list {d:?}"
            );
        }
    }
}
