//! Synthetic datasets and retrieval-quality metrics.
//!
//! The billion-scale image-feature database of the paper is replaced by a
//! Gaussian-mixture vector dataset (DESIGN.md, substitution table): cluster
//! structure is what IVF indexing exploits, and recall against exact brute
//! force is measurable at laptop scale.

use crate::linalg::{dist_sq_rows_on, Matrix};
use crate::topk::top_k;
use rand::Rng;
use rand_distr_shim::StandardNormalShim;

/// A tiny shim providing standard-normal draws without an extra crate
/// dependency (Box–Muller over the uniform generator).
mod rand_distr_shim {
    use rand::Rng;

    pub struct StandardNormalShim;

    impl StandardNormalShim {
        pub fn sample(rng: &mut impl Rng) -> f32 {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
        }
    }
}

/// A labelled Gaussian-mixture dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// `n x d` data points.
    pub points: Matrix,
    /// Ground-truth mixture component of each point.
    pub labels: Vec<usize>,
    /// The mixture means (`components x d`).
    pub means: Matrix,
}

impl Dataset {
    /// Samples `n` points in `d` dimensions from `components` Gaussian
    /// blobs with the given intra-cluster standard deviation. Means are
    /// drawn uniformly in `[-10, 10]^d`.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes.
    #[must_use]
    pub fn gaussian_mixture(
        n: usize,
        d: usize,
        components: usize,
        sigma: f32,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(n > 0 && d > 0 && components > 0, "Dataset: zero size");
        let mut means = Matrix::zeros(components, d);
        for c in 0..components {
            for v in means.row_mut(c) {
                *v = rng.gen_range(-10.0..10.0);
            }
        }
        let mut points = Matrix::zeros(n, d);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = rng.gen_range(0..components);
            labels.push(c);
            for (v, &m) in points.row_mut(i).iter_mut().zip(means.row(c)) {
                *v = m + sigma * StandardNormalShim::sample(rng);
            }
        }
        Dataset {
            points,
            labels,
            means,
        }
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// `true` when empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.rows() == 0
    }

    /// Draws `count` queries: perturbed copies of random dataset points
    /// (the standard "query near the manifold" retrieval setup). Returns
    /// the queries and the index of the point each was derived from.
    #[must_use]
    pub fn queries(&self, count: usize, sigma: f32, rng: &mut impl Rng) -> (Matrix, Vec<usize>) {
        let d = self.points.cols();
        let mut q = Matrix::zeros(count, d);
        let mut origin = Vec::with_capacity(count);
        for i in 0..count {
            let src = rng.gen_range(0..self.len());
            origin.push(src);
            for (v, &b) in q.row_mut(i).iter_mut().zip(self.points.row(src)) {
                *v = b + sigma * StandardNormalShim::sample(rng);
            }
        }
        (q, origin)
    }

    /// Exact K-nearest-neighbour ground truth by brute force: each
    /// query's [`dist_sq`](crate::linalg::dist_sq) to every point, then
    /// [`top_k`] (ties to the lowest index).
    ///
    /// # Panics
    ///
    /// Panics if the queries' dimension differs from the points'.
    #[must_use]
    pub fn ground_truth(&self, queries: &Matrix, k: usize) -> Vec<Vec<usize>> {
        self.ground_truth_on(crate::simd::active(), queries, k)
    }

    /// [`ground_truth`](Self::ground_truth) on an explicit kernel tier:
    /// each query's distances come from one
    /// [`dist_sq_rows_on`] pass over the points, bitwise the one-point
    /// `dist_sq`. Exposed (hidden) so the determinism suite can hold every
    /// tier to the one-point reference.
    ///
    /// # Panics
    ///
    /// Panics if the queries' dimension differs from the points'.
    #[doc(hidden)]
    #[must_use]
    pub fn ground_truth_on(
        &self,
        path: crate::simd::SimdPath,
        queries: &Matrix,
        k: usize,
    ) -> Vec<Vec<usize>> {
        let mut dists = vec![0.0f32; self.len()];
        (0..queries.rows())
            .map(|qi| {
                dist_sq_rows_on(path, &self.points, queries.row(qi), &mut dists);
                top_k(dists.iter().enumerate().map(|(i, &d)| (d, i)), k)
                    .into_iter()
                    .map(|(_, i)| i)
                    .collect()
            })
            .collect()
    }
}

/// Recall of retrieved results against exact ground truth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecallReport {
    /// Mean fraction of true K-nearest neighbours found, in `[0, 1]`.
    pub recall_at_k: f64,
    /// Queries evaluated.
    pub queries: usize,
    /// K used.
    pub k: usize,
}

/// Computes recall@K: `|retrieved ∩ true| / k` over the first `k` of each
/// list, averaged over queries. Each true neighbour counts at most once,
/// however often it is retrieved.
///
/// # Panics
///
/// Panics if the result lists disagree in length or `k` is zero.
#[must_use]
pub fn recall(retrieved: &[Vec<usize>], truth: &[Vec<usize>], k: usize) -> RecallReport {
    assert_eq!(retrieved.len(), truth.len(), "recall: query count mismatch");
    assert!(k > 0, "recall: k = 0");
    let mut total = 0.0f64;
    for (r, t) in retrieved.iter().zip(truth) {
        let retrieved = &r[..k.min(r.len())];
        let hits = t.iter().take(k).filter(|i| retrieved.contains(i)).count();
        total += hits as f64 / k as f64;
    }
    RecallReport {
        recall_at_k: total / retrieved.len().max(1) as f64,
        queries: retrieved.len(),
        k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::dist_sq;
    use reach_sim::rng::seeded;

    #[test]
    fn mixture_has_cluster_structure() {
        let mut rng = seeded(11);
        let ds = Dataset::gaussian_mixture(300, 8, 3, 0.3, &mut rng);
        assert_eq!(ds.len(), 300);
        // A point is closer to its own component mean than to the others.
        let mut correct = 0;
        for i in 0..ds.len() {
            let own = dist_sq(ds.points.row(i), ds.means.row(ds.labels[i]));
            let others = (0..3)
                .filter(|&c| c != ds.labels[i])
                .map(|c| dist_sq(ds.points.row(i), ds.means.row(c)))
                .fold(f32::INFINITY, f32::min);
            if own < others {
                correct += 1;
            }
        }
        assert!(correct > 290, "structure too weak: {correct}/300");
    }

    #[test]
    fn queries_are_near_their_origin() {
        let mut rng = seeded(13);
        let ds = Dataset::gaussian_mixture(200, 8, 4, 0.5, &mut rng);
        let (q, origin) = ds.queries(10, 0.01, &mut rng);
        let gt = ds.ground_truth(&q, 1);
        let hits = gt.iter().zip(&origin).filter(|(nn, &o)| nn[0] == o).count();
        assert!(hits >= 9, "only {hits}/10 queries found their origin");
    }

    #[test]
    fn recall_metric_boundaries() {
        let truth = vec![vec![1, 2, 3], vec![4, 5, 6]];
        let perfect = recall(&truth.clone(), &truth, 3);
        assert!((perfect.recall_at_k - 1.0).abs() < 1e-12);
        let miss = recall(&[vec![9, 9, 9], vec![9, 9, 9]], &truth, 3);
        assert_eq!(miss.recall_at_k, 0.0);
        let half = recall(&[vec![1, 9, 9], vec![4, 5, 9]], &truth, 3);
        assert!((half.recall_at_k - 0.5).abs() < 1e-12);
    }

    #[test]
    fn determinism_from_seed() {
        let a = Dataset::gaussian_mixture(50, 4, 2, 0.1, &mut seeded(21));
        let b = Dataset::gaussian_mixture(50, 4, 2, 0.1, &mut seeded(21));
        assert_eq!(a.points.as_slice(), b.points.as_slice());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn recall_reads_only_the_first_k_of_each_list() {
        let truth = vec![vec![1, 2, 3]];
        let retrieved = vec![vec![1, 2, 9, 3]];
        assert_eq!(recall(&retrieved, &truth, 2).recall_at_k, 1.0);
        let r = recall(&retrieved, &truth, 3);
        assert!((r.recall_at_k - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!((r.queries, r.k), (1, 3));
    }

    #[test]
    fn a_repeated_retrieved_index_counts_once() {
        let r = recall(&[vec![1, 1, 1]], &[vec![1, 2, 3]], 3);
        assert!((r.recall_at_k - 1.0 / 3.0).abs() < 1e-12, "{r:?}");
        let r = recall(&[vec![2, 1, 2, 3]], &[vec![1, 2, 3]], 3);
        assert!((r.recall_at_k - 2.0 / 3.0).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn recall_of_no_queries_is_zero() {
        let r = recall(&[], &[], 5);
        assert_eq!(r.recall_at_k, 0.0);
        assert_eq!(r.queries, 0);
    }

    #[test]
    #[should_panic(expected = "query count mismatch")]
    fn recall_query_count_mismatch_rejected() {
        let _ = recall(&[vec![1]], &[], 1);
    }

    #[test]
    #[should_panic(expected = "recall: k = 0")]
    fn recall_zero_k_rejected() {
        let _ = recall(&[vec![1]], &[vec![1]], 0);
    }
}
