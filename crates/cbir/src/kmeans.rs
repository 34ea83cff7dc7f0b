//! K-means clustering (k-means++ initialization + Lloyd iterations).
//!
//! The paper preprocesses the database "with k-means to obtain 1000 cluster
//! centroids" during the offline stage; this is that stage.

use crate::linalg::{dist_sq_rows_on, lower_dist_sq_rows_on, nearest_centroids_on, Matrix};
use rand::Rng;

/// Result of a clustering run.
#[derive(Clone, Debug)]
pub struct Clustering {
    /// `k x d` centroid matrix.
    pub centroids: Matrix,
    /// Cluster index of each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids after the last
    /// iteration.
    pub inertia: f64,
    /// Lloyd iterations actually executed.
    pub iterations: usize,
}

/// Runs k-means++ then Lloyd's algorithm until convergence or `max_iters`.
///
/// # Example
///
/// ```
/// use reach_cbir::linalg::Matrix;
/// use reach_cbir::kmeans::kmeans;
///
/// // Two obvious groups on a line.
/// let pts = Matrix::from_vec(4, 1, vec![0.0, 0.1, 10.0, 10.1]);
/// let c = kmeans(&pts, 2, 10, &mut reach_sim::rng::seeded(1));
/// assert_eq!(c.assignments[0], c.assignments[1]);
/// assert_ne!(c.assignments[0], c.assignments[2]);
/// ```
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points.
#[must_use]
pub fn kmeans(points: &Matrix, k: usize, max_iters: usize, rng: &mut impl Rng) -> Clustering {
    kmeans_on(crate::simd::active(), points, k, max_iters, rng)
}

/// [`kmeans`] on an explicit kernel tier. Exposed (hidden) so the
/// determinism suite can hold every tier's clustering to one reference
/// without racing on the process-wide dispatch override.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the number of points.
#[doc(hidden)]
#[must_use]
#[allow(clippy::needless_range_loop)] // parallel-indexed arrays; enumerate obscures
pub fn kmeans_on(
    path: crate::simd::SimdPath,
    points: &Matrix,
    k: usize,
    max_iters: usize,
    rng: &mut impl Rng,
) -> Clustering {
    let n = points.rows();
    let d = points.cols();
    assert!(k > 0 && k <= n, "kmeans: k={k} out of range for {n} points");

    // --- k-means++ seeding ---
    // The D² refresh computes every point's distance to the new centroid
    // in one kernel call (eight points per points-as-lanes step on AVX2),
    // bitwise the one-point `dist_sq`, keeping the strictly smaller value.
    let mut centroids = Matrix::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(points.row(first));
    let mut d2 = vec![0.0f32; n];
    dist_sq_rows_on(path, points, centroids.row(0), &mut d2);
    for c in 1..k {
        let total: f64 = d2.iter().map(|&x| f64::from(x)).sum();
        let chosen = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut pick = n - 1;
            for (i, &x) in d2.iter().enumerate() {
                target -= f64::from(x);
                if target <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(points.row(chosen));
        lower_dist_sq_rows_on(path, points, centroids.row(c), &mut d2);
    }

    // --- Lloyd iterations ---
    let mut assignments = vec![0usize; n];
    let mut best_dists = vec![0.0f32; n];
    // The assignment is the fused points-as-lanes kernel
    // (`linalg::nearest_centroids_on`): eight points per vector step, each
    // scored against every centroid in the decomposed form (Equation 1)
    // with `dot8`-order norms and dot products and a strict-`<` argmin in
    // centroid order. Every point sees the same operations whatever its
    // block or kernel tier, so the clustering is byte-identical on any
    // host.
    let mut inertia = f64::INFINITY;
    let mut iterations = 0;
    for it in 0..max_iters {
        iterations = it + 1;
        nearest_centroids_on(path, points, &centroids, &mut assignments, &mut best_dists);
        // Reduce in point order — one fixed f64 accumulation sequence.
        let mut new_inertia = 0.0f64;
        for &bd in &best_dists {
            new_inertia += f64::from(bd);
        }
        // Update.
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0usize; k];
        accumulate(d, points.as_slice(), &assignments, &mut sums, &mut counts);
        for c in 0..k {
            if counts[c] == 0 {
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            for (dst, s) in centroids
                .row_mut(c)
                .iter_mut()
                .zip(&sums[c * d..(c + 1) * d])
            {
                *dst = (s * inv) as f32;
            }
        }
        if counts.contains(&0) {
            reseed_empty(points, &best_dists, &counts, &mut centroids);
        }
        // Converged?
        if (inertia - new_inertia).abs() <= 1e-6 * new_inertia.max(1.0) {
            inertia = new_inertia;
            break;
        }
        inertia = new_inertia;
    }

    Clustering {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// The Lloyd update's sums: adds every `d`-float row of `points` into its
/// cluster's `f64` sums and counts it, rows in point order, so each sum
/// takes its adds in one fixed order. The dimensions the recall codecs
/// train at (4 and 8 for the PQ sub-vectors, 32 for the IVF build) and
/// the rest up to 8 get a copy of the loop with `d` constant, which
/// unrolls the per-row adds without reordering them.
fn accumulate(
    d: usize,
    points: &[f32],
    assignments: &[usize],
    sums: &mut [f64],
    counts: &mut [usize],
) {
    match d {
        1 => accumulate_rows(1, points, assignments, sums, counts),
        2 => accumulate_rows(2, points, assignments, sums, counts),
        3 => accumulate_rows(3, points, assignments, sums, counts),
        4 => accumulate_rows(4, points, assignments, sums, counts),
        5 => accumulate_rows(5, points, assignments, sums, counts),
        6 => accumulate_rows(6, points, assignments, sums, counts),
        7 => accumulate_rows(7, points, assignments, sums, counts),
        8 => accumulate_rows(8, points, assignments, sums, counts),
        32 => accumulate_rows(32, points, assignments, sums, counts),
        _ => accumulate_rows(d, points, assignments, sums, counts),
    }
}

/// The body of [`accumulate`], inlined into each of its arms.
#[inline(always)]
fn accumulate_rows(
    d: usize,
    points: &[f32],
    assignments: &[usize],
    sums: &mut [f64],
    counts: &mut [usize],
) {
    for (i, &c) in assignments.iter().enumerate() {
        counts[c] += 1;
        let row = &points[i * d..(i + 1) * d];
        for (s, &x) in sums[c * d..(c + 1) * d].iter_mut().zip(row) {
            *s += f64::from(x);
        }
    }
}

/// Re-seeds every empty cluster on its own point: the points farthest
/// from the centroid they were just assigned to (`best_dists`, this
/// iteration's assignment distances), farthest first, ties to the lowest
/// point index. Empty clusters take them in cluster order, so two clusters
/// that empty together never land on the same point. `total_cmp` gives a
/// `NaN` distance a fixed place in that order (by its sign bit) instead of
/// panicking. There are always enough points: `k <= n`.
#[cold]
fn reseed_empty(points: &Matrix, best_dists: &[f32], counts: &[usize], centroids: &mut Matrix) {
    let mut order: Vec<usize> = (0..points.rows()).collect();
    order.sort_by(|&a, &b| best_dists[b].total_cmp(&best_dists[a]).then(a.cmp(&b)));
    let empty = (0..counts.len()).filter(|&c| counts[c] == 0);
    for (c, i) in empty.zip(order) {
        centroids.row_mut(c).copy_from_slice(points.row(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::rng::seeded;

    /// Three well-separated blobs in 2D.
    fn blobs() -> Matrix {
        let centers = [(-10.0f32, -10.0), (0.0, 10.0), (10.0, -5.0)];
        let mut rng = seeded(7);
        let mut data = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..50 {
                data.push(cx + rng.gen_range(-0.5..0.5));
                data.push(cy + rng.gen_range(-0.5..0.5));
            }
        }
        Matrix::from_vec(150, 2, data)
    }

    #[test]
    fn recovers_separated_blobs() {
        let pts = blobs();
        let mut rng = seeded(1);
        let c = kmeans(&pts, 3, 50, &mut rng);
        // All points of one blob share one assignment.
        for blob in 0..3 {
            let first = c.assignments[blob * 50];
            for i in 0..50 {
                assert_eq!(c.assignments[blob * 50 + i], first, "blob {blob} split");
            }
        }
        // Tight inertia: every point within 1.0 of its centroid.
        assert!(c.inertia / 150.0 < 1.0, "inertia {}", c.inertia);
        assert!(c.iterations >= 1);
    }

    #[test]
    fn inertia_never_increases_with_more_clusters() {
        let pts = blobs();
        let i2 = kmeans(&pts, 2, 50, &mut seeded(3)).inertia;
        let i3 = kmeans(&pts, 3, 50, &mut seeded(3)).inertia;
        let i8 = kmeans(&pts, 8, 50, &mut seeded(3)).inertia;
        assert!(i3 <= i2 * 1.01, "i3 {i3} vs i2 {i2}");
        assert!(i8 <= i3 * 1.01, "i8 {i8} vs i3 {i3}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blobs();
        let a = kmeans(&pts, 3, 20, &mut seeded(9));
        let b = kmeans(&pts, 3, 20, &mut seeded(9));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids.as_slice(), b.centroids.as_slice());
    }

    #[test]
    fn k_equals_n_zero_inertia() {
        let pts = Matrix::from_vec(4, 2, vec![0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 5.0, 5.0]);
        let c = kmeans(&pts, 4, 10, &mut seeded(2));
        assert!(c.inertia < 1e-9, "inertia {}", c.inertia);
    }

    #[test]
    fn empty_clusters_reseed_on_distinct_farthest_points() {
        // Clusters 1 and 3 emptied in the same iteration. Each must take
        // its own point, farthest first by assignment distance: the
        // positive NaN distance orders farthest without a panic, and the
        // tie at 9.0 goes to the lower point index.
        let pts = Matrix::from_vec(5, 1, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let best_dists = [0.5, 9.0, f32::NAN, 9.0, 0.1];
        let counts = [3, 0, 2, 0];
        let mut centroids = Matrix::from_vec(4, 1, vec![7.0; 4]);
        reseed_empty(&pts, &best_dists, &counts, &mut centroids);
        assert_eq!(centroids.as_slice(), &[7.0, 2.0, 7.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_n_rejected() {
        let pts = Matrix::zeros(3, 2);
        let _ = kmeans(&pts, 4, 10, &mut seeded(0));
    }
}
