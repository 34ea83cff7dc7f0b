//! Counters for the stored `||c||^2` columns.
//!
//! The decomposed distance (Equation 1) splits every comparison into a
//! query-dependent part (the dot products) and a *dataset-only* part: the
//! squared norms of the centroids and, for product quantization, the
//! per-subspace codeword norms. The paper stores `||c||^2` "alongside the
//! centroids" so the online stage never recomputes it; related near-data
//! retrieval work (NCAM) does the same for its distance tables. Here the
//! column lives in the codec itself: [`crate::IvfIndex::build`] and
//! [`crate::ProductQuantizer::train`] compute it once, and every distance
//! pass reads it.
//!
//! Two process-wide counters, read by [`cache_stats`] and exported as
//! `cbir.cache_hits` / `cbir.cache_misses`, show that reuse: a miss is a
//! norm column computed at build or train time, a hit is a column read by
//! a distance pass.

use crate::linalg::{norm_sq, Matrix};
use std::sync::atomic::{AtomicU64, Ordering};

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(hits, misses)`: stored norm columns read by distance
/// passes, and norm columns computed — the counters exported as
/// `cbir.cache_hits` / `cbir.cache_misses`.
#[must_use]
pub fn cache_stats() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// The squared row norms of `m`, computed for storage beside it: one miss.
pub(crate) fn norm_column(m: &Matrix) -> Vec<f32> {
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    (0..m.rows()).map(|i| norm_sq(m.row(i))).collect()
}

/// `column`, read by one distance pass: one hit.
pub(crate) fn read(column: &[f32]) -> &[f32] {
    CACHE_HITS.fetch_add(1, Ordering::Relaxed);
    column
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::IvfIndex;
    use reach_sim::rng::seeded;

    #[test]
    fn repeat_batches_hit_the_cache() {
        let points = Matrix::from_vec(
            40,
            8,
            (0..40 * 8).map(|i| ((i * 37) % 101) as f32 / 7.0).collect(),
        );
        let queries = Matrix::from_vec(3, 8, points.as_slice()[..24].to_vec());
        // Other tests move the process-wide counters concurrently, so only
        // lower bounds hold here; `crates/bench/tests/metrics_export.rs`
        // pins exact counts in a process of its own.
        let (_, m0) = cache_stats();
        let index = IvfIndex::build(&points, 5, &mut seeded(4));
        let (h1, m1) = cache_stats();
        assert!(m1 > m0, "building the index computes its norm column");
        for _ in 0..3 {
            let _ = index.short_lists(&queries, 2);
        }
        let (h2, _) = cache_stats();
        assert!(h2 - h1 >= 3, "every pass reads the stored column");
    }
}
