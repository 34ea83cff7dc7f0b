//! Product quantization — the compression baseline the paper argues
//! *against*.
//!
//! Section IV-A: "a large body of work focuses on compression methods such
//! as binary codes and product quantization which reduces the dimensionality
//! of feature vectors, leading to orders of magnitude reduction in data
//! visited. However, these methods significantly penalize the recall
//! accuracy of the CBIR system." ReACH's pitch is hierarchical near-data
//! acceleration *instead of* lossy compression. To make that comparison
//! executable, this module implements a standard IVF-free product quantizer
//! (per-subspace k-means codebooks, asymmetric-distance search), and the
//! test suite demonstrates the recall penalty on the same datasets the
//! exact pipeline handles losslessly.

use crate::kmeans::kmeans;
use crate::linalg::{dot8, norm_sq, pack_lanes, Matrix, LANES};
use crate::simd::SimdPath;
use crate::topk::top_k;
use rand::Rng;

/// Panics unless `data` splits into `subspaces` equal subspaces and
/// `centroids` is in `1..=256` and at most the training-set size.
fn check_shape(data: &Matrix, subspaces: usize, centroids: usize) {
    let d = data.cols();
    assert!(
        subspaces > 0 && d.is_multiple_of(subspaces),
        "ProductQuantizer: {d} dims not divisible into {subspaces} subspaces"
    );
    assert!(
        (1..=256).contains(&centroids) && centroids <= data.rows(),
        "ProductQuantizer: centroids {centroids} out of range"
    );
}

/// A trained product quantizer. Each codebook keeps its codewords'
/// squared norms beside it, computed once at training, so a query's
/// distance table is the decomposed `||q_s||^2 + ||c||^2 - 2<q_s, c>`
/// with only the query-side terms computed per query.
///
/// # Example
///
/// ```
/// use reach_cbir::linalg::Matrix;
/// use reach_cbir::ProductQuantizer;
///
/// let data = Matrix::from_vec(64, 8, (0..64 * 8).map(|i| (i % 9) as f32).collect());
/// let pq = ProductQuantizer::train(&data, 4, 8, &mut reach_sim::rng::seeded(2));
/// let code = pq.encode(data.row(0));
/// assert_eq!(code.len(), 4); // 32 B vector -> 4 B code
/// ```
#[derive(Clone, Debug)]
pub struct ProductQuantizer {
    /// Sub-vector length (input dim / subspaces).
    sub_dim: usize,
    /// One codebook per subspace, each `centroids x sub_dim`.
    codebooks: Vec<Matrix>,
    /// `||c||^2` of each codeword, one column per codebook.
    codeword_norms: Vec<Vec<f32>>,
}

impl ProductQuantizer {
    /// Trains a quantizer with `subspaces` sub-quantizers of `centroids`
    /// codewords each (classic PQ uses 8 subspaces x 256 codewords for
    /// 8 bytes per vector): one [`train_codebook`](Self::train_codebook)
    /// per subspace, in subspace order, all drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionality is not divisible by `subspaces`, or if
    /// `centroids` exceeds the training-set size or 256 (codes are `u8`).
    #[must_use]
    pub fn train(data: &Matrix, subspaces: usize, centroids: usize, rng: &mut impl Rng) -> Self {
        check_shape(data, subspaces, centroids);
        Self::from_codebooks(
            (0..subspaces)
                .map(|s| Self::train_codebook(data, subspaces, s, centroids, rng))
                .collect(),
        )
    }

    /// Trains subspace `s`'s codebook alone: k-means with `centroids`
    /// codewords over columns `s * sub_dim..(s + 1) * sub_dim` of `data`,
    /// drawing from `rng` exactly what [`train`](Self::train) draws for
    /// it. Codebooks trained this way, each from the stream state `train`
    /// would reach it at, assemble through
    /// [`from_codebooks`](Self::from_codebooks) into `train`'s quantizer.
    ///
    /// # Panics
    ///
    /// Panics on the shapes [`train`](Self::train) rejects, or if `s` is
    /// not below `subspaces`.
    #[must_use]
    pub fn train_codebook(
        data: &Matrix,
        subspaces: usize,
        s: usize,
        centroids: usize,
        rng: &mut impl Rng,
    ) -> Matrix {
        check_shape(data, subspaces, centroids);
        assert!(
            s < subspaces,
            "ProductQuantizer: subspace {s} of {subspaces}"
        );
        let sub_dim = data.cols() / subspaces;
        let mut sub = Matrix::zeros(data.rows(), sub_dim);
        for i in 0..data.rows() {
            sub.row_mut(i)
                .copy_from_slice(&data.row(i)[s * sub_dim..(s + 1) * sub_dim]);
        }
        kmeans(&sub, centroids, 20, rng).centroids
    }

    /// Assembles a quantizer from its codebooks, one per subspace in
    /// subspace order, and stores their codeword norms.
    ///
    /// # Panics
    ///
    /// Panics if there are no codebooks, if they differ in shape, or if a
    /// codebook holds no codeword or more than 256.
    #[must_use]
    pub fn from_codebooks(codebooks: Vec<Matrix>) -> Self {
        let first = codebooks.first().expect("ProductQuantizer: no codebooks");
        let (centroids, sub_dim) = (first.rows(), first.cols());
        assert!(
            (1..=256).contains(&centroids),
            "ProductQuantizer: centroids {centroids} out of range"
        );
        assert!(
            codebooks
                .iter()
                .all(|b| (b.rows(), b.cols()) == (centroids, sub_dim)),
            "ProductQuantizer: codebooks differ in shape"
        );
        let codeword_norms = codebooks.iter().map(crate::cache::norm_column).collect();
        ProductQuantizer {
            sub_dim,
            codebooks,
            codeword_norms,
        }
    }

    /// Number of subspaces.
    #[must_use]
    pub fn subspaces(&self) -> usize {
        self.codebooks.len()
    }

    /// Bytes per encoded vector.
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.codebooks.len()
    }

    /// The trained codebooks, one `centroids x sub_dim` matrix per
    /// subspace.
    #[must_use]
    pub fn codebooks(&self) -> &[Matrix] {
        &self.codebooks
    }

    /// Encodes one vector into its per-subspace codeword indices: the
    /// nearest codeword by [`dist_sq`](crate::linalg::dist_sq), ties to
    /// the lowest index.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    #[must_use]
    pub fn encode(&self, x: &[f32]) -> Vec<u8> {
        self.check_dims(x.len());
        let mut code = vec![0u8; self.code_bytes()];
        self.encode_lanes(crate::simd::active(), &[x], &mut code);
        code
    }

    /// Encodes every row of `data`, eight rows per points-as-lanes step,
    /// into one buffer with a stride of [`code_bytes`](Self::code_bytes):
    /// row `i`'s code, the one [`encode`](Self::encode) gives it, is
    /// `codes[i * code_bytes()..(i + 1) * code_bytes()]`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    #[must_use]
    pub fn encode_batch(&self, data: &Matrix) -> Vec<u8> {
        self.encode_batch_on(crate::simd::active(), data)
    }

    /// [`encode_batch`](Self::encode_batch) on an explicit kernel tier.
    /// Exposed (hidden) so the determinism suite can hold every tier to
    /// the one-point nearest-codeword scan.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    #[doc(hidden)]
    #[must_use]
    pub fn encode_batch_on(&self, path: SimdPath, data: &Matrix) -> Vec<u8> {
        self.check_dims(data.cols());
        let m = self.code_bytes();
        let mut codes = vec![0u8; data.rows() * m];
        for (block, out) in codes.chunks_mut(LANES * m).enumerate() {
            let first = block * LANES;
            let rows: Vec<&[f32]> = (first..first + out.len() / m)
                .map(|i| data.row(i))
                .collect();
            self.encode_lanes(path, &rows, out);
        }
        codes
    }

    fn check_dims(&self, len: usize) {
        assert_eq!(
            len,
            self.sub_dim * self.codebooks.len(),
            "ProductQuantizer::encode: bad input size"
        );
    }

    /// Encodes up to [`LANES`] vectors at once into `out`, one
    /// [`code_bytes`](Self::code_bytes) row each: per subspace, their
    /// sub-vectors are packed into one points-as-lanes panel and scanned
    /// against the codebook together.
    fn encode_lanes(&self, path: SimdPath, rows: &[&[f32]], out: &mut [u8]) {
        let m = self.code_bytes();
        let mut panel = vec![0.0f32; LANES * self.sub_dim];
        for (s, book) in self.codebooks.iter().enumerate() {
            let span = s * self.sub_dim..(s + 1) * self.sub_dim;
            pack_lanes(rows.iter().map(|r| &r[span.clone()]), &mut panel);
            let best = crate::simd::nearest_direct_lanes_on(path, &panel, book);
            for (code, &c) in out.chunks_exact_mut(m).zip(&best) {
                code[s] = c as u8;
            }
        }
    }

    /// Decodes a code back to the (lossy) reconstruction.
    #[must_use]
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        let mut x = Vec::with_capacity(self.sub_dim * self.codebooks.len());
        for (s, book) in self.codebooks.iter().enumerate() {
            x.extend_from_slice(book.row(usize::from(code[s])));
        }
        x
    }

    /// Builds the asymmetric-distance lookup table for one query: entry
    /// `[s][c]` is the squared distance from the query's sub-vector `s` to
    /// codeword `c`, in the decomposed form `||q_s||^2 + ||c||^2 -
    /// 2<q_s, c>` over the stored codeword norms. It rounds differently
    /// from the direct subtraction, within normal `f32` tolerance.
    #[must_use]
    pub fn distance_table(&self, query: &[f32]) -> Vec<Vec<f32>> {
        self.codebooks
            .iter()
            .zip(&self.codeword_norms)
            .enumerate()
            .map(|(s, (book, norms))| {
                let sub = &query[s * self.sub_dim..(s + 1) * self.sub_dim];
                let q_norm = norm_sq(sub);
                let c_norms = crate::cache::read(norms);
                (0..book.rows())
                    .map(|c| q_norm + c_norms[c] - 2.0 * dot8(sub, book.row(c)))
                    .collect()
            })
            .collect()
    }

    /// Asymmetric distance of a code against a precomputed table.
    #[must_use]
    pub fn adc_distance(table: &[Vec<f32>], code: &[u8]) -> f32 {
        table
            .iter()
            .zip(code)
            .map(|(row, &c)| row[usize::from(c)])
            .sum()
    }

    /// Exhaustive ADC search: the K nearest of `codes` — rows of
    /// [`code_bytes`](Self::code_bytes), as
    /// [`encode_batch`](Self::encode_batch) lays them out — to `query`.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not a whole number of rows.
    #[must_use]
    pub fn search(&self, codes: &[u8], query: &[f32], k: usize) -> Vec<usize> {
        let m = self.code_bytes();
        assert!(
            codes.len().is_multiple_of(m),
            "ProductQuantizer::search: {} code bytes are not rows of {m}",
            codes.len()
        );
        let table = self.distance_table(query);
        top_k(
            codes
                .chunks_exact(m)
                .enumerate()
                .map(|(i, code)| (Self::adc_distance(&table, code), i)),
            k,
        )
        .into_iter()
        .map(|(_, i)| i)
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{recall, Dataset};
    use crate::ivf::IvfIndex;
    use reach_sim::rng::seeded;

    fn setup() -> (Dataset, Matrix, Vec<Vec<usize>>) {
        let mut rng = seeded(41);
        let ds = Dataset::gaussian_mixture(4_000, 32, 40, 0.8, &mut rng);
        let (queries, _) = ds.queries(24, 0.2, &mut rng);
        let truth = ds.ground_truth(&queries, 10);
        (ds, queries, truth)
    }

    #[test]
    fn roundtrip_reduces_but_bounds_error() {
        let (ds, _, _) = setup();
        let mut rng = seeded(42);
        let pq = ProductQuantizer::train(&ds.points, 8, 64, &mut rng);
        assert_eq!(pq.code_bytes(), 8); // 128 B -> 8 B: 16x compression
        let x = ds.points.row(0);
        let rec = pq.decode(&pq.encode(x));
        let err = crate::linalg::dist_sq(x, &rec);
        let norm = crate::linalg::norm_sq(x);
        assert!(err < norm, "reconstruction worse than zero vector");
        assert!(err > 0.0, "lossy coding cannot be exact on continuous data");
    }

    #[test]
    fn adc_equals_decoded_distance() {
        let (ds, queries, _) = setup();
        let mut rng = seeded(43);
        let pq = ProductQuantizer::train(&ds.points, 4, 32, &mut rng);
        let code = pq.encode(ds.points.row(7));
        let table = pq.distance_table(queries.row(0));
        let adc = ProductQuantizer::adc_distance(&table, &code);
        let direct = crate::linalg::dist_sq(queries.row(0), &pq.decode(&code));
        assert!(
            (adc - direct).abs() < 1e-2 * direct.max(1.0),
            "{adc} vs {direct}"
        );
    }

    #[test]
    fn pq_recall_is_penalized_vs_exact_rerank() {
        // The paper's argument, executed: on the same data, the exact
        // IVF+rerank pipeline beats aggressive PQ compression on recall.
        let (ds, queries, truth) = setup();
        let mut rng = seeded(44);

        let pq = ProductQuantizer::train(&ds.points, 4, 16, &mut rng); // 32x compression
        let codes = pq.encode_batch(&ds.points);
        let pq_results: Vec<Vec<usize>> = (0..queries.rows())
            .map(|qi| pq.search(&codes, queries.row(qi), 10))
            .collect();
        let pq_recall = recall(&pq_results, &truth, 10).recall_at_k;

        let index = IvfIndex::build(&ds.points, 40, &mut rng);
        let exact = index.search(&ds.points, &queries, 8, 10, None);
        let exact_recall = recall(&exact, &truth, 10).recall_at_k;

        assert!(
            exact_recall > pq_recall + 0.1,
            "exact {exact_recall:.3} should clearly beat 32x-PQ {pq_recall:.3}"
        );
        assert!(
            exact_recall > 0.9,
            "exact pipeline recall {exact_recall:.3}"
        );
    }

    #[test]
    fn more_codewords_improve_pq_recall() {
        let (ds, queries, truth) = setup();
        let r = |centroids: usize| {
            let mut rng = seeded(45);
            let pq = ProductQuantizer::train(&ds.points, 4, centroids, &mut rng);
            let codes = pq.encode_batch(&ds.points);
            let res: Vec<Vec<usize>> = (0..queries.rows())
                .map(|qi| pq.search(&codes, queries.row(qi), 10))
                .collect();
            recall(&res, &truth, 10).recall_at_k
        };
        let coarse = r(4);
        let fine = r(64);
        assert!(
            fine > coarse,
            "recall should grow with codebook size: {coarse} -> {fine}"
        );
    }

    #[test]
    fn train_is_its_codebooks_trained_one_by_one() {
        let (ds, _, _) = setup();
        let whole = ProductQuantizer::train(&ds.points, 4, 8, &mut seeded(48));
        let mut rng = seeded(48);
        let books = (0..4)
            .map(|s| ProductQuantizer::train_codebook(&ds.points, 4, s, 8, &mut rng))
            .collect();
        let parts = ProductQuantizer::from_codebooks(books);
        let bits = |pq: &ProductQuantizer| -> Vec<u32> {
            pq.codebooks()
                .iter()
                .flat_map(|b| b.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&parts), bits(&whole));
        assert_eq!(parts.codeword_norms, whole.codeword_norms);
        assert_eq!(parts.sub_dim, whole.sub_dim);
    }

    #[test]
    #[should_panic(expected = "codebooks differ in shape")]
    fn from_codebooks_rejects_mixed_shapes() {
        let _ = ProductQuantizer::from_codebooks(vec![Matrix::zeros(4, 2), Matrix::zeros(4, 3)]);
    }

    #[test]
    #[should_panic(expected = "subspace 4 of 4")]
    fn train_codebook_rejects_a_subspace_out_of_range() {
        let data = Matrix::zeros(16, 8);
        let _ = ProductQuantizer::train_codebook(&data, 4, 4, 4, &mut seeded(3));
    }

    /// The direct-subtraction table: entry `[s][c]` is
    /// `dist_sq(q_s, c)`, the reference the decomposed form is held to.
    fn direct_table(pq: &ProductQuantizer, query: &[f32]) -> Vec<Vec<f32>> {
        pq.codebooks()
            .iter()
            .enumerate()
            .map(|(s, book)| {
                let sub = &query[s * pq.sub_dim..(s + 1) * pq.sub_dim];
                (0..book.rows())
                    .map(|c| crate::linalg::dist_sq(sub, book.row(c)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn distance_table_is_the_stored_norm_decomposition() {
        let (ds, queries, _) = setup();
        let pq = ProductQuantizer::train(&ds.points, 4, 32, &mut seeded(47));
        for qi in 0..queries.rows() {
            let q = queries.row(qi);
            let recomputed: Vec<Vec<u32>> = pq
                .codebooks()
                .iter()
                .enumerate()
                .map(|(s, book)| {
                    let sub = &q[s * pq.sub_dim..(s + 1) * pq.sub_dim];
                    (0..book.rows())
                        .map(|c| {
                            let c_norm = norm_sq(book.row(c));
                            (norm_sq(sub) + c_norm - 2.0 * dot8(sub, book.row(c))).to_bits()
                        })
                        .collect()
                })
                .collect();
            let table: Vec<Vec<u32>> = pq
                .distance_table(q)
                .iter()
                .map(|row| row.iter().map(|d| d.to_bits()).collect())
                .collect();
            assert_eq!(table, recomputed, "query {qi}");
        }
    }

    #[test]
    fn decomposed_adc_search_matches_direct_ranking() {
        let (ds, queries, _) = setup();
        let mut rng = seeded(46);
        let pq = ProductQuantizer::train(&ds.points, 4, 32, &mut rng);
        let codes = pq.encode_batch(&ds.points);
        let row = |i: usize| &codes[i * pq.code_bytes()..(i + 1) * pq.code_bytes()];
        for qi in 0..queries.rows() {
            let direct = direct_table(&pq, queries.row(qi));
            let by_direct = top_k(
                (0..ds.len()).map(|i| (ProductQuantizer::adc_distance(&direct, row(i)), i)),
                10,
            );
            let decomposed = pq.search(&codes, queries.row(qi), 10);
            // The decomposed table rounds differently from the direct
            // subtraction, so allow rank swaps only between candidates whose
            // direct-form ADC distances are within f32 noise of each other.
            for (&(_, a), &b) in by_direct.iter().zip(&decomposed) {
                if a != b {
                    let da = ProductQuantizer::adc_distance(&direct, row(a));
                    let db = ProductQuantizer::adc_distance(&direct, row(b));
                    assert!(
                        (da - db).abs() <= 1e-3 * da.abs().max(1.0),
                        "query {qi}: {a} (d={da}) vs {b} (d={db})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "are not rows of 4")]
    fn search_rejects_a_partial_code_row() {
        let data = Matrix::from_vec(16, 8, (0..16 * 8).map(|i| (i % 7) as f32).collect());
        let pq = ProductQuantizer::train(&data, 4, 4, &mut seeded(3));
        let codes = pq.encode_batch(&data);
        let _ = pq.search(&codes[..codes.len() - 1], data.row(0), 3);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_subspaces_rejected() {
        let data = Matrix::zeros(10, 30);
        let _ = ProductQuantizer::train(&data, 4, 4, &mut seeded(0));
    }
}
