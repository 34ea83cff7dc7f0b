//! Binary-code hashing — the other compression baseline the paper names.
//!
//! Section IV-A: "a large body of work focuses on compression methods such
//! as **binary codes** and product quantization…  However, these methods
//! significantly penalize the recall accuracy." This module implements the
//! classic sign-random-projection scheme (SimHash / LSH for cosine
//! similarity): project onto `bits` random hyperplanes, keep the sign bit,
//! search by Hamming distance. Together with [`crate::pq`] it makes the
//! paper's accuracy argument executable — see the `extension-recall`
//! experiment.

use crate::linalg::{sum_start, Matrix};
use crate::topk::top_k;
use rand::Rng;

/// A sign-random-projection binary encoder.
///
/// # Example
///
/// ```
/// use reach_cbir::BinaryCoder;
///
/// let coder = BinaryCoder::new(16, 64, &mut reach_sim::rng::seeded(4));
/// let x: Vec<f32> = (0..16).map(|i| i as f32).collect();
/// let a = coder.encode(&x);
/// assert_eq!(BinaryCoder::hamming(&a, &a), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BinaryCoder {
    /// Hyperplane count.
    bits: usize,
    /// The hyperplane normals in planes-as-lanes groups: group `g` holds
    /// planes `GROUP * g ..` transposed, element `t` of plane
    /// `GROUP * g + l` at `planes[(g * dim + t) * GROUP + l]`. Planes past
    /// `bits` are zero and never read into a code.
    planes: Vec<f32>,
    /// Input dimensionality.
    dim: usize,
}

/// A binary code: packed 64-bit words.
pub type BinaryCode = Vec<u64>;

/// Planes per planes-as-lanes group. Each lane's projection is one serial
/// chain of `dim` dependent adds, so a group is wide enough to keep
/// several vector registers' worth of chains in flight.
pub(crate) const GROUP: usize = 32;

impl BinaryCoder {
    /// Draws `bits` random hyperplanes for `dim`-dimensional data.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `dim` is zero.
    #[must_use]
    pub fn new(dim: usize, bits: usize, rng: &mut impl Rng) -> Self {
        assert!(dim > 0 && bits > 0, "BinaryCoder: zero size");
        let normals: Vec<f32> = (0..bits * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        let mut planes = vec![0.0f32; bits.div_ceil(GROUP) * GROUP * dim];
        for (group, normals) in planes
            .chunks_exact_mut(GROUP * dim)
            .zip(normals.chunks(GROUP * dim))
        {
            for (l, normal) in normals.chunks_exact(dim).enumerate() {
                for (t, &x) in normal.iter().enumerate() {
                    group[t * GROUP + l] = x;
                }
            }
        }
        BinaryCoder { bits, planes, dim }
    }

    /// Number of bits per code.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Bytes per encoded vector.
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.bits().div_ceil(8)
    }

    /// Encodes one vector: bit `b` is set when the projection onto plane
    /// `b` — `plane[t] * x[t]` summed in increasing `t`, from the value
    /// `Iterator::sum` folds from — is `>= 0`. A group of planes advances
    /// per planes-as-lanes step, each lane running exactly that sequential
    /// sum.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    #[must_use]
    pub fn encode(&self, x: &[f32]) -> BinaryCode {
        self.encode_with(crate::simd::active(), x)
    }

    /// Encodes every row of `data` into one buffer with a stride of
    /// [`code_words`](Self::code_words): row `i`'s code, the one
    /// [`encode`](Self::encode) gives it, is
    /// `codes[i * code_words()..(i + 1) * code_words()]`.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    #[must_use]
    pub fn encode_batch(&self, data: &Matrix) -> Vec<u64> {
        self.encode_batch_on(crate::simd::active(), data)
    }

    /// [`encode_batch`](Self::encode_batch) on an explicit kernel tier.
    /// Exposed (hidden) so the determinism suite can hold every tier to
    /// the sequential one-plane reference.
    ///
    /// # Panics
    ///
    /// Panics on a dimension mismatch.
    #[doc(hidden)]
    #[must_use]
    pub fn encode_batch_on(&self, path: crate::simd::SimdPath, data: &Matrix) -> Vec<u64> {
        let mut codes = vec![0u64; data.rows() * self.code_words()];
        for (i, words) in codes.chunks_exact_mut(self.code_words()).enumerate() {
            self.encode_into(path, data.row(i), words);
        }
        codes
    }

    /// 64-bit words per code: the stride of
    /// [`encode_batch`](Self::encode_batch)'s buffer.
    #[must_use]
    pub fn code_words(&self) -> usize {
        self.bits.div_ceil(64)
    }

    fn encode_with(&self, path: crate::simd::SimdPath, x: &[f32]) -> BinaryCode {
        let mut words = vec![0u64; self.code_words()];
        self.encode_into(path, x, &mut words);
        words
    }

    /// Writes `x`'s code into `words`, which must be zero and
    /// [`code_words`](Self::code_words) long.
    fn encode_into(&self, path: crate::simd::SimdPath, x: &[f32], words: &mut [u64]) {
        assert_eq!(x.len(), self.dim, "BinaryCoder::encode: bad size");
        crate::simd::sign_words_on(path, &self.planes, x, words);
        // Planes past `bits` are padding: their bits are masked off.
        let spare = words.len() * 64 - self.bits;
        if let Some(last) = words.last_mut() {
            *last &= u64::MAX >> spare;
        }
    }

    /// Hamming distance between two codes.
    ///
    /// # Panics
    ///
    /// Panics if the codes have different lengths.
    #[must_use]
    pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
        assert_eq!(a.len(), b.len(), "hamming: length mismatch");
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    }

    /// Exhaustive Hamming search: the `k` of `codes` — rows of
    /// [`code_words`](Self::code_words), as
    /// [`encode_batch`](Self::encode_batch) lays them out — nearest to
    /// `query`'s code.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not a whole number of rows.
    #[must_use]
    pub fn search(&self, codes: &[u64], query: &[f32], k: usize) -> Vec<usize> {
        let q = self.encode(query);
        assert!(
            codes.len().is_multiple_of(q.len()),
            "BinaryCoder::search: {} code words are not rows of {}",
            codes.len(),
            q.len()
        );
        top_k(
            codes
                .chunks_exact(q.len())
                .enumerate()
                .map(|(i, c)| (Self::hamming(&q, c) as f32, i)),
            k,
        )
        .into_iter()
        .map(|(_, i)| i)
        .collect()
    }
}

/// The portable scalar body of the sign-bit kernel
/// ([`crate::simd::sign_words_on`]): bit `32 * g + l` of `words` is set
/// when the projection of `x` onto plane `l` of planes-as-lanes group `g`
/// is `>= 0`. Branch-free: each comparison becomes its bit.
pub(crate) fn sign_words_scalar(planes: &[f32], x: &[f32], words: &mut [u64]) {
    for (g, group) in planes.chunks_exact(GROUP * x.len()).enumerate() {
        let mut acc = [sum_start(); GROUP];
        for (p, &v) in group.chunks_exact(GROUP).zip(x) {
            for l in 0..GROUP {
                acc[l] += p[l] * v;
            }
        }
        let first = g * GROUP;
        for (l, &dot) in acc.iter().enumerate() {
            words[first / 64] |= u64::from(dot >= 0.0) << (first % 64 + l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{recall, Dataset};
    use reach_sim::rng::seeded;

    #[test]
    fn codes_are_compact_and_deterministic() {
        let mut rng = seeded(51);
        let coder = BinaryCoder::new(32, 128, &mut rng);
        assert_eq!(coder.bits(), 128);
        assert_eq!(coder.code_bytes(), 16); // 128 B floats -> 16 B
        let x: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
        assert_eq!(coder.encode(&x), coder.encode(&x));
    }

    #[test]
    fn hamming_distance_properties() {
        let a = vec![0b1010u64];
        let b = vec![0b0110u64];
        assert_eq!(BinaryCoder::hamming(&a, &a), 0);
        assert_eq!(BinaryCoder::hamming(&a, &b), 2);
        assert_eq!(BinaryCoder::hamming(&a, &b), BinaryCoder::hamming(&b, &a));
    }

    #[test]
    #[should_panic(expected = "are not rows of 2")]
    fn search_rejects_a_partial_code_row() {
        let coder = BinaryCoder::new(4, 100, &mut seeded(56));
        let data = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 - 5.0).collect());
        let codes = coder.encode_batch(&data);
        let _ = coder.search(&codes[..codes.len() - 1], data.row(0), 2);
    }

    #[test]
    fn similar_vectors_get_similar_codes() {
        let mut rng = seeded(52);
        let coder = BinaryCoder::new(32, 256, &mut rng);
        use rand::Rng;
        let base: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let near: Vec<f32> = base.iter().map(|v| v + 0.02).collect();
        let far: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let (cb, cn, cf) = (coder.encode(&base), coder.encode(&near), coder.encode(&far));
        assert!(
            BinaryCoder::hamming(&cb, &cn) < BinaryCoder::hamming(&cb, &cf),
            "locality-sensitive property violated"
        );
    }

    #[test]
    fn recall_penalized_vs_exact_search() {
        let mut rng = seeded(53);
        let ds = Dataset::gaussian_mixture(3_000, 32, 30, 0.8, &mut rng);
        let (queries, _) = ds.queries(24, 0.2, &mut rng);
        let truth = ds.ground_truth(&queries, 10);

        let coder = BinaryCoder::new(32, 64, &mut rng); // 2x compression of 32 floats
        let codes = coder.encode_batch(&ds.points);
        let results: Vec<Vec<usize>> = (0..queries.rows())
            .map(|qi| coder.search(&codes, queries.row(qi), 10))
            .collect();
        let r = recall(&results, &truth, 10).recall_at_k;
        assert!(
            r < 0.9,
            "64-bit codes should lose measurable recall, got {r:.3}"
        );
        assert!(
            r > 0.05,
            "codes should still retrieve something, got {r:.3}"
        );
    }

    #[test]
    fn more_bits_improve_recall() {
        let mut rng = seeded(54);
        let ds = Dataset::gaussian_mixture(2_000, 32, 25, 0.8, &mut rng);
        let (queries, _) = ds.queries(16, 0.2, &mut rng);
        let truth = ds.ground_truth(&queries, 10);
        let r = |bits: usize| {
            let coder = BinaryCoder::new(32, bits, &mut seeded(55));
            let codes = coder.encode_batch(&ds.points);
            let results: Vec<Vec<usize>> = (0..queries.rows())
                .map(|qi| coder.search(&codes, queries.row(qi), 10))
                .collect();
            recall(&results, &truth, 10).recall_at_k
        };
        let short = r(32);
        let long = r(512);
        assert!(
            long > short,
            "recall should grow with bits: {short:.3} -> {long:.3}"
        );
    }
}
