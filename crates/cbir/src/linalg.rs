//! Dense linear algebra for the CBIR kernels.
//!
//! Row-major `f32` matrices, a blocked GEMM, squared Euclidean distances and
//! the decomposed-distance identity (Equation 1 of the paper):
//!
//! ```text
//! ||q - c||^2 = ||q||^2 + ||c||^2 - 2 <q, c>
//! ```
//!
//! which turns short-list retrieval into one matrix-matrix product plus a
//! broadcast addition — the shape the GeMM accelerator template runs.

/// A row-major `f32` matrix. Zero-dimension matrices are legal (an empty
/// query batch or candidate list is a normal runtime input, not a bug) —
/// they simply have no rows to borrow.
#[derive(Clone, Debug, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix. Zero dimensions produce an empty matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "Matrix: shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "Matrix::row: {i} out of {}", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "Matrix::row_mut: {i} out of {}", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The backing slice (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }
}

/// `C = A x B^T` — blocked for cache reuse. `A` is `m x k`, `B` is
/// `n x k` (both row-major), result is `m x n`. Taking `B` row-major with
/// rows as the *right* operand's columns is an explicitly transposed
/// layout: the inner loop walks two contiguous rows, which matches how the
/// centroid matrix is stored "in columnar fashion" in the paper.
///
/// Every output element is accumulated in the same `t`-ordered lane model
/// on either kernel tier, scalar or explicit SIMD (see [`crate::simd`]),
/// so the result is byte-identical on any host.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols, b.cols,
        "gemm_nt: inner dimensions {} vs {}",
        a.cols, b.cols
    );
    let mut c = Matrix::zeros(a.rows, b.rows);
    gemm_nt_rows_on(crate::simd::active(), a, b, &mut c.data);
    c
}

/// SIMD lane count of the register-blocked kernels. Eight `f32` lanes map
/// onto one AVX2 register (or two NEON registers): the scalar kernels keep
/// the lanes independent so the compiler can auto-vectorize them, and the
/// explicit kernels in [`crate::simd`] hold the *same* lanes in real
/// vector registers — which is what makes the two tiers bit-identical.
pub(crate) const LANES: usize = 8;

/// Columns of `B^T` processed per inner-kernel invocation.
const COLS: usize = 4;

/// Folds an 8-lane accumulator with a fixed reduction tree. Every kernel
/// in this module *and* every explicit-SIMD kernel in [`crate::simd`]
/// reduces through this one function, so any two paths that accumulate
/// the same lanes agree bit-for-bit.
#[inline]
pub(crate) fn reduce(acc: [f32; LANES]) -> f32 {
    let q = [
        acc[0] + acc[4],
        acc[1] + acc[5],
        acc[2] + acc[6],
        acc[3] + acc[7],
    ];
    (q[0] + q[2]) + (q[1] + q[3])
}

/// Eight-lane register-blocked dot product: lane `l` accumulates the
/// products at indices `t ≡ l (mod 8)` in increasing `t` order, then the
/// lanes fold through [`reduce`]. The tail (`len % 8`) lands in lanes
/// `0..len%8`; since a lane holding `+0.0` can never turn into `-0.0` by
/// adding products, this is bitwise identical to zero-padding the inputs
/// to a multiple of eight.
///
/// This is *the* accumulation order of the crate: the GEMM micro-kernel
/// and [`norm_sq`] route through it, and the k-means assignment kernel
/// runs the same lane model per point, which is what makes decomposed
/// distances of a vector to itself exactly zero.
///
/// Dispatches to the explicit-SIMD tier ([`crate::simd`]) when the
/// process-wide [`crate::simd::active`] path allows — bit-identical by
/// construction, so call sites never need to care which tier ran.
#[inline]
pub(crate) fn dot8(a: &[f32], b: &[f32]) -> f32 {
    crate::simd::dot8_on(crate::simd::active(), a, b)
}

/// The portable scalar body of [`dot8`] — the reference the SIMD tier is
/// proven against, and the fallback it degrades to.
#[inline]
pub(crate) fn dot8_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; LANES];
    let main = a.len() / LANES * LANES;
    let (ah, at) = a.split_at(main);
    let (bh, bt) = b.split_at(main);
    for (av, bv) in ah.chunks_exact(LANES).zip(bh.chunks_exact(LANES)) {
        for l in 0..LANES {
            acc[l] += av[l] * bv[l];
        }
    }
    for (l, (x, y)) in at.iter().zip(bt).enumerate() {
        acc[l] += x * y;
    }
    reduce(acc)
}

/// The body of [`gemm_nt`] on an explicit kernel tier, writing the
/// `a.rows() x b.rows()` product into `out`. Exposed (hidden) so the
/// determinism suite can prove every available
/// [`SimdPath`](crate::simd::SimdPath) produces bit-identical output
/// without racing on the process-wide dispatch override.
///
/// The inner kernel is register-blocked 4 columns x 8 lanes: four rows of
/// `B` are packed into one contiguous panel (reused across the whole
/// i-loop, so it stays cache-hot), and each `A` row accumulates into four
/// independent 8-lane accumulators. Per output element the accumulation
/// order is exactly [`dot8`]'s — lane `l` sums `t ≡ l (mod 8)` in order,
/// then the fixed [`reduce`] tree — so the 4-wide kernel and the remainder
/// columns (plain `dot8`) produce bit-identical results.
///
/// # Panics
///
/// Panics if `out` does not hold exactly `a.rows() x b.rows()` elements.
#[doc(hidden)]
pub fn gemm_nt_rows_on(path: crate::simd::SimdPath, a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let n = b.rows;
    let k = a.cols;
    assert_eq!(out.len(), a.rows * n, "gemm_nt_rows_on: output size");
    // Packed B panel: COLS rows of B, contiguous. One allocation per
    // call, reused across every (i, j0) iteration.
    let mut panel = vec![0.0f32; COLS * k];
    for j0 in (0..n).step_by(COLS) {
        if n - j0 >= COLS {
            for c in 0..COLS {
                panel[c * k..(c + 1) * k].copy_from_slice(b.row(j0 + c));
            }
            let (b0, rest) = panel.split_at(k);
            let (b1, rest) = rest.split_at(k);
            let (b2, b3) = rest.split_at(k);
            for i in 0..a.rows {
                let ar = a.row(i);
                let vals = crate::simd::kernel4_on(path, ar, b0, b1, b2, b3);
                out[i * n + j0..i * n + j0 + COLS].copy_from_slice(&vals);
            }
        } else {
            // Remainder columns: same order via the one-row dot kernel.
            for j in j0..n {
                let br = b.row(j);
                for i in 0..a.rows {
                    out[i * n + j] = crate::simd::dot8_on(path, a.row(i), br);
                }
            }
        }
    }
}

/// The portable scalar inner loop of the 4x8 micro-kernel: one `A` row
/// against four packed `B` rows, four independent 8-lane accumulators.
/// Per output element the accumulation order is exactly [`dot8`]'s. The
/// explicit-SIMD siblings in [`crate::simd`] hold the same four
/// accumulators in vector registers and are proven bit-identical.
#[inline]
pub(crate) fn kernel4_scalar(
    ar: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [f32; COLS] {
    let k = ar.len();
    let main = k / LANES * LANES;
    let mut acc = [[0.0f32; LANES]; COLS];
    for t0 in (0..main).step_by(LANES) {
        for l in 0..LANES {
            let x = ar[t0 + l];
            acc[0][l] += x * b0[t0 + l];
            acc[1][l] += x * b1[t0 + l];
            acc[2][l] += x * b2[t0 + l];
            acc[3][l] += x * b3[t0 + l];
        }
    }
    for (l, t) in (main..k).enumerate() {
        let x = ar[t];
        acc[0][l] += x * b0[t];
        acc[1][l] += x * b1[t];
        acc[2][l] += x * b2[t];
        acc[3][l] += x * b3[t];
    }
    let mut vals = [0.0f32; COLS];
    for (v, lanes) in vals.iter_mut().zip(acc) {
        *v = reduce(lanes);
    }
    vals
}

// ---------------------------------------------------------------------------
// Points-as-lanes kernels
// ---------------------------------------------------------------------------
//
// The GEMM micro-kernel vectorizes *along* a dot product, which pays off
// only when the vectors are long: at the 4-dim sub-vectors product
// quantization trains on, `kernel4` runs no full 8-lane step at all. The
// kernels below vectorize *across* points instead: lane `p` of every
// vector is point `p` of an 8-point block (transposed into a panel, or
// gathered), so a vector operation advances eight independent per-point
// computations by one step each. Every point still sees exactly the IEEE operations, in
// exactly the order, of its one-point reference ([`dot8`]/[`norm_sq`] for
// the decomposed distance, [`dist_sq`] for the direct one), so the results
// are bit-identical to it whatever the dimension, block or kernel tier.

/// Transposes up to [`LANES`] rows of one length into a points-as-lanes
/// panel: element `t` of row `p` lands at `panel[t * LANES + p]`. Lanes
/// past the last row are zero.
pub(crate) fn pack_lanes<'a>(rows: impl Iterator<Item = &'a [f32]>, panel: &mut [f32]) {
    panel.fill(0.0);
    for (p, row) in rows.enumerate() {
        debug_assert!(p < LANES && row.len() * LANES == panel.len());
        for (t, &x) in row.iter().enumerate() {
            panel[t * LANES + p] = x;
        }
    }
}

/// The [`dot8`] lane model for the eight points of a `d`-dim panel: step
/// `t` multiplies panel row `t` by `cent[t]` (or by itself when `cent` is
/// `None`, giving the points' norms) and adds into accumulator lane
/// `t % 8`, steps in increasing `t`. Past the last step the loop exits,
/// leaving the remaining lanes at `+0.0` just as `dot8`'s tail does. Each
/// point then folds through [`reduce`].
#[inline]
fn dot_lanes(panel: &[f32], cent: Option<&[f32]>) -> [f32; LANES] {
    let d = panel.len() / LANES;
    let mut acc = [[0.0f32; LANES]; LANES];
    let mut t0 = 0;
    while t0 < d {
        for (l, a) in acc.iter_mut().enumerate().take(d - t0) {
            let t = t0 + l;
            let x: [f32; LANES] = panel[t * LANES..(t + 1) * LANES]
                .try_into()
                .expect("whole panel row");
            let y = cent.map_or(x, |c| [c[t]; LANES]);
            for p in 0..LANES {
                a[p] += x[p] * y[p];
            }
        }
        t0 += LANES;
    }
    std::array::from_fn(|p| reduce(std::array::from_fn(|l| acc[l][p])))
}

/// The portable scalar body of the fused assignment kernel: for the eight
/// points of a `d`-dim panel, the nearest of the `d`-dim centroid rows in
/// the decomposed form `(||p||^2 + ||c||^2) - 2<p, c>`, norms and dot
/// products accumulated in the [`dot8`] lane model, then a strict-`<`
/// argmin over centroids in index order (ties keep the lowest index;
/// `NaN` never wins). Returns each lane's centroid index and distance.
pub(crate) fn nearest_lanes_scalar(
    panel: &[f32],
    centroids: &[f32],
    c_norms: &[f32],
) -> ([usize; LANES], [f32; LANES]) {
    let d = panel.len() / LANES;
    let p_norms = dot_lanes(panel, None);
    let mut best = [0usize; LANES];
    let mut best_d = [f32::INFINITY; LANES];
    for (c, &c_norm) in c_norms.iter().enumerate() {
        let dots = dot_lanes(panel, Some(&centroids[c * d..(c + 1) * d]));
        for p in 0..LANES {
            let dd = p_norms[p] + c_norm - 2.0 * dots[p];
            let closer = dd < best_d[p];
            best[p] = if closer { c } else { best[p] };
            best_d[p] = if closer { dd } else { best_d[p] };
        }
    }
    (best, best_d)
}

/// Fused nearest-centroid assignment (Equation 1) of every row of
/// `points` against `centroids` on an explicit kernel tier — the k-means
/// assignment step: writes each row's nearest centroid index into `best`
/// and its decomposed squared distance into `best_d`.
///
/// Rows go through the kernel eight at a time, transposed into one
/// points-as-lanes panel that every block reuses; no `rows x k`
/// dot-product buffer is ever materialized. Per row the result is bitwise
/// the one-point scan `norm_sq(p) + norm_sq(c) - 2.0 * dot8(p, c)` in
/// centroid order with a strict `<`, whatever the tier or block. Exposed
/// (hidden) so the determinism suite can hold it to that reference.
///
/// # Panics
///
/// Panics if the dimensions or output lengths disagree.
#[doc(hidden)]
pub fn nearest_centroids_on(
    path: crate::simd::SimdPath,
    points: &Matrix,
    centroids: &Matrix,
    best: &mut [usize],
    best_d: &mut [f32],
) {
    assert_eq!(points.cols, centroids.cols, "nearest_centroids: dims");
    assert!(
        best.len() == points.rows && best_d.len() == points.rows,
        "nearest_centroids: one output per row"
    );
    let c_norms: Vec<f32> = (0..centroids.rows)
        .map(|c| norm_sq(centroids.row(c)))
        .collect();
    let mut panel = vec![0.0f32; LANES * points.cols];
    for (b, (idx, dist)) in best
        .chunks_mut(LANES)
        .zip(best_d.chunks_mut(LANES))
        .enumerate()
    {
        pack_lanes(block_rows(points, b * LANES, idx.len()), &mut panel);
        let (lane_idx, lane_dist) =
            crate::simd::nearest_lanes_on(path, &panel, &centroids.data, &c_norms);
        idx.copy_from_slice(&lane_idx[..idx.len()]);
        dist.copy_from_slice(&lane_dist[..dist.len()]);
    }
}

/// The value `Iterator::sum` folds an `f32` sum from (`-0.0`): the
/// points-as-lanes forms of [`dist_sq`] start every lane there too.
#[inline]
pub(crate) fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// [`dist_sq`] of the eight panel points against `q`: lane `p` computes
/// `(x - q[t])^2` and adds it to its running sum in increasing `t`, from
/// [`sum_start`] — the one-point function's exact operation sequence.
#[inline]
pub(crate) fn dist_sq_lanes(panel: &[f32], q: &[f32]) -> [f32; LANES] {
    let mut acc = [sum_start(); LANES];
    for (x, &y) in panel.chunks_exact(LANES).zip(q) {
        for p in 0..LANES {
            let d = x[p] - y;
            acc[p] += d * d;
        }
    }
    acc
}

/// The rows `first .. first + count` of `m` (at most [`LANES`]), as
/// slices, for [`pack_lanes`].
fn block_rows(m: &Matrix, first: usize, count: usize) -> impl Iterator<Item = &[f32]> {
    let d = m.cols;
    let block = &m.data[first * d..(first + count) * d];
    (0..count).map(move |p| &block[p * d..(p + 1) * d])
}

/// [`dist_sq`] of every row of `points` to `q`, into `out`, on an explicit
/// kernel tier: the AVX2 tier gathers eight rows per points-as-lanes step,
/// the scalar tier calls [`dist_sq`] per row — bitwise the same values.
/// Exposed (hidden) so the determinism suite can hold every tier to the
/// one-point form.
///
/// # Panics
///
/// Panics if `q.len()` differs from the row length or `out.len()` from
/// the row count.
#[doc(hidden)]
pub fn dist_sq_rows_on(path: crate::simd::SimdPath, points: &Matrix, q: &[f32], out: &mut [f32]) {
    check_rows(points, q, out);
    crate::simd::dist_sq_rows_on::<false>(path, &points.data, q, out);
}

/// The k-means++ D² refresh through the [`dist_sq_rows_on`] kernel:
/// lowers `d2[i]` to `dist_sq(points.row(i), q)` wherever that is strictly
/// smaller, in place.
///
/// # Panics
///
/// Panics on the same shape mismatches as [`dist_sq_rows_on`].
#[doc(hidden)]
pub fn lower_dist_sq_rows_on(
    path: crate::simd::SimdPath,
    points: &Matrix,
    q: &[f32],
    d2: &mut [f32],
) {
    check_rows(points, q, d2);
    crate::simd::dist_sq_rows_on::<true>(path, &points.data, q, d2);
}

fn check_rows(points: &Matrix, q: &[f32], out: &[f32]) {
    assert_eq!(points.cols, q.len(), "dist_sq_rows: length mismatch");
    assert_eq!(points.rows, out.len(), "dist_sq_rows: output size");
}

/// The scalar tier of [`dist_sq_rows_on`] (`KEEP_MIN = false`) and
/// [`lower_dist_sq_rows_on`] (`KEEP_MIN = true`).
pub(crate) fn dist_sq_rows_scalar<const KEEP_MIN: bool>(
    points: &[f32],
    q: &[f32],
    out: &mut [f32],
) {
    let d = q.len();
    for (i, slot) in out.iter_mut().enumerate() {
        let x = dist_sq(&points[i * d..(i + 1) * d], q);
        *slot = if !KEEP_MIN || x < *slot { x } else { *slot };
    }
}

/// Index of the row of `book` nearest each panel point by [`dist_sq`],
/// strict `<` in row order (ties keep the lowest index) — the
/// points-as-lanes form of a one-point nearest-codeword scan.
pub(crate) fn nearest_direct_lanes(panel: &[f32], book: &Matrix) -> [usize; LANES] {
    let mut best = [0usize; LANES];
    let mut best_d = [f32::INFINITY; LANES];
    for c in 0..book.rows {
        let d = dist_sq_lanes(panel, book.row(c));
        for p in 0..LANES {
            if d[p] < best_d[p] {
                best[p] = c;
                best_d[p] = d[p];
            }
        }
    }
    best
}

/// Squared L2 norm of a vector, accumulated in `dot8` order so that
/// `norm_sq(v)` is bitwise the kernel's `<v, v>` — the identity
/// `||p||^2 + ||p||^2 - 2<p, p> = 0` then holds *exactly* in `f32`.
#[must_use]
pub fn norm_sq(v: &[f32]) -> f32 {
    dot8(v, v)
}

/// Direct squared Euclidean distance (Equation 2 of the paper).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
#[must_use]
pub fn dist_sq(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "dist_sq: length mismatch");
    p.iter()
        .zip(q)
        .map(|(a, b)| {
            let d = a - b;
            d * d
        })
        .sum()
}

/// Decomposed squared distances of a query batch against a point set
/// (Equation 1): one GEMM plus broadcast additions of precomputed norms.
/// Returns the `queries.rows x points.rows` distance matrix.
///
/// # Panics
///
/// Panics if dimensions disagree.
#[must_use]
#[allow(clippy::needless_range_loop)] // rows of three matrices walked in lockstep
pub fn batch_dist_sq(queries: &Matrix, points: &Matrix) -> Matrix {
    let dots = gemm_nt(queries, points);
    let q_norms: Vec<f32> = (0..queries.rows())
        .map(|i| norm_sq(queries.row(i)))
        .collect();
    // ||c||^2 is precomputed once and reused for every query, exactly as the
    // paper stores it alongside the centroids.
    let p_norms: Vec<f32> = (0..points.rows()).map(|j| norm_sq(points.row(j))).collect();
    let mut out = Matrix::zeros(queries.rows(), points.rows());
    for i in 0..queries.rows() {
        let row = out.row_mut(i);
        let dot_row = dots.row(i);
        for j in 0..points.rows() {
            row[j] = q_norms[i] + p_norms[j] - 2.0 * dot_row[j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn gemm_small_known_answer() {
        // A = [[1,2],[3,4]], B rows are the columns of the right operand:
        // B = [[5,6],[7,8]] -> C = A x B^T = [[17,23],[39,53]].
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = gemm_nt(&a, &b);
        assert_eq!(c.as_slice(), &[17.0, 23.0, 39.0, 53.0]);
    }

    #[test]
    fn gemm_blocks_match_naive_on_odd_sizes() {
        // 37 x 19 x 41: sizes that divide neither the 4-column block nor
        // the 8-lane accumulator. Every element is checked — a broken
        // interior block or mis-handled remainder column cannot hide.
        let a = Matrix::from_vec(37, 19, (0..37 * 19).map(|i| (i % 7) as f32 - 3.0).collect());
        let b = Matrix::from_vec(41, 19, (0..41 * 19).map(|i| (i % 5) as f32 - 2.0).collect());
        let c = gemm_nt(&a, &b);
        for i in 0..37 {
            for j in 0..41 {
                let naive: f32 = (0..19).map(|t| a.row(i)[t] * b.row(j)[t]).sum();
                assert!(
                    (c.row(i)[j] - naive).abs() < 1e-3,
                    "mismatch at ({i}, {j}): {} vs naive {naive}",
                    c.row(i)[j]
                );
            }
        }
    }

    #[test]
    fn gemm_remainder_columns_match_wide_kernel_bitwise() {
        // The same B rows reached through the 4-wide kernel (as columns
        // 0..4 of a 5-column B) and through the remainder path (as the
        // only column) must produce identical bits.
        let k = 19;
        let a = Matrix::from_vec(3, k, (0..3 * k).map(|i| (i as f32).sin()).collect());
        let b5 = Matrix::from_vec(5, k, (0..5 * k).map(|i| (i as f32).cos()).collect());
        let wide = gemm_nt(&a, &b5);
        for j in 0..5 {
            let b1 = Matrix::from_vec(1, k, b5.row(j).to_vec());
            let narrow = gemm_nt(&a, &b1);
            for i in 0..3 {
                assert_eq!(wide.row(i)[j].to_bits(), narrow.row(i)[0].to_bits());
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        // A rerank over an empty candidate list is a normal runtime input.
        let q = Matrix::from_vec(3, 4, vec![1.0; 12]);
        let none = Matrix::zeros(0, 4);
        let d = batch_dist_sq(&q, &none);
        assert_eq!((d.rows(), d.cols()), (3, 0));
        let d = batch_dist_sq(&none, &q);
        assert_eq!((d.rows(), d.cols()), (0, 3));
        assert!(d.as_slice().is_empty());
        let c = gemm_nt(&none, &none);
        assert_eq!((c.rows(), c.cols()), (0, 0));
        assert_eq!(norm_sq(&[]), 0.0);
    }

    #[test]
    fn zero_width_products_are_zero() {
        // Zero-column operands are legal `Matrix` values: every dot
        // product is empty, at any row count.
        let a = Matrix::zeros(300, 0);
        let b = Matrix::zeros(7, 0);
        let c = gemm_nt(&a, &b);
        assert_eq!((c.rows(), c.cols()), (300, 7));
        assert!(c.as_slice().iter().all(|&x| x.to_bits() == 0));
    }

    #[test]
    fn self_distance_is_exactly_zero_in_decomposed_form() {
        // norm_sq and the GEMM kernel share one accumulation order, so
        // ||p||^2 + ||p||^2 - 2<p,p> cancels exactly — no epsilon.
        let p = Matrix::from_vec(1, 19, (0..19).map(|i| (i as f32).sin() * 3.7).collect());
        let d = batch_dist_sq(&p, &p);
        assert_eq!(d.row(0)[0], 0.0);
    }

    #[test]
    fn dist_identities() {
        let p = [1.0, 2.0, 3.0];
        let q = [4.0, 6.0, 3.0];
        assert_eq!(dist_sq(&p, &q), 25.0);
        assert_eq!(dist_sq(&p, &p), 0.0);
        assert_eq!(norm_sq(&p), 14.0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn gemm_rejects_mismatched_inner_dimensions() {
        let _ = gemm_nt(&Matrix::zeros(2, 3), &Matrix::zeros(2, 4));
    }

    #[test]
    #[should_panic(expected = "one output per row")]
    fn assignment_rejects_short_outputs() {
        let points = Matrix::zeros(9, 2);
        let (mut best, mut best_d) = (vec![0; 8], vec![0.0; 9]);
        let path = crate::simd::SimdPath::Scalar;
        nearest_centroids_on(path, &points, &Matrix::zeros(1, 2), &mut best, &mut best_d);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_shape_rejected() {
        let _ = Matrix::from_vec(2, 3, vec![0.0; 5]);
    }

    proptest! {
        /// Equation 1 == Equation 2: the decomposition is exact (up to f32
        /// rounding) for every input — the identity the short-list
        /// accelerator relies on.
        #[test]
        fn decomposed_distance_matches_direct(
            qs in proptest::collection::vec(-10.0f32..10.0, 8 * 4),
            ps in proptest::collection::vec(-10.0f32..10.0, 8 * 6),
        ) {
            let queries = Matrix::from_vec(4, 8, qs);
            let points = Matrix::from_vec(6, 8, ps);
            let d = batch_dist_sq(&queries, &points);
            for i in 0..4 {
                for j in 0..6 {
                    let direct = dist_sq(queries.row(i), points.row(j));
                    let scale = direct.abs().max(1.0);
                    prop_assert!((d.row(i)[j] - direct).abs() / scale < 1e-3,
                        "i={i} j={j}: {} vs {direct}", d.row(i)[j]);
                }
            }
        }

        /// GEMM distributes over scalar multiplication of an operand.
        #[test]
        fn gemm_scales_linearly(
            xs in proptest::collection::vec(-4.0f32..4.0, 6 * 5),
            k in -3.0f32..3.0,
        ) {
            let a = Matrix::from_vec(6, 5, xs.clone());
            let b = Matrix::from_vec(3, 5, xs[..15].to_vec());
            let scaled = Matrix::from_vec(6, 5, xs.iter().map(|x| x * k).collect());
            let c1 = gemm_nt(&scaled, &b);
            let c0 = gemm_nt(&a, &b);
            for i in 0..6 {
                for j in 0..3 {
                    let want = c0.row(i)[j] * k;
                    prop_assert!((c1.row(i)[j] - want).abs() < 1e-2 * want.abs().max(1.0));
                }
            }
        }
    }
}
