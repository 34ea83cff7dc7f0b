//! Runtime-dispatched explicit-SIMD kernels for the hot primitives. Each
//! has a portable scalar body (the reference, and what NEON runs where it
//! has no sibling) and an `*_on(path, …)` dispatcher:
//!
//! - `dot8`, `norm_sq` and the 4x8 GEMM micro-kernel inner loop
//!   (`kernel4`), which vectorize along one dot product (AVX2 and NEON);
//! - the fused k-means assignment (`nearest_lanes`), which vectorizes
//!   across eight points and, for dimensions up to 8, scores four such
//!   panels per pass over the centroids (AVX2);
//! - the direct-distance D² refresh of k-means++ (`dist_sq_rows`, AVX2);
//! - the product-quantizer encode scan (`nearest_direct_lanes`, AVX2);
//! - the binary-code sign bits (`sign_words`), which vectorize across
//!   hyperplanes and pack signs with compare + `movemask` (AVX2).
//!
//! ## Why the SIMD path is *bitwise* identical to the scalar one
//!
//! Every kernel in [`crate::linalg`] already accumulates through one fixed
//! lane model: lane `l` of an 8-wide accumulator sums the products at
//! indices `t ≡ l (mod 8)` in increasing `t` order, and the lanes fold
//! through the shared `linalg::reduce` tree. That model *is* one
//! AVX2 `f32x8` register (or a NEON `float32x4_t` pair) updated with a
//! per-lane multiply followed by a per-lane add. The kernels here therefore
//! issue exactly `vmulps` + `vaddps` (`vmulq` + `vaddq` on NEON) —
//! deliberately **no FMA**, which would skip the intermediate rounding the
//! scalar path performs and change low bits — spill the vector accumulator
//! to the same `[f32; 8]` the scalar path uses, run the identical scalar
//! tail loop for `len % 8` elements, and fold through the *same* `reduce`
//! function. IEEE-754 lane arithmetic is exact per operation (including
//! NaN propagation, signed zeros and subnormals — Rust never enables
//! FTZ/DAZ), so every output bit matches the scalar path. The determinism
//! suite proves it with `to_bits()` property tests and a full-suite stdout
//! comparison (`tests/runner_determinism.rs`).
//!
//! The points-as-lanes kernels keep the same promise with the roles
//! swapped: register lane `p` is point `p`, and each point's lane runs its
//! one-point reference's exact sequence — the `dot8` lane model (eight
//! accumulators, one per `t mod 8`, folded through `reduce`) for the
//! decomposed distance, `dist_sq`'s single sequential sum for the direct
//! one. The argmin is an ordered strict `<` scan, lane by lane. The
//! binary encoder's lanes are hyperplanes: each runs `Iterator::sum`'s
//! sequential projection, and an ordered `>= 0` compare gives the sign
//! bit exactly as the scalar `dot >= 0.0` does (`NaN` false, `-0.0`
//! true).
//!
//! ## Exact shortcuts in the assignment kernel
//!
//! For `d <= 8` each `dot8` accumulator takes at most one product, and the
//! AVX2 assignment kernel skips operations whose result it can prove. All
//! rests on one IEEE-754 fact (round to nearest, which Rust always uses):
//! **(a)** `v + (+0.0)` is `v` bit for bit for every `v` except `-0.0`
//! and a signaling NaN (quiet NaN payloads pass through; no lane holds a
//! signaling NaN, since every lane is the result of an arithmetic
//! operation), `(-0.0) + (+0.0)` is `+0.0`, and a sum is `-0.0` only when
//! both addends are `-0.0`.
//!
//! 1. *Untouched lanes add nothing.* `dot8` starts every accumulator at
//!    `+0.0`, so by (a) none can ever hold `-0.0`, and `reduce`'s
//!    `acc[l] + acc[l + 4]` with an untouched `acc[l + 4] = +0.0` returns
//!    `acc[l]`. For `d <= 4` all four of those additions go, and the fold
//!    is `(acc[0] + acc[2]) + (acc[1] + acc[3])`.
//! 2. *`vminps` is the value blend.* `_mm256_min_ps(dd, best)` returns
//!    `dd` where `dd < best` and `best` otherwise — including when either
//!    is NaN and when both are zeros of either sign — which is exactly the
//!    strict ordered `<` blend it replaces. Only the index still needs the
//!    compare mask.
//! 3. *The distance never sees the sign of a zero dot product.* The kernel
//!    also drops each accumulator's `+0.0 +` start and uses the bare
//!    product. By (a) that can only turn a `+0.0` lane into `-0.0`. A sum
//!    whose addends differ at most in the sign of a zero differs at most
//!    in the sign of a zero (a nonzero or NaN addend passes through a zero
//!    one unchanged), so through the whole fold — the skipped untouched
//!    lanes of identity 1 included — the dot product can differ from the
//!    reference only as `+0.0` against `-0.0`. It enters the distance only
//!    as `s - 2.0 * dot`, with `s = ||p||^2 + ||c||^2`: `2.0 * dot` keeps
//!    that difference, and `s - (±0.0)` is `s` both ways unless `s` is
//!    `-0.0`. It never is: `||p||^2` is a sum of squares, a square is
//!    never `-0.0`, and by (a) neither is a sum with such an addend. (The
//!    point norms take the same bare-product shortcut, which for squares
//!    is exact outright.)
//!
//! The property tests in `tests/runner_determinism.rs` pin all three
//! against the one-point reference with payloads that include `±0.0`,
//! infinities, NaN and exact ties.
//!
//! One piece of fine print: when two quiet NaNs with *different* payloads
//! meet in a mul/add, hardware keeps the first source operand's payload —
//! and LLVM commutes commutative float ops freely, so that ordering is
//! not stable even between two scalar builds. The guarantee is therefore
//! "bit-identical wherever scalar Rust itself is deterministic": all
//! finite/∞/±0 inputs, any number of same-bits NaNs, and a lone
//! distinct-payload NaN all round-trip exactly (the property tests cover
//! each class); only multi-payload NaN meets are out of scope.
//!
//! ## Dispatch
//!
//! The path is resolved once per process: `REACH_SIMD=off|avx2|neon|auto`
//! (default `auto`) is consulted, the host's features are detected
//! (`is_x86_feature_detected!("avx2")`; NEON is baseline on aarch64), and
//! the choice is cached in a `OnceLock` plus announced once on stderr so
//! recorded runs are attributable. `experiments` exports the same choice
//! as the `cbir.simd_dispatch` gauge. Benches and the determinism tests
//! can pin a path with the hidden [`force`] override.
//!
//! This is the only module in the workspace allowed to contain `unsafe`
//! (enforced by `tests/lint_hotpath.rs`); every unsafe block is confined to
//! `#[target_feature]` functions reached only after feature detection.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::linalg::{reduce, LANES};

/// A kernel implementation tier. `Scalar` is the auto-vectorized reference
/// path; the explicit paths are bit-identical accelerations of it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdPath {
    /// The portable scalar kernels in [`crate::linalg`].
    Scalar,
    /// x86_64 AVX2: one 8-lane `f32x8` register per accumulator.
    Avx2,
    /// aarch64 NEON: two 4-lane `float32x4_t` registers per accumulator.
    Neon,
}

impl SimdPath {
    /// Stable lowercase name (`scalar` / `avx2` / `neon`) — the value of
    /// the `REACH_SIMD` override, the stderr note and bench headers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
            SimdPath::Neon => "neon",
        }
    }

    /// Numeric id for the `cbir.simd_dispatch` telemetry gauge
    /// (0 scalar, 1 avx2, 2 neon).
    #[must_use]
    pub fn gauge_value(self) -> f64 {
        match self {
            SimdPath::Scalar => 0.0,
            SimdPath::Avx2 => 1.0,
            SimdPath::Neon => 2.0,
        }
    }

    /// Whether this process can actually execute the path.
    #[must_use]
    pub fn supported(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdPath::Neon => true, // NEON is architecturally mandatory.
            #[allow(unreachable_patterns)] // other-arch builds
            _ => false,
        }
    }
}

/// The widest supported path on this host — what `REACH_SIMD=auto` picks.
#[must_use]
pub fn best_supported() -> SimdPath {
    if SimdPath::Avx2.supported() {
        SimdPath::Avx2
    } else if SimdPath::Neon.supported() {
        SimdPath::Neon
    } else {
        SimdPath::Scalar
    }
}

/// What `REACH_SIMD` asked for, before feature detection is applied.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Request {
    Auto,
    Exact(SimdPath),
    Unknown,
}

/// Parses a `REACH_SIMD` value. Pure so the table is unit-testable
/// without touching the process environment or the `OnceLock`.
fn parse_request(value: Option<&str>) -> Request {
    match value {
        None | Some("auto") | Some("") => Request::Auto,
        Some("off") | Some("scalar") => Request::Exact(SimdPath::Scalar),
        Some("avx2") => Request::Exact(SimdPath::Avx2),
        Some("neon") => Request::Exact(SimdPath::Neon),
        Some(_) => Request::Unknown,
    }
}

/// Resolves the request against the host: an explicitly requested but
/// unsupported path degrades to scalar (with a warning from the caller)
/// rather than crashing — `REACH_SIMD=avx2` on a non-AVX2 host is a
/// configuration error in a CI A/B matrix, not a reason to abort runs.
fn resolve(req: Request) -> SimdPath {
    match req {
        Request::Auto | Request::Unknown => best_supported(),
        Request::Exact(p) if p.supported() => p,
        Request::Exact(_) => SimdPath::Scalar,
    }
}

/// Test/bench override: `1 + path as u8`; `0` defers to the environment.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The environment-resolved dispatch, cached once per process.
static DISPATCHED: OnceLock<SimdPath> = OnceLock::new();

/// The kernel path every dispatching entry point in [`crate::linalg`]
/// uses. Resolved once per process from `REACH_SIMD` + feature detection
/// (with a single stderr note naming the choice), unless a test or bench
/// pinned it via [`force`].
#[must_use]
pub fn active() -> SimdPath {
    match FORCED.load(Ordering::Relaxed) {
        1 => SimdPath::Scalar,
        2 => SimdPath::Avx2,
        3 => SimdPath::Neon,
        _ => *DISPATCHED.get_or_init(|| {
            let var = std::env::var("REACH_SIMD").ok();
            let req = parse_request(var.as_deref());
            let path = resolve(req);
            match req {
                Request::Unknown => eprintln!(
                    "(simd dispatch: {} — unknown REACH_SIMD={:?}, expected off|avx2|neon|auto)",
                    path.name(),
                    var.as_deref().unwrap_or_default()
                ),
                Request::Exact(want) if want != path => eprintln!(
                    "(simd dispatch: {} — REACH_SIMD={} not supported on this host)",
                    path.name(),
                    want.name()
                ),
                _ => eprintln!("(simd dispatch: {})", path.name()),
            }
            path
        }),
    }
}

/// Pins the dispatch for benches and the determinism tests
/// (`Some(path)`), or releases the pin (`None`). Because every path is
/// bit-identical, flipping this concurrently with other work is benign —
/// it can only change *which* identical bits are computed.
///
/// # Panics
///
/// Panics if the requested path is not supported on this host — a bench
/// or CI leg asking for hardware it does not have should fail loudly, not
/// silently measure the wrong kernel.
#[doc(hidden)]
pub fn force(path: Option<SimdPath>) {
    let code = match path {
        None => 0,
        Some(p) => {
            assert!(
                p.supported(),
                "simd::force({}): path not supported on this host",
                p.name()
            );
            1 + p as u8
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Per-path entry points
// ---------------------------------------------------------------------------
//
// These are the only places the unsafe kernels are reached. The safety
// argument is the dispatch invariant: a `SimdPath` value other than
// `Scalar` can only be produced by `active()`/`force()`, both of which
// check `supported()` first — and a path value smuggled past them on the
// wrong architecture falls through to the scalar fallback (bit-identical
// anyway), never into an unsupported intrinsic.

/// [`crate::linalg::dot8`] on an explicit kernel tier. Exposed (hidden)
/// so bitwise-equivalence tests can pin the path per call instead of
/// racing on the process-wide override.
#[doc(hidden)]
#[inline]
#[must_use]
pub fn dot8_on(path: SimdPath, a: &[f32], b: &[f32]) -> f32 {
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!.
        SimdPath::Avx2 => unsafe { avx2::dot8(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on aarch64.
        SimdPath::Neon => unsafe { neon::dot8(a, b) },
        _ => crate::linalg::dot8_scalar(a, b),
    }
}

/// [`crate::linalg::norm_sq`] on an explicit kernel tier.
#[doc(hidden)]
#[inline]
#[must_use]
pub fn norm_sq_on(path: SimdPath, v: &[f32]) -> f32 {
    dot8_on(path, v, v)
}

/// The 4x8 micro-kernel inner loop on an explicit kernel tier: one `A`
/// row against four packed `B` rows of the same length.
#[inline]
#[must_use]
pub(crate) fn kernel4_on(
    path: SimdPath,
    ar: &[f32],
    b0: &[f32],
    b1: &[f32],
    b2: &[f32],
    b3: &[f32],
) -> [f32; 4] {
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!.
        SimdPath::Avx2 => unsafe { avx2::kernel4(ar, b0, b1, b2, b3) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is architecturally mandatory on aarch64.
        SimdPath::Neon => unsafe { neon::kernel4(ar, b0, b1, b2, b3) },
        _ => crate::linalg::kernel4_scalar(ar, b0, b1, b2, b3),
    }
}

/// The fused points-as-lanes assignment kernel
/// ([`crate::linalg::nearest_lanes_scalar`]) on an explicit kernel tier:
/// the points of consecutive `d`-dim panels, one `best`/`best_d` slot
/// each. NEON has no sibling yet and runs the portable body —
/// bit-identical, as every tier is.
#[inline]
pub(crate) fn nearest_lanes_on(
    path: SimdPath,
    d: usize,
    panels: &[f32],
    centroids: &[f32],
    c_norms: &[f32],
    best: &mut [usize],
    best_d: &mut [f32],
) {
    assert!(
        best.len() == best_d.len()
            && panels.len() == best.len().div_ceil(LANES) * LANES * d
            && centroids.len() == c_norms.len() * d,
        "nearest_lanes: panel, centroid, norm and output sizes disagree"
    );
    match path {
        // The AVX2 kernel carries centroid indices in i32 lanes.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!;
        // the sizes are asserted above and the guard bounds the index.
        SimdPath::Avx2 if i32::try_from(c_norms.len()).is_ok() => unsafe {
            avx2::nearest_lanes(d, panels, centroids, c_norms, best, best_d)
        },
        _ => crate::linalg::nearest_lanes_scalar(d, panels, centroids, c_norms, best, best_d),
    }
}

/// The points-as-lanes nearest-codeword scan
/// ([`crate::linalg::nearest_direct_lanes_scalar`]) on an explicit kernel
/// tier: for each point of one `book.cols()`-dim panel, the index of the
/// nearest `book` row by [`crate::linalg::dist_sq`].
#[inline]
#[must_use]
pub(crate) fn nearest_direct_lanes_on(
    path: SimdPath,
    panel: &[f32],
    book: &crate::linalg::Matrix,
) -> [usize; LANES] {
    assert_eq!(
        panel.len(),
        LANES * book.cols(),
        "nearest_direct_lanes: panel and codebook dims disagree"
    );
    match path {
        // The AVX2 kernel carries row indices in i32 lanes.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!;
        // `Matrix` holds `rows * cols` floats, the panel size is asserted
        // above and the guard bounds the index.
        SimdPath::Avx2 if i32::try_from(book.rows()).is_ok() => unsafe {
            avx2::nearest_direct(panel, book.as_slice(), book.rows())
        },
        _ => crate::linalg::nearest_direct_lanes_scalar(panel, book),
    }
}

/// The sign bits of `x` against every [`crate::binary`] hyperplane
/// ([`crate::binary::sign_words_scalar`]) on an explicit kernel tier:
/// `planes` holds planes-as-lanes groups of 32, and bit `l` of group `g`
/// — set when plane `32 * g + l`'s projection is `>= 0` — lands at bit
/// `32 * g + l` of `words`.
#[inline]
pub(crate) fn sign_words_on(path: SimdPath, planes: &[f32], x: &[f32], words: &mut [u64]) {
    let group = crate::binary::GROUP * x.len();
    assert!(
        !x.is_empty()
            && planes.len().is_multiple_of(group)
            && (planes.len() / group).div_ceil(2) == words.len(),
        "sign_words: plane, input and word counts disagree"
    );
    match path {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!;
        // the sizes are asserted above.
        SimdPath::Avx2 => unsafe { avx2::sign_words(planes, x, words) },
        _ => crate::binary::sign_words_scalar(planes, x, words),
    }
}

/// [`crate::linalg::dist_sq`] of every `q.len()`-element row of `points`
/// to `q` on an explicit kernel tier, stored into `out` — or, with
/// `KEEP_MIN`, stored only where strictly smaller than what `out` holds
/// (see [`crate::linalg::dist_sq_rows_on`] and
/// [`crate::linalg::lower_dist_sq_rows_on`]).
#[inline]
pub(crate) fn dist_sq_rows_on<const KEEP_MIN: bool>(
    path: SimdPath,
    points: &[f32],
    q: &[f32],
    out: &mut [f32],
) {
    assert_eq!(
        points.len(),
        q.len() * out.len(),
        "dist_sq_rows: points do not hold one row per output"
    );
    match path {
        // The AVX2 kernel gathers with i32 offsets up to `8 * len`.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!;
        // the size is asserted above and the guard bounds the offsets.
        SimdPath::Avx2 if q.len() < (i32::MAX as usize) / LANES => unsafe {
            avx2::dist_sq_rows::<KEEP_MIN>(points, q, out)
        },
        _ => crate::linalg::dist_sq_rows_scalar::<KEEP_MIN>(points, q, out),
    }
}

// ---------------------------------------------------------------------------
// x86_64 AVX2 kernels
// ---------------------------------------------------------------------------

/// The AVX2 kernels. `unsafe` is confined to `#[target_feature]` functions;
/// callers reach them only through [`crate::linalg`]'s dispatchers, which
/// select [`SimdPath::Avx2`] only after `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{reduce, LANES};
    use crate::linalg::PANELS;
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_blendv_ps, _mm256_broadcast_ss, _mm256_castps_si256,
        _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_min_ps,
        _mm256_movemask_ps, _mm256_mul_ps, _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_set1_ps,
        _mm256_setr_epi32, _mm256_setzero_ps, _mm256_storeu_ps, _mm256_storeu_si256, _mm256_sub_ps,
        _CMP_GE_OQ, _CMP_LT_OQ,
    };

    /// One accumulation step: per-lane multiply then per-lane add —
    /// exactly the scalar `acc[l] += a[l] * b[l]`, eight lanes at once.
    /// Deliberately NOT `_mm256_fmadd_ps`: fused multiply-add skips the
    /// product's rounding step and would break bitwise equality.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn step(acc: __m256, a: *const f32, b: *const f32) -> __m256 {
        _mm256_add_ps(acc, _mm256_mul_ps(_mm256_loadu_ps(a), _mm256_loadu_ps(b)))
    }

    /// AVX2 [`crate::linalg::dot8`]: identical lane model, one register.
    ///
    /// # Safety
    ///
    /// AVX2 must be available (guaranteed by dispatch) and `a.len() ==
    /// b.len()` (guaranteed by the caller, as in the scalar kernel).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dot8(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let main = a.len() / LANES * LANES;
        let mut acc = _mm256_setzero_ps();
        let mut t0 = 0;
        while t0 < main {
            acc = step(acc, a.as_ptr().add(t0), b.as_ptr().add(t0));
            t0 += LANES;
        }
        // Spill to the scalar path's lane array and run its exact tail
        // loop: the remaining `len % 8` products land in lanes `0..len%8`.
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        for (l, t) in (main..a.len()).enumerate() {
            lanes[l] += a[t] * b[t];
        }
        reduce(lanes)
    }

    /// AVX2 inner loop of the 4x8 GEMM micro-kernel: one `A` row against
    /// four packed `B` rows, four independent 8-lane accumulators —
    /// the explicit-register form of the scalar block in
    /// [`crate::linalg::gemm_nt_rows_on`].
    ///
    /// # Safety
    ///
    /// AVX2 must be available and all five slices must share one length.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn kernel4(
        ar: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) -> [f32; 4] {
        let k = ar.len();
        debug_assert!(b0.len() == k && b1.len() == k && b2.len() == k && b3.len() == k);
        let main = k / LANES * LANES;
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut t0 = 0;
        while t0 < main {
            let a = ar.as_ptr().add(t0);
            acc0 = step(acc0, a, b0.as_ptr().add(t0));
            acc1 = step(acc1, a, b1.as_ptr().add(t0));
            acc2 = step(acc2, a, b2.as_ptr().add(t0));
            acc3 = step(acc3, a, b3.as_ptr().add(t0));
            t0 += LANES;
        }
        let mut lanes = [[0.0f32; LANES]; 4];
        _mm256_storeu_ps(lanes[0].as_mut_ptr(), acc0);
        _mm256_storeu_ps(lanes[1].as_mut_ptr(), acc1);
        _mm256_storeu_ps(lanes[2].as_mut_ptr(), acc2);
        _mm256_storeu_ps(lanes[3].as_mut_ptr(), acc3);
        for (l, t) in (main..k).enumerate() {
            let x = ar[t];
            lanes[0][l] += x * b0[t];
            lanes[1][l] += x * b1[t];
            lanes[2][l] += x * b2[t];
            lanes[3][l] += x * b3[t];
        }
        [
            reduce(lanes[0]),
            reduce(lanes[1]),
            reduce(lanes[2]),
            reduce(lanes[3]),
        ]
    }

    /// [`crate::linalg::reduce`] applied lane-wise: the same fold tree,
    /// one point per lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce_points(acc: &[__m256; LANES]) -> __m256 {
        let q0 = _mm256_add_ps(acc[0], acc[4]);
        let q1 = _mm256_add_ps(acc[1], acc[5]);
        let q2 = _mm256_add_ps(acc[2], acc[6]);
        let q3 = _mm256_add_ps(acc[3], acc[7]);
        _mm256_add_ps(_mm256_add_ps(q0, q2), _mm256_add_ps(q1, q3))
    }

    /// The [`crate::linalg::dot8`] lane model for the eight points of a
    /// `d`-dim panel, one point per register lane: step `t` multiplies
    /// the panel row by `cent[t]` broadcast (or by itself when `cent` is
    /// `None`, giving the points' norms) and adds into accumulator
    /// `t % 8`, steps in increasing `t`. Past the last step the loop
    /// exits, leaving the remaining accumulators at `+0.0` just as
    /// `dot8`'s tail leaves its upper lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_lanes(panel: *const f32, d: usize, cent: Option<*const f32>) -> __m256 {
        let mut acc = [_mm256_setzero_ps(); LANES];
        let mut t0 = 0;
        while t0 < d {
            for (l, a) in acc.iter_mut().enumerate().take(d - t0) {
                let t = t0 + l;
                let x = _mm256_loadu_ps(panel.add(t * LANES));
                let y = match cent {
                    Some(c) => _mm256_broadcast_ss(&*c.add(t)),
                    None => x,
                };
                *a = _mm256_add_ps(*a, _mm256_mul_ps(x, y));
            }
            t0 += LANES;
        }
        reduce_points(&acc)
    }

    /// One step of the strict-`<` argmin: lanes where `dd < best_d`
    /// (ordered, so `NaN` never wins) take `dd` and the index `c`. The
    /// value side is `vminps`, which is that blend bit for bit (see the
    /// module doc); only the index needs the compare.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn keep_nearest(dd: __m256, c: __m256, best_d: &mut __m256, best: &mut __m256) {
        let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(dd, *best_d);
        *best_d = _mm256_min_ps(dd, *best_d);
        *best = _mm256_blendv_ps(*best, c, lt);
    }

    /// Centroid index `c` in every i32 lane, as float bits for the blend.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn index_lanes(c: usize) -> __m256 {
        // The callers' guards keep every index inside i32.
        _mm256_castsi256_ps(_mm256_set1_epi32(c as i32))
    }

    /// Writes the `best`/`best_d` registers of consecutive panels into
    /// the output slots they cover.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `idx` and `dist` must hold one register
    /// per eight output slots.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_nearest(
        idx: &[__m256],
        dist: &[__m256],
        best: &mut [usize],
        best_d: &mut [f32],
    ) {
        for (q, (bi, bd)) in best
            .chunks_mut(LANES)
            .zip(best_d.chunks_mut(LANES))
            .enumerate()
        {
            let mut lane_idx = [0i32; LANES];
            let mut lane_d = [0.0f32; LANES];
            _mm256_storeu_si256(lane_idx.as_mut_ptr().cast(), _mm256_castps_si256(idx[q]));
            _mm256_storeu_ps(lane_d.as_mut_ptr(), dist[q]);
            for (o, &c) in bi.iter_mut().zip(&lane_idx) {
                *o = c as usize;
            }
            bd.copy_from_slice(&lane_d[..bd.len()]);
        }
    }

    /// AVX2 fused assignment kernel: the explicit-register form of
    /// [`crate::linalg::nearest_lanes_scalar`]. Dimensions 1 to 8 take
    /// [`nearest_fixed`], which scores four panels per centroid pass;
    /// longer (and empty) rows take [`nearest_any`], one panel at a time.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `panels` must hold `best.len().div_ceil(8)`
    /// panels of `8 * d` floats, `centroids` `c_norms.len() * d`,
    /// `best_d.len() == best.len()`, and `c_norms.len()` must fit in an
    /// `i32`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn nearest_lanes(
        d: usize,
        panels: &[f32],
        centroids: &[f32],
        c_norms: &[f32],
        best: &mut [usize],
        best_d: &mut [f32],
    ) {
        let (p, c) = (panels.as_ptr(), centroids.as_ptr());
        match d {
            1 => nearest_fixed::<1>(p, c, c_norms, best, best_d),
            2 => nearest_fixed::<2>(p, c, c_norms, best, best_d),
            3 => nearest_fixed::<3>(p, c, c_norms, best, best_d),
            4 => nearest_fixed::<4>(p, c, c_norms, best, best_d),
            5 => nearest_fixed::<5>(p, c, c_norms, best, best_d),
            6 => nearest_fixed::<6>(p, c, c_norms, best, best_d),
            7 => nearest_fixed::<7>(p, c, c_norms, best, best_d),
            8 => nearest_fixed::<8>(p, c, c_norms, best, best_d),
            _ => nearest_any(d, p, c, c_norms, best, best_d),
        }
    }

    /// [`nearest_lanes`] for `D <= 8`: every full run of four panels
    /// (32 points) is scored in one pass over the centroids by
    /// [`score_fixed`], the remaining panels one at a time.
    ///
    /// # Safety
    ///
    /// As [`nearest_lanes`], with `d == D`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn nearest_fixed<const D: usize>(
        panels: *const f32,
        centroids: *const f32,
        c_norms: &[f32],
        best: &mut [usize],
        best_d: &mut [f32],
    ) {
        const BLOCK: usize = PANELS * LANES;
        let full = best.len() / BLOCK * BLOCK;
        let (head, tail) = best.split_at_mut(full);
        let (head_d, tail_d) = best_d.split_at_mut(full);
        for (b, (bi, bd)) in head
            .chunks_exact_mut(BLOCK)
            .zip(head_d.chunks_exact_mut(BLOCK))
            .enumerate()
        {
            let at = panels.add(b * BLOCK * D);
            score_fixed::<PANELS, D>(at, centroids, c_norms, bi, bd);
        }
        let rest = panels.add(full * D);
        for (q, (bi, bd)) in tail
            .chunks_mut(LANES)
            .zip(tail_d.chunks_mut(LANES))
            .enumerate()
        {
            score_fixed::<1, D>(rest.add(q * LANES * D), centroids, c_norms, bi, bd);
        }
    }

    /// [`crate::linalg::reduce`] lane-wise for a `D <= 8` accumulator set
    /// whose registers `D..8` were never touched: each `acc[l] + acc[l +
    /// 4]` with `l + 4 >= D` would add an untouched `+0.0`, so it is
    /// skipped (identities 1 and 3 of the module doc).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce_fixed<const D: usize>(acc: &[__m256; LANES]) -> __m256 {
        let mut q = [_mm256_setzero_ps(); 4];
        for (l, ql) in q.iter_mut().enumerate() {
            *ql = if l + 4 < D {
                _mm256_add_ps(acc[l], acc[l + 4])
            } else {
                acc[l]
            };
        }
        _mm256_add_ps(_mm256_add_ps(q[0], q[2]), _mm256_add_ps(q[1], q[3]))
    }

    /// The [`crate::linalg::dot8`] lane model of one `D <= 8` panel
    /// against `y` (one register per step): a single step per accumulator,
    /// taken as the bare product `x[t] * y[t]` without the `+0.0 +` start.
    /// The result equals `dot8`'s up to the sign of a zero, which the
    /// decomposed distance cannot see (identity 3 of the module doc); for
    /// `y = x` it is exact.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_fixed<const D: usize>(panel: *const f32, y: &[__m256; D]) -> __m256 {
        let mut acc = [_mm256_setzero_ps(); LANES];
        for (t, a) in acc.iter_mut().enumerate().take(D) {
            *a = _mm256_mul_ps(_mm256_loadu_ps(panel.add(t * LANES)), y[t]);
        }
        reduce_fixed::<D>(&acc)
    }

    /// Scores `P` consecutive `D`-dim panels against every centroid: each
    /// centroid's `D` broadcasts and its norm serve all `P` panels, and
    /// no step branches on the dimension.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `panels` must hold `P` panels of `8 * D`
    /// floats, `centroids` `c_norms.len() * D`, `best` and `best_d` at
    /// most `8 * P` slots, and `c_norms.len()` must fit in an `i32`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn score_fixed<const P: usize, const D: usize>(
        panels: *const f32,
        centroids: *const f32,
        c_norms: &[f32],
        best: &mut [usize],
        best_d: &mut [f32],
    ) {
        let mut p_norms = [_mm256_setzero_ps(); P];
        for (q, norm) in p_norms.iter_mut().enumerate() {
            let panel = panels.add(q * LANES * D);
            let mut x = [_mm256_setzero_ps(); D];
            for (t, xt) in x.iter_mut().enumerate() {
                *xt = _mm256_loadu_ps(panel.add(t * LANES));
            }
            *norm = dot_fixed::<D>(panel, &x);
        }
        let two = _mm256_set1_ps(2.0);
        let mut idx = [_mm256_setzero_ps(); P];
        let mut dist = [_mm256_set1_ps(f32::INFINITY); P];
        for (c, &c_norm) in c_norms.iter().enumerate() {
            let cent = centroids.add(c * D);
            let mut y = [_mm256_setzero_ps(); D];
            for (t, yt) in y.iter_mut().enumerate() {
                *yt = _mm256_broadcast_ss(&*cent.add(t));
            }
            let cn = _mm256_set1_ps(c_norm);
            let ci = index_lanes(c);
            for q in 0..P {
                let dots = dot_fixed::<D>(panels.add(q * LANES * D), &y);
                let dd = _mm256_sub_ps(_mm256_add_ps(p_norms[q], cn), _mm256_mul_ps(two, dots));
                keep_nearest(dd, ci, &mut dist[q], &mut idx[q]);
            }
        }
        store_nearest(&idx, &dist, best, best_d);
    }

    /// [`nearest_lanes`] for any `d`, one panel at a time through the
    /// stepping [`dot_lanes`].
    ///
    /// # Safety
    ///
    /// As [`nearest_lanes`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn nearest_any(
        d: usize,
        panels: *const f32,
        centroids: *const f32,
        c_norms: &[f32],
        best: &mut [usize],
        best_d: &mut [f32],
    ) {
        let two = _mm256_set1_ps(2.0);
        for (q, (bi, bd)) in best
            .chunks_mut(LANES)
            .zip(best_d.chunks_mut(LANES))
            .enumerate()
        {
            let panel = panels.add(q * LANES * d);
            let p_norms = dot_lanes(panel, d, None);
            let mut idx = _mm256_setzero_ps();
            let mut dist = _mm256_set1_ps(f32::INFINITY);
            for (c, &c_norm) in c_norms.iter().enumerate() {
                let dots = dot_lanes(panel, d, Some(centroids.add(c * d)));
                let dd = _mm256_sub_ps(
                    _mm256_add_ps(p_norms, _mm256_set1_ps(c_norm)),
                    _mm256_mul_ps(two, dots),
                );
                keep_nearest(dd, index_lanes(c), &mut dist, &mut idx);
            }
            store_nearest(&[idx], &[dist], bi, bd);
        }
    }

    /// AVX2 [`crate::linalg::nearest_direct_lanes_scalar`]: lane `p` runs
    /// [`crate::linalg::dist_sq`]'s own sequence against each `book` row
    /// — `acc += (x - y[t])^2` in increasing `t` from
    /// [`crate::linalg::sum_start`] — then the strict-`<` argmin step.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `panel` must hold `8 * d` floats and
    /// `book` `rows * d` for `d = panel.len() / 8`, and `rows` must fit
    /// in an `i32`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn nearest_direct(
        panel: &[f32],
        book: &[f32],
        rows: usize,
    ) -> [usize; LANES] {
        let d = panel.len() / LANES;
        let start = _mm256_set1_ps(crate::linalg::sum_start());
        let mut idx = _mm256_setzero_ps();
        let mut dist = _mm256_set1_ps(f32::INFINITY);
        for c in 0..rows {
            let y = book.as_ptr().add(c * d);
            let mut acc = start;
            for t in 0..d {
                let x = _mm256_loadu_ps(panel.as_ptr().add(t * LANES));
                let diff = _mm256_sub_ps(x, _mm256_broadcast_ss(&*y.add(t)));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
            }
            keep_nearest(acc, index_lanes(c), &mut dist, &mut idx);
        }
        let mut best = [0usize; LANES];
        let mut unused = [0.0f32; LANES];
        store_nearest(&[idx], &[dist], &mut best, &mut unused);
        best
    }

    /// AVX2 [`crate::binary::sign_words_scalar`]: a 32-plane group is four
    /// registers of eight plane lanes, each lane running the sequential
    /// projection `acc += plane[t] * x[t]` from
    /// [`crate::linalg::sum_start`]. Each output word takes its two groups
    /// in one pass over `x`, so eight independent add chains are in
    /// flight; the signs are packed by an ordered `>= 0` compare (`NaN`
    /// false, `-0.0` true, as in scalar) and `movemask`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `x` non-empty, `planes` a whole number of
    /// `32 * x.len()`-float groups, and `words` one word per two groups.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn sign_words(planes: &[f32], x: &[f32], words: &mut [u64]) {
        let group = crate::binary::GROUP * x.len();
        let groups = planes.len() / group;
        for (w, word) in words.iter_mut().enumerate() {
            let first = planes.as_ptr().add(2 * w * group);
            *word = if 2 * w + 1 < groups {
                group_signs::<2>(first, x)
            } else {
                group_signs::<1>(first, x)
            };
        }
    }

    /// The sign bits of `G` consecutive 32-plane groups, group `g` in
    /// bits `32 * g ..`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `planes` must hold `G` groups of
    /// `32 * x.len()` floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn group_signs<const G: usize>(planes: *const f32, x: &[f32]) -> u64 {
        const REGS: usize = crate::binary::GROUP / LANES;
        let mut acc = [[_mm256_set1_ps(crate::linalg::sum_start()); REGS]; G];
        for (t, v) in x.iter().enumerate() {
            let v = _mm256_broadcast_ss(v);
            for (g, regs) in acc.iter_mut().enumerate() {
                let row = planes.add((g * x.len() + t) * crate::binary::GROUP);
                for (j, a) in regs.iter_mut().enumerate() {
                    let p = _mm256_loadu_ps(row.add(j * LANES));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(p, v));
                }
            }
        }
        let zero = _mm256_setzero_ps();
        let mut bits = 0u64;
        for (g, regs) in acc.iter().enumerate() {
            for (j, a) in regs.iter().enumerate() {
                let ge = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(*a, zero));
                bits |= u64::from(ge as u32) << (g * crate::binary::GROUP + j * LANES);
            }
        }
        bits
    }

    /// AVX2 [`crate::linalg::dist_sq_rows_scalar`]: each full block of
    /// eight rows is one register, lane `p` = row `p`, gathered one
    /// element column at a time (no transposed copy); lane `p` runs
    /// `dist_sq`'s own sequence — `acc += (x - q[t])^2` in increasing `t`
    /// from [`crate::linalg::sum_start`]. `KEEP_MIN` stores through a
    /// strict ordered `<` blend. Rows past the last full block take the
    /// scalar path.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `points.len() == q.len() * out.len()`, and
    /// `8 * q.len()` must fit in an `i32`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn dist_sq_rows<const KEEP_MIN: bool>(
        points: &[f32],
        q: &[f32],
        out: &mut [f32],
    ) {
        let d = q.len();
        let full = out.len() / LANES * LANES;
        let offsets = _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(d as i32),
        );
        for (b, slots) in out[..full].chunks_exact_mut(LANES).enumerate() {
            let block = points.as_ptr().add(b * LANES * d);
            let mut acc = _mm256_set1_ps(crate::linalg::sum_start());
            for (t, &y) in q.iter().enumerate() {
                let x = _mm256_i32gather_ps::<4>(block.add(t), offsets);
                let diff = _mm256_sub_ps(x, _mm256_set1_ps(y));
                acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
            }
            if KEEP_MIN {
                let old = _mm256_loadu_ps(slots.as_ptr());
                let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(acc, old);
                acc = _mm256_blendv_ps(old, acc, lt);
            }
            _mm256_storeu_ps(slots.as_mut_ptr(), acc);
        }
        crate::linalg::dist_sq_rows_scalar::<KEEP_MIN>(&points[full * d..], q, &mut out[full..]);
    }
}

// ---------------------------------------------------------------------------
// aarch64 NEON kernels
// ---------------------------------------------------------------------------

/// The NEON siblings: the 8-lane accumulator is a `float32x4_t` pair
/// (lanes 0..4 and 4..8), updated with `vmulq_f32` + `vaddq_f32` —
/// deliberately not `vfmaq_f32`, same no-FMA reasoning as AVX2. NEON is
/// architecturally mandatory on aarch64, so no runtime detection gate is
/// needed; the functions stay `unsafe` only for the raw-pointer loads.
#[cfg(target_arch = "aarch64")]
pub(crate) mod neon {
    use super::{reduce, LANES};
    use std::arch::aarch64::{
        float32x4_t, vaddq_f32, vdupq_n_f32, vld1q_f32, vmulq_f32, vst1q_f32,
    };

    /// Per-lane multiply-then-add on one 4-lane half.
    #[inline]
    unsafe fn step(acc: float32x4_t, a: *const f32, b: *const f32) -> float32x4_t {
        vaddq_f32(acc, vmulq_f32(vld1q_f32(a), vld1q_f32(b)))
    }

    /// NEON [`crate::linalg::dot8`]: identical lane model, two registers.
    ///
    /// # Safety
    ///
    /// `a.len() == b.len()` (guaranteed by the caller).
    pub(crate) unsafe fn dot8(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let main = a.len() / LANES * LANES;
        let mut lo = vdupq_n_f32(0.0);
        let mut hi = vdupq_n_f32(0.0);
        let mut t0 = 0;
        while t0 < main {
            lo = step(lo, a.as_ptr().add(t0), b.as_ptr().add(t0));
            hi = step(hi, a.as_ptr().add(t0 + 4), b.as_ptr().add(t0 + 4));
            t0 += LANES;
        }
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), lo);
        vst1q_f32(lanes.as_mut_ptr().add(4), hi);
        for (l, t) in (main..a.len()).enumerate() {
            lanes[l] += a[t] * b[t];
        }
        reduce(lanes)
    }

    /// NEON inner loop of the 4x8 GEMM micro-kernel.
    ///
    /// # Safety
    ///
    /// All five slices must share one length.
    pub(crate) unsafe fn kernel4(
        ar: &[f32],
        b0: &[f32],
        b1: &[f32],
        b2: &[f32],
        b3: &[f32],
    ) -> [f32; 4] {
        let k = ar.len();
        debug_assert!(b0.len() == k && b1.len() == k && b2.len() == k && b3.len() == k);
        let main = k / LANES * LANES;
        let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
        let bs = [b0, b1, b2, b3];
        let mut t0 = 0;
        while t0 < main {
            let a_lo = ar.as_ptr().add(t0);
            let a_hi = ar.as_ptr().add(t0 + 4);
            for (c, b) in bs.iter().enumerate() {
                acc[c][0] = step(acc[c][0], a_lo, b.as_ptr().add(t0));
                acc[c][1] = step(acc[c][1], a_hi, b.as_ptr().add(t0 + 4));
            }
            t0 += LANES;
        }
        let mut lanes = [[0.0f32; LANES]; 4];
        for c in 0..4 {
            vst1q_f32(lanes[c].as_mut_ptr(), acc[c][0]);
            vst1q_f32(lanes[c].as_mut_ptr().add(4), acc[c][1]);
        }
        for (l, t) in (main..k).enumerate() {
            let x = ar[t];
            for (c, b) in bs.iter().enumerate() {
                lanes[c][l] += x * b[t];
            }
        }
        [
            reduce(lanes[0]),
            reduce(lanes[1]),
            reduce(lanes[2]),
            reduce(lanes[3]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_table_is_exact() {
        assert_eq!(parse_request(None), Request::Auto);
        assert_eq!(parse_request(Some("auto")), Request::Auto);
        assert_eq!(parse_request(Some("")), Request::Auto);
        assert_eq!(parse_request(Some("off")), Request::Exact(SimdPath::Scalar));
        assert_eq!(
            parse_request(Some("scalar")),
            Request::Exact(SimdPath::Scalar)
        );
        assert_eq!(parse_request(Some("avx2")), Request::Exact(SimdPath::Avx2));
        assert_eq!(parse_request(Some("neon")), Request::Exact(SimdPath::Neon));
        assert_eq!(parse_request(Some("sse9")), Request::Unknown);
    }

    #[test]
    fn resolution_degrades_unsupported_requests_to_scalar() {
        // Whatever the host, `off` resolves to scalar, `auto` to the best
        // supported path, and an impossible exact request cannot escape
        // the supported set.
        assert_eq!(resolve(Request::Exact(SimdPath::Scalar)), SimdPath::Scalar);
        assert_eq!(resolve(Request::Auto), best_supported());
        assert_eq!(resolve(Request::Unknown), best_supported());
        for p in [SimdPath::Avx2, SimdPath::Neon] {
            let resolved = resolve(Request::Exact(p));
            assert!(resolved.supported());
            if !p.supported() {
                assert_eq!(resolved, SimdPath::Scalar);
            }
        }
    }

    #[test]
    fn active_path_is_supported_and_stable() {
        let first = active();
        assert!(first.supported());
        assert_eq!(first, active(), "dispatch must be cached, not re-resolved");
    }

    #[test]
    #[should_panic(expected = "not supported on this host")]
    fn forcing_an_impossible_path_fails_loudly() {
        // Exactly one of AVX2/NEON can be supported on any one arch; the
        // other must refuse to be forced.
        let impossible = if cfg!(target_arch = "x86_64") {
            SimdPath::Neon
        } else {
            SimdPath::Avx2
        };
        force(Some(impossible));
    }

    #[test]
    fn gauge_values_and_names_are_stable() {
        // The telemetry contract: these are recorded in golden metrics
        // files and bench headers, so they are frozen.
        for (p, name, gauge) in [
            (SimdPath::Scalar, "scalar", 0.0),
            (SimdPath::Avx2, "avx2", 1.0),
            (SimdPath::Neon, "neon", 2.0),
        ] {
            assert_eq!(p.name(), name);
            assert_eq!(p.gauge_value(), gauge);
        }
    }
}
