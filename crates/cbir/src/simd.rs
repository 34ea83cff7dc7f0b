//! Runtime-dispatched explicit-SIMD kernels for the hot primitives:
//! `dot8`, the 4x8 GEMM micro-kernel inner loop and `norm_sq`, which
//! vectorize along one dot product, and the points-as-lanes k-means
//! kernels (the fused nearest-centroid assignment and the direct-distance
//! D² refresh), which vectorize across eight points.
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
//! one. The argmin is an ordered `<` compare plus blends, which is the
//! scalar strict-`<` scan lane by lane.
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
/// ([`crate::linalg::nearest_lanes_scalar`]) on an explicit kernel tier.
/// NEON has no sibling yet and runs the portable body — bit-identical, as
/// every tier is.
#[inline]
#[must_use]
pub(crate) fn nearest_lanes_on(
    path: SimdPath,
    panel: &[f32],
    centroids: &[f32],
    c_norms: &[f32],
) -> ([usize; LANES], [f32; LANES]) {
    assert!(
        panel.len().is_multiple_of(LANES)
            && centroids.len() == c_norms.len() * (panel.len() / LANES),
        "nearest_lanes: panel, centroid and norm sizes disagree"
    );
    match path {
        // The AVX2 kernel carries centroid indices in i32 lanes.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: dispatch only yields Avx2 after is_x86_feature_detected!;
        // the sizes are asserted above and the guard bounds the index.
        SimdPath::Avx2 if i32::try_from(c_norms.len()).is_ok() => unsafe {
            avx2::nearest_lanes(panel, centroids, c_norms)
        },
        _ => crate::linalg::nearest_lanes_scalar(panel, centroids, c_norms),
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
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_blendv_ps, _mm256_broadcast_ss, _mm256_castps_si256,
        _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_i32gather_ps, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_setzero_si256, _mm256_storeu_ps, _mm256_storeu_si256,
        _mm256_sub_ps, _CMP_LT_OQ,
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

    /// AVX2 fused assignment kernel: the explicit-register form of
    /// [`crate::linalg::nearest_lanes_scalar`]. Register `l` of the eight
    /// accumulators is dot-product lane `l` for all eight points at once;
    /// the argmin is a strict ordered `<` (`NaN` never wins) and two
    /// blends.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `panel` must hold `8 * d` floats,
    /// `centroids` `c_norms.len() * d`, and `c_norms.len()` must fit in an
    /// `i32`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn nearest_lanes(
        panel: &[f32],
        centroids: &[f32],
        c_norms: &[f32],
    ) -> ([usize; LANES], [f32; LANES]) {
        let d = panel.len() / LANES;
        let p_norms = dot_lanes(panel.as_ptr(), d, None);
        let two = _mm256_set1_ps(2.0);
        let mut best = _mm256_setzero_si256();
        let mut best_d = _mm256_set1_ps(f32::INFINITY);
        for (c, &c_norm) in c_norms.iter().enumerate() {
            let dots = dot_lanes(panel.as_ptr(), d, Some(centroids.as_ptr().add(c * d)));
            let dd = _mm256_sub_ps(
                _mm256_add_ps(p_norms, _mm256_set1_ps(c_norm)),
                _mm256_mul_ps(two, dots),
            );
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(dd, best_d);
            best_d = _mm256_blendv_ps(best_d, dd, lt);
            let idx = _mm256_castsi256_ps(_mm256_set1_epi32(c as i32));
            best = _mm256_castps_si256(_mm256_blendv_ps(_mm256_castsi256_ps(best), idx, lt));
        }
        let mut idx = [0i32; LANES];
        let mut dist = [0.0f32; LANES];
        _mm256_storeu_si256(idx.as_mut_ptr().cast(), best);
        _mm256_storeu_ps(dist.as_mut_ptr(), best_d);
        (idx.map(|c| c as usize), dist)
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
