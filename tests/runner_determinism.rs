//! The runner-layer contract, end to end: fanning scenarios across threads
//! must be unobservable in the results. A mixed batch of figure-8,
//! figure-13 and ablation scenarios is executed sequentially, with one
//! worker, and with four workers — every report must come back in
//! submission order and render byte-identically.

use reach::{MachineBlueprint, Scenario, ScenarioExecutor, SequentialExecutor, SimDuration};
use reach_bench::ScenarioRunner;
use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirScenario, CbirWorkload};

/// The mixed batch: fig8's on-chip energy point, fig13's four end-to-end
/// mappings, and a poll-interval ablation point on a modified machine.
fn mixed_batch() -> Vec<Box<dyn Scenario>> {
    let w = CbirWorkload::paper_setup();
    let mut batch: Vec<Box<dyn Scenario>> = vec![Box::new(CbirScenario::full(
        "fig8/on-chip",
        blueprint_with(4, 4),
        CbirPipeline::new(w, CbirMapping::AllOnChip),
        1,
    ))];
    for mapping in CbirMapping::ALL {
        batch.push(Box::new(CbirScenario::full(
            format!("fig13/{}", mapping.name()),
            blueprint_with(4, 4),
            CbirPipeline::new(w, mapping),
            8,
        )));
    }
    let coarse_poll = MachineBlueprint::paper()
        .map_config(|cfg| cfg.gam.min_poll_interval = SimDuration::from_ms(5));
    batch.push(Box::new(CbirScenario::full(
        "ablation/poll-5ms",
        coarse_poll,
        CbirPipeline::new(w, CbirMapping::Proper),
        4,
    )));
    batch
}

fn rendered(results: &[reach::ScenarioResult]) -> Vec<(String, String)> {
    results
        .iter()
        .map(|r| (r.label.clone(), r.report.to_string()))
        .collect()
}

#[test]
fn parallel_runner_is_byte_identical_to_sequential() {
    let reference = rendered(&SequentialExecutor.run_all(mixed_batch()));
    let one_worker = rendered(&ScenarioRunner::new(1).run_all(mixed_batch()));
    let four_workers = rendered(&ScenarioRunner::new(4).run_all(mixed_batch()));

    assert_eq!(reference.len(), mixed_batch().len());
    assert_eq!(reference, one_worker, "one worker diverged from sequential");
    assert_eq!(
        reference, four_workers,
        "four workers diverged from sequential"
    );
}

#[test]
fn repeated_parallel_runs_replay_bit_for_bit() {
    let first = rendered(&ScenarioRunner::new(4).run_all(mixed_batch()));
    let second = rendered(&ScenarioRunner::new(4).run_all(mixed_batch()));
    assert_eq!(first, second);
}

#[test]
fn rendered_figures_match_across_job_counts() {
    let seq = SequentialExecutor;
    let par = ScenarioRunner::new(4);
    for (name, render) in [
        (
            "fig8",
            reach_bench::render_fig8 as fn(&dyn ScenarioExecutor) -> String,
        ),
        ("fig13", reach_bench::render_fig13),
        ("ablation-poll", reach_bench::render_ablation_poll),
        ("extension-corun", reach_bench::render_extension_corun),
    ] {
        assert_eq!(
            render(&seq),
            render(&par),
            "{name} differs across job counts"
        );
    }
}

#[test]
fn graph_suites_render_byte_identically_across_jobs_and_cache_modes() {
    // The in-process form of CI's graph determinism step: the placement
    // sweep and the co-run contention suite must render the same bytes
    // sequentially, at 1/4/8 workers, with the result cache disabled, and
    // on a warm cache replay.
    for (name, render) in [
        (
            "extension-graph",
            reach_bench::render_extension_graph as fn(&dyn ScenarioExecutor) -> String,
        ),
        (
            "extension-graph-corun",
            reach_bench::render_extension_graph_corun,
        ),
    ] {
        let reference = render(&SequentialExecutor);
        assert!(!reference.is_empty());
        for jobs in [1, 4, 8] {
            assert_eq!(
                reference,
                render(&ScenarioRunner::new(jobs)),
                "{name} diverged at {jobs} jobs"
            );
            assert_eq!(
                reference,
                render(&ScenarioRunner::without_cache(jobs)),
                "{name} diverged with the cache off at {jobs} jobs"
            );
        }
        let runner = ScenarioRunner::new(4);
        let cold = render(&runner);
        let warm = render(&runner);
        assert_eq!(cold, warm, "{name} warm cache replay diverged");
        assert_eq!(reference, warm, "{name} cached pass diverged");
    }
}

/// Every renderer's output, concatenated in registration order — the exact
/// stdout the `experiments` binary produces for a full run.
/// The recall evaluation runs as five codec scenarios, each starting from
/// a jump-ahead of one RNG stream. Whatever runs them — the in-process
/// evaluation, the sequential executor, the runner at any worker count, or
/// a runner whose cache already holds some rows — every row is bitwise the
/// same.
#[test]
fn recall_rows_are_bitwise_equal_across_executors_and_a_partial_cache() {
    use reach_cbir::experiments::{
        recall_codec_scenarios, recall_vs_compression, recall_vs_compression_with,
        RecallCompressionRow,
    };
    let bits = |rows: &[RecallCompressionRow]| -> Vec<(String, u64, u64)> {
        rows.iter()
            .map(|r| {
                (
                    r.method.clone(),
                    r.bytes_per_vector.to_bits(),
                    r.recall_at_10.to_bits(),
                )
            })
            .collect()
    };
    let reference = bits(&recall_vs_compression());
    assert_eq!(reference.len(), 5);
    assert_eq!(
        bits(&recall_vs_compression_with(&SequentialExecutor)),
        reference,
        "sequential executor"
    );
    for jobs in [1, 2, 4] {
        assert_eq!(
            bits(&recall_vs_compression_with(&ScenarioRunner::new(jobs))),
            reference,
            "runner at {jobs} job(s)"
        );
    }

    // Cache codecs 1 and 3 first; the full batch then replays those two
    // and simulates the other three (`recall_inputs_build.rs` in
    // `reach-bench` counts the input builds).
    let runner = ScenarioRunner::new(2);
    let _ = runner.run_all(recall_codec_scenarios([1, 3]));
    let warm = runner.cache_stats();
    assert_eq!((warm.hits, warm.misses), (0, 2));
    let rows = recall_vs_compression_with(&runner);
    let full = runner.cache_stats();
    assert_eq!(
        (full.hits - warm.hits, full.misses - warm.misses),
        (2, 3),
        "two rows replay, three simulate"
    );
    assert_eq!(bits(&rows), reference, "partially cached runner");
}

fn full_suite_stdout(executor: &dyn ScenarioExecutor) -> String {
    let mut out = String::new();
    for (i, (_, render)) in reach_bench::renderers().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&render(executor));
    }
    out
}

#[test]
fn full_suite_stdout_is_byte_identical_at_jobs_1_4_8() {
    // The whole experiments suite — every registered renderer, including
    // the graph and co-run extensions — diffed across --jobs levels. Any
    // scheduling leak anywhere in the engine, the runner or the kernels
    // shows up here.
    let reference = full_suite_stdout(&SequentialExecutor);
    assert!(!reference.is_empty());
    for jobs in [4, 8] {
        let parallel = full_suite_stdout(&ScenarioRunner::new(jobs));
        assert_eq!(reference, parallel, "full suite diverged at {jobs} jobs");
    }
}

#[test]
fn full_suite_stdout_is_byte_identical_with_and_without_result_cache() {
    // The result-cache contract, end to end: replaying stored reports —
    // across figures sharing configurations, and across whole repeated
    // passes — must be unobservable in stdout at any job count, and the
    // hit/miss accounting must not depend on worker scheduling either.
    let reference = full_suite_stdout(&ScenarioRunner::without_cache(4));
    assert!(!reference.is_empty());
    let mut stats = Vec::new();
    for jobs in [1, 4, 8] {
        let cached = ScenarioRunner::new(jobs);
        let cold = full_suite_stdout(&cached);
        assert_eq!(
            reference, cold,
            "cache-on cold pass diverged at {jobs} jobs"
        );
        let warm = full_suite_stdout(&cached);
        assert_eq!(reference, warm, "cache replay diverged at {jobs} jobs");
        stats.push(cached.cache_stats());
    }
    assert_eq!(stats[0], stats[1], "hit/miss counts depend on job count");
    assert_eq!(stats[1], stats[2], "hit/miss counts depend on job count");
    assert!(stats[0].misses > 0, "first pass must simulate");
    assert!(
        stats[0].hits > stats[0].misses,
        "the warm pass plus in-suite repeats should replay more than they simulate \
         (got {} hits / {} misses)",
        stats[0].hits,
        stats[0].misses
    );
}

mod simd_bitwise {
    //! The explicit-SIMD kernel tier must be *bit-for-bit* equal to the
    //! scalar lane model — not approximately, not "up to reassociation".
    //! Equality must hold on every payload `f32` can carry: odd lengths
    //! and every tail residue, empty inputs, subnormals, signed zeros,
    //! infinities and NaN payloads. `to_bits()` comparisons throughout.

    use proptest::prelude::*;
    use rand::Rng;
    use reach_cbir::kmeans::kmeans_on;
    use reach_cbir::linalg::{
        dist_sq, dist_sq_rows_on, gemm_nt_rows_on, lower_dist_sq_rows_on, nearest_centroids_on,
        Matrix,
    };
    use reach_cbir::simd::{self, SimdPath};
    use reach_cbir::{top_k, BinaryCoder, Dataset, ProductQuantizer};
    use reach_sim::rng::seeded;

    /// Every non-scalar path this host can execute (empty on exotic
    /// architectures — the properties then hold vacuously and the CI
    /// matrix provides the cross-arch coverage).
    fn explicit_paths() -> Vec<SimdPath> {
        [SimdPath::Avx2, SimdPath::Neon]
            .into_iter()
            .filter(|p| p.supported())
            .collect()
    }

    /// The quiet NaN this architecture's invalid operations (0·∞, ∞−∞)
    /// produce. Using it as the pool's *only* NaN keeps every NaN in
    /// flight bit-identical, which is what makes NaN coverage sound: when
    /// two NaNs with *different* payloads meet in a mul/add, hardware
    /// propagates the first source operand's payload — and LLVM commutes
    /// commutative float ops freely, so scalar codegen's operand order is
    /// not ours to pin. Same-bits NaNs make every meet order-independent;
    /// distinct-payload propagation is covered separately by the
    /// single-NaN test below.
    fn canonical_nan() -> f32 {
        #[cfg(target_arch = "x86_64")]
        return f32::from_bits(0xffc0_0000); // x86 "real indefinite"
        #[cfg(not(target_arch = "x86_64"))]
        return f32::from_bits(0x7fc0_0000); // ARM/RISC-V default NaN
    }

    /// Adversarial payload pool: ordinary values, signed zeros, the
    /// largest/smallest normals, subnormals (Rust never enables FTZ/DAZ,
    /// so lane arithmetic must honor gradual underflow), infinities and
    /// the arch-canonical quiet NaN.
    fn payload_pool() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            1.0,
            -3.5,
            1.0e-3,
            f32::MAX,
            f32::MIN_POSITIVE,       // smallest normal
            f32::MIN_POSITIVE / 4.0, // subnormal
            f32::from_bits(1),       // smallest subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            canonical_nan(),
        ]
    }

    /// Deterministic adversarial fill: cycles the payload pool with a
    /// salted stride so NaNs/infinities land against every value class.
    fn adversarial(len: usize, salt: usize) -> Vec<f32> {
        let pool = payload_pool();
        (0..len)
            .map(|i| pool[(i.wrapping_mul(7).wrapping_add(salt)) % pool.len()])
            .collect()
    }

    /// The scalar tier plus every explicit one: the points-as-lanes
    /// kernels are held to their one-point references on each.
    fn all_paths() -> Vec<SimdPath> {
        let mut paths = vec![SimdPath::Scalar];
        paths.extend(explicit_paths());
        paths
    }

    /// Fill for the points-as-lanes properties: `mode` 0 draws from the
    /// adversarial pool, 1 from the small integers -2..=2 (so many
    /// distances tie exactly), 2 from an ordinary spread.
    fn lane_fill(len: usize, salt: usize, mode: u8) -> Vec<f32> {
        match mode {
            0 => adversarial(len, salt),
            1 => (0..len)
                .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) % 5) as f32 - 2.0)
                .collect(),
            _ => (0..len)
                .map(|i| {
                    let x = i
                        .wrapping_mul(0x9E37_79B9)
                        .wrapping_add(salt.wrapping_mul(7919));
                    ((x % 4001) as f32 - 2000.0) / 131.0
                })
                .collect(),
        }
    }

    /// The fused assignment's reference model: `dot8`-order norms and dot
    /// products in the decomposed form, then a strict-`<` scan in
    /// centroid order — the pre-fusion k-means assignment, one point at a
    /// time.
    fn nearest_reference(points: &Matrix, centroids: &Matrix) -> (Vec<usize>, Vec<u32>) {
        let c_norms: Vec<f32> = (0..centroids.rows())
            .map(|c| simd::norm_sq_on(SimdPath::Scalar, centroids.row(c)))
            .collect();
        (0..points.rows())
            .map(|i| {
                let p = points.row(i);
                let p_norm = simd::norm_sq_on(SimdPath::Scalar, p);
                let (mut best, mut best_d) = (0usize, f32::INFINITY);
                for (c, &c_norm) in c_norms.iter().enumerate() {
                    let dot = simd::dot8_on(SimdPath::Scalar, p, centroids.row(c));
                    let dd = p_norm + c_norm - 2.0 * dot;
                    if dd < best_d {
                        best = c;
                        best_d = dd;
                    }
                }
                (best, best_d.to_bits())
            })
            .unzip()
    }

    /// The fused assignment on tier `path`, as `(indices, distances)`.
    fn nearest_on(path: SimdPath, points: &Matrix, centroids: &Matrix) -> (Vec<usize>, Vec<f32>) {
        let mut idx = vec![0usize; points.rows()];
        let mut dist = vec![0.0f32; points.rows()];
        nearest_centroids_on(path, points, centroids, &mut idx, &mut dist);
        (idx, dist)
    }

    #[test]
    fn fused_assignment_breaks_exact_ties_to_the_lowest_index() {
        // Centroids 1 and 3 are copies of 0 and 2: every distance to a
        // copy ties exactly with its original, so only the strict `<`
        // scan order decides — the original (lower index) must win.
        let centroids = Matrix::from_vec(
            4,
            3,
            vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
        );
        let points = Matrix::from_vec(9, 3, (0..27).map(|i| (i % 5) as f32 - 2.0).collect());
        let want = nearest_reference(&points, &centroids);
        assert!(want.0.iter().all(|&c| c == 0 || c == 2));
        for p in all_paths() {
            let (idx, dist) = nearest_on(p, &points, &centroids);
            assert_eq!(idx, want.0, "tie order diverged on {}", p.name());
            let bits: Vec<u32> = dist.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want.1, "tie distances diverged on {}", p.name());
        }
    }

    #[test]
    fn fused_assignment_covers_fixed_dims_and_remainder_panels() {
        // Dimensions 1..=8 take the AVX2 tier's const-dimension kernel,
        // which scores 32-point blocks as four panels and the rest panel
        // by panel; 0, 9 and 32 take the stepping kernel. The point counts
        // straddle the 8-point panel and the 32-point block, so whole
        // blocks, remainder panels and partial panels all occur.
        for d in (0..=9).chain([32]) {
            for n in [1usize, 7, 8, 31, 32, 33, 41, 64, 100] {
                for (k, mode) in [(1usize, 0u8), (5, 1), (64, 2), (17, 0)] {
                    let salt = 31 * d + n + k;
                    let points = Matrix::from_vec(n, d, lane_fill(n * d, salt, mode));
                    let centroids = Matrix::from_vec(k, d, lane_fill(k * d, salt + 1, mode));
                    let want = nearest_reference(&points, &centroids);
                    for p in all_paths() {
                        let (idx, dist) = nearest_on(p, &points, &centroids);
                        let bits: Vec<u32> = dist.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            (&idx, &bits),
                            (&want.0, &want.1),
                            "d {d} n {n} k {k} mode {mode} diverged on {}",
                            p.name()
                        );
                    }
                }
            }
        }
    }

    /// The k-means reference: k-means++ seeding by one-point `dist_sq`
    /// as `kmeans` draws it, the one-point decomposed assignment
    /// (`nearest_reference`), and the Lloyd update as one generic loop
    /// over `d`, adds in point order, then the farthest-first empty-cluster
    /// reseed. Returns the centroid bits, the assignments, the inertia
    /// bits, the iterations run and whether any cluster was reseeded.
    fn kmeans_reference(
        points: &Matrix,
        k: usize,
        max_iters: usize,
        seed: u64,
    ) -> (Vec<u32>, Vec<usize>, u64, usize, bool) {
        let (n, d) = (points.rows(), points.cols());
        let mut rng = seeded(seed);
        let mut centroids = vec![0.0f32; k * d];
        let first = rng.gen_range(0..n);
        centroids[..d].copy_from_slice(points.row(first));
        let mut d2: Vec<f32> = (0..n)
            .map(|i| dist_sq(points.row(i), &centroids[..d]))
            .collect();
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
            centroids[c * d..(c + 1) * d].copy_from_slice(points.row(chosen));
            for (i, slot) in d2.iter_mut().enumerate() {
                let x = dist_sq(points.row(i), &centroids[c * d..(c + 1) * d]);
                if x < *slot {
                    *slot = x;
                }
            }
        }
        let (mut assignments, mut inertia, mut iterations, mut reseeded) =
            (vec![0; n], f64::INFINITY, 0, false);
        for it in 0..max_iters {
            iterations = it + 1;
            let (idx, dist_bits) =
                nearest_reference(points, &Matrix::from_vec(k, d, centroids.clone()));
            assignments = idx;
            let best_dists: Vec<f32> = dist_bits.into_iter().map(f32::from_bits).collect();
            let mut new_inertia = 0.0f64;
            for &bd in &best_dists {
                new_inertia += f64::from(bd);
            }
            let mut sums = vec![0.0f64; k * d];
            let mut counts = vec![0usize; k];
            for (i, &c) in assignments.iter().enumerate() {
                counts[c] += 1;
                for t in 0..d {
                    sums[c * d + t] += f64::from(points.row(i)[t]);
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f64;
                    for t in 0..d {
                        centroids[c * d + t] = (sums[c * d + t] * inv) as f32;
                    }
                }
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| best_dists[b].total_cmp(&best_dists[a]).then(a.cmp(&b)));
            let empty = (0..k).filter(|&c| counts[c] == 0);
            for (c, i) in empty.zip(order) {
                centroids[c * d..(c + 1) * d].copy_from_slice(points.row(i));
                reseeded = true;
            }
            if (inertia - new_inertia).abs() <= 1e-6 * new_inertia.max(1.0) {
                inertia = new_inertia;
                break;
            }
            inertia = new_inertia;
        }
        let bits = centroids.iter().map(|v| v.to_bits()).collect();
        (bits, assignments, inertia.to_bits(), iterations, reseeded)
    }

    #[test]
    fn kmeans_matches_the_generic_update_loop_on_every_tier() {
        // d 1..=8 and 32 take the update's fixed-dimension copies, 9 the
        // generic loop. The small-integer fill repeats points, so
        // k-means++ falls back to duplicate centroids and clusters empty.
        // The `f64` sums of those fills are exact in any order, so mode 3
        // follows each large value (near 2^30) with its negation and then
        // a small one (near 2^-10): adding a large value rounds the small
        // running sum to its ulp (2^-22), and the pair then cancels
        // exactly, so which small values get rounded depends on the add
        // order. With k = 1 every point shares one cluster, so only the
        // reference's order gives its bits (the point counts are multiples
        // of 3, so every large value meets its negation).
        let cancelling = |n: usize, d: usize, salt: usize| -> Vec<f32> {
            let scale = |i: usize, t: usize| {
                let x = (i / 3 * d + t)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(salt.wrapping_mul(7919));
                1.0 + (x % 977) as f32 / 977.0
            };
            (0..n * d)
                .map(|j| {
                    let (i, t) = (j / d, j % d);
                    match i % 3 {
                        0 => scale(i, t) * 2f32.powi(30),
                        1 => -scale(i, t) * 2f32.powi(30),
                        _ => scale(i, t) * 2f32.powi(-10),
                    }
                })
                .collect()
        };
        let mut reseeds = 0;
        for d in (1..=9).chain([32]) {
            for (n, k, mode) in [
                (40usize, 1usize, 2u8),
                (40, 8, 1),
                (100, 16, 1),
                (257, 5, 2),
                (99, 1, 3),
                (258, 12, 3),
            ] {
                let salt = 17 * d + n + k;
                let fill = if mode == 3 {
                    cancelling(n, d, salt)
                } else {
                    lane_fill(n * d, salt, mode)
                };
                let points = Matrix::from_vec(n, d, fill);
                let seed = salt as u64;
                let want = kmeans_reference(&points, k, 20, seed);
                reseeds += usize::from(want.4);
                for p in all_paths() {
                    let got = kmeans_on(p, &points, k, 20, &mut seeded(seed));
                    let bits: Vec<u32> = got
                        .centroids
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(
                        (
                            &bits,
                            &got.assignments,
                            got.inertia.to_bits(),
                            got.iterations
                        ),
                        (&want.0, &want.1, want.2, want.3),
                        "d {d} n {n} k {k} mode {mode} diverged on {}",
                        p.name()
                    );
                }
            }
        }
        assert!(reseeds > 0, "no case reseeded an empty cluster");
    }

    #[test]
    fn ground_truth_matches_one_point_dist_sq_and_top_k_on_every_tier() {
        // The second half of the points repeats the first, and queries
        // are drawn from the same small integers, so exact distance ties
        // occur and only `top_k`'s index order breaks them.
        for d in [1usize, 3, 4, 8, 9, 32] {
            for half in [1usize, 5, 32, 51] {
                let first = lane_fill(half * d, 3 * d + half, 1);
                let points = Matrix::from_vec(2 * half, d, [first.clone(), first].concat());
                let ds = Dataset {
                    points,
                    labels: vec![0; 2 * half],
                    means: Matrix::zeros(1, d),
                };
                let queries = Matrix::from_vec(9, d, lane_fill(9 * d, d + 7 * half, 1));
                for k in [1usize, 10, 200] {
                    let want: Vec<Vec<usize>> = (0..queries.rows())
                        .map(|qi| {
                            let q = queries.row(qi);
                            top_k((0..ds.len()).map(|i| (dist_sq(q, ds.points.row(i)), i)), k)
                                .into_iter()
                                .map(|(_, i)| i)
                                .collect()
                        })
                        .collect();
                    for p in all_paths() {
                        assert_eq!(
                            ds.ground_truth_on(p, &queries, k),
                            want,
                            "d {d} n {} k {k} diverged on {}",
                            2 * half,
                            p.name()
                        );
                    }
                }
            }
        }
    }

    /// The one-point reference of `BinaryCoder`: plane `b` is drawn in the
    /// order `BinaryCoder::new` draws it, and bit `b` is set when the
    /// sequential dot product (`Iterator::sum` of `plane[t] * x[t]`) is
    /// `>= 0`.
    fn binary_reference(dim: usize, bits: usize, seed: u64, data: &Matrix) -> Vec<Vec<u64>> {
        let mut rng = seeded(seed);
        let planes: Vec<f32> = (0..bits * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        (0..data.rows())
            .map(|i| {
                let x = data.row(i);
                let mut want = vec![0u64; bits.div_ceil(64)];
                for b in 0..bits {
                    let dot: f32 = planes[b * dim..(b + 1) * dim]
                        .iter()
                        .zip(x)
                        .map(|(p, v)| p * v)
                        .sum();
                    if dot >= 0.0 {
                        want[b / 64] |= 1u64 << (b % 64);
                    }
                }
                want
            })
            .collect()
    }

    #[test]
    fn binary_sign_bits_of_zero_and_nan_projections() {
        // All-zero inputs project to exactly ±0.0 (the sum starts at
        // -0.0; a positive plane element times -0.0 is -0.0), which count
        // as `>= 0`: every bit is set and none past `bits`. A NaN element
        // makes every projection NaN, and ±∞ elements against planes of
        // both signs meet as ∞ - ∞; neither counts. The bit counts leave
        // partial 32-plane groups and partial 64-bit words.
        let dim = 5;
        let rows: Vec<f32> = [
            [0.0; 5],
            [-0.0; 5],
            [0.0, -0.0, 0.0, -0.0, -0.0],
            [1.0, f32::NAN, 0.0, -2.0, 0.5],
            [f32::INFINITY, f32::NEG_INFINITY, 0.0, 1.0, -1.0],
            [
                f32::INFINITY,
                f32::INFINITY,
                f32::INFINITY,
                f32::INFINITY,
                f32::INFINITY,
            ],
        ]
        .concat();
        let data = Matrix::from_vec(rows.len() / dim, dim, rows);
        for bits in [1usize, 31, 32, 33, 63, 64, 65, 100, 129] {
            let coder = BinaryCoder::new(dim, bits, &mut seeded(bits as u64));
            let want = binary_reference(dim, bits, bits as u64, &data);
            let ones = |w: &Vec<u64>| w.iter().map(|x| x.count_ones() as usize).sum::<usize>();
            assert_eq!(ones(&want[0]), bits, "zero input sets every bit");
            assert_eq!(ones(&want[1]), bits, "-0.0 input sets every bit");
            assert_eq!(ones(&want[3]), 0, "NaN input sets no bit");
            for p in all_paths() {
                assert_eq!(
                    coder.encode_batch_on(p, &data),
                    want.concat(),
                    "{bits}-bit codes diverged on {}",
                    p.name()
                );
            }
        }
    }

    /// Checks both points-as-lanes direct-distance kernels on every tier
    /// against `linalg::dist_sq` row by row: the raw distances, and the
    /// D² refresh's strict-`<` lowering of `prior` values.
    fn check_dist_sq_rows(points: &Matrix, q: &[f32], prior: &[f32]) {
        let direct: Vec<f32> = (0..points.rows())
            .map(|i| dist_sq(points.row(i), q))
            .collect();
        let lowered: Vec<u32> = direct
            .iter()
            .zip(prior)
            .map(|(&x, &old)| if x < old { x } else { old }.to_bits())
            .collect();
        let direct: Vec<u32> = direct.iter().map(|v| v.to_bits()).collect();
        for p in all_paths() {
            let mut got = vec![0.0f32; points.rows()];
            dist_sq_rows_on(p, points, q, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, direct, "dist_sq rows diverged on {}", p.name());
            let mut got = prior.to_vec();
            lower_dist_sq_rows_on(p, points, q, &mut got);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, lowered, "D² refresh diverged on {}", p.name());
        }
    }

    #[test]
    fn dist_sq_rows_cover_every_length_and_block_remainder() {
        // Zero-length rows (the sum's `-0.0` start shows through), every
        // length residue, and row counts around the 8-row block, with
        // adversarial prior D² values (NaN, ±∞, ±0, subnormals).
        for d in 0..=17 {
            for n in [0usize, 1, 7, 8, 9, 17] {
                let points = Matrix::from_vec(n, d, adversarial(n * d, d + n));
                let q = adversarial(d, 2 * d + 1);
                check_dist_sq_rows(&points, &q, &adversarial(n, n + 4));
            }
        }
    }

    #[test]
    fn empty_inputs_agree_on_every_path() {
        for p in explicit_paths() {
            assert_eq!(simd::dot8_on(p, &[], &[]).to_bits(), 0.0f32.to_bits());
            assert_eq!(simd::norm_sq_on(p, &[]).to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn every_tail_residue_agrees_bitwise() {
        // Lengths 1..=24 cover every `len % 8` residue with zero, one and
        // two full 8-lane blocks in front of the tail.
        for len in 1..=24 {
            let a = adversarial(len, 0);
            let b = adversarial(len, 3);
            let want = simd::dot8_on(SimdPath::Scalar, &a, &b);
            for p in explicit_paths() {
                let got = simd::dot8_on(p, &a, &b);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "dot8 len {len} diverged on {}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn nan_on_nan_meets_agree_bitwise() {
        // All-NaN operands: every multiply and every accumulating add is
        // a NaN-on-NaN meet. With same-bits NaNs the propagated result is
        // order-independent, so scalar and SIMD must agree exactly.
        let nan = vec![canonical_nan(); 11];
        let want = simd::dot8_on(SimdPath::Scalar, &nan, &nan);
        assert!(want.is_nan());
        for p in explicit_paths() {
            assert_eq!(simd::dot8_on(p, &nan, &nan).to_bits(), want.to_bits());
            assert_eq!(
                simd::norm_sq_on(p, &nan).to_bits(),
                simd::norm_sq_on(SimdPath::Scalar, &nan).to_bits()
            );
        }
    }

    #[test]
    fn lone_nan_payload_survives_bitwise() {
        // A single distinct-payload quiet NaN among finite values: only
        // one NaN is ever in flight, so its payload must ride through the
        // multiply and the whole accumulation untouched — identically on
        // every path. (Two *different* payloads meeting is deliberately
        // out of scope: hardware keeps the first source operand's payload
        // and LLVM commutes float ops freely, so that ordering is not
        // observable-stable even between two scalar builds.)
        let payload = f32::from_bits(0x7fc0_1234);
        for len in [1usize, 7, 8, 9, 23] {
            for pos in [0, len / 2, len - 1] {
                let mut a: Vec<f32> = (0..len).map(|i| 0.25 * (i as f32 + 1.0)).collect();
                a[pos] = payload;
                let b: Vec<f32> = (0..len).map(|i| 1.5 - (i as f32) * 0.125).collect();
                let want = simd::dot8_on(SimdPath::Scalar, &a, &b);
                assert!(want.is_nan());
                for p in explicit_paths() {
                    assert_eq!(
                        simd::dot8_on(p, &a, &b).to_bits(),
                        want.to_bits(),
                        "lone NaN at {pos}/{len} diverged on {}",
                        p.name()
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// dot8: scalar vs every explicit path over random lengths
        /// (covering all tails and the empty input) drawn from the
        /// adversarial payload pool. Generated as index pairs so both
        /// operands share a length but draw payloads independently.
        #[test]
        fn dot8_matches_scalar_bitwise(
            pairs in proptest::collection::vec(
                (0usize..1000, 0usize..1000), 0..64)
        ) {
            let pool = payload_pool();
            let a: Vec<f32> =
                pairs.iter().map(|&(i, _)| pool[i % pool.len()]).collect();
            let b: Vec<f32> =
                pairs.iter().map(|&(_, j)| pool[j % pool.len()]).collect();
            let want = simd::dot8_on(SimdPath::Scalar, &a, &b);
            for p in explicit_paths() {
                let got = simd::dot8_on(p, &a, &b);
                prop_assert_eq!(got.to_bits(), want.to_bits(),
                    "dot8 diverged on {}", p.name());
            }
        }

        /// norm_sq: same property on the self-product.
        #[test]
        fn norm_sq_matches_scalar_bitwise(
            picks in proptest::collection::vec(0usize..1000, 0..64)
        ) {
            let pool = payload_pool();
            let v: Vec<f32> =
                picks.iter().map(|&i| pool[i % pool.len()]).collect();
            let want = simd::norm_sq_on(SimdPath::Scalar, &v);
            for p in explicit_paths() {
                prop_assert_eq!(simd::norm_sq_on(p, &v).to_bits(),
                    want.to_bits(), "norm_sq diverged on {}", p.name());
            }
        }

        /// The full micro-kernel (packed 4-wide panels, remainder
        /// columns, every k-tail) over odd shapes and adversarial
        /// payloads: whole-matrix to_bits equality per path.
        #[test]
        fn gemm_micro_kernel_matches_scalar_bitwise(
            m in 1usize..24,
            n in 1usize..14,
            k in 0usize..40,
            salt in 0usize..1000,
        ) {
            let a = Matrix::from_vec(m, k, adversarial(m * k, salt));
            let b = Matrix::from_vec(n, k, adversarial(n * k, salt + 1));
            let mut want = vec![0.0f32; m * n];
            gemm_nt_rows_on(SimdPath::Scalar, &a, &b, &mut want);
            for p in explicit_paths() {
                let mut got = vec![0.0f32; m * n];
                gemm_nt_rows_on(p, &a, &b, &mut got);
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "gemm {}x{}x{} diverged on {}", m, n, k, p.name());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused points-as-lanes assignment against its one-point
        /// reference on every tier: point counts straddling the 8-point
        /// blocks, every dimension residue, centroid
        /// counts past 64, and payloads that are adversarial, tie-heavy
        /// or ordinary. Index and distance bits must both match.
        #[test]
        fn fused_assignment_matches_reference_bitwise(
            n in 1usize..140,
            d in 1usize..40,
            k in 1usize..70,
            mode in 0u8..3,
            salt in 0usize..1000,
        ) {
            let points = Matrix::from_vec(n, d, lane_fill(n * d, salt, mode));
            let centroids = Matrix::from_vec(k, d, lane_fill(k * d, salt + 1, mode));
            let want = nearest_reference(&points, &centroids);
            for p in all_paths() {
                let (idx, dist) = nearest_on(p, &points, &centroids);
                prop_assert_eq!(&idx, &want.0, "indices diverged on {}", p.name());
                let bits: Vec<u32> = dist.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&bits, &want.1, "distances diverged on {}", p.name());
            }
        }

        /// The points-as-lanes direct distance (the k-means++ D² refresh)
        /// against `linalg::dist_sq` row by row, on every tier, including
        /// zero-length rows and partial 8-row blocks.
        #[test]
        fn dist_sq_rows_match_dist_sq_bitwise(
            n in 0usize..40,
            d in 0usize..40,
            mode in 0u8..3,
            salt in 0usize..1000,
        ) {
            let points = Matrix::from_vec(n, d, lane_fill(n * d, salt, mode));
            let q = lane_fill(d, salt + 5, mode);
            check_dist_sq_rows(&points, &q, &lane_fill(n, salt + 6, mode));
        }

        /// PQ codes from the points-as-lanes encoder equal the one-point
        /// nearest-codeword scan (`dist_sq`, strict `<`, lowest index on
        /// ties) on every tier, batch and single, on adversarial and
        /// tie-heavy inputs. Row counts cross several 8-row panels with a
        /// remainder; sub-vector lengths cover the 4 and 8 the recall
        /// experiment trains.
        #[test]
        fn pq_codes_match_one_point_scan(
            subspaces in 1usize..5,
            sub_dim in 1usize..10,
            centroids in 1usize..20,
            n in 1usize..80,
            mode in 0u8..3,
            salt in 0usize..1000,
        ) {
            let d = subspaces * sub_dim;
            let train = Matrix::from_vec(40, d, lane_fill(40 * d, salt, 2));
            let pq = ProductQuantizer::train(&train, subspaces, centroids, &mut seeded(salt as u64));
            let data = Matrix::from_vec(n, d, lane_fill(n * d, salt + 3, mode));
            let want: Vec<Vec<u8>> = (0..n)
                .map(|i| {
                    pq.codebooks()
                        .iter()
                        .enumerate()
                        .map(|(s, book)| {
                            let sub = &data.row(i)[s * sub_dim..(s + 1) * sub_dim];
                            let (mut best, mut best_d) = (0usize, f32::INFINITY);
                            for c in 0..book.rows() {
                                let dd = dist_sq(sub, book.row(c));
                                if dd < best_d {
                                    best = c;
                                    best_d = dd;
                                }
                            }
                            best as u8
                        })
                        .collect()
                })
                .collect();
            for p in all_paths() {
                prop_assert_eq!(&pq.encode_batch_on(p, &data), &want.concat(),
                    "batch codes diverged on {}", p.name());
            }
            for (i, code) in want.iter().enumerate() {
                prop_assert_eq!(&pq.encode(data.row(i)), code, "code of row {}", i);
            }
        }

        /// Binary codes from the planes-as-lanes encoder equal one
        /// sequential dot product per plane (`Iterator::sum` of
        /// `plane[t] * x[t]`, sign bit `>= 0`) on every tier, batch and
        /// single, for bit counts that are and are not multiples of the
        /// lane group or the 64-bit word.
        #[test]
        fn binary_codes_match_sequential_dots(
            dim in 1usize..40,
            bits in 1usize..300,
            n in 1usize..12,
            mode in 0u8..3,
            salt in 0usize..1000,
        ) {
            let coder = BinaryCoder::new(dim, bits, &mut seeded(salt as u64));
            let data = Matrix::from_vec(n, dim, lane_fill(n * dim, salt + 9, mode));
            let want = binary_reference(dim, bits, salt as u64, &data);
            for p in all_paths() {
                prop_assert_eq!(&coder.encode_batch_on(p, &data), &want.concat(),
                    "batch codes diverged on {}", p.name());
            }
            for (i, code) in want.iter().enumerate() {
                prop_assert_eq!(&coder.encode(data.row(i)), code, "code of row {}", i);
            }
        }
    }

    /// The in-process form of the CI `REACH_SIMD=off` vs `auto` A/B: the
    /// whole experiments suite rendered with the kernel tier pinned to
    /// scalar, then pinned to the widest supported path, must produce the
    /// same bytes. (Flipping the pin is benign for concurrently running
    /// tests — every path computes identical bits, which is exactly what
    /// this test enforces.)
    #[test]
    fn full_suite_stdout_identical_scalar_vs_simd() {
        let best = simd::best_supported();
        simd::force(Some(SimdPath::Scalar));
        let scalar = super::full_suite_stdout(&reach::SequentialExecutor);
        simd::force(Some(best));
        let vectored = super::full_suite_stdout(&reach::SequentialExecutor);
        simd::force(None);
        assert!(!scalar.is_empty());
        assert_eq!(
            scalar,
            vectored,
            "suite stdout diverged between scalar and {} kernels",
            best.name()
        );
    }
}

mod lane_model {
    //! `gemm_nt` must be *bit-for-bit* equal to a scalar model of the
    //! crate's one accumulation order — the engine-level determinism
    //! contract rests on it.

    use proptest::prelude::*;
    use reach_cbir::linalg::{gemm_nt, Matrix};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The register-blocked micro-kernel agrees bit-for-bit with a
        /// scalar model of its accumulation contract: lane `l` of an
        /// 8-lane accumulator sums products at `t ≡ l (mod 8)` in order,
        /// then the lanes fold pairwise. Wide (4-column) blocks and the
        /// remainder-column path must both match it, over one pass of up
        /// to 199 rows.
        #[test]
        fn micro_kernel_matches_lane_model_bitwise(
            m in 1usize..200,
            n in 1usize..24,
            k in 1usize..40,
            seedling in 0u64..1000,
        ) {
            let fill = |len: usize, salt: u64| -> Vec<f32> {
                (0..len)
                    .map(|i| {
                        let x = (i as u64).wrapping_mul(0xDEAD_BEEF).wrapping_add(salt);
                        ((x % 509) as f32 - 254.0) / 31.0
                    })
                    .collect()
            };
            let a = Matrix::from_vec(m, k, fill(m * k, seedling));
            let b = Matrix::from_vec(n, k, fill(n * k, seedling + 1));
            let got = gemm_nt(&a, &b);
            for i in 0..m {
                for j in 0..n {
                    let mut lanes = [0.0f32; 8];
                    for (t, (x, y)) in a.row(i).iter().zip(b.row(j)).enumerate() {
                        lanes[t % 8] += x * y;
                    }
                    let q = [
                        lanes[0] + lanes[4],
                        lanes[1] + lanes[5],
                        lanes[2] + lanes[6],
                        lanes[3] + lanes[7],
                    ];
                    let want = (q[0] + q[2]) + (q[1] + q[3]);
                    prop_assert_eq!(got.row(i)[j].to_bits(), want.to_bits(),
                        "({}, {}): {} vs {}", i, j, got.row(i)[j], want);
                }
            }
        }
    }
}
