//! The paper's evaluation, experiment by experiment.
//!
//! Every table and figure of Section V/VI has a function here that runs the
//! corresponding simulation(s) and returns structured rows; the
//! `reach-bench` crate wraps each in a Criterion bench and the
//! `experiments` binary prints them in the paper's format. EXPERIMENTS.md
//! records paper-vs-measured values.

use crate::pipeline::{CbirMapping, CbirPipeline, CbirStage};
use crate::scenarios::{blueprint_with, CbirScenario};
use crate::workload::CbirWorkload;
use reach::fingerprint::ConfigFingerprint;
use reach::{
    ComputeLevel, EnergyLedger, Machine, MachineBlueprint, MetricValue, MetricsSnapshot, RunReport,
    Scenario, ScenarioExecutor, SharedSetup, SimDuration, SystemConfig,
};
use reach_sim::FingerprintBuilder;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Instance counts swept in Figures 9–11.
pub const STAGE_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Instance counts swept in Figure 12.
pub const E2E_SWEEP: [usize; 3] = [1, 2, 4];

// ------------------------------------------------------------------ //
// Figure 8 — energy breakdown of the on-chip baseline
// ------------------------------------------------------------------ //

/// Figure 8: the on-chip baseline's energy matrix.
#[derive(Clone, Debug)]
pub struct Fig8 {
    /// The full component x stage ledger (the left chart).
    pub ledger: EnergyLedger,
    /// Fraction of energy spent moving data (the paper reports 79%).
    pub movement_fraction: f64,
    /// Per-stage share of total energy, pipeline order (FE, SL, RR) —
    /// the right chart's column sums.
    pub stage_shares: [f64; 3],
    /// The baseline report (reused by other figures for normalization).
    pub report: RunReport,
}

/// Runs the fully-on-chip CBIR batch and decomposes its energy.
#[must_use]
pub fn fig8_with(executor: &dyn ScenarioExecutor) -> Fig8 {
    let p = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllOnChip);
    let scenario = CbirScenario::full("fig8/on-chip", blueprint_with(4, 4), p, 1);
    let mut results = executor.run_all(vec![Box::new(scenario)]);
    let report = results.remove(0).report;
    let total = report.total_energy_j();
    let shares = [
        report
            .ledger
            .stage_total(CbirStage::FeatureExtraction.label())
            / total,
        report.ledger.stage_total(CbirStage::ShortList.label()) / total,
        report.ledger.stage_total(CbirStage::Rerank.label()) / total,
    ];
    Fig8 {
        movement_fraction: report.ledger.movement_fraction(),
        stage_shares: shares,
        ledger: report.ledger.clone(),
        report,
    }
}

// ------------------------------------------------------------------ //
// Figures 9-11 — per-stage runtime/energy scaling at NM and NS
// ------------------------------------------------------------------ //

/// One bar of Figures 9, 10 or 11.
#[derive(Clone, Copy, Debug)]
pub struct StageScalingRow {
    /// Near-memory or near-storage.
    pub level: ComputeLevel,
    /// Accelerator instances.
    pub instances: usize,
    /// Runtime normalized to the on-chip single instance.
    pub runtime_norm: f64,
    /// Energy normalized to the on-chip single instance.
    pub energy_norm: f64,
}

impl fmt::Display for StageScalingRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} x{:<2}  runtime {:>6.2}  energy {:>6.2}",
            self.level.to_string(),
            self.instances,
            self.runtime_norm,
            self.energy_norm
        )
    }
}

/// Runs one pipeline stage at near-memory and near-storage with the
/// Figure 9–11 instance sweep, normalized to the on-chip accelerator.
/// Every sweep point is an independent scenario, so a parallel executor runs the whole figure
/// concurrently.
#[must_use]
pub fn stage_scaling_with(
    executor: &dyn ScenarioExecutor,
    stage: CbirStage,
) -> Vec<StageScalingRow> {
    let w = CbirWorkload::paper_setup();
    let mut scenarios: Vec<Box<dyn Scenario>> = vec![Box::new(CbirScenario::stage(
        format!("{}/on-chip/x1", stage.label()),
        blueprint_with(4, 4),
        CbirPipeline::new(w, CbirMapping::AllOnChip),
        stage,
        1,
    ))];
    let mut points = Vec::new();
    for (mapping, level) in [
        (CbirMapping::AllNearMemory, ComputeLevel::NearMemory),
        (CbirMapping::AllNearStorage, ComputeLevel::NearStorage),
    ] {
        for &n in &STAGE_SWEEP {
            let blueprint = match level {
                ComputeLevel::NearMemory => blueprint_with(n, 4),
                _ => blueprint_with(4, n),
            };
            scenarios.push(Box::new(CbirScenario::stage(
                format!("{}/{level}/x{n}", stage.label()),
                blueprint,
                CbirPipeline::new(w, mapping),
                stage,
                1,
            )));
            points.push((level, n));
        }
    }

    let mut results = executor.run_all(scenarios);
    let base = results.remove(0).report;
    let base_time = base.makespan.as_secs_f64();
    let base_energy = base.total_energy_j();

    points
        .into_iter()
        .zip(results)
        .map(|((level, instances), result)| StageScalingRow {
            level,
            instances,
            runtime_norm: result.report.makespan.as_secs_f64() / base_time,
            energy_norm: result.report.total_energy_j() / base_energy,
        })
        .collect()
}

/// Figure 9: feature extraction scaling.
#[must_use]
pub fn fig9_with(executor: &dyn ScenarioExecutor) -> Vec<StageScalingRow> {
    stage_scaling_with(executor, CbirStage::FeatureExtraction)
}

/// Figure 10: short-list retrieval scaling.
#[must_use]
pub fn fig10_with(executor: &dyn ScenarioExecutor) -> Vec<StageScalingRow> {
    stage_scaling_with(executor, CbirStage::ShortList)
}

/// Figure 11: rerank scaling.
#[must_use]
pub fn fig11_with(executor: &dyn ScenarioExecutor) -> Vec<StageScalingRow> {
    stage_scaling_with(executor, CbirStage::Rerank)
}

// ------------------------------------------------------------------ //
// Figure 12 — end-to-end CBIR on a single compute level
// ------------------------------------------------------------------ //

/// One bar group of Figure 12.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Which single level ran the whole pipeline.
    pub mapping: CbirMapping,
    /// Instances at that level (on-chip always has 1).
    pub instances: usize,
    /// Total runtime normalized to the on-chip baseline.
    pub runtime_norm: f64,
    /// Total energy normalized to the on-chip baseline.
    pub energy_norm: f64,
    /// Per-stage runtime share (FE, SL, RR) for the stacked bars.
    pub stage_spans_ms: [f64; 3],
}

impl fmt::Display for Fig12Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12} x{:<2}  runtime {:>5.2}  energy {:>5.2}  (fe {:.0}ms, sl {:.0}ms, rr {:.0}ms)",
            self.mapping.name(),
            self.instances,
            self.runtime_norm,
            self.energy_norm,
            self.stage_spans_ms[0],
            self.stage_spans_ms[1],
            self.stage_spans_ms[2]
        )
    }
}

/// Runs the end-to-end pipeline on each single level with 1/2/4 instances.
#[must_use]
pub fn fig12_with(executor: &dyn ScenarioExecutor) -> Vec<Fig12Row> {
    let w = CbirWorkload::paper_setup();
    let mut scenarios: Vec<Box<dyn Scenario>> = vec![Box::new(CbirScenario::full(
        "fig12/on-chip/x1",
        blueprint_with(4, 4),
        CbirPipeline::new(w, CbirMapping::AllOnChip),
        1,
    ))];
    let mut points = Vec::new();
    for &n in &E2E_SWEEP {
        for mapping in [CbirMapping::AllNearMemory, CbirMapping::AllNearStorage] {
            let blueprint = match mapping {
                CbirMapping::AllNearMemory => blueprint_with(n, 4),
                _ => blueprint_with(4, n),
            };
            scenarios.push(Box::new(CbirScenario::full(
                format!("fig12/{}/x{n}", mapping.name()),
                blueprint,
                CbirPipeline::new(w, mapping),
                1,
            )));
            points.push((mapping, n));
        }
    }

    let spans = |r: &RunReport| -> [f64; 3] {
        [
            r.stage(CbirStage::FeatureExtraction.label())
                .map_or(0.0, |s| s.span().as_ms_f64()),
            r.stage(CbirStage::ShortList.label())
                .map_or(0.0, |s| s.span().as_ms_f64()),
            r.stage(CbirStage::Rerank.label())
                .map_or(0.0, |s| s.span().as_ms_f64()),
        ]
    };

    let mut results = executor.run_all(scenarios);
    let base = results.remove(0).report;
    let base_time = base.makespan.as_secs_f64();
    let base_energy = base.total_energy_j();

    let mut rows = vec![Fig12Row {
        mapping: CbirMapping::AllOnChip,
        instances: 1,
        runtime_norm: 1.0,
        energy_norm: 1.0,
        stage_spans_ms: spans(&base),
    }];
    rows.extend(
        points
            .into_iter()
            .zip(results)
            .map(|((mapping, n), result)| Fig12Row {
                mapping,
                instances: n,
                runtime_norm: result.report.makespan.as_secs_f64() / base_time,
                energy_norm: result.report.total_energy_j() / base_energy,
                stage_spans_ms: spans(&result.report),
            }),
    );
    rows
}

// ------------------------------------------------------------------ //
// Figure 13 — the headline comparison
// ------------------------------------------------------------------ //

/// One acceleration option of Figure 13.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// The acceleration option.
    pub mapping: CbirMapping,
    /// Query throughput improvement over on-chip (chart a).
    pub throughput_gain: f64,
    /// Query response latency improvement over on-chip (chart b).
    pub latency_gain: f64,
    /// Energy per component in joules per batch (chart c).
    pub energy_by_component: Vec<(reach::SystemComponent, f64)>,
    /// Total energy per batch.
    pub energy_total: f64,
}

impl fmt::Display for Fig13Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>12}  throughput {:>5.2}x  latency {:>5.2}x  energy {:>7.2} J",
            self.mapping.name(),
            self.throughput_gain,
            self.latency_gain,
            self.energy_total
        )
    }
}

/// Batches used for the steady-state throughput measurement.
pub const FIG13_BATCHES: usize = 16;

/// Runs the four acceleration options of Figure 13.
///
/// The on-chip baseline runs *synchronously* (conventional host-driven
/// acceleration: one batch completes before the next starts); the
/// near-data options run under the GAM with cross-batch pipelining — the
/// paper's "GAM assigns tasks from the next job … without waiting".
/// Each mapping contributes a steady-state scenario and a single-batch
/// scenario, all independent.
#[must_use]
pub fn fig13_with(executor: &dyn ScenarioExecutor) -> Vec<Fig13Row> {
    let w = CbirWorkload::paper_setup();
    let scenarios: Vec<Box<dyn Scenario>> = CbirMapping::ALL
        .iter()
        .flat_map(|&mapping| {
            let p = CbirPipeline::new(w, mapping);
            let steady: Box<dyn Scenario> = if mapping == CbirMapping::AllOnChip {
                Box::new(CbirScenario::synchronous(
                    format!("fig13/{}/steady", mapping.name()),
                    blueprint_with(4, 4),
                    p,
                    FIG13_BATCHES,
                ))
            } else {
                Box::new(CbirScenario::full(
                    format!("fig13/{}/steady", mapping.name()),
                    blueprint_with(4, 4),
                    p,
                    FIG13_BATCHES,
                ))
            };
            let single: Box<dyn Scenario> = Box::new(CbirScenario::full(
                format!("fig13/{}/single", mapping.name()),
                blueprint_with(4, 4),
                p,
                1,
            ));
            [steady, single]
        })
        .collect();

    let results = executor.run_all(scenarios);
    let pairs: Vec<(&RunReport, &RunReport)> = results
        .chunks(2)
        .map(|pair| (&pair[0].report, &pair[1].report))
        .collect();
    let (base_steady, base_single) = pairs[0];

    CbirMapping::ALL
        .iter()
        .zip(&pairs)
        .map(|(&mapping, &(steady, single))| {
            let energy_by_component = reach::SystemComponent::ALL
                .iter()
                .map(|&c| (c, single.ledger.component_total(c)))
                .collect();
            Fig13Row {
                mapping,
                throughput_gain: steady.throughput_jobs_per_sec()
                    / base_steady.throughput_jobs_per_sec(),
                latency_gain: base_single.job_latency_mean.as_secs_f64()
                    / single.job_latency_mean.as_secs_f64(),
                energy_total: single.total_energy_j(),
                energy_by_component,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ //
// Extension: recall vs compression (Section IV-A's argument, executed)
// ------------------------------------------------------------------ //

/// One row of the recall-vs-compression comparison.
#[derive(Clone, Debug)]
pub struct RecallCompressionRow {
    /// Method name.
    pub method: String,
    /// Bytes of index data visited per query (relative cost of the scan).
    pub bytes_per_vector: f64,
    /// Recall@10 against exact brute force.
    pub recall_at_10: f64,
}

impl fmt::Display for RecallCompressionRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<34} {:>8.1} B/vec   recall@10 {:>6.3}",
            self.method, self.bytes_per_vector, self.recall_at_10
        )
    }
}

/// Method labels of [`recall_vs_compression`]'s rows, in row order. A
/// cached recall report stores only the two numbers per row; the labels
/// live here, which is safe because any edit to this list is a code change
/// and the persistent cache is invalidated by the simulator version stamp.
const RECALL_METHODS: [&str; 5] = [
    "IVF + exact rerank (ReACH)",
    "PQ 8x8b (16x smaller)",
    "PQ 4x4b (32x smaller)",
    "binary codes, 64 bits",
    "binary codes, 256 bits",
];

/// RNG steps each row's codec draws, in row order. The vendored `StdRng`
/// (xoshiro256**) takes one step per float draw and two per integer draw
/// (an integer range draws 128 bits). k-means++ seeding draws one integer
/// for its first centroid and one float per further centroid, so `k`
/// centroids cost `k + 1` steps; Lloyd iterations, empty-cluster reseeding,
/// encoding and search draw nothing. `BinaryCoder::new` draws one float
/// per plane element.
/// - IVF, 48 cells: 48 + 1 = 49;
/// - PQ 8x8b, 8 codebooks of 64: 8 x 65 = 520;
/// - PQ 4x4b, 4 codebooks of 16: 4 x 17 = 68;
/// - binary, 32 dims x 64 planes: 2,048;
/// - binary, 32 dims x 256 planes: 8,192.
///
/// Codec `m` starts from the shared inputs' stream advanced by the sum of
/// the steps before it: exactly where one RNG threaded through the codecs
/// in row order would reach it. A count that changes (k-means++'s integer
/// fallback when the D² total is at most `f64::EPSILON`, say) fails the
/// codec's assertion instead of silently shifting a later codec's stream.
const RECALL_STEPS: [u64; 5] = [49, 520, 68, 2_048, 8_192];

/// The row of PQ 8x8b, the codec whose codebooks a batch trains as
/// separate pieces of work ([`RecallBatch`]).
const PQ8_ROW: usize = 1;

/// PQ 8x8b's shape: 8 subspaces of 64 codewords.
const PQ8_SUBSPACES: usize = 8;
const PQ8_CODEWORDS: usize = 64;

/// RNG steps one PQ 8x8b codebook draws: k-means++ over 64 codewords
/// takes 64 + 1. Codebook `s` starts `s` codebooks into PQ 8x8b's stream.
const PQ8_CODEBOOK_STEPS: u64 = PQ8_CODEWORDS as u64 + 1;
const _: () = assert!(RECALL_STEPS[PQ8_ROW] == PQ8_SUBSPACES as u64 * PQ8_CODEBOOK_STEPS);

/// The dimensionality of the recall evaluation's dataset.
const RECALL_DIM: usize = 32;

/// The inputs every codec of [`recall_vs_compression`] shares: the
/// dataset, its queries, their exact top-10, and the RNG state after the
/// queries were drawn.
struct RecallInputs {
    points: crate::linalg::Matrix,
    queries: crate::linalg::Matrix,
    truth: Vec<Vec<usize>>,
    rng: rand::rngs::StdRng,
}

/// Process-wide count of [`RecallInputs`] builds.
static RECALL_INPUT_BUILDS: AtomicUsize = AtomicUsize::new(0);

/// How many times this process has synthesized the recall evaluation's
/// shared inputs. Exposed (hidden) so a test can check that one batch of
/// codec scenarios builds them once, whichever worker does.
#[doc(hidden)]
#[must_use]
pub fn recall_inputs_built() -> usize {
    RECALL_INPUT_BUILDS.load(Ordering::Relaxed)
}

/// Process-wide count of PQ 8x8b codebook trainings ([`pq8_codebook`]).
static RECALL_CODEBOOK_TRAININGS: AtomicUsize = AtomicUsize::new(0);

/// How many PQ 8x8b codebooks this process has trained for the recall
/// evaluation. Exposed (hidden) so a test can check that one batch trains
/// each of the eight once, whichever workers do, and that a batch whose
/// PQ 8x8b row the result cache answers trains none.
#[doc(hidden)]
#[must_use]
pub fn recall_codebooks_trained() -> usize {
    RECALL_CODEBOOK_TRAININGS.load(Ordering::Relaxed)
}

impl RecallInputs {
    fn build() -> Self {
        use crate::dataset::Dataset;
        RECALL_INPUT_BUILDS.fetch_add(1, Ordering::Relaxed);
        let mut rng =
            reach_sim::rng::derived(reach_sim::rng::DEFAULT_SEED, "recall-vs-compression");
        let ds = Dataset::gaussian_mixture(6_000, RECALL_DIM, 48, 0.8, &mut rng);
        let (queries, _) = ds.queries(32, 0.2, &mut rng);
        let truth = ds.ground_truth(&queries, 10);
        RecallInputs {
            points: ds.points,
            queries,
            truth,
            rng,
        }
    }
}

/// An [`RngCore`](rand::RngCore) that counts the steps drawn through it:
/// each `next_u32` or `next_u64` of the vendored `StdRng` is one step.
struct CountingRng<'a> {
    rng: &'a mut rand::rngs::StdRng,
    steps: u64,
}

impl rand::RngCore for CountingRng<'_> {
    fn next_u32(&mut self) -> u32 {
        self.steps += 1;
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.steps += 1;
        self.rng.next_u64()
    }
}

/// The paper's Section IV-A argument, executed: lossy compression (binary
/// codes, product quantization) cuts bytes visited by 8-64x but pays in
/// recall, while the exact IVF + rerank pipeline ReACH accelerates keeps
/// recall high at full precision.
///
/// This is the raw computation — dataset synthesis, index builds, codec
/// training, searches — one codec after another on the calling thread,
/// through the same [`RecallBatch`] the codec scenarios share. It is by
/// far the most expensive experiment in the `experiments` suite and a
/// pure function of its built-in constants and the pinned
/// [`reach_sim::rng::DEFAULT_SEED`], so suite runs go through
/// [`recall_vs_compression_with`], which runs each row as a cacheable
/// scenario of its own.
#[must_use]
pub fn recall_vs_compression() -> Vec<RecallCompressionRow> {
    recall_vs_compression_observed(&mut |_| {})
}

/// A codec a [`RecallBatch`] row has just trained, with the dataset's
/// codes in their flat batch layout — the bits the pin test digests,
/// since the printed recalls (three decimals) would not show a kernel
/// that flips low bits.
#[cfg_attr(not(test), allow(dead_code))] // only the pin test reads them
enum RecallCodec<'a> {
    /// The IVF index: centroids and postings are the k-means output.
    Ivf(&'a crate::ivf::IvfIndex),
    /// A product quantizer and its codes, `code_bytes()` per point.
    Pq(&'a crate::pq::ProductQuantizer, &'a [u8]),
    /// A binary coder's codes, `code_words()` per point.
    Binary(&'a [u64]),
}

/// [`recall_vs_compression`], handing each trained codec to `observe`.
fn recall_vs_compression_observed(
    observe: &mut dyn FnMut(RecallCodec<'_>),
) -> Vec<RecallCompressionRow> {
    let batch = RecallBatch::default();
    (0..RECALL_METHODS.len())
        .map(|m| batch.row(m, observe))
        .collect()
}

/// `base` advanced by `steps` RNG steps.
fn advanced(base: &rand::rngs::StdRng, steps: u64) -> rand::rngs::StdRng {
    use rand::RngCore;
    let mut rng = base.clone();
    for _ in 0..steps {
        rng.next_u64();
    }
    rng
}

/// What the codec rows of one evaluation share, each piece built at most
/// once by whichever row first needs it: the inputs, and PQ 8x8b's eight
/// codebooks as cells of their own. The codebooks are the costliest
/// training and independent of each other, so on a parallel runner the
/// workers whose rows finish early train the ones PQ 8x8b's row has not
/// reached yet.
#[derive(Default)]
struct RecallBatch {
    inputs: SharedSetup<RecallInputs>,
    /// Codebook `s` of PQ 8x8b, trained by [`pq8_codebook`].
    codebooks: [SharedSetup<crate::linalg::Matrix>; PQ8_SUBSPACES],
    /// Set once PQ 8x8b's row is to be computed in this batch (by its
    /// `prepare`, or when the row starts). Until then no other row trains
    /// codebooks, so a batch whose PQ 8x8b row the result cache answers
    /// trains none. It publishes no data, so `Relaxed` is enough.
    codebooks_wanted: AtomicBool,
}

impl RecallBatch {
    fn inputs(&self) -> &RecallInputs {
        self.inputs.get_or_build(RecallInputs::build)
    }

    /// Trains each codebook nobody has claimed yet. It never waits for a
    /// codebook another thread is training, so a helper moves on to the
    /// next one, or back to its own work.
    fn train_unclaimed_codebooks(&self, inputs: &RecallInputs) {
        for (s, cell) in self.codebooks.iter().enumerate() {
            cell.prepare(|| pq8_codebook(inputs, s));
        }
    }

    /// Row `m`, bitwise what one RNG threaded through the codecs in row
    /// order gives (see [`RECALL_STEPS`]). Codec `m` starts from the
    /// shared stream advanced past every earlier codec's draws, except PQ
    /// 8x8b, which assembles its quantizer from the codebook cells after
    /// helping to train them. Every other row, once its own codec is
    /// done, helps train the codebooks if PQ 8x8b wants them.
    fn row(&self, m: usize, observe: &mut dyn FnMut(RecallCodec<'_>)) -> RecallCompressionRow {
        let inputs = self.inputs();
        if m != PQ8_ROW {
            let skip = RECALL_STEPS[..m].iter().sum();
            let row = recall_codec_on(inputs, m, &mut advanced(&inputs.rng, skip), observe);
            if self.codebooks_wanted.load(Ordering::Relaxed) {
                self.train_unclaimed_codebooks(inputs);
            }
            return row;
        }
        self.codebooks_wanted.store(true, Ordering::Relaxed);
        self.train_unclaimed_codebooks(inputs);
        let books = self
            .codebooks
            .iter()
            .enumerate()
            .map(|(s, cell)| cell.get_or_build(|| pq8_codebook(inputs, s)).clone())
            .collect();
        let pq = crate::pq::ProductQuantizer::from_codebooks(books);
        let (bytes_per_vector, results) = pq_search(inputs, &pq, observe);
        recall_row(inputs, m, bytes_per_vector, &results)
    }
}

/// PQ 8x8b's codebook `s`, trained from the inputs' stream advanced past
/// the IVF codec and the `s` codebooks before it: bitwise the codebook
/// `ProductQuantizer::train` gives subspace `s` from PQ 8x8b's single
/// stream.
///
/// # Panics
///
/// Panics if the training draws other than [`PQ8_CODEBOOK_STEPS`] steps.
fn pq8_codebook(inputs: &RecallInputs, s: usize) -> crate::linalg::Matrix {
    RECALL_CODEBOOK_TRAININGS.fetch_add(1, Ordering::Relaxed);
    let skip = RECALL_STEPS[..PQ8_ROW].iter().sum::<u64>() + PQ8_CODEBOOK_STEPS * s as u64;
    let mut base = advanced(&inputs.rng, skip);
    let mut rng = CountingRng {
        rng: &mut base,
        steps: 0,
    };
    let book = crate::pq::ProductQuantizer::train_codebook(
        &inputs.points,
        PQ8_SUBSPACES,
        s,
        PQ8_CODEWORDS,
        &mut rng,
    );
    assert_eq!(
        rng.steps, PQ8_CODEBOOK_STEPS,
        "PQ 8x8b codebook {s}: RNG steps drawn differ from PQ8_CODEBOOK_STEPS"
    );
    book
}

/// Encodes the dataset with `pq` and searches every query's top 10 over
/// the codes: the bytes visited per vector, and the results.
fn pq_search(
    inputs: &RecallInputs,
    pq: &crate::pq::ProductQuantizer,
    observe: &mut dyn FnMut(RecallCodec<'_>),
) -> (f64, Vec<Vec<usize>>) {
    let codes = pq.encode_batch(&inputs.points);
    observe(RecallCodec::Pq(pq, &codes));
    let results = (0..inputs.queries.rows())
        .map(|qi| pq.search(&codes, inputs.queries.row(qi), 10))
        .collect();
    (pq.code_bytes() as f64, results)
}

/// Row `m` from its codec's bytes per vector and search results.
fn recall_row(
    inputs: &RecallInputs,
    m: usize,
    bytes_per_vector: f64,
    results: &[Vec<usize>],
) -> RecallCompressionRow {
    RecallCompressionRow {
        method: RECALL_METHODS[m].into(),
        bytes_per_vector,
        recall_at_10: crate::dataset::recall(results, &inputs.truth, 10).recall_at_k,
    }
}

/// Trains, encodes and searches row `m`'s codec, drawing from `rng`. A
/// [`RecallBatch`] computes every row but PQ 8x8b this way; for PQ 8x8b
/// it trains the eight codebooks as separate pieces of work, and the
/// single-stream `ProductQuantizer::train` below is the reference they
/// are held to.
///
/// # Panics
///
/// Panics if the codec draws other than `RECALL_STEPS[m]` steps.
fn recall_codec_on(
    inputs: &RecallInputs,
    m: usize,
    rng: &mut rand::rngs::StdRng,
    observe: &mut dyn FnMut(RecallCodec<'_>),
) -> RecallCompressionRow {
    use crate::binary::BinaryCoder;
    use crate::ivf::IvfIndex;
    use crate::pq::ProductQuantizer;

    let RecallInputs {
        points, queries, ..
    } = inputs;
    let mut rng = CountingRng { rng, steps: 0 };
    let (bytes_per_vector, results) = match m {
        // Exact IVF + rerank (what ReACH accelerates), nprobe = 1/6 of
        // cells; the bytes are the fraction of cells scanned.
        0 => {
            let index = IvfIndex::build(points, 48, &mut rng);
            observe(RecallCodec::Ivf(&index));
            let exact = index.search(points, queries, 8, 10, None);
            (RECALL_DIM as f64 * 4.0 * 8.0 / 48.0, exact)
        }
        // Product quantization at two compression points.
        1 | 2 => {
            let (subs, cents) = if m == PQ8_ROW {
                (PQ8_SUBSPACES, PQ8_CODEWORDS)
            } else {
                (4, 16)
            };
            let pq = ProductQuantizer::train(points, subs, cents, &mut rng);
            pq_search(inputs, &pq, observe)
        }
        // Binary codes at two lengths.
        _ => {
            let bits = if m == 3 { 64 } else { 256 };
            let coder = BinaryCoder::new(RECALL_DIM, bits, &mut rng);
            let codes = coder.encode_batch(points);
            observe(RecallCodec::Binary(&codes));
            let results = (0..queries.rows())
                .map(|qi| coder.search(&codes, queries.row(qi), 10))
                .collect();
            (coder.code_bytes() as f64, results)
        }
    };
    assert_eq!(
        rng.steps, RECALL_STEPS[m],
        "{}: RNG steps drawn differ from RECALL_STEPS",
        RECALL_METHODS[m]
    );
    recall_row(inputs, m, bytes_per_vector, &results)
}

/// One row of [`recall_vs_compression`] as a cacheable [`Scenario`]: the
/// row travels inside a [`RunReport`]'s metrics (two gauges under
/// `recall.NN.*`, `NN` the row index), so the runner's result cache —
/// including the persistent disk tier — replays it instead of re-training
/// the codec, and a parallel runner trains the five codecs at once. The
/// rows of one batch share a [`RecallBatch`]: the inputs, and PQ 8x8b's
/// codebooks, which any row's worker helps to train once its own row is
/// done. It simulates nothing, so the machine it is handed goes unused.
struct RecallCodecScenario {
    codec: usize,
    /// What every codec of one batch shares, each piece built on first
    /// use. A batch the result cache answers whole builds none of it.
    batch: Arc<RecallBatch>,
}

impl Scenario for RecallCodecScenario {
    fn label(&self) -> String {
        format!("extension/recall-vs-compression/{}", self.codec)
    }

    fn blueprint(&self) -> MachineBlueprint {
        blueprint_with(1, 1)
    }

    /// Builds the shared inputs, unless a codec of this batch already
    /// started to. PQ 8x8b's codec also marks its codebooks wanted, so
    /// the other codecs' workers help to train them.
    fn prepare(&self) {
        if self.codec == PQ8_ROW {
            self.batch.codebooks_wanted.store(true, Ordering::Relaxed);
        }
        self.batch.inputs.prepare(RecallInputs::build);
    }

    fn run(&self, _machine: &mut Machine) -> RunReport {
        let i = self.codec;
        let row = self.batch.row(i, &mut |_| {});
        let gauge = |v: f64| MetricValue::Gauge { mean: v, last: v };
        let mut metrics = MetricsSnapshot::new(0);
        metrics.set(
            format!("recall.{i:02}.bytes_per_vector"),
            gauge(row.bytes_per_vector),
        );
        metrics.set(
            format!("recall.{i:02}.recall_at_10"),
            gauge(row.recall_at_10),
        );
        RunReport {
            makespan: SimDuration::ZERO,
            jobs: 0,
            job_latency_mean: SimDuration::ZERO,
            job_latency_last: SimDuration::ZERO,
            stages: Vec::new(),
            ledger: EnergyLedger::new(),
            completions: Vec::new(),
            metrics,
        }
    }

    /// The one input the constants don't pin — the seed the computation
    /// derives from — and the codec's method label; everything else is
    /// code, covered by the simulator version stamp that keys the disk
    /// store.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-recall-vs-compression-v2");
        b.write_u64(reach_sim::rng::DEFAULT_SEED);
        b.write_str(RECALL_METHODS[self.codec]);
        Some(ConfigFingerprint::from_builder(b))
    }
}

/// The codec scenarios of [`recall_vs_compression_with`] for the rows in
/// `codecs`, in that order, sharing one [`RecallBatch`]. Exposed (hidden)
/// so tests can warm a result cache with part of the evaluation.
///
/// # Panics
///
/// Panics if a row index is out of range.
#[doc(hidden)]
#[must_use]
pub fn recall_codec_scenarios(codecs: impl IntoIterator<Item = usize>) -> Vec<Box<dyn Scenario>> {
    let batch = Arc::default();
    codecs
        .into_iter()
        .map(|codec| {
            assert!(codec < RECALL_METHODS.len(), "no recall row {codec}");
            Box::new(RecallCodecScenario {
                codec,
                batch: Arc::clone(&batch),
            }) as Box<dyn Scenario>
        })
        .collect()
}

/// [`recall_vs_compression`] through an executor, as five codec scenarios
/// in one batch: a parallel runner trains the codecs concurrently, each
/// from its own jump-ahead of the shared RNG stream, and the workers that
/// finish early train PQ 8x8b's codebooks beside its own; the rows are
/// bitwise equal to the sequential evaluation.
///
/// # Panics
///
/// Panics if the executor returns a report without its row's recall
/// gauges — possible only if a result cache replayed a report from a
/// different scenario under its fingerprint.
#[must_use]
pub fn recall_vs_compression_with(executor: &dyn ScenarioExecutor) -> Vec<RecallCompressionRow> {
    let results = executor.run_all(recall_codec_scenarios(0..RECALL_METHODS.len()));
    RECALL_METHODS
        .iter()
        .zip(&results)
        .enumerate()
        .map(|(i, (method, result))| {
            let metrics = &result.report.metrics;
            let gauge = |field: &str| {
                let name = format!("recall.{i:02}.{field}");
                metrics
                    .gauge(&name)
                    .unwrap_or_else(|| panic!("recall report missing {name}"))
            };
            RecallCompressionRow {
                method: (*method).to_string(),
                bytes_per_vector: gauge("bytes_per_vector"),
                recall_at_10: gauge("recall_at_10"),
            }
        })
        .collect()
}

// ------------------------------------------------------------------ //
// Tables
// ------------------------------------------------------------------ //

/// One row of Table I.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Pipeline stage name.
    pub stage: &'static str,
    /// Memory requirement description.
    pub memory: String,
    /// Computation requirement description.
    pub compute: &'static str,
}

/// Table I: memory and compute requirements of each CBIR stage.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    let w = CbirWorkload::paper_setup();
    vec![
        Table1Row {
            stage: "Feature extraction",
            memory: format!(
                "{:.0} MB, {:.1} MB if compressed (NN model parameters)",
                crate::features::VGG16_PARAM_BYTES as f64 / 1e6,
                crate::features::VGG16_COMPRESSED_PARAM_BYTES as f64 / 1e6
            ),
            compute: "High - convolutional neural network",
        },
        Table1Row {
            stage: "Short-list retrieval",
            memory: format!(
                "~{:.1} GB (cluster centroids and cell info)",
                w.centroid_store_bytes as f64 / 1e9
            ),
            compute: "Medium - non-square matrix multiplication",
        },
        Table1Row {
            stage: "Rerank",
            memory: "~355 GB (1 billion feature vectors)".to_string(),
            compute: "Low - K nearest neighbors",
        },
        Table1Row {
            stage: "Reverse lookup",
            memory: "200 TB - 2 PB (1 billion images)".to_string(),
            compute: "Very low - database access (excluded, as in the paper)",
        },
    ]
}

/// Table II is the [`SystemConfig::paper_table2`] value itself.
#[must_use]
pub fn table2() -> SystemConfig {
    SystemConfig::paper_table2()
}

/// Table III is the template registry.
#[must_use]
pub fn table3() -> reach::TemplateRegistry {
    reach::TemplateRegistry::paper_table3()
}

/// Table IV is the energy preset bundle.
#[must_use]
pub fn table4() -> reach_energy::EnergyPresets {
    reach_energy::EnergyPresets::paper_table4()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    /// Word-wise FNV-1a over the bits of everything `extension-recall`
    /// trains and encodes: IVF centroids and postings, PQ codebooks and
    /// codes, binary codes.
    fn recall_codec_digest() -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        let _ = recall_vs_compression_observed(&mut |codec| match codec {
            RecallCodec::Ivf(index) => {
                for v in index.centroids().as_slice() {
                    mix(u64::from(v.to_bits()));
                }
                for c in 0..index.clusters() {
                    mix(index.posting(c).len() as u64);
                    for &i in index.posting(c) {
                        mix(i as u64);
                    }
                }
            }
            RecallCodec::Pq(pq, codes) => {
                for book in pq.codebooks() {
                    for v in book.as_slice() {
                        mix(u64::from(v.to_bits()));
                    }
                }
                for &b in codes {
                    mix(u64::from(b));
                }
            }
            RecallCodec::Binary(codes) => {
                for &w in codes {
                    mix(w);
                }
            }
        });
        h
    }

    #[test]
    fn recall_codecs_are_bit_pinned() {
        // Stdout prints recall to three decimals, which would not show a
        // kernel change that flips low bits of a centroid or a tie between
        // codewords. The digest is of the one-point reference kernels'
        // output (GEMM-based k-means, one-point encoders) and must hold on
        // every SIMD tier.
        assert_eq!(recall_codec_digest(), 0x21b2_d6d3_ff4a_9942);
    }

    /// Every codec draws exactly its `RECALL_STEPS` count, so the jump-ahead
    /// each codec scenario starts from is the state one RNG threaded
    /// through the codecs in row order — the old single-stream evaluation
    /// — reaches it at, and the rows are bitwise that evaluation's. The
    /// same holds one level down for PQ 8x8b's separately trained
    /// codebooks.
    #[test]
    fn recall_jump_ahead_equals_the_single_stream() {
        let inputs = RecallInputs::build();
        let mut chained = inputs.rng.clone();
        let mut prefix = 0;
        let mut single_stream = Vec::new();
        for (m, &steps) in RECALL_STEPS.iter().enumerate() {
            assert_eq!(
                chained,
                advanced(&inputs.rng, prefix),
                "{}: chained stream is not the base advanced {prefix} steps",
                RECALL_METHODS[m]
            );
            single_stream.push(recall_codec_on(&inputs, m, &mut chained, &mut |_| {}));
            prefix += steps;
        }
        assert_eq!(chained, advanced(&inputs.rng, prefix), "final state");

        let bits = |rows: &[RecallCompressionRow]| -> Vec<(u64, u64)> {
            rows.iter()
                .map(|r| (r.bytes_per_vector.to_bits(), r.recall_at_10.to_bits()))
                .collect()
        };
        assert_eq!(bits(&recall_vs_compression()), bits(&single_stream));

        // PQ 8x8b's codebooks, each from its own jump-ahead, are the
        // codebooks `ProductQuantizer::train` draws from PQ 8x8b's single
        // stream, and each draws exactly PQ8_CODEBOOK_STEPS.
        let pq8_stream = || advanced(&inputs.rng, RECALL_STEPS[0]);
        let single = crate::pq::ProductQuantizer::train(
            &inputs.points,
            PQ8_SUBSPACES,
            PQ8_CODEWORDS,
            &mut pq8_stream(),
        );
        let book_bits = |m: &crate::linalg::Matrix| -> Vec<u32> {
            m.as_slice().iter().map(|v| v.to_bits()).collect()
        };
        let mut chained = pq8_stream();
        for (s, want) in single.codebooks().iter().enumerate() {
            let mut rng = CountingRng {
                rng: &mut chained,
                steps: 0,
            };
            let _ = crate::pq::ProductQuantizer::train_codebook(
                &inputs.points,
                PQ8_SUBSPACES,
                s,
                PQ8_CODEWORDS,
                &mut rng,
            );
            assert_eq!(rng.steps, PQ8_CODEBOOK_STEPS, "codebook {s}: steps drawn");
            assert_eq!(
                book_bits(&pq8_codebook(&inputs, s)),
                book_bits(want),
                "codebook {s} from its jump-ahead"
            );
        }
    }

    #[test]
    fn fig8_movement_dominates() {
        let f = fig8_with(&SequentialExecutor);
        // Paper: 79% movement. Acceptance band from DESIGN.md: 70-85%.
        assert!(
            f.movement_fraction > 0.70 && f.movement_fraction < 0.85,
            "movement fraction {:.3}",
            f.movement_fraction
        );
        // Rerank is the dominant stage.
        assert!(
            f.stage_shares[2] > f.stage_shares[0] && f.stage_shares[2] > f.stage_shares[1],
            "stage shares {:?}",
            f.stage_shares
        );
        let sum: f64 = f.stage_shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "shares sum {sum}");
    }

    #[test]
    fn fig9_shapes() {
        let rows = fig9_with(&SequentialExecutor);
        let nm1 = rows
            .iter()
            .find(|r| r.level == ComputeLevel::NearMemory && r.instances == 1)
            .unwrap();
        // Single embedded instance 7-10x slower than on-chip.
        assert!(
            nm1.runtime_norm > 7.0 && nm1.runtime_norm < 11.0,
            "NM1 {}",
            nm1.runtime_norm
        );
        // 16 instances collectively surpass the on-chip accelerator.
        let nm16 = rows
            .iter()
            .find(|r| r.level == ComputeLevel::NearMemory && r.instances == 16)
            .unwrap();
        assert!(nm16.runtime_norm < 1.0, "NM16 {}", nm16.runtime_norm);
        // On-chip has the best energy: every embedded bar >= 1.
        for r in &rows {
            assert!(r.energy_norm > 0.9, "{r} beats on-chip energy on FE");
        }
    }

    #[test]
    fn fig10_shapes() {
        let rows = fig10_with(&SequentialExecutor);
        let nm = |n: usize| {
            rows.iter()
                .find(|r| r.level == ComputeLevel::NearMemory && r.instances == n)
                .unwrap()
        };
        // 1 instance is slower than on-chip; 2 or more are faster.
        assert!(nm(1).runtime_norm > 1.0, "NM1 {}", nm(1).runtime_norm);
        assert!(nm(2).runtime_norm < 1.0, "NM2 {}", nm(2).runtime_norm);
        assert!(nm(4).runtime_norm < nm(2).runtime_norm);
        // Near-storage is slower than near-memory at equal instance count.
        let ns1 = rows
            .iter()
            .find(|r| r.level == ComputeLevel::NearStorage && r.instances == 1)
            .unwrap();
        assert!(
            ns1.runtime_norm > nm(1).runtime_norm,
            "NS1 {} vs NM1 {}",
            ns1.runtime_norm,
            nm(1).runtime_norm
        );
    }

    #[test]
    fn fig11_shapes() {
        let rows = fig11_with(&SequentialExecutor);
        let nm = |n: usize| {
            rows.iter()
                .find(|r| r.level == ComputeLevel::NearMemory && r.instances == n)
                .unwrap()
                .runtime_norm
        };
        let ns = |n: usize| {
            rows.iter()
                .find(|r| r.level == ComputeLevel::NearStorage && r.instances == n)
                .unwrap()
                .runtime_norm
        };
        // Near-memory scales then plateaus past 8 instances (host IO).
        assert!(nm(4) < nm(1));
        let plateau = nm(16) / nm(8);
        assert!(plateau > 0.7, "NM should plateau 8->16, got {plateau}");
        // Near-storage keeps scaling.
        let ns_scaling = ns(16) / ns(8);
        assert!(ns_scaling < 0.7, "NS should keep scaling, got {ns_scaling}");
    }

    #[test]
    fn fig13_headline_numbers() {
        let rows = fig13_with(&SequentialExecutor);
        let reach = rows
            .iter()
            .find(|r| r.mapping == CbirMapping::Proper)
            .unwrap();
        // Paper: 4.5x throughput, 2.2x latency, 52% energy reduction.
        // DESIGN.md bands: [3.5, 5.5]x, [1.8, 2.8]x, [45, 60]%.
        assert!(
            reach.throughput_gain > 3.5 && reach.throughput_gain < 5.5,
            "throughput {:.2}",
            reach.throughput_gain
        );
        assert!(
            reach.latency_gain > 1.8 && reach.latency_gain < 2.8,
            "latency {:.2}",
            reach.latency_gain
        );
        let base = rows
            .iter()
            .find(|r| r.mapping == CbirMapping::AllOnChip)
            .unwrap();
        let reduction = 1.0 - reach.energy_total / base.energy_total;
        assert!(
            reduction > 0.45 && reduction < 0.60,
            "energy reduction {:.3}",
            reduction
        );
    }

    #[test]
    fn compression_penalizes_recall() {
        let rows = recall_vs_compression();
        let exact = rows[0].recall_at_10;
        assert!(exact > 0.9, "exact pipeline recall {exact:.3}");
        for lossy in &rows[1..] {
            assert!(
                lossy.recall_at_10 < exact,
                "{} should trail the exact pipeline: {:.3} vs {exact:.3}",
                lossy.method,
                lossy.recall_at_10
            );
        }
    }

    #[test]
    fn tables_are_populated() {
        assert_eq!(table1().len(), 4);
        assert_eq!(table3().len(), 9);
        table2().validate();
        let _ = table4();
    }
}
