//! A batch of recall codec scenarios builds its shared inputs (dataset,
//! queries, exact top-10) once and trains each of PQ 8x8b's eight
//! codebooks once, whichever workers prepare or run them; a batch the
//! result cache answers whole builds and trains nothing, and a batch whose
//! PQ 8x8b row the cache answers trains no codebook.
//!
//! The build counters are process-wide, so this file holds one test.

use reach::ScenarioExecutor;
use reach_bench::ScenarioRunner;
use reach_cbir::experiments::{
    recall_codebooks_trained, recall_codec_scenarios, recall_inputs_built,
    recall_vs_compression_with,
};

/// `(inputs built, codebooks trained)` since `before`.
fn built_since(before: (usize, usize)) -> (usize, usize) {
    (
        recall_inputs_built() - before.0,
        recall_codebooks_trained() - before.1,
    )
}

#[test]
fn a_recall_batch_builds_its_inputs_once_at_any_job_count() {
    for jobs in [1, 2, 4] {
        let before = (recall_inputs_built(), recall_codebooks_trained());
        let _ = recall_vs_compression_with(&ScenarioRunner::new(jobs));
        assert_eq!(built_since(before), (1, 8), "cold batch at --jobs {jobs}");

        let runner = ScenarioRunner::new(jobs);
        let before = (recall_inputs_built(), recall_codebooks_trained());
        // Codecs 1 (PQ 8x8b) and 3 simulate; the full batch then replays
        // them and simulates the other three, which must not train
        // codebooks nobody wants.
        let _ = runner.run_all(recall_codec_scenarios([1, 3]));
        assert_eq!(
            built_since(before),
            (1, 8),
            "partial batch at --jobs {jobs}"
        );
        let _ = recall_vs_compression_with(&runner);
        assert_eq!(
            built_since(before),
            (2, 8),
            "full batch over a cached PQ 8x8b row at --jobs {jobs}"
        );
        let _ = recall_vs_compression_with(&runner);
        assert_eq!(
            built_since(before),
            (2, 8),
            "a replayed batch built or trained at --jobs {jobs}"
        );
    }
}
