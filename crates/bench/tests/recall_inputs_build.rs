//! A batch of recall codec scenarios builds its shared inputs (dataset,
//! queries, exact top-10) once, whichever worker prepares or runs them,
//! and a batch the result cache answers whole builds none.
//!
//! The build counter is process-wide, so this file holds one test.

use reach::ScenarioExecutor;
use reach_bench::ScenarioRunner;
use reach_cbir::experiments::{
    recall_codec_scenarios, recall_inputs_built, recall_vs_compression_with,
};

#[test]
fn a_recall_batch_builds_its_inputs_once_at_any_job_count() {
    for jobs in [1, 2, 4] {
        let runner = ScenarioRunner::new(jobs);
        let before = recall_inputs_built();
        // Codecs 1 and 3 simulate; the full batch then replays them and
        // simulates the other three.
        let _ = runner.run_all(recall_codec_scenarios([1, 3]));
        assert_eq!(
            recall_inputs_built() - before,
            1,
            "partial batch at --jobs {jobs}"
        );
        let _ = recall_vs_compression_with(&runner);
        assert_eq!(
            recall_inputs_built() - before,
            2,
            "full batch at --jobs {jobs}"
        );
        let _ = recall_vs_compression_with(&runner);
        assert_eq!(
            recall_inputs_built() - before,
            2,
            "a replayed batch built its inputs at --jobs {jobs}"
        );
    }
}
