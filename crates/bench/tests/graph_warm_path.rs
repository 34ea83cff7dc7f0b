//! A warm replay of `extension-graph` does no graph work: its scenarios
//! are keyed on their specs, so a runner on a filled store answers every
//! point from disk and builds rows from the replayed reports without
//! generating or traversing a single graph.
//!
//! The traversal counter is process-wide, so this file holds one test.

use reach::SequentialExecutor;
use reach_bench::{render_extension_graph, ScenarioRunner};
use reach_graph::pipeline::traversals_run;

/// Graph points in the sweep: 2 workloads × 3 placements × 3 scales.
const POINTS: u64 = 18;

/// Distinct (spec, workload) graphs among them.
const GRAPHS: u64 = 6;

#[test]
fn warm_extension_graph_replays_from_disk_without_traversing() {
    let reference = render_extension_graph(&SequentialExecutor);
    for jobs in [1, 2, 4] {
        let dir = std::env::temp_dir().join(format!(
            "reach-graph-warm-it-{}-j{jobs}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");

        let before = traversals_run();
        let cold_runner = ScenarioRunner::new(jobs).with_disk_cache(&dir);
        let cold = render_extension_graph(&cold_runner);
        assert_eq!(cold, reference, "cold output drifted at --jobs {jobs}");
        assert_eq!(
            traversals_run() - before,
            GRAPHS,
            "a cold pass traverses each graph once (--jobs {jobs})"
        );
        assert_eq!(cold_runner.disk_cache_stats().misses, POINTS);
        drop(cold_runner);

        // A fresh runner on the same store: a new process, in effect.
        let before = traversals_run();
        let warm_runner = ScenarioRunner::new(jobs).with_disk_cache(&dir);
        let warm = render_extension_graph(&warm_runner);
        assert_eq!(warm, reference, "warm output drifted at --jobs {jobs}");
        let disk = warm_runner.disk_cache_stats();
        assert_eq!(
            (disk.hits, disk.misses),
            (POINTS, 0),
            "warm pass at --jobs {jobs}"
        );
        assert_eq!(
            traversals_run() - before,
            0,
            "a warm pass built a graph (--jobs {jobs})"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }
}
