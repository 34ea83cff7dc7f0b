//! The persistent result-cache tier, end to end: a second runner — or a
//! second *process* — backed by the same cache directory replays
//! previously simulated scenarios from disk, byte-identically, at any job
//! count; a stale or unwritable store degrades to plain simulation without
//! changing a single output byte. A runner writes the store when it is
//! flushed or dropped, never per batch, so each test flushes or drops its
//! cold runner before a warm one opens the directory: that is the second
//! process.

use reach::{Machine, MachineBlueprint, RunReport, Scenario, ScenarioExecutor, ScenarioResult};
use reach_bench::diskcache::DISKCACHE_FILE;
use reach_bench::sweep::SweepArgs;
use reach_bench::{DiskCache, ScenarioRunner};
use std::path::PathBuf;
use std::process::Command;

/// A unique, freshly created scratch directory per test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "reach-diskcache-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A cheap two-point sweep grid (two machine shapes, tiny batches).
fn grid() -> SweepArgs {
    let tokens: Vec<String> = [
        "--nm",
        "1,2",
        "--ns",
        "1",
        "--batches",
        "1",
        "--batch-size",
        "4",
        "--candidates",
        "64",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    SweepArgs::parse(&tokens).expect("grid args parse")
}

fn render(results: &[ScenarioResult]) -> String {
    results
        .iter()
        .map(|r| format!("{}\n{}", r.label, r.report))
        .collect()
}

#[test]
fn warm_runner_replays_from_disk_without_simulating() {
    let dir = temp_dir("warm");
    let grid = grid();

    let cold = ScenarioRunner::new(2).with_disk_cache(&dir);
    let cold_out = render(&cold.run_all(grid.scenarios()));
    let cold_mem = cold.cache_stats();
    let cold_disk = cold.disk_cache_stats();
    assert_eq!(cold_mem.misses, 2);
    assert_eq!(cold_disk.hits, 0);
    assert_eq!(cold_disk.misses, 2, "every memory miss probes the disk");
    cold.flush();
    assert!(dir.join(DISKCACHE_FILE).exists(), "cold run persisted");

    // A brand-new runner (fresh, empty memory tier) on the same directory:
    // every lookup falls through to disk and hits — nothing simulates.
    let warm = ScenarioRunner::new(2).with_disk_cache(&dir);
    let warm_out = render(&warm.run_all(grid.scenarios()));
    assert_eq!(cold_out, warm_out, "disk replay changed the output");
    let warm_mem = warm.cache_stats();
    let warm_disk = warm.disk_cache_stats();
    assert_eq!(warm_mem.misses, 2);
    assert_eq!(warm_disk.hits, 2, "warm run must replay from disk");
    assert_eq!(warm_disk.misses, 0, "warm run must not simulate");
}

/// A cold run of several batches writes nothing until it is flushed, and
/// then writes each record exactly once, in one flush: the bytes it
/// reports writing equal the store's length.
#[test]
fn cold_multi_batch_run_writes_each_record_once() {
    let dir = temp_dir("append");
    let runner = ScenarioRunner::new(2).with_disk_cache(&dir);
    for nm in 1..=3 {
        let mut grid = grid();
        grid.nm = vec![nm];
        runner.run_all(grid.scenarios());
    }
    let disk = runner.disk_cache_stats();
    assert_eq!(disk.misses, 3);
    assert_eq!(disk.flushes, 0, "a batch wrote the store");
    assert!(
        !dir.join(DISKCACHE_FILE).exists(),
        "a batch wrote the store"
    );
    runner.flush();
    let disk = runner.disk_cache_stats();
    assert_eq!(disk.flushes, 1, "one flush per process");
    let len = std::fs::metadata(dir.join(DISKCACHE_FILE))
        .expect("store written")
        .len();
    assert_eq!(disk.bytes_written, len, "a record was written twice");
}

/// A runner that is dropped without a flush — as the benchmark's pass
/// drops its runner — still leaves a store a fresh runner replays.
#[test]
fn dropped_runner_persists_without_a_flush() {
    let dir = temp_dir("dropped");
    let grid = grid();
    let cold = ScenarioRunner::new(2).with_disk_cache(&dir);
    let cold_out = render(&cold.run_all(grid.scenarios()));
    drop(cold);

    let warm = ScenarioRunner::new(2).with_disk_cache(&dir);
    assert_eq!(render(&warm.run_all(grid.scenarios())), cold_out);
    let disk = warm.disk_cache_stats();
    assert_eq!((disk.hits, disk.misses), (2, 0), "the drop did not persist");
}

/// Runs `inner`'s machine, then panics: a batch that never returns.
struct Panicking(Box<dyn Scenario>);

impl Scenario for Panicking {
    fn label(&self) -> String {
        self.0.label()
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.0.blueprint()
    }

    fn run(&self, _machine: &mut Machine) -> RunReport {
        panic!("scenario {} failed", self.label())
    }
}

/// A run that panics after simulating a batch unwinds through the
/// runner's drop, which persists that batch.
#[test]
fn a_panicking_run_persists_what_it_simulated() {
    let dir = temp_dir("panic");
    let grid = grid();
    let runner = ScenarioRunner::new(1).with_disk_cache(&dir);
    let failing = grid.scenarios().remove(0);
    let scenarios = grid.scenarios();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let _ = runner.run_all(scenarios);
        runner.run_all(vec![Box::new(Panicking(failing)) as Box<dyn Scenario>])
    }));
    assert!(unwound.is_err(), "the second batch must panic");

    let warm = ScenarioRunner::new(1).with_disk_cache(&dir);
    let _ = warm.run_all(grid.scenarios());
    let disk = warm.disk_cache_stats();
    assert_eq!(
        (disk.hits, disk.misses),
        (2, 0),
        "the unwind did not persist"
    );
}

#[test]
fn ledgers_and_output_are_job_count_independent() {
    let grid = grid();
    let mut seen = Vec::new();
    for jobs in [1, 4, 8] {
        let dir = temp_dir(&format!("jobs{jobs}"));
        let cold = ScenarioRunner::new(jobs).with_disk_cache(&dir);
        let cold_out = render(&cold.run_all(grid.scenarios()));
        cold.flush();
        let warm = ScenarioRunner::new(jobs).with_disk_cache(&dir);
        let warm_out = render(&warm.run_all(grid.scenarios()));
        assert_eq!(warm.disk_cache_stats().hits, 2, "warm run at {jobs} jobs");
        seen.push((
            cold_out,
            warm_out,
            cold.cache_stats(),
            cold.disk_cache_stats(),
            warm.cache_stats(),
            warm.disk_cache_stats(),
        ));
    }
    assert_eq!(seen[0], seen[1], "1 vs 4 jobs diverged");
    assert_eq!(seen[0], seen[2], "1 vs 8 jobs diverged");
}

#[test]
fn stale_version_stamp_misses_and_resimulates_identically() {
    let dir = temp_dir("stale");
    let grid = grid();

    let cold = ScenarioRunner::new(1).with_disk_cache(&dir);
    let cold_out = render(&cold.run_all(grid.scenarios()));
    drop(cold);
    assert!(dir.join(DISKCACHE_FILE).exists(), "cold run persisted");

    // Same directory, foreign build stamp: the store must be ignored
    // wholesale — all disk misses, identical output from re-simulation.
    let stamp = reach::simulator_version_stamp().0 ^ 1;
    let stale =
        ScenarioRunner::new(1).with_disk_cache_store(DiskCache::open_with_stamp(&dir, stamp));
    let stale_out = render(&stale.run_all(grid.scenarios()));
    assert_eq!(cold_out, stale_out, "stale store changed the output");
    let disk = stale.disk_cache_stats();
    assert_eq!(disk.hits, 0, "a foreign-stamp store must never hit");
    assert_eq!(disk.misses, 2);
}

#[test]
fn unwritable_store_degrades_to_plain_simulation() {
    let dir = temp_dir("unwritable");
    // Occupy the store path with a *directory*: loading it fails (read
    // error) and the flush rename onto it fails, even when the test runs
    // as root (where chmod-based read-only checks are toothless).
    std::fs::create_dir_all(dir.join(DISKCACHE_FILE)).unwrap();
    let grid = grid();

    let plain = ScenarioRunner::new(1);
    let plain_out = render(&plain.run_all(grid.scenarios()));

    let broken = ScenarioRunner::new(1).with_disk_cache(&dir);
    let broken_out = render(&broken.run_all(grid.scenarios()));
    assert_eq!(plain_out, broken_out, "broken store changed the output");
    broken.flush();
    let disk = broken.disk_cache_stats();
    assert_eq!(disk.hits, 0);
    assert_eq!(disk.misses, 2);
    assert_eq!(disk.flushes, 0, "a flush onto the directory succeeded");

    // And nothing was persisted: the path is still the blocking directory.
    assert!(dir.join(DISKCACHE_FILE).is_dir());
}

/// The tentpole acceptance check, cross-process: a warm second process
/// (fresh memory tier, same build, same cache dir) replays every scenario
/// from disk — zero disk misses — with stdout byte-identical to the cold
/// process at 1, 4 and 8 jobs.
#[test]
fn warm_second_process_is_byte_identical_and_simulation_free() {
    let dir = temp_dir("xproc");
    let exe = env!("CARGO_BIN_EXE_sweep");
    let run = |jobs: &str| {
        let out = Command::new(exe)
            .args([
                "--nm",
                "1,2",
                "--ns",
                "1",
                "--batches",
                "1",
                "--batch-size",
                "4",
                "--candidates",
                "64",
                "--jobs",
                jobs,
                "--result-cache-dir",
            ])
            .arg(&dir)
            .output()
            .expect("spawn sweep");
        assert!(out.status.success(), "sweep failed: {out:?}");
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let (cold_stdout, cold_stderr) = run("1");
    assert!(
        cold_stderr.contains("2 disk miss(es)"),
        "cold run should miss on disk: {cold_stderr}"
    );
    for jobs in ["1", "4", "8"] {
        let (warm_stdout, warm_stderr) = run(jobs);
        assert_eq!(
            cold_stdout, warm_stdout,
            "warm stdout diverged at {jobs} jobs"
        );
        assert!(
            warm_stderr.contains("2 disk hit(s), 0 disk miss(es)"),
            "warm run at {jobs} jobs should replay everything from disk: {warm_stderr}"
        );
    }
}
