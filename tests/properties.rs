//! Property-based tests over the whole stack: invariants that must hold
//! for *every* workload shape, not just the paper's.

use proptest::prelude::*;
use reach::{
    encode_report, ComputeLevel, MachineBlueprint, RunReport, SystemComponent, SystemConfig,
    TaskWork,
};
use reach_bench::diskcache::{record_checksum, DISKCACHE_FILE, DISKCACHE_MAGIC};
use reach_bench::{DiskCache, RecordingExecutor, ScenarioRunner};
use reach_gam::JobBuilder;
use reach_sim::{Bandwidth, BandwidthResource, SerialResource, SimDuration, SimTime};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serial-resource reservations never overlap and never go backwards.
    #[test]
    fn serial_resource_reservations_are_disjoint(
        requests in proptest::collection::vec((0u64..10_000, 1u64..5_000), 1..50)
    ) {
        let mut r = SerialResource::new();
        let mut last_ready = SimTime::ZERO;
        let mut clock = SimTime::ZERO;
        for (advance, service) in requests {
            clock += SimDuration::from_ps(advance);
            let res = r.reserve(clock, SimDuration::from_ps(service));
            prop_assert!(res.start >= last_ready.min(res.start));
            prop_assert!(res.start >= clock);
            prop_assert!(res.ready == res.start + SimDuration::from_ps(service));
            prop_assert!(res.ready >= last_ready);
            last_ready = res.ready;
        }
    }

    /// Busy time equals the sum of service times, independent of arrival
    /// pattern.
    #[test]
    fn serial_resource_busy_time_is_conserved(
        services in proptest::collection::vec(1u64..10_000, 1..64)
    ) {
        let mut r = SerialResource::new();
        let total: u64 = services.iter().sum();
        for s in &services {
            r.reserve(SimTime::ZERO, SimDuration::from_ps(*s));
        }
        prop_assert_eq!(r.busy_time(), SimDuration::from_ps(total));
    }

    /// A bandwidth link never beats its configured rate over any request
    /// mix.
    #[test]
    fn bandwidth_link_never_exceeds_rate(
        sizes in proptest::collection::vec(1u64..(1 << 20), 1..32),
        gbps in 1u64..64,
    ) {
        let mut link = BandwidthResource::new(Bandwidth::from_gbps(gbps), SimDuration::ZERO);
        let total: u64 = sizes.iter().sum();
        let mut end = SimTime::ZERO;
        for s in sizes {
            end = end.max(link.transfer(SimTime::ZERO, s).complete);
        }
        let secs = (end - SimTime::ZERO).as_secs_f64();
        let achieved = total as f64 / secs;
        prop_assert!(achieved <= gbps as f64 * 1e9 * 1.001,
            "achieved {achieved:.3e} over {gbps} GB/s link");
    }

    /// GAM liveness: any dependency *chain* of tasks across random levels
    /// and sizes completes, with exactly one interrupt and all work billed.
    #[test]
    fn machine_completes_random_task_chains(
        specs in proptest::collection::vec((0usize..3, 1u64..200), 1..12)
    ) {
        let mut m = MachineBlueprint::paper().instantiate();
        let mut job = JobBuilder::new(0);
        let mut works = HashMap::new();
        let mut prev: Option<reach_gam::TaskId> = None;
        for (i, (level_pick, mmacs)) in specs.iter().enumerate() {
            let (level, template) = match level_pick {
                0 => (ComputeLevel::OnChip, "KNN-VU9P"),
                1 => (ComputeLevel::NearMemory, "KNN-ZCU9"),
                _ => (ComputeLevel::NearStorage, "KNN-ZCU9"),
            };
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            let t = job.task(
                &format!("s{i}"),
                template,
                level,
                SimDuration::from_us(500),
                vec![],
                vec![],
                deps,
            );
            works.insert(t, TaskWork::compute(mmacs * 1_000_000));
            prev = Some(t);
        }
        let n = specs.len() as u64;
        m.submit(job.build(), works);
        let r = m.run();
        prop_assert_eq!(r.jobs, 1);
        prop_assert_eq!(r.metrics.counter("gam.jobs_completed"), Some(1));
        prop_assert_eq!(r.metrics.counter("gam.dispatches"), Some(n));
        prop_assert!(r.makespan > SimDuration::ZERO);
    }

    /// Monotonicity: strictly more MACs on the same chain never finishes
    /// earlier.
    #[test]
    fn more_work_is_never_faster(base_mmacs in 1u64..1_000) {
        let run = |mmacs: u64| {
            let mut m = MachineBlueprint::paper().instantiate();
            let mut job = JobBuilder::new(0);
            let t = job.task("w", "VGG16-VU9P", ComputeLevel::OnChip,
                SimDuration::from_ms(1), vec![], vec![], vec![]);
            m.submit(job.build(), HashMap::from([(t, TaskWork::compute(mmacs * 1_000_000))]));
            m.run().makespan
        };
        let small = run(base_mmacs);
        let big = run(base_mmacs * 2);
        prop_assert!(big >= small, "2x MACs finished earlier: {big} < {small}");
    }

    /// Energy positivity and decomposition for random single-task runs.
    #[test]
    fn energy_is_positive_and_decomposes(
        bytes_mb in 1u64..256,
        level_pick in 0usize..3,
    ) {
        let (level, template) = match level_pick {
            0 => (ComputeLevel::OnChip, "GEMM-VU9P"),
            1 => (ComputeLevel::NearMemory, "GEMM-ZCU9"),
            _ => (ComputeLevel::NearStorage, "GEMM-ZCU9"),
        };
        let mut m = MachineBlueprint::paper().instantiate();
        let mut job = JobBuilder::new(0);
        let t = job.task("s", template, level, SimDuration::from_ms(1), vec![], vec![], vec![]);
        m.submit(job.build(), HashMap::from([
            (t, TaskWork::stream(1_000_000, bytes_mb << 20)),
        ]));
        let r = m.run();
        let total = r.total_energy_j();
        prop_assert!(total > 0.0);
        let sum: f64 = reach::SystemComponent::ALL
            .iter()
            .map(|&c| r.ledger.component_total(c))
            .sum();
        prop_assert!((sum - total).abs() < 1e-9 * total);
    }
}

/// Deterministic replay of a moderately complex random-looking workload.
#[test]
fn full_stack_determinism() {
    let build = || {
        let mut m = MachineBlueprint::paper().instantiate();
        let mut job = JobBuilder::new(0);
        let mut works = HashMap::new();
        let buf = job.buffer("db", 32 << 20, Some(ComputeLevel::NearStorage));
        let a = job.task(
            "a",
            "VGG16-VU9P",
            ComputeLevel::OnChip,
            SimDuration::from_ms(40),
            vec![],
            vec![],
            vec![],
        );
        works.insert(a, TaskWork::compute(5_000_000_000));
        let b = job.task(
            "b",
            "KNN-ZCU9",
            ComputeLevel::NearMemory,
            SimDuration::from_ms(20),
            vec![buf],
            vec![],
            vec![a],
        );
        works.insert(b, TaskWork::gather(1_000_000, 32 << 20, 4096));
        m.submit(job.build(), works);
        m.run()
    };
    let r1 = build();
    let r2 = build();
    assert_eq!(r1.makespan, r2.makespan);
    assert_eq!(r1.ledger.to_string(), r2.ledger.to_string());
    let polls_sent = |r: &RunReport| r.metrics.counter("gam.polls_sent").expect("gam.polls_sent");
    assert_eq!(polls_sent(&r1), polls_sent(&r2));
}

/// Conservation over the whole experiments suite: every result's energy
/// ledger sums to its total along both axes, every simulated machine that
/// exports `gam.jobs_completed` completed exactly the jobs its report
/// counts, the per-level dispatch and per-pair DMA breakdowns add up to
/// the GAM totals, in a co-run every GAM count splits exactly over the
/// tenants (each job id lies in one tenant's span), and no host DDR
/// channel moves bytes faster than its burst peak.
#[test]
fn every_suite_result_conserves_energy_and_jobs() {
    // Every result of the full suite, scenario results and fleet
    // aggregates alike.
    let runner = ScenarioRunner::new(2);
    let recording = RecordingExecutor::new(&runner);
    for (_, render) in reach_bench::renderers() {
        let _ = render(&recording);
    }
    let results = recording.drain();
    assert!(results.len() > 100, "only {} results", results.len());
    let close = |sum: f64, total: f64| (sum - total).abs() <= 1e-9 * total.abs();
    let host = SystemConfig::paper_table2().host_mc;
    let burst_ps = u128::from(host.dimm.timing.burst_time().as_ps());
    let line_bytes = u128::from(host.dimm.line_bytes);
    let mut without_job_counter = Vec::new();
    let mut with_tenants = Vec::new();
    for r in &results {
        let ledger = &r.report.ledger;
        let total = ledger.total();
        let by_component: f64 = SystemComponent::ALL
            .iter()
            .map(|&c| ledger.component_total(c))
            .sum();
        assert!(
            close(by_component, total),
            "{}: components sum to {by_component}, total {total}",
            r.label
        );
        let by_stage: f64 = ledger.stages().iter().map(|s| ledger.stage_total(s)).sum();
        assert!(
            close(by_stage, total),
            "{}: stages sum to {by_stage}, total {total}",
            r.label
        );
        let metrics = &r.report.metrics;
        let counter = |name: &str| metrics.counter(name);
        let sum_of = |prefix: &str, suffix: &str| -> u64 {
            metrics
                .iter()
                .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
                .map(|(name, _)| counter(name).unwrap_or_else(|| panic!("{name} is no counter")))
                .sum()
        };
        // Each burst moves one line in `burst_ps`, so in integers:
        // bytes × burst_ps ≤ busy_ps × line_bytes. Results with no memory
        // counters (fleet aggregates, the recall evaluation) have no
        // channel to check.
        for (name, _) in metrics.iter() {
            let Some(channel) = name
                .strip_prefix("mem.ddr.host.")
                .and_then(|n| n.strip_suffix(".bytes"))
            else {
                continue;
            };
            let bytes = counter(name).unwrap_or_else(|| panic!("{name} is no counter"));
            let busy = format!("mem.ddr.host.{channel}.busy_ps");
            let busy_ps = counter(&busy).unwrap_or_else(|| panic!("{}: no {busy}", r.label));
            assert!(
                u128::from(bytes) * burst_ps <= u128::from(busy_ps) * line_bytes,
                "{}: host {channel} moves {bytes} B in {busy_ps} ps, above the \
                 {line_bytes} B per {burst_ps} ps burst peak",
                r.label
            );
        }
        let Some(jobs_completed) = counter("gam.jobs_completed") else {
            without_job_counter.push(r.label.as_str());
            continue;
        };
        assert_eq!(
            jobs_completed, r.report.jobs,
            "{}: gam.jobs_completed vs report.jobs",
            r.label
        );
        // Every machine snapshot breaks these totals down by level and by
        // directed level pair.
        for (prefix, suffix, total) in [
            ("gam.dispatch.", ".count", "gam.dispatches"),
            ("gam.dma.", ".bytes", "gam.dma_bytes"),
            ("gam.dma.", ".count", "gam.dmas"),
        ] {
            assert_eq!(
                Some(sum_of(prefix, suffix)),
                counter(total),
                "{}: {prefix}*{suffix} vs {total}",
                r.label
            );
        }
        let tenants: Vec<&str> = metrics
            .iter()
            .filter_map(|(name, _)| name.strip_prefix("tenant.")?.strip_suffix(".dispatches"))
            .collect();
        if tenants.is_empty() {
            continue;
        }
        with_tenants.push(r.label.as_str());
        for what in ["dispatches", "jobs_completed", "jobs_rejected"] {
            let by_tenant: u64 = tenants
                .iter()
                .map(|t| counter(&format!("tenant.{t}.{what}")).expect("tenant counter"))
                .sum();
            assert_eq!(
                Some(by_tenant),
                counter(&format!("gam.{what}")),
                "{}: tenants' {what} vs gam.{what} ({tenants:?})",
                r.label
            );
        }
        for t in &tenants {
            if let Some(samples) = counter(&format!("tenant.{t}.latency.samples")) {
                assert_eq!(
                    Some(samples),
                    counter(&format!("tenant.{t}.jobs_completed")),
                    "{}: tenant {t}'s latency samples vs its completions",
                    r.label
                );
            }
        }
    }
    // The two shared `extension-graph-corun` points and the shared
    // `extension-corun` point declare tenants.
    assert_eq!(with_tenants.len(), 3, "{with_tenants:?}");
    // Fleet aggregates and the recall evaluation simulate no single
    // machine of their own, so they export no GAM counter; every other
    // result must.
    let (fleets, others): (Vec<&str>, Vec<&str>) = without_job_counter
        .into_iter()
        .partition(|l| l.starts_with("fleet/"));
    assert_eq!(fleets.len(), 8, "{fleets:?}");
    assert_eq!(
        others,
        (0..5)
            .map(|i| format!("extension/recall-vs-compression/{i}"))
            .collect::<Vec<_>>()
    );
}

/// Stamp every hostile store below is written under.
const STORE_STAMP: u128 = 7;

/// Three distinct simulated reports (fingerprints 1, 2, 3) for building
/// valid stores.
fn store_reports() -> &'static [(u128, RunReport)] {
    static REPORTS: OnceLock<Vec<(u128, RunReport)>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        (1..=3u64)
            .map(|k| {
                let mut m = MachineBlueprint::paper().instantiate();
                let mut job = JobBuilder::new(0);
                let t = job.task(
                    "stage",
                    "VGG16-VU9P",
                    ComputeLevel::OnChip,
                    SimDuration::from_ms(k),
                    vec![],
                    vec![],
                    vec![],
                );
                let works = HashMap::from([(t, TaskWork::compute(k * 1_000_000_000))]);
                m.submit(job.build(), works);
                (u128::from(k), m.run())
            })
            .collect()
    })
}

/// The bytes of a store holding [`store_reports`], as a flush writes them.
fn valid_store_bytes(dir: &Path) -> Vec<u8> {
    let mut cache = DiskCache::open_with_stamp(dir, STORE_STAMP);
    for (fp, report) in store_reports() {
        cache.insert(*fp, report);
    }
    cache.flush();
    std::fs::read(cache.path()).expect("store written")
}

/// Opens a store over `bytes` and looks up every fingerprint in `probes`:
/// each lookup must miss or return a report that re-encodes to the
/// payload `probes` expects for it (when one is given). Returns the
/// number of records the open loaded.
fn open_hostile_store(dir: &Path, bytes: &[u8], probes: &[(u128, Option<Vec<u8>>)]) -> usize {
    std::fs::write(dir.join(DISKCACHE_FILE), bytes).expect("write store");
    let mut cache = DiskCache::open_with_stamp(dir, STORE_STAMP);
    let loaded = cache.len();
    for (fp, want) in probes {
        if let Some(report) = cache.get(*fp) {
            let got = encode_report(&report);
            assert!(
                want.as_ref().is_some_and(|w| *w == got),
                "fingerprint {fp} replayed bytes the store does not hold"
            );
        }
    }
    cache.flush();
    loaded
}

/// A fresh scratch directory per test thread, emptied by [`Drop`].
struct HostileDir(PathBuf);

impl HostileDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "reach-hostile-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        HostileDir(dir)
    }
}

impl Drop for HostileDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A store file of random bytes — bare, or behind this build's valid
    /// header — opens without a panic and answers nothing.
    #[test]
    fn random_store_bytes_never_panic(
        raw in proptest::collection::vec(any::<u8>(), 0..600),
        with_header in any::<bool>(),
    ) {
        let dir = HostileDir::new("random");
        let mut bytes = Vec::new();
        if with_header {
            bytes.extend_from_slice(DISKCACHE_MAGIC);
            bytes.extend_from_slice(&STORE_STAMP.to_le_bytes());
        }
        bytes.extend_from_slice(&raw);
        let probes: Vec<(u128, Option<Vec<u8>>)> = (0..4).map(|fp| (fp, None)).collect();
        open_hostile_store(&dir.0, &bytes, &probes);
    }

    /// A valid store cut at any length, with or without one flipped byte,
    /// opens without a panic; every lookup misses or replays exactly the
    /// report that was stored.
    #[test]
    fn truncated_or_flipped_stores_replay_only_what_was_stored(
        keep in 0.0f64..1.0,
        flip in 0.0f64..1.0,
        do_flip in any::<bool>(),
        mask in 1u8..255,
    ) {
        let dir = HostileDir::new("truncated");
        let mut bytes = valid_store_bytes(&dir.0);
        bytes.truncate((bytes.len() as f64 * keep) as usize);
        if do_flip && !bytes.is_empty() {
            let at = ((bytes.len() as f64 * flip) as usize).min(bytes.len() - 1);
            bytes[at] ^= mask;
        }
        let probes: Vec<(u128, Option<Vec<u8>>)> = store_reports()
            .iter()
            .map(|(fp, report)| (*fp, Some(encode_report(report))))
            .chain([(4, None)])
            .collect();
        open_hostile_store(&dir.0, &bytes, &probes);
    }

    /// A record whose payload was altered and re-checksummed — so the
    /// store's framing accepts it and only the report codec stands in
    /// the way — either misses or replays a report that re-encodes to
    /// exactly the altered payload.
    #[test]
    fn rechecksummed_payload_edits_replay_canonically(
        record in 0usize..3,
        at in 0.0f64..1.0,
        mask in 1u8..255,
    ) {
        let dir = HostileDir::new("rechecksummed");
        let mut bytes = valid_store_bytes(&dir.0);
        // Walk the frames `[len u32][checksum u64][fp u128][report]`.
        let mut pos = DISKCACHE_MAGIC.len() + 16;
        for _ in 0..record {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 12 + len;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let report = pos + 12 + 16..pos + 12 + len;
        let edit = report.start + ((report.len() as f64 * at) as usize).min(report.len() - 1);
        bytes[edit] ^= mask;
        let checksum = record_checksum(&bytes[pos + 12..pos + 12 + len]);
        bytes[pos + 4..pos + 12].copy_from_slice(&checksum.to_le_bytes());
        let probes: Vec<(u128, Option<Vec<u8>>)> = store_reports()
            .iter()
            .enumerate()
            .map(|(i, (fp, r))| {
                let stored = if i == record {
                    bytes[report.clone()].to_vec()
                } else {
                    encode_report(r)
                };
                (*fp, Some(stored))
            })
            .collect();
        // The forged frame loads, so the codec, not the framing, decides.
        let loaded = open_hostile_store(&dir.0, &bytes, &probes);
        prop_assert_eq!(loaded, store_reports().len());
    }

    /// Flipping any one byte of a record payload, or replacing any one
    /// aligned 8-byte word of it, changes the record checksum.
    #[test]
    fn record_checksum_catches_any_one_byte_or_word_change(
        payload in proptest::collection::vec(any::<u8>(), 1..300),
        at in 0.0f64..1.0,
        mask in 1u8..255,
        word in any::<u64>(),
    ) {
        let base = record_checksum(&payload);
        let i = ((payload.len() as f64 * at) as usize).min(payload.len() - 1);
        let mut flipped = payload.clone();
        flipped[i] ^= mask;
        prop_assert!(record_checksum(&flipped) != base);
        let w = i / 8 * 8;
        if w + 8 <= payload.len() {
            let old = u64::from_le_bytes(payload[w..w + 8].try_into().unwrap());
            let new = if word == old { !word } else { word };
            let mut changed = payload.clone();
            changed[w..w + 8].copy_from_slice(&new.to_le_bytes());
            prop_assert!(record_checksum(&changed) != base);
        }
    }
}
