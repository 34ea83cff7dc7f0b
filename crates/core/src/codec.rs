//! Versioned binary serialization of [`RunReport`] — the payload format of
//! the persistent result cache.
//!
//! The in-memory `ResultCache` in `reach-bench` rests on one invariant:
//! equal [`crate::ConfigFingerprint`]s produce byte-identical reports. To
//! extend that across *processes* the report must survive a trip through
//! disk bit-exactly, so this codec is deliberately dumb: little-endian
//! fixed-width integers, length-prefixed UTF-8 strings, and `f64`s by bit
//! pattern (`to_bits`/`from_bits` — never a decimal detour). No `serde`,
//! matching the workspace's no-dependency discipline.
//!
//! A payload is the version word, then the makespan, job count and job
//! latencies, the stage summaries, the energy cells, the completion
//! instants and the metrics, in that order. The GAM counters travel once,
//! as the snapshot's `gam.*` counters; version 1 also carried them as a
//! separate block of eight integers, which version 2 dropped.
//!
//! Two safety properties the disk cache depends on:
//!
//! * **Decoding never panics.** Every read is bounds-checked, every length
//!   is validated against the remaining bytes before allocation, and
//!   values with internal invariants (energy cells must be finite and
//!   non-negative, stage windows must not be reversed) are checked before
//!   they reach constructors that would `assert!`. Corrupt input yields a
//!   [`CodecError`], which the cache layer treats as a miss.
//! * **Versioning is explicit.** [`REPORT_CODEC_VERSION`] leads every
//!   payload; a report from a different codec revision is rejected, and
//!   the [`simulator_version_stamp`] folds the codec version in so a
//!   store written by one revision is never even opened by another.

use crate::report::{RunReport, StageSummary};
use reach_energy::{EnergyLedger, SystemComponent};
use reach_sim::{
    Fingerprint, FingerprintBuilder, MetricValue, MetricsSnapshot, SimDuration, SimTime,
};
use std::fmt;
use std::sync::OnceLock;

/// Version of the [`RunReport`] wire format. Bump on any layout change —
/// the version is also folded into [`simulator_version_stamp`], so a bump
/// invalidates every persisted store.
pub const REPORT_CODEC_VERSION: u32 = 2;

/// Why a persisted report failed to decode. The disk cache maps every
/// variant to "miss"; the distinctions exist for the warning message and
/// the robustness tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure did.
    Truncated,
    /// The payload leads with an unknown codec version.
    BadVersion(u32),
    /// A tagged union (metric kind, component index) carried an unknown tag.
    BadTag(u8),
    /// A decoded value violates an invariant of the type it feeds
    /// (non-finite energy, reversed stage window, trailing bytes, …).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "payload truncated"),
            CodecError::BadVersion(v) => {
                write!(f, "codec version {v} (expected {REPORT_CODEC_VERSION})")
            }
            CodecError::BadTag(t) => write!(f, "unknown tag {t}"),
            CodecError::Invalid(what) => write!(f, "invalid payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_bits(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked cursor over an immutable payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::Truncated);
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64_bits(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed UTF-8 string. The length is validated against the
    /// remaining bytes *before* any allocation, so a corrupt length can
    /// never trigger a huge reservation.
    fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u64()?;
        if len > self.remaining() as u64 {
            return Err(CodecError::Truncated);
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
    }

    /// A sequence length, validated against a conservative lower bound on
    /// per-element size so a corrupt count can never pre-commit to more
    /// elements than the payload could possibly hold.
    fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.u64()?;
        if len > (self.remaining() / min_elem_bytes.max(1)) as u64 {
            return Err(CodecError::Truncated);
        }
        Ok(len as usize)
    }
}

fn component_index(c: SystemComponent) -> u8 {
    SystemComponent::ALL
        .iter()
        .position(|&x| x == c)
        .expect("component in ALL") as u8
}

const METRIC_COUNTER: u8 = 0;
const METRIC_GAUGE: u8 = 1;
const METRIC_HISTOGRAM: u8 = 2;
const METRIC_OCCUPANCY: u8 = 3;

/// One metric: its name, then its kind tag and fields.
fn put_metric(out: &mut Vec<u8>, name: &str, value: &MetricValue) {
    put_str(out, name);
    match value {
        MetricValue::Counter { value } => {
            put_u8(out, METRIC_COUNTER);
            put_u64(out, *value);
        }
        MetricValue::Gauge { mean, last } => {
            put_u8(out, METRIC_GAUGE);
            put_f64_bits(out, *mean);
            put_f64_bits(out, *last);
        }
        MetricValue::Histogram {
            count,
            mean,
            p50,
            p99,
        } => {
            put_u8(out, METRIC_HISTOGRAM);
            put_u64(out, *count);
            put_f64_bits(out, *mean);
            put_u64(out, *p50);
            put_u64(out, *p99);
        }
        MetricValue::Occupancy { mean, peak } => {
            put_u8(out, METRIC_OCCUPANCY);
            put_f64_bits(out, *mean);
            put_f64_bits(out, *peak);
        }
    }
}

/// Serializes a report. The encoding is canonical: equal reports produce
/// equal bytes, and `encode(decode(bytes)) == bytes` for any bytes this
/// function produced.
#[must_use]
pub fn encode_report(report: &RunReport) -> Vec<u8> {
    let mut out = Vec::with_capacity(512);
    put_u32(&mut out, REPORT_CODEC_VERSION);
    put_u64(&mut out, report.makespan.as_ps());
    put_u64(&mut out, report.jobs);
    put_u64(&mut out, report.job_latency_mean.as_ps());
    put_u64(&mut out, report.job_latency_last.as_ps());

    put_u64(&mut out, report.stages.len() as u64);
    for s in &report.stages {
        put_str(&mut out, &s.name);
        put_u64(&mut out, s.busy.as_ps());
        put_u64(&mut out, s.window.0.since(SimTime::ZERO).as_ps());
        put_u64(&mut out, s.window.1.since(SimTime::ZERO).as_ps());
        put_u64(&mut out, s.tasks);
    }

    put_u64(&mut out, report.ledger.cell_count() as u64);
    for (component, stage, joules) in report.ledger.cells() {
        put_u8(&mut out, component_index(component));
        put_str(&mut out, stage);
        put_f64_bits(&mut out, joules);
    }

    put_u64(&mut out, report.completions.len() as u64);
    for &t in &report.completions {
        put_u64(&mut out, t.since(SimTime::ZERO).as_ps());
    }

    put_u64(&mut out, report.metrics.horizon_ps());
    put_u64(&mut out, report.metrics.len() as u64);
    for (name, value) in report.metrics.iter() {
        put_metric(&mut out, name, value);
    }
    out
}

/// Deserializes a report previously produced by [`encode_report`].
///
/// Never panics: corrupt or truncated input (including input that would
/// violate an invariant of the reconstructed types) yields a
/// [`CodecError`]. Whatever decodes is canonical — it re-encodes to the
/// input bytes — so out-of-order or repeated energy cells and metrics are
/// errors too, not silently merged.
pub fn decode_report(bytes: &[u8]) -> Result<RunReport, CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u32()?;
    if version != REPORT_CODEC_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let makespan = SimDuration::from_ps(r.u64()?);
    let jobs = r.u64()?;
    let job_latency_mean = SimDuration::from_ps(r.u64()?);
    let job_latency_last = SimDuration::from_ps(r.u64()?);

    let n_stages = r.seq_len(8 * 4 + 8)?;
    let mut stages = Vec::with_capacity(n_stages);
    for _ in 0..n_stages {
        let name = r.str()?;
        let busy = SimDuration::from_ps(r.u64()?);
        let w0 = r.u64()?;
        let w1 = r.u64()?;
        if w1 < w0 {
            return Err(CodecError::Invalid("reversed stage window"));
        }
        let tasks = r.u64()?;
        stages.push(StageSummary {
            name,
            busy,
            window: (SimTime::from_ps(w0), SimTime::from_ps(w1)),
            tasks,
        });
    }

    // Cells arrive in the ledger's own (component, stage) order, each
    // once, and a cell never holds -0.0: anything else would decode to a
    // report that re-encodes to different bytes.
    let n_cells = r.seq_len(1 + 8 + 8)?;
    let mut ledger = EnergyLedger::new();
    let mut prev_cell: Option<(u8, String)> = None;
    for _ in 0..n_cells {
        let idx = r.u8()?;
        let component = *SystemComponent::ALL
            .get(idx as usize)
            .ok_or(CodecError::BadTag(idx))?;
        let stage = r.str()?;
        let joules = r.f64_bits()?;
        if !(joules.is_finite() && joules.is_sign_positive()) {
            return Err(CodecError::Invalid("non-finite or negative energy"));
        }
        ledger.add(component, &stage, joules);
        let cell = (idx, stage);
        if prev_cell.as_ref().is_some_and(|prev| *prev >= cell) {
            return Err(CodecError::Invalid("energy cells out of order"));
        }
        prev_cell = Some(cell);
    }

    let n_completions = r.seq_len(8)?;
    let mut completions = Vec::with_capacity(n_completions);
    for _ in 0..n_completions {
        completions.push(SimTime::from_ps(r.u64()?));
    }

    let horizon_ps = r.u64()?;
    let n_metrics = r.seq_len(8 + 1 + 8)?;
    let mut metrics: Vec<(String, MetricValue)> = Vec::with_capacity(n_metrics);
    for _ in 0..n_metrics {
        let name = r.str()?;
        // Names arrive sorted and unique, as the snapshot iterates them.
        if metrics.last().is_some_and(|(prev, _)| *prev >= name) {
            return Err(CodecError::Invalid("metrics out of order"));
        }
        let value = match r.u8()? {
            METRIC_COUNTER => MetricValue::Counter { value: r.u64()? },
            METRIC_GAUGE => MetricValue::Gauge {
                mean: r.f64_bits()?,
                last: r.f64_bits()?,
            },
            METRIC_HISTOGRAM => MetricValue::Histogram {
                count: r.u64()?,
                mean: r.f64_bits()?,
                p50: r.u64()?,
                p99: r.u64()?,
            },
            METRIC_OCCUPANCY => MetricValue::Occupancy {
                mean: r.f64_bits()?,
                peak: r.f64_bits()?,
            },
            tag => return Err(CodecError::BadTag(tag)),
        };
        metrics.push((name, value));
    }
    let metrics = MetricsSnapshot::from_sorted(horizon_ps, metrics);

    if r.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes"));
    }

    Ok(RunReport {
        makespan,
        jobs,
        job_latency_mean,
        job_latency_last,
        stages,
        ledger,
        completions,
        metrics,
    })
}

/// A digest identifying *this build of the simulator* — the invalidation
/// key of every persisted result store.
///
/// Equal fingerprints only guarantee equal reports within one simulator
/// revision: a timing-model fix changes what a fingerprint means without
/// changing the fingerprint. Rather than trying to enumerate "which code
/// changes matter", the stamp hashes the workspace version, the codec
/// version, and the running executable's identity (length + modification
/// time) — so *any* rebuild starts a fresh store. Recompiling is cheap to
/// re-cache against; replaying a stale report is never acceptable.
///
/// Computed once per process. If the executable's metadata is unavailable
/// (unusual platforms, deleted-while-running), the stamp degrades to the
/// version fields alone — still safe across released versions, merely less
/// aggressive about dev rebuilds.
#[must_use]
pub fn simulator_version_stamp() -> Fingerprint {
    static STAMP: OnceLock<Fingerprint> = OnceLock::new();
    *STAMP.get_or_init(|| {
        let mut b = FingerprintBuilder::new("reach-version-stamp-v1");
        b.write_str(env!("CARGO_PKG_VERSION"));
        b.write_u64(u64::from(REPORT_CODEC_VERSION));
        if let Ok(meta) = std::env::current_exe().and_then(std::fs::metadata) {
            b.write_u64(meta.len());
            if let Ok(mtime) = meta.modified() {
                if let Ok(since) = mtime.duration_since(std::time::UNIX_EPOCH) {
                    b.write_u64(since.as_secs());
                    b.write_u64(u64::from(since.subsec_nanos()));
                }
            }
        }
        b.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::machine::Machine;
    use crate::work::{DataAccess, TaskWork};
    use reach_accel::ComputeLevel;
    use reach_gam::JobBuilder;

    /// A synthetic report exercising every field and every metric kind.
    fn sample_report() -> RunReport {
        let mut ledger = EnergyLedger::new();
        ledger.add(SystemComponent::Accelerator, "fe", 2.25);
        ledger.add(SystemComponent::Dram, "fe", 0.1 + 0.2); // a non-exact sum
        ledger.add(SystemComponent::Pcie, "rerank", 6.0);
        let mut metrics = MetricsSnapshot::new(500_000);
        metrics.set("a.count", MetricValue::Counter { value: 7 });
        metrics.set(
            "b.depth",
            MetricValue::Gauge {
                mean: 1.5,
                last: 3.0,
            },
        );
        metrics.set(
            "c.lat",
            MetricValue::Histogram {
                count: 4,
                mean: 0.1 + 0.7, // a non-exact double
                p50: 15,
                p99: 31,
            },
        );
        metrics.set(
            "d.occ",
            MetricValue::Occupancy {
                mean: 0.25,
                peak: 2.0,
            },
        );
        RunReport {
            makespan: SimDuration::from_ps(500_000),
            jobs: 2,
            job_latency_mean: SimDuration::from_ps(250_000),
            job_latency_last: SimDuration::from_ps(260_000),
            stages: vec![
                StageSummary {
                    name: "fe".into(),
                    busy: SimDuration::from_ps(100_000),
                    window: (SimTime::from_ps(0), SimTime::from_ps(100_000)),
                    tasks: 2,
                },
                StageSummary {
                    name: "rerank".into(),
                    busy: SimDuration::from_ps(50_000),
                    window: (SimTime::from_ps(100_000), SimTime::from_ps(400_000)),
                    tasks: 1,
                },
            ],
            ledger,
            completions: vec![SimTime::from_ps(250_000), SimTime::from_ps(500_000)],
            metrics,
        }
    }

    /// Bit-exact equality witness: rendered text (covers makespan, stages,
    /// the full energy ledger at display precision), the metrics JSON
    /// (covers every metric at export precision), and the canonical bytes
    /// (covers everything at full precision).
    #[test]
    fn round_trip_is_bit_exact() {
        let report = sample_report();
        let bytes = encode_report(&report);
        let decoded = decode_report(&bytes).expect("decode");
        assert_eq!(decoded.to_string(), report.to_string());
        assert_eq!(decoded.metrics.to_json(), report.metrics.to_json());
        assert_eq!(decoded.completions, report.completions);
        assert_eq!(encode_report(&decoded), bytes, "canonical bytes drifted");
    }

    /// The same witness against a report from a real machine run — the
    /// codec must cover whatever the machine actually emits, not just the
    /// hand-built sample.
    #[test]
    fn round_trips_a_real_machine_report() {
        let mut machine = Machine::new(SystemConfig::paper_table2());
        let mut job = JobBuilder::new(0);
        let t = job.task(
            "demo",
            "VGG16-VU9P",
            ComputeLevel::OnChip,
            SimDuration::from_ms(10),
            vec![],
            vec![],
            vec![],
        );
        machine.submit(
            job.build(),
            [(
                t,
                TaskWork {
                    macs: 1_000_000,
                    access: DataAccess::None,
                },
            )]
            .into(),
        );
        let report = machine.run();
        let bytes = encode_report(&report);
        let decoded = decode_report(&bytes).expect("decode");
        assert_eq!(decoded.to_string(), report.to_string());
        assert_eq!(decoded.metrics.to_json(), report.metrics.to_json());
        assert_eq!(encode_report(&decoded), bytes);
    }

    /// Decoding any strict prefix fails with an error — never a panic.
    #[test]
    fn every_truncation_errors_cleanly() {
        let bytes = encode_report(&sample_report());
        for len in 0..bytes.len() {
            assert!(
                decode_report(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Arbitrary bytes decode to an error or a report, never a panic —
        /// raw, and behind a valid version word so the noise reaches the
        /// sequence lengths, tags, strings and floats past the header.
        #[test]
        fn random_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
        ) {
            let _ = decode_report(&bytes);
            let mut versioned = REPORT_CODEC_VERSION.to_le_bytes().to_vec();
            versioned.extend_from_slice(&bytes);
            let _ = decode_report(&versioned);
        }
    }

    /// A metric of every kind, its fields drawn from `kind` and two raw
    /// words (floats by bit pattern, NaNs included).
    fn any_metric(kind: u8, a: u64, b: u64) -> MetricValue {
        let (fa, fb) = (f64::from_bits(a), f64::from_bits(b));
        match kind % 4 {
            0 => MetricValue::Counter { value: a },
            1 => MetricValue::Gauge { mean: fa, last: fb },
            2 => MetricValue::Histogram {
                count: a,
                mean: fb,
                p50: b,
                p99: a ^ b,
            },
            _ => MetricValue::Occupancy { mean: fa, peak: fb },
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Random name-sorted metric sets round-trip byte-exactly, and the
        /// same payload with two neighbouring names swapped, or with one
        /// name repeated, is rejected.
        #[test]
        fn random_metric_sets_round_trip_and_stay_canonical(
            raw in proptest::collection::vec(
                (0u32..5000, proptest::prelude::any::<u8>(),
                 proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
                0..40,
            ),
            at in 0.0f64..1.0,
        ) {
            let mut metrics: Vec<(String, MetricValue)> = raw
                .iter()
                .map(|&(id, kind, a, b)| (format!("m.{id:04}"), any_metric(kind, a, b)))
                .collect();
            metrics.sort_by(|x, y| x.0.cmp(&y.0));
            metrics.dedup_by(|x, y| x.0 == y.0);
            let mut report = sample_report();
            report.metrics = MetricsSnapshot::from_sorted(77, metrics.clone());
            let bytes = encode_report(&report);
            let decoded = decode_report(&bytes).expect("decode");
            // `Debug`, not `==`: a NaN field is never equal to itself.
            proptest::prop_assert_eq!(
                format!("{:?}", decoded.metrics),
                format!("{:?}", report.metrics)
            );
            proptest::prop_assert_eq!(encode_report(&decoded), bytes.clone());

            if metrics.len() >= 2 {
                let section = |list: &[(String, MetricValue)]| {
                    let mut out = Vec::new();
                    for (name, v) in list {
                        put_metric(&mut out, name, v);
                    }
                    out
                };
                let tail = section(&metrics);
                let head = &bytes[..bytes.len() - tail.len()];
                proptest::prop_assert!(bytes.ends_with(&tail));
                let k = ((metrics.len() - 1) as f64 * at) as usize;
                let mut swapped = metrics.clone();
                swapped.swap(k, k + 1);
                let mut repeated = metrics.clone();
                repeated[k + 1].0 = repeated[k].0.clone();
                for bad in [swapped, repeated] {
                    proptest::prop_assert_eq!(
                        decode_report(&[head, &section(&bad)].concat()).unwrap_err(),
                        CodecError::Invalid("metrics out of order")
                    );
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_report(&sample_report());
        bytes.push(0);
        assert_eq!(
            decode_report(&bytes).unwrap_err(),
            CodecError::Invalid("trailing bytes")
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_report(&sample_report());
        bytes[0] = bytes[0].wrapping_add(1);
        assert!(matches!(
            decode_report(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }

    /// Corruption that happens to pass structural checks but violates a
    /// type invariant (here: energy must be finite and non-negative, which
    /// `EnergyLedger::add` would otherwise assert on) must surface as an
    /// error, not a panic.
    #[test]
    fn invalid_energy_is_an_error_not_a_panic() {
        let report = sample_report();
        let bytes = encode_report(&report);
        // Locate the first ledger cell's f64 and overwrite it with NaN.
        let needle = 2.25f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("ledger cell bytes present");
        let mut corrupt = bytes.clone();
        corrupt[pos..pos + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            decode_report(&corrupt).unwrap_err(),
            CodecError::Invalid("non-finite or negative energy")
        );
    }

    /// Payloads the ledger or the metrics snapshot would re-sort, merge or
    /// normalize decode to errors: whatever decodes re-encodes to its
    /// input bytes.
    #[test]
    fn non_canonical_payloads_are_rejected() {
        let payload = |cells: &[(u8, &str, f64)], metrics: &[&str]| {
            let mut out = Vec::new();
            put_u32(&mut out, REPORT_CODEC_VERSION);
            for _ in 0..5 {
                put_u64(&mut out, 0); // makespan, jobs, two latencies, stages
            }
            put_u64(&mut out, cells.len() as u64);
            for &(c, stage, joules) in cells {
                put_u8(&mut out, c);
                put_str(&mut out, stage);
                put_f64_bits(&mut out, joules);
            }
            for _ in 0..2 {
                put_u64(&mut out, 0); // completions, horizon
            }
            put_u64(&mut out, metrics.len() as u64);
            for name in metrics {
                put_str(&mut out, name);
                put_u8(&mut out, METRIC_COUNTER);
                put_u64(&mut out, 1);
            }
            out
        };
        let canonical = payload(&[(0, "a", 1.0), (0, "b", 0.0), (1, "a", 2.0)], &["x", "y"]);
        let report = decode_report(&canonical).expect("canonical payload decodes");
        assert_eq!(encode_report(&report), canonical);
        for (bad, why) in [
            (
                payload(&[(0, "b", 1.0), (0, "a", 1.0)], &[]),
                "energy cells out of order",
            ),
            (
                payload(&[(1, "a", 1.0), (0, "a", 1.0)], &[]),
                "energy cells out of order",
            ),
            (
                payload(&[(0, "a", 1.0), (0, "a", 1.0)], &[]),
                "energy cells out of order",
            ),
            (
                payload(&[(0, "a", -0.0)], &[]),
                "non-finite or negative energy",
            ),
            (payload(&[], &["y", "x"]), "metrics out of order"),
            (payload(&[], &["x", "x"]), "metrics out of order"),
        ] {
            assert_eq!(decode_report(&bad).unwrap_err(), CodecError::Invalid(why));
        }
    }

    /// A corrupt sequence length can't cause a huge allocation or a panic:
    /// it is validated against the remaining payload first.
    #[test]
    fn corrupt_length_is_bounded() {
        let bytes = encode_report(&sample_report());
        // The stage-count u64 sits right after version + 4 u64 header
        // fields (4 + 32 bytes in).
        let mut corrupt = bytes.clone();
        corrupt[36..44].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_report(&corrupt).unwrap_err(), CodecError::Truncated);
    }

    #[test]
    fn version_stamp_is_stable_within_a_process() {
        let a = simulator_version_stamp();
        let b = simulator_version_stamp();
        assert_eq!(a, b);
        // And it is not the trivial empty digest.
        assert_ne!(
            a,
            FingerprintBuilder::new("reach-version-stamp-v1").finish()
        );
    }
}
