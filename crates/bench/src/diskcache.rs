//! The persistent tier of the scenario-result cache.
//!
//! [`DiskCache`] extends the in-memory [`crate::ResultCache`] across
//! processes: every stored [`RunReport`] is serialized with the versioned
//! codec in `reach::codec` and kept in a single store file under the
//! `--result-cache-dir` directory. A warm process replays whole suites
//! without simulating anything.
//!
//! ## On-disk format (`reach-diskcache-v2`)
//!
//! ```text
//! magic   b"reach-diskcache-v2\n"
//! stamp   u128 LE   — reach::simulator_version_stamp()
//! record* [len u32 LE][checksum u64 LE][payload]
//!         payload = [fingerprint u128 LE][encoded RunReport]
//!         checksum = record_checksum(payload)
//! ```
//!
//! [`record_checksum`] reads the payload as little-endian `u64` words,
//! `h = rotl((h ^ w) * P, 29)` from the FNV-64 offset basis with the
//! FNV-64 prime `P`, then folds each tail byte and finally the length the
//! same way. Every step is a bijection of `h`, so two payloads of one
//! length that differ inside a single word (any one flipped byte, say)
//! always checksum differently. A `reach-diskcache-v1` store, which used
//! byte-wise FNV-1a, is an unrecognized format: it starts empty and the
//! next flush compacts it.
//!
//! The stamp makes invalidation trivial and total: a store written by any
//! other build of the simulator (different workspace version, different
//! codec revision, or simply a rebuilt executable) is discarded wholesale.
//! Re-simulating after a rebuild is cheap; replaying a stale report never
//! is.
//!
//! ## Robustness contract
//!
//! Nothing on this path may panic or change results: a missing, truncated,
//! corrupt, wrong-magic, wrong-stamp, or unwritable store degrades to
//! "every lookup misses", with a single warning on stderr per failure
//! class. Partial corruption keeps the valid record prefix (the framing is
//! length-prefixed and checksummed, so a torn tail write cannot poison
//! earlier records).
//!
//! ## Writes: one whole-table rewrite per process
//!
//! A flush writes the whole table — this build's header followed by every
//! record held, in insertion order — to a temporary file in the same
//! directory, syncs it, renames it over the store and syncs the
//! directory, so the rename survives a power cut. A concurrent reader
//! sees either the old store or the new one, never a half-written
//! file, and a torn, duplicated, foreign or undecodable store is replaced
//! by a clean one. A process writes what it loaded plus what it added, so
//! two processes filling one directory at once do not merge: the last
//! rename wins.
//!
//! A flush writes nothing when no record was added or dropped since the
//! last one, so a warm run leaves the store untouched, and a foreign-stamp
//! store stays as it is until a run has something to add. The runner's
//! owner flushes once, after its last batch; dropping the store flushes
//! too, so a process that never calls [`DiskCache::flush`] — or that
//! unwinds from a panic — still persists what it simulated.

use reach::{decode_report, encode_report, simulator_version_stamp, RunReport};
use std::collections::HashMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Leading magic of the store file; doubles as the format version.
pub const DISKCACHE_MAGIC: &[u8] = b"reach-diskcache-v2\n";

const FNV64_OFFSET: u64 = 0xcbf29ce484222325;
const FNV64_PRIME: u64 = 0x00000100000001b3;

/// The checksum of one record payload (see the module docs): eight bytes
/// per multiply, and any change inside one 8-byte word of a payload
/// changes it.
#[must_use]
pub fn record_checksum(payload: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV64_PRIME).rotate_left(29);
    let words = payload.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV64_OFFSET, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    let h = tail.iter().fold(h, |h, &b| step(h, u64::from(b)));
    step(h, payload.len() as u64)
}

/// Name of the store file inside the cache directory.
pub const DISKCACHE_FILE: &str = "results.reach-diskcache";

/// Hit/miss and write counters of the disk tier. Like the in-memory
/// [`crate::CacheStats`], hit/miss counting is the *runner's* policy —
/// lookups themselves never count, so the ledger stays identical at any
/// job count. The runner's owner flushes after its last batch, so the
/// write counters are job-count independent too.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Lookups answered from disk.
    pub hits: u64,
    /// Lookups that fell through to simulation.
    pub misses: u64,
    /// Flushes that rewrote the store.
    pub flushes: u64,
    /// Bytes those flushes wrote, headers included.
    pub bytes_written: u64,
}

/// A persistent fingerprint-to-report store with fail-open semantics.
///
/// Not internally synchronized: the runner guards it with a mutex and only
/// touches it from the sequential resolution/assembly phases, which is
/// what keeps disk accounting byte-identical across `--jobs` levels.
/// Dropping it flushes (see the module docs).
#[derive(Debug)]
pub struct DiskCache {
    path: PathBuf,
    stamp: u128,
    /// Every held report's encoding: the store file as loaded, then each
    /// inserted report, back to back.
    bytes: Vec<u8>,
    /// Decoded-on-demand payloads: fingerprint → its encoded report's
    /// range in `bytes`.
    entries: HashMap<u128, Range<usize>>,
    /// Insertion order, so a rewritten store lays records out stably.
    order: Vec<u128>,
    /// Something to write since the last successful flush: new records,
    /// or a dropped record to purge from the file.
    dirty: bool,
    /// Cleared after the first failed flush so an unwritable directory
    /// warns once, not again when the store drops.
    writable: bool,
    stats: DiskCacheStats,
}

fn warn(path: &Path, what: &str) {
    eprintln!("warning: disk cache {}: {what}", path.display());
}

impl DiskCache {
    /// Opens (or initializes) the store under `dir`, keyed to the running
    /// simulator build. Never fails: any problem — unreadable file, bad
    /// magic, foreign stamp, torn tail — degrades to an empty or truncated
    /// store with one stderr warning.
    #[must_use]
    pub fn open(dir: &Path) -> Self {
        Self::open_with_stamp(dir, simulator_version_stamp().0)
    }

    /// [`DiskCache::open`] with an explicit version stamp — the test seam
    /// for simulating "a different build wrote this store" without
    /// rebuilding the binary.
    #[must_use]
    pub fn open_with_stamp(dir: &Path, stamp: u128) -> Self {
        let path = dir.join(DISKCACHE_FILE);
        let mut cache = DiskCache {
            path,
            stamp,
            bytes: Vec::new(),
            entries: HashMap::new(),
            order: Vec::new(),
            dirty: false,
            writable: true,
            stats: DiskCacheStats::default(),
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            warn(&cache.path, &format!("cannot create directory ({e})"));
            cache.writable = false;
        }
        cache.load();
        cache
    }

    /// Reads the store, keeping the longest valid record prefix.
    fn load(&mut self) {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(e) => {
                warn(&self.path, &format!("unreadable, starting empty ({e})"));
                return;
            }
        };
        if bytes.len() < DISKCACHE_MAGIC.len() + 16
            || &bytes[..DISKCACHE_MAGIC.len()] != DISKCACHE_MAGIC
        {
            warn(&self.path, "unrecognized format, starting empty");
            return;
        }
        let mut pos = DISKCACHE_MAGIC.len();
        let stored_stamp = u128::from_le_bytes(bytes[pos..pos + 16].try_into().expect("16 bytes"));
        pos += 16;
        if stored_stamp != self.stamp {
            warn(
                &self.path,
                "written by a different simulator build, starting empty",
            );
            // The next flush overwrites the foreign store with this
            // build's stamp; leave `dirty` false so an all-miss read-only
            // run does not rewrite it for nothing.
            return;
        }
        // Records: keep the longest valid prefix; stop at the first tear.
        // The file's bytes stay as the backing store of what loads.
        self.bytes = bytes;
        let bytes = &self.bytes;
        while pos < bytes.len() {
            let Some(frame) = bytes.get(pos..pos + 12) else {
                warn(&self.path, "truncated record header, keeping valid prefix");
                return;
            };
            let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
            let checksum = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
            let Some(payload) = bytes.get(pos + 12..pos + 12 + len) else {
                warn(&self.path, "truncated record, keeping valid prefix");
                return;
            };
            if len < 16 || record_checksum(payload) != checksum {
                warn(&self.path, "corrupt record, keeping valid prefix");
                return;
            }
            let fp = u128::from_le_bytes(payload[..16].try_into().expect("16 bytes"));
            if self.entries.insert(fp, pos + 28..pos + 12 + len).is_none() {
                self.order.push(fp);
            }
            pos += 12 + len;
        }
    }

    /// Looks up a fingerprint, decoding the stored report. A record whose
    /// payload no longer decodes (possible only if corruption defeats the
    /// checksum) is dropped, treated as absent, and purged from the file
    /// by the next flush.
    #[must_use]
    pub fn get(&mut self, fp: u128) -> Option<RunReport> {
        let payload = self.entries.get(&fp)?;
        match decode_report(&self.bytes[payload.clone()]) {
            Ok(report) => Some(report),
            Err(e) => {
                warn(&self.path, &format!("undecodable record dropped ({e})"));
                self.entries.remove(&fp);
                self.order.retain(|&k| k != fp);
                self.dirty = true;
                None
            }
        }
    }

    /// Stores a report under `fp`. First write wins (the runner only
    /// inserts after a miss, so a duplicate insert means a replay raced a
    /// simulation — keep the bytes already persisted).
    pub fn insert(&mut self, fp: u128, report: &RunReport) {
        if self.entries.contains_key(&fp) {
            return;
        }
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&encode_report(report));
        self.entries.insert(fp, start..self.bytes.len());
        self.order.push(fp);
        self.dirty = true;
    }

    /// Persists whatever changed since the last flush by rewriting the
    /// whole store: temporary file, `sync_all`, rename, directory sync
    /// (see the module docs). Writes nothing when nothing changed. A failed write warns
    /// once and disables further write attempts (reads keep working).
    pub fn flush(&mut self) {
        if !self.dirty || !self.writable {
            return;
        }
        match self.write_store() {
            Ok(bytes) => {
                self.dirty = false;
                self.stats.flushes += 1;
                self.stats.bytes_written += bytes;
            }
            Err(e) => {
                warn(
                    &self.path,
                    &format!("not writable, results will not persist ({e})"),
                );
                self.writable = false;
            }
        }
    }

    /// Writes the header and every record to a temporary file, syncs it
    /// and renames it over the store, then syncs the directory (warning
    /// only if that fails); returns the bytes written.
    fn write_store(&self) -> std::io::Result<u64> {
        // Temp name includes the pid so concurrent processes writing the
        // same directory never interleave partial writes; rename keeps
        // the store itself atomic (last full write wins).
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        let mut buf = Vec::with_capacity(
            DISKCACHE_MAGIC.len()
                + 16
                + self
                    .order
                    .iter()
                    .map(|fp| 28 + self.entries[fp].len())
                    .sum::<usize>(),
        );
        buf.extend_from_slice(DISKCACHE_MAGIC);
        buf.extend_from_slice(&self.stamp.to_le_bytes());
        for fp in &self.order {
            // [len u32][checksum u64][fingerprint u128][report]
            let report = &self.bytes[self.entries[fp].clone()];
            let len = u32::try_from(16 + report.len()).expect("record fits its u32 length frame");
            let start = buf.len();
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(&[0; 8]);
            buf.extend_from_slice(&fp.to_le_bytes());
            buf.extend_from_slice(report);
            let checksum = record_checksum(&buf[start + 12..]);
            buf[start + 4..start + 12].copy_from_slice(&checksum.to_le_bytes());
        }
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&buf)?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = written {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // The rename lives in the directory: sync it too, or a power cut
        // may bring the old store back. The new store is in place either
        // way, so a failure here only warns.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        if let Err(e) = std::fs::File::open(dir).and_then(|d| d.sync_all()) {
            warn(&self.path, &format!("directory not synced ({e})"));
        }
        Ok(buf.len() as u64)
    }

    /// Counts one disk hit (the runner's sequential resolution phase).
    pub fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Counts one disk miss.
    pub fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Hit/miss and write counters so far.
    #[must_use]
    pub fn stats(&self) -> DiskCacheStats {
        self.stats
    }

    /// Number of reports currently held (loaded + inserted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The store file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DiskCache {
    /// Flushes, so a store whose owner never called [`DiskCache::flush`]
    /// (or that unwinds from a panic) still persists its new records.
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::{MetricsSnapshot, SimDuration, SimTime};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "reach-diskcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn report(jobs: u64) -> RunReport {
        RunReport {
            makespan: SimDuration::from_ps(1_000_000),
            jobs,
            job_latency_mean: SimDuration::from_ps(1_000_000 / jobs.max(1)),
            job_latency_last: SimDuration::from_ps(900_000),
            stages: Vec::new(),
            ledger: reach::EnergyLedger::new(),
            completions: vec![SimTime::from_ps(1_000_000)],
            metrics: MetricsSnapshot::new(1_000_000),
        }
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let mut cache = DiskCache::open_with_stamp(&dir, 42);
        assert!(cache.is_empty());
        cache.insert(1, &report(1));
        cache.insert(2, &report(2));
        cache.flush();

        let mut reopened = DiskCache::open_with_stamp(&dir, 42);
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(1).expect("fp 1").jobs, 1);
        assert_eq!(reopened.get(2).expect("fp 2").jobs, 2);
        assert!(reopened.get(3).is_none());
        // Byte-exactness witness: the stored payload re-encodes to itself.
        let r = reopened.get(2).expect("fp 2");
        assert_eq!(
            reach::encode_report(&r),
            reach::encode_report(&report(2)),
            "persisted report drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_stamp_discards_the_store() {
        let dir = temp_dir("stale");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(7, &report(7));
        cache.flush();
        // A "different build" opens the same directory: everything misses.
        let mut other = DiskCache::open_with_stamp(&dir, 2);
        assert!(other.is_empty());
        assert!(other.get(7).is_none());
        // And once the new build flushes, its stamp owns the store.
        other.insert(8, &report(8));
        other.flush();
        let mut back = DiskCache::open_with_stamp(&dir, 2);
        assert_eq!(back.len(), 1);
        assert!(back.get(8).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_starts_empty_without_destroying_until_flush() {
        let dir = temp_dir("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(DISKCACHE_FILE), b"not a reach store").unwrap();
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
        // No insert happened, so the foreign file is left untouched.
        cache.flush();
        assert_eq!(
            std::fs::read(dir.join(DISKCACHE_FILE)).unwrap(),
            b"not a reach store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let dir = temp_dir("trunc");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.insert(2, &report(2));
        cache.flush();
        let path = dir.join(DISKCACHE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Chop into the middle of the second record.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        assert_eq!(cache.len(), 1, "valid prefix survives");
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let dir = temp_dir("flip");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.flush();
        let path = dir.join(DISKCACHE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = DISKCACHE_MAGIC.len() + 16 + 12 + 20; // inside record payload
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        assert!(cache.is_empty(), "corrupt record must not load");
        assert!(cache.get(1).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_checksum_is_pinned() {
        // Changing these values changes the store format: bump
        // `DISKCACHE_MAGIC` with them.
        assert_eq!(record_checksum(b""), 0x90c0_36fb_f5ec_77a9);
        assert_eq!(
            record_checksum(b"reach-diskcache-v2 record payload"),
            0x026d_fe85_40e0_6b42
        );
        // The length is folded in: trailing zero bytes are seen.
        assert_ne!(record_checksum(&[0; 9]), record_checksum(&[0; 10]));
    }

    #[test]
    fn v1_store_starts_empty_and_the_next_flush_rewrites_it_as_v2() {
        let dir = temp_dir("v1");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.flush();
        let path = dir.join(DISKCACHE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..DISKCACHE_MAGIC.len()].copy_from_slice(b"reach-diskcache-v1\n");
        std::fs::write(&path, &bytes).unwrap();

        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        assert!(cache.is_empty(), "a v1 store must not load");
        cache.insert(2, &report(2));
        cache.flush();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            one_rewrite_of("v1-ref", &[2]),
            "the v1 store was not compacted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_degrades_gracefully() {
        let missing = PathBuf::from("/proc/definitely-not-writable/reach-cache");
        let mut cache = DiskCache::open(&missing);
        assert!(cache.is_empty());
        cache.insert(1, &report(1));
        cache.flush(); // warns, does not panic
        assert!(cache.get(1).is_some(), "in-memory view still serves");
    }

    #[test]
    fn duplicate_insert_keeps_first_bytes() {
        let dir = temp_dir("dup");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.insert(1, &report(99));
        assert_eq!(cache.get(1).expect("fp 1").jobs, 1);
        assert_eq!(cache.len(), 1);
        drop(cache);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_is_idempotent_and_lazy() {
        let dir = temp_dir("lazy");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.flush(); // nothing to write: no file appears
        assert!(!dir.join(DISKCACHE_FILE).exists());
        cache.insert(1, &report(1));
        cache.flush();
        let first = std::fs::metadata(dir.join(DISKCACHE_FILE))
            .unwrap()
            .modified()
            .unwrap();
        cache.flush(); // clean: no rewrite
        let second = std::fs::metadata(dir.join(DISKCACHE_FILE))
            .unwrap()
            .modified()
            .unwrap();
        assert_eq!(first, second);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store a single flush of `fps` (each holding `report(fp)`)
    /// writes into a fresh directory.
    fn one_rewrite_of(tag: &str, fps: &[u128]) -> Vec<u8> {
        let dir = temp_dir(tag);
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        for &fp in fps {
            cache.insert(fp, &report(fp as u64));
        }
        cache.flush();
        let bytes = std::fs::read(dir.join(DISKCACHE_FILE)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    }

    #[test]
    fn appends_across_reopens_match_one_full_rewrite() {
        let dir = temp_dir("append");
        let mut first = DiskCache::open_with_stamp(&dir, 1);
        first.insert(1, &report(1));
        first.flush();
        first.insert(2, &report(2));
        first.flush();
        let mut second = DiskCache::open_with_stamp(&dir, 1);
        second.insert(3, &report(3));
        second.insert(4, &report(4));
        second.flush();
        let bytes = std::fs::read(dir.join(DISKCACHE_FILE)).unwrap();
        assert_eq!(bytes, one_rewrite_of("append-ref", &[1, 2, 3, 4]));
        assert_eq!((first.stats().flushes, second.stats().flushes), (2, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_or_duplicated_store_is_compacted_by_the_next_flush() {
        type Damage = fn(&[u8]) -> Vec<u8>;
        let cases: [(&str, Damage, &[u128]); 2] = [
            ("torn", |bytes| bytes[..bytes.len() - 10].to_vec(), &[1, 3]),
            (
                "duplicated",
                |bytes| {
                    let header = DISKCACHE_MAGIC.len() + 16;
                    let first = header + 28 + encode_report(&report(1)).len();
                    [bytes, &bytes[header..first]].concat()
                },
                &[1, 2, 3],
            ),
        ];
        for (tag, damage, survivors) in cases {
            let dir = temp_dir(tag);
            let mut cache = DiskCache::open_with_stamp(&dir, 1);
            cache.insert(1, &report(1));
            cache.insert(2, &report(2));
            cache.flush();
            let path = dir.join(DISKCACHE_FILE);
            std::fs::write(&path, damage(&std::fs::read(&path).unwrap())).unwrap();
            let mut cache = DiskCache::open_with_stamp(&dir, 1);
            cache.insert(3, &report(3));
            cache.flush();
            // No garbage between records: the file is the clean table.
            assert_eq!(
                std::fs::read(&path).unwrap(),
                one_rewrite_of(&format!("{tag}-ref"), survivors),
                "{tag} store was not compacted"
            );
            let mut reopened = DiskCache::open_with_stamp(&dir, 1);
            assert_eq!(reopened.len(), survivors.len());
            assert!(survivors.iter().all(|&fp| reopened.get(fp).is_some()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_store_another_writer_changed_is_rewritten_not_appended_to() {
        type Change = fn(&Path);
        let changes: [(&str, Change); 2] = [
            ("grown", |path| {
                let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
                f.write_all(b"bytes this process never saw").unwrap();
            }),
            ("shrunk", |path| {
                let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
                f.set_len((DISKCACHE_MAGIC.len() + 16) as u64).unwrap();
            }),
        ];
        for (tag, change) in changes {
            let dir = temp_dir(tag);
            let mut cache = DiskCache::open_with_stamp(&dir, 1);
            cache.insert(1, &report(1));
            cache.flush();
            change(&dir.join(DISKCACHE_FILE));
            cache.insert(2, &report(2));
            cache.flush();
            assert_eq!(
                std::fs::read(dir.join(DISKCACHE_FILE)).unwrap(),
                one_rewrite_of(&format!("{tag}-ref"), &[1, 2]),
                "{tag} store was not rewritten"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dropping_a_dirty_store_flushes_it() {
        let dir = temp_dir("drop");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.insert(2, &report(2));
        drop(cache);
        assert_eq!(
            std::fs::read(dir.join(DISKCACHE_FILE)).unwrap(),
            one_rewrite_of("drop-ref", &[1, 2])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deleted_store_is_rewritten_by_the_next_flush() {
        let dir = temp_dir("fallback");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.flush();
        std::fs::remove_file(dir.join(DISKCACHE_FILE)).unwrap();
        cache.insert(2, &report(2));
        cache.flush();
        assert_eq!(
            std::fs::read(dir.join(DISKCACHE_FILE)).unwrap(),
            one_rewrite_of("fallback-ref", &[1, 2])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_record_is_purged_by_the_next_flush() {
        let dir = temp_dir("undecodable");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        cache.insert(1, &report(1));
        cache.insert(2, &report(2));
        cache.flush();
        // Break the second record's codec version, then re-checksum it so
        // the load accepts the frame and only decoding fails.
        let path = dir.join(DISKCACHE_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let second = DISKCACHE_MAGIC.len() + 16 + 28 + encode_report(&report(1)).len();
        bytes[second + 28] ^= 0xff;
        let checksum = record_checksum(&bytes[second + 12..]);
        bytes[second + 4..second + 12].copy_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        assert_eq!(cache.len(), 2, "the frame itself is valid");
        assert!(cache.get(2).is_none(), "undecodable record must miss");
        cache.flush();
        // The file now holds only valid, decodable records, so no later
        // open or lookup has anything to warn about.
        assert_eq!(
            std::fs::read(&path).unwrap(),
            one_rewrite_of("undecodable-ref", &[1])
        );
        let mut reopened = DiskCache::open_with_stamp(&dir, 1);
        assert_eq!(reopened.len(), 1);
        assert!(reopened.get(1).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_what_the_caller_records() {
        let dir = temp_dir("stats");
        let mut cache = DiskCache::open_with_stamp(&dir, 1);
        assert_eq!(cache.stats(), DiskCacheStats::default());
        cache.record_hit();
        cache.record_miss();
        cache.record_miss();
        assert_eq!(
            cache.stats(),
            DiskCacheStats {
                hits: 1,
                misses: 2,
                ..DiskCacheStats::default()
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
