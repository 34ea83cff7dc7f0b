//! A bounded scenario-result cache keyed by [`ConfigFingerprint`].
//!
//! Sweep grids and repeated experiment suites re-simulate the same
//! configuration over and over: the Figure 13 proper-mapping point is also
//! the baseline of four ablations, and the figures share points with the
//! ablations and extensions. Because a [`ConfigFingerprint`] covers *every*
//! input of a scenario's run (see `Scenario::config_fingerprint`), equal
//! fingerprints mean byte-identical [`RunReport`]s — so the runner can
//! replay a stored report instead of simulating again.
//!
//! The cache is bounded and evicts first-in, first-out: insertion order is
//! eviction order. Inserts happen only in the runner's **sequential**
//! phases, never from worker threads, so the contents after a run depend
//! only on the submission sequence. Hit/miss counters are maintained by
//! the same sequential phase, which keeps them identical at any `--jobs`
//! count.

use reach::{ConfigFingerprint, RunReport};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Hit/miss counters of a [`ResultCache`], cheap to copy out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a stored or in-flight report.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<ConfigFingerprint, RunReport>,
    order: VecDeque<ConfigFingerprint>,
}

/// A bounded map from configuration fingerprint to finished run report,
/// with FIFO eviction. Thread-safe; shared behind an `Arc` by every clone
/// of a `ScenarioRunner`.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// Default bound: holds a cold full-suite pass (164 scenario reports
    /// and 10 fleet reports) without evicting, and keeps a long-running
    /// process from growing unbounded.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// An empty FIFO cache bounded to [`Self::DEFAULT_CAPACITY`] entries.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty FIFO cache holding at most `capacity` reports (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The stored report for `fp`, if any. Does **not** touch the hit/miss
    /// counters — accounting is the caller's policy (the runner counts
    /// in-batch duplicates as hits even though the leader's report is not
    /// stored yet).
    #[must_use]
    pub fn get(&self, fp: &ConfigFingerprint) -> Option<RunReport> {
        self.inner
            .lock()
            .expect("result cache poisoned")
            .map
            .get(fp)
            .cloned()
    }

    /// Stores `report` under `fp`, evicting the oldest entry if the cache
    /// is full. Re-inserting an existing key refreshes the report without
    /// consuming capacity.
    pub fn insert(&self, fp: ConfigFingerprint, report: RunReport) {
        let mut inner = self.inner.lock().expect("result cache poisoned");
        if inner.map.insert(fp, report).is_some() {
            return;
        }
        inner.order.push_back(fp);
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
            }
        }
    }

    /// Counts one lookup answered without simulating.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one lookup that had to simulate.
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Current hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of reports currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("result cache poisoned").map.len()
    }

    /// Whether the cache holds no reports.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured entry bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::{MachineBlueprint, Scenario};
    use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirScenario, CbirWorkload};

    fn fp_of(nm: usize) -> (ConfigFingerprint, RunReport) {
        let s = CbirScenario::full(
            "cache-test",
            blueprint_with(nm, 2),
            CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::AllOnChip),
            1,
        );
        (s.config_fingerprint().expect("cacheable"), s.execute())
    }

    #[test]
    fn round_trips_a_report() {
        let cache = ResultCache::new();
        let (fp, report) = fp_of(2);
        assert!(cache.get(&fp).is_none());
        cache.insert(fp, report.clone());
        let back = cache.get(&fp).expect("stored");
        assert_eq!(back.to_string(), report.to_string());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn evicts_oldest_first_at_capacity() {
        let cache = ResultCache::with_capacity(2);
        let (fp_a, r_a) = fp_of(1);
        let (fp_b, r_b) = fp_of(2);
        let (fp_c, r_c) = fp_of(3);
        cache.insert(fp_a, r_a.clone());
        cache.insert(fp_b, r_b);
        // Refreshing an existing key must not evict anything.
        cache.insert(fp_a, r_a);
        assert_eq!(cache.len(), 2);
        cache.insert(fp_c, r_c);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&fp_a).is_none(), "oldest entry evicted");
        assert!(cache.get(&fp_b).is_some());
        assert!(cache.get(&fp_c).is_some());
    }

    #[test]
    fn counters_are_explicit() {
        let cache = ResultCache::new();
        let (fp, _) = fp_of(2);
        // `get` never counts on its own.
        let _ = cache.get(&fp);
        assert_eq!(cache.stats(), CacheStats::default());
        cache.record_miss();
        cache.record_hit();
        cache.record_hit();
        assert_eq!(cache.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn fingerprint_distinguishes_machine_shapes() {
        // Sanity for the cache key itself: the blueprint knob the sweep
        // varies must produce distinct keys.
        let _ = MachineBlueprint::paper();
        let (fp_a, _) = fp_of(2);
        let (fp_b, _) = fp_of(4);
        assert_ne!(fp_a, fp_b);
    }
}
