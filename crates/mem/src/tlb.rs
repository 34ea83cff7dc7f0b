//! Accelerator address translation: TLB + page-walk cost.
//!
//! Figure 2 of the paper: "virtual memory capabilities are supported by
//! implementing TLBs and page table walkers for the accelerator" (citing
//! the authors' HPCA'17 work). For streaming kernels translation is
//! invisible — one walk covers two megabytes of accesses — but for the
//! gather patterns the rerank stage produces, every touched page can miss
//! a small accelerator TLB, and the walk latency rides on the critical
//! path. This module provides the functional TLB (fully associative,
//! true-LRU) and the machine bills walk latency per miss.

use std::collections::VecDeque;

/// TLB geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries (fully associative).
    pub entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl TlbConfig {
    /// A 64-entry, 4 KiB-page accelerator TLB — the IOMMU-class design the
    /// paper's citation evaluates.
    #[must_use]
    pub fn accelerator_64() -> Self {
        TlbConfig {
            entries: 64,
            page_bytes: 4 << 10,
        }
    }
}

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that required a page walk.
    pub misses: u64,
}

impl TlbStats {
    /// Hit fraction in `[0, 1]`; 0 when unused.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A fully associative, true-LRU translation look-aside buffer.
///
/// # Example
///
/// ```
/// use reach_mem::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::accelerator_64());
/// assert!(!tlb.access(0x1000));      // cold miss, walk required
/// assert!(tlb.access(0x1fff));       // same page: hit
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// Resident page numbers, most recently used at the back.
    resident: VecDeque<u64>,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics on zero entries or a zero page size.
    #[must_use]
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.entries > 0, "Tlb: zero entries");
        assert!(config.page_bytes > 0, "Tlb: zero page size");
        Tlb {
            config,
            resident: VecDeque::with_capacity(config.entries),
            stats: TlbStats::default(),
        }
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Translates the page containing `vaddr`; returns `true` on a hit.
    /// On a miss the mapping is filled (evicting the LRU entry when full)
    /// and the caller bills one page walk.
    pub fn access(&mut self, vaddr: u64) -> bool {
        let page = vaddr / self.config.page_bytes;
        if let Some(pos) = self.resident.iter().position(|&p| p == page) {
            self.resident.remove(pos);
            self.resident.push_back(page);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if self.resident.len() == self.config.entries {
            self.resident.pop_front();
        }
        self.resident.push_back(page);
        false
    }

    /// Estimated page-walk count for a *random* gather of `records` records
    /// of `granule` bytes spread over `span_bytes` of address space —
    /// the closed-form the timing model uses so multi-gigabyte gathers need
    /// no per-record simulation. When the touched page set exceeds the TLB,
    /// nearly every new page misses.
    #[must_use]
    pub fn estimated_walks(&self, records: u64, granule: u64, span_bytes: u64) -> u64 {
        let pages_spanned = span_bytes.div_ceil(self.config.page_bytes).max(1);
        let records_per_page = (self.config.page_bytes / granule.max(1)).max(1);
        let touched = (records / records_per_page).min(pages_spanned);
        if touched <= self.config.entries as u64 {
            // Working set fits: each page walks once.
            touched
        } else {
            // Thrashing: one walk per page visit.
            records.div_ceil(records_per_page)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: usize) -> Tlb {
        Tlb::new(TlbConfig {
            entries,
            page_bytes: 4096,
        })
    }

    #[test]
    fn same_page_hits() {
        let mut t = tlb(4);
        assert!(!t.access(0));
        assert!(t.access(4095));
        assert!(!t.access(4096));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
        assert_eq!(t.stats().hit_rate(), 1.0 / 3.0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = tlb(2);
        t.access(0); // page 0
        t.access(4096); // page 1
        t.access(0); // refresh 0
        t.access(8192); // page 2 evicts page 1
        assert!(t.access(0), "page 0 should survive");
        assert!(!t.access(4096), "page 1 was LRU");
    }

    #[test]
    fn working_set_within_capacity_hits_steady_state() {
        let mut t = tlb(8);
        for round in 0..3 {
            for p in 0..8u64 {
                let hit = t.access(p * 4096);
                if round > 0 {
                    assert!(hit, "round {round} page {p} missed");
                }
            }
        }
        assert_eq!(t.stats().misses, 8);
    }

    #[test]
    fn estimated_walks_matches_regimes() {
        let t = tlb(64);
        // 32 pages touched, fits: 32 walks.
        assert_eq!(t.estimated_walks(32, 4096, 1 << 30), 32);
        // 1M records of one page each over a huge span: thrash, 1M walks.
        assert_eq!(t.estimated_walks(1 << 20, 4096, 1 << 40), 1 << 20);
        // Small records share pages: 4096 records x 64 B = 64 pages.
        assert_eq!(t.estimated_walks(4096, 64, 1 << 30), 64);
        // Span smaller than the record count implies revisits capped by span.
        assert_eq!(t.estimated_walks(1_000, 4096, 16 * 4096), 16);
    }

    #[test]
    fn estimate_agrees_with_simulation_when_fitting() {
        // Direct check: random-ish strided access over 48 pages with a
        // 64-entry TLB misses exactly 48 times.
        let mut t = tlb(64);
        for i in 0..480u64 {
            t.access((i % 48) * 4096 + (i * 97) % 4096);
        }
        assert_eq!(t.stats().misses, 48);
        assert_eq!(t.estimated_walks(480, 4096, 48 * 4096), 48);
    }

    #[test]
    fn hit_rate_is_zero_when_unused() {
        let t = Tlb::new(TlbConfig::accelerator_64());
        assert_eq!(t.stats().hit_rate(), 0.0);
        assert_eq!(t.config().entries, 64);
        assert_eq!(t.config().page_bytes, 4096);
    }

    #[test]
    #[should_panic(expected = "zero entries")]
    fn zero_entries_rejected() {
        let _ = tlb(0);
    }

    #[test]
    #[should_panic(expected = "zero page size")]
    fn zero_page_size_rejected() {
        let _ = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes: 0,
        });
    }

    #[test]
    fn estimated_walks_edge_geometry() {
        let t = tlb(64);
        // An empty span still counts as one page.
        assert_eq!(t.estimated_walks(100, 4096, 0), 1);
        // Records wider than a page each start a new page.
        assert_eq!(t.estimated_walks(10, 8192, 1 << 30), 10);
        // A zero granule is treated as one byte, not a division by zero.
        assert_eq!(t.estimated_walks(8192, 0, 1 << 30), 2);
        // Nothing gathered, nothing walked.
        assert_eq!(t.estimated_walks(0, 64, 1 << 30), 0);
    }

    #[test]
    fn thrashing_cycle_misses_every_access() {
        // Cycling over one page more than the TLB holds evicts each page
        // just before it is revisited.
        let mut t = tlb(4);
        for i in 0..50u64 {
            assert!(!t.access((i % 5) * 4096));
        }
        assert_eq!(t.stats().hits, 0);
        assert_eq!(t.stats().misses, 50);
    }
}
