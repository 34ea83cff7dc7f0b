//! Geometry of the shared last-level cache.
//!
//! The on-chip accelerator in ReACH is coherently attached to the LLC. The
//! simulator has no hit/miss model of it: on-chip traffic streams from
//! DRAM at a rate capped by the accelerator's 100 GB/s cache port, and
//! every `line_bytes` of it is billed as one cache access for energy.
//! Capacity and associativity describe the paper's configuration and are
//! part of the machine blueprint's key; nothing reads them.

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's shared L2: 2 MiB, 16-way, 64 B lines.
    #[must_use]
    pub fn shared_l2_2mb() -> Self {
        CacheConfig {
            capacity: 2 << 20,
            ways: 16,
            line_bytes: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_l2_is_the_papers_geometry() {
        let c = CacheConfig::shared_l2_2mb();
        assert_eq!(c.capacity, 2 * 1024 * 1024);
        assert_eq!(c.ways, 16);
        assert_eq!(c.line_bytes, 64);
        // Whole sets: 2 MiB / (16 ways x 64 B) = 2048.
        assert_eq!(c.capacity % (c.ways * c.line_bytes), 0);
        assert_eq!(c.capacity / (c.ways * c.line_bytes), 2048);
    }
}
