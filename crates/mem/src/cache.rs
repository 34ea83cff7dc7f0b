//! Geometry of the shared last-level cache.
//!
//! The on-chip accelerator in ReACH is coherently attached to the LLC. The
//! simulator has no hit/miss model of it: on-chip traffic streams from
//! DRAM at a rate capped by the accelerator's 100 GB/s cache port, and
//! every `line_bytes` of it is billed as one cache access for energy. The
//! line size is therefore the only geometry the model keeps; the paper's
//! 2 MiB, 16-way capacity and associativity would shape a hit/miss model
//! that does not exist.

/// Geometry of a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The paper's shared L2 (2 MiB, 16-way): 64 B lines.
    #[must_use]
    pub fn shared_l2_2mb() -> Self {
        CacheConfig { line_bytes: 64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_l2_is_the_papers_geometry() {
        assert_eq!(CacheConfig::shared_l2_2mb().line_bytes, 64);
    }
}
