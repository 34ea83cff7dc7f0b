//! Task work descriptors: how a task touches data and how much it computes.

/// The data-access pattern of a task at its compute level's attached medium.
///
/// The machine prices each pattern against the level the task runs at:
/// a `Stream` on-chip goes through the coherent cache hierarchy, a `Stream`
/// near memory reads the module's own DIMM, a `Stream` near storage reads
/// the unit's own SSD — and the same for `Gather` with the appropriate
/// random-access penalties. This is how one application description maps to
/// very different costs at different levels, which is the paper's core
/// observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataAccess {
    /// No bulk data movement during execution (inputs fit in SPM and were
    /// staged by the GAM).
    None,
    /// Sequential scan of `bytes` from the level's medium.
    Stream {
        /// Total bytes scanned.
        bytes: u64,
    },
    /// Random access of `bytes` in `granule`-byte units (64 B lines in
    /// DRAM, 4 KiB pages on flash).
    Gather {
        /// Total bytes gathered.
        bytes: u64,
        /// Access granule in bytes.
        granule: u64,
    },
    /// Input arrives from the level's stream buffer / scratchpad (already
    /// placed there by a GAM DMA); consumption is bounded only by the
    /// kernel's datapath.
    Resident {
        /// Bytes consumed from the stream buffer.
        bytes: u64,
    },
}

impl DataAccess {
    /// Total bytes this access touches.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        match *self {
            DataAccess::None => 0,
            DataAccess::Stream { bytes }
            | DataAccess::Gather { bytes, .. }
            | DataAccess::Resident { bytes } => bytes,
        }
    }
}

/// Everything the machine needs to price one task beyond its kernel
/// template: arithmetic work and the data-access pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskWork {
    /// Multiply-accumulate operations the task performs.
    pub macs: u64,
    /// How the task touches bulk data while executing.
    pub access: DataAccess,
}

impl TaskWork {
    /// A pure-compute task.
    #[must_use]
    pub fn compute(macs: u64) -> Self {
        TaskWork {
            macs,
            access: DataAccess::None,
        }
    }

    /// A streaming task: `macs` of compute over a sequential scan of
    /// `bytes`.
    #[must_use]
    pub fn stream(macs: u64, bytes: u64) -> Self {
        TaskWork {
            macs,
            access: DataAccess::Stream { bytes },
        }
    }

    /// A gathering task: `macs` of compute over random `granule`-sized
    /// accesses totalling `bytes`.
    #[must_use]
    pub fn gather(macs: u64, bytes: u64, granule: u64) -> Self {
        assert!(granule > 0, "TaskWork::gather: zero granule");
        TaskWork {
            macs,
            access: DataAccess::Gather { bytes, granule },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_patterns() {
        assert_eq!(TaskWork::compute(5).access, DataAccess::None);
        assert_eq!(
            TaskWork::stream(1, 64).access,
            DataAccess::Stream { bytes: 64 }
        );
        assert_eq!(
            TaskWork::gather(1, 128, 64).access,
            DataAccess::Gather {
                bytes: 128,
                granule: 64
            }
        );
    }

    #[test]
    fn bytes_accessor() {
        assert_eq!(DataAccess::None.bytes(), 0);
        assert_eq!(DataAccess::Stream { bytes: 7 }.bytes(), 7);
        assert_eq!(
            DataAccess::Gather {
                bytes: 9,
                granule: 3
            }
            .bytes(),
            9
        );
        assert_eq!(DataAccess::Resident { bytes: 11 }.bytes(), 11);
    }

    #[test]
    #[should_panic(expected = "zero granule")]
    fn zero_granule_rejected() {
        let _ = TaskWork::gather(0, 64, 0);
    }

    #[test]
    fn constructors_keep_macs_and_leave_the_label_unset() {
        for w in [
            TaskWork::compute(3),
            TaskWork::stream(3, 64),
            TaskWork::gather(3, 64, 8),
        ] {
            assert_eq!(w.macs, 3);
        }
    }
}
