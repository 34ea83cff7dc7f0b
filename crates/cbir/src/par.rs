//! Deterministic chunked parallelism for the offline CBIR kernels.
//!
//! The same contract as `reach-bench::ScenarioRunner`, applied inside a
//! kernel: work is cut into **fixed-size chunks whose boundaries never
//! depend on the worker count**, every chunk writes a disjoint slice of the
//! output, and each output element is produced by exactly the same scalar
//! code (same floating-point accumulation order) whether the chunk runs on
//! the calling thread or a spawned one. Results are therefore byte-identical
//! at any worker count — there is nothing to re-verify when the machine or
//! `REACH_KERNEL_JOBS` changes, which is what lets the experiments suite
//! keep its byte-identical-stdout determinism contract while the kernels
//! fan out.
//!
//! Chunks are pre-partitioned round-robin instead of pulled from a shared
//! queue: the chunks of one kernel call are uniform in cost, so work
//! stealing would buy nothing and dynamic assignment would add
//! synchronization for zero benefit (scheduling still cannot change the
//! result — it would only add atomics to prove it).

use std::sync::OnceLock;

/// Rows per work unit. Fixed: chunk *boundaries* must not depend on the
/// worker count, or per-chunk code could see different slice extents.
pub(crate) const CHUNK_ROWS: usize = 64;

/// What `REACH_KERNEL_JOBS` asked for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobsRequest {
    /// Unset or empty: use the machine's available parallelism.
    Auto,
    /// A positive worker count.
    Exact(usize),
    /// Anything else (`0`, `abc`, `-1`): warned about, then treated as
    /// [`JobsRequest::Auto`].
    Invalid,
}

/// Parses a `REACH_KERNEL_JOBS` value. Pure so the table is unit-testable
/// without touching the process environment or the `OnceLock`.
fn parse_jobs(value: Option<&str>) -> JobsRequest {
    match value {
        None | Some("") => JobsRequest::Auto,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => JobsRequest::Exact(n),
            _ => JobsRequest::Invalid,
        },
    }
}

/// Worker threads used by the parallel kernels: `REACH_KERNEL_JOBS` if set
/// (use `1` to force the sequential path), otherwise the machine's available
/// parallelism. An invalid value gets one stderr note and the default.
pub(crate) fn kernel_jobs() -> usize {
    static JOBS: OnceLock<usize> = OnceLock::new();
    *JOBS.get_or_init(|| {
        let var = std::env::var("REACH_KERNEL_JOBS").ok();
        let available = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        match parse_jobs(var.as_deref()) {
            JobsRequest::Exact(n) => n,
            JobsRequest::Auto => available(),
            JobsRequest::Invalid => {
                let jobs = available();
                eprintln!(
                    "(kernel jobs: {jobs} — invalid REACH_KERNEL_JOBS={:?}, expected a positive integer)",
                    var.as_deref().unwrap_or_default()
                );
                jobs
            }
        }
    })
}

/// Runs `work` over every item, fanning out across up to `jobs` scoped
/// threads. Item `i` goes to worker `i % jobs` (round-robin), so the
/// partition is a pure function of the item list and the job count — and
/// since each item owns a disjoint `&mut` output slice, the result does not
/// depend on the partition at all.
pub(crate) fn run_items<I, F>(items: Vec<I>, jobs: usize, work: F)
where
    I: Send,
    F: Fn(I) + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        for item in items {
            work(item);
        }
        return;
    }
    let mut buckets: Vec<Vec<I>> = Vec::with_capacity(jobs);
    buckets.resize_with(jobs, Vec::new);
    for (i, item) in items.into_iter().enumerate() {
        buckets[i % jobs].push(item);
    }
    let work = &work;
    std::thread::scope(|scope| {
        for bucket in buckets {
            if bucket.is_empty() {
                continue;
            }
            scope.spawn(move || {
                for item in bucket {
                    work(item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_jobs_values_parse() {
        use JobsRequest::{Auto, Exact, Invalid};
        for (value, want) in [
            (None, Auto),
            (Some(""), Auto),
            (Some("1"), Exact(1)),
            (Some("8"), Exact(8)),
            (Some("0"), Invalid),
            (Some("abc"), Invalid),
            (Some("-1"), Invalid),
            (Some(" 4"), Invalid),
            (Some("4.0"), Invalid),
        ] {
            assert_eq!(parse_jobs(value), want, "{value:?}");
        }
    }

    #[test]
    fn all_items_run_exactly_once() {
        let n = 1000;
        let mut out = vec![0u32; n];
        let items: Vec<(usize, &mut u32)> = out.iter_mut().enumerate().collect();
        run_items(items, 4, |(i, slot)| *slot = i as u32 + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u32 + 1);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let n = 257;
        let mut seq = vec![0u64; n];
        let mut par = vec![0u64; n];
        run_items(seq.iter_mut().enumerate().collect(), 1, |(i, s)| {
            *s = (i as u64).wrapping_mul(0x9e37_79b9)
        });
        run_items(par.iter_mut().enumerate().collect(), 7, |(i, s)| {
            *s = (i as u64).wrapping_mul(0x9e37_79b9)
        });
        assert_eq!(seq, par);
    }
}
