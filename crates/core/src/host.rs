//! Host-side query arrival and batching.
//!
//! The paper assumes "user query inputs are sufficiently frequent for
//! batched processing in order to improve the throughput of the system".
//! This module makes that assumption a model: queries arrive as a stream
//! (deterministic or exponential inter-arrivals), a [`Batcher`] closes a
//! batch when it is full or a deadline expires, and [`drive`] replays the
//! resulting batch schedule through a [`crate::Pipeline`], reporting
//! *per-query* end-to-end latency (arrival → job completion) instead of the
//! per-batch numbers the rest of the workspace reports.
//!
//! This is what turns the paper's throughput statement into an operating
//! curve: as offered load approaches the pipeline's bottleneck-stage
//! service rate, queueing delay takes over — and the proper ReACH mapping
//! sustains ~4.5x the arrival rate of the on-chip baseline before it does.

use crate::api::Pipeline;
use crate::machine::Machine;
use reach_sim::{SimDuration, SimTime};

// The arrival-process family grew into the open-loop serving layer; it
// lives in [`crate::traffic`] now and is re-exported here so existing
// `reach::host::ArrivalProcess` callers keep compiling.
pub use crate::traffic::ArrivalProcess;

/// Groups query arrivals into batches.
#[derive(Clone, Copy, Debug)]
pub struct Batcher {
    /// Queries per batch.
    pub batch_size: usize,
    /// A batch closes after this long even if not full (tail-latency
    /// guard); `None` waits for a full batch.
    pub max_wait: Option<SimDuration>,
}

/// One formed batch: when it closed and which arrivals it carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormedBatch {
    /// The instant the batch was dispatched to the hierarchy.
    pub ready_at: SimTime,
    /// Arrival instants of the member queries.
    pub arrivals: Vec<SimTime>,
}

impl Batcher {
    /// Forms batches from a sorted arrival sequence.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero or arrivals are unsorted.
    #[must_use]
    pub fn form(&self, arrivals: &[SimTime]) -> Vec<FormedBatch> {
        assert!(self.batch_size > 0, "Batcher: zero batch size");
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "Batcher: arrivals must be sorted"
        );
        let mut batches = Vec::new();
        let mut current: Vec<SimTime> = Vec::new();
        for &t in arrivals {
            // Close the pending batch first if its deadline passed before
            // this arrival.
            if let (Some(wait), Some(&first)) = (self.max_wait, current.first()) {
                let deadline = first + wait;
                if t > deadline && !current.is_empty() {
                    batches.push(FormedBatch {
                        ready_at: deadline,
                        arrivals: std::mem::take(&mut current),
                    });
                }
            }
            current.push(t);
            if current.len() == self.batch_size {
                batches.push(FormedBatch {
                    ready_at: t,
                    arrivals: std::mem::take(&mut current),
                });
            }
        }
        if !current.is_empty() {
            let first = *current.first().expect("non-empty");
            let ready = match self.max_wait {
                Some(wait) => first + wait,
                None => *current.last().expect("non-empty"),
            };
            batches.push(FormedBatch {
                ready_at: ready,
                arrivals: current,
            });
        }
        batches
    }
}

/// Per-query latency statistics of a driven run.
#[derive(Clone, Debug)]
pub struct QueryLatencyReport {
    /// Queries served.
    pub queries: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Mean arrival-to-completion latency over all queries.
    pub mean: SimDuration,
    /// Worst query latency.
    pub max: SimDuration,
    /// The underlying machine report.
    pub run: crate::report::RunReport,
}

/// Replays `batches` through `pipeline` on `machine`, submitting each batch
/// job at its formation instant, and reports per-query latency.
///
/// # Panics
///
/// Panics if `batches` is empty or job completions cannot be matched to
/// batches (internal error).
#[must_use]
pub fn drive(
    pipeline: &Pipeline,
    machine: &mut Machine,
    batches: &[FormedBatch],
) -> QueryLatencyReport {
    assert!(!batches.is_empty(), "host::drive: no batches");
    for (i, b) in batches.iter().enumerate() {
        let (job, works) = pipeline.job_for_batch(i as u64);
        machine.submit_at(b.ready_at, job, works);
    }
    let run = machine.run();
    assert_eq!(run.jobs as usize, batches.len(), "lost a batch");

    // Completion instants: submission + per-job latency, in job order.
    let mut total = SimDuration::ZERO;
    let mut worst = SimDuration::ZERO;
    let mut queries = 0usize;
    for (b, complete) in batches.iter().zip(run.job_completions()) {
        for &arrival in &b.arrivals {
            let lat = complete.since(arrival);
            total += lat;
            worst = worst.max(lat);
            queries += 1;
        }
    }
    QueryLatencyReport {
        queries,
        batches: batches.len(),
        mean: total / queries as u64,
        max: worst,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_ms(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let a = ArrivalProcess::Uniform { gap: ms(5) }.arrivals(4);
        assert_eq!(a, vec![at(0), at(5), at(10), at(15)]);
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_reproducible() {
        let p = ArrivalProcess::Poisson {
            mean_gap: ms(2),
            seed: 9,
        };
        let a = p.arrivals(100);
        let b = p.arrivals(100);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap within 3x of nominal for 100 samples.
        let span = a.last().unwrap().since(a[0]).as_ms_f64();
        assert!(span > 60.0 && span < 600.0, "span {span} ms");
    }

    #[test]
    fn batcher_closes_on_size() {
        let arrivals: Vec<SimTime> = (0..6).map(at).collect();
        let b = Batcher {
            batch_size: 3,
            max_wait: None,
        }
        .form(&arrivals);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].ready_at, at(2));
        assert_eq!(b[1].ready_at, at(5));
        assert_eq!(b[0].arrivals.len(), 3);
    }

    #[test]
    fn batcher_closes_on_deadline() {
        // Arrivals at 0 and 100 ms with a 10 ms deadline: the first batch
        // closes at 10 ms with one query.
        let arrivals = vec![at(0), at(100)];
        let b = Batcher {
            batch_size: 16,
            max_wait: Some(ms(10)),
        }
        .form(&arrivals);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].ready_at, at(10));
        assert_eq!(b[0].arrivals, vec![at(0)]);
        assert_eq!(b[1].ready_at, at(110));
    }

    #[test]
    fn trailing_partial_batch_without_deadline_closes_at_last_arrival() {
        let arrivals = vec![at(0), at(1)];
        let b = Batcher {
            batch_size: 16,
            max_wait: None,
        }
        .form(&arrivals);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].ready_at, at(1));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_rejected() {
        let _ = Batcher {
            batch_size: 2,
            max_wait: None,
        }
        .form(&[at(5), at(1)]);
    }

    #[test]
    #[should_panic(expected = "zero batch size")]
    fn zero_batch_size_rejected() {
        let _ = Batcher {
            batch_size: 0,
            max_wait: None,
        }
        .form(&[at(0)]);
    }

    #[test]
    fn no_arrivals_form_no_batches() {
        let b = Batcher {
            batch_size: 4,
            max_wait: Some(ms(1)),
        };
        assert!(b.form(&[]).is_empty());
    }

    #[test]
    fn arrival_on_the_deadline_joins_the_batch() {
        let b = Batcher {
            batch_size: 16,
            max_wait: Some(ms(10)),
        }
        .form(&[at(0), at(10)]);
        assert_eq!(
            b,
            vec![FormedBatch {
                ready_at: at(10),
                arrivals: vec![at(0), at(10)],
            }]
        );
    }

    #[test]
    fn full_batch_closes_before_its_deadline() {
        let b = Batcher {
            batch_size: 2,
            max_wait: Some(ms(10)),
        }
        .form(&[at(0), at(1), at(2)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].ready_at, at(1));
        // The leftover query waits out its own deadline.
        assert_eq!(b[1].ready_at, at(12));
        assert_eq!(b[1].arrivals, vec![at(2)]);
    }
}
