//! Open-loop traffic: arrival processes.
//!
//! Closed-loop runs submit a fixed number of batches up front, so the
//! machine always has work and latency reflects only the pipeline. Serving
//! real traffic is open-loop: arrivals keep coming whether or not the
//! hierarchy keeps up, and the interesting curve is latency (and
//! rejections) versus *offered load*. [`ArrivalProcess`] generates the
//! arrival instants — uniform, Poisson, MMPP-style on/off bursts, recorded
//! traces — every stochastic variant drawn from [`reach_sim::rng`] streams
//! so a run replays bit-for-bit from its seed. A
//! [`crate::spec::JobSource::Open`] tenant submits jobs at those instants,
//! optionally through a bounded admission queue: an arrival that finds the
//! queue full is rejected and counted under `gam.jobs_rejected`, not
//! queued forever — which is what keeps a past-saturation simulation
//! finite.
//!
//! The per-stage and end-to-end latency distributions of the admitted jobs
//! come out of the machine's [`reach_sim::LatencyHistogram`] telemetry
//! (`latency.job.*` / `latency.stage.*` counters in the metrics snapshot).

use rand::rngs::StdRng;
use rand::Rng;
use reach_sim::{SimDuration, SimTime};

/// An arrival process: generates the instants at which queries (or query
/// batches) reach the host. All variants are deterministic functions of
/// their parameters — the stochastic ones embed their seed.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Fixed inter-arrival gap.
    Uniform {
        /// Time between consecutive queries.
        gap: SimDuration,
    },
    /// Poisson arrivals (exponential gaps) with the given mean gap,
    /// generated deterministically from a seed.
    Poisson {
        /// Mean time between queries.
        mean_gap: SimDuration,
        /// RNG seed.
        seed: u64,
    },
    /// MMPP-style on/off bursts: during an ON period arrivals are Poisson
    /// with mean gap `on_gap`; ON-period and OFF-period lengths are
    /// themselves exponential with means `burst` and `idle`. The long-run
    /// rate is `(burst / (burst + idle)) / on_gap`, delivered in clumps.
    Bursty {
        /// Mean inter-arrival gap while a burst is on.
        on_gap: SimDuration,
        /// Mean ON-period (burst) length.
        burst: SimDuration,
        /// Mean OFF-period (idle) length between bursts.
        idle: SimDuration,
        /// RNG seed.
        seed: u64,
    },
    /// Trace-driven: replays recorded inter-arrival gaps verbatim, cycling
    /// from the start if more arrivals are requested than the trace holds.
    Trace {
        /// Inter-arrival gaps, applied in order from `SimTime::ZERO`.
        gaps: Vec<SimDuration>,
    },
}

/// One exponential draw with the given mean; strictly positive because the
/// uniform sample is drawn from `[EPSILON, 1)`.
fn exp_gap(rng: &mut StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
}

impl ArrivalProcess {
    /// Generates the arrival instants of `count` queries, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics on a [`ArrivalProcess::Trace`] with no gaps.
    #[must_use]
    pub fn arrivals(&self, count: usize) -> Vec<SimTime> {
        match self {
            ArrivalProcess::Uniform { gap } => (0..count as u64)
                .map(|i| SimTime::ZERO + gap.scaled(i))
                .collect(),
            ArrivalProcess::Poisson { mean_gap, seed } => {
                let mut rng = reach_sim::rng::derived(*seed, "arrivals");
                let mut t = SimTime::ZERO;
                (0..count)
                    .map(|_| {
                        t += exp_gap(&mut rng, *mean_gap);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                on_gap,
                burst,
                idle,
                seed,
            } => {
                let mut rng = reach_sim::rng::derived(*seed, "arrivals-bursty");
                let mut t = SimTime::ZERO;
                let mut window_end = t + exp_gap(&mut rng, *burst);
                let mut out = Vec::with_capacity(count);
                while out.len() < count {
                    let next = t + exp_gap(&mut rng, *on_gap);
                    if next <= window_end {
                        // Still inside the burst.
                        t = next;
                        out.push(t);
                    } else {
                        // The burst ended first: sit out an idle period,
                        // then open the next burst window.
                        let reopen = window_end + exp_gap(&mut rng, *idle);
                        t = reopen;
                        window_end = reopen + exp_gap(&mut rng, *burst);
                    }
                }
                out
            }
            ArrivalProcess::Trace { gaps } => {
                assert!(!gaps.is_empty(), "ArrivalProcess::Trace: empty gap trace");
                let mut t = SimTime::ZERO;
                (0..count)
                    .map(|i| {
                        t += gaps[i % gaps.len()];
                        t
                    })
                    .collect()
            }
        }
    }

    /// Records this process as a replayable trace: the inter-arrival gaps
    /// of its first `count` arrivals. `Trace { gaps: p.record_trace(n) }`
    /// replays `p`'s first `n` arrivals bit-for-bit.
    #[must_use]
    pub fn record_trace(&self, count: usize) -> Vec<SimDuration> {
        let instants = self.arrivals(count);
        let mut prev = SimTime::ZERO;
        instants
            .into_iter()
            .map(|t| {
                let gap = t.since(prev);
                prev = t;
                gap
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_ms(n)
    }

    #[test]
    fn uniform_arrivals_are_evenly_spaced() {
        let a = ArrivalProcess::Uniform { gap: ms(5) }.arrivals(4);
        let at = |n: u64| SimTime::ZERO + ms(n);
        assert_eq!(a, vec![at(0), at(5), at(10), at(15)]);
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_reproducible() {
        let p = ArrivalProcess::Poisson {
            mean_gap: ms(2),
            seed: 9,
        };
        let a = p.arrivals(100);
        assert_eq!(a, p.arrivals(100));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Mean gap within 3x of nominal for 100 samples.
        let span = a.last().unwrap().since(a[0]).as_ms_f64();
        assert!(span > 60.0 && span < 600.0, "span {span} ms");
    }

    #[test]
    fn bursty_arrivals_are_sorted_reproducible_and_clumped() {
        let p = ArrivalProcess::Bursty {
            on_gap: ms(1),
            burst: ms(20),
            idle: ms(200),
            seed: 11,
        };
        let a = p.arrivals(200);
        assert_eq!(a, p.arrivals(200));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Burstiness: with 1 ms on-gaps separated by ~200 ms idles, the
        // largest gap dwarfs the median gap.
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1].since(w[0]).as_ps()).collect();
        let mut sorted = gaps.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let max = *sorted.last().unwrap();
        assert!(
            max > 10 * median.max(1),
            "no burst structure: median {median} ps, max {max} ps"
        );
    }

    #[test]
    fn trace_replays_and_cycles() {
        let trace = ArrivalProcess::Trace {
            gaps: vec![ms(3), ms(1)],
        };
        let a = trace.arrivals(5);
        let at = |n: u64| SimTime::ZERO + ms(n);
        assert_eq!(a, vec![at(3), at(4), at(7), at(8), at(11)]);
    }

    #[test]
    fn recorded_trace_replays_any_process_bit_for_bit() {
        let bursty = ArrivalProcess::Bursty {
            on_gap: ms(2),
            burst: ms(30),
            idle: ms(100),
            seed: 5,
        };
        let trace = ArrivalProcess::Trace {
            gaps: bursty.record_trace(64),
        };
        assert_eq!(bursty.arrivals(64), trace.arrivals(64));
    }

    #[test]
    #[should_panic(expected = "empty gap trace")]
    fn empty_trace_rejected() {
        let _ = ArrivalProcess::Trace { gaps: vec![] }.arrivals(1);
    }
}
