//! Property tests over the simulation primitives.

use proptest::prelude::*;
use reach_sim::{Bandwidth, EventQueue, Frequency, MultiResource, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An independent reference implementation of the event-queue contract: a
/// binary heap of `Reverse((time, seq, payload))` tuples with `now`
/// advancing on pop. [`EventQueue`] must be behaviorally indistinguishable
/// from it.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    next_seq: u64,
    now: u64,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    fn push(&mut self, at: u64, payload: u32) {
        assert!(at >= self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let Reverse((at, _, payload)) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }

    fn pop_batch(&mut self, out: &mut Vec<u32>) -> Option<u64> {
        out.clear();
        let (at, payload) = self.pop()?;
        out.push(payload);
        while let Some(&Reverse((t, _, _))) = self.heap.peek() {
            if t != at {
                break;
            }
            out.push(self.heap.pop().expect("peeked").0 .2);
        }
        Some(at)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The event queue pops in exactly (time, insertion) order — equivalent
    /// to a stable sort of the input by timestamp.
    #[test]
    fn event_queue_is_a_stable_sort(times in proptest::collection::vec(0u64..1_000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ps(t), i);
        }
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, i)| (t.as_ps(), i)).collect();
        let mut want: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        want.sort_by_key(|&(t, _)| t); // stable: preserves insertion order
        prop_assert_eq!(got, want);
    }

    /// [`EventQueue`] and the binary-heap reference produce
    /// identical pop sequences (and identical `now`) over randomized
    /// push/pop/`push_in`/batch-pop interleavings, including same-instant
    /// ties — the ordering contract the simulator's determinism rests on.
    #[test]
    fn calendar_matches_binary_heap_reference(
        ops in proptest::collection::vec((0u8..8, 0u64..50_000), 1..400),
    ) {
        let mut cal: EventQueue<u32> = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut next_payload = 0u32;
        let mut cal_batch = Vec::new();
        let mut heap_batch = Vec::new();
        for &(kind, delta) in &ops {
            match kind {
                // Push at an absolute future time; delta % 4 == 0 forces
                // frequent same-instant collisions via coarse quantization.
                0..=2 => {
                    let at = heap.now + if delta % 4 == 0 { 0 } else { delta / 4 };
                    cal.push(SimTime::from_ps(at), next_payload);
                    heap.push(at, next_payload);
                    next_payload += 1;
                }
                // Relative scheduling, far-future included so pending
                // times span several orders of magnitude.
                3..=4 => {
                    let d = delta * 1_000_003; // up to ~50 us out
                    cal.push_in(SimDuration::from_ps(d), next_payload);
                    heap.push(heap.now + d, next_payload);
                    next_payload += 1;
                }
                5..=6 => {
                    let got = cal.pop().map(|(t, e)| (t.as_ps(), e));
                    prop_assert_eq!(got, heap.pop());
                }
                _ => {
                    let t_cal = cal.pop_batch_into(&mut cal_batch).map(SimTime::as_ps);
                    let t_heap = heap.pop_batch(&mut heap_batch);
                    prop_assert_eq!(t_cal, t_heap);
                    prop_assert_eq!(&cal_batch, &heap_batch);
                }
            }
            prop_assert_eq!(cal.now().as_ps(), heap.now);
            prop_assert_eq!(cal.len(), heap.heap.len());
        }
        // Drain whatever is left and compare the tails.
        loop {
            let got = cal.pop().map(|(t, e)| (t.as_ps(), e));
            let want = heap.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// Popping never goes back in time.
    #[test]
    fn event_queue_time_is_monotone(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.push(SimTime::from_ps(t), ());
        }
        let mut last = SimTime::ZERO;
        while let Some((t, ())) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
        prop_assert_eq!(q.now(), last);
    }

    /// cycles(a) + cycles(b) differs from cycles(a+b) by at most one
    /// picosecond per call (ceil rounding), never less.
    #[test]
    fn frequency_cycles_superadditive(mhz in 1u64..4_000, a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let f = Frequency::from_mhz(mhz);
        let split = f.cycles(a) + f.cycles(b);
        let joint = f.cycles(a + b);
        prop_assert!(split >= joint, "split {split:?} < joint {joint:?}");
        prop_assert!(split.as_ps() - joint.as_ps() <= 2, "rounding drift too large");
    }

    /// Transfer time scales monotonically with bytes and inversely with rate.
    #[test]
    fn bandwidth_monotonicity(bytes in 1u64..(1 << 30), gbps in 1u64..100) {
        let slow = Bandwidth::from_gbps(gbps);
        let fast = Bandwidth::from_gbps(gbps * 2);
        prop_assert!(slow.transfer_time(bytes) >= fast.transfer_time(bytes));
        prop_assert!(slow.transfer_time(bytes + 1) >= slow.transfer_time(bytes));
    }

    /// A k-server resource is work-conserving: total busy time equals the
    /// sum of service demands, and the makespan is at least demand/k.
    #[test]
    fn multi_resource_work_conservation(
        k in 1usize..8,
        services in proptest::collection::vec(1u64..10_000, 1..64),
    ) {
        let mut m = MultiResource::new(k);
        let total: u64 = services.iter().sum();
        let mut last = SimTime::ZERO;
        for &s in &services {
            let r = m.reserve(SimTime::ZERO, SimDuration::from_ps(s));
            last = last.max(r.ready);
        }
        prop_assert_eq!(m.busy_time(), SimDuration::from_ps(total));
        let lower = total.div_ceil(k as u64);
        prop_assert!(last.as_ps() >= lower, "makespan beats the capacity bound");
        let longest = *services.iter().max().expect("non-empty");
        prop_assert!(last.as_ps() <= total.max(longest), "worse than serial");
    }
}
