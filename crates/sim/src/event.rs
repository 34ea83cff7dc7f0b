//! The deterministic event queue driving every simulation in the workspace.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A priority queue of timestamped events with deterministic FIFO ordering
/// among events scheduled for the same instant.
///
/// Determinism matters here: the experiment harness asserts byte-identical
/// reports across runs, and several GAM scheduling decisions are sensitive to
/// the order in which same-cycle completions are observed.
///
/// Internally this is a binary heap keyed by `(time, sequence)`, where the
/// sequence number is the push count. Pushes and pops are `O(log n)` whatever
/// the timestamp spacing, so a pileup of thousands of same-instant events
/// (one poll per accelerator) drains in `O(n log n)`. The suite's queues
/// stay shallow (peak depth 51 pending events), so a pop sifts about six
/// levels.
///
/// # Example
///
/// ```
/// use reach_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ps(10), "b");
/// q.push(SimTime::from_ps(10), "c");
/// q.push(SimTime::from_ps(5), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
}

/// One pending event. Ordered by `(at, seq)` reversed, so the max-heap pops
/// the earliest first; the payload never takes part in the comparison.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events, so a
    /// simulation sized from its blueprint never reallocates while running.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Reserves capacity for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of events the queue can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The timestamp of the most recently popped event (the simulation's
    /// current time).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulation time: scheduling into
    /// the past is always a model bug and silently reordering it would
    /// corrupt causality.
    pub fn push(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "EventQueue::push: scheduling into the past ({at:?} < now {:?})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedules `payload` at `delta` after the current simulation time.
    /// Shorthand for `push(self.now() + delta, payload)`.
    pub fn push_in(&mut self, delta: crate::time::SimDuration, payload: E) {
        self.push(self.now + delta, payload);
    }

    /// Removes and returns the earliest event, advancing the current time to
    /// its timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Entry { at, payload, .. } = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }

    /// Drains **every event scheduled for the earliest pending instant** into
    /// `out` (cleared first), preserving FIFO order, and returns that
    /// instant. Returns `None` when the queue is empty.
    ///
    /// This lets a scheduling round reuse one scratch `Vec` instead of
    /// interleaving `peek`/`pop` calls. It is order-exact with repeated
    /// [`pop`](Self::pop): events pushed *while the batch is processed* carry
    /// larger sequence numbers than anything already queued, so they can
    /// never have belonged to the batch being drained.
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let (at, payload) = self.pop()?;
        out.push(payload);
        while self.peek_time() == Some(at) {
            out.push(self.heap.pop().expect("peeked entry").payload);
        }
        Some(at)
    }

    /// Timestamp of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(30), 3);
        q.push(SimTime::from_ps(10), 1);
        q.push(SimTime::from_ps(20), 2);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ps(7), i);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let want: Vec<_> = (0..100).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn now_tracks_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ps(42), ());
        let (t, ()) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(42));
        assert_eq!(q.now(), SimTime::from_ps(42));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), ());
        q.pop();
        q.push(SimTime::from_ps(5), ());
    }

    #[test]
    fn push_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), "first");
        q.pop();
        q.push(SimTime::from_ps(10), "again");
        assert_eq!(q.pop().unwrap().1, "again");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(9), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(9)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn push_in_schedules_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), "a");
        q.pop();
        q.push_in(crate::time::SimDuration::from_ps(5), "b");
        let (t, ev) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ps(15));
        assert_eq!(ev, "b");
    }

    #[test]
    fn with_capacity_presizes() {
        let q: EventQueue<u32> = EventQueue::with_capacity(64);
        assert!(q.capacity() >= 64);
        let mut q = EventQueue::<u32>::new();
        q.reserve(32);
        assert!(q.capacity() >= 32);
    }

    #[test]
    fn pop_batch_drains_one_instant_in_fifo_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), 1);
        q.push(SimTime::from_ps(10), 2);
        q.push(SimTime::from_ps(20), 4);
        q.push(SimTime::from_ps(10), 3);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_ps(10)));
        assert_eq!(batch, [1, 2, 3]);
        assert_eq!(q.now(), SimTime::from_ps(10));
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_ps(20)));
        assert_eq!(batch, [4]);
        assert_eq!(q.pop_batch_into(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_batch_matches_repeated_pop() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let times = [7u64, 3, 7, 9, 3, 3, 9, 1];
        for (i, t) in times.iter().enumerate() {
            a.push(SimTime::from_ps(*t), i);
            b.push(SimTime::from_ps(*t), i);
        }
        let mut via_pop = Vec::new();
        while let Some((t, e)) = a.pop() {
            via_pop.push((t, e));
        }
        let mut via_batch = Vec::new();
        let mut scratch = Vec::new();
        while let Some(t) = b.pop_batch_into(&mut scratch) {
            for e in scratch.drain(..) {
                via_batch.push((t, e));
            }
        }
        assert_eq!(via_pop, via_batch);
    }

    #[test]
    fn interleaved_push_pop_stays_deterministic() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), "a");
        q.push(SimTime::from_ps(20), "c");
        let (_, first) = q.pop().unwrap();
        assert_eq!(first, "a");
        q.push(SimTime::from_ps(20), "d");
        q.push(SimTime::from_ps(15), "b");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ["b", "c", "d"]);
    }

    #[test]
    fn pop_batch_leaves_same_instant_pushes_for_the_next_batch() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(10), 1);
        q.push(SimTime::from_ps(10), 2);
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_ps(10)));
        assert_eq!(batch, [1, 2]);
        // Events scheduled at `now` while the batch is processed form a
        // batch of their own, after everything already drained.
        q.push(SimTime::from_ps(10), 3);
        q.push(SimTime::from_ps(12), 5);
        q.push(SimTime::from_ps(10), 4);
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_ps(10)));
        assert_eq!(batch, [3, 4]);
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_ps(12)));
        assert_eq!(batch, [5]);
    }

    #[test]
    fn payload_never_breaks_a_tie() {
        /// A payload with no ordering of its own.
        #[derive(Debug, PartialEq)]
        struct Opaque(u32);
        let mut q = EventQueue::new();
        for i in (0..8).rev() {
            q.push(SimTime::from_ps(3), Opaque(i));
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e.0).collect();
        assert_eq!(got, [7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn pop_on_empty_keeps_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(25), ());
        q.pop();
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.now(), SimTime::from_ps(25));
        let mut batch = vec![()];
        assert_eq!(q.pop_batch_into(&mut batch), None);
        assert_eq!(q.now(), SimTime::from_ps(25));
    }

    #[test]
    fn fifo_holds_across_a_full_drain() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ps(4), "a");
        assert_eq!(q.pop(), Some((SimTime::from_ps(4), "a")));
        assert!(q.is_empty());
        q.push(SimTime::from_ps(4), "b");
        q.push(SimTime::from_ps(4), "c");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, ["b", "c"]);
    }

    #[test]
    fn default_and_debug_describe_the_queue() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_ps(8), 1);
        q.push(SimTime::from_ps(9), 2);
        q.pop();
        let shown = format!("{q:?}");
        assert!(shown.starts_with("EventQueue"), "{shown}");
        assert!(shown.contains("len: 1"), "{shown}");
        assert!(
            shown.contains(&format!("now: {:?}", SimTime::from_ps(8))),
            "{shown}"
        );
    }

    /// Pops everything left, as `(time in ps, payload)` pairs.
    fn drain(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_ps(), e))
            .collect()
    }

    #[test]
    fn scrambled_times_with_collisions_pop_in_time_then_push_order() {
        let mut q = EventQueue::new();
        let n: u64 = 10_000;
        for i in 0..n {
            q.push(SimTime::from_ps((i * 7919) % 1000), i);
        }
        let got = drain(&mut q);
        assert_eq!(got.len(), n as usize);
        for w in got.windows(2) {
            assert!(w[0] < w[1], "order violated: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn tightly_spaced_burst_drains_in_order() {
        let mut q = EventQueue::with_capacity(10_000);
        for i in 0..10_000u64 {
            q.push(SimTime::from_ps(i / 16), i);
        }
        let got = drain(&mut q);
        let want: Vec<_> = (0..10_000u64).map(|i| (i / 16, i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn far_future_entry_returns_after_a_near_one() {
        let mut q = EventQueue::new();
        let far = (1u64 << 20) * 32 * 1000;
        q.push(SimTime::from_ps(far), 9);
        q.push(SimTime::from_ps(5), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ps(5)));
        assert_eq!(drain(&mut q), [(5, 1), (far, 9)]);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_churn_keeps_time_monotone_and_length_constant() {
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.push(SimTime::from_ps(i * 100), i);
        }
        let mut now = SimTime::ZERO;
        for i in 0..2_000u64 {
            let (at, _) = q.pop().expect("non-empty");
            assert!(at >= now, "time went backwards");
            now = at;
            q.push_in(
                crate::time::SimDuration::from_ps((3 << 20) + (i % 7) * 1000),
                i,
            );
        }
        assert_eq!(q.len(), 64);
    }

    #[test]
    fn same_instant_pileup_drains_in_one_batch_in_push_order() {
        let n = 16_384u64;
        let mut q = EventQueue::with_capacity(4 * n as usize + 32);
        for i in 0..n {
            q.push(SimTime::from_ps(1_000), i);
        }
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), Some(SimTime::from_ps(1_000)));
        assert_eq!(batch, (0..n).collect::<Vec<_>>());
        assert!(q.is_empty());
    }
}
