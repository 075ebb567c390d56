//! Deterministic discrete-event queue.
//!
//! The queue is generic over the event payload `E`, so each downstream
//! layer (the runtime's cluster simulation, the cache simulator, unit
//! tests) defines its own event enum and drives its own loop:
//!
//! ```
//! use skadi_dcsim::engine::EventQueue;
//! use skadi_dcsim::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule_after(SimDuration::from_micros(5), "second");
//! q.schedule_after(SimDuration::from_micros(1), "first");
//! let mut seen = Vec::new();
//! while let Some((t, e)) = q.pop() {
//!     seen.push((t.as_micros(), e));
//! }
//! assert_eq!(seen, vec![(1, "first"), (5, "second")]);
//! ```
//!
//! Two events at the same instant are delivered in the order they were
//! scheduled (FIFO per timestamp), which makes simulations reproducible
//! even when cost models collapse many message latencies to equal values.
//!
//! # Implementation: a time-bucketed calendar
//!
//! Events live in per-timestamp FIFO buckets rather than one global
//! binary heap. The earliest bucket is cached out of the tree, so the
//! hot path of a discrete-event simulation — pop an event at `now`,
//! schedule follow-ups at or near `now` — runs in O(1) per event instead
//! of O(log n) heap churn, and [`EventQueue::pending_at`] reads one
//! bucket where a heap would sweep every entry. At 10k simulated nodes the pending set is
//! large and same-instant ties are common (cost models collapse many
//! latencies to equal values), which is exactly the regime where the
//! bucket layout wins; `sched-bench` measures the effect.
//!
//! Ordering is identical to the old heap: buckets drain in ascending
//! time order and each bucket is FIFO in scheduling order.

use std::collections::{BTreeMap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// A deterministic priority queue of timed events.
///
/// The queue tracks the current virtual time: [`EventQueue::pop`] advances
/// `now()` to the popped event's timestamp. Scheduling an event in the past
/// is a causality violation and panics.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Timestamp of the `front` bucket (meaningful only when `len > 0`).
    front_time: SimTime,
    /// The earliest pending bucket, cached out of `later` so same-instant
    /// scheduling, popping, and inspection never touch the tree.
    front: VecDeque<E>,
    /// Buckets strictly after `front_time`, keyed by delivery time.
    later: BTreeMap<SimTime, VecDeque<E>>,
    len: usize,
    now: SimTime,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            front_time: SimTime::ZERO,
            front: VecDeque::new(),
            later: BTreeMap::new(),
            len: 0,
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedules `event` for delivery at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: an event scheduled
    /// in the past indicates a bug in the caller's cost model.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling event in the past: {at} < now {}",
            self.now
        );
        if self.len == 0 {
            self.front_time = at;
            self.front.push_back(event);
        } else if at == self.front_time {
            self.front.push_back(event);
        } else if at > self.front_time {
            self.later.entry(at).or_default().push_back(event);
        } else {
            // New earliest time: demote the cached bucket into the tree.
            let old = std::mem::take(&mut self.front);
            self.later.insert(self.front_time, old);
            self.front_time = at;
            self.front.push_back(event);
        }
        self.len += 1;
    }

    /// Schedules `event` for delivery `after` from the current time.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) {
        let at = self.now + after;
        self.schedule_at(at, event);
    }

    /// Schedules `event` for delivery at the current instant (after all
    /// events already queued for this instant).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let t = self.front_time;
        let event = self.front.pop_front().expect("front bucket non-empty");
        self.after_front_pop(t);
        Some((t, event))
    }

    /// Removes and returns the entire earliest bucket — every event
    /// pending at the next timestamp, in FIFO order — advancing the clock
    /// to that timestamp. The batched form of [`EventQueue::pop`] for
    /// handlers that drain all same-instant events together.
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<E>)> {
        if self.len == 0 {
            return None;
        }
        let t = self.front_time;
        let batch: Vec<E> = std::mem::take(&mut self.front).into_iter().collect();
        debug_assert!(t >= self.now);
        self.now = t;
        self.delivered += batch.len() as u64;
        self.len -= batch.len();
        self.promote_next_bucket();
        Some((t, batch))
    }

    fn after_front_pop(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
        self.delivered += 1;
        self.len -= 1;
        if self.front.is_empty() {
            self.promote_next_bucket();
        }
    }

    fn promote_next_bucket(&mut self) {
        if let Some((t, bucket)) = self.later.pop_first() {
            self.front_time = t;
            self.front = bucket;
        }
    }

    /// The timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then_some(self.front_time)
    }

    /// All events pending at exactly time `at`, in delivery (FIFO) order,
    /// without popping them: an inspection hook for a handler that wants
    /// to look at its same-instant peers (`sched-bench`'s queue workload
    /// times it; the runtime's cluster handles each event alone and never
    /// calls it). O(bucket), not O(queue): the bucket layout indexes
    /// events by timestamp.
    pub fn pending_at(&self, at: SimTime) -> Vec<&E> {
        if self.len > 0 && at == self.front_time {
            self.front.iter().collect()
        } else {
            self.later
                .get(&at)
                .map(|b| b.iter().collect())
                .unwrap_or_default()
        }
    }

    /// Runs the queue to exhaustion, passing each event to `handler`.
    ///
    /// The handler receives the queue itself so it can schedule follow-up
    /// events. Returns the final virtual time.
    pub fn run<S, F>(&mut self, state: &mut S, mut handler: F) -> SimTime
    where
        F: FnMut(&mut Self, &mut S, SimTime, E),
    {
        while let Some((t, e)) = self.pop() {
            handler(self, state, t, e);
        }
        self.now
    }

    /// Runs until the queue is empty or `deadline` is reached; events at
    /// exactly the deadline are still delivered.
    pub fn run_until<S, F>(&mut self, state: &mut S, deadline: SimTime, mut handler: F) -> SimTime
    where
        F: FnMut(&mut Self, &mut S, SimTime, E),
    {
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let (t, e) = self.pop().expect("peeked event vanished");
            handler(self, state, t, e);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "scheduling event in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(5), 1);
        q.pop();
        q.schedule_at(SimTime::from_micros(1), 2);
    }

    #[test]
    fn run_drives_cascading_events() {
        // Each event below 5 schedules its successor 1us later.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 0u32);
        let mut seen = Vec::new();
        let end = q.run(&mut seen, |q, seen, _t, e| {
            seen.push(e);
            if e < 5 {
                q.schedule_after(SimDuration::from_micros(1), e + 1);
            }
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(end, SimTime::from_micros(5));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut q = EventQueue::new();
        for i in 1..=10u64 {
            q.schedule_at(SimTime::from_micros(i), i);
        }
        let mut seen = Vec::new();
        q.run_until(&mut seen, SimTime::from_micros(4), |_q, seen, _t, e| {
            seen.push(e)
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn delivered_counts_events() {
        let mut q = EventQueue::new();
        q.schedule_now(());
        q.schedule_now(());
        q.pop();
        q.pop();
        assert_eq!(q.delivered(), 2);
    }

    #[test]
    fn schedule_now_runs_after_existing_same_instant_events() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, "a");
        q.schedule_now("b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn interleaved_schedule_and_pop_preserves_global_order() {
        // Schedule out of order, pop a few, schedule more (including at
        // times earlier than the cached front bucket), and verify the
        // global (time, scheduling-order) contract end to end.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(50), "e50a");
        q.schedule_at(SimTime::from_nanos(10), "e10");
        q.schedule_at(SimTime::from_nanos(50), "e50b");
        assert_eq!(q.pop().unwrap().1, "e10");
        // Now is 10; 20 is earlier than the cached front (50).
        q.schedule_at(SimTime::from_nanos(20), "e20");
        q.schedule_at(SimTime::from_nanos(50), "e50c");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec!["e20", "e50a", "e50b", "e50c"]);
        assert_eq!(q.delivered(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn pending_at_sees_front_and_later_buckets() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 1);
        q.schedule_at(SimTime::from_nanos(9), 2);
        q.schedule_at(SimTime::from_nanos(5), 3);
        q.schedule_at(SimTime::from_nanos(9), 4);
        assert_eq!(q.pending_at(SimTime::from_nanos(5)), vec![&1, &3]);
        assert_eq!(q.pending_at(SimTime::from_nanos(9)), vec![&2, &4]);
        assert!(q.pending_at(SimTime::from_nanos(7)).is_empty());
    }

    #[test]
    fn pop_batch_drains_one_instant() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5), 1);
        q.schedule_at(SimTime::from_nanos(9), 2);
        q.schedule_at(SimTime::from_nanos(5), 3);
        let (t, batch) = q.pop_batch().unwrap();
        assert_eq!(t, SimTime::from_nanos(5));
        assert_eq!(batch, vec![1, 3]);
        assert_eq!(q.now(), SimTime::from_nanos(5));
        assert_eq!(q.len(), 1);
        assert_eq!(q.delivered(), 2);
        let (t, batch) = q.pop_batch().unwrap();
        assert_eq!(t, SimTime::from_nanos(9));
        assert_eq!(batch, vec![2]);
        assert!(q.pop_batch().is_none());
    }
}
