//! Deterministic event calendar.
//!
//! The calendar is a priority queue of `(time, payload)` pairs. Events that
//! share a timestamp are delivered in insertion order, so simulation runs are
//! exactly reproducible: the queue behaves as a *stable* priority queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

struct Entry<E> {
    /// The ordering key: `(time, seq)`, unique because `seq` is.
    key: (SimTime, u64),
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        // `BinaryHeap` is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key.cmp(&self.key)
    }
}

/// A stable event calendar.
///
/// Every event that is scheduled is delivered: there is no cancellation.
/// A consumer whose events can go stale stamps them with an epoch and
/// ignores the stale ones at delivery (the simulated kernel does), which
/// keeps `schedule` and `pop` at one heap operation each.
///
/// # Examples
///
/// ```
/// use desim::{Calendar, SimDur, SimTime};
///
/// let mut cal = Calendar::new();
/// cal.schedule(SimTime::ZERO + SimDur::from_secs(2), "late");
/// cal.schedule(SimTime::ZERO + SimDur::from_secs(1), "early");
/// let (t, e) = cal.pop().unwrap();
/// assert_eq!((t.nanos(), e), (1_000_000_000, "early"));
/// ```
pub struct Calendar<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`. Events at equal times
    /// are delivered in the order scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            key: (time, seq),
            payload,
        });
    }

    /// Returns the timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.0)
    }

    /// Removes and returns the next pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.key.0, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    fn at(s: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_secs(s)
    }

    #[test]
    fn orders_by_time() {
        let mut cal = Calendar::new();
        cal.schedule(at(3), 3u32);
        cal.schedule(at(1), 1u32);
        cal.schedule(at(2), 2u32);
        let out: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn stable_at_equal_times() {
        let mut cal = Calendar::new();
        for i in 0..100u32 {
            cal.schedule(at(7), i);
        }
        let out: Vec<u32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_counts_undelivered_events() {
        let mut cal = Calendar::new();
        cal.schedule(at(1), "a");
        cal.schedule(at(5), "b");
        assert_eq!(cal.len(), 2);
        assert_eq!(cal.peek_time(), Some(at(1)));
        assert_eq!(cal.pop().map(|(_, e)| e), Some("a"));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_time(), Some(at(5)));
    }

    #[test]
    fn empty_calendar_behaves() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(cal.is_empty());
        assert_eq!(cal.peek_time(), None);
        assert!(cal.pop().is_none());
    }
}
