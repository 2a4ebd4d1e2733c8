//! Deterministic event calendar.
//!
//! The calendar is a priority queue of `(time, payload)` pairs. Events that
//! share a timestamp are delivered in insertion order, so simulation runs are
//! exactly reproducible: the queue behaves as a *stable* priority queue.
//!
//! It is a binary min-heap of `(time, seq)` keys packed into one `u128`
//! each, kept in their own `Vec` beside a parallel payload `Vec`, so
//! a sift compares and moves 16-byte keys and swaps payloads alongside.
//! A simulation step pops one event and schedules about one, and the two
//! share a single heap pass: `pop` moves the last entry into the root and
//! leaves it there unsifted (the root is *dirty*); the next `schedule`
//! writes its event over the root, puts the displaced entry back at the
//! end, where it was valid, and sifts the new event down once. A `pop`
//! that finds the root dirty sifts it first. Keys are unique, so every
//! correct heap pops them in the same order: the fusion changes the cost
//! of a step, never the event sequence.

use std::mem;

use crate::time::SimTime;

/// Children per heap node. Two and four were measured on the Fig-4 step
/// loop (about 32 events pending): a binary heap's five levels cost less
/// than a 4-ary heap's three, whose every level compares four keys.
const ARITY: usize = 2;

/// Packs `(time, seq)` into one key whose integer order is theirs.
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.nanos()) << 64) | u128::from(seq)
}

fn time_of(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// A stable event calendar.
///
/// Every event that is scheduled is delivered: there is no cancellation.
/// A consumer whose events can go stale stamps them with an epoch and
/// ignores the stale ones at delivery (the simulated kernel does), which
/// keeps a `pop` followed by a `schedule` at one heap pass.
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
    /// Heap-ordered `(time, seq)` keys, except that the root may be dirty.
    keys: Vec<u128>,
    /// `payloads[i]` belongs to `keys[i]`.
    payloads: Vec<E>,
    /// The root holds the entry the last `pop` moved there from the end,
    /// not yet sifted down; every other subtree is a valid heap.
    dirty: bool,
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
            keys: Vec::new(),
            payloads: Vec::new(),
            dirty: false,
            next_seq: 0,
        }
    }

    /// Schedules `payload` for delivery at `time`. Events at equal times
    /// are delivered in the order scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let key = key(time, self.next_seq);
        self.next_seq += 1;
        if self.dirty {
            // The displaced entry goes back to the end it came from; the
            // new event takes the root and is sifted down in its place.
            let displaced = mem::replace(&mut self.keys[0], key);
            self.keys.push(displaced);
            let displaced = mem::replace(&mut self.payloads[0], payload);
            self.payloads.push(displaced);
            self.sift_down_root();
        } else {
            self.keys.push(key);
            self.payloads.push(payload);
            self.sift_up(self.keys.len() - 1);
        }
    }

    /// Returns the timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let root = *self.keys.first()?;
        let min = if self.dirty {
            // Only the root is out of place: the minimum is the root or
            // one of its children.
            let children = &self.keys[1..self.keys.len().min(1 + ARITY)];
            children.iter().copied().fold(root, u128::min)
        } else {
            root
        };
        Some(time_of(min))
    }

    /// Removes and returns the next pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.dirty {
            self.sift_down_root();
        }
        if self.keys.is_empty() {
            return None;
        }
        // `swap_remove` moves the last entry into the root; it is sifted
        // by the next `schedule` or `pop`, whichever comes first.
        let key = self.keys.swap_remove(0);
        let payload = self.payloads.swap_remove(0);
        self.dirty = self.keys.len() > 1;
        Some((time_of(key), payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns true if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Moves the root entry down until no child is smaller, which
    /// restores the heap: the root is clean again.
    fn sift_down_root(&mut self) {
        self.dirty = false;
        let mut pos = 0;
        let len = self.keys.len();
        let key = self.keys[pos];
        loop {
            let first = ARITY * pos + 1;
            if first >= len {
                break;
            }
            let children = &self.keys[first..len.min(first + ARITY)];
            let mut child = first;
            let mut least = children[0];
            for (i, &k) in children.iter().enumerate().skip(1) {
                if k < least {
                    least = k;
                    child = first + i;
                }
            }
            if key < least {
                break;
            }
            self.keys[pos] = least;
            self.payloads.swap(pos, child);
            pos = child;
        }
        self.keys[pos] = key;
    }

    /// Moves the entry at `pos` up until its parent is smaller.
    fn sift_up(&mut self, mut pos: usize) {
        let key = self.keys[pos];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = self.keys[parent];
            if above < key {
                break;
            }
            self.keys[pos] = above;
            self.payloads.swap(pos, parent);
            pos = parent;
        }
        self.keys[pos] = key;
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

    /// After a pop the root holds the old last entry, unsifted. When that
    /// entry is later than both (all) of the root's children, `peek_time`
    /// must answer from a child, and the next `pop` must sift first.
    #[test]
    fn dirty_root_is_not_read_as_the_minimum() {
        let mut cal = Calendar::new();
        // Root 1; its children 2..=ARITY+1; the last entry is the latest.
        for s in 1..=ARITY as u64 + 2 {
            cal.schedule(at(s), s);
        }
        let last = ARITY as u64 + 2;
        assert_eq!(cal.keys.len(), ARITY + 2);
        assert_eq!(time_of(*cal.keys.last().unwrap()), at(last));
        assert_eq!(cal.pop(), Some((at(1), 1)));
        assert!(cal.dirty);
        assert_eq!(
            time_of(cal.keys[0]),
            at(last),
            "root is the displaced entry"
        );
        assert_eq!(cal.peek_time(), Some(at(2)));
        assert_eq!(cal.len(), ARITY + 1);
        // A pop with the root still dirty, then a schedule that fuses.
        assert_eq!(cal.pop(), Some((at(2), 2)));
        assert_eq!(cal.peek_time(), Some(at(3)));
        cal.schedule(at(3), 99);
        let out: Vec<(u64, u64)> =
            std::iter::from_fn(|| cal.pop().map(|(t, e)| (t.nanos() / 1_000_000_000, e))).collect();
        let mut expect = vec![(3, 3), (3, 99)];
        expect.extend((4..=last).map(|s| (s, s)));
        assert_eq!(out, expect);
    }

    /// ns per simulated step's worth of calendar work at the kernel's
    /// shape: one `pop`, then 0–3 `schedule`s (one on average) of
    /// near-future events, ~32 pending. Minimum of 7 rounds.
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -p desim -- --ignored micro_ --nocapture --test-threads=1`
    fn micro_calendar_pop_then_schedules() {
        const PENDING: u64 = 32;
        const FANOUT: [u8; 8] = [1, 1, 0, 2, 1, 3, 0, 0];
        let steps = 2_000_000u32;
        let mut best = f64::INFINITY;
        for _ in 0..7 {
            let mut cal = Calendar::new();
            let mut lcg = 0x2545_f491_4f6c_dd1du64;
            let mut next = |now: u64| {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                now + 1_000 + (lcg >> 40) % 2_000_000
            };
            for _ in 0..PENDING {
                cal.schedule(SimTime(next(0)), 0u64);
            }
            let start = std::time::Instant::now();
            for i in 0..steps {
                let (t, e) = cal.pop().expect("never drains: one schedule per pop");
                for _ in 0..FANOUT[i as usize % FANOUT.len()] {
                    cal.schedule(SimTime(next(t.nanos())), e + 1);
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / f64::from(steps);
            std::hint::black_box(cal.len());
            best = best.min(ns);
        }
        println!(
            "calendar: {best:.1} ns per pop + 0-3 schedules (~{PENDING} pending, arity {ARITY})"
        );
    }
}
