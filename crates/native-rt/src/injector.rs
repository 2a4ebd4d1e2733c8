//! A sharded multi-producer injector queue for external submissions.
//!
//! `submit()` calls arrive from arbitrary threads; funnelling them through
//! one mutex recreates exactly the saturated-lock collapse this crate's
//! rewrite removes. Instead the injector spreads pushes over
//! `2 × nworkers` (power-of-two) independently locked FIFO shards, and a
//! consumer drains whichever shard it reaches first — starting from its
//! own index so workers prefer disjoint shards.
//!
//! Choosing a shard writes no shared line: each producer thread walks
//! the shards in turn from a thread-local position, seeded once per
//! thread from a process-wide count of producers. Two producers
//! therefore start on different shards, and two that push in step stay
//! on different ones.
//!
//! An approximate global length (`AtomicUsize`) gives consumers a
//! lock-free emptiness fast path: idle workers spin-polling the injector
//! touch one shared atomic, not `shards` mutexes. The count is maintained
//! as push-before-increment … decrement-after-pop, so a nonzero length
//! always has a corresponding element *eventually*; consumers treat it as
//! a hint, never a guarantee (the pop path still scans the shards).
//!
//! Each shard additionally keeps a *conservative* occupancy count
//! (incremented before the push, decremented after the pop, so it never
//! under-counts). Both of `pop`'s sweeps skip shards whose occupancy
//! reads zero — under the usual many-idle-workers-few-jobs regime the
//! certain sweep would otherwise serialize every consumer through every
//! shard lock just to prove them empty. Skips by the certain sweep are
//! counted as `injector_sweep_skips` when the pool wires a counter in.
//!
//! A consumer that can hold more than one element takes a *batch*
//! ([`Injector::pop_batch`]): in the lock hold that finds the shard's
//! oldest element it also takes its fair share of what the shard still
//! holds, ⌊left ÷ consumers⌋ more, at most [`MAX_BATCH`] in all (Go's
//! `globrunqget` share, capped at crossbeam-deque's `MAX_BATCH`). The
//! oldest is returned; the rest go to the caller's sink newest first,
//! so a LIFO owner of them runs them oldest first. `len` and the
//! shard's occupancy each drop once, by the batch size. A shallow shard
//! yields a share of 0 — one element, as [`Injector::pop`] — so a batch
//! forms only behind a queue deep enough to split among the consumers.

use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::stats::Counter;

/// Most elements one [`Injector::pop_batch`] takes in one lock hold: the
/// one it returns and up to `MAX_BATCH - 1` it hands to its sink.
pub const MAX_BATCH: usize = 32;

/// Threads that have pushed to an injector so far: each new producer's
/// starting shard.
// sched-atomic(relaxed): a distribution hint, taken once per thread; the
// shard mutexes do the synchronization.
static PRODUCERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's next shard (masked per injector), shared by every
    /// injector the thread pushes to.
    static CURSOR: Cell<usize> = Cell::new(PRODUCERS.fetch_add(1, Ordering::Relaxed));
}

/// Pad each shard to its own cache line so neighboring shard locks don't
/// false-share.
#[repr(align(64))]
struct Shard<T> {
    queue: Mutex<VecDeque<T>>,
    /// Conservative per-shard element count: incremented *before* the
    /// shard push and decremented *after* the shard pop, so at every
    /// instant `occupancy ≥ queue.len()` and a zero read proves the
    /// shard empty — what lets `pop`'s sweeps skip the shard without
    /// taking its lock.
    // sched-atomic(handoff): the Release pre-increment is ordered before
    // the producer's global `len` Release add, so a consumer whose
    // `is_empty` Acquire load observed the element also observes the
    // occupancy (no element published through `len` is ever skipped);
    // over-counts from in-flight operations only cost a redundant lock.
    occupancy: AtomicUsize,
}

/// The approximate element count, alone on its lines: every push and
/// pop writes it, which must not invalidate the read-mostly fields
/// beside it (the shard pointer, and the pool state around an injector
/// embedded in it, read on every pickup).
#[repr(align(128))]
struct Len(AtomicUsize);

/// A sharded MPMC FIFO queue.
pub struct Injector<T> {
    shards: Box<[Shard<T>]>,
    /// Approximate element count (see module docs).
    // sched-atomic(handoff): the Release add after a shard push is the
    // producers' publish signal for the consumers' sleep/wake fast path
    // (Acquire load in is_empty); the shard mutex moves the data itself.
    len: Len,
    /// Shards skipped by `pop`'s certain sweep on a zero occupancy read
    /// (`injector_sweep_skips` when wired to a pool's registry).
    sweep_skips: Option<Counter>,
    /// The consumers a batch is a fair share among.
    consumers: NonZeroUsize,
}

impl<T> Injector<T> {
    /// Creates an injector sized for `nworkers` consumers: they set its
    /// shard count and the fair share a batch takes.
    pub fn new(nworkers: usize) -> Self {
        Self::build(nworkers, None)
    }

    /// As [`Injector::new`], counting certain-sweep shard skips on
    /// `skips` (registered by the pool as `injector_sweep_skips`).
    pub fn with_counter(nworkers: usize, skips: Counter) -> Self {
        Self::build(nworkers, Some(skips))
    }

    fn build(nworkers: usize, sweep_skips: Option<Counter>) -> Self {
        let n = (2 * nworkers.max(1)).next_power_of_two();
        Injector {
            shards: (0..n)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::new()),
                    occupancy: AtomicUsize::new(0),
                })
                .collect(),
            len: Len(AtomicUsize::new(0)),
            sweep_skips,
            consumers: NonZeroUsize::new(nworkers).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// Number of shards (a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Approximate queued-element count.
    pub fn len(&self) -> usize {
        self.len.0.load(Ordering::Acquire)
    }

    /// True when the approximate count is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard the calling thread's next push lands on.
    #[cfg(test)]
    pub(crate) fn next_shard(&self) -> usize {
        CURSOR.with(Cell::get) & (self.shards.len() - 1)
    }

    /// Enqueues `value` on the calling thread's next shard.
    pub fn push(&self, value: T) {
        let i = CURSOR.with(|c| c.replace(c.get().wrapping_add(1))) & (self.shards.len() - 1);
        // Occupancy rises before the element does (see the field docs):
        // a sweep that reads zero afterward can only be missing a push
        // that had not reached the global `len` publish either.
        self.shards[i].occupancy.fetch_add(1, Ordering::Release);
        self.shards[i].queue.lock().push_back(value);
        self.len.0.fetch_add(1, Ordering::Release);
    }

    /// Dequeues one element, scanning shards from `hint` (a consumer
    /// passes its worker index so concurrent consumers start at different
    /// shards). Shards whose lock is momentarily held are skipped on the
    /// first sweep and retried on a second, locking sweep, so a single
    /// busy shard cannot hide elements.
    pub fn pop(&self, hint: usize) -> Option<T> {
        self.take(hint, 0, &mut |_| {})
    }

    /// As [`Injector::pop`], and in the same lock hold takes the
    /// consumer's fair share of what the shard it found still holds:
    /// ⌊left ÷ consumers⌋ more elements, at most `MAX_BATCH - 1`. Those
    /// go to `more`, newest first, while the shard is locked, so `more`
    /// must not touch this injector. Returns the oldest element.
    pub fn pop_batch(&self, hint: usize, mut more: impl FnMut(T)) -> Option<T> {
        self.take(hint, MAX_BATCH - 1, &mut more)
    }

    /// The two sweeps behind [`Injector::pop`] (`most == 0`) and
    /// [`Injector::pop_batch`]: up to `most` elements beyond the one
    /// returned go to `more`.
    #[inline]
    fn take<S: FnMut(T)>(&self, hint: usize, most: usize, more: &mut S) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let n = self.shards.len();
        let mask = n - 1;
        // Opportunistic sweep: try-lock only, skipping shards whose
        // occupancy proves them empty.
        for off in 0..n {
            let shard = &self.shards[(hint + off) & mask];
            if shard.occupancy.load(Ordering::Acquire) == 0 {
                continue;
            }
            if let Some(q) = shard.queue.try_lock() {
                if let Some(v) = self.take_from(shard, q, most, more) {
                    return Some(v);
                }
            }
        }
        self.certain_sweep(hint, most, more)
    }

    /// The second sweep: take every lock whose shard may hold an
    /// element; a zero occupancy is proof enough to skip (the
    /// pre-increment protocol guarantees it cannot hide an element
    /// this consumer was promised via `is_empty`).
    fn certain_sweep<S: FnMut(T)>(&self, hint: usize, most: usize, more: &mut S) -> Option<T> {
        let n = self.shards.len();
        let mask = n - 1;
        let mut skipped = 0u64;
        for off in 0..n {
            let shard = &self.shards[(hint + off) & mask];
            if shard.occupancy.load(Ordering::Acquire) == 0 {
                skipped += 1;
                continue;
            }
            if let Some(v) = self.take_from(shard, shard.queue.lock(), most, more) {
                self.note_skips(skipped);
                return Some(v);
            }
        }
        self.note_skips(skipped);
        None
    }

    /// Takes the oldest element of the locked shard `q` and hands `more`
    /// the next ⌊left ÷ consumers⌋ of them, at most `most`, newest
    /// first; then unlocks and drops the counts once, by the batch size.
    #[inline]
    fn take_from<S: FnMut(T)>(
        &self,
        shard: &Shard<T>,
        mut q: MutexGuard<'_, VecDeque<T>>,
        most: usize,
        more: &mut S,
    ) -> Option<T> {
        let first = q.pop_front()?;
        let extra = (q.len() / self.consumers).min(most);
        // Constant-false in `pop` (`most` 0): no drain in its code.
        if extra > 0 {
            for v in q.drain(..extra).rev() {
                more(v);
            }
        }
        drop(q);
        shard.occupancy.fetch_sub(1 + extra, Ordering::Release);
        self.len.0.fetch_sub(1 + extra, Ordering::Release);
        Some(first)
    }

    fn note_skips(&self, skipped: u64) {
        if skipped > 0 {
            if let Some(sweep_skips) = &self.sweep_skips {
                sweep_skips.add(skipped);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_a_shard_and_nothing_lost() {
        let inj = Injector::new(1);
        assert!(inj.is_empty());
        for i in 0..100 {
            inj.push(i);
        }
        assert_eq!(inj.len(), 100);
        let mut got: Vec<i32> = (0..100).map(|_| inj.pop(0).unwrap()).collect();
        assert!(inj.pop(0).is_none());
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    /// The shard holding `value`, if any.
    fn shard_holding<T: PartialEq>(inj: &Injector<T>, value: &T) -> Option<usize> {
        inj.shards
            .iter()
            .position(|s| s.queue.lock().contains(value))
    }

    #[test]
    fn certain_sweep_skips_empty_shards_and_counts_them() {
        let registry = crate::stats::Registry::new();
        let skips = registry.counter("injector_sweep_skips");
        // 4 workers → 8 shards; one element lands on `home`.
        let inj = Injector::with_counter(4, skips.clone());
        let home = inj.next_shard();
        inj.push(7u32);
        // Sweeping from the shard after it, the seven empty shards are
        // all skipped on occupancy before the element is found.
        assert_eq!(inj.certain_sweep(home + 1, 0, &mut |_| {}), Some(7));
        assert_eq!(skips.get(), 7);
        // A sweep of a fully empty injector skips every shard.
        assert_eq!(inj.certain_sweep(0, 0, &mut |_| {}), None);
        assert_eq!(skips.get(), 15);
    }

    #[test]
    fn occupancy_tracks_pushes_and_pops() {
        let inj = Injector::new(1); // 2 shards
        for i in 0..6 {
            inj.push(i);
        }
        let occupied: usize = inj
            .shards
            .iter()
            .map(|s| s.occupancy.load(Ordering::Acquire))
            .sum();
        assert_eq!(occupied, 6);
        while inj.pop(0).is_some() {}
        for s in inj.shards.iter() {
            assert_eq!(s.occupancy.load(Ordering::Acquire), 0);
        }
    }

    #[test]
    fn one_producer_visits_every_shard_in_turn() {
        let inj = Injector::new(4); // 8 shards
        let (n, start) = (inj.shards(), inj.next_shard());
        for k in 0..2 * n {
            inj.push(k);
        }
        for (k, shard) in inj.shards.iter().enumerate() {
            // Shard `start + j` took pushes j and n + j, in that order.
            let j = k.wrapping_sub(start) & (n - 1);
            let queued: Vec<usize> = shard.queue.lock().iter().copied().collect();
            assert_eq!(queued, [j, n + j], "shard {k}");
        }
    }

    #[test]
    fn two_producer_threads_start_on_different_shards() {
        // 64 shards: two producers seeded in turn share a start only if
        // 63 other threads made their first push in between.
        let inj = Arc::new(Injector::new(32));
        let both_ready = Arc::new(std::sync::Barrier::new(2));
        let producers: Vec<_> = (0..2usize)
            .map(|p| {
                let (inj, both_ready) = (Arc::clone(&inj), Arc::clone(&both_ready));
                std::thread::spawn(move || {
                    both_ready.wait();
                    inj.push(p);
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let first = shard_holding(&inj, &0).expect("pushed");
        let second = shard_holding(&inj, &1).expect("pushed");
        assert_ne!(first, second, "both producers started on shard {first}");
    }

    #[test]
    fn shard_count_scales_with_workers() {
        assert_eq!(Injector::<u8>::new(1).shards(), 2);
        assert_eq!(Injector::<u8>::new(3).shards(), 8);
        assert_eq!(Injector::<u8>::new(8).shards(), 16);
    }

    /// Queues `values` on shard `i`, as pushes that all landed there
    /// would.
    fn fill<T>(inj: &Injector<T>, i: usize, values: impl IntoIterator<Item = T>) {
        for v in values {
            inj.shards[i].occupancy.fetch_add(1, Ordering::Release);
            inj.shards[i].queue.lock().push_back(v);
            inj.len.0.fetch_add(1, Ordering::Release);
        }
    }

    /// `pop_batch` from shard `i`'s side: the element returned, then the
    /// ones handed on in the order a LIFO owner of them would run them.
    fn batch_in_run_order<T>(inj: &Injector<T>, i: usize) -> Vec<T> {
        let mut lifo = Vec::new();
        let first = inj.pop_batch(i, |v| lifo.push(v)).expect("nonempty");
        std::iter::once(first)
            .chain(lifo.into_iter().rev())
            .collect()
    }

    #[test]
    fn a_batch_is_a_fair_share_of_the_shard_and_at_most_max_batch() {
        // (consumers, queued on one shard, taken by one batch): the one
        // returned and ⌊left ÷ consumers⌋ more, at most MAX_BATCH.
        for (consumers, queued, taken) in [
            (1, 1, 1),
            (1, 2, 2),
            (1, 32, 32),
            (1, 100, MAX_BATCH),
            (3, 10, 4),
            (4, 4, 1),
            (4, 5, 2),
            (4, 13, 4),
            (4, 200, MAX_BATCH),
        ] {
            let inj = Injector::new(consumers);
            fill(&inj, 0, 0..queued);
            let batch = batch_in_run_order(&inj, 0);
            assert_eq!(batch.len(), taken, "{consumers} consumers, {queued} queued");
            // Oldest first: the batch is the shard's head in queue order.
            assert_eq!(batch, (0..taken).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_one_element_pop_never_batches() {
        let inj = Injector::new(1);
        fill(&inj, 0, 0..40);
        assert_eq!(inj.pop(0), Some(0));
        assert_eq!(inj.len(), 39);
        assert_eq!(inj.shards[0].queue.lock().front(), Some(&1));
    }

    #[test]
    fn counts_are_exact_after_a_batch() {
        let inj = Injector::new(2); // 4 shards
        fill(&inj, 1, 0..100);
        fill(&inj, 2, 100..103);
        // From shard 1: left 99, share ⌊99 ÷ 2⌋ = 49, capped at 31.
        assert_eq!(batch_in_run_order(&inj, 1), (0..32).collect::<Vec<_>>());
        assert_eq!(inj.len(), 71);
        let occupancy = |i: usize| inj.shards[i].occupancy.load(Ordering::Acquire);
        assert_eq!((occupancy(1), occupancy(2)), (68, 3));
        assert_eq!(inj.shards[1].queue.lock().len(), 68);
        // From shard 2: left 2, share 1.
        assert_eq!(batch_in_run_order(&inj, 2), [100, 101]);
        assert_eq!((inj.len(), occupancy(2)), (69, 1));
        // Drained batch by batch, nothing is lost and the counts end at 0.
        let mut rest = Vec::new();
        while let Some(v) = inj.pop_batch(0, |v| rest.push(v)) {
            rest.push(v);
        }
        rest.sort_unstable();
        assert_eq!(rest, (32..100).chain([102]).collect::<Vec<_>>());
        assert!(inj.is_empty());
        assert!((0..inj.shards()).all(|i| occupancy(i) == 0));
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_elements() {
        producers_and_consumers_conserve_elements(false);
    }

    #[test]
    fn concurrent_producers_and_batch_consumers_conserve_elements() {
        producers_and_consumers_conserve_elements(true);
    }

    /// Four producers push 10 000 elements while four consumers pop them,
    /// one at a time or in batches.
    fn producers_and_consumers_conserve_elements(batch: bool) {
        let inj = Arc::new(Injector::new(4));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    for i in 0..2_500usize {
                        inj.push(p * 10_000 + i);
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|c| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    let mut dry = 0;
                    while dry < 200 {
                        let popped = if batch {
                            let mut more = Vec::new();
                            let first = inj.pop_batch(c, |v| more.push(v));
                            got.extend(more);
                            first
                        } else {
                            inj.pop(c)
                        };
                        match popped {
                            Some(v) => {
                                got.push(v);
                                dry = 0;
                            }
                            None => {
                                dry += 1;
                                std::thread::yield_now();
                            }
                        }
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        // Late elements may still sit in the queue after consumers give
        // up; drain the rest single-threaded.
        while let Some(v) = inj.pop(0) {
            all.push(v);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10_000, "all elements, no duplicates");
        assert!(inj.is_empty());
        assert!(inj
            .shards
            .iter()
            .all(|s| s.occupancy.load(Ordering::Acquire) == 0));
    }
}
