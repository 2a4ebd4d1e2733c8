//! The flight recorder: always-on, low-overhead scheduling-event tracing.
//!
//! Each pool worker owns a lock-free SPSC ring of fixed-size events — job
//! start/end, steals (with tier), park/unpark, suspend/resume, CPU-set
//! changes, decision epochs — timestamped from one process-wide monotonic
//! origin so events from different threads (and different rings) merge
//! into a single ordered timeline. When a ring fills, the *oldest* event
//! is dropped (a flight recorder keeps the recent past, not the distant
//! one) and the drop is counted, so `pushed == drained + dropped + resident`
//! always holds.
//!
//! The ring is a Vyukov-style bounded queue specialised to one producer
//! (the owning worker) and any number of consumers (the drain side: the
//! supervisor poller, `TRACE` servicing, tests). Consumers claim entries
//! by CAS on `tail`; the producer reuses the same claim path to discard
//! the oldest entry when full, so the producer never blocks on a full
//! ring and never overwrites an entry mid-read. Payload words are plain
//! relaxed atomics — the per-slot sequence number carries all ordering —
//! which keeps the implementation free of `unsafe` and race-detector
//! clean.
//!
//! What lives where: the ring ([`SpscRing`]), the [`FlightRecorder`] and
//! the clock ([`clock_origin`], [`now_ns`], [`ns_since_origin`]) are this
//! module's. The event vocabulary — [`EventKind`], [`TraceEvent`] and
//! their wire form ([`render_events`], [`parse_events`]) — lives in the
//! dependency-free `ctl-core` crate and is re-exported here, because the
//! simulated threads package (`uthreads`) logs the same [`TraceEvent`]s,
//! timestamped in simulated nanoseconds.

use std::sync::Arc;
use std::time::Instant;

pub use ctl_core::{parse_events, render_events, EventKind, TraceEvent};

use crate::stats::{Counter, Registry};
use crate::sync::{spin_loop, AtomicU64, Ordering};

/// The process-wide trace clock origin. First call pins it; every
/// timestamp in every ring is measured from this one `Instant`, so merged
/// multi-ring (and, after per-process normalisation, multi-process)
/// timelines never run backwards across threads.
pub fn clock_origin() -> Instant {
    static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since [`clock_origin`].
pub fn now_ns() -> u64 {
    clock_origin().elapsed().as_nanos() as u64
}

/// A test's wall-clock stopwatch: each call returns the time since it
/// was started.
#[cfg(test)]
pub(crate) fn stopwatch() -> impl Fn() -> std::time::Duration {
    let started = Instant::now();
    move || started.elapsed()
}

/// Nanoseconds from [`clock_origin`] to an already-taken `Instant` —
/// lets hot paths reuse a clock read they needed anyway. Saturates to 0
/// for instants taken before the origin was pinned.
pub fn ns_since_origin(at: Instant) -> u64 {
    at.duration_since(clock_origin()).as_nanos() as u64
}

struct Slot {
    /// Slot state for the Vyukov protocol. For the entry at position
    /// `pos` (slot `pos & mask`): `seq == pos` means free for the
    /// producer, `seq == pos + 1` means published, `seq == pos + cap`
    /// means consumed and free for the next lap.
    // sched-atomic(verified): Vyukov bounded-queue protocol — the
    // producer's Release publish pairs with consumers' Acquire loads,
    // and consumers' Release of `pos + cap` pairs with the producer's
    // Acquire re-check; modelled in tests/loom_trace.rs.
    seq: AtomicU64,
    /// Event timestamp. Payload ordering is carried entirely by `seq`.
    // sched-atomic(relaxed): payload word; the slot's `seq` carries the
    // publish/consume edges.
    ts: AtomicU64,
    /// Packed kind/worker/arg. Same ordering story as `ts`.
    // sched-atomic(relaxed): payload word; the slot's `seq` carries the
    // publish/consume edges.
    meta: AtomicU64,
}

/// A bounded single-producer ring of [`TraceEvent`]s with drop-oldest
/// overflow. `push` may only be called from one thread at a time (the
/// owning worker); `pop` is safe from any number of threads.
pub struct SpscRing {
    slots: Box<[Slot]>,
    cap: u64,
    mask: u64,
    /// Next position the producer will write. Written only by the
    /// producer; read by consumers for an emptiness hint.
    // sched-atomic(verified): producer-private publish cursor — the
    // store follows the slot's Release `seq` publish, and consumers only
    // use it as a hint (slot `seq` re-validates); see tests/loom_trace.rs.
    head: AtomicU64,
    /// Next position to consume. CAS-claimed by consumers, and by the
    /// producer when it discards the oldest entry on overflow.
    // sched-atomic(verified): claim cursor — the winning CAS is the only
    // entry ticket, and the slot `seq` Release/Acquire pair orders the
    // payload hand-off around it; see tests/loom_trace.rs.
    tail: AtomicU64,
    /// Events discarded by drop-oldest overflow.
    // sched-atomic(relaxed): statistic.
    dropped: AtomicU64,
    /// Events ever pushed (producer-side, for conservation checks).
    // sched-atomic(relaxed): statistic.
    pushed: AtomicU64,
}

impl SpscRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> SpscRing {
        let cap = capacity.max(2).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                ts: AtomicU64::new(0),
                meta: AtomicU64::new(0),
            })
            .collect();
        SpscRing {
            slots,
            cap,
            mask: cap - 1,
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            pushed: AtomicU64::new(0),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Appends an event, discarding the oldest resident entry if the
    /// ring is full. Returns how many events this push discarded.
    ///
    /// Single-producer: must not be called concurrently with itself.
    pub fn push(&self, ev: TraceEvent) -> u64 {
        let pos = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(pos & self.mask) as usize];
        let mut discarded = 0;
        loop {
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                break; // free for this lap
            }
            // The slot still holds the entry from `pos - cap`: the ring
            // is full. Claim the oldest entry exactly like a consumer
            // would and discard it; if a consumer already claimed it and
            // is mid-copy, spin until it releases the slot.
            let tail = self.tail.load(Ordering::Relaxed);
            if tail + self.cap > pos {
                spin_loop();
                continue;
            }
            if self
                .tail
                .compare_exchange(tail, tail + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let old = &self.slots[(tail & self.mask) as usize];
                old.seq.store(tail + self.cap, Ordering::Release);
                discarded += 1;
            }
        }
        slot.ts.store(ev.ts_ns, Ordering::Relaxed);
        slot.meta.store(ev.pack_meta(), Ordering::Relaxed);
        slot.seq.store(pos + 1, Ordering::Release);
        self.head.store(pos + 1, Ordering::Release);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        if discarded > 0 {
            self.dropped.fetch_add(discarded, Ordering::Relaxed);
        }
        discarded
    }

    /// Removes and returns the oldest resident event. Safe to call from
    /// any thread, concurrently with the producer and other consumers.
    pub fn pop(&self) -> Option<TraceEvent> {
        loop {
            let pos = self.tail.load(Ordering::Acquire);
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq < pos + 1 {
                return None; // not yet published: ring empty at our cursor
            }
            if seq != pos + 1 {
                continue; // our tail read was stale; reload
            }
            if self
                .tail
                .compare_exchange(pos, pos + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let ts = slot.ts.load(Ordering::Relaxed);
                let meta = slot.meta.load(Ordering::Relaxed);
                slot.seq.store(pos + self.cap, Ordering::Release);
                return Some(TraceEvent::unpack(ts, meta));
            }
        }
    }

    /// Events currently resident (approximate under concurrency).
    pub fn len(&self) -> usize {
        let head = self.head.load(Ordering::Acquire);
        let tail = self.tail.load(Ordering::Acquire);
        head.saturating_sub(tail) as usize
    }

    /// True when no events are resident (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded by overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }
}

/// The per-pool flight recorder: one [`SpscRing`] per worker plus the
/// registry counters that make drops observable. Capacity 0 disables
/// recording entirely (the A/B baseline in EXPERIMENTS.md).
pub struct FlightRecorder {
    rings: Box<[SpscRing]>,
    events: Counter,
    dropped: Counter,
}

impl FlightRecorder {
    /// A recorder with `nworkers` rings of `capacity` events each.
    /// Registers the `trace_events` and `trace_dropped` counters; pins
    /// the process-wide clock origin as a side effect so worker
    /// timestamps are measured from before the pool ran anything.
    pub fn new(nworkers: usize, capacity: usize, registry: &Registry) -> Arc<FlightRecorder> {
        let _ = clock_origin();
        let rings = if capacity == 0 {
            Vec::new()
        } else {
            (0..nworkers).map(|_| SpscRing::new(capacity)).collect()
        };
        Arc::new(FlightRecorder {
            rings: rings.into(),
            events: registry.counter("trace_events"),
            dropped: registry.counter("trace_dropped"),
        })
    }

    /// True when events are being recorded (capacity > 0).
    pub fn is_enabled(&self) -> bool {
        !self.rings.is_empty()
    }

    /// Records an event on `worker`'s ring, timestamped now. No-op when
    /// disabled or `worker` is out of range.
    pub fn record(&self, worker: usize, kind: EventKind, arg: u32) {
        if self.rings.is_empty() {
            return; // skip the clock read when disabled
        }
        self.record_at(worker, now_ns(), kind, arg);
    }

    /// Records an event with a caller-supplied timestamp (hot paths reuse
    /// a clock read they already made via [`ns_since_origin`]).
    pub fn record_at(&self, worker: usize, ts_ns: u64, kind: EventKind, arg: u32) {
        self.record_from(worker, worker as u16, ts_ns, kind, arg);
    }

    /// Records an event into ring `ring` on behalf of `worker`, with a
    /// caller-supplied timestamp. Rings are single-producer, so a monitor
    /// thread reporting about another worker (e.g. the pool watchdog
    /// emitting [`EventKind::Stall`] for a wedged worker) must push into
    /// its *own* ring while stamping the subject worker's index into the
    /// event. No-op when disabled or `ring` is out of range.
    pub fn record_from(&self, ring: usize, worker: u16, ts_ns: u64, kind: EventKind, arg: u32) {
        let Some(ring) = self.rings.get(ring) else {
            return;
        };
        let discarded = ring.push(TraceEvent {
            ts_ns,
            worker,
            kind,
            arg,
        });
        self.events.incr();
        if discarded > 0 {
            self.dropped.add(discarded);
        }
    }

    /// Drains up to `max` events across all rings, merged by timestamp.
    pub fn drain(&self, max: usize) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        // Round-robin the rings so one chatty worker cannot starve the
        // rest out of a bounded drain.
        let mut exhausted = vec![false; self.rings.len()];
        while out.len() < max && exhausted.iter().any(|e| !e) {
            for (i, ring) in self.rings.iter().enumerate() {
                if exhausted[i] || out.len() >= max {
                    continue;
                }
                match ring.pop() {
                    Some(ev) => out.push(ev),
                    None => exhausted[i] = true,
                }
            }
        }
        out.sort_by_key(|e| (e.ts_ns, e.worker));
        out
    }

    /// Events currently resident across all rings (approximate).
    pub fn resident(&self) -> usize {
        self.rings.iter().map(SpscRing::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind, arg: u32) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            worker: 0,
            kind,
            arg,
        }
    }

    #[test]
    fn ring_fifo_in_order() {
        let ring = SpscRing::new(8);
        for i in 0..5 {
            assert_eq!(ring.push(ev(i, EventKind::JobStart, i as u32)), 0);
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.pop().unwrap().ts_ns, i);
        }
        assert!(ring.pop().is_none());
        assert!(ring.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let ring = SpscRing::new(4);
        let mut discarded = 0;
        for i in 0..10 {
            discarded += ring.push(ev(i, EventKind::JobStart, 0));
        }
        assert_eq!(discarded, 6);
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.pushed(), 10);
        // The survivors are the newest `cap` events, still in order.
        let got: Vec<u64> = std::iter::from_fn(|| ring.pop()).map(|e| e.ts_ns).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        // Conservation: everything pushed was drained or dropped.
        assert_eq!(ring.pushed(), got.len() as u64 + ring.dropped());
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(SpscRing::new(0).capacity(), 2);
        assert_eq!(SpscRing::new(3).capacity(), 4);
        assert_eq!(SpscRing::new(64).capacity(), 64);
    }

    #[test]
    fn concurrent_drain_conserves_events() {
        use std::sync::atomic::{AtomicBool, AtomicU64 as StdU64, Ordering as StdOrd};
        let ring = Arc::new(SpscRing::new(32));
        let popped = Arc::new(StdU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let producer = {
            let ring = Arc::clone(&ring);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    ring.push(ev(i, EventKind::JobStart, 0));
                }
                done.store(true, StdOrd::Release);
            })
        };
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let popped = Arc::clone(&popped);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut local = 0;
                    loop {
                        match ring.pop() {
                            Some(_) => local += 1,
                            None => {
                                if done.load(StdOrd::Acquire) {
                                    break;
                                }
                                std::hint::spin_loop();
                            }
                        }
                    }
                    popped.fetch_add(local, StdOrd::Relaxed);
                })
            })
            .collect();
        producer.join().unwrap();
        for c in consumers {
            c.join().unwrap();
        }
        let mut rest = 0;
        while ring.pop().is_some() {
            rest += 1;
        }
        assert_eq!(
            popped.load(StdOrd::Relaxed) + rest + ring.dropped(),
            10_000,
            "events lost or duplicated"
        );
    }

    #[test]
    fn recorder_drains_merged_by_timestamp() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(3, 16, &reg);
        assert!(rec.is_enabled());
        rec.record_at(2, 30, EventKind::Steal, 1);
        rec.record_at(0, 10, EventKind::JobStart, 0);
        rec.record_at(1, 20, EventKind::Park, 0);
        let drained = rec.drain(16);
        let ts: Vec<u64> = drained.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(drained[2].worker, 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("trace_events"), Some(&3));
        assert_eq!(snap.counters.get("trace_dropped"), Some(&0));
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(4, 0, &reg);
        assert!(!rec.is_enabled());
        rec.record(0, EventKind::JobStart, 0);
        assert!(rec.drain(16).is_empty());
        assert_eq!(rec.resident(), 0);
    }

    #[test]
    fn recorder_counter_conservation_under_overflow() {
        let reg = Registry::new();
        let rec = FlightRecorder::new(1, 4, &reg);
        for i in 0..100 {
            rec.record_at(0, i, EventKind::JobEnd, 0);
        }
        let drained = rec.drain(usize::MAX).len() as u64;
        let snap = reg.snapshot();
        let pushed = snap.counters["trace_events"];
        let dropped = snap.counters["trace_dropped"];
        assert_eq!(pushed, 100);
        assert_eq!(pushed, drained + dropped, "conservation violated");
    }

    #[test]
    fn timestamps_share_one_origin_across_threads() {
        let t0 = now_ns();
        let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(now_ns)).collect();
        for h in handles {
            let t = h.join().unwrap();
            assert!(t >= t0, "cross-thread timestamp ran backwards");
        }
        let then = Instant::now();
        assert!(ns_since_origin(then) >= t0);
    }
}
