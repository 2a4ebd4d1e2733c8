//! A concurrency-restricting lock (CR lock), after Dice & Kogan's
//! *Malthusian Locks* and *Avoiding Scalability Collapse by Restricting
//! Concurrency*.
//!
//! The paper's Figure-1 collapse is, at bottom, a saturated-lock problem:
//! once more threads contend for a lock than the lock can service, every
//! additional contender only adds cache-line traffic and preemption
//! exposure. A CR lock fixes this *locally*: it splits contenders into a
//! small **active set** that is admitted to the inner lock and a passive
//! **culled list** whose threads park instead of competing. Culled
//! threads are promoted back periodically, so long-run fairness holds
//! even though short-run admission is deliberately unfair (LIFO — the
//! most recently culled thread has the warmest cache).
//!
//! Two layers:
//!
//! - [`CrGate`] is the admission mechanism alone — an `enter()`/`exit()`
//!   pair callers wrap around an *existing* contended acquisition (the
//!   central pool's queue mutex). This is how CR retrofits onto locks
//!   that also carry condvars.
//! - [`CrLock`] composes a gate with an inner [`RawSpin`] and the data it
//!   protects — the self-contained form.
//!
//! **Hand-off protocol** (no lost wakeup — modeled in
//! `tests/loom_crlock.rs`): an arriving thread that finds the active set
//! full publishes itself on the culled list and then *re-checks*
//! admission before parking; a releasing thread first tries to transfer
//! its slot to a culled thread, and after giving a slot back re-checks
//! the culled list. The two store→load pairs (`passive_len` vs `admitted`)
//! form a Dekker handshake and use `SeqCst` so at least one side always
//! sees the other.
//!
//! The active-set size is fixed at construction. See DESIGN.md §15.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

use crate::stats::{Counter, Gauge, Hist, Registry};
use crate::sync::{spin_loop, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering};

/// Configuration of one concurrency-restricting gate or lock.
#[derive(Clone, Copy, Debug)]
pub struct CrConfig {
    /// Active-set size: how many threads may contend for the inner lock
    /// at once.
    pub active_max: usize,
    /// Fairness cadence: a culled thread older than this many admissions
    /// is promoted oldest-first instead of LIFO, bounding starvation (see
    /// [`promote_index`]).
    pub promotion_interval: u64,
}

impl CrConfig {
    /// A fixed-size active set of `active_max` threads with the default
    /// promotion cadence.
    pub fn fixed(active_max: usize) -> Self {
        CrConfig {
            active_max,
            promotion_interval: 64,
        }
    }
}

impl Default for CrConfig {
    /// Two admitted threads — enough to keep a hand-off pipelined,
    /// few enough that convoys cannot form.
    fn default() -> Self {
        CrConfig::fixed(2)
    }
}

/// Pure promotion policy, shared by the gate and the fairness proptest.
///
/// The culled list holds `len ≥ 1` threads, oldest first; `oldest` is the
/// admission count at which its front entry was culled and `now` is the
/// current admission count. The returned index is the entry to promote:
/// LIFO (the back — warmest cache) unless the oldest entry has waited at
/// least `interval` admissions, in which case the oldest is promoted.
/// Once a thread is the oldest waiter it is therefore promoted within
/// `interval` admissions, which bounds every thread's wait (the
/// starvation-bound proptest in `tests/crlock_fairness.rs` pins the
/// constant).
pub fn promote_index(oldest: u64, len: usize, now: u64, interval: u64) -> usize {
    debug_assert!(len >= 1, "promote_index on an empty culled list");
    if now.saturating_sub(oldest) >= interval {
        0
    } else {
        len - 1
    }
}

/// Registry-backed statistics of one gate.
struct CrStats {
    passivations: Counter,
    promotions: Counter,
    active_size: Gauge,
    cull_ns: Hist,
}

impl CrStats {
    fn register(registry: &Registry) -> Self {
        CrStats {
            passivations: registry.counter("cr_passivations"),
            promotions: registry.counter("cr_promotions"),
            active_size: registry.gauge("cr_active_size"),
            cull_ns: registry.histogram("cr_cull_ns"),
        }
    }
}

/// One culled thread's park token. The promoter sets `promoted` under
/// the token's own mutex and signals; the parker loops on the flag, so a
/// promotion that lands before the park is never lost.
struct Waiter {
    promoted: Mutex<bool>,
    cv: Condvar,
}

/// How a thread got through [`CrGate::enter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted directly — the active set had room.
    Direct,
    /// Culled first, then promoted (or self-admitted on the re-check);
    /// `waited_ns` is the time spent parked on the culled list.
    Culled {
        /// Nanoseconds spent culled before promotion.
        waited_ns: u64,
    },
}

/// The concurrency-restricting admission gate.
///
/// Wrap a contended acquisition in `enter()` … `exit()`: at most
/// `active_max` threads are between the two at any instant; the rest
/// park on the culled list and are promoted per [`promote_index`].
pub struct CrGate {
    /// Threads currently admitted (between `enter` and `exit`).
    // sched-atomic(seqcst): Dekker store-load handshake with
    // `passive_len` — the parker publishes itself then re-checks
    // `admitted`; the releaser decrements `admitted` then re-checks
    // `passive_len`. SeqCst total order guarantees at least one side
    // sees the other (no lost wakeup); modeled in tests/loom_crlock.rs.
    admitted: AtomicUsize,
    /// Culled-list occupancy, maintained under `culled`'s mutex.
    // sched-atomic(seqcst): the other half of the Dekker handshake with
    // `admitted`; see above and tests/loom_crlock.rs.
    passive_len: AtomicUsize,
    /// Active-set bound.
    active_max: usize,
    /// Total admissions, the fairness policy's clock.
    // sched-atomic(relaxed): monotonic stamp source for promote_index;
    // ± a few ticks only skews the LIFO/oldest choice.
    admissions: AtomicU64,
    promotion_interval: u64,
    /// Culled threads, oldest first, each with the admission count at
    /// cull time (the fairness policy's stamps).
    culled: Mutex<VecDeque<(Arc<Waiter>, u64)>>,
    stats: CrStats,
    /// Keeps a privately created registry alive for `CrGate::new`.
    _own_registry: Option<Arc<Registry>>,
}

impl CrGate {
    /// A gate with a private statistics registry.
    pub fn new(cfg: CrConfig) -> Self {
        let registry = Arc::new(Registry::new());
        let mut gate = Self::with_registry(cfg, &registry);
        gate._own_registry = Some(registry);
        gate
    }

    /// A gate whose `cr_*` statistics ride `registry` (the pool's, so
    /// they show up in `STATS` exports and `schedtop`).
    pub fn with_registry(cfg: CrConfig, registry: &Registry) -> Self {
        assert!(cfg.active_max >= 1, "an empty active set admits no one");
        assert!(cfg.promotion_interval >= 1, "promotion cadence must be ≥ 1");
        let stats = CrStats::register(registry);
        stats.active_size.set(cfg.active_max as i64);
        CrGate {
            admitted: AtomicUsize::new(0),
            passive_len: AtomicUsize::new(0),
            active_max: cfg.active_max,
            admissions: AtomicU64::new(0),
            promotion_interval: cfg.promotion_interval,
            culled: Mutex::new(VecDeque::new()),
            stats,
            _own_registry: None,
        }
    }

    /// Active-set bound.
    pub fn active_max(&self) -> usize {
        self.active_max
    }

    /// Threads currently culled.
    pub fn culled(&self) -> usize {
        self.passive_len.load(Ordering::SeqCst)
    }

    /// Claims an active-set slot if the set has room.
    fn try_admit(&self) -> bool {
        loop {
            let a = self.admitted.load(Ordering::SeqCst);
            if a >= self.active_max {
                return false;
            }
            if self
                .admitted
                .compare_exchange(a, a + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.admissions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
    }

    /// Enters the gate, culling (parking) the calling thread if the
    /// active set is full. Returns how admission happened.
    pub fn enter(&self) -> Admission {
        if self.try_admit() {
            return Admission::Direct;
        }
        // Slow path: publish ourselves on the culled list, then re-check
        // admission — a releaser that decremented `admitted` before our
        // publish cannot have seen us, so we must look again ourselves.
        let waiter = Arc::new(Waiter {
            promoted: Mutex::new(false),
            cv: Condvar::new(),
        });
        let culled_at = Instant::now();
        {
            let mut culled = self.culled.lock();
            let stamp = self.admissions.load(Ordering::Relaxed);
            culled.push_back((Arc::clone(&waiter), stamp));
            self.passive_len.fetch_add(1, Ordering::SeqCst);
        }
        if self.try_admit() {
            // Raced a release: we hold a fresh slot. Withdraw from the
            // culled list — unless a promoter already popped us, in
            // which case we hold *two* slots and must give one back.
            let mut culled = self.culled.lock();
            if let Some(pos) = culled.iter().position(|(w, _)| Arc::ptr_eq(w, &waiter)) {
                culled.remove(pos);
                self.passive_len.fetch_sub(1, Ordering::SeqCst);
                return Admission::Direct;
            }
            drop(culled);
            self.admitted.fetch_sub(1, Ordering::SeqCst);
            // Fall through to the park, which returns immediately: the
            // promoter has already set our flag (or is about to).
        }
        self.stats.passivations.incr();
        let mut flag = waiter.promoted.lock();
        while !*flag {
            waiter.cv.wait(&mut flag);
        }
        drop(flag);
        let waited_ns = culled_at.elapsed().as_nanos() as u64;
        self.stats.cull_ns.record(waited_ns);
        Admission::Culled { waited_ns }
    }

    /// Pops a culled thread per the fairness policy and hands it the
    /// caller's slot. Returns false if the list was empty.
    fn promote(&self) -> bool {
        let waiter = {
            let mut culled = self.culled.lock();
            let Some(&(_, oldest)) = culled.front() else {
                return false;
            };
            let now = self.admissions.load(Ordering::Relaxed);
            let idx = promote_index(oldest, culled.len(), now, self.promotion_interval);
            let (waiter, _) = culled.remove(idx).expect("index from promote_index");
            self.passive_len.fetch_sub(1, Ordering::SeqCst);
            waiter
        };
        self.admissions.fetch_add(1, Ordering::Relaxed);
        self.stats.promotions.incr();
        *waiter.promoted.lock() = true;
        waiter.cv.notify_one();
        true
    }

    /// Leaves the gate: transfers the slot to a culled thread, or gives
    /// it back and re-checks for late arrivals (the Dekker pairing —
    /// see the `admitted` field). Returns true when a thread was promoted.
    pub fn exit(&self) -> bool {
        if self.passive_len.load(Ordering::SeqCst) > 0 && self.promote() {
            return true;
        }
        self.admitted.fetch_sub(1, Ordering::SeqCst);
        loop {
            if self.passive_len.load(Ordering::SeqCst) == 0 {
                return false;
            }
            // Someone culled themselves between our check and decrement.
            // Re-claim a slot and hand it over; if the set refilled
            // meanwhile, those holders will promote on their own exit.
            if !self.try_admit() {
                return false;
            }
            if self.promote() {
                return true;
            }
            self.admitted.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Point-in-time `cr_*` statistics: (passivations, promotions).
    pub fn counters(&self) -> (u64, u64) {
        (self.stats.passivations.get(), self.stats.promotions.get())
    }
}

/// A test-and-test-and-set spinlock — the inner lock whose collapse the
/// CR layer prevents (spinning is exactly what the culled list removes).
#[derive(Default)]
pub struct RawSpin {
    // sched-atomic(handoff): the Release store in unlock publishes the
    // critical section to the next holder's Acquire CAS/load.
    locked: AtomicUsize,
}

impl RawSpin {
    /// Acquires the lock, spinning until held.
    pub fn lock(&self) {
        loop {
            if self.try_lock() {
                return;
            }
            while self.locked.load(Ordering::Acquire) != 0 {
                spin_loop();
            }
        }
    }

    /// Acquires the lock if free; never blocks.
    pub fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the lock. Caller must hold it.
    pub fn unlock(&self) {
        self.locked.store(0, Ordering::Release);
    }
}

/// A concurrency-restricting lock: a [`CrGate`] in front of an inner
/// [`RawSpin`] and the data it protects.
pub struct CrLock<T> {
    gate: CrGate,
    inner: RawSpin,
    data: UnsafeCell<T>,
}

// `lock()` admits through the gate and then acquires `inner` before
// handing out a guard, and the guard releases both on drop.
// SAFETY: mutual exclusion — at most one `CrGuard` (and thus one
// `&mut T`) exists at a time, so `T: Send` suffices for sharing.
unsafe impl<T: Send> Sync for CrLock<T> {}
// SAFETY: moving the lock moves the owned data; no thread affinity.
unsafe impl<T: Send> Send for CrLock<T> {}

impl<T> CrLock<T> {
    /// A CR lock over `data`.
    pub fn new(cfg: CrConfig, data: T) -> Self {
        CrLock {
            gate: CrGate::new(cfg),
            inner: RawSpin::default(),
            data: UnsafeCell::new(data),
        }
    }

    /// Acquires the lock: gate admission first (possibly parking on the
    /// culled list), then the inner lock.
    pub fn lock(&self) -> CrGuard<'_, T> {
        self.gate.enter();
        self.inner.lock();
        CrGuard { lock: self }
    }

    /// The admission gate, for inspecting `cr_*` statistics.
    pub fn gate(&self) -> &CrGate {
        &self.gate
    }
}

/// RAII guard of a [`CrLock`]; releases the inner lock and the gate slot
/// on drop.
pub struct CrGuard<'a, T> {
    lock: &'a CrLock<T>,
}

impl<T> Deref for CrGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only between inner-lock acquisition
        // and release, so this thread has exclusive access to `data`.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T> DerefMut for CrGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive access under the held lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T> Drop for CrGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.inner.unlock();
        self.lock.gate.exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as StdAtomicUsize;

    #[test]
    fn gate_admits_up_to_active_max_directly() {
        let registry = Arc::new(Registry::new());
        let gate = CrGate::with_registry(CrConfig::fixed(2), &registry);
        assert_eq!(gate.active_max(), 2);
        assert_eq!(registry.snapshot().gauges["cr_active_size"], 2);
        assert_eq!(gate.enter(), Admission::Direct);
        assert_eq!(gate.enter(), Admission::Direct);
        assert_eq!(gate.culled(), 0);
        assert!(!gate.exit());
        assert!(!gate.exit());
    }

    #[test]
    fn excess_threads_are_culled_and_promoted() {
        let gate = Arc::new(CrGate::new(CrConfig::fixed(1)));
        let inside = Arc::new(StdAtomicUsize::new(0));
        let peak = Arc::new(StdAtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&gate);
                let inside = Arc::clone(&inside);
                let peak = Arc::clone(&peak);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        g.enter();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        inside.fetch_sub(1, Ordering::SeqCst);
                        g.exit();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "active set of 1 breached");
        assert_eq!(gate.culled(), 0, "culled list drained");
    }

    /// Deterministic cull + promote: while the only slot is held, a
    /// second entrant *must* park; the holder's exit must hand over.
    #[test]
    fn blocked_entrant_is_culled_and_release_promotes_it() {
        let gate = Arc::new(CrGate::new(CrConfig::fixed(1)));
        assert_eq!(gate.enter(), Admission::Direct);
        let g = Arc::clone(&gate);
        let t = std::thread::spawn(move || {
            let admission = g.enter();
            g.exit();
            admission
        });
        // The slot is held, so the entrant cannot self-admit: once it
        // shows on the culled list it is committed to parking.
        while gate.culled() == 0 {
            std::thread::yield_now();
        }
        assert!(gate.exit(), "release with a culled thread must promote");
        match t.join().unwrap() {
            Admission::Culled { .. } => {}
            a => panic!("expected a culled admission, got {a:?}"),
        }
        let (passivations, promotions) = gate.counters();
        assert!(passivations >= 1, "parked entrant not counted");
        assert!(promotions >= 1, "hand-off not counted");
        assert_eq!(gate.culled(), 0);
    }

    #[test]
    fn crlock_protects_its_data() {
        let lk: Arc<CrLock<u64>> = Arc::new(CrLock::new(CrConfig::fixed(2), 0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let lk = Arc::clone(&lk);
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        *lk.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lk.lock(), 4_000);
    }

    #[test]
    fn promote_index_is_lifo_until_the_oldest_is_overdue() {
        // Three culled, the oldest at 10; at admission 40 it has waited
        // 30 < 64, so the back (index 2) goes first.
        assert_eq!(promote_index(10, 3, 40, 64), 2);
        // At admission 80 it is overdue: promote oldest-first.
        assert_eq!(promote_index(10, 3, 80, 64), 0);
        // A lone waiter is both front and back.
        assert_eq!(promote_index(10, 1, 40, 64), 0);
    }
}
