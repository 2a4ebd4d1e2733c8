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
//!   pool's injector sweep, the central pool's queue mutex). This is how
//!   CR retrofits onto locks that also carry condvars.
//! - [`CrLock`] composes a gate with an inner [`RawLock`] and the data it
//!   protects — the self-contained form `lock_bench` measures.
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
//! **Adaptive sizing**: with [`AdaptiveConfig`] set, the gate samples the
//! observed acquisition latency of the inner lock. When hold+hand-off
//! time degrades against the best latency seen, the active set shrinks
//! (fewer contenders ⇒ shorter convoys); when the lock is underutilized
//! while threads sit culled, it grows. See DESIGN.md §15.

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
    /// Initial (and, without [`CrConfig::adaptive`], permanent) active-set
    /// size: how many threads may contend for the inner lock at once.
    pub active_max: usize,
    /// Fairness cadence: a culled thread older than this many admissions
    /// is promoted oldest-first instead of LIFO, bounding starvation (see
    /// [`promote_index`]).
    pub promotion_interval: u64,
    /// Adaptive active-set sizing; `None` keeps `active_max` fixed.
    pub adaptive: Option<AdaptiveConfig>,
}

impl CrConfig {
    /// A fixed-size active set of `active_max` threads with the default
    /// promotion cadence.
    pub fn fixed(active_max: usize) -> Self {
        CrConfig {
            active_max,
            promotion_interval: 64,
            adaptive: None,
        }
    }

    /// Enables adaptive sizing with the given bounds.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = Some(adaptive);
        self
    }
}

impl Default for CrConfig {
    /// Two admitted threads — enough to keep a hand-off pipelined,
    /// few enough that convoys cannot form.
    fn default() -> Self {
        CrConfig::fixed(2)
    }
}

/// Bounds and cadence of the adaptive active-set policy.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Smallest active set the policy may shrink to (≥ 1).
    pub min: usize,
    /// Largest active set the policy may grow to.
    pub max: usize,
    /// Latency samples between sizing decisions.
    pub adapt_every: u64,
    /// Shrink when the latency EWMA exceeds `shrink_ratio ×` the best
    /// EWMA observed (hold+hand-off has degraded).
    pub shrink_ratio: f64,
    /// Grow when the EWMA is below `grow_ratio ×` the best EWMA *and*
    /// threads are culled (the lock has headroom someone is waiting for).
    pub grow_ratio: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min: 1,
            max: 64,
            adapt_every: 128,
            shrink_ratio: 2.0,
            grow_ratio: 1.25,
        }
    }
}

/// Pure promotion policy, shared by the gate, the fairness proptest, and
/// (mirrored) the simulation model in `uthreads`.
///
/// `cull_stamps` holds, oldest first, the admission count at which each
/// culled thread was culled; `now` is the current admission count. The
/// returned index is the entry to promote: LIFO (the back — warmest
/// cache) unless the oldest entry has waited at least `interval`
/// admissions, in which case the oldest is promoted. Once a thread is
/// the oldest waiter it is therefore promoted within `interval`
/// admissions, which bounds every thread's wait (the starvation-bound
/// proptest in `tests/crlock_fairness.rs` pins the constant).
pub fn promote_index(cull_stamps: &VecDeque<u64>, now: u64, interval: u64) -> Option<usize> {
    let oldest = *cull_stamps.front()?;
    if now.saturating_sub(oldest) >= interval {
        Some(0)
    } else {
        Some(cull_stamps.len() - 1)
    }
}

/// The adaptive active-set sizer: a pure state machine fed acquisition
/// latencies, emitting a new active-set size when the policy moves.
#[derive(Clone, Debug)]
pub struct AdaptiveSizer {
    cfg: AdaptiveConfig,
    ewma_ns: f64,
    best_ns: f64,
    since_adapt: u64,
}

impl AdaptiveSizer {
    /// A sizer with the given bounds and cadence.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        AdaptiveSizer {
            cfg,
            ewma_ns: 0.0,
            best_ns: 0.0,
            since_adapt: 0,
        }
    }

    /// Feeds one observed acquisition latency. `cur_max` is the current
    /// active-set size and `culled_waiting` whether any thread sits on
    /// the culled list. Returns `Some(new_max)` when the policy resizes.
    pub fn observe(
        &mut self,
        latency_ns: u64,
        cur_max: usize,
        culled_waiting: bool,
    ) -> Option<usize> {
        let x = latency_ns as f64;
        self.ewma_ns = if self.ewma_ns == 0.0 {
            x
        } else {
            self.ewma_ns * 0.875 + x * 0.125
        };
        self.since_adapt += 1;
        if self.since_adapt < self.cfg.adapt_every {
            return None;
        }
        self.since_adapt = 0;
        if self.best_ns == 0.0 || self.ewma_ns < self.best_ns {
            self.best_ns = self.ewma_ns;
        }
        if self.ewma_ns > self.cfg.shrink_ratio * self.best_ns && cur_max > self.cfg.min {
            Some(cur_max - 1)
        } else if self.ewma_ns < self.cfg.grow_ratio * self.best_ns
            && culled_waiting
            && cur_max < self.cfg.max
        {
            Some(cur_max + 1)
        } else {
            None
        }
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

/// The mutex-protected slow-path state: the culled list (with cull
/// stamps for the fairness policy) and the adaptive sizer.
struct CrCore {
    /// Culled threads, oldest first, each with the admission count at
    /// cull time.
    culled: VecDeque<(Arc<Waiter>, u64)>,
    sizer: Option<AdaptiveSizer>,
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
    /// Culled-list occupancy, maintained under `core`'s mutex.
    // sched-atomic(seqcst): the other half of the Dekker handshake with
    // `admitted`; see above and tests/loom_crlock.rs.
    passive_len: AtomicUsize,
    /// Current active-set bound (written by the adaptive policy).
    // sched-atomic(relaxed): advisory admission bound; exceeding or
    // undershooting it momentarily is harmless, the mutex-protected
    // sizer is the only writer.
    active_max: AtomicUsize,
    /// Total admissions, the fairness policy's clock.
    // sched-atomic(relaxed): monotonic stamp source for promote_index;
    // ± a few ticks only skews the LIFO/oldest choice.
    admissions: AtomicU64,
    promotion_interval: u64,
    /// Whether an adaptive sizer is installed — checked on the hot path
    /// so fixed-size gates skip latency timestamping and the `core`
    /// mutex entirely.
    adaptive_enabled: bool,
    core: Mutex<CrCore>,
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
            active_max: AtomicUsize::new(cfg.active_max),
            admissions: AtomicU64::new(0),
            promotion_interval: cfg.promotion_interval,
            adaptive_enabled: cfg.adaptive.is_some(),
            core: Mutex::new(CrCore {
                culled: VecDeque::new(),
                sizer: cfg.adaptive.map(AdaptiveSizer::new),
            }),
            stats,
            _own_registry: None,
        }
    }

    /// Current active-set bound.
    pub fn active_max(&self) -> usize {
        self.active_max.load(Ordering::Relaxed)
    }

    /// Threads currently culled.
    pub fn culled(&self) -> usize {
        self.passive_len.load(Ordering::SeqCst)
    }

    /// Claims an active-set slot if the set has room.
    fn try_admit(&self) -> bool {
        let max = self.active_max.load(Ordering::Relaxed);
        loop {
            let a = self.admitted.load(Ordering::SeqCst);
            if a >= max {
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
            let mut core = self.core.lock();
            let stamp = self.admissions.load(Ordering::Relaxed);
            core.culled.push_back((Arc::clone(&waiter), stamp));
            self.passive_len.fetch_add(1, Ordering::SeqCst);
        }
        if self.try_admit() {
            // Raced a release: we hold a fresh slot. Withdraw from the
            // culled list — unless a promoter already popped us, in
            // which case we hold *two* slots and must give one back.
            let mut core = self.core.lock();
            if let Some(pos) = core
                .culled
                .iter()
                .position(|(w, _)| Arc::ptr_eq(w, &waiter))
            {
                core.culled.remove(pos);
                self.passive_len.fetch_sub(1, Ordering::SeqCst);
                return Admission::Direct;
            }
            drop(core);
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
            let mut core = self.core.lock();
            let stamps: VecDeque<u64> = core.culled.iter().map(|&(_, s)| s).collect();
            let now = self.admissions.load(Ordering::Relaxed);
            let Some(idx) = promote_index(&stamps, now, self.promotion_interval) else {
                return false;
            };
            let (waiter, _) = core.culled.remove(idx).expect("index from promote_index");
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

    /// Whether this gate carries an adaptive sizer (callers can skip
    /// latency measurement otherwise).
    pub fn adaptive_enabled(&self) -> bool {
        self.adaptive_enabled
    }

    /// Feeds one observed inner-lock acquisition latency to the adaptive
    /// sizer (no-op without [`CrConfig::adaptive`]).
    pub fn observe_acquire(&self, latency_ns: u64) {
        if !self.adaptive_enabled {
            return;
        }
        let mut core = self.core.lock();
        let culled_waiting = !core.culled.is_empty();
        let cur = self.active_max.load(Ordering::Relaxed);
        let resized = core
            .sizer
            .as_mut()
            .and_then(|s| s.observe(latency_ns, cur, culled_waiting));
        drop(core);
        if let Some(new_max) = resized {
            self.active_max.store(new_max, Ordering::Relaxed);
            self.stats.active_size.set(new_max as i64);
        }
    }

    /// Point-in-time `cr_*` statistics: (passivations, promotions).
    pub fn counters(&self) -> (u64, u64) {
        (self.stats.passivations.get(), self.stats.promotions.get())
    }
}

/// The minimal mutual-exclusion surface [`CrLock`] composes over.
pub trait RawLock: Send + Sync {
    /// Acquires the lock, blocking (or spinning) until held.
    fn lock(&self);
    /// Acquires the lock if free; never blocks.
    fn try_lock(&self) -> bool;
    /// Releases the lock. Caller must hold it.
    fn unlock(&self);
}

/// A test-and-test-and-set spinlock — the inner lock whose collapse the
/// CR layer prevents (spinning is exactly what the culled list removes).
#[derive(Default)]
pub struct RawSpin {
    // sched-atomic(handoff): the Release store in unlock publishes the
    // critical section to the next holder's Acquire CAS/load.
    locked: AtomicUsize,
}

impl RawLock for RawSpin {
    fn lock(&self) {
        loop {
            if self.try_lock() {
                return;
            }
            while self.locked.load(Ordering::Acquire) != 0 {
                spin_loop();
            }
        }
    }

    fn try_lock(&self) -> bool {
        self.locked
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn unlock(&self) {
        self.locked.store(0, Ordering::Release);
    }
}

/// A parking (sleeping) inner lock, for hold times long enough that
/// spinning is waste even inside the active set.
#[derive(Default)]
pub struct RawParking {
    held: Mutex<bool>,
    cv: Condvar,
}

impl RawLock for RawParking {
    fn lock(&self) {
        let mut held = self.held.lock();
        while *held {
            self.cv.wait(&mut held);
        }
        *held = true;
    }

    fn try_lock(&self) -> bool {
        let mut held = self.held.lock();
        if *held {
            false
        } else {
            *held = true;
            true
        }
    }

    fn unlock(&self) {
        *self.held.lock() = false;
        self.cv.notify_one();
    }
}

/// A concurrency-restricting lock: a [`CrGate`] in front of an inner
/// [`RawLock`] and the data it protects.
pub struct CrLock<T, L: RawLock = RawSpin> {
    gate: CrGate,
    inner: L,
    data: UnsafeCell<T>,
}

// `lock()` admits through the gate and then acquires `inner` before
// handing out a guard, and the guard releases both on drop.
// SAFETY: mutual exclusion — at most one `CrGuard` (and thus one
// `&mut T`) exists at a time, so `T: Send` suffices for sharing.
unsafe impl<T: Send, L: RawLock> Sync for CrLock<T, L> {}
// SAFETY: moving the lock moves the owned data; no thread affinity.
unsafe impl<T: Send, L: RawLock> Send for CrLock<T, L> {}

impl<T, L: RawLock + Default> CrLock<T, L> {
    /// A CR lock over `data` with a default-constructed inner lock.
    pub fn new(cfg: CrConfig, data: T) -> Self {
        CrLock {
            gate: CrGate::new(cfg),
            inner: L::default(),
            data: UnsafeCell::new(data),
        }
    }
}

impl<T, L: RawLock> CrLock<T, L> {
    /// Acquires the lock: gate admission first (possibly parking on the
    /// culled list), then the inner lock. With an adaptive sizer the
    /// measured admission-to-held latency feeds it; fixed-size gates
    /// skip the two clock reads.
    pub fn lock(&self) -> CrGuard<'_, T, L> {
        self.gate.enter();
        if self.gate.adaptive_enabled() {
            let admitted_at = Instant::now();
            self.inner.lock();
            self.gate
                .observe_acquire(admitted_at.elapsed().as_nanos() as u64);
        } else {
            self.inner.lock();
        }
        CrGuard { lock: self }
    }

    /// The admission gate, for inspecting `cr_*` statistics.
    pub fn gate(&self) -> &CrGate {
        &self.gate
    }
}

/// RAII guard of a [`CrLock`]; releases the inner lock and the gate slot
/// on drop.
pub struct CrGuard<'a, T, L: RawLock> {
    lock: &'a CrLock<T, L>,
}

impl<T, L: RawLock> Deref for CrGuard<'_, T, L> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists only between inner-lock acquisition
        // and release, so this thread has exclusive access to `data`.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T, L: RawLock> DerefMut for CrGuard<'_, T, L> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive access under the held lock.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T, L: RawLock> Drop for CrGuard<'_, T, L> {
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
        let gate = CrGate::new(CrConfig::fixed(2));
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
    fn crlock_over_parking_inner_also_counts_correctly() {
        let lk: Arc<CrLock<u64, RawParking>> = Arc::new(CrLock::new(CrConfig::fixed(1), 0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let lk = Arc::clone(&lk);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        *lk.lock() += 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lk.lock(), 2_000);
    }

    #[test]
    fn promote_index_is_lifo_until_the_oldest_is_overdue() {
        let stamps: VecDeque<u64> = [10, 20, 30].into_iter().collect();
        // Oldest culled at 10; at admission 40 it has waited 30 < 64.
        assert_eq!(promote_index(&stamps, 40, 64), Some(2));
        // At admission 80 it is overdue: promote oldest-first.
        assert_eq!(promote_index(&stamps, 80, 64), Some(0));
        assert_eq!(promote_index(&VecDeque::new(), 80, 64), None);
    }

    #[test]
    fn sizer_shrinks_on_degradation_and_grows_on_headroom() {
        let cfg = AdaptiveConfig {
            min: 1,
            max: 8,
            adapt_every: 4,
            shrink_ratio: 2.0,
            grow_ratio: 1.25,
        };
        let mut s = AdaptiveSizer::new(cfg);
        // Establish a fast baseline.
        let mut cur = 4usize;
        for _ in 0..4 {
            if let Some(n) = s.observe(1_000, cur, false) {
                cur = n;
            }
        }
        // Latency degrades 100×: the EWMA crosses 2× best → shrink.
        let mut shrunk = false;
        for _ in 0..64 {
            if let Some(n) = s.observe(100_000, cur, false) {
                assert!(n < cur, "degradation must shrink, got {n} from {cur}");
                cur = n;
                shrunk = true;
                break;
            }
        }
        assert!(shrunk, "sizer never reacted to degradation");
        // Recovery with culled threads waiting → grow again.
        let mut grew = false;
        for _ in 0..256 {
            if let Some(n) = s.observe(900, cur, true) {
                if n > cur {
                    grew = true;
                    break;
                }
                cur = n;
            }
        }
        assert!(grew, "sizer never grew back on headroom");
    }

    #[test]
    fn adaptive_gate_updates_its_gauge() {
        let registry = Arc::new(Registry::new());
        let cfg = CrConfig {
            active_max: 4,
            promotion_interval: 16,
            adaptive: Some(AdaptiveConfig {
                adapt_every: 2,
                ..AdaptiveConfig::default()
            }),
        };
        let gate = CrGate::with_registry(cfg, &registry);
        assert_eq!(registry.snapshot().gauges["cr_active_size"], 4);
        for _ in 0..4 {
            gate.observe_acquire(1_000);
        }
        // Degrade hard; the gauge must track the shrink.
        for _ in 0..64 {
            gate.observe_acquire(1_000_000);
        }
        assert!(
            registry.snapshot().gauges["cr_active_size"] < 4,
            "gauge did not track the adaptive shrink"
        );
    }
}
