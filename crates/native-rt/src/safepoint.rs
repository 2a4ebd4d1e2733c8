//! The paper's safe suspension point, written once for both native pools.
//!
//! Between two jobs, holding no job and no lock, a worker compares the
//! unsuspended count with the controller's target: above it the worker
//! suspends itself, below it resumes a colleague, and the last worker
//! never suspends. [`crate::Pool`] and [`crate::CentralPool`] each embed
//! one [`SafePoint`]. A resumer claims a parked worker's token *under the
//! suspended-list lock*, and a worker leaving its park at shutdown must
//! first withdraw its token from that list, so `active` is never counted
//! twice (`tests/loom_safepoint.rs`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::stats::{Counter, Gauge, Hist, Registry};
use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};

/// Bound on one suspension park: a missed signal costs latency only.
const SUSPEND_PARK_POLL: Duration = Duration::from_millis(50);

/// Suspension parking state (process control, not idleness).
#[derive(Clone, Copy)]
enum ParkState {
    Parked,
    /// Claimed by a resumer (the instant it fired) or by shutdown (`None`).
    Resumed(Option<Instant>),
}

/// One suspended worker's wakeup channel (the "signal").
struct ParkToken {
    state: Mutex<ParkState>,
    cv: Condvar,
}

/// Why a suspension park ended.
#[derive(Debug)]
pub enum SuspendOutcome {
    /// Claimed by a resumer, with the instant its signal fired (the
    /// worker is active again), or by [`SafePoint::release_all`] (`None`).
    Resumed(Option<Instant>),
    /// Withdrew its token after shutdown, before anyone claimed it.
    Shutdown,
}

/// One pool's process-control state and its statistics.
pub struct SafePoint {
    /// Unsuspended workers.
    // sched-atomic(handoff): the suspend/resume CAS (AcqRel) orders a
    // suspending worker's hand-off (the stealing pool's deque drain)
    // against peers observing the new count.
    active: AtomicUsize,
    /// Workers suspended by process control, oldest first.
    suspended: Mutex<Vec<Arc<ParkToken>>>,
    suspends: Counter,
    resumes: Counter,
    active_gauge: Gauge,
    target_gauge: Gauge,
    /// How long each suspension lasted, nanoseconds.
    park: Hist,
    /// Resume-signal-to-wakeup latency, nanoseconds.
    unpark: Hist,
}

impl SafePoint {
    /// `nworkers` unsuspended workers, statistics registered in `registry`.
    pub fn new(nworkers: usize, registry: &Registry) -> SafePoint {
        SafePoint {
            active: AtomicUsize::new(nworkers),
            suspended: Mutex::new(Vec::new()),
            suspends: registry.counter("suspends"),
            resumes: registry.counter("resumes"),
            active_gauge: registry.gauge("active"),
            target_gauge: registry.gauge("target"),
            park: registry.histogram("park_ns"),
            unpark: registry.histogram("unpark_ns"),
        }
    }

    /// Current number of unsuspended workers.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Worker self-suspensions so far.
    pub fn suspends(&self) -> u64 {
        self.suspends.get()
    }

    /// Worker resumptions so far.
    pub fn resumes(&self) -> u64 {
        self.resumes.get()
    }

    /// The check at a worker's loop top: resumes one suspended worker
    /// while fewer than `target` run, and returns `true` when the caller
    /// must suspend — already taken out of `active` and counted, it must
    /// call [`SafePoint::park_suspended`] next.
    #[inline]
    pub fn check(&self, target: usize) -> bool {
        let active = self.active.load(Ordering::Acquire);
        // (`Gauge::set` stores only on change: every worker passes here
        // between any two jobs.)
        self.active_gauge.set(active as i64);
        self.target_gauge.set(target as i64);
        if active > target && active > 1 {
            // The CAS guards racing suspenders.
            return self
                .active
                .compare_exchange(active, active - 1, Ordering::AcqRel, Ordering::Acquire)
                .inspect(|_| self.suspends.incr())
                .is_ok();
        }
        if active < target {
            self.resume_one();
        }
        false
    }

    /// Parks a worker [`SafePoint::check`] just suspended until its token
    /// is claimed, or until it withdraws the token once the pool's
    /// `shutdown` flag is up.
    pub fn park_suspended(&self, shutdown: &AtomicBool) -> SuspendOutcome {
        let token = Arc::new(ParkToken {
            state: Mutex::new(ParkState::Parked),
            cv: Condvar::new(),
        });
        self.suspended.lock().push(Arc::clone(&token));
        let parked_at = Instant::now();
        let outcome = {
            let mut st = token.state.lock();
            loop {
                if let ParkState::Resumed(signaled_at) = *st {
                    break SuspendOutcome::Resumed(signaled_at);
                }
                if shutdown.load(Ordering::Acquire) {
                    // To leave without being resumed we must first withdraw
                    // the token; if a resumer already popped it, the claim
                    // is ours to honor — loop until the Resumed mark lands.
                    drop(st);
                    let mut list = self.suspended.lock();
                    if let Some(pos) = list.iter().position(|t| Arc::ptr_eq(t, &token)) {
                        list.remove(pos);
                        break SuspendOutcome::Shutdown;
                    }
                    drop(list);
                    st = token.state.lock();
                    continue;
                }
                token.cv.wait_for(&mut st, SUSPEND_PARK_POLL);
            }
        };
        self.park.record(parked_at.elapsed().as_nanos() as u64);
        if let SuspendOutcome::Resumed(Some(at)) = outcome {
            self.unpark.record(at.elapsed().as_nanos() as u64);
        }
        outcome
    }

    /// Resumes the most recently suspended worker, if any (`true`),
    /// claiming and signaling its token under the suspended-list lock:
    /// atomic against other resumers and the worker's own withdrawal.
    pub fn resume_one(&self) -> bool {
        let mut list = self.suspended.lock();
        let Some(token) = list.pop() else {
            return false;
        };
        self.active.fetch_add(1, Ordering::AcqRel);
        self.resumes.incr();
        *token.state.lock() = ParkState::Resumed(Some(Instant::now()));
        token.cv.notify_one();
        true
    }

    /// Shutdown, once the pool's flag is up: claims every parked token
    /// under the list lock with `Resumed(None)`. A park pushing its token
    /// after this drain sees the flag: the list lock orders the two.
    pub fn release_all(&self) {
        for t in self.suspended.lock().drain(..) {
            *t.state.lock() = ParkState::Resumed(None);
            t.cv.notify_one();
        }
    }

    /// An unsuspended worker's thread died.
    pub fn remove_worker(&self) {
        self.active.fetch_sub(1, Ordering::AcqRel);
    }

    /// A replacement worker joined the unsuspended set.
    pub fn add_worker(&self) {
        self.active.fetch_add(1, Ordering::AcqRel);
    }
}

/// The suspend/resume tests, instantiated for a pool type: `$pool` needs
/// `new(&Controller, n, idle_spin)`, `with_slot(Arc<TargetSlot>, n,
/// idle_spin)`, `execute`, `wait_idle`, `active`, `target` and `metrics`.
#[cfg(test)]
macro_rules! suspend_resume_tests {
    ($pool:ident) => {
        #[test]
        fn oversized_pool_suspends_down_to_target() {
            use std::time::{Duration, Instant};
            let c = $crate::Controller::new(2, Duration::from_millis(10));
            let pool = $pool::new(&c, 8, false);
            assert_eq!(pool.target(), 2);
            // Keep some work flowing so workers pass safe points.
            for _ in 0..200 {
                pool.execute(|| std::thread::sleep(Duration::from_micros(200)));
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while pool.active() > 3 {
                assert!(
                    Instant::now() < deadline,
                    "never suspended: active={}",
                    pool.active()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            pool.wait_idle();
            assert!(pool.metrics().suspends >= 5);
        }

        #[test]
        fn workers_resume_when_target_grows() {
            use std::time::{Duration, Instant};
            let c = $crate::Controller::new(4, Duration::from_millis(10));
            let a = $pool::new(&c, 8, false);
            // Squeeze pool a with a competitor.
            {
                let b = $pool::new(&c, 8, false);
                c.recompute_now();
                assert_eq!(a.target(), 2);
                for _ in 0..400 {
                    a.execute(|| std::thread::sleep(Duration::from_micros(100)));
                    b.execute(|| std::thread::sleep(Duration::from_micros(100)));
                }
                let deadline = Instant::now() + Duration::from_secs(5);
                while a.active() > 3 {
                    assert!(Instant::now() < deadline, "a never shrank");
                    std::thread::sleep(Duration::from_millis(5));
                }
                a.wait_idle();
                b.wait_idle();
            } // b drops; its share is released.
            c.recompute_now();
            assert_eq!(a.target(), 4);
            for _ in 0..400 {
                a.execute(|| std::thread::sleep(Duration::from_micros(100)));
            }
            let deadline = Instant::now() + Duration::from_secs(5);
            while a.active() < 4 {
                assert!(Instant::now() < deadline, "a never grew back");
                std::thread::sleep(Duration::from_millis(5));
            }
            a.wait_idle();
            assert!(a.metrics().resumes >= 1);
        }

        #[test]
        fn drop_wakes_suspended_workers() {
            use std::time::{Duration, Instant};
            let c = $crate::Controller::new(1, Duration::from_millis(10));
            let pool = $pool::new(&c, 4, false);
            for _ in 0..100 {
                pool.execute(|| std::thread::sleep(Duration::from_micros(100)));
            }
            pool.wait_idle();
            let deadline = Instant::now() + Duration::from_secs(5);
            while pool.metrics().suspends == 0 {
                assert!(Instant::now() < deadline, "no worker suspended");
                std::thread::sleep(Duration::from_millis(5));
            }
            drop(pool); // Must join cleanly with suspended workers.
        }

        /// Regression test for the lost-wakeup window: a resume racing a
        /// park/shutdown must never target a worker that already woke
        /// and left. The target is flapped between 1 and `n` while jobs
        /// flow, and each round ends with a drop mid-churn — under a
        /// non-atomic hand-off this wedged or double-counted `active`;
        /// with the atomic hand-off every round joins cleanly and
        /// `active` never exceeds the worker count.
        #[test]
        fn resume_racing_park_and_shutdown_stays_sound() {
            use std::sync::atomic::Ordering;
            use std::sync::Arc;
            use std::time::Duration;
            for round in 0..20 {
                let n = 4;
                let slot = Arc::new($crate::TargetSlot::new(n));
                let pool = $pool::with_slot(Arc::clone(&slot), n, false);
                for flip in 0..40 {
                    slot.target
                        .store(if flip % 2 == 0 { 1 } else { n }, Ordering::Release);
                    for _ in 0..5 {
                        pool.execute(|| std::hint::black_box(()));
                    }
                    assert!(pool.active() <= n, "phantom resume inflated active");
                    if flip % 8 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                // Drop while suspends/resumes are likely in flight.
                if round % 2 == 0 {
                    pool.wait_idle();
                }
                drop(pool); // must join all workers, every time
            }
        }
    };
}

#[cfg(test)]
pub(crate) use suspend_resume_tests;
