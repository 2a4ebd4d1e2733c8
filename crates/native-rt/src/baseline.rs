//! The pre-work-stealing pool, kept as the measured baseline.
//!
//! This is the central-queue design [`crate::Pool`] replaced: every
//! submit and dequeue serializes through one `Mutex<VecDeque>` and a
//! global condvar — the saturated-lock collapse `pool_bench` quantifies.
//! It stays in-tree so the comparison is reproducible on any host
//! (`pool_bench` runs every configuration on both engines) and so the two
//! designs share the controller, stats, and safe-suspension-point
//! semantics exactly.
//!
//! Two latent defects of the original were fixed here as well, so the
//! benchmark compares queue disciplines rather than bugs: the
//! suspension hand-off is atomic (token claimed under the suspended-list
//! lock, withdrawal on shutdown — see [`crate::Pool`] for the race), and
//! job timestamps are taken *before* the queue lock is acquired so the
//! queue-wait histogram does not inflate the contention it measures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::controller::{Controller, TargetSlot};
use crate::crlock::{CrConfig, CrGate};
use crate::pool::{Job, PoolMetrics};
use crate::stats::{Counter, Gauge, Hist, Registry, Snapshot};

#[derive(Clone, Copy)]
enum ParkState {
    Parked,
    Resumed(Option<Instant>),
}

struct ParkToken {
    state: Mutex<ParkState>,
    cv: Condvar,
}

struct PoolShared {
    /// Jobs with their submission instants (for queue-wait latency).
    queue: Mutex<VecDeque<(Instant, Job)>>,
    /// Signaled when work arrives or the pool shuts down.
    work_cv: Condvar,
    // sched-atomic(handoff): final fetch_sub(AcqRel) publishes the last
    // job's writes to wait_idle's Acquire load.
    outstanding: AtomicUsize,
    idle_cv: Condvar,
    idle_mu: Mutex<()>,
    // sched-atomic(handoff): suspend/resume CAS (AcqRel) orders the
    // worker's hand-off against peers reading the count.
    active: AtomicUsize,
    suspended: Mutex<Vec<Arc<ParkToken>>>,
    target: Arc<TargetSlot>,
    // sched-atomic(handoff): Release store in shutdown() publishes final
    // queue state to the workers' Acquire re-check.
    shutdown: AtomicBool,
    registry: Arc<Registry>,
    jobs_run: Counter,
    suspends: Counter,
    resumes: Counter,
    active_gauge: Gauge,
    target_gauge: Gauge,
    queue_wait: Hist,
    park: Hist,
    unpark: Hist,
    /// Concurrency-restricting gate over the central queue's dequeue
    /// (the pool's one collapse-prone lock); `None` = ungated baseline.
    cr_gate: Option<CrGate>,
    idle_spin: bool,
}

/// The central-queue worker pool (baseline for [`crate::Pool`]).
pub struct CentralPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl CentralPool {
    /// Creates a pool of `nworkers` threads registered with `controller`.
    pub fn new(controller: &Controller, nworkers: usize, idle_spin: bool) -> Self {
        let target = controller.register(nworkers);
        Self::with_slot(target, nworkers, idle_spin)
    }

    /// Creates a pool whose target is driven externally through `target`.
    pub fn with_slot(target: Arc<TargetSlot>, nworkers: usize, idle_spin: bool) -> Self {
        Self::with_slot_cr(target, nworkers, idle_spin, None)
    }

    /// As [`CentralPool::with_slot`], optionally putting a
    /// concurrency-restricting gate ([`CrGate`]) in front of the central
    /// queue mutex: at most `active_max` workers contend for the dequeue
    /// at once, the rest park on the gate's culled list until promoted.
    /// This is the lock the paper's Figure-1 collapse convoys on, so the
    /// gate is the purest native test of "how much does the lock fix".
    pub fn with_slot_cr(
        target: Arc<TargetSlot>,
        nworkers: usize,
        idle_spin: bool,
        cr: Option<CrConfig>,
    ) -> Self {
        assert!(nworkers >= 1);
        let registry = Arc::new(Registry::new());
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            outstanding: AtomicUsize::new(0),
            idle_cv: Condvar::new(),
            idle_mu: Mutex::new(()),
            active: AtomicUsize::new(nworkers),
            suspended: Mutex::new(Vec::new()),
            target,
            shutdown: AtomicBool::new(false),
            jobs_run: registry.counter("jobs_run"),
            suspends: registry.counter("suspends"),
            resumes: registry.counter("resumes"),
            active_gauge: registry.gauge("active"),
            target_gauge: registry.gauge("target"),
            queue_wait: registry.histogram("queue_wait_ns"),
            park: registry.histogram("park_ns"),
            unpark: registry.histogram("unpark_ns"),
            cr_gate: cr.map(|c| CrGate::with_registry(c, &registry)),
            registry,
            idle_spin,
        });
        let workers = (0..nworkers)
            .map(|i| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("central-worker-{i}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn worker")
            })
            .collect();
        CentralPool { shared, workers }
    }

    /// Submits a job through the central queue.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        // Timestamp and box outside the lock (instrumentation must not
        // lengthen the critical section it measures).
        let submitted = Instant::now();
        let boxed: Job = Box::new(job);
        self.shared.outstanding.fetch_add(1, Ordering::AcqRel);
        self.shared.queue.lock().push_back((submitted, boxed));
        self.shared.work_cv.notify_one();
    }

    /// Blocks until every submitted job has finished.
    pub fn wait_idle(&self) {
        let mut guard = self.shared.idle_mu.lock();
        while self.shared.outstanding.load(Ordering::Acquire) > 0 {
            self.shared.idle_cv.wait(&mut guard);
        }
    }

    /// Current number of unsuspended workers.
    pub fn active(&self) -> usize {
        self.shared.active.load(Ordering::Acquire)
    }

    /// The controller's current target for this pool.
    pub fn target(&self) -> usize {
        self.shared.target.target.load(Ordering::Acquire)
    }

    /// Pool counters (the stealing-path fields are always zero here).
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            jobs_run: self.shared.jobs_run.get(),
            suspends: self.shared.suspends.get(),
            resumes: self.shared.resumes.get(),
            ..PoolMetrics::default()
        }
    }

    /// The pool's statistics registry.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A point-in-time copy of every pool statistic.
    pub fn stats(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }
}

impl Drop for CentralPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.work_cv.notify_all();
        {
            let mut suspended = self.shared.suspended.lock();
            for t in suspended.drain(..) {
                *t.state.lock() = ParkState::Resumed(None);
                t.cv.notify_one();
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

enum SuspendOutcome {
    Resumed,
    Shutdown,
}

fn park_suspended(sh: &PoolShared) -> SuspendOutcome {
    let token = Arc::new(ParkToken {
        state: Mutex::new(ParkState::Parked),
        cv: Condvar::new(),
    });
    sh.suspended.lock().push(Arc::clone(&token));
    let parked_at = Instant::now();
    let mut st = token.state.lock();
    loop {
        if let ParkState::Resumed(signaled_at) = *st {
            drop(st);
            sh.park.record(parked_at.elapsed().as_nanos() as u64);
            if let Some(at) = signaled_at {
                sh.unpark.record(at.elapsed().as_nanos() as u64);
            }
            return SuspendOutcome::Resumed;
        }
        if sh.shutdown.load(Ordering::Acquire) {
            drop(st);
            let mut list = sh.suspended.lock();
            if let Some(pos) = list.iter().position(|t| Arc::ptr_eq(t, &token)) {
                list.remove(pos);
                drop(list);
                sh.park.record(parked_at.elapsed().as_nanos() as u64);
                return SuspendOutcome::Shutdown;
            }
            drop(list);
            st = token.state.lock();
            continue;
        }
        token.cv.wait_for(&mut st, Duration::from_millis(50));
    }
}

fn worker_loop(sh: &Arc<PoolShared>) {
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        // --- Safe suspension point: no job held, no lock held. ---
        let target = sh.target.target.load(Ordering::Acquire);
        let active = sh.active.load(Ordering::Acquire);
        sh.active_gauge.set(active as i64);
        sh.target_gauge.set(target as i64);
        if active > target && active > 1 {
            if sh
                .active
                .compare_exchange(active, active - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                sh.suspends.incr();
                match park_suspended(sh) {
                    SuspendOutcome::Resumed => continue,
                    SuspendOutcome::Shutdown => return,
                }
            }
        } else if active < target {
            let mut list = sh.suspended.lock();
            if let Some(token) = list.pop() {
                sh.active.fetch_add(1, Ordering::AcqRel);
                sh.resumes.incr();
                *token.state.lock() = ParkState::Resumed(Some(Instant::now()));
                token.cv.notify_one();
            }
        }
        // --- Dequeue and run. ---
        // With a CR gate configured, only `active_max` workers contend
        // for the queue mutex; the rest park on the culled list. The
        // gate wraps *only* the dequeue — the empty-queue sleep below
        // stays outside it, so a gate slot is never held across a
        // blocking wait and every culled worker is promoted by some
        // holder's exit (workers check shutdown only between balanced
        // enter/exit pairs, so none is left behind at shutdown either).
        let job = match &sh.cr_gate {
            Some(gate) => {
                gate.enter();
                let admitted_at = Instant::now();
                let job = sh.queue.lock().pop_front();
                gate.observe_acquire(admitted_at.elapsed().as_nanos() as u64);
                gate.exit();
                job
            }
            None => sh.queue.lock().pop_front(),
        };
        match job {
            Some((submitted_at, job)) => {
                // Lock already released: the histogram update happens
                // outside the critical section.
                sh.queue_wait
                    .record(submitted_at.elapsed().as_nanos() as u64);
                job();
                sh.jobs_run.incr();
                if sh.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _g = sh.idle_mu.lock();
                    sh.idle_cv.notify_all();
                }
            }
            None => {
                if sh.idle_spin {
                    for _ in 0..2_000 {
                        std::hint::spin_loop();
                    }
                    std::thread::yield_now();
                } else {
                    let mut q = sh.queue.lock();
                    if q.is_empty() && !sh.shutdown.load(Ordering::Acquire) {
                        sh.work_cv.wait_for(&mut q, Duration::from_millis(1));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn central_pool_runs_all_jobs() {
        let c = Controller::new(2, Duration::from_millis(10));
        let pool = CentralPool::new(&c, 4, false);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        assert_eq!(pool.metrics().jobs_run, 200);
        assert_eq!(pool.stats().histograms["queue_wait_ns"].count, 200);
    }

    #[test]
    fn central_pool_with_cr_gate_conserves_jobs() {
        let c = Controller::new(2, Duration::from_millis(10));
        let target = c.register(8);
        // 8 workers funneled through a 2-slot gate: passivation and
        // promotion both get exercised, and nothing may be lost.
        let pool = CentralPool::with_slot_cr(target, 8, false, Some(CrConfig::fixed(2)));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..400 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 400);
        assert_eq!(pool.metrics().jobs_run, 400);
        let stats = pool.stats();
        assert_eq!(stats.gauges["cr_active_size"], 2);
        assert!(stats.counters.contains_key("cr_passivations"));
        assert!(stats.counters.contains_key("cr_promotions"));
    }

    #[test]
    fn central_pool_still_suspends_and_shuts_down() {
        let c = Controller::new(1, Duration::from_millis(10));
        let pool = CentralPool::new(&c, 4, false);
        for _ in 0..100 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(100)));
        }
        pool.wait_idle();
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.metrics().suspends == 0 {
            assert!(Instant::now() < deadline, "no worker suspended");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(pool); // must join cleanly with suspended workers
    }
}
