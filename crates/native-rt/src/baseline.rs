//! The pre-work-stealing pool: one central queue.
//!
//! This is the central-queue design [`crate::Pool`] replaced: every
//! submit and dequeue serializes through one `Mutex<VecDeque>` and a
//! global condvar. It stays in-tree as the shape of an application that
//! dequeues from one shared, lock-protected queue (optionally behind a
//! [`CrGate`]), and as the second pool the suspend/resume tests run
//! against. The two designs share the controller, the stats and one safe
//! suspension point ([`crate::safepoint`]), so they differ only in queue
//! discipline. Job timestamps are taken *before* the queue lock is
//! acquired so the queue-wait histogram does not inflate the contention
//! it measures.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::controller::{Controller, TargetSlot};
use crate::crlock::{CrConfig, CrGate};
use crate::pool::{Job, PoolMetrics};
use crate::safepoint::{SafePoint, SuspendOutcome};
use crate::stats::{Counter, Hist, Registry, Snapshot};
use crate::sync::{spin_loop, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};

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
    safepoint: SafePoint,
    target: Arc<TargetSlot>,
    // sched-atomic(handoff): Release store in shutdown() publishes final
    // queue state to the workers' Acquire re-check.
    shutdown: AtomicBool,
    registry: Arc<Registry>,
    jobs_run: Counter,
    /// Job panics caught (the worker survived).
    jobs_panicked: Counter,
    queue_wait: Hist,
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
            safepoint: SafePoint::new(nworkers, &registry),
            target,
            shutdown: AtomicBool::new(false),
            jobs_run: registry.counter("jobs_run"),
            jobs_panicked: registry.counter("jobs_panicked"),
            queue_wait: registry.histogram("queue_wait_ns"),
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
        self.shared.safepoint.active()
    }

    /// The controller's current target for this pool.
    pub fn target(&self) -> usize {
        self.shared.target.target.load(Ordering::Acquire)
    }

    /// Pool counters (the stealing-path fields are always zero here).
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            jobs_run: self.shared.jobs_run.get(),
            suspends: self.shared.safepoint.suspends(),
            resumes: self.shared.safepoint.resumes(),
            jobs_panicked: self.shared.jobs_panicked.get(),
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
        self.shared.safepoint.release_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(sh: &Arc<PoolShared>) {
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            return;
        }
        // --- Safe suspension point: no job held, no lock held. ---
        if sh.safepoint.check(sh.target.target.load(Ordering::Acquire)) {
            match sh.safepoint.park_suspended(&sh.shutdown) {
                SuspendOutcome::Resumed(_) => continue,
                SuspendOutcome::Shutdown => return,
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
                // An unwinding job would kill the worker before the
                // `outstanding` decrement and hang `wait_idle`.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    sh.jobs_panicked.incr();
                }
                sh.jobs_run.incr();
                if sh.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _g = sh.idle_mu.lock();
                    sh.idle_cv.notify_all();
                }
            }
            None => {
                if sh.idle_spin {
                    for _ in 0..2_000 {
                        spin_loop();
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
    fn central_pool_runs_jobs_forked_inside_jobs() {
        // A binary tree of 6 levels below one root: every job but the
        // root is submitted from inside a running job.
        fn spawn_tree(pool: &Arc<CentralPool>, depth: usize, done: &Arc<AtomicUsize>) {
            let (p, d) = (Arc::clone(pool), Arc::clone(done));
            pool.execute(move || {
                d.fetch_add(1, Ordering::Relaxed);
                if depth > 0 {
                    spawn_tree(&p, depth - 1, &d);
                    spawn_tree(&p, depth - 1, &d);
                }
            });
        }
        let c = Controller::new(2, Duration::from_millis(10));
        let pool = Arc::new(CentralPool::new(&c, 2, false));
        let counter = Arc::new(AtomicUsize::new(0));
        spawn_tree(&pool, 6, &counter);
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 127);
        assert_eq!(pool.metrics().jobs_run, 127);
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
    fn a_panicking_job_neither_kills_its_worker_nor_hangs_wait_idle() {
        let c = Controller::new(2, Duration::from_millis(10));
        let pool = Arc::new(CentralPool::new(&c, 1, false));
        pool.execute(|| panic!("injected job panic"));
        pool.execute(|| {});
        // Wait on a helper thread so a regression fails instead of
        // hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let p = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            p.wait_idle();
            let _ = tx.send(());
        });
        assert!(
            rx.recv_timeout(Duration::from_secs(5)).is_ok(),
            "wait_idle still blocked 5 s after a job panicked"
        );
        waiter.join().expect("waiter thread");
        let m = pool.metrics();
        assert_eq!((m.jobs_run, m.jobs_panicked), (2, 1));
        assert_eq!(pool.active(), 1, "the worker survived its job's panic");
    }

    crate::safepoint::suspend_resume_tests!(CentralPool);
}
