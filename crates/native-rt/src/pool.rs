//! A work-stealing worker pool over real OS threads, with process control.
//!
//! The native analog of the modified threads package, rebuilt around
//! per-worker [Chase–Lev deques](crate::deque) instead of one central
//! `Mutex<VecDeque>`. This file is the pool's face: construction,
//! submission ([`Pool::execute`]), [`Pool::wait_idle`], shutdown and
//! statistics. What a worker thread runs is in `pool/worker.rs`; the
//! stall watchdog and a dying worker's recovery are in `pool/fault.rs`.

mod fault;
mod worker;

use std::cell::Cell;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::controller::{Controller, TargetSlot};
use crate::deque::{self, Stealer};
use crate::injector::Injector;
use crate::quiesce::Quiesce;
use crate::safepoint::SafePoint;
use crate::stats::{Counter, Gauge, Hist, Registry, Snapshot};
use crate::sync::{AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
use crate::topology::{CpuTopology, NUM_STEAL_TIERS, STEAL_TIER_NAMES};
use crate::trace::FlightRecorder;
use fault::watchdog_loop;
use worker::{worker_loop, IdleSlot, Task, CURRENT_WORKER};

pub(crate) use worker::run_caught;

/// A unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// One submission in this many is stamped with the clock and recorded
/// with this weight — counted per worker for its own spawns, and over
/// the pool's outside submissions for the rest.
const STAMP_EVERY: u64 = 32;

/// The queue-wait stamp of the `nth` submission on one counter: the
/// first and then every [`STAMP_EVERY`]-th, standing for that many jobs.
#[inline]
fn stamp(nth: u64) -> Option<(Instant, u64)> {
    (nth % STAMP_EVERY == 1).then(|| (Instant::now(), STAMP_EVERY))
}

/// Pool counters, mirroring the simulated package's
/// [`uthreads::AppMetrics`].
///
/// `jobs_run == local_hits + injector_pops + steals` always (each
/// executed job is acquired through exactly one of the three paths) —
/// the job-conservation invariant the stress tests assert.
///
/// [`uthreads::AppMetrics`]: ../uthreads/struct.AppMetrics.html
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolMetrics {
    /// Jobs executed.
    pub jobs_run: u64,
    /// Worker self-suspensions.
    pub suspends: u64,
    /// Worker resumptions.
    pub resumes: u64,
    /// Jobs a worker popped from its own deque.
    pub local_hits: u64,
    /// Jobs taken from the shared injector to run at once: one per
    /// batch ([`crate::injector::Injector::pop_batch`]). The rest of a
    /// batch waits on the taker's deque and counts where it is taken
    /// when it runs, in `local_hits` or `steals`.
    pub injector_pops: u64,
    /// Jobs stolen from another worker's deque.
    pub steals: u64,
    /// Steal attempts that lost a CAS race and had to retry.
    pub steal_fails: u64,
    /// Successful steals broken out by victim distance
    /// ([`STEAL_TIER_NAMES`] order: smt, llc, socket, remote); the
    /// entries sum to `steals`.
    pub steal_tier_hits: [u64; NUM_STEAL_TIERS],
    /// Victims passed over because they were suspended (their deques
    /// are drained before parking, so probing them is pure waste).
    pub steal_skips_suspended: u64,
    /// Jobs whose panic the worker caught (every job runs under
    /// `catch_unwind`). Panicked jobs still count in `jobs_run` — they
    /// were acquired and executed, so the conservation invariant is
    /// unaffected; this counter is the failed subset.
    pub jobs_panicked: u64,
    /// Stall episodes the watchdog opened (a running worker's heartbeat
    /// went stale past the threshold).
    pub stalls_detected: u64,
    /// Unpark nudges the watchdog issued to long-parked workers while
    /// work was visibly available (missed-wakeup insurance).
    pub stall_nudges: u64,
}

struct PoolShared {
    /// External submissions (and jobs drained from suspending workers).
    injector: Injector<Task>,
    /// Steal handles for every worker's deque, indexed by worker.
    stealers: Box<[Stealer<Task>]>,
    /// Per-worker single-writer cells (path counts, spawned/finished,
    /// progress word) and the `wait_idle` rendezvous over them; also the
    /// registry's source for `jobs_run`, `local_hits`, `injector_pops`,
    /// `steals` and `steal_fails`.
    quiesce: Arc<Quiesce>,
    /// The unsuspended count, the suspended workers and their statistics.
    safepoint: SafePoint,
    /// Per-worker "suspended" flags, indexed like `stealers`: set after
    /// a suspending worker drains its deque (so the deque is provably
    /// empty while the flag is up) and cleared by the worker itself on
    /// resume. Stealers skip flagged victims instead of probing their
    /// permanently-empty deques.
    // sched-atomic(handoff): Release store after the drain publishes the
    // emptied deque; stealers' Acquire load pairs with it.
    suspended_flags: Box<[AtomicBool]>,
    /// Workers parked for lack of work.
    sleepers: Mutex<Vec<Arc<IdleSlot>>>,
    /// `sleepers.len()`, readable without the lock (producer fast path).
    // sched-atomic(seqcst): Dekker store-load with the producer: sleeper
    // publishes nsleepers then re-checks work; producer publishes work
    // then reads nsleepers. Both sides need the total order.
    nsleepers: AtomicUsize,
    target: Arc<TargetSlot>,
    // sched-atomic(handoff): Release store in shutdown() publishes the
    // final queue state to workers' Acquire re-check before they exit.
    shutdown: AtomicBool,
    /// Statistics registry behind the handles below (snapshot API).
    registry: Arc<Registry>,
    /// Successful steals by victim distance tier (`steal_tier_smt`,
    /// `steal_tier_llc`, `steal_tier_socket`, `steal_tier_remote`).
    steal_tier_hits: [Counter; NUM_STEAL_TIERS],
    /// Suspended victims skipped during steal sweeps.
    steal_skips_suspended: Counter,
    /// Workers currently holding a narrow (own-CPU) affinity pin.
    // sched-atomic(relaxed): feeds the affinity_applied gauge only; no
    // data is published under it.
    npinned: AtomicUsize,
    /// Gauge mirror of `npinned` (0 when pinning is off or count-only).
    affinity_applied: Gauge,
    /// The most recently recomputed adaptive spin budget, nanoseconds.
    spin_budget: Gauge,
    /// Submission-to-dequeue latency, nanoseconds: one in
    /// [`STAMP_EVERY`] of the outside submissions and of each worker's
    /// own spawns, recorded with that weight.
    queue_wait: Hist,
    /// How long an out-of-work worker spun before parking (or finding
    /// work), nanoseconds.
    spin_before_park: Hist,
    /// Wake signal (resume or idle unpark) to next job dequeue,
    /// nanoseconds — "how long did a runnable worker wait to run".
    wake_to_run: Hist,
    /// Suspension safe point entered to first job after resume,
    /// nanoseconds (the full decision→effect latency of one suspend).
    suspend_to_resume: Hist,
    /// Victim-ring rebuilds triggered by CPU-set changes (dynamic
    /// re-tiering around the new home CPU).
    retier_events: Counter,
    /// Job panics caught (the worker survived).
    jobs_panicked: Counter,
    /// Stall episodes the watchdog opened.
    stalls_detected: Counter,
    /// Unpark nudges issued to stale parked workers.
    stall_nudges: Counter,
    /// Duration of each completed stall episode (detection to first
    /// observed progress), nanoseconds.
    stall_ns: Hist,
    /// The per-worker flight-recorder rings (may be disabled).
    recorder: Arc<FlightRecorder>,
    /// Busy-wait (1989-style) instead of sleeping when the queues are
    /// empty but work is outstanding.
    idle_spin: bool,
    /// The machine layout victim rings and pinning are derived from.
    topology: Arc<CpuTopology>,
    /// Pin workers to their assigned CPUs via `sched_setaffinity`.
    pin: bool,
}

/// Construction options for a [`Pool`] beyond the worker count.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker thread count (must be ≥ 1).
    pub nworkers: usize,
    /// Busy-wait (1989-style) instead of the adaptive spin-then-park
    /// protocol when no work is queued.
    pub idle_spin: bool,
    /// Pin workers with `sched_setaffinity(2)`: to their own CPU while
    /// the control plane assigns a concrete set, to the whole machine
    /// otherwise. Best-effort — a no-op off Linux or when the kernel
    /// rejects the mask (e.g. synthetic CPU ids beyond the real ones).
    pub pin: bool,
    /// Topology override for victim rings and pin targets; `None` uses
    /// the process-wide detected topology
    /// ([`CpuTopology::shared`]).
    pub topology: Option<Arc<CpuTopology>>,
    /// Per-worker flight-recorder ring capacity in events (rounded up
    /// to a power of two). `0` disables the recorder entirely — the
    /// recorder-off arm of EXPERIMENTS.md's "Flight-recorder overhead
    /// A/B" (frozen at 04b0ca1).
    pub trace_capacity: usize,
    /// Run a stall watchdog with this stall threshold over the
    /// per-worker progress words; `None` (default) disables monitoring
    /// entirely — zero threads, zero hot-path cost beyond one relaxed
    /// store per job to a line only that worker writes. The watchdog
    /// flags a running worker whose word stays unchanged past the
    /// threshold (`stalls_detected`, [`crate::EventKind::Stall`]) and
    /// nudges a parked one while work is visibly queued (`stall_nudges`).
    /// It scans every quarter threshold (at least 1 ms) and the word
    /// carries no timestamp, so it sees a pickup up to one scan late and
    /// flags a stall within threshold + 2 scans = 1.5× the threshold.
    pub watchdog: Option<Duration>,
}

/// Default flight-recorder ring capacity per worker ("always-on": large
/// enough to hold a poll interval's worth of scheduling transitions,
/// small enough that 8 workers cost ~50 KiB).
const DEFAULT_TRACE_CAPACITY: usize = 256;

impl PoolConfig {
    /// Defaults: spin-then-park idling, no pinning, detected topology,
    /// flight recorder on at 256 events per worker, no watchdog.
    pub fn new(nworkers: usize) -> Self {
        PoolConfig {
            nworkers,
            idle_spin: false,
            pin: false,
            topology: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            watchdog: None,
        }
    }
}

/// A controlled work-stealing worker pool.
pub struct Pool {
    shared: Arc<PoolShared>,
    /// The worker threads, indexed like `stealers`.
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<WatchdogHandle>,
}

/// The running stall watchdog (see [`PoolConfig::watchdog`]). The stop flag
/// doubles as the scan-interval timer: the thread waits on the condvar
/// so shutdown interrupts a sleep instead of waiting it out.
struct WatchdogHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<()>,
}

impl Pool {
    /// Creates a pool of `nworkers` threads registered with `controller`.
    /// `idle_spin` selects period-faithful busy-waiting (true) or the
    /// adaptive spin-then-park protocol (false) when no work is queued.
    pub fn new(controller: &Controller, nworkers: usize, idle_spin: bool) -> Self {
        let mut cfg = PoolConfig::new(nworkers);
        cfg.idle_spin = idle_spin;
        Self::with_config(controller, cfg)
    }

    /// Creates a pool registered with `controller` using the full
    /// [`PoolConfig`] (pinning, topology override).
    pub fn with_config(controller: &Controller, cfg: PoolConfig) -> Self {
        let target = controller.register(cfg.nworkers);
        Self::with_slot_config(target, cfg)
    }

    /// Creates a pool whose target is driven externally (e.g. by a
    /// [`crate::UdsClient`] poller talking to a cross-process server)
    /// through the given slot.
    ///
    /// For deployments that must survive server crashes, drive the slot
    /// with [`crate::SupervisedClient::spawn_poller`] (Unix only) and
    /// hand it this pool's [`Pool::registry`]: targets then fall back to
    /// degraded mode through outages, and the supervisor's fault
    /// counters travel with the pool's own stats through REPORT/STATS.
    pub fn with_slot(target: Arc<TargetSlot>, nworkers: usize, idle_spin: bool) -> Self {
        let mut cfg = PoolConfig::new(nworkers);
        cfg.idle_spin = idle_spin;
        Self::with_slot_config(target, cfg)
    }

    /// [`Pool::with_slot`] with the full [`PoolConfig`].
    pub fn with_slot_config(target: Arc<TargetSlot>, cfg: PoolConfig) -> Self {
        let nworkers = cfg.nworkers;
        assert!(nworkers >= 1);
        let topology = cfg
            .topology
            .unwrap_or_else(|| Arc::clone(CpuTopology::shared()));
        let registry = Arc::new(Registry::new());
        let mut locals = Vec::with_capacity(nworkers);
        let mut stealers = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let (w, s) = deque::deque::<Task>();
            locals.push(w);
            stealers.push(s);
        }
        // sched-counters: steal_tier_smt steal_tier_llc steal_tier_socket steal_tier_remote
        let steal_tier_hits = std::array::from_fn(|i| {
            registry.counter(&format!("steal_tier_{}", STEAL_TIER_NAMES[i]))
        });
        // One ring per worker plus one for the watchdog: rings are
        // single-producer, so the monitor needs its own to emit
        // Stall/Recovered events about (not from) a wedged worker.
        let recorder = FlightRecorder::new(nworkers + 1, cfg.trace_capacity, &registry);
        let quiesce = Arc::new(Quiesce::new(nworkers));
        // sched-counters: jobs_run local_hits injector_pops steals steal_fails
        registry.counter_source(Arc::clone(&quiesce) as _);
        let shared = Arc::new(PoolShared {
            injector: Injector::with_counter(nworkers, registry.counter("injector_sweep_skips")),
            stealers: stealers.into_boxed_slice(),
            quiesce,
            safepoint: SafePoint::new(nworkers, &registry),
            suspended_flags: (0..nworkers).map(|_| AtomicBool::new(false)).collect(),
            sleepers: Mutex::new(Vec::new()),
            nsleepers: AtomicUsize::new(0),
            target,
            shutdown: AtomicBool::new(false),
            steal_tier_hits,
            steal_skips_suspended: registry.counter("steal_skips_suspended"),
            npinned: AtomicUsize::new(0),
            affinity_applied: registry.gauge("affinity_applied"),
            spin_budget: registry.gauge("spin_budget"),
            queue_wait: registry.histogram("queue_wait_ns"),
            spin_before_park: registry.histogram("spin_before_park_ns"),
            wake_to_run: registry.histogram("wake_to_run_ns"),
            suspend_to_resume: registry.histogram("suspend_to_resume_ns"),
            retier_events: registry.counter("retier_events"),
            jobs_panicked: registry.counter("jobs_panicked"),
            stalls_detected: registry.counter("stalls_detected"),
            stall_nudges: registry.counter("stall_nudges"),
            stall_ns: registry.histogram("stall_ns"),
            recorder,
            registry,
            idle_spin: cfg.idle_spin,
            topology,
            pin: cfg.pin,
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(&sh, i, w))
                    .expect("spawn worker")
            })
            .collect();
        let watchdog = cfg.watchdog.map(|threshold| {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let sh = Arc::clone(&shared);
            let stop2 = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("pool-watchdog".into())
                .spawn(move || watchdog_loop(&sh, threshold, &stop2))
                .expect("spawn watchdog");
            WatchdogHandle { stop, handle }
        });
        Pool {
            shared,
            workers,
            watchdog,
        }
    }

    /// Submits a job. Callers outside the pool go through the sharded
    /// injector, which holds the task by value; a job submitting from
    /// inside a worker pushes onto that worker's own deque (the
    /// fork-join fast path), its task built in one of the worker's spare
    /// boxes. A closure of at most four words and pointer alignment is
    /// stored in the task itself, so neither path allocates for it once
    /// the worker has spare boxes; a larger one is boxed on its own.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let key = Arc::as_ptr(&self.shared) as usize;
        let (tls_key, tls_ptr, index) = CURRENT_WORKER.with(Cell::get);
        // The job is counted (and stamped) before any queue can show it:
        // a finish is never visible ahead of its submission, and the
        // instrumentation cannot inflate the contention it measures. The
        // count doubles as the sampling tick.
        if tls_key == key {
            let nth = self.shared.quiesce.cells(index).count_spawn();
            // SAFETY: the entry was set by this thread's own worker_loop
            // for this pool; the `Local` lives (pinned) in that frame
            // until the loop returns, which clears the entry first.
            let local = unsafe { &*tls_ptr };
            local.fork(job, stamp(nth));
        } else {
            let nth = self.shared.quiesce.submit_external();
            self.shared.injector.push(Task::new(job, stamp(nth)));
        }
        wake_one(&self.shared);
    }

    /// Blocks until every submitted job has finished. Counters read
    /// right after it returns include every one of those jobs.
    pub fn wait_idle(&self) {
        self.shared.quiesce.wait_idle();
    }

    /// Current number of unsuspended workers.
    pub fn active(&self) -> usize {
        self.shared.safepoint.active()
    }

    /// Worker threads still running, suspended or not: every worker
    /// until the pool drops, since a job's panic cannot end one (not
    /// even a payload that panics again as it drops).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// The controller's current target for this pool.
    pub fn target(&self) -> usize {
        self.shared.target.target.load(Ordering::Acquire)
    }

    /// Pool counters.
    pub fn metrics(&self) -> PoolMetrics {
        let cells = self.shared.quiesce.totals();
        PoolMetrics {
            jobs_run: cells.jobs_run,
            suspends: self.shared.safepoint.suspends(),
            resumes: self.shared.safepoint.resumes(),
            local_hits: cells.local_hits,
            injector_pops: cells.injector_pops,
            steals: cells.steals,
            steal_fails: cells.steal_fails,
            steal_tier_hits: std::array::from_fn(|i| self.shared.steal_tier_hits[i].get()),
            steal_skips_suspended: self.shared.steal_skips_suspended.get(),
            jobs_panicked: self.shared.jobs_panicked.get(),
            stalls_detected: self.shared.stalls_detected.get(),
            stall_nudges: self.shared.stall_nudges.get(),
        }
    }

    /// The pool's statistics registry (counters, live-vs-target gauges,
    /// queue-wait, park/unpark, and spin-before-park histograms).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A point-in-time copy of every pool statistic.
    pub fn stats(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// The pool's flight recorder: per-worker rings of scheduling events
    /// (job start/end, steals, park/unpark, suspend/resume, CPU-set and
    /// epoch changes). Drain it directly, or hand it to
    /// [`crate::SupervisedClient::with_recorder`] (Unix) so the poller
    /// ships events to the control server for `TRACE` and `schedtop`.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let sh = &self.shared;
        sh.shutdown.store(true, Ordering::Release);
        if let Some(wd) = self.watchdog.take() {
            *wd.stop.0.lock() = true;
            wd.stop.1.notify_all();
            let _ = wd.handle.join();
        }
        // Wake idle sleepers...
        {
            let mut sleepers = sh.sleepers.lock();
            let n = sleepers.len();
            sh.nsleepers.fetch_sub(n, Ordering::SeqCst);
            for s in sleepers.drain(..) {
                *s.woken.lock() = true;
                s.cv.notify_one();
            }
        }
        // ...and suspended workers.
        sh.safepoint.release_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Wakes one idle-parked worker, if any (producer side).
#[inline]
fn wake_one(sh: &PoolShared) {
    if sh.nsleepers.load(Ordering::SeqCst) != 0 {
        wake_sleeper(sh);
    }
}

/// [`wake_one`] past its no-sleeper fast path: pops one parked worker,
/// if one is still listed, and signals it.
fn wake_sleeper(sh: &PoolShared) {
    let slot = {
        let mut sleepers = sh.sleepers.lock();
        let s = sleepers.pop();
        if s.is_some() {
            sh.nsleepers.fetch_sub(1, Ordering::SeqCst);
        }
        s
    };
    if let Some(s) = slot {
        *s.woken.lock() = true;
        s.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::worker::tests::{spare_addrs, stored_inline, DropCount};
    use super::worker::{SPIN_BUDGET_MAX_NS, SPIN_BUDGET_MIN_NS};
    use super::*;
    use crate::trace::{EventKind, TraceEvent};
    use std::time::Duration;

    fn controller(cpus: usize) -> Controller {
        Controller::new(cpus, Duration::from_millis(10))
    }

    /// Polls until `state` holds, failing with `what` after five seconds:
    /// a test waits on the state it asserts, never for a fixed time.
    fn wait_until(what: &str, mut state: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !state() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn runs_all_jobs() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.metrics().jobs_run, 100);
    }

    #[test]
    fn job_acquisition_paths_conserve_jobs() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..500 {
            pool.execute(|| std::hint::black_box(()));
        }
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 500);
        assert_eq!(
            m.local_hits + m.injector_pops + m.steals,
            m.jobs_run,
            "every job acquired exactly once: {m:?}"
        );
    }

    #[test]
    fn worker_submissions_take_the_local_fast_path() {
        let c = controller(2);
        let pool = Arc::new(Pool::new(&c, 2, false));
        let counter = Arc::new(AtomicUsize::new(0));
        // One root job fans out children from inside the pool.
        let (p, k) = (Arc::clone(&pool), Arc::clone(&counter));
        pool.execute(move || {
            for _ in 0..64 {
                let k2 = Arc::clone(&k);
                p.execute(move || {
                    k2.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        let m = pool.metrics();
        assert!(
            m.local_hits > 0,
            "in-pool submissions should hit the local deque: {m:?}"
        );
        assert_eq!(m.local_hits + m.injector_pops + m.steals, m.jobs_run);
    }

    crate::safepoint::suspend_resume_tests!(Pool);

    #[test]
    fn stats_cover_latency_histograms_and_gauges() {
        let c = controller(2);
        let pool = Pool::new(&c, 6, false);
        for _ in 0..300 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(100)));
        }
        // Wait for process control to actually park someone.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.metrics().suspends == 0 {
            assert!(std::time::Instant::now() < deadline, "no worker suspended");
            std::thread::sleep(Duration::from_millis(5));
        }
        pool.wait_idle();
        let snap = pool.stats();
        // The classic counters live in the registry too.
        assert_eq!(snap.counters["jobs_run"], 300);
        assert!(snap.counters["suspends"] >= 1);
        assert_eq!(
            snap.counters["local_hits"] + snap.counters["injector_pops"] + snap.counters["steals"],
            300
        );
        // Outside submissions 1, 33, …, 289 were stamped, each standing
        // for STAMP_EVERY jobs.
        assert_eq!(
            snap.histograms["queue_wait_ns"].count,
            300u64.div_ceil(STAMP_EVERY) * STAMP_EVERY
        );
        assert!(snap.histograms["queue_wait_ns"].quantile(0.5).is_some());
        // Gauges were sampled at safe points.
        assert_eq!(snap.gauges["target"], 2);
        assert!(snap.gauges["active"] >= 1);
        // Park duration is recorded when a parked worker wakes — which for
        // a still-suspended worker happens at shutdown. The registry
        // outlives the pool, so snapshot it after the drop.
        let registry = pool.registry();
        drop(pool);
        assert!(registry.snapshot().histograms["park_ns"].count >= 1);
    }

    #[test]
    fn idle_workers_record_spin_before_park() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..20 {
            pool.execute(|| {});
        }
        pool.wait_idle();
        // The workers run out of work and spin before they park.
        wait_until("idle workers should have measured their spin phase", || {
            pool.stats().histograms["spin_before_park_ns"].count >= 1
        });
    }

    #[test]
    fn arc_pool_handle_works() {
        let c = controller(2);
        let pool = Arc::new(Pool::new(&c, 2, false));
        let counter = Arc::new(AtomicUsize::new(0));
        let k = Arc::clone(&counter);
        pool.execute(move || {
            k.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn steal_tier_hits_partition_steals() {
        let c = controller(8);
        let mut cfg = PoolConfig::new(8);
        cfg.topology = Some(Arc::new(CpuTopology::synthetic(8)));
        let pool = Pool::with_config(&c, cfg);
        for _ in 0..2000 {
            pool.execute(|| std::hint::black_box(()));
        }
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 2000);
        assert_eq!(
            m.steal_tier_hits.iter().sum::<u64>(),
            m.steals,
            "per-tier counters must partition steals: {m:?}"
        );
        assert_eq!(m.local_hits + m.injector_pops + m.steals, m.jobs_run);
    }

    #[test]
    fn pinned_pool_runs_everything_and_reports_affinity() {
        let c = controller(2);
        let mut cfg = PoolConfig::new(4);
        cfg.pin = true;
        let pool = Pool::with_config(&c, cfg);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        // Pinning is best-effort; whatever happened, the gauge must
        // exist and never exceed the worker count.
        let snap = pool.stats();
        assert!(snap.gauges["affinity_applied"] <= 4);
    }

    #[test]
    fn spin_budget_gauge_tracks_idle_waits() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        // One job at a time: each wait for work ends in a budget update.
        for _ in 0..50 {
            pool.execute(|| {});
            pool.wait_idle();
        }
        wait_until("no idle wait published a budget", || {
            pool.stats().gauges["spin_budget"] != 0
        });
        let budget = pool.stats().gauges["spin_budget"];
        assert!(
            budget >= SPIN_BUDGET_MIN_NS as i64 && budget <= SPIN_BUDGET_MAX_NS as i64,
            "budget out of clamp range: {budget}"
        );
    }

    #[test]
    fn spin_mode_also_completes() {
        let c = controller(2);
        let pool = Pool::new(&c, 4, true);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn flight_recorder_captures_job_starts_with_ordered_timestamps() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..100 {
            pool.execute(|| std::hint::black_box(()));
        }
        pool.wait_idle();
        let rec = pool.recorder();
        let registry = pool.registry();
        assert!(rec.is_enabled());
        drop(pool); // join the workers: no more producers, no races below
        let events = rec.drain(usize::MAX);
        let starts = events
            .iter()
            .filter(|e| e.kind == EventKind::JobStart)
            .count() as u64;
        let ended: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::JobEnd)
            .map(|e| u64::from(e.arg))
            .sum();
        let snap = registry.snapshot();
        // Burst coalescing conserves jobs: with nothing dropped (a
        // handful of events per 256-slot ring), the JobEnd burst lengths
        // sum to exactly the jobs run, and every burst that ended was
        // opened by a JobStart.
        assert_eq!(snap.counters["trace_dropped"], 0);
        assert_eq!(ended, 100, "JobEnd burst lengths must sum to jobs run");
        assert!(
            (1..=ended).contains(&starts),
            "burst starts out of range: {starts} starts for {ended} jobs"
        );
        // The drain is merged by timestamp and each worker's own events
        // are monotonic (single origin, single producer per ring).
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns, "merged drain out of order");
        }
        // Every event the pool emits round-trips through the wire codec.
        for e in &events {
            assert_eq!(TraceEvent::parse(&e.to_wire()), Some(*e));
        }
        // Counter conservation: everything recorded was drained or
        // dropped (the drain above emptied the rings).
        assert_eq!(
            snap.counters["trace_events"],
            events.len() as u64 + snap.counters["trace_dropped"]
        );
    }

    #[test]
    fn disabled_recorder_pool_still_runs() {
        let c = controller(2);
        let mut cfg = PoolConfig::new(2);
        cfg.trace_capacity = 0;
        let pool = Pool::with_config(&c, cfg);
        for _ in 0..50 {
            pool.execute(|| {});
        }
        pool.wait_idle();
        let rec = pool.recorder();
        assert!(!rec.is_enabled());
        assert!(rec.drain(usize::MAX).is_empty());
        assert_eq!(pool.stats().counters["trace_events"], 0);
    }

    #[test]
    fn suspension_records_wake_to_run_and_trace_events() {
        let slot = Arc::new(TargetSlot::new(4));
        let pool = Pool::with_slot(Arc::clone(&slot), 4, false);
        // Force suspensions, then let everyone run again.
        slot.target.store(1, Ordering::Release);
        for _ in 0..200 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(50)));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.metrics().suspends == 0 {
            assert!(std::time::Instant::now() < deadline, "no worker suspended");
            std::thread::sleep(Duration::from_millis(2));
        }
        slot.target.store(4, Ordering::Release);
        for _ in 0..200 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(50)));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.metrics().resumes == 0 {
            assert!(std::time::Instant::now() < deadline, "no worker resumed");
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.wait_idle();
        let snap = pool.stats();
        assert!(
            snap.histograms["wake_to_run_ns"].count >= 1,
            "resume did not feed wake-to-run"
        );
        assert!(
            snap.histograms["suspend_to_resume_ns"].count >= 1,
            "suspension cycle did not feed suspend-to-resume"
        );
        let events = pool.recorder().drain(usize::MAX);
        let kinds: std::collections::BTreeSet<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Suspend), "no Suspend event");
        assert!(kinds.contains(&EventKind::Resume), "no Resume event");
        assert!(kinds.contains(&EventKind::Epoch), "no Epoch event");
    }

    #[test]
    fn panicking_jobs_are_isolated_and_conserved() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                if i % 5 == 0 {
                    panic!("chaos job {i}");
                }
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle(); // must not hang on the panicked jobs
        assert_eq!(done.load(Ordering::Relaxed), 80);
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 100, "panicked jobs still count as run");
        assert_eq!(m.jobs_panicked, 20);
        assert_eq!(
            m.local_hits + m.injector_pops + m.steals,
            m.jobs_run,
            "conservation must survive panics: {m:?}"
        );
        // The workers survived: fresh jobs still run on all paths.
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 81);
        assert_eq!(pool.active(), 4, "nobody died");
    }

    /// A panic payload whose drop panics too.
    struct PanicsOnDrop;

    impl Drop for PanicsOnDrop {
        fn drop(&mut self) {
            panic!("the payload panics as it drops");
        }
    }

    #[test]
    fn a_panic_payload_that_panics_on_drop_does_not_kill_its_worker() {
        let c = controller(2);
        let pool = Pool::new(&c, 2, false);
        pool.execute(|| std::panic::panic_any(PanicsOnDrop));
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!((m.jobs_run, m.jobs_panicked), (1, 1));
        assert_eq!(pool.active(), 2, "a worker died dropping the payload");
        assert_eq!(pool.live_workers(), 2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 64);
        assert_eq!(pool.metrics().jobs_run, 65);
    }

    #[test]
    fn watchdog_detects_stall_and_recovery_with_trace_events() {
        let c = controller(2);
        let mut cfg = PoolConfig::new(2);
        let threshold = Duration::from_millis(200);
        cfg.watchdog = Some(threshold);
        let pool = Pool::with_config(&c, cfg);
        // One wedged job: blocked until the test has seen it flagged.
        let (release, wedged) = std::sync::mpsc::channel::<()>();
        let submitted = std::time::Instant::now();
        pool.execute(move || {
            let _ = wedged.recv();
        });
        wait_until("stall never detected", || {
            pool.metrics().stalls_detected > 0
        });
        let detected_after = submitted.elapsed();
        assert!(
            detected_after <= threshold * 2 + Duration::from_millis(150),
            "detection too slow: {detected_after:?} for threshold {threshold:?}"
        );
        // The job ends; the next heartbeat closes the episode.
        drop(release);
        pool.wait_idle();
        pool.execute(|| {});
        pool.wait_idle();
        wait_until("never recovered", || {
            pool.stats().histograms["stall_ns"].count > 0
        });
        let events = pool.recorder().drain(usize::MAX);
        let stall = events.iter().find(|e| e.kind == EventKind::Stall);
        let recovered = events.iter().find(|e| e.kind == EventKind::Recovered);
        let stall = stall.expect("Stall event emitted");
        assert!(recovered.is_some(), "Recovered event emitted");
        assert!(
            (stall.worker as usize) < 2,
            "Stall names the wedged worker: {stall:?}"
        );
        // Wire codec round-trips the new kinds.
        assert_eq!(TraceEvent::parse(&stall.to_wire()), Some(*stall));
    }

    /// Forks `n` children from inside a worker; `child(i)` is the body
    /// of the `i`-th pushed (the deque is LIFO: the last pushed runs
    /// first, all of them in one burst on a one-worker pool).
    fn fork_from_inside(pool: &Arc<Pool>, n: usize, child: impl Fn(usize) + Send + Sync + 'static) {
        let (p, child) = (Arc::clone(pool), Arc::new(child));
        pool.execute(move || {
            for i in 0..n {
                let child = Arc::clone(&child);
                p.execute(move || child(i));
            }
        });
    }

    #[test]
    fn own_spawns_are_sampled_with_the_weight_they_stand_for() {
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        fork_from_inside(&pool, 2 * STAMP_EVERY as usize, |_| {});
        pool.wait_idle();
        let snap = pool.stats();
        assert_eq!(snap.counters["jobs_run"], 1 + 2 * STAMP_EVERY);
        // Spawns 1 and 33 were stamped and stand for 32 jobs each; so
        // does the root, the pool's first outside submission.
        assert_eq!(snap.histograms["queue_wait_ns"].count, 3 * STAMP_EVERY);
    }

    #[test]
    fn outside_submissions_are_sampled_with_the_weight_they_stand_for() {
        let c = controller(1);
        let pool = Pool::new(&c, 1, false);
        // The first job holds the worker until the rest are queued, so
        // the worker takes them in batches.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            g.wait();
        });
        for _ in 1..2 * STAMP_EVERY {
            pool.execute(|| {});
        }
        gate.wait();
        pool.wait_idle();
        let snap = pool.stats();
        assert_eq!(snap.counters["jobs_run"], 2 * STAMP_EVERY);
        // The first job of each batch is an injector pop, the others
        // local hits.
        let (pops, hits) = (snap.counters["injector_pops"], snap.counters["local_hits"]);
        assert_eq!(pops + hits, 2 * STAMP_EVERY);
        assert!(pops < 2 * STAMP_EVERY, "no batch formed");
        // Submissions 1 and 33 were stamped and stand for 32 jobs each:
        // the histogram still estimates all jobs.
        assert_eq!(snap.histograms["queue_wait_ns"].count, 2 * STAMP_EVERY);
    }

    #[test]
    fn outside_jobs_behind_a_blocked_job_run_in_submission_order_shard_by_shard() {
        let c = controller(1);
        let pool = Pool::new(&c, 1, false);
        // Two rendezvous: the blocker has started (the injector is
        // empty), and the 40 jobs are queued behind it.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            g.wait();
            g.wait();
        });
        gate.wait();
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut on_shard = vec![Vec::new(); pool.shared.injector.shards()];
        for i in 0..40 {
            on_shard[pool.shared.injector.next_shard()].push(i);
            let r = Arc::clone(&ran);
            pool.execute(move || r.lock().push(i));
        }
        gate.wait();
        pool.wait_idle();
        // The worker sweeps from shard 0 and takes each shard's 20 jobs
        // in one batch: the oldest runs at once, the other 19 off its
        // deque, oldest first.
        assert_eq!(*ran.lock(), on_shard.concat());
        let m = pool.metrics();
        assert_eq!((m.injector_pops, m.local_hits), (3, 38), "{m:?}");
    }

    #[test]
    fn a_panicking_inline_job_drops_its_captures_once() {
        let c = controller(1);
        let pool = Pool::new(&c, 1, false);
        let drops = Arc::new(AtomicUsize::new(0));
        let d = DropCount(Arc::clone(&drops));
        let job = move || {
            let _d = &d;
            panic!("inline job panics");
        };
        assert!(stored_inline(&job));
        pool.execute(job);
        pool.wait_idle();
        assert_eq!(pool.metrics().jobs_panicked, 1);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    fn a_pool_dropped_with_queued_jobs_releases_every_capture() {
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        let probe = Arc::new(());
        let shared = Arc::clone(&pool.shared);
        let (forked_tx, forked) = std::sync::mpsc::channel();
        // The one worker forks children onto its own deque, then holds
        // on until the pool is shutting down: nothing queued ever runs.
        let (p, k) = (Arc::clone(&pool), Arc::clone(&probe));
        pool.execute(move || {
            for _ in 0..8 {
                let k = Arc::clone(&k);
                p.execute(move || drop(k));
            }
            drop((p, k));
            forked_tx.send(()).expect("test alive");
            while !shared.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        forked.recv().expect("the root ran");
        for _ in 0..8 {
            let k = Arc::clone(&probe);
            pool.execute(move || drop(k));
        }
        assert_eq!(Arc::strong_count(&probe), 17, "16 queued jobs hold it");
        let pool = Arc::into_inner(pool).expect("the root dropped its handle");
        drop(pool);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn a_panicking_forked_job_drops_its_captures_once_and_its_box_is_reused() {
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        let drops = Arc::new(AtomicUsize::new(0));
        let d = DropCount(Arc::clone(&drops));
        let p = Arc::clone(&pool);
        pool.execute(move || {
            p.execute(move || {
                let _d = &d;
                panic!("forked job panics");
            });
        });
        pool.wait_idle();
        assert_eq!(pool.metrics().jobs_panicked, 1);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&drops), 1, "the panicked job leaked");
        // The panicked task's box is the worker's one spare (the root came
        // from outside, by value). The next fork is built in it: the
        // spare is gone while the fork runs, and back once it is spent.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (p, s) = (Arc::clone(&pool), Arc::clone(&seen));
        pool.execute(move || {
            s.lock().push(spare_addrs());
            let s2 = Arc::clone(&s);
            p.execute(move || s2.lock().push(spare_addrs()));
            s.lock().push(spare_addrs());
        });
        pool.wait_idle();
        let s = Arc::clone(&seen);
        pool.execute(move || s.lock().push(spare_addrs()));
        pool.wait_idle();
        let seen = seen.lock();
        let [before, after_fork, in_fork, after] = &seen[..] else {
            panic!("four samples expected: {seen:?}");
        };
        assert_eq!(before.len(), 1, "the panicked job's box was not kept");
        assert!(after_fork.is_empty() && in_fork.is_empty(), "{seen:?}");
        assert_eq!(after, before, "the fork ran in the panicked job's box");
    }

    #[test]
    fn large_and_overaligned_forks_run_and_drop_their_captures_once() {
        #[repr(align(16))]
        struct Aligned(u64);
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        let (ran, drops) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        // One root per round: rounds 2 and 3 build their forks in the
        // boxes the rounds before them left spare.
        for round in 0..3 {
            let (p, r, d) = (Arc::clone(&pool), Arc::clone(&ran), Arc::clone(&drops));
            pool.execute(move || {
                let (r1, d1, wide) = (Arc::clone(&r), DropCount(Arc::clone(&d)), [1u64; 4]);
                let large = move || {
                    let _d = &d1;
                    r1.fetch_add(wide.iter().sum::<u64>() as usize, Ordering::Relaxed);
                };
                let (r2, d2, aligned) = (r, DropCount(Arc::clone(&d)), Aligned(10));
                let overaligned = move || {
                    let (_d, whole) = (&d2, aligned);
                    r2.fetch_add(whole.0 as usize, Ordering::Relaxed);
                };
                assert!(!stored_inline(&large) && !stored_inline(&overaligned));
                p.execute(large);
                p.execute(overaligned);
                if round == 1 {
                    let d3 = DropCount(d);
                    p.execute(move || {
                        let _d = (&d3, wide);
                        panic!("a boxed closure panics on the local path");
                    });
                }
            });
            pool.wait_idle();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 3 * 14);
        assert_eq!(drops.load(Ordering::Relaxed), 7);
        assert_eq!(pool.metrics().jobs_panicked, 1);
        assert_eq!(pool.metrics().local_hits, 7);
        assert_eq!(Arc::strong_count(&ran), 1);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    fn a_pool_dropped_with_forked_tasks_queued_drops_each_capture_once() {
        #[repr(align(16))]
        struct Aligned(u64);
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        // Four forks that run leave four spare boxes behind.
        let p = Arc::clone(&pool);
        pool.execute(move || {
            for _ in 0..4 {
                p.execute(|| {});
            }
        });
        pool.wait_idle();
        let (ran, drops) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let shared = Arc::clone(&pool.shared);
        let (forked_tx, forked) = std::sync::mpsc::channel();
        let (p, r, d) = (Arc::clone(&pool), Arc::clone(&ran), Arc::clone(&drops));
        // Nine forks, three of each kind: four in spare boxes, five in
        // fresh ones. The worker then holds on until the pool shuts down,
        // so none of them runs.
        pool.execute(move || {
            for _ in 0..3 {
                let (r1, d1) = (Arc::clone(&r), DropCount(Arc::clone(&d)));
                p.execute(move || drop((r1.fetch_add(1, Ordering::Relaxed), d1)));
                let (r2, d2, wide) = (Arc::clone(&r), DropCount(Arc::clone(&d)), [1u64; 4]);
                p.execute(move || drop((r2.fetch_add(1, Ordering::Relaxed), d2, wide)));
                let (r3, d3, aligned) = (Arc::clone(&r), DropCount(Arc::clone(&d)), Aligned(1));
                p.execute(move || {
                    let (_d, whole) = (&d3, aligned);
                    r3.fetch_add(whole.0 as usize, Ordering::Relaxed);
                });
            }
            drop((p, r, d));
            forked_tx.send(spare_addrs().len()).expect("test alive");
            while !shared.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(forked.recv().expect("the root ran"), 0, "spares unused");
        let pool = Arc::into_inner(pool).expect("the root dropped its handle");
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a queued fork ran");
        assert_eq!(drops.load(Ordering::Relaxed), 9);
        assert_eq!(Arc::strong_count(&ran), 1);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_fork_join_cost() {
        fn tree(pool: &'static Pool, depth: u32) {
            if depth > 0 {
                for _ in 0..2 {
                    pool.execute(move || tree(pool, depth - 1));
                }
            }
        }
        let c = controller(1);
        // Leaked so that a job can capture it as a plain reference; its
        // one worker stays parked until the test process exits.
        let pool: &'static Pool = Box::leak(Box::new(Pool::new(&c, 1, false)));
        const DEPTH: u32 = 16;
        let jobs = (1u32 << (DEPTH + 1)) - 1;
        tree(pool, 10); // warm-up: the spare boxes and the deque's buffer
        pool.wait_idle();
        let best = (0..7)
            .map(|_| {
                let start = Instant::now();
                pool.execute(move || tree(pool, DEPTH));
                pool.wait_idle();
                start.elapsed() / jobs
            })
            .min()
            .expect("seven rounds");
        println!("fork + run of an empty job (1 worker, min of 7 rounds of {jobs}): {best:?}/job");
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_outside_submit_cost() {
        // One outside thread feeds a 1-worker pool, then a pool with a
        // worker on every CPU (`pool_external`'s phase A shape). A lock
        // hold that takes a batch counts one `injector_pops` for all of
        // its jobs, so pops per job is the consumers' shard-lock holds
        // per job (the producer takes one per job).
        let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
        for workers in [1, cpus] {
            let c = controller(workers);
            let pool = Pool::new(&c, workers, false);
            let n = 200_000u32;
            let start = Instant::now();
            for i in 0..n {
                pool.execute(move || {
                    std::hint::black_box(i);
                });
            }
            pool.wait_idle();
            let per_job = start.elapsed() / n;
            let pops = pool.metrics().injector_pops as f64 / f64::from(n);
            println!(
                "outside submit + run, {workers} worker(s): {per_job:?}/job, \
                 {pops:.3} injector lock holds/job"
            );
        }
    }

    #[test]
    fn watchdog_never_flags_a_long_burst_of_short_jobs() {
        let c = controller(1);
        let mut cfg = PoolConfig::new(1);
        let threshold = Duration::from_millis(100);
        cfg.watchdog = Some(threshold);
        let pool = Arc::new(Pool::with_config(&c, cfg));
        // One uninterrupted burst of ~1 ms jobs for 3x the threshold:
        // the worker reads no clock for the watchdog, but every pickup
        // changes its progress word.
        let started = std::time::Instant::now();
        fork_from_inside(&pool, 300, |_| {
            let t = std::time::Instant::now();
            while t.elapsed() < Duration::from_millis(1) {
                std::hint::spin_loop();
            }
        });
        pool.wait_idle();
        assert!(
            started.elapsed() >= threshold * 3,
            "burst too short to tell"
        );
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 301);
        assert_eq!(m.stalls_detected, 0, "steady progress was flagged: {m:?}");
    }

    #[test]
    fn watchdog_flags_a_job_that_stalls_mid_burst() {
        let c = controller(1);
        let mut cfg = PoolConfig::new(1);
        let threshold = Duration::from_millis(100);
        cfg.watchdog = Some(threshold);
        let pool = Arc::new(Pool::with_config(&c, cfg));
        // Child 3 is neither the burst's first pickup nor a stamped
        // spawn (those are 1, 33, ...): the worker reads no clock at its
        // pickup, so only the watchdog's own aging can catch it.
        // It blocks until the test has seen it flagged.
        let (tx, rx) = std::sync::mpsc::channel();
        let (release, wedged) = std::sync::mpsc::channel::<()>();
        let (tx, wedged) = (Mutex::new(tx), Mutex::new(wedged));
        fork_from_inside(&pool, 8, move |i| {
            if i == 3 {
                tx.lock()
                    .send(std::time::Instant::now())
                    .expect("test alive");
                let _ = wedged.lock().recv();
            }
        });
        let stalled_at = rx.recv().expect("the stalling job started");
        wait_until("mid-burst stall never detected", || {
            pool.metrics().stalls_detected > 0
        });
        let detected_after = stalled_at.elapsed();
        assert!(
            detected_after <= threshold * 2,
            "detection too slow: {detected_after:?} for threshold {threshold:?}"
        );
        drop(release);
        pool.wait_idle();
        assert_eq!(pool.metrics().jobs_run, 9);
    }

    #[test]
    fn cpu_set_change_retiers_victim_rings() {
        let slot = Arc::new(TargetSlot::new(4));
        let mut cfg = PoolConfig::new(4);
        cfg.topology = Some(Arc::new(CpuTopology::synthetic(8)));
        let pool = Pool::with_slot_config(Arc::clone(&slot), cfg);
        // Hold all four workers in one job each: a worker thread that
        // first runs after the set moved builds its rings from the new
        // generation and has nothing to re-tier.
        let all_running = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let b = Arc::clone(&all_running);
            pool.execute(move || {
                b.wait();
            });
        }
        pool.wait_idle();
        assert_eq!(pool.stats().counters["retier_events"], 0);
        // Publish a concrete CPU set: every worker must rebuild its
        // victim rings around its new home CPU at the next safe point.
        slot.set_cpus(Some(vec![4, 5, 6, 7]));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().counters["retier_events"] < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never re-tiered: {}",
                pool.stats().counters["retier_events"]
            );
            for _ in 0..10 {
                pool.execute(|| {});
            }
            pool.wait_idle();
            std::thread::sleep(Duration::from_millis(2));
        }
        // The re-tier is visible in the event stream with the new home.
        let events = pool.recorder().drain(usize::MAX);
        let retiers: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Retier)
            .collect();
        assert!(!retiers.is_empty(), "no Retier events");
        assert!(
            retiers.iter().all(|e| (4..=7).contains(&e.arg)),
            "re-tier did not move homes into the assigned set: {retiers:?}"
        );
        assert!(events.iter().any(|e| e.kind == EventKind::CpuSet));
    }
}
