//! Per-worker single-writer cells and scan-based quiescence detection.
//!
//! The pool's per-job bookkeeping used to be `lock`-prefixed RMWs on
//! lines every worker shares: two on an `outstanding` counter, one per
//! statistic. Here every worker owns one cache-line-padded
//! [`WorkerCells`] block instead. A cell has exactly one writer — the
//! worker thread currently holding that index — so an update is a plain
//! load + store that never leaves the owner's cache until somebody asks;
//! readers ([`Quiesce::quiescent`], the registry snapshot, the watchdog)
//! sum or sample the blocks.
//!
//! **Quiescence** replaces the shared counter: the jobs in flight are
//! `ext_submitted + Σ spawned − Σ jobs_run`, and the scan reads every
//! `jobs_run` *before* any `spawned` (finished-then-spawned). Every
//! counter only grows, and a finish that the scan observes (Acquire)
//! happens-after that job's submission count, which the later reads
//! must therefore include: the finished jobs the scan saw are a subset
//! of the submitted jobs it saw. Equal sums make the sets equal — every
//! job whose submission is visible to the scanner has finished, and so,
//! inductively, has everything those jobs spawned. (Reading `spawned`
//! first could miss the spawn of a job whose finish is then counted, and
//! balance the books with some other job still running.)
//!
//! **Wakeup** is a Dekker pair, modelled in `tests/loom_quiesce.rs`. A
//! waiter registers in `idle_waiters` (SeqCst RMW), fences, scans, and
//! sleeps on `idle_cv` — holding `idle_mu` from before the registration
//! until the wait releases it. A worker that leaves its local-deque fast
//! path calls [`Quiesce::announce`]: one SeqCst fence after its last
//! `jobs_run` store, then the `idle_waiters` load, then — only if
//! somebody waits — the same scan, notifying under `idle_mu`. Either the
//! worker's load sees the waiter, or the waiter's scan sees the worker's
//! stores; the worker whose fence is last among the final ones sees
//! every other worker's counts and finds the books balanced.

#[cfg(loom)]
use loom::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

use crate::stats::CounterSource;

/// Progress states, packed into the low two bits of a worker's progress
/// word (the upper 62 bits are a sequence number bumped at every mark).
pub const IDLE: u64 = 0;
/// Picked a job up and has not come back for the next one.
pub const RUNNING: u64 = 1;
/// Parked for lack of work.
pub const PARKED: u64 = 2;
/// Suspended by process control.
pub const SUSPENDED: u64 = 3;

/// One worker's block of single-writer cells, alone on its cache lines
/// (128 bytes: adjacent-line prefetchers pair 64-byte lines).
///
/// Every mutating method must be called only by the thread that owns the
/// block's index: the worker itself, or its replacement after the dead
/// thread was joined (the join is the edge that hands the block over).
#[derive(Default)]
#[repr(align(128))]
pub struct WorkerCells {
    // sched-atomic(relaxed): statistic; the owner's later `jobs_run`
    // Release store carries it to anyone who needs it exact.
    local_hits: AtomicU64,
    // sched-atomic(relaxed): see `local_hits`.
    injector_pops: AtomicU64,
    // sched-atomic(relaxed): see `local_hits`.
    steals: AtomicU64,
    // sched-atomic(relaxed): statistic only.
    steal_fails: AtomicU64,
    // sched-atomic(handoff): Release store counts a fork before the task
    // is pushed; the scan's Acquire load pairs with it.
    spawned: AtomicU64,
    // sched-atomic(handoff): Release store publishes the finished job's
    // writes (and this block's other cells); the scan's Acquire load in
    // `quiescent` pairs with it before `wait_idle` returns.
    jobs_run: AtomicU64,
    // sched-atomic(relaxed): monitoring word `(seq << 2) | state` — no
    // data is published under it, the watchdog only watches it change.
    progress: AtomicU64,
}

// The updates are written out per field: schedlint's ordering audit
// matches atomic sites by the receiver's field name.
impl WorkerCells {
    /// Counts a job popped from the worker's own deque.
    pub fn count_local_hit(&self) {
        let n = self.local_hits.load(Ordering::Relaxed);
        self.local_hits.store(n + 1, Ordering::Relaxed);
    }

    /// Counts a job taken from the injector.
    pub fn count_injector_pop(&self) {
        let n = self.injector_pops.load(Ordering::Relaxed);
        self.injector_pops.store(n + 1, Ordering::Relaxed);
    }

    /// Counts a job stolen from another worker.
    pub fn count_steal(&self) {
        let n = self.steals.load(Ordering::Relaxed);
        self.steals.store(n + 1, Ordering::Relaxed);
    }

    /// Counts a steal attempt that lost its CAS race.
    pub fn count_steal_fail(&self) {
        let n = self.steal_fails.load(Ordering::Relaxed);
        self.steal_fails.store(n + 1, Ordering::Relaxed);
    }

    /// Counts a job this worker is about to push (call *before* the
    /// push, so no finish can be seen ahead of its submission). Returns
    /// the new count.
    pub fn count_spawn(&self) -> u64 {
        // The owner re-reads its own last store; Acquire only keeps the
        // hand-off pairing uniform (free on x86).
        let n = self.spawned.load(Ordering::Acquire) + 1;
        self.spawned.store(n, Ordering::Release);
        n
    }

    /// Counts a job this worker acquired and ran to its end, returned or
    /// panicked.
    pub fn count_finish(&self) {
        let n = self.jobs_run.load(Ordering::Acquire) + 1;
        self.jobs_run.store(n, Ordering::Release);
    }

    /// Publishes a state change (or, with [`RUNNING`], one more pickup)
    /// in the progress word.
    pub fn mark(&self, state: u64) {
        let seq = (self.progress.load(Ordering::Relaxed) >> 2) + 1;
        self.progress.store((seq << 2) | state, Ordering::Relaxed);
    }

    /// The progress word, `(seq << 2) | state`. It carries no time: a
    /// monitor ages it with its own clock from when it first saw the
    /// value.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }
}

/// The per-worker sums of the exported counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellTotals {
    /// Jobs run to their end.
    pub jobs_run: u64,
    /// Jobs popped from the running worker's own deque.
    pub local_hits: u64,
    /// Jobs taken from the injector.
    pub injector_pops: u64,
    /// Jobs stolen from another worker.
    pub steals: u64,
    /// Steal attempts that lost their CAS race.
    pub steal_fails: u64,
}

/// The one shared counter left, alone on its lines: outside submitters
/// RMW it once per job, which must not invalidate the read-mostly fields
/// of [`Quiesce`] every worker loads (the `cells` pointer, `idle_waiters`).
#[derive(Default)]
#[repr(align(128))]
struct Outside {
    /// Jobs submitted by threads that are not workers of this pool.
    // sched-atomic(relaxed): no data rides on it — whoever observes the
    // job's finish has, through the queue's own hand-off, the count too.
    ext_submitted: AtomicU64,
}

/// The pool's job accounting: one [`WorkerCells`] block per worker, the
/// count of outside submissions, and the `wait_idle` rendezvous.
pub struct Quiesce {
    cells: Box<[WorkerCells]>,
    outside: Outside,
    /// Threads inside `wait_idle` past their registration.
    // sched-atomic(seqcst): Dekker store-load with `announce`: the
    // waiter publishes itself then scans the cells; the worker publishes
    // its counts, fences, then reads this word.
    idle_waiters: AtomicUsize,
    idle_mu: Mutex<()>,
    idle_cv: Condvar,
}

impl Quiesce {
    /// Accounting for `nworkers` workers, nothing submitted.
    pub fn new(nworkers: usize) -> Quiesce {
        Quiesce {
            cells: (0..nworkers).map(|_| WorkerCells::default()).collect(),
            outside: Outside::default(),
            idle_waiters: AtomicUsize::new(0),
            idle_mu: Mutex::new(()),
            idle_cv: Condvar::new(),
        }
    }

    /// Worker `index`'s block.
    pub fn cells(&self, index: usize) -> &WorkerCells {
        &self.cells[index]
    }

    /// Counts a job submitted from outside the pool (call *before* the
    /// push). Returns the new count, which the pool samples outside
    /// submissions on as it does spawns on [`WorkerCells::count_spawn`]'s.
    pub fn submit_external(&self) -> u64 {
        self.outside.ext_submitted.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn sum(&self, cell: impl Fn(&WorkerCells) -> u64) -> u64 {
        self.cells.iter().map(cell).sum()
    }

    /// True when every job whose submission is visible to the caller has
    /// finished (the finished-then-spawned scan; see the module docs).
    pub fn quiescent(&self) -> bool {
        let finished = self.sum(|c| c.jobs_run.load(Ordering::Acquire));
        let spawned = self.sum(|c| c.spawned.load(Ordering::Acquire));
        finished == spawned + self.outside.ext_submitted.load(Ordering::Relaxed)
    }

    /// Sums the exported cells. `jobs_run` is read first, so even totals
    /// racing the workers show `local_hits + injector_pops + steals >=
    /// jobs_run`; after [`Quiesce::wait_idle`] the two sides are equal.
    pub fn totals(&self) -> CellTotals {
        CellTotals {
            jobs_run: self.sum(|c| c.jobs_run.load(Ordering::Acquire)),
            local_hits: self.sum(|c| c.local_hits.load(Ordering::Relaxed)),
            injector_pops: self.sum(|c| c.injector_pops.load(Ordering::Relaxed)),
            steals: self.sum(|c| c.steals.load(Ordering::Relaxed)),
            steal_fails: self.sum(|c| c.steal_fails.load(Ordering::Relaxed)),
        }
    }

    /// The worker half of the wakeup: call after the last
    /// [`WorkerCells::count_finish`] whenever the worker leaves its
    /// local-deque fast path — own pop failed, about to suspend, thread
    /// dying. One fence and one load while nobody waits.
    pub fn announce(&self) {
        fence(Ordering::SeqCst);
        if self.idle_waiters.load(Ordering::SeqCst) > 0 && self.quiescent() {
            // Under the lock the waiter holds from its registration to
            // its sleep: the notify cannot fall between the two.
            let _guard = self.idle_mu.lock();
            self.idle_cv.notify_all();
        }
    }

    /// Blocks until every job submitted before the call (and everything
    /// those jobs forked) has finished.
    pub fn wait_idle(&self) {
        if self.quiescent() {
            return;
        }
        let mut guard = self.idle_mu.lock();
        self.idle_waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        while !self.quiescent() {
            self.idle_cv.wait(&mut guard);
        }
        self.idle_waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

impl CounterSource for Quiesce {
    /// The per-worker sums under the names the shared counters had.
    fn read_counters(&self, emit: &mut dyn FnMut(&str, u64)) {
        let t = self.totals();
        emit("jobs_run", t.jobs_run);
        emit("local_hits", t.local_hits);
        emit("injector_pops", t.injector_pops);
        emit("steals", t.steals);
        emit("steal_fails", t.steal_fails);
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn blocks_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<WorkerCells>(), 128);
        assert_eq!(std::mem::size_of::<WorkerCells>(), 128);
    }

    #[test]
    fn books_balance_only_when_every_counted_job_finished() {
        let q = Quiesce::new(2);
        assert!(q.quiescent());
        q.submit_external();
        assert!(!q.quiescent());
        // Worker 0 runs the outside job, which forks one child; worker 1
        // steals and runs the child.
        assert_eq!(q.cells(0).count_spawn(), 1);
        q.cells(0).count_finish();
        assert!(!q.quiescent(), "the child is still out");
        q.cells(1).count_finish();
        assert!(q.quiescent());
        q.wait_idle(); // returns without anyone announcing
    }

    #[test]
    fn mark_bumps_the_sequence_and_keeps_the_state() {
        let c = WorkerCells::default();
        assert_eq!(c.progress(), IDLE);
        c.mark(RUNNING);
        let first = c.progress();
        c.mark(RUNNING);
        assert_ne!(c.progress(), first, "a second pickup must change the word");
        assert_eq!(c.progress() & 0b11, RUNNING);
        c.mark(SUSPENDED);
        assert_eq!(c.progress(), (3 << 2) | SUSPENDED);
    }

    #[test]
    fn counter_source_sums_the_blocks() {
        let q = Quiesce::new(3);
        for (i, n) in [2u64, 0, 5].into_iter().enumerate() {
            for _ in 0..n {
                q.cells(i).count_local_hit();
                q.cells(i).count_finish();
            }
        }
        q.cells(1).count_steal_fail();
        let mut got = std::collections::BTreeMap::new();
        q.read_counters(&mut |k, v| {
            got.insert(k.to_string(), v);
        });
        assert_eq!(got["jobs_run"], 7);
        assert_eq!(got["local_hits"], 7);
        assert_eq!(got["steal_fails"], 1);
        assert_eq!(got["steals"] + got["injector_pops"], 0);
    }
}
