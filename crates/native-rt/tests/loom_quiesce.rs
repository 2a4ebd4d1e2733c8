//! Model checks for scan-based quiescence (`quiesce.rs`) — the protocol
//! behind `Pool::wait_idle` now that no shared `outstanding` counter
//! exists, and behind the `sched-atomic(seqcst)` annotation on
//! `idle_waiters`.
//!
//! Two things can go wrong. A **lost wakeup**: the last finisher reads
//! `idle_waiters == 0` while the waiter's scan misses that finisher's
//! `jobs_run` store, and the waiter sleeps on a pool that will never
//! announce again — the Dekker pair (worker: store, fence, load;
//! waiter: RMW, fence, scan) rules it out, and a violation hangs the
//! model. An **early return**: the scan balances its books while a job
//! whose submission happened-before the call is still running — the
//! finished-then-spawned read order rules it out, and a violation trips
//! the payload assertions (every job writes its payload before it is
//! counted finished, so a correct return sees them all).
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p native-rt --test
//! loom_quiesce` (the loom CI lane).

#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;

use native_rt::quiesce::{self, Quiesce};

/// What a worker does for one job off the injector: count the path, run
/// the job (here: bump the payload), count the finish.
fn run_job(q: &Quiesce, worker: usize, payload: &AtomicUsize) {
    q.cells(worker).count_injector_pop();
    payload.fetch_add(1, Ordering::Relaxed);
    q.cells(worker).count_finish();
}

/// One job, one worker, one waiter: the finish and the registration
/// race. Whichever side is later must see the other.
#[test]
fn waiter_and_last_finisher_never_miss_each_other() {
    loom::model(|| {
        let q = Arc::new(Quiesce::new(1));
        let payload = Arc::new(AtomicUsize::new(0));
        q.submit_external();
        let worker = {
            let (q, payload) = (Arc::clone(&q), Arc::clone(&payload));
            loom::thread::spawn(move || {
                run_job(&q, 0, &payload);
                q.announce();
            })
        };
        q.wait_idle();
        assert_eq!(payload.load(Ordering::Relaxed), 1, "returned early");
        worker.join().unwrap();
        assert!(q.quiescent());
    });
}

/// The last finisher does not go idle, it suspends: its only announce
/// is the one on the way into the park, after which nobody else in the
/// pool will run a scan. The earlier finisher idles and announces while
/// the books are still open.
#[test]
fn last_finisher_that_suspends_still_wakes_the_waiter() {
    loom::model(|| {
        let q = Arc::new(Quiesce::new(2));
        let payload = Arc::new(AtomicUsize::new(0));
        q.submit_external();
        q.submit_external();
        let idler = {
            let (q, payload) = (Arc::clone(&q), Arc::clone(&payload));
            loom::thread::spawn(move || {
                run_job(&q, 0, &payload);
                q.announce();
                q.cells(0).mark(quiesce::IDLE);
            })
        };
        let suspender = {
            let (q, payload) = (Arc::clone(&q), Arc::clone(&payload));
            loom::thread::spawn(move || {
                run_job(&q, 1, &payload);
                q.cells(1).mark(quiesce::SUSPENDED);
                q.announce();
            })
        };
        q.wait_idle();
        assert_eq!(payload.load(Ordering::Relaxed), 2, "returned early");
        idler.join().unwrap();
        suspender.join().unwrap();
    });
}

/// Two workers finish the last two jobs at once. Each may scan before
/// the other's store lands and decide it is not the last; the one whose
/// fence is later must see both.
#[test]
fn two_simultaneous_last_finishers_wake_the_waiter_once_is_enough() {
    loom::model(|| {
        let q = Arc::new(Quiesce::new(2));
        let payload = Arc::new(AtomicUsize::new(0));
        q.submit_external();
        q.submit_external();
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let (q, payload) = (Arc::clone(&q), Arc::clone(&payload));
                loom::thread::spawn(move || {
                    run_job(&q, w, &payload);
                    q.announce();
                })
            })
            .collect();
        q.wait_idle();
        assert_eq!(payload.load(Ordering::Relaxed), 2, "returned early");
        for w in workers {
            w.join().unwrap();
        }
    });
}

/// A job forks a child that another worker runs: the parent's finish
/// must not balance the books while the child is out, whichever of the
/// two finishes first, because the spawn was counted before the child
/// could be seen and is read after every finish.
#[test]
fn a_fork_run_elsewhere_keeps_the_books_open() {
    loom::model(|| {
        let q = Arc::new(Quiesce::new(2));
        let payload = Arc::new(AtomicUsize::new(0));
        // The "deque": 1 once the child is stealable.
        let pushed = Arc::new(AtomicUsize::new(0));
        q.submit_external();
        let parent = {
            let (q, payload, pushed) = (Arc::clone(&q), Arc::clone(&payload), Arc::clone(&pushed));
            loom::thread::spawn(move || {
                q.cells(0).count_injector_pop();
                q.cells(0).count_spawn();
                pushed.store(1, Ordering::Release);
                payload.fetch_add(1, Ordering::Relaxed);
                q.cells(0).count_finish();
                q.announce();
            })
        };
        let thief = {
            let (q, payload, pushed) = (Arc::clone(&q), Arc::clone(&payload), Arc::clone(&pushed));
            loom::thread::spawn(move || {
                while pushed.load(Ordering::Acquire) == 0 {
                    loom::thread::yield_now();
                }
                q.cells(1).count_steal();
                payload.fetch_add(1, Ordering::Relaxed);
                q.cells(1).count_finish();
                q.announce();
            })
        };
        q.wait_idle();
        assert_eq!(
            payload.load(Ordering::Relaxed),
            2,
            "returned before the child"
        );
        parent.join().unwrap();
        thief.join().unwrap();
        let t = q.totals();
        assert_eq!(t.injector_pops + t.steals, t.jobs_run);
    });
}

/// An outside submission races the waiter's scan. The job submitted
/// *before* the call must be covered by the return (no early return);
/// the racing one may or may not be, but once the scan has counted it
/// the waiter may only sleep if somebody will wake it (no lost wakeup:
/// the model hangs otherwise).
#[test]
fn external_submit_racing_the_scan_neither_hangs_nor_returns_early() {
    loom::model(|| {
        let q = Arc::new(Quiesce::new(1));
        let first = Arc::new(AtomicUsize::new(0));
        let racing = Arc::new(AtomicUsize::new(0));
        // The "injector": 1 once the racing job is queued.
        let queued = Arc::new(AtomicUsize::new(0));
        q.submit_external();
        let submitter = {
            let (q, queued) = (Arc::clone(&q), Arc::clone(&queued));
            loom::thread::spawn(move || {
                q.submit_external();
                queued.store(1, Ordering::Release);
            })
        };
        let worker = {
            let (q, first, racing) = (Arc::clone(&q), Arc::clone(&first), Arc::clone(&racing));
            let queued = Arc::clone(&queued);
            loom::thread::spawn(move || {
                run_job(&q, 0, &first);
                q.announce();
                while queued.load(Ordering::Acquire) == 0 {
                    loom::thread::yield_now();
                }
                run_job(&q, 0, &racing);
                q.announce();
            })
        };
        q.wait_idle();
        assert_eq!(first.load(Ordering::Relaxed), 1, "returned early");
        submitter.join().unwrap();
        worker.join().unwrap();
        q.wait_idle();
        assert_eq!(racing.load(Ordering::Relaxed), 1);
    });
}
