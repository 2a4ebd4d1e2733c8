//! Model checks for the safe suspension point (`safepoint.rs`) — the
//! suspend/resume hand-off both native pools run between jobs, checked
//! here over the module alone, with no pool around it.
//!
//! Three things can go wrong. A **lost or double claim**: a resume and a
//! park race, and the parked worker either sleeps on although its token
//! was claimed (the model hangs) or counts a resume nobody made. A
//! **double count at shutdown**: a worker withdrawing its token because
//! the pool shuts down, while a resumer has already popped that token and
//! counted the worker active again — if the worker left anyway, `active`
//! would count a worker that is gone. The claim under the list lock and
//! the withdrawal that must find its own token rule both out. A **CAS
//! race past the floor**: two suspenders read the same count and both
//! leave, taking the application to zero workers — the compare-and-swap
//! and the `active > 1` floor rule it out (the paper's "every
//! application keeps ≥ 1").
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p native-rt --test
//! loom_safepoint` (the loom CI lane).

#![cfg(loom)]

use std::sync::atomic::{AtomicBool, Ordering};

use loom::sync::Arc;

use native_rt::safepoint::{SafePoint, SuspendOutcome};
use native_rt::Registry;

/// A safe point of `nworkers` and its pool's shutdown flag.
fn safepoint(nworkers: usize) -> (Arc<SafePoint>, Arc<AtomicBool>) {
    let sp = Arc::new(SafePoint::new(nworkers, &Registry::new()));
    (sp, Arc::new(AtomicBool::new(false)))
}

/// What a pool's `Drop` does to the safe point.
fn shut_down(sp: &SafePoint, shutdown: &AtomicBool) {
    shutdown.store(true, Ordering::Release);
    sp.release_all();
}

/// Two workers suspend (target 1 of 3) while two resumers each claim one
/// parked token as soon as there is one. Every park returns `Resumed`
/// with the resumer's signal exactly once, and `resumes` counts exactly
/// those claims.
#[test]
fn park_racing_resume_is_claimed_exactly_once() {
    loom::model(|| {
        let (sp, shutdown) = safepoint(3);
        let parkers: Vec<_> = (0..2)
            .map(|_| {
                let (sp, shutdown) = (Arc::clone(&sp), Arc::clone(&shutdown));
                loom::thread::spawn(move || {
                    while !sp.check(1) {
                        loom::thread::yield_now();
                    }
                    sp.park_suspended(&shutdown)
                })
            })
            .collect();
        let resumers: Vec<_> = (0..2)
            .map(|_| {
                let sp = Arc::clone(&sp);
                loom::thread::spawn(move || {
                    while !sp.resume_one() {
                        loom::thread::yield_now();
                    }
                })
            })
            .collect();
        for r in resumers {
            r.join().unwrap();
        }
        let signaled = parkers
            .into_iter()
            .map(|p| p.join().unwrap())
            .filter(|o| matches!(o, SuspendOutcome::Resumed(Some(_))))
            .count();
        assert_eq!(signaled, 2, "a park ended without its resumer's claim");
        assert_eq!(sp.resumes(), 2);
        assert_eq!(sp.suspends(), 2);
        assert_eq!(sp.active(), 3);
    });
}

/// One worker parks while a resumer tries to claim it and the pool shuts
/// down. Whoever wins, the worker honours it: a resumer's claim
/// (`Resumed(Some)`) is the only way back into `active`, and a withdrawal
/// (`Shutdown`) or a shutdown claim (`Resumed(None)`) leaves the count
/// where the suspension put it — never counted twice.
#[test]
fn shutdown_withdrawal_racing_a_resumer_honours_the_claim() {
    loom::model(|| {
        let (sp, shutdown) = safepoint(2);
        let worker = {
            let (sp, shutdown) = (Arc::clone(&sp), Arc::clone(&shutdown));
            loom::thread::spawn(move || {
                assert!(sp.check(1), "the only excess worker must suspend");
                sp.park_suspended(&shutdown)
            })
        };
        let resumer = {
            let sp = Arc::clone(&sp);
            loom::thread::spawn(move || sp.resume_one())
        };
        shut_down(&sp, &shutdown);
        let claimed = resumer.join().unwrap();
        let outcome = worker.join().unwrap();
        let resumed = matches!(outcome, SuspendOutcome::Resumed(Some(_)));
        assert_eq!(claimed, resumed, "claim and outcome disagree: {outcome:?}");
        assert_eq!(sp.resumes(), u64::from(resumed));
        assert_eq!(sp.active(), 1 + usize::from(resumed), "{outcome:?}");
    });
}

/// Two workers race the CAS at target 0: exactly one suspends, and the
/// application keeps one worker.
#[test]
fn racing_suspenders_at_target_zero_keep_one_worker() {
    loom::model(|| {
        let (sp, shutdown) = safepoint(2);
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (sp, shutdown) = (Arc::clone(&sp), Arc::clone(&shutdown));
                loom::thread::spawn(move || {
                    let won = sp.check(0);
                    if won {
                        sp.park_suspended(&shutdown);
                    }
                    won
                })
            })
            .collect();
        while sp.suspends() == 0 {
            loom::thread::yield_now();
        }
        shut_down(&sp, &shutdown);
        let winners = workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(winners, 1);
        assert_eq!(sp.suspends(), 1);
        assert_eq!(sp.active(), 1, "every application keeps ≥ 1");
        assert!(!sp.check(0), "the last worker never suspends");
    });
}
