//! Fault handling beside the worker loop: the stall watchdog, a thread
//! of its own that reads the progress words the workers store anyway,
//! and [`DeathWatch`], which repairs the pool's accounting if a worker
//! thread dies of a panic in the pool's own code.

use std::time::Duration;

use super::worker::{drain_local, work_available, Local};
use super::{wake_one, PoolShared};
use crate::quiesce;
use crate::sync::{Condvar, Mutex, Ordering};
use crate::trace::{self, EventKind};

/// Armed for the lifetime of a worker loop: fault recovery for a panic
/// in the pool's own code (a job's cannot unwind the loop,
/// [`super::worker::run_caught`]). If the loop unwinds, it repairs the
/// shared accounting the dead worker can no longer maintain: drains its
/// deque into the injector (the rest of a batch it took, or its forks:
/// no worker steals from its own index, and the injector is where every
/// worker looks), clears its suspended flag, removes it from the
/// `active` count so a suspended colleague resumes in its place, marks
/// it idle so the watchdog sees no stall, and announces its finishes,
/// which may include the last one a `wait_idle` caller is waiting for.
pub(super) struct DeathWatch<'a> {
    pub(super) sh: &'a PoolShared,
    pub(super) local: &'a Local,
    pub(super) index: usize,
    pub(super) armed: bool,
}

impl Drop for DeathWatch<'_> {
    // Out of line: it runs once, as its worker leaves the loop.
    #[cold]
    #[inline(never)]
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        drain_local(self.sh, self.local);
        self.sh.suspended_flags[self.index].store(false, Ordering::Release);
        self.sh.safepoint.remove_worker();
        self.sh.quiesce.cells(self.index).mark(quiesce::IDLE);
        self.sh.quiesce.announce();
    }
}

/// The stall-watchdog monitor thread (see [`crate::PoolConfig::watchdog`]):
/// samples every worker's progress word each quarter `threshold` and
/// ages it with its own clock (the workers read none for it), opens a
/// stall episode for a running worker whose word stayed unchanged past
/// the threshold (log + `stalls_detected` + [`EventKind::Stall`]),
/// closes it on the first observed progress (`stall_ns` +
/// [`EventKind::Recovered`]), and nudges long-parked workers while work
/// is visibly queued.
pub(super) fn watchdog_loop(sh: &PoolShared, threshold: Duration, stop: &(Mutex<bool>, Condvar)) {
    let n = sh.stealers.len();
    // The recorder's extra ring (index n) belongs to the watchdog.
    let wd_ring = n;
    // Open episodes: the progress word observed at detection (progress
    // == any change) and the detection timestamp.
    let mut episodes: Vec<Option<(u64, u64)>> = vec![None; n];
    // Each worker's last sampled word and when this thread first saw it.
    let started_ns = trace::now_ns();
    let mut seen: Vec<(u64, u64)> = (0..n)
        .map(|i| (sh.quiesce.cells(i).progress(), started_ns))
        .collect();
    let threshold_ns = threshold.as_nanos() as u64;
    let interval = (threshold / 4).max(Duration::from_millis(1));
    loop {
        {
            let mut stopped = stop.0.lock();
            if !*stopped {
                stop.1.wait_for(&mut stopped, interval);
            }
            if *stopped {
                return;
            }
        }
        let now_ns = trace::now_ns();
        for (i, (episode, seen)) in episodes.iter_mut().zip(&mut seen).enumerate() {
            let hb = sh.quiesce.cells(i).progress();
            if hb != seen.0 {
                *seen = (hb, now_ns);
            }
            let state = hb & 0b11;
            let stale = now_ns - seen.1;
            let stalled = state == quiesce::RUNNING && stale > threshold_ns;
            match *episode {
                None if stalled => {
                    *episode = Some((hb, now_ns));
                    sh.stalls_detected.incr();
                    let ms = (stale / 1_000_000).min(u64::from(u32::MAX)) as u32;
                    sh.recorder
                        .record_from(wd_ring, i as u16, now_ns, EventKind::Stall, ms);
                    eprintln!(
                        "pool-watchdog: worker {i} stalled ({} ms since last progress, threshold {} ms)",
                        stale / 1_000_000,
                        threshold_ns / 1_000_000,
                    );
                }
                Some((hb_at_detect, detected_ns)) if hb != hb_at_detect => {
                    *episode = None;
                    let dur = now_ns.saturating_sub(detected_ns);
                    sh.stall_ns.record(dur);
                    let ms = (dur / 1_000_000).min(u64::from(u32::MAX)) as u32;
                    sh.recorder
                        .record_from(wd_ring, i as u16, now_ns, EventKind::Recovered, ms);
                }
                _ => {}
            }
            if state == quiesce::PARKED
                && stale > threshold_ns
                && !sh.quiesce.quiescent()
                && work_available(sh)
            {
                sh.stall_nudges.incr();
                wake_one(sh);
            }
        }
    }
}
