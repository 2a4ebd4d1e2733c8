//! Span events: what each worker was doing, and when.
//!
//! The workers append timestamped [`SpanRecord`]s to their application's
//! log (a plain `Vec`, unbounded: the figure harnesses replay full
//! histories) at the package's own state transitions — task pickup/finish, suspension
//! enter/exit, queue-lock waits, and control polls. Harnesses read the log
//! back to build Perfetto tracks and to measure the latency the paper's
//! Figure 5 claim rests on: how long after a poll applies a new target does
//! the application actually reach it ([`poll_to_convergence`]).

use desim::{SimDur, SimTime};
use simkernel::Pid;

/// What happened at a span boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A worker picked a task off the ready queue and started executing it.
    TaskStart,
    /// The worker put its current task down: `finished` tasks completed,
    /// unfinished ones parked at a barrier/channel or requeued.
    TaskEnd {
        /// True when the task ran to completion.
        finished: bool,
    },
    /// The worker suspended itself at a safe point (process control).
    SuspendEnter,
    /// The worker was resumed by a colleague's signal.
    SuspendExit,
    /// The worker acquired the queue lock after waiting `waited` for it
    /// (the spin time degradation mechanism #1 is made of).
    QueueLockWait {
        /// Time from requesting the queue lock to holding it.
        waited: SimDur,
    },
    /// The worker issued a poll to the control server (or started a
    /// decentralized rpstat sweep).
    PollSent,
    /// A target from the server (or a decentralized estimate) was applied
    /// to the application's control block.
    TargetApplied {
        /// The new target number of runnable processes.
        target: u32,
    },
    /// The concurrency-restricting queue lock culled the worker: the
    /// active set was full, so it parked instead of joining the spin.
    CrCull,
    /// The worker was promoted from the CR lock's passive list (it wakes
    /// holding an admission slot handed over by the releaser).
    CrPromote,
}

/// One timestamped span record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// When it happened.
    pub time: SimTime,
    /// The worker process.
    pub pid: Pid,
    /// What happened.
    pub kind: SpanKind,
}

/// Poll-to-convergence latencies: for each applied target that differed
/// from the application's active worker count at that moment, how long the
/// package took to actually reach it (by workers suspending or resuming at
/// safe points). Targets superseded before convergence are dropped —
/// exactly the cases where the server moved the goalposts mid-adjustment.
///
/// `initial_active` is the worker count at launch (`nprocs`).
pub fn poll_to_convergence(records: &[SpanRecord], initial_active: u32) -> Vec<(SimTime, SimDur)> {
    let mut active = initial_active;
    let mut pending: Option<(SimTime, u32)> = None;
    let mut out = Vec::new();
    for r in records {
        match r.kind {
            SpanKind::SuspendEnter => active -= 1,
            SpanKind::SuspendExit => active += 1,
            SpanKind::TargetApplied { target } => {
                if target == active {
                    pending = None;
                } else {
                    pending = Some((r.time, target));
                }
                continue;
            }
            _ => continue,
        }
        if let Some((since, target)) = pending {
            if active == target {
                out.push((since, r.time.since(since)));
                pending = None;
            }
        }
    }
    out
}

/// Wake-to-run latencies: for each resumed worker, the time from its
/// [`SpanKind::SuspendExit`] to its next [`SpanKind::TaskStart`] — the
/// simulated twin of the native runtime's `wake_to_run_ns` histogram
/// (how long a worker sat runnable after a resume decision before doing
/// useful work). A worker resumed again before ever starting a task
/// restarts its clock; a worker that never runs again contributes
/// nothing.
pub fn wake_to_run(records: &[SpanRecord]) -> Vec<(Pid, SimTime, SimDur)> {
    let mut pending: std::collections::BTreeMap<u32, SimTime> = Default::default();
    let mut out = Vec::new();
    for r in records {
        match r.kind {
            SpanKind::SuspendExit => {
                pending.insert(r.pid.0, r.time);
            }
            SpanKind::TaskStart => {
                if let Some(woke) = pending.remove(&r.pid.0) {
                    out.push((r.pid, woke, r.time.since(woke)));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ms: u64, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            time: SimTime::ZERO + SimDur::from_millis(ms),
            pid: Pid(0),
            kind,
        }
    }

    #[test]
    fn convergence_measures_suspension_lag() {
        let records = vec![
            rec(100, SpanKind::TargetApplied { target: 2 }),
            rec(150, SpanKind::SuspendEnter),
            rec(300, SpanKind::SuspendEnter),
            rec(900, SpanKind::TargetApplied { target: 4 }),
            rec(950, SpanKind::SuspendExit),
            rec(980, SpanKind::SuspendExit),
        ];
        let c = poll_to_convergence(&records, 4);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].0, SimTime::ZERO + SimDur::from_millis(100));
        assert_eq!(c[0].1, SimDur::from_millis(200));
        assert_eq!(c[1].1, SimDur::from_millis(80));
    }

    #[test]
    fn superseded_targets_are_dropped() {
        let records = vec![
            rec(100, SpanKind::TargetApplied { target: 1 }),
            rec(150, SpanKind::SuspendEnter),
            // New target before the first converged: only this one counts.
            rec(200, SpanKind::TargetApplied { target: 4 }),
            rec(250, SpanKind::SuspendExit),
        ];
        let c = poll_to_convergence(&records, 4);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].1, SimDur::from_millis(50));
    }

    #[test]
    fn already_met_targets_produce_no_entry() {
        let records = vec![rec(100, SpanKind::TargetApplied { target: 4 })];
        assert!(poll_to_convergence(&records, 4).is_empty());
    }

    fn prec(ms: u64, pid: u32, kind: SpanKind) -> SpanRecord {
        SpanRecord {
            time: SimTime::ZERO + SimDur::from_millis(ms),
            pid: Pid(pid),
            kind,
        }
    }

    #[test]
    fn wake_to_run_pairs_resume_with_next_task_start_per_pid() {
        let records = vec![
            prec(100, 1, SpanKind::SuspendExit),
            // Another pid's task start must not consume pid 1's pending
            // wake.
            prec(120, 2, SpanKind::TaskStart),
            prec(150, 1, SpanKind::TaskStart),
            // A wake that never runs again contributes nothing.
            prec(200, 3, SpanKind::SuspendExit),
            // A second resume of pid 1 restarts its clock.
            prec(300, 1, SpanKind::SuspendExit),
            prec(310, 1, SpanKind::SuspendExit),
            prec(340, 1, SpanKind::TaskStart),
        ];
        let w = wake_to_run(&records);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Pid(1));
        assert_eq!(w[0].2, SimDur::from_millis(50));
        assert_eq!(w[1].2, SimDur::from_millis(30));
    }
}
