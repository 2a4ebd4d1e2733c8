//! The worker event log: what each worker was doing, and when.
//!
//! The workers append [`TraceEvent`]s — `ctl-core`'s worker-event
//! vocabulary, which the native flight recorder logs too — to their
//! application's log at the package's own state transitions — task
//! pickup/finish, suspension enter/exit, queue-lock waits, control polls,
//! applied targets and CR-lock culls/promotions. `ts_ns` is simulated
//! nanoseconds and `worker` the worker's pid. The log is unbounded (the
//! figure harnesses replay full histories) and kept in fixed-size chunks
//! of [`SPAN_CHUNK`] records, so it grows without ever copying a record: a
//! Fig-4 run appends ~135 k of them, in ~33 chunks. Harnesses read the log
//! back, in order, to build Perfetto tracks (`metrics::perfetto::
//! sched_timeline`, the same renderer the native pools use) and to measure
//! the latency the paper's Figure 5 claim rests on: how long after a poll
//! applies a new target does the application actually reach it
//! ([`poll_to_convergence`]).
//!
//! A dropped log does not free its chunks: it clears them (records are
//! `Copy`, so that only resets a length) and hands them to a per-thread
//! cache of at most [`SPAN_CACHE_CHUNKS`], from which the next log on the
//! thread takes its chunks before it allocates. Without it, every run of a
//! harness that simulates many runs on one thread paid for fresh pages:
//! the allocator trims the freed chunks back to the OS at the end of a
//! run, and the next run faults them in again on its first write to each
//! page. The cap bounds what a thread keeps (4 MiB) above the ~33 chunks
//! of a Fig-4 run.

use std::cell::RefCell;

use ctl_core::{EventKind, TraceEvent};
use desim::{SimDur, SimTime};
use simkernel::Pid;

/// Records per chunk of a span log (16 B each: 64 KiB a chunk).
pub const SPAN_CHUNK: usize = 4_096;

/// Empty chunks a thread keeps from its dropped span logs for the next
/// log to fill (4 MiB): a Fig-4 run uses ~33.
pub const SPAN_CACHE_CHUNKS: usize = 64;

thread_local! {
    /// Cleared chunks of dropped logs, each with capacity [`SPAN_CHUNK`].
    static SPARE_CHUNKS: RefCell<Vec<Vec<TraceEvent>>> = const { RefCell::new(Vec::new()) };
}

/// An append-only log of events in chunks of [`SPAN_CHUNK`]: a full chunk
/// is left where it is and a new one started, so an append never moves
/// the records already logged.
#[derive(Default)]
pub(crate) struct SpanLog {
    chunks: Vec<Vec<TraceEvent>>,
}

impl SpanLog {
    /// Appends one event of `kind` by worker `pid` at `time`.
    pub(crate) fn record(&mut self, time: SimTime, pid: Pid, kind: EventKind, arg: u32) {
        let worker = u16::try_from(pid.0).expect("a simulated pid fits a trace worker id");
        let record = TraceEvent {
            ts_ns: time.nanos(),
            worker,
            kind,
            arg,
        };
        match self.chunks.last_mut() {
            Some(chunk) if chunk.len() < SPAN_CHUNK => chunk.push(record),
            _ => {
                let mut chunk = SPARE_CHUNKS
                    .try_with(|spare| spare.borrow_mut().pop())
                    .ok()
                    .flatten()
                    .unwrap_or_else(|| Vec::with_capacity(SPAN_CHUNK));
                chunk.push(record);
                self.chunks.push(chunk);
            }
        }
    }

    /// The records, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.chunks.iter().flatten()
    }
}

impl Drop for SpanLog {
    /// Hands the chunks, cleared, to the thread's cache up to its cap;
    /// the rest are freed. During thread teardown the cache may be gone
    /// already, and then every chunk is freed.
    fn drop(&mut self) {
        let _ = SPARE_CHUNKS.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            let room = SPAN_CACHE_CHUNKS.saturating_sub(spare.len());
            spare.extend(self.chunks.drain(..).take(room).map(|mut chunk| {
                chunk.clear();
                chunk
            }));
        });
    }
}

/// Poll-to-convergence latencies: for each applied target
/// ([`EventKind::Epoch`]) that differed from the application's active
/// worker count at that moment, how long the package took to actually
/// reach it (by workers suspending or resuming at safe points). Targets
/// superseded before convergence are dropped — exactly the cases where the
/// server moved the goalposts mid-adjustment.
///
/// `initial_active` is the worker count at launch (`nprocs`).
pub fn poll_to_convergence<'a>(
    records: impl IntoIterator<Item = &'a TraceEvent>,
    initial_active: u32,
) -> Vec<(SimTime, SimDur)> {
    let mut active = initial_active;
    let mut pending: Option<(SimTime, u32)> = None;
    let mut out = Vec::new();
    for r in records {
        let at = SimTime(r.ts_ns);
        match r.kind {
            EventKind::Suspend => active -= 1,
            EventKind::Resume => active += 1,
            EventKind::Epoch => {
                pending = (r.arg != active).then_some((at, r.arg));
                continue;
            }
            _ => continue,
        }
        if let Some((since, target)) = pending {
            if active == target {
                out.push((since, at.since(since)));
                pending = None;
            }
        }
    }
    out
}

/// Wake-to-run latencies: for each resumed worker, the time from its
/// [`EventKind::Resume`] to its next [`EventKind::JobStart`] — the
/// simulated twin of the native runtime's `wake_to_run_ns` histogram
/// (how long a worker sat runnable after a resume decision before doing
/// useful work). A worker resumed again before ever starting a task
/// restarts its clock; a worker that never runs again contributes
/// nothing.
pub fn wake_to_run<'a>(
    records: impl IntoIterator<Item = &'a TraceEvent>,
) -> Vec<(Pid, SimTime, SimDur)> {
    let mut pending: std::collections::BTreeMap<u16, SimTime> = Default::default();
    let mut out = Vec::new();
    for r in records {
        let at = SimTime(r.ts_ns);
        match r.kind {
            EventKind::Resume => {
                pending.insert(r.worker, at);
            }
            EventKind::JobStart => {
                if let Some(woke) = pending.remove(&r.worker) {
                    out.push((Pid(u32::from(r.worker)), woke, at.since(woke)));
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

    fn prec(ms: u64, worker: u16, kind: EventKind, arg: u32) -> TraceEvent {
        TraceEvent {
            ts_ns: ms * 1_000_000,
            worker,
            kind,
            arg,
        }
    }

    fn rec(ms: u64, kind: EventKind, arg: u32) -> TraceEvent {
        prec(ms, 0, kind, arg)
    }

    #[test]
    fn convergence_measures_suspension_lag() {
        let records = vec![
            rec(100, EventKind::Epoch, 2),
            rec(150, EventKind::Suspend, 0),
            rec(300, EventKind::Suspend, 0),
            rec(900, EventKind::Epoch, 4),
            rec(950, EventKind::Resume, 0),
            rec(980, EventKind::Resume, 0),
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
            rec(100, EventKind::Epoch, 1),
            rec(150, EventKind::Suspend, 0),
            // New target before the first converged: only this one counts.
            rec(200, EventKind::Epoch, 4),
            rec(250, EventKind::Resume, 0),
        ];
        let c = poll_to_convergence(&records, 4);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].1, SimDur::from_millis(50));
    }

    #[test]
    fn already_met_targets_produce_no_entry() {
        let records = vec![rec(100, EventKind::Epoch, 4)];
        assert!(poll_to_convergence(&records, 4).is_empty());
    }

    #[test]
    fn wake_to_run_pairs_resume_with_next_task_start_per_pid() {
        let records = vec![
            prec(100, 1, EventKind::Resume, 0),
            // Another pid's task start must not consume pid 1's pending
            // wake.
            prec(120, 2, EventKind::JobStart, 0),
            prec(150, 1, EventKind::JobStart, 0),
            // A wake that never runs again contributes nothing.
            prec(200, 3, EventKind::Resume, 0),
            // A second resume of pid 1 restarts its clock.
            prec(300, 1, EventKind::Resume, 0),
            prec(310, 1, EventKind::Resume, 0),
            prec(340, 1, EventKind::JobStart, 0),
        ];
        let w = wake_to_run(&records);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].0, Pid(1));
        assert_eq!(w[0].2, SimDur::from_millis(50));
        assert_eq!(w[1].2, SimDur::from_millis(30));
    }

    #[test]
    fn log_keeps_order_across_chunks_without_moving_a_chunk() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
        let mut log = SpanLog::default();
        let n = 2 * SPAN_CHUNK + 3;
        let mut first_chunk = None;
        for i in 0..n {
            log.record(SimTime(i as u64), Pid(0), EventKind::JobStart, 0);
            let at = log.chunks[0].as_ptr();
            assert_eq!(*first_chunk.get_or_insert(at), at, "a chunk moved");
        }
        assert_eq!(log.chunks.len(), 3);
        assert!(log.chunks.iter().all(|c| c.capacity() == SPAN_CHUNK));
        let times: Vec<u64> = log.iter().map(|r| r.ts_ns).collect();
        assert_eq!(times, (0..n as u64).collect::<Vec<_>>());
    }

    #[test]
    fn a_pid_beyond_a_worker_id_is_refused_not_truncated() {
        let mut log = SpanLog::default();
        log.record(SimTime(1), Pid(u32::from(u16::MAX)), EventKind::Poll, 0);
        assert_eq!(log.iter().next().map(|r| r.worker), Some(u16::MAX));
        let wider = std::panic::catch_unwind(move || {
            log.record(SimTime(2), Pid(1 << 16), EventKind::Poll, 0);
        });
        assert!(wider.is_err(), "pid 65536 was truncated into a worker id");
    }
}
