//! The application's shared memory, as seen by the threads package.
//!
//! Everything here corresponds to state the Brown threads package keeps in
//! the (real) shared address space of an application's processes: the
//! ready queue of tasks, barrier and channel state, and — with process
//! control enabled — the control block consulted at safe suspension
//! points. The simulation executes one process step at a time, so a plain
//! `RefCell` models shared memory; the *timing* of contended access is
//! modeled by the queue spinlock the workers take around every queue
//! operation.

use std::collections::VecDeque;

use ctl_core::{EventKind, TraceEvent};
use desim::{SimDur, SimTime};
use procctl::ClientControl;
use simkernel::{LockId, Pid};

use crate::span::SpanLog;
use crate::task::{Task, TaskEvent};

/// Package-level counters, kept per application.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppMetrics {
    /// Tasks executed to completion.
    pub tasks_run: u64,
    /// Times a worker suspended itself at a safe point.
    pub suspends: u64,
    /// Times a worker resumed a suspended colleague.
    pub resumes: u64,
    /// Server polls issued.
    pub polls: u64,
    /// Time workers spent in the idle loop waiting for work to appear.
    pub idle_spin: SimDur,
    /// Workers culled by the concurrency-restricting queue lock.
    pub cr_passivations: u64,
    /// Culled workers promoted back into the CR lock's active set.
    pub cr_promotions: u64,
}

#[derive(Debug, Default)]
pub(crate) struct BarrierState {
    pub needed: u32,
    pub arrived: u32,
    pub parked: Vec<Task>,
}

#[derive(Debug, Default)]
pub(crate) struct ChanState {
    pub values: VecDeque<u64>,
    pub parked: Vec<Task>,
}

/// Parameters of the concurrency-restricting (CR) queue lock — the
/// simulated twin of `native-rt`'s `CrLock`. With CR enabled, at most
/// `active_max` workers circulate through the run queue at a time; excess
/// arrivals are *culled* (parked on a passive list, awaiting a signal)
/// instead of piling onto the queue lock, so heavy overcommit degrades
/// into a small circulating workforce plus a crowd of descheduled
/// workers rather than a mob of spinners feeding lock-holder preemption.
#[derive(Clone, Copy, Debug)]
pub struct CrParams {
    /// Maximum workers admitted to the circulating set at once (≥ 1;
    /// clamped to the worker count at launch).
    pub active_max: u32,
    /// Fairness bound: every this many dequeues, the longest-parked
    /// passive worker swaps places with a circulating one, so the
    /// passive list cannot starve its oldest entry.
    pub promotion_interval: u64,
}

impl CrParams {
    /// A fixed active set of `active_max` workers with the default
    /// promotion interval.
    pub fn fixed(active_max: u32) -> Self {
        assert!(active_max >= 1, "the active set needs at least one slot");
        CrParams {
            active_max,
            promotion_interval: 32,
        }
    }
}

/// What the worker that just released the dequeue lock should do with
/// its admission slot (see [`CrSimState::on_unlock`]).
#[derive(Debug)]
pub(crate) enum CrUnlock {
    /// Keep the slot and run the dequeued task.
    Keep,
    /// The shutdown drain's grants left the set over its bound: the
    /// caller's slot is gone. It runs its task slotless and re-competes
    /// at the next safe point.
    Drop,
    /// A vacancy exists: wake the returned worker with a fresh slot; the
    /// caller keeps its own.
    Fill(Pid),
    /// Fairness rotation: the caller's slot transfers to the returned
    /// worker; the caller runs its task slotless.
    Rotate(Pid),
}

/// Live state of the CR queue lock for one application.
///
/// The *slot* invariant: `active` counts workers holding an admission
/// slot. Slots are **sticky** — held across the whole dequeue → run-task
/// → next-dequeue cycle — so the active set is the application's
/// circulating workforce and the passive list is genuinely descheduled
/// (blocked, consuming no processor). Slots change hands only at
/// dequeue-unlock ([`CrSimState::on_unlock`]: vacancy fill, fairness
/// rotation) and at the shutdown drain
/// ([`CrSimState::grant`]). Crucially, no hand-off sits on the lock's
/// critical path: a promotion wakes a worker into the *workforce*, not
/// into a just-released lock, so wakeup latency never stalls the queue.
#[derive(Debug)]
pub(crate) struct CrSimState {
    /// Active-set bound.
    pub active_max: u32,
    /// Workers currently holding an admission slot.
    pub active: u32,
    /// Culled workers, FIFO: the longest-parked worker is promoted
    /// first, so rotation bounds every entry's wait.
    pub passive: VecDeque<Pid>,
    /// Dequeues completed — the rotation clock.
    dequeues: u64,
    /// Rotation clock reading at the last fairness rotation.
    last_rotation: u64,
    params: CrParams,
}

impl CrSimState {
    pub(crate) fn new(params: CrParams, nprocs: u32) -> Self {
        CrSimState {
            active_max: params.active_max.clamp(1, nprocs),
            active: 0,
            passive: VecDeque::new(),
            dequeues: 0,
            last_rotation: 0,
            params,
        }
    }

    /// Tries to take an admission slot; false means the caller must park.
    pub(crate) fn try_admit(&mut self) -> bool {
        if self.active >= self.active_max {
            return false;
        }
        self.active += 1;
        true
    }

    /// Parks the caller on the passive list (caller holds no slot).
    pub(crate) fn park(&mut self, pid: Pid) {
        self.passive.push_back(pid);
    }

    /// Frees the caller's slot without promoting anyone (exit paths and
    /// wakeups that find nothing to do).
    pub(crate) fn release_slot(&mut self) {
        self.active -= 1;
    }

    /// Slot accounting after a dequeue-unlock: give back a slot the
    /// shutdown drain over-granted, fill vacancies from the passive list,
    /// and rotate the longest-parked worker in every `promotion_interval`
    /// dequeues.
    pub(crate) fn on_unlock(&mut self) -> CrUnlock {
        self.dequeues += 1;
        if self.active > self.active_max {
            self.active -= 1;
            return CrUnlock::Drop;
        }
        if self.active < self.active_max {
            if let Some(pid) = self.passive.pop_front() {
                self.active += 1;
                return CrUnlock::Fill(pid);
            }
        }
        if self.dequeues - self.last_rotation >= self.params.promotion_interval {
            if let Some(pid) = self.passive.pop_front() {
                self.last_rotation = self.dequeues;
                return CrUnlock::Rotate(pid);
            }
        }
        CrUnlock::Keep
    }

    /// Shutdown drain: grants a fresh slot to a passive worker so it can
    /// observe `done` and exit. May transiently exceed `active_max`; the
    /// woken worker gives the slot straight back.
    pub(crate) fn grant(&mut self) -> Option<Pid> {
        let pid = self.passive.pop_front()?;
        self.active += 1;
        Some(pid)
    }
}

/// Tuning of the threads package for one application.
#[derive(Clone, Debug)]
pub struct ThreadsConfig {
    /// Number of worker processes to create.
    pub nprocs: u32,
    /// Per-worker working-set size, in cache lines.
    pub ws_lines: u64,
    /// Time spent under the queue lock per queue operation (dequeue,
    /// enqueue, barrier arrival, channel operation). Smaller grain sizes
    /// make this relatively larger — the paper's "fine-grained systems"
    /// remark.
    pub queue_op: SimDur,
    /// How long an idle worker computes between ready-queue checks while
    /// other tasks are still outstanding (busy-wait slice).
    pub idle_spin: SimDur,
    /// Process-control parameters; `None` reproduces the unmodified
    /// package (the paper's dashed curves).
    pub control: Option<ControlParams>,
    /// Concurrency-restricting queue-lock parameters; `None` keeps the
    /// unrestricted spinlock. Orthogonal to `control`: the four-way
    /// ablation crosses the two switches.
    pub cr: Option<CrParams>,
}

/// How an application learns its target number of runnable processes.
#[derive(Clone, Copy, Debug)]
pub enum ControlMode {
    /// Poll the central server (the paper's chosen design).
    Centralized {
        /// The server's request mailbox.
        server_port: simkernel::PortId,
    },
    /// Sample `rpstat` directly and estimate a fair share with no central
    /// registry — the variant the paper tried first and rejected as "too
    /// inefficient" with "stability problems".
    Decentralized {
        /// Modeled CPU cost of each private `rpstat` sweep.
        rpstat_cost: SimDur,
    },
}

/// Process-control parameters for one application.
#[derive(Clone, Copy, Debug)]
pub struct ControlParams {
    /// Where targets come from.
    pub mode: ControlMode,
    /// Poll period (6 s in the paper).
    pub poll_interval: SimDur,
    /// Share weight in thousandths (1000 = the paper's equal priority).
    pub weight_milli: u32,
}

impl ThreadsConfig {
    /// A package configuration with paper-like defaults and no process
    /// control.
    pub fn new(nprocs: u32) -> Self {
        assert!(nprocs >= 1, "an application needs at least one process");
        ThreadsConfig {
            nprocs,
            ws_lines: 1_024,
            // A queue operation is a full user-level thread switch under
            // the scheduler spinlock — hundreds of microseconds on a
            // late-80s 2-MIPS processor.
            queue_op: SimDur::from_micros(800),
            idle_spin: SimDur::from_micros(500),
            control: None,
            cr: None,
        }
    }

    /// Enables the concurrency-restricting queue lock.
    pub fn with_cr_lock(mut self, cr: CrParams) -> Self {
        self.cr = Some(cr);
        self
    }

    /// Enables process control through the given central-server port.
    pub fn with_control(mut self, server_port: simkernel::PortId, poll_interval: SimDur) -> Self {
        self.control = Some(ControlParams {
            mode: ControlMode::Centralized { server_port },
            poll_interval,
            weight_milli: 1_000,
        });
        self
    }

    /// Enables centralized process control with an explicit share weight
    /// (thousandths; 1000 = equal priority).
    pub fn with_weighted_control(
        mut self,
        server_port: simkernel::PortId,
        poll_interval: SimDur,
        weight_milli: u32,
    ) -> Self {
        assert!(weight_milli > 0, "zero weight would starve the application");
        self.control = Some(ControlParams {
            mode: ControlMode::Centralized { server_port },
            poll_interval,
            weight_milli,
        });
        self
    }

    /// Enables the decentralized (serverless) control variant.
    pub fn with_decentralized_control(
        mut self,
        poll_interval: SimDur,
        rpstat_cost: SimDur,
    ) -> Self {
        self.control = Some(ControlParams {
            mode: ControlMode::Decentralized { rpstat_cost },
            poll_interval,
            weight_milli: 1_000,
        });
        self
    }
}

/// The shared-memory block of one application.
pub struct AppShared {
    pub(crate) cfg: ThreadsConfig,
    /// The task ready queue; entries carry the event that resumes the task.
    pub(crate) queue: VecDeque<(Task, TaskEvent)>,
    /// Tasks created and not yet finished (queued, running, or parked).
    pub(crate) outstanding: u32,
    pub(crate) barriers: Vec<BarrierState>,
    pub(crate) channels: Vec<ChanState>,
    /// The spinlock protecting the queue and all package state.
    pub(crate) qlock: LockId,
    /// Workers not currently suspended.
    pub(crate) active: u32,
    /// Suspended workers, most recently suspended last.
    pub(crate) suspended: Vec<Pid>,
    /// Set by the worker that discovers the work is complete.
    pub(crate) done: bool,
    /// A poll request is outstanding (guards the single reply mailbox).
    pub(crate) poll_in_flight: bool,
    pub(crate) control: Option<ClientControl>,
    /// Concurrency-restricting queue-lock state, when enabled.
    pub(crate) cr: Option<CrSimState>,
    pub(crate) metrics: AppMetrics,
    /// Events emitted by the workers (task/suspension/lock-wait/poll/…).
    pub(crate) spans: SpanLog,
}

impl AppShared {
    pub(crate) fn new(cfg: ThreadsConfig, qlock: LockId) -> Self {
        let active = cfg.nprocs;
        let cr = cfg.cr.map(|p| CrSimState::new(p, cfg.nprocs));
        AppShared {
            cfg,
            cr,
            queue: VecDeque::new(),
            outstanding: 0,
            barriers: Vec::new(),
            channels: Vec::new(),
            qlock,
            active,
            suspended: Vec::new(),
            done: false,
            poll_in_flight: false,
            control: None,
            metrics: AppMetrics::default(),
            spans: SpanLog::default(),
        }
    }

    /// Logs one worker event.
    pub(crate) fn record(&mut self, time: SimTime, pid: Pid, kind: EventKind, arg: u32) {
        self.spans.record(time, pid, kind, arg);
    }

    /// Enqueues a fresh task.
    pub(crate) fn push_task(&mut self, task: Task) {
        self.outstanding += 1;
        self.queue.push_back((task, TaskEvent::Start));
    }

    /// Current number of non-suspended workers.
    pub fn active(&self) -> u32 {
        self.active
    }

    /// Whether all tasks have finished.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Package counters.
    pub fn metrics(&self) -> AppMetrics {
        self.metrics
    }

    /// The latest process-control target, if control is enabled.
    pub fn target(&self) -> Option<u32> {
        self.control.as_ref().map(ClientControl::target)
    }

    /// The CR queue lock's active-set bound, if CR is enabled (the
    /// configured value clamped to the worker count).
    pub fn cr_active_max(&self) -> Option<u32> {
        self.cr.as_ref().map(|cr| cr.active_max)
    }

    /// The worker events emitted so far, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &TraceEvent> {
        self.spans.iter()
    }

    /// The configured worker count.
    pub fn nprocs(&self) -> u32 {
        self.cfg.nprocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shutdown drain may grant past the bound while a slot holder
    /// is still mid-dequeue (one CPU, eight workers, `CrParams::fixed(3)`
    /// and forty 50 µs tasks reach it end to end); that holder's unlock
    /// gives its slot back instead of keeping or rotating it.
    #[test]
    fn unlock_after_a_drain_overshoot_drops_the_slot() {
        let mut cr = CrSimState::new(CrParams::fixed(2), 8);
        assert!(cr.try_admit() && cr.try_admit());
        assert!(!cr.try_admit());
        cr.park(Pid(5));
        cr.park(Pid(6));
        assert_eq!(cr.grant(), Some(Pid(5)));
        assert_eq!(cr.active, 3);
        assert!(matches!(cr.on_unlock(), CrUnlock::Drop));
        assert_eq!(cr.active, 2);
        // Back at the bound: the next unlock keeps its slot.
        assert!(matches!(cr.on_unlock(), CrUnlock::Keep));
    }
}
