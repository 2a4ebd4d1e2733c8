//! Process control blocks and per-process accounting.

use desim::{SimDur, SimTime};
use machine::CpuId;

use crate::action::Behavior;
use crate::ids::{AppId, LockId, Pid, PortId};

/// What effect to apply when the current service period completes.
pub(crate) enum Then {
    /// Deliver [`crate::Wakeup::ComputeDone`].
    ComputeDone,
    /// Try to take the lock; spin if held.
    TryAcquire(LockId),
    /// Release the lock (and grant to a running spinner).
    Release(LockId),
    /// Post the message, then deliver `Sent`.
    SendMsg(PortId, Vec<u64>),
    /// Take a message or block on the port.
    RecvMsg(PortId),
    /// Non-blocking receive.
    PollMsg(PortId),
    /// Create the child process.
    DoSpawn(Option<Box<dyn Behavior>>, u64),
    /// Enter the suspended (signal-wait) state.
    DoWaitSignal,
    /// Deliver the resume signal to the target.
    DoSignal(Pid),
    /// Block for the duration.
    DoSleep(SimDur),
    /// Go to the back of the run queue.
    DoYield,
    /// Terminate.
    DoExit,
}

impl std::fmt::Debug for Then {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Then::ComputeDone => "ComputeDone",
            Then::TryAcquire(_) => "TryAcquire",
            Then::Release(_) => "Release",
            Then::SendMsg(..) => "SendMsg",
            Then::RecvMsg(_) => "RecvMsg",
            Then::PollMsg(_) => "PollMsg",
            Then::DoSpawn(..) => "DoSpawn",
            Then::DoWaitSignal => "DoWaitSignal",
            Then::DoSignal(_) => "DoSignal",
            Then::DoSleep(_) => "DoSleep",
            Then::DoYield => "DoYield",
            Then::DoExit => "DoExit",
        };
        f.write_str(s)
    }
}

/// What the process is currently doing.
#[derive(Debug)]
pub(crate) enum Op {
    /// Executing on (or waiting to execute) a service period of `left`
    /// remaining work; `then` applies at completion.
    Service { left: SimDur, then: Then },
    /// Busy-waiting for a spinlock. Spinning consumes processor time but
    /// performs no work and makes no progress until granted.
    Spin { lock: LockId },
    /// No current op (only transiently, during wakeup delivery).
    Idle,
}

/// Scheduler-visible process state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProcState {
    /// On a processor.
    Running(CpuId),
    /// Runnable, waiting in a run queue.
    Ready,
    /// Sleeping until a timer fires.
    Sleeping,
    /// Suspended, waiting for the resume signal ([`crate::Action::WaitSignal`]).
    SigWait,
    /// Blocked in a mailbox receive.
    RecvWait(PortId),
    /// Terminated.
    Exited,
}

impl ProcState {
    /// Runnable means: would consume a processor if given one.
    pub(crate) fn is_runnable(self) -> bool {
        matches!(self, ProcState::Running(_) | ProcState::Ready)
    }
}

/// Per-process cumulative accounting, exposed for instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcAccounting {
    /// Useful work executed (excludes spin, refill, switch, service of
    /// kernel calls is *included* as work).
    pub work: SimDur,
    /// Time spent busy-waiting on spinlocks.
    pub spin: SimDur,
    /// Time spent refilling caches after corrupted dispatches.
    pub refill: SimDur,
    /// Number of dispatches onto a processor.
    pub dispatches: u64,
    /// Number of dispatches that switched the processor away from another
    /// process (i.e. paid the context-switch cost).
    pub switches: u64,
    /// Number of involuntary preemptions (quantum expiry).
    pub preemptions: u64,
    /// Total time from becoming ready to being dispatched.
    pub ready_wait: SimDur,
    /// Processor time consumed by context-switch costs on this process's
    /// behalf (charged to the incoming process at dispatch).
    pub switch_time: SimDur,
    /// Wall-clock time spent suspended in [`ProcState::SigWait`]. This is
    /// *not* processor time — a suspended process occupies no processor —
    /// so it sits outside the per-processor cycle conservation sum.
    pub suspended: SimDur,
}

pub(crate) struct Pcb {
    pub pid: Pid,
    pub parent: Option<Pid>,
    pub app: AppId,
    /// Index of `app` in the kernel's application table, interned by the
    /// kernel when it spawns the process (0 in a bare [`ProcTable`]).
    pub app_slot: u32,
    pub state: ProcState,
    pub op: Op,
    pub behavior: Option<Box<dyn Behavior>>,
    /// Working-set size in cache lines (drives the cache-corruption model).
    pub ws_lines: u64,
    /// Number of spinlocks currently held; used by the spinlock-flag
    /// scheduling baseline and by debug assertions on exit.
    pub locks_held: u32,
    /// A resume signal was sent while the process was not in `SigWait`.
    pub pending_signal: bool,
    /// Last processor this process ran on (affinity policies).
    pub last_cpu: Option<CpuId>,
    /// Total CPU time consumed (all categories), for priority-decay policies.
    pub cpu_time: SimDur,
    /// Epoch counter invalidating stale completion events.
    pub epoch: u64,
    /// When the process last became ready (for ready-wait accounting).
    pub ready_since: Option<SimTime>,
    /// When the process entered `SigWait` (for suspension accounting).
    pub suspend_since: Option<SimTime>,
    /// When the process started spinning on its current lock (for lock
    /// hand-off latency tracing).
    pub spin_since: Option<SimTime>,
    /// Cumulative accounting.
    pub acct: ProcAccounting,
}

impl Pcb {
    pub(crate) fn new(
        pid: Pid,
        parent: Option<Pid>,
        app: AppId,
        ws_lines: u64,
        behavior: Box<dyn Behavior>,
    ) -> Self {
        Pcb {
            pid,
            parent,
            app,
            app_slot: 0,
            state: ProcState::Ready,
            op: Op::Idle,
            behavior: Some(behavior),
            ws_lines,
            locks_held: 0,
            pending_signal: false,
            last_cpu: None,
            cpu_time: SimDur::ZERO,
            epoch: 0,
            ready_since: None,
            suspend_since: None,
            spin_since: None,
            acct: ProcAccounting::default(),
        }
    }
}

/// The process table, indexed by [`Pid`]: pids are handed out sequentially
/// and never reused, and exited processes keep their slot (their accounting
/// is read after the run), so a slot is never vacant.
pub(crate) struct ProcTable {
    slots: Vec<Pcb>,
}

impl ProcTable {
    pub(crate) fn new() -> Self {
        ProcTable { slots: Vec::new() }
    }

    pub(crate) fn insert(
        &mut self,
        parent: Option<Pid>,
        app: AppId,
        ws_lines: u64,
        behavior: Box<dyn Behavior>,
    ) -> Pid {
        let pid = Pid(self.slots.len() as u32);
        self.slots
            .push(Pcb::new(pid, parent, app, ws_lines, behavior));
        pid
    }

    pub(crate) fn get(&self, pid: Pid) -> &Pcb {
        &self.slots[pid.0 as usize]
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> &mut Pcb {
        &mut self.slots[pid.0 as usize]
    }

    /// Iterates over every process ever created, including exited ones.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Pcb> {
        self.slots.iter()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Script};

    #[test]
    fn table_assigns_sequential_pids() {
        let mut t = ProcTable::new();
        let a = t.insert(None, AppId(0), 10, Box::new(Script::new(vec![])));
        let b = t.insert(Some(a), AppId(0), 10, Box::new(Script::new(vec![])));
        assert_eq!(a, Pid(0));
        assert_eq!(b, Pid(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b).parent, Some(a));
    }

    #[test]
    fn runnable_states() {
        assert!(ProcState::Ready.is_runnable());
        assert!(ProcState::Running(CpuId(0)).is_runnable());
        assert!(!ProcState::Sleeping.is_runnable());
        assert!(!ProcState::SigWait.is_runnable());
        assert!(!ProcState::RecvWait(PortId(0)).is_runnable());
        assert!(!ProcState::Exited.is_runnable());
    }

    #[test]
    fn new_pcb_is_ready_and_clean() {
        let pcb = Pcb::new(
            Pid(3),
            None,
            AppId(1),
            64,
            Box::new(Script::new(vec![Action::Exit])),
        );
        assert_eq!(pcb.state, ProcState::Ready);
        assert_eq!(pcb.locks_held, 0);
        assert!(!pcb.pending_signal);
        assert_eq!(pcb.acct.dispatches, 0);
    }
}
