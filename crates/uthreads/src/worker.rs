//! The worker-process loop of the threads package.
//!
//! Each application process runs this loop: take the queue lock, dequeue a
//! task, run it to completion (servicing its user-level operations), and
//! come back for more. Two aspects reproduce the paper precisely:
//!
//! - **The queue lock is a spinlock.** Every dequeue, enqueue, barrier
//!   arrival, and channel operation holds it for `queue_op` time. A worker
//!   preempted inside that window leaves every other worker spinning —
//!   degradation mechanism #1 arises inside the threads package itself.
//! - **Safe suspension points.** Process control acts only at the top of
//!   the loop, when the worker holds no lock and no task: "a process can be
//!   safely suspended after it has finished executing a task ... and before
//!   it has selected another task to execute." The worker then suspends by
//!   waiting for a signal, or resumes a colleague by sending one. All of
//!   this is invisible to the application's tasks.

use std::cell::RefCell;
use std::rc::Rc;

use ctl_core::EventKind;
use desim::SimTime;
use procctl::{ClientControl, Decision};
use simkernel::{Action, Behavior, Pid, PortId, UserCtx, Wakeup};

use crate::shared::{AppShared, ControlMode, ControlParams, CrSimState, CrUnlock};
use crate::task::{BarrierId, ChanId, Task, TaskEvent, TaskOp};

/// Queue operations a task can request (all performed under the queue lock).
#[derive(Debug)]
enum QOp {
    Spawn(Option<Task>),
    Barrier(BarrierId),
    Send(ChanId, u64),
    Recv(ChanId),
    Requeue,
    Finish,
}

/// What to do after releasing the queue lock.
#[derive(Debug)]
enum Resume {
    /// Continue the current task with this event.
    Event(TaskEvent),
    /// The current task was parked (barrier/channel) or finished; return
    /// to the safe point.
    ToSafe,
}

#[derive(Debug)]
enum WState {
    /// Root only: registration message in flight.
    Boot,
    /// Root only: spawning the remaining workers.
    BootSpawn,
    /// Suspended (WaitSignal in flight or blocked).
    Suspending,
    /// Resume signal to a colleague in flight.
    ResumeSignal,
    /// Poll request to the server in flight.
    PollSend,
    /// Waiting for the server's target reply.
    PollRecv,
    /// Acquiring the queue lock to dequeue.
    DequeueLock,
    /// Holding the queue lock, charging the queue-operation time.
    DequeueCrit,
    /// Releasing the queue lock after a dequeue.
    DequeueUnlock,
    /// A task operation (compute / app lock) is in flight.
    TaskRun(TaskEvent),
    /// Acquiring the queue lock for a task-side queue operation.
    TaskQLock(QOp),
    /// Holding the queue lock for a task-side queue operation.
    TaskQCrit(QOp),
    /// Releasing the queue lock after a task-side queue operation.
    TaskQUnlock(Resume),
    /// Culled by the CR queue lock on the way to a dequeue; waiting for a
    /// promotion (or shutdown-drain) signal.
    CrParkedDequeue,
    /// Promotion signal in flight after releasing the lock from a dequeue;
    /// the dequeued item (if any) is still in `pending`.
    CrPromoteDequeue,
    /// Busy-wait slice while the queue is empty but tasks are outstanding.
    IdleSpin,
    /// Goodbye message to the server in flight.
    SendBye,
    /// Decentralized control: private rpstat sweep in flight.
    DecentSample,
    /// Waking a suspended colleague on the way out.
    Dying,
}

/// A worker process of one threads-package application.
pub struct Worker {
    shared: Rc<RefCell<AppShared>>,
    state: WState,
    /// The task currently being executed, if any.
    cur: Option<Task>,
    /// Item obtained by the last dequeue, carried across the lock release.
    pending: Option<(Task, TaskEvent)>,
    is_root: bool,
    /// Workers spawned so far (root only).
    spawned: u32,
    /// Reply mailbox for control messages (shared per application).
    reply_port: Option<PortId>,
    /// When this worker last requested the queue lock (span accounting).
    qlock_req: Option<SimTime>,
    /// Whether this worker holds a CR admission slot. Slots are sticky:
    /// kept across the whole dequeue → run-task → next-dequeue cycle, and
    /// given up only by the unlock policy (rotation, drain overshoot) or
    /// on the way to idling/exiting.
    cr_slot: bool,
}

impl Worker {
    /// Creates a worker. The root worker additionally registers with the
    /// server (if control is enabled) and spawns its colleagues.
    pub(crate) fn new(
        shared: Rc<RefCell<AppShared>>,
        is_root: bool,
        reply_port: Option<PortId>,
    ) -> Self {
        Worker {
            shared,
            state: WState::BootSpawn,
            cur: None,
            pending: None,
            is_root,
            spawned: 0,
            reply_port,
            qlock_req: None,
            cr_slot: false,
        }
    }

    /// Root: spawn the next worker, or fall through to the safe point.
    fn boot_next(&mut self, ctx: &mut dyn UserCtx) -> Action {
        let (nprocs, ws) = {
            let sh = self.shared.borrow();
            (sh.cfg.nprocs, sh.cfg.ws_lines)
        };
        if self.is_root && self.spawned + 1 < nprocs {
            self.state = WState::BootSpawn;
            let w = Worker::new(self.shared.clone(), false, self.reply_port);
            Action::Spawn(Box::new(w), ws)
        } else {
            self.safe_point(ctx)
        }
    }

    /// The safe suspension point: process control first, then work.
    fn safe_point(&mut self, ctx: &mut dyn UserCtx) -> Action {
        let mut sh = self.shared.borrow_mut();
        if sh.done {
            return Self::die(&mut self.state, &mut self.cr_slot, &mut sh);
        }
        if sh.control.is_some() {
            let active = sh.active;
            let decision = sh.control.as_ref().expect("checked").decide(active);
            match decision {
                Decision::SuspendSelf => {
                    sh.active -= 1;
                    sh.suspended.push(ctx.my_pid());
                    sh.metrics.suspends += 1;
                    sh.record(ctx.now(), ctx.my_pid(), EventKind::Suspend, 0);
                    self.state = WState::Suspending;
                    return Action::WaitSignal;
                }
                Decision::Resume => {
                    if let Some(pid) = sh.suspended.pop() {
                        sh.active += 1;
                        sh.metrics.resumes += 1;
                        self.state = WState::ResumeSignal;
                        return Action::SendSignal(pid);
                    }
                }
                Decision::Continue => {}
            }
            let now = ctx.now();
            let poll_in_flight = sh.poll_in_flight;
            let mode = sh.cfg.control.expect("checked").mode;
            let poll_action = {
                let ctl = sh.control.as_mut().expect("checked");
                if !poll_in_flight && ctl.poll_due(now) {
                    ctl.claim_poll(now);
                    Some((ctl.server_port, ctl.poll_msg()))
                } else {
                    None
                }
            };
            if let Some((port, msg)) = poll_action {
                sh.metrics.polls += 1;
                sh.record(now, ctx.my_pid(), EventKind::Poll, 0);
                match mode {
                    ControlMode::Centralized { .. } => {
                        sh.poll_in_flight = true;
                        self.state = WState::PollSend;
                        return Action::Send(port, msg);
                    }
                    ControlMode::Decentralized { rpstat_cost } => {
                        self.state = WState::DecentSample;
                        return Action::Compute(rpstat_cost);
                    }
                }
            }
        }
        if !sh.queue.is_empty() {
            if Self::cr_cull(&mut sh, &mut self.cr_slot, ctx) {
                self.state = WState::CrParkedDequeue;
                return Action::WaitSignal;
            }
            self.qlock_req = Some(ctx.now());
            self.state = WState::DequeueLock;
            return Action::AcquireLock(sh.qlock);
        }
        if sh.outstanding == 0 {
            sh.done = true;
            if let (
                Some(ControlParams {
                    mode: ControlMode::Centralized { .. },
                    ..
                }),
                Some(ctl),
            ) = (sh.cfg.control, &sh.control)
            {
                let port = ctl.server_port;
                let msg = ctl.bye_msg();
                self.state = WState::SendBye;
                return Action::Send(port, msg);
            }
            return Self::die(&mut self.state, &mut self.cr_slot, &mut sh);
        }
        // Work exists but none is ready: busy-wait a slice and re-check.
        let spin = sh.cfg.idle_spin;
        sh.metrics.idle_spin += spin;
        self.state = WState::IdleSpin;
        Action::Compute(spin)
    }

    /// Completion path: give back any held CR slot, wake suspended
    /// colleagues, and drain the CR lock's passive list, then exit.
    /// Without the drain, workers culled at the finish line would wait
    /// forever on a promotion that no dequeuing worker remains to send.
    ///
    /// An associated function (not a method) because callers hold the
    /// shared-state borrow while updating the worker's own state.
    fn die(state: &mut WState, cr_slot: &mut bool, sh: &mut AppShared) -> Action {
        if *cr_slot {
            sh.cr
                .as_mut()
                .expect("slot held without CR state")
                .release_slot();
            *cr_slot = false;
        }
        if let Some(pid) = sh.suspended.pop() {
            sh.active += 1;
            *state = WState::Dying;
            Action::SendSignal(pid)
        } else if let Some(pid) = sh.cr.as_mut().and_then(CrSimState::grant) {
            *state = WState::Dying;
            Action::SendSignal(pid)
        } else {
            sh.active -= 1;
            Action::Exit
        }
    }

    /// CR admission at the dequeue site. Returns true when the caller was
    /// culled (parked on the passive list, to be woken by a promotion or
    /// the shutdown drain); false means the caller holds an admission
    /// slot — kept from its previous cycle, or taken now — and may
    /// contend for the queue lock.
    ///
    /// A culled worker also leaves the process-control `active` count: it
    /// has voluntarily descheduled itself, and reporting it as active
    /// would make the control server suspend circulating workers to
    /// compensate for ones that already yielded the processor.
    fn cr_cull(sh: &mut AppShared, cr_slot: &mut bool, ctx: &mut dyn UserCtx) -> bool {
        if *cr_slot {
            return false;
        }
        match &mut sh.cr {
            None => return false,
            Some(cr) => {
                if cr.try_admit() {
                    *cr_slot = true;
                    return false;
                }
                cr.park(ctx.my_pid());
            }
        }
        sh.active -= 1;
        sh.metrics.cr_passivations += 1;
        sh.record(ctx.now(), ctx.my_pid(), EventKind::CrCull, 0);
        true
    }

    /// Slot bookkeeping after a dequeue's lock release: applies the CR
    /// unlock policy (drain overshoot, vacancy fill, fairness rotation).
    /// Returns a pid to signal when a passive worker was promoted into
    /// the circulating workforce.
    fn cr_unlock(&mut self, ctx: &mut dyn UserCtx) -> Option<Pid> {
        let mut sh = self.shared.borrow_mut();
        if !self.cr_slot || sh.cr.is_none() {
            return None;
        }
        let pid = match sh.cr.as_mut().expect("checked").on_unlock() {
            CrUnlock::Keep => return None,
            CrUnlock::Drop => {
                self.cr_slot = false;
                return None;
            }
            CrUnlock::Fill(pid) => pid,
            CrUnlock::Rotate(pid) => {
                self.cr_slot = false;
                pid
            }
        };
        sh.metrics.cr_promotions += 1;
        let active_max = sh.cr.as_ref().expect("checked").active_max;
        sh.record(ctx.now(), pid, EventKind::CrPromote, active_max);
        Some(pid)
    }

    /// Advances the current task and maps its next op onto kernel actions.
    fn task_step(&mut self, event: TaskEvent, ctx: &mut dyn UserCtx) -> Action {
        let op = self
            .cur
            .as_mut()
            .expect("task_step with a current task")
            .body
            .step(event);
        match op {
            TaskOp::Compute(d) => {
                self.state = WState::TaskRun(TaskEvent::ComputeDone);
                Action::Compute(d)
            }
            TaskOp::Lock(l) => {
                self.state = WState::TaskRun(TaskEvent::Locked);
                Action::AcquireLock(l)
            }
            TaskOp::Unlock(l) => {
                self.state = WState::TaskRun(TaskEvent::Unlocked);
                Action::ReleaseLock(l)
            }
            TaskOp::Spawn(t) => self.qlock_for(QOp::Spawn(Some(t)), ctx),
            TaskOp::Barrier(b) => self.qlock_for(QOp::Barrier(b), ctx),
            TaskOp::Send(c, v) => self.qlock_for(QOp::Send(c, v), ctx),
            TaskOp::Recv(c) => self.qlock_for(QOp::Recv(c), ctx),
            TaskOp::Requeue => self.qlock_for(QOp::Requeue, ctx),
            TaskOp::Done => self.qlock_for(QOp::Finish, ctx),
        }
    }

    /// Task-side queue operations bypass CR admission: a mid-task worker
    /// is (or was, until a rotation) a slot holder, and parking a worker
    /// that carries an in-flight task would strand the task. The bounded
    /// active set keeps these contenders few.
    fn qlock_for(&mut self, op: QOp, ctx: &mut dyn UserCtx) -> Action {
        let qlock = self.shared.borrow().qlock;
        self.qlock_req = Some(ctx.now());
        self.state = WState::TaskQLock(op);
        Action::AcquireLock(qlock)
    }

    /// Records how long the worker waited for the queue lock it now
    /// holds.
    fn note_qlock_acquired(&mut self, ctx: &mut dyn UserCtx) {
        if let Some(since) = self.qlock_req.take() {
            let waited = ctx.now().since(since);
            let mut sh = self.shared.borrow_mut();
            let waited_ns = u32::try_from(waited.nanos()).unwrap_or(u32::MAX);
            sh.record(ctx.now(), ctx.my_pid(), EventKind::LockWait, waited_ns);
        }
    }

    /// Continuation after a dequeue's lock release (and any promotion
    /// signal): start the dequeued task, or return to the safe point when
    /// another worker won the race for the last task.
    fn after_dequeue_unlock(&mut self, ctx: &mut dyn UserCtx) -> Action {
        match self.pending.take() {
            Some((task, ev)) => {
                self.cur = Some(task);
                self.shared
                    .borrow_mut()
                    .record(ctx.now(), ctx.my_pid(), EventKind::JobStart, 0);
                self.task_step(ev, ctx)
            }
            None => self.safe_point(ctx),
        }
    }

    /// Applies a queue operation (caller holds the queue lock) and returns
    /// what to do after the release.
    fn apply_qop(&mut self, op: QOp, now: SimTime, pid: Pid) -> Resume {
        let mut sh = self.shared.borrow_mut();
        match op {
            QOp::Spawn(t) => {
                sh.push_task(t.expect("spawned task present"));
                Resume::Event(TaskEvent::Spawned)
            }
            QOp::Barrier(b) => {
                let needed = sh.barriers[b.0 as usize].needed;
                let arrived = sh.barriers[b.0 as usize].arrived + 1;
                if arrived == needed {
                    // Last arriver: release everyone and pass through.
                    let parked = std::mem::take(&mut sh.barriers[b.0 as usize].parked);
                    for t in parked {
                        sh.queue.push_back((t, TaskEvent::BarrierPassed));
                    }
                    sh.barriers[b.0 as usize].arrived = 0;
                    Resume::Event(TaskEvent::BarrierPassed)
                } else {
                    sh.barriers[b.0 as usize].arrived = arrived;
                    let t = self.cur.take().expect("barrier from a running task");
                    sh.barriers[b.0 as usize].parked.push(t);
                    sh.record(now, pid, EventKind::JobEnd, 0);
                    Resume::ToSafe
                }
            }
            QOp::Send(c, v) => {
                let chan = &mut sh.channels[c.0 as usize];
                if let Some(t) = chan.parked.pop() {
                    sh.queue.push_back((t, TaskEvent::Received(v)));
                } else {
                    chan.values.push_back(v);
                }
                Resume::Event(TaskEvent::Sent)
            }
            QOp::Recv(c) => {
                let chan = &mut sh.channels[c.0 as usize];
                if let Some(v) = chan.values.pop_front() {
                    Resume::Event(TaskEvent::Received(v))
                } else {
                    let t = self.cur.take().expect("recv from a running task");
                    sh.channels[c.0 as usize].parked.push(t);
                    sh.record(now, pid, EventKind::JobEnd, 0);
                    Resume::ToSafe
                }
            }
            QOp::Requeue => {
                let t = self.cur.take().expect("requeue from a running task");
                sh.queue.push_back((t, TaskEvent::Requeued));
                sh.record(now, pid, EventKind::JobEnd, 0);
                Resume::ToSafe
            }
            QOp::Finish => {
                sh.outstanding -= 1;
                sh.metrics.tasks_run += 1;
                self.cur = None;
                sh.record(now, pid, EventKind::JobEnd, 1);
                Resume::ToSafe
            }
        }
    }
}

impl Behavior for Worker {
    fn step(&mut self, wakeup: Wakeup, ctx: &mut dyn UserCtx) -> Action {
        // Taking the state out keeps the borrow checker happy with the
        // payload-carrying variants.
        let state = std::mem::replace(&mut self.state, WState::BootSpawn);
        match (state, wakeup) {
            (_, Wakeup::Start) => {
                if self.is_root {
                    // Install the control block (the root's pid is only
                    // known now) and, in centralized mode, register with
                    // the server.
                    let reg = {
                        let mut sh = self.shared.borrow_mut();
                        if let Some(params) = sh.cfg.control {
                            let nprocs = sh.cfg.nprocs;
                            let (server_port, reply_port) = match params.mode {
                                ControlMode::Centralized { server_port } => (
                                    server_port,
                                    self.reply_port.expect("control requires a reply port"),
                                ),
                                // The decentralized variant never talks to
                                // anyone; the ports are placeholders.
                                ControlMode::Decentralized { .. } => {
                                    (simkernel::PortId(u32::MAX), simkernel::PortId(u32::MAX))
                                }
                            };
                            let mut ctl = ClientControl::new(
                                server_port,
                                reply_port,
                                ctx.my_pid(),
                                nprocs,
                                params.poll_interval,
                            );
                            // First poll one interval after startup, as in
                            // the paper.
                            ctl.claim_poll(ctx.now());
                            let msg = match params.mode {
                                ControlMode::Centralized { .. } if params.weight_milli != 1_000 => {
                                    Some((
                                        ctl.server_port,
                                        procctl::encode_register_weighted(
                                            ctx.my_pid(),
                                            ctl.reply_port,
                                            params.weight_milli,
                                        ),
                                    ))
                                }
                                ControlMode::Centralized { .. } => {
                                    Some((ctl.server_port, ctl.register_msg()))
                                }
                                ControlMode::Decentralized { .. } => None,
                            };
                            sh.control = Some(ctl);
                            msg
                        } else {
                            None
                        }
                    };
                    match reg {
                        Some((port, msg)) => {
                            self.state = WState::Boot;
                            Action::Send(port, msg)
                        }
                        None => self.boot_next(ctx),
                    }
                } else {
                    self.safe_point(ctx)
                }
            }
            (WState::Boot, Wakeup::Sent) => self.boot_next(ctx),
            (WState::BootSpawn, Wakeup::Spawned(_)) => {
                self.spawned += 1;
                self.boot_next(ctx)
            }
            (WState::Suspending, Wakeup::Resumed) => {
                self.shared
                    .borrow_mut()
                    .record(ctx.now(), ctx.my_pid(), EventKind::Resume, 0);
                self.safe_point(ctx)
            }
            (WState::ResumeSignal, Wakeup::SignalSent) => self.safe_point(ctx),
            (WState::PollSend, Wakeup::Sent) => {
                self.state = WState::PollRecv;
                Action::Recv(self.reply_port.expect("polling requires a reply port"))
            }
            (WState::PollRecv, Wakeup::Received(m)) => {
                let mut sh = self.shared.borrow_mut();
                sh.poll_in_flight = false;
                let ctl = sh.control.as_mut().expect("poll reply without control");
                let ok = ctl.apply_reply(&m);
                debug_assert!(ok, "malformed target reply");
                let target = ctl.target();
                sh.record(ctx.now(), ctx.my_pid(), EventKind::Epoch, target);
                drop(sh);
                self.safe_point(ctx)
            }
            (WState::DequeueLock, Wakeup::LockAcquired(_)) => {
                self.note_qlock_acquired(ctx);
                let d = self.shared.borrow().cfg.queue_op;
                self.state = WState::DequeueCrit;
                Action::Compute(d)
            }
            (WState::DequeueCrit, Wakeup::ComputeDone) => {
                let mut sh = self.shared.borrow_mut();
                self.pending = sh.queue.pop_front();
                let qlock = sh.qlock;
                drop(sh);
                self.state = WState::DequeueUnlock;
                Action::ReleaseLock(qlock)
            }
            (WState::DequeueUnlock, Wakeup::LockReleased(_)) => {
                if let Some(pid) = self.cr_unlock(ctx) {
                    self.state = WState::CrPromoteDequeue;
                    return Action::SendSignal(pid);
                }
                self.after_dequeue_unlock(ctx)
            }
            (WState::CrPromoteDequeue, Wakeup::SignalSent) => self.after_dequeue_unlock(ctx),
            (WState::TaskRun(ev), w) => {
                debug_assert!(matches!(
                    (&ev, &w),
                    (TaskEvent::ComputeDone, Wakeup::ComputeDone)
                        | (TaskEvent::Locked, Wakeup::LockAcquired(_))
                        | (TaskEvent::Unlocked, Wakeup::LockReleased(_))
                ));
                let _ = w;
                self.task_step(ev, ctx)
            }
            (WState::TaskQLock(op), Wakeup::LockAcquired(_)) => {
                self.note_qlock_acquired(ctx);
                let d = self.shared.borrow().cfg.queue_op;
                self.state = WState::TaskQCrit(op);
                Action::Compute(d)
            }
            (WState::TaskQCrit(op), Wakeup::ComputeDone) => {
                let resume = self.apply_qop(op, ctx.now(), ctx.my_pid());
                let qlock = self.shared.borrow().qlock;
                self.state = WState::TaskQUnlock(resume);
                Action::ReleaseLock(qlock)
            }
            (WState::TaskQUnlock(resume), Wakeup::LockReleased(_)) => match resume {
                Resume::Event(ev) => self.task_step(ev, ctx),
                Resume::ToSafe => self.safe_point(ctx),
            },
            (WState::CrParkedDequeue, Wakeup::Resumed) => {
                // Woken holding a slot: promoted into the circulating
                // workforce, or granted a slot by the shutdown drain.
                // Rejoin the process-control active count, then dequeue —
                // or, when the queue emptied (or the run finished) while
                // this worker was parked, give the slot straight back and
                // fall into the normal safe-point flow, which idles or
                // heads for the exit path.
                self.cr_slot = true;
                let dequeue = {
                    let mut sh = self.shared.borrow_mut();
                    sh.active += 1;
                    if sh.done || sh.queue.is_empty() {
                        sh.cr
                            .as_mut()
                            .expect("CR wakeup without CR state")
                            .release_slot();
                        self.cr_slot = false;
                        None
                    } else {
                        Some(sh.qlock)
                    }
                };
                match dequeue {
                    None => self.safe_point(ctx),
                    Some(qlock) => {
                        self.qlock_req = Some(ctx.now());
                        self.state = WState::DequeueLock;
                        Action::AcquireLock(qlock)
                    }
                }
            }
            (WState::IdleSpin, Wakeup::ComputeDone) => self.safe_point(ctx),
            (WState::DecentSample, Wakeup::ComputeDone) => {
                let stats = ctx.rpstat();
                let ncpus = ctx.num_cpus();
                let mut sh = self.shared.borrow_mut();
                let nprocs = sh.cfg.nprocs;
                // No registry: estimate the fair share and cap it at our
                // own process count.
                let est =
                    procctl::decentralized_target(&stats, simkernel::AppId(0), ncpus).min(nprocs);
                sh.control
                    .as_mut()
                    .expect("decentralized control")
                    .set_target(est);
                sh.record(ctx.now(), ctx.my_pid(), EventKind::Epoch, est);
                drop(sh);
                self.safe_point(ctx)
            }
            (WState::SendBye, Wakeup::Sent) => {
                let mut sh = self.shared.borrow_mut();
                // `done` is already set; head straight for the exit path.
                debug_assert!(sh.done);
                Self::die(&mut self.state, &mut self.cr_slot, &mut sh)
            }
            (WState::Dying, Wakeup::SignalSent) => {
                let mut sh = self.shared.borrow_mut();
                Self::die(&mut self.state, &mut self.cr_slot, &mut sh)
            }
            (state, wakeup) => {
                unreachable!("worker: unexpected wakeup {wakeup:?} in state {state:?}")
            }
        }
    }
}
