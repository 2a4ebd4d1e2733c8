//! The simulated kernel: dispatch, preemption, synchronization, IPC.
//!
//! The kernel advances a [`desim::Calendar`] of four event kinds — quantum
//! expiries, operation completions, sleep timers, and housekeeping ticks —
//! and in between keeps every processor maximally busy by consulting the
//! configured [`SchedPolicy`]. Execution time is charged through the
//! machine model: a dispatch that switches processes pays the context
//! switch cost, and the cache model converts the first part of each
//! occupancy into refill (non-work) time when the process's footprint was
//! evicted. Spinning on a held lock consumes processor time without
//! progress — the pathology at the heart of the paper.

use std::collections::BTreeMap;

use desim::{Calendar, SimDur, SimTime, Tracer};
use machine::{CacheSim, CpuId};

use crate::action::{Action, Behavior, Message, ProcStat, UserCtx, Wakeup};
use crate::config::KernelConfig;
use crate::ids::{AppId, LockId, Pid, PortId};
use crate::ledger::{CycleLedger, Cycles};
use crate::locks::{LockStats, LockTable};
use crate::pcb::{Op, ProcAccounting, ProcState, ProcTable, Then};
use crate::policy::{PolicyView, ReadyReason, SchedPolicy};
use crate::ports::PortTable;

/// Structured trace record emitted by the kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KTrace {
    /// A process was placed on a processor.
    Dispatch {
        /// Processor.
        cpu: CpuId,
        /// Process.
        pid: Pid,
        /// Whether the dispatch paid the context-switch cost.
        switched: bool,
    },
    /// A process was involuntarily preempted at quantum expiry.
    Preempt {
        /// Processor.
        cpu: CpuId,
        /// Process.
        pid: Pid,
    },
    /// The number of runnable processes changed.
    Runnable {
        /// Application whose process changed state.
        app: AppId,
        /// Runnable processes of that application, after the change.
        app_count: u32,
        /// Runnable processes in the whole system, after the change.
        total: u32,
    },
    /// A process was created.
    Spawn {
        /// New process.
        pid: Pid,
        /// Its application.
        app: AppId,
    },
    /// A process exited.
    Exit {
        /// The process.
        pid: Pid,
        /// Its application.
        app: AppId,
    },
    /// The last process of an application exited.
    AppDone {
        /// The application.
        app: AppId,
    },
    /// A process started spinning on a held lock.
    SpinStart {
        /// The spinner.
        pid: Pid,
        /// The contended lock.
        lock: LockId,
        /// The current holder.
        holder: Pid,
    },
    /// A process was preempted while busy-waiting on a lock — the cycles it
    /// burned spinning are pure waste, and if it was next in line the lock's
    /// hand-off is now delayed by a whole scheduling round-trip. This is the
    /// pathological interaction at the heart of the paper.
    PreemptWhileSpinning {
        /// Processor.
        cpu: CpuId,
        /// The preempted spinner.
        pid: Pid,
        /// The lock it was spinning on.
        lock: LockId,
        /// The holder it was waiting for, if the lock is still held.
        holder: Option<Pid>,
    },
    /// A contended lock was handed to a spinner.
    LockHandoff {
        /// The lock.
        lock: LockId,
        /// The releasing holder (`None` when the lock was released while
        /// the winner was preempted and re-tested at its next dispatch).
        from: Option<Pid>,
        /// The spinner that received the lock.
        to: Pid,
        /// How long the winner waited from its first spin to the grant —
        /// the hand-off latency, inflated by any preemption in between.
        waited: SimDur,
    },
}

#[derive(Clone, Copy, Debug)]
enum KEvent {
    QuantumExpire { cpu: usize, epoch: u64 },
    OpComplete { pid: Pid, epoch: u64 },
    SleepDone { pid: Pid, epoch: u64 },
    Tick,
}

pub(crate) struct Cpu {
    running: Option<Pid>,
    /// Last process dispatched here (context-switch cost bookkeeping).
    last_pid: Option<Pid>,
    /// Incremented on every dispatch/idle transition; stale quantum events
    /// carry an old epoch and are ignored.
    epoch: u64,
    /// When the current occupant began executing (after switch cost).
    seg_start: SimTime,
    /// Number of times the pending quantum expiry has been deferred by a
    /// no-preempt policy hint.
    defer_count: u32,
    /// Cumulative busy time (execution + switch cost).
    busy: SimDur,
}

impl Cpu {
    fn new() -> Self {
        Cpu {
            running: None,
            last_pid: None,
            epoch: 0,
            seg_start: SimTime::ZERO,
            defer_count: 0,
            busy: SimDur::ZERO,
        }
    }
}

/// Aggregate per-application accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppStats {
    /// Sum of process useful work.
    pub work: SimDur,
    /// Sum of process spin time.
    pub spin: SimDur,
    /// Sum of cache-refill time.
    pub refill: SimDur,
    /// Total dispatches.
    pub dispatches: u64,
    /// Dispatches that paid a context switch.
    pub switches: u64,
    /// Involuntary preemptions.
    pub preemptions: u64,
    /// Sum of context-switch time charged to the application's processes.
    pub switch_time: SimDur,
    /// Sum of wall-clock time the application's processes spent suspended.
    pub suspended: SimDur,
}

/// Kernel-side bookkeeping for one application.
struct AppSlot {
    id: AppId,
    /// Runnable (running + ready) processes.
    runnable: u32,
    /// Live (non-exited) processes.
    live: u32,
    /// When the application's first process was spawned.
    start: SimTime,
    /// When its live count last reached zero.
    done: Option<SimTime>,
}

/// One [`AppSlot`] per distinct [`AppId`], in first-spawn order.
///
/// `AppId`s are caller-chosen and sparse, so the table is indexed by a slot
/// number interned once per spawn ([`AppTable::intern`]) and carried in the
/// process's `Pcb`; the event loop only ever indexes. Lookups by `AppId`
/// (the public queries) scan the slots — a handful of applications.
#[derive(Default)]
struct AppTable {
    slots: Vec<AppSlot>,
    /// Number of slots with `done` set, so [`AppTable::all_done`] can
    /// answer "no" without looking at any of them.
    finished: usize,
}

impl AppTable {
    fn find(&self, app: AppId) -> Option<&AppSlot> {
        self.slots.iter().find(|s| s.id == app)
    }

    /// Slot index of `app`, created (started `now`) on first sight.
    fn intern(&mut self, app: AppId, now: SimTime) -> u32 {
        let idx = self
            .slots
            .iter()
            .position(|s| s.id == app)
            .unwrap_or_else(|| {
                self.slots.push(AppSlot {
                    id: app,
                    runnable: 0,
                    live: 0,
                    start: now,
                    done: None,
                });
                self.slots.len() - 1
            });
        idx as u32
    }

    /// One process of the application in `slot` exited `now`; returns
    /// whether that was its last live one.
    fn exit(&mut self, slot: u32, now: SimTime) -> bool {
        let s = &mut self.slots[slot as usize];
        s.live -= 1;
        if s.live > 0 {
            return false;
        }
        // An application respawned after finishing keeps its old `done`
        // until it finishes again; it is counted once.
        if s.done.replace(now).is_none() {
            self.finished += 1;
        }
        true
    }

    /// Whether every listed application has finished. While fewer
    /// applications have finished than distinct ids are listed, the answer
    /// is "no" without looking at a slot: the harnesses' step loops ask
    /// this once per step, so it is inlined into them.
    #[inline]
    fn all_done(&self, apps: &[AppId]) -> bool {
        if self.finished == 0 {
            return apps.is_empty();
        }
        if self.finished < apps.len() {
            // Only a repeated id can let fewer finished applications
            // cover the list; counting repeats reads the list, not slots.
            let repeats = (1..apps.len())
                .filter(|&i| apps[..i].contains(&apps[i]))
                .count();
            if self.finished < apps.len() - repeats {
                return false;
            }
        }
        apps.iter()
            .all(|&a| self.find(a).is_some_and(|s| s.done.is_some()))
    }
}

struct KState {
    now: SimTime,
    cal: Calendar<KEvent>,
    procs: ProcTable,
    locks: LockTable,
    ports: PortTable,
    cache: CacheSim,
    cpus: Vec<Cpu>,
    /// `running[i]` mirrors `cpus[i].running` for cheap policy views.
    running: Vec<Option<Pid>>,
    /// Number of `None`s in `running`, maintained by `vacate`/`dispatch`.
    idle_cpus: usize,
    runnable_total: u32,
    apps: AppTable,
    live_procs: u32,
    tracer: Tracer<KTrace>,
    tick_armed: bool,
}

/// The simulated kernel.
pub struct Kernel {
    cfg: KernelConfig,
    policy: Box<dyn SchedPolicy>,
    st: KState,
    /// Each process's behavior, indexed by pid beside the process table
    /// (`None` once it exited): `deliver` steps it in place while the
    /// behavior reads `st`, instead of taking it out of the `Pcb` and
    /// putting it back on every event.
    behaviors: Vec<Option<Box<dyn Behavior>>>,
}

struct CtxView<'a> {
    st: &'a KState,
    pid: Pid,
    num_cpus: usize,
}

impl UserCtx for CtxView<'_> {
    fn now(&self) -> SimTime {
        self.st.now
    }

    fn my_pid(&self) -> Pid {
        self.pid
    }

    fn rpstat(&self) -> Vec<ProcStat> {
        self.st
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Exited)
            .map(|p| ProcStat {
                pid: p.pid,
                parent: p.parent,
                app: p.app,
                runnable: p.state.is_runnable(),
            })
            .collect()
    }

    fn num_cpus(&self) -> usize {
        self.num_cpus
    }
}

impl Kernel {
    /// Creates a kernel with the given configuration and scheduling policy.
    pub fn new(cfg: KernelConfig, policy: Box<dyn SchedPolicy>) -> Self {
        let ncpus = cfg.machine.num_cpus;
        let mut st = KState {
            now: SimTime::ZERO,
            cal: Calendar::new(),
            procs: ProcTable::new(),
            locks: LockTable::default(),
            ports: PortTable::default(),
            cache: CacheSim::new(cfg.machine.cache, ncpus),
            cpus: (0..ncpus).map(|_| Cpu::new()).collect(),
            running: vec![None; ncpus],
            idle_cpus: ncpus,
            runnable_total: 0,
            apps: AppTable::default(),
            live_procs: 0,
            tracer: Tracer::new(cfg.trace),
            tick_armed: false,
        };
        st.cal.schedule(st.now + cfg.tick, KEvent::Tick);
        st.tick_armed = true;
        Kernel {
            cfg,
            policy,
            st,
            behaviors: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Public API: setup.
    // ------------------------------------------------------------------

    /// Creates a user-level spinlock.
    pub fn create_lock(&mut self) -> LockId {
        self.st.locks.create()
    }

    /// Creates an IPC mailbox.
    pub fn create_port(&mut self) -> PortId {
        self.st.ports.create()
    }

    /// Spawns a root process for application `app`. The process becomes
    /// runnable immediately; its behavior is first stepped with
    /// [`Wakeup::Start`].
    pub fn spawn_root(&mut self, app: AppId, ws_lines: u64, behavior: Box<dyn Behavior>) -> Pid {
        let pid = self.spawn(None, app, ws_lines, behavior);
        self.finish_spawn(pid, app);
        pid
    }

    /// Creates the process and files its behavior under its pid.
    fn spawn(
        &mut self,
        parent: Option<Pid>,
        app: AppId,
        ws_lines: u64,
        behavior: Box<dyn Behavior>,
    ) -> Pid {
        let pid = self.st.procs.insert(parent, app, ws_lines);
        debug_assert_eq!(pid.0 as usize, self.behaviors.len());
        self.behaviors.push(Some(behavior));
        pid
    }

    fn finish_spawn(&mut self, pid: Pid, app: AppId) {
        let now = self.st.now;
        let slot = self.st.apps.intern(app, now);
        self.st.apps.slots[slot as usize].live += 1;
        self.st.live_procs += 1;
        self.st.tracer.emit(now, KTrace::Spawn { pid, app });
        self.note_runnable_change(slot, 1);
        let pcb = self.st.procs.get_mut(pid);
        pcb.app_slot = slot;
        pcb.ready_since = Some(now);
        self.policy_ready(pid, ReadyReason::New);
        self.deliver(pid, Wakeup::Start);
        if !self.st.tick_armed {
            let t = self.st.now + self.cfg.tick;
            self.st.cal.schedule(t, KEvent::Tick);
            self.st.tick_armed = true;
        }
        // A processor may be idle and able to take the new process right
        // away; do not wait for the next event to notice.
        self.reschedule();
    }

    // ------------------------------------------------------------------
    // Public API: running the simulation.
    // ------------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.st.now
    }

    /// Number of processors.
    pub fn num_cpus(&self) -> usize {
        self.st.cpus.len()
    }

    /// Processes one event. Returns false when the calendar is exhausted.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.st.cal.pop() else {
            return false;
        };
        debug_assert!(t >= self.st.now, "event from the past");
        self.st.now = t;
        self.handle(ev);
        // The common case after an event: no processor to fill, so no
        // call.
        if self.st.idle_cpus > 0 {
            self.reschedule();
        }
        true
    }

    /// Runs until every process has exited or simulated time exceeds
    /// `limit`. Returns true if all work completed within the limit.
    pub fn run_to_completion(&mut self, limit: SimTime) -> bool {
        while self.st.live_procs > 0 {
            if self.st.now > limit || !self.step() {
                return self.st.live_procs == 0;
            }
        }
        true
    }

    /// Whether every listed application has finished (all processes
    /// exited).
    #[inline]
    pub fn apps_done(&self, apps: &[AppId]) -> bool {
        self.st.apps.all_done(apps)
    }

    /// Runs until every listed application has finished or simulated time
    /// exceeds `limit`. Unlike [`Kernel::run_to_completion`] this tolerates
    /// immortal daemons (such as the process-control server). Returns true
    /// if the applications all finished within the limit.
    pub fn run_until_apps_done(&mut self, apps: &[AppId], limit: SimTime) -> bool {
        while !self.apps_done(apps) {
            if self.st.now > limit || !self.step() {
                return self.apps_done(apps);
            }
        }
        true
    }

    /// Runs until simulated time reaches exactly `until`; if the calendar
    /// runs dry earlier, idle time passes and the clock still advances.
    pub fn run_until(&mut self, until: SimTime) {
        while self.st.now < until {
            match self.st.cal.peek_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => {
                    self.st.now = until;
                    break;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Public API: queries.
    // ------------------------------------------------------------------

    /// Number of runnable (running + ready) processes in the system.
    pub fn runnable_count(&self) -> u32 {
        self.st.runnable_total
    }

    /// Number of runnable processes belonging to `app`.
    pub fn app_runnable(&self, app: AppId) -> u32 {
        self.st.apps.find(app).map_or(0, |s| s.runnable)
    }

    /// Number of live (non-exited) processes.
    pub fn live_procs(&self) -> u32 {
        self.st.live_procs
    }

    /// Time the application's first process was spawned, if any.
    pub fn app_start_time(&self, app: AppId) -> Option<SimTime> {
        self.st.apps.find(app).map(|s| s.start)
    }

    /// Time the application's last process exited, if it has finished.
    pub fn app_done_time(&self, app: AppId) -> Option<SimTime> {
        self.st.apps.find(app).and_then(|s| s.done)
    }

    /// Cumulative accounting for one process.
    pub fn proc_accounting(&self, pid: Pid) -> ProcAccounting {
        self.st.procs.get(pid).acct
    }

    /// Aggregate accounting over all processes of an application.
    pub fn app_stats(&self, app: AppId) -> AppStats {
        let mut s = AppStats::default();
        for p in self.st.procs.iter().filter(|p| p.app == app) {
            s.work += p.acct.work;
            s.spin += p.acct.spin;
            s.refill += p.acct.refill;
            s.dispatches += p.acct.dispatches;
            s.switches += p.acct.switches;
            s.preemptions += p.acct.preemptions;
            s.switch_time += p.acct.switch_time;
            s.suspended += p.acct.suspended;
        }
        s
    }

    /// Snapshots the cycle-accounting ledger: every processor-cycle from
    /// time 0 to now attributed to work / spin / refill / switch / idle,
    /// per process and per application, plus per-process suspended
    /// wall-clock time. Flushes in-progress occupancy segments first (which
    /// is safe: segment accounting is idempotent and completion events use
    /// absolute times), so the returned ledger satisfies the conservation
    /// invariant exactly — see [`CycleLedger::conserved`].
    pub fn cycle_ledger(&mut self) -> CycleLedger {
        for i in 0..self.st.cpus.len() {
            self.account_segment(i);
        }
        let now = self.st.now;
        let elapsed = now.since(SimTime::ZERO);
        // A dispatch still inside its context-switch window has charged the
        // full switch cost to the processor and the incoming process even
        // though part of it lies in the future; subtract that overshoot so
        // the snapshot is exact at `now`.
        let mut idle = SimDur::ZERO;
        let mut overshoot: BTreeMap<Pid, SimDur> = BTreeMap::new();
        for cpu in &self.st.cpus {
            let mut used = cpu.busy;
            if let Some(pid) = cpu.running {
                if cpu.seg_start > now {
                    let over = cpu.seg_start.since(now);
                    used -= over;
                    *overshoot.entry(pid).or_insert(SimDur::ZERO) += over;
                }
            }
            idle += elapsed - used;
        }
        let mut per_proc = BTreeMap::new();
        let mut per_app: BTreeMap<AppId, Cycles> = BTreeMap::new();
        let mut total = Cycles::default();
        for p in self.st.procs.iter() {
            let mut c = Cycles {
                work: p.acct.work,
                spin: p.acct.spin,
                refill: p.acct.refill,
                switch: p.acct.switch_time,
                suspended: p.acct.suspended,
            };
            if let Some(&over) = overshoot.get(&p.pid) {
                c.switch -= over;
            }
            // A process suspended right now has an open suspension span.
            if p.state == ProcState::SigWait {
                if let Some(since) = p.suspend_since {
                    c.suspended += now.saturating_since(since);
                }
            }
            per_app.entry(p.app).or_default().add(&c);
            total.add(&c);
            per_proc.insert(p.pid, c);
        }
        CycleLedger {
            elapsed,
            num_cpus: self.st.cpus.len(),
            total,
            idle,
            per_proc,
            per_app,
        }
    }

    /// Statistics for a lock.
    pub fn lock_stats(&self, lock: LockId) -> LockStats {
        self.st.locks.stats(lock)
    }

    /// Cumulative busy time of a processor.
    pub fn cpu_busy(&self, cpu: CpuId) -> SimDur {
        self.st.cpus[cpu.0].busy
    }

    /// Busy fraction of a processor over the run so far, in `[0, 1]`.
    /// Note that "busy" includes spinning and cache refill — occupancy,
    /// not useful work.
    pub fn cpu_utilization(&self, cpu: CpuId) -> f64 {
        let now = self.st.now.nanos();
        if now == 0 {
            return 0.0;
        }
        // Exclude the in-progress segment (it is accounted at its end).
        (self.st.cpus[cpu.0].busy.nanos() as f64 / now as f64).min(1.0)
    }

    /// Machine-wide mean busy fraction.
    pub fn mean_utilization(&self) -> f64 {
        let n = self.st.cpus.len();
        (0..n).map(|i| self.cpu_utilization(CpuId(i))).sum::<f64>() / n as f64
    }

    /// The retained scheduling trace.
    pub fn trace(&self) -> &Tracer<KTrace> {
        &self.st.tracer
    }

    /// The configured scheduling policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Live process snapshot (same data the in-sim `rpstat` query returns).
    pub fn rpstat(&self) -> Vec<ProcStat> {
        CtxView {
            st: &self.st,
            pid: Pid(u32::MAX),
            num_cpus: self.st.cpus.len(),
        }
        .rpstat()
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn policy_ready(&mut self, pid: Pid, reason: ReadyReason) {
        let view = PolicyView {
            procs: &self.st.procs,
            running: &self.st.running,
            now: self.st.now,
        };
        self.policy.on_ready(&view, pid, reason);
    }

    fn policy_remove(&mut self, pid: Pid) {
        let view = PolicyView {
            procs: &self.st.procs,
            running: &self.st.running,
            now: self.st.now,
        };
        self.policy.on_remove(&view, pid);
    }

    /// Adjusts runnable counters after a transition of one process of the
    /// application in `slot` and emits the trace record.
    fn note_runnable_change(&mut self, slot: u32, delta: i32) {
        let total = (self.st.runnable_total as i64 + delta as i64)
            .try_into()
            .expect("runnable count underflow");
        self.st.runnable_total = total;
        let s = &mut self.st.apps.slots[slot as usize];
        s.runnable = (s.runnable as i64 + delta as i64)
            .try_into()
            .expect("app runnable count underflow");
        let (app, app_count) = (s.id, s.runnable);
        let now = self.st.now;
        self.st.tracer.emit(
            now,
            KTrace::Runnable {
                app,
                app_count,
                total,
            },
        );
    }

    fn handle(&mut self, ev: KEvent) {
        match ev {
            KEvent::QuantumExpire { cpu, epoch } => self.on_quantum_expire(cpu, epoch),
            KEvent::OpComplete { pid, epoch } => self.on_op_complete(pid, epoch),
            KEvent::SleepDone { pid, epoch } => self.on_sleep_done(pid, epoch),
            KEvent::Tick => self.on_tick(),
        }
    }

    fn on_tick(&mut self) {
        {
            let view = PolicyView {
                procs: &self.st.procs,
                running: &self.st.running,
                now: self.st.now,
            };
            self.policy.on_tick(&view);
        }
        if self.st.live_procs > 0 {
            let t = self.st.now + self.cfg.tick;
            self.st.cal.schedule(t, KEvent::Tick);
        } else {
            self.st.tick_armed = false;
        }
    }

    /// Charges the current occupancy segment of `cpu` to its running
    /// process and resets the segment origin to now. Idempotent.
    fn account_segment(&mut self, cpu_idx: usize) {
        let now = self.st.now;
        let cpu = &mut self.st.cpus[cpu_idx];
        let Some(pid) = cpu.running else {
            return;
        };
        if now <= cpu.seg_start {
            return; // Still inside the context-switch window.
        }
        let elapsed = now.since(cpu.seg_start);
        cpu.seg_start = now;
        cpu.busy += elapsed;
        let pcb = self.st.procs.get_mut(pid);
        pcb.cpu_time += elapsed;
        match &mut pcb.op {
            Op::Service { left, .. } => {
                let useful = self.st.cache.run(CpuId(cpu_idx), pid.0 as u64, elapsed);
                let applied = useful.min(*left);
                *left -= applied;
                pcb.acct.work += applied;
                pcb.acct.refill += elapsed - applied;
            }
            Op::Spin { .. } => {
                pcb.acct.spin += elapsed;
            }
            Op::Idle => unreachable!("running process with no op"),
        }
    }

    fn on_quantum_expire(&mut self, cpu_idx: usize, epoch: u64) {
        if self.st.cpus[cpu_idx].epoch != epoch {
            return; // Stale: the processor has been re-dispatched since.
        }
        let pid = self.st.cpus[cpu_idx]
            .running
            .expect("quantum expiry on an idle processor");
        // May the policy defer this preemption (spinlock-flag hint)?
        let allow = {
            let view = PolicyView {
                procs: &self.st.procs,
                running: &self.st.running,
                now: self.st.now,
            };
            self.policy.allow_preempt(&view, pid)
        };
        if !allow && self.st.cpus[cpu_idx].defer_count < self.cfg.max_preempt_defer {
            self.st.cpus[cpu_idx].defer_count += 1;
            let grace = self.cfg.quantum / 10;
            let t = self.st.now + grace.max(SimDur::from_micros(100));
            self.st.cal.schedule(
                t,
                KEvent::QuantumExpire {
                    cpu: cpu_idx,
                    epoch,
                },
            );
            return;
        }
        self.account_segment(cpu_idx);
        self.st.tracer.emit(
            self.st.now,
            KTrace::Preempt {
                cpu: CpuId(cpu_idx),
                pid,
            },
        );
        if let Op::Spin { lock } = self.st.procs.get(pid).op {
            let holder = self.st.locks.get(lock).holder;
            self.st.tracer.emit(
                self.st.now,
                KTrace::PreemptWhileSpinning {
                    cpu: CpuId(cpu_idx),
                    pid,
                    lock,
                    holder,
                },
            );
        }
        // Vacate the processor and requeue the process.
        self.vacate(cpu_idx);
        let now = self.st.now;
        let pcb = self.st.procs.get_mut(pid);
        pcb.state = ProcState::Ready;
        pcb.ready_since = Some(now);
        pcb.acct.preemptions += 1;
        pcb.epoch += 1; // Invalidate any scheduled OpComplete.
        self.policy_ready(pid, ReadyReason::Preempted);
    }

    fn vacate(&mut self, cpu_idx: usize) {
        let cpu = &mut self.st.cpus[cpu_idx];
        debug_assert!(cpu.running.is_some(), "vacating an idle processor");
        cpu.running = None;
        cpu.epoch += 1;
        cpu.defer_count = 0;
        self.st.running[cpu_idx] = None;
        self.st.idle_cpus += 1;
    }

    fn on_sleep_done(&mut self, pid: Pid, epoch: u64) {
        let pcb = self.st.procs.get(pid);
        if pcb.epoch != epoch || pcb.state != ProcState::Sleeping {
            return;
        }
        self.wake(pid, Wakeup::Slept);
    }

    /// Moves a blocked process to Ready and delivers its wakeup.
    fn wake(&mut self, pid: Pid, wakeup: Wakeup) {
        let now = self.st.now;
        let slot = {
            let pcb = self.st.procs.get_mut(pid);
            debug_assert!(
                !pcb.state.is_runnable() && pcb.state != ProcState::Exited,
                "waking a non-blocked process {pid}"
            );
            if pcb.state == ProcState::SigWait {
                if let Some(since) = pcb.suspend_since.take() {
                    pcb.acct.suspended += now.saturating_since(since);
                }
            }
            pcb.state = ProcState::Ready;
            pcb.ready_since = Some(now);
            pcb.app_slot
        };
        self.note_runnable_change(slot, 1);
        self.policy_ready(pid, ReadyReason::Unblocked);
        self.deliver(pid, wakeup);
    }

    /// Steps the process's behavior with `wakeup` and installs the returned
    /// action as its next operation. If the process is running, the
    /// operation's completion is (re)scheduled.
    fn deliver(&mut self, pid: Pid, wakeup: Wakeup) {
        let behavior = self.behaviors[pid.0 as usize]
            .as_mut()
            .expect("deliver to a process whose behavior is present");
        let mut ctx = CtxView {
            st: &self.st,
            pid,
            num_cpus: self.st.cpus.len(),
        };
        let action = behavior.step(wakeup, &mut ctx);
        let costs = &self.cfg.costs;
        let (left, then) = match action {
            Action::Compute(d) => (d, Then::ComputeDone),
            Action::AcquireLock(l) => (costs.lock_acquire, Then::TryAcquire(l)),
            Action::ReleaseLock(l) => (costs.lock_release, Then::Release(l)),
            Action::Sleep(d) => (costs.sigwait, Then::DoSleep(d)),
            Action::WaitSignal => (costs.sigwait, Then::DoWaitSignal),
            Action::SendSignal(p) => (costs.signal, Then::DoSignal(p)),
            Action::Send(port, body) => (costs.ipc_send, Then::SendMsg(port, body)),
            Action::Recv(port) => (costs.ipc_recv, Then::RecvMsg(port)),
            Action::Poll(port) => (costs.ipc_recv, Then::PollMsg(port)),
            Action::Spawn(b, ws) => (costs.spawn, Then::DoSpawn(Some(b), ws)),
            Action::Yield => (costs.yield_, Then::DoYield),
            Action::Exit => (SimDur::from_micros(200), Then::DoExit),
        };
        let left = left.max(SimDur::from_nanos(1));
        let pcb = self.st.procs.get_mut(pid);
        pcb.op = Op::Service { left, then };
        pcb.epoch += 1;
        if let ProcState::Running(cpu) = pcb.state {
            self.schedule_completion(pid, cpu);
        }
    }

    /// Schedules the OpComplete event for a running process, accounting for
    /// any still-unpaid cache refill and a segment start possibly in the
    /// future (just after a context switch).
    fn schedule_completion(&mut self, pid: Pid, cpu: CpuId) {
        let pcb = self.st.procs.get(pid);
        let Op::Service { left, .. } = &pcb.op else {
            return; // Spinners have no completion.
        };
        let left = *left;
        let epoch = pcb.epoch;
        let seg_start = self.st.cpus[cpu.0].seg_start;
        let start = seg_start.max(self.st.now);
        let refill = self.st.cache.pending_refill(cpu, pid.0 as u64);
        let t = start + refill + left;
        self.st.cal.schedule(t, KEvent::OpComplete { pid, epoch });
    }

    fn on_op_complete(&mut self, pid: Pid, epoch: u64) {
        if self.st.procs.get(pid).epoch != epoch {
            return; // Stale: the op changed (preemption re-schedules).
        }
        let ProcState::Running(cpu) = self.st.procs.get(pid).state else {
            return; // Stale: no longer running.
        };
        self.account_segment(cpu.0);
        let pcb = self.st.procs.get_mut(pid);
        let then = match std::mem::replace(&mut pcb.op, Op::Idle) {
            Op::Service { left, then } => {
                debug_assert!(left.is_zero(), "completion fired early: {left} left");
                then
            }
            other => unreachable!("completion for non-service op {other:?}"),
        };
        self.apply_effect(pid, cpu, then);
    }

    fn apply_effect(&mut self, pid: Pid, cpu: CpuId, then: Then) {
        match then {
            Then::ComputeDone => self.deliver(pid, Wakeup::ComputeDone),
            Then::TryAcquire(lock) => {
                if self.st.locks.try_acquire(lock, pid, self.st.now) {
                    self.st.procs.get_mut(pid).locks_held += 1;
                    self.deliver(pid, Wakeup::LockAcquired(lock));
                } else {
                    let holder = self
                        .st
                        .locks
                        .get(lock)
                        .holder
                        .expect("contended lock has holder");
                    self.st.locks.enqueue_spinner(lock, pid);
                    let now = self.st.now;
                    self.st
                        .tracer
                        .emit(now, KTrace::SpinStart { pid, lock, holder });
                    let pcb = self.st.procs.get_mut(pid);
                    pcb.op = Op::Spin { lock };
                    pcb.epoch += 1;
                    pcb.spin_since = Some(now);
                    // No completion event: the spinner burns its processor
                    // until the lock is granted or the quantum expires.
                }
            }
            Then::Release(lock) => {
                self.st.locks.release(lock, pid);
                {
                    let pcb = self.st.procs.get_mut(pid);
                    debug_assert!(pcb.locks_held > 0);
                    pcb.locks_held -= 1;
                }
                // Grant to the longest-spinning *running* spinner (the
                // queue is in spin-start order); spinners that were
                // preempted re-test when next dispatched.
                let procs = &self.st.procs;
                let winner = self.st.locks.get(lock).spinners.iter().find_map(|&s| {
                    match procs.get(s).state {
                        ProcState::Running(cpu) => Some((s, cpu)),
                        _ => None,
                    }
                });
                if let Some((winner, wcpu)) = winner {
                    // Charge the winner's spin time up to this instant.
                    self.account_segment(wcpu.0);
                    self.st.locks.grant_to(lock, winner, self.st.now);
                    self.note_lock_handoff(lock, Some(pid), winner);
                    self.st.procs.get_mut(winner).locks_held += 1;
                    self.deliver(winner, Wakeup::LockAcquired(lock));
                }
                self.deliver(pid, Wakeup::LockReleased(lock));
            }
            Then::SendMsg(port, body) => {
                let msg = Message { from: pid, body };
                if let Some(waiter) = self.st.ports.post(port, msg) {
                    let m = self.st.ports.take(port).expect("just posted");
                    self.st.ports.unblock(port, waiter);
                    self.wake(waiter, Wakeup::Received(m));
                }
                self.deliver(pid, Wakeup::Sent);
            }
            Then::RecvMsg(port) => {
                if let Some(m) = self.st.ports.take(port) {
                    self.deliver(pid, Wakeup::Received(m));
                } else {
                    self.st.ports.block(port, pid);
                    self.block(pid, cpu, ProcState::RecvWait(port));
                }
            }
            Then::PollMsg(port) => {
                let m = self.st.ports.take(port);
                self.deliver(pid, Wakeup::Polled(m));
            }
            Then::DoSpawn(behavior, ws) => {
                let behavior = behavior.expect("spawn behavior present");
                let app = self.st.procs.get(pid).app;
                let child = self.spawn(Some(pid), app, ws, behavior);
                self.finish_spawn(child, app);
                self.deliver(pid, Wakeup::Spawned(child));
            }
            Then::DoWaitSignal => {
                let pcb = self.st.procs.get_mut(pid);
                if pcb.pending_signal {
                    pcb.pending_signal = false;
                    self.deliver(pid, Wakeup::Resumed);
                } else {
                    self.block(pid, cpu, ProcState::SigWait);
                }
            }
            Then::DoSignal(target) => {
                let tstate = self.st.procs.get(target).state;
                match tstate {
                    ProcState::SigWait => self.wake(target, Wakeup::Resumed),
                    ProcState::Exited => {}
                    _ => self.st.procs.get_mut(target).pending_signal = true,
                }
                self.deliver(pid, Wakeup::SignalSent);
            }
            Then::DoSleep(d) => {
                self.block(pid, cpu, ProcState::Sleeping);
                let epoch = self.st.procs.get(pid).epoch;
                let t = self.st.now + d;
                self.st.cal.schedule(t, KEvent::SleepDone { pid, epoch });
            }
            Then::DoYield => {
                self.vacate(cpu.0);
                let now = self.st.now;
                let pcb = self.st.procs.get_mut(pid);
                pcb.state = ProcState::Ready;
                pcb.ready_since = Some(now);
                pcb.epoch += 1;
                self.policy_ready(pid, ReadyReason::Yielded);
                self.deliver(pid, Wakeup::Yielded);
            }
            Then::DoExit => self.do_exit(pid, cpu),
        }
    }

    /// Records a lock grant to a spinner and its hand-off latency.
    fn note_lock_handoff(&mut self, lock: LockId, from: Option<Pid>, to: Pid) {
        let now = self.st.now;
        let waited = self
            .st
            .procs
            .get_mut(to)
            .spin_since
            .take()
            .map_or(SimDur::ZERO, |since| now.saturating_since(since));
        self.st.tracer.emit(
            now,
            KTrace::LockHandoff {
                lock,
                from,
                to,
                waited,
            },
        );
    }

    /// Blocks a running process: vacates its processor and sets the state.
    fn block(&mut self, pid: Pid, cpu: CpuId, state: ProcState) {
        debug_assert!(!state.is_runnable() && state != ProcState::Exited);
        self.vacate(cpu.0);
        let now = self.st.now;
        let slot = {
            let pcb = self.st.procs.get_mut(pid);
            debug_assert_eq!(pcb.state, ProcState::Running(cpu));
            debug_assert_eq!(
                pcb.locks_held, 0,
                "{pid} blocked while holding a spinlock — unsafe suspension point"
            );
            pcb.state = state;
            pcb.epoch += 1;
            if state == ProcState::SigWait {
                pcb.suspend_since = Some(now);
            }
            pcb.app_slot
        };
        self.note_runnable_change(slot, -1);
    }

    fn do_exit(&mut self, pid: Pid, cpu: CpuId) {
        self.vacate(cpu.0);
        // Defensive: a process cannot normally exit while spinning, but if
        // it somehow does, leave no dangling spinner-queue entry behind.
        if let Op::Spin { lock } = self.st.procs.get(pid).op {
            self.st.locks.remove_spinner(lock, pid);
        }
        let slot = {
            let pcb = self.st.procs.get_mut(pid);
            debug_assert_eq!(pcb.locks_held, 0, "{pid} exited while holding a spinlock");
            pcb.state = ProcState::Exited;
            pcb.epoch += 1;
            pcb.app_slot
        };
        self.behaviors[pid.0 as usize] = None;
        self.note_runnable_change(slot, -1);
        self.policy_remove(pid);
        self.st.cache.forget(pid.0 as u64);
        self.st.live_procs -= 1;
        let now = self.st.now;
        let app = self.st.apps.slots[slot as usize].id;
        let app_done = self.st.apps.exit(slot, now);
        self.st.tracer.emit(now, KTrace::Exit { pid, app });
        if app_done {
            self.st.tracer.emit(now, KTrace::AppDone { app });
        }
    }

    /// Fills idle processors from the policy.
    fn reschedule(&mut self) {
        debug_assert_eq!(
            self.st.idle_cpus,
            self.st.running.iter().filter(|r| r.is_none()).count()
        );
        for cpu_idx in 0..self.st.cpus.len() {
            if self.st.idle_cpus == 0 {
                return; // Every processor is busy: nothing left to fill.
            }
            if self.st.cpus[cpu_idx].running.is_some() {
                continue;
            }
            let picked = {
                let view = PolicyView {
                    procs: &self.st.procs,
                    running: &self.st.running,
                    now: self.st.now,
                };
                self.policy.pick(&view, CpuId(cpu_idx))
            };
            if let Some(pid) = picked {
                self.dispatch(cpu_idx, pid);
            }
        }
    }

    fn dispatch(&mut self, cpu_idx: usize, pid: Pid) {
        let now = self.st.now;
        let cpu_id = CpuId(cpu_idx);
        debug_assert!(self.st.cpus[cpu_idx].running.is_none());
        debug_assert_eq!(self.st.procs.get(pid).state, ProcState::Ready);

        let switched = self.st.cpus[cpu_idx].last_pid != Some(pid);
        let switch_cost = if switched {
            self.cfg.machine.context_switch_cost
        } else {
            SimDur::ZERO
        };

        // Ready-wait accounting.
        {
            let pcb = self.st.procs.get_mut(pid);
            if let Some(since) = pcb.ready_since.take() {
                pcb.acct.ready_wait += now.saturating_since(since);
            }
            pcb.state = ProcState::Running(cpu_id);
            pcb.last_cpu = Some(cpu_id);
            pcb.acct.dispatches += 1;
            if switched {
                pcb.acct.switches += 1;
                pcb.acct.switch_time += switch_cost;
            }
        }

        // Cache reload penalty for this dispatch.
        let ncpus = self.st.cpus.len();
        self.st.idle_cpus -= 1;
        let busy = ncpus - self.st.idle_cpus; // This processor included.
        let mult = self.cfg.machine.bus.contention_multiplier(busy, ncpus);
        let ws = self.st.procs.get(pid).ws_lines;
        self.st.cache.dispatch(cpu_id, pid.0 as u64, ws, mult);

        {
            let cpu = &mut self.st.cpus[cpu_idx];
            cpu.running = Some(pid);
            cpu.last_pid = Some(pid);
            cpu.epoch += 1;
            cpu.seg_start = now + switch_cost;
            cpu.busy += switch_cost;
            cpu.defer_count = 0;
        }
        self.st.running[cpu_idx] = Some(pid);
        self.st.tracer.emit(
            now,
            KTrace::Dispatch {
                cpu: cpu_id,
                pid,
                switched,
            },
        );

        // Quantum.
        let quantum = {
            let view = PolicyView {
                procs: &self.st.procs,
                running: &self.st.running,
                now: self.st.now,
            };
            self.policy.quantum(&view, cpu_id, pid, self.cfg.quantum)
        };
        let epoch = self.st.cpus[cpu_idx].epoch;
        let qt = now + switch_cost + quantum.max(SimDur::from_nanos(1));
        self.st.cal.schedule(
            qt,
            KEvent::QuantumExpire {
                cpu: cpu_idx,
                epoch,
            },
        );

        // Operation (re)scheduling.
        match &self.st.procs.get(pid).op {
            Op::Service { .. } => {
                let pcb = self.st.procs.get_mut(pid);
                pcb.epoch += 1;
                self.schedule_completion(pid, cpu_id);
            }
            Op::Spin { lock } => {
                let lock = *lock;
                // Re-test the lock at dispatch: it may have been released
                // while this spinner was preempted.
                if self.st.locks.get(lock).holder.is_none() {
                    self.st.locks.grant_to(lock, pid, now);
                    self.note_lock_handoff(lock, None, pid);
                    self.st.procs.get_mut(pid).locks_held += 1;
                    self.deliver(pid, Wakeup::LockAcquired(lock));
                }
                // Otherwise: keep spinning on this processor.
            }
            Op::Idle => unreachable!("dispatching a process with no op"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AppId = AppId(7);
    const B: AppId = AppId(3);
    const UNKNOWN: AppId = AppId(99);

    /// A and B with one live process each, started at 0.
    fn table() -> AppTable {
        let mut t = AppTable::default();
        for app in [A, B] {
            let slot = t.intern(app, SimTime::ZERO);
            t.slots[slot as usize].live += 1;
        }
        t
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDur::from_millis(ms)
    }

    /// The answer by looking up every listed id.
    fn by_lookup(t: &AppTable, apps: &[AppId]) -> bool {
        apps.iter()
            .all(|&a| t.find(a).is_some_and(|s| s.done.is_some()))
    }

    /// Every list of up to three ids over A, B and an unknown id.
    fn lists() -> Vec<Vec<AppId>> {
        let ids = [A, B, UNKNOWN];
        let mut out = vec![vec![]];
        for len in 1..=3 {
            for n in 0..3usize.pow(len) {
                out.push((0..len).map(|d| ids[n / 3usize.pow(d) % 3]).collect());
            }
        }
        out
    }

    #[test]
    fn all_done_answers_as_a_lookup_of_every_id_does() {
        let mut t = table();
        for l in lists() {
            assert_eq!(t.all_done(&l), l.is_empty(), "none finished: {l:?}");
        }
        assert!(t.exit(0, at(5)), "A's only process exited");
        for l in lists() {
            assert_eq!(t.all_done(&l), by_lookup(&t, &l), "A finished: {l:?}");
        }
        // The cases the count alone would get wrong, spelled out.
        assert!(
            t.all_done(&[A, A]),
            "one finished application, listed twice"
        );
        assert!(!t.all_done(&[A, UNKNOWN]), "an unknown id never finishes");
        assert!(t.exit(1, at(9)));
        for l in lists() {
            assert_eq!(t.all_done(&l), by_lookup(&t, &l), "both finished: {l:?}");
        }
    }

    #[test]
    fn a_respawned_application_keeps_its_done_time_and_is_counted_once() {
        let mut t = table();
        assert!(t.exit(0, at(5)));
        // A spawns again after it finished.
        assert_eq!(t.intern(A, at(6)), 0);
        t.slots[0].live += 1;
        assert!(
            t.all_done(&[A]),
            "A keeps its old done time while it runs again"
        );
        assert!(t.exit(0, at(8)));
        assert_eq!(t.finished, 1, "A is counted once");
        assert_eq!(
            t.slots[0].done,
            Some(at(8)),
            "done moves to the last finish"
        );
        assert_eq!(t.slots[0].start, SimTime::ZERO);
        assert!(!t.all_done(&[A, B]));
        assert!(t.exit(1, at(9)));
        assert_eq!(t.finished, 2);
        assert!(t.all_done(&[B, A]));
    }

    #[test]
    fn run_until_apps_done_stops_where_it_did() {
        use crate::action::Script;
        use crate::policy::FifoRoundRobin;

        let mut k = Kernel::new(
            KernelConfig::multimax().with_cpus(2),
            Box::new(FifoRoundRobin::new()),
        );
        let compute = |ms| Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(ms))]));
        k.spawn_root(A, 64, compute(5));
        k.spawn_root(B, 64, compute(50));
        // A repeated id stops the loop as soon as that one application
        // finishes; B is still running.
        assert!(k.run_until_apps_done(&[A, A], at(1_000)));
        assert_eq!(k.now(), k.app_done_time(A).expect("A finished"));
        assert_eq!(k.app_done_time(B), None);
        // An unknown id never finishes: the loop runs until the calendar
        // is dry, after B's exit.
        assert!(!k.run_until_apps_done(&[B, UNKNOWN], at(1_000)));
        assert!(k.app_done_time(B).is_some());
        assert_eq!(k.live_procs(), 0);
        assert!(k.run_to_completion(at(2_000)));
    }
}
