//! Process-group scheduling, after Edler et al. (NYU Ultracomputer).
//!
//! Processes form groups (here: one group per application) with a
//! per-group scheduling mode:
//!
//! - [`GroupMode::Normal`] — members are scheduled and preempted normally;
//! - [`GroupMode::Gang`] — members are scheduled and preempted together,
//!   as in coscheduling;
//! - [`GroupMode::NoPreempt`] — members are never (well, boundedly never)
//!   preempted.
//!
//! Additionally, as in the Ultracomputer proposal, any individual process
//! holding a spinlock avoids preemption regardless of its group mode —
//! that is the "individual process can prevent its own preemption" facility
//! used to implement spinlock flags.

use std::collections::{HashMap, VecDeque};

use desim::{SimDur, SimTime};
use machine::CpuId;

use crate::ids::{AppId, Pid};
use crate::policy::{PolicyView, ReadyReason, SchedPolicy};

/// Scheduling mode of a process group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GroupMode {
    /// Ordinary time-slicing.
    #[default]
    Normal,
    /// Schedule and preempt all members together.
    Gang,
    /// Never preempt members at quantum expiry.
    NoPreempt,
}

/// Edler-style group scheduling, one group per application.
#[derive(Debug)]
pub struct GroupPolicy {
    modes: HashMap<AppId, GroupMode>,
    default_mode: GroupMode,
    /// Rotation order of gang-mode applications.
    gang_apps: Vec<AppId>,
    gang_queues: HashMap<AppId, VecDeque<Pid>>,
    normal_queue: VecDeque<Pid>,
    slice: SimDur,
    queued: usize,
}

impl GroupPolicy {
    /// Creates the policy. `slice` is the gang rotation slice; `modes` maps
    /// applications to group modes; unlisted applications get
    /// `default_mode`.
    pub fn new(slice: SimDur, modes: HashMap<AppId, GroupMode>, default_mode: GroupMode) -> Self {
        assert!(!slice.is_zero(), "slice must be positive");
        GroupPolicy {
            modes,
            default_mode,
            gang_apps: Vec::new(),
            gang_queues: HashMap::new(),
            normal_queue: VecDeque::new(),
            slice,
            queued: 0,
        }
    }

    fn mode_of(&self, app: AppId) -> GroupMode {
        self.modes.get(&app).copied().unwrap_or(self.default_mode)
    }

    fn gang_index(&self, now: SimTime) -> usize {
        if self.gang_apps.is_empty() {
            return 0;
        }
        ((now.nanos() / self.slice.nanos()) % self.gang_apps.len() as u64) as usize
    }
}

impl SchedPolicy for GroupPolicy {
    fn name(&self) -> &'static str {
        "edler-groups"
    }

    fn on_ready(&mut self, view: &PolicyView<'_>, pid: Pid, _reason: ReadyReason) {
        let app = view.app(pid);
        match self.mode_of(app) {
            GroupMode::Gang => {
                if !self.gang_apps.contains(&app) {
                    self.gang_apps.push(app);
                }
                self.gang_queues.entry(app).or_default().push_back(pid);
            }
            GroupMode::Normal | GroupMode::NoPreempt => {
                debug_assert!(!self.normal_queue.contains(&pid));
                self.normal_queue.push_back(pid);
            }
        }
        self.queued += 1;
    }

    fn on_remove(&mut self, view: &PolicyView<'_>, pid: Pid) {
        let app = view.app(pid);
        let before = self.normal_queue.len()
            + self
                .gang_queues
                .get(&app)
                .map_or(0, std::collections::VecDeque::len);
        self.normal_queue.retain(|&p| p != pid);
        if let Some(q) = self.gang_queues.get_mut(&app) {
            q.retain(|&p| p != pid);
        }
        let after = self.normal_queue.len()
            + self
                .gang_queues
                .get(&app)
                .map_or(0, std::collections::VecDeque::len);
        self.queued -= before - after;
    }

    fn pick(&mut self, view: &PolicyView<'_>, _cpu: CpuId) -> Option<Pid> {
        // The gang whose slice this is has first claim; other gangs fill
        // fragments after normal processes.
        if !self.gang_apps.is_empty() {
            let cur = self.gang_apps[self.gang_index(view.now)];
            if let Some(pid) = self.gang_queues.get_mut(&cur).and_then(VecDeque::pop_front) {
                self.queued -= 1;
                return Some(pid);
            }
        }
        if let Some(pid) = self.normal_queue.pop_front() {
            self.queued -= 1;
            return Some(pid);
        }
        let start = self.gang_index(view.now);
        let n = self.gang_apps.len();
        for i in 1..n {
            let app = self.gang_apps[(start + i) % n];
            if let Some(pid) = self.gang_queues.get_mut(&app).and_then(VecDeque::pop_front) {
                self.queued -= 1;
                return Some(pid);
            }
        }
        None
    }

    fn quantum(&mut self, view: &PolicyView<'_>, _cpu: CpuId, pid: Pid, default: SimDur) -> SimDur {
        if self.mode_of(view.app(pid)) == GroupMode::Gang && !self.gang_apps.is_empty() {
            let s = self.slice.nanos();
            SimDur(s - view.now.nanos() % s)
        } else {
            default
        }
    }

    fn allow_preempt(&mut self, view: &PolicyView<'_>, pid: Pid) -> bool {
        // Group mode, plus the individual spinlock-flag facility.
        self.mode_of(view.app(pid)) != GroupMode::NoPreempt && !view.holds_lock(pid)
    }

    fn queue_len(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcb::ProcTable;

    fn table() -> ProcTable {
        let mut t = ProcTable::new();
        // app0: pids 0,1 (gang); app1: pids 2,3 (normal).
        for a in 0..2u32 {
            for _ in 0..2 {
                t.insert(None, AppId(a), 1);
            }
        }
        t
    }

    fn policy() -> GroupPolicy {
        let mut modes = HashMap::new();
        modes.insert(AppId(0), GroupMode::Gang);
        GroupPolicy::new(SimDur::from_millis(100), modes, GroupMode::Normal)
    }

    #[test]
    fn gang_has_first_claim_in_its_slice() {
        let procs = table();
        let running: [Option<Pid>; 4] = [None; 4];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = policy();
        for i in 0..4 {
            p.on_ready(&v, Pid(i), ReadyReason::New);
        }
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(0)));
        assert_eq!(p.pick(&v, CpuId(1)), Some(Pid(1)));
        // Gang drained: normal processes fill.
        assert_eq!(p.pick(&v, CpuId(2)), Some(Pid(2)));
        assert_eq!(p.pick(&v, CpuId(3)), Some(Pid(3)));
        assert_eq!(p.queue_len(), 0);
    }

    #[test]
    fn gang_quantum_ends_at_boundary() {
        let procs = table();
        let running: [Option<Pid>; 1] = [None];
        let now = SimTime::ZERO + SimDur::from_millis(40);
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now,
        };
        let mut p = policy();
        // Register the gang application so the rotation exists.
        p.on_ready(&v, Pid(0), ReadyReason::New);
        let q = p.quantum(&v, CpuId(0), Pid(0), SimDur::from_millis(100));
        assert_eq!(q, SimDur::from_millis(60));
        // Normal member keeps the default quantum.
        let q = p.quantum(&v, CpuId(0), Pid(2), SimDur::from_millis(100));
        assert_eq!(q, SimDur::from_millis(100));
    }
}
