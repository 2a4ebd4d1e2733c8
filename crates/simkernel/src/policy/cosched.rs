//! Coscheduling (gang scheduling), after Ousterhout's Medusa scheduler.
//!
//! All runnable processes of one application run together for a slice; at
//! the slice boundary the whole gang is preempted and the next application's
//! gang runs. We implement the practical variant that *fills fragments*:
//! when the current gang is smaller than the machine, leftover processors
//! take processes from subsequent gangs in rotation order (this corresponds
//! to Ousterhout's matrix packing).
//!
//! As the paper notes, coscheduling fixes busy-wait waste (degradation
//! mechanisms #1 and #2) but not context-switch overhead or cache corruption
//! (#3 and #4): every boundary still switches every processor.

use std::collections::{HashMap, VecDeque};

use desim::{SimDur, SimTime};
use machine::CpuId;

use crate::ids::{AppId, Pid};
use crate::policy::{PolicyView, ReadyReason, SchedPolicy};

/// Gang scheduling with fragment filling.
#[derive(Debug)]
pub struct Coscheduling {
    /// Rotation order (first-seen order of applications).
    apps: Vec<AppId>,
    /// Per-application FIFO of runnable, unscheduled processes.
    queues: HashMap<AppId, VecDeque<Pid>>,
    /// Gang slice length (one slice per application per rotation).
    slice: SimDur,
    queued: usize,
}

impl Coscheduling {
    /// Creates the policy with the given gang slice length (typically the
    /// kernel quantum).
    pub fn new(slice: SimDur) -> Self {
        assert!(!slice.is_zero(), "slice must be positive");
        Coscheduling {
            apps: Vec::new(),
            queues: HashMap::new(),
            slice,
            queued: 0,
        }
    }

    /// Index into the rotation for the slice containing `now`.
    fn rotation_index(&self, now: SimTime) -> usize {
        if self.apps.is_empty() {
            return 0;
        }
        ((now.nanos() / self.slice.nanos()) % self.apps.len() as u64) as usize
    }

    /// Time remaining until the next global slice boundary.
    fn until_boundary(&self, now: SimTime) -> SimDur {
        let s = self.slice.nanos();
        let rem = s - now.nanos() % s;
        SimDur(rem)
    }
}

impl SchedPolicy for Coscheduling {
    fn name(&self) -> &'static str {
        "coscheduling"
    }

    fn on_ready(&mut self, view: &PolicyView<'_>, pid: Pid, _reason: ReadyReason) {
        let app = view.app(pid);
        if !self.apps.contains(&app) {
            self.apps.push(app);
        }
        let q = self.queues.entry(app).or_default();
        debug_assert!(!q.contains(&pid), "{pid} enqueued twice");
        q.push_back(pid);
        self.queued += 1;
    }

    fn on_remove(&mut self, view: &PolicyView<'_>, pid: Pid) {
        let app = view.app(pid);
        if let Some(q) = self.queues.get_mut(&app) {
            let before = q.len();
            q.retain(|&p| p != pid);
            self.queued -= before - q.len();
        }
    }

    fn pick(&mut self, view: &PolicyView<'_>, _cpu: CpuId) -> Option<Pid> {
        if self.apps.is_empty() {
            return None;
        }
        // Current gang first, then later gangs in rotation order to fill
        // leftover processors.
        let start = self.rotation_index(view.now);
        let n = self.apps.len();
        for i in 0..n {
            let app = self.apps[(start + i) % n];
            if let Some(q) = self.queues.get_mut(&app) {
                if let Some(pid) = q.pop_front() {
                    self.queued -= 1;
                    return Some(pid);
                }
            }
        }
        None
    }

    fn quantum(
        &mut self,
        view: &PolicyView<'_>,
        _cpu: CpuId,
        _pid: Pid,
        _default: SimDur,
    ) -> SimDur {
        // Everyone's quantum ends at the global boundary, so the whole gang
        // is preempted simultaneously and the next gang starts together.
        self.until_boundary(view.now)
    }

    fn queue_len(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcb::ProcTable;

    /// Builds a ProcTable with `napps` apps of `per` processes each.
    fn table(napps: u32, per: u32) -> ProcTable {
        let mut t = ProcTable::new();
        for a in 0..napps {
            for _ in 0..per {
                t.insert(None, AppId(a), 1);
            }
        }
        t
    }

    #[test]
    fn picks_current_gang_first() {
        let procs = table(2, 2); // app0: pid0,1; app1: pid2,3
        let running: [Option<Pid>; 4] = [None, None, None, None];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = Coscheduling::new(SimDur::from_millis(100));
        for i in 0..4 {
            p.on_ready(&v, Pid(i), ReadyReason::New);
        }
        // At t=0 the rotation points at app0.
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(0)));
        assert_eq!(p.pick(&v, CpuId(1)), Some(Pid(1)));
        // Fragment filling: leftover processors take app1's processes.
        assert_eq!(p.pick(&v, CpuId(2)), Some(Pid(2)));
    }

    #[test]
    fn rotation_advances_with_time() {
        let procs = table(2, 1); // app0: pid0; app1: pid1
        let running: [Option<Pid>; 1] = [None];
        let t1 = SimTime::ZERO + SimDur::from_millis(100);
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: t1,
        };
        let mut p = Coscheduling::new(SimDur::from_millis(100));
        p.on_ready(&v, Pid(0), ReadyReason::New);
        p.on_ready(&v, Pid(1), ReadyReason::New);
        // Second slice: app1's turn.
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(1)));
    }

    #[test]
    fn quantum_ends_at_boundary() {
        let procs = table(1, 1);
        let running: [Option<Pid>; 1] = [None];
        let now = SimTime::ZERO + SimDur::from_millis(30);
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now,
        };
        let mut p = Coscheduling::new(SimDur::from_millis(100));
        p.on_ready(&v, Pid(0), ReadyReason::New);
        let q = p.quantum(&v, CpuId(0), Pid(0), SimDur::from_millis(100));
        assert_eq!(q, SimDur::from_millis(70));
    }
}
