//! Space partitioning — the paper's Section 7 proposal.
//!
//! Processors are dynamically partitioned into *processor groups*, normally
//! one per application, each with its own run queue. A high-level policy
//! module decides how many processors each group gets (here: equal shares,
//! recomputed on every tick and whenever the application population
//! changes), and low-level scheduling within a group is ordinary
//! round-robin. Processes of one application therefore never share a
//! processor with another application's processes, which both prevents
//! uncontrolled applications from hogging the machine and keeps caches
//! warm.

use std::collections::{HashMap, VecDeque};

use machine::CpuId;

use crate::ids::{AppId, Pid};
use crate::policy::{PolicyView, ReadyReason, SchedPolicy};

/// Dynamic equal-share processor partitioning with per-group run queues.
#[derive(Debug, Default)]
pub struct SpacePartition {
    /// Applications in arrival order (stable partition assignment).
    apps: Vec<AppId>,
    /// Per-application run queue.
    queues: HashMap<AppId, VecDeque<Pid>>,
    /// Which application each processor currently serves. Recomputed when
    /// the application population changes.
    cpu_app: Vec<Option<AppId>>,
    queued: usize,
}

impl SpacePartition {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applications that still have processes (queued or running).
    fn live_apps(&self, view: &PolicyView<'_>) -> Vec<AppId> {
        let mut live: Vec<AppId> = Vec::new();
        for app in &self.apps {
            let queued = self.queues.get(app).is_some_and(|q| !q.is_empty());
            let running = view
                .running()
                .iter()
                .flatten()
                .any(|&p| view.app(p) == *app);
            if queued || running {
                live.push(*app);
            }
        }
        live
    }

    /// Recomputes the processor → application assignment: contiguous equal
    /// shares, remainder to the earliest-arrived applications; if there are
    /// more applications than processors, the overflow applications share
    /// the last processor round-robin (handled in `pick` by falling back to
    /// any queue for unassigned/starved processors).
    fn rebalance(&mut self, view: &PolicyView<'_>) {
        let ncpus = view.num_cpus();
        self.cpu_app = vec![None; ncpus];
        let live = self.live_apps(view);
        if live.is_empty() {
            return;
        }
        let share = ncpus / live.len();
        let extra = ncpus % live.len();
        let mut cpu = 0usize;
        for (i, app) in live.iter().enumerate() {
            let mut n = share + usize::from(i < extra);
            // With more applications than processors some get zero; they
            // are served by the fallback path in `pick`.
            while n > 0 && cpu < ncpus {
                self.cpu_app[cpu] = Some(*app);
                cpu += 1;
                n -= 1;
            }
        }
    }
}

impl SchedPolicy for SpacePartition {
    fn name(&self) -> &'static str {
        "space-partition"
    }

    fn on_ready(&mut self, view: &PolicyView<'_>, pid: Pid, _reason: ReadyReason) {
        let app = view.app(pid);
        let is_new = !self.apps.contains(&app);
        if is_new {
            self.apps.push(app);
        }
        let q = self.queues.entry(app).or_default();
        debug_assert!(!q.contains(&pid), "{pid} enqueued twice");
        q.push_back(pid);
        self.queued += 1;
        if is_new {
            self.rebalance(view);
        }
    }

    fn on_remove(&mut self, view: &PolicyView<'_>, pid: Pid) {
        let app = view.app(pid);
        if let Some(q) = self.queues.get_mut(&app) {
            let before = q.len();
            q.retain(|&p| p != pid);
            self.queued -= before - q.len();
        }
    }

    fn pick(&mut self, view: &PolicyView<'_>, cpu: CpuId) -> Option<Pid> {
        if self.cpu_app.len() != view.num_cpus() {
            self.rebalance(view);
        }
        if let Some(app) = self.cpu_app.get(cpu.0).copied().flatten() {
            if let Some(pid) = self.queues.get_mut(&app).and_then(VecDeque::pop_front) {
                self.queued -= 1;
                return Some(pid);
            }
        }
        // Overflow service: when there are more applications than
        // processors, some applications have no dedicated processor —
        // "multiple applications may have to be assigned to the same
        // processor group". Any processor whose own group queue is drained
        // serves the longest overflow queue. Applications that *do* own
        // processors are never poached (isolation property).
        let app = self
            .apps
            .iter()
            .filter(|a| !self.cpu_app.contains(&Some(**a)))
            .max_by_key(|a| self.queues.get(a).map_or(0, VecDeque::len))
            .copied();
        if let Some(app) = app {
            if let Some(pid) = self.queues.get_mut(&app).and_then(VecDeque::pop_front) {
                self.queued -= 1;
                return Some(pid);
            }
        }
        None
    }

    fn on_tick(&mut self, view: &PolicyView<'_>) {
        self.rebalance(view);
    }

    fn queue_len(&self) -> usize {
        self.queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcb::ProcTable;
    use desim::SimTime;

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
    fn processors_split_equally() {
        let procs = table(2, 4); // app0: 0..4, app1: 4..8
        let running: [Option<Pid>; 4] = [None; 4];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = SpacePartition::new();
        for i in 0..8 {
            p.on_ready(&v, Pid(i), ReadyReason::New);
        }
        // cpus 0-1 serve app0, cpus 2-3 serve app1.
        assert_eq!(v.app(p.pick(&v, CpuId(0)).unwrap()), AppId(0));
        assert_eq!(v.app(p.pick(&v, CpuId(1)).unwrap()), AppId(0));
        assert_eq!(v.app(p.pick(&v, CpuId(2)).unwrap()), AppId(1));
        assert_eq!(v.app(p.pick(&v, CpuId(3)).unwrap()), AppId(1));
    }

    #[test]
    fn idle_partition_does_not_steal() {
        let procs = table(2, 1);
        let running: [Option<Pid>; 4] = [None; 4];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = SpacePartition::new();
        p.on_ready(&v, Pid(0), ReadyReason::New); // app0
        p.on_ready(&v, Pid(1), ReadyReason::New); // app1
                                                  // cpu0/1 belong to app0; after app0's only process is taken, cpu1
                                                  // idles rather than poaching app1's process (isolation property).
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(0)));
        assert_eq!(p.pick(&v, CpuId(1)), None);
        assert_eq!(p.pick(&v, CpuId(2)), Some(Pid(1)));
    }

    #[test]
    fn more_apps_than_cpus_still_served() {
        let procs = table(3, 1);
        let running: [Option<Pid>; 2] = [None; 2];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = SpacePartition::new();
        for i in 0..3 {
            p.on_ready(&v, Pid(i), ReadyReason::New);
        }
        // Three apps, two cpus: everyone eventually gets picked.
        let mut got = Vec::new();
        for _ in 0..3 {
            for cpu in [CpuId(0), CpuId(1)] {
                if let Some(pid) = p.pick(&v, cpu) {
                    got.push(pid);
                }
            }
        }
        got.sort();
        assert_eq!(got, vec![Pid(0), Pid(1), Pid(2)]);
    }
}
