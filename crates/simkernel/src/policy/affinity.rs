//! Cache-affinity scheduling, after Squillante & Lazowska.
//!
//! A process should run on the processor whose cache still holds its
//! working set — i.e. the one it last ran on. Followed strictly this causes
//! load imbalance (processes cannot migrate from busy to idle processors),
//! so the practical variant lets a process migrate after it has waited in
//! the queue longer than a threshold. `migrate_after = 0` degenerates to
//! plain FIFO; a very large value approximates strict affinity.

use desim::{SimDur, SimTime};
use machine::CpuId;

use crate::ids::Pid;
use crate::policy::{PolicyView, ReadyReason, SchedPolicy};

/// Affinity scheduling with a migration threshold.
#[derive(Debug)]
pub struct Affinity {
    /// Queue entries with the time they became ready.
    queue: Vec<(Pid, SimTime)>,
    /// How long a process may wait before it is allowed to run on a
    /// non-affine processor.
    migrate_after: SimDur,
}

impl Affinity {
    /// Creates the policy with the given migration threshold.
    pub fn new(migrate_after: SimDur) -> Self {
        Affinity {
            queue: Vec::new(),
            migrate_after,
        }
    }
}

impl SchedPolicy for Affinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn on_ready(&mut self, view: &PolicyView<'_>, pid: Pid, _reason: ReadyReason) {
        debug_assert!(!self.queue.iter().any(|&(p, _)| p == pid));
        self.queue.push((pid, view.now));
    }

    fn on_remove(&mut self, _view: &PolicyView<'_>, pid: Pid) {
        self.queue.retain(|&(p, _)| p != pid);
    }

    fn pick(&mut self, view: &PolicyView<'_>, cpu: CpuId) -> Option<Pid> {
        // First choice: oldest queued process affine to this processor.
        if let Some(idx) = self
            .queue
            .iter()
            .position(|&(p, _)| view.last_cpu(p) == Some(cpu))
        {
            return Some(self.queue.remove(idx).0);
        }
        // Second choice: a process that never ran (no affinity yet).
        if let Some(idx) = self
            .queue
            .iter()
            .position(|&(p, _)| view.last_cpu(p).is_none())
        {
            return Some(self.queue.remove(idx).0);
        }
        // Last resort: migrate the process that has waited past the
        // threshold (oldest first).
        if let Some(idx) = self
            .queue
            .iter()
            .position(|&(_, since)| view.now.saturating_since(since) >= self.migrate_after)
        {
            return Some(self.queue.remove(idx).0);
        }
        None
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;
    use crate::pcb::ProcTable;

    fn table(n: u32) -> ProcTable {
        let mut t = ProcTable::new();
        for _ in 0..n {
            t.insert(None, AppId(0), 1);
        }
        t
    }

    #[test]
    fn prefers_affine_process() {
        let mut procs = table(2);
        procs.get_mut(Pid(0)).last_cpu = Some(CpuId(1));
        procs.get_mut(Pid(1)).last_cpu = Some(CpuId(0));
        let running: [Option<Pid>; 2] = [None; 2];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = Affinity::new(SimDur::from_millis(50));
        p.on_ready(&v, Pid(0), ReadyReason::Preempted);
        p.on_ready(&v, Pid(1), ReadyReason::Preempted);
        // Despite FIFO order, cpu0 takes pid1 (its last tenant).
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(1)));
        assert_eq!(p.pick(&v, CpuId(1)), Some(Pid(0)));
    }

    #[test]
    fn fresh_processes_run_anywhere() {
        let procs = table(1);
        let running: [Option<Pid>; 2] = [None; 2];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = Affinity::new(SimDur::from_millis(50));
        p.on_ready(&v, Pid(0), ReadyReason::New);
        assert_eq!(p.pick(&v, CpuId(1)), Some(Pid(0)));
    }

    #[test]
    fn migration_waits_for_threshold() {
        let mut procs = table(1);
        procs.get_mut(Pid(0)).last_cpu = Some(CpuId(1));
        let running: [Option<Pid>; 2] = [None; 2];
        // Became ready at t=0; at t=10ms cpu0 may not steal it...
        let v0 = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO + SimDur::from_millis(10),
        };
        let mut p = Affinity::new(SimDur::from_millis(50));
        p.on_ready(
            &PolicyView {
                procs: &procs,
                running: &running,
                now: SimTime::ZERO,
            },
            Pid(0),
            ReadyReason::Preempted,
        );
        assert_eq!(p.pick(&v0, CpuId(0)), None);
        // ...but at t=60ms it may.
        let v1 = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO + SimDur::from_millis(60),
        };
        assert_eq!(p.pick(&v1, CpuId(0)), Some(Pid(0)));
    }
}
