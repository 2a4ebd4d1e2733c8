//! Encore-style usage-decay priority scheduling.
//!
//! UMAX derived priorities from recent CPU consumption, so a freshly started
//! process outranks processes that have been computing for a while. The
//! paper's Figure 4 discussion blames exactly this for matmul's relatively
//! good uncontrolled performance: "processes just starting up may have
//! higher priority than slightly older processes due to the relation of
//! priority to past CPU use."

use std::collections::HashMap;

use desim::SimDur;
use machine::CpuId;

use crate::ids::Pid;
use crate::policy::{PolicyView, ReadyReason, SchedPolicy};

#[derive(Clone, Copy, Debug, Default)]
struct Usage {
    /// Exponentially decayed CPU usage, in seconds.
    decayed: f64,
    /// Total CPU time at the last decay tick.
    last_total: SimDur,
}

/// Usage-decay priority scheduling (smaller decayed usage = higher priority).
#[derive(Debug)]
pub struct PriorityDecay {
    queue: Vec<Pid>,
    usage: HashMap<Pid, Usage>,
    /// Multiplier applied to decayed usage per tick (0..1).
    decay: f64,
}

impl Default for PriorityDecay {
    fn default() -> Self {
        Self::new(0.66)
    }
}

impl PriorityDecay {
    /// Creates the policy with the given per-tick decay factor.
    pub fn new(decay: f64) -> Self {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        PriorityDecay {
            queue: Vec::new(),
            usage: HashMap::new(),
            decay,
        }
    }

    fn priority(&self, pid: Pid) -> f64 {
        self.usage.get(&pid).map_or(0.0, |u| u.decayed)
    }
}

impl SchedPolicy for PriorityDecay {
    fn name(&self) -> &'static str {
        "priority-decay"
    }

    fn on_ready(&mut self, view: &PolicyView<'_>, pid: Pid, _reason: ReadyReason) {
        debug_assert!(!self.queue.contains(&pid), "{pid} enqueued twice");
        self.usage.entry(pid).or_insert(Usage {
            decayed: 0.0,
            last_total: view.cpu_time(pid),
        });
        self.queue.push(pid);
    }

    fn on_remove(&mut self, _view: &PolicyView<'_>, pid: Pid) {
        self.queue.retain(|&p| p != pid);
        self.usage.remove(&pid);
    }

    fn pick(&mut self, _view: &PolicyView<'_>, _cpu: CpuId) -> Option<Pid> {
        if self.queue.is_empty() {
            return None;
        }
        // Lowest decayed usage wins; FIFO position breaks ties (stable min).
        let (best_idx, _) = self
            .queue
            .iter()
            .enumerate()
            .min_by(|(ia, &a), (ib, &b)| {
                self.priority(a)
                    .partial_cmp(&self.priority(b))
                    .expect("priorities are finite")
                    .then(ia.cmp(ib))
            })
            .expect("queue is non-empty");
        Some(self.queue.remove(best_idx))
    }

    fn on_tick(&mut self, view: &PolicyView<'_>) {
        for (&pid, u) in self.usage.iter_mut() {
            let total = view.cpu_time(pid);
            let delta = total.saturating_sub(u.last_total).as_secs_f64();
            u.last_total = total;
            u.decayed = u.decayed * self.decay + delta;
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcb::ProcTable;
    use desim::SimTime;

    fn table(n: u32) -> ProcTable {
        let mut t = ProcTable::new();
        for _ in 0..n {
            t.insert(None, crate::ids::AppId(0), 1);
        }
        t
    }

    #[test]
    fn fresh_process_outranks_heavy_user() {
        let procs = table(3);
        let running: [Option<Pid>; 1] = [None];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = PriorityDecay::default();
        p.on_ready(&v, Pid(1), ReadyReason::New);
        p.on_ready(&v, Pid(2), ReadyReason::New);
        // Simulate pid 1 having consumed CPU: bump its decayed usage
        // directly through a tick after manual accounting.
        p.usage.get_mut(&Pid(1)).unwrap().decayed = 5.0;
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(2)));
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(1)));
    }

    #[test]
    fn ties_broken_fifo() {
        let procs = table(5);
        let running: [Option<Pid>; 1] = [None];
        let v = PolicyView {
            procs: &procs,
            running: &running,
            now: SimTime::ZERO,
        };
        let mut p = PriorityDecay::default();
        p.on_ready(&v, Pid(3), ReadyReason::New);
        p.on_ready(&v, Pid(4), ReadyReason::New);
        assert_eq!(p.pick(&v, CpuId(0)), Some(Pid(3)));
    }

    #[test]
    #[should_panic(expected = "decay must be")]
    fn invalid_decay_rejected() {
        PriorityDecay::new(1.5);
    }
}
