//! The centralized user-level server.
//!
//! A single daemon process (spawned like any other, requiring no kernel
//! modification) that:
//!
//! 1. periodically samples the kernel's runnable-process list (`rpstat`);
//! 2. classifies processes into *controllable* (their pid or parent pid is
//!    a registered application root — the paper identifies membership "by
//!    comparing it with each process' parent process ID") and
//!    *uncontrollable* (everything else, e.g. compilers, editors, daemons);
//! 3. partitions the processors left over by uncontrollable load equally
//!    among the registered applications (see [`crate::partition`]);
//! 4. answers each application's periodic `POLL` with its current target.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use ctl_core::{partition, AppDemand};
use desim::{SimDur, SimTime};
use simkernel::{Action, Behavior, Pid, PortId, ProcStat, UserCtx, Wakeup};

use crate::proto::{decode_request, encode_target, Request};

/// Server tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Mailbox on which the server receives requests.
    pub request_port: PortId,
    /// How often the server resamples `rpstat` and recomputes targets.
    pub sample_interval: SimDur,
    /// How long the server naps between request-queue polls.
    pub idle_nap: SimDur,
    /// Modeled CPU cost of one `rpstat` sweep.
    pub rpstat_cost: SimDur,
    /// Partition-aware mode (the paper's Section 7 composition): when the
    /// kernel space-partitions processors, the controlled applications own
    /// a fixed region of `n` processors regardless of uncontrollable load
    /// elsewhere, so the server partitions exactly `n` and stops
    /// subtracting uncontrolled runnable processes. `None` is the paper's
    /// Section 5 behaviour (whole machine minus uncontrolled load) — which
    /// suffers the Section 8 limitation that greedy uncontrolled
    /// applications starve controlled ones.
    pub reserved_cpus: Option<u32>,
}

impl ServerConfig {
    /// Paper-like defaults: resample every second, nap 50 ms between
    /// request polls, rpstat costs 500 us.
    pub fn new(request_port: PortId) -> Self {
        ServerConfig {
            request_port,
            sample_interval: SimDur::from_secs(1),
            idle_nap: SimDur::from_millis(50),
            rpstat_cost: SimDur::from_micros(500),
            reserved_cpus: None,
        }
    }

    /// Enables partition-aware mode with a fixed region of `n` processors.
    pub fn with_reserved_cpus(mut self, n: u32) -> Self {
        assert!(n >= 1, "a reservation needs at least one processor");
        self.reserved_cpus = Some(n);
        self
    }
}

#[derive(Clone, Copy, Debug)]
struct AppEntry {
    root: Pid,
    target: u32,
    weight: f64,
}

/// One registered application's inputs and output in a partition sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepApp {
    /// The application's root pid.
    pub root: Pid,
    /// Total (runnable + suspended) processes the sweep saw for it.
    pub processes: u32,
    /// Runnable processes the sweep saw for it.
    pub runnable: u32,
    /// Its share weight.
    pub weight: f64,
    /// Its target before this sweep.
    pub prev_target: u32,
    /// Its target after this sweep (equal to `prev_target` when the sweep
    /// saw no processes and kept the old value).
    pub target: u32,
}

/// One partition recomputation: the complete inputs the server acted on
/// and the per-application targets it produced.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRecord {
    /// When the sweep ran.
    pub time: SimTime,
    /// Processors the sweep partitioned (whole machine, or the reserved
    /// region in Section 7 mode).
    pub pool: u32,
    /// Runnable processes outside every registered application.
    pub uncontrolled_runnable: u32,
    /// Registered applications in registration order.
    pub apps: Vec<SweepApp>,
}

/// A shared handle onto the server's decision log. The server is moved
/// into the kernel at spawn, so callers clone this handle first (the
/// simulation is single-threaded; `Rc` suffices).
#[derive(Clone, Debug, Default)]
pub struct DecisionLog(Rc<RefCell<Vec<SweepRecord>>>);

impl DecisionLog {
    /// A copy of all sweeps recorded so far.
    pub fn records(&self) -> Vec<SweepRecord> {
        self.0.borrow().clone()
    }

    /// Number of sweeps recorded.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when no sweep has run yet.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    fn push(&self, rec: SweepRecord) {
        self.0.borrow_mut().push(rec);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SState {
    /// Waiting for the result of a request-queue poll.
    PollReq,
    /// Charging the rpstat sweep cost.
    Sampling,
    /// Waiting for a reply send to finish.
    Replying,
    /// Napping between polls.
    Napping,
}

/// The central server, as a simulated-process behavior.
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    apps: Vec<AppEntry>,
    next_sample: SimTime,
    state: SState,
    /// Targets computed in the most recent sweep, for inspection/tests.
    last_uncontrolled: u32,
    log: DecisionLog,
}

impl Server {
    /// Creates the server behavior.
    pub fn new(cfg: ServerConfig) -> Self {
        Server {
            cfg,
            apps: Vec::new(),
            next_sample: SimTime::ZERO,
            state: SState::PollReq,
            last_uncontrolled: 0,
            log: DecisionLog::default(),
        }
    }

    /// A handle onto the decision log, for reading sweeps back after the
    /// server has been moved into the kernel.
    pub fn decision_log(&self) -> DecisionLog {
        self.log.clone()
    }

    fn target_of(&self, root: Pid, num_cpus: usize) -> u32 {
        self.apps
            .iter()
            .find(|a| a.root == root)
            .map_or(num_cpus as u32, |a| a.target)
    }

    fn resample(&mut self, ctx: &mut dyn UserCtx) {
        let stats = ctx.rpstat();
        let roots: Vec<Pid> = self.apps.iter().map(|a| a.root).collect();
        let summary = classify(&stats, ctx.my_pid(), &roots);
        self.last_uncontrolled = summary.uncontrolled_runnable;
        let demands: Vec<AppDemand> = self
            .apps
            .iter()
            .map(|a| AppDemand {
                processes: summary.processes.get(&a.root).copied().unwrap_or(0),
                weight: a.weight,
            })
            .collect();
        let (pool, uncontrolled) = match self.cfg.reserved_cpus {
            // Section 7: the kernel partition shields the region; greedy
            // uncontrolled load outside it is irrelevant.
            Some(n) => (n.min(ctx.num_cpus() as u32), 0),
            // Section 5: whole machine minus uncontrolled runnable load.
            None => (ctx.num_cpus() as u32, summary.uncontrolled_runnable),
        };
        let targets = partition(pool, uncontrolled, &demands);
        let mut sweep_apps = Vec::with_capacity(self.apps.len());
        for (app, &t) in self.apps.iter_mut().zip(&targets) {
            let prev_target = app.target;
            // An application whose processes all exited keeps its last
            // target until it says BYE or disappears entirely.
            if summary.processes.contains_key(&app.root) {
                app.target = t;
            }
            sweep_apps.push(SweepApp {
                root: app.root,
                processes: summary.processes.get(&app.root).copied().unwrap_or(0),
                runnable: summary.runnable.get(&app.root).copied().unwrap_or(0),
                weight: app.weight,
                prev_target,
                target: app.target,
            });
        }
        self.log.push(SweepRecord {
            time: ctx.now(),
            pool,
            uncontrolled_runnable: summary.uncontrolled_runnable,
            apps: sweep_apps,
        });
    }
}

/// Result of classifying an rpstat snapshot against registered roots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Classified {
    /// Runnable processes not belonging to any registered application.
    pub uncontrolled_runnable: u32,
    /// Total (runnable + suspended) processes per registered root.
    pub processes: HashMap<Pid, u32>,
    /// Runnable processes per registered root.
    pub runnable: HashMap<Pid, u32>,
}

/// Classifies processes by registered root, using the paper's parent-pid
/// rule: a process belongs to application `r` if its pid is `r` or its
/// parent pid is `r`. The server's own process is excluded.
pub fn classify(stats: &[ProcStat], server_pid: Pid, roots: &[Pid]) -> Classified {
    let mut out = Classified::default();
    for s in stats {
        if s.pid == server_pid {
            continue;
        }
        let root = if roots.contains(&s.pid) {
            Some(s.pid)
        } else {
            s.parent.filter(|p| roots.contains(p))
        };
        match root {
            Some(r) => {
                *out.processes.entry(r).or_insert(0) += 1;
                if s.runnable {
                    *out.runnable.entry(r).or_insert(0) += 1;
                }
            }
            None => {
                if s.runnable {
                    out.uncontrolled_runnable += 1;
                }
            }
        }
    }
    out
}

impl Behavior for Server {
    fn step(&mut self, wakeup: Wakeup, ctx: &mut dyn UserCtx) -> Action {
        let req = self.cfg.request_port;
        match (self.state, wakeup) {
            (_, Wakeup::Start) => {
                self.state = SState::PollReq;
                self.next_sample = ctx.now();
                Action::Poll(req)
            }
            (SState::PollReq, Wakeup::Polled(Some(msg))) => {
                match decode_request(&msg) {
                    Some(Request::Register {
                        root,
                        reply_port: _,
                        weight_milli,
                    }) => {
                        if !self.apps.iter().any(|a| a.root == root) {
                            self.apps.push(AppEntry {
                                root,
                                // Until the first sweep sees it, let the
                                // application use the whole machine.
                                target: ctx.num_cpus() as u32,
                                weight: f64::from(weight_milli) / 1_000.0,
                            });
                            // Make the next sweep happen promptly so the new
                            // application is partitioned in.
                            self.next_sample = ctx.now();
                        }
                        self.state = SState::PollReq;
                        Action::Poll(req)
                    }
                    Some(Request::Poll { root, reply_port }) => {
                        let t = self.target_of(root, ctx.num_cpus());
                        self.state = SState::Replying;
                        Action::Send(reply_port, encode_target(t))
                    }
                    Some(Request::Bye { root }) => {
                        self.apps.retain(|a| a.root != root);
                        self.next_sample = ctx.now();
                        self.state = SState::PollReq;
                        Action::Poll(req)
                    }
                    None => {
                        // Malformed request: drop it and keep serving.
                        self.state = SState::PollReq;
                        Action::Poll(req)
                    }
                }
            }
            (SState::PollReq, Wakeup::Polled(None)) => {
                if ctx.now() >= self.next_sample {
                    self.state = SState::Sampling;
                    Action::Compute(self.cfg.rpstat_cost)
                } else {
                    self.state = SState::Napping;
                    Action::Sleep(self.cfg.idle_nap)
                }
            }
            (SState::Sampling, Wakeup::ComputeDone) => {
                self.resample(ctx);
                self.next_sample = ctx.now() + self.cfg.sample_interval;
                self.state = SState::PollReq;
                Action::Poll(req)
            }
            (SState::Replying, Wakeup::Sent) => {
                self.state = SState::PollReq;
                Action::Poll(req)
            }
            (SState::Napping, Wakeup::Slept) => {
                self.state = SState::PollReq;
                Action::Poll(req)
            }
            (state, wakeup) => {
                unreachable!("server: unexpected wakeup {wakeup:?} in state {state:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::AppId;

    fn stat(pid: u32, parent: Option<u32>, runnable: bool) -> ProcStat {
        ProcStat {
            pid: Pid(pid),
            parent: parent.map(Pid),
            app: AppId(0),
            runnable,
        }
    }

    #[test]
    fn classify_by_parent_pid() {
        let stats = vec![
            stat(1, None, true),     // registered root
            stat(2, Some(1), true),  // its child
            stat(3, Some(1), false), // suspended child
            stat(4, None, true),     // uncontrolled
            stat(5, Some(4), true),  // uncontrolled child
            stat(99, None, true),    // the server itself
        ];
        let c = classify(&stats, Pid(99), &[Pid(1)]);
        assert_eq!(c.uncontrolled_runnable, 2);
        assert_eq!(c.processes[&Pid(1)], 3);
        assert_eq!(c.runnable[&Pid(1)], 2);
    }

    #[test]
    fn classify_without_roots() {
        let stats = vec![stat(1, None, true), stat(2, Some(1), false)];
        let c = classify(&stats, Pid(99), &[]);
        assert_eq!(c.uncontrolled_runnable, 1);
        assert!(c.processes.is_empty());
    }

    #[test]
    fn classify_excludes_server() {
        let c = classify(&[stat(99, None, true)], Pid(99), &[]);
        assert_eq!(c.uncontrolled_runnable, 0);
    }
}
