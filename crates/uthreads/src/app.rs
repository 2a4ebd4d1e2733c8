//! Launching a threads-package application onto the simulated kernel.

use std::cell::RefCell;
use std::rc::Rc;

use simkernel::{AppId, Kernel, Pid, PortId};

use crate::shared::{AppMetrics, AppShared, ThreadsConfig};
use crate::task::{BarrierId, ChanId, Task};
use crate::worker::Worker;

/// Everything an application needs besides its worker configuration: the
/// initial tasks and any barriers/channels the tasks reference.
pub struct AppSpec {
    /// Tasks enqueued before the first worker starts.
    pub tasks: Vec<Task>,
    /// Barrier participant counts; `BarrierId(i)` refers to entry `i`.
    pub barriers: Vec<u32>,
    /// Number of channels; `ChanId(i)` refers to channel `i`.
    pub channels: u32,
}

impl AppSpec {
    /// A spec with only initial tasks.
    pub fn tasks(tasks: Vec<Task>) -> Self {
        AppSpec {
            tasks,
            barriers: Vec::new(),
            channels: 0,
        }
    }

    /// Adds a barrier, returning its id.
    pub fn add_barrier(&mut self, participants: u32) -> BarrierId {
        assert!(participants >= 1, "a barrier needs a participant");
        self.barriers.push(participants);
        BarrierId((self.barriers.len() - 1) as u32)
    }

    /// Adds a channel, returning its id.
    pub fn add_channel(&mut self) -> ChanId {
        let id = ChanId(self.channels);
        self.channels += 1;
        id
    }
}

/// Handle to a launched application.
pub struct ThreadsApp {
    /// The kernel-level application id.
    pub app: AppId,
    /// The root process.
    pub root: Pid,
    /// The control reply mailbox, if process control is enabled.
    pub reply_port: Option<PortId>,
    shared: Rc<RefCell<AppShared>>,
}

impl ThreadsApp {
    /// Package counters (suspends, resumes, polls, idle time, tasks run).
    pub fn metrics(&self) -> AppMetrics {
        self.shared.borrow().metrics()
    }

    /// Current number of non-suspended workers.
    pub fn active(&self) -> u32 {
        self.shared.borrow().active()
    }

    /// Whether the application has finished all tasks.
    pub fn is_done(&self) -> bool {
        self.shared.borrow().is_done()
    }

    /// The latest process-control target, if control is enabled.
    pub fn target(&self) -> Option<u32> {
        self.shared.borrow().target()
    }

    /// The CR queue lock's active-set bound, if CR is enabled.
    pub fn cr_active_max(&self) -> Option<u32> {
        self.shared.borrow().cr_active_max()
    }

    /// A copy of the worker events emitted so far (task pickup/finish,
    /// suspension enter/exit, queue-lock waits, control polls, …).
    pub fn spans(&self) -> Vec<ctl_core::TraceEvent> {
        self.shared.borrow().spans().copied().collect()
    }

    /// Poll-to-convergence latencies observed so far: how long after each
    /// applied target the application reached it. See
    /// [`crate::poll_to_convergence`].
    pub fn convergence(&self) -> Vec<(desim::SimTime, desim::SimDur)> {
        let sh = self.shared.borrow();
        crate::span::poll_to_convergence(sh.spans(), sh.nprocs())
    }
}

/// Launches an application onto the kernel: creates its queue lock and
/// reply mailbox, seeds the ready queue, and spawns the root worker (which
/// registers with the server and spawns the remaining `nprocs - 1`
/// workers itself).
pub fn launch(kernel: &mut Kernel, app: AppId, cfg: ThreadsConfig, spec: AppSpec) -> ThreadsApp {
    let qlock = kernel.create_lock();
    let reply_port = cfg.control.as_ref().map(|_| kernel.create_port());
    let ws = cfg.ws_lines;
    let mut shared = AppShared::new(cfg, qlock);
    for task in spec.tasks {
        shared.push_task(task);
    }
    for needed in spec.barriers {
        shared.barriers.push(crate::shared::BarrierState {
            needed,
            arrived: 0,
            parked: Vec::new(),
        });
    }
    for _ in 0..spec.channels {
        shared.channels.push(crate::shared::ChanState::default());
    }
    let shared = Rc::new(RefCell::new(shared));
    let root_worker = Worker::new(shared.clone(), true, reply_port);
    let root = kernel.spawn_root(app, ws, Box::new(root_worker));
    ThreadsApp {
        app,
        root,
        reply_port,
        shared,
    }
}
