//! Scenario drivers shared by the figure binaries, the report and the tests.

use desim::{SimDur, SimTime};
use procctl::{DecisionLog, Server, ServerConfig, SweepRecord};
use simkernel::policy::{
    Affinity, Coscheduling, FifoRoundRobin, GroupMode, GroupPolicy, PriorityDecay, SpacePartition,
    SpinlockFlag,
};
use simkernel::{AppId, Kernel, KernelConfig, PortId, SchedPolicy};
use uthreads::{launch, AppMetrics, AppSpec, ThreadsApp, ThreadsConfig};
use workloads::{fft_spec, gauss_spec, matmul_spec, sort_spec, Presets};

/// Application id reserved for the central server daemon.
pub const SERVER_APP: AppId = AppId(999);

/// Kernel scheduling policies selectable by scenarios.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// UMAX-like global FIFO round-robin (the paper's baseline).
    Fifo,
    /// Encore-style usage-decay priorities.
    PrioDecay,
    /// Ousterhout coscheduling (gang slices).
    Cosched,
    /// Zahorjan spinlock-flag preemption avoidance.
    SpinFlag,
    /// Edler groups with every application in gang mode.
    GangGroups,
    /// Squillante–Lazowska cache-affinity scheduling.
    Affinity,
    /// The paper's §7 space partitioning.
    Partition,
}

impl PolicyKind {
    /// All policies, for sweeps.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Fifo,
        PolicyKind::PrioDecay,
        PolicyKind::Cosched,
        PolicyKind::SpinFlag,
        PolicyKind::GangGroups,
        PolicyKind::Affinity,
        PolicyKind::Partition,
    ];

    /// Instantiates the policy.
    pub fn build(self, quantum: SimDur) -> Box<dyn SchedPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(FifoRoundRobin::new()),
            PolicyKind::PrioDecay => Box::new(PriorityDecay::default()),
            PolicyKind::Cosched => Box::new(Coscheduling::new(quantum)),
            PolicyKind::SpinFlag => Box::new(SpinlockFlag::new()),
            PolicyKind::GangGroups => Box::new(GroupPolicy::new(
                quantum,
                std::collections::HashMap::new(),
                GroupMode::Gang,
            )),
            PolicyKind::Affinity => Box::new(Affinity::new(quantum)),
            PolicyKind::Partition => Box::new(SpacePartition::new()),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo-rr",
            PolicyKind::PrioDecay => "prio-decay",
            PolicyKind::Cosched => "cosched",
            PolicyKind::SpinFlag => "spin-flag",
            PolicyKind::GangGroups => "edler-gang",
            PolicyKind::Affinity => "affinity",
            PolicyKind::Partition => "partition",
        }
    }
}

/// Simulation environment for one run.
#[derive(Clone, Copy, Debug)]
pub struct SimEnv {
    /// Processor count (the paper's machine had 16).
    pub cpus: usize,
    /// Kernel scheduling policy.
    pub policy: PolicyKind,
    /// Use the high-miss-penalty "scalable machine" config.
    pub scalable: bool,
    /// Retain kernel traces (needed for Figure 5; off for benches).
    pub trace: bool,
}

impl Default for SimEnv {
    fn default() -> Self {
        SimEnv {
            cpus: 16,
            policy: PolicyKind::Fifo,
            scalable: false,
            trace: false,
        }
    }
}

impl SimEnv {
    /// Builds the kernel for this environment.
    pub fn make_kernel(&self) -> Kernel {
        let mut cfg = if self.scalable {
            KernelConfig::scalable()
        } else {
            KernelConfig::multimax()
        }
        .with_cpus(self.cpus);
        cfg.trace = self.trace;
        let policy = self.policy.build(cfg.quantum);
        Kernel::new(cfg, policy)
    }
}

/// The four evaluated applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Matrix multiplication.
    Matmul,
    /// One-dimensional FFT.
    Fft,
    /// Parallel merge sort.
    Sort,
    /// Gaussian elimination.
    Gauss,
}

impl AppKind {
    /// The figure-3 ordering.
    pub const ALL: [AppKind; 4] = [AppKind::Fft, AppKind::Sort, AppKind::Gauss, AppKind::Matmul];

    /// Builds the application's task-graph spec.
    pub fn spec(self, presets: &Presets) -> AppSpec {
        match self {
            AppKind::Matmul => matmul_spec(&presets.matmul),
            AppKind::Fft => fft_spec(&presets.fft),
            AppKind::Sort => sort_spec(&presets.sort),
            AppKind::Gauss => gauss_spec(&presets.gauss),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Matmul => "matmul",
            AppKind::Fft => "fft",
            AppKind::Sort => "sort",
            AppKind::Gauss => "gauss",
        }
    }
}

/// Spawns the central server; returns its request port.
pub fn spawn_server(kernel: &mut Kernel) -> PortId {
    spawn_server_logged(kernel).0
}

/// Spawns the central server keeping a handle on its decision log, so the
/// caller can read back every partition sweep after the run.
pub fn spawn_server_logged(kernel: &mut Kernel) -> (PortId, DecisionLog) {
    let port = kernel.create_port();
    let server = Server::new(ServerConfig::new(port));
    let log = server.decision_log();
    kernel.spawn_root(SERVER_APP, 64, Box::new(server));
    (port, log)
}

/// One application in a multiprogrammed scenario.
pub struct AppLaunch {
    /// Which application.
    pub kind: AppKind,
    /// Worker process count.
    pub nprocs: u32,
    /// Simulated start time.
    pub start: SimTime,
}

/// Result of one application's run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Application.
    pub kind: AppKind,
    /// Wall-clock seconds from its start to its completion.
    pub wall: f64,
    /// Kernel-side accounting.
    pub stats: simkernel::AppStats,
    /// Threads-package counters.
    pub metrics: AppMetrics,
}

/// One application's observables from an instrumented run: the
/// [`RunOutcome`] fields plus the span log and convergence latencies.
pub struct AppRun {
    /// Application id assigned in the scenario (the launch index).
    pub app: AppId,
    /// Application.
    pub kind: AppKind,
    /// Simulated start time.
    pub start: SimTime,
    /// Wall-clock seconds from its start to its completion.
    pub wall: f64,
    /// Kernel-side accounting.
    pub stats: simkernel::AppStats,
    /// Threads-package counters.
    pub metrics: AppMetrics,
    /// Worker events the threads package logged.
    pub spans: Vec<native_rt::TraceEvent>,
    /// Poll-to-convergence latencies (empty without control).
    pub convergence: Vec<(SimTime, SimDur)>,
}

/// Everything observable from one instrumented scenario run.
pub struct ScenarioRun {
    /// Per-application observables, in launch order.
    pub apps: Vec<AppRun>,
    /// Where every processor-cycle of the run went.
    pub ledger: simkernel::CycleLedger,
    /// Simulated time when the last application finished.
    pub end: SimTime,
    /// The server's partition sweeps (empty without control).
    pub sweeps: Vec<SweepRecord>,
    /// The kernel, for trace extraction.
    pub kernel: Kernel,
}

/// Runs a multiprogrammed scenario: the given applications, optionally
/// under process control (`poll_interval = Some(..)` spawns the server and
/// enables control in every application). Returns per-app outcomes plus
/// the kernel (for trace extraction).
///
/// # Panics
///
/// Panics if any application fails to finish before `limit`.
pub fn run_scenario(
    env: &SimEnv,
    presets: &Presets,
    launches: &[AppLaunch],
    poll_interval: Option<SimDur>,
    limit: SimTime,
) -> (Vec<RunOutcome>, Kernel) {
    run_scenario_tuned(env, presets, launches, poll_interval, None, limit)
}

/// [`run_scenario`] with the threads package's lock-level switch exposed:
/// `cr = Some(..)` enables the concurrency-restricting queue lock in every
/// application. Crossing `poll_interval` and `cr` yields the four-way
/// ablation {no control, server control, CR lock, both}.
///
/// # Panics
///
/// Panics if any application fails to finish before `limit`.
pub fn run_scenario_tuned(
    env: &SimEnv,
    presets: &Presets,
    launches: &[AppLaunch],
    poll_interval: Option<SimDur>,
    cr: Option<uthreads::CrParams>,
    limit: SimTime,
) -> (Vec<RunOutcome>, Kernel) {
    let run = run_scenario_instrumented_tuned(env, presets, launches, poll_interval, cr, limit);
    let outcomes = run
        .apps
        .into_iter()
        .map(|a| RunOutcome {
            kind: a.kind,
            wall: a.wall,
            stats: a.stats,
            metrics: a.metrics,
        })
        .collect();
    (outcomes, run.kernel)
}

/// [`run_scenario`] with full observability: besides the outcomes it
/// returns the cycle ledger, each application's span log and convergence
/// latencies, and the control server's decision log.
///
/// # Panics
///
/// Panics if any application fails to finish before `limit`.
pub fn run_scenario_instrumented(
    env: &SimEnv,
    presets: &Presets,
    launches: &[AppLaunch],
    poll_interval: Option<SimDur>,
    limit: SimTime,
) -> ScenarioRun {
    run_scenario_instrumented_tuned(env, presets, launches, poll_interval, None, limit)
}

/// [`run_scenario_instrumented`] with the CR queue-lock switch exposed
/// (see [`run_scenario_tuned`]).
///
/// # Panics
///
/// Panics if any application fails to finish before `limit`.
pub fn run_scenario_instrumented_tuned(
    env: &SimEnv,
    presets: &Presets,
    launches: &[AppLaunch],
    poll_interval: Option<SimDur>,
    cr: Option<uthreads::CrParams>,
    limit: SimTime,
) -> ScenarioRun {
    let mut kernel = env.make_kernel();
    let server = poll_interval.map(|_| spawn_server_logged(&mut kernel));
    let mut order: Vec<(usize, SimTime)> = launches
        .iter()
        .enumerate()
        .map(|(i, l)| (i, l.start))
        .collect();
    order.sort_by_key(|&(_, t)| t);
    let mut apps: Vec<Option<(AppId, ThreadsApp)>> = (0..launches.len()).map(|_| None).collect();
    for (idx, start) in order {
        kernel.run_until(start);
        let l = &launches[idx];
        let mut cfg = ThreadsConfig::new(l.nprocs);
        if let (Some((port, _)), Some(interval)) = (&server, poll_interval) {
            cfg = cfg.with_control(*port, interval);
        }
        if let Some(cr) = cr {
            cfg = cfg.with_cr_lock(cr);
        }
        let app_id = AppId(idx as u32);
        let handle = launch(&mut kernel, app_id, cfg, l.kind.spec(presets));
        apps[idx] = Some((app_id, handle));
    }
    let ids: Vec<AppId> = apps
        .iter()
        .map(|a| a.as_ref().expect("launched").0)
        .collect();
    assert!(
        kernel.run_until_apps_done(&ids, limit),
        "scenario did not finish by {limit} (policy {})",
        env.policy.name()
    );
    let app_runs = launches
        .iter()
        .zip(&apps)
        .map(|(l, a)| {
            let (id, handle) = a.as_ref().expect("launched");
            let done = kernel.app_done_time(*id).expect("app finished");
            AppRun {
                app: *id,
                kind: l.kind,
                start: l.start,
                wall: done.since(l.start).as_secs_f64(),
                stats: kernel.app_stats(*id),
                metrics: handle.metrics(),
                spans: handle.spans(),
                convergence: handle.convergence(),
            }
        })
        .collect();
    let ledger = kernel.cycle_ledger();
    ScenarioRun {
        apps: app_runs,
        ledger,
        end: kernel.now(),
        sweeps: server
            .as_ref()
            .map_or_else(Vec::new, |(_, log)| log.records()),
        kernel,
    }
}

/// Convenience: run one application alone; returns its wall-clock seconds.
pub fn run_solo(
    env: &SimEnv,
    presets: &Presets,
    kind: AppKind,
    nprocs: u32,
    poll_interval: Option<SimDur>,
    limit: SimTime,
) -> RunOutcome {
    run_solo_tuned(env, presets, kind, nprocs, poll_interval, None, limit)
}

/// [`run_solo`] with the CR queue-lock switch exposed.
pub fn run_solo_tuned(
    env: &SimEnv,
    presets: &Presets,
    kind: AppKind,
    nprocs: u32,
    poll_interval: Option<SimDur>,
    cr: Option<uthreads::CrParams>,
    limit: SimTime,
) -> RunOutcome {
    let (mut outs, _) = run_scenario_tuned(
        env,
        presets,
        &[AppLaunch {
            kind,
            nprocs,
            start: SimTime::ZERO,
        }],
        poll_interval,
        cr,
        limit,
    );
    outs.pop().expect("one outcome")
}
