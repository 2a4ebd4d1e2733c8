//! `native-rt` — the paper's process-control scheme over real OS threads.
//!
//! Where the sibling crates *simulate* a 1989 multiprocessor, this crate
//! demonstrates that the protocol is directly implementable with modern
//! threading: a [`Controller`] (the centralized server) partitions the
//! host's cores among registered [`Pool`]s, and each pool's workers
//! suspend/resume themselves at safe points between jobs — park/unpark
//! standing in for the paper's signal-and-wait. The `workloads::native`
//! kernels (matmul, FFT, sort, gauss) provide real work to schedule.
//!
//! Job dispatch is work-stealing: each worker owns a [Chase–Lev
//! deque](deque), external submissions go through a [sharded
//! injector](injector), and idle workers spin briefly before parking on
//! private condvars. The central-queue design this replaced survives as
//! [`baseline::CentralPool`] so `pool_bench` can measure the difference
//! on any host.
//!
//! For cross-process deployments the control plane is fault-tolerant:
//! the [`UdsServer`] leases registrations and stamps replies with a boot
//! epoch, the [`SupervisedClient`] reconnects with backoff and falls
//! back to degraded (uncontrolled) targets while the server is away, and
//! the [`chaos`] proxy injects deterministic wire faults so all of it is
//! testable. See DESIGN.md §"Failure modes & recovery".
//!
//! # Examples
//!
//! ```
//! use native_rt::{Controller, Pool};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let controller = Controller::new(4, std::time::Duration::from_millis(20));
//! let pool = Pool::new(&controller, 8, false); // 8 workers, 4-cpu target
//! let done = Arc::new(AtomicUsize::new(0));
//! for _ in 0..32 {
//!     let d = done.clone();
//!     pool.execute(move || { d.fetch_add(1, Ordering::Relaxed); });
//! }
//! pool.wait_idle();
//! assert_eq!(done.load(Ordering::Relaxed), 32);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod baseline;
#[cfg(unix)]
pub mod chaos;
mod control;
mod controller;
pub mod crlock;
pub mod deque;
pub mod injector;
mod pool;
pub mod proc_scan;
pub mod quiesce;
#[cfg(unix)]
pub mod reactor;
#[doc(hidden)]
pub mod safepoint;
pub mod snapshot;
pub mod stats;
#[cfg(unix)]
mod supervise;
pub mod topology;
pub mod trace;
#[cfg(unix)]
mod uds;

pub use baseline::CentralPool;
#[cfg(unix)]
pub use chaos::{ChaosConfig, ChaosProxy, JobChaos, JobFault};
pub use control::{
    ControlCore, ServerEngine, UdsServerConfig, DEFAULT_JOURNAL_CAP, DEFAULT_LEASE_TTL,
    DEFAULT_TRACE_MAX,
};
pub use controller::{Controller, TargetSlot};
pub use crlock::{
    AdaptiveConfig, AdaptiveSizer, Admission, CrConfig, CrGate, CrGuard, CrLock, RawLock,
    RawParking, RawSpin,
};
pub use deque::{Steal, Stealer, Worker};
pub use injector::Injector;
pub use pool::{Job, Pool, PoolConfig, PoolMetrics, WatchdogConfig};
#[cfg(unix)]
pub use reactor::FrameBuffer;
pub use snapshot::{ServerSnapshot, SnapshotApp, SnapshotError};
pub use stats::{Registry, Snapshot};
#[cfg(unix)]
pub use supervise::{PollerGuard, RestartKind, SupervisedClient, SupervisorConfig};
pub use topology::{CpuRecord, CpuTopology, NUM_STEAL_TIERS, STEAL_TIER_NAMES};
pub use trace::{EventKind, FlightRecorder, SpscRing, TraceEvent};
#[cfg(unix)]
pub use uds::{AppStatsEntry, EventsReply, PollReply, UdsClient, UdsServer, DEFAULT_IO_TIMEOUT};
