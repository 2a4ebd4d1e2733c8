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
//! [`baseline::CentralPool`]: one shared queue is the shape a
//! spin-protected dequeue needs, and it is the second pool the
//! suspend/resume tests run against.
//!
//! For cross-process deployments the control plane is fault-tolerant:
//! the [`UdsServer`] leases registrations and stamps replies with a boot
//! epoch, the [`SupervisedClient`] reconnects with backoff and falls
//! back to degraded (uncontrolled) targets while the server is away. The
//! client's decisions are a core with no socket and no clock, so a seeded
//! simulation of the whole control loop (in [`chaos`]'s tests) checks them
//! under wire faults and server restarts. See DESIGN.md §"Failure modes &
//! recovery".
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
mod sync;
pub mod topology;
pub mod trace;
#[cfg(unix)]
mod uds;

pub use baseline::CentralPool;
#[cfg(unix)]
pub use chaos::{JobChaos, JobFault};
pub use control::{
    ControlCore, Sample, ServerEngine, UdsServerConfig, DEFAULT_JOURNAL_CAP, DEFAULT_LEASE_TTL,
    DEFAULT_TRACE_MAX, SAMPLE_PERIOD,
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
pub use uds::{AppStatsEntry, UdsClient, UdsServer, DEFAULT_IO_TIMEOUT};

/// One step of xorshift64 — the crate's one seeded generator: the pool's
/// steal-victim start, the client's backoff jitter and [`JobChaos`]'s
/// fault schedule. The state is forced odd first, so a zero seed cannot
/// pin it at zero.
pub(crate) fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The next draw of [`xorshift`] as a float in [0, 1).
#[cfg(unix)]
pub(crate) fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}
