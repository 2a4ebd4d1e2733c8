//! `uthreads` — a task-queue threads package for the simulated kernel.
//!
//! The analog of the Brown University Threads package the paper built on:
//! applications are decomposed into *tasks* (user-level threads) that
//! worker *processes* pick from a spinlock-protected ready queue and
//! execute coroutine-style. The package provides user-level barriers and
//! channels, and — transparently to the application — the paper's dynamic
//! process control: at every safe suspension point (between tasks, holding
//! no lock) a worker compares the application's runnable-process count with
//! the server's target and suspends itself or resumes a suspended
//! colleague. "The interface to the threads commands was not changed when
//! process control was added": the same [`AppSpec`] runs unmodified with
//! control on or off ([`ThreadsConfig::with_control`]).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod app;
mod shared;
mod span;
mod task;
mod worker;

pub use app::{launch, AppSpec, ThreadsApp};
pub use shared::{AppMetrics, AppShared, ControlParams, CrParams, ThreadsConfig};
pub use span::{poll_to_convergence, wake_to_run, SPAN_CACHE_CHUNKS, SPAN_CHUNK};
pub use task::{BarrierId, ChanId, FnTask, OpsBody, Task, TaskBody, TaskEvent, TaskOp};
pub use worker::Worker;
