//! `procctl` — dynamic process control for multiprogrammed multiprocessors.
//!
//! This crate is the primary contribution of Tucker & Gupta (SOSP '89):
//! keep each parallel application's number of *runnable* processes equal to
//! the number of processors available to it, so that processes are never
//! preempted — avoiding busy-waiting on locks held by preempted processes,
//! producer/consumer stalls, context-switch overhead, and cache corruption.
//!
//! Three pieces, all implemented in user space:
//!
//! - [`partition`] — the server's fair-division algorithm (equal shares of
//!   the processors left over by uncontrollable load, capped by each
//!   application's process count, with a one-process starvation floor);
//! - [`Server`] — the centralized daemon that samples the kernel's runnable
//!   process list and answers applications' periodic `POLL`s;
//! - [`ClientControl`] — the application-side state consulted at every safe
//!   suspension point, deciding whether a worker suspends itself, resumes a
//!   colleague, or carries on.
//!
//! The decentralized variant the paper rejected is provided as
//! [`decentralized_target`] for the stability ablation.
//!
//! [`partition`] and the [`RecomputeGate`] that coalesces its
//! recomputations live in the dependency-free `ctl-core` crate and are
//! re-exported here, so the native runtime shares them without compiling
//! the simulator. [`Server`] and [`ClientControl`] are this crate's and
//! are written against the `simkernel` substrate; the `native-rt` crate
//! reimplements the same client rule over real OS threads.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

mod client;
mod proto;
mod server;

pub use client::{decentralized_target, ClientControl, Decision};
pub use ctl_core::{
    assign_cpu_sets, cpu_range, partition, partition_into, validate_cpus, validate_processes,
    AppDemand, PartitionScratch, RecomputeGate, SizeError, MAX_CPUS, MAX_PROCESSES,
};
pub use proto::{
    decode_request, decode_target, encode_bye, encode_poll, encode_register,
    encode_register_weighted, encode_target, Request,
};
pub use server::{classify, Classified, DecisionLog, Server, ServerConfig, SweepApp, SweepRecord};
