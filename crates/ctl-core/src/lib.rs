//! `ctl-core` — the parts of the process-control scheme that need neither
//! a simulator nor real threads.
//!
//! Both stacks share them: the simulated server and threads package
//! (`procctl`, `uthreads`) and the native runtime (`native-rt`). This
//! crate depends on nothing, so neither stack compiles the other for
//! them.
//!
//! - [`partition`] — the server's fair-division rule (equal shares of the
//!   processors left over by uncontrollable load, capped by each
//!   application's process count, with a one-process starvation floor),
//!   and [`assign_cpu_sets`] / [`cpu_range`], which carve a CPU order into
//!   the targets' slices;
//! - [`RecomputeGate`] — the dirty flag that coalesces bursts of
//!   invalidations into one recomputation of the partition;
//! - [`TraceEvent`] and [`EventKind`] — the worker-event vocabulary both
//!   runtimes log, with its `ts:kind:worker:arg` wire form.
//!
//! `procctl` re-exports the partition items and the gate, and
//! `native-rt` the event vocabulary, under their earlier paths.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_debug_implementations)]

mod coalesce;
mod partition;
mod trace;

pub use coalesce::RecomputeGate;
pub use partition::{
    assign_cpu_sets, cpu_range, partition, partition_into, validate_cpus, validate_processes,
    AppDemand, PartitionScratch, SizeError, MAX_CPUS, MAX_PROCESSES,
};
pub use trace::{parse_events, render_events, EventKind, TraceEvent};
