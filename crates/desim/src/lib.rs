//! `desim` — a small deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Tucker–Gupta (SOSP '89) reproduction:
//! everything above it (the machine model, the simulated kernel, the threads
//! package, the process-control server) advances time through the primitives
//! defined here.
//!
//! The engine deliberately contains no domain knowledge. It provides:
//!
//! - [`SimTime`] / [`SimDur`] — integer nanosecond time, overflow-checked;
//! - [`Calendar`] — a *stable* event priority queue ordered on
//!   `(time, seq)`: ties are broken by insertion order so runs are exactly
//!   reproducible, and every scheduled event is delivered (consumers
//!   invalidate stale events by an epoch stamp, not by cancellation);
//! - [`SimRng`] — a local SplitMix64 generator, so results cannot drift with
//!   `rand` version bumps;
//! - [`Tracer`] — an append-only structured event log used to reconstruct
//!   the paper's time-series figures.
//!
//! # Examples
//!
//! ```
//! use desim::{Calendar, SimDur, SimTime};
//!
//! let mut cal = Calendar::new();
//! let mut now = SimTime::ZERO;
//! cal.schedule(now + SimDur::from_millis(3), "quantum expiry");
//! cal.schedule(now + SimDur::from_millis(1), "io done");
//! while let Some((t, what)) = cal.pop() {
//!     now = t;
//!     println!("{now}: {what}");
//! }
//! assert_eq!(now, SimTime::ZERO + SimDur::from_millis(3));
//! ```

#![warn(missing_docs)]

mod event;
mod rng;
mod time;
mod trace;

pub use event::Calendar;
pub use rng::SimRng;
pub use time::{SimDur, SimTime, MSEC, SEC, USEC};
pub use trace::{TraceEvent, Tracer};
