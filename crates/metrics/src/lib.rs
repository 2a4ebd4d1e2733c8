//! `metrics` — instrumentation and figure-data plumbing.
//!
//! Turns `simkernel` traces into the data series behind the paper's
//! figures (speed-up curves, wall-clock bars, runnable-process traces) and
//! renders them as aligned text tables, quick ASCII charts, CSV, JSON run
//! reports, and Perfetto-loadable Chrome trace-event files. Runtime
//! counters and histograms live in `native_rt::stats`; the worker events
//! the timeline renders (`EventKind`, `TraceEvent`) live in `ctl-core`,
//! so this crate compiles the simulator but not the native runtime.

#![warn(missing_docs)]

pub mod json;
pub mod perfetto;
mod render;
mod series;
mod trace;

pub use json::JsonValue;
pub use perfetto::TraceBuilder;
pub use render::{ascii_chart, series_csv, table};
pub use series::Series;
pub use trace::{runnable_app_series, runnable_total_series};
