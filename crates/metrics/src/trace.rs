//! Extracting figure data from kernel traces.

use desim::Tracer;
use simkernel::{AppId, KTrace};

use crate::series::Series;

/// Builds the total-runnable-processes-over-time series (the system-wide
/// curve of Figure 5) from a kernel trace.
pub fn runnable_total_series(trace: &Tracer<KTrace>, label: impl Into<String>) -> Series {
    runnable_series(trace, label, |_, _, total| Some(total))
}

/// Builds one application's runnable-processes-over-time series (the
/// per-application curves of Figure 5).
pub fn runnable_app_series(trace: &Tracer<KTrace>, app: AppId, label: impl Into<String>) -> Series {
    runnable_series(trace, label, |a, app_count, _| {
        (a == app).then_some(app_count)
    })
}

/// A step series from the trace's `Runnable` events, starting at (0, 0):
/// `pick` takes `(app, app_count, total)` and returns the count to plot,
/// or `None` to skip the event. Same-timestamp updates collapse to the
/// final value.
fn runnable_series(
    trace: &Tracer<KTrace>,
    label: impl Into<String>,
    pick: impl Fn(AppId, u32, u32) -> Option<u32>,
) -> Series {
    let mut s = Series::new(label);
    s.push(0.0, 0.0);
    for e in trace.events() {
        let KTrace::Runnable {
            app,
            app_count,
            total,
        } = e.kind
        else {
            continue;
        };
        let Some(count) = pick(app, app_count, total) else {
            continue;
        };
        let (x, y) = (e.time.as_secs_f64(), f64::from(count));
        match s.points.last_mut() {
            Some(last) if last.0 == x => last.1 = y,
            _ => s.push(x, y),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimDur, SimTime};

    fn runnable(app: u32, app_count: u32, total: u32) -> KTrace {
        KTrace::Runnable {
            app: AppId(app),
            app_count,
            total,
        }
    }

    #[test]
    fn total_series_tracks_trace() {
        let mut tr = Tracer::new(true);
        tr.emit(SimTime::ZERO + SimDur::from_secs(1), runnable(0, 1, 1));
        tr.emit(SimTime::ZERO + SimDur::from_secs(2), runnable(1, 1, 2));
        tr.emit(SimTime::ZERO + SimDur::from_secs(3), runnable(0, 0, 1));
        let s = runnable_total_series(&tr, "total");
        assert_eq!(
            s.points,
            vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 1.0)]
        );
    }

    #[test]
    fn same_time_updates_collapse() {
        let mut tr = Tracer::new(true);
        let t = SimTime::ZERO + SimDur::from_secs(1);
        tr.emit(t, runnable(0, 1, 1));
        tr.emit(t, runnable(0, 2, 2));
        let s = runnable_total_series(&tr, "total");
        assert_eq!(s.points, vec![(0.0, 0.0), (1.0, 2.0)]);
    }

    #[test]
    fn app_series_filters() {
        let mut tr = Tracer::new(true);
        tr.emit(SimTime::ZERO + SimDur::from_secs(1), runnable(0, 1, 1));
        tr.emit(SimTime::ZERO + SimDur::from_secs(2), runnable(1, 5, 6));
        let s = runnable_app_series(&tr, AppId(1), "app1");
        assert_eq!(s.points, vec![(0.0, 0.0), (2.0, 5.0)]);
    }
}
