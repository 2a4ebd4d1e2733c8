//! The bridge from the native runtime's flight recorder to the metrics
//! crate's multi-process Perfetto merge.
//!
//! `native-rt` deliberately does not depend on `metrics`' trace types
//! (the recorder must stay a leaf the pool can call from its hot path),
//! so the event vocabulary exists twice: [`native_rt::EventKind`] on the
//! recording side, [`metrics::perfetto::SchedEventKind`] on the
//! rendering side. This module is the one place the two meet — it
//! converts drained ring/journal batches into [`AppTimeline`]s (the chaos
//! drill's merged fleet timeline is built from them) and runs the
//! scripted in-process two-application drill that `tests/observability.rs`
//! checks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use metrics::perfetto::{sched_timeline, AppTimeline, SchedEvent, SchedEventKind};
use metrics::TraceBuilder;
use native_rt::{Controller, EventKind, Pool, PoolConfig, TraceEvent};

/// One recorder event kind, in the metrics crate's vocabulary.
pub fn convert_kind(kind: EventKind) -> SchedEventKind {
    match kind {
        EventKind::JobStart => SchedEventKind::JobStart,
        EventKind::JobEnd => SchedEventKind::JobEnd,
        EventKind::Steal => SchedEventKind::Steal,
        EventKind::Park => SchedEventKind::Park,
        EventKind::Unpark => SchedEventKind::Unpark,
        EventKind::Suspend => SchedEventKind::Suspend,
        EventKind::Resume => SchedEventKind::Resume,
        EventKind::CpuSet => SchedEventKind::CpuSet,
        EventKind::Epoch => SchedEventKind::Epoch,
        EventKind::Retier => SchedEventKind::Retier,
        EventKind::Decision => SchedEventKind::Decision,
        EventKind::Stall => SchedEventKind::Stall,
        EventKind::Recovered => SchedEventKind::Recovered,
        EventKind::CrCull => SchedEventKind::CrCull,
        EventKind::CrPromote => SchedEventKind::CrPromote,
    }
}

/// One recorder event, converted field-for-field.
pub fn convert_event(e: &TraceEvent) -> SchedEvent {
    SchedEvent {
        ts_ns: e.ts_ns,
        worker: e.worker,
        kind: convert_kind(e.kind),
        arg: e.arg,
    }
}

/// A drained batch as one application's timeline.
pub fn app_timeline(pid: u64, name: &str, events: &[TraceEvent]) -> AppTimeline {
    AppTimeline {
        pid,
        name: name.to_string(),
        events: events.iter().map(convert_event).collect(),
    }
}

/// Runs the scripted two-application multiprogrammed drill and returns
/// the merged fleet timeline: two work-stealing pools share one
/// [`Controller`], the controller halves and restores the partition
/// mid-run (recorded as [`EventKind::Decision`] instants on each
/// application's decision track), and each pool's flight recorder is
/// drained into its own trace process. `jobs` is the per-application
/// job count; the job body sleeps ~50µs so suspends actually bite.
pub fn fleet_drill(jobs: usize) -> TraceBuilder {
    let cpus = 4usize;
    let nworkers = 4usize;
    let controller = Controller::new(cpus, Duration::from_millis(5));
    let mut pools: Vec<Arc<Pool>> = Vec::new();
    let mut decisions: Vec<Vec<TraceEvent>> = Vec::new();
    let note_decisions = |pools: &[Arc<Pool>], decisions: &mut Vec<Vec<TraceEvent>>| {
        for (pool, log) in pools.iter().zip(decisions.iter_mut()) {
            log.push(TraceEvent {
                ts_ns: native_rt::trace::now_ns(),
                worker: 0,
                kind: EventKind::Decision,
                arg: pool.target() as u32,
            });
        }
    };
    // Register the applications one at a time: the first briefly owns
    // the whole machine (target = nworkers), then the second's arrival
    // halves the partition — so the timeline shows a real target change,
    // not a flat line.
    for _ in 0..2 {
        let mut pc = PoolConfig::new(nworkers);
        // Headroom over the drill's event volume: nothing drops, so
        // the merged file is the complete history.
        pc.trace_capacity = 8 * jobs.max(64);
        pools.push(Arc::new(Pool::with_config(&controller, pc)));
        decisions.push(Vec::new());
        note_decisions(&pools, &mut decisions);
    }

    let done = Arc::new(AtomicUsize::new(0));
    for pool in &pools {
        for _ in 0..jobs {
            let d = Arc::clone(&done);
            pool.execute(move || {
                std::thread::sleep(Duration::from_micros(50));
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
    }
    for pool in &pools {
        pool.wait_idle();
    }
    note_decisions(&pools, &mut decisions);
    assert_eq!(done.load(Ordering::Relaxed), 2 * jobs, "drill lost jobs");

    let apps: Vec<AppTimeline> = pools
        .iter()
        .zip(decisions)
        .enumerate()
        .map(|(i, (pool, decisions))| {
            let mut events = pool.recorder().drain(usize::MAX);
            events.extend(decisions);
            app_timeline(i as u64 + 1, &format!("pool {}", i + 1), &events)
        })
        .collect();
    sched_timeline(&apps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_converts_field_for_field() {
        for (i, &kind) in EventKind::ALL.iter().enumerate() {
            let e = TraceEvent {
                ts_ns: 1_000 + i as u64,
                worker: i as u16,
                kind,
                arg: 7 * i as u32,
            };
            let s = convert_event(&e);
            assert_eq!(s.ts_ns, e.ts_ns);
            assert_eq!(s.worker, e.worker);
            assert_eq!(s.arg, e.arg);
            assert_eq!(convert_kind(kind) as u8 as usize, i, "{kind:?} order");
        }
    }

    #[test]
    fn fleet_drill_merges_two_apps_with_decision_instants() {
        let doc = fleet_drill(128).finish().render();
        let back = metrics::json::parse(&doc).expect("valid trace json");
        let events = back
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents");
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("process_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str())
            })
            .collect();
        assert!(
            names.contains(&"pool 1") && names.contains(&"pool 2"),
            "{names:?}"
        );
        // Decision instants land on each app's dedicated decision track.
        for pid in [1.0, 2.0] {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(|v| v.as_str()) == Some("i")
                        && e.get("name").and_then(|v| v.as_str()) == Some("decision")
                        && e.get("pid").and_then(|v| v.as_num()) == Some(pid)
                }),
                "no decision instant for pid {pid}"
            );
        }
        // Real work happened and was recorded: job slices on both apps.
        for pid in [1.0, 2.0] {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(|v| v.as_str()) == Some("X")
                        && e.get("name").and_then(|v| v.as_str()) == Some("job")
                        && e.get("pid").and_then(|v| v.as_num()) == Some(pid)
                }),
                "no job slices for pid {pid}"
            );
        }
    }
}
