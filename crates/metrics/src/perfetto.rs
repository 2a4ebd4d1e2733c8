//! Chrome trace-event export (loadable in Perfetto / `chrome://tracing`).
//!
//! [`TraceBuilder`] assembles trace events in the JSON "trace event format"
//! — complete slices (`ph: "X"`), instants (`"i"`), counters (`"C"`), and
//! metadata (`"M"`) — with timestamps in microseconds, and renders them via
//! [`crate::json`]. [`kernel_trace`] converts a `simkernel` trace into a
//! per-processor timeline: one track per CPU whose slices are the dispatched
//! processes, counter tracks for runnable-process counts, and instants for
//! the paper's pathologies (spin starts, preempt-while-spinning, lock
//! hand-offs). [`sched_timeline`] renders worker events — the
//! [`TraceEvent`] and [`EventKind`] of the dependency-free `ctl-core`
//! crate, which the `native-rt` flight recorder and the simulated threads
//! package both log — from several applications as one multi-process
//! timeline. Neither runtime depends on this crate, and this crate does not
//! depend on `native-rt`.

use ctl_core::{EventKind, TraceEvent};
use desim::{SimTime, Tracer};
use simkernel::KTrace;

use crate::json::JsonValue;

/// Builds a Chrome trace-event JSON document.
#[derive(Clone, Debug, Default)]
pub struct TraceBuilder {
    events: Vec<JsonValue>,
}

fn base(
    ph: &str,
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
) -> Vec<(String, JsonValue)> {
    vec![
        ("name".into(), JsonValue::str(name)),
        ("cat".into(), JsonValue::str(cat)),
        ("ph".into(), JsonValue::str(ph)),
        ("pid".into(), JsonValue::uint(pid)),
        ("tid".into(), JsonValue::uint(tid)),
        ("ts".into(), JsonValue::Num(ts_us)),
    ]
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names a trace process (a top-level track group).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        let mut e = base("M", "process_name", "__metadata", pid, 0, 0.0);
        e.push((
            "args".into(),
            JsonValue::obj([("name", JsonValue::str(name))]),
        ));
        self.events.push(JsonValue::Obj(e));
    }

    /// Names a trace thread (one track).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        let mut e = base("M", "thread_name", "__metadata", pid, tid, 0.0);
        e.push((
            "args".into(),
            JsonValue::obj([("name", JsonValue::str(name))]),
        ));
        self.events.push(JsonValue::Obj(e));
    }

    /// Adds a complete slice (`ph: "X"`): an interval `[ts, ts + dur)` on a
    /// track, with optional `args` (pass [`JsonValue::Null`] for none).
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: JsonValue,
    ) {
        let mut e = base("X", name, cat, pid, tid, ts_us);
        e.push(("dur".into(), JsonValue::Num(dur_us)));
        if !matches!(args, JsonValue::Null) {
            e.push(("args".into(), args));
        }
        self.events.push(JsonValue::Obj(e));
    }

    /// Adds a thread-scoped instant event (`ph: "i"`).
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        args: JsonValue,
    ) {
        let mut e = base("i", name, cat, pid, tid, ts_us);
        e.push(("s".into(), JsonValue::str("t")));
        if !matches!(args, JsonValue::Null) {
            e.push(("args".into(), args));
        }
        self.events.push(JsonValue::Obj(e));
    }

    /// Adds a counter sample (`ph: "C"`): the value of `series` at `ts`.
    pub fn counter(&mut self, name: &str, pid: u64, ts_us: f64, series: &str, value: f64) {
        let mut e = base("C", name, "counter", pid, 0, ts_us);
        e.push((
            "args".into(),
            JsonValue::obj([(series, JsonValue::Num(value))]),
        ));
        self.events.push(JsonValue::Obj(e));
    }

    /// Finishes the document: `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
    pub fn finish(self) -> JsonValue {
        JsonValue::obj([
            ("traceEvents", JsonValue::Arr(self.events)),
            ("displayTimeUnit", JsonValue::str("ms")),
        ])
    }
}

/// Trace-process id used for the simulated machine's tracks.
pub const MACHINE_PID: u64 = 1;

fn us(t: SimTime) -> f64 {
    t.since(SimTime::ZERO).nanos() as f64 / 1_000.0
}

/// Converts a kernel trace into a Perfetto timeline.
///
/// Track layout: trace-process [`MACHINE_PID`] ("machine") has one thread
/// per CPU; each dispatch opens a slice named after the process (and its
/// application, when the spawn was retained in the trace) which closes at
/// the next preemption, exit, or re-dispatch of that CPU — or at `end` if
/// still on-processor. Runnable counts become counter tracks, and spin
/// starts, preempt-while-spinning, and lock hand-offs become instants.
pub fn kernel_trace(trace: &Tracer<KTrace>, num_cpus: usize, end: SimTime) -> TraceBuilder {
    let mut b = TraceBuilder::new();
    b.process_name(MACHINE_PID, "machine");
    for cpu in 0..num_cpus {
        b.thread_name(MACHINE_PID, cpu as u64, &format!("cpu {cpu}"));
    }

    // pid -> app id, learned from retained Spawn events.
    let mut app_of = std::collections::BTreeMap::new();
    // Open slice per cpu: (sim pid, start time).
    let mut open: Vec<Option<(u32, SimTime)>> = vec![None; num_cpus];
    // Where each sim pid currently runs (for attributing instants).
    let mut cpu_of = std::collections::BTreeMap::new();

    let slice_name =
        |app_of: &std::collections::BTreeMap<u32, u32>, pid: u32| match app_of.get(&pid) {
            Some(app) => format!("P{pid} (app {app})"),
            None => format!("P{pid}"),
        };
    let close = |b: &mut TraceBuilder,
                 app_of: &std::collections::BTreeMap<u32, u32>,
                 cpu: usize,
                 slot: &mut Option<(u32, SimTime)>,
                 now: SimTime| {
        if let Some((pid, start)) = slot.take() {
            b.complete(
                &slice_name(app_of, pid),
                "dispatch",
                MACHINE_PID,
                cpu as u64,
                us(start),
                us(now) - us(start),
                JsonValue::Null,
            );
        }
    };

    for e in trace.events() {
        let t = e.time;
        match &e.kind {
            KTrace::Spawn { pid, app } => {
                app_of.insert(pid.0, app.0);
            }
            KTrace::Dispatch { cpu, pid, .. } => {
                let c = cpu.0;
                if c < num_cpus {
                    close(&mut b, &app_of, c, &mut open[c], t);
                    open[c] = Some((pid.0, t));
                }
                cpu_of.insert(pid.0, cpu.0);
            }
            KTrace::Preempt { cpu, pid } => {
                let c = cpu.0;
                if c < num_cpus {
                    close(&mut b, &app_of, c, &mut open[c], t);
                }
                cpu_of.remove(&pid.0);
            }
            KTrace::Exit { pid, app: _ } => {
                if let Some(c) = cpu_of.remove(&pid.0) {
                    if c < num_cpus {
                        close(&mut b, &app_of, c, &mut open[c], t);
                    }
                }
            }
            KTrace::Runnable {
                app,
                app_count,
                total,
            } => {
                b.counter(
                    &format!("runnable app {}", app.0),
                    MACHINE_PID,
                    us(t),
                    "runnable",
                    *app_count as f64,
                );
                b.counter(
                    "runnable total",
                    MACHINE_PID,
                    us(t),
                    "runnable",
                    *total as f64,
                );
            }
            KTrace::SpinStart { pid, lock, holder } => {
                let tid = cpu_of.get(&pid.0).copied().unwrap_or(0) as u64;
                b.instant(
                    "spin start",
                    "lock",
                    MACHINE_PID,
                    tid,
                    us(t),
                    JsonValue::obj([
                        ("pid", JsonValue::uint(pid.0 as u64)),
                        ("lock", JsonValue::uint(lock.0 as u64)),
                        ("holder", JsonValue::uint(holder.0 as u64)),
                    ]),
                );
            }
            KTrace::PreemptWhileSpinning {
                cpu,
                pid,
                lock,
                holder,
            } => {
                b.instant(
                    "preempt while spinning",
                    "lock",
                    MACHINE_PID,
                    cpu.0 as u64,
                    us(t),
                    JsonValue::obj([
                        ("pid", JsonValue::uint(pid.0 as u64)),
                        ("lock", JsonValue::uint(lock.0 as u64)),
                        (
                            "holder",
                            holder.map_or(JsonValue::Null, |h| JsonValue::uint(h.0 as u64)),
                        ),
                    ]),
                );
            }
            KTrace::LockHandoff {
                lock,
                from,
                to,
                waited,
            } => {
                let tid = cpu_of.get(&to.0).copied().unwrap_or(0) as u64;
                b.instant(
                    "lock handoff",
                    "lock",
                    MACHINE_PID,
                    tid,
                    us(t),
                    JsonValue::obj([
                        ("lock", JsonValue::uint(lock.0 as u64)),
                        (
                            "from",
                            from.map_or(JsonValue::Null, |p| JsonValue::uint(p.0 as u64)),
                        ),
                        ("to", JsonValue::uint(to.0 as u64)),
                        ("waited_us", JsonValue::Num(waited.nanos() as f64 / 1_000.0)),
                    ]),
                );
            }
            KTrace::AppDone { app } => {
                b.instant(
                    &format!("app {} done", app.0),
                    "app",
                    MACHINE_PID,
                    0,
                    us(t),
                    JsonValue::Null,
                );
            }
        }
    }
    for (c, slot) in open.iter_mut().enumerate() {
        close(&mut b, &app_of, c, slot, end);
    }
    b
}

/// Thread id of the per-application "server decisions" track in a
/// [`sched_timeline`] document — far above any plausible worker index.
pub const DECISION_TID: u64 = 9_999;

/// One application's slice of the fleet: its worker events (a native
/// flight recorder's drains, or a simulated threads package's log) plus
/// any server-journal entries for its pid (which carry the
/// [`EventKind::Decision`] kind) under one trace process.
#[derive(Clone, Debug)]
pub struct AppTimeline {
    /// Trace-process id (the real pid, or a synthetic one per pool).
    pub pid: u64,
    /// Track-group label shown in the UI.
    pub name: String,
    /// Events in any order; the merge sorts per application.
    pub events: Vec<TraceEvent>,
}

/// Appends per-application worker-event streams to `b` as a
/// multi-process Perfetto timeline: one trace process per application,
/// one thread per worker whose job/suspension slices are reconstructed
/// from the event stream (a slice closes at the next event on its worker
/// that ends it, the same next-event-boundary scheme as [`kernel_trace`];
/// a [`EventKind::JobEnd`] puts its `jobs` on the slice it closes), a
/// slice ending at each [`EventKind::LockWait`], instants for steals,
/// parks, polls and control observations, and the server's partition
/// decisions as instants on a dedicated [`DECISION_TID`] track per
/// application. Slices still open at an application's last event close
/// there. The native pools and the simulated threads package both render
/// through here. A `wait_us`, `wake_us` or `culled_us` arg of 0 is left
/// out: producers write 0 for a duration they did not measure (every
/// simulated one; a native unsampled pickup or unknown signal time), and
/// a native duration under 1 µs rounds to 0, so a 0 there is no
/// measurement.
///
/// Timestamps must share one clock origin per producing process (the
/// flight recorder guarantees this); each track's events come out in
/// nondecreasing timestamp order.
pub fn sched_timeline(b: &mut TraceBuilder, apps: &[AppTimeline]) {
    use std::collections::{BTreeMap, BTreeSet};
    use EventKind::*;

    enum Open {
        Job { start_ns: u64, wait_us: u32 },
        Suspended { start_ns: u64 },
    }

    /// `(key, arg)` pairs as an args object, without the zero durations
    /// no producer measured; no args at all when none is left.
    fn args_of<'a>(pairs: impl IntoIterator<Item = (&'a str, u32)>) -> JsonValue {
        const ZERO_IS_UNMEASURED: [&str; 3] = ["wait_us", "wake_us", "culled_us"];
        let pairs: Vec<_> = (pairs.into_iter())
            .filter(|&(k, v)| v > 0 || !ZERO_IS_UNMEASURED.contains(&k))
            .map(|(k, v)| (k, JsonValue::uint(u64::from(v))))
            .collect();
        if pairs.is_empty() {
            JsonValue::Null
        } else {
            JsonValue::obj(pairs)
        }
    }

    let us = |ns: u64| ns as f64 / 1_000.0;
    for app in apps {
        b.process_name(app.pid, &app.name);
        let mut events: Vec<&TraceEvent> = app.events.iter().collect();
        events.sort_by_key(|e| (e.ts_ns, e.worker));
        let mut named: BTreeSet<u64> = BTreeSet::new();
        let mut open: BTreeMap<u16, Open> = BTreeMap::new();
        let end_ns = events.last().map_or(0, |e| e.ts_ns);
        let close = |b: &mut TraceBuilder, w: u16, slot, now_ns: u64, jobs: Option<u32>| {
            let (name, cat, start_ns, args) = match slot {
                Some(Open::Job { start_ns, wait_us }) => {
                    let jobs = jobs.map(|n| ("jobs", n));
                    let args = args_of(std::iter::once(("wait_us", wait_us)).chain(jobs));
                    ("job", "job", start_ns, args)
                }
                Some(Open::Suspended { start_ns }) => {
                    ("suspended", "control", start_ns, JsonValue::Null)
                }
                None => return,
            };
            let dur = us(now_ns.saturating_sub(start_ns));
            b.complete(name, cat, app.pid, w as u64, us(start_ns), dur, args);
        };
        for e in &events {
            let (tid, track_label) = if e.kind == Decision {
                (DECISION_TID, "server decisions".to_string())
            } else {
                (e.worker as u64, format!("worker {}", e.worker))
            };
            if named.insert(tid) {
                b.thread_name(app.pid, tid, &track_label);
            }
            // These five end the worker's open slice, and a pickup or a
            // suspend opens the next one. A lock wait is a slice that ends
            // at its timestamp. Every other kind is an instant: its name,
            // category and the key its `arg` is shown under.
            if matches!(e.kind, JobStart | JobEnd | Park | Suspend | Resume) {
                let jobs = (e.kind == JobEnd).then_some(e.arg);
                close(b, e.worker, open.remove(&e.worker), e.ts_ns, jobs);
            }
            let (name, cat, key) = match e.kind {
                JobStart => {
                    let (start_ns, wait_us) = (e.ts_ns, e.arg);
                    open.insert(e.worker, Open::Job { start_ns, wait_us });
                    continue;
                }
                Suspend => {
                    open.insert(e.worker, Open::Suspended { start_ns: e.ts_ns });
                    continue;
                }
                JobEnd => continue,
                LockWait => {
                    if e.arg > 0 {
                        let start_ns = e.ts_ns.saturating_sub(u64::from(e.arg));
                        let (ts, dur) = (us(start_ns), us(e.ts_ns - start_ns));
                        let name = "queue-lock wait";
                        b.complete(name, "lock", app.pid, tid, ts, dur, JsonValue::Null);
                    }
                    continue;
                }
                Steal => ("steal", "steal", Some("tier")),
                Park => ("park", "idle", None),
                Unpark => ("unpark", "idle", None),
                Resume => ("resume", "control", Some("wake_us")),
                CpuSet => ("cpu-set change", "control", Some("generation")),
                Epoch => ("new target", "control", Some("target")),
                Retier => ("retier", "control", Some("home_cpu")),
                Decision => ("decision", "control", Some("target")),
                Stall => ("stall", "watchdog", Some("stale_ms")),
                Recovered => ("recovered", "watchdog", Some("episode_ms")),
                CrCull => ("cr-cull", "crlock", Some("culled_us")),
                CrPromote => ("cr-promote", "crlock", Some("active_set")),
                Poll => ("poll", "control", None),
            };
            let args = args_of(key.map(|k| (k, e.arg)));
            b.instant(name, cat, app.pid, tid, us(e.ts_ns), args);
        }
        for (w, slot) in open {
            close(b, w, Some(slot), end_ns, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn builder_emits_well_formed_events() {
        let mut b = TraceBuilder::new();
        b.process_name(1, "machine");
        b.thread_name(1, 0, "cpu 0");
        b.complete("P0", "dispatch", 1, 0, 0.0, 50.0, JsonValue::Null);
        b.instant("spin start", "lock", 1, 0, 10.0, JsonValue::Null);
        b.counter("runnable total", 1, 10.0, "runnable", 3.0);
        assert_eq!(b.len(), 5);
        let doc = b.finish().render();
        let back = json::parse(&doc).unwrap();
        let events = back.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 5);
        for e in events {
            assert!(e.get("ph").is_some());
            assert!(e.get("ts").and_then(|v| v.as_num()).is_some());
        }
        let slice = &events[2];
        assert_eq!(slice.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(slice.get("dur").and_then(|v| v.as_num()), Some(50.0));
    }

    fn timeline(apps: &[AppTimeline]) -> String {
        let mut b = TraceBuilder::new();
        sched_timeline(&mut b, apps);
        b.finish().render()
    }

    fn ev(ts_ns: u64, worker: u16, kind: EventKind, arg: u32) -> TraceEvent {
        TraceEvent {
            ts_ns,
            worker,
            kind,
            arg,
        }
    }

    fn two_app_fleet() -> Vec<AppTimeline> {
        vec![
            AppTimeline {
                pid: 101,
                name: "app-a".into(),
                // Deliberately out of order: the merge must sort.
                events: vec![
                    ev(5_000, 0, EventKind::JobEnd, 2),
                    ev(1_000, 0, EventKind::JobStart, 7),
                    ev(3_000, 0, EventKind::JobStart, 0),
                    ev(2_000, 1, EventKind::Steal, 1),
                    ev(2_500, 0, EventKind::Decision, 4),
                    ev(6_000, 1, EventKind::Suspend, 2),
                    ev(9_000, 1, EventKind::Resume, 42),
                ],
            },
            AppTimeline {
                pid: 202,
                name: "app-b".into(),
                events: vec![
                    ev(500, 3, EventKind::JobStart, 1),
                    ev(700, 3, EventKind::Park, 0),
                    ev(900, 3, EventKind::Unpark, 0),
                    ev(950, 0, EventKind::Decision, 2),
                ],
            },
        ]
    }

    /// The exact document, so a relabelled instant, a moved track or a
    /// dropped arg fails here, not only in a structural check.
    #[test]
    fn sched_timeline_renders_the_pinned_document() {
        let doc = timeline(&two_app_fleet());
        let want = concat!(
            r#"{"traceEvents":[{"name":"process_name","cat":"__metadata","ph":"M","pid":101,"tid":0,"ts":0,"args":{"name":"app-a"}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":101,"tid":0,"ts":0,"args":{"name":"worker 0"}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":101,"tid":1,"ts":0,"args":{"name":"worker 1"}}"#,
            r#",{"name":"steal","cat":"steal","ph":"i","pid":101,"tid":1,"ts":2,"s":"t","args":{"tier":1}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":101,"tid":9999,"ts":0,"args":{"name":"server decisions"}}"#,
            r#",{"name":"decision","cat":"control","ph":"i","pid":101,"tid":9999,"ts":2.5,"s":"t","args":{"target":4}}"#,
            r#",{"name":"job","cat":"job","ph":"X","pid":101,"tid":0,"ts":1,"dur":2,"args":{"wait_us":7}}"#,
            r#",{"name":"job","cat":"job","ph":"X","pid":101,"tid":0,"ts":3,"dur":2,"args":{"jobs":2}}"#,
            r#",{"name":"suspended","cat":"control","ph":"X","pid":101,"tid":1,"ts":6,"dur":3}"#,
            r#",{"name":"resume","cat":"control","ph":"i","pid":101,"tid":1,"ts":9,"s":"t","args":{"wake_us":42}}"#,
            r#",{"name":"process_name","cat":"__metadata","ph":"M","pid":202,"tid":0,"ts":0,"args":{"name":"app-b"}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":202,"tid":3,"ts":0,"args":{"name":"worker 3"}}"#,
            r#",{"name":"job","cat":"job","ph":"X","pid":202,"tid":3,"ts":0.5,"dur":0.2,"args":{"wait_us":1}}"#,
            r#",{"name":"park","cat":"idle","ph":"i","pid":202,"tid":3,"ts":0.7,"s":"t"}"#,
            r#",{"name":"unpark","cat":"idle","ph":"i","pid":202,"tid":3,"ts":0.9,"s":"t"}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":202,"tid":9999,"ts":0,"args":{"name":"server decisions"}}"#,
            r#",{"name":"decision","cat":"control","ph":"i","pid":202,"tid":9999,"ts":0.95,"s":"t","args":{"target":2}}],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(doc, want);
    }

    /// One event of every kind on one worker: each renders its pinned
    /// slice or instant, with its arg under its pinned key.
    #[test]
    fn every_event_kind_renders_its_pinned_slice_or_instant() {
        let app = AppTimeline {
            pid: 7,
            name: "every kind".into(),
            events: (EventKind::ALL.iter().enumerate())
                .map(|(i, &kind)| ev(1_000 * (i as u64 + 1), 0, kind, 10 + i as u32))
                .collect(),
        };
        let doc = timeline(&[app]);
        let want = concat!(
            r#"{"traceEvents":[{"name":"process_name","cat":"__metadata","ph":"M","pid":7,"tid":0,"ts":0,"args":{"name":"every kind"}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":7,"tid":0,"ts":0,"args":{"name":"worker 0"}}"#,
            r#",{"name":"job","cat":"job","ph":"X","pid":7,"tid":0,"ts":1,"dur":1,"args":{"wait_us":10,"jobs":11}}"#,
            r#",{"name":"steal","cat":"steal","ph":"i","pid":7,"tid":0,"ts":3,"s":"t","args":{"tier":12}}"#,
            r#",{"name":"park","cat":"idle","ph":"i","pid":7,"tid":0,"ts":4,"s":"t"}"#,
            r#",{"name":"unpark","cat":"idle","ph":"i","pid":7,"tid":0,"ts":5,"s":"t"}"#,
            r#",{"name":"suspended","cat":"control","ph":"X","pid":7,"tid":0,"ts":6,"dur":1}"#,
            r#",{"name":"resume","cat":"control","ph":"i","pid":7,"tid":0,"ts":7,"s":"t","args":{"wake_us":16}}"#,
            r#",{"name":"cpu-set change","cat":"control","ph":"i","pid":7,"tid":0,"ts":8,"s":"t","args":{"generation":17}}"#,
            r#",{"name":"new target","cat":"control","ph":"i","pid":7,"tid":0,"ts":9,"s":"t","args":{"target":18}}"#,
            r#",{"name":"retier","cat":"control","ph":"i","pid":7,"tid":0,"ts":10,"s":"t","args":{"home_cpu":19}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":7,"tid":9999,"ts":0,"args":{"name":"server decisions"}}"#,
            r#",{"name":"decision","cat":"control","ph":"i","pid":7,"tid":9999,"ts":11,"s":"t","args":{"target":20}}"#,
            r#",{"name":"stall","cat":"watchdog","ph":"i","pid":7,"tid":0,"ts":12,"s":"t","args":{"stale_ms":21}}"#,
            r#",{"name":"recovered","cat":"watchdog","ph":"i","pid":7,"tid":0,"ts":13,"s":"t","args":{"episode_ms":22}}"#,
            r#",{"name":"cr-cull","cat":"crlock","ph":"i","pid":7,"tid":0,"ts":14,"s":"t","args":{"culled_us":23}}"#,
            r#",{"name":"cr-promote","cat":"crlock","ph":"i","pid":7,"tid":0,"ts":15,"s":"t","args":{"active_set":24}}"#,
            r#",{"name":"queue-lock wait","cat":"lock","ph":"X","pid":7,"tid":0,"ts":15.975,"dur":0.025}"#,
            r#",{"name":"poll","cat":"control","ph":"i","pid":7,"tid":0,"ts":17,"s":"t"}],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(doc, want);
    }

    /// A zero duration is one nobody measured: `wait_us`, `wake_us` and
    /// `culled_us` drop out (with the whole args object when nothing is
    /// left), while a zero that means something, such as steal tier 0,
    /// stays.
    #[test]
    fn zero_durations_render_without_their_arg() {
        let app = AppTimeline {
            pid: 7,
            name: "zeros".into(),
            events: vec![
                ev(1_000, 0, EventKind::Steal, 0),
                ev(2_000, 0, EventKind::JobStart, 0),
                ev(3_000, 0, EventKind::CrCull, 0),
                ev(4_000, 0, EventKind::Suspend, 0),
                ev(5_000, 0, EventKind::Resume, 0),
            ],
        };
        let doc = timeline(&[app]);
        let want = concat!(
            r#"{"traceEvents":[{"name":"process_name","cat":"__metadata","ph":"M","pid":7,"tid":0,"ts":0,"args":{"name":"zeros"}}"#,
            r#",{"name":"thread_name","cat":"__metadata","ph":"M","pid":7,"tid":0,"ts":0,"args":{"name":"worker 0"}}"#,
            r#",{"name":"steal","cat":"steal","ph":"i","pid":7,"tid":0,"ts":1,"s":"t","args":{"tier":0}}"#,
            r#",{"name":"cr-cull","cat":"crlock","ph":"i","pid":7,"tid":0,"ts":3,"s":"t"}"#,
            r#",{"name":"job","cat":"job","ph":"X","pid":7,"tid":0,"ts":2,"dur":2}"#,
            r#",{"name":"suspended","cat":"control","ph":"X","pid":7,"tid":0,"ts":4,"dur":1}"#,
            r#",{"name":"resume","cat":"control","ph":"i","pid":7,"tid":0,"ts":5,"s":"t"}],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(doc, want);
    }

    #[test]
    fn sched_timeline_builds_per_app_tracks_with_decision_instants() {
        let doc = timeline(&two_app_fleet());
        let back = json::parse(&doc).unwrap();
        let events = back.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // Both trace processes are named.
        let proc_names: Vec<(f64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("process_name"))
            .map(|e| {
                (
                    e.get("pid").and_then(|v| v.as_num()).unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(|v| v.as_str())
                        .unwrap(),
                )
            })
            .collect();
        assert!(proc_names.contains(&(101.0, "app-a")), "{proc_names:?}");
        assert!(proc_names.contains(&(202.0, "app-b")), "{proc_names:?}");
        // Job slices are reconstructed with next-event boundaries: app-a
        // worker 0 ran jobs [1,3) and [3,5) ms-in-µs.
        let slices: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && e.get("pid").and_then(|v| v.as_num()) == Some(101.0)
                    && e.get("name").and_then(|v| v.as_str()) == Some("job")
            })
            .map(|e| {
                (
                    e.get("ts").and_then(|v| v.as_num()).unwrap(),
                    e.get("dur").and_then(|v| v.as_num()).unwrap(),
                )
            })
            .collect();
        assert_eq!(slices, vec![(1.0, 2.0), (3.0, 2.0)]);
        // The suspension interval became a slice too.
        assert!(events.iter().any(|e| {
            e.get("name").and_then(|v| v.as_str()) == Some("suspended")
                && e.get("ph").and_then(|v| v.as_str()) == Some("X")
                && e.get("dur").and_then(|v| v.as_num()) == Some(3.0)
        }));
        // Server decisions land as instants on the dedicated track of
        // the right application.
        let decisions: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some("decision"))
            .map(|e| {
                (
                    e.get("pid").and_then(|v| v.as_num()).unwrap(),
                    e.get("tid").and_then(|v| v.as_num()).unwrap(),
                )
            })
            .collect();
        assert_eq!(
            decisions,
            vec![(101.0, DECISION_TID as f64), (202.0, DECISION_TID as f64)]
        );
    }

    #[test]
    fn sched_timeline_is_monotonic_per_track() {
        let doc = timeline(&two_app_fleet());
        let back = json::parse(&doc).unwrap();
        let events = back.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // Every timestamp is finite and non-negative (a mixed-origin
        // merge would produce wild values), and within each track the
        // reconstructed slices are ordered and never overlap.
        let mut slices: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
            Default::default();
        for e in events {
            let ph = e.get("ph").and_then(|v| v.as_str()).unwrap();
            if ph == "M" {
                continue;
            }
            let pid = e.get("pid").and_then(|v| v.as_num()).unwrap() as u64;
            let tid = e.get("tid").and_then(|v| v.as_num()).unwrap() as u64;
            let ts = e.get("ts").and_then(|v| v.as_num()).unwrap();
            assert!(ts.is_finite() && ts >= 0.0, "bad ts {ts}");
            if ph == "X" {
                let dur = e.get("dur").and_then(|v| v.as_num()).unwrap();
                assert!(dur.is_finite() && dur >= 0.0, "bad dur {dur}");
                slices.entry((pid, tid)).or_default().push((ts, dur));
            }
        }
        assert!(!slices.is_empty());
        for ((pid, tid), mut track) in slices {
            track.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in track.windows(2) {
                let (ts0, dur0) = pair[0];
                let (ts1, _) = pair[1];
                assert!(
                    ts0 + dur0 <= ts1 + 1e-9,
                    "track ({pid},{tid}) slices overlap: [{ts0}+{dur0}] then {ts1}"
                );
            }
        }
    }
}
