//! Report assembly for instrumented runs: the cycle-breakdown table, the
//! combined Perfetto timeline (kernel dispatches + threads-package worker
//! events + controller sweeps), and the machine-readable JSON report.
//!
//! Everything here consumes a [`ScenarioRun`] from
//! [`crate::run_scenario_instrumented`]; the `report` binary wires the
//! pieces together for the Figure-4 scenario.

use desim::SimTime;
use metrics::perfetto::AppTimeline;
use metrics::{table, JsonValue, TraceBuilder};
use procctl::SweepRecord;
use simkernel::{AppId, Cycles};

use crate::scenario::{ScenarioRun, SERVER_APP};

/// Trace-process id for the controller's tracks (the machine uses
/// [`metrics::perfetto::MACHINE_PID`], applications use
/// [`app_trace_pid`]).
pub const CONTROLLER_PID: u64 = 2;

/// Trace-process id for an application's worker tracks.
pub fn app_trace_pid(app: AppId) -> u64 {
    100 + u64::from(app.0)
}

fn us(t: SimTime) -> f64 {
    t.since(SimTime::ZERO).nanos() as f64 / 1_000.0
}

fn secs(d: desim::SimDur) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// The display name for an application id in a run: the launch's kind for
/// scenario apps, `server` for the control daemon.
pub fn app_label(run: &ScenarioRun, app: AppId) -> String {
    if app == SERVER_APP {
        return "server".to_string();
    }
    run.apps
        .iter()
        .find(|a| a.app == app)
        .map_or_else(|| format!("app {}", app.0), |a| a.kind.name().to_string())
}

/// Renders the per-application cycle breakdown as an ASCII table, followed
/// by the idle line and the conservation check. Every processor-cycle of
/// the run appears in exactly one cell of the `work`/`spin`/`refill`/
/// `switch` columns or in the idle line; the final line shows both sides
/// of the invariant.
pub fn cycle_table(run: &ScenarioRun) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (app, c) in run.ledger.apps() {
        rows.push(vec![
            app_label(run, app),
            secs(c.work),
            secs(c.spin),
            secs(c.refill),
            secs(c.switch),
            secs(c.busy()),
            secs(c.suspended),
        ]);
    }
    let t = run.ledger.total;
    rows.push(vec![
        "total".to_string(),
        secs(t.work),
        secs(t.spin),
        secs(t.refill),
        secs(t.switch),
        secs(t.busy()),
        secs(t.suspended),
    ]);
    let mut out = table(
        &[
            "app",
            "work(s)",
            "spin(s)",
            "refill(s)",
            "switch(s)",
            "busy(s)",
            "susp(s)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "idle: {} s\naccounted {} s == {} cpus x {} s elapsed: {}\n",
        secs(run.ledger.idle),
        secs(run.ledger.accounted()),
        run.ledger.num_cpus,
        secs(run.ledger.elapsed),
        if run.ledger.conserved() {
            "conserved"
        } else {
            "NOT CONSERVED"
        },
    ));
    out
}

/// Converts one run into a full Perfetto timeline: the kernel's per-CPU
/// dispatch tracks, one trace-process per application with a track per
/// worker (rendered from the workers' events by
/// [`metrics::perfetto::sched_timeline`], the native pools' renderer),
/// and the controller's sweep instants.
pub fn scenario_trace(run: &ScenarioRun) -> TraceBuilder {
    let mut b = metrics::perfetto::kernel_trace(run.kernel.trace(), run.ledger.num_cpus, run.end);
    let apps: Vec<AppTimeline> = (run.apps.iter())
        .map(|a| AppTimeline {
            pid: app_trace_pid(a.app),
            name: format!("app {} ({})", a.app.0, a.kind.name()),
            events: a.spans.clone(),
        })
        .collect();
    metrics::perfetto::sched_timeline(&mut b, &apps);
    if !run.sweeps.is_empty() {
        b.process_name(CONTROLLER_PID, "controller");
        b.thread_name(CONTROLLER_PID, 0, "partition sweeps");
        for s in &run.sweeps {
            let targets: Vec<JsonValue> = s
                .apps
                .iter()
                .map(|a| {
                    JsonValue::obj([
                        ("root", JsonValue::uint(u64::from(a.root.0))),
                        ("runnable", JsonValue::uint(u64::from(a.runnable))),
                        ("target", JsonValue::uint(u64::from(a.target))),
                    ])
                })
                .collect();
            b.instant(
                "partition sweep",
                "control",
                CONTROLLER_PID,
                0,
                us(s.time),
                JsonValue::obj([
                    ("pool", JsonValue::uint(u64::from(s.pool))),
                    (
                        "uncontrolled_runnable",
                        JsonValue::uint(u64::from(s.uncontrolled_runnable)),
                    ),
                    ("apps", JsonValue::Arr(targets)),
                ]),
            );
            b.counter(
                "uncontrolled runnable",
                CONTROLLER_PID,
                us(s.time),
                "runnable",
                f64::from(s.uncontrolled_runnable),
            );
        }
    }
    b
}

fn cycles_json(c: &Cycles) -> JsonValue {
    JsonValue::obj([
        ("work_s", JsonValue::num(c.work.as_secs_f64())),
        ("spin_s", JsonValue::num(c.spin.as_secs_f64())),
        ("refill_s", JsonValue::num(c.refill.as_secs_f64())),
        ("switch_s", JsonValue::num(c.switch.as_secs_f64())),
        ("busy_s", JsonValue::num(c.busy().as_secs_f64())),
        ("suspended_s", JsonValue::num(c.suspended.as_secs_f64())),
    ])
}

fn sweeps_json(sweeps: &[SweepRecord]) -> JsonValue {
    JsonValue::Arr(
        sweeps
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("time_s", JsonValue::num(s.time.as_secs_f64())),
                    ("pool", JsonValue::uint(u64::from(s.pool))),
                    (
                        "uncontrolled_runnable",
                        JsonValue::uint(u64::from(s.uncontrolled_runnable)),
                    ),
                    (
                        "apps",
                        JsonValue::Arr(
                            s.apps
                                .iter()
                                .map(|a| {
                                    JsonValue::obj([
                                        ("root", JsonValue::uint(u64::from(a.root.0))),
                                        ("processes", JsonValue::uint(u64::from(a.processes))),
                                        ("runnable", JsonValue::uint(u64::from(a.runnable))),
                                        ("weight", JsonValue::num(a.weight)),
                                        ("prev_target", JsonValue::uint(u64::from(a.prev_target))),
                                        ("target", JsonValue::uint(u64::from(a.target))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

/// One run's worth of the JSON report.
pub fn run_json(run: &ScenarioRun) -> JsonValue {
    let apps: Vec<JsonValue> = run
        .apps
        .iter()
        .map(|a| {
            let ledger_cycles = run.ledger.per_app.get(&a.app).copied().unwrap_or_default();
            JsonValue::obj([
                ("app", JsonValue::uint(u64::from(a.app.0))),
                ("kind", JsonValue::str(a.kind.name())),
                ("start_s", JsonValue::num(a.start.as_secs_f64())),
                ("wall_s", JsonValue::num(a.wall)),
                ("cycles", cycles_json(&ledger_cycles)),
                ("spans", JsonValue::uint(a.spans.len() as u64)),
                (
                    "convergence",
                    JsonValue::Arr(
                        a.convergence
                            .iter()
                            .map(|&(at, lat)| {
                                JsonValue::obj([
                                    ("at_s", JsonValue::num(at.as_secs_f64())),
                                    ("latency_s", JsonValue::num(lat.as_secs_f64())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    JsonValue::obj([
        (
            "elapsed_s",
            JsonValue::num(run.ledger.elapsed.as_secs_f64()),
        ),
        ("idle_s", JsonValue::num(run.ledger.idle.as_secs_f64())),
        ("conserved", JsonValue::Bool(run.ledger.conserved())),
        ("total", cycles_json(&run.ledger.total)),
        ("apps", JsonValue::Arr(apps)),
        ("sweeps", sweeps_json(&run.sweeps)),
    ])
}

/// The full machine-readable report: scenario parameters, the two runs,
/// and the headline deltas (how much spin-wait and cache-refill process
/// control eliminated).
pub fn report_json(
    scenario: JsonValue,
    uncontrolled: &ScenarioRun,
    controlled: &ScenarioRun,
) -> JsonValue {
    let spin_delta =
        uncontrolled.ledger.total.spin.as_secs_f64() - controlled.ledger.total.spin.as_secs_f64();
    let refill_delta = uncontrolled.ledger.total.refill.as_secs_f64()
        - controlled.ledger.total.refill.as_secs_f64();
    JsonValue::obj([
        ("scenario", scenario),
        ("uncontrolled", run_json(uncontrolled)),
        ("controlled", run_json(controlled)),
        (
            "deltas",
            JsonValue::obj([
                ("spin_saved_s", JsonValue::num(spin_delta)),
                ("refill_saved_s", JsonValue::num(refill_delta)),
            ]),
        ),
    ])
}
