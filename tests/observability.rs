//! Observability-pipeline tests: cycle-ledger conservation on the
//! Figure-4 scenario, the control-on vs control-off waste deltas, the
//! server's decision log, convergence measurement, the flight-recorder
//! latency derivations (native and simulated wake-to-run), the merged
//! fleet timeline, the simulated CR lock's events on the shared renderer,
//! and the validity of the Perfetto/JSON exports.

use bench::{
    fig4_launches, report_json, run_scenario_instrumented, run_scenario_instrumented_tuned,
    scenario_trace, ScenarioRun, SimEnv,
};
use desim::{SimDur, SimTime};
use metrics::{json, JsonValue};
use workloads::Presets;

const LIMIT: SimTime = SimTime(3_600 * 1_000_000_000);

fn quick_env() -> SimEnv {
    SimEnv {
        trace: true,
        ..SimEnv::default()
    }
}

fn run(poll: Option<SimDur>) -> ScenarioRun {
    let presets = Presets::tiny();
    let launches = fig4_launches(8, SimDur::from_millis(500));
    run_scenario_instrumented(&quick_env(), &presets, &launches, poll, LIMIT)
}

#[test]
fn fig4_ledger_conserves_and_control_reduces_waste() {
    let un = run(None);
    let ctl = run(Some(SimDur::from_millis(250)));

    // Every processor-cycle of both runs is attributed to exactly one
    // category: the table's columns sum to cpus × elapsed.
    assert!(un.ledger.conserved(), "uncontrolled ledger leaks cycles");
    assert!(ctl.ledger.conserved(), "controlled ledger leaks cycles");
    for r in [&un, &ctl] {
        for a in &r.apps {
            let c = r.ledger.per_app.get(&a.app).expect("app in ledger");
            assert!(c.work.nanos() > 0, "{:?} did no work", a.kind);
        }
    }

    // The paper's mechanism: process control eliminates spin-wait and
    // cache-refill waste.
    let waste = |r: &ScenarioRun| r.ledger.total.spin + r.ledger.total.refill;
    assert!(
        waste(&ctl) < waste(&un),
        "control did not reduce spin+refill: {:?} vs {:?}",
        waste(&ctl),
        waste(&un)
    );

    // Control artifacts exist exactly when control ran.
    assert!(un.sweeps.is_empty());
    assert!(!ctl.sweeps.is_empty(), "no partition sweeps recorded");
    assert!(ctl.sweeps.iter().any(|s| !s.apps.is_empty()));
    assert!(un.apps.iter().all(|a| a.convergence.is_empty()));
    assert!(
        ctl.apps.iter().any(|a| !a.convergence.is_empty()),
        "no poll-to-convergence latency observed"
    );
    for a in &ctl.apps {
        assert!(!a.spans.is_empty(), "{:?} recorded no spans", a.kind);
        for &(at, lat) in &a.convergence {
            assert!(at >= a.start);
            assert!(lat.nanos() > 0);
        }
    }

    // The JSON report round-trips through the strict parser and carries
    // the conservation verdicts.
    let doc = report_json(
        JsonValue::obj([("quick", JsonValue::Bool(true))]),
        &un,
        &ctl,
    );
    let back = json::parse(&doc.render_pretty()).expect("report is valid JSON");
    for mode in ["uncontrolled", "controlled"] {
        let m = back.get(mode).expect("mode present");
        assert_eq!(m.get("conserved"), Some(&JsonValue::Bool(true)), "{mode}");
        assert_eq!(
            m.get("apps").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(3)
        );
    }
    let spin_saved = back
        .get("deltas")
        .and_then(|d| d.get("spin_saved_s"))
        .and_then(|v| v.as_num())
        .expect("spin delta");
    let un_spin = un.ledger.total.spin.as_secs_f64();
    let ctl_spin = ctl.ledger.total.spin.as_secs_f64();
    assert!((spin_saved - (un_spin - ctl_spin)).abs() < 1e-9);
}

#[test]
fn perfetto_export_is_valid_json_with_consistent_timestamps() {
    let ctl = run(Some(SimDur::from_millis(250)));
    let doc = scenario_trace(&ctl).finish().render();
    let back = json::parse(&doc).expect("trace is valid JSON");
    let events = back
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(
        events.len() > 100,
        "suspiciously small trace: {}",
        events.len()
    );

    // Every event is well-formed: a phase, a non-negative timestamp, and
    // (for complete slices) a non-negative duration.
    let mut slices: std::collections::BTreeMap<(u64, u64, String), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut phases: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for e in events {
        let ph = e
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("ph")
            .to_string();
        let ts = e.get("ts").and_then(|v| v.as_num()).expect("ts");
        assert!(ts >= 0.0, "negative timestamp {ts}");
        if ph == "X" {
            let dur = e.get("dur").and_then(|v| v.as_num()).expect("dur");
            assert!(dur >= 0.0, "negative duration {dur}");
            let pid = e.get("pid").and_then(|v| v.as_num()).expect("pid") as u64;
            let tid = e.get("tid").and_then(|v| v.as_num()).expect("tid") as u64;
            let cat = e
                .get("cat")
                .and_then(|v| v.as_str())
                .expect("cat")
                .to_string();
            slices.entry((pid, tid, cat)).or_default().push((ts, dur));
        }
        phases.insert(ph);
    }
    for need in ["M", "X", "C"] {
        assert!(phases.contains(need), "no {need} events in trace");
    }

    // Slices on one track (same pid/tid/category) never overlap: sorted
    // by start, each begins at or after the previous one's end.
    for ((pid, tid, cat), mut sl) in slices {
        sl.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ts"));
        for w in sl.windows(2) {
            let (ts0, dur0) = w[0];
            let (ts1, _) = w[1];
            assert!(
                ts1 >= ts0 + dur0 - 1e-6,
                "overlapping slices on pid {pid} tid {tid} cat {cat}: \
                 [{ts0}, {}) then {ts1}",
                ts0 + dur0
            );
        }
    }
}

/// The simulated CR queue lock's culls and promotions reach the rendered
/// timeline through the worker-event kinds the native gate uses, and the
/// one renderer turns every logged task pickup into one job slice.
#[test]
fn sim_cr_lock_events_reach_the_timeline() {
    use native_rt::EventKind;

    let presets = Presets::tiny();
    let launches = fig4_launches(8, SimDur::from_millis(500));
    let cr = Some(uthreads::CrParams::fixed(2));
    let run = run_scenario_instrumented_tuned(&quick_env(), &presets, &launches, None, cr, LIMIT);
    let logged = |kind: EventKind| {
        (run.apps.iter())
            .flat_map(|a| &a.spans)
            .filter(|e| e.kind == kind)
            .count()
    };
    let doc = scenario_trace(&run).finish().render();
    let back = json::parse(&doc).expect("trace is valid JSON");
    let events = back
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    let rendered = |ph: &str, name: &str| {
        (events.iter())
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(ph))
            .filter(|e| e.get("name").and_then(|v| v.as_str()) == Some(name))
            .count()
    };
    let culls = rendered("i", "cr-cull");
    let promotions = rendered("i", "cr-promote");
    assert!(culls > 0, "no cr-cull instant in the timeline");
    assert!(promotions > 0, "no cr-promote instant in the timeline");
    assert_eq!(culls, logged(EventKind::CrCull));
    assert_eq!(promotions, logged(EventKind::CrPromote));
    assert_eq!(rendered("X", "job"), logged(EventKind::JobStart));
}

/// The native flight recorder's derived wake-to-run latency is sane on a
/// real suspend/resume cycle: present once a squeezed pool is released,
/// strictly positive, and bounded by the test's own wall-clock.
#[test]
fn native_wake_to_run_latency_is_plausible() {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    let slot = Arc::new(native_rt::TargetSlot::new(4));
    let pool = native_rt::Pool::with_slot(Arc::clone(&slot), 4, false);
    let start = std::time::Instant::now();
    slot.target.store(1, Ordering::Release);
    for _ in 0..200 {
        pool.execute(|| std::thread::sleep(Duration::from_micros(50)));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while pool.metrics().suspends == 0 {
        assert!(std::time::Instant::now() < deadline, "no worker suspended");
        std::thread::sleep(Duration::from_millis(2));
    }
    slot.target.store(4, Ordering::Release);
    for _ in 0..200 {
        pool.execute(|| std::thread::sleep(Duration::from_micros(50)));
    }
    pool.wait_idle();
    let elapsed_ns = start.elapsed().as_nanos() as u64;

    let snap = pool.stats();
    let h = &snap.histograms["wake_to_run_ns"];
    assert!(h.count >= 1, "no wake-to-run samples after resume");
    assert!(h.mean() > 0.0, "wake-to-run mean must be positive");
    let p99 = h.quantile(0.99).expect("p99 with samples");
    assert!(
        p99 <= elapsed_ns,
        "wake-to-run p99 ({p99} ns) exceeds the whole run ({elapsed_ns} ns)"
    );
}

/// The simulation's mirror of the same metric: on a controlled Figure-4
/// run, `uthreads::wake_to_run` pairs each resume with that worker's
/// next task pickup, and every latency is positive and within the run.
#[test]
fn sim_wake_to_run_mirrors_native_histogram() {
    let ctl = run(Some(SimDur::from_millis(250)));
    let mut total = 0usize;
    for a in &ctl.apps {
        for (pid, woke, lat) in uthreads::wake_to_run(&a.spans) {
            assert!(lat.nanos() > 0, "zero wake-to-run for {pid:?}");
            assert!(woke >= a.start, "wake before app launch");
            total += 1;
        }
    }
    assert!(
        total >= 1,
        "controlled run produced no wake-to-run samples (no resumes?)"
    );
}

/// Runs the scripted two-application multiprogrammed drill and returns
/// the merged fleet timeline: two work-stealing pools share one
/// [`native_rt::Controller`], the second's arrival halves the partition
/// (recorded as `Decision` instants on each application's decision
/// track), and each pool's flight recorder is drained into its own trace
/// process. `jobs` is the per-application job count; the job body sleeps
/// ~50 µs so suspends actually bite.
fn fleet_drill(jobs: usize) -> metrics::TraceBuilder {
    use metrics::perfetto::{sched_timeline, AppTimeline};
    use native_rt::{Controller, EventKind, Pool, PoolConfig, TraceEvent};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let (cpus, nworkers) = (4, 4);
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
        // Headroom over the drill's event volume: nothing drops, so the
        // merged file is the complete history.
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
            AppTimeline {
                pid: i as u64 + 1,
                name: format!("pool {}", i + 1),
                events,
            }
        })
        .collect();
    let mut b = metrics::TraceBuilder::new();
    sched_timeline(&mut b, &apps);
    b
}

/// The merged fleet timeline (two pools, one controller, decision
/// instants) is valid JSON, names both applications, shows job slices
/// and decision instants for each, and every track's slices are
/// time-ordered and non-overlapping — the "merged traces never go
/// backwards" guarantee of the single clock origin.
#[test]
fn fleet_timeline_is_valid_and_monotonic_per_track() {
    let doc = fleet_drill(64).finish().render();
    let back = json::parse(&doc).expect("fleet timeline is valid JSON");
    let events = back
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents");

    let mut pids = std::collections::BTreeSet::new();
    let mut names = std::collections::BTreeSet::new();
    let mut slices: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut decisions = std::collections::BTreeSet::new();
    let mut jobs = std::collections::BTreeSet::new();
    for e in events {
        let ts = e.get("ts").and_then(|v| v.as_num()).unwrap_or(0.0);
        assert!(ts.is_finite() && ts >= 0.0, "bad timestamp {ts}");
        let pid = e.get("pid").and_then(|v| v.as_num()).expect("pid") as u64;
        let tid = e.get("tid").and_then(|v| v.as_num()).unwrap_or(0.0) as u64;
        let name = e.get("name").and_then(|v| v.as_str());
        pids.insert(pid);
        match e.get("ph").and_then(|v| v.as_str()) {
            Some("X") => {
                let dur = e.get("dur").and_then(|v| v.as_num()).expect("dur");
                assert!(dur >= 0.0, "negative duration {dur}");
                slices.entry((pid, tid)).or_default().push((ts, dur));
                if name == Some("job") {
                    jobs.insert(pid);
                }
            }
            Some("i") if name == Some("decision") => {
                decisions.insert(pid);
            }
            Some("M") if name == Some("process_name") => {
                let label = e.get("args").and_then(|a| a.get("name"));
                names.insert(label.and_then(|v| v.as_str()).expect("process label"));
            }
            _ => {}
        }
    }
    assert_eq!(
        pids.into_iter().collect::<Vec<_>>(),
        vec![1, 2],
        "expected exactly the two drill applications"
    );
    assert_eq!(
        names.into_iter().collect::<Vec<_>>(),
        vec!["pool 1", "pool 2"],
        "process names"
    );
    assert_eq!(
        decisions.into_iter().collect::<Vec<_>>(),
        vec![1, 2],
        "both applications need decision instants"
    );
    // Real work happened and was recorded: job slices on both apps.
    assert_eq!(
        jobs.into_iter().collect::<Vec<_>>(),
        vec![1, 2],
        "both applications need job slices"
    );
    for ((pid, tid), mut sl) in slices {
        sl.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ts"));
        for w in sl.windows(2) {
            let (ts0, dur0) = w[0];
            let (ts1, _) = w[1];
            assert!(
                ts1 >= ts0 + dur0 - 1e-6,
                "track pid {pid} tid {tid} goes backwards: [{ts0}, {}) then {ts1}",
                ts0 + dur0
            );
        }
    }
}
