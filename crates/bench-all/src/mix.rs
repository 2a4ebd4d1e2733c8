//! `native_mix`: the paper's metric on real threads. One mix is the real
//! `procctl-serverd` binary (`--cpus P`) plus three application
//! *processes* (fft, sort, matmul — real pids, which is what `UdsClient`
//! registers) started a fixed stagger apart, each a default
//! `PoolConfig::new(P)` pool (3× overcommit at peak) whose target is fed
//! by `SupervisedClient::spawn_poller` every 100 ms. Makespan runs from
//! the first application's start to the last one's exit. With control
//! off there is no server and every pool keeps a fixed `TargetSlot::new(P)`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use native_rt::{Pool, PoolConfig, SupervisedClient, SupervisorConfig, TargetSlot};

use crate::apps::{self, Kind};
use crate::ctl::{parse_changes, render_changes, stitch, Monitor};
use crate::harness::{
    kv_f64, median, nproc, parse_kv, spawn_serverd, wall_ns, ChildGuard, Ctx, Outcome, RunDir,
    Tracer,
};

const APP_POLL: Duration = Duration::from_millis(100);
/// Mixes per run: one with control, one without. Each is sized to fill
/// half of `--seconds`.
const MIXES: usize = 2;
/// `apps::generate` scale units per second of one mix's nominal length:
/// three applications of `s` units (0.05 s of one CPU each) on two CPUs
/// need 0.075·s seconds plus the stagger tail, so 10.5 units per second
/// fill ~0.9 of the mix's share. Fixed, never calibrated at run time.
const SCALE_PER_MIX_SECOND: f64 = 10.5;
/// Start-to-start stagger as a share of the mix's nominal length (the
/// issue's 2 s of a 15–25 s window).
const STAGGER_SHARE: f64 = 0.1;

/// The application process: generate inputs, report ready, wait for
/// "go", then register (control on), run the job list on a fresh pool,
/// verify, say goodbye and print what happened.
pub fn mixapp_main(kind: Kind, sock: Option<&str>, seed: u64, scale: f64, trace: bool) -> i32 {
    let workers = nproc();
    let inputs = apps::generate(kind, seed, scale);
    println!("ready digest={:016x}", apps::digest(&inputs));
    let mut line = String::new();
    if std::io::stdin().read_line(&mut line).unwrap_or(0) == 0 {
        return 2; // the driver went away before the start signal
    }
    let tracer = Tracer::new(trace);
    let start_ns = wall_ns();
    let slot = Arc::new(TargetSlot::new(workers));
    let pool = Arc::new(Pool::with_slot_config(
        Arc::clone(&slot),
        PoolConfig::new(workers),
    ));
    let mut registered_ns = 0;
    let poller = sock.map(|sock| {
        let sup =
            SupervisedClient::new(SupervisorConfig::new(sock, workers as u32), pool.registry());
        registered_ns = wall_ns();
        sup.spawn_poller(Arc::clone(&slot), APP_POLL, false)
    });
    let monitor = Monitor::start(Arc::clone(&pool));
    let t = Instant::now();
    let result = apps::run_on_pool(&inputs, &pool, &tracer);
    let run_s = t.elapsed().as_secs_f64();
    let bye_ns = wall_ns();
    drop(poller); // sends BYE: the decision the other applications react to
    let changes = monitor.finish();
    let stats = pool.stats();
    let events = pool.recorder().drain(usize::MAX);
    let c = |k: &str| stats.counters.get(k).copied().unwrap_or(0);
    let conserved = c("jobs_run") == result.jobs
        && c("local_hits") + c("injector_pops") + c("steals") == c("jobs_run");
    drop(pool);
    let end_ns = wall_ns();
    tracer.add_recorder_events(&events);
    for e in tracer.events(std::process::id()) {
        println!("event {e}");
    }
    print!("{}", render_changes(&changes));
    println!(
        "result kind={} jobs={} failed={} conserved={} run_s={run_s:.6} start_ns={start_ns} end_ns={end_ns} registered_ns={registered_ns} bye_ns={bye_ns} suspends={} resumes={} reconnects={} degraded_enters={} poll_errors={} spans={} recorder_events={}",
        kind.name(),
        result.jobs,
        result.failed,
        u8::from(conserved),
        c("suspends"),
        c("resumes"),
        c("reconnects"),
        c("degraded_enters"),
        c("poll_errors"),
        tracer.span_count(),
        events.len(),
    );
    i32::from(result.failed > 0 || !conserved)
}

/// What one mix produced.
#[derive(Default)]
struct MixRun {
    makespan_s: f64,
    /// The makespan corrected for how crowded the cores were meanwhile.
    corrected_s: f64,
    jobs: u64,
    /// Decision instants (registrations and goodbyes) and each
    /// application's logged target changes.
    decisions: Vec<u64>,
    changes: Vec<Vec<(u64, u64)>>,
    reconnects: f64,
    degraded: f64,
    suspends: f64,
    child_spans: f64,
}

/// How one mix is run.
struct MixPlan {
    control: bool,
    /// Children record their own spans and drain their recorders.
    trace: bool,
    /// `apps::generate` scale of each application.
    scale: f64,
    /// Start-to-start distance of the applications.
    stagger: Duration,
}

/// One mix, ready to start. Dropped in field order: applications, then
/// the server, then the directory that holds its socket.
struct MixRig {
    children: Vec<ChildGuard>,
    serverd: Option<ChildGuard>,
    _dir: RunDir,
}

/// Sets one mix up: the server (with control) and three applications
/// that have generated their inputs and wait for "go".
fn mix_setup(plan: &MixPlan, ctx: &Ctx) -> std::io::Result<MixRig> {
    let Ctx {
        seed,
        tracer,
        deadline,
        ..
    } = *ctx;
    let dir = RunDir::create("mix")?;
    let sock = dir.join("s.sock");
    let sock_arg = sock.to_string_lossy().into_owned();
    let serverd = plan
        .control
        .then(|| spawn_serverd(&sock, nproc(), tracer, deadline))
        .transpose()?;
    let me = std::env::current_exe()?;
    let mut children = Vec::new();
    for (i, kind) in Kind::ALL.into_iter().enumerate() {
        let _s = tracer.span("harness", "spawn_app", i as u64);
        let mut args: Vec<String> = vec![
            "--role".into(),
            "mixapp".into(),
            "--kind".into(),
            kind.name().into(),
            "--seed".into(),
            seed.to_string(),
            "--scale".into(),
            plan.scale.to_string(),
            "--trace".into(),
            u8::from(plan.trace).to_string(),
        ];
        if plan.control {
            args.extend(["--sock".into(), sock_arg.clone()]);
        }
        children.push(ChildGuard::spawn(kind.name(), &me, &args)?);
    }
    for child in &mut children {
        // Input generation happens before "ready": it is set-up.
        child.wait_for_line("ready")?;
    }
    Ok(MixRig {
        children,
        serverd,
        _dir: dir,
    })
}

/// Runs a mix that has been set up.
fn run_mix(rig: MixRig, plan: &MixPlan, ctx: &Ctx, out: &mut Outcome) -> std::io::Result<MixRun> {
    let MixRig {
        mut children,
        serverd,
        _dir,
    } = rig;
    let MixPlan {
        control, stagger, ..
    } = *plan;
    let Ctx {
        tracer, deadline, ..
    } = *ctx;

    // Measured: first "go" to last exit.
    let at_go = ctx.now();
    let go_ns = wall_ns();
    let t0 = Instant::now();
    for (i, child) in children.iter_mut().enumerate() {
        std::thread::sleep((stagger * i as u32).saturating_sub(t0.elapsed()));
        let _s = tracer.span("harness", "start_app", i as u64);
        child.send_line("go")?;
    }
    let mut run = MixRun::default();
    let mut last_end = go_ns;
    for child in &mut children {
        let _s = tracer.span("harness", "app_exit", 0);
        let name = child.name.clone();
        // `finish` closes stdin; the application already got its "go".
        let (ok, stdout) = child.finish(deadline);
        out.check(ok, format!("{name} exited non-zero"));
        let Some(kv) = stdout
            .lines()
            .find_map(|l| l.strip_prefix("result "))
            .map(parse_kv)
        else {
            out.check(false, format!("{name} printed no result"));
            continue;
        };
        out.attempted += kv_f64(&kv, "jobs") as u64;
        out.fail(
            kv_f64(&kv, "failed") as u64,
            format!("{name}: wrong kernel results"),
        );
        out.check(
            kv_f64(&kv, "conserved") == 1.0,
            format!("{name}: jobs not conserved"),
        );
        run.jobs += kv_f64(&kv, "jobs") as u64;
        last_end = last_end.max(kv_f64(&kv, "end_ns") as u64);
        if control {
            run.decisions.push(kv_f64(&kv, "registered_ns") as u64);
            run.decisions.push(kv_f64(&kv, "bye_ns") as u64);
        }
        run.changes.push(parse_changes(&stdout));
        out.child_events.extend(
            stdout
                .lines()
                .filter_map(|l| l.strip_prefix("event "))
                .map(str::to_string),
        );
        run.reconnects += kv_f64(&kv, "reconnects");
        run.degraded += kv_f64(&kv, "degraded_enters") + kv_f64(&kv, "poll_errors");
        run.suspends += kv_f64(&kv, "suspends");
        run.child_spans += kv_f64(&kv, "spans");
    }
    run.makespan_s = last_end.saturating_sub(go_ns) as f64 / 1e9;
    run.corrected_s = ctx.corrected_secs(at_go, at_go + run.makespan_s);
    run.decisions.sort_unstable();
    if let Some(mut s) = serverd {
        out.check(
            s.terminate(deadline),
            "procctl-serverd did not shut down cleanly",
        );
    }
    out.check(run.degraded == 0.0, "an application's supervisor degraded");
    Ok(run)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let Ctx {
        seed,
        seconds,
        quick,
        tracer,
        ..
    } = *ctx;
    let mut out = Outcome::default();
    let mix_seconds = seconds / MIXES as f64;
    // A smoke run may be an unoptimised build: a few jobs per application.
    let scale = mix_seconds * SCALE_PER_MIX_SECOND * if quick { 0.1 } else { 1.0 };
    let stagger = Duration::from_secs_f64(mix_seconds * STAGGER_SHARE);
    // The paper's comparison: the same mix with control, then without.
    // In the traced run the children trace themselves, and a third mix
    // (control on, children untraced) prices that.
    let traced = tracer.enabled();
    let mut plan = vec![(true, traced), (false, traced)];
    if traced {
        plan.push((true, false));
    }
    let mut on = Vec::new();
    let mut off = Vec::new();
    let mut reference = None;
    for (control, trace) in plan {
        let _s = tracer.span("harness", "mix", u64::from(control));
        let plan = MixPlan {
            control,
            trace,
            scale,
            stagger,
        };
        // The first mix's set-up is repeated so that `setup_s` is a
        // median; the later ones add one sample each.
        let rig = if out.setups.is_empty() {
            ctx.set_up(&mut out, || mix_setup(&plan, ctx))
        } else {
            ctx.timed_setup(&mut out, || mix_setup(&plan, ctx))
                .map_err(|e| out.check(false, format!("set-up failed: {e}")))
                .ok()
        };
        let Some(rig) = rig else {
            return out;
        };
        match run_mix(rig, &plan, ctx, &mut out) {
            Ok(run) if trace != traced => reference = Some(run),
            Ok(run) if control => on.push(run),
            Ok(run) => off.push(run),
            Err(e) => out.check(false, format!("mix failed: {e}")),
        }
    }
    let (Some(ctl), Some(noctl)) = (on.first(), off.first()) else {
        return out;
    };
    // Both sides of the comparison are end-to-end values: the makespan
    // under control is what the system as shipped delivers, the job rate
    // without control is the baseline it is compared against.
    out.latency_p50_us = ctl.corrected_s * 1e6;
    out.throughput_per_s = noctl.jobs as f64 / noctl.corrected_s.max(1e-9);
    out.set("mix.makespan_ctl_s", ctl.makespan_s);
    out.set("mix.makespan_noctl_s", noctl.makespan_s);
    out.set(
        "mix.ctl_speedup",
        noctl.makespan_s / ctl.makespan_s.max(1e-9),
    );
    let mut effects = crate::ctl::Effects::default();
    for r in &on {
        let e = stitch(&r.decisions, &r.changes, false);
        effects.to_seen_ms.extend(e.to_seen_ms);
        effects.to_active_ms.extend(e.to_active_ms);
    }
    out.set(
        "effect.decision_to_seen_ms_p50",
        median(&effects.to_seen_ms),
    );
    out.set(
        "effect.seen_to_active_ms_p50",
        median(&effects.to_active_ms),
    );
    out.set(
        "supervise.reconnects",
        on.iter().map(|r| r.reconnects).sum(),
    );
    out.set(
        "supervise.degraded_enters",
        on.iter().map(|r| r.degraded).sum(),
    );
    out.set("pool.suspends", on.iter().map(|r| r.suspends).sum());
    if let Some(r) = &reference {
        out.set(
            "harness.trace_overhead_ratio",
            ctl.makespan_s / r.makespan_s.max(1e-9) - 1.0,
        );
    }
    out.set(
        "harness.spans",
        tracer.span_count() as f64 + on.iter().chain(&off).map(|r| r.child_spans).sum::<f64>(),
    );

    if traced {
        // Each application's job list on one thread, no pool: the plain
        // baseline (their sum over P is the floor of any makespan).
        for kind in Kind::ALL {
            let inputs = apps::generate(kind, seed, scale);
            let _s = tracer.span("workloads", "solo", kind as u64);
            let secs = apps::run_solo(&inputs);
            out.set(
                match kind {
                    Kind::Fft => "workloads.fft_solo_s",
                    Kind::Sort => "workloads.sort_solo_s",
                    Kind::Matmul => "workloads.matmul_solo_s",
                },
                secs,
            );
        }
    }
    out
}
