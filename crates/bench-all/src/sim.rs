//! `sim_fig4`: the simulation stack alone (`desim` → `machine` →
//! `simkernel` → `uthreads` → `procctl::Server`, task graphs from
//! `workloads::sim`) on the paper's Figure-4 scenario — fft, gauss and
//! matmul, 16 processes each on 16 processors, started 10 s apart, 6 s
//! polls — with process control on and off, over seed-jittered variants.
//! No native thread is spawned.

use std::time::Instant;

use desim::{SimDur, SimTime};
use procctl::{Server, ServerConfig};
use simkernel::policy::FifoRoundRobin;
use simkernel::{AppId, Kernel, KernelConfig};
use uthreads::{launch, AppSpec, ThreadsApp, ThreadsConfig};
use workloads::{fft_spec, gauss_spec, matmul_spec, Presets};

use crate::harness::{median, quantile, Ctx, Meter, Outcome, Rng, Tracer};

/// Variants per measured second: one variant (control on + off at
/// `Presets::paper()`) takes ~0.15 s of host time on the 2-CPU container
/// this was calibrated on, so 10 s of run hold 60 of them. Fixed, never
/// calibrated at run time: both sides of an A/B simulate the same inputs.
const VARIANTS_PER_SECOND: f64 = 6.0;

const CPUS: usize = 16;
const NPROCS: u32 = 16;
const POLL: SimDur = SimDur(6_000_000_000);
const STAGGER_S: f64 = 10.0;
/// Simulated-time cap of one run: an application still unfinished then
/// is a failed operation.
const LIMIT: SimTime = SimTime(3_600 * 1_000_000_000);
/// Application id of the control server daemon.
const SERVER_APP: AppId = AppId(999);

/// One seed-jittered instance of the Figure-4 scenario.
#[derive(Clone)]
pub struct Variant {
    /// Start times of gauss and matmul (fft starts at 0).
    starts: [SimTime; 2],
    presets: Presets,
}

/// The input plan: `n` variants with staggers jittered by ±1 s and task
/// counts by ±10 % around `Presets::paper()` (`Presets::tiny()` under
/// `--quick`).
pub fn plan(seed: u64, n: usize, quick: bool) -> Vec<Variant> {
    let mut rng = Rng::new(seed).fork(0x51);
    (0..n)
        .map(|_| {
            let mut presets = if quick {
                Presets::tiny()
            } else {
                Presets::paper()
            };
            let mut jitter = |base: u32| (f64::from(base) * rng.range_f64(0.9, 1.1)).round() as u32;
            presets.matmul.tasks = jitter(presets.matmul.tasks);
            presets.fft.phases = jitter(presets.fft.phases);
            presets.gauss.steps = jitter(presets.gauss.steps);
            let s1 = rng.range_f64(STAGGER_S - 1.0, STAGGER_S + 1.0);
            let s2 = s1 + rng.range_f64(STAGGER_S - 1.0, STAGGER_S + 1.0);
            Variant {
                starts: [
                    SimTime::ZERO + SimDur::from_secs_f64(s1),
                    SimTime::ZERO + SimDur::from_secs_f64(s2),
                ],
                presets,
            }
        })
        .collect()
}

/// The plan as text, one line per variant: what the determinism test
/// compares byte for byte.
pub fn plan_text(plan: &[Variant]) -> String {
    plan.iter()
        .map(|v| {
            format!(
                "gauss_at={} matmul_at={} matmul_tasks={} fft_phases={} gauss_steps={}\n",
                v.starts[0].nanos(),
                v.starts[1].nanos(),
                v.presets.matmul.tasks,
                v.presets.fft.phases,
                v.presets.gauss.steps
            )
        })
        .collect()
}

/// Exact simulated statistics of one or more runs, summed.
#[derive(Default, Clone)]
struct SimStats {
    makespan_s: f64,
    steps: u64,
    work: u64,
    spin: u64,
    refill: u64,
    switch: u64,
    preemptions: u64,
    dispatches: u64,
    tasks_run: u64,
    suspends: u64,
    resumes: u64,
    polls: u64,
    idle_spin_s: f64,
    converge_s: Vec<f64>,
    sweeps: u64,
}

impl SimStats {
    fn add(&mut self, o: &SimStats) {
        self.makespan_s += o.makespan_s;
        self.steps += o.steps;
        self.work += o.work;
        self.spin += o.spin;
        self.refill += o.refill;
        self.switch += o.switch;
        self.preemptions += o.preemptions;
        self.dispatches += o.dispatches;
        self.tasks_run += o.tasks_run;
        self.suspends += o.suspends;
        self.resumes += o.resumes;
        self.polls += o.polls;
        self.idle_spin_s += o.idle_spin_s;
        self.converge_s.extend_from_slice(&o.converge_s);
        self.sweeps += o.sweeps;
    }

    fn busy(&self) -> f64 {
        (self.work + self.spin + self.refill + self.switch).max(1) as f64
    }
}

struct RunResult {
    stats: SimStats,
    /// Host seconds of the counted step loop, and of the meter's bursts
    /// during this run (those inside the loop are left out of
    /// `step_host_s`).
    step_host_s: f64,
    meter_s: f64,
    spec_build_s: f64,
    ok: bool,
    why: String,
}

/// Steps between two bursts of the contention meter (~8 ms of stepping
/// for a ~0.2 ms burst). No thread may be spawned here, so the workload
/// samples the meter itself.
const METER_EVERY_STEPS: u64 = 40_000;

/// Runs one variant with control on or off.
fn run_one(
    v: &Variant,
    control: bool,
    tracer: &Tracer,
    meter: Option<&Meter>,
    op: u64,
) -> RunResult {
    let mut kernel = {
        let _s = tracer.span("simkernel", "kernel_new", op);
        let cfg = KernelConfig::multimax().with_cpus(CPUS).without_trace();
        Kernel::new(cfg, Box::new(FifoRoundRobin::new()))
    };
    let server = control.then(|| {
        let _s = tracer.span("procctl", "spawn_server", op);
        let port = kernel.create_port();
        let server = Server::new(ServerConfig::new(port));
        let log = server.decision_log();
        kernel.spawn_root(SERVER_APP, 64, Box::new(server));
        (port, log)
    });
    let mut spec_build_s = 0.0;
    let mut build = |f: &dyn Fn() -> AppSpec| {
        let _s = tracer.span("workloads", "scenario_build", op);
        let t = Instant::now();
        let spec = f();
        spec_build_s += t.elapsed().as_secs_f64();
        spec
    };
    let specs = [
        (SimTime::ZERO, build(&|| fft_spec(&v.presets.fft))),
        (v.starts[0], build(&|| gauss_spec(&v.presets.gauss))),
        (v.starts[1], build(&|| matmul_spec(&v.presets.matmul))),
    ];
    let mut apps: Vec<ThreadsApp> = Vec::new();
    let mut ids = Vec::new();
    for (i, (start, spec)) in specs.into_iter().enumerate() {
        {
            let _s = tracer.span("simkernel", "run_until", op);
            kernel.run_until(start);
        }
        let mut cfg = ThreadsConfig::new(NPROCS);
        if let Some((port, _)) = &server {
            cfg = cfg.with_control(*port, POLL);
        }
        let id = AppId(i as u32);
        let _s = tracer.span("uthreads", "launch", op);
        apps.push(launch(&mut kernel, id, cfg, spec));
        ids.push(id);
    }
    // The benchmark's own step loop, so that events are counted.
    let mut steps = 0u64;
    // One burst before the clock starts (short runs get none inside),
    // then one every `METER_EVERY_STEPS`, left out of the timed total.
    let sample = || meter.map_or(0.0, Meter::sample);
    let before_s = sample();
    let mut meter_s = 0.0;
    let t = Instant::now();
    {
        let _s = tracer.span("simkernel", "step_loop", op);
        while !kernel.apps_done(&ids) {
            if kernel.now() > LIMIT || !kernel.step() {
                break;
            }
            steps += 1;
            if steps % METER_EVERY_STEPS == 0 {
                meter_s += sample();
            }
        }
    }
    let step_host_s = t.elapsed().as_secs_f64() - meter_s;
    let finished = kernel.apps_done(&ids);
    let ledger = {
        let _s = tracer.span("simkernel", "cycle_ledger", op);
        kernel.cycle_ledger()
    };
    let mut stats = SimStats {
        steps,
        makespan_s: ids
            .iter()
            .filter_map(|&id| kernel.app_done_time(id))
            .max()
            .map_or(0.0, |t| t.since(SimTime::ZERO).as_secs_f64()),
        work: ledger.total.work.nanos(),
        spin: ledger.total.spin.nanos(),
        refill: ledger.total.refill.nanos(),
        switch: ledger.total.switch.nanos(),
        sweeps: server.as_ref().map_or(0, |(_, log)| log.len() as u64),
        ..SimStats::default()
    };
    for (id, app) in ids.iter().zip(&apps) {
        let ks = kernel.app_stats(*id);
        stats.preemptions += ks.preemptions;
        stats.dispatches += ks.dispatches;
        let m = app.metrics();
        stats.tasks_run += m.tasks_run;
        stats.suspends += m.suspends;
        stats.resumes += m.resumes;
        stats.polls += m.polls;
        stats.idle_spin_s += m.idle_spin.as_secs_f64();
        stats
            .converge_s
            .extend(app.convergence().iter().map(|(_, d)| d.as_secs_f64()));
    }
    let (ok, why) = if !finished {
        (false, "an application did not finish before the limit")
    } else if !ledger.conserved() {
        (false, "cycle ledger not conserved")
    } else {
        (true, "")
    };
    RunResult {
        stats,
        step_host_s,
        meter_s: before_s + meter_s,
        spec_build_s,
        ok,
        why: why.to_string(),
    }
}

/// Generates the plan and runs one full warm-up variant: the set-up.
fn setup(seed: u64, n: usize, quick: bool) -> Vec<Variant> {
    let plan = plan(seed, n, quick);
    let quiet = Tracer::new(false);
    run_one(&plan[0], true, &quiet, None, 0);
    run_one(&plan[0], false, &quiet, None, 0);
    plan
}

pub fn run(ctx: &Ctx) -> Outcome {
    let Ctx {
        seed,
        seconds,
        quick,
        tracer,
        meter,
        ..
    } = *ctx;
    let n = ((seconds * VARIANTS_PER_SECOND).round() as usize).max(1);
    let mut out = Outcome::default();
    let variants = ctx
        .set_up(&mut out, || {
            if let Some(m) = meter {
                m.sample();
            }
            Ok(setup(seed, n, quick))
        })
        .expect("this set-up cannot fail");

    let mut on = SimStats::default();
    let mut off = SimStats::default();
    // Per variant (control on + off): host ms of the whole variant and
    // events per host second of its two counted step loops, as measured
    // and corrected for how crowded the core was meanwhile.
    let mut variant_ms = Vec::with_capacity(n);
    let mut rates = Vec::with_capacity(n);
    let mut raw_variant_ms = Vec::with_capacity(n);
    let mut raw_rates = Vec::with_capacity(n);
    let mut step_s = 0.0;
    let mut spec_build_s = 0.0;
    for (i, v) in variants.iter().enumerate() {
        let (t, at) = (Instant::now(), ctx.now());
        let _s = tracer.span("harness", "variant", i as u64);
        let mut part = (0u64, 0.0f64);
        let mut meter_s = 0.0;
        for (control, total) in [(true, &mut on), (false, &mut off)] {
            let r = run_one(v, control, tracer, meter, i as u64);
            out.check(r.ok, format!("variant {i} control={control}: {}", r.why));
            total.add(&r.stats);
            part.0 += r.stats.steps;
            part.1 += r.step_host_s;
            meter_s += r.meter_s;
            spec_build_s += r.spec_build_s;
        }
        let slowdown = ctx.slowdown(at, ctx.now());
        step_s += part.1;
        raw_rates.push(part.0 as f64 / part.1.max(1e-9));
        raw_variant_ms.push((t.elapsed().as_secs_f64() - meter_s) * 1e3);
        rates.push(raw_rates[i] * slowdown);
        variant_ms.push(raw_variant_ms[i] / slowdown);
    }

    let steps = on.steps + off.steps;
    out.throughput_per_s = median(&rates);
    out.latency_p50_us = median(&variant_ms) * 1e3;
    out.set("sim.events_per_s", median(&raw_rates));
    out.set("sim.variant_p50_ms", median(&raw_variant_ms));
    out.set("sim.makespan_s", on.makespan_s);
    out.set("sim.ctl_speedup", off.makespan_s / on.makespan_s.max(1e-9));
    // 80th percentile: with 60 variants, the highest that leaves ten
    // samples beyond it.
    out.set("sim.variant_tail_ms", quantile(&raw_variant_ms, 0.8));
    out.set("simkernel.ns_per_step", step_s * 1e9 / steps.max(1) as f64);
    out.set("simkernel.steps", steps as f64);
    out.set("simkernel.work_share", on.work as f64 / on.busy());
    out.set("simkernel.spin_share", on.spin as f64 / on.busy());
    out.set("simkernel.refill_share", on.refill as f64 / on.busy());
    out.set("simkernel.switch_share", on.switch as f64 / on.busy());
    out.set("simkernel.spin_share_noctl", off.spin as f64 / off.busy());
    out.set(
        "simkernel.preemptions",
        (on.preemptions + off.preemptions) as f64,
    );
    out.set(
        "simkernel.dispatches",
        (on.dispatches + off.dispatches) as f64,
    );
    out.set("uthreads.tasks_run", (on.tasks_run + off.tasks_run) as f64);
    out.set("uthreads.suspends", on.suspends as f64);
    out.set("uthreads.resumes", on.resumes as f64);
    out.set("uthreads.polls", on.polls as f64);
    out.set("uthreads.idle_spin_s", on.idle_spin_s + off.idle_spin_s);
    out.set("uthreads.converge_p50_s", median(&on.converge_s));
    out.set("procctl.sim_sweeps", on.sweeps as f64);
    out.set(
        "workloads.sim_spec_build_ms",
        spec_build_s * 1e3 / (2 * n) as f64,
    );
    out
}
