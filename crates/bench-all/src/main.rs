//! `bench_all` — one end-to-end + per-layer benchmark for the sim stack,
//! the native pool and the control plane. See `README.md` beside this
//! crate for the workloads, the metrics and how they interact.
//!
//! ```text
//! bench_all --workload W --seed N --seconds S --trace 0|1   one run (the contract)
//! bench_all [--seed N] [--quick]                            every workload, both runs
//! bench_all --repeat 2 [--seed N]                           A/A self-check
//! bench_all --print-benchmark-json | --print-plan --seed N
//! ```

mod apps;
mod ctl;
mod harness;
mod mix;
mod pool;
mod probes;
mod sim;
mod spec;

use std::collections::BTreeMap;
use std::time::Duration;

use harness::{median, nproc, Ctx, Deadline, Meter, OneCpu, Outcome, Tracer};

/// Wall-clock cap of one workload run (the contract allows 180 s).
const RUN_CAP: Duration = Duration::from_secs(150);
/// `--seconds` of `--quick`: every workload at tiny size.
const QUICK_SECONDS: f64 = 0.4;

/// Metric name → (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Args {
    role: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    print_json: bool,
    print_plan: bool,
    // Child-role arguments.
    kind: Option<String>,
    sock: Option<String>,
    scale: f64,
}

fn usage(err: &str) -> ! {
    eprintln!("bench_all: {err}");
    eprintln!(
        "USAGE: bench_all [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat K] [--print-benchmark-json] [--print-plan]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        role: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        repeat: 1,
        print_json: false,
        print_plan: false,
        kind: None,
        sock: None,
        scale: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--role" => a.role = Some(value("a role")),
            "--workload" => a.workload = Some(value("a workload name")),
            "--seed" => {
                a.seed = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed needs a whole number"));
            }
            "--seconds" => {
                let s: f64 = value("a number")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds needs a number"));
                if !(s > 0.0 && s <= 60.0) {
                    usage("--seconds must be in (0, 60]");
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace needs 0 or 1"),
                });
            }
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = value("a count")
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| usage("--repeat needs a positive count"));
            }
            "--print-benchmark-json" => a.print_json = true,
            "--print-plan" => a.print_plan = true,
            "--kind" => a.kind = Some(value("an application kind")),
            "--sock" => a.sock = Some(value("a socket path")),
            "--scale" => {
                a.scale = value("a number")
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .unwrap_or_else(|| usage("--scale needs a positive number"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    a
}

/// Workloads that run on one CPU, every thread of theirs: what they time
/// is then the CPU the code needs, not what a cache line or a wake-up
/// costs to cross between two virtual CPUs, which the host decides anew
/// every few seconds (README, "Noise").
const ON_ONE_CPU: [&str; 2] = ["pool_forkjoin", "ctl_saturated"];

/// Workloads whose timed path is bound by how fast a core computes: their
/// end-to-end timings are corrected by the contention meter, sub-window
/// by sub-window. The others are bound by wake-ups, pacing and cache
/// lines moving between cores, which the meter's burst does not follow;
/// they get no meter thread and are reported as measured.
const CORRECTED: [&str; 4] = ["sim_fig4", "native_mix", "pool_forkjoin", "ctl_saturated"];

/// Runs one workload once. Micro-probes of the layers the workload
/// exercises ride along in the traced run only.
fn run_workload(name: &str, seed: u64, seconds: f64, quick: bool, tracer: &Tracer) -> Outcome {
    let pinned = match ON_ONE_CPU.contains(&name).then(OneCpu::pin).transpose() {
        Ok(guard) => guard,
        Err(e) => {
            let mut out = Outcome::default();
            out.check(false, format!("{name} must run on one CPU: {e}"));
            return out;
        }
    };
    // `sim_fig4` spawns no thread, so it samples the meter itself.
    let meter = CORRECTED.contains(&name).then(|| {
        if name == "sim_fig4" {
            Meter::inline()
        } else {
            Meter::background()
        }
    });
    let ctx = Ctx {
        seed,
        seconds,
        quick,
        tracer,
        meter: meter.as_ref(),
        deadline: Deadline::after(RUN_CAP),
    };
    let mut out = match name {
        "sim_fig4" => sim::run(&ctx),
        "native_mix" => mix::run(&ctx),
        "pool_forkjoin" => pool::run_forkjoin(&ctx),
        "pool_external" => pool::run_external(&ctx),
        "ctl_saturated" => ctl::run_saturated(&ctx),
        "ctl_effect" => ctl::run_effect(&ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    out.set("harness.slowdown", ctx.slowdown(0.0, f64::MAX));
    drop(pinned);
    if tracer.enabled() {
        let _s = tracer.span("harness", "probes", 0);
        match name {
            "sim_fig4" => probes::sim_layers(&mut out, quick),
            "pool_forkjoin" => {
                pool::forkjoin_unpinned(&ctx, &mut out);
                probes::pool_blocks(&mut out, nproc(), quick);
            }
            "pool_external" => probes::pool_blocks(&mut out, nproc(), quick),
            "ctl_saturated" => {
                probes::control_core(&mut out, quick);
                probes::control_plane(&mut out, quick);
            }
            _ => {}
        }
    }
    out
}

/// One contract run: untraced for the end-to-end metrics; traced (after
/// a short untraced reference that prices the tracing) for the
/// per-layer ones. Returns the outcome and its metrics by name.
fn measure(name: &str, seed: u64, seconds: f64, quick: bool, trace: bool) -> (Outcome, Metrics) {
    let mut metrics = BTreeMap::new();
    if !trace {
        let out = run_workload(name, seed, seconds, quick, &Tracer::new(false));
        for m in spec::END_TO_END {
            let v = match m.name {
                "throughput_per_s" => out.throughput_per_s,
                "latency_p50_us" => out.latency_p50_us,
                "setup_s" => median(&out.setups),
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.insert(m.name, (v, m.unit));
        }
        return (out, metrics);
    }
    let tracer = Tracer::new(true);
    let mut out = run_workload(name, seed, seconds, quick, &tracer);
    if !out.layer.contains_key("harness.trace_overhead_ratio") {
        let reference = run_workload(
            name,
            seed,
            (seconds * 0.3).max(QUICK_SECONDS),
            quick,
            &Tracer::new(false),
        );
        out.attempted += reference.attempted;
        out.failed += reference.failed;
        out.failures.extend(reference.failures);
        out.set(
            "harness.trace_overhead_ratio",
            out.latency_p50_us / reference.latency_p50_us.max(1e-9) - 1.0,
        );
    }
    out.set("harness.nproc", nproc() as f64);
    if !out.layer.contains_key("harness.spans") {
        out.set("harness.spans", tracer.span_count() as f64);
    }
    let dir = std::path::Path::new(harness::OUT_DIR);
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        tracer.write_perfetto(
            &dir.join(format!("trace_{name}.json")),
            name,
            &out.child_events,
        )
    });
    out.check(written.is_ok(), format!("trace not written: {written:?}"));
    for m in spec::PER_LAYER {
        // A layer that does not run on this workload reads 0.
        let v = out.layer.get(m.name).copied().unwrap_or(0.0);
        metrics.insert(m.name, (v, m.unit));
    }
    (out, metrics)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The contract's result object.
fn result_json(out: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn env_json(args: &Args, seconds: f64) -> String {
    format!(
        "{{\"env\": {{\"nproc\": {}, \"rustc\": \"{}\", \"git\": \"{}\", \"engine\": \"reactor\", \"seed\": {}, \"seconds\": {}, \"quick\": {}}}}}",
        nproc(),
        harness::rustc_version(),
        harness::git_commit(),
        args.seed,
        seconds,
        args.quick
    )
}

fn report_failures(name: &str, out: &Outcome) {
    for f in &out.failures {
        eprintln!("bench_all: {name}: FAILED: {f}");
    }
}

/// If a run outlives its cap, kill what it started and report the hang
/// as a failed operation instead of leaving the pipeline stuck.
fn arm_watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_CAP + Duration::from_secs(15));
        harness::kill_registered_children();
        eprintln!("bench_all: run exceeded its wall-clock cap");
        println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
        std::process::exit(0);
    });
}

/// Every workload, untraced then traced, as one JSON object.
fn run_all(args: &Args, seconds: f64) -> BTreeMap<&'static str, (Outcome, Metrics)> {
    let mut all = BTreeMap::new();
    for w in spec::WORKLOADS {
        if args.workload.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let (mut out, mut metrics) = measure(w.name, args.seed, seconds, args.quick, false);
        if args.trace != Some(false) {
            let (traced, layer) = measure(w.name, args.seed, seconds, args.quick, true);
            out.attempted += traced.attempted;
            out.failed += traced.failed;
            out.failures.extend(traced.failures);
            metrics.extend(layer);
        }
        report_failures(w.name, &out);
        all.insert(w.name, (out, metrics));
    }
    all
}

/// `--repeat K`: K sets of the same build and seed must agree within
/// each end-to-end metric's own bound, the simulated statistics exactly.
fn self_check(args: &Args, seconds: f64) -> i32 {
    let sets: Vec<_> = (0..args.repeat).map(|_| run_all(args, seconds)).collect();
    let mut breaches = 0;
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "min", "max", "spread", "bound"
    );
    for w in spec::WORKLOADS {
        let Some(first) = sets[0].get(w.name) else {
            continue;
        };
        for name in first.1.keys() {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(w.name)?.1.get(name).map(|m| m.0))
                .collect();
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |a, &v| (a.0.min(v), a.1.max(v)));
            let spread = if lo > 0.0 { hi / lo - 1.0 } else { hi - lo };
            let bound = spec::END_TO_END
                .iter()
                .find(|m| m.name == *name)
                .map(|m| m.bound);
            let exact = w.name == "sim_fig4"
                && (name.starts_with("simkernel.") && *name != "simkernel.ns_per_step"
                    || name.starts_with("uthreads.")
                    || matches!(
                        *name,
                        "sim.makespan_s" | "sim.ctl_speedup" | "procctl.sim_sweeps"
                    ));
            let limit = if exact { Some(0.0) } else { bound };
            let breach = limit.is_some_and(|l| spread > l);
            if limit.is_some() {
                println!(
                    "{:<14} {:<34} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}%{}",
                    w.name,
                    name,
                    lo,
                    hi,
                    spread * 100.0,
                    limit.unwrap_or(0.0) * 100.0,
                    if breach { "  BREACH" } else { "" }
                );
            }
            breaches += i32::from(breach);
        }
        let failed: u64 = sets
            .iter()
            .filter_map(|s| s.get(w.name))
            .map(|r| r.0.failed)
            .sum();
        if failed > 0 {
            println!("{:<14} failed operations: {failed}  BREACH", w.name);
            breaches += 1;
        }
    }
    breaches
}

fn main() {
    nproc(); // before any thread is pinned
    let args = parse_args();
    if let Some(role) = &args.role {
        let code = match role.as_str() {
            "spinapp" => ctl::spinapp_main(
                args.sock
                    .as_deref()
                    .unwrap_or_else(|| usage("spinapp needs --sock")),
            ),
            "mixapp" => {
                let kind = args
                    .kind
                    .as_deref()
                    .and_then(apps::Kind::parse)
                    .unwrap_or_else(|| usage("mixapp needs --kind fft|sort|matmul"));
                mix::mixapp_main(
                    kind,
                    args.sock.as_deref(),
                    args.seed,
                    args.scale,
                    args.trace == Some(true),
                )
            }
            other => usage(&format!("unknown role {other}")),
        };
        std::process::exit(code);
    }
    if args.print_json {
        print!("{}", spec::benchmark_json());
        return;
    }
    if args.print_plan {
        print!("{}", sim::plan_text(&sim::plan(args.seed, 8, false)));
        for c in 0..2 {
            let windows = ctl::render_windows(args.seed, c, 2);
            let bytes: usize = windows.iter().map(Vec::len).sum();
            let sum: u64 = windows.iter().flatten().map(|&b| u64::from(b)).sum();
            println!("ctl_windows conn={c} bytes={bytes} sum={sum}");
        }
        for kind in apps::Kind::ALL {
            let inputs = apps::generate(kind, args.seed, 1.0);
            println!(
                "mix_inputs kind={} digest={:016x}",
                kind.name(),
                apps::digest(&inputs)
            );
        }
        return;
    }
    if cfg!(debug_assertions) && !args.quick {
        eprintln!("bench_all: refusing to measure a build with debug assertions; use --release (or --quick for a smoke run)");
        std::process::exit(2);
    }
    let seconds = match (args.quick, args.seconds) {
        (_, Some(s)) => s,
        (true, None) => QUICK_SECONDS,
        (false, None) => f64::from(spec::RUN_SECONDS),
    };
    println!("{}", env_json(&args, seconds));

    if args.repeat > 1 {
        std::process::exit(self_check(&args, seconds).min(1));
    }
    match (&args.workload, args.trace) {
        // The contract: one workload, one kind of run, one result line.
        (Some(name), Some(trace)) => {
            arm_watchdog();
            let (out, metrics) = measure(name, args.seed, seconds, args.quick, trace);
            report_failures(name, &out);
            println!("{}", result_json(&out, &metrics));
        }
        _ => {
            let all = run_all(&args, seconds);
            let body: Vec<String> = all
                .iter()
                .map(|(name, (out, metrics))| format!("\"{name}\": {}", result_json(out, metrics)))
                .collect();
            println!("{{\"workloads\": {{{}}}}}", body.join(", "));
            if all.values().any(|(out, _)| out.failed > 0) {
                std::process::exit(1);
            }
        }
    }
}
