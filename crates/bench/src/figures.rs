//! Figure-reproduction drivers.
//!
//! One function per figure/ablation; each returns structured data that the
//! binaries print and the integration tests assert on. All simulated time;
//! speed-ups are relative to the application's own single-process solo run
//! (the paper's definition).

use std::collections::HashMap;

use desim::{SimDur, SimTime};
use metrics::{runnable_app_series, runnable_total_series, Series};
use workloads::Presets;

use crate::scenario::{run_scenario, run_solo, AppKind, AppLaunch, PolicyKind, SimEnv};

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_secs(secs)
}

/// Generous per-run wall-clock cap (simulated).
const LIMIT: SimTime = SimTime(3_600 * 1_000_000_000);

/// Single-process solo baselines, used as speed-up denominators.
pub fn baselines(env: &SimEnv, presets: &Presets, kinds: &[AppKind]) -> HashMap<AppKind, f64> {
    kinds
        .iter()
        .map(|&k| (k, run_solo(env, presets, k, 1, None, LIMIT).wall))
        .collect()
}

/// Figure 1: matmul and FFT run *simultaneously*, no process control, the
/// process count per application swept over `nprocs`. Returns one speed-up
/// series per application.
pub fn fig1(env: &SimEnv, presets: &Presets, nprocs: &[u32]) -> Vec<Series> {
    let kinds = [AppKind::Matmul, AppKind::Fft];
    let base = baselines(env, presets, &kinds);
    let mut series: Vec<Series> = kinds
        .iter()
        .map(|k| Series::new(k.name().to_string()))
        .collect();
    for &n in nprocs {
        let launches: Vec<AppLaunch> = kinds
            .iter()
            .map(|&kind| AppLaunch {
                kind,
                nprocs: n,
                start: SimTime::ZERO,
            })
            .collect();
        let (outs, _) = run_scenario(env, presets, &launches, None, LIMIT);
        for (s, o) in series.iter_mut().zip(&outs) {
            s.push(f64::from(n), base[&o.kind] / o.wall);
        }
    }
    series
}

/// Figure 3: each application run alone, process count swept, with the
/// unmodified package vs process control. Returns, per application, the
/// pair `(unmodified, controlled)` speed-up series.
pub fn fig3(
    env: &SimEnv,
    presets: &Presets,
    nprocs: &[u32],
    poll: SimDur,
) -> Vec<(AppKind, Series, Series)> {
    let base = baselines(env, presets, &AppKind::ALL);
    AppKind::ALL
        .iter()
        .map(|&kind| {
            let mut plain = Series::new(format!("{} unmodified", kind.name()));
            let mut ctl = Series::new(format!("{} controlled", kind.name()));
            for &n in nprocs {
                let o = run_solo(env, presets, kind, n, None, LIMIT);
                plain.push(f64::from(n), base[&kind] / o.wall);
                let o = run_solo(env, presets, kind, n, Some(poll), LIMIT);
                ctl.push(f64::from(n), base[&kind] / o.wall);
            }
            (kind, plain, ctl)
        })
        .collect()
}

/// One application's Figure-4 measurement.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Application.
    pub kind: AppKind,
    /// Start time (seconds).
    pub start: f64,
    /// Wall-clock runtime without process control.
    pub uncontrolled: f64,
    /// Wall-clock runtime with process control.
    pub controlled: f64,
}

/// The Figure-4/5 scenario: fft, gauss, and matmul started `stagger`
/// apart (10 s in the paper), `nprocs` processes each.
pub fn fig4_launches(nprocs: u32, stagger: SimDur) -> Vec<AppLaunch> {
    vec![
        AppLaunch {
            kind: AppKind::Fft,
            nprocs,
            start: SimTime::ZERO,
        },
        AppLaunch {
            kind: AppKind::Gauss,
            nprocs,
            start: SimTime::ZERO + stagger,
        },
        AppLaunch {
            kind: AppKind::Matmul,
            nprocs,
            start: SimTime::ZERO + stagger * 2,
        },
    ]
}

/// The paper's 10-second stagger.
pub const PAPER_STAGGER: SimDur = SimDur(10_000_000_000);

/// Figure 4: wall-clock execution times of the three-application scenario,
/// with and without process control.
pub fn fig4(env: &SimEnv, presets: &Presets, nprocs: u32, poll: SimDur) -> Vec<Fig4Row> {
    self::fig4_with_stagger(env, presets, nprocs, poll, PAPER_STAGGER)
}

/// Figure 4 with a configurable stagger (tests use a short one).
pub fn fig4_with_stagger(
    env: &SimEnv,
    presets: &Presets,
    nprocs: u32,
    poll: SimDur,
    stagger: SimDur,
) -> Vec<Fig4Row> {
    let launches = fig4_launches(nprocs, stagger);
    let (plain, _) = run_scenario(env, presets, &launches, None, LIMIT);
    let (ctl, _) = run_scenario(env, presets, &launches, Some(poll), LIMIT);
    launches
        .iter()
        .zip(plain.iter().zip(&ctl))
        .map(|(l, (p, c))| Fig4Row {
            kind: l.kind,
            start: l.start.as_secs_f64(),
            uncontrolled: p.wall,
            controlled: c.wall,
        })
        .collect()
}

/// Figure 5: runnable-process time series for the Figure-4 scenario.
/// Returns `(controlled, uncontrolled)`; each is a vector of per-app
/// series plus a final system-total series.
pub fn fig5(
    env: &SimEnv,
    presets: &Presets,
    nprocs: u32,
    poll: SimDur,
) -> (Vec<Series>, Vec<Series>) {
    self::fig5_with_stagger(env, presets, nprocs, poll, PAPER_STAGGER)
}

/// Figure 5 with a configurable stagger (tests use a short one).
pub fn fig5_with_stagger(
    env: &SimEnv,
    presets: &Presets,
    nprocs: u32,
    poll: SimDur,
    stagger: SimDur,
) -> (Vec<Series>, Vec<Series>) {
    let mut env = *env;
    env.trace = true;
    let launches = fig4_launches(nprocs, stagger);
    let run = |poll: Option<SimDur>, tag: &str| -> Vec<Series> {
        let (_, kernel) = run_scenario(&env, presets, &launches, poll, LIMIT);
        let mut out: Vec<Series> = launches
            .iter()
            .enumerate()
            .map(|(i, l)| {
                runnable_app_series(
                    kernel.trace(),
                    simkernel::AppId(i as u32),
                    format!("{} ({tag})", l.kind.name()),
                )
            })
            .collect();
        out.push(runnable_total_series(
            kernel.trace(),
            format!("total ({tag})"),
        ));
        out
    };
    let controlled = run(Some(poll), "controlled");
    let uncontrolled = run(None, "uncontrolled");
    (controlled, uncontrolled)
}

/// Ablation A: the Figure-4 scenario under every scheduling policy,
/// without process control (how far do kernel-side fixes get you?) —
/// plus FIFO *with* control for reference. Returns rows of
/// `(policy name, control?, [wall times in launch order])`.
pub fn ablation_policies(
    presets: &Presets,
    nprocs: u32,
    poll: SimDur,
) -> Vec<(String, bool, Vec<f64>)> {
    let launches = fig4_launches(nprocs, PAPER_STAGGER);
    let mut rows = Vec::new();
    for policy in PolicyKind::ALL {
        let env = SimEnv {
            policy,
            ..SimEnv::default()
        };
        let (outs, _) = run_scenario(&env, presets, &launches, None, LIMIT);
        rows.push((
            policy.name().to_string(),
            false,
            outs.iter().map(|o| o.wall).collect(),
        ));
    }
    let env = SimEnv::default();
    let (outs, _) = run_scenario(&env, presets, &launches, Some(poll), LIMIT);
    rows.push((
        "fifo-rr".to_string(),
        true,
        outs.iter().map(|o| o.wall).collect(),
    ));
    // The paper's full Section-7 vision: space partitioning AND process
    // control together.
    let env = SimEnv {
        policy: PolicyKind::Partition,
        ..SimEnv::default()
    };
    let (outs, _) = run_scenario(&env, presets, &launches, Some(poll), LIMIT);
    rows.push((
        "partition".to_string(),
        true,
        outs.iter().map(|o| o.wall).collect(),
    ));
    rows
}

/// Ablation B: sensitivity to the poll interval (the paper used 6 s).
/// Returns `(interval_secs, [wall times])`.
pub fn ablation_poll(
    env: &SimEnv,
    presets: &Presets,
    nprocs: u32,
    intervals: &[f64],
) -> Vec<(f64, Vec<f64>)> {
    let launches = fig4_launches(nprocs, PAPER_STAGGER);
    intervals
        .iter()
        .map(|&secs| {
            let (outs, _) = run_scenario(
                env,
                presets,
                &launches,
                Some(SimDur::from_secs_f64(secs)),
                LIMIT,
            );
            (secs, outs.iter().map(|o| o.wall).collect())
        })
        .collect()
}

/// Ablation C: cache-miss-penalty sensitivity — the Figure-1 pair scenario
/// on the Multimax-like vs the "scalable" (50–100-cycle miss) machine.
/// Returns `(machine, controlled?, [wall times])`.
pub fn ablation_cache(
    presets: &Presets,
    nprocs: u32,
    poll: SimDur,
) -> Vec<(&'static str, bool, Vec<f64>)> {
    let launches = [
        AppLaunch {
            kind: AppKind::Matmul,
            nprocs,
            start: t(0),
        },
        AppLaunch {
            kind: AppKind::Fft,
            nprocs,
            start: t(0),
        },
    ];
    let mut rows = Vec::new();
    for scalable in [false, true] {
        let env = SimEnv {
            scalable,
            ..SimEnv::default()
        };
        let name = if scalable { "scalable" } else { "multimax" };
        for ctl in [None, Some(poll)] {
            let (outs, _) = run_scenario(&env, presets, &launches, ctl, LIMIT);
            rows.push((name, ctl.is_some(), outs.iter().map(|o| o.wall).collect()));
        }
    }
    rows
}

/// The four cells of the CR-lock ablation: `(label, server control?,
/// CR queue lock?)`.
pub const CR_VARIANTS: [(&str, bool, bool); 4] = [
    ("none", false, false),
    ("control", true, false),
    ("crlock", false, true),
    ("both", true, true),
];

/// Ablation E: the Figure-1 pair scenario (matmul and FFT simultaneously,
/// process count swept) through all four cells of
/// {no control, server control, CR queue lock, both}. Returns one
/// speed-up series per application per cell, in [`CR_VARIANTS`] order —
/// series are named `"<app> <cell>"`.
pub fn ablation_crlock(
    env: &SimEnv,
    presets: &Presets,
    nprocs: &[u32],
    poll: SimDur,
    cr: uthreads::CrParams,
) -> Vec<Series> {
    let kinds = [AppKind::Matmul, AppKind::Fft];
    let base = baselines(env, presets, &kinds);
    let mut series = Vec::new();
    for &(label, use_control, use_cr) in &CR_VARIANTS {
        let mut per_app: Vec<Series> = kinds
            .iter()
            .map(|k| Series::new(format!("{} {}", k.name(), label)))
            .collect();
        for &n in nprocs {
            let launches: Vec<AppLaunch> = kinds
                .iter()
                .map(|&kind| AppLaunch {
                    kind,
                    nprocs: n,
                    start: SimTime::ZERO,
                })
                .collect();
            let (outs, _) = crate::scenario::run_scenario_tuned(
                env,
                presets,
                &launches,
                use_control.then_some(poll),
                use_cr.then_some(cr),
                LIMIT,
            );
            for (s, o) in per_app.iter_mut().zip(&outs) {
                s.push(f64::from(n), base[&o.kind] / o.wall);
            }
        }
        series.extend(per_app);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_env() -> SimEnv {
        SimEnv {
            cpus: 8,
            ..SimEnv::default()
        }
    }

    #[test]
    fn fig1_series_shapes() {
        let presets = Presets::tiny();
        let s = fig1(&quick_env(), &presets, &[1, 4, 8]);
        assert_eq!(s.len(), 2);
        for curve in &s {
            assert_eq!(curve.points.len(), 3);
            // Speed-up at 1 process is ~1 (it shares the machine with the
            // other app but 2 <= cpus).
            assert!((curve.points[0].1 - 1.0).abs() < 0.3, "{curve:?}");
        }
    }

    #[test]
    fn ablation_crlock_produces_all_four_cells() {
        let presets = Presets::tiny();
        let s = ablation_crlock(
            &quick_env(),
            &presets,
            &[2, 8],
            SimDur::from_secs(2),
            uthreads::CrParams::fixed(2),
        );
        // 2 apps x 4 cells, 2 points each.
        assert_eq!(s.len(), 8);
        for curve in &s {
            assert_eq!(curve.points.len(), 2);
            assert!(curve.points.iter().all(|&(_, y)| y > 0.0), "{curve:?}");
        }
        let labels: Vec<&str> = s.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"matmul crlock") && labels.contains(&"fft both"));
    }

    #[test]
    fn fig4_rows_cover_three_apps() {
        let presets = Presets::tiny();
        let stagger = SimDur::from_millis(300);
        let rows = fig4_with_stagger(&quick_env(), &presets, 8, SimDur::from_secs(2), stagger);
        assert_eq!(rows.len(), 3);
        assert!((rows[1].start - 0.3).abs() < 1e-9);
        for r in &rows {
            assert!(r.controlled > 0.0 && r.uncontrolled > 0.0);
        }
    }

    #[test]
    fn fig5_traces_present() {
        let presets = Presets::tiny();
        let (ctl, plain) = fig5_with_stagger(
            &quick_env(),
            &presets,
            8,
            SimDur::from_secs(2),
            SimDur::from_millis(300),
        );
        assert_eq!(ctl.len(), 4);
        assert_eq!(plain.len(), 4);
        // The uncontrolled total must at some point exceed the machine.
        assert!(plain[3].y_max() > 8.0);
    }

    /// Minor page faults of this process so far: field 10 of
    /// `/proc/self/stat` (`None` off Linux).
    fn minor_faults() -> Option<u64> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // Fields after the parenthesized command name start at field 3.
        let rest = &stat[stat.rfind(')')? + 1..];
        rest.split_whitespace().nth(10 - 3)?.parse().ok()
    }

    /// One fixed Figure-4 pair — fft, gauss and matmul at
    /// `Presets::paper()`, 16 workers each on 16 processors, started 10 s
    /// apart, 6 s polls — with control on and off. Prints three numbers:
    /// ns per `Kernel::step` of the step loop after the last launch, as
    /// `bench_all`'s `sim_fig4` counts it (minimum of 5 rounds); ms for
    /// the whole pair, from `Kernel::new` to the last exit of each run,
    /// the quantity `sim_fig4`'s latency row tracks (minimum of 5
    /// rounds); and the minor page faults of each round's pair, from
    /// before its first `Kernel::new` to after its last kernel is dropped
    /// (`/proc/self/stat`; `n/a` off Linux).
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -p bench --lib -- --ignored micro_ --nocapture --test-threads=1`
    fn micro_fig4_pair_step_cost() {
        use crate::scenario::spawn_server;
        use simkernel::AppId;
        use std::time::Instant;
        use uthreads::{launch, ThreadsConfig};

        let presets = Presets::paper();
        // (steps, ns of the step loop, ns from `Kernel::new` to the last exit)
        let run = |control: bool| {
            let whole = Instant::now();
            let mut kernel = SimEnv::default().make_kernel();
            let port = control.then(|| spawn_server(&mut kernel));
            let mut ids = Vec::new();
            for (i, l) in fig4_launches(16, PAPER_STAGGER).iter().enumerate() {
                kernel.run_until(l.start);
                let mut cfg = ThreadsConfig::new(l.nprocs);
                if let Some(port) = port {
                    cfg = cfg.with_control(port, SimDur::from_secs(6));
                }
                let id = AppId(i as u32);
                std::hint::black_box(launch(&mut kernel, id, cfg, l.kind.spec(&presets)));
                ids.push(id);
            }
            let start = Instant::now();
            let mut steps = 0u64;
            while !kernel.apps_done(&ids) && kernel.step() {
                steps += 1;
            }
            let (step_ns, whole_ns) = (start.elapsed(), whole.elapsed());
            (steps, step_ns.as_nanos() as f64, whole_ns.as_nanos() as f64)
        };
        let mut best = [f64::INFINITY; 4];
        let mut steps = [0u64; 2];
        let mut faults = Vec::new();
        for _ in 0..5 {
            let before = minor_faults();
            let (on, off) = (run(true), run(false));
            faults.push(match (before, minor_faults()) {
                (Some(b), Some(a)) => (a - b).to_string(),
                _ => "n/a".to_string(),
            });
            steps = [on.0, off.0];
            let ns = [
                on.1 / on.0 as f64,
                off.1 / off.0 as f64,
                (on.1 + off.1) / (on.0 + off.0) as f64,
                (on.2 + off.2) / 1e6,
            ];
            for (b, n) in best.iter_mut().zip(ns) {
                *b = b.min(n);
            }
        }
        println!(
            "fig4 pair: {:.1} ns/step (control on {:.1} over {} steps, off {:.1} over {} steps)",
            best[2], best[0], steps[0], best[1], steps[1]
        );
        println!(
            "fig4 pair: {:.1} ms a pair; minor faults per pair, by round: {}",
            best[3],
            faults.join(" ")
        );
    }
}
