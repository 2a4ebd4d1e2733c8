//! Golden statistics: the Fig-4 mix at `Presets::tiny()`, with and without
//! process control, compared against constants captured from a known-good
//! build. `scenario_is_deterministic` only compares a run with itself; this
//! test catches event-order drift *between versions* — any change to the
//! order of calendar insertions, to the cache model's arithmetic or to the
//! dispatch order moves at least one of these numbers.
//!
//! When a PR changes simulated behaviour on purpose, re-capture with
//! `cargo test -p bench --test golden_stats -- --nocapture print_golden --ignored`
//! and say so in CHANGES.md.

use bench::{fig4_launches, spawn_server_logged, SimEnv};
use desim::{SimDur, SimTime};
use simkernel::AppId;
use uthreads::{launch, ThreadsApp, ThreadsConfig};
use workloads::Presets;

const NPROCS: u32 = 16;
const STAGGER: SimDur = SimDur(300_000_000);
const POLL: SimDur = SimDur(200_000_000);
const LIMIT: SimTime = SimTime(3_600 * 1_000_000_000);

/// Every simulated statistic the benchmark reports, as exact integers.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    steps: u64,
    makespan_ns: u64,
    work_ns: u64,
    spin_ns: u64,
    refill_ns: u64,
    switch_ns: u64,
    dispatches: u64,
    preemptions: u64,
    tasks_run: u64,
    suspends: u64,
    resumes: u64,
    polls: u64,
    sweeps: u64,
}

/// Runs the mix with the test's own counted step loop (events handled after
/// the last launch, the same count `bench_all` reports as `simkernel.steps`).
fn run(control: bool) -> Golden {
    let presets = Presets::tiny();
    let mut kernel = SimEnv::default().make_kernel();
    let server = control.then(|| spawn_server_logged(&mut kernel));
    let mut apps: Vec<(AppId, ThreadsApp)> = Vec::new();
    for (i, l) in fig4_launches(NPROCS, STAGGER).iter().enumerate() {
        kernel.run_until(l.start);
        let mut cfg = ThreadsConfig::new(l.nprocs);
        if let Some((port, _)) = &server {
            cfg = cfg.with_control(*port, POLL);
        }
        let id = AppId(i as u32);
        apps.push((id, launch(&mut kernel, id, cfg, l.kind.spec(&presets))));
    }
    let ids: Vec<AppId> = apps.iter().map(|(id, _)| *id).collect();
    let mut steps = 0u64;
    while !kernel.apps_done(&ids) {
        assert!(kernel.now() <= LIMIT && kernel.step(), "mix did not finish");
        steps += 1;
    }
    let ledger = kernel.cycle_ledger();
    assert!(ledger.conserved(), "cycle ledger not conserved");
    let mut g = Golden {
        steps,
        makespan_ns: ids
            .iter()
            .map(|&id| kernel.app_done_time(id).expect("app finished").nanos())
            .max()
            .expect("three apps"),
        work_ns: ledger.total.work.nanos(),
        spin_ns: ledger.total.spin.nanos(),
        refill_ns: ledger.total.refill.nanos(),
        switch_ns: ledger.total.switch.nanos(),
        dispatches: 0,
        preemptions: 0,
        tasks_run: 0,
        suspends: 0,
        resumes: 0,
        polls: 0,
        sweeps: server.as_ref().map_or(0, |(_, log)| log.len() as u64),
    };
    for (id, app) in &apps {
        let ks = kernel.app_stats(*id);
        g.dispatches += ks.dispatches;
        g.preemptions += ks.preemptions;
        let m = app.metrics();
        g.tasks_run += m.tasks_run;
        g.suspends += m.suspends;
        g.resumes += m.resumes;
        g.polls += m.polls;
    }
    g
}

// Both captured at commit b254bd6 (PR 12), before PR 13's dense-id tables.
const UNCONTROLLED: Golden = Golden {
    steps: 21_736,
    makespan_ns: 1_818_122_947,
    work_ns: 19_902_762_000,
    spin_ns: 7_939_930_982,
    refill_ns: 104_742_170,
    switch_ns: 14_500_000,
    dispatches: 309,
    preemptions: 261,
    tasks_run: 217,
    suspends: 0,
    resumes: 0,
    polls: 0,
    sweeps: 0,
};

const CONTROLLED: Golden = Golden {
    steps: 16_922,
    makespan_ns: 1_753_348_550,
    work_ns: 17_036_693_000,
    spin_ns: 8_073_287_996,
    refill_ns: 96_688_348,
    switch_ns: 17_900_000,
    dispatches: 321,
    preemptions: 219,
    tasks_run: 217,
    suspends: 45,
    resumes: 15,
    polls: 9,
    sweeps: 5,
};

#[test]
fn fig4_mix_without_control_matches_golden() {
    assert_eq!(run(false), UNCONTROLLED);
}

#[test]
fn fig4_mix_with_control_matches_golden() {
    let g = run(true);
    assert!(g.suspends > 0, "control never engaged: {g:?}");
    assert_eq!(g, CONTROLLED);
}

/// Prints the current values in the form of the constants above.
#[test]
#[ignore = "re-capture helper, not a check"]
fn print_golden() {
    println!("const UNCONTROLLED: Golden = {:#?};", run(false));
    println!("const CONTROLLED: Golden = {:#?};", run(true));
}
