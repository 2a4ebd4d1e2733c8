//! `serverd_bench` — control-plane frame throughput.
//!
//! Sweeps the live UDS server across connection counts and frame mixes
//! with a bounded open-loop pipelined generator (see
//! [`bench::serverdbench`]); prints an aligned table, then writes
//! `results/serverd_bench.json`. With `--smoke` (or `--quick`) a
//! seconds-long subset runs — still including the 64-connection point —
//! and the artifact gets a `_smoke` suffix. `perf_guard` gates the smoke
//! artifact against `results/serverd_bench_smoke_baseline.json`.
//!
//! A second, smaller sweep re-runs the poll mix with periodic state
//! snapshots enabled (the crash-recovery tax from DESIGN.md §14) and
//! writes it to the separate `results/serverd_bench_snapshot*.json`
//! artifact, so the main gate's baseline keeps comparing like with
//! like.

use bench::report::write_result;
use bench::serverdbench::{results_json, results_table, run_config, snapshot_suite, suite};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let cfgs = suite(smoke);
    println!(
        "serverd_bench: {} configurations ({} mode) on {} host cpus",
        cfgs.len(),
        if smoke { "smoke" } else { "full" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut results = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        let outcome = run_config(cfg);
        println!(
            "[{}/{}] {:<24} {:>10.0} frames/sec  p99 {:>7.1}µs",
            i + 1,
            cfgs.len(),
            cfg.label(),
            outcome.frames_per_sec,
            outcome.p99_reply_ns as f64 / 1_000.0,
        );
        results.push((*cfg, outcome));
    }

    println!("\n== serverd_bench results ==\n");
    print!("{}", results_table(&results));

    let suffix = if smoke { "_smoke" } else { "" };
    write_result(
        &format!("serverd_bench{suffix}.json"),
        &results_json(&results).render_pretty(),
    );

    let snap_cfgs = snapshot_suite(smoke);
    println!(
        "\nsnapshot overhead sweep: {} configurations",
        snap_cfgs.len()
    );
    let mut snap_results = Vec::with_capacity(snap_cfgs.len());
    for (i, cfg) in snap_cfgs.iter().enumerate() {
        let outcome = run_config(cfg);
        println!(
            "[{}/{}] {:<24} {:>10.0} frames/sec  p99 {:>7.1}µs",
            i + 1,
            snap_cfgs.len(),
            cfg.label(),
            outcome.frames_per_sec,
            outcome.p99_reply_ns as f64 / 1_000.0,
        );
        snap_results.push((*cfg, outcome));
    }
    println!("\n== snapshot overhead results ==\n");
    print!("{}", results_table(&snap_results));
    write_result(
        &format!("serverd_bench_snapshot{suffix}.json"),
        &results_json(&snap_results).render_pretty(),
    );
}
