//! `pool_bench` — central-queue vs work-stealing pool throughput.
//!
//! Sweeps both native-runtime pool engines across submission styles,
//! job grains, worker counts, and process-control settings; prints an
//! aligned table, then writes `results/pool_bench.json` and a Perfetto
//! trace `results/pool_bench_trace.json`. With `--smoke` (or `--quick`)
//! a seconds-long subset runs and the artifacts get a `_smoke` suffix.
//! `--pin` pins the stealing engine's workers with `sched_setaffinity`
//! (artifacts get a `_pin` suffix); `--no-pin` is the explicit default.
//! `--no-trace` disables the stealing pool's flight recorder (artifacts
//! get a `_notrace` suffix) — the recorder-off arm of the overhead A/B
//! in EXPERIMENTS.md.

use bench::poolbench::{results_json, results_table, results_trace, run_config, speedups, suite};
use bench::report::write_result;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke" || a == "--quick");
    let pin = args.iter().any(|a| a == "--pin") && !args.iter().any(|a| a == "--no-pin");
    let trace = !args.iter().any(|a| a == "--no-trace");
    let mut cfgs = suite(smoke, pin);
    for cfg in &mut cfgs {
        cfg.trace = trace;
    }
    println!(
        "pool_bench: {} configurations ({} mode{}{}) on {} host cpus",
        cfgs.len(),
        if smoke { "smoke" } else { "full" },
        if pin { ", pinned" } else { "" },
        if trace { "" } else { ", recorder off" },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut results = Vec::with_capacity(cfgs.len());
    for (i, cfg) in cfgs.iter().enumerate() {
        let outcome = run_config(cfg);
        println!(
            "[{}/{}] {:<32} {:>10.0} jobs/sec",
            i + 1,
            cfgs.len(),
            cfg.label(),
            outcome.jobs_per_sec
        );
        results.push((*cfg, outcome));
    }

    println!("\n== pool_bench results ==\n");
    print!("{}", results_table(&results));

    println!("\n== stealing over central (matched configs) ==\n");
    for (label, s) in speedups(&results) {
        println!("  {label:<28} {s:>6.2}x");
    }

    let suffix = format!(
        "{}{}{}",
        if smoke { "_smoke" } else { "" },
        if pin { "_pin" } else { "" },
        if trace { "" } else { "_notrace" }
    );
    write_result(
        &format!("pool_bench{suffix}.json"),
        &results_json(&results).render_pretty(),
    );
    write_result(
        &format!("pool_bench{suffix}_trace.json"),
        &results_trace(&results).render(),
    );
}
