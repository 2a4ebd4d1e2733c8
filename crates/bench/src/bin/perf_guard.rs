//! `perf_guard` — CI throughput-regression guard for the work-stealing
//! pool and the control-plane server.
//!
//! Judges two smoke reports against their checked-in baselines:
//!
//! * `pool_bench --smoke` (`results/pool_bench_smoke.json` vs
//!   `results/pool_bench_smoke_baseline.json`) — the *stealing*-engine
//!   rows, compared on `jobs_per_sec`.
//! * `serverd_bench --smoke` (`results/serverd_bench_smoke.json` vs
//!   `results/serverd_bench_smoke_baseline.json`) — every row, compared
//!   on `frames_per_sec`.
//!
//! A section fails (exit 1) when its geometric-mean throughput ratio
//! drops below 0.75 (a >25% fleet-wide regression) or any single
//! matched config drops below 0.50 — the single-config gate is looser
//! because one smoke-sized row on a noisy shared runner can easily
//! halve without meaning anything, while a uniform 25% drop across the
//! matrix cannot.
//!
//! ```text
//! USAGE: perf_guard [--fresh PATH] [--baseline PATH]
//!                   [--serverd-fresh PATH] [--serverd-baseline PATH]
//!                   [--write-baseline]
//! ```
//!
//! `--write-baseline` promotes both fresh reports to new baselines
//! instead of judging them (used when a deliberate change moves the
//! floor).

use std::collections::BTreeMap;
use std::process::ExitCode;

use metrics::json::parse;
use metrics::JsonValue;

const GEOMEAN_FLOOR: f64 = 0.75;
const SINGLE_FLOOR: f64 = 0.50;

/// One guarded report pair: which rows are protected (those of one
/// `engine`, or all) and on which throughput field.
struct Section {
    name: &'static str,
    fresh_path: String,
    baseline_path: String,
    engine: Option<&'static str>,
    rate_field: &'static str,
    regen_hint: &'static str,
}

/// `config label -> rate` for the section's protected rows.
fn rates(doc: &JsonValue, engine: Option<&str>, rate_field: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(runs) = doc.get("runs").and_then(JsonValue::as_arr) else {
        return out;
    };
    for run in runs {
        if engine.is_some() && run.get("engine").and_then(JsonValue::as_str) != engine {
            continue;
        }
        let (Some(label), Some(rate)) = (
            run.get("config").and_then(JsonValue::as_str),
            run.get(rate_field).and_then(JsonValue::as_num),
        ) else {
            continue;
        };
        if rate > 0.0 {
            out.insert(label.to_string(), rate);
        }
    }
    out
}

fn load(path: &str, s: &Section) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    let out = rates(&doc, s.engine, s.rate_field);
    if out.is_empty() {
        return Err(format!("{path} contains no guarded runs"));
    }
    Ok(out)
}

/// Judges one section; returns whether it passed.
fn judge(s: &Section) -> bool {
    let fresh = match load(&s.fresh_path, s) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_guard[{}]: {e} (run `{}` first)", s.name, s.regen_hint);
            return false;
        }
    };
    let baseline = match load(&s.baseline_path, s) {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "perf_guard[{}]: {e} (regenerate with --write-baseline)",
                s.name
            );
            return false;
        }
    };

    let mut ratios: Vec<(String, f64, f64, f64)> = Vec::new();
    for (label, &base) in &baseline {
        if let Some(&now) = fresh.get(label) {
            ratios.push((label.clone(), base, now, now / base));
        }
    }
    if ratios.is_empty() {
        eprintln!(
            "perf_guard[{}]: no config labels shared between {} and {} — the suite shape \
             changed; regenerate the baseline with --write-baseline",
            s.name, s.fresh_path, s.baseline_path
        );
        return false;
    }

    let geomean =
        (ratios.iter().map(|(_, _, _, r)| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    println!(
        "perf_guard[{}]: {} matched configs, geomean {} ratio {:.3} (floor {GEOMEAN_FLOOR})",
        s.name,
        ratios.len(),
        s.rate_field,
        geomean
    );
    let mut failed = false;
    for (label, base, now, ratio) in &ratios {
        let flag = if *ratio < SINGLE_FLOOR {
            failed = true;
            "  << REGRESSION"
        } else {
            ""
        };
        println!("  {label:<36} base {base:>12.0}  now {now:>12.0}  ratio {ratio:>5.2}{flag}");
    }
    if geomean < GEOMEAN_FLOOR {
        eprintln!(
            "perf_guard[{}]: FAIL — geomean {} ratio {geomean:.3} below {GEOMEAN_FLOOR} \
             (>25% fleet-wide regression)",
            s.name, s.rate_field
        );
        failed = true;
    }
    !failed
}

/// Validates and promotes one fresh report to its baseline.
fn promote(s: &Section) -> bool {
    // Validate before promoting: a garbled report must not become the
    // floor every future run is judged against.
    if let Err(e) = load(&s.fresh_path, s) {
        eprintln!("perf_guard[{}]: refusing to promote baseline: {e}", s.name);
        return false;
    }
    let text = std::fs::read_to_string(&s.fresh_path).expect("just read it");
    if let Err(e) = std::fs::write(&s.baseline_path, text) {
        eprintln!(
            "perf_guard[{}]: cannot write {}: {e}",
            s.name, s.baseline_path
        );
        return false;
    }
    println!(
        "perf_guard[{}]: promoted {} -> {}",
        s.name, s.fresh_path, s.baseline_path
    );
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mut pool = Section {
        name: "pool",
        fresh_path: "results/pool_bench_smoke.json".into(),
        baseline_path: "results/pool_bench_smoke_baseline.json".into(),
        engine: Some("stealing"),
        rate_field: "jobs_per_sec",
        regen_hint: "pool_bench --smoke",
    };
    let mut serverd = Section {
        name: "serverd",
        fresh_path: "results/serverd_bench_smoke.json".into(),
        baseline_path: "results/serverd_bench_smoke_baseline.json".into(),
        engine: None,
        rate_field: "frames_per_sec",
        regen_hint: "serverd_bench --smoke",
    };
    let mut write_baseline = false;
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--fresh" => pool.fresh_path = take(&mut i),
            "--baseline" => pool.baseline_path = take(&mut i),
            "--serverd-fresh" => serverd.fresh_path = take(&mut i),
            "--serverd-baseline" => serverd.baseline_path = take(&mut i),
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }

    let sections = [pool, serverd];
    let ok = if write_baseline {
        sections.iter().all(promote)
    } else {
        // Judge every section even once one has failed: CI output with
        // both verdicts beats stopping at the first.
        let verdicts: Vec<bool> = sections.iter().map(judge).collect();
        verdicts.into_iter().all(|v| v)
    };
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("perf_guard: OK — no throughput regression beyond thresholds");
    ExitCode::SUCCESS
}

fn usage() -> ! {
    eprintln!(
        "USAGE: perf_guard [--fresh PATH] [--baseline PATH] \
         [--serverd-fresh PATH] [--serverd-baseline PATH] [--write-baseline]"
    );
    std::process::exit(2);
}
