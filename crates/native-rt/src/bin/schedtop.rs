//! `schedtop` — a live console for the process-control fleet.
//!
//! Connects to a running `procctl-serverd` as an *observer* (no
//! REGISTER, so it never takes a share of the partition) and renders
//! every registered application's scheduling health from one `STATS ALL`
//! round-trip per refresh: partition target vs. actually-running
//! workers, wake-to-run latency p50/p99, the steal-tier mix, and
//! degraded/lease state — the operator's view of Tucker & Gupta's
//! central server actually steering the machine.
//!
//! ```text
//! USAGE: schedtop <socket-path> [--once] [--interval-ms N]
//! ```
//!
//! `--once` prints a single snapshot and exits (CI smoke mode); the
//! default is a live display redrawn every `--interval-ms` (1000 ms).
//! The numbers come from each application's own `REPORT` line (pushed by
//! its supervised poller), so a row goes stale-then-absent when an
//! application stops polling and its lease expires — exactly the
//! visibility the lease mechanism is meant to give.

#[cfg(unix)]
mod tool {
    use native_rt::{AppStatsEntry, UdsClient};
    use std::collections::BTreeMap;
    use std::time::Duration;

    pub struct Options {
        pub path: String,
        pub once: bool,
        pub interval: Duration,
    }

    pub fn parse_args(args: &[String]) -> Result<Options, String> {
        let mut path = None;
        let mut once = false;
        let mut interval = Duration::from_millis(1000);
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--once" => once = true,
                "--interval-ms" => {
                    i += 1;
                    let ms: u64 = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&ms| ms > 0)
                        .ok_or("--interval-ms needs a positive integer")?;
                    interval = Duration::from_millis(ms);
                }
                "--help" | "-h" => return Err(String::new()),
                other if path.is_none() && !other.starts_with('-') => {
                    path = Some(other.to_string());
                }
                other => return Err(format!("unknown argument {other}")),
            }
            i += 1;
        }
        Ok(Options {
            path: path.ok_or("missing socket path")?,
            once,
            interval,
        })
    }

    /// `k=v` fields of a rendered stats line, as floats.
    fn parse_kv(line: &str) -> BTreeMap<&str, f64> {
        line.split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| v.parse::<f64>().ok().map(|v| (k, v)))
            .collect()
    }

    fn fmt_us(ns: Option<&f64>) -> String {
        match ns {
            Some(&ns) if ns > 0.0 => format!("{:.1}", ns / 1_000.0),
            _ => "-".to_string(),
        }
    }

    /// One application's row. The report line is the pool registry
    /// rendered by its reporting poller; apps that never reported show
    /// dashes rather than zeros (absence, not measurement).
    fn render_row(app: &AppStatsEntry, out: &mut String) {
        use std::fmt::Write;
        let kv = parse_kv(&app.report);
        let active = kv
            .get("active")
            .map_or("-".to_string(), |&v| format!("{v:.0}"));
        let degraded = match kv.get("degraded") {
            Some(&d) if d > 0.0 => "DEGRADED",
            Some(_) => "ok",
            None => "-",
        };
        let steals = ["smt", "llc", "socket", "remote"]
            .iter()
            .map(|tier| {
                kv.get(format!("steal_tier_{tier}").as_str())
                    .map_or("-".to_string(), |&v| format!("{v:.0}"))
            })
            .collect::<Vec<_>>()
            .join("/");
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9} {:>19} {:>8}",
            app.pid,
            app.target,
            app.nworkers,
            active,
            kv.get("jobs_run")
                .map_or("-".to_string(), |&v| format!("{v:.0}")),
            fmt_us(kv.get("wake_to_run_ns.p50")),
            fmt_us(kv.get("wake_to_run_ns.p99")),
            steals,
            degraded,
        );
    }

    /// One full snapshot, or an error line when the server is away.
    pub fn snapshot(client: &mut UdsClient) -> Result<String, String> {
        use std::fmt::Write;
        let server = client
            .stats()
            .map_err(|e| format!("server stats failed: {e}"))?;
        let apps = client
            .stats_all()
            .map_err(|e| format!("STATS ALL failed: {e}"))?;
        let server: BTreeMap<String, i64> = server.into_iter().collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "schedtop: {} apps | polls={} parked={} events_pushes={} traces={} journal_drops={} lease_expiries={} malformed={}",
            apps.len(),
            server.get("polls").copied().unwrap_or(0),
            server.get("parked").copied().unwrap_or(0),
            server.get("events_pushes").copied().unwrap_or(0),
            server.get("traces").copied().unwrap_or(0),
            server.get("journal_drops").copied().unwrap_or(0),
            server.get("lease_expiries").copied().unwrap_or(0),
            server.get("malformed").copied().unwrap_or(0),
        );
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9} {:>19} {:>8}",
            "PID",
            "TARGET",
            "WORKERS",
            "ACTIVE",
            "JOBS",
            "W2R-P50us",
            "W2R-P99us",
            "STEALS(s/l/sk/r)",
            "STATE",
        );
        for app in &apps {
            render_row(app, &mut out);
        }
        if apps.is_empty() {
            let _ = writeln!(out, "(no registered applications)");
        }
        Ok(out)
    }

    pub fn run(opts: &Options) -> i32 {
        let mut failures = 0u32;
        loop {
            let shot = UdsClient::connect(&opts.path, Duration::from_secs(2))
                .map_err(|e| format!("cannot connect {}: {e}", opts.path))
                .and_then(|mut c| snapshot(&mut c));
            match shot {
                Ok(text) => {
                    failures = 0;
                    if opts.once {
                        print!("{text}");
                        return 0;
                    }
                    // ANSI clear + home for the live redraw.
                    print!("\x1b[2J\x1b[H{text}");
                    use std::io::Write;
                    let _ = std::io::stdout().flush();
                }
                Err(e) => {
                    failures += 1;
                    if opts.once || failures >= 5 {
                        eprintln!("schedtop: {e}");
                        return 1;
                    }
                }
            }
            std::thread::sleep(opts.interval);
        }
    }
}

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let opts = match tool::parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("schedtop: {e}");
            }
            eprintln!("USAGE: schedtop <socket-path> [--once] [--interval-ms N]");
            std::process::exit(if e.is_empty() { 0 } else { 2 });
        }
    };
    std::process::exit(tool::run(&opts));
}

#[cfg(not(unix))]
fn main() {
    eprintln!("schedtop requires Unix domain sockets");
    std::process::exit(1);
}
