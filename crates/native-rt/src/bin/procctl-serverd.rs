//! `procctl-serverd` — the standalone process-control server daemon.
//!
//! The deployable form of the paper's centralized user-level server:
//! listens on a Unix domain socket, answers REGISTER/POLL/BYE from
//! application processes, and partitions the machine's processors among
//! them. Every 500 ms while an application is registered it walks
//! `/proc` once, the modern `rpstat`: registrations whose process died
//! without a BYE are dropped, and with `--account-system-load` the
//! runnable threads of every other process are subtracted from the
//! processors it partitions.
//!
//! Robustness: SIGTERM/SIGINT trigger a clean shutdown that removes the
//! socket file; a stale socket left by a crashed predecessor is detected
//! (probe-connect) and reclaimed at startup, while a live server on the
//! same path refuses to be displaced. Registrations are leased
//! (`--lease-ttl-ms`): clients that stop polling lose their share.
//!
//! ```text
//! USAGE: procctl-serverd <socket-path> [--cpus N] [--lease-ttl-ms N]
//!                        [--account-system-load] [--weighted]
//!                        [--journal-cap N] [--snapshot PATH]
//!                        [--snapshot-interval-ms N]
//! ```
//!
//! `--weighted` skews each application's processor share by its observed
//! throughput (the `jobs_run` counter from its latest REPORT); equal or
//! absent reports reduce to the paper's equal partition. CPU-set replies
//! (`POLL <pid> cpus`) are cut from the detected machine topology when
//! the partitioned processor count matches the machine, so adjacent
//! shares stay cache-adjacent. `--journal-cap` bounds the per-application
//! flight-recorder journal (EVENTS pushes plus the server's own decision
//! instants, drained via TRACE); 0 disables journaling. The server core
//! is a single-threaded epoll reactor (DESIGN.md §13).
//!
//! `--snapshot PATH` makes the server crash-recoverable (DESIGN.md §14):
//! registrations, leases, and the boot epoch are persisted to PATH
//! (atomic tmp+rename, every `--snapshot-interval-ms` and at clean
//! shutdown), and a restarted server restores them before accepting
//! traffic, so clients resume polling without a re-registration storm.
//! A corrupt or torn snapshot is rejected wholesale (cold start).

/// Minimal async-signal-safe shutdown latch: the handler only stores an
/// atomic flag; the main loop does the actual teardown. Raw `signal(2)`
/// FFI because the build environment is offline (no `libc` crate) — std
/// already links libc on every Unix target.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    // sched-atomic(relaxed): a bare flag polled by the accept loop; no
    // data is published under it, so the handler can store Relaxed
    // (also the safest thing to do in async-signal context).
    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::Relaxed);
    }

    /// Installs the SIGINT/SIGTERM handlers.
    pub fn install() {
        let h = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is async-signal-safe to install; the handler
        // only does a Relaxed atomic store, which is signal-safe. The
        // handler address outlives the process (it is a static fn).
        unsafe {
            signal(SIGINT, h);
            signal(SIGTERM, h);
        }
    }
}

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut path: Option<String> = None;
    let mut cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut account = false;
    let mut weighted = false;
    let mut lease_ttl = native_rt::DEFAULT_LEASE_TTL;
    let mut journal_cap = native_rt::DEFAULT_JOURNAL_CAP;
    let mut snapshot: Option<std::path::PathBuf> = None;
    let mut snapshot_interval: Option<std::time::Duration> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--journal-cap" => {
                i += 1;
                journal_cap = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--journal-cap needs a non-negative integer"));
            }
            "--cpus" => {
                i += 1;
                cpus = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--cpus needs a positive integer"));
            }
            "--lease-ttl-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&ms| ms > 0)
                    .unwrap_or_else(|| usage("--lease-ttl-ms needs a positive integer"));
                lease_ttl = std::time::Duration::from_millis(ms);
            }
            "--snapshot" => {
                i += 1;
                snapshot = Some(
                    args.get(i)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage("--snapshot needs a file path")),
                );
            }
            "--snapshot-interval-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&ms| ms > 0)
                    .unwrap_or_else(|| usage("--snapshot-interval-ms needs a positive integer"));
                snapshot_interval = Some(std::time::Duration::from_millis(ms));
            }
            "--account-system-load" => account = true,
            "--weighted" => weighted = true,
            "--help" | "-h" => usage(""),
            other if path.is_none() && !other.starts_with('-') => {
                path = Some(other.to_string());
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| usage("missing socket path"));
    if let Err(e) = ctl_core::validate_cpus(u32::try_from(cpus).unwrap_or(u32::MAX)) {
        usage(&format!("--cpus: {e}"));
    }

    let mut cfg = native_rt::UdsServerConfig::new(&path, cpus);
    cfg.account_system_load = account;
    cfg.weighted = weighted;
    cfg.lease_ttl = lease_ttl;
    cfg.journal_cap = journal_cap;
    cfg.snapshot_path = snapshot.clone();
    if let Some(interval) = snapshot_interval {
        cfg.snapshot_interval = interval;
    }
    // Hand out CPU sets in the machine's topological order when we are
    // partitioning the real machine; a simulated size keeps the identity
    // order (the synthetic topology is identity-ordered anyway).
    let topo = native_rt::CpuTopology::shared();
    if topo.len() == cpus {
        cfg.cpu_order = Some(topo.linear_order());
    }
    let server = native_rt::UdsServer::start(cfg).unwrap_or_else(|e| {
        eprintln!("procctl-serverd: cannot bind {path}: {e}");
        std::process::exit(1);
    });
    sig::install();
    println!(
        "procctl-serverd: serving {} processors on {} (epoch {}, lease {} ms, system-load accounting {}, {} shares, journal cap {}, snapshot {})",
        cpus,
        server.path().display(),
        server.epoch(),
        lease_ttl.as_millis(),
        if account { "on" } else { "off" },
        if weighted { "throughput-weighted" } else { "equal" },
        journal_cap,
        snapshot
            .as_deref()
            .map_or("off".to_string(), |p| p.display().to_string()),
    );
    // Serve until SIGTERM/SIGINT.
    while !sig::SHUTDOWN.load(std::sync::atomic::Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = server.stats();
    drop(server); // joins the accept thread and removes the socket file
    println!("procctl-serverd: clean shutdown ({})", stats.render_line());
}

#[cfg(unix)]
fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("procctl-serverd: {err}");
    }
    eprintln!(
        "USAGE: procctl-serverd <socket-path> [--cpus N] [--lease-ttl-ms N] [--account-system-load] [--weighted] [--journal-cap N] [--snapshot PATH] [--snapshot-interval-ms N]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(not(unix))]
fn main() {
    eprintln!("procctl-serverd requires Unix domain sockets");
    std::process::exit(1);
}
