//! Cross-process process control over a Unix socket — the deployment the
//! paper actually ran: a standalone server process, separate application
//! processes registering and polling over IPC.
//!
//! The example re-executes itself in three roles:
//!
//! - (default) the launcher: starts a server child and two worker
//!   children, waits for the workers, then stops the server;
//! - `--role server <sock>`: runs the control server until killed;
//! - `--role worker <sock> <name>`: registers 2x-cores workers, runs a
//!   batch of real FFTs under control, reports its counters.
//!
//! Run with: `cargo run --release --example cross_process`

use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--role") => match args.get(2).map(String::as_str) {
            Some("server") => run_server(&args[3]),
            Some("worker") => run_worker(&args[3], &args[4]),
            other => panic!("unknown role {other:?}"),
        },
        _ => run_launcher(),
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("cross_process requires Unix domain sockets");
}

#[cfg(unix)]
fn sock_path() -> String {
    std::env::temp_dir()
        .join(format!("procctl-demo-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[cfg(unix)]
fn respawn(role_args: &[&str]) -> Child {
    Command::new(std::env::current_exe().expect("own path"))
        .args(role_args)
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn child role")
}

#[cfg(unix)]
fn run_launcher() {
    let sock = sock_path();
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    println!(
        "launcher pid {}: {} cores, socket {sock}",
        std::process::id(),
        cores
    );

    let mut server = respawn(&["--role", "server", &sock]);
    // Wait for the socket to appear.
    for _ in 0..100 {
        if std::path::Path::new(&sock).exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut workers: Vec<Child> = ["alpha", "beta"]
        .iter()
        .map(|name| respawn(&["--role", "worker", &sock, name]))
        .collect();
    for w in &mut workers {
        let status = w.wait().expect("worker exits");
        assert!(status.success(), "worker failed");
    }
    server.kill().expect("stop server");
    let _ = server.wait();
    println!("launcher: both workers finished; server stopped");
}

#[cfg(unix)]
fn run_server(sock: &str) {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let cfg = native_rt::UdsServerConfig::new(sock, cores);
    let _server = native_rt::UdsServer::start(cfg).expect("bind server socket");
    println!(
        "server pid {}: partitioning {cores} cores",
        std::process::id()
    );
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(unix)]
fn run_worker(sock: &str, name: &str) {
    use workloads::native::fft::{fft, Complex};

    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let nworkers = 2 * cores;
    let slot = Arc::new(native_rt::TargetSlot::new(nworkers));
    let pool = native_rt::Pool::with_slot(Arc::clone(&slot), nworkers, false);
    // The supervisor's fault counters join the pool's in one registry.
    let cfg = native_rt::SupervisorConfig::new(sock, nworkers as u32);
    let client = native_rt::SupervisedClient::new(cfg, pool.registry());
    assert!(client.connected(), "no server on {sock}");
    let _poller = client.spawn_poller(slot, Duration::from_millis(100), false);

    for seed in 0..128u64 {
        pool.execute(move || {
            let mut data: Vec<Complex> = (0..1024)
                .map(|i| Complex::new(((seed * 1024 + i) % 101) as f64 / 101.0, 0.0))
                .collect();
            for _ in 0..10 {
                fft(&mut data);
            }
            std::hint::black_box(&data);
        });
    }
    pool.wait_idle();
    let m = pool.metrics();
    println!(
        "worker '{name}' pid {}: {} jobs, target {}, suspends {}, resumes {}",
        std::process::id(),
        m.jobs_run,
        pool.target(),
        m.suspends,
        m.resumes
    );
}
