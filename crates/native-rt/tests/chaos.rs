//! Chaos-lane integration tests for the fault-tolerant control plane.
//!
//! Real processes, sockets and threads: server kills and restarts, a
//! wedged server, injected job panics and stalls. Job fault schedules come
//! from fixed seeds (`JobChaos`), and timing assertions use generous
//! deadlines rather than exact sleeps. The client's decisions under wire
//! faults are checked without sockets, by the seeded control-loop
//! simulation in `native_rt::chaos`'s tests. CI runs both in its own
//! `chaos` lane.

#![cfg(target_os = "linux")]

use native_rt::{
    JobChaos, JobFault, Pool, PoolConfig, RestartKind, SupervisedClient, SupervisorConfig,
    TargetSlot, UdsClient, UdsServer, UdsServerConfig,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("procctl-chaos-{}-{tag}.sock", std::process::id()))
}

fn fast_sup_cfg(path: &std::path::Path, nworkers: u32) -> SupervisorConfig {
    let mut cfg = SupervisorConfig::new(path, nworkers);
    cfg.io_timeout = Duration::from_millis(250);
    cfg.backoff_initial = Duration::from_millis(10);
    cfg.backoff_max = Duration::from_millis(80);
    cfg
}

/// Wait until `cond` holds or panic after `secs` seconds.
fn wait_for(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The acceptance scenario: a pool driven through a `SupervisedClient`
/// survives a server kill + restart. It must enter degraded mode (target
/// == nworkers) within a poll interval or two, re-register against the
/// restarted server's new epoch, and converge back to the fair-partition
/// target — with `reconnects` and `degraded_enters` observable via STATS.
#[test]
fn pool_survives_server_kill_and_restart() {
    let path = sock_path("kill-restart");
    let server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
    let first_epoch = server.epoch();

    let slot = Arc::new(TargetSlot::new(8));
    let pool = Pool::with_slot(Arc::clone(&slot), 8, false);
    let registry = pool.registry();
    let sup = SupervisedClient::new(fast_sup_cfg(&path, 8), Arc::clone(&registry));
    assert!(sup.connected());
    assert_eq!(sup.epoch(), Some(first_epoch));
    let _poller = sup.spawn_poller(Arc::clone(&slot), Duration::from_millis(25), true);

    // Healthy: one 8-worker app on a 4-cpu machine gets all 4 processors.
    wait_for(5, "initial fair target", || {
        slot.target.load(Ordering::Acquire) == 4
    });

    // The pool keeps doing real work across the whole outage.
    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    for _ in 0..64 {
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
    }

    // Kill the server. The poller must fall back to the uncontrolled
    // target (all 8 workers runnable) — the paper's no-server behavior.
    drop(server);
    wait_for(5, "degraded fallback target", || {
        slot.target.load(Ordering::Acquire) == 8
    });

    // Restart on the same path: new epoch, empty registration table. The
    // supervisor must reconnect, re-register, and converge back to 4.
    let server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("restart");
    assert_ne!(
        server.epoch(),
        first_epoch,
        "epochs must differ across restarts"
    );
    wait_for(5, "post-restart fair target", || {
        slot.target.load(Ordering::Acquire) == 4
    });

    pool.wait_idle();
    assert_eq!(done.load(Ordering::Relaxed), 64);

    // Recovery is visible in the pool's own registry...
    let snap = registry.snapshot();
    assert!(snap.counters["reconnects"] >= 1, "{snap:?}");
    assert!(snap.counters["degraded_enters"] >= 1, "{snap:?}");
    assert!(snap.counters["epoch_changes"] >= 1, "{snap:?}");
    assert_eq!(snap.gauges["degraded"], 0, "must have left degraded mode");
    assert!(snap.histograms["degraded_ns"].count >= 1);

    // ...and over the wire: the poller REPORTs the shared registry, so a
    // second client can read the fault counters through STATS.
    let mut observer = UdsClient::connect(&path, native_rt::DEFAULT_IO_TIMEOUT).expect("observer");
    let line = loop {
        let line = observer.app_stats(std::process::id()).expect("app stats");
        if line.contains("reconnects=") {
            break line;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        line.contains("degraded_enters="),
        "STATS line missing fault counters: {line}"
    );
}

/// CPU-set handout across an outage: under a live server the poller
/// publishes the assigned CPU set; killing the server drops the slot to
/// count-only degraded mode (no set — workers widen their affinity);
/// a restart re-registers and re-publishes a concrete set, so workers
/// re-pin on recovery.
#[test]
fn cpu_set_targets_survive_server_kill_and_restart() {
    let path = sock_path("cpuset-kill-restart");
    let server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");

    let slot = Arc::new(TargetSlot::new(8));
    let pool = Pool::with_slot(Arc::clone(&slot), 8, false);
    let sup = SupervisedClient::new(fast_sup_cfg(&path, 8), pool.registry());
    let _poller = sup.spawn_poller(Arc::clone(&slot), Duration::from_millis(25), true);

    // Healthy: the only app on a 4-cpu machine is handed all four CPUs.
    wait_for(5, "initial CPU-set handout", || {
        slot.cpus().is_some_and(|c| c.len() == 4)
    });
    let gen_pinned = slot.cpus_generation();

    // Kill the server: degraded mode must clear the set (count-only),
    // not leave workers pinned to a stale assignment.
    drop(server);
    wait_for(5, "degraded clears the CPU set", || slot.cpus().is_none());
    assert_eq!(
        slot.target.load(Ordering::Acquire),
        8,
        "degraded fallback must free all workers"
    );
    assert_ne!(slot.cpus_generation(), gen_pinned, "clear bumps generation");

    // Restart: the poller re-registers and the set comes back, so the
    // pool's workers re-apply their affinity.
    let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("restart");
    wait_for(5, "CPU set re-published after restart", || {
        slot.cpus().is_some_and(|c| c.len() == 4)
    });
    assert_eq!(slot.target.load(Ordering::Acquire), 4);
}

/// Panic isolation under churn: a seeded fraction of jobs panic, yet no
/// worker dies, every submitted job is accounted for exactly once
/// (`jobs_run` conservation), and the pool keeps executing afterwards.
#[test]
fn injected_job_panics_never_lose_workers_or_jobs() {
    let slot = Arc::new(TargetSlot::new(4));
    let mut cfg = PoolConfig::new(4);
    cfg.watchdog = Some(Duration::from_millis(500));
    let pool = Pool::with_slot_config(slot, cfg);

    const JOBS: u64 = 400;
    let mut chaos = JobChaos::new(0xBADC0DE, 0.2, 0.0, Duration::ZERO);
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..JOBS {
        let d = Arc::clone(&done);
        let (_, job) = chaos.wrap(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        pool.execute(job);
    }
    pool.wait_idle();

    let (panics, _) = chaos.injected();
    assert!(panics > 0, "the schedule must inject at least one panic");
    let m = pool.metrics();
    assert_eq!(m.jobs_run, JOBS, "conservation: every job accounted once");
    assert_eq!(m.jobs_panicked, panics, "every injected panic was caught");
    assert_eq!(
        done.load(Ordering::Relaxed) as u64,
        JOBS - panics,
        "clean jobs all ran; panicked jobs never reached their work"
    );
    assert_eq!(pool.active(), 4, "a caught panic never ends a worker");

    // The pool is still fully alive: a clean batch runs to completion.
    let after = Arc::new(AtomicUsize::new(0));
    for _ in 0..64 {
        let a = Arc::clone(&after);
        pool.execute(move || {
            a.fetch_add(1, Ordering::Relaxed);
        });
    }
    pool.wait_idle();
    assert_eq!(after.load(Ordering::Relaxed), 64);
}

/// Process control flaps the target between 1 and the full pool while
/// outside batches arrive and a seeded fraction of jobs panic: workers
/// suspend with batches in hand and panics unwind between safe points.
/// A bad hand-off here strands jobs behind a suspended worker or wedges
/// the pool; the test's liveness proof is that `wait_idle` returns with
/// every job accounted for exactly once.
#[test]
fn control_flapping_under_panics_conserves_jobs() {
    let slot = Arc::new(TargetSlot::new(4));
    let mut cfg = PoolConfig::new(4);
    cfg.watchdog = Some(Duration::from_millis(500));
    let pool = Pool::with_slot_config(Arc::clone(&slot), cfg);

    const BATCHES: u64 = 8;
    const PER_BATCH: u64 = 75;
    const JOBS: u64 = BATCHES * PER_BATCH;
    let mut chaos = JobChaos::new(0xCC10C4, 0.2, 0.0, Duration::ZERO);
    let done = Arc::new(AtomicUsize::new(0));
    for batch in 0..BATCHES {
        // Flap control out of phase with the batches: shrink to one
        // runnable worker, then restore, repeatedly. Each pause lets workers reach safe points
        // and observe the new target mid-stream.
        let target = if batch % 2 == 0 { 1 } else { 4 };
        slot.target.store(target, Ordering::Release);
        for _ in 0..PER_BATCH {
            let d = Arc::clone(&done);
            let (_, job) = chaos.wrap(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
            pool.execute(job);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    slot.target.store(4, Ordering::Release);
    pool.wait_idle();

    let (panics, _) = chaos.injected();
    assert!(panics > 0, "the schedule must inject at least one panic");
    let m = pool.metrics();
    assert_eq!(m.jobs_run, JOBS, "conservation: every job accounted once");
    assert_eq!(m.jobs_panicked, panics, "every injected panic was caught");
    assert_eq!(
        done.load(Ordering::Relaxed) as u64,
        JOBS - panics,
        "clean jobs all ran; panicked jobs never reached their work"
    );
    assert!(
        m.suspends >= 1,
        "flapping the target to 1 must suspend at least one worker"
    );
    // With the target restored, every worker comes back: none was lost
    // to a panic between safe points.
    wait_for(5, "all 4 workers active again", || pool.active() == 4);

    // Control disengaged: a clean batch runs to completion.
    let after = Arc::new(AtomicUsize::new(0));
    for _ in 0..64 {
        let a = Arc::clone(&after);
        pool.execute(move || {
            a.fetch_add(1, Ordering::Relaxed);
        });
    }
    pool.wait_idle();
    assert_eq!(after.load(Ordering::Relaxed), 64);
}

/// Stall detection bound: a job that wedges a worker is flagged by the
/// watchdog within 2× the stall threshold (scan interval is half the
/// threshold), surfaces as `Stall`/`Recovered` trace events, and closes
/// into the `stall_ns` histogram once the worker makes progress again.
#[test]
fn injected_stall_detected_within_twice_threshold() {
    const THRESHOLD: Duration = Duration::from_millis(120);
    let slot = Arc::new(TargetSlot::new(2));
    let mut cfg = PoolConfig::new(2);
    cfg.watchdog = Some(THRESHOLD);
    let pool = Pool::with_slot_config(slot, cfg);

    // Probability 1: the schedule stalls this job deterministically.
    let mut chaos = JobChaos::new(5, 0.0, 1.0, Duration::from_millis(600));
    let (fault, job) = chaos.wrap(|| {});
    assert_eq!(fault, JobFault::Stall);
    let submitted = Instant::now();
    pool.execute(job);

    wait_for(5, "stall detection", || pool.metrics().stalls_detected >= 1);
    let detected_after = submitted.elapsed();
    assert!(
        detected_after <= 2 * THRESHOLD,
        "stall flagged only after {detected_after:?} (threshold {THRESHOLD:?})"
    );

    // The episode closes when the sleep ends: duration recorded, and
    // both ends of the episode are in the flight recorder.
    pool.wait_idle();
    wait_for(5, "stall episode closes", || {
        pool.registry().snapshot().histograms["stall_ns"].count >= 1
    });
    let kinds: Vec<native_rt::EventKind> =
        pool.recorder().drain(4096).iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&native_rt::EventKind::Stall), "{kinds:?}");
    assert!(
        kinds.contains(&native_rt::EventKind::Recovered),
        "{kinds:?}"
    );
}

/// The full crash-recovery acceptance path: `kill -9` the standalone
/// serverd (no final snapshot write, no socket cleanup), restart it on
/// the same snapshot path, and the supervised client must classify the
/// restart as [`RestartKind::Recovered`] — its registration came back
/// from the periodic snapshot with no re-REGISTER — under a strictly
/// larger boot epoch.
#[test]
fn kill_nine_serverd_restart_recovers_registrations_from_snapshot() {
    let path = sock_path("kill9");
    let snap =
        std::env::temp_dir().join(format!("procctl-chaos-{}-kill9.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap);
    let spawn = || spawn_serverd(&path, Some(&snap));
    let mut child = spawn();
    wait_for(10, "server socket", || path.exists());

    let registry = Arc::new(native_rt::Registry::new());
    let mut sup = SupervisedClient::new(fast_sup_cfg(&path, 8), Arc::clone(&registry));
    wait_for(10, "first healthy poll", || {
        sup.retry_now();
        sup.poll_target() == Some(4)
    });
    let e1 = sup.epoch().expect("epoch after first poll");

    // Wait for a *periodic* snapshot to capture our registration — with
    // SIGKILL there is no shutdown write, this file is all that survives.
    let app_line = format!("app {} ", std::process::id());
    wait_for(10, "registration snapshotted", || {
        std::fs::read_to_string(&snap).is_ok_and(|s| s.contains(&app_line))
    });

    child.kill().expect("kill -9");
    let _ = child.wait();
    wait_for(10, "supervisor notices the kill", || {
        sup.poll_target().is_none()
    });

    // Restart on the same socket (stale file reclaimed) and snapshot.
    let mut child2 = spawn();
    wait_for(10, "post-restart healthy poll", || {
        sup.retry_now();
        sup.poll_target() == Some(4)
    });

    assert_eq!(
        sup.last_restart(),
        Some(RestartKind::Recovered),
        "restart must be classified as recovered-from-snapshot"
    );
    let e2 = sup.epoch().expect("epoch after recovery");
    assert!(e2 > e1, "boot epochs must be monotone: {e1} -> {e2}");
    let snap_counters = registry.snapshot().counters;
    assert_eq!(snap_counters["restarts_recovered"], 1);
    assert_eq!(
        snap_counters["restarts_cold"], 0,
        "a recovered restart must not re-REGISTER"
    );

    let _ = child2.kill();
    let _ = child2.wait();
    let _ = std::fs::remove_file(&snap);
}

/// Starts the standalone daemon on `path` with 4 processors, snapshotting
/// to `snap` every 25 ms when given one.
fn spawn_serverd(path: &std::path::Path, snap: Option<&std::path::Path>) -> std::process::Child {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_procctl-serverd"));
    cmd.arg(path.as_os_str()).args(["--cpus", "4"]);
    if let Some(snap) = snap {
        cmd.args(["--snapshot-interval-ms", "25", "--snapshot"])
            .arg(snap.as_os_str());
    }
    cmd.stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serverd")
}

/// One of the server's own statistics, read over the wire.
fn server_stat(path: &std::path::Path, key: &str) -> i64 {
    let mut observer = UdsClient::connect(path, Duration::from_secs(2)).expect("observer");
    let stats = observer.stats().expect("STATS");
    stats
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no {key} in STATS"))
        .1
}

/// `kill -9` with a poll parked in the server: the supervisor must see
/// the EOF at once — not sit out its hold, let alone its I/O timeout —
/// and then recover through the snapshot like any other restart.
#[test]
fn kill_nine_with_a_poll_parked_degrades_on_eof_and_recovers() {
    let path = sock_path("kill9-parked");
    let snap = std::env::temp_dir().join(format!(
        "procctl-chaos-{}-kill9-parked.snap",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&snap);
    let spawn = || spawn_serverd(&path, Some(&snap));
    let mut child = spawn();
    wait_for(10, "server socket", || path.exists());

    // A long I/O timeout (hence a one-second hold): only the EOF can
    // end the parked poll within the bound below.
    let mut cfg = fast_sup_cfg(&path, 8);
    cfg.io_timeout = Duration::from_secs(4);
    let registry = Arc::new(native_rt::Registry::new());
    let mut sup = SupervisedClient::new(cfg, Arc::clone(&registry));
    wait_for(10, "first healthy poll", || {
        sup.retry_now();
        sup.poll_target() == Some(4)
    });
    let app_line = format!("app {} ", std::process::id());
    wait_for(10, "registration snapshotted", || {
        std::fs::read_to_string(&snap).is_ok_and(|s| s.contains(&app_line))
    });

    let killer = {
        let path = path.clone();
        std::thread::spawn(move || {
            wait_for(10, "the poll to park", || server_stat(&path, "parked") == 1);
            child.kill().expect("kill -9");
            let killed = Instant::now();
            let _ = child.wait();
            killed
        })
    };
    while sup.poll_target().is_some() {}
    let noticed = Instant::now();
    let killed = killer.join().expect("killer thread");
    let lag = noticed.saturating_duration_since(killed);
    assert!(
        lag < Duration::from_millis(200),
        "the kill took {lag:?} to reach a supervisor with a one-second hold"
    );
    assert_eq!(registry.snapshot().gauges["degraded"], 1);

    let mut child2 = spawn();
    wait_for(10, "post-restart healthy poll", || {
        sup.retry_now();
        sup.poll_target() == Some(4)
    });
    assert_eq!(sup.last_restart(), Some(RestartKind::Recovered));
    assert_eq!(registry.snapshot().counters["restarts_cold"], 0);

    let _ = child2.kill();
    let _ = child2.wait();
    let _ = std::fs::remove_file(&snap);
}

/// Clients that die while parked (no BYE, just a closed socket) leave
/// nothing behind in the server: no park, no descriptor.
#[test]
fn clients_killed_while_parked_leak_no_park_and_no_descriptor() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    let path = sock_path("parked-killed");
    let mut child = spawn_serverd(&path, None);
    wait_for(10, "server socket", || path.exists());
    let open_fds = |pid: u32| {
        std::fs::read_dir(format!("/proc/{pid}/fd"))
            .expect("/proc/<pid>/fd")
            .count()
    };
    // One round trip proves the reactor is up (its poller descriptor
    // exists); the baseline is what is left once that connection's
    // descriptor has closed again.
    assert_eq!(server_stat(&path, "parked"), 0);
    let mut baseline = open_fds(child.id());
    wait_for(5, "the observer's descriptor to close", || {
        std::thread::sleep(Duration::from_millis(20));
        let before = std::mem::replace(&mut baseline, open_fds(child.id()));
        before == baseline
    });

    let pid = std::process::id();
    let mut clients = Vec::new();
    for _ in 0..16 {
        let mut s = UnixStream::connect(&path).expect("connect");
        s.write_all(format!("REGISTER {pid} 8\n").as_bytes())
            .expect("register");
        let mut reader = BufReader::new(s.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("OK");
        let epoch = line
            .trim()
            .strip_prefix("OK ")
            .expect("OK <epoch>")
            .to_string();
        s.write_all(format!("POLL {pid} wait 10000 4 {epoch}\n").as_bytes())
            .expect("park");
        clients.push((s, reader));
    }
    wait_for(5, "16 parked polls", || server_stat(&path, "parked") == 16);
    assert!(open_fds(child.id()) >= baseline + 16);

    drop(clients);
    wait_for(5, "the parks to be forgotten", || {
        server_stat(&path, "parked") == 0
    });
    wait_for(5, "the descriptors to close", || {
        open_fds(child.id()) <= baseline
    });
    assert_eq!(server_stat(&path, "park_released_changed"), 0);
    assert_eq!(server_stat(&path, "park_released_held"), 0);

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&path);
}

/// A wedged server — it accepts, answers the registration and one poll,
/// then reads and never answers — costs a parked poll its I/O timeout and
/// no more: the fallback comes back, degraded mode is counted, and the
/// client recovers once a real server binds the path.
#[test]
fn wedged_server_bounded_by_client_timeout() {
    use std::io::{BufRead, BufReader, Write};
    let path = sock_path("wedged");
    let _ = std::fs::remove_file(&path);
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind");
    let wedged = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut writer = stream.try_clone().expect("clone");
        let mut lines = BufReader::new(stream).lines();
        for reply in ["OK 1\n", "TARGET 4 1\n"] {
            lines.next().expect("a frame").expect("read");
            writer.write_all(reply.as_bytes()).expect("reply");
        }
        // Read on, answering nothing, until the client hangs up.
        lines.count()
    });

    let registry = Arc::new(native_rt::Registry::new());
    let mut sup = SupervisedClient::new(fast_sup_cfg(&path, 8), Arc::clone(&registry));
    assert_eq!(sup.poll_target(), Some(4));
    // Holding a reply, the next poll is the wait form (a 125 ms hold);
    // the 250 ms I/O timeout ends it.
    let start = Instant::now();
    let got = sup.poll_target();
    let stalled = start.elapsed();
    assert_eq!(got, None, "a wedged server must yield the fallback");
    assert!(
        stalled < Duration::from_millis(500),
        "the I/O timeout did not bound the stall: {stalled:?}"
    );
    assert_eq!(registry.snapshot().counters["degraded_enters"], 1);
    assert!(!sup.connected(), "the wedged connection must go");
    assert!(
        wedged.join().expect("wedged server") >= 1,
        "the wait-form poll went out"
    );

    let _ = std::fs::remove_file(&path);
    let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
    wait_for(5, "recovery on a real server", || {
        sup.retry_now();
        sup.poll_target() == Some(4)
    });
    let snap = registry.snapshot();
    assert_eq!(snap.gauges["degraded"], 0);
    assert_eq!(snap.counters["degraded_enters"], 1);
}
