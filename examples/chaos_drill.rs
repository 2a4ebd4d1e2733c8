//! A scripted chaos drill against the self-healing runtime.
//!
//! One process, seven acts: start a snapshot-backed control server,
//! attach a watchdogged worker pool through a `SupervisedClient`, kill
//! the server mid-flight, let the pool run degraded, restart the server
//! (which restores its registrations from the snapshot — the supervisor
//! classifies the restart as *recovered*, no re-REGISTER), inject
//! worker panics and a worker stall from a seeded schedule, and print
//! the fault counters every layer left behind — the transcript pasted
//! into EXPERIMENTS.md §Chaos drill.
//!
//! Run with: `cargo run --release --example chaos_drill`

#[cfg(target_os = "linux")]
fn main() {
    use native_rt::{
        JobChaos, Pool, PoolConfig, SupervisedClient, SupervisorConfig, TargetSlot, UdsClient,
        UdsServer, UdsServerConfig,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let path = std::env::temp_dir().join(format!("procctl-drill-{}.sock", std::process::id()));
    let cpus = 4;
    let nworkers = 8;

    let snap_path = std::env::temp_dir().join(format!("procctl-drill-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&snap_path);
    let mut scfg = UdsServerConfig::new(&path, cpus);
    scfg.snapshot_path = Some(snap_path.clone());
    scfg.snapshot_interval = Duration::from_millis(25);
    let server = UdsServer::start(scfg.clone()).expect("server");
    println!(
        "[t=0ms] server up: {} cpus, epoch {}, snapshot {}",
        cpus,
        server.epoch(),
        snap_path.display()
    );

    let slot = Arc::new(TargetSlot::new(nworkers));
    let mut pcfg = PoolConfig::new(nworkers);
    pcfg.watchdog = Some(Duration::from_millis(100));
    let pool = Pool::with_slot_config(Arc::clone(&slot), pcfg);
    let mut cfg = SupervisorConfig::new(&path, nworkers as u32);
    cfg.io_timeout = Duration::from_millis(250);
    cfg.backoff_initial = Duration::from_millis(20);
    cfg.backoff_max = Duration::from_millis(200);
    // The poller ships the pool's flight-recorder rings over EVENTS each
    // round; the server journals them next to its own decision instants.
    let sup = SupervisedClient::new(cfg, pool.registry()).with_recorder(pool.recorder());
    let first_epoch = sup.epoch().expect("registered");
    let _poller = sup.spawn_poller(Arc::clone(&slot), Duration::from_millis(25), true);

    let start = Instant::now();
    let t = |start: Instant| start.elapsed().as_millis();
    let target = |slot: &Arc<TargetSlot>| slot.target.load(Ordering::Acquire);
    let settle = |slot: &Arc<TargetSlot>, want: usize| {
        while target(slot) != want {
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    settle(&slot, cpus);
    println!(
        "[t={}ms] pool registered (epoch {first_epoch}): target {} of {} workers",
        t(start),
        target(&slot),
        nworkers
    );

    // Keep the pool busy with real work for the whole drill.
    let done = Arc::new(AtomicUsize::new(0));
    for _ in 0..4000 {
        let d = Arc::clone(&done);
        pool.execute(move || {
            std::thread::sleep(Duration::from_micros(200));
            d.fetch_add(1, Ordering::Relaxed);
        });
    }

    println!("[t={}ms] >>> killing the server", t(start));
    drop(server);
    settle(&slot, nworkers);
    println!(
        "[t={}ms] degraded mode: target {} (uncontrolled — all workers runnable)",
        t(start),
        target(&slot)
    );

    std::thread::sleep(Duration::from_millis(300));
    println!(
        "[t={}ms] >>> restarting the server ({} jobs done so far)",
        t(start),
        done.load(Ordering::Relaxed)
    );
    let server = UdsServer::start(scfg).expect("restart");
    println!(
        "[t={}ms] new epoch {} ({} registrations restored from snapshot)",
        t(start),
        server.epoch(),
        server.stats().counters["snapshot_restores"]
    );
    settle(&slot, cpus);
    let reg = pool.registry().snapshot();
    println!(
        "[t={}ms] recovered: target back to {} — restart classified recovered={} cold={} (registration came back from the snapshot, no re-REGISTER)",
        t(start),
        target(&slot),
        reg.counters["restarts_recovered"],
        reg.counters["restarts_cold"],
    );

    pool.wait_idle();
    println!(
        "[t={}ms] all {} jobs done",
        t(start),
        done.load(Ordering::Relaxed)
    );

    // Data-plane chaos: a seeded schedule panics ~10% of a batch. The
    // pool catches each one; no worker dies, nothing is lost. The
    // injected panics are the point — keep the default hook's backtrace
    // spew out of the transcript.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("chaos: injected"));
        if !injected {
            default_hook(info);
        }
    }));
    let mut job_chaos = JobChaos::new(0xD211, 0.1, 0.0, Duration::ZERO);
    let survived = Arc::new(AtomicUsize::new(0));
    let ran_before = pool.metrics().jobs_run;
    for _ in 0..500 {
        let s = Arc::clone(&survived);
        let (_, job) = job_chaos.wrap(move || {
            s.fetch_add(1, Ordering::Relaxed);
        });
        pool.execute(job);
    }
    // A bounded wait, not `wait_idle`: a pool whose workers died of the
    // panics would never drain the batch, and the check below would
    // never run.
    let deadline = Instant::now() + Duration::from_secs(10);
    while pool.metrics().jobs_run < ran_before + 500 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let (injected_panics, _) = job_chaos.injected();
    let m = pool.metrics();
    let live = pool.live_workers();
    println!(
        "[t={}ms] >>> injected {injected_panics} job panics across 500 jobs: {} clean jobs ran, jobs_panicked={} caught, live workers {live}/{nworkers}",
        t(start),
        survived.load(Ordering::Relaxed),
        m.jobs_panicked,
    );
    if live != nworkers {
        eprintln!(
            "chaos_drill: {} worker(s) lost to job panics",
            nworkers - live
        );
        std::process::exit(1);
    }

    // And one wedged job: the stall watchdog (threshold 100 ms) flags it
    // while it sleeps, then closes the episode when the worker recovers.
    let (_, wedged) = JobChaos::new(1, 0.0, 1.0, Duration::from_millis(300)).wrap(|| {});
    let stall_start = Instant::now();
    pool.execute(wedged);
    while pool.metrics().stalls_detected == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!(
        "[t={}ms] >>> injected a 300 ms worker stall: watchdog flagged it after {} ms",
        t(start),
        stall_start.elapsed().as_millis()
    );
    pool.wait_idle();

    // The poller REPORTs the pool registry, so the recovery is visible
    // over the wire to any client — this is what an operator would see.
    // An observer `connect`s without registering, so watching the fleet
    // never takes a processor share away from it.
    std::thread::sleep(Duration::from_millis(60)); // one more REPORT cycle
    let mut observer = UdsClient::connect(&path, native_rt::DEFAULT_IO_TIMEOUT).expect("observer");
    let line = observer
        .app_stats(std::process::id())
        .expect("app stats over the wire");
    let fault_keys = [
        "reconnects",
        "degraded_enters",
        "epoch_changes",
        "poll_errors",
        "degraded",
        "restarts_recovered",
        "restarts_cold",
        "jobs_panicked",
        "stalls_detected",
    ];
    let faults: Vec<&str> = line
        .split_whitespace()
        .filter(|kv| {
            fault_keys
                .iter()
                .any(|k| kv.starts_with(&format!("{k}=")) || kv.starts_with(&format!("{k}_ns.")))
        })
        .collect();
    println!(
        "[t={}ms] STATS (fault counters): {}",
        t(start),
        faults.join(" ")
    );
    println!(
        "[t={}ms] server-side: {}",
        t(start),
        server.stats().render_line()
    );

    // Drain the server's journal for this app (shipped ring events plus
    // the post-restart decision instants) and merge it into a Perfetto
    // fleet timeline — the wire-path twin of the in-process two-pool drill
    // in tests/observability.rs.
    let (epoch, events) = observer
        .trace(std::process::id(), None)
        .expect("TRACE over the wire");
    let journaled = events.len();
    let app = metrics::perfetto::AppTimeline {
        pid: u64::from(std::process::id()),
        name: "drill pool".into(),
        events,
    };
    let mut fleet = metrics::TraceBuilder::new();
    metrics::perfetto::sched_timeline(&mut fleet, &[app]);
    let doc = fleet.finish().render();
    let out = std::env::temp_dir().join("chaos_drill_fleet_trace.json");
    std::fs::write(&out, &doc).expect("write fleet timeline");
    println!(
        "[t={}ms] fleet timeline: {journaled} journaled events (epoch {epoch}) -> {}",
        t(start),
        out.display()
    );
    let _ = std::fs::remove_file(&snap_path);
}

#[cfg(not(target_os = "linux"))]
fn main() {
    eprintln!("chaos_drill requires Linux (Unix sockets + /proc)");
}
