//! Stress and property tests for the native runtime (real threads).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use native_rt::{Controller, Pool};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every job runs exactly once for arbitrary worker counts, machine
    /// sizes, and job counts — including zero jobs and heavy overcommit.
    #[test]
    fn all_jobs_run_exactly_once(
        cpus in 1usize..4,
        workers in 1usize..10,
        jobs in 0usize..300,
    ) {
        let controller = Controller::new(cpus, Duration::from_millis(10));
        let pool = Pool::new(&controller, workers, false);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..jobs {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        prop_assert_eq!(counter.load(Ordering::Relaxed), jobs);
        prop_assert_eq!(pool.metrics().jobs_run, jobs as u64);
    }

    /// Pools can be created and torn down repeatedly against one
    /// controller without deadlock, and shares always sum feasibly.
    #[test]
    fn churn_does_not_wedge(pools in prop::collection::vec(1usize..8, 1..5)) {
        let controller = Controller::new(4, Duration::from_millis(10));
        for &workers in &pools {
            let pool = Pool::new(&controller, workers, false);
            for _ in 0..20 {
                pool.execute(|| {
                    std::thread::sleep(Duration::from_micros(50));
                });
            }
            pool.wait_idle();
            prop_assert!(pool.target() >= 1);
            prop_assert!(pool.target() <= workers.max(4));
            drop(pool);
        }
        controller.recompute_now();
    }
}

/// Two pools hammered concurrently from submitter threads: totals must be
/// exact and the controller's equal split honored.
#[test]
fn concurrent_submitters_two_pools() {
    let controller = Controller::new(2, Duration::from_millis(10));
    let a = Arc::new(Pool::new(&controller, 6, false));
    let b = Arc::new(Pool::new(&controller, 6, false));
    controller.recompute_now();
    assert_eq!(a.target(), 1);
    assert_eq!(b.target(), 1);
    let count = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = (0..4)
        .map(|i| {
            let pool = if i % 2 == 0 {
                Arc::clone(&a)
            } else {
                Arc::clone(&b)
            };
            let c = Arc::clone(&count);
            std::thread::spawn(move || {
                for _ in 0..250 {
                    let c2 = Arc::clone(&c);
                    pool.execute(move || {
                        c2.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter");
    }
    a.wait_idle();
    b.wait_idle();
    assert_eq!(count.load(Ordering::Relaxed), 1000);
    assert_eq!(a.metrics().jobs_run + b.metrics().jobs_run, 1000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Job conservation across all three acquisition paths: however jobs
    /// arrive (external submitters racing with fork-join spawns from
    /// inside workers), every one is accounted to exactly one of the
    /// local-pop, injector-pop, or steal counters — and their sum equals
    /// the number run.
    #[test]
    fn acquisition_paths_partition_all_jobs(
        workers in 1usize..8,
        submitters in 1usize..4,
        external in 1usize..120,
        fanout in 0usize..40,
    ) {
        let controller = Controller::new(4, Duration::from_millis(10));
        let pool = Arc::new(Pool::new(&controller, workers, false));
        let ran = Arc::new(AtomicUsize::new(0));

        // External producers hammer the injector from non-worker threads.
        let handles: Vec<_> = (0..submitters)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let ran = Arc::clone(&ran);
                std::thread::spawn(move || {
                    for _ in 0..external {
                        let r = Arc::clone(&ran);
                        pool.execute(move || {
                            r.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();

        // Fork-join: each seed job spawns two children from inside a
        // worker, exercising the TLS local-deque fast path (and steals,
        // once siblings go hunting).
        for _ in 0..fanout {
            let pool2 = Arc::clone(&pool);
            let ran2 = Arc::clone(&ran);
            pool.execute(move || {
                ran2.fetch_add(1, Ordering::Relaxed);
                for _ in 0..2 {
                    let r = Arc::clone(&ran2);
                    pool2.execute(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }

        for h in handles {
            h.join().expect("submitter");
        }
        pool.wait_idle();

        let submitted = submitters * external + fanout * 3;
        prop_assert_eq!(ran.load(Ordering::Relaxed), submitted);
        let m = pool.metrics();
        prop_assert_eq!(m.jobs_run, submitted as u64);
        prop_assert_eq!(
            m.local_hits + m.injector_pops + m.steals,
            m.jobs_run,
            "acquisition counters must partition jobs_run: {:?}",
            m
        );
    }
}

/// The conservation invariant holds under sustained multithreaded churn
/// with process control actively suspending and resuming workers.
#[test]
fn conservation_holds_under_process_control_churn() {
    let controller = Controller::new(1, Duration::from_millis(5));
    let pool = Arc::new(Pool::new(&controller, 6, false));
    let ran = Arc::new(AtomicUsize::new(0));
    let submitters: Vec<_> = (0..3)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                for i in 0..400 {
                    let r = Arc::clone(&ran);
                    if i % 8 == 0 {
                        // Occasionally do a little work so suspension
                        // points interleave with nonempty deques.
                        pool.execute(move || {
                            std::thread::sleep(Duration::from_micros(20));
                            r.fetch_add(1, Ordering::Relaxed);
                        });
                    } else {
                        pool.execute(move || {
                            r.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter");
    }
    pool.wait_idle();
    assert_eq!(ran.load(Ordering::Relaxed), 1200);
    let m = pool.metrics();
    assert_eq!(m.jobs_run, 1200);
    assert_eq!(
        m.local_hits + m.injector_pops + m.steals,
        m.jobs_run,
        "jobs leaked between queues under suspension churn: {m:?}"
    );

    // Deterministic tail for the suspended-victim skip: wait until the
    // pool settles at its target of one active worker (the other five
    // parked as suspended, their steal flags raised), then push one more
    // burst. The active worker's hunt between injector pops must *skip*
    // the flagged victims — their deques are provably empty — and count
    // each skip.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let m = pool.metrics();
        if m.suspends > m.resumes {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pool never settled into suspension: {m:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for _ in 0..64 {
        let r = Arc::clone(&ran);
        pool.execute(move || {
            r.fetch_add(1, Ordering::Relaxed);
        });
    }
    pool.wait_idle();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while pool.metrics().steal_skips_suspended == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "steal scans never skipped a suspended victim: {:?}",
            pool.metrics()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let m = pool.metrics();
    assert_eq!(m.jobs_run, 1264);
    assert_eq!(
        m.local_hits + m.injector_pops + m.steals,
        m.jobs_run,
        "skipping suspended victims broke conservation: {m:?}"
    );
}

/// One node of a fork-join tree: forks two children from inside the
/// worker (own deque, counted in that worker's `spawned` cell).
fn tree_node(pool: Arc<Pool>, depth: u32) {
    if depth == 0 {
        return;
    }
    for _ in 0..2 {
        let p = Arc::clone(&pool);
        pool.execute(move || tree_node(p, depth - 1));
    }
}

/// Quiescence over the per-worker cells: trees forked from several
/// outside threads while the target flaps 1↔N (workers suspend with
/// nonempty deques, drain them to the injector, and are the "last
/// finisher" as often as an idling worker is). The counters are read
/// with no sleep after `wait_idle` returns: the scan that let it return
/// must already cover every job's own bookkeeping.
#[test]
fn forkjoin_trees_under_target_flapping_balance_at_wait_idle() {
    use native_rt::TargetSlot;
    use std::sync::atomic::AtomicBool;

    const WORKERS: usize = 4;
    const SUBMITTERS: u64 = 3;
    const TREES: u64 = 25;
    const DEPTH: u32 = 6;
    const NODES: u64 = (1 << (DEPTH + 1)) - 1;
    for round in 0..4u64 {
        let slot = Arc::new(TargetSlot::new(WORKERS));
        let pool = Arc::new(Pool::with_slot(Arc::clone(&slot), WORKERS, false));
        let stop = Arc::new(AtomicBool::new(false));
        let flapper = {
            let (slot, stop) = (Arc::clone(&slot), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut flip = false;
                while !stop.load(Ordering::Acquire) {
                    flip = !flip;
                    slot.target
                        .store(if flip { 1 } else { WORKERS }, Ordering::Release);
                    std::thread::sleep(Duration::from_micros(150));
                }
            })
        };
        let submitters: Vec<_> = (0..SUBMITTERS)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..TREES {
                        let p = Arc::clone(&pool);
                        pool.execute(move || tree_node(p, DEPTH));
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().expect("submitter");
        }
        pool.wait_idle();
        let (m, snap) = (pool.metrics(), pool.stats());
        let submitted = SUBMITTERS * TREES * NODES;
        assert_eq!(m.jobs_run, submitted, "round {round}: {m:?}");
        assert_eq!(
            m.local_hits + m.injector_pops + m.steals,
            m.jobs_run,
            "round {round}: a path count lagged the scan: {m:?}"
        );
        assert_eq!(snap.counters["jobs_run"], submitted, "round {round}");
        assert_eq!(
            snap.counters["local_hits"] + snap.counters["injector_pops"] + snap.counters["steals"],
            submitted,
            "round {round}: snapshot sums disagree with the cells"
        );
        stop.store(true, Ordering::Release);
        flapper.join().expect("flapper");
    }
}

/// Outside bursts deep enough that workers take the injector in
/// batches, while the target flaps 1↔P: a worker suspends with the rest
/// of a batch on its deque and hands it back through the injector, and
/// another takes it again. Every job runs once and is counted by the one
/// path that took it when it ran.
#[test]
fn batched_outside_bursts_under_target_flapping_conserve_jobs() {
    use native_rt::TargetSlot;
    use std::sync::atomic::AtomicBool;

    const WORKERS: usize = 4;
    const PRODUCERS: usize = 2;
    const BURSTS: usize = 20;
    const BURST: usize = 512;
    let slot = Arc::new(TargetSlot::new(WORKERS));
    let pool = Arc::new(Pool::with_slot(Arc::clone(&slot), WORKERS, false));
    let stop = Arc::new(AtomicBool::new(false));
    let flapper = {
        let (slot, stop) = (Arc::clone(&slot), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut flip = false;
            while !stop.load(Ordering::Acquire) {
                flip = !flip;
                slot.target
                    .store(if flip { 1 } else { WORKERS }, Ordering::Release);
                std::thread::sleep(Duration::from_micros(150));
            }
        })
    };
    let ran = Arc::new(AtomicUsize::new(0));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|_| {
            let (pool, ran) = (Arc::clone(&pool), Arc::clone(&ran));
            std::thread::spawn(move || {
                for _ in 0..BURSTS {
                    for _ in 0..BURST {
                        let r = Arc::clone(&ran);
                        pool.execute(move || {
                            r.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();
    for p in producers {
        p.join().expect("producer");
    }
    pool.wait_idle();
    stop.store(true, Ordering::Release);
    flapper.join().expect("flapper");
    let submitted = (PRODUCERS * BURSTS * BURST) as u64;
    let m = pool.metrics();
    assert_eq!(ran.load(Ordering::Relaxed) as u64, submitted);
    assert_eq!(m.jobs_run, submitted, "{m:?}");
    assert_eq!(
        m.local_hits + m.injector_pops + m.steals,
        m.jobs_run,
        "a job batched, handed back or stolen was counted twice or not at all: {m:?}"
    );
    // No job forks: every local hit is a batched outside job.
    assert!(m.local_hits > 0, "no batch formed: {m:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The registry's sums are the per-worker cells: snapshots taken
    /// while the single writers run never show a counter going back or
    /// more jobs finished than acquired, and once the writers are joined
    /// the snapshot equals the cells' own totals and what was written.
    #[test]
    fn snapshot_sums_equal_the_cells_under_concurrent_snapshots(
        per_worker in prop::collection::vec(0u64..3000, 1..5),
    ) {
        use native_rt::quiesce::Quiesce;
        use native_rt::Registry;

        let q = Arc::new(Quiesce::new(per_worker.len()));
        let registry = Registry::new();
        registry.counter_source(Arc::clone(&q) as _);
        let writers: Vec<_> = per_worker
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let cells = q.cells(i);
                    for k in 0..n {
                        match k % 3 {
                            0 => cells.count_local_hit(),
                            1 => cells.count_injector_pop(),
                            _ => cells.count_steal(),
                        }
                        cells.count_finish();
                    }
                })
            })
            .collect();
        let mut last = 0u64;
        while writers.iter().any(|w| !w.is_finished()) {
            let c = registry.snapshot().counters;
            prop_assert!(c["jobs_run"] >= last, "jobs_run went back");
            prop_assert!(c["local_hits"] + c["injector_pops"] + c["steals"] >= c["jobs_run"]);
            last = c["jobs_run"];
        }
        for w in writers {
            w.join().expect("writer");
        }
        let total: u64 = per_worker.iter().sum();
        let (c, t) = (registry.snapshot().counters, q.totals());
        prop_assert_eq!(c["jobs_run"], total);
        prop_assert_eq!(c["jobs_run"], t.jobs_run);
        prop_assert_eq!(c["local_hits"], t.local_hits);
        prop_assert_eq!(c["injector_pops"], t.injector_pops);
        prop_assert_eq!(c["steals"], t.steals);
        prop_assert_eq!(t.local_hits + t.injector_pops + t.steals, total);
    }
}

/// Supervised pollers churned against a server that dies and comes back:
/// pools keep finishing work, every poller thread joins cleanly, and no
/// poll ever wedges. (The TSan lane runs this to race-check the
/// supervised-client threads against the pool's workers.)
#[cfg(target_os = "linux")]
#[test]
fn supervised_poller_churn_across_server_restarts() {
    use native_rt::{SupervisedClient, SupervisorConfig, TargetSlot, UdsServer, UdsServerConfig};

    let path = std::env::temp_dir().join(format!("procctl-stress-sup-{}.sock", std::process::id()));
    let mut server = Some(UdsServer::start(UdsServerConfig::new(&path, 2)).expect("server"));
    let ran = Arc::new(AtomicUsize::new(0));
    for round in 0..3 {
        // Alternate rounds run without a server: pollers must stay in
        // degraded mode and the pools must still drain their queues.
        if round == 1 {
            server = None;
        } else if server.is_none() {
            server = Some(UdsServer::start(UdsServerConfig::new(&path, 2)).expect("restart"));
        }
        let guards: Vec<_> = (0..2)
            .map(|_| {
                let slot = Arc::new(TargetSlot::new(4));
                let pool = Pool::with_slot(Arc::clone(&slot), 4, false);
                let mut cfg = SupervisorConfig::new(&path, 4);
                cfg.io_timeout = Duration::from_millis(100);
                cfg.backoff_initial = Duration::from_millis(5);
                cfg.backoff_max = Duration::from_millis(40);
                let sup = SupervisedClient::new(cfg, pool.registry());
                let guard = sup.spawn_poller(slot, Duration::from_millis(10), true);
                for _ in 0..100 {
                    let r = Arc::clone(&ran);
                    pool.execute(move || {
                        r.fetch_add(1, Ordering::Relaxed);
                    });
                }
                pool.wait_idle();
                (pool, guard)
            })
            .collect();
        drop(guards); // joins poller threads, then pool workers
    }
    drop(server);
    assert_eq!(ran.load(Ordering::Relaxed), 600);
}

/// A suspended worker parked for a long stretch still wakes for shutdown.
#[test]
fn long_suspension_then_clean_shutdown() {
    let controller = Controller::new(1, Duration::from_millis(10));
    let pool = Pool::new(&controller, 4, false);
    for _ in 0..50 {
        pool.execute(|| std::thread::sleep(Duration::from_micros(100)));
    }
    pool.wait_idle();
    // Let workers reach their suspension points and park.
    std::thread::sleep(Duration::from_millis(150));
    let m = pool.metrics();
    assert!(m.suspends >= 1, "expected suspensions, got {m:?}");
    drop(pool); // Must join everyone.
}
