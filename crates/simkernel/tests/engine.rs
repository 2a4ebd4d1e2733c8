//! End-to-end tests of the simulated kernel engine.

use desim::{SimDur, SimTime};
use simkernel::policy::FifoRoundRobin;
use simkernel::{
    Action, AppId, FnBehavior, Kernel, KernelConfig, KernelConfig as KC, Pid, Script, Wakeup,
};

fn small_cfg(cpus: usize) -> KernelConfig {
    KC::multimax().with_cpus(cpus)
}

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_secs(secs)
}

fn kernel(cpus: usize) -> Kernel {
    Kernel::new(small_cfg(cpus), Box::new(FifoRoundRobin::new()))
}

#[test]
fn single_process_computes_and_exits() {
    let mut k = kernel(1);
    let pid = k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(10))])),
    );
    assert!(k.run_to_completion(t(10)));
    let acct = k.proc_accounting(pid);
    assert!(acct.work >= SimDur::from_millis(10));
    assert_eq!(
        acct.dispatches, 1,
        "no preemption expected within a quantum"
    );
    assert_eq!(k.runnable_count(), 0);
    assert!(k.app_done_time(AppId(0)).is_some());
}

#[test]
fn completion_time_includes_switch_and_refill() {
    let mut k = kernel(1);
    k.spawn_root(
        AppId(0),
        1_000,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(10))])),
    );
    assert!(k.run_to_completion(t(10)));
    let done = k.app_done_time(AppId(0)).unwrap();
    // 100 us switch + 1000 lines * 500 ns refill = 600 us of overhead, plus
    // 10 ms of work and ~200 us exit service.
    assert!(done > SimTime::ZERO + SimDur::from_millis(10));
    assert!(done < SimTime::ZERO + SimDur::from_millis(12));
}

#[test]
fn two_processes_one_cpu_round_robin() {
    let mut k = kernel(1);
    // Each needs 250 ms of work; quantum is 100 ms, so both get preempted
    // and interleave.
    let a = k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(250))])),
    );
    let b = k.spawn_root(
        AppId(1),
        64,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(250))])),
    );
    assert!(k.run_to_completion(t(10)));
    let (aa, ab) = (k.proc_accounting(a), k.proc_accounting(b));
    assert!(aa.preemptions >= 2, "a preempted {} times", aa.preemptions);
    assert!(ab.preemptions >= 2);
    // Completions should land near each other (fair interleaving).
    let da = k.app_done_time(AppId(0)).unwrap();
    let db = k.app_done_time(AppId(1)).unwrap();
    let gap = db.saturating_since(da).max(da.saturating_since(db));
    assert!(gap < SimDur::from_millis(150), "unfair gap {gap}");
}

#[test]
fn processes_fill_all_cpus_in_parallel() {
    let mut k = kernel(4);
    for i in 0..4 {
        k.spawn_root(
            AppId(i),
            64,
            Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(50))])),
        );
    }
    assert!(k.run_to_completion(t(10)));
    // All four ran in parallel: done well before 4 * 50 ms.
    let done = (0..4)
        .map(|i| k.app_done_time(AppId(i)).unwrap())
        .max()
        .unwrap();
    assert!(
        done < SimTime::ZERO + SimDur::from_millis(60),
        "done {done}"
    );
}

#[test]
fn spinlock_serializes_critical_sections() {
    let mut k = kernel(2);
    let lock = k.create_lock();
    // Two processes each do: acquire, compute 10 ms (in section), release.
    for i in 0..2 {
        k.spawn_root(
            AppId(i),
            64,
            Box::new(Script::new(vec![
                Action::AcquireLock(lock),
                Action::Compute(SimDur::from_millis(10)),
                Action::ReleaseLock(lock),
            ])),
        );
    }
    assert!(k.run_to_completion(t(10)));
    let stats = k.lock_stats(lock);
    assert_eq!(stats.acquisitions, 2);
    assert_eq!(stats.contended, 1, "second process should have spun");
    // The loser spun for roughly the critical section length.
    let spin: SimDur = (0..2)
        .map(|i| k.app_stats(AppId(i)).spin)
        .fold(SimDur::ZERO, |a, b| a + b);
    assert!(spin >= SimDur::from_millis(8), "spin {spin}");
    assert!(spin <= SimDur::from_millis(12), "spin {spin}");
}

#[test]
fn preempted_lock_holder_stalls_spinners() {
    // One processor, two processes: the holder takes the lock then computes
    // past its quantum; the contender spins. Total spin should be large
    // because the holder loses the processor mid-section to the spinner,
    // which then burns a whole quantum spinning.
    let mut k = kernel(1);
    let lock = k.create_lock();
    k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![
            Action::AcquireLock(lock),
            Action::Compute(SimDur::from_millis(250)), // spans 3 quanta
            Action::ReleaseLock(lock),
        ])),
    );
    k.spawn_root(
        AppId(1),
        64,
        Box::new(Script::new(vec![
            Action::AcquireLock(lock),
            Action::Compute(SimDur::from_millis(1)),
            Action::ReleaseLock(lock),
        ])),
    );
    assert!(k.run_to_completion(t(20)));
    let spin = k.app_stats(AppId(1)).spin;
    // The contender should have wasted at least one full quantum spinning
    // while the preempted holder waited in the queue.
    assert!(spin >= SimDur::from_millis(100), "spin {spin}");
}

#[test]
fn signal_suspends_and_resumes() {
    let mut k = kernel(2);
    // Process A suspends itself; process B computes then signals A.
    let a = k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![
            Action::WaitSignal,
            Action::Compute(SimDur::from_millis(5)),
        ])),
    );
    k.spawn_root(
        AppId(1),
        64,
        Box::new(Script::new(vec![
            Action::Compute(SimDur::from_millis(50)),
            Action::SendSignal(a),
        ])),
    );
    assert!(k.run_to_completion(t(10)));
    let da = k.app_done_time(AppId(0)).unwrap();
    let db = k.app_done_time(AppId(1)).unwrap();
    assert!(
        da > db - SimDur::from_millis(5),
        "A finished after B's signal"
    );
    assert!(k.proc_accounting(a).work >= SimDur::from_millis(5));
}

#[test]
fn suspended_processes_are_not_runnable() {
    let mut k = kernel(4);
    k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![Action::WaitSignal])),
    );
    k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
    );
    // Run 200 ms: the waiter has suspended by now.
    k.run_until(SimTime::ZERO + SimDur::from_millis(200));
    assert_eq!(k.runnable_count(), 1);
    assert_eq!(k.app_runnable(AppId(0)), 1);
    let stats = k.rpstat();
    assert_eq!(stats.iter().filter(|p| p.runnable).count(), 1);
    assert_eq!(stats.len(), 2);
}

#[test]
fn pending_signal_is_not_lost() {
    let mut k = kernel(2);
    // B signals A *before* A waits: the signal must be remembered.
    let a = k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![
            Action::Compute(SimDur::from_millis(50)), // busy while B signals
            Action::WaitSignal,                       // should return immediately
        ])),
    );
    k.spawn_root(
        AppId(1),
        64,
        Box::new(Script::new(vec![Action::SendSignal(a)])),
    );
    assert!(
        k.run_to_completion(t(10)),
        "A would hang if the signal were lost"
    );
}

#[test]
fn ipc_roundtrip() {
    let mut k = kernel(2);
    let req = k.create_port();
    let rsp = k.create_port();
    // Server: receive a request, send back double the value.
    k.spawn_root(
        AppId(0),
        64,
        Box::new(FnBehavior(
            move |w, _ctx: &mut dyn simkernel::UserCtx| match w {
                Wakeup::Start => Action::Recv(req),
                Wakeup::Received(m) => Action::Send(rsp, vec![m.body[0] * 2]),
                Wakeup::Sent => Action::Exit,
                other => panic!("server: unexpected {other:?}"),
            },
        )),
    );
    // Client: send 21, expect 42.
    k.spawn_root(
        AppId(1),
        64,
        Box::new(FnBehavior(
            move |w, _ctx: &mut dyn simkernel::UserCtx| match w {
                Wakeup::Start => Action::Send(req, vec![21]),
                Wakeup::Sent => Action::Recv(rsp),
                Wakeup::Received(m) => {
                    assert_eq!(m.body, vec![42]);
                    Action::Exit
                }
                other => panic!("client: unexpected {other:?}"),
            },
        )),
    );
    assert!(k.run_to_completion(t(10)));
}

#[test]
fn poll_returns_none_on_empty_port() {
    let mut k = kernel(1);
    let port = k.create_port();
    k.spawn_root(
        AppId(0),
        64,
        Box::new(FnBehavior(
            move |w, _ctx: &mut dyn simkernel::UserCtx| match w {
                Wakeup::Start => Action::Poll(port),
                Wakeup::Polled(None) => Action::Exit,
                other => panic!("unexpected {other:?}"),
            },
        )),
    );
    assert!(k.run_to_completion(t(1)));
}

#[test]
fn sleep_blocks_without_consuming_cpu() {
    let mut k = kernel(1);
    k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![Action::Sleep(SimDur::from_secs(2))])),
    );
    let pid2 = k.spawn_root(
        AppId(1),
        64,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
    );
    assert!(k.run_to_completion(t(10)));
    // The computer got the whole processor while the sleeper slept: it
    // should finish at ~1 s, not ~2 s.
    let done = k.app_done_time(AppId(1)).unwrap();
    assert!(
        done < SimTime::ZERO + SimDur::from_millis(1_200),
        "sleeper stole CPU: computer done at {done}"
    );
    assert!(k.proc_accounting(pid2).work >= SimDur::from_secs(1));
}

#[test]
fn spawn_creates_children_in_same_app() {
    let mut k = kernel(4);
    let root = k.spawn_root(
        AppId(7),
        64,
        Box::new(FnBehavior(|w, _ctx: &mut dyn simkernel::UserCtx| match w {
            Wakeup::Start => Action::Spawn(
                Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(5))])),
                32,
            ),
            Wakeup::Spawned(_) => Action::Exit,
            other => panic!("unexpected {other:?}"),
        })),
    );
    assert!(k.run_to_completion(t(10)));
    let stats = k.rpstat();
    assert!(stats.is_empty(), "rpstat shows only live processes");
    // The app finished only when the child exited too.
    assert!(k.app_done_time(AppId(7)).is_some());
    // Parent linkage was recorded while alive (checked via trace).
    let spawns: Vec<Pid> = k
        .trace()
        .filtered(|e| matches!(e, simkernel::KTrace::Spawn { .. }))
        .map(|e| match e.kind {
            simkernel::KTrace::Spawn { pid, .. } => pid,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(spawns.len(), 2);
    assert_eq!(spawns[0], root);
}

#[test]
fn runnable_trace_tracks_transitions() {
    let mut k = kernel(2);
    k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![
            Action::Compute(SimDur::from_millis(10)),
            Action::Sleep(SimDur::from_millis(50)),
            Action::Compute(SimDur::from_millis(10)),
        ])),
    );
    assert!(k.run_to_completion(t(10)));
    let counts: Vec<u32> = k
        .trace()
        .filtered(|e| matches!(e, simkernel::KTrace::Runnable { .. }))
        .map(|e| match e.kind {
            simkernel::KTrace::Runnable { total, .. } => total,
            _ => unreachable!(),
        })
        .collect();
    // spawn(1), sleep(0), wake(1), exit(0).
    assert_eq!(counts, vec![1, 0, 1, 0]);
}

#[test]
fn yield_rotates_between_processes() {
    let mut k = kernel(1);
    for i in 0..2 {
        k.spawn_root(
            AppId(i),
            64,
            Box::new(Script::new(vec![
                Action::Compute(SimDur::from_millis(1)),
                Action::Yield,
                Action::Compute(SimDur::from_millis(1)),
                Action::Yield,
                Action::Compute(SimDur::from_millis(1)),
            ])),
        );
    }
    assert!(k.run_to_completion(t(10)));
    // With yields, both finish long before a quantum would have rotated
    // them (3 ms each vs 100 ms quantum).
    let done = k.app_done_time(AppId(1)).unwrap();
    assert!(
        done < SimTime::ZERO + SimDur::from_millis(20),
        "done {done}"
    );
}

#[test]
fn determinism_same_seedless_run_twice() {
    let run = || {
        let mut k = kernel(3);
        let lock = k.create_lock();
        for i in 0..5 {
            k.spawn_root(
                AppId(i),
                128,
                Box::new(Script::new(vec![
                    Action::Compute(SimDur::from_millis(30 + 7 * i as u64)),
                    Action::AcquireLock(lock),
                    Action::Compute(SimDur::from_millis(3)),
                    Action::ReleaseLock(lock),
                    Action::Compute(SimDur::from_millis(20)),
                ])),
            );
        }
        assert!(k.run_to_completion(t(30)));
        (0..5)
            .map(|i| k.app_done_time(AppId(i)).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn heavy_overload_still_completes() {
    // 32 processes on 2 processors, all contending for one lock.
    let mut k = kernel(2);
    let lock = k.create_lock();
    for i in 0..32 {
        k.spawn_root(
            AppId(i % 4),
            64,
            Box::new(Script::new(vec![
                Action::Compute(SimDur::from_millis(5)),
                Action::AcquireLock(lock),
                Action::Compute(SimDur::from_micros(100)),
                Action::ReleaseLock(lock),
                Action::Compute(SimDur::from_millis(5)),
            ])),
        );
    }
    assert!(k.run_to_completion(t(120)));
    assert_eq!(k.lock_stats(lock).acquisitions, 32);
    assert_eq!(k.runnable_count(), 0);
    assert_eq!(k.live_procs(), 0);
}

#[test]
fn utilization_reflects_load() {
    // One busy CPU, one idle CPU.
    let mut k = kernel(2);
    k.spawn_root(
        AppId(0),
        64,
        Box::new(Script::new(vec![Action::Compute(SimDur::from_secs(1))])),
    );
    assert!(k.run_to_completion(t(10)));
    let u0 = k.cpu_utilization(machine::CpuId(0));
    let u1 = k.cpu_utilization(machine::CpuId(1));
    assert!(u0 > 0.9, "busy cpu utilization {u0}");
    assert!(u1 < 0.05, "idle cpu utilization {u1}");
    let mean = k.mean_utilization();
    assert!((mean - (u0 + u1) / 2.0).abs() < 1e-9);
}

#[test]
fn application_table_handles_sparse_ids_and_respawn() {
    let mut k = kernel(2);
    let compute = |ms| Box::new(Script::new(vec![Action::Compute(SimDur::from_millis(ms))]));
    // Nothing spawned yet: only the empty question has the answer yes.
    assert!(k.apps_done(&[]));
    assert!(!k.apps_done(&[AppId(999)]));
    assert_eq!(k.app_runnable(AppId(999)), 0);
    assert_eq!(k.app_start_time(AppId(999)), None);

    // Caller-chosen, sparse ids; two processes of one application.
    k.spawn_root(AppId(999), 64, compute(5));
    k.spawn_root(AppId(5), 64, compute(50));
    k.spawn_root(AppId(999), 64, compute(10));
    assert_eq!(k.app_runnable(AppId(999)), 2);
    assert_eq!(k.app_runnable(AppId(5)), 1);
    assert_eq!(k.app_start_time(AppId(5)), Some(SimTime::ZERO));

    assert!(k.run_until_apps_done(&[AppId(999)], t(10)));
    assert!(k.apps_done(&[AppId(999), AppId(999)]));
    assert!(!k.apps_done(&[AppId(999), AppId(5)]));
    assert!(
        !k.apps_done(&[AppId(999), AppId(6)]),
        "unknown id is not done"
    );
    let first_done = k.app_done_time(AppId(999)).unwrap();
    assert_eq!(k.app_done_time(AppId(5)), None);

    // A finished application that spawns again keeps its old completion
    // time until it finishes again (and its first start time for good).
    k.spawn_root(AppId(999), 64, compute(5));
    assert_eq!(k.app_done_time(AppId(999)), Some(first_done));
    assert_eq!(k.app_runnable(AppId(999)), 1);
    assert!(k.run_to_completion(t(10)));
    assert!(k.apps_done(&[AppId(5), AppId(999)]));
    assert!(k.app_done_time(AppId(999)).unwrap() > first_done);
    assert_eq!(k.app_start_time(AppId(999)), Some(SimTime::ZERO));
    assert_eq!(k.app_runnable(AppId(999)), 0);
}
