//! End-to-end tests: threads-package applications on the simulated kernel,
//! with and without process control.

use desim::{SimDur, SimTime};
use procctl::{Server, ServerConfig};
use simkernel::policy::FifoRoundRobin;
use simkernel::{AppId, Kernel, KernelConfig};
use uthreads::{launch, AppSpec, FnTask, Task, TaskEvent, TaskOp, ThreadsConfig};

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_secs(secs)
}

fn kernel(cpus: usize) -> Kernel {
    Kernel::new(
        KernelConfig::multimax().with_cpus(cpus),
        Box::new(FifoRoundRobin::new()),
    )
}

/// Spawns the central server; returns its request port.
fn spawn_server(k: &mut Kernel) -> simkernel::PortId {
    let port = k.create_port();
    let server = Server::new(ServerConfig::new(port));
    k.spawn_root(AppId(1000), 64, Box::new(server));
    port
}

#[test]
fn app_runs_tasks_to_completion() {
    let mut k = kernel(4);
    let tasks: Vec<Task> = (0..20)
        .map(|_| Task::compute("work", SimDur::from_millis(10)))
        .collect();
    let app = launch(
        &mut k,
        AppId(0),
        ThreadsConfig::new(4),
        AppSpec::tasks(tasks),
    );
    assert!(k.run_to_completion(t(30)));
    assert!(app.is_done());
    assert_eq!(app.metrics().tasks_run, 20);
    assert!(k.app_done_time(AppId(0)).is_some());
}

#[test]
fn single_worker_app_works() {
    let mut k = kernel(1);
    let tasks = vec![Task::compute("only", SimDur::from_millis(5))];
    let app = launch(
        &mut k,
        AppId(0),
        ThreadsConfig::new(1),
        AppSpec::tasks(tasks),
    );
    assert!(k.run_to_completion(t(10)));
    assert_eq!(app.metrics().tasks_run, 1);
}

#[test]
fn more_workers_speed_up_parallel_work() {
    // 32 independent 20 ms tasks on 8 processors.
    let run = |nprocs: u32| {
        let mut k = kernel(8);
        let tasks: Vec<Task> = (0..32)
            .map(|_| Task::compute("w", SimDur::from_millis(20)))
            .collect();
        launch(
            &mut k,
            AppId(0),
            ThreadsConfig::new(nprocs),
            AppSpec::tasks(tasks),
        );
        assert!(k.run_to_completion(t(60)));
        k.app_done_time(AppId(0)).unwrap().as_secs_f64()
    };
    let t1 = run(1);
    let t8 = run(8);
    let speedup = t1 / t8;
    assert!(speedup > 5.0, "8-worker speedup only {speedup:.2}");
}

#[test]
fn barrier_synchronizes_phases() {
    // 4 tasks meet at a barrier twice; a counter checks phase ordering.
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut k = kernel(4);
    let mut spec = AppSpec::tasks(vec![]);
    let bar = spec.add_barrier(4);
    let phase1_done = Rc::new(RefCell::new(0u32));
    let violations = Rc::new(RefCell::new(0u32));
    for _ in 0..4 {
        let p1 = phase1_done.clone();
        let viol = violations.clone();
        let mut stage = 0;
        spec.tasks.push(Task::new(
            "phased",
            Box::new(FnTask(move |ev: TaskEvent| {
                stage += 1;
                match (stage, ev) {
                    (1, TaskEvent::Start) => TaskOp::Compute(SimDur::from_millis(2)),
                    (2, TaskEvent::ComputeDone) => {
                        *p1.borrow_mut() += 1;
                        TaskOp::Barrier(bar)
                    }
                    (3, TaskEvent::BarrierPassed) => {
                        // Everyone must have finished phase 1 by now.
                        if *p1.borrow() != 4 {
                            *viol.borrow_mut() += 1;
                        }
                        TaskOp::Compute(SimDur::from_millis(2))
                    }
                    (4, TaskEvent::ComputeDone) => TaskOp::Done,
                    other => panic!("unexpected {other:?}"),
                }
            })),
        ));
    }
    let app = launch(&mut k, AppId(0), ThreadsConfig::new(4), spec);
    assert!(k.run_to_completion(t(30)));
    assert_eq!(*violations.borrow(), 0, "barrier let a task through early");
    assert_eq!(app.metrics().tasks_run, 4);
}

#[test]
fn channels_carry_producer_consumer_values() {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut k = kernel(2);
    let mut spec = AppSpec::tasks(vec![]);
    let ch = spec.add_channel();
    let got = Rc::new(RefCell::new(Vec::new()));

    // Producer: send 1, 2, 3 with pauses.
    let mut sent = 0;
    spec.tasks.push(Task::new(
        "producer",
        Box::new(FnTask(move |ev: TaskEvent| match ev {
            TaskEvent::Start | TaskEvent::Sent if sent < 3 => {
                sent += 1;
                TaskOp::Compute(SimDur::from_millis(5))
            }
            TaskEvent::ComputeDone => TaskOp::Send(ch, sent),
            _ => TaskOp::Done,
        })),
    ));
    // Consumer: receive 3 values.
    let sink = got.clone();
    let mut received = 0;
    spec.tasks.push(Task::new(
        "consumer",
        Box::new(FnTask(move |ev: TaskEvent| {
            if let TaskEvent::Received(v) = ev {
                sink.borrow_mut().push(v);
                received += 1;
            }
            if received < 3 {
                TaskOp::Recv(ch)
            } else {
                TaskOp::Done
            }
        })),
    ));
    let app = launch(&mut k, AppId(0), ThreadsConfig::new(2), spec);
    assert!(k.run_to_completion(t(30)));
    assert_eq!(*got.borrow(), vec![1, 2, 3]);
    assert_eq!(app.metrics().tasks_run, 2);
}

#[test]
fn control_suspends_excess_workers() {
    // 8 workers on a 4-CPU machine, controlled: the server should push the
    // application down to ~4 runnable processes.
    let mut k = kernel(4);
    let server_port = spawn_server(&mut k);
    let tasks: Vec<Task> = (0..1500)
        .map(|_| Task::compute("w", SimDur::from_millis(20)))
        .collect();
    let cfg = ThreadsConfig::new(8).with_control(server_port, SimDur::from_secs(2));
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(tasks));
    // Run 5 seconds: registration + a couple of polls have happened.
    k.run_until(t(5));
    assert!(!app.is_done(), "test needs the app still running");
    let active = app.active();
    assert!(active <= 5, "active {active} workers, expected ~4");
    assert!(
        app.metrics().suspends >= 3,
        "suspends {}",
        app.metrics().suspends
    );
    assert_eq!(app.target(), Some(4));
    // Runnable processes (incl. transients) near the machine size.
    assert!(k.app_runnable(AppId(0)) <= 5);
    assert!(k.run_until_apps_done(&[AppId(0)], t(120)));
    assert_eq!(app.metrics().tasks_run, 1500);
}

#[test]
fn control_is_transparent_when_underloaded() {
    // 4 workers on 8 CPUs: control must not suspend anybody (target >=
    // process count) and the app completes normally.
    let mut k = kernel(8);
    let server_port = spawn_server(&mut k);
    let tasks: Vec<Task> = (0..100)
        .map(|_| Task::compute("w", SimDur::from_millis(10)))
        .collect();
    let cfg = ThreadsConfig::new(4).with_control(server_port, SimDur::from_secs(2));
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(tasks));
    assert!(k.run_until_apps_done(&[AppId(0)], t(30)));
    assert_eq!(app.metrics().suspends, 0);
    assert_eq!(app.metrics().tasks_run, 100);
}

#[test]
fn two_controlled_apps_split_the_machine() {
    let mut k = kernel(8);
    let server_port = spawn_server(&mut k);
    let mk_tasks = || -> Vec<Task> {
        (0..4000)
            .map(|_| Task::compute("w", SimDur::from_millis(10)))
            .collect()
    };
    let cfg = |_| ThreadsConfig::new(8).with_control(server_port, SimDur::from_secs(2));
    let a = launch(&mut k, AppId(0), cfg(0), AppSpec::tasks(mk_tasks()));
    let b = launch(&mut k, AppId(1), cfg(1), AppSpec::tasks(mk_tasks()));
    k.run_until(t(8));
    assert!(
        !a.is_done() && !b.is_done(),
        "apps finished too early for the check"
    );
    // After a few polls both should sit at ~4 active workers each.
    assert_eq!(a.target(), Some(4));
    assert_eq!(b.target(), Some(4));
    assert!(a.active() <= 5, "a.active = {}", a.active());
    assert!(b.active() <= 5, "b.active = {}", b.active());
    assert!(k.run_until_apps_done(&[AppId(0), AppId(1)], t(120)));
}

#[test]
fn suspended_workers_resume_when_machine_frees_up() {
    let mut k = kernel(4);
    let server_port = spawn_server(&mut k);
    // App A: short. App B: long. B gets squeezed to ~2 while A runs, then
    // should grow back to ~4 after A finishes.
    let a_tasks: Vec<Task> = (0..160)
        .map(|_| Task::compute("a", SimDur::from_millis(100)))
        .collect();
    let b_tasks: Vec<Task> = (0..4000)
        .map(|_| Task::compute("b", SimDur::from_millis(10)))
        .collect();
    let cfg = ThreadsConfig::new(4).with_control(server_port, SimDur::from_secs(2));
    let _a = launch(&mut k, AppId(0), cfg.clone(), AppSpec::tasks(a_tasks));
    let b = launch(&mut k, AppId(1), cfg, AppSpec::tasks(b_tasks));
    // While A is alive, B should be told to shrink.
    k.run_until(t(6));
    let b_mid = b.target().unwrap();
    assert!(b_mid <= 2, "b target while sharing: {b_mid}");
    // A finishes (160 * 100 ms on ~2 cpus ≈ 8 s); after A's BYE and B's
    // next poll, B should be back to 4.
    assert!(k.run_until_apps_done(&[AppId(0)], t(30)), "A should finish");
    k.run_until(k.now() + SimDur::from_secs(6)); // one poll interval later
    assert!(!b.is_done(), "B finished too early for the check");
    assert_eq!(b.target(), Some(4));
    assert!(b.metrics().resumes >= 1, "B never resumed anyone");
    assert!(k.run_until_apps_done(&[AppId(1)], t(300)));
    assert_eq!(b.metrics().tasks_run, 4000);
}

#[test]
fn all_suspended_workers_are_woken_at_completion() {
    // If suspended workers were never resumed at app completion, the app
    // would hang with live processes; run_to_completion would fail.
    let mut k = kernel(2);
    let server_port = spawn_server(&mut k);
    let tasks: Vec<Task> = (0..600)
        .map(|_| Task::compute("w", SimDur::from_millis(20)))
        .collect();
    let cfg = ThreadsConfig::new(8).with_control(server_port, SimDur::from_secs(1));
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(tasks));
    assert!(
        k.run_until_apps_done(&[AppId(0)], t(120)),
        "suspended workers left behind"
    );
    assert!(app.metrics().suspends > 0, "test should actually suspend");
    assert_eq!(k.app_runnable(AppId(0)), 0);
}

#[test]
fn uncontrolled_app_is_unaffected_by_server() {
    let mut k = kernel(2);
    let _server_port = spawn_server(&mut k);
    let tasks: Vec<Task> = (0..50)
        .map(|_| Task::compute("w", SimDur::from_millis(5)))
        .collect();
    let app = launch(
        &mut k,
        AppId(0),
        ThreadsConfig::new(4),
        AppSpec::tasks(tasks),
    );
    assert!(k.run_until_apps_done(&[AppId(0)], t(30)));
    assert_eq!(app.metrics().suspends, 0);
    assert_eq!(app.metrics().polls, 0);
}

#[test]
fn tasks_spawning_tasks() {
    // A root task spawns 10 children, then finishes.
    let mut k = kernel(4);
    let mut spawned = 0;
    let root = Task::new(
        "spawner",
        Box::new(FnTask(move |ev: TaskEvent| match ev {
            TaskEvent::Start | TaskEvent::Spawned if spawned < 10 => {
                spawned += 1;
                TaskOp::Spawn(Task::compute("child", SimDur::from_millis(5)))
            }
            _ => TaskOp::Done,
        })),
    );
    let app = launch(
        &mut k,
        AppId(0),
        ThreadsConfig::new(4),
        AppSpec::tasks(vec![root]),
    );
    assert!(k.run_to_completion(t(30)));
    assert_eq!(app.metrics().tasks_run, 11);
}

#[test]
fn weighted_apps_get_proportional_shares() {
    // Two identical workloads; app A registers with 3x the weight of B.
    let mut k = kernel(8);
    let server_port = spawn_server(&mut k);
    let mk_tasks = || -> Vec<Task> {
        (0..4000)
            .map(|_| Task::compute("w", SimDur::from_millis(10)))
            .collect()
    };
    let a_cfg =
        ThreadsConfig::new(8).with_weighted_control(server_port, SimDur::from_secs(1), 3_000);
    let b_cfg =
        ThreadsConfig::new(8).with_weighted_control(server_port, SimDur::from_secs(1), 1_000);
    let a = launch(&mut k, AppId(0), a_cfg, AppSpec::tasks(mk_tasks()));
    let b = launch(&mut k, AppId(1), b_cfg, AppSpec::tasks(mk_tasks()));
    k.run_until(t(6));
    assert!(!a.is_done() && !b.is_done());
    // 8 CPUs split 3:1 -> 6 and 2.
    assert_eq!(a.target(), Some(6), "heavy app target");
    assert_eq!(b.target(), Some(2), "light app target");
    // The heavy app finishes first despite identical work.
    assert!(k.run_until_apps_done(&[AppId(0), AppId(1)], t(300)));
    let da = k.app_done_time(AppId(0)).unwrap();
    let db = k.app_done_time(AppId(1)).unwrap();
    assert!(da < db, "weighted app not faster: {da} vs {db}");
}

#[test]
fn zero_task_app_completes_immediately() {
    let mut k = kernel(2);
    let app = launch(
        &mut k,
        AppId(0),
        ThreadsConfig::new(4),
        AppSpec::tasks(vec![]),
    );
    assert!(k.run_until_apps_done(&[AppId(0)], t(5)));
    assert!(app.is_done());
    assert_eq!(app.metrics().tasks_run, 0);
}

#[test]
fn controlled_zero_task_app_completes() {
    // Even with control enabled (registration, BYE) an empty application
    // must wind down cleanly.
    let mut k = kernel(2);
    let server_port = spawn_server(&mut k);
    let cfg = ThreadsConfig::new(4).with_control(server_port, SimDur::from_secs(1));
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(vec![]));
    assert!(k.run_until_apps_done(&[AppId(0)], t(10)));
    assert!(app.is_done());
}

#[test]
fn single_process_controlled_app_never_suspends_itself_to_zero() {
    // One worker, target 1: the starvation guard must keep it running.
    let mut k = kernel(1);
    let server_port = spawn_server(&mut k);
    // Heavy competing load so the target would be pushed down if it could.
    let other = ThreadsConfig::new(4).with_control(server_port, SimDur::from_secs(1));
    let other_tasks: Vec<Task> = (0..400)
        .map(|_| Task::compute("w", SimDur::from_millis(10)))
        .collect();
    launch(&mut k, AppId(1), other, AppSpec::tasks(other_tasks));
    let cfg = ThreadsConfig::new(1).with_control(server_port, SimDur::from_secs(1));
    let tasks: Vec<Task> = (0..100)
        .map(|_| Task::compute("s", SimDur::from_millis(10)))
        .collect();
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(tasks));
    assert!(k.run_until_apps_done(&[AppId(0), AppId(1)], t(120)));
    assert_eq!(
        app.metrics().suspends,
        0,
        "the lone worker must not suspend"
    );
    assert_eq!(app.metrics().tasks_run, 100);
}

#[test]
fn requeue_creates_safe_points_in_long_tasks() {
    // A single huge task that periodically requeues itself lets control
    // engage even though the task never finishes until the end.
    let mut k = kernel(2);
    let server_port = spawn_server(&mut k);
    let mut spec = AppSpec::tasks(vec![]);
    let mut chunks_left = 200u32; // 200 x 20 ms = 4 s of work in one task
    spec.tasks.push(Task::new(
        "long-with-requeue",
        Box::new(FnTask(move |ev: TaskEvent| match ev {
            TaskEvent::Start | TaskEvent::Requeued => {
                if chunks_left == 0 {
                    TaskOp::Done
                } else {
                    TaskOp::Compute(SimDur::from_millis(20))
                }
            }
            TaskEvent::ComputeDone => {
                chunks_left -= 1;
                TaskOp::Requeue
            }
            other => panic!("unexpected {other:?}"),
        })),
    ));
    // Plus bulk work to keep other workers busy.
    for _ in 0..400 {
        spec.tasks
            .push(Task::compute("bulk", SimDur::from_millis(20)));
    }
    let cfg = ThreadsConfig::new(8).with_control(server_port, SimDur::from_secs(1));
    let app = launch(&mut k, AppId(0), cfg, spec);
    assert!(k.run_until_apps_done(&[AppId(0)], t(120)));
    assert_eq!(app.metrics().tasks_run, 401);
    // Overcommitted 8 workers on 2 CPUs: control must have engaged.
    assert!(app.metrics().suspends > 0);
}

#[test]
fn cr_lock_culls_excess_workers_and_loses_nothing() {
    // 8 workers, 2 admission slots: 6 arrivals at a non-empty queue find
    // the active set full and are culled; every culled worker is later
    // promoted (or drained at shutdown) and every task still runs.
    let mut k = kernel(4);
    let tasks: Vec<Task> = (0..64)
        .map(|_| Task::compute("w", SimDur::from_millis(10)))
        .collect();
    let cfg = ThreadsConfig::new(8).with_cr_lock(uthreads::CrParams::fixed(2));
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(tasks));
    assert!(k.run_until_apps_done(&[AppId(0)], t(120)));
    let m = app.metrics();
    assert_eq!(m.tasks_run, 64);
    assert!(m.cr_passivations > 0, "no worker was ever culled");
    assert!(m.cr_promotions > 0, "no culled worker was ever promoted");
    assert!(m.cr_promotions <= m.cr_passivations);
    assert_eq!(app.cr_active_max(), Some(2));
}

#[test]
fn cr_lock_single_slot_survives_barriers_and_channels() {
    // active_max = 1 funnels every queue operation — dequeues, barrier
    // arrivals, channel sends/receives, task finishes — through a single
    // admission slot, exercising the task-side park/promote path hard.
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut k = kernel(4);
    let mut spec = AppSpec::tasks(vec![]);
    let bar = spec.add_barrier(4);
    let ch = spec.add_channel();
    for i in 0..4u64 {
        let mut stage = 0;
        spec.tasks.push(Task::new(
            "phased",
            Box::new(FnTask(move |ev: TaskEvent| {
                stage += 1;
                match (stage, ev) {
                    (1, TaskEvent::Start) => TaskOp::Compute(SimDur::from_millis(2)),
                    (2, TaskEvent::ComputeDone) => TaskOp::Barrier(bar),
                    (3, TaskEvent::BarrierPassed) => TaskOp::Send(ch, i),
                    (4, TaskEvent::Sent) => TaskOp::Done,
                    other => panic!("unexpected {other:?}"),
                }
            })),
        ));
    }
    let got: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = got.clone();
    let mut received = 0u32;
    spec.tasks.push(Task::new(
        "consumer",
        Box::new(FnTask(move |ev: TaskEvent| match ev {
            TaskEvent::Received(v) => {
                sink.borrow_mut().push(v);
                received += 1;
                if received == 4 {
                    TaskOp::Done
                } else {
                    TaskOp::Recv(ch)
                }
            }
            _ => TaskOp::Recv(ch),
        })),
    ));
    let cfg = ThreadsConfig::new(6).with_cr_lock(uthreads::CrParams::fixed(1));
    let app = launch(&mut k, AppId(0), cfg, spec);
    assert!(k.run_until_apps_done(&[AppId(0)], t(120)));
    assert_eq!(app.metrics().tasks_run, 5);
    let mut vals = got.borrow().clone();
    vals.sort_unstable();
    assert_eq!(vals, vec![0, 1, 2, 3]);
}

#[test]
fn cr_lock_composes_with_process_control() {
    // The four-way ablation's {both} cell in miniature: server control
    // suspends workers at safe points while the CR lock culls lock-level
    // excess. The two mechanisms must not strand each other's workers.
    let mut k = kernel(2);
    let server_port = spawn_server(&mut k);
    let tasks: Vec<Task> = (0..200)
        .map(|_| Task::compute("w", SimDur::from_millis(20)))
        .collect();
    let cfg = ThreadsConfig::new(8)
        .with_control(server_port, SimDur::from_millis(500))
        .with_cr_lock(uthreads::CrParams::fixed(2));
    let app = launch(&mut k, AppId(0), cfg, AppSpec::tasks(tasks));
    assert!(k.run_until_apps_done(&[AppId(0)], t(240)));
    let m = app.metrics();
    assert_eq!(m.tasks_run, 200);
    // Overcommitted 8 workers on 2 CPUs: control engaged.
    assert!(m.suspends > 0, "control never engaged");
    assert!(m.cr_passivations > 0, "CR lock never engaged");
}
