//! Cross-crate integration: pieces from different layers composed in ways
//! the figure harnesses don't exercise.

use bench::{spawn_server, SimEnv};
use desim::{SimDur, SimTime};
use simkernel::AppId;
use uthreads::{launch, AppSpec, Task, ThreadsConfig};
use workloads::load::{spawn_batch_load, spawn_interactive_load};
use workloads::{producer_consumer_spec, synthetic_cs_spec};

const LIMIT: SimTime = SimTime(3_600 * 1_000_000_000);

fn secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_secs(s)
}

/// Uncontrollable batch load shrinks a controlled application's share;
/// the share is restored when the load drains (Section 5's partitioning
/// with uncontrolled processes subtracted).
#[test]
fn batch_load_shrinks_controlled_share() {
    let env = SimEnv {
        cpus: 8,
        ..SimEnv::default()
    };
    let mut kernel = env.make_kernel();
    let server = spawn_server(&mut kernel);
    let tasks: Vec<Task> = (0..25_000)
        .map(|_| Task::compute("w", SimDur::from_millis(20)))
        .collect();
    let cfg = ThreadsConfig::new(8).with_control(server, SimDur::from_secs(1));
    let app = launch(&mut kernel, AppId(0), cfg, AppSpec::tasks(tasks));

    // 4 batch processes for ~20 s.
    spawn_batch_load(&mut kernel, AppId(60), 4, SimDur::from_secs(20), 256);

    kernel.run_until(secs(6));
    let squeezed = app.target().unwrap();
    assert!(squeezed <= 5, "target with batch load: {squeezed}");

    // Batch load ends by ~40 s (4 jobs x 20 s on >=4 free cpus); the
    // application should claim the whole machine again.
    kernel.run_until(secs(60));
    assert!(!app.is_done(), "sized to outlive the batch load");
    let restored = app.target().unwrap();
    assert_eq!(restored, 8, "target after batch load drained");
    assert!(kernel.run_until_apps_done(&[AppId(0)], LIMIT));
}

/// Interactive load (mostly sleeping) barely affects the controlled
/// application's share: a sleeping editor is not runnable.
#[test]
fn interactive_load_is_nearly_free() {
    let env = SimEnv {
        cpus: 8,
        ..SimEnv::default()
    };
    let mut kernel = env.make_kernel();
    let server = spawn_server(&mut kernel);
    // Editor: 10 ms bursts, 990 ms think time: ~1% of one processor.
    spawn_interactive_load(
        &mut kernel,
        AppId(50),
        SimDur::from_millis(10),
        SimDur::from_millis(990),
        600,
        128,
    );
    let tasks: Vec<Task> = (0..20_000)
        .map(|_| Task::compute("w", SimDur::from_millis(20)))
        .collect();
    let cfg = ThreadsConfig::new(8).with_control(server, SimDur::from_secs(1));
    let app = launch(&mut kernel, AppId(0), cfg, AppSpec::tasks(tasks));
    kernel.run_until(secs(10));
    assert!(!app.is_done());
    // The editor is almost never runnable at sample time, so the target
    // stays at (or within one of) the full machine.
    let target = app.target().unwrap();
    assert!(
        target >= 7,
        "interactive load over-penalized: target {target}"
    );
    assert!(kernel.run_until_apps_done(&[AppId(0)], LIMIT));
}

/// The synthetic critical-section workload completes and its lock sees
/// real contention under overcommit.
#[test]
fn synthetic_cs_workload_contends() {
    let env = SimEnv {
        cpus: 4,
        ..SimEnv::default()
    };
    let mut kernel = env.make_kernel();
    let lock = kernel.create_lock();
    let spec = synthetic_cs_spec(64, 4, SimDur::from_millis(10), 0.3, lock);
    launch(&mut kernel, AppId(0), ThreadsConfig::new(12), spec);
    assert!(kernel.run_until_apps_done(&[AppId(0)], LIMIT));
    let stats = kernel.lock_stats(lock);
    assert_eq!(stats.acquisitions, 64 * 4);
    assert!(
        stats.contended > 0,
        "no contention with 12 workers on 4 cpus"
    );
}

/// The producer/consumer workload exhibits the paper's mechanism #2:
/// consumers waste time idling while producers are preempted — and
/// process control reduces that waste.
#[test]
fn producer_consumer_benefits_from_control() {
    let run = |control: bool| -> (f64, f64) {
        let env = SimEnv {
            cpus: 4,
            ..SimEnv::default()
        };
        let mut kernel = env.make_kernel();
        let server = spawn_server(&mut kernel);
        let spec = producer_consumer_spec(8, 60, SimDur::from_millis(6), SimDur::from_millis(6));
        let mut cfg = ThreadsConfig::new(16);
        if control {
            cfg = cfg.with_control(server, SimDur::from_secs(1));
        }
        let app = launch(&mut kernel, AppId(0), cfg, spec);
        assert!(kernel.run_until_apps_done(&[AppId(0)], LIMIT));
        let wall = kernel.app_done_time(AppId(0)).unwrap().as_secs_f64();
        (wall, app.metrics().idle_spin.as_secs_f64())
    };
    let (wall_plain, _idle_plain) = run(false);
    let (wall_ctl, _idle_ctl) = run(true);
    // 16 workers on 4 cpus for a pipeline: control should not hurt and
    // usually helps.
    assert!(
        wall_ctl <= wall_plain * 1.10,
        "control hurt the pipeline: {wall_ctl:.2}s vs {wall_plain:.2}s"
    );
}

/// The native runtime computes the same answers as the sequential
/// reference kernels while under process control.
#[test]
fn native_pool_computes_correct_matmul() {
    use std::sync::Arc;
    use workloads::native::matmul::{matmul, matmul_rows, Matrix};

    let controller = native_rt::Controller::new(2, std::time::Duration::from_millis(20));
    let pool = native_rt::Pool::new(&controller, 6, false);
    let n = 64;
    let a = Arc::new(Matrix::from_fn(n, n, |i, j| ((i + 2 * j) % 7) as f64));
    let b = Arc::new(Matrix::from_fn(n, n, |i, j| ((3 * i + j) % 5) as f64));
    let out = Arc::new(std::sync::Mutex::new(Matrix::zeros(n, n)));
    for row in 0..n {
        let (a, b, out) = (Arc::clone(&a), Arc::clone(&b), Arc::clone(&out));
        pool.execute(move || {
            let mut local = Matrix::zeros(n, n);
            matmul_rows(&a, &b, &mut local, row..row + 1);
            let mut o = out.lock().unwrap();
            o.data[row * n..(row + 1) * n].copy_from_slice(&local.data[row * n..(row + 1) * n]);
        });
    }
    pool.wait_idle();
    let expect = matmul(&a, &b);
    assert_eq!(out.lock().unwrap().data, expect.data);
    assert_eq!(pool.metrics().jobs_run, n as u64);
}
