//! `pool_forkjoin` and `pool_external`: the same `native_rt::Pool` with P
//! workers under an in-process `Controller`, used two ways. Fork-join
//! keeps every acquisition on the local deque; the external submitter
//! goes through the injector and the park/unpark and suspend/resume
//! paths, first saturated (throughput), then at a fixed open-loop rate
//! (latency from each job's due time).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use native_rt::{Controller, Pool, Snapshot};

use crate::harness::{
    as_measured, median, nproc, quantile, spin, windowed, Ctx, Deadline, Outcome, Rng, Striped,
    Tracer, SPIN_ITERS_PER_US,
};

/// Controller recompute period of both pool workloads.
const CONTROLLER_TICK: Duration = Duration::from_millis(20);
/// Sub-windows a timed window is cut into; each metric is their median
/// (the host slows the VM for a second or so at a time: with twenty,
/// several such dips leave the median where it was).
const PARTS: usize = 20;

fn hist_q(s: &Snapshot, name: &str, q: f64) -> f64 {
    s.histograms
        .get(name)
        .and_then(|h| h.quantile(q))
        .map_or(0.0, |v| v as f64)
}

fn hist_count(s: &Snapshot, name: &str) -> f64 {
    s.histograms.get(name).map_or(0.0, |h| h.count as f64)
}

/// Fills the `pool.*` counters from a stats delta over `elapsed` seconds
/// on `cpus` CPUs and checks job conservation against `submitted`.
pub fn pool_layer_metrics(
    out: &mut Outcome,
    before: &Snapshot,
    after: &Snapshot,
    elapsed: f64,
    cpus: usize,
    submitted: u64,
) {
    let d = after.counters_delta(before);
    let c = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let jobs = c("jobs_run");
    let acquired = c("local_hits") + c("injector_pops") + c("steals");
    out.check(
        jobs == submitted as f64,
        format!("pool ran {jobs} jobs of {submitted} submitted"),
    );
    out.check(
        acquired == jobs,
        format!("local+injector+steals = {acquired} but jobs_run = {jobs}"),
    );
    out.check(c("jobs_panicked") == 0.0, "a job panicked");
    let jobs1 = jobs.max(1.0);
    out.set(
        "pool.worker_ns_per_job",
        cpus as f64 * elapsed * 1e9 / jobs1,
    );
    out.set("pool.local_share", c("local_hits") / jobs1);
    out.set("pool.injector_share", c("injector_pops") / jobs1);
    out.set("pool.steal_share", c("steals") / jobs1);
    out.set(
        "pool.steal_fail_ratio",
        c("steal_fails") / (c("steals") + c("steal_fails")).max(1.0),
    );
    out.set("pool.injector_sweep_skips", c("injector_sweep_skips"));
    out.set(
        "pool.parks",
        hist_count(after, "park_ns") - hist_count(before, "park_ns"),
    );
    out.set("pool.park_ns_p50", hist_q(after, "park_ns", 0.5));
    out.set(
        "pool.spin_before_park_ns_p50",
        hist_q(after, "spin_before_park_ns", 0.5),
    );
    out.set(
        "pool.wake_to_run_ns_p50",
        hist_q(after, "wake_to_run_ns", 0.5),
    );
    out.set(
        "pool.wake_to_run_ns_p99",
        hist_q(after, "wake_to_run_ns", 0.99),
    );
    out.set(
        "pool.queue_wait_ns_p99",
        hist_q(after, "queue_wait_ns", 0.99),
    );
    out.set("pool.suspends", c("suspends"));
    out.set("pool.resumes", c("resumes"));
    out.set(
        "pool.suspend_to_resume_ns_p50",
        hist_q(after, "suspend_to_resume_ns", 0.5),
    );
    out.set("pool.trace_dropped", c("trace_dropped"));
}

// ---------------------------------------------------------------------
// pool_forkjoin
// ---------------------------------------------------------------------

/// What the finished root of a tree reports: `(id, nodes, submitted,
/// finished)`.
type TreeDone = (u64, u32, Instant, Instant);

/// A join cell of the fork-join tree: the classic per-fork counter. Each
/// internal node owns one, shared only with its two children, which a
/// worker normally runs back to back from its own deque. (One counter
/// and one `Arc` per *tree* instead made every job of a tree hit the
/// same two cache lines; whenever a steal put both workers on one tree
/// they ping-ponged and the pool looked 3x slower from one run to the
/// next — the harness's doing, not the pool's.)
struct Join {
    pending: AtomicU32,
    parent: Option<Arc<Join>>,
    /// Set on the cell above the tree's top node only.
    root: Option<(u64, u32, Instant, Sender<TreeDone>)>,
}

/// A child of `join` finished: the last one to finish completes the
/// parent in turn, up to the root, which reports.
fn complete(mut join: Arc<Join>) {
    while join.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        if let Some((id, nodes, submitted, done)) = &join.root {
            let _ = done.send((*id, *nodes, *submitted, Instant::now()));
        }
        match &join.parent {
            Some(parent) => join = Arc::clone(parent),
            None => return,
        }
    }
}

/// How a job reaches its pool: the measured pool through a plain
/// `&'static` (a reference count would be one more cache line every job
/// of every tree contends on), the set-up's short-lived pools through an
/// `Arc`.
trait PoolRef: std::ops::Deref<Target = Pool> + Clone + Send + 'static {}
impl<P: std::ops::Deref<Target = Pool> + Clone + Send + 'static> PoolRef for P {}

/// One node of a tree: forks two children from inside the worker (they
/// land on its own deque) or, at the bottom, just finishes.
fn node(pool: impl PoolRef, parent: Arc<Join>, depth: u32) {
    if depth == 0 {
        return complete(parent);
    }
    let me = Arc::new(Join {
        pending: AtomicU32::new(2),
        parent: Some(parent),
        root: None,
    });
    for _ in 0..2 {
        let (p, join) = (pool.clone(), Arc::clone(&me));
        pool.execute(move || node(p, join, depth - 1));
    }
}

fn submit_tree(
    pool: &impl PoolRef,
    id: u64,
    depth: u32,
    done: &Sender<TreeDone>,
    tracer: &Tracer,
) -> u32 {
    let nodes = (1u32 << (depth + 1)) - 1;
    let root = Arc::new(Join {
        pending: AtomicU32::new(1),
        parent: None,
        root: Some((id, nodes, Instant::now(), done.clone())),
    });
    let _s = tracer.span("pool", "execute", id);
    let p = pool.clone();
    pool.execute(move || node(p, root, depth));
    nodes
}

/// Tree depths drawn per root: 8 191 to 32 767 jobs each, a few ms of
/// pool time, so the root's trip through the injector is < 0.1 % of jobs.
const TREE_DEPTHS: [u32; 3] = [12, 13, 14];
/// The same under `--quick`: 255 to 1 023 jobs each.
const QUICK_TREE_DEPTHS: [u32; 3] = [7, 8, 9];

/// Runs trees closed-loop, `inflight` at a time, for `span` (or exactly
/// `count` trees when given). Returns per-tree `(completion time in the
/// window, latency µs, jobs)` and the jobs submitted.
fn run_trees(
    pool: &impl PoolRef,
    (rng, depths): (&mut Rng, &[u32; 3]),
    span: Duration,
    count: Option<u64>,
    tracer: &Tracer,
    deadline: Deadline,
) -> (Vec<(f64, f64, u32)>, u64, bool) {
    let (tx, rx) = channel();
    let inflight_max = 2 * nproc() as u64;
    let start = Instant::now();
    let mut submitted_jobs = 0u64;
    let mut next_id = 0u64;
    let mut inflight = 0u64;
    let mut samples = Vec::new();
    let more = |next_id: u64| match count {
        Some(n) => next_id < n,
        None => start.elapsed() < span,
    };
    let mut hung = false;
    loop {
        while inflight < inflight_max && more(next_id) {
            let depth = depths[rng.below(depths.len() as u64) as usize];
            submitted_jobs += u64::from(submit_tree(pool, next_id, depth, &tx, tracer));
            next_id += 1;
            inflight += 1;
        }
        if inflight == 0 {
            break;
        }
        match rx.recv_timeout(deadline.remaining().max(Duration::from_millis(1))) {
            Ok((_id, nodes, submitted, done)) => {
                inflight -= 1;
                samples.push((
                    done.duration_since(start).as_secs_f64(),
                    done.duration_since(submitted).as_secs_f64() * 1e6,
                    nodes,
                ));
            }
            Err(_) => {
                hung = true;
                break;
            }
        }
    }
    (samples, submitted_jobs, hung)
}

/// Controller, pool, and a warm-up of 24 trees.
fn forkjoin_setup(seed: u64, depths: &[u32; 3], tracer: &Tracer) -> (Controller, Arc<Pool>) {
    let p = nproc();
    let controller = {
        let _s = tracer.span("controller", "new", 0);
        Controller::new(p, CONTROLLER_TICK)
    };
    let pool = {
        let _s = tracer.span("pool", "new", 0);
        Arc::new(Pool::new(&controller, p, false))
    };
    let mut rng = Rng::new(seed).fork(0xF0);
    let quiet = Tracer::new(false);
    let cap = Deadline::after(Duration::from_secs(20));
    run_trees(
        &pool,
        (&mut rng, depths),
        Duration::ZERO,
        Some(24),
        &quiet,
        cap,
    );
    // A tree reports from inside its last job; let that job's own
    // bookkeeping land before anyone snapshots the counters.
    pool.wait_idle();
    (controller, pool)
}

pub fn run_forkjoin(ctx: &Ctx) -> Outcome {
    let Ctx {
        seed,
        seconds,
        quick,
        tracer,
        deadline,
        ..
    } = *ctx;
    let depths = if quick {
        &QUICK_TREE_DEPTHS
    } else {
        &TREE_DEPTHS
    };
    let mut out = Outcome::default();
    let (_controller, pool) = ctx
        .set_up(&mut out, || Ok(forkjoin_setup(seed, depths, tracer)))
        .expect("this set-up cannot fail");
    // The measured pool, and only it, is leaked; its workers stay parked
    // until the process exits, moments after the run.
    let pool: &'static Pool = Box::leak(Box::new(pool));

    let mut rng = Rng::new(seed).fork(0xF1);
    let before = pool.stats();
    let (t, at) = (Instant::now(), ctx.now());
    let span = Duration::from_secs_f64(seconds);
    let (samples, submitted, hung) = {
        let _s = tracer.span("harness", "forkjoin_window", 0);
        run_trees(&pool, (&mut rng, depths), span, None, tracer, deadline)
    };
    if !hung {
        let _s = tracer.span("pool", "wait_idle", 0);
        pool.wait_idle();
    }
    let elapsed = t.elapsed().as_secs_f64();
    let after = pool.stats();
    tracer.add_recorder_events(&pool.recorder().drain(usize::MAX));
    out.check(!hung, "a tree did not complete before the wall-clock cap");
    out.attempted += samples.len() as u64;

    // Jobs per second in each sub-window of the nominal span (trees that
    // finish in the drain after it are left out of the rate).
    let in_span: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.0 < seconds)
        .map(|s| (s.0, f64::from(s.2)))
        .collect();
    let part = seconds / PARTS as f64;
    let rate = |jobs: &[f64]| jobs.iter().sum::<f64>() / part;
    let lat: Vec<(f64, f64)> = samples.iter().map(|s| (s.0.min(seconds), s.1)).collect();
    let window = (seconds, PARTS);
    let slowdown = |from: f64, to: f64| ctx.slowdown(at + from, at + to);
    out.throughput_per_s = windowed(&in_span, window, rate, slowdown);
    out.latency_p50_us = windowed(&lat, window, median, |a, b| 1.0 / slowdown(a, b));
    out.set(
        "pool.jobs_per_s",
        windowed(&in_span, window, rate, as_measured),
    );
    out.set(
        "pool.lat_p50_us",
        windowed(&lat, window, median, as_measured),
    );
    out.set(
        "pool.lat_p99_us",
        windowed(&lat, window, |v| quantile(v, 0.99), as_measured),
    );
    // All P workers share one CPU here.
    pool_layer_metrics(&mut out, &before, &after, elapsed, 1, submitted);
    out
}

/// The same trees on a fresh pool that may use every CPU, for a third of
/// the run: the speed `pool_forkjoin` had before it was put on one CPU,
/// where what a job costs is what the pool's shared cache lines cost to
/// move between two virtual CPUs. It does not repeat (README, "Noise"),
/// so it is a per-layer metric of the traced run and nothing is bound to
/// it. The caller has lifted the pin.
pub fn forkjoin_unpinned(ctx: &Ctx, out: &mut Outcome) {
    let depths = if ctx.quick {
        &QUICK_TREE_DEPTHS
    } else {
        &TREE_DEPTHS
    };
    let quiet = Tracer::new(false);
    let (_controller, pool) = forkjoin_setup(ctx.seed, depths, &quiet);
    let mut rng = Rng::new(ctx.seed).fork(0xF2);
    let span = Duration::from_secs_f64(ctx.seconds * 0.3);
    let t = Instant::now();
    let (_, submitted, hung) =
        run_trees(&pool, (&mut rng, depths), span, None, &quiet, ctx.deadline);
    out.check(!hung, "an unpinned tree did not complete before the cap");
    if !hung {
        pool.wait_idle();
        out.set(
            "pool.jobs_per_s_unpinned",
            submitted as f64 / t.elapsed().as_secs_f64(),
        );
    }
}

// ---------------------------------------------------------------------
// pool_external
// ---------------------------------------------------------------------

/// Outstanding jobs the phase-A submitter keeps in flight, and how many
/// it submits between two looks at the completion counter.
const WINDOW: u64 = 1024;
const BATCH: u64 = 64;
/// Phase-B offered rate and mean job length.
const OPEN_RATE_PER_S: f64 = 20_000.0;
const OPEN_JOB_US: f64 = 20.0;
/// How often the phantom slot is registered or dropped in phase B.
const TOGGLE_EVERY: Duration = Duration::from_millis(500);
/// Share of the run spent in phase A (the rest is phase B).
const PHASE_A_SHARE: f64 = 0.4;

/// Phase A: closed loop, `WINDOW` outstanding ~1 µs jobs, for `span`.
/// Returns `(time, completed so far)` samples and the jobs submitted.
fn saturate(
    pool: &Pool,
    span: Duration,
    tracer: &Tracer,
    deadline: Deadline,
) -> (Vec<(f64, f64)>, u64, bool) {
    let done = Striped::leak();
    let start = Instant::now();
    let mut submitted = 0u64;
    let mut samples = vec![(0.0, 0.0)];
    let mut hung = false;
    'outer: while start.elapsed() < span {
        let _s = tracer.span("pool", "execute_batch", submitted / WINDOW);
        for _ in 0..WINDOW / BATCH {
            // The window is checked once per batch: reading the counter
            // for every job would bounce its lines as a shared one does.
            while submitted + BATCH - done.sum() > WINDOW {
                if deadline.passed() {
                    hung = true;
                    break 'outer;
                }
                std::thread::yield_now();
            }
            for _ in 0..BATCH {
                pool.execute(move || {
                    spin(SPIN_ITERS_PER_US);
                    done.add();
                });
            }
            submitted += BATCH;
        }
        samples.push((start.elapsed().as_secs_f64(), done.sum() as f64));
    }
    while !hung && done.sum() < submitted {
        if deadline.passed() {
            hung = true;
        }
        std::thread::yield_now();
    }
    // After the drain, beyond `span`: only `rate_by_part`'s whole-window
    // fallback reads this one.
    samples.push((start.elapsed().as_secs_f64(), done.sum() as f64));
    (samples, submitted, hung)
}

/// Median completions per second over the sub-windows, from cumulative
/// samples; over the whole window when it is so short (`--quick` on a
/// loaded machine) that the sub-windows hold no two samples, or none
/// between which a job completed.
fn rate_by_part(samples: &[(f64, f64)], span: f64) -> f64 {
    let rate = |inside: &[&(f64, f64)]| {
        let (first, last) = (inside.first()?, inside.last()?);
        (last.0 > first.0).then(|| (last.1 - first.1) / (last.0 - first.0))
    };
    let part = span / PARTS as f64;
    let rates: Vec<f64> = (0..PARTS)
        .filter_map(|i| {
            let (lo, hi) = (i as f64 * part, (i + 1) as f64 * part);
            let inside: Vec<&(f64, f64)> =
                samples.iter().filter(|s| s.0 >= lo && s.0 < hi).collect();
            rate(&inside)
        })
        .collect();
    let by_part = median(&rates);
    if by_part > 0.0 {
        return by_part;
    }
    rate(&samples.iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

fn external_setup(tracer: &Tracer, deadline: Deadline) -> (Controller, Pool) {
    let p = nproc();
    let controller = {
        let _s = tracer.span("controller", "new", 0);
        Controller::new(p, CONTROLLER_TICK)
    };
    let pool = {
        let _s = tracer.span("pool", "new", 0);
        Pool::new(&controller, p, false)
    };
    let quiet = Tracer::new(false);
    saturate(&pool, Duration::from_millis(50), &quiet, deadline);
    pool.wait_idle();
    (controller, pool)
}

pub fn run_external(ctx: &Ctx) -> Outcome {
    let Ctx {
        seed,
        seconds,
        tracer,
        deadline,
        ..
    } = *ctx;
    let p = nproc();
    let mut out = Outcome::default();
    let (controller, pool) = ctx
        .set_up(&mut out, || Ok(external_setup(tracer, deadline)))
        .expect("this set-up cannot fail");
    let before = pool.stats();
    let t_all = Instant::now();

    // Phase A: saturated injector path.
    let span_a = seconds * PHASE_A_SHARE;
    let (samples_a, submitted_a, hung_a) = {
        let _s = tracer.span("harness", "phase_a", 0);
        saturate(&pool, Duration::from_secs_f64(span_a), tracer, deadline)
    };
    out.check(!hung_a, "phase A did not drain before the wall-clock cap");
    out.throughput_per_s = rate_by_part(&samples_a, span_a);
    let capacity = out.throughput_per_s;

    // Phase B: open loop at a fixed rate; the generated plan is the
    // per-job spin length (±25 % around the mean) and nothing else.
    let span_b = seconds - span_a;
    let n = (OPEN_RATE_PER_S * span_b) as usize;
    let mut rng = Rng::new(seed).fork(0xE1);
    let iters: Vec<u32> = (0..n)
        .map(|_| (OPEN_JOB_US * rng.range_f64(0.75, 1.25) * f64::from(SPIN_ITERS_PER_US)) as u32)
        .collect();
    let lat_ns: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(u64::MAX)).collect());
    let done_b = Arc::new(AtomicU64::new(0));
    let mut late_us = Vec::with_capacity(n);
    let period = Duration::from_secs_f64(1.0 / OPEN_RATE_PER_S);
    let toggles = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let hung_b = std::thread::scope(|scope| {
        scope.spawn(|| {
            // The phantom slot halves the pool's share while it lives.
            let mut phantom = None;
            // At least four toggles even in a `--quick` phase.
            let every = TOGGLE_EVERY.min(Duration::from_secs_f64(span_b / 5.0));
            let mut next = Instant::now() + every;
            while !stop.load(Ordering::Acquire) {
                if Instant::now() >= next {
                    next += every;
                    let _s = tracer.span("controller", "toggle", toggles.load(Ordering::Relaxed));
                    phantom = match phantom.take() {
                        None => Some(controller.register(p)),
                        Some(_) => None,
                    };
                    controller.recompute_now();
                    toggles.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let _s = tracer.span("harness", "phase_b", 0);
        let t0 = Instant::now() + Duration::from_millis(1);
        for (i, &job_iters) in iters.iter().enumerate() {
            let due = t0 + period * i as u32;
            loop {
                let now = Instant::now();
                if now >= due {
                    late_us.push(now.duration_since(due).as_secs_f64() * 1e6);
                    break;
                }
                std::hint::spin_loop();
            }
            let (lat, done) = (Arc::clone(&lat_ns), Arc::clone(&done_b));
            // One span per 256 submissions keeps the traced generator on
            // schedule; every submission is the same call.
            let _s = (i % 256 == 0).then(|| tracer.span("pool", "execute", i as u64));
            pool.execute(move || {
                spin(job_iters);
                lat[i].store(due.elapsed().as_nanos() as u64, Ordering::Release);
                done.fetch_add(1, Ordering::Release);
            });
        }
        let mut hung = false;
        while done_b.load(Ordering::Acquire) < n as u64 {
            if deadline.passed() {
                hung = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Release);
        hung
    });
    if !hung_b {
        let _s = tracer.span("pool", "wait_idle", 0);
        pool.wait_idle();
    }
    let elapsed = t_all.elapsed().as_secs_f64();
    let after = pool.stats();
    tracer.add_recorder_events(&pool.recorder().drain(usize::MAX));

    let lost = lat_ns
        .iter()
        .filter(|l| l.load(Ordering::Acquire) == u64::MAX)
        .count() as u64;
    out.attempted += submitted_a + n as u64;
    out.fail(lost, format!("{lost} open-loop jobs never completed"));
    out.check(
        toggles.load(Ordering::Relaxed) >= 2,
        "the target never oscillated in phase B",
    );
    // (Not of a smoke run, which may be an unoptimised build.)
    out.check(
        ctx.quick || OPEN_RATE_PER_S <= 0.5 * capacity,
        format!("offered {OPEN_RATE_PER_S}/s exceeds half of phase-A capacity {capacity:.0}/s"),
    );

    let lat: Vec<(f64, f64)> = lat_ns
        .iter()
        .enumerate()
        .filter_map(|(i, l)| {
            let ns = l.load(Ordering::Acquire);
            (ns != u64::MAX).then(|| (i as f64 / OPEN_RATE_PER_S, ns as f64 / 1e3))
        })
        .collect();
    let window = (span_b, PARTS);
    out.latency_p50_us = windowed(&lat, window, median, as_measured);
    out.set("pool.jobs_per_s", capacity);
    out.set("pool.lat_p50_us", out.latency_p50_us);
    out.set(
        "pool.lat_p99_us",
        windowed(&lat, window, |v| quantile(v, 0.99), as_measured),
    );
    pool_layer_metrics(
        &mut out,
        &before,
        &after,
        elapsed,
        p,
        submitted_a + n as u64,
    );
    out.set("pool.gen_late_p99_us", quantile(&late_us, 0.99));
    out
}
