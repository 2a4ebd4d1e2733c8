//! `ctl_saturated` and `ctl_effect`: the control plane in its two
//! regimes. Saturated: an in-process reactor server answering pipelined
//! windows of mixed frames as fast as it can — throughput, writes beside
//! reads, no pool anywhere. Effect: an idle `procctl-serverd` child
//! competing for the CPUs with overcommitted application processes —
//! the round trip an application's poller sees, and how long a partition
//! decision takes to bite in another process.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use native_rt::{
    Pool, PoolConfig, ServerEngine, SupervisedClient, SupervisorConfig, TargetSlot, UdsServer,
    UdsServerConfig,
};

use crate::harness::{
    as_measured, kv_f64, median, nproc, parse_kv, proc_cpu_ns, quantile, spawn_serverd, spin,
    wall_ns, windowed, ChildGuard, Ctx, Deadline, Outcome, Rng, RunDir, Tracer, SPIN_ITERS_PER_US,
};

const PARTS: usize = 20;
const IO_TIMEOUT: Duration = Duration::from_secs(5);

// ---------------------------------------------------------------------
// ctl_saturated
// ---------------------------------------------------------------------

/// Fabricated pids `BASE_PID..BASE_PID+PIDS` (registration is per pid,
/// not per connection, and `prune_dead` is off).
const PIDS: u32 = 64;
const BASE_PID: u32 = 100_000;
const WINDOW_FRAMES: usize = 512;
/// Distinct pre-rendered windows each connection cycles through.
const WINDOWS_PER_CONN: usize = 8;

fn nworkers_of(pid: u32) -> u32 {
    2 + pid % 7
}

/// The pids connection `conn` of `nconn` owns. Each connection touches
/// only its own, so a BYE never races another connection's POLL and no
/// frame can fail.
fn pids_of(conn: usize, nconn: usize) -> Vec<u32> {
    (0..PIDS)
        .filter(|i| *i as usize % nconn == conn)
        .map(|i| BASE_PID + i)
        .collect()
}

/// Renders connection `conn`'s windows: POLL:REPORT 3:1, plus one
/// BYE/REGISTER pair per 1 024 frames (every second window).
pub fn render_windows(seed: u64, conn: usize, nconn: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::new(seed).fork(0xC0 + conn as u64);
    let pids = pids_of(conn, nconn);
    (0..WINDOWS_PER_CONN)
        .map(|w| {
            let mut buf = Vec::with_capacity(WINDOW_FRAMES * 24);
            let churn_at =
                (w % 2 == 1).then(|| 2 * rng.below(WINDOW_FRAMES as u64 / 2 - 1) as usize);
            let mut frame = 0;
            while frame < WINDOW_FRAMES {
                let pid = pids[rng.below(pids.len() as u64) as usize];
                if churn_at == Some(frame) {
                    let n = nworkers_of(pid);
                    buf.extend_from_slice(format!("BYE {pid}\nREGISTER {pid} {n}\n").as_bytes());
                    frame += 2;
                } else if frame % 4 == 3 {
                    let jobs = rng.below(1_000_000);
                    buf.extend_from_slice(
                        format!(
                            "REPORT {pid} jobs_run={jobs} steals={} local_hits={jobs}\n",
                            jobs / 100
                        )
                        .as_bytes(),
                    );
                    frame += 1;
                } else {
                    buf.extend_from_slice(format!("POLL {pid}\n").as_bytes());
                    frame += 1;
                }
            }
            buf
        })
        .collect()
}

/// One connection: non-blocking, always either writing its next window
/// or collecting that window's replies.
struct Lane {
    stream: UnixStream,
    /// The windows it cycles through, each with its frame count.
    windows: Vec<(Vec<u8>, usize)>,
    windows_done: usize,
    /// Bytes of the current window already written.
    written: usize,
    started: Instant,
    /// Reply lines of the current window seen so far, and the bytes of
    /// a reply line split across two reads.
    lines: usize,
    partial: Vec<u8>,
    /// Replies that were neither `OK …` nor `TARGET …`.
    bad: u64,
}

impl Lane {
    fn connect(path: &Path) -> std::io::Result<Lane> {
        let stream = UnixStream::connect(path)?;
        stream.set_nonblocking(true)?;
        Ok(Lane {
            stream,
            windows: Vec::new(),
            windows_done: 0,
            written: 0,
            started: Instant::now(),
            lines: 0,
            partial: Vec::new(),
            bad: 0,
        })
    }

    /// Replaces the windows the lane cycles through.
    fn load(&mut self, windows: Vec<Vec<u8>>) {
        self.windows = windows
            .into_iter()
            .map(|w| {
                let frames = w.iter().filter(|&&b| b == b'\n').count();
                (w, frames)
            })
            .collect();
        self.windows_done = 0;
    }

    fn check_reply(&mut self, line: &[u8]) {
        if !(line.starts_with(b"OK ") || line.starts_with(b"TARGET ")) {
            self.bad += 1;
        }
    }

    /// Moves the lane as far as it goes without blocking. Returns the
    /// window's round trip in µs when its last reply has just arrived.
    fn pump(&mut self) -> std::io::Result<Option<f64>> {
        let (window, frames) = &self.windows[self.windows_done % self.windows.len()];
        let frames = *frames;
        if self.written == 0 {
            self.started = Instant::now();
        }
        while self.written < window.len() {
            match self.stream.write(&window[self.written..]) {
                Ok(n) => self.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let all_written = self.written == window.len();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => return Err(std::io::Error::other("server closed the connection")),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(e),
            };
            for piece in chunk[..n].split_inclusive(|&b| b == b'\n') {
                if piece.last() != Some(&b'\n') {
                    self.partial.extend_from_slice(piece);
                    continue;
                }
                if self.partial.is_empty() {
                    self.check_reply(piece);
                } else {
                    let mut line = std::mem::take(&mut self.partial);
                    line.extend_from_slice(piece);
                    self.check_reply(&line);
                }
                self.lines += 1;
            }
            if self.lines >= frames && all_written {
                self.bad += (self.lines - frames) as u64;
                self.lines = 0;
                self.written = 0;
                self.windows_done += 1;
                return Ok(Some(self.started.elapsed().as_secs_f64() * 1e6));
            }
        }
    }

    /// Pumps, yielding the CPU in between, until the current window is
    /// answered.
    fn finish_window(&mut self, deadline: Deadline) -> std::io::Result<()> {
        while self.pump()?.is_none() {
            if deadline.passed() {
                return Err(std::io::Error::other("the server stopped answering"));
            }
            std::thread::yield_now();
        }
        Ok(())
    }
}

/// Dropped in field order: the server writes its last snapshot into
/// the directory, so the directory goes last.
struct Saturated {
    lanes: Vec<Lane>,
    server: UdsServer,
    _dir: RunDir,
}

fn saturated_setup(seed: u64, tracer: &Tracer, deadline: Deadline) -> std::io::Result<Saturated> {
    let nconn = nproc();
    let dir = RunDir::create("sat")?;
    let mut cfg = UdsServerConfig::new(dir.join("s.sock"), PIDS as usize);
    cfg.engine = ServerEngine::Reactor;
    cfg.prune_dead = false;
    cfg.weighted = true;
    cfg.snapshot_path = Some(dir.join("snapshot"));
    let server = {
        let _s = tracer.span("uds", "server_start", 0);
        UdsServer::start(cfg)?
    };
    let mut lanes = Vec::new();
    for c in 0..nconn {
        let mut lane = Lane::connect(server.path())?;
        let register: String = pids_of(c, nconn)
            .iter()
            .map(|&p| format!("REGISTER {p} {}\n", nworkers_of(p)))
            .collect();
        lane.load(vec![register.into_bytes()]);
        lane.finish_window(deadline)?;
        if lane.bad > 0 {
            return Err(std::io::Error::other("registration was refused"));
        }
        // Warm-up: every window once.
        lane.load(render_windows(seed, c, nconn));
        for _ in 0..WINDOWS_PER_CONN {
            lane.finish_window(deadline)?;
        }
        lanes.push(lane);
    }
    Ok(Saturated {
        lanes,
        server,
        _dir: dir,
    })
}

pub fn run_saturated(ctx: &Ctx) -> Outcome {
    let Ctx {
        seed,
        seconds,
        tracer,
        deadline,
        ..
    } = *ctx;
    let mut out = Outcome::default();
    let Some(Saturated {
        mut lanes,
        server,
        _dir,
    }) = ctx.set_up(&mut out, || saturated_setup(seed, tracer, deadline))
    else {
        return out;
    };

    let before = server.stats();
    let (start, at) = (Instant::now(), ctx.now());
    let span = Duration::from_secs_f64(seconds);
    // One generator thread serves all P connections and yields the CPU
    // whenever none of them can move. The whole workload is pinned to
    // one CPU (`main.rs`): the reactor and the generator hand that CPU
    // back and forth, so no frame waits for a cross-CPU wake-up — under a
    // hypervisor an interrupt whose cost the host's load decides. (With
    // blocking generators on the other CPUs the same server swung 2x
    // from one half-second to the next, and between runs.) What is
    // measured is the CPU the server and its client need per frame.
    let mut rtts: Vec<(f64, f64)> = Vec::new();
    let mut failure = None;
    'run: while start.elapsed() < span && !deadline.passed() {
        std::thread::yield_now();
        for (c, lane) in lanes.iter_mut().enumerate() {
            match lane.pump() {
                Ok(Some(rtt_us)) => {
                    let op = (c * 1_000_000 + lane.windows_done) as u64;
                    tracer.record("uds", "window", op, Duration::from_secs_f64(rtt_us / 1e6));
                    rtts.push((start.elapsed().as_secs_f64().min(seconds), rtt_us));
                }
                Ok(None) => {}
                Err(e) => {
                    failure = Some(e.to_string());
                    break 'run;
                }
            }
        }
    }
    let after = server.stats();
    drop(server);

    out.attempted += (rtts.len() * WINDOW_FRAMES) as u64;
    let bad: u64 = lanes.iter().map(|l| l.bad).sum();
    out.fail(bad, format!("{bad} replies were neither OK nor TARGET"));
    if let Some(e) = failure {
        out.check(false, format!("connection failed: {e}"));
    }
    let part = seconds / PARTS as f64;
    let frames: Vec<(f64, f64)> = rtts.iter().map(|s| (s.0, WINDOW_FRAMES as f64)).collect();
    let rate = |f: &[f64]| f.iter().sum::<f64>() / part;
    let window = (seconds, PARTS);
    let slowdown = |from: f64, to: f64| ctx.slowdown(at + from, at + to);
    out.throughput_per_s = windowed(&frames, window, rate, slowdown);
    out.latency_p50_us = windowed(&rtts, window, median, |a, b| 1.0 / slowdown(a, b));
    out.set(
        "ctl.frames_per_s",
        windowed(&frames, window, rate, as_measured),
    );
    out.set(
        "uds.reply_p50_us",
        windowed(&rtts, window, median, as_measured),
    );
    out.set(
        "uds.reply_p99_us",
        windowed(&rtts, window, |v| quantile(v, 0.99), as_measured),
    );

    let d = after.counters_delta(&before);
    let c = |k: &str| d.get(k).copied().unwrap_or(0) as f64;
    let served = c("polls") + c("reports") + c("registers") + c("byes");
    out.check(c("malformed") == 0.0, "the server counted malformed frames");
    out.check(c("lease_expiries") == 0.0, "a lease expired during the run");
    out.set("uds.polls", c("polls"));
    out.set("uds.reports", c("reports"));
    out.set("uds.registers", c("registers"));
    out.set("uds.malformed", c("malformed"));
    out.set("uds.lease_expiries", c("lease_expiries"));
    out.set(
        "reactor.frames_per_wakeup",
        served / c("reactor_wakeups").max(1.0),
    );
    out.set(
        "reactor.batched_share",
        c("frames_batched") / served.max(1.0),
    );
    out.set("reactor.timer_fires", c("timer_fires"));
    out.set("snapshot.writes", c("snapshot_writes"));
    out.set(
        "procctl.recompute_coalesced_ratio",
        c("recompute_coalesced") / (c("reports") + c("registers") + c("byes")).max(1.0),
    );
    out
}

// ---------------------------------------------------------------------
// Decision → effect, shared with native_mix
// ---------------------------------------------------------------------

/// Watches a pool from inside its process: logs the wall-clock instant
/// `target()` changed and the instant `active()` first matched it.
pub struct Monitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<(u64, u64, usize)>>>,
}

impl Monitor {
    pub fn start(pool: Arc<Pool>) -> Monitor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut changes = Vec::new();
            let mut last = pool.target();
            // A change seen but not yet in effect: (seen at, target).
            let mut open: Option<(u64, usize)> = None;
            while !stop2.load(Ordering::Acquire) {
                let target = pool.target();
                if target != last {
                    last = target;
                    open = Some((wall_ns(), target));
                }
                if let Some((seen, t)) = open {
                    if pool.active() == t {
                        changes.push((seen, wall_ns(), t));
                        open = None;
                    }
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            changes
        });
        Monitor {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread; returns `(seen, active, target)` per change.
    pub fn finish(mut self) -> Vec<(u64, u64, usize)> {
        self.stop.store(true, Ordering::Release);
        self.handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

/// `change seen=… active=… target=…` lines, as app children print them.
pub fn render_changes(changes: &[(u64, u64, usize)]) -> String {
    changes
        .iter()
        .map(|(s, a, t)| format!("change seen={s} active={a} target={t}\n"))
        .collect()
}

pub fn parse_changes(stdout: &str) -> Vec<(u64, u64)> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("change "))
        .map(|l| {
            let kv = parse_kv(l);
            (kv_f64(&kv, "seen") as u64, kv_f64(&kv, "active") as u64)
        })
        .collect()
}

/// Milliseconds from decision to seen, seen to active, and decision to
/// active, for every decision some application answered.
#[derive(Default)]
pub struct Effects {
    pub to_seen_ms: Vec<f64>,
    pub to_active_ms: Vec<f64>,
    pub total_ms: Vec<f64>,
    /// Decisions an application did not react to before the next one
    /// (they enter `total_ms` at the length of that interval).
    pub missed: u64,
}

/// Pairs each decision instant with the first target change each app
/// logged after it (and before the next decision).
pub fn stitch(decisions: &[u64], apps: &[Vec<(u64, u64)>], expect_all: bool) -> Effects {
    // The app's clock read may precede the driver's by scheduling noise.
    const SLACK_NS: u64 = 200_000;
    let mut e = Effects::default();
    for (k, &at) in decisions.iter().enumerate() {
        let until = decisions.get(k + 1).copied().unwrap_or(u64::MAX);
        for changes in apps {
            let hit = changes
                .iter()
                .find(|(seen, _)| *seen + SLACK_NS >= at && *seen < until);
            match hit {
                Some(&(seen, active)) => {
                    e.to_seen_ms.push(seen.saturating_sub(at) as f64 / 1e6);
                    e.to_active_ms
                        .push(active.saturating_sub(seen) as f64 / 1e6);
                    e.total_ms.push(active.saturating_sub(at) as f64 / 1e6);
                }
                // No reaction before the next decision: a censored
                // sample, as long as the interval it had.
                None if expect_all && until != u64::MAX => {
                    e.total_ms.push((until - at) as f64 / 1e6);
                    e.missed += 1;
                }
                None => {}
            }
        }
    }
    e
}

// ---------------------------------------------------------------------
// ctl_effect
// ---------------------------------------------------------------------

const APP_POLL: Duration = Duration::from_millis(50);
/// Toggle `k` happens at `k·100 ms + 50 ms · frac((k0 + k)·φ)` with `k0`
/// from the seed: 81 or 131 ms apart, longer than an application's
/// poll, so every change is seen before the next. An application waits
/// for its next 50 ms poll to see a change, so the measured latency is
/// mostly *where in the poll interval* the toggle fell. A fixed 125 ms
/// period samples two such phases and the median lands wherever they
/// are; random gaps sample them evenly but slowly (10 % spread from 160
/// samples); the golden-ratio sequence covers the interval evenly from
/// the first few toggles on.
const TOGGLE_EVERY: Duration = Duration::from_millis(100);
const GOLDEN: f64 = 0.618_033_988_749_895;
const RTT_EVERY: Duration = Duration::from_millis(1);
/// Length of the apps' spin jobs and how many each keeps queued.
const APP_JOB_US: u32 = 200;
const APP_QUEUE: u64 = 64;

/// The application process of `ctl_effect`: a pool of P workers chewing
/// endless ~200 µs jobs, its own timed `poll_target` loop feeding the
/// target slot, and a monitor. Runs until stdin closes.
pub fn spinapp_main(sock: &str) -> i32 {
    let workers = nproc();
    let slot = Arc::new(TargetSlot::new(workers));
    let pool = Arc::new(Pool::with_slot_config(
        Arc::clone(&slot),
        PoolConfig::new(workers),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let mut sup =
        SupervisedClient::new(SupervisorConfig::new(sock, workers as u32), pool.registry());
    // First poll before "ready", so the driver starts from a settled target.
    if let Some(t) = sup.poll_target() {
        slot.target
            .store((t as usize).clamp(1, workers), Ordering::Release);
    }
    let poller = {
        let (stop, slot) = (Arc::clone(&stop), Arc::clone(&slot));
        std::thread::spawn(move || {
            let mut rtt_us = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let t = Instant::now();
                let target = sup.poll_target();
                rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                let target = target.map_or(workers, |t| (t as usize).clamp(1, workers));
                slot.target.store(target, Ordering::Release);
                std::thread::sleep(APP_POLL);
            }
            sup.bye();
            rtt_us
        })
    };
    let monitor = Monitor::start(Arc::clone(&pool));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut line = String::new();
            // Any line, or end of input, means stop.
            let _ = std::io::stdin().read_line(&mut line);
            stop.store(true, Ordering::Release);
        });
    }
    println!("ready");
    let t = Instant::now();
    let done = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut submitted = 0u64;
    while !stop.load(Ordering::Acquire) {
        while submitted - done.load(Ordering::Acquire) < APP_QUEUE {
            let d = Arc::clone(&done);
            pool.execute(move || {
                spin(APP_JOB_US * SPIN_ITERS_PER_US);
                d.fetch_add(1, Ordering::Release);
            });
            submitted += 1;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    pool.wait_idle();
    let run_s = t.elapsed().as_secs_f64();
    let changes = monitor.finish();
    let rtt_us = poller.join().unwrap_or_default();
    let stats = pool.stats();
    let c = |k: &str| stats.counters.get(k).copied().unwrap_or(0);
    print!("{}", render_changes(&changes));
    println!(
        "result jobs={} submitted={submitted} run_s={run_s:.6} poll_p50_us={:.3} polls={} reconnects={} degraded_enters={} poll_errors={}",
        c("jobs_run"),
        median(&rtt_us),
        rtt_us.len(),
        c("reconnects"),
        c("degraded_enters"),
        c("poll_errors"),
    );
    i32::from(c("jobs_run") != submitted)
}

/// One line-oriented driver connection to the server.
struct Wire {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Wire {
    fn connect(path: &Path) -> std::io::Result<Wire> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Wire {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends `frames` (newline-terminated) and reads `n` reply lines.
    fn call(&mut self, frames: &str, n: usize) -> std::io::Result<Vec<String>> {
        self.writer.write_all(frames.as_bytes())?;
        (0..n)
            .map(|_| {
                let mut line = String::new();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(std::io::Error::other("server closed the connection"));
                }
                Ok(line.trim_end().to_string())
            })
            .collect()
    }
}

/// Dropped in field order: applications, then the server, then the
/// directory that holds its socket.
struct EffectRig {
    apps: Vec<ChildGuard>,
    serverd: ChildGuard,
    dir: RunDir,
}

impl EffectRig {
    fn sock(&self) -> std::path::PathBuf {
        self.dir.join("s.sock")
    }
}

fn effect_setup(tracer: &Tracer, deadline: Deadline) -> std::io::Result<EffectRig> {
    let p = nproc();
    let dir = RunDir::create("eff")?;
    let sock = dir.join("s.sock");
    let sock_arg = sock.to_string_lossy().into_owned();
    // The server is told about 2P processors: two P-worker applications
    // then hold P each, and two phantom registrations halve both.
    let serverd = spawn_serverd(&sock, 2 * p, tracer, deadline)?;
    let me = std::env::current_exe()?;
    let mut apps = Vec::new();
    for i in 0..2 {
        let _s = tracer.span("harness", "spawn_app", i);
        let mut app = ChildGuard::spawn(
            "spinapp",
            &me,
            &[
                "--role".into(),
                "spinapp".into(),
                "--sock".into(),
                sock_arg.clone(),
            ],
        )?;
        app.wait_for_line("ready")?;
        apps.push(app);
    }
    Ok(EffectRig { apps, serverd, dir })
}

pub fn run_effect(ctx: &Ctx) -> Outcome {
    let Ctx {
        seed,
        seconds,
        tracer,
        deadline,
        ..
    } = *ctx;
    let p = nproc();
    let mut out = Outcome::default();
    let Some(mut rig) = ctx.set_up(&mut out, || effect_setup(tracer, deadline)) else {
        return out;
    };
    let sock = rig.sock();
    let app_pid = rig.apps[0].pid();
    let phantoms = [std::process::id(), rig.serverd.pid()];

    // The only seeded input: when the toggles happen.
    let mut rng = Rng::new(seed).fork(0xEF);
    let span = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let mut decisions: Vec<u64> = Vec::new();
    let mut toggle_err = None;
    let rtt: std::io::Result<Vec<(f64, f64)>> = std::thread::scope(|scope| {
        let poller = scope.spawn(|| -> std::io::Result<Vec<(f64, f64)>> {
            // An application's poll, sent from here: POLL names a pid,
            // not a connection, so this measures what app 0's poller sees
            // without adding a registration of its own.
            let mut wire = Wire::connect(&sock)?;
            let frame = format!("POLL {app_pid}\n");
            let mut samples = Vec::new();
            let mut next = Instant::now();
            while !stop.load(Ordering::Acquire) {
                let _s = (samples.len() % 16 == 0)
                    .then(|| tracer.span("uds", "poll", samples.len() as u64));
                let t = Instant::now();
                let reply = wire.call(&frame, 1)?;
                let us = t.elapsed().as_secs_f64() * 1e6;
                if !reply[0].starts_with("TARGET ") {
                    return Err(std::io::Error::other(format!("POLL answered {}", reply[0])));
                }
                samples.push((start.elapsed().as_secs_f64(), us));
                next += RTT_EVERY;
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
            }
            Ok(samples)
        });
        let toggled: std::io::Result<()> = (|| {
            let mut wire = Wire::connect(&sock)?;
            let mut registered = false;
            let k0 = rng.below(1_000);
            let at = |k: u64| {
                let phase = ((k0 + k) as f64 * GOLDEN).fract();
                start + TOGGLE_EVERY * k as u32 + APP_POLL.mul_f64(phase)
            };
            let mut k = 1;
            while start.elapsed() < span && !deadline.passed() {
                std::thread::sleep(at(k).saturating_duration_since(Instant::now()));
                k += 1;
                let frames: String = phantoms
                    .iter()
                    .map(|pid| {
                        if registered {
                            format!("BYE {pid}\n")
                        } else {
                            format!("REGISTER {pid} {p}\n")
                        }
                    })
                    .collect();
                let _s = tracer.span("uds", "toggle", decisions.len() as u64);
                let replies = wire.call(&frames, 2)?;
                if replies.iter().any(|r| !r.starts_with("OK ")) {
                    return Err(std::io::Error::other(format!(
                        "toggle answered {replies:?}"
                    )));
                }
                decisions.push(wall_ns());
                registered = !registered;
            }
            // Give the last decision two application polls to take effect.
            std::thread::sleep(2 * APP_POLL + Duration::from_millis(20));
            if registered {
                let frames: String = phantoms.iter().map(|p| format!("BYE {p}\n")).collect();
                wire.call(&frames, 2)?;
            }
            Ok(())
        })();
        toggle_err = toggled.err();
        stop.store(true, Ordering::Release);
        poller.join().expect("poller thread panicked")
    });

    // Server-side counters over the wire, then its CPU time, then stop.
    let served = Wire::connect(&sock)
        .and_then(|mut w| w.call("STATS\n", 1))
        .map(|r| parse_kv(&r[0]))
        .unwrap_or_default();
    let server_cpu_ns = proc_cpu_ns(rig.serverd.pid());
    let mut app_changes = Vec::new();
    let mut poll_p50 = Vec::new();
    let mut jobs_per_s = 0.0;
    let mut reconnects = 0.0;
    let mut degraded = 0.0;
    for app in &mut rig.apps {
        let _s = tracer.span("harness", "app_exit", 0);
        let (ok, stdout) = app.finish(deadline);
        out.check(ok, "an application process exited non-zero");
        app_changes.push(parse_changes(&stdout));
        if let Some(r) = stdout.lines().find_map(|l| l.strip_prefix("result ")) {
            let kv = parse_kv(r);
            poll_p50.push(kv_f64(&kv, "poll_p50_us"));
            jobs_per_s += kv_f64(&kv, "jobs") / kv_f64(&kv, "run_s").max(1e-9);
            reconnects += kv_f64(&kv, "reconnects");
            degraded += kv_f64(&kv, "degraded_enters") + kv_f64(&kv, "poll_errors");
        }
    }
    out.check(
        rig.serverd.terminate(deadline),
        "procctl-serverd did not shut down cleanly",
    );
    if let Some(e) = toggle_err {
        out.check(false, format!("toggle failed: {e}"));
    }
    let rtt = match rtt {
        Ok(r) => r,
        Err(e) => {
            out.check(false, format!("poller failed: {e}"));
            Vec::new()
        }
    };
    out.attempted += rtt.len() as u64 + 2 * decisions.len() as u64;

    // A reaction that misses its interval is a slow sample, not a wrong
    // answer: the host stalls the whole VM for hundreds of ms now and
    // then. Many of them mean the control loop is broken.
    let effects = stitch(&decisions, &app_changes, true);
    // (A smoke run has a handful of toggles, maybe on a loaded machine
    // in an unoptimised build: one slow reaction is no verdict.)
    out.check(
        ctx.quick || effects.missed * 10 <= 2 * decisions.len() as u64,
        format!("{} target changes never took effect", effects.missed),
    );
    out.check(degraded == 0.0, "an application's supervisor degraded");
    out.check(
        kv_f64(&served, "malformed") == 0.0 && kv_f64(&served, "lease_expiries") == 0.0,
        "the server counted malformed frames or lease expiries",
    );

    let rtt_clamped: Vec<(f64, f64)> = rtt.iter().map(|s| (s.0.min(seconds), s.1)).collect();
    let rtt_q = |q: f64| {
        windowed(
            &rtt_clamped,
            (seconds, PARTS),
            |v| quantile(v, q),
            as_measured,
        )
    };
    // The driver's polls and toggles are paced; the rate that can move is
    // the work the two applications get done while the control plane
    // repartitions them: whatever the server, the pollers and the
    // suspensions cost comes out of it.
    out.throughput_per_s = jobs_per_s;
    // The headline latency is decision to effect; the round trip is the
    // layer under it.
    out.latency_p50_us = median(&effects.total_ms) * 1e3;
    out.set("ctl.rtt_p50_us", rtt_q(0.5));
    out.set("ctl.rtt_p99_us", rtt_q(0.99));
    out.set("ctl.effect_p50_ms", median(&effects.total_ms));
    out.set("ctl.effect_p95_ms", quantile(&effects.total_ms, 0.95));
    out.set(
        "effect.decision_to_seen_ms_p50",
        median(&effects.to_seen_ms),
    );
    out.set(
        "effect.seen_to_active_ms_p50",
        median(&effects.to_active_ms),
    );
    out.set("supervise.poll_target_us_p50", median(&poll_p50));
    out.set("supervise.reconnects", reconnects);
    out.set("supervise.degraded_enters", degraded);
    let frames = kv_f64(&served, "polls") + kv_f64(&served, "registers") + kv_f64(&served, "byes");
    // Both since the server started: its whole CPU time over every
    // frame it served.
    if let Some(ns) = server_cpu_ns {
        out.set("uds.server_cpu_ns_per_frame", ns as f64 / frames.max(1.0));
    }
    out.set("uds.polls", kv_f64(&served, "polls"));
    out.set("uds.registers", kv_f64(&served, "registers"));
    out.set("uds.malformed", kv_f64(&served, "malformed"));
    out.set("uds.lease_expiries", kv_f64(&served, "lease_expiries"));
    out.set("reactor.timer_fires", kv_f64(&served, "timer_fires"));
    out.set(
        "reactor.frames_per_wakeup",
        frames / kv_f64(&served, "reactor_wakeups").max(1.0),
    );
    out
}
