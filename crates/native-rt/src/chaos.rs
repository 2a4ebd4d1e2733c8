//! A fault-injecting Unix-socket proxy for chaos-testing the control
//! plane.
//!
//! The proxy sits between a [`crate::UdsClient`] and a
//! [`crate::UdsServer`], forwarding request lines upstream untouched and
//! applying seeded, deterministic faults to the reply stream:
//!
//! - **drop** — swallow a reply line (the client waits, then times out);
//! - **delay** — hold a reply for a fixed duration before forwarding;
//! - **truncate** — forward half a reply with no newline, then sever the
//!   connection (a torn frame);
//! - **garble** — overwrite the reply's payload bytes (a corrupt frame,
//!   still newline-terminated);
//! - **disconnect** — sever the connection between replies.
//!
//! The whole proxy can also be [paused](ChaosProxy::pause), freezing both
//! directions — the "wedged but alive" server that only client-side
//! timeouts and server-side leases can defend against.
//!
//! All randomness comes from one seeded xorshift per connection
//! (`seed ^ connection-index`), so a given configuration replays the same
//! fault schedule every run — chaos tests stay deterministic. Injected
//! faults are counted in a [`Registry`] readable via
//! [`ChaosProxy::stats`].
//!
//! Wire faults exercise the *control* plane; [`JobChaos`] extends the
//! same seeded-schedule idea to the *data* plane, wrapping pool jobs so
//! a deterministic fraction panic or stall in place. That is what the
//! pool's panic isolation (`jobs_panicked` conservation) and stall
//! watchdog (`stalls_detected`, `Stall`/`Recovered` trace events) are
//! tested against.
//!
//! This is a test-support module: the CI `chaos` lane drives it with a
//! fixed seed (see `crates/native-rt/tests/chaos.rs`).

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::{Registry, Snapshot};

/// Proxy tuning: where to listen, where to forward, and the fault mix.
///
/// Probabilities are per reply line and evaluated in the order
/// disconnect → drop → truncate → garble → delay; their sum should stay
/// ≤ 1.0 (the remainder is clean forwarding).
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Socket path the proxy listens on (clients connect here).
    pub listen: PathBuf,
    /// Socket path of the real server.
    pub upstream: PathBuf,
    /// RNG seed; a fixed seed replays the same fault schedule.
    pub seed: u64,
    /// Probability of severing the connection instead of forwarding.
    pub disconnect_prob: f64,
    /// Probability of swallowing a reply line.
    pub drop_prob: f64,
    /// Probability of forwarding a torn (half, unterminated) reply and
    /// then severing the connection.
    pub truncate_prob: f64,
    /// Probability of corrupting a reply's payload bytes.
    pub garble_prob: f64,
    /// Probability of delaying a reply by [`ChaosConfig::delay`].
    pub delay_prob: f64,
    /// How long a delayed reply is held.
    pub delay: Duration,
}

impl ChaosConfig {
    /// A clean pass-through proxy (all fault probabilities zero).
    pub fn passthrough(
        listen: impl Into<PathBuf>,
        upstream: impl Into<PathBuf>,
        seed: u64,
    ) -> Self {
        ChaosConfig {
            listen: listen.into(),
            upstream: upstream.into(),
            seed,
            disconnect_prob: 0.0,
            drop_prob: 0.0,
            truncate_prob: 0.0,
            garble_prob: 0.0,
            delay_prob: 0.0,
            delay: Duration::from_millis(50),
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn unit(state: &mut u64) -> f64 {
    (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// What the fault schedule decided for one reply line.
enum Fault {
    Forward,
    Disconnect,
    Drop,
    Truncate,
    Garble,
    Delay,
}

fn pick_fault(cfg: &ChaosConfig, rng: &mut u64) -> Fault {
    let r = unit(rng);
    let mut edge = cfg.disconnect_prob;
    if r < edge {
        return Fault::Disconnect;
    }
    edge += cfg.drop_prob;
    if r < edge {
        return Fault::Drop;
    }
    edge += cfg.truncate_prob;
    if r < edge {
        return Fault::Truncate;
    }
    edge += cfg.garble_prob;
    if r < edge {
        return Fault::Garble;
    }
    edge += cfg.delay_prob;
    if r < edge {
        return Fault::Delay;
    }
    Fault::Forward
}

/// What [`JobChaos`] decided for one wrapped job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobFault {
    /// Run the wrapped work unchanged.
    Run,
    /// Panic instead of running the work — exercises the pool's
    /// catch_unwind isolation and `jobs_panicked` conservation.
    Panic,
    /// Sleep past the watchdog's stall threshold, then run the work —
    /// exercises stall detection and the `Stall`/`Recovered` events.
    Stall,
}

/// Seeded generator of misbehaving pool jobs.
///
/// Wraps ordinary closures so a deterministic fraction panic or stall
/// in place, with the same replay guarantee as the wire proxy: one
/// xorshift stream per instance, schedule a pure function of the seed.
/// The caller reads [`JobChaos::injected`] afterwards to know exactly
/// how many faults of each kind went in, which is what conservation
/// assertions (`submitted == jobs_run + jobs_panicked`) check against.
#[derive(Debug)]
pub struct JobChaos {
    rng: u64,
    panic_prob: f64,
    stall_prob: f64,
    stall_for: Duration,
    panics: u64,
    stalls: u64,
}

impl JobChaos {
    /// A schedule injecting panics and stalls with the given per-job
    /// probabilities (evaluated in that order; their sum should stay
    /// ≤ 1.0). Stalled jobs sleep `stall_for` before doing their work.
    pub fn new(seed: u64, panic_prob: f64, stall_prob: f64, stall_for: Duration) -> Self {
        JobChaos {
            rng: seed,
            panic_prob,
            stall_prob,
            stall_for,
            panics: 0,
            stalls: 0,
        }
    }

    /// Draws the next fault from the schedule and tallies it.
    pub fn next_fault(&mut self) -> JobFault {
        let r = unit(&mut self.rng);
        if r < self.panic_prob {
            self.panics += 1;
            JobFault::Panic
        } else if r < self.panic_prob + self.stall_prob {
            self.stalls += 1;
            JobFault::Stall
        } else {
            JobFault::Run
        }
    }

    /// Wraps `work` with the next fault in the schedule. The returned
    /// closure is submitted to a pool like any other job; the returned
    /// [`JobFault`] tells the caller what will happen when it runs.
    pub fn wrap<F>(&mut self, work: F) -> (JobFault, Box<dyn FnOnce() + Send + 'static>)
    where
        F: FnOnce() + Send + 'static,
    {
        let fault = self.next_fault();
        let stall_for = self.stall_for;
        let job: Box<dyn FnOnce() + Send + 'static> = match fault {
            JobFault::Run => Box::new(work),
            JobFault::Panic => Box::new(|| panic!("chaos: injected job panic")),
            JobFault::Stall => Box::new(move || {
                std::thread::sleep(stall_for);
                work();
            }),
        };
        (fault, job)
    }

    /// `(panics, stalls)` injected so far.
    pub fn injected(&self) -> (u64, u64) {
        (self.panics, self.stalls)
    }
}

/// The running fault-injection proxy. Dropping it stops the listener,
/// severs every proxied connection, and removes the listen socket.
pub struct ChaosProxy {
    listen_path: PathBuf,
    // sched-atomic(handoff): Release store in Drop publishes the
    // tear-down decision before the listener socket is unlinked; pump
    // threads' Acquire loads pair with it.
    stop: Arc<AtomicBool>,
    // sched-atomic(handoff): pause()/resume() publish with Release; the
    // pump loop's Acquire load pairs with it.
    paused: Arc<AtomicBool>,
    registry: Arc<Registry>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds the listen socket and starts proxying to the upstream path.
    /// The upstream server does not need to be up yet (each client
    /// connection dials upstream on arrival, and fails that client if
    /// nobody answers).
    pub fn start(cfg: ChaosConfig) -> io::Result<Self> {
        let listen_path = cfg.listen.clone();
        let _ = std::fs::remove_file(&cfg.listen);
        let listener = UnixListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new());
        for name in [
            "connections",
            "upstream_failures",
            "forwards",
            "disconnects",
            "drops",
            "truncates",
            "garbles",
            "delays",
        ] {
            // sched-counters: connections upstream_failures forwards disconnects drops truncates garbles delays
            registry.counter(name);
        }
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let paused = Arc::clone(&paused);
            let registry = Arc::clone(&registry);
            std::thread::Builder::new()
                .name("chaos-proxy-accept".into())
                .spawn(move || {
                    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
                    let mut conn_index: u64 = 0;
                    while !stop.load(Ordering::Acquire) {
                        match listener.accept() {
                            Ok((client, _)) => {
                                conn_index += 1;
                                registry.counter("connections").incr();
                                let upstream = match UnixStream::connect(&cfg.upstream) {
                                    Ok(s) => s,
                                    Err(_) => {
                                        registry.counter("upstream_failures").incr();
                                        // Dropping `client` gives the real
                                        // client an immediate EOF.
                                        continue;
                                    }
                                };
                                spawn_pumps(
                                    &mut pumps, client, upstream, &cfg, conn_index, &stop, &paused,
                                    &registry,
                                );
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(10));
                            }
                            Err(_) => break,
                        }
                    }
                    for p in pumps {
                        let _ = p.join();
                    }
                })
                .expect("spawn chaos accept thread")
        };
        Ok(ChaosProxy {
            listen_path,
            stop,
            paused,
            registry,
            accept_thread: Some(accept_thread),
        })
    }

    /// The path clients should connect to.
    pub fn path(&self) -> &Path {
        &self.listen_path
    }

    /// Freezes both directions: requests and replies are held (not
    /// dropped) until [`ChaosProxy::resume`] — the wedged-server
    /// simulation.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::Release);
    }

    /// Thaws a [`ChaosProxy::pause`]; held lines flow again.
    pub fn resume(&self) {
        self.paused.store(false, Ordering::Release);
    }

    /// Counts of injected faults and proxied connections so far.
    pub fn stats(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.listen_path);
    }
}

/// Severs both halves of a proxied connection.
fn sever(a: &UnixStream, b: &UnixStream) {
    let _ = a.shutdown(std::net::Shutdown::Both);
    let _ = b.shutdown(std::net::Shutdown::Both);
}

/// Blocks while the proxy is paused; false when stopping.
fn wait_unpaused(stop: &AtomicBool, paused: &AtomicBool) -> bool {
    while paused.load(Ordering::Acquire) {
        if stop.load(Ordering::Acquire) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    !stop.load(Ordering::Acquire)
}

/// Reads one line, treating read timeouts as "check the stop flag and
/// keep waiting". Returns `None` on EOF, any hard error, or shutdown.
fn read_line_interruptible(
    reader: &mut BufReader<UnixStream>,
    line: &mut String,
    stop: &AtomicBool,
) -> Option<usize> {
    loop {
        if stop.load(Ordering::Acquire) {
            return None;
        }
        line.clear();
        match reader.read_line(line) {
            Ok(0) => return None,
            Ok(n) => return Some(n),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return None,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_pumps(
    pumps: &mut Vec<JoinHandle<()>>,
    client: UnixStream,
    upstream: UnixStream,
    cfg: &ChaosConfig,
    conn_index: u64,
    stop: &Arc<AtomicBool>,
    paused: &Arc<AtomicBool>,
    registry: &Arc<Registry>,
) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = upstream.set_read_timeout(Some(Duration::from_millis(50)));

    // Request pump: client → server, faithful pass-through (requests are
    // the client's own words; the chaos budget is spent on replies).
    {
        let (client, upstream) = (
            client.try_clone().expect("clone client"),
            upstream.try_clone().expect("clone upstream"),
        );
        let (stop, paused) = (Arc::clone(stop), Arc::clone(paused));
        pumps.push(
            std::thread::Builder::new()
                .name("chaos-proxy-up".into())
                .spawn(move || {
                    let mut writer = upstream.try_clone().expect("clone upstream writer");
                    let mut reader = BufReader::new(client.try_clone().expect("clone client"));
                    let mut line = String::new();
                    while read_line_interruptible(&mut reader, &mut line, &stop).is_some() {
                        if !wait_unpaused(&stop, &paused) {
                            break;
                        }
                        if writer.write_all(line.as_bytes()).is_err() {
                            break;
                        }
                    }
                    sever(&client, &upstream);
                })
                .expect("spawn up pump"),
        );
    }

    // Reply pump: server → client, with the fault schedule applied.
    {
        let cfg = cfg.clone();
        let (stop, paused) = (Arc::clone(stop), Arc::clone(paused));
        let registry = Arc::clone(registry);
        let mut rng = cfg.seed ^ conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        pumps.push(
            std::thread::Builder::new()
                .name("chaos-proxy-down".into())
                .spawn(move || {
                    let mut writer = client.try_clone().expect("clone client writer");
                    let mut reader = BufReader::new(upstream.try_clone().expect("clone upstream"));
                    let mut line = String::new();
                    while read_line_interruptible(&mut reader, &mut line, &stop).is_some() {
                        if !wait_unpaused(&stop, &paused) {
                            break;
                        }
                        match pick_fault(&cfg, &mut rng) {
                            Fault::Forward => {
                                registry.counter("forwards").incr();
                                if writer.write_all(line.as_bytes()).is_err() {
                                    break;
                                }
                            }
                            Fault::Disconnect => {
                                registry.counter("disconnects").incr();
                                break;
                            }
                            Fault::Drop => {
                                registry.counter("drops").incr();
                            }
                            Fault::Truncate => {
                                registry.counter("truncates").incr();
                                let torn = &line.as_bytes()[..line.len() / 2];
                                let _ = writer.write_all(torn);
                                break;
                            }
                            Fault::Garble => {
                                registry.counter("garbles").incr();
                                // Corrupt the payload but keep it valid
                                // UTF-8 and newline-terminated: the parser
                                // must answer, not crash or stall.
                                let garbled: String = line
                                    .trim_end()
                                    .chars()
                                    .map(|c| if c.is_whitespace() { c } else { '#' })
                                    .collect();
                                if writer.write_all(format!("{garbled}\n").as_bytes()).is_err() {
                                    break;
                                }
                            }
                            Fault::Delay => {
                                registry.counter("delays").incr();
                                std::thread::sleep(cfg.delay);
                                if writer.write_all(line.as_bytes()).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    sever(&client, &upstream);
                })
                .expect("spawn down pump"),
        );
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::uds::{UdsClient, UdsServer};
    use crate::UdsServerConfig;
    use std::time::Instant;

    fn paths(tag: &str) -> (PathBuf, PathBuf) {
        let base = std::env::temp_dir();
        let pid = std::process::id();
        (
            base.join(format!("chaos-{pid}-{tag}-proxy.sock")),
            base.join(format!("chaos-{pid}-{tag}-server.sock")),
        )
    }

    #[test]
    fn passthrough_proxy_is_transparent() {
        let (listen, upstream) = paths("clean");
        let _server = UdsServer::start(UdsServerConfig::new(&upstream, 8)).expect("server");
        let _proxy =
            ChaosProxy::start(ChaosConfig::passthrough(&listen, &upstream, 1)).expect("proxy");
        let mut c = UdsClient::register(&listen, 16).expect("client via proxy");
        assert_eq!(c.poll().expect("poll"), 8);
        c.bye().expect("bye");
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        let cfg = ChaosConfig {
            drop_prob: 0.3,
            garble_prob: 0.3,
            ..ChaosConfig::passthrough("/x", "/y", 42)
        };
        for _ in 0..100 {
            let fa = pick_fault(&cfg, &mut a);
            let fb = pick_fault(&cfg, &mut b);
            assert_eq!(
                std::mem::discriminant(&fa),
                std::mem::discriminant(&fb),
                "same seed must give the same schedule"
            );
        }
        assert_eq!(a, b);
    }

    #[test]
    fn job_chaos_schedule_is_deterministic_and_tallied() {
        let mut a = JobChaos::new(7, 0.25, 0.25, Duration::from_millis(1));
        let mut b = JobChaos::new(7, 0.25, 0.25, Duration::from_millis(1));
        let faults: Vec<JobFault> = (0..200).map(|_| a.next_fault()).collect();
        assert_eq!(faults, (0..200).map(|_| b.next_fault()).collect::<Vec<_>>());
        let (panics, stalls) = a.injected();
        assert_eq!(
            panics,
            faults.iter().filter(|f| **f == JobFault::Panic).count() as u64
        );
        assert_eq!(
            stalls,
            faults.iter().filter(|f| **f == JobFault::Stall).count() as u64
        );
        assert!(panics > 0 && stalls > 0, "probabilities must bite");
        // A clean wrap runs the work; an injected panic never reaches it.
        let mut clean = JobChaos::new(1, 0.0, 0.0, Duration::from_millis(1));
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let (fault, job) = clean.wrap(move || flag.store(true, Ordering::Release));
        assert_eq!(fault, JobFault::Run);
        job();
        assert!(ran.load(Ordering::Acquire));
    }

    #[test]
    fn paused_proxy_wedges_then_releases() {
        let (listen, upstream) = paths("pause");
        let _server = UdsServer::start(UdsServerConfig::new(&upstream, 4)).expect("server");
        let proxy =
            ChaosProxy::start(ChaosConfig::passthrough(&listen, &upstream, 7)).expect("proxy");
        let mut c = UdsClient::register_with_timeout(&listen, 4, Duration::from_millis(150))
            .expect("client");
        proxy.pause();
        let started = Instant::now();
        assert!(
            c.poll().is_err(),
            "poll through a wedged proxy must time out"
        );
        assert!(started.elapsed() >= Duration::from_millis(100));
        proxy.resume();
        // The held request eventually flows; drain until a fresh poll
        // succeeds on a new connection (this one's stream offset may be
        // torn by the timed-out read).
        let mut c2 = UdsClient::register(&listen, 4).expect("fresh client");
        assert_eq!(c2.poll().expect("poll after resume"), 4);
    }
}
