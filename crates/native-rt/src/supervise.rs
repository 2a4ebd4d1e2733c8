//! The one client applications use: a supervised, fault-tolerant wrapper
//! around [`UdsClient`], and its background poller.
//!
//! The paper's control plane is a single centralized server; the 1989
//! prototype never asked what happens when it crashes, hangs, or returns
//! garbage. This module answers: the application keeps running.
//!
//! - Every stream operation carries the configured I/O timeout, so a
//!   wedged server costs bounded latency, never liveness.
//! - A failed connection is retried with exponential backoff plus
//!   deterministic jitter (seeded xorshift), and a successful reconnect
//!   re-REGISTERs before the next poll.
//! - While the server is unreachable the pool runs in **degraded mode**:
//!   the target falls back to the paper's *uncontrolled* behavior — all
//!   `nworkers` runnable, floor of one preserved — and snaps back to the
//!   fair-partition target on the first healthy poll.
//! - An `ERR unregistered` reply (lease expiry, or a restarted server
//!   reached through a still-open proxy connection) is healed in place by
//!   re-registering on the same connection. Any other `ERR` — the server
//!   refusing a frame — is a fault like a garbled reply: counted in
//!   `poll_errors`, and the connection goes.
//! - A reconnect after a lost connection starts as an *observer* and
//!   classifies what it finds ([`RestartKind`]): a server that answers
//!   the probe poll with a fresh epoch **recovered this registration
//!   from its snapshot** (no re-REGISTER needed — the storm the
//!   snapshot exists to prevent), while an `ERR unregistered` answer
//!   means a cold restart, healed by registering again.
//!
//! - Once it holds a healthy target, the supervisor polls in the **wait
//!   form** (`crate::uds` module docs, "Parked polls"): the server sits
//!   on the request until the answer changes or a hold runs out, so a
//!   new target arrives when it is decided, not at the next poll. The
//!   hold stays below half the I/O timeout; a killed server ends the
//!   parked read with EOF at once, and a wedged one still costs at most
//!   the timeout.
//!
//! - [`SupervisedClient::spawn_poller`] runs the rounds on a thread of
//!   its own and publishes each target into a [`TargetSlot`]; its
//!   [`PollerGuard`] stops it, at once, with a BYE.
//!
//! Recovery behavior is observable: the supervisor records `reconnects`,
//! `degraded_enters`, `epoch_changes`, `poll_errors`, and
//! `events_shipped` counters, a `degraded` gauge, and a `degraded_ns`
//! histogram (time spent in each degraded episode) into the registry it
//! is given — typically the
//! [`crate::Pool`]'s own registry, so the fault counters travel through
//! the existing REPORT/STATS/Perfetto pipeline alongside the
//! work-stealing counters.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::control::DEFAULT_TRACE_MAX;
use crate::controller::{sleep_unless_stopped, TargetSlot};
use crate::stats::{Counter, Gauge, Hist, Registry};
use crate::trace::FlightRecorder;
use crate::uds::{EventsReply, PollReply, UdsClient, DEFAULT_IO_TIMEOUT};

/// The longest [`SupervisedClient::poll_target`] and
/// [`SupervisedClient::poll_target_cpus`] let the server park them: how
/// often an application whose target never changes still heartbeats. Cut
/// to half the I/O timeout where that is shorter, so a parked read never
/// looks like a wedged server.
const MAX_HOLD: Duration = Duration::from_secs(1);

/// Supervision tuning.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Socket path of the control server.
    pub path: PathBuf,
    /// Worker count to register (and the degraded-mode fallback target).
    pub nworkers: u32,
    /// Read/write timeout armed on every connection.
    pub io_timeout: Duration,
    /// First reconnect delay; doubles per consecutive failure.
    pub backoff_initial: Duration,
    /// Reconnect delay cap.
    pub backoff_max: Duration,
    /// Seed for the jitter RNG (deterministic for tests).
    pub seed: u64,
}

impl SupervisorConfig {
    /// Defaults: 2 s I/O timeout, 50 ms initial backoff doubling to a
    /// 2 s cap, fixed seed.
    pub fn new(path: impl Into<PathBuf>, nworkers: u32) -> Self {
        SupervisorConfig {
            path: path.into(),
            nworkers,
            io_timeout: DEFAULT_IO_TIMEOUT,
            backoff_initial: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            seed: 0x5EED_CAB1E,
        }
    }
}

/// How a server restart presented to the supervisor on reconnect —
/// surfaced as a typed event (and `restarts_recovered` /
/// `restarts_cold` counters) so operators can tell a snapshot-recovered
/// restart from a state-losing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartKind {
    /// The new server instance answered the probe poll with a live
    /// target under a fresh epoch: it restored this registration from
    /// its snapshot and no re-REGISTER was needed.
    Recovered,
    /// The new server instance had never heard of this pid (`ERR
    /// unregistered` under a fresh epoch): it cold-started and the
    /// supervisor re-registered from scratch.
    Cold,
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A [`UdsClient`] that survives server crashes, restarts, hangs, and
/// garbage replies. All methods are non-panicking and bounded in time.
pub struct SupervisedClient {
    cfg: SupervisorConfig,
    registry: Arc<Registry>,
    conn: Option<UdsClient>,
    last_epoch: Option<u64>,
    ever_connected: bool,
    /// The last healthy reply on this connection — what a wait-form poll
    /// tells the server it need not repeat. `None` after any
    /// (re)connect, re-register or error: the next poll is then a plain
    /// one, answered at once.
    heard: Option<Heard>,
    /// This connection's socket, for the poller guard (see
    /// [`ParkedStream`]).
    stream: ParkedStream,
    /// Raised by the poller guard's drop; never by anyone else. While it
    /// is up an I/O error is the guard cutting a parked read short, not
    /// a fault: nothing is counted and the connection is kept for the
    /// BYE.
    // sched-atomic(handoff): see PollerGuard::stop — the same flag.
    stop: Arc<AtomicBool>,
    /// Flight recorder whose rings [`SupervisedClient::ship_events`]
    /// drains to the server (none by default — see
    /// [`SupervisedClient::with_recorder`]).
    recorder: Option<Arc<FlightRecorder>>,
    backoff: Duration,
    next_attempt: Option<Instant>,
    rng: u64,
    degraded_since: Option<Instant>,
    /// How the most recent server *restart* presented on reconnect
    /// (`None` until a restart has been observed).
    last_restart: Option<RestartKind>,
    reconnects: Counter,
    degraded_enters: Counter,
    epoch_changes: Counter,
    poll_errors: Counter,
    events_shipped: Counter,
    restarts_recovered: Counter,
    restarts_cold: Counter,
    degraded_gauge: Gauge,
    degraded_ns: Hist,
}

impl SupervisedClient {
    /// Creates the supervisor and eagerly attempts a first connection
    /// (failure is not an error — the client starts degraded and keeps
    /// retrying). Fault counters are registered into `registry`.
    pub fn new(cfg: SupervisorConfig, registry: Arc<Registry>) -> Self {
        let mut s = SupervisedClient {
            rng: cfg.seed,
            backoff: cfg.backoff_initial,
            reconnects: registry.counter("reconnects"),
            degraded_enters: registry.counter("degraded_enters"),
            epoch_changes: registry.counter("epoch_changes"),
            poll_errors: registry.counter("poll_errors"),
            events_shipped: registry.counter("events_shipped"),
            restarts_recovered: registry.counter("restarts_recovered"),
            restarts_cold: registry.counter("restarts_cold"),
            degraded_gauge: registry.gauge("degraded"),
            degraded_ns: registry.histogram("degraded_ns"),
            registry,
            cfg,
            conn: None,
            last_epoch: None,
            ever_connected: false,
            heard: None,
            stream: ParkedStream::default(),
            stop: Arc::new(AtomicBool::new(false)),
            recorder: None,
            next_attempt: None,
            degraded_since: None,
            last_restart: None,
        };
        s.ensure_connected();
        s
    }

    /// Attaches a flight recorder whose rings the supervisor drains to
    /// the server — [`SupervisedClient::ship_events`] directly, or once
    /// per healthy round from [`SupervisedClient::spawn_poller`]. Pass
    /// [`crate::Pool::recorder`] to stream a pool's scheduling events
    /// into the server's journal.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Whether a connection is currently established.
    pub fn connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The epoch of the last server this client registered with, if any.
    pub fn epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// The degraded-mode fallback target: the paper's uncontrolled
    /// behavior, all workers runnable with a floor of one.
    pub fn fallback_target(&self) -> u32 {
        self.cfg.nworkers.max(1)
    }

    /// Clears the backoff gate so the next [`SupervisedClient::poll_target`]
    /// attempts a reconnect immediately. Useful when the caller has
    /// out-of-band knowledge that the server is back (or in tests that
    /// should not wait out the jittered backoff).
    pub fn retry_now(&mut self) {
        self.next_attempt = None;
    }

    fn note_epoch(&mut self, epoch: u64) {
        if self.last_epoch.is_some_and(|prev| prev != epoch) {
            self.epoch_changes.incr();
        }
        self.last_epoch = Some(epoch);
    }

    fn schedule_retry(&mut self) {
        // Full backoff scaled by a jitter factor in [0.5, 1.0): staggered
        // reconnect storms, still bounded by backoff_max.
        let jitter = 0.5 + 0.5 * (xorshift(&mut self.rng) >> 11) as f64 / (1u64 << 53) as f64;
        self.next_attempt = Some(Instant::now() + self.backoff.mul_f64(jitter));
        self.backoff = (self.backoff * 2).min(self.cfg.backoff_max);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn disconnect(&mut self) {
        if self.stopping() {
            return;
        }
        self.conn = None;
        self.heard = None;
        *self.stream.lock() = None;
        self.schedule_retry();
    }

    /// An I/O error, a garbled reply or a refused request: counted, and
    /// the connection goes.
    fn lost(&mut self) {
        if self.stopping() {
            return;
        }
        self.poll_errors.incr();
        self.disconnect();
    }

    fn note_restart(&mut self, kind: RestartKind) {
        self.last_restart = Some(kind);
        match kind {
            RestartKind::Recovered => self.restarts_recovered.incr(),
            RestartKind::Cold => self.restarts_cold.incr(),
        }
    }

    /// How the most recent observed server restart presented: recovered
    /// from snapshot, or cold. `None` until a restart has been seen.
    pub fn last_restart(&self) -> Option<RestartKind> {
        self.last_restart
    }

    /// The reconnect path: come back as an *observer* (a bare connect
    /// sends no REGISTER) and probe with one poll. A live target means
    /// the restarted server recovered this registration from its
    /// snapshot — adopt the new epoch, send nothing. `ERR unregistered`
    /// means a cold restart — register from scratch. Either way an
    /// epoch change is classified and counted; an unchanged epoch is a
    /// plain transport hiccup, not a restart.
    fn reconnect_classified(&mut self) -> std::io::Result<UdsClient> {
        let mut c = UdsClient::connect(&self.cfg.path, self.cfg.io_timeout)?;
        c.set_nworkers(self.cfg.nworkers);
        match c.poll_reply()? {
            PollReply::Target { epoch, .. } => {
                c.adopt_epoch(epoch);
                if self.last_epoch.is_some_and(|prev| prev != epoch) {
                    self.note_restart(RestartKind::Recovered);
                }
            }
            PollReply::Unregistered => {
                let epoch = c.re_register()?;
                if self.last_epoch.is_some_and(|prev| prev != epoch) {
                    self.note_restart(RestartKind::Cold);
                }
            }
        }
        Ok(c)
    }

    fn ensure_connected(&mut self) -> bool {
        if self.conn.is_some() {
            return true;
        }
        if let Some(at) = self.next_attempt {
            if Instant::now() < at {
                return false;
            }
        }
        let attempt = if self.ever_connected {
            self.reconnect_classified()
        } else {
            UdsClient::register_with_timeout(&self.cfg.path, self.cfg.nworkers, self.cfg.io_timeout)
        };
        match attempt {
            Ok(c) => {
                if self.ever_connected {
                    self.reconnects.incr();
                }
                self.ever_connected = true;
                self.note_epoch(c.epoch());
                *self.stream.lock() = c.try_clone_stream().ok();
                self.conn = Some(c);
                self.backoff = self.cfg.backoff_initial;
                self.next_attempt = None;
                true
            }
            Err(_) => {
                self.schedule_retry();
                false
            }
        }
    }

    fn enter_degraded(&mut self) {
        if self.degraded_since.is_none() {
            self.degraded_enters.incr();
            self.degraded_gauge.set(1);
            self.degraded_since = Some(Instant::now());
        }
    }

    fn leave_degraded(&mut self) {
        if let Some(at) = self.degraded_since.take() {
            self.degraded_ns.record(at.elapsed().as_nanos() as u64);
            self.degraded_gauge.set(0);
        }
    }

    /// Polls for the current target. `None` means the server is
    /// unreachable (or answered garbage) and the caller should apply
    /// [`SupervisedClient::fallback_target`] — degraded-mode accounting
    /// has already been updated either way.
    ///
    /// The first poll on a connection returns at once. Later ones are
    /// parked in the server: they return when the target changes, or
    /// after a hold of one second (half the I/O timeout, if shorter)
    /// with the target unchanged.
    pub fn poll_target(&mut self) -> Option<u32> {
        self.poll(false, MAX_HOLD).map(|(target, _)| target)
    }

    /// Polls with the CPU-set extension. `Some((target, cpus))` is a
    /// healthy reply, with the set the server assigned. `None` means
    /// degraded — apply [`SupervisedClient::fallback_target`] and drop
    /// any CPU pinning, since nobody owns the partition anymore. Parks
    /// like [`SupervisedClient::poll_target`].
    pub fn poll_target_cpus(&mut self) -> Option<(u32, Option<Vec<u32>>)> {
        self.poll(true, MAX_HOLD)
    }

    /// The reply a poll in the `want_cpus` form can wait on: the held
    /// one, if it has a CPU set when the form needs one.
    fn held(heard: &Option<Heard>, want_cpus: bool) -> Option<&Heard> {
        heard.as_ref().filter(|h| !want_cpus || h.cpus.is_some())
    }

    /// One poll round: the wait form (for up to `hold`) once a reply is
    /// held, else the `cpus` form if `want_cpus`, else the plain one.
    /// `ERR unregistered` is healed in place by re-registering, once per
    /// round; any other failure is [`SupervisedClient::lost`].
    fn poll(&mut self, want_cpus: bool, hold: Duration) -> Option<(u32, Option<Vec<u32>>)> {
        let hold = hold.min(self.cfg.io_timeout / 2);
        let mut re_registered = false;
        while self.ensure_connected() {
            let conn = self.conn.as_mut().expect("just connected");
            let reply = match Self::held(&self.heard, want_cpus) {
                Some(h) => {
                    let cpus = h.cpus.as_deref().filter(|_| want_cpus);
                    conn.poll_wait_reply(h.target, h.epoch, cpus, hold)
                }
                None if want_cpus => conn.poll_cpus_reply(),
                None => conn.poll_reply(),
            };
            match reply {
                Ok(PollReply::Target {
                    target,
                    epoch,
                    cpus,
                }) => {
                    self.note_epoch(epoch);
                    self.leave_degraded();
                    self.heard = Some(Heard {
                        target,
                        epoch,
                        cpus: cpus.clone(),
                    });
                    return Some((target, cpus));
                }
                Ok(PollReply::Unregistered) => {
                    // Lease lapsed or the server restarted behind a
                    // still-open connection: re-register in place, then
                    // retry the poll once.
                    self.heard = None;
                    match conn.re_register() {
                        Ok(epoch) => {
                            if self.last_epoch.is_some_and(|prev| prev != epoch) {
                                // A restarted server reached through a
                                // still-open proxy connection that lost
                                // this pid: a cold restart, healed by the
                                // re-register above.
                                self.note_restart(RestartKind::Cold);
                            }
                            self.note_epoch(epoch);
                            if !re_registered {
                                re_registered = true;
                                continue;
                            }
                        }
                        Err(_) => self.lost(),
                    }
                }
                Err(_) => self.lost(),
            }
            break;
        }
        if !self.stopping() {
            self.enter_degraded();
        }
        None
    }

    /// Drains one batch (up to [`DEFAULT_TRACE_MAX`] events) from the
    /// attached flight recorder and pushes it to the server's journal,
    /// best effort: with no recorder or no connection this is a no-op,
    /// and a batch the server never acknowledged is dropped rather than
    /// retried — observability must not buffer unboundedly against a
    /// dead server.
    pub fn ship_events(&mut self) {
        let (Some(conn), Some(recorder)) = (self.conn.as_mut(), &self.recorder) else {
            return;
        };
        let events = recorder.drain(DEFAULT_TRACE_MAX);
        if events.is_empty() {
            return;
        }
        match conn.push_events(&events) {
            Ok(EventsReply::Accepted { epoch }) => {
                self.note_epoch(epoch);
                self.events_shipped.add(events.len() as u64);
            }
            // The next poll re-registers; this batch is gone.
            Ok(EventsReply::Unregistered) => {}
            Err(_) => self.lost(),
        }
    }

    /// Pushes a statistics line to the server, best effort: a failure
    /// tears down the connection (the next poll reconnects) but is not
    /// fatal.
    pub fn report(&mut self, line: &str) {
        if let Some(conn) = self.conn.as_mut() {
            if conn.report(line).is_err() {
                self.disconnect();
            }
        }
    }

    /// Courtesy goodbye, best effort.
    pub fn bye(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            let _ = conn.bye();
        }
        *self.stream.lock() = None;
    }

    /// Spawns a background thread that polls once per `interval`, storing
    /// the (healthy or fallback) target and the assigned CPU set into
    /// `slot`, and — when `report` is true — REPORTing a snapshot of the
    /// supervisor's registry (and everything else in it, e.g. a pool's
    /// counters) to the server every round. With a recorder attached
    /// ([`SupervisedClient::with_recorder`]), each round also ships one
    /// batch of flight-recorder events into the server's journal. The
    /// thread exits, with a BYE, as soon as the guard drops.
    /// Entering degraded mode clears the slot's CPU set (workers unpin
    /// back to the whole machine); recovery re-publishes it.
    ///
    /// A round spends its interval parked in the server, so a target
    /// that changes mid-round lands in the slot when it is decided. The
    /// first round after a (re)connect holds no reply to wait on: its
    /// poll is answered at once, and it parks for the rest of the round
    /// with a second, wait-form poll. Whatever part of the interval the
    /// server did not hold — all of it when degraded, the rest of it
    /// after a change cut the hold short — is slept out here, so rounds
    /// never come faster than `interval`. A killed or restarted server
    /// drives the slot to the degraded target (all workers runnable)
    /// within one poll interval, and the slot snaps back once the server
    /// answers again.
    pub fn spawn_poller(
        mut self,
        slot: Arc<TargetSlot>,
        interval: Duration,
        report: bool,
    ) -> PollerGuard {
        let stop = Arc::clone(&self.stop);
        let stream = Arc::clone(&self.stream);
        let publish = move |polled: Option<(u32, Option<Vec<u32>>)>| match polled {
            Some((t, cpus)) => {
                slot.target
                    .store((t as usize).clamp(1, slot.nworkers), Ordering::Release);
                slot.set_cpus(cpus);
            }
            // Degraded: uncontrolled behavior — every worker runnable
            // (floor of one preserved by max(1)), and no CPU set: nobody
            // owns the partition, so workers widen their affinity back out.
            None => {
                slot.target.store(slot.nworkers.max(1), Ordering::Release);
                slot.set_cpus(None);
            }
        };
        let handle = std::thread::Builder::new()
            .name("procctl-supervised-poller".into())
            .spawn(move || {
                'rounds: while !self.stopping() {
                    let round = Instant::now();
                    loop {
                        let waits = Self::held(&self.heard, true).is_some();
                        let polled = self.poll(true, interval.saturating_sub(round.elapsed()));
                        if self.stopping() {
                            break 'rounds; // `polled` may be the guard's doing
                        }
                        let healthy = polled.is_some();
                        publish(polled);
                        if waits || !healthy || round.elapsed() >= interval {
                            break;
                        }
                    }
                    if report {
                        let line = self.registry.snapshot().render_line();
                        self.report(&line);
                    }
                    self.ship_events();
                    sleep_unless_stopped(&self.stop, interval.saturating_sub(round.elapsed()));
                }
                self.bye();
            })
            .expect("spawn supervised poller");
        PollerGuard {
            stop,
            handle: Some(handle),
            stream,
        }
    }
}

/// The reply a supervisor still holds (see [`SupervisedClient::poll`]).
struct Heard {
    target: u32,
    epoch: u64,
    cpus: Option<Vec<u32>>,
}

/// The socket of a poller's current connection (none while it has none),
/// shared with its [`PollerGuard`]: a poll parked in the server sits in
/// a read that only the socket can end early.
type ParkedStream = Arc<Mutex<Option<UnixStream>>>;

/// Stops the background poller (and sends BYE) when dropped — at once,
/// whether the poller is asleep between rounds or parked in the server.
pub struct PollerGuard {
    // sched-atomic(handoff): Release store in drop publishes the stop to
    // the poller, which loads it with Acquire between and after reads.
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    stream: ParkedStream,
}

impl Drop for PollerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Ends a read the poller may be parked in (it sees EOF, then the
        // raised flag) and leaves the write half open for its BYE.
        let parked_on = self.stream.lock().take();
        if let Some(stream) = parked_on {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        if let Some(h) = self.handle.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::uds::UdsServer;
    use crate::UdsServerConfig;
    use std::path::PathBuf;

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("procctl-sup-{}-{tag}.sock", std::process::id()))
    }

    fn fast_cfg(path: &std::path::Path, nworkers: u32) -> SupervisorConfig {
        let mut cfg = SupervisorConfig::new(path, nworkers);
        cfg.io_timeout = Duration::from_millis(200);
        cfg.backoff_initial = Duration::from_millis(10);
        cfg.backoff_max = Duration::from_millis(100);
        cfg
    }

    #[test]
    fn starts_degraded_without_a_server_then_recovers() {
        let path = sock_path("late-server");
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 8), Arc::clone(&registry));
        assert!(!sup.connected());
        assert_eq!(sup.poll_target(), None);
        assert_eq!(sup.fallback_target(), 8);
        // Now the server comes up; the supervisor finds it after backoff.
        let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if sup.poll_target() == Some(4) {
                break;
            }
            assert!(Instant::now() < deadline, "never recovered");
            std::thread::sleep(Duration::from_millis(20));
        }
        let snap = registry.snapshot();
        assert!(snap.counters["degraded_enters"] >= 1);
        assert_eq!(snap.gauges["degraded"], 0);
        assert!(snap.histograms["degraded_ns"].count >= 1);
    }

    #[test]
    fn lease_expiry_healed_in_place_by_re_register() {
        let path = sock_path("lease-heal");
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.lease_ttl = Duration::from_millis(60);
        cfg.prune_dead = false;
        let _server = UdsServer::start(cfg).expect("server");
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 8), Arc::clone(&registry));
        assert_eq!(sup.poll_target(), Some(8));
        // Let our own lease lapse, then poll: the supervisor must
        // re-register on the same connection and still produce a target.
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(sup.poll_target(), Some(8));
    }

    #[test]
    fn snapshot_restart_is_classified_recovered_with_no_re_register() {
        let path = sock_path("restart-recovered");
        let snap = std::env::temp_dir().join(format!(
            "procctl-sup-{}-restart-recovered.snap",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&snap);
        let mut scfg = UdsServerConfig::new(&path, 4);
        scfg.snapshot_path = Some(snap.clone());
        let server = UdsServer::start(scfg.clone()).expect("server");
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 8), Arc::clone(&registry));
        assert_eq!(sup.poll_target(), Some(4));
        let epoch1 = sup.epoch().expect("epoch after first poll");
        // Graceful stop writes the final snapshot; the next instance
        // restores our registration from it before accepting traffic.
        drop(server);
        while sup.poll_target().is_some() {
            // drain until the supervisor notices the dead connection
        }
        let server2 = UdsServer::start(scfg).expect("server2");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            sup.retry_now();
            if sup.poll_target() == Some(4) {
                break;
            }
            assert!(Instant::now() < deadline, "never reconnected");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(sup.last_restart(), Some(RestartKind::Recovered));
        let counters = registry.snapshot().counters;
        assert_eq!(counters["restarts_recovered"], 1);
        assert_eq!(counters["restarts_cold"], 0);
        assert!(
            sup.epoch().expect("epoch after reconnect") > epoch1,
            "boot epochs must be monotone across a recovered restart"
        );
        // The whole point of the snapshot: the recovered server never
        // saw a REGISTER from this client.
        assert_eq!(
            server2.stats().counters["registers"],
            0,
            "recovered restart must not trigger a re-registration storm"
        );
        drop(server2);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn snapshotless_restart_is_classified_cold_and_re_registers() {
        let path = sock_path("restart-cold");
        let server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 8), Arc::clone(&registry));
        assert_eq!(sup.poll_target(), Some(4));
        drop(server);
        while sup.poll_target().is_some() {
            // drain until the supervisor notices the dead connection
        }
        let server2 = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server2");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            sup.retry_now();
            if sup.poll_target() == Some(4) {
                break;
            }
            assert!(Instant::now() < deadline, "never reconnected");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(sup.last_restart(), Some(RestartKind::Cold));
        let counters = registry.snapshot().counters;
        assert_eq!(counters["restarts_cold"], 1);
        assert_eq!(counters["restarts_recovered"], 0);
        // Cold start lost the registration, so exactly one REGISTER
        // heals it.
        assert_eq!(server2.stats().counters["registers"], 1);
    }

    #[test]
    fn poll_target_cpus_returns_the_assigned_set() {
        let path = sock_path("cpus-healthy");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 8), registry);
        let (target, cpus) = sup.poll_target_cpus().expect("healthy poll");
        assert_eq!(target, 4);
        assert_eq!(cpus.expect("cpu set"), vec![0, 1, 2, 3]);
    }

    /// A server on 8 processors whose fake pids survive.
    fn server(tag: &str) -> (PathBuf, UdsServer) {
        let path = sock_path(tag);
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.prune_dead = false;
        let server = UdsServer::start(cfg).expect("server");
        (path, server)
    }

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends one frame on a connection of its own and reads the reply.
    fn say(path: &std::path::Path, frame: &str) -> String {
        use std::io::{BufRead, BufReader, Write};
        let mut s = std::os::unix::net::UnixStream::connect(path).expect("connect");
        s.write_all(frame.as_bytes()).expect("send");
        let mut line = String::new();
        BufReader::new(s).read_line(&mut line).expect("reply");
        line
    }

    #[test]
    fn second_poll_parks_and_returns_when_the_target_changes() {
        let (path, server) = server("parks");
        let mut cfg = fast_cfg(&path, 8);
        cfg.io_timeout = Duration::from_secs(4); // a one-second hold
        let mut sup = SupervisedClient::new(cfg, Arc::new(Registry::new()));
        assert_eq!(sup.poll_target(), Some(8));
        let toggler = {
            let path = path.clone();
            std::thread::spawn(move || {
                // `server` stays with the test; the gauge is read over the wire.
                wait_until("the poll to park", || {
                    say(&path, "STATS\n").contains(" parked=1")
                });
                assert!(say(&path, "REGISTER 910010 8\n").starts_with("OK "));
                Instant::now()
            })
        };
        assert_eq!(sup.poll_target(), Some(4));
        let heard = Instant::now();
        let toggled = toggler.join().expect("toggler");
        assert!(
            heard.saturating_duration_since(toggled) < Duration::from_millis(100),
            "the parked poll sat out its hold"
        );
        // The cpus form parks and is released the same way.
        assert_eq!(sup.poll_target_cpus(), Some((4, Some(vec![0, 1, 2, 3]))));
        let toggler = {
            let path = path.clone();
            std::thread::spawn(move || {
                wait_until("the poll to park", || {
                    say(&path, "STATS\n").contains(" parked=1")
                });
                assert!(say(&path, "BYE 910010\n").starts_with("OK "));
            })
        };
        assert_eq!(sup.poll_target_cpus(), Some((8, Some((0..8).collect()))));
        toggler.join().expect("toggler");
        let stats = server.stats();
        assert_eq!(stats.counters["polls"], 4, "one frame per poll");
        assert_eq!(stats.counters["polls_parked"], 2);
        assert_eq!(stats.counters["park_released_changed"], 2);
    }

    #[test]
    fn poller_delivers_a_change_mid_interval_and_its_guard_drops_at_once() {
        let (path, server) = server("poller");
        // Pollers with a one-second interval, dropped in each state
        // one can be in; the bound on the drop is on the fastest of
        // each three: the suite's other tests share the CPUs.
        let mut fastest = [Duration::MAX; 2];
        let mut byes = 0;
        for round in 0..6 {
            let registry = Arc::new(Registry::new());
            let mut sup = SupervisedClient::new(SupervisorConfig::new(&path, 8), registry.clone());
            // With a reply already in hand the poller's first poll parks.
            assert_eq!(sup.poll_target_cpus(), Some((8, Some((0..8).collect()))));
            let slot = Arc::new(TargetSlot::new(8));
            let guard = sup.spawn_poller(Arc::clone(&slot), Duration::from_secs(1), false);
            wait_until("the poll to park", || server.stats().gauges["parked"] == 1);
            let asleep = round % 2 == 1;
            if asleep {
                // Where a change reaches the slot now, not at the
                // end of the second. The rest of it is slept out in
                // the poller.
                assert!(say(&path, "REGISTER 910020 8\n").starts_with("OK "));
                let toggled = Instant::now();
                wait_until("the halved target", || {
                    slot.target.load(Ordering::Acquire) == 4
                });
                assert!(toggled.elapsed() < Duration::from_millis(200));
                assert!(say(&path, "BYE 910020\n").starts_with("OK "));
                byes += 1;
            }
            let start = Instant::now();
            drop(guard);
            let state = usize::from(asleep);
            fastest[state] = fastest[state].min(start.elapsed());
            byes += 1;
            // (Parked, the BYE went out on a half-closed socket,
            // unacknowledged: give the server a moment.)
            wait_until("the BYE", || server.stats().counters["byes"] == byes);
            let stats = server.stats();
            assert_eq!(stats.gauges["apps"], 0);
            assert_eq!(stats.gauges["parked"], 0);
            let snap = registry.snapshot();
            assert_eq!(snap.counters["degraded_enters"], 0);
            assert_eq!(snap.counters["poll_errors"], 0);
        }
        for took in fastest {
            assert!(took < Duration::from_millis(10), "drop took {took:?}");
        }
        // Exactly one BYE per poller, late ones included.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(server.stats().counters["byes"], byes);
    }

    #[test]
    fn a_fresh_pollers_first_round_parks_instead_of_sleeping() {
        let (path, server) = server("first-round");
        // The first round's poll holds nothing to wait on and is answered
        // at once; the rest of the round must still hear a change. The
        // bound is on the fastest of three pollers: the suite's other
        // tests share the CPUs.
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let registry = Arc::new(Registry::new());
            let sup = SupervisedClient::new(SupervisorConfig::new(&path, 8), registry);
            let slot = Arc::new(TargetSlot::new(8));
            let guard = sup.spawn_poller(Arc::clone(&slot), Duration::from_secs(1), false);
            wait_until("the first target", || slot.cpus().is_some());
            assert!(say(&path, "REGISTER 910030 8\n").starts_with("OK "));
            let toggled = Instant::now();
            wait_until("the halved target", || {
                slot.target.load(Ordering::Acquire) == 4
            });
            fastest = fastest.min(toggled.elapsed());
            assert!(say(&path, "BYE 910030\n").starts_with("OK "));
            drop(guard);
        }
        assert!(
            fastest < Duration::from_millis(200),
            "the first round slept {fastest:?} beside the server"
        );
        wait_until("every BYE", || server.stats().gauges["apps"] == 0);
    }

    #[test]
    fn a_refused_poll_is_a_fault_and_drops_the_connection() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixListener;
        // A server that registers and then refuses every frame: the
        // refusal is counted like a garbled reply, and the round is
        // degraded instead of retried in another form.
        let path = sock_path("refused");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { return };
                let reply = if line.starts_with("REGISTER") {
                    "OK 1\n"
                } else {
                    "ERR malformed\n"
                };
                writer.write_all(reply.as_bytes()).expect("write");
            }
        });
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 8), Arc::clone(&registry));
        assert!(sup.connected());
        assert_eq!(sup.poll_target_cpus(), None);
        assert!(!sup.connected(), "the refusing connection must go");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["poll_errors"], 1);
        assert_eq!(snap.counters["degraded_enters"], 1);
        drop(sup);
        handle.join().expect("refusing server thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ship_events_drains_recorder_into_server_journal() {
        use crate::trace::{EventKind, FlightRecorder};
        use crate::uds::UdsClient;

        let path = sock_path("ship-events");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(2, 16, &registry));
        recorder.record(0, EventKind::JobStart, 1);
        recorder.record(1, EventKind::Steal, 2);
        let mut sup = SupervisedClient::new(fast_cfg(&path, 4), Arc::clone(&registry))
            .with_recorder(Arc::clone(&recorder));
        assert_eq!(sup.poll_target(), Some(4));
        sup.ship_events();
        assert_eq!(registry.snapshot().counters["events_shipped"], 2);
        assert_eq!(recorder.resident(), 0, "rings drained");
        // A reader sees the shipped events (after the poll's decision
        // instant) in the server journal.
        let mut reader = UdsClient::register(&path, 1).expect("reader");
        let (_, events) = reader.trace(std::process::id(), None).expect("trace");
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::JobStart), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Steal), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Decision), "{kinds:?}");
        // Nothing resident → shipping again is a no-op.
        sup.ship_events();
        assert_eq!(registry.snapshot().counters["events_shipped"], 2);
    }

    #[test]
    fn backoff_grows_and_is_jittered() {
        let path = sock_path("nobody-home");
        let registry = Arc::new(Registry::new());
        let mut sup = SupervisedClient::new(fast_cfg(&path, 4), registry);
        // Consecutive failures double the backoff up to the cap.
        let b0 = sup.backoff;
        sup.poll_target();
        let b1 = sup.backoff;
        assert!(b1 >= b0, "backoff shrank: {b0:?} -> {b1:?}");
        for _ in 0..20 {
            sup.retry_now(); // force an attempt despite backoff
            sup.poll_target();
        }
        assert_eq!(sup.backoff, sup.cfg.backoff_max);
        // The scheduled delay is jittered below the full backoff.
        let at = sup.next_attempt.expect("retry scheduled");
        assert!(at <= Instant::now() + sup.cfg.backoff_max);
    }
}
