//! The one client applications use: a supervised, fault-tolerant client
//! of the control server, and its background poller.
//!
//! The paper's control plane is a single centralized server; the 1989
//! prototype never asked what happens when it crashes, hangs, or returns
//! garbage. This module answers: the application keeps running.
//!
//! The client has the server's shape. `ClientCore` makes every decision
//! from `(now, event)` and returns the actions that carry it out — it
//! owns no socket and reads no clock, like the server's `ControlCore`.
//! [`SupervisedClient`] is its socket shell: it owns the stream and its
//! I/O timeout, performs the actions, feeds back what happened, and runs
//! the poller thread. What the core decides:
//!
//! - **Connect or not.** A failed connection is retried with exponential
//!   backoff plus deterministic jitter (seeded xorshift); until the
//!   backoff runs out a poll does not dial at all.
//! - **Register or probe.** The first connection REGISTERs. A reconnect
//!   comes back as an *observer*: its first poll is the probe, and it
//!   classifies what it finds ([`RestartKind`]). A server that answers
//!   with a live target under a fresh epoch **recovered this
//!   registration from its snapshot** — no REGISTER is sent, which is
//!   the storm the snapshot exists to prevent — while `ERR unregistered`
//!   means a cold restart, healed by registering again.
//! - **Heal in place.** An `ERR unregistered` on a live connection (a
//!   lapsed lease) is healed by re-registering on that connection and
//!   polling once more.
//! - **Park.** Once it holds a healthy target the core polls in the
//!   **wait form** (`crate::uds` module docs, "Parked polls"): the
//!   server sits on the request until the answer changes or a hold runs
//!   out, so a new target arrives when it is decided. The shell keeps the
//!   hold below half the I/O timeout; a killed server ends the parked
//!   read with EOF at once, and a wedged one costs at most the timeout.
//! - **Fault.** An I/O error, a timeout, a torn or garbled reply, or any
//!   `ERR` the server refuses a frame with is one fault, whatever the
//!   frame was (a poll, a REPORT, an EVENTS batch): counted in
//!   `poll_errors`, and the connection goes.
//! - **Degrade.** A poll round that ends without a target enters
//!   **degraded mode**: the target falls back to the paper's
//!   *uncontrolled* behavior — all `nworkers` runnable, floor of one
//!   preserved — and snaps back on the first healthy poll.
//!
//! [`SupervisedClient::spawn_poller`] runs the rounds on a thread of its
//! own and publishes each target into a [`TargetSlot`]; its
//! [`PollerGuard`] stops it, at once, with a BYE.
//!
//! Recovery behavior is observable: the supervisor records `reconnects`,
//! `degraded_enters`, `epoch_changes`, `poll_errors`, and
//! `events_shipped` counters, a `degraded` gauge, and a `degraded_ns`
//! histogram (time spent in each degraded episode) into the registry it
//! is given — typically the
//! [`crate::Pool`]'s own registry, so the fault counters travel through
//! the existing REPORT/STATS/Perfetto pipeline alongside the
//! work-stealing counters.

use std::collections::VecDeque;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::control::DEFAULT_TRACE_MAX;
use crate::controller::{sleep_unless_stopped, TargetSlot};
use crate::stats::{Counter, Gauge, Hist, Registry};
use crate::sync::{AtomicBool, Mutex, Ordering};
use crate::trace::{self, FlightRecorder, TraceEvent};
use crate::uds::DEFAULT_IO_TIMEOUT;
use crate::uds::{read_events, read_ok, read_poll, EventsReply, PollReply, UdsClient};

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

/// A healthy poll's answer: the target, and the CPU set of the `cpus`
/// form.
pub(crate) type Target = (u32, Option<Vec<u32>>);

/// What the core's shell saw, or what its application asked for.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event<'a> {
    /// Connect — and register, the first time — if the backoff allows.
    Open,
    /// One poll round, in the `cpus` form if `cpus`; a wait-form poll
    /// lets the server hold it for up to `hold`.
    Poll { cpus: bool, hold: Duration },
    /// Push a statistics line, best effort.
    Report(&'a str),
    /// Push a batch of flight-recorder events, best effort.
    Ship(&'a [TraceEvent]),
    /// Say goodbye and close.
    Bye,
    /// The connection [`Action::Connect`] asked for is up.
    Connected,
    /// It could not be made.
    ConnectFailed,
    /// The reply line to the last [`Action::Send`], without its newline.
    Reply(&'a str),
    /// The connection ended before a whole reply line came back.
    Eof,
    /// No reply within the I/O timeout.
    Timeout,
    /// The application is shutting the client down, which cut the last
    /// read short: nothing is counted, and the connection stays for the
    /// BYE.
    Stop,
}

/// What the core asks its shell to do, in order.
#[derive(Debug)]
pub(crate) enum Action {
    /// Open a connection; answer [`Event::Connected`] or
    /// [`Event::ConnectFailed`].
    Connect,
    /// Write this frame (newline included) and answer with the reply
    /// line, or with the way the connection failed.
    Send(String),
    /// Drop the connection.
    Close,
    /// No connection will be tried before this instant.
    WaitUntil(Instant),
    /// The round's outcome: the target heard, or `None` — apply the
    /// fallback.
    Publish(Option<Target>),
}

/// One poll round in progress.
#[derive(Clone, Copy, Debug)]
struct Round {
    cpus: bool,
    hold: Duration,
    /// This round already re-registered once; a second `ERR
    /// unregistered` ends it.
    re_registered: bool,
}

/// The reply a [`Action::Send`] is waiting on, and what it was for.
#[derive(Debug)]
enum Pending {
    None,
    /// The connection, for an [`Event::Open`] (`None`) or a round.
    Connect(Option<Round>),
    /// `OK <epoch>` to a REGISTER.
    Register(Option<Round>),
    Poll(Round),
    Report,
    /// `OK` to an EVENTS batch of this many events.
    Ship(u64),
    Bye,
}

impl Pending {
    fn round(&self) -> Option<Round> {
        match *self {
            Pending::Connect(r) | Pending::Register(r) => r,
            Pending::Poll(r) => Some(r),
            _ => None,
        }
    }
}

/// The reply a client still holds: what a wait-form poll tells the
/// server it need not repeat. `None` after any (re)connect, re-register
/// or error: the next poll is then a plain one, answered at once.
#[derive(Debug)]
struct Heard {
    target: u32,
    epoch: u64,
    cpus: Option<Vec<u32>>,
}

/// The client's decisions with no socket and no clock: events in,
/// actions out (see the module docs).
pub(crate) struct ClientCore {
    pid: u32,
    nworkers: u32,
    backoff_initial: Duration,
    backoff_max: Duration,
    rng: u64,
    backoff: Duration,
    next_attempt: Option<Instant>,
    connected: bool,
    /// The epoch of the server last heard; `None` until the first
    /// REGISTER is acknowledged, so a connection before that registers
    /// and every later one probes.
    epoch: Option<u64>,
    heard: Option<Heard>,
    pending: Pending,
    degraded_since: Option<Instant>,
    last_restart: Option<RestartKind>,
    actions: VecDeque<Action>,
    reconnects: Counter,
    degraded_enters: Counter,
    epoch_changes: Counter,
    poll_errors: Counter,
    events_shipped: Counter,
    restarts_recovered: Counter,
    restarts_cold: Counter,
    degraded: Gauge,
    degraded_ns: Hist,
}

impl ClientCore {
    /// A core for process `pid`, not connected, with its counters in
    /// `registry`.
    pub(crate) fn new(pid: u32, cfg: &SupervisorConfig, registry: &Registry) -> ClientCore {
        ClientCore {
            pid,
            nworkers: cfg.nworkers,
            backoff_initial: cfg.backoff_initial,
            backoff_max: cfg.backoff_max,
            rng: cfg.seed,
            backoff: cfg.backoff_initial,
            next_attempt: None,
            connected: false,
            epoch: None,
            heard: None,
            pending: Pending::None,
            degraded_since: None,
            last_restart: None,
            actions: VecDeque::new(),
            reconnects: registry.counter("reconnects"),
            degraded_enters: registry.counter("degraded_enters"),
            epoch_changes: registry.counter("epoch_changes"),
            poll_errors: registry.counter("poll_errors"),
            events_shipped: registry.counter("events_shipped"),
            restarts_recovered: registry.counter("restarts_recovered"),
            restarts_cold: registry.counter("restarts_cold"),
            degraded: registry.gauge("degraded"),
            degraded_ns: registry.histogram("degraded_ns"),
        }
    }

    /// The next action to carry out, in order. An [`Action::Connect`] or
    /// [`Action::Send`] is owed an event before the next request.
    pub(crate) fn next_action(&mut self) -> Option<Action> {
        self.actions.pop_front()
    }

    /// Takes in one event at `now`.
    pub(crate) fn on(&mut self, now: Instant, event: Event<'_>) {
        match event {
            Event::Open if !self.connected => self.connect(now, None),
            Event::Poll { cpus, hold } => {
                let round = Round {
                    cpus,
                    hold,
                    re_registered: false,
                };
                match self.connected {
                    true => self.send_poll(round),
                    false => self.connect(now, Some(round)),
                }
            }
            Event::Report(line) if self.connected && !line.contains(['\n', '|']) => {
                let pid = self.pid;
                self.send(format!("REPORT {pid} {line}\n"), Pending::Report);
            }
            Event::Ship(events) if self.connected && !events.is_empty() => {
                let (pid, payload) = (self.pid, trace::render_events(events));
                self.send(
                    format!("EVENTS {pid} {payload}\n"),
                    Pending::Ship(events.len() as u64),
                );
            }
            Event::Bye if self.connected => {
                let pid = self.pid;
                self.send(format!("BYE {pid}\n"), Pending::Bye);
            }
            Event::Connected => self.connected(),
            Event::ConnectFailed => {
                let round = std::mem::replace(&mut self.pending, Pending::None).round();
                self.retry_later(now, round);
            }
            Event::Reply(line) => self.reply(now, line),
            Event::Eof | Event::Timeout => self.fault(now),
            Event::Stop => match std::mem::replace(&mut self.pending, Pending::None) {
                Pending::Bye => self.close(),
                pending => {
                    if pending.round().is_some() {
                        self.actions.push_back(Action::Publish(None));
                    }
                }
            },
            Event::Open | Event::Report(_) | Event::Ship(_) | Event::Bye => {}
        }
    }

    /// The epoch of the server last heard.
    pub(crate) fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// How the most recent observed server restart presented.
    pub(crate) fn last_restart(&self) -> Option<RestartKind> {
        self.last_restart
    }

    /// Whether a round in the `cpus` form would poll in the wait form.
    pub(crate) fn holds_reply(&self, cpus: bool) -> bool {
        self.held(cpus).is_some()
    }

    /// Lets the next round connect at once, backoff or not.
    pub(crate) fn retry_now(&mut self) {
        self.next_attempt = None;
    }

    /// The reply a round in the `cpus` form can wait on: the held one,
    /// if it has a CPU set when the form needs one.
    fn held(&self, cpus: bool) -> Option<&Heard> {
        self.heard.as_ref().filter(|h| !cpus || h.cpus.is_some())
    }

    fn send(&mut self, frame: String, pending: Pending) {
        self.actions.push_back(Action::Send(frame));
        self.pending = pending;
    }

    /// Dials for an open (`round: None`) or a round, unless the backoff
    /// has not run out.
    fn connect(&mut self, now: Instant, round: Option<Round>) {
        if self.next_attempt.is_some_and(|at| now < at) {
            if round.is_some() {
                self.degrade(now);
            }
            return;
        }
        self.actions.push_back(Action::Connect);
        self.pending = Pending::Connect(round);
    }

    /// A new connection: the first one registers; a reconnect is an
    /// observer whose round's own poll is the probe.
    fn connected(&mut self) {
        let Pending::Connect(round) = std::mem::replace(&mut self.pending, Pending::None) else {
            return;
        };
        self.connected = true;
        self.heard = None;
        if self.epoch.is_none() {
            return self.register(round);
        }
        self.reconnects.incr();
        if let Some(round) = round {
            self.send_poll(round);
        }
    }

    fn register(&mut self, round: Option<Round>) {
        let (pid, nworkers) = (self.pid, self.nworkers);
        self.send(
            format!("REGISTER {pid} {nworkers}\n"),
            Pending::Register(round),
        );
    }

    /// Sends `round`'s poll: the wait form once a reply is held, else the
    /// `cpus` form if asked, else the plain one.
    fn send_poll(&mut self, round: Round) {
        let (pid, hold_ms) = (self.pid, round.hold.as_millis());
        self.send(
            match self.held(round.cpus) {
                Some(Heard {
                    target,
                    epoch,
                    cpus: Some(cpus),
                }) if round.cpus => {
                    let list = crate::topology::format_cpulist(cpus);
                    format!("POLL {pid} cpus wait {hold_ms} {target} {epoch} cpus={list}\n")
                }
                Some(Heard { target, epoch, .. }) => {
                    format!("POLL {pid} wait {hold_ms} {target} {epoch}\n")
                }
                None if round.cpus => format!("POLL {pid} cpus\n"),
                None => format!("POLL {pid}\n"),
            },
            Pending::Poll(round),
        );
    }

    fn reply(&mut self, now: Instant, line: &str) {
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::Register(round) => match read_ok(line) {
                Ok(epoch) => {
                    self.restarted(epoch, RestartKind::Cold);
                    self.backoff = self.backoff_initial;
                    if let Some(round) = round {
                        self.send_poll(round);
                    }
                }
                Err(_) => self.fault_on(now, round),
            },
            Pending::Poll(round) => match read_poll(line) {
                Ok(PollReply::Target {
                    target,
                    epoch,
                    cpus,
                }) => {
                    self.restarted(epoch, RestartKind::Recovered);
                    self.backoff = self.backoff_initial;
                    if let Some(at) = self.degraded_since.take() {
                        self.degraded_ns
                            .record(now.saturating_duration_since(at).as_nanos() as u64);
                        self.degraded.set(0);
                    }
                    self.heard = Some(Heard {
                        target,
                        epoch,
                        cpus: cpus.clone(),
                    });
                    self.actions
                        .push_back(Action::Publish(Some((target, cpus))));
                }
                Ok(PollReply::Unregistered) => {
                    // A lapsed lease, or a cold restart found by the
                    // probe: register on this connection, poll once more.
                    self.heard = None;
                    match round.re_registered {
                        false => self.register(Some(Round {
                            re_registered: true,
                            ..round
                        })),
                        true => self.degrade(now),
                    }
                }
                Err(_) => self.fault_on(now, Some(round)),
            },
            Pending::Report => {
                if read_ok(line).is_err() {
                    self.fault_on(now, None);
                }
            }
            Pending::Ship(n) => match read_events(line) {
                Ok(EventsReply::Accepted { epoch }) => {
                    self.note_epoch(epoch);
                    self.events_shipped.add(n);
                }
                // The next poll re-registers; this batch is gone.
                Ok(EventsReply::Unregistered) => {}
                Err(_) => self.fault_on(now, None),
            },
            Pending::Bye => self.close(),
            Pending::None | Pending::Connect(_) => {}
        }
    }

    /// Adopts `epoch`, classifying the move from a known other epoch as a
    /// server restart of `kind`: a REGISTER acknowledged under it means
    /// the server had lost this pid (cold); a live target under it means
    /// the server had kept it (recovered).
    fn restarted(&mut self, epoch: u64, kind: RestartKind) {
        if self.epoch.is_some_and(|prev| prev != epoch) {
            self.last_restart = Some(kind);
            match kind {
                RestartKind::Recovered => self.restarts_recovered.incr(),
                RestartKind::Cold => self.restarts_cold.incr(),
            }
        }
        self.note_epoch(epoch);
    }

    fn note_epoch(&mut self, epoch: u64) {
        if self.epoch.is_some_and(|prev| prev != epoch) {
            self.epoch_changes.incr();
        }
        self.epoch = Some(epoch);
    }

    /// The connection failed under the pending request.
    fn fault(&mut self, now: Instant) {
        match std::mem::replace(&mut self.pending, Pending::None) {
            // A goodbye that got no answer is still a goodbye.
            Pending::Bye => self.close(),
            pending => self.fault_on(now, pending.round()),
        }
    }

    /// The one fault transition: an I/O error, a torn or garbled reply,
    /// or a refused request — whatever the request was. Counted, and the
    /// connection goes; a round falls back.
    fn fault_on(&mut self, now: Instant, round: Option<Round>) {
        self.poll_errors.incr();
        self.close();
        self.retry_later(now, round);
    }

    fn close(&mut self) {
        self.connected = false;
        self.heard = None;
        self.actions.push_back(Action::Close);
    }

    /// Schedules the next connection attempt a full backoff scaled by a
    /// jitter factor in [0.5, 1.0) away — staggered reconnect storms,
    /// still bounded by `backoff_max` — and doubles the backoff. A round
    /// falls back.
    fn retry_later(&mut self, now: Instant, round: Option<Round>) {
        let jitter = 0.5 + 0.5 * crate::unit(&mut self.rng);
        let at = now + self.backoff.mul_f64(jitter);
        self.next_attempt = Some(at);
        self.backoff = (self.backoff * 2).min(self.backoff_max);
        self.actions.push_back(Action::WaitUntil(at));
        if round.is_some() {
            self.degrade(now);
        }
    }

    /// A round that ends without a target: degraded mode, counted once
    /// per episode, and the fallback published.
    fn degrade(&mut self, now: Instant) {
        if self.degraded_since.is_none() {
            self.degraded_enters.incr();
            self.degraded.set(1);
            self.degraded_since = Some(now);
        }
        self.actions.push_back(Action::Publish(None));
    }
}

/// A client that survives server crashes, restarts, hangs, and garbage
/// replies: the socket shell around the client core (see the module
/// docs). All methods are non-panicking and bounded in time.
pub struct SupervisedClient {
    cfg: SupervisorConfig,
    registry: Arc<Registry>,
    core: ClientCore,
    conn: Option<UdsClient>,
    /// This connection's socket, for the poller guard (see
    /// [`ParkedStream`]).
    stream: ParkedStream,
    /// Raised by the poller guard's drop; never by anyone else. While it
    /// is up an I/O error is the guard cutting a parked read short: the
    /// core hears [`Event::Stop`], not a fault.
    // sched-atomic(handoff): see PollerGuard::stop — the same flag.
    stop: Arc<AtomicBool>,
    /// Flight recorder whose rings [`SupervisedClient::ship_events`]
    /// drains to the server (none by default — see
    /// [`SupervisedClient::with_recorder`]).
    recorder: Option<Arc<FlightRecorder>>,
    /// The last [`Action::WaitUntil`]: when a degraded poller next has
    /// reason to wake.
    retry_at: Option<Instant>,
}

impl SupervisedClient {
    /// Creates the supervisor and eagerly attempts a first connection
    /// (failure is not an error — the client starts degraded and keeps
    /// retrying). Fault counters are registered into `registry`.
    pub fn new(cfg: SupervisorConfig, registry: Arc<Registry>) -> Self {
        let mut s = SupervisedClient {
            core: ClientCore::new(std::process::id(), &cfg, &registry),
            registry,
            cfg,
            conn: None,
            stream: ParkedStream::default(),
            stop: Arc::new(AtomicBool::new(false)),
            recorder: None,
            retry_at: None,
        };
        s.run(Event::Open);
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
        self.core.epoch()
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
        self.core.retry_now();
    }

    /// How the most recent observed server restart presented: recovered
    /// from snapshot, or cold. `None` until a restart has been seen.
    pub fn last_restart(&self) -> Option<RestartKind> {
        self.core.last_restart()
    }

    /// Hands `event` to the core and carries out what it asks, feeding
    /// back each outcome, until it has nothing left to do. Returns the
    /// round's outcome when the event started one.
    fn run(&mut self, event: Event<'_>) -> Option<Option<Target>> {
        let mut published = None;
        self.core.on(Instant::now(), event);
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Connect => {
                    let event = match UdsClient::connect(&self.cfg.path, self.cfg.io_timeout) {
                        Ok(conn) => {
                            *self.stream.lock() = conn.try_clone_stream().ok();
                            self.conn = Some(conn);
                            Event::Connected
                        }
                        Err(_) => Event::ConnectFailed,
                    };
                    self.core.on(Instant::now(), event);
                }
                Action::Send(frame) => {
                    let reply = match self.conn.as_mut() {
                        Some(conn) => conn.round_trip(&frame),
                        None => Err(io::ErrorKind::NotConnected.into()),
                    };
                    let event = match &reply {
                        Ok(line) => Event::Reply(line),
                        Err(_) if self.stop.load(Ordering::Acquire) => Event::Stop,
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                            ) =>
                        {
                            Event::Timeout
                        }
                        Err(_) => Event::Eof,
                    };
                    self.core.on(Instant::now(), event);
                }
                Action::Close => {
                    self.conn = None;
                    *self.stream.lock() = None;
                }
                Action::WaitUntil(at) => self.retry_at = Some(at),
                Action::Publish(target) => published = Some(target),
            }
        }
        published
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

    /// One poll round, held for at most `hold` (and half the I/O
    /// timeout).
    fn poll(&mut self, cpus: bool, hold: Duration) -> Option<Target> {
        let hold = hold.min(self.cfg.io_timeout / 2);
        self.run(Event::Poll { cpus, hold }).flatten()
    }

    /// Drains one batch (up to [`DEFAULT_TRACE_MAX`] events) from the
    /// attached flight recorder and pushes it to the server's journal,
    /// best effort: with no recorder or no connection this is a no-op,
    /// and a batch the server never acknowledged is dropped rather than
    /// retried — observability must not buffer unboundedly against a
    /// dead server.
    pub fn ship_events(&mut self) {
        let (true, Some(recorder)) = (self.connected(), &self.recorder) else {
            return;
        };
        let events = recorder.drain(DEFAULT_TRACE_MAX);
        self.run(Event::Ship(&events));
    }

    /// Pushes a statistics line to the server, best effort: a failure is
    /// a fault like a failed poll — counted in `poll_errors`, and the
    /// connection goes (the next poll reconnects) — but not fatal. A line
    /// with a newline or a `|` in it is not sent.
    pub fn report(&mut self, line: &str) {
        self.run(Event::Report(line));
    }

    /// Courtesy goodbye, best effort.
    pub fn bye(&mut self) {
        self.run(Event::Bye);
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
    /// never come faster than `interval`; a degraded poller sleeps on
    /// until its backoff lets it reconnect. A killed or restarted server
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
        let publish = move |polled: Option<Target>| match polled {
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
                'rounds: while !self.stop.load(Ordering::Acquire) {
                    let round = Instant::now();
                    let mut healthy;
                    loop {
                        let waits = self.core.holds_reply(true);
                        let polled = self.poll(true, interval.saturating_sub(round.elapsed()));
                        if self.stop.load(Ordering::Acquire) {
                            break 'rounds; // `polled` may be the guard's doing
                        }
                        healthy = polled.is_some();
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
                    let mut wake = round + interval;
                    if !healthy {
                        wake = wake.max(self.retry_at.unwrap_or(wake));
                    }
                    sleep_unless_stopped(
                        &self.stop,
                        wake.saturating_duration_since(Instant::now()),
                    );
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

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A core for pid 7 with 8 workers, its backoff 10 ms doubling to 80.
    fn core(registry: &Registry) -> ClientCore {
        let mut cfg = SupervisorConfig::new("unused.sock", 8);
        (cfg.backoff_initial, cfg.backoff_max) = (ms(10), ms(80));
        ClientCore::new(7, &cfg, registry)
    }

    /// Feeds each event at `now` and checks what the core asks for next,
    /// written as frames and lower-case action names.
    fn play(c: &mut ClientCore, now: Instant, script: &[(Event<'_>, &str)]) {
        for &(event, want) in script {
            c.on(now, event);
            let got: Vec<String> = std::iter::from_fn(|| c.next_action())
                .map(|action| match action {
                    Action::Send(frame) => frame.trim_end().to_string(),
                    Action::WaitUntil(_) => "wait".into(),
                    Action::Publish(Some((t, _))) => format!("publish {t}"),
                    Action::Publish(None) => "fallback".into(),
                    other => format!("{other:?}").to_lowercase(),
                })
                .collect();
            assert_eq!(got.join(", "), want, "after {event:?}");
        }
    }

    const POLL: Event<'static> = Event::Poll {
        cpus: false,
        hold: Duration::from_millis(100),
    };

    /// Connects, registers under epoch 1 and hears a target of 4.
    const HEALTHY: [(Event<'static>, &str); 4] = [
        (POLL, "connect"),
        (Event::Connected, "REGISTER 7 8"),
        (Event::Reply("OK 1"), "POLL 7"),
        (Event::Reply("TARGET 4 1"), "publish 4"),
    ];

    /// …and then loses the connection under a parked poll.
    const LOST: [(Event<'static>, &str); 2] = [
        (POLL, "POLL 7 wait 100 4 1"),
        (Event::Eof, "close, wait, fallback"),
    ];

    #[test]
    fn starts_degraded_without_a_server_then_recovers() {
        let (registry, t0) = (Registry::new(), Instant::now());
        let mut c = core(&registry);
        play(
            &mut c,
            t0,
            &[(Event::Open, "connect"), (Event::ConnectFailed, "wait")],
        );
        // Until the backoff runs out a round does not dial: it falls back,
        // opening a degraded episode that lasts until the next target.
        let at = c.next_attempt.expect("a retry");
        play(&mut c, at - ms(1), &[(POLL, "fallback")]);
        play(&mut c, at, &HEALTHY);
        let snap = registry.snapshot();
        let counters = ["degraded_enters", "reconnects", "poll_errors"].map(|k| snap.counters[k]);
        assert_eq!(counters, [1, 0, 0]);
        assert_eq!(snap.gauges["degraded"], 0);
        let episode = &snap.histograms["degraded_ns"];
        assert_eq!((episode.count, episode.sum), (1, ms(1).as_nanos() as u64));
    }

    #[test]
    fn lease_expiry_healed_in_place_by_re_register() {
        let registry = Registry::new();
        let mut c = core(&registry);
        play(&mut c, Instant::now(), &HEALTHY);
        // Re-register on this connection, then poll again in the plain
        // form; a second refusal in one round falls back, still connected.
        play(
            &mut c,
            Instant::now(),
            &[
                (POLL, "POLL 7 wait 100 4 1"),
                (Event::Reply("ERR unregistered"), "REGISTER 7 8"),
                (Event::Reply("OK 1"), "POLL 7"),
                (Event::Reply("TARGET 8 1"), "publish 8"),
                (POLL, "POLL 7 wait 100 8 1"),
                (Event::Reply("ERR unregistered"), "REGISTER 7 8"),
                (Event::Reply("OK 1"), "POLL 7"),
                (Event::Reply("ERR unregistered"), "fallback"),
                (POLL, "POLL 7"),
            ],
        );
        let snap = registry.snapshot();
        assert_eq!(
            [snap.counters["poll_errors"], snap.counters["epoch_changes"]],
            [0, 0]
        );
        assert_eq!(c.last_restart(), None, "one server all along");
    }

    #[test]
    fn snapshot_restart_is_classified_recovered_with_no_re_register() {
        let registry = Registry::new();
        let mut c = core(&registry);
        let t0 = Instant::now();
        play(&mut c, t0, &HEALTHY);
        play(&mut c, t0, &LOST);
        // Back as an observer: the round's own poll is the probe, and a
        // live target under a new epoch means the server kept this pid.
        let probe = [
            (POLL, "connect"),
            (Event::Connected, "POLL 7"),
            (Event::Reply("TARGET 4 2"), "publish 4"),
        ];
        let at = c.next_attempt.expect("a retry");
        play(&mut c, at, &probe);
        assert_eq!(
            (c.last_restart(), c.epoch()),
            (Some(RestartKind::Recovered), Some(2))
        );
        let snap = registry.snapshot();
        let counters = [
            "restarts_recovered",
            "restarts_cold",
            "reconnects",
            "epoch_changes",
        ];
        assert_eq!(counters.map(|k| snap.counters[k]), [1, 0, 1, 1]);
    }

    #[test]
    fn snapshotless_restart_is_classified_cold_and_re_registers() {
        let registry = Registry::new();
        let mut c = core(&registry);
        let t0 = Instant::now();
        play(&mut c, t0, &HEALTHY);
        play(&mut c, t0, &LOST);
        let probe = [
            (POLL, "connect"),
            (Event::Connected, "POLL 7"),
            (Event::Reply("ERR unregistered"), "REGISTER 7 8"),
            (Event::Reply("OK 2"), "POLL 7"),
            (Event::Reply("TARGET 4 2"), "publish 4"),
        ];
        let at = c.next_attempt.expect("a retry");
        play(&mut c, at, &probe);
        assert_eq!(c.last_restart(), Some(RestartKind::Cold));
        let snap = registry.snapshot();
        let counters = ["restarts_cold", "restarts_recovered"].map(|k| snap.counters[k]);
        assert_eq!(counters, [1, 0]);
    }

    #[test]
    fn a_refused_poll_is_a_fault_and_drops_the_connection() {
        let registry = Registry::new();
        let mut c = core(&registry);
        // The held reply has no CPU set, so a `cpus` round cannot wait
        // on it; the server refuses the frame.
        let cpus = Event::Poll {
            cpus: true,
            hold: ms(100),
        };
        play(&mut c, Instant::now(), &HEALTHY);
        let refused = [
            (cpus, "POLL 7 cpus"),
            (Event::Reply("ERR malformed"), "close, wait, fallback"),
        ];
        play(&mut c, Instant::now(), &refused);
        let snap = registry.snapshot();
        let counters = ["poll_errors", "degraded_enters"].map(|k| snap.counters[k]);
        assert_eq!(counters, [1, 1]);
    }

    #[test]
    fn a_failed_report_or_events_push_is_the_same_fault_as_a_failed_poll() {
        let registry = Registry::new();
        let mut c = core(&registry);
        let batch = [TraceEvent {
            ts_ns: 5,
            worker: 0,
            kind: crate::trace::EventKind::Steal,
            arg: 1,
        }];
        let t0 = Instant::now();
        play(&mut c, t0, &HEALTHY);
        // A line the wire cannot carry is not sent; a failed one is a
        // fault that publishes nothing; no push while disconnected.
        play(
            &mut c,
            t0,
            &[
                (Event::Report("a|b"), ""),
                (Event::Report("a\nb"), ""),
                (Event::Report("jobs_run=3"), "REPORT 7 jobs_run=3"),
                (Event::Timeout, "close, wait"),
                (Event::Ship(&batch), ""),
            ],
        );
        let reconnect = [
            (POLL, "connect"),
            (Event::Connected, "POLL 7"),
            (Event::Reply("TARGET 4 1"), "publish 4"),
            (Event::Ship(&batch), "EVENTS 7 5:st:0:1"),
            (Event::Reply("## #"), "close, wait"),
        ];
        let at = c.next_attempt.expect("a retry");
        play(&mut c, at, &reconnect);
        let snap = registry.snapshot();
        let counters = ["poll_errors", "events_shipped", "degraded_enters"];
        assert_eq!(counters.map(|k| snap.counters[k]), [2, 0, 0]);
    }

    #[test]
    fn backoff_grows_and_is_jittered() {
        let delays = || {
            let mut c = core(&Registry::new());
            let mut now = Instant::now();
            (0..6)
                .map(|_| {
                    play(
                        &mut c,
                        now,
                        &[(POLL, "connect"), (Event::ConnectFailed, "wait, fallback")],
                    );
                    let at = c.next_attempt.expect("a retry");
                    let delay = at - now;
                    now = at;
                    delay
                })
                .collect::<Vec<_>>()
        };
        let first = delays();
        // The backoff, doubling to its cap, times a jitter in [0.5, 1).
        for (delay, full) in first.iter().zip([10, 20, 40, 80, 80, 80].map(ms)) {
            assert!(*delay >= full / 2 && *delay < full, "{delay:?} of {full:?}");
        }
        assert!(first[3..].windows(2).any(|w| w[0] != w[1]), "not jittered");
        assert_eq!(delays(), first, "one seed, one schedule");
    }

    // The shell, against the real server.

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
        let mut reader = UdsClient::connect(&path, DEFAULT_IO_TIMEOUT).expect("reader");
        let (_, events) = reader.trace(std::process::id(), None).expect("trace");
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::JobStart), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Steal), "{kinds:?}");
        assert!(kinds.contains(&EventKind::Decision), "{kinds:?}");
        // Nothing resident → shipping again is a no-op.
        sup.ship_events();
        assert_eq!(registry.snapshot().counters["events_shipped"], 2);
    }
}
