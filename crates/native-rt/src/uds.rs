//! Cross-process control over Unix domain sockets: the server's boot and
//! the client.
//!
//! The closest native analog of the paper's deployment: the server is a
//! standalone daemon ("a user-level centralized server"), applications are
//! *separate processes* that register over a socket, poll periodically,
//! and say goodbye when done — the same REGISTER/POLL/BYE protocol as the
//! simulated server. [`UdsServer`] binds the socket, restores the
//! crash-recovery snapshot, and hands a `ControlCore` (`control.rs`: the
//! state, the one dispatcher, the wakeup order) to the reactor
//! (`reactor.rs`: the sockets, the clock and the `/proc` samples). This
//! file holds that boot and the client; the protocol both sides speak is
//! newline-terminated text, one reply per request:
//!
//! ```text
//! REGISTER <pid> <nworkers>         → OK <epoch>
//! POLL <pid>                        → TARGET <n> <epoch>
//! POLL <pid> cpus                   → TARGET <n> <epoch> cpus=<cpulist>
//! POLL <pid> wait <hold_ms> <n> <epoch>
//! POLL <pid> cpus wait <hold_ms> <n> <epoch> cpus=<cpulist>
//! REPORT <pid> jobs_run=100 steals=7 ...   → OK <epoch>
//! EVENTS <pid> <ts:kind:worker:arg,...>    → OK <epoch>
//! TRACE <pid> [max]                 → TRACE <epoch> <n> <ts:kind:worker:arg,...>
//! STATS                             → STATS byes=0 polls=12 registers=2 apps=2
//! STATS <pid>                       → STATS jobs_run=100 steals=7 ...
//! STATS ALL                         → STATS ALL pid=<pid> target=<t> nworkers=<n> <report>|…
//! BYE <pid>                         → OK <epoch>
//! ```
//!
//! A frame ends at `\n` and must be UTF-8: a frame that is not is
//! answered `ERR malformed` and the connection closes. Its fields are
//! separated by runs of space, `\t`, `\r` or `\f`, and by nothing else —
//! `\v` and non-ASCII spaces (U+00A0, U+3000, …) are field content, so a
//! verb or number written with them is malformed, and a `REPORT` keeps
//! them. The server splits fields without decoding a char.
//!
//! **CPU sets.** The `cpus` form also names *which* processors: a
//! contiguous slice, in kernel cpulist syntax (`0-3,8`), of the server's
//! topology-linearized CPU order ([`ctl_core::cpu_range`]).
//!
//! **Parked polls** (the wait form). `<n> <epoch> [cpus=<cpulist>]` is the
//! payload of the last `TARGET` reply the client heard, verbatim. If the
//! reply the server would give now differs from it (another target,
//! another CPU range, another epoch, or `ERR unregistered`), the server
//! answers at once, exactly as to the plain form. Otherwise the poll is
//! *parked*: the server writes that same reply in the wakeup in which a
//! REGISTER, BYE, lease expiry, weighted REPORT or load sample changes
//! it, or when `<hold_ms>` (clamped to half the lease) runs out, whichever
//! comes first. The poll interval becomes time the client sleeps inside
//! the server instead of beside it: a heartbeat still arrives once per
//! hold, and a changed target no longer waits for the next one. Parking
//! and releasing both refresh the lease. A later frame on a parked
//! connection releases the park first, so replies stay in frame order; a
//! connection that closes while parked is forgotten without a reply.
//!
//! One [`PollReply`] answers all three forms. The client's reply readers
//! are pure functions of the reply line: `ERR unregistered` is a typed
//! outcome where the verb has one (POLL, EVENTS), and every other `ERR`
//! — the server refusing a frame it cannot parse — is an
//! [`io::ErrorKind::InvalidData`] error, like a garbled reply.
//!
//! Fault tolerance (see DESIGN.md §"Failure modes & recovery"):
//!
//! - **Epochs.** The server stamps every reply with its boot epoch. A
//!   client that observes a different epoch than it registered under knows
//!   the server restarted (and forgot it) and must re-register.
//! - **Leases.** Each registration carries a TTL refreshed by POLL,
//!   REPORT and EVENTS. A wedged-but-alive client loses its processor
//!   share after the lease expires; a later POLL from an expired (or
//!   never-registered, or forgotten-by-restart) pid gets `ERR
//!   unregistered`, the cue to re-register.
//! - **`/proc` samples.** While an application is registered, the
//!   reactor walks `/proc` every `SAMPLE_PERIOD` (500 ms) — the real
//!   `rpstat` sweep — and the core drops the registrations of processes
//!   that died without a BYE; with `account_system_load` it also
//!   subtracts the runnable threads outside the applications.
//! - **No silent drops.** A malformed request is answered with
//!   `ERR <reason>` and counted, never ignored: a well-behaved client
//!   must not block forever on `read_line` because its frame was garbled
//!   in flight.
//! - **Stale sockets.** On startup the server probes an existing socket
//!   file: if a live server answers, startup fails with `AddrInUse`;
//!   if nothing is listening, the stale socket (a previous crash) is
//!   reclaimed. A path that holds anything but a socket is never
//!   removed: startup fails with `AlreadyExists`.
//! - **Client timeouts.** [`UdsClient::connect`] arms read *and* write
//!   timeouts on the stream, so no client can hang indefinitely on a
//!   wedged server. Applications use [`crate::SupervisedClient`], which
//!   adds registration, reconnect, backoff, degraded-mode fallback and
//!   the background poller; the bare client serves monitors.
//!
//! **Reports.** An application may push its pool's statistics line (a
//! supervised poller spawned with `report` does so every round); anyone
//! can read back the latest one per pid with `STATS <pid>`, or every
//! registration's target and report in one round trip with `STATS ALL`.
//! Because `|` separates those rows, a `REPORT` with `|` in it is refused
//! (`ERR malformed`) and the client will not send one. A `REPORT` may come
//! before its pid's `REGISTER`, and then weighs in when the pid registers
//! — but one lease after the first report of a pid that has not
//! registered since, its line is dropped.
//!
//! **Flight recorder.** Applications push batches of scheduling events
//! drained from their [`crate::FlightRecorder`] rings; the server keeps a
//! bounded per-pid journal — interleaving its own partition-decision
//! instants — that anyone (e.g. `schedtop`, the Perfetto merge) can drain
//! back out with `TRACE`, correlated across restarts by the boot epoch.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::control::{ControlCore, UdsServerConfig};
use crate::reactor::Reactor;
use crate::snapshot::{ServerSnapshot, SnapshotError};
use crate::stats::{Registry, Snapshot};
use crate::sync::{AtomicBool, Ordering};
use crate::trace::{self, TraceEvent};

/// Default read/write timeout armed on every client stream: the longest a
/// client call can block on a wedged (alive but unresponsive) server.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// The server's boot epoch: distinct across restarts so clients can tell
/// "the server I registered with" from "a new server that forgot me".
fn boot_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| d.as_nanos() as u64);
    // Fold in the pid so two servers booted within one clock tick (or on
    // a coarse clock) still differ.
    nanos ^ (u64::from(std::process::id()).rotate_left(48)) | 1
}

/// Persists `core`'s recoverable state when its config names a snapshot
/// path (a no-op otherwise). The reactor calls this from its timer
/// wakeups and at shutdown, so a `kill -9` between intervals loses at
/// most one interval of registrations. A failed write is reported and
/// retried at the next interval, never fatal: serving traffic outranks
/// persistence.
pub(crate) fn write_snapshot(core: &ControlCore, now: Duration) {
    let Some(path) = &core.cfg().snapshot_path else {
        return;
    };
    match core.to_snapshot(now).write_atomic(path) {
        Ok(()) => core.hot.snapshot_writes.incr(),
        Err(e) => eprintln!(
            "procctl server: snapshot write to {} failed: {e}",
            path.display()
        ),
    }
}

/// The standalone control server: a socket, a [`ControlCore`] restored
/// from the last snapshot, and the reactor thread that drives it.
pub struct UdsServer {
    path: PathBuf,
    epoch: u64,
    // sched-atomic(handoff): Release store in `drop` asks the reactor
    // thread to finish; its loop loads with Acquire before each wait.
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    reactor_thread: Option<JoinHandle<()>>,
}

impl UdsServer {
    /// Binds the socket and starts serving.
    ///
    /// An existing socket file is probed first: if a live server answers
    /// the connect, this fails with [`io::ErrorKind::AddrInUse`]; if
    /// nothing is listening the socket is stale (a crashed predecessor)
    /// and is reclaimed. Anything at the path that is not a socket (a
    /// regular file, a directory, a symlink) is left alone, and this fails
    /// with [`io::ErrorKind::AlreadyExists`]. An invalid `cfg` (see
    /// [`UdsServerConfig::validate`]) fails with
    /// [`io::ErrorKind::InvalidInput`].
    pub fn start(cfg: UdsServerConfig) -> io::Result<Self> {
        cfg.validate()?;
        if let Ok(meta) = std::fs::symlink_metadata(&cfg.path) {
            if !meta.file_type().is_socket() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("{} exists and is not a socket", cfg.path.display()),
                ));
            }
            match UnixStream::connect(&cfg.path) {
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a live server already answers on {}", cfg.path.display()),
                    ));
                }
                // Nobody home: a stale socket from a crashed server.
                Err(_) => std::fs::remove_file(&cfg.path)?,
            }
        }
        let listener = UnixListener::bind(&cfg.path)?;
        listener.set_nonblocking(true)?;
        let path = cfg.path.clone();
        let snapshot_path = cfg.snapshot_path.clone();
        let mut core = ControlCore::new(cfg, boot_epoch());
        // Crash recovery: restore the previous instance's registrations
        // (which moves the epoch above the snapshotted one). Any defect
        // in the file — truncation, checksum, future version —
        // cold-starts cleanly and is counted, never partially restored.
        if let Some(spath) = &snapshot_path {
            match ServerSnapshot::load(spath) {
                Ok(snap) => core.restore(&snap, crate::trace::clock_origin().elapsed()),
                Err(SnapshotError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {} // first boot
                Err(e) => {
                    core.hot.snapshot_rejected.incr();
                    eprintln!(
                        "procctl server: rejecting snapshot {} ({e}); cold start",
                        spath.display()
                    );
                }
            }
        }
        let epoch = core.epoch();
        let registry = Arc::clone(core.registry());
        let stop = Arc::new(AtomicBool::new(false));
        // The reactor thread owns the core outright.
        let reactor = Reactor::new(listener, core);
        let reactor_thread = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("procctl-uds-reactor".into())
                .spawn(move || reactor.serve(&stop))
                .expect("spawn reactor thread")
        };
        Ok(UdsServer {
            path,
            epoch,
            stop,
            registry,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The socket path clients should connect to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// This server instance's boot epoch (stamped on every reply).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// A point-in-time copy of the server's statistics (registers, polls,
    /// byes served; malformed requests; lease expiries; live application
    /// count) — the same data the wire-level `STATS` request returns.
    pub fn stats(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Drop for UdsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.reactor_thread.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

/// A decoded reply to `POLL`, in any of its forms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PollReply {
    /// A live target, stamped with the server's boot epoch.
    Target {
        /// Desired number of unsuspended workers.
        target: u32,
        /// The replying server's boot epoch.
        epoch: u64,
        /// The processors assigned, when the `cpus` form was asked and
        /// the reply names a non-empty set.
        cpus: Option<Vec<u32>>,
    },
    /// The server holds no registration for this pid: the lease expired
    /// or the server restarted. Re-register before polling again.
    Unregistered,
}

/// A decoded reply to `EVENTS <pid> <batch>` (the flight-recorder push).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventsReply {
    /// The server journaled the batch (and refreshed the lease).
    Accepted {
        /// The replying server's boot epoch.
        epoch: u64,
    },
    /// No live registration for this pid — re-register before pushing.
    Unregistered,
}

/// One application's row in a `STATS ALL` reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AppStatsEntry {
    /// The application's registered pid.
    pub pid: u32,
    /// Its current partition target.
    pub target: u32,
    /// The worker count it registered with.
    pub nworkers: u32,
    /// Its latest `REPORT` line verbatim (empty when it never reported).
    pub report: String,
}

impl AppStatsEntry {
    fn parse(part: &str) -> Option<AppStatsEntry> {
        let mut fields = part.split_ascii_whitespace();
        let pid = fields.next()?.strip_prefix("pid=")?.parse().ok()?;
        let target = fields.next()?.strip_prefix("target=")?.parse().ok()?;
        let nworkers = fields.next()?.strip_prefix("nworkers=")?.parse().ok()?;
        Some(AppStatsEntry {
            pid,
            target,
            nworkers,
            report: fields.collect::<Vec<_>>().join(" "),
        })
    }
}

// The reply readers: one pure function of the reply line per reply
// shape, so the socket read stays in `UdsClient` and the readers can be
// checked against a transcript of the real server. A line that is not
// the expected shape — an `ERR` without a typed outcome included — is
// `InvalidData`.

fn invalid(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply {line:?}"),
    )
}

/// A reply line as read off the socket, without its terminator. Nothing
/// read (EOF) and a line torn off before its newline are both the
/// connection ending, never a reply: a torn `TARGET 4 12` must not pass
/// for epoch 12.
pub(crate) fn complete_line(raw: &str) -> io::Result<&str> {
    match raw.strip_suffix('\n') {
        Some(line) => Ok(line.trim_ascii()),
        None => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
    }
}

/// `OK <epoch>` → the epoch.
pub(crate) fn read_ok(line: &str) -> io::Result<u64> {
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["OK", e] => e.parse().map_err(|_| invalid(line)),
        _ => Err(invalid(line)),
    }
}

/// `TARGET <n> <epoch> [cpus=<cpulist>]` or `ERR unregistered`: the
/// reply to every POLL form.
pub(crate) fn read_poll(line: &str) -> io::Result<PollReply> {
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["TARGET", n, e, rest @ ..] => match (n.parse(), e.parse()) {
            (Ok(target), Ok(epoch)) => Ok(PollReply::Target {
                target,
                epoch,
                cpus: rest
                    .iter()
                    .find_map(|f| f.strip_prefix("cpus="))
                    .and_then(crate::topology::parse_cpulist)
                    .filter(|c| !c.is_empty()),
            }),
            _ => Err(invalid(line)),
        },
        ["ERR", "unregistered"] => Ok(PollReply::Unregistered),
        _ => Err(invalid(line)),
    }
}

/// `OK <epoch>` or `ERR unregistered`: the reply to EVENTS.
pub(crate) fn read_events(line: &str) -> io::Result<EventsReply> {
    match line.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["ERR", "unregistered"] => Ok(EventsReply::Unregistered),
        _ => read_ok(line).map(|epoch| EventsReply::Accepted { epoch }),
    }
}

/// `TRACE <epoch> <n> [<events>]` → the epoch and the `n` events.
fn read_trace(line: &str) -> io::Result<(u64, Vec<TraceEvent>)> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let ["TRACE", e, n, rest @ ..] = fields.as_slice() else {
        return Err(invalid(line));
    };
    let (Ok(epoch), Ok(n)) = (e.parse::<u64>(), n.parse::<usize>()) else {
        return Err(invalid(line));
    };
    let events = match rest {
        [] => Vec::new(),
        [payload] => trace::parse_events(payload).ok_or_else(|| invalid(line))?,
        _ => return Err(invalid(line)),
    };
    if events.len() != n {
        return Err(invalid(line));
    }
    Ok((epoch, events))
}

/// `STATS ALL [<row>|<row>…]` → one entry per row.
fn read_stats_all(line: &str) -> io::Result<Vec<AppStatsEntry>> {
    let rest = line
        .strip_prefix("STATS ALL")
        .ok_or_else(|| invalid(line))?
        .trim_start();
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    rest.split('|')
        .map(|part| AppStatsEntry::parse(part).ok_or_else(|| invalid(line)))
        .collect()
}

/// `STATS [<report>]` → the report line (empty when none).
fn read_app_stats(line: &str) -> io::Result<String> {
    match line.strip_prefix("STATS") {
        Some(rest) => Ok(rest.trim_ascii_start().to_string()),
        None => Err(invalid(line)),
    }
}

/// `STATS k=v …` → the server's counters as `(key, value)` pairs.
fn read_stats(line: &str) -> io::Result<Vec<(String, i64)>> {
    let mut fields = line.split_whitespace();
    if fields.next() != Some("STATS") {
        return Err(invalid(line));
    }
    fields
        .map(|kv| {
            let (k, v) = kv.split_once('=').ok_or_else(|| invalid(line))?;
            let v = v.parse::<f64>().map_err(|_| invalid(line))?;
            Ok((k.to_string(), v as i64))
        })
        .collect()
}

/// A connection to a [`UdsServer`] that registers nothing: the observer
/// monitors (`schedtop`, trace-merge tooling) read `STATS`, `STATS ALL`,
/// `STATS <pid>` and `TRACE <pid>` through without taking a share of the
/// partition, and the transport under [`crate::SupervisedClient`], the
/// one client applications use.
#[derive(Debug)]
pub struct UdsClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl UdsClient {
    /// Connects, arming `io_timeout` as both read and write timeout —
    /// even against a wedged (accepting but silent) server, no call
    /// blocks longer than the timeout.
    pub fn connect(path: impl AsRef<Path>, io_timeout: Duration) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let writer = stream.try_clone()?;
        Ok(UdsClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, msg: &str) -> io::Result<()> {
        self.writer.write_all(msg.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        complete_line(&line).map(str::to_string)
    }

    /// Writes one frame (newline included) and reads its reply line.
    pub(crate) fn round_trip(&mut self, frame: &str) -> io::Result<String> {
        self.send(frame)?;
        self.read_line()
    }

    /// Drains up to `max` (server default when `None`) of the oldest
    /// journaled events for `pid` — both the events that application
    /// pushed and the server's own decision instants — with the replying
    /// server's boot epoch, which merge tooling uses to correlate drains
    /// across restarts. Any client may read any pid's journal; the drain
    /// is destructive.
    pub fn trace(&mut self, pid: u32, max: Option<usize>) -> io::Result<(u64, Vec<TraceEvent>)> {
        match max {
            Some(m) => self.send(&format!("TRACE {pid} {m}\n"))?,
            None => self.send(&format!("TRACE {pid}\n"))?,
        }
        read_trace(&self.read_line()?)
    }

    /// Fetches every registered application's target and latest report
    /// in one round-trip — what `schedtop` refreshes on.
    pub fn stats_all(&mut self) -> io::Result<Vec<AppStatsEntry>> {
        self.send("STATS ALL\n")?;
        read_stats_all(&self.read_line()?)
    }

    /// Fetches the latest statistics line an application reported, or
    /// an empty string when `pid` never reported.
    pub fn app_stats(&mut self, pid: u32) -> io::Result<String> {
        self.send(&format!("STATS {pid}\n"))?;
        read_app_stats(&self.read_line()?)
    }

    /// Fetches the server's statistics as sorted `(key, value)` pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, i64)>> {
        self.send("STATS\n")?;
        read_stats(&self.read_line()?)
    }

    /// A second handle on this connection's socket, for the supervised
    /// poller's guard to end a parked read with.
    pub(crate) fn try_clone_stream(&self) -> io::Result<UnixStream> {
        self.writer.try_clone()
    }
}

#[cfg(all(test, target_os = "linux"))]
pub(crate) mod tests {
    use super::*;
    use crate::trace::EventKind;
    use crate::{PollerGuard, SupervisedClient, SupervisorConfig, TargetSlot};
    use std::io::Read;
    use std::time::Instant;

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("procctl-test-{}-{tag}.sock", std::process::id()))
    }

    /// A server on 8 processors at a path of its own.
    pub(crate) fn server(tag: &str) -> (PathBuf, UdsServer) {
        let path = sock_path(tag);
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        (path, server)
    }

    /// A bare client of the server at `path`.
    pub(crate) fn client(path: &Path) -> UdsClient {
        UdsClient::connect(path, DEFAULT_IO_TIMEOUT).expect("connect")
    }

    /// Sends `frame` and returns its reply line.
    pub(crate) fn ask(c: &mut UdsClient, frame: &str) -> String {
        c.round_trip(&format!("{frame}\n")).expect(frame)
    }

    /// Asks each frame in turn on one connection and checks its reply.
    fn play(path: &Path, script: &[(String, String)]) -> UdsClient {
        let mut c = client(path);
        for (frame, want) in script {
            assert_eq!(&ask(&mut c, frame), want, "{frame}");
        }
        c
    }

    /// One round trip per POLL form, REGISTER and BYE, as this process
    /// (alive, as the server's `/proc` samples see it).
    #[test]
    fn register_poll_bye_roundtrip() {
        let (path, server) = server("roundtrip");
        let (me, e) = (std::process::id(), server.epoch());
        play(
            &path,
            &[
                (format!("REGISTER {me} 16"), format!("OK {e}")),
                (format!("POLL {me}"), format!("TARGET 8 {e}")),
                (format!("POLL {me} cpus"), format!("TARGET 8 {e} cpus=0-7")),
                // Parked until its 20 ms hold runs out.
                (format!("POLL {me} wait 20 8 {e}"), format!("TARGET 8 {e}")),
                (format!("BYE {me}"), format!("OK {e}")),
                (format!("POLL {me}"), "ERR unregistered".into()),
            ],
        );
    }

    /// REPORT, and the three STATS forms through the client's readers.
    #[test]
    fn stats_roundtrip() {
        let (path, server) = server("stats");
        let (me, e) = (std::process::id(), server.epoch());
        let report = (format!("REPORT {me} jobs_run=10"), format!("OK {e}"));
        let mut c = play(
            &path,
            &[(format!("REGISTER {me} 4"), format!("OK {e}")), report],
        );
        assert_eq!(c.app_stats(me).expect("stats"), "jobs_run=10");
        let report = "jobs_run=10".into();
        let row = AppStatsEntry {
            pid: me,
            target: 4,
            nworkers: 4,
            report,
        };
        assert_eq!(c.stats_all().expect("stats all"), [row]);
        let stats: Vec<(String, i64)> = c.stats().expect("stats");
        let has = |k: &str, v| stats.contains(&(k.to_string(), v));
        assert!(
            has("registers", 1) && has("apps", 1) && has("malformed", 0),
            "{stats:?}"
        );
        assert_eq!(server.stats().counters["stats_queries"], 3);
    }

    /// EVENTS, and TRACE through the client's reader.
    #[test]
    fn events_push_and_trace_drain_roundtrip() {
        let (path, server) = server("events");
        let (me, e) = (std::process::id(), server.epoch());
        let mut c = play(
            &path,
            &[
                (format!("REGISTER {me} 16"), format!("OK {e}")),
                (format!("POLL {me}"), format!("TARGET 8 {e}")),
                (format!("EVENTS {me} 10:js:0:3"), format!("OK {e}")),
            ],
        );
        let (epoch, events) = c.trace(me, None).expect("trace");
        let kinds: Vec<(EventKind, u32)> = events.iter().map(|e| (e.kind, e.arg)).collect();
        assert_eq!(
            (epoch, kinds),
            (e, vec![(EventKind::Decision, 8), (EventKind::JobStart, 3)])
        );
        assert_eq!(c.trace(me, Some(5)).expect("drained"), (e, Vec::new()));
    }

    #[test]
    fn non_ascii_reports_round_trip_and_a_non_utf8_frame_closes_the_connection() {
        let (path, server) = server("grammar");
        let (me, report) = (std::process::id(), "site=Zürich pair=a\u{a0}b");
        let ok = format!("OK {}", server.epoch());
        let mut c = play(&path, &[(format!("REPORT {me} {report}"), ok)]);
        assert_eq!(c.app_stats(me).expect("stats"), report);
        let mut raw = UnixStream::connect(&path).expect("connect");
        raw.write_all(b"POLL \xff1\nPOLL 1\n").expect("send");
        let mut replies = String::new();
        raw.read_to_string(&mut replies)
            .expect("read until the server closes");
        assert_eq!(replies, "ERR malformed\n", "nothing after the bad frame");
    }

    #[test]
    fn invalid_cpus_config_rejected() {
        let path = sock_path("badcpus");
        for cpus in [0, 1 << 20] {
            let err = UdsServer::start(UdsServerConfig::new(&path, cpus)).err();
            assert_eq!(err.expect("must fail").kind(), io::ErrorKind::InvalidInput);
        }
    }

    #[test]
    fn stale_socket_reclaimed_live_server_respected() {
        let path = sock_path("stale");
        // A listener that dies without removing its socket file (std's
        // UnixListener never unlinks) — the crashed-server case.
        drop(UnixListener::bind(&path).expect("bind stale"));
        assert!(path.exists(), "socket file must linger to test reclaim");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("reclaim stale");
        // A second server on the same path must refuse, not steal it.
        let err = UdsServer::start(UdsServerConfig::new(&path, 4)).err();
        assert_eq!(err.expect("must fail").kind(), io::ErrorKind::AddrInUse);
        // A regular file at the path is nobody's socket: refused, kept.
        let file = sock_path("not-a-socket");
        std::fs::write(&file, "fig4 results\n").expect("plant file");
        let err = UdsServer::start(UdsServerConfig::new(&file, 4)).err();
        assert_eq!(err.expect("must fail").kind(), io::ErrorKind::AlreadyExists);
        let kept = std::fs::read_to_string(&file).expect("the file survives");
        assert_eq!(kept, "fig4 results\n");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn epoch_is_stable_within_a_server_and_changes_across_restarts() {
        let (path, first) = server("epoch");
        let (me, e) = (std::process::id(), first.epoch());
        let script = [(format!("REGISTER {me} 4"), format!("OK {e}"))];
        drop((play(&path, &script), first));
        assert_ne!(server("epoch").1.epoch(), e, "restart must bump the epoch");
    }

    /// The server at `path` with its snapshot at `snap`.
    fn snapshotting(path: &Path, snap: &Path) -> UdsServer {
        let mut cfg = UdsServerConfig::new(path, 8);
        cfg.snapshot_path = Some(snap.to_path_buf());
        UdsServer::start(cfg).expect("server")
    }

    /// A graceful shutdown writes the snapshot; the next boot restores
    /// it, above the old epoch, with no re-registration.
    #[test]
    fn snapshot_restores_registrations_and_reports_across_restart() {
        let (path, me) = (sock_path("snapshot"), std::process::id());
        let snap = std::env::temp_dir().join(format!("procctl-test-{me}.snap"));
        let _ = std::fs::remove_file(&snap);
        let first = snapshotting(&path, &snap);
        let e = first.epoch();
        let script = [
            (format!("REGISTER {me} 16"), format!("OK {e}")),
            (format!("REPORT {me} jobs_run=7"), format!("OK {e}")),
        ];
        drop((play(&path, &script), first));
        let server = snapshotting(&path, &snap);
        assert!(server.epoch() > e, "epochs stay monotone across a recovery");
        let e = server.epoch();
        let mut c = play(&path, &[(format!("POLL {me}"), format!("TARGET 8 {e}"))]);
        assert_eq!(c.app_stats(me).expect("stats"), "jobs_run=7");
        let counters = server.stats().counters;
        assert_eq!(
            (counters["snapshot_restores"], counters["registers"]),
            (1, 0)
        );
        drop(server);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn corrupt_snapshot_cold_starts_and_counts() {
        let (path, me) = (sock_path("snapcorrupt"), std::process::id());
        let snap = std::env::temp_dir().join(format!("procctl-test-{me}-bad.snap"));
        // Structurally plausible but checksum-invalid: the server must
        // reject it, count it, and cold-start.
        let text = "PROCCTL-SNAPSHOT v1\nepoch 5\napp 1 4 1000\nend 0000000000000000\n";
        std::fs::write(&snap, text).expect("plant corrupt snapshot");
        let server = snapshotting(&path, &snap);
        let counters = server.stats().counters;
        assert_eq!(
            (counters["snapshot_rejected"], counters["snapshot_restores"]),
            (1, 0)
        );
        play(&path, &[("POLL 1".into(), "ERR unregistered".into())]);
        drop(server);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn client_io_timeout_prevents_indefinite_hang() {
        // A bare listener that accepts but never replies — the wedged
        // server. The unsupervised client must error out, not hang.
        let path = sock_path("wedged");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let held = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let started = Instant::now();
        let mut c = UdsClient::connect(&path, Duration::from_millis(150)).expect("connect");
        let err = c.round_trip("REGISTER 1 4\n").expect_err("a silent server");
        let kinds = [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut];
        assert!(kinds.contains(&err.kind()), "got {err:?}");
        let took = started.elapsed();
        assert!(took < Duration::from_secs(2), "timed out in {took:?}");
        drop(held.join());
        let _ = std::fs::remove_file(&path);
    }

    /// Polls `cond` until it holds, for up to 5 s.
    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// A supervised poller of `nworkers` against the server at `path`,
    /// reporting `registry`'s counters if `report`.
    fn poller(
        path: &Path,
        n: usize,
        registry: Registry,
        report: bool,
    ) -> (Arc<TargetSlot>, PollerGuard) {
        let client =
            SupervisedClient::new(SupervisorConfig::new(path, n as u32), Arc::new(registry));
        let slot = Arc::new(TargetSlot::new(n));
        let guard = client.spawn_poller(Arc::clone(&slot), Duration::from_millis(20), report);
        (slot, guard)
    }

    #[test]
    fn poller_updates_slot() {
        let (path, _server) = server("poller");
        let (slot, _guard) = poller(&path, 12, Registry::new(), false);
        wait_until("the slot", || slot.target.load(Ordering::Acquire) == 8);
    }

    #[test]
    fn reporting_poller_publishes_pool_counters() {
        let (path, _server) = server("report-poller");
        let registry = Registry::new();
        registry.counter("jobs_run").add(42);
        let _poller = poller(&path, 4, registry, true);
        let (mut reader, me) = (client(&path), std::process::id());
        wait_until("a report", || {
            reader.app_stats(me).expect("stats").contains("jobs_run=42")
        });
    }

    /// A client that hangs up without a BYE leaves the server serving.
    #[test]
    fn server_survives_client_disconnect() {
        let (path, server) = server("disconnect");
        let (me, e) = (std::process::id(), server.epoch());
        drop(play(
            &path,
            &[(format!("REGISTER {me} 8"), format!("OK {e}"))],
        ));
        play(&path, &[(format!("POLL {me}"), format!("TARGET 8 {e}"))]);
    }

    /// The reply readers against every reply the real server wrote in
    /// the golden transcript: each line parses as its head says, `ERR
    /// unregistered` is the typed outcome where the verb has one, and
    /// every other catalogued `ERR` is `InvalidData` to every reader.
    #[test]
    fn reply_readers_accept_every_line_of_the_golden_transcript() {
        let golden = include_str!("../tests/golden_wire.replies");
        // The catalog is DESIGN.md §11's table: `| \`<reason>\` | … |`.
        let design = include_str!("../../../DESIGN.md");
        let catalog = &design[design.find("### Wire-protocol catalog").expect("catalog")..];
        let reasons: Vec<&str> = catalog
            .lines()
            .skip_while(|l| !l.starts_with("| `"))
            .take_while(|l| l.starts_with("| `"))
            .filter_map(|l| l.split('`').nth(1))
            .collect();
        assert!(
            reasons.contains(&"unregistered") && reasons.len() >= 4,
            "{reasons:?}"
        );

        let kind = |r: io::Result<()>| r.err().map(|e| e.kind());
        let invalid = Some(io::ErrorKind::InvalidData);
        let mut seen = std::collections::BTreeMap::<&str, usize>::new();
        for raw in golden.lines() {
            // `@<conn> <reply>`; `@<conn> PARKED` and `@due <n>` are not
            // replies.
            let line = match raw.strip_prefix('@') {
                Some(tagged) => match tagged.split_once(' ') {
                    Some(("due", _)) | Some((_, "PARKED")) => continue,
                    Some((_, reply)) => reply,
                    None => panic!("bad tag {raw:?}"),
                },
                None => raw,
            };
            let head = line.split_whitespace().next().unwrap_or("");
            *seen.entry(head).or_default() += 1;
            match head {
                "TARGET" => assert!(matches!(read_poll(line), Ok(PollReply::Target { .. }))),
                "OK" => {
                    read_ok(line).expect(line);
                    let accepted = read_events(line).expect(line);
                    assert!(matches!(accepted, EventsReply::Accepted { .. }), "{line}");
                }
                "TRACE" => {
                    read_trace(line).expect(line);
                }
                "STATS" if line.starts_with("STATS ALL") => {
                    read_stats_all(line).expect(line);
                }
                "STATS" => {
                    read_app_stats(line).expect(line);
                }
                "ERR" => {
                    let reason = line.strip_prefix("ERR ").expect(line);
                    assert!(reasons.contains(&reason), "{reason} is not catalogued");
                    assert_eq!(kind(read_ok(line).map(drop)), invalid, "{line}");
                    assert_eq!(kind(read_trace(line).map(drop)), invalid, "{line}");
                    assert_eq!(kind(read_stats_all(line).map(drop)), invalid, "{line}");
                    assert_eq!(kind(read_app_stats(line).map(drop)), invalid, "{line}");
                    assert_eq!(kind(read_stats(line).map(drop)), invalid, "{line}");
                }
                _ => panic!("unclassifiable reply {raw:?}"),
            }
        }
        for head in ["TARGET", "OK", "STATS", "ERR", "TRACE"] {
            assert!(
                seen.get(head).is_some_and(|&n| n > 0),
                "no {head} line: {seen:?}"
            );
        }
        // The readers with a typed refusal: `unregistered` is that
        // outcome, every other catalogued reason is `InvalidData`.
        for reason in &reasons {
            let line = format!("ERR {reason}");
            let (poll, events) = (read_poll(&line), read_events(&line));
            if *reason == "unregistered" {
                assert_eq!(poll.expect(&line), PollReply::Unregistered);
                assert_eq!(events.expect(&line), EventsReply::Unregistered);
            } else {
                assert_eq!(kind(poll.map(drop)), invalid, "{line}");
                assert_eq!(kind(events.map(drop)), invalid, "{line}");
            }
        }
    }
}
