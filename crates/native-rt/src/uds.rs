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
//! (`reactor.rs`: the sockets). This file holds that boot and the client;
//! the protocol both sides speak is newline-terminated text:
//!
//! ```text
//! client → server:  REGISTER <pid> <nworkers>
//! server → client:  OK <epoch>
//! client → server:  POLL <pid>
//! server → client:  TARGET <n> <epoch>
//! client → server:  BYE <pid>
//! server → client:  OK <epoch>
//! ```
//!
//! A frame ends at `\n` and must be UTF-8: a frame that is not is
//! answered `ERR malformed` and the connection closes. Its fields are
//! separated by runs of space, `\t`, `\r` or `\f`, and by nothing else —
//! `\v` and non-ASCII spaces (U+00A0, U+3000, …) are field content, so a
//! verb or number written with them is malformed, and a `REPORT` keeps
//! them. The server splits fields without decoding a char.
//!
//! **CPU-set extension** (topology-aware handout). A client that wants to
//! know *which* processors it was assigned — not just how many — appends
//! `cpus` to its poll:
//!
//! ```text
//! client → server:  POLL <pid> cpus
//! server → client:  TARGET <n> <epoch> cpus=<cpulist>
//! ```
//!
//! where `<cpulist>` is kernel cpulist syntax (`0-3,8`), a contiguous
//! slice of the server's topology-linearized CPU order
//! ([`procctl::cpu_range`]). A client that never sends the suffix sees
//! the count-only `TARGET <n> <epoch>`.
//!
//! **Parked polls** (the wait form). A client that already holds a reply
//! appends what it heard and how long the server may sit on the request:
//!
//! ```text
//! client → server:  POLL <pid> wait <hold_ms> <n> <epoch>
//! client → server:  POLL <pid> cpus wait <hold_ms> <n> <epoch> cpus=<cpulist>
//! ```
//!
//! `<n> <epoch> [cpus=<cpulist>]` is the payload of the last `TARGET`
//! reply, verbatim. If the reply the server would give now differs from
//! it (another target, another CPU range, another epoch, or `ERR
//! unregistered`), the server answers at once, exactly as to the plain
//! form. Otherwise it keeps the request — the poll is *parked* — and
//! writes that same reply in the wakeup in which a REGISTER, BYE, lease
//! expiry or weighted REPORT changes it, or when `<hold_ms>` (clamped to
//! half the lease) runs out, whichever comes first. The poll interval
//! becomes time the client sleeps inside the server instead of beside
//! it: a heartbeat still arrives once per hold, and a changed target no
//! longer waits for the next one. Parking and releasing both refresh the
//! lease. A later frame on a parked connection releases the park first,
//! so replies stay in frame order; a connection that closes while parked
//! is forgotten without a reply.
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
//! - **Leases.** Each registration carries a TTL refreshed by POLL and
//!   REPORT. A wedged-but-alive client — which the `/proc` liveness prune
//!   cannot catch, and which is Linux-only anyway — loses its processor
//!   share after the lease expires. A later POLL from an expired (or
//!   never-registered, or forgotten-by-restart) pid gets `ERR
//!   unregistered`, the cue to re-register.
//! - **No silent drops.** A malformed request is answered with
//!   `ERR <reason>` and counted, never ignored: a well-behaved client
//!   must not block forever on `read_line` because its frame was garbled
//!   in flight.
//! - **Stale sockets.** On startup the server probes an existing socket
//!   file: if a live server answers, startup fails with `AddrInUse`;
//!   if nothing is listening, the stale file (a previous crash) is
//!   reclaimed.
//! - **Client timeouts.** [`UdsClient::connect`] arms read *and* write
//!   timeouts on the stream, so no client can hang indefinitely on a
//!   wedged server. Applications use [`crate::SupervisedClient`], which
//!   adds registration, reconnect, backoff, degraded-mode fallback and
//!   the background poller; the bare client serves monitors.
//!
//! The server additionally prunes registered applications whose processes
//! have died without a BYE (checked against `/proc`), and can optionally
//! subtract system-wide uncontrollable load sampled from `/proc` — the
//! real `rpstat` sweep.
//!
//! A `STATS` request returns the server's own statistics registry as one
//! sorted `key=value` line:
//!
//! ```text
//! client → server:  STATS
//! server → client:  STATS byes=0 polls=12 registers=2 apps=2
//! ```
//!
//! Applications may additionally push their pool's statistics line to the
//! server (a supervised poller spawned with `report` does this every
//! round), and anyone can read back the latest report for a given pid —
//! cross-process visibility into the work-stealing counters (`steals`,
//! `local_hits`, …) without attaching to the application:
//!
//! ```text
//! client → server:  REPORT <pid> jobs_run=100 steals=7 ...
//! server → client:  OK <epoch>
//! client → server:  STATS <pid>
//! server → client:  STATS jobs_run=100 steals=7 ...
//! ```
//!
//! A `REPORT` may come before its pid's `REGISTER`, and then weighs in
//! when the pid registers — but a report waits at most one lease for its
//! `REGISTER`: one lease after the first report of a pid that has not
//! registered since, its line is dropped.
//!
//! **Flight recorder** (observability). Applications push batches of
//! scheduling events drained from their [`crate::FlightRecorder`] rings;
//! the server keeps a bounded per-pid journal — interleaving its own
//! partition-decision instants — that anyone (e.g. `schedtop`, the
//! Perfetto merge) can drain back out, correlated across restarts by the
//! boot epoch:
//!
//! ```text
//! client → server:  EVENTS <pid> <ts:kind:worker:arg,...>
//! server → client:  OK <epoch>
//! client → server:  TRACE <pid> [max]
//! server → client:  TRACE <epoch> <n> <ts:kind:worker:arg,...>
//! ```
//!
//! A monitor refreshes the whole fleet in one round-trip with
//! `STATS ALL`, answered as `STATS ALL pid=<pid> target=<t>
//! nworkers=<n> <latest report>|…`. Because `|` separates the rows, a
//! `REPORT` with `|` in it is refused (`ERR malformed`) and the client
//! will not send one.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::control::{ControlCore, UdsServerConfig};
use crate::reactor::Reactor;
use crate::snapshot::{ServerSnapshot, SnapshotError};
use crate::stats::{Registry, Snapshot};
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
pub(crate) fn write_snapshot(core: &ControlCore, now: Instant) {
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
    // sched-atomic(handoff): Release store in shutdown publishes the
    // final epoch state; accept/poll loops load with Acquire.
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    accept_thread: Option<JoinHandle<()>>,
}

impl UdsServer {
    /// Binds the socket and starts serving.
    ///
    /// An existing socket file is probed first: if a live server answers
    /// the connect, this fails with [`io::ErrorKind::AddrInUse`]; if
    /// nothing is listening the file is stale (a crashed predecessor) and
    /// is reclaimed. An invalid `cfg` (see [`UdsServerConfig::validate`])
    /// fails with [`io::ErrorKind::InvalidInput`].
    pub fn start(cfg: UdsServerConfig) -> io::Result<Self> {
        cfg.validate()?;
        if cfg.path.exists() {
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
                Ok(snap) => core.restore(&snap, Instant::now()),
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
        let accept_thread = {
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
            accept_thread: Some(accept_thread),
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
        if let Some(t) = self.accept_thread.take() {
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
mod tests {
    use super::*;
    use crate::trace::EventKind;
    use crate::{SupervisedClient, SupervisorConfig, TargetSlot};
    use proptest::prelude::*;
    use std::io::Read;

    impl PollReply {
        /// The `(target, epoch, cpus)` of a live reply, or a typed
        /// `NotConnected` error for `Unregistered`.
        fn target(self) -> io::Result<(u32, u64, Option<Vec<u32>>)> {
            match self {
                PollReply::Target {
                    target,
                    epoch,
                    cpus,
                } => Ok((target, epoch, cpus)),
                PollReply::Unregistered => Err(io::Error::new(
                    io::ErrorKind::NotConnected,
                    "server holds no registration for this pid (lease expired or server restarted)",
                )),
            }
        }
    }

    /// An application on the bare client: the frames a supervised client
    /// sends, one call each, for the tests that speak the protocol by
    /// hand.
    #[derive(Debug)]
    struct App {
        conn: UdsClient,
        nworkers: u32,
        epoch: u64,
    }

    impl std::ops::Deref for App {
        type Target = UdsClient;
        fn deref(&self) -> &UdsClient {
            &self.conn
        }
    }

    impl std::ops::DerefMut for App {
        fn deref_mut(&mut self) -> &mut UdsClient {
            &mut self.conn
        }
    }

    impl App {
        /// Connects without registering.
        fn observe(path: impl AsRef<Path>) -> App {
            let conn = UdsClient::connect(path, DEFAULT_IO_TIMEOUT).expect("observer");
            App {
                conn,
                nworkers: 0,
                epoch: 0,
            }
        }

        fn register(path: impl AsRef<Path>, nworkers: u32) -> io::Result<App> {
            App::register_with_timeout(path, nworkers, DEFAULT_IO_TIMEOUT)
        }

        fn register_with_timeout(
            path: impl AsRef<Path>,
            nworkers: u32,
            io_timeout: Duration,
        ) -> io::Result<App> {
            let conn = UdsClient::connect(path, io_timeout)?;
            let mut app = App {
                conn,
                nworkers,
                epoch: 0,
            };
            app.re_register()?;
            Ok(app)
        }

        fn ask(&mut self, frame: &str) -> io::Result<String> {
            self.conn.round_trip(frame)
        }

        fn re_register(&mut self) -> io::Result<u64> {
            let (pid, n) = (std::process::id(), self.nworkers);
            self.epoch = read_ok(&self.ask(&format!("REGISTER {pid} {n}\n"))?)?;
            Ok(self.epoch)
        }

        fn epoch(&self) -> u64 {
            self.epoch
        }

        fn poll_reply(&mut self) -> io::Result<PollReply> {
            read_poll(&self.ask(&format!("POLL {}\n", std::process::id()))?)
        }

        fn poll_cpus_reply(&mut self) -> io::Result<PollReply> {
            read_poll(&self.ask(&format!("POLL {} cpus\n", std::process::id()))?)
        }

        fn poll_wait_reply(
            &mut self,
            target: u32,
            epoch: u64,
            cpus: Option<&[u32]>,
            hold: Duration,
        ) -> io::Result<PollReply> {
            let (pid, hold_ms) = (std::process::id(), hold.as_millis());
            let frame = match cpus {
                Some(cpus) => {
                    let list = crate::topology::format_cpulist(cpus);
                    format!("POLL {pid} cpus wait {hold_ms} {target} {epoch} cpus={list}\n")
                }
                None => format!("POLL {pid} wait {hold_ms} {target} {epoch}\n"),
            };
            read_poll(&self.ask(&frame)?)
        }

        fn poll(&mut self) -> io::Result<u32> {
            self.poll_reply()?.target().map(|(target, ..)| target)
        }

        fn push_events(&mut self, events: &[TraceEvent]) -> io::Result<EventsReply> {
            let (pid, payload) = (std::process::id(), trace::render_events(events));
            read_events(&self.ask(&format!("EVENTS {pid} {payload}\n"))?)
        }

        fn bye(&mut self) -> io::Result<()> {
            read_ok(&self.ask(&format!("BYE {}\n", std::process::id()))?).map(|_| ())
        }

        fn report(&mut self, line: &str) -> io::Result<()> {
            read_ok(&self.ask(&format!("REPORT {} {line}\n", std::process::id()))?).map(|_| ())
        }
    }

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("procctl-test-{}-{tag}.sock", std::process::id()))
    }

    #[test]
    fn register_poll_bye_roundtrip() {
        let path = sock_path("roundtrip");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 16).expect("client");
        assert_eq!(c.poll().expect("poll"), 8);
        c.bye().expect("bye");
    }

    #[test]
    fn single_small_app_capped() {
        let path = sock_path("capped");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 3).expect("client");
        assert_eq!(c.poll().expect("poll"), 3);
    }

    #[test]
    fn two_clients_from_same_process_share() {
        // Both registrations carry this test process's pid, so the server
        // sees ONE application (registration is idempotent per pid) —
        // matching the paper's root-pid identity.
        let path = sock_path("same-pid");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut a = App::register(&path, 16).expect("a");
        let mut b = App::register(&path, 16).expect("b");
        assert_eq!(a.poll().expect("poll"), 8);
        assert_eq!(b.poll().expect("poll"), 8);
    }

    #[test]
    fn malformed_requests_get_err_replies() {
        let path = sock_path("malformed");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        // Garbage on the wire gets an ERR reply (not silence), and the
        // connection keeps working.
        c.send("NONSENSE 1 2 3\n").expect("send");
        let reply = c.read_line().expect("err reply");
        assert!(reply.starts_with("ERR"), "got {reply:?}");
        c.send("POLL notanumber\n").expect("send");
        let reply = c.read_line().expect("err reply");
        assert!(reply.starts_with("ERR"), "got {reply:?}");
        assert_eq!(c.poll().expect("poll after garbage"), 4);
        assert_eq!(server.stats().counters["malformed"], 2);
    }

    #[test]
    fn oversized_cpulist_in_a_wait_poll_is_malformed() {
        // 64 ranges of 2^20 ids each: 669 bytes on the wire that would
        // ask the single reactor thread for 256 MiB of CPU ids.
        let ranges = vec!["0-1048575"; 64].join(",");
        let frame = format!("POLL 1 cpus wait 10 4 42 cpus={ranges}");
        let mut core = ControlCore::new(UdsServerConfig::new("/nonexistent", 8), 7);
        let now = Instant::now();
        answer(&mut core, "REGISTER 1 4", now);
        let malformed = |c: &ControlCore| c.registry().snapshot().counters["malformed"];
        let before = malformed(&core);
        assert_eq!(answer(&mut core, &frame, now), "ERR malformed\n");
        assert_eq!(malformed(&core), before + 1);
    }

    #[test]
    fn fields_are_separated_by_ascii_whitespace_and_nothing_else() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.prune_dead = false;
        let mut core = ControlCore::new(cfg, 7);
        let now = Instant::now();
        let malformed = |c: &ControlCore| c.registry().snapshot().counters["malformed"];
        // Runs of space, `\t`, `\r` and `\f` separate fields.
        assert_eq!(answer(&mut core, "REGISTER\t1 \t4\r", now), "OK 7\n");
        assert_eq!(answer(&mut core, "POLL\r1", now), "TARGET 4 7\n");
        assert_eq!(answer(&mut core, "\x0cPOLL\t\t1\x0c ", now), "TARGET 4 7\n");
        // `\v` and non-ASCII spaces do not: the verb or the pid is then
        // not one, and the frame is malformed.
        for sep in ["\x0b", "\u{a0}", "\u{2003}", "\u{3000}"] {
            for frame in [format!("POLL{sep}1"), format!("POLL 1{sep}")] {
                let before = malformed(&core);
                assert_eq!(
                    answer(&mut core, &frame, now),
                    "ERR malformed\n",
                    "{frame:?}"
                );
                assert_eq!(malformed(&core), before + 1, "{frame:?}");
            }
        }
        // A REPORT keeps them, and any other UTF-8, inside its fields.
        let report = "site=Zürich pair=a\u{a0}b\x0bc wide=\u{3000}";
        assert_eq!(
            answer(&mut core, &format!("REPORT 1\t{report}\r"), now),
            "OK 7\n"
        );
        assert_eq!(
            answer(&mut core, "STATS 1", now),
            format!("STATS {report}\n")
        );
    }

    #[test]
    fn non_ascii_reports_round_trip_and_a_non_utf8_frame_closes_the_connection() {
        let (path, server) = reactor_server("grammar");
        let mut c = App::register(&path, 4).expect("client");
        let me = std::process::id();
        let report = "site=Zürich pair=a\u{a0}b";
        c.report(report).expect("report");
        assert_eq!(c.app_stats(me).expect("stats"), report);
        let rows = c.stats_all().expect("stats all");
        assert_eq!(rows[0].report, report);

        let mut raw = UnixStream::connect(&path).expect("connect");
        raw.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))
            .expect("timeout");
        raw.write_all(b"POLL \xff1\nPOLL 1\n").expect("send");
        let mut replies = String::new();
        raw.read_to_string(&mut replies)
            .expect("read until the server closes");
        assert_eq!(replies, "ERR malformed\n", "nothing after the bad frame");
        assert_eq!(server.stats().counters["malformed"], 1);
    }

    #[test]
    fn absurd_nworkers_rejected_over_the_wire() {
        let path = sock_path("absurd");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        c.send("REGISTER 4242 0\n").expect("send");
        assert!(c.read_line().expect("reply").starts_with("ERR"));
        c.send(&format!("REGISTER 4242 {}\n", u32::MAX))
            .expect("send");
        assert!(c.read_line().expect("reply").starts_with("ERR"));
        // Neither registration landed.
        assert_eq!(server.stats().gauges["apps"], 1);
    }

    #[test]
    fn invalid_cpus_config_rejected() {
        let path = sock_path("badcpus");
        let err = UdsServer::start(UdsServerConfig::new(&path, 0))
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let err = UdsServer::start(UdsServerConfig::new(&path, 1 << 20))
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn stale_socket_reclaimed_live_server_respected() {
        let path = sock_path("stale");
        // A listener that dies without removing its socket file (std's
        // UnixListener never unlinks) — the crashed-server case.
        let stale = UnixListener::bind(&path).expect("bind stale");
        drop(stale);
        assert!(path.exists(), "socket file must linger to test reclaim");
        let server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("reclaim stale");
        // A second server on the same path must refuse, not steal it.
        let err = UdsServer::start(UdsServerConfig::new(&path, 4))
            .err()
            .expect("must fail");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(server);
    }

    #[test]
    fn poll_without_register_is_unregistered() {
        let path = sock_path("unreg");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        c.bye().expect("bye");
        assert_eq!(c.poll_reply().expect("reply"), PollReply::Unregistered);
        // Re-registering on the same connection restores service.
        c.re_register().expect("re-register");
        assert_eq!(c.poll().expect("poll"), 4);
    }

    #[test]
    fn lease_expires_for_wedged_client() {
        let path = sock_path("lease");
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.lease_ttl = Duration::from_millis(80);
        cfg.prune_dead = false; // isolate the lease mechanism
        let server = UdsServer::start(cfg).expect("server");
        let mut live = App::register(&path, 8).expect("live client");
        // A second "application" that registers and then goes silent —
        // wedged but (hypothetically) alive. Fake pid, so only the lease
        // can reclaim it (pruning is off).
        live.send("REGISTER 999999 8\n").expect("send");
        assert!(live.read_line().expect("reply").starts_with("OK"));
        // Two apps share 8 cpus: 4 each. Polling also refreshes our lease.
        assert_eq!(live.poll().expect("poll"), 4);
        // Outlive the wedged client's lease (polling keeps ours fresh).
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(30));
            let t = live.poll().expect("poll");
            if t == 8 {
                break;
            }
            assert!(Instant::now() < deadline, "wedged client never expired");
        }
        assert!(server.stats().counters["lease_expiries"] >= 1);
        assert_eq!(server.stats().gauges["apps"], 1);
    }

    #[test]
    fn epoch_is_stable_within_a_server_and_changes_across_restarts() {
        let path = sock_path("epoch");
        let first_epoch;
        {
            let server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
            first_epoch = server.epoch();
            let mut c = App::register(&path, 4).expect("client");
            assert_eq!(c.epoch(), first_epoch);
            let (_, epoch, _) = c.poll_reply().expect("poll").target().expect("target");
            assert_eq!(epoch, first_epoch);
        }
        let server2 = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server2");
        assert_ne!(server2.epoch(), first_epoch, "restart must bump the epoch");
        let c2 = App::register(&path, 4).expect("client2");
        assert_eq!(c2.epoch(), server2.epoch());
    }

    #[test]
    fn snapshot_restores_registrations_and_reports_across_restart() {
        let path = sock_path("snapshot");
        let snap = std::env::temp_dir().join(format!("procctl-test-{}.snap", std::process::id()));
        let _ = std::fs::remove_file(&snap);
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.snapshot_path = Some(snap.clone());
        let first_epoch;
        {
            let server = UdsServer::start(cfg.clone()).expect("server");
            first_epoch = server.epoch();
            let mut c = App::register(&path, 16).expect("client");
            c.report("jobs_run=7").expect("report");
            // Graceful drop: the reactor's exit path writes the final
            // snapshot with the registration and report included.
        }
        assert!(snap.exists(), "shutdown must leave a snapshot behind");
        let server2 = UdsServer::start(cfg).expect("server2");
        assert!(
            server2.epoch() > first_epoch,
            "epochs must stay monotone across a recovery restart"
        );
        assert_eq!(server2.stats().counters["snapshot_restores"], 1);
        // The registration survived: an *observer* connection (which
        // never sends REGISTER) polls a live target straight away.
        let mut c2 = App::observe(&path);
        let (target, epoch, _) = c2.poll_reply().expect("poll").target().expect("restored");
        assert_eq!(target, 8);
        assert_eq!(epoch, server2.epoch());
        assert_eq!(
            c2.app_stats(std::process::id()).expect("stats"),
            "jobs_run=7",
            "reports survive the restart"
        );
        assert_eq!(
            server2.stats().counters["registers"],
            0,
            "recovery must not need a re-registration storm"
        );
        drop(server2);
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn corrupt_snapshot_cold_starts_and_counts() {
        let path = sock_path("snapcorrupt");
        let snap =
            std::env::temp_dir().join(format!("procctl-test-{}-bad.snap", std::process::id()));
        // Structurally plausible but checksum-invalid: the server must
        // reject it, count it, and cold-start.
        std::fs::write(
            &snap,
            "PROCCTL-SNAPSHOT v1\nepoch 5\napp 1 4 1000\nend 0000000000000000\n",
        )
        .expect("plant corrupt snapshot");
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.snapshot_path = Some(snap.clone());
        let server = UdsServer::start(cfg).expect("server");
        assert_eq!(server.stats().counters["snapshot_rejected"], 1);
        assert_eq!(server.stats().counters["snapshot_restores"], 0);
        let mut c = App::observe(&path);
        assert_eq!(c.poll_reply().expect("poll"), PollReply::Unregistered);
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
        let err = App::register_with_timeout(&path, 4, Duration::from_millis(150))
            .expect_err("register against a silent server must time out");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "timed out too slowly: {:?}",
            started.elapsed()
        );
        drop(held.join());
        let _ = std::fs::remove_file(&path);
    }

    /// A supervised client of the server at `path`, registered with
    /// `nworkers` and counting into `registry`.
    fn supervised(path: &Path, nworkers: u32, registry: Arc<Registry>) -> SupervisedClient {
        SupervisedClient::new(SupervisorConfig::new(path, nworkers), registry)
    }

    #[test]
    fn poller_updates_slot() {
        let path = sock_path("poller");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 6)).expect("server");
        let client = supervised(&path, 12, Arc::new(Registry::new()));
        let slot = Arc::new(TargetSlot::new(12));
        let _guard = client.spawn_poller(Arc::clone(&slot), Duration::from_millis(20), false);
        let deadline = Instant::now() + Duration::from_secs(5);
        while slot.target.load(Ordering::Acquire) != 6 {
            assert!(Instant::now() < deadline, "poller never updated the slot");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn stats_roundtrip() {
        let path = sock_path("stats");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        c.poll().expect("poll");
        c.poll().expect("poll");
        let stats: std::collections::BTreeMap<String, i64> =
            c.stats().expect("stats").into_iter().collect();
        assert_eq!(stats["registers"], 1);
        assert_eq!(stats["polls"], 2);
        assert_eq!(stats["apps"], 1);
        // The fault counters are part of the schema from boot.
        assert_eq!(stats["malformed"], 0);
        assert_eq!(stats["lease_expiries"], 0);
        // The in-process snapshot agrees with the wire reply.
        let snap = server.stats();
        assert_eq!(snap.counters["polls"], 2);
        c.bye().expect("bye");
        assert_eq!(server.stats().gauges["apps"], 0);
    }

    #[test]
    fn report_and_per_app_stats_roundtrip() {
        let path = sock_path("report");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        let me = std::process::id();
        assert_eq!(c.app_stats(me).expect("empty stats"), "");
        c.report("jobs_run=10 steals=3").expect("report");
        assert_eq!(c.app_stats(me).expect("stats"), "jobs_run=10 steals=3");
        // Latest report wins.
        c.report("jobs_run=20 steals=5").expect("report");
        assert_eq!(c.app_stats(me).expect("stats"), "jobs_run=20 steals=5");
        // BYE clears the stored report.
        c.bye().expect("bye");
        let mut c2 = App::register(&path, 4).expect("client2");
        assert_eq!(c2.app_stats(me).expect("stats after bye"), "");
    }

    #[test]
    fn a_report_waits_at_most_one_lease_for_its_register() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.prune_dead = false; // the pids are made up
        let ttl = cfg.lease_ttl;
        let mut core = ControlCore::new(cfg, 7);
        let t0 = Instant::now();
        // 50 pids report and never register; one more registers in time.
        for pid in (1000..1050).chain([2000]) {
            let reply = answer(&mut core, &format!("REPORT {pid} jobs_run=5"), t0);
            assert_eq!(reply, "OK 7\n");
        }
        let half = t0 + ttl / 2;
        assert_eq!(answer(&mut core, "STATS 1000", half), "STATS jobs_run=5\n");
        assert_eq!(answer(&mut core, "REGISTER 2000 4", half), "OK 7\n");

        // One lease after the reports: only the claimed one is left, and
        // its registration took over the timer the report armed.
        let lease = t0 + ttl;
        assert!(due(&mut core, lease).is_empty());
        assert_eq!(core.next_deadline(), Some(half + ttl));
        for pid in 1000..1050 {
            assert_eq!(answer(&mut core, &format!("STATS {pid}"), lease), "STATS\n");
        }
        for pid in 1000..1050 {
            answer(&mut core, &format!("REGISTER {pid} 1"), lease);
        }
        let all = answer(&mut core, "STATS ALL", lease);
        let rows: Vec<&str> = all.trim_end().split('|').collect();
        assert_eq!(rows.len(), 51, "{all}");
        assert!(rows[0].ends_with("pid=2000 target=1 nworkers=4 jobs_run=5"));
        assert!(
            rows[1..].iter().all(|row| !row.contains("jobs_run")),
            "{all}"
        );
    }

    #[test]
    fn a_report_with_a_pipe_can_neither_spoof_nor_break_stats_all() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.prune_dead = false;
        let mut core = ControlCore::new(cfg, 7);
        let now = Instant::now();
        answer(&mut core, "REGISTER 1 4", now);
        let malformed = |c: &ControlCore| c.registry().snapshot().counters["malformed"];
        for report in ["x|pid=9 target=9 nworkers=9", "a|b", "jobs_run=1 |"] {
            let before = malformed(&core);
            let reply = answer(&mut core, &format!("REPORT 1 {report}"), now);
            assert_eq!(reply, "ERR malformed\n", "REPORT 1 {report}");
            assert_eq!(malformed(&core), before + 1);
        }
        let rows = read_stats_all(answer(&mut core, "STATS ALL", now).trim_end()).expect("rows");
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0].report, "", "no refused report was stored");

        // The supervised client refuses to send one.
        let path = sock_path("report-pipe");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = supervised(&path, 4, Arc::new(Registry::new()));
        c.report("a|b");
        assert!(c.connected(), "a refused line is not a fault");
        assert_eq!(server.stats().counters["reports"], 0);
        assert_eq!(server.stats().gauges["apps"], 1);
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
                "TARGET" => {
                    read_poll(line).expect(line).target().expect(line);
                }
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
        for head in ["TARGET", "OK", "STATS", "ERR"] {
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

    #[test]
    fn reporting_poller_publishes_pool_counters() {
        let path = sock_path("report-poller");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
        let registry = Arc::new(Registry::new());
        registry.counter("jobs_run").add(42);
        let client = supervised(&path, 4, registry);
        let slot = Arc::new(TargetSlot::new(4));
        let _guard = client.spawn_poller(Arc::clone(&slot), Duration::from_millis(20), true);
        let mut reader = App::register(&path, 1).expect("reader");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let line = reader.app_stats(std::process::id()).expect("app stats");
            if line.contains("jobs_run=42") {
                break;
            }
            assert!(Instant::now() < deadline, "poller never reported: {line:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn server_survives_client_disconnect() {
        let path = sock_path("disconnect");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        {
            let _c = App::register(&path, 8).expect("first client");
            // Dropped without BYE.
        }
        let mut c2 = App::register(&path, 8).expect("second client");
        // The dead "application" shares this process's pid, which is very
        // much alive, so it still counts — this mirrors the paper's
        // reliance on pid liveness. Target is the equal share.
        let t = c2.poll().expect("poll");
        assert!(t == 8, "got {t}");
    }

    /// What one reactor wakeup with one frame in it writes, newlines
    /// included, in the order it writes them: `line` arrives on `conn` at
    /// `now`, then the parks it released are answered.
    fn step(core: &mut ControlCore, conn: u64, line: &str, now: Instant) -> Vec<(u64, String)> {
        let mut written = Vec::new();
        core.frame(conn, line.as_bytes(), now, |r| {
            written.push((conn, r.to_string()))
        });
        core.release(now, |c, r| written.push((c, r.to_string())));
        written
    }

    /// What a timer wakeup at `now` writes: leases expire, then parks
    /// are released as in [`step`].
    fn due(core: &mut ControlCore, now: Instant) -> Vec<(u64, String)> {
        let mut written = Vec::new();
        core.expire(now);
        core.release(now, |c, r| written.push((c, r.to_string())));
        written
    }

    /// The replies to `line` arriving at `now` on connection 0,
    /// concatenated: with nothing parked, exactly one line.
    fn answer(core: &mut ControlCore, line: &str, now: Instant) -> String {
        step(core, 0, line, now)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// Every registration's `(pid, target, CPU range)` as of `now`.
    fn assignments(core: &mut ControlCore, now: Instant) -> Vec<(u32, u32, Vec<u32>)> {
        core.assignments(now)
            .map(|(pid, target, cpus)| (pid, target, cpus.collect()))
            .collect()
    }

    /// The targets alone, in registration order.
    fn targets(core: &mut ControlCore, now: Instant) -> Vec<u32> {
        core.assignments(now).map(|(_, target, _)| target).collect()
    }

    /// The one reply to `line` of a fresh 8-CPU core with pid 1 registered.
    fn fuzz_reply(line: &str) -> String {
        let mut core = ControlCore::new(UdsServerConfig::new("/nonexistent", 8), 7);
        let now = Instant::now();
        answer(&mut core, "REGISTER 1 4", now);
        answer(&mut core, line, now)
    }

    /// A socketless two-app core for partition-policy tests: this test
    /// process, then pid 1 (init) — both live, as `prune_dead` wants.
    fn two_app_core(cfg: UdsServerConfig, now: Instant) -> ControlCore {
        let mut core = ControlCore::new(cfg, 7);
        answer(
            &mut core,
            &format!("REGISTER {} 16", std::process::id()),
            now,
        );
        answer(&mut core, "REGISTER 1 16", now);
        core
    }

    #[test]
    fn cpus_poll_roundtrip_over_the_wire() {
        let path = sock_path("cpuspoll");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 16).expect("client");
        let (target, epoch, cpus) = c
            .poll_cpus_reply()
            .expect("poll cpus")
            .target()
            .expect("target");
        assert_eq!(target, 8);
        assert_ne!(epoch, 0);
        assert_eq!(cpus.expect("cpu set"), (0..8).collect::<Vec<u32>>());
        // The plain poll still works on the same connection (old clients
        // and new clients coexist against the same server).
        assert_eq!(c.poll().expect("plain poll"), 8);
    }

    #[test]
    fn cpus_poll_respects_configured_cpu_order() {
        let path = sock_path("cpuorder");
        let mut cfg = UdsServerConfig::new(&path, 4);
        // A topological order where "adjacent" ids are not numeric
        // neighbors — the set must be a prefix slice of THIS order.
        cfg.cpu_order = Some(vec![2, 3, 0, 1]);
        let _server = UdsServer::start(cfg).expect("server");
        let mut c = App::register(&path, 2).expect("client");
        let (target, _, cpus) = c
            .poll_cpus_reply()
            .expect("poll cpus")
            .target()
            .expect("target");
        assert_eq!(target, 2);
        assert_eq!(cpus.expect("cpu set"), vec![2, 3]);
    }

    fn ev(ts_ns: u64, kind: EventKind, arg: u32) -> TraceEvent {
        TraceEvent {
            ts_ns,
            worker: 0,
            kind,
            arg,
        }
    }

    #[test]
    fn events_push_and_trace_drain_roundtrip() {
        let path = sock_path("events");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 16).expect("client");
        // The first poll journals a decision instant (target 8).
        assert_eq!(c.poll().expect("poll"), 8);
        let batch = vec![
            ev(10, EventKind::JobStart, 3),
            ev(20, EventKind::Steal, 1),
            ev(30, EventKind::Park, 0),
        ];
        assert_eq!(
            c.push_events(&batch).expect("push"),
            EventsReply::Accepted { epoch: c.epoch() }
        );
        let me = std::process::id();
        let (epoch, events) = c.trace(me, None).expect("trace");
        assert_eq!(epoch, c.epoch());
        assert_eq!(events.len(), 4, "decision + 3 pushed: {events:?}");
        assert_eq!(events[0].kind, EventKind::Decision);
        assert_eq!(events[0].arg, 8);
        assert_eq!(&events[1..], &batch[..]);
        // The drain is destructive: a second read is empty.
        let (_, events) = c.trace(me, None).expect("trace again");
        assert!(events.is_empty());
        // After BYE the pid is unregistered for pushes.
        c.bye().expect("bye");
        assert_eq!(
            c.push_events(&batch).expect("push after bye"),
            EventsReply::Unregistered
        );
        assert!(server.stats().counters["events_pushes"] >= 1);
        assert!(server.stats().counters["traces"] >= 2);
    }

    #[test]
    fn trace_max_caps_the_drain_oldest_first() {
        let path = sock_path("tracemax");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        let batch: Vec<TraceEvent> = (0..5)
            .map(|i| ev(i * 100, EventKind::JobStart, i as u32))
            .collect();
        assert!(matches!(
            c.push_events(&batch).expect("push"),
            EventsReply::Accepted { .. }
        ));
        let me = std::process::id();
        let (_, events) = c.trace(me, Some(2)).expect("trace max 2");
        assert_eq!(events, batch[..2], "oldest two first");
        let (_, events) = c.trace(me, None).expect("trace rest");
        assert_eq!(events, batch[2..]);
    }

    #[test]
    fn journal_bounded_drops_oldest_and_counts() {
        let path = sock_path("journalcap");
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.journal_cap = 4;
        let server = UdsServer::start(cfg).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        let batch: Vec<TraceEvent> = (0..10)
            .map(|i| ev(i, EventKind::JobStart, i as u32))
            .collect();
        assert!(matches!(
            c.push_events(&batch).expect("push"),
            EventsReply::Accepted { .. }
        ));
        let (_, events) = c.trace(std::process::id(), None).expect("trace");
        assert_eq!(events, batch[6..], "survivors are the newest 4");
        assert_eq!(server.stats().counters["journal_drops"], 6);
    }

    #[test]
    fn decision_journal_records_target_changes_not_every_poll() {
        let path = sock_path("decisions");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 16).expect("client");
        // Several polls at a stable partition: one decision instant.
        for _ in 0..3 {
            assert_eq!(c.poll().expect("poll"), 8);
        }
        // A second application (pid 1 — init, alive under /proc pruning)
        // halves the partition; the next poll journals the change.
        c.send("REGISTER 1 16\n").expect("send");
        assert!(c.read_line().expect("reply").starts_with("OK"));
        assert_eq!(c.poll().expect("poll"), 4);
        let (_, events) = c.trace(std::process::id(), None).expect("trace");
        let decisions: Vec<u32> = events
            .iter()
            .filter(|e| e.kind == EventKind::Decision)
            .map(|e| e.arg)
            .collect();
        assert_eq!(decisions, vec![8, 4], "one instant per change");
    }

    #[test]
    fn stats_all_snapshots_every_app_in_one_roundtrip() {
        let path = sock_path("statsall");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 16).expect("client");
        c.send("REGISTER 1 16\n").expect("send");
        assert!(c.read_line().expect("reply").starts_with("OK"));
        c.report("jobs_run=42 steals=3").expect("report");
        let apps = c.stats_all().expect("stats all");
        assert_eq!(apps.len(), 2, "{apps:?}");
        let me = apps
            .iter()
            .find(|a| a.pid == std::process::id())
            .expect("own entry");
        assert_eq!(me.target, 4);
        assert_eq!(me.nworkers, 16);
        assert_eq!(me.report, "jobs_run=42 steals=3");
        let init = apps.iter().find(|a| a.pid == 1).expect("init entry");
        assert_eq!(init.target, 4);
        assert_eq!(init.report, "");
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_poll_frame_cost() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.prune_dead = false;
        let mut core = ControlCore::new(cfg, 42);
        for pid in 0..64 {
            core.admit(900_000 + pid, 4, Instant::now());
        }
        let n = 1_000_000u32;
        let start = Instant::now();
        for _ in 0..n {
            core.frame(0, b"POLL 900000", Instant::now(), |reply| {
                std::hint::black_box(reply);
            });
        }
        println!(
            "handle_line POLL (64 apps): {:?}/frame",
            start.elapsed() / n
        );
    }

    /// What one weighted REPORT costs the next POLL, and how many
    /// recomputes of the 64-app partition the pair makes. On 64
    /// processors the floor of one uses them all (`ctl_saturated`'s
    /// shape), so no weight moves a target; on 128 the other 64 are
    /// water-filled by weight. With `account_system_load` (on 64) the
    /// load sample is seeded, not read from `/proc`, and its count
    /// changes every 1 000 pairs.
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_report_poll_pair_cost() {
        for (cpus, accounting) in [(64, false), (128, false), (64, true)] {
            let mut cfg = UdsServerConfig::new("/nonexistent", cpus);
            cfg.prune_dead = false;
            cfg.weighted = true;
            cfg.account_system_load = accounting;
            cfg.sample_ttl = Duration::from_secs(3600);
            let mut core = ControlCore::new(cfg, 42);
            let now = Instant::now();
            core.seed_sample(now, 0);
            for pid in 0..64 {
                answer(&mut core, &format!("REGISTER {} 4", 900_000 + pid), now);
            }
            let reports: Vec<String> = (0..64)
                .map(|i| {
                    format!(
                        "REPORT {} jobs_run={} steals=7 local_hits=9",
                        900_000 + i,
                        i * 37
                    )
                })
                .collect();
            let n = 200_000usize;
            let recomputes = core.recomputes();
            let start = Instant::now();
            for i in 0..n {
                if accounting && i % 1_000 == 999 {
                    core.seed_sample(now, (i / 1_000 % 2 == 0).into());
                }
                for line in [reports[i % 64].as_str(), "POLL 900000"] {
                    core.frame(0, line.as_bytes(), now, |reply| {
                        std::hint::black_box(reply);
                    });
                }
            }
            let took = start.elapsed() / n as u32;
            let per_pair = (core.recomputes() - recomputes) as f64 / n as f64;
            let load = if accounting { ", load sampled" } else { "" };
            println!(
                "handle_line REPORT+POLL (64 apps, weighted, {cpus} cpus{load}): {took:?}/pair, \
                 {per_pair:.3} recomputes/pair"
            );
        }
    }

    /// `ctl_saturated`'s frames through `ControlCore::frame`: 64 pids
    /// with `2 + pid % 7` workers on 64 processors, `weighted`, pids and
    /// job counts drawn at random. A POLL-only stream, a REPORT-only
    /// stream, and the benchmark's mix: POLL:REPORT 3:1 (the first POLL
    /// after each REPORT recomputes) with one BYE/REGISTER pair per
    /// 1 024 frames.
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_saturated_mix_cost() {
        const PIDS: u32 = 64;
        const BASE_PID: u32 = 100_000;
        let mut cfg = UdsServerConfig::new("/nonexistent", PIDS as usize);
        cfg.prune_dead = false;
        cfg.weighted = true;
        let mut core = ControlCore::new(cfg, 42);
        let now = Instant::now();
        for pid in BASE_PID..BASE_PID + PIDS {
            answer(&mut core, &format!("REGISTER {pid} {}", 2 + pid % 7), now);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let (mut polls, mut reports, mut mix) = (Vec::new(), Vec::new(), Vec::new());
        while mix.len() < 4096 {
            let pid = BASE_PID + below(u64::from(PIDS)) as u32;
            let jobs = below(1_000_000);
            let poll = format!("POLL {pid}");
            let report = format!(
                "REPORT {pid} jobs_run={jobs} steals={} local_hits={jobs}",
                jobs / 100
            );
            match mix.len() {
                n if n % 1024 == 1022 => {
                    mix.push(format!("BYE {pid}"));
                    mix.push(format!("REGISTER {pid} {}", 2 + pid % 7));
                }
                n if n % 4 == 3 => mix.push(report.clone()),
                _ => mix.push(poll.clone()),
            }
            polls.push(poll);
            reports.push(report);
        }
        let mut best_ns = |frames: &[String]| {
            (0..7)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..25 {
                        for f in frames {
                            core.frame(0, f.as_bytes(), now, |reply| {
                                std::hint::black_box(reply);
                            });
                        }
                    }
                    start.elapsed().as_nanos() as f64 / (25 * frames.len()) as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (mix_ns, poll_ns, report_ns) = (best_ns(&mix), best_ns(&polls), best_ns(&reports));
        println!(
            "ctl_saturated frames (64 apps, weighted, 64 cpus), best of 7: \
             POLL {poll_ns:.1} ns, REPORT {report_ns:.1} ns, 3:1 mix {mix_ns:.1} ns/frame"
        );
    }

    #[test]
    fn reactor_serves_pipelined_bursts_in_order_and_batches() {
        // A client that writes a whole window of frames in one send must
        // get every reply, in order — and the reactor should batch them
        // (many frames per wakeup, one flush).
        let path = sock_path("pipelined");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        let pid = std::process::id();
        let burst: String = (0..32).map(|_| format!("POLL {pid}\n")).collect();
        c.send(&burst).expect("send burst");
        for i in 0..32 {
            let reply = c.read_line().expect("reply");
            assert!(
                reply.starts_with("TARGET "),
                "frame {i}: unexpected reply {reply:?}"
            );
        }
        let stats = server.stats();
        assert!(stats.counters["reactor_wakeups"] >= 1);
        assert!(
            stats.counters["frames_batched"] >= 1,
            "a 32-frame burst should batch: {:?}",
            stats.counters
        );
    }

    #[test]
    fn reactor_coalesces_register_bursts_into_one_recompute() {
        // N back-to-back REGISTERs dirty the partition N times but must
        // recompute it once, at the next read (the following POLL).
        let path = sock_path("coalesce");
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.prune_dead = false; // fake pids below must survive
        let server = UdsServer::start(cfg).expect("server");
        let mut c = App::register(&path, 4).expect("client");
        let mut burst = String::new();
        for pid in 910_000..910_006 {
            burst.push_str(&format!("REGISTER {pid} 4\n"));
        }
        c.send(&burst).expect("send burst");
        for _ in 0..6 {
            assert!(c.read_line().expect("reply").starts_with("OK"));
        }
        let _ = c.poll().expect("poll");
        let stats = server.stats();
        assert!(
            stats.counters["recompute_coalesced"] >= 5,
            "burst of 6 registers should coalesce: {:?}",
            stats.counters
        );
    }

    #[test]
    fn reactor_survives_torn_writes_and_half_closed_clients() {
        // Frames trickled one byte at a time still parse; a client that
        // disappears mid-frame doesn't wedge the loop for others.
        let path = sock_path("torn");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut a = App::register(&path, 16).expect("a");
        let pid = std::process::id();
        let frame = format!("POLL {pid}\n");
        for byte in frame.bytes() {
            a.send(std::str::from_utf8(&[byte]).expect("ascii"))
                .expect("send byte");
        }
        assert!(a.read_line().expect("reply").starts_with("TARGET "));
        // A second client dies mid-frame (no newline, then EOF).
        let mut b = App::register(&path, 16).expect("b");
        b.send("POLL 91").expect("partial");
        drop(b);
        // The survivor still gets service.
        assert_eq!(a.poll().expect("poll after torn peer"), 8);
    }

    /// Writes `frame(0)`, `frame(1)`, … to `stream` without reading,
    /// until a write times out or `limit` bytes went out. Returns the
    /// bytes written.
    fn push_unread(stream: &mut UnixStream, frame: impl Fn(u64) -> String, limit: usize) -> usize {
        stream
            .set_write_timeout(Some(Duration::from_millis(200)))
            .expect("write timeout");
        let (mut sent, mut k) = (0, 0);
        let mut chunk: Vec<u8> = Vec::new();
        let mut off = 0;
        while sent < limit {
            if off == chunk.len() {
                chunk.clear();
                off = 0;
                while chunk.len() < 64 * 1024 {
                    chunk.extend_from_slice(frame(k).as_bytes());
                    k += 1;
                }
            }
            match stream.write(&chunk[off..]) {
                Ok(n) => (off, sent) = (off + n, sent + n),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => panic!("write failed: {e}"),
            }
        }
        sent
    }

    /// The number of reactor wakeups in 300 ms, once the loop settled.
    fn idle_wakeups(server: &UdsServer) -> u64 {
        std::thread::sleep(Duration::from_millis(50));
        let before = server.stats().counters["reactor_wakeups"];
        std::thread::sleep(Duration::from_millis(300));
        server.stats().counters["reactor_wakeups"] - before
    }

    #[test]
    fn a_client_that_never_reads_is_throttled_then_answered_in_order() {
        let (path, server) = reactor_server("backpressure");
        let epoch = server.epoch();
        // Frame k is `REPORT 7 seq=<k/2>` for even k and `STATS 7` for
        // odd k, whose reply echoes the report: each reply names the
        // frame it answers.
        let frame = |k: u64| match k % 2 {
            0 => format!("REPORT 7 seq={}\n", k / 2),
            _ => "STATS 7\n".to_string(),
        };
        let reply = |k: u64| match k % 2 {
            0 => format!("OK {epoch}\n"),
            _ => format!("STATS seq={}\n", k / 2),
        };
        let mut stream = UnixStream::connect(&path).expect("connect");
        let sent = push_unread(&mut stream, frame, 64 << 20);
        assert!(
            sent < 8 << 20,
            "the server took {} MiB from a client that reads nothing",
            sent >> 20
        );
        // Throttled, the connection is not watched for reading: its
        // unread bytes would otherwise end every wait at once.
        let spent = idle_wakeups(&server);
        assert!(spent < 30, "{spent} wakeups in 300 ms while throttled");

        // Every frame sent whole is answered, once, in order; the torn
        // one is answered once its tail arrives.
        let (mut whole, mut at) = (0u64, 0usize);
        while at + frame(whole).len() <= sent {
            at += frame(whole).len();
            whole += 1;
        }
        stream
            .set_read_timeout(Some(DEFAULT_IO_TIMEOUT))
            .expect("read timeout");
        let mut replies = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        for k in 0..whole {
            line.clear();
            replies.read_line(&mut line).expect("reply");
            assert_eq!(line, reply(k), "reply {k} of {whole}");
        }
        stream
            .write_all(&frame(whole).as_bytes()[sent - at..])
            .expect("the torn frame's tail");
        line.clear();
        replies.read_line(&mut line).expect("reply");
        assert_eq!(line, reply(whole));
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        line.clear();
        replies
            .read_to_string(&mut line)
            .expect("read until closed");
        assert_eq!(line, "", "replies beyond one per frame");
    }

    #[test]
    fn a_throttled_client_that_hangs_up_is_closed() {
        let (path, server) = reactor_server("backpressure-hangup");
        let mut stream = UnixStream::connect(&path).expect("connect");
        let sent = push_unread(&mut stream, |_| "STATS ALL\n".to_string(), 64 << 20);
        assert!(sent < 8 << 20, "{} MiB taken", sent >> 20);
        drop(stream);
        // A hang-up left unhandled would end every wait at once.
        let spent = idle_wakeups(&server);
        assert!(spent < 30, "{spent} wakeups in 300 ms after the hang-up");
        let mut c = App::register(&path, 4).expect("client");
        assert_eq!(c.poll().expect("poll"), 4);
    }

    /// A reactor server on 8 processors whose fake pids survive.
    fn reactor_server(tag: &str) -> (PathBuf, UdsServer) {
        let path = sock_path(tag);
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.prune_dead = false;
        let server = UdsServer::start(cfg).expect("server");
        (path, server)
    }

    /// Waits until the server's `parked` gauge reads `n`.
    fn wait_parked(server: &UdsServer, n: i64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.stats().gauges["parked"] != n {
            assert!(Instant::now() < deadline, "never saw {n} parked polls");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn parked_poll_is_answered_when_the_target_changes() {
        let (path, server) = reactor_server("park-toggle");
        let pid = std::process::id();
        let mut app = App::register(&path, 8).expect("app");
        let (target, epoch, _) = app.poll_reply().expect("poll").target().expect("target");
        assert_eq!(target, 8);
        // Heard something else: answered at once, nothing parked.
        let start = Instant::now();
        let reply = app
            .poll_wait_reply(7, epoch, None, Duration::from_secs(5))
            .expect("stale wait");
        assert_eq!(reply.target().expect("target").0, 8);
        assert!(start.elapsed() < Duration::from_secs(1));
        assert_eq!(server.stats().counters["polls_parked"], 0);

        // Heard exactly this: parked until a REGISTER halves the share
        // (and again until a BYE gives it back). The bound is on the
        // fastest of a few rounds: the suite's other tests share the CPUs.
        let mut other = UdsClient::connect(&path, DEFAULT_IO_TIMEOUT).expect("other");
        let mut fastest = Duration::MAX;
        for round in 0..6 {
            let (heard, toggle, news) = match round % 2 {
                0 => (8, "REGISTER 910001 8\n", 4),
                _ => (4, "BYE 910001\n", 8),
            };
            app.send(&format!("POLL {pid} wait 5000 {heard} {epoch}\n"))
                .expect("send");
            wait_parked(&server, 1);
            let toggled = Instant::now();
            other.send(toggle).expect("toggle");
            assert!(other.read_line().expect("reply").starts_with("OK "));
            assert_eq!(
                app.read_line().expect("released"),
                format!("TARGET {news} {epoch}")
            );
            fastest = fastest.min(toggled.elapsed());
        }
        assert!(
            fastest < Duration::from_millis(5),
            "a parked poll waited {fastest:?} for a target decided at once"
        );
        let stats = server.stats();
        assert_eq!(stats.counters["polls_parked"], 6);
        assert_eq!(stats.counters["park_released_changed"], 6);
        assert_eq!(stats.counters["park_released_held"], 0);
        assert_eq!(stats.gauges["parked"], 0);
    }

    #[test]
    fn parked_poll_returns_the_unchanged_target_when_the_hold_runs_out() {
        let (path, server) = reactor_server("park-hold");
        let mut app = App::register(&path, 8).expect("app");
        let (_, epoch, _) = app.poll_reply().expect("poll").target().expect("target");
        let hold = Duration::from_millis(100);
        // Never early; on time in the best of a few rounds (the suite's
        // other tests share the CPUs).
        let mut soonest = Duration::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            let reply = app.poll_wait_reply(8, epoch, None, hold).expect("held");
            let took = start.elapsed();
            assert_eq!(reply.target().expect("target"), (8, epoch, None));
            assert!(
                took >= hold,
                "released after {took:?}, before the hold ran out"
            );
            soonest = soonest.min(took);
        }
        assert!(
            soonest <= hold + Duration::from_millis(20),
            "released {soonest:?} after a {hold:?} hold"
        );
        // The cpus form holds the same way and returns the set.
        let reply = app
            .poll_wait_reply(8, epoch, Some(&[0, 1, 2, 3, 4, 5, 6, 7]), hold)
            .expect("held cpus");
        assert_eq!(
            reply.target().expect("target"),
            (8, epoch, Some((0..8).collect()))
        );
        let stats = server.stats();
        assert_eq!(stats.counters["park_released_held"], 4);
        assert_eq!(stats.counters["park_released_changed"], 0);
    }

    #[test]
    fn frame_behind_a_park_releases_it_and_replies_stay_in_order() {
        let (path, server) = reactor_server("park-pipelined");
        let pid = std::process::id();
        let mut app = App::register(&path, 8).expect("app");
        let (_, epoch, _) = app.poll_reply().expect("poll").target().expect("target");
        // Both frames in one write: the park does not outlive its wakeup.
        app.send(&format!("POLL {pid} wait 5000 8 {epoch}\nSTATS {pid}\n"))
            .expect("send");
        assert_eq!(app.read_line().expect("first"), format!("TARGET 8 {epoch}"));
        assert_eq!(app.read_line().expect("second"), "STATS");
        // And with the park settled before the next frame arrives.
        app.send(&format!("POLL {pid} wait 5000 8 {epoch}\n"))
            .expect("send");
        wait_parked(&server, 1);
        app.send(&format!("REPORT {pid} jobs_run=1\n"))
            .expect("send");
        assert_eq!(app.read_line().expect("first"), format!("TARGET 8 {epoch}"));
        assert_eq!(app.read_line().expect("second"), format!("OK {epoch}"));
        let stats = server.stats();
        assert_eq!(stats.gauges["parked"], 0);
        assert_eq!(stats.counters["park_released_held"], 2);
    }

    #[test]
    fn a_park_released_early_leaves_the_reactor_asleep() {
        let (path, server) = reactor_server("park-early");
        let pid = std::process::id();
        let mut app = App::register(&path, 8).expect("app");
        let (_, epoch, _) = app.poll_reply().expect("poll").target().expect("target");
        // The only park, released by the next frame on its connection
        // well before its 20 ms hold would have run out.
        app.send(&format!("POLL {pid} wait 20 8 {epoch}\n"))
            .expect("send");
        wait_parked(&server, 1);
        app.send(&format!("REPORT {pid} jobs_run=1\n"))
            .expect("send");
        assert_eq!(app.read_line().expect("first"), format!("TARGET 8 {epoch}"));
        assert_eq!(app.read_line().expect("second"), format!("OK {epoch}"));
        // With nothing parked and the next lease 30 s away, the loop
        // sleeps its 100 ms cap, also after the forgotten hold's end.
        std::thread::sleep(Duration::from_millis(40));
        let before = server.stats().counters["reactor_wakeups"];
        std::thread::sleep(Duration::from_millis(300));
        let spent = server.stats().counters["reactor_wakeups"] - before;
        assert!(spent < 30, "{spent} wakeups in 300 ms with nothing to do");
    }

    #[test]
    fn a_thousand_parked_connections_are_released_by_one_register() {
        const N: usize = 1000;
        // 2 N descriptors in this process, beside the other tests'.
        raise_fd_limit(4 * N as u64);
        let (path, server) = reactor_server("park-thousand");
        let pid = std::process::id();
        let mut app = App::register(&path, 8).expect("app");
        let (_, epoch, _) = app.poll_reply().expect("poll").target().expect("target");
        let frame = format!("POLL {pid} wait 10000 8 {epoch}\n");
        let mut conns: Vec<UdsClient> = (0..N)
            .map(|_| {
                let mut c = UdsClient::connect(&path, DEFAULT_IO_TIMEOUT).expect("connect");
                c.send(&frame).expect("send");
                c
            })
            .collect();
        wait_parked(&server, N as i64);
        let wakeups = server.stats().counters["reactor_wakeups"];
        app.send("REGISTER 910002 8\n").expect("register");
        assert!(app.read_line().expect("reply").starts_with("OK "));
        for c in &mut conns {
            assert_eq!(
                c.read_line().expect("released"),
                format!("TARGET 4 {epoch}")
            );
        }
        let stats = server.stats();
        assert_eq!(stats.counters["park_released_changed"], N as u64);
        assert_eq!(stats.gauges["parked"], 0);
        // One wakeup released them all (a timer wakeup may sit beside it).
        let spent = stats.counters["reactor_wakeups"] - wakeups;
        assert!(spent <= 3, "{spent} wakeups to release {N} parks");
    }

    /// Lifts this process's soft open-files limit to at least `want`
    /// (bounded by the hard limit).
    fn raise_fd_limit(want: u64) {
        #[repr(C)]
        struct Rlimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
        }
        const RLIMIT_NOFILE: i32 = 7;
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: `lim` is a live `struct rlimit` (two 64-bit words on
        // 64-bit Linux) for both calls; the kernel only reads or writes it.
        unsafe {
            assert_eq!(getrlimit(RLIMIT_NOFILE, &mut lim), 0);
            if lim.cur < want {
                lim.cur = want.min(lim.max);
                assert_eq!(setrlimit(RLIMIT_NOFILE, &lim), 0);
            }
        }
    }

    #[test]
    fn weighted_equal_reports_reduce_to_equal_partition() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.weighted = true;
        let now = Instant::now();
        let mut core = two_app_core(cfg, now);
        // With no reports at all, weighting degrades to equal.
        assert_eq!(targets(&mut core, now), [4, 4]);
        // And with identical throughput reports for both apps too.
        for pid in [std::process::id(), 1] {
            answer(
                &mut core,
                &format!("REPORT {pid} jobs_run=500 steals=7"),
                now,
            );
        }
        assert_eq!(targets(&mut core, now), [4, 4]);
    }

    #[test]
    fn weighted_unequal_reports_skew_shares() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.weighted = true;
        let now = Instant::now();
        let reported = |cfg: UdsServerConfig| {
            let mut core = two_app_core(cfg, now);
            let me = std::process::id();
            answer(&mut core, &format!("REPORT {me} jobs_run=3000"), now);
            answer(&mut core, "REPORT 1 jobs_run=100", now);
            targets(&mut core, now)
        };
        let (hot, cold) = match reported(cfg.clone())[..] {
            [hot, cold] => (hot, cold),
            ref t => panic!("two apps, got {t:?}"),
        };
        assert!(hot > cold, "throughput should skew shares: {hot} vs {cold}");
        assert_eq!(hot + cold, 8, "still partitions the whole machine");
        // The same reports with weighting off: equal shares.
        cfg.weighted = false;
        assert_eq!(reported(cfg), [4, 4]);
    }

    #[test]
    fn weighted_targets_survive_a_snapshot_restore() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 16);
        cfg.prune_dead = false;
        cfg.weighted = true;
        let now = Instant::now();
        let mut before = ControlCore::new(cfg.clone(), 7);
        for line in [
            "REGISTER 900001 16",
            "REGISTER 900002 16",
            "REGISTER 900003 16",
            "REPORT 900001 jobs_run=4000 steals=2",
            "REPORT 900003 steals=5 jobs_run=1000",
        ] {
            answer(&mut before, line, now);
        }
        let targets_before = targets(&mut before, now);
        assert!(
            targets_before[0] > targets_before[2] && targets_before[2] > targets_before[1],
            "reports should skew shares: {targets_before:?}"
        );
        let snap = before.to_snapshot(now);
        let mut after = ControlCore::new(cfg, 7);
        after.restore(&snap, now);
        assert_eq!(targets(&mut after, now), targets_before);
    }

    #[test]
    fn a_snapshot_does_not_depend_on_the_order_reports_arrived_in() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 64);
        cfg.prune_dead = false;
        let now = Instant::now();
        // Registered pids and pids that only report, spread out so that
        // they share hash buckets.
        let pids: Vec<u32> = (0..300).map(|i| 900_000 + i * 37).collect();
        let snapshot = |reporting: &mut dyn Iterator<Item = &u32>| {
            let mut core = ControlCore::new(cfg.clone(), 7);
            for pid in pids.iter().step_by(2) {
                answer(&mut core, &format!("REGISTER {pid} 4"), now);
            }
            for pid in reporting {
                answer(&mut core, &format!("REPORT {pid} jobs_run={pid}"), now);
            }
            core.to_snapshot(now).encode()
        };
        let forward = snapshot(&mut pids.iter());
        let backward = snapshot(&mut pids.iter().rev());
        assert!(forward.contains("jobs_run=900037"), "{forward}");
        assert_eq!(forward, backward);
    }

    /// The partition the server caches — slot weights parsed as
    /// reports arrive, targets recomputed behind the dirty gate, CPU
    /// sets cut on demand — always equals a from-scratch one. The
    /// model is the test's own table of live registrations (in
    /// order, with their last sign of life) and latest reports (an
    /// unregistered pid's for one lease), replayed into a fresh
    /// state after every step.
    ///
    /// On `cpus` processors (cut from an interleaved order) up to six
    /// pids of 1–9 workers meet all three regimes of the exact cache;
    /// the steps that ended in each are returned as `[floor takes every
    /// processor, weights divide the rest, every demand fits]`. In the
    /// first and last a weighted REPORT recomputes nothing.
    ///
    /// Parked polls ride along: some steps park a poll (each pid has
    /// a connection per form) or fire the timer, and after every
    /// step the parks the server holds are exactly the ones the
    /// model expects, each for a pid still registered and each still
    /// owed the reply its client heard — whatever changed an answer
    /// also delivered it.
    fn replay_against_a_from_scratch_core(cpus: u32, steps: Vec<(u32, u32, u32, u64)>) -> [u64; 3] {
        let mut cfg = UdsServerConfig::new("/nonexistent", cpus as usize);
        cfg.prune_dead = false;
        cfg.weighted = true;
        let half = cpus / 2;
        cfg.cpu_order = Some((0..half).flat_map(|i| [i, half + i]).collect());
        let mut regimes = [0u64; 3];
        let mut real = ControlCore::new(cfg.clone(), 7);
        let mut regs: Vec<(u32, u32, Instant)> = Vec::new();
        let mut reports = std::collections::BTreeMap::<u32, String>::new();
        // pid → when its report is dropped unless it registers first
        let mut unclaimed = std::collections::BTreeMap::<u32, Instant>::new();
        // connection → (pid, the plain form of its poll, the reply
        // heard, the end of the hold)
        let mut parked = std::collections::BTreeMap::<u64, (u32, String, String, Instant)>::new();
        let mut now = Instant::now();
        for (op, pid, arg, gap_ms) in steps {
            now += Duration::from_millis(gap_ms);
            let pid = 900_000 + pid;
            let slot = regs.iter().position(|r| r.0 == pid);
            let mut own_conn = None;
            // POLL and STATS ALL expire lapsed leases before they
            // answer (and a POLL then refreshes its own); the other
            // verbs leave them for the next prune.
            let (written, prunes, polls) = match op {
                0 | 1 => {
                    let n = 1 + arg % 9;
                    let written = step(&mut real, 0, &format!("REGISTER {pid} {n}"), now);
                    match slot {
                        Some(i) => regs[i] = (pid, n, now),
                        None => regs.push((pid, n, now)),
                    }
                    unclaimed.remove(&pid);
                    (written, false, false)
                }
                2 => {
                    let written = step(&mut real, 0, &format!("BYE {pid}"), now);
                    regs.retain(|r| r.0 != pid);
                    reports.remove(&pid);
                    unclaimed.remove(&pid);
                    (written, false, false)
                }
                3 | 4 => {
                    let line = if arg % 11 == 0 {
                        format!("steals={arg}")
                    } else {
                        format!("jobs_run={arg} steals=1")
                    };
                    let written = step(&mut real, 0, &format!("REPORT {pid} {line}"), now);
                    if slot.is_none() && !reports.contains_key(&pid) {
                        unclaimed.insert(pid, now + cfg.lease_ttl);
                    }
                    reports.insert(pid, line);
                    if let Some(i) = slot {
                        regs[i].2 = now;
                    }
                    (written, false, false)
                }
                5 | 6 => (step(&mut real, 0, &format!("POLL {pid}"), now), true, true),
                7 => (
                    step(&mut real, 0, &format!("POLL {pid} cpus"), now),
                    true,
                    true,
                ),
                8 => (step(&mut real, 0, "STATS ALL", now), true, false),
                // A poll, then the same poll again in the wait form,
                // saying what the first one heard: it parks. (A park
                // the connection already held ends with the first.)
                9 | 10 => {
                    let cpus = arg % 2 == 1;
                    let conn = u64::from(1 + 2 * (pid - 900_000) + u32::from(cpus));
                    own_conn = Some(conn);
                    let plain = if cpus {
                        format!("POLL {pid} cpus")
                    } else {
                        format!("POLL {pid}")
                    };
                    let mut written = step(&mut real, conn, &plain, now);
                    parked.remove(&conn);
                    let heard = written
                        .iter()
                        .rfind(|w| w.0 == conn)
                        .expect("a reply")
                        .1
                        .clone();
                    if let Some(payload) = heard.strip_prefix("TARGET ") {
                        let hold = Duration::from_millis(u64::from(7 * arg));
                        let wait =
                            format!("{plain} wait {} {}", hold.as_millis(), payload.trim_end());
                        let before = written.len();
                        written.extend(step(&mut real, conn, &wait, now));
                        let until = now + hold.min(cfg.lease_ttl / 2);
                        if until > now {
                            prop_assert!(real.is_parked(conn), "{} did not park", wait);
                            parked.insert(conn, (pid, plain, heard, until));
                        } else {
                            // A hold of 0 runs out as it starts: the wakeup that parks
                            // the poll releases it, with the reply the client already
                            // heard.
                            prop_assert!(!real.is_parked(conn), "{} stayed parked", wait);
                            let mine: Vec<_> =
                                written[before..].iter().filter(|w| w.0 == conn).collect();
                            prop_assert_eq!(mine.len(), 1, "{} answered once", wait);
                            prop_assert_eq!(&mine[0].1, &heard);
                        }
                    }
                    (written, true, true)
                }
                _ => (due(&mut real, now), true, false),
            };
            if prunes {
                unclaimed.retain(|pid, until| {
                    let waits = *until > now;
                    if !waits {
                        reports.remove(pid);
                    }
                    waits
                });
                regs.retain(|r| {
                    let live = r.2 + cfg.lease_ttl > now;
                    if !live {
                        reports.remove(&r.0);
                    }
                    live
                });
            }
            if polls {
                if let Some(r) = regs.iter_mut().find(|r| r.0 == pid) {
                    r.2 = now;
                }
            }
            // A reply to a connection the step did not talk on ends
            // that connection's park — which takes news or the end
            // of the hold — and, like any poll reply, refreshes the
            // lease.
            for (conn, reply) in &written {
                if *conn == 0 || Some(*conn) == own_conn {
                    continue;
                }
                let (pid, _, heard, until) = parked.remove(conn).expect("a reply to a park");
                prop_assert!(
                    *reply != heard || now >= until,
                    "connection {} released early with nothing new: {}",
                    conn,
                    reply
                );
                if let Some(r) = regs.iter_mut().find(|r| r.0 == pid) {
                    r.2 = now;
                }
            }

            let mut fresh = ControlCore::new(cfg.clone(), 7);
            for &(pid, n, _) in &regs {
                answer(&mut fresh, &format!("REGISTER {pid} {n}"), now);
            }
            for (pid, line) in &reports {
                answer(&mut fresh, &format!("REPORT {pid} {line}"), now);
            }
            prop_assert_eq!(assignments(&mut real, now), assignments(&mut fresh, now));
            let held = real.registry().snapshot().gauges["parked"];
            prop_assert_eq!(held, parked.len() as i64);
            for (conn, (pid, plain, heard, _)) in &parked {
                prop_assert!(real.is_parked(*conn), "connection {} lost its park", conn);
                prop_assert!(
                    regs.iter().any(|r| r.0 == *pid),
                    "{} parked, not registered",
                    pid
                );
                prop_assert_eq!(
                    &answer(&mut fresh, plain, now),
                    heard,
                    "{} is owed news",
                    conn
                );
            }
            let free = cpus.saturating_sub(regs.len() as u32);
            let room: u32 = regs.iter().map(|r| r.1 - 1).sum();
            let regime = if free == 0 {
                0
            } else if room > free {
                1
            } else {
                2
            };
            regimes[regime] += 1;
        }
        regimes
    }

    /// Case 3913 of 20 000 of the replay below, the first to draw a
    /// `wait 0` poll (the last step): the core answers it in the wakeup
    /// that parks it, its hold being over as it starts, where the model
    /// once expected a park.
    #[test]
    fn replay_with_a_zero_hold_poll_matches() {
        replay_against_a_from_scratch_core(
            8,
            vec![
                (7, 5, 3850, 9831),
                (7, 1, 3255, 6087),
                (10, 4, 2432, 2054),
                (5, 2, 1667, 4264),
                (1, 3, 3662, 6730),
                (5, 1, 3273, 4195),
                (8, 0, 3138, 3274),
                (7, 3, 1635, 3721),
                (7, 2, 4438, 5168),
                (2, 0, 3865, 6163),
                (3, 1, 177, 10132),
                (3, 2, 2975, 3837),
                (5, 2, 4319, 5550),
                (9, 1, 1101, 3515),
                (5, 2, 4517, 2457),
                (4, 3, 2582, 3350),
                (6, 5, 3422, 7761),
                (2, 5, 3253, 8193),
                (6, 1, 4971, 4144),
                (10, 5, 1452, 2722),
                (9, 5, 2399, 10776),
                (11, 2, 175, 10022),
                (7, 4, 4878, 9716),
                (10, 2, 2791, 8740),
                (9, 2, 1011, 9350),
                (8, 1, 142, 3663),
                (11, 1, 1670, 3615),
                (0, 0, 3504, 5303),
                (11, 0, 4369, 3718),
                (1, 4, 1868, 2165),
                (7, 5, 3657, 9374),
                (1, 2, 4630, 4319),
                (0, 5, 4521, 7900),
                (9, 2, 0, 10785),
            ],
        );
    }

    /// CI's chaos lane: `cargo test --release -p native-rt --lib --
    /// --ignored sweep_cached_partition_replay --nocapture`.
    /// [`replay_against_a_from_scratch_core`] on 20 000 seeded cases, a
    /// third each on 2, 4 and 8 processors. A failing case prints the
    /// call that replays it.
    #[test]
    #[ignore]
    fn sweep_cached_partition_replay() {
        const CASES: u64 = 20_000;
        let started = Instant::now();
        let mut regimes = [0u64; 3];
        for case in 0..CASES {
            let mut state = case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut below = |n: u64| crate::xorshift(&mut state) % n;
            let cpus = 2 << (case % 3);
            let len = 1 + below(47);
            let steps: Vec<(u32, u32, u32, u64)> = (0..len)
                .map(|_| {
                    let (op, pid, arg) = (below(12), below(6), below(5_000));
                    (op as u32, pid as u32, arg as u32, below(12_000))
                })
                .collect();
            match std::panic::catch_unwind(|| {
                replay_against_a_from_scratch_core(cpus, steps.clone())
            }) {
                Ok(seen) => regimes.iter_mut().zip(seen).for_each(|(n, k)| *n += k),
                Err(panic) => {
                    eprintln!(
                        "case {case}: replay_against_a_from_scratch_core({cpus}, vec!{steps:?})"
                    );
                    std::panic::resume_unwind(panic);
                }
            }
        }
        let took = started.elapsed().as_secs_f64();
        let [floor, weights, fit] = regimes;
        println!(
            "cached-partition sweep: {CASES} cases in {took:.2} s; steps ending with the floor \
             taking every processor {floor}, weights dividing the rest {weights}, every demand \
             fitting {fit}"
        );
    }

    /// With `account_system_load`, a load sample dirties the cached
    /// partition only when its count differs from the one the targets
    /// were computed with: an unchanged one leaves the recompute count
    /// and the parked polls alone, a changed one recomputes once and
    /// releases the parks whose reply it moved.
    #[test]
    fn a_load_sample_recomputes_only_when_its_count_changes() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.prune_dead = false;
        cfg.account_system_load = true;
        cfg.sample_ttl = Duration::from_secs(3600);
        let mut core = ControlCore::new(cfg, 7);
        let mut now = Instant::now();
        core.seed_sample(now, 0);
        answer(&mut core, "REGISTER 900001 8", now);
        answer(&mut core, "REGISTER 900002 8", now);
        assert_eq!(answer(&mut core, "POLL 900001", now), "TARGET 4 7\n");
        assert_eq!(
            answer(&mut core, "POLL 900002 cpus", now),
            "TARGET 4 7 cpus=4-7\n"
        );
        let parks = [
            (1, "POLL 900001 wait 5000 4 7"),
            (2, "POLL 900002 cpus wait 5000 4 7 cpus=4-7"),
        ];
        for (conn, line) in parks {
            assert!(step(&mut core, conn, line, now).is_empty(), "{line}");
        }
        let recomputes = core.recomputes();

        now += Duration::from_millis(1);
        core.seed_sample(now, 0);
        assert!(due(&mut core, now).is_empty());
        assert_eq!(answer(&mut core, "POLL 900001", now), "TARGET 4 7\n");
        assert_eq!(core.recomputes(), recomputes, "an unchanged sample");
        assert!(core.is_parked(1) && core.is_parked(2));

        // One runnable outsider: 7 processors, 4 + 3. Only the second
        // pid's reply moved.
        now += Duration::from_millis(1);
        core.seed_sample(now, 1);
        assert_eq!(
            due(&mut core, now),
            vec![(2, "TARGET 3 7 cpus=4-6\n".to_string())]
        );
        assert_eq!(core.recomputes(), recomputes + 1, "a changed sample");
        assert!(core.is_parked(1) && !core.is_parked(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// [`replay_against_a_from_scratch_core`] on random steps, on 2,
        /// 4 or 8 processors.
        #[test]
        fn cached_partition_matches_a_from_scratch_replay(
            cpus in (1u32..4).prop_map(|k| 1 << k),
            steps in prop::collection::vec((0u32..12, 0u32..6, 0u32..5_000, 0u64..12_000), 1..48),
        ) {
            replay_against_a_from_scratch_core(cpus, steps);
        }

        /// The wire parser never panics and always produces exactly one
        /// newline-terminated reply — `ERR …` or a valid verb reply —
        /// for arbitrary byte lines (lossy-decoded, as `read_line` would
        /// accept or reject them).
        #[test]
        fn wire_parser_total_on_arbitrary_lines(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let line = String::from_utf8_lossy(&bytes).into_owned();
            let reply = fuzz_reply(&line);
            prop_assert!(reply.ends_with('\n'), "reply not newline-terminated: {:?}", reply);
            prop_assert_eq!(reply.matches('\n').count(), 1);
            let valid = reply.starts_with("ERR ")
                || reply.starts_with("OK ")
                || reply.starts_with("TARGET ")
                || reply.starts_with("TRACE ")
                || reply.starts_with("STATS");
            prop_assert!(valid, "unclassifiable reply: {:?}", reply);
        }

        /// Well-formed verbs with arbitrary numeric arguments never panic
        /// either (overflow pids, absurd worker counts, huge stats pids).
        #[test]
        fn wire_parser_total_on_numeric_edge_cases(
            verb in 0usize..7,
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            let line = match verb {
                0 => format!("REGISTER {a} {b}"),
                1 => format!("POLL {a}"),
                2 => format!("BYE {a}"),
                3 => format!("REPORT {a} x={b}"),
                4 => format!("TRACE {a} {b}"),
                5 => format!("EVENTS {a} {b}:js:0:0"),
                _ => format!("STATS {a}"),
            };
            let reply = fuzz_reply(&line);
            prop_assert!(reply.ends_with('\n'));
        }

        /// The TRACE verb is total over arbitrary pid/max strings (not
        /// just numeric ones): every reply is a single line, either a
        /// well-formed `TRACE <epoch> <n> …` or an `ERR`.
        #[test]
        fn trace_verb_total_on_arbitrary_arguments(
            pid in "[ -~]{0,12}",
            max in "[ -~]{0,12}",
        ) {
            let reply = fuzz_reply(&format!("TRACE {pid} {max}"));
            prop_assert!(reply.ends_with('\n'));
            prop_assert_eq!(reply.matches('\n').count(), 1);
            prop_assert!(
                reply.starts_with("TRACE ") || reply.starts_with("ERR "),
                "unclassifiable reply: {:?}", reply
            );
            if let Some(rest) = reply.strip_prefix("TRACE ") {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                prop_assert!(fields.len() >= 2, "short TRACE reply: {:?}", reply);
                prop_assert!(fields[0].parse::<u64>().is_ok());
                prop_assert!(fields[1].parse::<usize>().is_ok());
            }
        }
    }
}
