//! Cross-process control over Unix domain sockets.
//!
//! The closest native analog of the paper's deployment: the server is a
//! standalone daemon ("a user-level centralized server"), applications are
//! *separate processes* that register over a socket, poll periodically,
//! and say goodbye when done — the same REGISTER/POLL/BYE protocol as the
//! simulated server, as newline-terminated text:
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
//! ([`procctl::cpu_range`]). The extension is client-opt-in per
//! request, which is what makes it wire-compatible in both directions: an
//! *old client* never sends the suffix and sees unchanged `TARGET <n>
//! <epoch>` replies; a *new client* against an *old server* gets `ERR
//! malformed` (the old parser's total fallback), which
//! [`UdsClient::poll_cpus_reply`] maps to [`CpusPollReply::Unsupported`]
//! — the cue to fall back to count-only polls.
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
//! is forgotten without a reply. Compatibility is the `cpus` story again:
//! an old client never sends the suffix; an old server answers `ERR
//! malformed`. The client takes any `ERR` other than `unregistered` as
//! [`CpusPollReply::Unsupported`] and polls the old way for the rest of
//! the connection.
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
//! - **Client timeouts.** [`UdsClient::register`] arms read *and* write
//!   timeouts on the stream, so even the unsupervised client can never
//!   hang indefinitely on a wedged server. For automatic reconnect,
//!   backoff, and degraded-mode fallback, wrap it in
//!   [`crate::SupervisedClient`].
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
//! server (the reporting poller does this on every poll), and anyone can
//! read back the latest report for a given pid — cross-process visibility
//! into the work-stealing counters (`steals`, `local_hits`, …) without
//! attaching to the application:
//!
//! ```text
//! client → server:  REPORT <pid> jobs_run=100 steals=7 ...
//! server → client:  OK <epoch>
//! client → server:  STATS <pid>
//! server → client:  STATS jobs_run=100 steals=7 ...
//! ```
//!
//! **Flight-recorder extension** (observability, same compatibility
//! story as `cpus`). Applications push batches of scheduling events
//! drained from their [`crate::FlightRecorder`] rings; the server keeps
//! a bounded per-pid journal — interleaving its own partition-decision
//! instants — that anyone (e.g. `schedtop`, the Perfetto merge) can
//! drain back out, correlated across restarts by the boot epoch:
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
//! nworkers=<n> <latest report>|…`. All three verbs degrade against
//! pre-extension servers: the old parser answers `ERR malformed`, which
//! the client surfaces as `Unsupported` ([`EventsReply`],
//! [`TraceReply`], [`StatsAllReply`]) instead of an error.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use procctl::{
    cpu_range, partition_into, validate_cpus, validate_processes, AppDemand, PartitionScratch,
    RecomputeGate,
};

use crate::controller::TargetSlot;
use crate::proc_scan;
use crate::stats::{Counter, Gauge, Registry, Snapshot};
use crate::trace::{self, EventKind, TraceEvent};

/// Default read/write timeout armed on every client stream: the longest a
/// client call can block on a wedged (alive but unresponsive) server.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Default registration lease: a client that neither POLLs nor REPORTs
/// for this long is deregistered and its processor share reclaimed.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// Default per-application journal capacity: how many flight-recorder
/// events (app-pushed via `EVENTS`, plus the server's own decision
/// instants) the server retains per pid before dropping the oldest.
pub const DEFAULT_JOURNAL_CAP: usize = 4096;

/// Default number of journal events a `TRACE <pid>` without an explicit
/// `max` drains in one reply.
pub const DEFAULT_TRACE_MAX: usize = 256;

/// How often the `/proc` liveness sweep may run. Scanning `/proc` is one
/// `stat(2)` per registered application; doing it on *every* poll made
/// the dead-process check O(apps) syscalls per frame. Leases remain the
/// authoritative reclaim mechanism — the sweep only accelerates cleanup
/// of processes that died without a BYE.
const PROC_SWEEP_PERIOD: Duration = Duration::from_millis(500);

/// The server core: a single-threaded non-blocking reactor (epoll on
/// Linux, `poll(2)` elsewhere) that owns every connection's state
/// machine and the server state in one thread — pipelined frames parsed
/// from buffered reads, replies batched per wakeup, lease expiry driven
/// by a deadline-ordered timer queue. See [`crate::reactor`] and
/// DESIGN.md §13.
///
/// A one-inhabitant type that selects nothing: it (and
/// [`UdsServerConfig::engine`]) remain only because the frozen benchmark
/// crate assigns `cfg.engine = ServerEngine::Reactor`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ServerEngine {
    /// The only engine.
    #[default]
    Reactor,
}

/// Server tuning.
#[derive(Clone, Debug)]
pub struct UdsServerConfig {
    /// Socket path.
    pub path: PathBuf,
    /// Processors to partition.
    pub cpus: usize,
    /// Subtract system-wide runnable threads (full `/proc` sweep) from the
    /// partitionable processors. Off by default: on a busy development
    /// host this makes targets jittery, and tests need determinism.
    pub account_system_load: bool,
    /// How long a system-load sample stays fresh.
    pub sample_ttl: Duration,
    /// How long a registration stays valid without a POLL/REPORT refresh.
    pub lease_ttl: Duration,
    /// Drop registrations whose process no longer exists (`/proc` check;
    /// Linux-only, a no-op elsewhere). Leases catch what this cannot:
    /// processes that are alive but wedged.
    pub prune_dead: bool,
    /// CPU ids in topological order (SMT siblings adjacent, then LLC
    /// groups, then sockets) that CPU-set replies are cut from. `None`
    /// uses the identity order `0..cpus` — correct when `cpus` matches
    /// the machine; pass [`crate::topology::CpuTopology::linear_order`]
    /// of the detected topology to hand out cache-friendly slices.
    pub cpu_order: Option<Vec<u32>>,
    /// Weight each application's partition share by its observed
    /// throughput (the `jobs_run` counter from its latest `REPORT`),
    /// instead of splitting equally. Applications that have not reported
    /// — or report equal counters — reduce to the equal partition.
    pub weighted: bool,
    /// Per-application event-journal capacity: `EVENTS` pushes and the
    /// server's own decision instants beyond this bound drop the oldest
    /// entry (counted as `journal_drops`). `0` disables journaling —
    /// `TRACE` then always drains empty.
    pub journal_cap: usize,
    /// Selects nothing (see [`ServerEngine`]).
    pub engine: ServerEngine,
    /// Where to persist the crash-recovery snapshot (see
    /// [`crate::snapshot`]): registrations, remaining lease time,
    /// latest reports, and the boot epoch, written atomically
    /// (tmp+rename) every [`UdsServerConfig::snapshot_interval`] and at
    /// shutdown, restored at the next boot. `None` (the default)
    /// disables snapshotting entirely.
    pub snapshot_path: Option<PathBuf>,
    /// How often the periodic snapshot is written (the reactor
    /// piggy-backs on its timer wakeups, so effective granularity is
    /// bounded below by its wait cap). Ignored without a
    /// [`UdsServerConfig::snapshot_path`].
    pub snapshot_interval: Duration,
}

impl UdsServerConfig {
    /// Defaults: no system-load accounting, 1 s sample TTL, 30 s lease,
    /// dead-process pruning on, identity CPU order, unweighted shares,
    /// [`DEFAULT_JOURNAL_CAP`] events of journal per application.
    pub fn new(path: impl Into<PathBuf>, cpus: usize) -> Self {
        UdsServerConfig {
            path: path.into(),
            cpus,
            account_system_load: false,
            sample_ttl: Duration::from_secs(1),
            lease_ttl: DEFAULT_LEASE_TTL,
            prune_dead: true,
            cpu_order: None,
            weighted: false,
            journal_cap: DEFAULT_JOURNAL_CAP,
            engine: ServerEngine::Reactor,
            snapshot_path: None,
            snapshot_interval: Duration::from_secs(1),
        }
    }

    /// Checks the configuration for values that would corrupt every
    /// partition decision downstream (a 0 or absurd `cpus`).
    pub fn validate(&self) -> io::Result<()> {
        validate_cpus(u32::try_from(self.cpus).unwrap_or(u32::MAX))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
    }
}

#[derive(Clone, Copy, Debug)]
struct AppReg {
    pid: u32,
    nworkers: u32,
    /// Last REGISTER/POLL/REPORT from this pid (the lease refresh).
    last_seen: Instant,
    /// Last target journaled as a decision instant for this pid —
    /// dedups decision entries so the journal records target *changes*,
    /// not every poll.
    last_target: Option<u32>,
    /// The share weight `cfg.weighted` partitions by: [`report_weight`]
    /// of this pid's latest REPORT, parsed when the report arrives so a
    /// recompute reads a number instead of a line.
    weight: f64,
}

impl AppReg {
    fn new(pid: u32, nworkers: u32, now: Instant, weight: f64) -> AppReg {
        AppReg {
            pid,
            nworkers,
            last_seen: now,
            last_target: None,
            weight,
        }
    }
}

/// The partition weight a REPORT line carries: `1.0 + jobs_run`, so
/// observed throughput skews shares, equal (or absent) reports reduce to
/// the equal partition, and a zero counter never zeroes an app out
/// entirely. Only the first `jobs_run=` counts; one that does not parse,
/// or is negative or NaN, weighs as 0 jobs.
fn report_weight(line: &str) -> f64 {
    let jobs = line
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("jobs_run="))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    1.0 + jobs.max(0.0)
}

/// One application's bounded event journal: flight-recorder events the
/// app pushed via `EVENTS`, interleaved with the server's own decision
/// instants, oldest first.
#[derive(Default)]
struct Journal {
    events: std::collections::VecDeque<TraceEvent>,
}

/// A multiply-mix hasher for the pid→slot map. Pids are small
/// well-distributed integers, and SipHash (the `HashMap` default,
/// keyed for DoS resistance) costs more than the rest of a small-map
/// lookup on the poll path. The key space here is not attacker-
/// amplifiable: a pid occupies exactly one slot however often it
/// re-registers.
#[derive(Default)]
struct PidHasher(u64);

impl Hasher for PidHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        // splitmix64-style finalization: enough diffusion that dense or
        // stride-patterned pids spread across buckets.
        let mut z = u64::from(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = z ^ (z >> 27);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type PidIndex = HashMap<u32, usize, BuildHasherDefault<PidHasher>>;

/// Cached handles for every statistic the frame path bumps.
/// [`Registry::counter`] takes the registry mutex and allocates the
/// name on every call — invisible at human polling rates, a large slice
/// of the whole frame budget at reactor rates — so the handles are
/// resolved once at state construction and each bump is one relaxed
/// atomic add from then on. Field names are the registry names.
struct HotCounters {
    registers: Counter,
    polls: Counter,
    byes: Counter,
    reports: Counter,
    malformed: Counter,
    lease_expiries: Counter,
    events_pushes: Counter,
    traces: Counter,
    stats_queries: Counter,
    journal_drops: Counter,
    recompute_coalesced: Counter,
    timer_fires: Counter,
    snapshot_writes: Counter,
    snapshot_restores: Counter,
    snapshot_rejected: Counter,
    polls_parked: Counter,
    park_released_changed: Counter,
    park_released_held: Counter,
    apps: Gauge,
    parked: Gauge,
}

impl HotCounters {
    fn new(r: &Registry) -> HotCounters {
        HotCounters {
            registers: r.counter("registers"),
            polls: r.counter("polls"),
            byes: r.counter("byes"),
            reports: r.counter("reports"),
            malformed: r.counter("malformed"),
            lease_expiries: r.counter("lease_expiries"),
            events_pushes: r.counter("events_pushes"),
            traces: r.counter("traces"),
            stats_queries: r.counter("stats_queries"),
            journal_drops: r.counter("journal_drops"),
            recompute_coalesced: r.counter("recompute_coalesced"),
            timer_fires: r.counter("timer_fires"),
            snapshot_writes: r.counter("snapshot_writes"),
            snapshot_restores: r.counter("snapshot_restores"),
            snapshot_rejected: r.counter("snapshot_rejected"),
            polls_parked: r.counter("polls_parked"),
            park_released_changed: r.counter("park_released_changed"),
            park_released_held: r.counter("park_released_held"),
            apps: r.gauge("apps"),
            parked: r.gauge("parked"),
        }
    }
}

pub(crate) struct ServerState {
    apps: Vec<AppReg>,
    /// pid → index into `apps` (and into `targets`, which shares
    /// registration order): the per-frame lookups are O(1) hash probes
    /// instead of O(apps) scans.
    index: PidIndex,
    /// Pre-resolved statistic handles (see [`HotCounters`]).
    hot: HotCounters,
    /// Rendered ` <epoch>\n` suffix shared by every OK/TARGET reply,
    /// re-rendered only when the epoch changes (i.e. once).
    epoch_suffix: (u64, String),
    last_sample: Option<(Instant, u32)>,
    /// Latest `REPORT` line per pid (cleared on BYE and lease expiry).
    reports: std::collections::BTreeMap<u32, String>,
    /// Bounded per-pid event journal (cleared on BYE and lease expiry).
    journals: std::collections::BTreeMap<u32, Journal>,
    /// Deadline-ordered lease timers: `(deadline, pid)`, earliest first.
    /// One entry is pushed at registration; when it pops, the lease is
    /// either expired (`last_seen + ttl` has passed) or the timer
    /// re-arms itself at the refreshed deadline — so the heap stays
    /// O(apps) no matter how fast clients poll, and lease expiry costs
    /// O(log apps) amortized instead of an O(apps) scan per frame.
    lease_timers: BinaryHeap<Reverse<(Instant, u32)>>,
    /// Last `/proc` liveness sweep (throttled to [`PROC_SWEEP_PERIOD`]).
    last_proc_sweep: Option<Instant>,
    /// Coalesces partition recomputation: REGISTER/BYE/expiry (and
    /// weighted REPORTs) mark the cache dirty; the next read recomputes
    /// once for the whole burst.
    targets_gate: RecomputeGate,
    /// Cached per-app targets, registration order (valid unless dirty).
    /// App `i`'s CPU set is not stored: it is the range of `cpu_order`
    /// that starts at the sum of `targets[..i]` ([`procctl::cpu_range`]),
    /// materialised for the one pid that asks.
    targets: Vec<u32>,
    /// Buffers a recompute fills, kept so it allocates nothing.
    demands: Vec<AppDemand>,
    scratch: PartitionScratch,
    /// The CPU order sets are cut from: `cfg.cpu_order`, or the identity
    /// order `0..cpus` when that is unset or empty.
    cpu_order: Vec<u32>,
}

impl ServerState {
    pub(crate) fn new(registry: &Registry, cfg: &UdsServerConfig) -> ServerState {
        ServerState {
            apps: Vec::new(),
            index: PidIndex::default(),
            hot: HotCounters::new(registry),
            epoch_suffix: (0, String::new()),
            last_sample: None,
            reports: std::collections::BTreeMap::new(),
            journals: std::collections::BTreeMap::new(),
            lease_timers: BinaryHeap::new(),
            last_proc_sweep: None,
            targets_gate: RecomputeGate::new(),
            targets: Vec::new(),
            demands: Vec::new(),
            scratch: PartitionScratch::default(),
            cpu_order: match &cfg.cpu_order {
                Some(o) if !o.is_empty() => o.clone(),
                _ => (0..cfg.cpus as u32).collect(),
            },
        }
    }

    /// The rendered ` <epoch>\n` tail shared by OK and TARGET replies.
    fn epoch_suffix(&mut self, epoch: u64) -> &str {
        if self.epoch_suffix.0 != epoch || self.epoch_suffix.1.is_empty() {
            self.epoch_suffix = (epoch, format!(" {epoch}\n"));
        }
        &self.epoch_suffix.1
    }

    /// Marks the cached partition stale, counting coalesced bursts.
    fn invalidate_targets(&mut self) {
        if self.targets_gate.invalidate() {
            self.hot.recompute_coalesced.incr();
        }
    }

    /// Registers `pid` (or refreshes an existing registration's lease
    /// and worker count), arming a lease timer for new registrations.
    fn admit(&mut self, pid: u32, nworkers: u32, cfg: &UdsServerConfig, now: Instant) {
        match self.index.get(&pid) {
            Some(&idx) => {
                // Re-registration refreshes the lease and adopts the new
                // worker count; its existing timer re-arms on pop.
                let a = &mut self.apps[idx];
                a.nworkers = nworkers;
                a.last_seen = now;
            }
            None => {
                // A pid may have reported before it registered.
                let weight = self
                    .reports
                    .get(&pid)
                    .map_or(1.0, |line| report_weight(line));
                self.index.insert(pid, self.apps.len());
                self.apps.push(AppReg::new(pid, nworkers, now, weight));
                self.lease_timers.push(Reverse((now + cfg.lease_ttl, pid)));
            }
        }
        self.invalidate_targets();
        self.hot.apps.set(self.apps.len() as i64);
    }

    /// Removes `pid`'s registration and associated per-app state: the
    /// slot's weight goes with the report it was parsed from, so a pid
    /// that registers again starts at weight 1.0.
    fn depart(&mut self, pid: u32) {
        if let Some(idx) = self.index.remove(&pid) {
            self.apps.remove(idx);
            // Registration order is the partition order, so later slots
            // shift down by one and their index entries follow.
            for (i, a) in self.apps.iter().enumerate().skip(idx) {
                self.index.insert(a.pid, i);
            }
            self.invalidate_targets();
        }
        self.reports.remove(&pid);
        self.journals.remove(&pid);
        self.hot.apps.set(self.apps.len() as i64);
    }

    /// Refreshes `pid`'s lease (POLL/REPORT/EVENTS all count as signs of
    /// life). Returns false when the pid holds no live registration.
    fn touch(&mut self, pid: u32, now: Instant) -> bool {
        match self.index.get(&pid) {
            Some(&idx) => {
                self.apps[idx].last_seen = now;
                true
            }
            None => false,
        }
    }

    /// Stores `pid`'s latest REPORT line (its fields joined by single
    /// spaces, in the buffer of the line it replaces) and refreshes the
    /// lease and the weight of a registered pid. Under `--weighted` the
    /// report feeds the partition weights, so it dirties the target
    /// cache.
    fn record_report<'a>(
        &mut self,
        pid: u32,
        fields: impl Iterator<Item = &'a str>,
        cfg: &UdsServerConfig,
        now: Instant,
    ) {
        let line = self.reports.entry(pid).or_default();
        line.clear();
        for f in fields {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(f);
        }
        if let Some(&idx) = self.index.get(&pid) {
            let a = &mut self.apps[idx];
            a.last_seen = now;
            a.weight = report_weight(line);
        }
        if cfg.weighted {
            self.invalidate_targets();
        }
    }

    /// The earliest pending lease deadline (the reactor's wait timeout).
    pub(crate) fn next_lease_deadline(&self) -> Option<Instant> {
        self.lease_timers.peek().map(|Reverse((at, _))| *at)
    }

    /// Drops registrations that died (`/proc`, throttled, if enabled) or
    /// let their lease lapse — the latter via the deadline-ordered timer
    /// queue, so a call with no due deadline costs one heap peek. The
    /// caller supplies `now` so a reactor wakeup reads the clock once.
    pub(crate) fn prune(&mut self, cfg: &UdsServerConfig, now: Instant) {
        #[cfg(target_os = "linux")]
        if cfg.prune_dead {
            let due = self
                .last_proc_sweep
                .map_or(true, |at| now.duration_since(at) >= PROC_SWEEP_PERIOD);
            if due {
                self.last_proc_sweep = Some(now);
                let dead: Vec<u32> = self
                    .apps
                    .iter()
                    .filter(|a| !proc_scan::process_exists(a.pid))
                    .map(|a| a.pid)
                    .collect();
                for pid in dead {
                    self.depart(pid);
                }
            }
        }
        while let Some(&Reverse((deadline, pid))) = self.lease_timers.peek() {
            if deadline > now {
                break;
            }
            self.lease_timers.pop();
            self.hot.timer_fires.incr();
            let Some(&idx) = self.index.get(&pid) else {
                continue; // departed since the timer was armed
            };
            let fresh_deadline = self.apps[idx].last_seen + cfg.lease_ttl;
            if fresh_deadline > now {
                // The lease was refreshed since this timer was armed:
                // re-arm at the fresh deadline instead of expiring.
                self.lease_timers.push(Reverse((fresh_deadline, pid)));
            } else {
                self.hot.lease_expiries.incr();
                self.depart(pid);
            }
        }
        self.hot.apps.set(self.apps.len() as i64);
    }

    /// Appends events to `pid`'s journal, dropping the oldest beyond
    /// `cfg.journal_cap` (counted, never silent).
    fn append_events(
        &mut self,
        pid: u32,
        events: impl IntoIterator<Item = TraceEvent>,
        cfg: &UdsServerConfig,
    ) {
        if cfg.journal_cap == 0 {
            return;
        }
        let journal = self.journals.entry(pid).or_default();
        for ev in events {
            if journal.events.len() >= cfg.journal_cap {
                journal.events.pop_front();
                self.hot.journal_drops.incr();
            }
            journal.events.push_back(ev);
        }
    }

    /// Records a decision instant in the journal of the app at `idx`
    /// when the computed target differs from the last one journaled —
    /// the server-side half of the merged timeline (decision → effect).
    fn note_decision(&mut self, idx: usize, target: u32, cfg: &UdsServerConfig) {
        if self.apps[idx].last_target == Some(target) {
            return;
        }
        self.apps[idx].last_target = Some(target);
        let pid = self.apps[idx].pid;
        let ev = TraceEvent {
            ts_ns: trace::now_ns(),
            worker: 0,
            kind: EventKind::Decision,
            arg: target,
        };
        self.append_events(pid, [ev], cfg);
    }

    /// Drains up to `max` of the oldest journaled events for `pid`.
    fn drain_journal(&mut self, pid: u32, max: usize) -> Vec<TraceEvent> {
        match self.journals.get_mut(&pid) {
            Some(j) => {
                let n = j.events.len().min(max);
                j.events.drain(..n).collect()
            }
            None => Vec::new(),
        }
    }

    /// The system-wide uncontrollable load to subtract (0 when
    /// accounting is off), sampling `/proc` when the cached sample went
    /// stale as of `now` (the caller's clock reading: with accounting on
    /// every poll comes through here).
    fn uncontrolled_load(&mut self, cfg: &UdsServerConfig, now: Instant) -> u32 {
        if !cfg.account_system_load {
            return 0;
        }
        let fresh = self
            .last_sample
            .is_some_and(|(at, _)| now.saturating_duration_since(at) < cfg.sample_ttl);
        if !fresh {
            let exclude: Vec<u32> = self
                .apps
                .iter()
                .map(|a| a.pid)
                .chain([std::process::id()])
                .collect();
            let n = proc_scan::system_runnable_excluding(&exclude).unwrap_or(0);
            self.last_sample = Some((now, n));
        }
        self.last_sample.map_or(0, |(_, n)| n)
    }

    /// Recomputes the cached partition (the paper's partition with caps
    /// and a floor of one, in registration order) when dirty: one pass
    /// over the slots' worker counts and weights into buffers kept from
    /// the last recompute. With system-load accounting on, the
    /// uncontrollable load itself varies over time, so the cache is
    /// bypassed and every read recomputes (the pre-coalescing behavior).
    fn refresh_targets(&mut self, cfg: &UdsServerConfig, now: Instant) {
        if !cfg.account_system_load && !self.targets_gate.take_dirty() {
            return;
        }
        let uncontrolled = self.uncontrolled_load(cfg, now);
        self.demands.clear();
        self.demands.extend(self.apps.iter().map(|a| AppDemand {
            processes: a.nworkers,
            weight: if cfg.weighted { a.weight } else { 1.0 },
        }));
        partition_into(
            cfg.cpus as u32,
            uncontrolled,
            &self.demands,
            &mut self.targets,
            &mut self.scratch,
        );
        for t in &mut self.targets {
            *t = (*t).max(1);
        }
    }

    /// The slot and target for `pid`, or `None` when `pid` holds no
    /// live registration (never registered, lease expired, or the
    /// server restarted since).
    fn target_of(&mut self, pid: u32, cfg: &UdsServerConfig, now: Instant) -> Option<(usize, u32)> {
        self.refresh_targets(cfg, now);
        let idx = *self.index.get(&pid)?;
        Some((idx, self.targets.get(idx).copied()?))
    }

    /// Serializes the recoverable state (see [`crate::snapshot`]):
    /// registrations in partition order with their remaining lease
    /// time, latest reports, and the boot epoch. Journals are
    /// deliberately excluded — drains are destructive and replaying
    /// stale events after restart would corrupt the merged timeline.
    pub(crate) fn to_snapshot(
        &self,
        epoch: u64,
        cfg: &UdsServerConfig,
        now: Instant,
    ) -> crate::snapshot::ServerSnapshot {
        crate::snapshot::ServerSnapshot {
            epoch,
            apps: self
                .apps
                .iter()
                .map(|a| crate::snapshot::SnapshotApp {
                    pid: a.pid,
                    nworkers: a.nworkers,
                    lease_remaining: (a.last_seen + cfg.lease_ttl).saturating_duration_since(now),
                })
                .collect(),
            reports: self
                .reports
                .iter()
                .map(|(pid, line)| (*pid, line.clone()))
                .collect(),
        }
    }

    /// Restores a decoded snapshot into a freshly-constructed state:
    /// registrations re-admit in snapshot (= partition) order with
    /// their leases re-armed at the *remaining* time — a crash and
    /// restart never extends a silent client's tenure — and reports
    /// reattach to the pids that survived. Invalid worker counts are
    /// skipped (the snapshot is data, not trusted input).
    pub(crate) fn restore_snapshot(
        &mut self,
        snap: &crate::snapshot::ServerSnapshot,
        cfg: &UdsServerConfig,
        now: Instant,
    ) {
        for a in &snap.apps {
            if validate_processes(a.nworkers).is_err() || self.index.contains_key(&a.pid) {
                continue;
            }
            // Backdate last_seen so `last_seen + ttl` lands exactly at
            // the snapshotted remaining-lease deadline.
            let back = cfg.lease_ttl.saturating_sub(a.lease_remaining);
            let seen = now.checked_sub(back).unwrap_or(now);
            self.index.insert(a.pid, self.apps.len());
            self.apps.push(AppReg::new(a.pid, a.nworkers, seen, 1.0));
            self.lease_timers
                .push(Reverse((seen + cfg.lease_ttl, a.pid)));
        }
        for (pid, line) in &snap.reports {
            if let Some(&idx) = self.index.get(pid) {
                self.apps[idx].weight = report_weight(line);
                self.reports.insert(*pid, line.clone());
            }
        }
        self.invalidate_targets();
        self.hot.apps.set(self.apps.len() as i64);
        self.hot.snapshot_restores.incr();
    }

    /// The slot, target, *and* concrete CPU set for `pid`: every app's
    /// effective target is sliced contiguously from the configured CPU
    /// order, so each reply is consistent with what every other
    /// registered app would be told in the same instant.
    fn target_and_cpus_of(
        &mut self,
        pid: u32,
        cfg: &UdsServerConfig,
        now: Instant,
    ) -> Option<(usize, u32, Vec<u32>)> {
        let (idx, target) = self.target_of(pid, cfg, now)?;
        let set = cpu_range(&self.cpu_order, self.range_start(idx), target).collect();
        Some((idx, target, set))
    }

    /// Where slot `idx`'s CPU range starts in the order: the sum of the
    /// targets before it.
    fn range_start(&self, idx: usize) -> usize {
        self.targets[..idx].iter().map(|&t| t as usize).sum()
    }

    /// Whether a poll for `pid` would now be answered differently from
    /// `heard` (`ERR unregistered` counts as different). Reads the cached
    /// partition: call [`ServerState::refresh_targets`] first.
    fn differs_from(&self, pid: u32, heard: &Heard) -> bool {
        let slot = self
            .index
            .get(&pid)
            .and_then(|&idx| Some((idx, *self.targets.get(idx)?)));
        let Some((idx, target)) = slot else {
            return true;
        };
        target != heard.target
            || heard.cpus.as_ref().is_some_and(|cpus| {
                // A cpulist names a set: sorted, like the one the client
                // parsed out of the reply it heard.
                let mut set: Vec<u32> =
                    cpu_range(&self.cpu_order, self.range_start(idx), target).collect();
                set.sort_unstable();
                set.dedup();
                set != *cpus
            })
    }
}

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

/// Persists the recoverable state when `cfg` names a snapshot path (a
/// no-op otherwise). The reactor calls this from its timer wakeups and
/// at shutdown, so a `kill -9` between intervals loses at most one
/// interval of registrations. A failed write is reported and retried
/// at the next interval, never fatal: serving traffic outranks
/// persistence.
pub(crate) fn write_snapshot(st: &ServerState, cfg: &UdsServerConfig, epoch: u64, now: Instant) {
    let Some(path) = &cfg.snapshot_path else {
        return;
    };
    match st.to_snapshot(epoch, cfg, now).write_atomic(path) {
        Ok(()) => st.hot.snapshot_writes.incr(),
        Err(e) => eprintln!(
            "procctl server: snapshot write to {} failed: {e}",
            path.display()
        ),
    }
}

/// The standalone control server.
pub struct UdsServer {
    cfg: UdsServerConfig,
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
        let mut epoch = boot_epoch();
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new());
        // Pre-register every statistic so a STATS reply (and the in-process
        // snapshot) always carries the full schema, zeros included.
        for name in [
            "registers",
            "polls",
            "byes",
            "reports",
            "malformed",
            "lease_expiries",
            "events_pushes",
            "traces",
            "journal_drops",
            "reactor_wakeups",
            "frames_batched",
            "recompute_coalesced",
            "timer_fires",
            "snapshot_writes",
            "snapshot_restores",
            "snapshot_rejected",
            "polls_parked",
            "park_released_changed",
            "park_released_held",
        ] {
            // sched-counters: registers polls byes reports malformed lease_expiries events_pushes traces journal_drops reactor_wakeups frames_batched recompute_coalesced timer_fires snapshot_writes snapshot_restores snapshot_rejected polls_parked park_released_changed park_released_held
            registry.counter(name);
        }
        registry.gauge("apps");
        registry.gauge("parked");
        let mut state = ServerState::new(&registry, &cfg);
        // Crash recovery: restore the previous instance's registrations
        // and pick an epoch strictly above the snapshotted one, so
        // epochs stay monotone across restarts even on coarse clocks.
        // Any defect in the file — truncation, checksum, future version
        // — cold-starts cleanly and is counted, never partially
        // restored.
        if let Some(spath) = &cfg.snapshot_path {
            match crate::snapshot::ServerSnapshot::load(spath) {
                Ok(snap) => {
                    epoch = epoch.max(snap.epoch.wrapping_add(1));
                    state.restore_snapshot(&snap, &cfg, Instant::now());
                }
                Err(crate::snapshot::SnapshotError::Io(e))
                    if e.kind() == io::ErrorKind::NotFound => {} // first boot
                Err(e) => {
                    state.hot.snapshot_rejected.incr();
                    eprintln!(
                        "procctl server: rejecting snapshot {} ({e}); cold start",
                        spath.display()
                    );
                }
            }
        }
        // The reactor thread owns the state outright.
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("procctl-uds-reactor".into())
                .spawn(move || {
                    crate::reactor::serve(listener, state, &cfg, &stop, &registry, epoch);
                })
                .expect("spawn reactor thread")
        };
        Ok(UdsServer {
            cfg,
            epoch,
            stop,
            registry,
            accept_thread: Some(accept_thread),
        })
    }

    /// The socket path clients should connect to.
    pub fn path(&self) -> &Path {
        &self.cfg.path
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
        let _ = std::fs::remove_file(&self.cfg.path);
    }
}

/// Appends the ASCII decimal digits of `v` — the hot replies' no-alloc,
/// no-formatting-machinery itoa.
fn push_u32(out: &mut String, mut v: u32) {
    let mut buf = [0u8; 10];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &b in &buf[i..] {
        out.push(b as char);
    }
}

/// Appends `ERR malformed\n`, counting it.
fn reply_malformed(st: &mut ServerState, out: &mut String) {
    st.hot.malformed.incr();
    out.push_str("ERR malformed\n");
}

/// What every frame of one wakeup is answered against. The caller reads
/// the clock (a reactor wakeup serving hundreds of pipelined frames reads
/// it once).
#[derive(Clone, Copy)]
pub(crate) struct FrameEnv<'a> {
    pub(crate) cfg: &'a UdsServerConfig,
    pub(crate) registry: &'a Registry,
    pub(crate) epoch: u64,
    pub(crate) now: Instant,
}

/// What the client of a wait-form POLL still holds: the payload of the
/// last `TARGET` reply it heard (the epoch is compared on arrival — it
/// cannot change under a parked poll).
#[derive(Debug)]
pub(crate) struct Heard {
    target: u32,
    /// The CPU set, sorted, for the `cpus` form.
    cpus: Option<Vec<u32>>,
}

/// A wait-form POLL whose answer would repeat what its client heard: the
/// reactor keeps it and answers when that stops being true or at `until`.
#[derive(Debug)]
pub(crate) struct Park {
    pid: u32,
    heard: Heard,
    until: Instant,
}

/// What [`handle_line_into`] did with a frame.
#[must_use]
pub(crate) enum Handled {
    /// Exactly one reply was appended to `out`.
    Replied,
    /// Nothing was appended: the reactor owes the reply (see [`Waiters`]).
    Park(Park),
}

/// Appends the reply to a poll for `pid` — the `cpus` form when `cpus` —
/// refreshing its lease and journaling a changed target. Plain polls,
/// wait-form polls answered at once and released parks all end here, so
/// the three cannot drift apart.
fn poll_reply_into(
    st: &mut ServerState,
    pid: u32,
    cpus: bool,
    env: &FrameEnv<'_>,
    out: &mut String,
) {
    let (cfg, epoch, now) = (env.cfg, env.epoch, env.now);
    if !st.touch(pid, now) {
        // Expired lease, dead registration, or a pre-restart client the
        // new server never heard of.
        out.push_str("ERR unregistered\n");
        return;
    }
    if cpus {
        match st.target_and_cpus_of(pid, cfg, now) {
            Some((idx, t, cpus)) => {
                st.note_decision(idx, t, cfg);
                let list = crate::topology::format_cpulist(&cpus);
                out.push_str(&format!("TARGET {t} {epoch} cpus={list}\n"));
            }
            None => out.push_str("ERR unregistered\n"),
        }
    } else {
        match st.target_of(pid, cfg, now) {
            Some((idx, t)) => {
                st.note_decision(idx, t, cfg);
                out.push_str("TARGET ");
                push_u32(out, t);
                out.push_str(st.epoch_suffix(epoch));
            }
            None => out.push_str("ERR unregistered\n"),
        }
    }
}

/// Parses what follows `wait` in a wait-form POLL: `<hold_ms> <n>
/// <epoch>`, then `cpus=<cpulist>` in the `cpus` form, then nothing.
fn parse_wait<'a>(
    cpus: bool,
    mut fields: impl Iterator<Item = &'a str>,
) -> Option<(Duration, u64, Heard)> {
    let hold = Duration::from_millis(fields.next()?.parse().ok()?);
    let target = fields.next()?.parse().ok()?;
    let epoch = fields.next()?.parse().ok()?;
    let cpus = match cpus {
        true => Some(crate::topology::parse_cpulist(
            fields.next()?.strip_prefix("cpus=")?,
        )?),
        false => None,
    };
    fields
        .next()
        .is_none()
        .then_some((hold, epoch, Heard { target, cpus }))
}

/// Answers a wait-form POLL at once when the answer is news to its
/// client, and otherwise hands it back to be parked — for `hold`, but no
/// longer than half a lease, so that the refresh on release always lands
/// inside the lease the park started.
fn poll_wait(
    st: &mut ServerState,
    pid: u32,
    (hold, heard_epoch, heard): (Duration, u64, Heard),
    env: &FrameEnv<'_>,
    out: &mut String,
) -> Handled {
    st.prune(env.cfg, env.now);
    st.refresh_targets(env.cfg, env.now);
    if heard_epoch != env.epoch || st.differs_from(pid, &heard) {
        poll_reply_into(st, pid, heard.cpus.is_some(), env, out);
        return Handled::Replied;
    }
    st.touch(pid, env.now);
    Handled::Park(Park {
        pid,
        heard,
        until: env.now + hold.min(env.cfg.lease_ttl / 2),
    })
}

/// The parked polls of one server, in the order they parked: which
/// connection each reply is owed to, what its client heard, and until
/// when it may be held. Lives beside [`ServerState`] and touches no
/// socket: the reactor maps the connection tokens to write buffers, a
/// [`WireSession`] hands them back to its test.
#[derive(Default)]
pub(crate) struct Waiters {
    parked: Vec<(u64, Park)>,
    /// The earliest `until` among `parked`, or earlier: forgetting a
    /// waiter leaves it, and the scan that finds nothing due corrects it.
    next_due: Option<Instant>,
    /// The recompute count (`RecomputeGate::recomputes`) the parked set
    /// was last compared against.
    seen_recomputes: u64,
}

impl Waiters {
    /// The earliest hold deadline (for the reactor's wait timeout).
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.next_due
    }

    /// Keeps `park` for connection `conn`, which must have none.
    pub(crate) fn park(&mut self, conn: u64, park: Park, st: &ServerState) {
        debug_assert!(self.parked.iter().all(|(c, _)| *c != conn));
        self.next_due = Some(self.next_due.map_or(park.until, |at| at.min(park.until)));
        self.parked.push((conn, park));
        st.hot.polls_parked.incr();
        st.hot.parked.set(self.parked.len() as i64);
    }

    /// Forgets `conn`'s park without a reply: the connection is gone.
    pub(crate) fn forget(&mut self, conn: u64, st: &ServerState) {
        self.parked.retain(|(c, _)| *c != conn);
        st.hot.parked.set(self.parked.len() as i64);
    }

    /// Releases `conn`'s park into `out` because a later frame arrived
    /// on the same connection: replies go out in frame order.
    pub(crate) fn cancel(
        &mut self,
        conn: u64,
        st: &mut ServerState,
        env: &FrameEnv<'_>,
        out: &mut String,
    ) {
        if let Some(i) = self.parked.iter().position(|(c, _)| *c == conn) {
            let (_, park) = self.parked.remove(i);
            st.refresh_targets(env.cfg, env.now);
            let changed = st.differs_from(park.pid, &park.heard);
            release_into(st, &park, changed, env, out);
            st.hot.parked.set(self.parked.len() as i64);
        }
    }

    /// Releases every park whose reply stopped matching what its client
    /// heard, or whose hold ran out, handing each `(connection, reply)`
    /// to `emit` in park order. Call once per wakeup, after the wakeup's
    /// own replies are on their way: whoever caused a change hears `OK`
    /// before anyone hears its consequence. With nobody parked this is
    /// one `is_empty()`; with somebody parked the set is scanned only if
    /// the partition was recomputed since the last scan or a deadline is
    /// due (`--account-system-load` recomputes on every read, so there
    /// every wakeup scans).
    pub(crate) fn release(
        &mut self,
        st: &mut ServerState,
        env: &FrameEnv<'_>,
        out: &mut String,
        mut emit: impl FnMut(u64, &str),
    ) {
        if self.parked.is_empty() {
            return;
        }
        let now = env.now;
        st.refresh_targets(env.cfg, now);
        let recomputes = st.targets_gate.recomputes();
        let recomputed = env.cfg.account_system_load || recomputes != self.seen_recomputes;
        if !recomputed && !self.next_due.is_some_and(|at| at <= now) {
            return;
        }
        self.seen_recomputes = recomputes;
        let mut next_due: Option<Instant> = None;
        self.parked.retain(|(conn, park)| {
            let changed = st.differs_from(park.pid, &park.heard);
            if !changed && park.until > now {
                next_due = Some(next_due.map_or(park.until, |at| at.min(park.until)));
                return true;
            }
            out.clear();
            release_into(st, park, changed, env, out);
            emit(*conn, out);
            false
        });
        self.next_due = next_due;
        st.hot.parked.set(self.parked.len() as i64);
    }
}

/// Appends a released park's reply (refreshing the lease, as the park
/// did), counted by what the client learns: something new (`changed`),
/// or that the hold passed with nothing new.
fn release_into(
    st: &mut ServerState,
    park: &Park,
    changed: bool,
    env: &FrameEnv<'_>,
    out: &mut String,
) {
    if changed {
        st.hot.park_released_changed.incr();
    } else {
        st.hot.park_released_held.incr();
    }
    poll_reply_into(st, park.pid, park.heard.cpus.is_some(), env, out);
}

/// The complete wire-protocol verb set, in the order the dispatcher
/// matches them. Every frame is dispatched through [`handle_line_into`],
/// so this table *is* the protocol surface: schedlint's SL050 audit
/// checks it against the dispatcher arms and the client's emissions, so
/// a verb added to one place but not the others fails the lint gate
/// rather than shipping skewed.
pub(crate) const WIRE_VERBS: &[&str] = &[
    "POLL", "REGISTER", "BYE", "REPORT", "EVENTS", "TRACE", "STATS",
];

/// Answers one request line against the (exclusively held) server
/// state, appending exactly one reply to `out` — or, for a wait-form
/// POLL with nothing new to say, none yet ([`Handled::Park`]). Every line
/// gets a reply — malformed input is answered with `ERR <reason>` rather
/// than silence, so a client blocked in `read_line` always makes progress.
///
/// The reactor and [`WireSession`] both answer through this one
/// function, which is what lets a socket-free transcript pin the wire.
/// The caller supplies `env.now` (so a reactor wakeup serving hundreds of
/// pipelined frames reads the clock once) and the `out` buffer (so the
/// hot verbs reply with zero allocations: the request is parsed with a
/// non-collecting token iterator, targets render through [`push_u32`],
/// and the ` <epoch>\n` tail comes from a cached rendering).
// sched-counter-exits(polls|registers|byes|reports|events_pushes|traces|stats_queries|malformed):
// every frame must land in exactly one per-verb counter so the STATS
// export and schedtop's rates account for all traffic.
pub(crate) fn handle_line_into(
    line: &str,
    st: &mut ServerState,
    env: &FrameEnv<'_>,
    out: &mut String,
) -> Handled {
    let FrameEnv {
        cfg,
        registry,
        epoch,
        now,
    } = *env;
    let mut fields = line.split_whitespace();
    let Some(verb) = fields.next() else {
        st.hot.malformed.incr();
        out.push_str("ERR empty\n");
        return Handled::Replied;
    };
    match verb {
        // The hot verb: every registered application polls continuously.
        "POLL" => {
            let pid = fields.next().and_then(|f| f.parse::<u32>().ok());
            match (pid, fields.next(), fields.next()) {
                (Some(pid), None, _) => {
                    st.hot.polls.incr();
                    st.prune(cfg, now);
                    poll_reply_into(st, pid, false, env, out);
                }
                // The CPU-set extension: same poll semantics, but the
                // reply also names the processors (`cpus=<cpulist>`).
                // Old servers answer `ERR malformed` here, which new
                // clients treat as "extension unsupported".
                (Some(pid), Some("cpus"), None) => {
                    st.hot.polls.incr();
                    st.prune(cfg, now);
                    poll_reply_into(st, pid, true, env, out);
                }
                // The wait form of either: the client says what it last
                // heard and how long a repeat of it may be withheld.
                (Some(pid), Some("wait"), Some(hold)) => {
                    match parse_wait(false, std::iter::once(hold).chain(fields)) {
                        Some(wait) => {
                            st.hot.polls.incr();
                            return poll_wait(st, pid, wait, env, out);
                        }
                        None => reply_malformed(st, out),
                    }
                }
                (Some(pid), Some("cpus"), Some("wait")) => match parse_wait(true, fields) {
                    Some(wait) => {
                        st.hot.polls.incr();
                        return poll_wait(st, pid, wait, env, out);
                    }
                    None => reply_malformed(st, out),
                },
                _ => reply_malformed(st, out),
            }
        }
        "REGISTER" => {
            let pid = fields.next().and_then(|f| f.parse::<u32>().ok());
            let n = fields.next().and_then(|f| f.parse::<u32>().ok());
            match (pid, n, fields.next()) {
                (Some(pid), Some(n), None) => {
                    if validate_processes(n).is_err() {
                        st.hot.malformed.incr();
                        out.push_str("ERR bad-nworkers\n");
                        return Handled::Replied;
                    }
                    st.hot.registers.incr();
                    st.admit(pid, n, cfg, now);
                    out.push_str("OK");
                    out.push_str(st.epoch_suffix(epoch));
                }
                _ => reply_malformed(st, out),
            }
        }
        "BYE" => match (
            fields.next().and_then(|f| f.parse::<u32>().ok()),
            fields.next(),
        ) {
            (Some(pid), None) => {
                st.hot.byes.incr();
                st.depart(pid);
                out.push_str("OK");
                out.push_str(st.epoch_suffix(epoch));
            }
            _ => reply_malformed(st, out),
        },
        "REPORT" => match fields.next().and_then(|f| f.parse::<u32>().ok()) {
            Some(pid) => {
                st.hot.reports.incr();
                st.record_report(pid, fields, cfg, now);
                out.push_str("OK");
                out.push_str(st.epoch_suffix(epoch));
            }
            None => reply_malformed(st, out),
        },
        // Flight-recorder push: an application drains its per-worker
        // rings and forwards the batch (comma-joined `ts:kind:worker:arg`
        // frames, no spaces — so this is always exactly three fields).
        // Accepting the batch refreshes the lease like POLL/REPORT do;
        // old servers answer `ERR malformed`, the client's cue to stop
        // pushing (see [`EventsReply::Unsupported`]).
        "EVENTS" => {
            let pid = fields.next().and_then(|f| f.parse::<u32>().ok());
            let events = fields.next().and_then(trace::parse_events);
            match (pid, events, fields.next()) {
                (Some(pid), Some(events), None) => {
                    st.hot.events_pushes.incr();
                    st.prune(cfg, now);
                    if !st.touch(pid, now) {
                        out.push_str("ERR unregistered\n");
                        return Handled::Replied;
                    }
                    st.append_events(pid, events, cfg);
                    out.push_str("OK");
                    out.push_str(st.epoch_suffix(epoch));
                }
                _ => reply_malformed(st, out),
            }
        }
        // Journal drain: anyone (schedtop, the merge tooling) can read
        // back up to `max` of the oldest journaled events for a pid.
        // Reading does not refresh the lease — it is an observer verb —
        // and an unknown pid simply drains empty rather than erroring,
        // so a monitor can poll pids that have not pushed yet.
        "TRACE" => {
            let pid = fields.next().and_then(|f| f.parse::<u32>().ok());
            let max = match (fields.next(), fields.next()) {
                (None, _) => Some(DEFAULT_TRACE_MAX),
                (Some(m), None) => m.parse::<usize>().ok(),
                _ => None,
            };
            match (pid, max) {
                (Some(pid), Some(max)) => {
                    st.hot.traces.incr();
                    let events = st.drain_journal(pid, max);
                    let n = events.len();
                    if events.is_empty() {
                        out.push_str(&format!("TRACE {epoch} 0\n"));
                    } else {
                        out.push_str(&format!(
                            "TRACE {epoch} {n} {}\n",
                            trace::render_events(&events)
                        ));
                    }
                }
                _ => reply_malformed(st, out),
            }
        }
        "STATS" => {
            st.hot.stats_queries.incr();
            match (fields.next(), fields.next()) {
                (None, _) => {
                    out.push_str(&format!("STATS {}\n", registry.snapshot().render_line()))
                }
                // Fleet snapshot: every registered pid's target and latest
                // report in one round-trip (`|`-separated), so a monitor
                // scales O(1) in requests instead of O(apps). Old servers
                // answer `ERR malformed` ("ALL" fails their pid parse), the
                // downgrade cue.
                (Some("ALL"), None) => {
                    st.prune(cfg, now);
                    st.refresh_targets(cfg, now);
                    let parts: Vec<String> = st
                        .apps
                        .iter()
                        .zip(&st.targets)
                        .map(|(a, &t)| {
                            let mut part =
                                format!("pid={} target={} nworkers={}", a.pid, t, a.nworkers);
                            if let Some(report) = st.reports.get(&a.pid).filter(|r| !r.is_empty()) {
                                part.push(' ');
                                part.push_str(report);
                            }
                            part
                        })
                        .collect();
                    if parts.is_empty() {
                        out.push_str("STATS ALL\n");
                    } else {
                        out.push_str(&format!("STATS ALL {}\n", parts.join("|")));
                    }
                }
                (Some(pid), None) => match pid.parse::<u32>() {
                    Ok(pid) => match st.reports.get(&pid) {
                        Some(line) if !line.is_empty() => out.push_str(&format!("STATS {line}\n")),
                        _ => out.push_str("STATS\n"),
                    },
                    _ => reply_malformed(st, out),
                },
                _ => reply_malformed(st, out),
            }
        }
        _ => {
            debug_assert!(
                !WIRE_VERBS.contains(&verb),
                "verb {verb} is in WIRE_VERBS but has no dispatch arm"
            );
            reply_malformed(st, out)
        }
    }
    Handled::Replied
}

/// One server state answering wire lines with no socket, at an epoch and
/// at instants the caller chooses: the per-frame path the reactor runs
/// and the parked polls the reactor keeps beside it, for tests that need
/// every reply to repeat byte for byte. Connections are numbers the
/// caller makes up.
#[doc(hidden)]
pub struct WireSession {
    state: ServerState,
    waiters: Waiters,
    cfg: UdsServerConfig,
    registry: Registry,
    epoch: u64,
}

impl WireSession {
    /// A server with no registrations, configured by `cfg` (its `path`
    /// is never used).
    pub fn new(cfg: UdsServerConfig, epoch: u64) -> WireSession {
        let registry = Registry::new();
        WireSession {
            state: ServerState::new(&registry, &cfg),
            waiters: Waiters::default(),
            cfg,
            registry,
            epoch,
        }
    }

    /// One reactor wakeup with one frame in it: `line` arrives on
    /// connection `conn` at `now`. Returns every `(connection, reply)`
    /// the wakeup writes, newlines included, in the order it writes them:
    /// `conn`'s own park, if it had one (a later frame releases it);
    /// the reply to `line`, unless `line` parked; then whatever parks the
    /// frame released on other connections.
    pub fn step(&mut self, conn: u64, line: &str, now: Instant) -> Vec<(u64, String)> {
        self.wakeup(Some((conn, line)), now)
    }

    /// A wakeup with no frame in it (a timer fired): leases that lapsed
    /// by `now` expire, then parks are released as in [`WireSession::step`].
    pub fn due(&mut self, now: Instant) -> Vec<(u64, String)> {
        self.wakeup(None, now)
    }

    fn wakeup(&mut self, frame: Option<(u64, &str)>, now: Instant) -> Vec<(u64, String)> {
        let env = FrameEnv {
            cfg: &self.cfg,
            registry: &self.registry,
            epoch: self.epoch,
            now,
        };
        let mut replies = Vec::new();
        let mut out = String::new();
        match frame {
            Some((conn, line)) => {
                self.waiters.cancel(conn, &mut self.state, &env, &mut out);
                if !out.is_empty() {
                    replies.push((conn, std::mem::take(&mut out)));
                }
                match handle_line_into(line, &mut self.state, &env, &mut out) {
                    Handled::Replied => replies.push((conn, std::mem::take(&mut out))),
                    Handled::Park(park) => self.waiters.park(conn, park, &self.state),
                }
            }
            // The reactor prunes at the top of every wakeup; a frame's
            // own verb decides that here, as it always has.
            None => self.state.prune(&self.cfg, now),
        }
        self.waiters
            .release(&mut self.state, &env, &mut out, |conn, reply| {
                replies.push((conn, reply.to_string()));
            });
        replies
    }

    /// Connection `conn` closed: a park it held is forgotten.
    pub fn hang_up(&mut self, conn: u64) {
        self.waiters.forget(conn, &self.state);
    }

    /// Whether connection `conn` is owed the reply to a parked poll.
    pub fn is_parked(&self, conn: u64) -> bool {
        self.waiters.parked.iter().any(|(c, _)| *c == conn)
    }

    /// The replies to `line` arriving at `now` on connection 0,
    /// concatenated: with nothing parked, exactly one line.
    pub fn answer(&mut self, line: &str, now: Instant) -> String {
        self.step(0, line, now)
            .into_iter()
            .map(|(_, reply)| reply)
            .collect()
    }
}

/// A decoded reply to `POLL`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PollReply {
    /// A live target, stamped with the server's boot epoch.
    Target {
        /// Desired number of unsuspended workers.
        target: u32,
        /// The replying server's boot epoch.
        epoch: u64,
    },
    /// The server holds no registration for this pid: the lease expired
    /// or the server restarted. Re-register before polling again.
    Unregistered,
}

impl PollReply {
    /// The `(target, epoch)` of a live reply, or a typed
    /// [`io::ErrorKind::NotConnected`] error for `Unregistered` — so
    /// tests and chaos drills can assert on the unexpected case instead
    /// of `panic!`ing the harness.
    pub fn target(self) -> io::Result<(u32, u64)> {
        match self {
            PollReply::Target { target, epoch } => Ok((target, epoch)),
            PollReply::Unregistered => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "expected a target, server answered unregistered",
            )),
        }
    }
}

/// A decoded reply to `POLL <pid> cpus` (the CPU-set extension).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CpusPollReply {
    /// A live target, with the assigned CPU set when the server speaks
    /// the extension (a server may legitimately answer without one).
    Target {
        /// Desired number of unsuspended workers.
        target: u32,
        /// The replying server's boot epoch.
        epoch: u64,
        /// The concrete processors assigned, when present and non-empty.
        cpus: Option<Vec<u32>>,
    },
    /// No live registration for this pid — re-register before polling.
    Unregistered,
    /// The server lacks the form that was sent: it predates the `cpus`
    /// extension or the wait form (`ERR malformed`, or any other `ERR`
    /// it refuses with). Fall back to the next simpler form, down to
    /// plain count-only [`UdsClient::poll_reply`].
    Unsupported,
}

impl From<PollReply> for CpusPollReply {
    /// A count-only reply, as the `cpus` form of a server that names no
    /// set would have given it.
    fn from(reply: PollReply) -> CpusPollReply {
        match reply {
            PollReply::Target { target, epoch } => CpusPollReply::Target {
                target,
                epoch,
                cpus: None,
            },
            PollReply::Unregistered => CpusPollReply::Unregistered,
        }
    }
}

impl CpusPollReply {
    /// The `(target, epoch, cpus)` of a live reply, or a typed error:
    /// [`io::ErrorKind::NotConnected`] for `Unregistered`,
    /// [`io::ErrorKind::Unsupported`] for a pre-extension server.
    pub fn target(self) -> io::Result<(u32, u64, Option<Vec<u32>>)> {
        match self {
            CpusPollReply::Target {
                target,
                epoch,
                cpus,
            } => Ok((target, epoch, cpus)),
            CpusPollReply::Unregistered => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "expected a target, server answered unregistered",
            )),
            CpusPollReply::Unsupported => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "server lacks this poll form",
            )),
        }
    }
}

/// A decoded reply to `EVENTS <pid> <batch>` (the flight-recorder push).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventsReply {
    /// The server journaled the batch (and refreshed the lease).
    Accepted {
        /// The replying server's boot epoch.
        epoch: u64,
    },
    /// No live registration for this pid — re-register before pushing.
    Unregistered,
    /// The server predates the flight-recorder extension (it answered
    /// `ERR malformed`). Stop pushing until the next reconnect.
    Unsupported,
}

impl EventsReply {
    /// The epoch of an accepted push, or a typed error:
    /// [`io::ErrorKind::NotConnected`] for `Unregistered`,
    /// [`io::ErrorKind::Unsupported`] for a pre-extension server.
    pub fn accepted(self) -> io::Result<u64> {
        match self {
            EventsReply::Accepted { epoch } => Ok(epoch),
            EventsReply::Unregistered => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "events push rejected: unregistered",
            )),
            EventsReply::Unsupported => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "server predates the events extension",
            )),
        }
    }
}

/// A decoded reply to `TRACE <pid> [max]` (the journal drain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceReply {
    /// The oldest journaled events for the pid (possibly none), removed
    /// from the server's journal by this read.
    Events {
        /// The replying server's boot epoch — merge tooling uses it to
        /// correlate drains across server restarts.
        epoch: u64,
        /// Drained events, oldest first.
        events: Vec<TraceEvent>,
    },
    /// The server predates the extension (it answered `ERR`).
    Unsupported,
}

impl TraceReply {
    /// The `(epoch, events)` of a served drain, or a typed
    /// [`io::ErrorKind::Unsupported`] error for a pre-extension server.
    pub fn into_events(self) -> io::Result<(u64, Vec<TraceEvent>)> {
        match self {
            TraceReply::Events { epoch, events } => Ok((epoch, events)),
            TraceReply::Unsupported => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "server predates the trace extension",
            )),
        }
    }
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
        let mut fields = part.split_whitespace();
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

/// A decoded reply to `STATS ALL` (the one-round-trip fleet snapshot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatsAllReply {
    /// Every registered application's target and latest report.
    Apps(Vec<AppStatsEntry>),
    /// The server predates the verb ("ALL" fails its pid parse and it
    /// answered `ERR malformed`). Fall back to per-pid
    /// [`UdsClient::app_stats`] calls.
    Unsupported,
}

impl StatsAllReply {
    /// The fleet rows of a served snapshot, or a typed
    /// [`io::ErrorKind::Unsupported`] error for a pre-verb server.
    pub fn into_apps(self) -> io::Result<Vec<AppStatsEntry>> {
        match self {
            StatsAllReply::Apps(apps) => Ok(apps),
            StatsAllReply::Unsupported => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "server predates STATS ALL",
            )),
        }
    }
}

/// Client-side connection to a [`UdsServer`].
#[derive(Debug)]
pub struct UdsClient {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    pid: u32,
    nworkers: u32,
    epoch: u64,
}

impl UdsClient {
    /// Connects and registers this process with `nworkers` workers, with
    /// the [`DEFAULT_IO_TIMEOUT`] armed on the stream.
    pub fn register(path: impl AsRef<Path>, nworkers: u32) -> io::Result<Self> {
        Self::register_with_timeout(path, nworkers, DEFAULT_IO_TIMEOUT)
    }

    /// Connects and registers, arming `io_timeout` as both read and write
    /// timeout — even against a wedged (accepting but silent) server, no
    /// client call blocks longer than the timeout.
    pub fn register_with_timeout(
        path: impl AsRef<Path>,
        nworkers: u32,
        io_timeout: Duration,
    ) -> io::Result<Self> {
        let mut client = Self::connect(path, io_timeout)?;
        client.nworkers = nworkers;
        client.re_register()?;
        Ok(client)
    }

    /// Connects **without registering** — an observer connection for
    /// monitors (`schedtop`, trace-merge tooling) that read `STATS`,
    /// `STATS ALL`, `STATS <pid>`, and `TRACE <pid>` but must not take a
    /// share of the partition. Calling [`UdsClient::poll`] on an
    /// unregistered connection answers `Unregistered`, as it should.
    pub fn connect(path: impl AsRef<Path>, io_timeout: Duration) -> io::Result<Self> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let writer = stream.try_clone()?;
        Ok(UdsClient {
            reader: BufReader::new(stream),
            writer,
            pid: std::process::id(),
            nworkers: 0,
            epoch: 0,
        })
    }

    /// Re-sends REGISTER on the existing connection (after `ERR
    /// unregistered`: a lapsed lease or a restarted server behind a
    /// proxy). Returns the server's boot epoch.
    pub fn re_register(&mut self) -> io::Result<u64> {
        let (pid, nworkers) = (self.pid, self.nworkers);
        self.send(&format!("REGISTER {pid} {nworkers}\n"))?;
        let epoch = self.expect_ok()?;
        self.epoch = epoch;
        Ok(epoch)
    }

    /// The boot epoch of the server this client last registered with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Arms the worker count a later [`UdsClient::re_register`] will
    /// declare — used by the supervisor's reconnect path, which starts
    /// from an observer [`UdsClient::connect`] and only registers if
    /// the restarted server did *not* recover its registration.
    pub(crate) fn set_nworkers(&mut self, nworkers: u32) {
        self.nworkers = nworkers;
    }

    /// Adopts an epoch observed on a reply without re-registering (the
    /// snapshot-recovered-server path: the registration survived, only
    /// the epoch moved).
    pub(crate) fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    fn send(&mut self, msg: &str) -> io::Result<()> {
        self.writer.write_all(msg.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim().to_string())
    }

    /// Reads a reply, mapping `ERR <reason>` lines to errors.
    fn read_reply(&mut self) -> io::Result<String> {
        let line = self.read_line()?;
        if let Some(reason) = line.strip_prefix("ERR") {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server error:{reason}"),
            ));
        }
        Ok(line)
    }

    /// Expects `OK <epoch>` and returns the epoch.
    fn expect_ok(&mut self) -> io::Result<u64> {
        let line = self.read_reply()?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["OK", e] => e
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, line.clone())),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected OK, got {line}"),
            )),
        }
    }

    /// Polls the server, distinguishing a live target from "the server no
    /// longer knows this pid" (lease expiry or restart).
    pub fn poll_reply(&mut self) -> io::Result<PollReply> {
        let pid = self.pid;
        self.send(&format!("POLL {pid}\n"))?;
        let line = self.read_line()?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["TARGET", n, e] => match (n.parse(), e.parse()) {
                (Ok(target), Ok(epoch)) => Ok(PollReply::Target { target, epoch }),
                _ => Err(io::Error::new(io::ErrorKind::InvalidData, line.clone())),
            },
            ["ERR", "unregistered"] => Ok(PollReply::Unregistered),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, line)),
        }
    }

    /// Polls with the CPU-set extension (`POLL <pid> cpus`),
    /// distinguishing a live target (with its assigned processors) from
    /// "unregistered" from "server too old for the extension". The last
    /// case is how wire compatibility with pre-extension servers works:
    /// they answer `ERR malformed`, and the caller downgrades to plain
    /// [`UdsClient::poll_reply`].
    pub fn poll_cpus_reply(&mut self) -> io::Result<CpusPollReply> {
        let pid = self.pid;
        self.send(&format!("POLL {pid} cpus\n"))?;
        self.read_poll_reply()
    }

    /// Polls in the wait form: tells the server the reply this client
    /// still holds — `target` and `epoch`, and the CPU set for the `cpus`
    /// form — and lets it withhold a repeat of that reply for up to
    /// `hold` (see the module docs, "Parked polls"). Returns when the
    /// server has something new to say or the hold ran out, so this call
    /// blocks for up to `hold`: keep it below the stream's I/O timeout.
    /// A server that cannot park answers `ERR malformed` (or refuses
    /// with another `ERR`), surfaced as [`CpusPollReply::Unsupported`] —
    /// the cue to go back to [`UdsClient::poll_reply`] /
    /// [`UdsClient::poll_cpus_reply`].
    pub fn poll_wait_reply(
        &mut self,
        target: u32,
        epoch: u64,
        cpus: Option<&[u32]>,
        hold: Duration,
    ) -> io::Result<CpusPollReply> {
        let (pid, hold_ms) = (self.pid, hold.as_millis());
        match cpus {
            Some(cpus) => {
                let list = crate::topology::format_cpulist(cpus);
                self.send(&format!(
                    "POLL {pid} cpus wait {hold_ms} {target} {epoch} cpus={list}\n"
                ))?;
            }
            None => self.send(&format!("POLL {pid} wait {hold_ms} {target} {epoch}\n"))?,
        }
        self.read_poll_reply()
    }

    /// Reads the reply to any POLL form that has a downgrade (`cpus`,
    /// `wait`): `TARGET <n> <epoch> [cpus=<cpulist>]`, `ERR
    /// unregistered`, or another `ERR` from a server without the form.
    fn read_poll_reply(&mut self) -> io::Result<CpusPollReply> {
        let line = self.read_line()?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["TARGET", n, e, rest @ ..] => match (n.parse::<u32>(), e.parse::<u64>()) {
                (Ok(target), Ok(epoch)) => {
                    let cpus = rest
                        .iter()
                        .find_map(|f| f.strip_prefix("cpus="))
                        .and_then(crate::topology::parse_cpulist)
                        .filter(|c| !c.is_empty());
                    Ok(CpusPollReply::Target {
                        target,
                        epoch,
                        cpus,
                    })
                }
                _ => Err(io::Error::new(io::ErrorKind::InvalidData, line.clone())),
            },
            ["ERR", "unregistered"] => Ok(CpusPollReply::Unregistered),
            ["ERR", ..] => Ok(CpusPollReply::Unsupported),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, line)),
        }
    }

    /// Pushes a batch of flight-recorder events for this process into
    /// the server's bounded journal (refreshing the lease, like POLL).
    /// An empty batch sends nothing and reports the last-known epoch.
    ///
    /// Wire compatibility mirrors the CPU-set extension: a pre-extension
    /// server answers `ERR malformed`, surfaced as
    /// [`EventsReply::Unsupported`] — the cue to stop pushing.
    pub fn push_events(&mut self, events: &[TraceEvent]) -> io::Result<EventsReply> {
        if events.is_empty() {
            return Ok(EventsReply::Accepted { epoch: self.epoch });
        }
        let pid = self.pid;
        let payload = trace::render_events(events);
        self.send(&format!("EVENTS {pid} {payload}\n"))?;
        let line = self.read_line()?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["OK", e] => match e.parse() {
                Ok(epoch) => Ok(EventsReply::Accepted { epoch }),
                Err(_) => Err(io::Error::new(io::ErrorKind::InvalidData, line.clone())),
            },
            ["ERR", "unregistered"] => Ok(EventsReply::Unregistered),
            ["ERR", ..] => Ok(EventsReply::Unsupported),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, line)),
        }
    }

    /// Drains up to `max` (server default when `None`) of the oldest
    /// journaled events for `pid` — both the events that application
    /// pushed and the server's own decision instants. Any client may
    /// read any pid's journal; the drain is destructive.
    pub fn trace(&mut self, pid: u32, max: Option<usize>) -> io::Result<TraceReply> {
        match max {
            Some(m) => self.send(&format!("TRACE {pid} {m}\n"))?,
            None => self.send(&format!("TRACE {pid}\n"))?,
        }
        let line = self.read_line()?;
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["TRACE", e, n, rest @ ..] => {
                let parsed = (e.parse::<u64>(), n.parse::<usize>());
                let (Ok(epoch), Ok(n)) = parsed else {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, line.clone()));
                };
                let events = match rest {
                    [] => Vec::new(),
                    [payload] => trace::parse_events(payload)
                        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, line.clone()))?,
                    _ => return Err(io::Error::new(io::ErrorKind::InvalidData, line.clone())),
                };
                if events.len() != n {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, line.clone()));
                }
                Ok(TraceReply::Events { epoch, events })
            }
            ["ERR", ..] => Ok(TraceReply::Unsupported),
            _ => Err(io::Error::new(io::ErrorKind::InvalidData, line)),
        }
    }

    /// Fetches every registered application's target and latest report
    /// in one round-trip — what `schedtop` refreshes on. A pre-verb
    /// server answers `ERR malformed`, surfaced as
    /// [`StatsAllReply::Unsupported`].
    pub fn stats_all(&mut self) -> io::Result<StatsAllReply> {
        self.send("STATS ALL\n")?;
        let line = self.read_line()?;
        if line.starts_with("ERR") {
            return Ok(StatsAllReply::Unsupported);
        }
        let rest = line
            .strip_prefix("STATS ALL")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, line.clone()))?
            .trim_start();
        if rest.is_empty() {
            return Ok(StatsAllReply::Apps(Vec::new()));
        }
        let apps = rest
            .split('|')
            .map(|part| {
                AppStatsEntry::parse(part)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, part.to_string()))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(StatsAllReply::Apps(apps))
    }

    /// Polls the server for this process's current target. An
    /// unregistered reply surfaces as [`io::ErrorKind::NotConnected`];
    /// see [`UdsClient::poll_reply`] to handle it without string
    /// matching.
    pub fn poll(&mut self) -> io::Result<u32> {
        match self.poll_reply()? {
            PollReply::Target { target, .. } => Ok(target),
            PollReply::Unregistered => Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server holds no registration for this pid (lease expired or server restarted)",
            )),
        }
    }

    /// Deregisters (the paper's courtesy goodbye).
    pub fn bye(&mut self) -> io::Result<()> {
        let pid = self.pid;
        self.send(&format!("BYE {pid}\n"))?;
        self.expect_ok().map(|_| ())
    }

    /// Pushes this process's statistics line to the server (newlines in
    /// `line` are not allowed by the wire format and are rejected).
    pub fn report(&mut self, line: &str) -> io::Result<()> {
        if line.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "report line must be newline-free",
            ));
        }
        let pid = self.pid;
        self.send(&format!("REPORT {pid} {line}\n"))?;
        self.expect_ok().map(|_| ())
    }

    /// Fetches the latest statistics line another application reported,
    /// or an empty string when `pid` never reported.
    pub fn app_stats(&mut self, pid: u32) -> io::Result<String> {
        self.send(&format!("STATS {pid}\n"))?;
        let line = self.read_reply()?;
        match line.strip_prefix("STATS") {
            Some(rest) => Ok(rest.trim_start().to_string()),
            None => Err(io::Error::new(io::ErrorKind::InvalidData, line)),
        }
    }

    /// Fetches the server's statistics as sorted `(key, value)` pairs.
    pub fn stats(&mut self) -> io::Result<Vec<(String, i64)>> {
        self.send("STATS\n")?;
        let line = self.read_reply()?;
        let mut fields = line.split_whitespace();
        if fields.next() != Some("STATS") {
            return Err(io::Error::new(io::ErrorKind::InvalidData, line));
        }
        fields
            .map(|kv| {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, kv.to_string()))?;
                let v = v
                    .parse::<f64>()
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, kv.to_string()))?;
                Ok((k.to_string(), v as i64))
            })
            .collect()
    }

    /// Spawns a background thread that polls every `interval` and stores
    /// the target into `slot` (for wiring a [`crate::Pool`] to a remote
    /// server). The thread exits when the returned guard is dropped.
    ///
    /// This poller does not reconnect: a dead or restarted server leaves
    /// the slot at its last value. Use
    /// [`crate::SupervisedClient::spawn_poller`] for the fault-tolerant
    /// version with reconnect and degraded-mode fallback.
    pub fn spawn_poller(self, slot: Arc<TargetSlot>, interval: Duration) -> PollerGuard {
        self.spawn_poller_inner(slot, interval, None)
    }

    /// Like [`UdsClient::spawn_poller`], but also `REPORT`s a snapshot of
    /// `registry` (e.g. a [`crate::Pool`]'s work-stealing counters) to
    /// the server on every poll, making them readable cross-process via
    /// `STATS <pid>`.
    pub fn spawn_reporting_poller(
        self,
        slot: Arc<TargetSlot>,
        interval: Duration,
        registry: Arc<Registry>,
    ) -> PollerGuard {
        self.spawn_poller_inner(slot, interval, Some(registry))
    }

    fn spawn_poller_inner(
        mut self,
        slot: Arc<TargetSlot>,
        interval: Duration,
        registry: Option<Arc<Registry>>,
    ) -> PollerGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("procctl-uds-poller".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    if let Ok(PollReply::Target { target, .. }) = self.poll_reply() {
                        slot.target
                            .store((target as usize).clamp(1, slot.nworkers), Ordering::Release);
                    }
                    if let Some(reg) = &registry {
                        let _ = self.report(&reg.snapshot().render_line());
                    }
                    sleep_unless_stopped(&stop2, interval);
                }
                let _ = self.bye();
            })
            .expect("spawn poller");
        PollerGuard::from_parts(stop, handle, ParkedStream::default())
    }

    /// A second handle on this connection's socket (see [`ParkedStream`]).
    pub(crate) fn try_clone_stream(&self) -> io::Result<UnixStream> {
        self.writer.try_clone()
    }
}

/// Sleeps `dur`, or until the owner of `stop` raises it and unparks this
/// thread ([`PollerGuard`]'s drop).
// sched-atomic(handoff): parameter view of PollerGuard::stop.
pub(crate) fn sleep_unless_stopped(stop: &AtomicBool, dur: Duration) {
    let wake = Instant::now() + dur;
    while !stop.load(Ordering::Acquire) {
        let left = wake.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::park_timeout(left);
    }
}

/// The socket of a poller's current connection (none while it has none),
/// shared with its [`PollerGuard`]: a poll parked in the server sits in
/// a read that only the socket can end early.
pub(crate) type ParkedStream = Arc<Mutex<Option<UnixStream>>>;

/// Stops the background poller (and sends BYE) when dropped — at once,
/// whether the poller is asleep between rounds or parked in the server.
pub struct PollerGuard {
    // sched-atomic(handoff): see UdsServer::stop — same protocol.
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    stream: ParkedStream,
}

impl PollerGuard {
    pub(crate) fn from_parts(
        // sched-atomic(handoff): parameter view of PollerGuard::stop.
        stop: Arc<AtomicBool>,
        handle: JoinHandle<()>,
        stream: ParkedStream,
    ) -> Self {
        PollerGuard {
            stop,
            handle: Some(handle),
            stream,
        }
    }
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
    use proptest::prelude::*;

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("procctl-test-{}-{tag}.sock", std::process::id()))
    }

    #[test]
    fn register_poll_bye_roundtrip() {
        let path = sock_path("roundtrip");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 16).expect("client");
        assert_eq!(c.poll().expect("poll"), 8);
        c.bye().expect("bye");
    }

    #[test]
    fn single_small_app_capped() {
        let path = sock_path("capped");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 3).expect("client");
        assert_eq!(c.poll().expect("poll"), 3);
    }

    #[test]
    fn two_clients_from_same_process_share() {
        // Both registrations carry this test process's pid, so the server
        // sees ONE application (registration is idempotent per pid) —
        // matching the paper's root-pid identity.
        let path = sock_path("same-pid");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut a = UdsClient::register(&path, 16).expect("a");
        let mut b = UdsClient::register(&path, 16).expect("b");
        assert_eq!(a.poll().expect("poll"), 8);
        assert_eq!(b.poll().expect("poll"), 8);
    }

    #[test]
    fn malformed_requests_get_err_replies() {
        let path = sock_path("malformed");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 4).expect("client");
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
        let mut server = WireSession::new(UdsServerConfig::new("/nonexistent", 8), 7);
        let now = Instant::now();
        server.answer("REGISTER 1 4", now);
        let malformed = |s: &WireSession| s.registry.snapshot().counters["malformed"];
        let before = malformed(&server);
        assert_eq!(server.answer(&frame, now), "ERR malformed\n");
        assert_eq!(malformed(&server), before + 1);
    }

    #[test]
    fn absurd_nworkers_rejected_over_the_wire() {
        let path = sock_path("absurd");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 4).expect("client");
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
        let mut c = UdsClient::register(&path, 4).expect("client");
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
        let mut live = UdsClient::register(&path, 8).expect("live client");
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
            let mut c = UdsClient::register(&path, 4).expect("client");
            assert_eq!(c.epoch(), first_epoch);
            let (_, epoch) = c.poll_reply().expect("poll").target().expect("target");
            assert_eq!(epoch, first_epoch);
        }
        let server2 = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server2");
        assert_ne!(server2.epoch(), first_epoch, "restart must bump the epoch");
        let c2 = UdsClient::register(&path, 4).expect("client2");
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
            let mut c = UdsClient::register(&path, 16).expect("client");
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
        let mut c2 = UdsClient::connect(&path, DEFAULT_IO_TIMEOUT).expect("observer");
        let (target, epoch) = c2.poll_reply().expect("poll").target().expect("restored");
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
        let mut c = UdsClient::connect(&path, DEFAULT_IO_TIMEOUT).expect("observer");
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
        let err = UdsClient::register_with_timeout(&path, 4, Duration::from_millis(150))
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

    #[test]
    fn poller_updates_slot() {
        let path = sock_path("poller");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 6)).expect("server");
        let client = UdsClient::register(&path, 12).expect("client");
        let slot = Arc::new(TargetSlot::new(12));
        let _guard = client.spawn_poller(Arc::clone(&slot), Duration::from_millis(20));
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
        let mut c = UdsClient::register(&path, 4).expect("client");
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
        let mut c = UdsClient::register(&path, 4).expect("client");
        let me = std::process::id();
        assert_eq!(c.app_stats(me).expect("empty stats"), "");
        c.report("jobs_run=10 steals=3").expect("report");
        assert_eq!(c.app_stats(me).expect("stats"), "jobs_run=10 steals=3");
        // Latest report wins.
        c.report("jobs_run=20 steals=5").expect("report");
        assert_eq!(c.app_stats(me).expect("stats"), "jobs_run=20 steals=5");
        assert!(c.report("bad\nline").is_err());
        // BYE clears the stored report.
        c.bye().expect("bye");
        let mut c2 = UdsClient::register(&path, 4).expect("client2");
        assert_eq!(c2.app_stats(me).expect("stats after bye"), "");
    }

    #[test]
    fn reporting_poller_publishes_pool_counters() {
        let path = sock_path("report-poller");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 4)).expect("server");
        let client = UdsClient::register(&path, 4).expect("client");
        let slot = Arc::new(TargetSlot::new(4));
        let registry = Arc::new(Registry::new());
        registry.counter("jobs_run").add(42);
        let _guard =
            client.spawn_reporting_poller(Arc::clone(&slot), Duration::from_millis(20), registry);
        let mut reader = UdsClient::register(&path, 1).expect("reader");
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
            let _c = UdsClient::register(&path, 8).expect("first client");
            // Dropped without BYE.
        }
        let mut c2 = UdsClient::register(&path, 8).expect("second client");
        // The dead "application" shares this process's pid, which is very
        // much alive, so it still counts — this mirrors the paper's
        // reliance on pid liveness. Target is the equal share.
        let t = c2.poll().expect("poll");
        assert!(t == 8, "got {t}");
    }

    /// Builds a parser harness around [`handle_line`] with no sockets.
    fn fuzz_reply(line: &str) -> String {
        let mut server = WireSession::new(UdsServerConfig::new("/nonexistent", 8), 7);
        let now = Instant::now();
        server.answer("REGISTER 1 4", now);
        server.answer(line, now)
    }

    /// A socketless two-app server state for partition-policy tests.
    fn two_app_state(cfg: &UdsServerConfig, registry: &Registry) -> ServerState {
        // prune_dead is on in the configs below, so both pids must be
        // live processes: use this test process and pid 1 (init).
        let mut state = ServerState::new(registry, cfg);
        state.admit(std::process::id(), 16, cfg, Instant::now());
        state.admit(1, 16, cfg, Instant::now());
        state
    }

    #[test]
    fn cpus_poll_roundtrip_over_the_wire() {
        let path = sock_path("cpuspoll");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 16).expect("client");
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
        let mut c = UdsClient::register(&path, 2).expect("client");
        let (target, _, cpus) = c
            .poll_cpus_reply()
            .expect("poll cpus")
            .target()
            .expect("target");
        assert_eq!(target, 2);
        assert_eq!(cpus.expect("cpu set"), vec![2, 3]);
    }

    #[test]
    fn cpus_poll_against_pre_extension_server_is_unsupported() {
        // Simulate an old server: answers REGISTER, but its parser has
        // never heard of the three-field POLL and replies ERR malformed.
        let path = sock_path("oldserver");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            for _ in 0..2 {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let reply = if line.starts_with("REGISTER") {
                    "OK 1\n"
                } else {
                    "ERR malformed\n"
                };
                writer.write_all(reply.as_bytes()).expect("write");
            }
        });
        let mut c = UdsClient::register(&path, 4).expect("register on old server");
        assert_eq!(
            c.poll_cpus_reply().expect("reply"),
            CpusPollReply::Unsupported
        );
        handle.join().expect("old server thread");
        let _ = std::fs::remove_file(&path);
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
        let mut c = UdsClient::register(&path, 16).expect("client");
        // The first poll journals a decision instant (target 8).
        assert_eq!(c.poll().expect("poll"), 8);
        let batch = vec![
            ev(10, EventKind::JobStart, 3),
            ev(20, EventKind::Steal, 1),
            ev(30, EventKind::Park, 0),
        ];
        let epoch = c.push_events(&batch).expect("push").accepted().expect("ok");
        assert_eq!(epoch, c.epoch());
        let me = std::process::id();
        let (epoch, events) = c
            .trace(me, None)
            .expect("trace")
            .into_events()
            .expect("events");
        assert_eq!(epoch, c.epoch());
        assert_eq!(events.len(), 4, "decision + 3 pushed: {events:?}");
        assert_eq!(events[0].kind, EventKind::Decision);
        assert_eq!(events[0].arg, 8);
        assert_eq!(&events[1..], &batch[..]);
        // The drain is destructive: a second read is empty.
        let (_, events) = c
            .trace(me, None)
            .expect("trace again")
            .into_events()
            .expect("events");
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
        let mut c = UdsClient::register(&path, 4).expect("client");
        let batch: Vec<TraceEvent> = (0..5)
            .map(|i| ev(i * 100, EventKind::JobStart, i as u32))
            .collect();
        assert!(matches!(
            c.push_events(&batch).expect("push"),
            EventsReply::Accepted { .. }
        ));
        let me = std::process::id();
        let (_, events) = c
            .trace(me, Some(2))
            .expect("trace max 2")
            .into_events()
            .expect("events");
        assert_eq!(events, batch[..2], "oldest two first");
        let (_, events) = c
            .trace(me, None)
            .expect("trace rest")
            .into_events()
            .expect("events");
        assert_eq!(events, batch[2..]);
    }

    #[test]
    fn journal_bounded_drops_oldest_and_counts() {
        let path = sock_path("journalcap");
        let mut cfg = UdsServerConfig::new(&path, 8);
        cfg.journal_cap = 4;
        let server = UdsServer::start(cfg).expect("server");
        let mut c = UdsClient::register(&path, 4).expect("client");
        let batch: Vec<TraceEvent> = (0..10)
            .map(|i| ev(i, EventKind::JobStart, i as u32))
            .collect();
        assert!(matches!(
            c.push_events(&batch).expect("push"),
            EventsReply::Accepted { .. }
        ));
        let (_, events) = c
            .trace(std::process::id(), None)
            .expect("trace")
            .into_events()
            .expect("events");
        assert_eq!(events, batch[6..], "survivors are the newest 4");
        assert_eq!(server.stats().counters["journal_drops"], 6);
    }

    #[test]
    fn decision_journal_records_target_changes_not_every_poll() {
        let path = sock_path("decisions");
        let _server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 16).expect("client");
        // Several polls at a stable partition: one decision instant.
        for _ in 0..3 {
            assert_eq!(c.poll().expect("poll"), 8);
        }
        // A second application (pid 1 — init, alive under /proc pruning)
        // halves the partition; the next poll journals the change.
        c.send("REGISTER 1 16\n").expect("send");
        assert!(c.read_line().expect("reply").starts_with("OK"));
        assert_eq!(c.poll().expect("poll"), 4);
        let (_, events) = c
            .trace(std::process::id(), None)
            .expect("trace")
            .into_events()
            .expect("events");
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
        let mut c = UdsClient::register(&path, 16).expect("client");
        c.send("REGISTER 1 16\n").expect("send");
        assert!(c.read_line().expect("reply").starts_with("OK"));
        c.report("jobs_run=42 steals=3").expect("report");
        let apps = c.stats_all().expect("stats all").into_apps().expect("apps");
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
    fn observability_verbs_against_pre_extension_server_are_unsupported() {
        // An old server answers REGISTER and nothing else (its parser
        // falls through to ERR malformed) — every new verb must degrade,
        // not error.
        let path = sock_path("oldserver-obs");
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).expect("bind");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            for _ in 0..4 {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    return;
                }
                let reply = if line.starts_with("REGISTER") {
                    "OK 1\n"
                } else {
                    "ERR malformed\n"
                };
                writer.write_all(reply.as_bytes()).expect("write");
            }
        });
        let mut c = UdsClient::register(&path, 4).expect("register on old server");
        assert_eq!(
            c.push_events(&[ev(1, EventKind::JobStart, 0)])
                .expect("push"),
            EventsReply::Unsupported
        );
        assert_eq!(c.trace(1, None).expect("trace"), TraceReply::Unsupported);
        assert_eq!(
            c.stats_all().expect("stats all"),
            StatsAllReply::Unsupported
        );
        handle.join().expect("old server thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_poll_frame_cost() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.prune_dead = false;
        let registry = Registry::new();
        let mut st = ServerState::new(&registry, &cfg);
        for pid in 0..64 {
            st.admit(900_000 + pid, 4, &cfg, Instant::now());
        }
        let n = 1_000_000u32;
        let mut out = String::new();
        let start = Instant::now();
        for _ in 0..n {
            out.clear();
            let env = FrameEnv {
                cfg: &cfg,
                registry: &registry,
                epoch: 42,
                now: Instant::now(),
            };
            let _ = handle_line_into("POLL 900000", &mut st, &env, &mut out);
            std::hint::black_box(&out);
        }
        println!(
            "handle_line POLL (64 apps): {:?}/frame",
            start.elapsed() / n
        );
    }

    /// What one weighted REPORT costs the next POLL: each pair dirties
    /// the gate and recomputes the 64-app partition once. On 64
    /// processors the floor of one uses them all (`ctl_saturated`'s
    /// shape); on 128 the other 64 are water-filled by weight.
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_report_poll_pair_cost() {
        for cpus in [64, 128] {
            let mut cfg = UdsServerConfig::new("/nonexistent", cpus);
            cfg.prune_dead = false;
            cfg.weighted = true;
            let mut server = WireSession::new(cfg, 42);
            let now = Instant::now();
            for pid in 0..64 {
                server.answer(&format!("REGISTER {} 4", 900_000 + pid), now);
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
            let mut out = String::new();
            let start = Instant::now();
            for i in 0..n {
                for line in [reports[i % 64].as_str(), "POLL 900000"] {
                    out.clear();
                    let env = FrameEnv {
                        cfg: &server.cfg,
                        registry: &server.registry,
                        epoch: 42,
                        now,
                    };
                    let _ = handle_line_into(line, &mut server.state, &env, &mut out);
                    std::hint::black_box(&out);
                }
            }
            println!(
                "handle_line REPORT+POLL (64 apps, weighted, {cpus} cpus): {:?}/pair",
                start.elapsed() / n as u32
            );
        }
    }

    #[test]
    fn reactor_serves_pipelined_bursts_in_order_and_batches() {
        // A client that writes a whole window of frames in one send must
        // get every reply, in order — and the reactor should batch them
        // (many frames per wakeup, one flush).
        let path = sock_path("pipelined");
        let server = UdsServer::start(UdsServerConfig::new(&path, 8)).expect("server");
        let mut c = UdsClient::register(&path, 4).expect("client");
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
        let mut c = UdsClient::register(&path, 4).expect("client");
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
        let mut a = UdsClient::register(&path, 16).expect("a");
        let pid = std::process::id();
        let frame = format!("POLL {pid}\n");
        for byte in frame.bytes() {
            a.send(std::str::from_utf8(&[byte]).expect("ascii"))
                .expect("send byte");
        }
        assert!(a.read_line().expect("reply").starts_with("TARGET "));
        // A second client dies mid-frame (no newline, then EOF).
        let mut b = UdsClient::register(&path, 16).expect("b");
        b.send("POLL 91").expect("partial");
        drop(b);
        // The survivor still gets service.
        assert_eq!(a.poll().expect("poll after torn peer"), 8);
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
        let mut app = UdsClient::register(&path, 8).expect("app");
        let (target, epoch) = app.poll_reply().expect("poll").target().expect("target");
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
        let mut app = UdsClient::register(&path, 8).expect("app");
        let (_, epoch) = app.poll_reply().expect("poll").target().expect("target");
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
        let mut app = UdsClient::register(&path, 8).expect("app");
        let (_, epoch) = app.poll_reply().expect("poll").target().expect("target");
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
    fn a_thousand_parked_connections_are_released_by_one_register() {
        const N: usize = 1000;
        // 2 N descriptors in this process, beside the other tests'.
        raise_fd_limit(4 * N as u64);
        let (path, server) = reactor_server("park-thousand");
        let pid = std::process::id();
        let mut app = UdsClient::register(&path, 8).expect("app");
        let (_, epoch) = app.poll_reply().expect("poll").target().expect("target");
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
    fn poller_guard_drop_is_prompt_and_says_bye_once() {
        let path = sock_path("guard-drop");
        let server = UdsServer::start(UdsServerConfig::new(&path, 6)).expect("server");
        // The bound is on the fastest of a few pollers: the suite's
        // other tests share the CPUs.
        let mut fastest = Duration::MAX;
        for round in 1..=3 {
            let client = UdsClient::register(&path, 12).expect("client");
            let slot = Arc::new(TargetSlot::new(12));
            let guard = client.spawn_poller(Arc::clone(&slot), Duration::from_secs(1));
            let deadline = Instant::now() + Duration::from_secs(5);
            while slot.target.load(Ordering::Acquire) != 6 {
                assert!(Instant::now() < deadline, "poller never stored a target");
                std::thread::sleep(Duration::from_millis(1));
            }
            // The poller is now asleep for most of a second.
            let start = Instant::now();
            drop(guard);
            fastest = fastest.min(start.elapsed());
            let stats = server.stats();
            assert_eq!(stats.counters["byes"], round);
            assert_eq!(stats.gauges["apps"], 0);
        }
        assert!(fastest < Duration::from_millis(10), "drop took {fastest:?}");
    }

    #[test]
    fn weighted_equal_reports_reduce_to_equal_partition() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.weighted = true;
        let registry = Registry::new();
        let mut st = two_app_state(&cfg, &registry);
        let my_pid = std::process::id();
        let now = Instant::now();
        // With no reports at all, weighting degrades to equal.
        assert_eq!(st.target_of(my_pid, &cfg, now).map(|(_, t)| t), Some(4));
        assert_eq!(st.target_of(1, &cfg, now).map(|(_, t)| t), Some(4));
        // And with identical throughput reports for both apps too.
        for pid in [my_pid, 1] {
            st.record_report(pid, "jobs_run=500 steals=7".split_whitespace(), &cfg, now);
        }
        assert_eq!(st.target_of(my_pid, &cfg, now).map(|(_, t)| t), Some(4));
        assert_eq!(st.target_of(1, &cfg, now).map(|(_, t)| t), Some(4));
    }

    #[test]
    fn weighted_unequal_reports_skew_shares() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 8);
        cfg.weighted = true;
        let registry = Registry::new();
        let mut st = two_app_state(&cfg, &registry);
        let my_pid = std::process::id();
        let now = Instant::now();
        st.record_report(my_pid, "jobs_run=3000".split_whitespace(), &cfg, now);
        st.record_report(1, "jobs_run=100".split_whitespace(), &cfg, now);
        let (_, hot) = st.target_of(my_pid, &cfg, now).expect("hot target");
        let (_, cold) = st.target_of(1, &cfg, now).expect("cold target");
        assert!(hot > cold, "throughput should skew shares: {hot} vs {cold}");
        assert_eq!(hot + cold, 8, "still partitions the whole machine");
        // The same reports with weighting off: equal shares. The cached
        // partition was computed under `weighted`, so flipping the policy
        // must dirty it (a config change is an invalidation event).
        cfg.weighted = false;
        st.invalidate_targets();
        assert_eq!(st.target_of(my_pid, &cfg, now).map(|(_, t)| t), Some(4));
    }

    #[test]
    fn weighted_targets_survive_a_snapshot_restore() {
        let mut cfg = UdsServerConfig::new("/nonexistent", 16);
        cfg.prune_dead = false;
        cfg.weighted = true;
        let now = Instant::now();
        let mut before = WireSession::new(cfg.clone(), 7);
        for line in [
            "REGISTER 900001 16",
            "REGISTER 900002 16",
            "REGISTER 900003 16",
            "REPORT 900001 jobs_run=4000 steals=2",
            "REPORT 900003 steals=5 jobs_run=1000",
        ] {
            before.answer(line, now);
        }
        before.state.refresh_targets(&cfg, now);
        let targets = before.state.targets.clone();
        assert!(
            targets[0] > targets[2] && targets[2] > targets[1],
            "reports should skew shares: {targets:?}"
        );
        let snap = before.state.to_snapshot(7, &cfg, now);
        let registry = Registry::new();
        let mut after = ServerState::new(&registry, &cfg);
        after.restore_snapshot(&snap, &cfg, now);
        after.refresh_targets(&cfg, now);
        assert_eq!(after.targets, targets);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The partition the server caches — slot weights parsed as
        /// reports arrive, targets recomputed behind the dirty gate, CPU
        /// sets cut on demand — always equals a from-scratch one. The
        /// model is the test's own table of live registrations (in
        /// order, with their last sign of life) and latest reports,
        /// replayed into a fresh state after every step.
        ///
        /// Parked polls ride along: some steps park a poll (each pid has
        /// a connection per form) or fire the timer, and after every
        /// step the parks the server holds are exactly the ones the
        /// model expects, each for a pid still registered and each still
        /// owed the reply its client heard — whatever changed an answer
        /// also delivered it.
        #[test]
        fn cached_partition_matches_a_from_scratch_replay(
            steps in prop::collection::vec((0u32..12, 0u32..6, 0u32..5_000, 0u64..12_000), 1..48),
        ) {
            let mut cfg = UdsServerConfig::new("/nonexistent", 8);
            cfg.prune_dead = false;
            cfg.weighted = true;
            cfg.cpu_order = Some(vec![0, 4, 1, 5, 2, 6, 3, 7]);
            let mut real = WireSession::new(cfg.clone(), 7);
            let mut regs: Vec<(u32, u32, Instant)> = Vec::new();
            let mut reports = std::collections::BTreeMap::<u32, String>::new();
            // connection → (pid, the plain form of its poll, the reply
            // heard, the end of the hold)
            let mut parked =
                std::collections::BTreeMap::<u64, (u32, String, String, Instant)>::new();
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
                        let written = real.step(0, &format!("REGISTER {pid} {n}"), now);
                        match slot {
                            Some(i) => regs[i] = (pid, n, now),
                            None => regs.push((pid, n, now)),
                        }
                        (written, false, false)
                    }
                    2 => {
                        let written = real.step(0, &format!("BYE {pid}"), now);
                        regs.retain(|r| r.0 != pid);
                        reports.remove(&pid);
                        (written, false, false)
                    }
                    3 | 4 => {
                        let line = if arg % 11 == 0 {
                            format!("steals={arg}")
                        } else {
                            format!("jobs_run={arg} steals=1")
                        };
                        let written = real.step(0, &format!("REPORT {pid} {line}"), now);
                        reports.insert(pid, line);
                        if let Some(i) = slot {
                            regs[i].2 = now;
                        }
                        (written, false, false)
                    }
                    5 | 6 => (real.step(0, &format!("POLL {pid}"), now), true, true),
                    7 => (real.step(0, &format!("POLL {pid} cpus"), now), true, true),
                    8 => (real.step(0, "STATS ALL", now), true, false),
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
                        let mut written = real.step(conn, &plain, now);
                        parked.remove(&conn);
                        let heard = written.iter().rfind(|w| w.0 == conn).expect("a reply").1.clone();
                        if let Some(payload) = heard.strip_prefix("TARGET ") {
                            let hold = Duration::from_millis(u64::from(7 * arg));
                            let wait =
                                format!("{plain} wait {} {}", hold.as_millis(), payload.trim_end());
                            written.extend(real.step(conn, &wait, now));
                            prop_assert!(real.is_parked(conn), "{} did not park", wait);
                            let until = now + hold.min(cfg.lease_ttl / 2);
                            parked.insert(conn, (pid, plain, heard, until));
                        }
                        (written, true, true)
                    }
                    _ => (real.due(now), true, false),
                };
                if prunes {
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
                        "connection {} released early with nothing new: {}", conn, reply
                    );
                    if let Some(r) = regs.iter_mut().find(|r| r.0 == pid) {
                        r.2 = now;
                    }
                }

                let mut fresh = WireSession::new(cfg.clone(), 7);
                for &(pid, n, _) in &regs {
                    fresh.answer(&format!("REGISTER {pid} {n}"), now);
                }
                for (pid, line) in &reports {
                    fresh.answer(&format!("REPORT {pid} {line}"), now);
                }
                real.state.refresh_targets(&cfg, now);
                fresh.state.refresh_targets(&cfg, now);
                prop_assert_eq!(&real.state.targets, &fresh.state.targets);
                for pid in 900_000..900_006 {
                    prop_assert_eq!(
                        real.state.target_and_cpus_of(pid, &cfg, now),
                        fresh.state.target_and_cpus_of(pid, &cfg, now)
                    );
                }
                prop_assert_eq!(real.waiters.parked.len(), parked.len());
                for (conn, (pid, plain, heard, _)) in &parked {
                    prop_assert!(real.is_parked(*conn), "connection {} lost its park", conn);
                    prop_assert!(regs.iter().any(|r| r.0 == *pid), "{} parked, not registered", pid);
                    prop_assert_eq!(&fresh.answer(plain, now), heard, "{} is owed news", conn);
                }
            }
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
