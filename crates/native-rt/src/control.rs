//! The control core: the one object that owns the paper's server state.
//!
//! [`ControlCore`] holds everything a partition decision is made from and
//! everything the server answers with: registrations, leases, report
//! weights and the latest reports; the [`RecomputeGate`]-guarded partition
//! and its [`cpu_range`] carve; the per-application journals, the parked
//! polls and the server's counters. It also runs the order in which one
//! wakeup's events touch that state. It owns no socket and reads no clock:
//! every call takes the `now` its caller read.
//!
//! Its drivers are thin representatives of the one core:
//!
//! - **The reactor** (`reactor.rs`) owns sockets, `FrameBuffer`s and
//!   flushes. Per wakeup it calls [`ControlCore::expire`], then
//!   [`ControlCore::frame`] for every complete frame, flushes the frames'
//!   replies, then calls [`ControlCore::release`].
//! - **The wire tests** (`golden_wire`, the `uds` proptests) make the same
//!   calls at instants they choose and collect replies in a closure.
//! - **[`crate::Controller`]** admits and departs in-process pools and
//!   reads their targets and CPU ranges under one lock. It never expires
//!   leases: a pool's liveness is its `Arc`.
//!
//! The sim `procctl::Server` is not a driver: its targets come from
//! `rpstat` sweeps and are held between them, which this core does not
//! model. It shares the one `procctl::partition_into`.
//!
//! The wire protocol (verbs, reply shapes, the parked-poll wait form and
//! its compatibility story) is documented with the client in `uds.rs`;
//! [`WIRE_VERBS`] and `handle_line_into` here are its one server side.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use procctl::{
    cpu_range, partition_into, validate_cpus, validate_processes, AppDemand, PartitionScratch,
    RecomputeGate,
};

use crate::proc_scan;
use crate::snapshot::{ServerSnapshot, SnapshotApp};
use crate::stats::{Counter, Gauge, Registry};
use crate::trace::{self, EventKind, TraceEvent};

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

/// The server's engine: a single-threaded non-blocking reactor (epoll on
/// Linux, `poll(2)` elsewhere) that owns every connection and drives one
/// [`ControlCore`]. See DESIGN.md §13.
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
    /// partitionable processors. A sample is taken by the first read
    /// after the last one went stale ([`UdsServerConfig::sample_ttl`]),
    /// and the partition is recomputed only when its count differs from
    /// the one the cached targets used. Off by default: on a busy
    /// development host this makes targets jittery, and tests need
    /// determinism.
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

/// The partition weight a REPORT's fields carry: `1.0 + jobs_run`, so
/// observed throughput skews shares, equal (or absent) reports reduce to
/// the equal partition, and a zero counter never zeroes an app out
/// entirely. Only the first `jobs_run=` counts; one that does not parse,
/// or is negative or NaN, weighs as 0 jobs. Every field is drawn, so
/// [`ControlCore::record_report`] stores the fields in the same pass; a
/// stored line is weighed by splitting it as the dispatcher split its
/// frame.
fn report_weight<'a>(fields: impl Iterator<Item = &'a str>) -> f64 {
    let mut jobs = None;
    for f in fields {
        if jobs.is_none() {
            jobs = f.strip_prefix("jobs_run=");
        }
    }
    let jobs = jobs.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    1.0 + jobs.max(0.0)
}

/// A multiply-mix hasher for the pid-keyed maps (slots and reports).
/// Pids are small well-distributed integers, and SipHash (the `HashMap`
/// default, keyed for DoS resistance) costs more than the rest of a
/// small-map lookup on the poll path. The key space here is not
/// attacker-amplifiable: a pid occupies exactly one entry however often
/// it re-registers or reports. The hasher is unkeyed, so a client that
/// picks colliding pids slows their lookups; any client of the socket can
/// already register as many pids as it likes, each of which every
/// recompute then walks.
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

/// A map keyed by pid, hashed with [`PidHasher`]: iteration order is
/// arbitrary, so a reader that needs an order sorts.
type PidMap<V> = HashMap<u32, V, BuildHasherDefault<PidHasher>>;

/// Handles for every statistic of the core, each registered once, here.
/// [`Registry::counter`] takes the registry mutex and allocates the name
/// on every call — invisible at human polling rates, a large slice of the
/// whole frame budget at reactor rates — so each bump is one relaxed
/// atomic add. Field names are the registry names. Registering them at
/// construction is also what makes a `STATS` reply carry the full schema,
/// zeros included.
pub(crate) struct HotCounters {
    registers: Counter,
    polls: Counter,
    byes: Counter,
    reports: Counter,
    pub(crate) malformed: Counter,
    lease_expiries: Counter,
    events_pushes: Counter,
    traces: Counter,
    stats_queries: Counter,
    journal_drops: Counter,
    recompute_coalesced: Counter,
    timer_fires: Counter,
    pub(crate) snapshot_writes: Counter,
    snapshot_restores: Counter,
    pub(crate) snapshot_rejected: Counter,
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

/// What the client of a wait-form POLL still holds: the payload of the
/// last `TARGET` reply it heard (the epoch is compared on arrival — it
/// cannot change under a parked poll).
#[derive(Debug)]
struct Heard {
    target: u32,
    /// The CPU set, sorted, for the `cpus` form.
    cpus: Option<Vec<u32>>,
}

/// A wait-form POLL whose answer would repeat what its client heard: the
/// core keeps it and answers when that stops being true or at `until`.
#[derive(Debug)]
struct Park {
    pid: u32,
    heard: Heard,
    until: Instant,
}

/// The paper's control server with no socket: its state, its one
/// dispatcher and its per-wakeup order (see the module docs). Connections
/// are numbers the driver chooses. Public only for the `golden_wire`
/// test.
#[doc(hidden)]
pub struct ControlCore {
    cfg: UdsServerConfig,
    epoch: u64,
    /// The rendered ` <epoch>\n` suffix shared by every OK/TARGET reply.
    epoch_suffix: String,
    registry: Arc<Registry>,
    /// Pre-resolved statistic handles (see [`HotCounters`]).
    pub(crate) hot: HotCounters,
    apps: Vec<AppReg>,
    /// pid → index into `apps` (and into `targets`, which shares
    /// registration order): the per-frame lookups are O(1) hash probes
    /// instead of O(apps) scans.
    index: PidMap<usize>,
    last_sample: Option<(Instant, u32)>,
    /// Latest `REPORT` line per pid (cleared on BYE and lease expiry).
    reports: PidMap<String>,
    /// The reports of pids not registered, each with the deadline of the
    /// lease timer its first report armed. If the pid has not registered
    /// when that timer pops, its report is dropped: a report waits at
    /// most one lease for its REGISTER.
    unclaimed: PidMap<Instant>,
    /// Bounded per-pid event journal: flight-recorder events the app
    /// pushed via `EVENTS`, interleaved with the server's own decision
    /// instants, oldest first (cleared on BYE and lease expiry).
    journals: BTreeMap<u32, VecDeque<TraceEvent>>,
    /// Deadline-ordered lease timers: `(deadline, pid)`, earliest first.
    /// One entry is pushed at registration (or at an unclaimed report,
    /// whose timer the registration then takes over); when it pops, the
    /// lease is either expired (`last_seen + ttl` has passed) or the timer
    /// re-arms itself at the refreshed deadline — so the heap stays
    /// O(apps) no matter how fast clients poll, and lease expiry costs
    /// O(log apps) amortized instead of an O(apps) scan per frame.
    lease_timers: BinaryHeap<Reverse<(Instant, u32)>>,
    /// Last `/proc` liveness sweep (throttled to [`PROC_SWEEP_PERIOD`]).
    last_proc_sweep: Option<Instant>,
    /// Coalesces partition recomputation: REGISTER/BYE/expiry, a changed
    /// load sample and a weighted REPORT that can move a target mark the
    /// cache dirty; the next read recomputes once for the whole burst.
    targets_gate: RecomputeGate,
    /// Whether the cached targets depend on the weights (what
    /// `partition_into` returned): if not, a weighted REPORT leaves them.
    weights_read: bool,
    /// The uncontrollable load the cached targets were computed with.
    uncontrolled: u32,
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
    /// The parked polls in the order they parked, each with the
    /// connection its reply is owed to.
    parked: Vec<(u64, Park)>,
    /// The earliest `until` among `parked`, or earlier: releasing a park
    /// early leaves it, and the scan that finds nothing due corrects it.
    /// `None` whenever nothing is parked.
    next_due: Option<Instant>,
    /// The recompute count (`RecomputeGate::recomputes`) the parked set
    /// was last compared against.
    seen_recomputes: u64,
    /// The buffer every reply renders into before it is handed out.
    out: String,
}

impl ControlCore {
    /// A server with no registrations at `epoch`, configured by `cfg`
    /// (its `path`, `engine` and snapshot fields are the driver's).
    pub fn new(cfg: UdsServerConfig, epoch: u64) -> ControlCore {
        let registry = Arc::new(Registry::new());
        ControlCore {
            epoch,
            epoch_suffix: format!(" {epoch}\n"),
            hot: HotCounters::new(&registry),
            registry,
            apps: Vec::new(),
            index: PidMap::default(),
            last_sample: None,
            reports: PidMap::default(),
            unclaimed: PidMap::default(),
            journals: BTreeMap::new(),
            lease_timers: BinaryHeap::new(),
            last_proc_sweep: None,
            targets_gate: RecomputeGate::new(),
            weights_read: false,
            uncontrolled: 0,
            targets: Vec::new(),
            demands: Vec::new(),
            scratch: PartitionScratch::default(),
            cpu_order: match &cfg.cpu_order {
                Some(o) if !o.is_empty() => o.clone(),
                _ => (0..cfg.cpus as u32).collect(),
            },
            cfg,
            parked: Vec::new(),
            next_due: None,
            seen_recomputes: 0,
            out: String::new(),
        }
    }

    /// The epoch every reply is stamped with.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The registry the core's statistics live in (what `STATS` renders).
    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The configuration the core was built with.
    pub(crate) fn cfg(&self) -> &UdsServerConfig {
        &self.cfg
    }

    /// One frame arriving on connection `conn` at `now`, handing each
    /// reply it writes to `emit` (newline included), in order: the reply
    /// to `conn`'s own parked poll, if it had one (a later frame releases
    /// it, so replies stay in frame order); then the reply to `frame`,
    /// unless it is a wait-form POLL with nothing new to say, which parks.
    /// Returns false when the connection must close: the frame was not
    /// UTF-8 (answered `ERR malformed`). Lease expiry is the driver's
    /// ([`ControlCore::expire`]), except that the verbs that read the
    /// partition expire what is due before they answer.
    pub fn frame(
        &mut self,
        conn: u64,
        frame: &[u8],
        now: Instant,
        mut emit: impl FnMut(&str),
    ) -> bool {
        let mut out = std::mem::take(&mut self.out);
        if !self.parked.is_empty() {
            if let Some(i) = self.parked.iter().position(|(c, _)| *c == conn) {
                let park = self.unpark(i);
                self.refresh_targets(now);
                let changed = self.differs_from(park.pid, &park.heard);
                out.clear();
                release_into(self, &park, changed, now, &mut out);
                emit(&out);
            }
        }
        out.clear();
        let utf8 = match std::str::from_utf8(frame) {
            Ok(line) => {
                match handle_line_into(self, line, now, &mut out) {
                    None => emit(&out),
                    Some(park) => self.park(conn, park),
                }
                true
            }
            Err(_) => {
                reply_malformed(self, &mut out);
                emit(&out);
                false
            }
        };
        self.out = out;
        utf8
    }

    /// Expires what is due at `now`: registrations that let their lease
    /// lapse, via the deadline-ordered timer queue (a call with nothing
    /// due costs one heap peek), and those whose process died (`/proc`,
    /// throttled, if `prune_dead`).
    pub fn expire(&mut self, now: Instant) {
        #[cfg(target_os = "linux")]
        if self.cfg.prune_dead {
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
        let ttl = self.cfg.lease_ttl;
        while let Some(&Reverse((deadline, pid))) = self.lease_timers.peek() {
            if deadline > now {
                break;
            }
            self.lease_timers.pop();
            self.hot.timer_fires.incr();
            let Some(&idx) = self.index.get(&pid) else {
                // Departed since the timer was armed, or an unclaimed
                // report's timer.
                if self.unclaimed.get(&pid) == Some(&deadline) {
                    self.unclaimed.remove(&pid);
                    self.reports.remove(&pid);
                }
                continue;
            };
            let fresh_deadline = self.apps[idx].last_seen + ttl;
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

    /// Releases every park whose reply stopped matching what its client
    /// heard, or whose hold ran out by `now`, handing each `(connection,
    /// reply)` to `emit` in park order. Call once per wakeup, after the
    /// wakeup's own replies are on their way: whoever caused a change
    /// hears `OK` before anyone hears its consequence. With nobody parked
    /// this is one `is_empty()`; with somebody parked the set is scanned
    /// only if the partition was recomputed since the last scan or a
    /// deadline is due: a target moves only in a recompute, and with
    /// `account_system_load` a load sample recomputes only when its
    /// count changed.
    pub fn release(&mut self, now: Instant, mut emit: impl FnMut(u64, &str)) {
        if self.parked.is_empty() {
            return;
        }
        self.refresh_targets(now);
        let recomputes = self.targets_gate.recomputes();
        let recomputed = recomputes != self.seen_recomputes;
        if !recomputed && !self.next_due.is_some_and(|at| at <= now) {
            return;
        }
        self.seen_recomputes = recomputes;
        let mut parked = std::mem::take(&mut self.parked);
        let mut out = std::mem::take(&mut self.out);
        let mut next_due: Option<Instant> = None;
        parked.retain(|(conn, park)| {
            let changed = self.differs_from(park.pid, &park.heard);
            if !changed && park.until > now {
                next_due = Some(next_due.map_or(park.until, |at| at.min(park.until)));
                return true;
            }
            out.clear();
            release_into(self, park, changed, now, &mut out);
            emit(*conn, &out);
            false
        });
        self.parked = parked;
        self.out = out;
        self.next_due = next_due;
        self.hot.parked.set(self.parked.len() as i64);
    }

    /// Connection `conn` closed: a park it held is forgotten, unanswered.
    pub fn hang_up(&mut self, conn: u64) {
        if let Some(i) = self.parked.iter().position(|(c, _)| *c == conn) {
            self.unpark(i);
        }
    }

    /// Whether connection `conn` is owed the reply to a parked poll.
    pub fn is_parked(&self, conn: u64) -> bool {
        self.parked.iter().any(|(c, _)| *c == conn)
    }

    /// The earliest lease or hold deadline: when the next call to
    /// [`ControlCore::expire`] or [`ControlCore::release`] has work.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        let lease = self.lease_timers.peek().map(|Reverse((at, _))| *at);
        match (lease, self.next_due) {
            (Some(lease), Some(hold)) => Some(lease.min(hold)),
            (lease, hold) => lease.or(hold),
        }
    }

    /// Keeps `park` for connection `conn`, which must have none.
    fn park(&mut self, conn: u64, park: Park) {
        debug_assert!(!self.is_parked(conn));
        self.next_due = Some(self.next_due.map_or(park.until, |at| at.min(park.until)));
        self.parked.push((conn, park));
        self.hot.polls_parked.incr();
        self.hot.parked.set(self.parked.len() as i64);
    }

    /// Takes the park at `i` out of the parked set.
    fn unpark(&mut self, i: usize) -> Park {
        let (_, park) = self.parked.remove(i);
        if self.parked.is_empty() {
            self.next_due = None;
        }
        self.hot.parked.set(self.parked.len() as i64);
        park
    }

    /// Marks the cached partition stale, counting coalesced bursts.
    fn invalidate_targets(&mut self) {
        if self.targets_gate.invalidate() {
            self.hot.recompute_coalesced.incr();
        }
    }

    /// Registers `pid` (or refreshes an existing registration's lease
    /// and worker count), arming a lease timer for new registrations.
    pub(crate) fn admit(&mut self, pid: u32, nworkers: u32, now: Instant) {
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
                    .map_or(1.0, |line| report_weight(line.split_ascii_whitespace()));
                self.index.insert(pid, self.apps.len());
                self.apps.push(AppReg::new(pid, nworkers, now, weight));
                // An unclaimed report's timer is still armed: on pop it
                // finds the registration and re-arms at the lease deadline.
                if self.unclaimed.remove(&pid).is_none() {
                    self.lease_timers
                        .push(Reverse((now + self.cfg.lease_ttl, pid)));
                }
            }
        }
        self.invalidate_targets();
        self.hot.apps.set(self.apps.len() as i64);
    }

    /// Removes `pid`'s registration and associated per-app state: the
    /// slot's weight goes with the report it was parsed from, so a pid
    /// that registers again starts at weight 1.0.
    pub(crate) fn depart(&mut self, pid: u32) {
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
        self.unclaimed.remove(&pid);
        self.journals.remove(&pid);
        self.hot.apps.set(self.apps.len() as i64);
    }

    /// Every registration in partition order as of `now`: its pid, its
    /// target, and its CPU range — the carve every reply is cut from.
    pub(crate) fn assignments(
        &mut self,
        now: Instant,
    ) -> impl Iterator<Item = (u32, u32, impl Iterator<Item = u32> + '_)> + '_ {
        self.refresh_targets(now);
        let order = &self.cpu_order;
        let mut start = 0usize;
        self.apps.iter().zip(&self.targets).map(move |(a, &t)| {
            let cpus = cpu_range(order, start, t);
            start += t as usize;
            (a.pid, t, cpus)
        })
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
    /// lease and the weight of a registered pid, weighing the fields as
    /// it joins them. The first report of a pid not registered is
    /// unclaimed: it arms a lease timer, and is dropped if the pid has
    /// not registered when the timer pops. Under `weighted` the report
    /// feeds the partition weights, so it dirties the target cache — if
    /// the cached targets depend on the weights, or the cache is dirty
    /// already (the report is then counted as coalesced).
    fn record_report<'a>(&mut self, pid: u32, fields: impl Iterator<Item = &'a str>, now: Instant) {
        let line = match self.reports.entry(pid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                if !self.index.contains_key(&pid) {
                    let deadline = now + self.cfg.lease_ttl;
                    self.lease_timers.push(Reverse((deadline, pid)));
                    self.unclaimed.insert(pid, deadline);
                }
                e.insert(String::new())
            }
        };
        line.clear();
        let weight = report_weight(fields.inspect(|f| {
            if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(f);
        }));
        if let Some(&idx) = self.index.get(&pid) {
            let a = &mut self.apps[idx];
            a.last_seen = now;
            a.weight = weight;
        }
        if self.cfg.weighted && (self.weights_read || self.targets_gate.is_dirty()) {
            self.invalidate_targets();
        }
    }

    /// Appends events to `pid`'s journal, dropping the oldest beyond
    /// `cfg.journal_cap` (counted, never silent).
    fn append_events(&mut self, pid: u32, events: impl IntoIterator<Item = TraceEvent>) {
        let cap = self.cfg.journal_cap;
        if cap == 0 {
            return;
        }
        let journal = self.journals.entry(pid).or_default();
        for ev in events {
            if journal.len() >= cap {
                journal.pop_front();
                self.hot.journal_drops.incr();
            }
            journal.push_back(ev);
        }
    }

    /// Records a decision instant in the journal of the app at `idx`
    /// when the computed target differs from the last one journaled —
    /// the server-side half of the merged timeline (decision → effect).
    fn note_decision(&mut self, idx: usize, target: u32) {
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
        self.append_events(pid, [ev]);
    }

    /// Drains up to `max` of the oldest journaled events for `pid`.
    fn drain_journal(&mut self, pid: u32, max: usize) -> Vec<TraceEvent> {
        match self.journals.get_mut(&pid) {
            Some(j) => {
                let n = j.len().min(max);
                j.drain(..n).collect()
            }
            None => Vec::new(),
        }
    }

    /// The system-wide uncontrollable load to subtract, sampling `/proc`
    /// when the cached sample went stale as of `now` (the caller's clock
    /// reading: with accounting on every read comes through here).
    fn uncontrolled_load(&mut self, now: Instant) -> u32 {
        let ttl = self.cfg.sample_ttl;
        let fresh = self
            .last_sample
            .is_some_and(|(at, _)| now.saturating_duration_since(at) < ttl);
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
    /// uncontrollable load is an input that changes with no event: a
    /// sample whose count differs from the one the cached targets used
    /// dirties the cache like a REGISTER, and an unchanged one keeps it.
    fn refresh_targets(&mut self, now: Instant) {
        if self.cfg.account_system_load {
            let uncontrolled = self.uncontrolled_load(now);
            if uncontrolled != self.uncontrolled {
                self.uncontrolled = uncontrolled;
                self.invalidate_targets();
            }
        }
        if !self.targets_gate.take_dirty() {
            return;
        }
        let weighted = self.cfg.weighted;
        self.demands.clear();
        self.demands.extend(self.apps.iter().map(|a| AppDemand {
            processes: a.nworkers,
            weight: if weighted { a.weight } else { 1.0 },
        }));
        self.weights_read = partition_into(
            self.cfg.cpus as u32,
            self.uncontrolled,
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
    fn target_of(&mut self, pid: u32, now: Instant) -> Option<(usize, u32)> {
        self.refresh_targets(now);
        let idx = *self.index.get(&pid)?;
        Some((idx, self.targets.get(idx).copied()?))
    }

    /// The slot, target, *and* concrete CPU set for `pid`: every app's
    /// effective target is sliced contiguously from the configured CPU
    /// order, so each reply is consistent with what every other
    /// registered app would be told in the same instant.
    fn target_and_cpus_of(&mut self, pid: u32, now: Instant) -> Option<(usize, u32, Vec<u32>)> {
        let (idx, target) = self.target_of(pid, now)?;
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
    /// partition: call [`ControlCore::refresh_targets`] first.
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

    /// Serializes the recoverable state (see [`crate::snapshot`]):
    /// registrations in partition order with their remaining lease
    /// time, latest reports in pid order (the map is hashed; the order
    /// keeps the encoded bytes a function of the state), and the epoch.
    /// Journals are deliberately excluded — drains are destructive and
    /// replaying stale events after restart would corrupt the merged
    /// timeline.
    pub(crate) fn to_snapshot(&self, now: Instant) -> ServerSnapshot {
        let mut reports: Vec<(u32, String)> = self
            .reports
            .iter()
            .map(|(pid, line)| (*pid, line.clone()))
            .collect();
        reports.sort_unstable_by_key(|&(pid, _)| pid);
        ServerSnapshot {
            epoch: self.epoch,
            apps: self
                .apps
                .iter()
                .map(|a| SnapshotApp {
                    pid: a.pid,
                    nworkers: a.nworkers,
                    lease_remaining: (a.last_seen + self.cfg.lease_ttl)
                        .saturating_duration_since(now),
                })
                .collect(),
            reports,
        }
    }

    /// Restores a decoded snapshot into a freshly-constructed core. The
    /// epoch moves strictly above the snapshotted one, so epochs stay
    /// monotone across restarts even on coarse clocks. Registrations
    /// re-admit in snapshot (= partition) order with their leases re-armed
    /// at the *remaining* time — a crash and restart never extends a
    /// silent client's tenure — and reports reattach to the pids that
    /// survived. Invalid worker counts are skipped (the snapshot is data,
    /// not trusted input).
    pub(crate) fn restore(&mut self, snap: &ServerSnapshot, now: Instant) {
        self.epoch = self.epoch.max(snap.epoch.wrapping_add(1));
        self.epoch_suffix = format!(" {}\n", self.epoch);
        let ttl = self.cfg.lease_ttl;
        for a in &snap.apps {
            if validate_processes(a.nworkers).is_err() || self.index.contains_key(&a.pid) {
                continue;
            }
            // Backdate last_seen so `last_seen + ttl` lands exactly at
            // the snapshotted remaining-lease deadline.
            let back = ttl.saturating_sub(a.lease_remaining);
            let seen = now.checked_sub(back).unwrap_or(now);
            self.index.insert(a.pid, self.apps.len());
            self.apps.push(AppReg::new(a.pid, a.nworkers, seen, 1.0));
            self.lease_timers.push(Reverse((seen + ttl, a.pid)));
        }
        for (pid, line) in &snap.reports {
            if let Some(&idx) = self.index.get(pid) {
                self.apps[idx].weight = report_weight(line.split_ascii_whitespace());
                self.reports.insert(*pid, line.clone());
            }
        }
        self.invalidate_targets();
        self.hot.apps.set(self.apps.len() as i64);
        self.hot.snapshot_restores.incr();
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
fn reply_malformed(st: &mut ControlCore, out: &mut String) {
    st.hot.malformed.incr();
    out.push_str("ERR malformed\n");
}

/// Appends the reply to a poll for `pid` — the `cpus` form when `cpus` —
/// refreshing its lease and journaling a changed target. Plain polls,
/// wait-form polls answered at once and released parks all end here, so
/// the three cannot drift apart.
fn poll_reply_into(st: &mut ControlCore, pid: u32, cpus: bool, now: Instant, out: &mut String) {
    if !st.touch(pid, now) {
        // Expired lease, dead registration, or a pre-restart client the
        // new server never heard of.
        out.push_str("ERR unregistered\n");
        return;
    }
    if cpus {
        match st.target_and_cpus_of(pid, now) {
            Some((idx, t, cpus)) => {
                st.note_decision(idx, t);
                let list = crate::topology::format_cpulist(&cpus);
                let epoch = st.epoch;
                out.push_str(&format!("TARGET {t} {epoch} cpus={list}\n"));
            }
            None => out.push_str("ERR unregistered\n"),
        }
    } else {
        match st.target_of(pid, now) {
            Some((idx, t)) => {
                st.note_decision(idx, t);
                out.push_str("TARGET ");
                push_u32(out, t);
                out.push_str(&st.epoch_suffix);
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
    st: &mut ControlCore,
    pid: u32,
    (hold, heard_epoch, heard): (Duration, u64, Heard),
    now: Instant,
    out: &mut String,
) -> Option<Park> {
    st.expire(now);
    st.refresh_targets(now);
    if heard_epoch != st.epoch || st.differs_from(pid, &heard) {
        poll_reply_into(st, pid, heard.cpus.is_some(), now, out);
        return None;
    }
    st.touch(pid, now);
    Some(Park {
        pid,
        heard,
        until: now + hold.min(st.cfg.lease_ttl / 2),
    })
}

/// Appends a released park's reply (refreshing the lease, as the park
/// did), counted by what the client learns: something new (`changed`),
/// or that the hold passed with nothing new.
fn release_into(st: &mut ControlCore, park: &Park, changed: bool, now: Instant, out: &mut String) {
    if changed {
        st.hot.park_released_changed.incr();
    } else {
        st.hot.park_released_held.incr();
    }
    poll_reply_into(st, park.pid, park.heard.cpus.is_some(), now, out);
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

/// Answers one request line at `now`, appending exactly one reply to
/// `out` — or, for a wait-form POLL with nothing new to say, none yet:
/// the [`Park`] it returns is [`ControlCore::frame`]'s to keep. Every
/// line gets a reply — malformed input is answered with `ERR <reason>`
/// rather than silence, so a client blocked in `read_line` always makes
/// progress.
///
/// The hot verbs reply with zero allocations: the request is parsed with
/// a non-collecting token iterator, targets render through [`push_u32`],
/// the ` <epoch>\n` tail is rendered once, and `out` is the core's own
/// kept buffer. Fields are separated by runs of ASCII whitespace (space,
/// `\t`, `\r`, `\f`; `uds.rs` documents the grammar), so splitting reads
/// bytes and never decodes a char: `\v` and non-ASCII spaces are field
/// content.
// sched-counter-exits(polls|registers|byes|reports|events_pushes|traces|stats_queries|malformed):
// every frame must land in exactly one per-verb counter so the STATS
// export and schedtop's rates account for all traffic.
fn handle_line_into(
    st: &mut ControlCore,
    line: &str,
    now: Instant,
    out: &mut String,
) -> Option<Park> {
    let mut fields = line.split_ascii_whitespace();
    let Some(verb) = fields.next() else {
        st.hot.malformed.incr();
        out.push_str("ERR empty\n");
        return None;
    };
    match verb {
        // The hot verb: every registered application polls continuously.
        "POLL" => {
            let pid = fields.next().and_then(|f| f.parse::<u32>().ok());
            match (pid, fields.next(), fields.next()) {
                (Some(pid), None, _) => {
                    st.hot.polls.incr();
                    st.expire(now);
                    poll_reply_into(st, pid, false, now, out);
                }
                // The CPU-set extension: same poll semantics, but the
                // reply also names the processors (`cpus=<cpulist>`).
                (Some(pid), Some("cpus"), None) => {
                    st.hot.polls.incr();
                    st.expire(now);
                    poll_reply_into(st, pid, true, now, out);
                }
                // The wait form of either: the client says what it last
                // heard and how long a repeat of it may be withheld.
                (Some(pid), Some("wait"), Some(hold)) => {
                    match parse_wait(false, std::iter::once(hold).chain(fields)) {
                        Some(wait) => {
                            st.hot.polls.incr();
                            return poll_wait(st, pid, wait, now, out);
                        }
                        None => reply_malformed(st, out),
                    }
                }
                (Some(pid), Some("cpus"), Some("wait")) => match parse_wait(true, fields) {
                    Some(wait) => {
                        st.hot.polls.incr();
                        return poll_wait(st, pid, wait, now, out);
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
                        return None;
                    }
                    st.hot.registers.incr();
                    st.admit(pid, n, now);
                    out.push_str("OK");
                    out.push_str(&st.epoch_suffix);
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
                out.push_str(&st.epoch_suffix);
            }
            _ => reply_malformed(st, out),
        },
        // `STATS ALL` joins the stored lines with `|`: a line with one
        // in it would split into a spoofed row or an unparsable one.
        "REPORT" => match fields.next().and_then(|f| f.parse::<u32>().ok()) {
            Some(pid) if !line.contains('|') => {
                st.hot.reports.incr();
                st.record_report(pid, fields, now);
                out.push_str("OK");
                out.push_str(&st.epoch_suffix);
            }
            _ => reply_malformed(st, out),
        },
        // Flight-recorder push: an application drains its per-worker
        // rings and forwards the batch (comma-joined `ts:kind:worker:arg`
        // frames, no spaces — so this is always exactly three fields).
        // Accepting the batch refreshes the lease like POLL/REPORT do.
        "EVENTS" => {
            let pid = fields.next().and_then(|f| f.parse::<u32>().ok());
            let events = fields.next().and_then(trace::parse_events);
            match (pid, events, fields.next()) {
                (Some(pid), Some(events), None) => {
                    st.hot.events_pushes.incr();
                    st.expire(now);
                    if !st.touch(pid, now) {
                        out.push_str("ERR unregistered\n");
                        return None;
                    }
                    st.append_events(pid, events);
                    out.push_str("OK");
                    out.push_str(&st.epoch_suffix);
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
                    let (epoch, n) = (st.epoch, events.len());
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
                    out.push_str(&format!("STATS {}\n", st.registry.snapshot().render_line()))
                }
                // Fleet snapshot: every registered pid's target and latest
                // report in one round-trip (`|`-separated), so a monitor
                // scales O(1) in requests instead of O(apps).
                (Some("ALL"), None) => {
                    st.expire(now);
                    st.refresh_targets(now);
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
    None
}

#[cfg(test)]
impl ControlCore {
    /// Every registration as `(pid, nworkers, last_seen, target)`, in
    /// partition order: what the control-loop simulation checks.
    pub(crate) fn registrations(&mut self, now: Instant) -> Vec<(u32, u32, Instant, u32)> {
        self.refresh_targets(now);
        self.apps
            .iter()
            .zip(&self.targets)
            .map(|(a, &t)| (a.pid, a.nworkers, a.last_seen, t))
            .collect()
    }

    /// Whether a REPORT line is stored for `pid`.
    pub(crate) fn has_report(&self, pid: u32) -> bool {
        self.reports.contains_key(&pid)
    }

    /// Every registration's stored weight, in partition order (what a
    /// recompute reads under `weighted`).
    pub(crate) fn weights(&self) -> Vec<f64> {
        self.apps.iter().map(|a| a.weight).collect()
    }

    /// Partition recomputes since the core was built.
    pub(crate) fn recomputes(&self) -> u64 {
        self.targets_gate.recomputes()
    }

    /// Stands in for a `/proc` load sample of `runnable` threads taken
    /// at `at`: until `sample_ttl` after it, reads use it.
    pub(crate) fn seed_sample(&mut self, at: Instant, runnable: u32) {
        self.last_sample = Some((at, runnable));
    }
}
