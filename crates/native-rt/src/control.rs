//! The control core: the one object that owns the paper's server state.
//!
//! [`ControlCore`] holds everything a partition decision is made from and
//! everything the server answers with: registrations, leases, report
//! weights and the latest reports; the [`RecomputeGate`]-guarded partition
//! and its [`cpu_range`] carve; the per-application journals, the parked
//! polls and the server's counters. It also runs the order in which one
//! wakeup's events touch that state. It owns no socket, reads no file and
//! reads no clock: every call takes the `now` its caller read, a
//! [`Duration`] since the trace clock's origin (`trace::clock_origin`), and
//! what the kernel says about the machine arrives as a [`Sample`] — the
//! paper's periodic `rpstat`.
//!
//! Its drivers are thin representatives of the one core:
//!
//! - **The reactor** (`reactor.rs`) owns sockets, `FrameBuffer`s, flushes
//!   and the `/proc` walk. Per wakeup it hands in a [`Sample`] when
//!   [`ControlCore::sample_due`] says one is, calls [`ControlCore::expire`],
//!   then [`ControlCore::frame`] for every complete frame, flushes the
//!   frames' replies, then calls [`ControlCore::release`]; it sleeps until
//!   [`ControlCore::next_deadline`].
//! - **The tests** (the scripts below, `golden_wire`, the control-loop
//!   simulation in `chaos.rs`) make the same calls at instants they choose,
//!   hand in the samples they choose and collect replies in a closure.
//! - **[`crate::Controller`]** admits and departs in-process pools and
//!   reads their targets and CPU ranges under one lock. It never expires
//!   leases: a pool's liveness is its `Arc`.
//!
//! The sim `procctl::Server` is not a driver: its targets come from
//! `rpstat` sweeps and are held between them, which this core does not
//! model. It shares the one `ctl_core::partition_into`.
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
use std::time::Duration;

use ctl_core::{
    cpu_range, partition_into, validate_cpus, validate_processes, AppDemand, PartitionScratch,
    RecomputeGate,
};

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

/// How often the core asks for a [`Sample`] while some application is
/// registered (and `prune_dead` or `account_system_load` wants one). A
/// sample is one walk of `/proc`; leases remain the authoritative reclaim
/// mechanism — a sample only speeds up the cleanup of processes that died
/// without a BYE, and with `account_system_load` it is the uncontrollable
/// load the partition subtracts.
pub const SAMPLE_PERIOD: Duration = Duration::from_millis(500);

/// What the kernel said about the machine at one instant: the paper's
/// `rpstat`, taken by the driver (the reactor walks `/proc` on Linux) and
/// handed to [`ControlCore::sample`].
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Runnable threads of the processes that are neither registered nor
    /// the server itself.
    pub runnable_excluding: u32,
    /// The registered pids whose process no longer exists.
    pub dead_pids: Vec<u32>,
}

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
    /// Subtract system-wide runnable threads (a [`Sample`]'s
    /// `runnable_excluding`, every [`SAMPLE_PERIOD`] while an application
    /// is registered) from the partitionable processors. The partition is
    /// recomputed only when a sample's count differs from the one the
    /// cached targets used. Off by default: on a busy development host
    /// this makes targets jittery.
    pub account_system_load: bool,
    /// How long a registration stays valid without a POLL/REPORT refresh.
    pub lease_ttl: Duration,
    /// Drop the registrations a [`Sample`] names dead (the reactor walks
    /// `/proc`; elsewhere the walk is unsupported and names none). Leases
    /// catch what this cannot: processes that are alive but wedged.
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
    /// Defaults: no system-load accounting, 30 s lease,
    /// dead-process pruning on, identity CPU order, unweighted shares,
    /// [`DEFAULT_JOURNAL_CAP`] events of journal per application.
    pub fn new(path: impl Into<PathBuf>, cpus: usize) -> Self {
        UdsServerConfig {
            path: path.into(),
            cpus,
            account_system_load: false,
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
    /// When the lease runs out: one TTL after the last REGISTER, POLL or
    /// REPORT from this pid, or what a snapshot said was left of it.
    lease_until: Duration,
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
    fn new(pid: u32, nworkers: u32, lease_until: Duration, weight: f64) -> AppReg {
        AppReg {
            pid,
            nworkers,
            lease_until,
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
    until: Duration,
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
    /// Latest `REPORT` line per pid (cleared on BYE and lease expiry).
    reports: PidMap<String>,
    /// The reports of pids not registered, each with the deadline of the
    /// lease timer its first report armed. If the pid has not registered
    /// when that timer pops, its report is dropped: a report waits at
    /// most one lease for its REGISTER.
    unclaimed: PidMap<Duration>,
    /// Bounded per-pid event journal: flight-recorder events the app
    /// pushed via `EVENTS`, interleaved with the server's own decision
    /// instants, oldest first (cleared on BYE and lease expiry).
    journals: BTreeMap<u32, VecDeque<TraceEvent>>,
    /// Deadline-ordered lease timers: `(deadline, pid)`, earliest first.
    /// One entry is pushed at registration (or at an unclaimed report,
    /// whose timer the registration then takes over); when it pops, the
    /// lease is either expired (its `lease_until` has passed) or the timer
    /// re-arms itself at the refreshed deadline — so the heap stays
    /// O(apps) no matter how fast clients poll, and lease expiry costs
    /// O(log apps) amortized instead of an O(apps) scan per frame.
    lease_timers: BinaryHeap<Reverse<(Duration, u32)>>,
    /// When the last [`Sample`] was handed in: the next is due one
    /// [`SAMPLE_PERIOD`] later.
    sampled_at: Option<Duration>,
    /// Coalesces partition recomputation: REGISTER/BYE/expiry, a changed
    /// load sample and a weighted REPORT that can move a target mark the
    /// cache dirty; the next read recomputes once for the whole burst.
    targets_gate: RecomputeGate,
    /// Whether the cached targets depend on the weights (what
    /// `partition_into` returned): if not, a weighted REPORT leaves them.
    weights_read: bool,
    /// The uncontrollable load of the latest sample (0 until one arrives,
    /// and without `account_system_load`).
    uncontrolled: u32,
    /// Cached per-app targets, registration order (valid unless dirty).
    /// App `i`'s CPU set is not stored: it is the range of `cpu_order`
    /// that starts at the sum of `targets[..i]` ([`ctl_core::cpu_range`]),
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
    next_due: Option<Duration>,
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
            reports: PidMap::default(),
            unclaimed: PidMap::default(),
            journals: BTreeMap::new(),
            lease_timers: BinaryHeap::new(),
            sampled_at: None,
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
        now: Duration,
        mut emit: impl FnMut(&str),
    ) -> bool {
        let mut out = std::mem::take(&mut self.out);
        if !self.parked.is_empty() {
            if let Some(i) = self.parked.iter().position(|(c, _)| *c == conn) {
                let park = self.unpark(i);
                self.refresh_targets();
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

    /// Takes in what the kernel said at `now`: with `prune_dead`, each
    /// dead pid departs; with `account_system_load`, a runnable count that
    /// differs from the one the cached targets used dirties them like a
    /// REGISTER, and an unchanged one leaves them (and the parks) alone.
    /// The next sample is due one [`SAMPLE_PERIOD`] after this one.
    pub fn sample(&mut self, now: Duration, sample: Sample) {
        self.sampled_at = Some(now);
        if self.cfg.prune_dead {
            for pid in sample.dead_pids {
                self.depart(pid);
            }
        }
        if self.cfg.account_system_load && sample.runnable_excluding != self.uncontrolled {
            self.uncontrolled = sample.runnable_excluding;
            self.invalidate_targets();
        }
    }

    /// When the next [`Sample`] is due: one [`SAMPLE_PERIOD`] after the
    /// last, at once if none came yet, and never while no application is
    /// registered or neither `prune_dead` nor `account_system_load` would
    /// read one.
    fn sample_at(&self) -> Option<Duration> {
        let wanted = self.cfg.prune_dead || self.cfg.account_system_load;
        (wanted && !self.apps.is_empty()).then(|| {
            self.sampled_at
                .map_or(Duration::ZERO, |at| at + SAMPLE_PERIOD)
        })
    }

    /// Whether the driver should hand in a [`Sample`] at `now`.
    pub(crate) fn sample_due(&self, now: Duration) -> bool {
        self.sample_at().is_some_and(|at| at <= now)
    }

    /// The registered pids, in partition order: what a sample is taken
    /// about.
    pub(crate) fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.apps.iter().map(|a| a.pid)
    }

    /// Expires the registrations that let their lease lapse by `now`, via
    /// the deadline-ordered timer queue (a call with nothing due costs one
    /// heap peek).
    pub fn expire(&mut self, now: Duration) {
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
            let fresh_deadline = self.apps[idx].lease_until;
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
    pub fn release(&mut self, now: Duration, mut emit: impl FnMut(u64, &str)) {
        if self.parked.is_empty() {
            return;
        }
        self.refresh_targets();
        let recomputes = self.targets_gate.recomputes();
        let recomputed = recomputes != self.seen_recomputes;
        if !recomputed && !self.next_due.is_some_and(|at| at <= now) {
            return;
        }
        self.seen_recomputes = recomputes;
        let mut parked = std::mem::take(&mut self.parked);
        let mut out = std::mem::take(&mut self.out);
        let mut next_due: Option<Duration> = None;
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

    /// The earliest lease, hold or sample deadline: when the next call to
    /// [`ControlCore::expire`], [`ControlCore::release`] or
    /// [`ControlCore::sample`] has work.
    pub(crate) fn next_deadline(&self) -> Option<Duration> {
        let lease = self.lease_timers.peek().map(|Reverse((at, _))| *at);
        [lease, self.next_due, self.sample_at()]
            .into_iter()
            .flatten()
            .min()
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
    pub(crate) fn admit(&mut self, pid: u32, nworkers: u32, now: Duration) {
        let lease_until = now + self.cfg.lease_ttl;
        match self.index.get(&pid) {
            Some(&idx) => {
                // Re-registration refreshes the lease and adopts the new
                // worker count; its existing timer re-arms on pop.
                let a = &mut self.apps[idx];
                a.nworkers = nworkers;
                a.lease_until = lease_until;
            }
            None => {
                // A pid may have reported before it registered.
                let weight = self
                    .reports
                    .get(&pid)
                    .map_or(1.0, |line| report_weight(line.split_ascii_whitespace()));
                self.index.insert(pid, self.apps.len());
                self.apps
                    .push(AppReg::new(pid, nworkers, lease_until, weight));
                // An unclaimed report's timer is still armed: on pop it
                // finds the registration and re-arms at the lease deadline.
                if self.unclaimed.remove(&pid).is_none() {
                    self.lease_timers.push(Reverse((lease_until, pid)));
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

    /// Every registration in partition order: its pid, its target, and
    /// its CPU range — the carve every reply is cut from.
    pub(crate) fn assignments(
        &mut self,
    ) -> impl Iterator<Item = (u32, u32, impl Iterator<Item = u32> + '_)> + '_ {
        self.refresh_targets();
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
    fn touch(&mut self, pid: u32, now: Duration) -> bool {
        match self.index.get(&pid) {
            Some(&idx) => {
                self.apps[idx].lease_until = now + self.cfg.lease_ttl;
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
    fn record_report<'a>(
        &mut self,
        pid: u32,
        fields: impl Iterator<Item = &'a str>,
        now: Duration,
    ) {
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
            a.lease_until = now + self.cfg.lease_ttl;
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

    /// Records a decision instant, stamped `now`, in the journal of the
    /// app at `idx` when the computed target differs from the last one
    /// journaled — the server-side half of the merged timeline (decision →
    /// effect).
    fn note_decision(&mut self, idx: usize, target: u32, now: Duration) {
        if self.apps[idx].last_target == Some(target) {
            return;
        }
        self.apps[idx].last_target = Some(target);
        let pid = self.apps[idx].pid;
        let ev = TraceEvent {
            ts_ns: now.as_nanos() as u64,
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

    /// Recomputes the cached partition (the paper's partition with caps
    /// and a floor of one, in registration order, less the latest
    /// sample's uncontrollable load) when dirty: one pass over the slots'
    /// worker counts and weights into buffers kept from the last
    /// recompute.
    fn refresh_targets(&mut self) {
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
    fn target_of(&mut self, pid: u32) -> Option<(usize, u32)> {
        self.refresh_targets();
        let idx = *self.index.get(&pid)?;
        Some((idx, self.targets.get(idx).copied()?))
    }

    /// The slot, target, *and* concrete CPU set for `pid`: every app's
    /// effective target is sliced contiguously from the configured CPU
    /// order, so each reply is consistent with what every other
    /// registered app would be told in the same instant.
    fn target_and_cpus_of(&mut self, pid: u32) -> Option<(usize, u32, Vec<u32>)> {
        let (idx, target) = self.target_of(pid)?;
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
    pub(crate) fn to_snapshot(&self, now: Duration) -> ServerSnapshot {
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
                    lease_remaining: a.lease_until.saturating_sub(now),
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
    pub(crate) fn restore(&mut self, snap: &ServerSnapshot, now: Duration) {
        self.epoch = self.epoch.max(snap.epoch.wrapping_add(1));
        self.epoch_suffix = format!(" {}\n", self.epoch);
        for a in &snap.apps {
            if validate_processes(a.nworkers).is_err() || self.index.contains_key(&a.pid) {
                continue;
            }
            let lease_until = now + a.lease_remaining;
            self.index.insert(a.pid, self.apps.len());
            self.apps
                .push(AppReg::new(a.pid, a.nworkers, lease_until, 1.0));
            self.lease_timers.push(Reverse((lease_until, a.pid)));
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
fn poll_reply_into(st: &mut ControlCore, pid: u32, cpus: bool, now: Duration, out: &mut String) {
    if !st.touch(pid, now) {
        // Expired lease, dead registration, or a pre-restart client the
        // new server never heard of.
        out.push_str("ERR unregistered\n");
        return;
    }
    if cpus {
        match st.target_and_cpus_of(pid) {
            Some((idx, t, cpus)) => {
                st.note_decision(idx, t, now);
                let list = crate::topology::format_cpulist(&cpus);
                let epoch = st.epoch;
                out.push_str(&format!("TARGET {t} {epoch} cpus={list}\n"));
            }
            None => out.push_str("ERR unregistered\n"),
        }
    } else {
        match st.target_of(pid) {
            Some((idx, t)) => {
                st.note_decision(idx, t, now);
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
    now: Duration,
    out: &mut String,
) -> Option<Park> {
    st.expire(now);
    st.refresh_targets();
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
fn release_into(st: &mut ControlCore, park: &Park, changed: bool, now: Duration, out: &mut String) {
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
    now: Duration,
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
                    st.refresh_targets();
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
    /// Every registration as `(pid, nworkers, lease_until, target)`, in
    /// partition order: what the control-loop simulation checks.
    pub(crate) fn registrations(&mut self) -> Vec<(u32, u32, Duration, u32)> {
        self.refresh_targets();
        self.apps
            .iter()
            .zip(&self.targets)
            .map(|(a, &t)| (a.pid, a.nworkers, a.lease_until, t))
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
}

/// The core's decisions as scripts: `(now, frame | sample | expiry)` in,
/// replies out, with no socket, no sleep and no clock. A decision that
/// `tests/golden_wire.rs` pins reply for reply, counters included, has
/// no script here. Only the `#[ignore]`d cost probes and the replay sweep
/// read a clock, to time themselves (`trace::stopwatch`).
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A core on `cpus` processors at epoch 7, otherwise at the defaults.
    fn core(cpus: usize) -> ControlCore {
        ControlCore::new(UdsServerConfig::new("/nonexistent", cpus), 7)
    }

    fn core_with(cpus: usize, set: impl FnOnce(&mut UdsServerConfig)) -> ControlCore {
        let mut cfg = UdsServerConfig::new("/nonexistent", cpus);
        set(&mut cfg);
        ControlCore::new(cfg, 7)
    }

    /// One input of a script, in one wakeup.
    #[derive(Clone, Copy, Debug)]
    enum In<'a> {
        /// A frame on connection 0.
        F(&'a str),
        /// A frame on connection `.0`.
        On(u64, &'a str),
        /// A timer wakeup: what is due expires.
        Due,
        /// A `/proc` sample: runnable outsiders, dead pids; then what is
        /// due expires.
        Sample(u32, &'a [u32]),
    }
    use In::*;

    /// What one wakeup with `input` in it at `now` writes, in the order
    /// the reactor writes it: the input's own replies, then the parks it
    /// released.
    fn wakeup(core: &mut ControlCore, now: Duration, input: In<'_>) -> Vec<(u64, String)> {
        let mut written = Vec::new();
        match input {
            F(line) => core.frame(0, line.as_bytes(), now, |r| written.push((0, r.into()))),
            On(conn, line) => core.frame(conn, line.as_bytes(), now, |r| {
                written.push((conn, r.into()))
            }),
            Due => {
                core.expire(now);
                true
            }
            Sample(runnable_excluding, dead) => {
                let dead_pids = dead.to_vec();
                core.sample(
                    now,
                    super::Sample {
                        runnable_excluding,
                        dead_pids,
                    },
                );
                core.expire(now);
                true
            }
        };
        core.release(now, |c, r| written.push((c, r.into())));
        written
    }

    /// Feeds each input at its millisecond of core time and checks what
    /// its wakeup wrote: the replies without their newlines, each but
    /// connection 0's tagged `@<conn>`, joined by ` | `.
    fn play(core: &mut ControlCore, script: &[(u64, In<'_>, &str)]) {
        for &(at, input, want) in script {
            let got: Vec<String> = wakeup(core, ms(at), input)
                .into_iter()
                .map(|(c, r)| match c {
                    0 => r.trim_end().to_string(),
                    _ => format!("@{c} {}", r.trim_end()),
                })
                .collect();
            assert_eq!(got.join(" | "), want, "{input:?} at {at} ms");
        }
    }

    /// The replies to `line` at `now` on connection 0, concatenated.
    fn answer(core: &mut ControlCore, line: &str, now: Duration) -> String {
        let written = wakeup(core, now, F(line));
        written.into_iter().map(|(_, r)| r).collect()
    }

    fn counter(core: &ControlCore, name: &str) -> u64 {
        core.registry().snapshot().counters[name]
    }

    fn gauge(core: &ControlCore, name: &str) -> i64 {
        core.registry().snapshot().gauges[name]
    }

    /// Every registration's `(pid, target, CPU range)`.
    fn assignments(core: &mut ControlCore) -> Vec<(u32, u32, Vec<u32>)> {
        core.assignments()
            .map(|(pid, target, cpus)| (pid, target, cpus.collect()))
            .collect()
    }

    fn targets(core: &mut ControlCore) -> Vec<u32> {
        core.assignments().map(|(_, target, _)| target).collect()
    }

    /// Registration is idempotent per pid, whichever connection it
    /// arrives on: the paper's root-pid identity.
    #[test]
    fn two_clients_from_same_process_share() {
        play(
            &mut core(8),
            &[
                (0, On(1, "REGISTER 1 16"), "@1 OK 7"),
                (0, On(2, "REGISTER 1 16"), "@2 OK 7"),
                (0, On(1, "POLL 1"), "@1 TARGET 8 7"),
                (0, On(2, "POLL 1"), "@2 TARGET 8 7"),
                (0, F("STATS ALL"), "STATS ALL pid=1 target=8 nworkers=16"),
            ],
        );
    }

    /// Garbage gets an `ERR` reply, not silence, and is counted; a frame
    /// that is not UTF-8 also asks the driver to close the connection.
    #[test]
    fn malformed_requests_get_err_replies() {
        let mut core = core(8);
        play(
            &mut core,
            &[
                (0, F("REGISTER 1 4"), "OK 7"),
                (0, F("NONSENSE 1 2 3"), "ERR malformed"),
                (0, F("POLL notanumber"), "ERR malformed"),
                (0, F(" "), "ERR empty"),
                (0, F("POLL 1"), "TARGET 4 7"),
            ],
        );
        let mut replies = Vec::new();
        assert!(!core.frame(0, b"POLL \xff1", ms(0), |r| replies.push(r.to_string())));
        assert_eq!(replies, ["ERR malformed\n"]);
        assert_eq!(counter(&core, "malformed"), 4);
    }

    #[test]
    fn oversized_cpulist_in_a_wait_poll_is_malformed() {
        // 64 ranges of 2^20 ids each: 669 bytes on the wire that would
        // ask the single reactor thread for 256 MiB of CPU ids.
        let ranges = vec!["0-1048575"; 64].join(",");
        let frame = format!("POLL 1 cpus wait 10 4 7 cpus={ranges}");
        let mut core = core(8);
        answer(&mut core, "REGISTER 1 4", ms(0));
        assert_eq!(answer(&mut core, &frame, ms(0)), "ERR malformed\n");
        assert_eq!(counter(&core, "malformed"), 1);
    }

    #[test]
    fn fields_are_separated_by_ascii_whitespace_and_nothing_else() {
        let mut core = core(8);
        let now = ms(0);
        // Runs of space, `\t`, `\r` and `\f` separate fields.
        assert_eq!(answer(&mut core, "REGISTER\t1 \t4\r", now), "OK 7\n");
        assert_eq!(answer(&mut core, "POLL\r1", now), "TARGET 4 7\n");
        assert_eq!(answer(&mut core, "\x0cPOLL\t\t1\x0c ", now), "TARGET 4 7\n");
        // `\v` and non-ASCII spaces do not: the verb or the pid is then
        // not one, and the frame is malformed.
        for sep in ["\x0b", "\u{a0}", "\u{2003}", "\u{3000}"] {
            for frame in [format!("POLL{sep}1"), format!("POLL 1{sep}")] {
                let before = counter(&core, "malformed");
                let reply = answer(&mut core, &frame, now);
                assert_eq!(reply, "ERR malformed\n", "{frame:?}");
                assert_eq!(counter(&core, "malformed"), before + 1, "{frame:?}");
            }
        }
        // A REPORT keeps them, and any other UTF-8, inside its fields.
        let report = "site=Zürich pair=a\u{a0}b\x0bc wide=\u{3000}";
        let reply = answer(&mut core, &format!("REPORT 1\t{report}\r"), now);
        assert_eq!(reply, "OK 7\n");
        let rows = answer(&mut core, "STATS ALL", now);
        assert_eq!(
            rows,
            format!("STATS ALL pid=1 target=4 nworkers=4 {report}\n")
        );
        assert_eq!(
            answer(&mut core, "STATS 1", now),
            format!("STATS {report}\n")
        );
    }

    #[test]
    fn a_report_waits_at_most_one_lease_for_its_register() {
        let mut core = core(8);
        let ttl = DEFAULT_LEASE_TTL;
        // 50 pids report and never register; one more registers in time.
        for pid in (1000..1050).chain([2000]) {
            let reply = answer(&mut core, &format!("REPORT {pid} jobs_run=5"), ms(0));
            assert_eq!(reply, "OK 7\n");
        }
        let half = ttl / 2;
        assert_eq!(answer(&mut core, "STATS 1000", half), "STATS jobs_run=5\n");
        assert_eq!(answer(&mut core, "REGISTER 2000 4", half), "OK 7\n");

        // One lease after the reports only the claimed one is left, and
        // its registration took over the timer the report armed: it
        // expires one lease after it registered, not before.
        assert!(wakeup(&mut core, ttl, Due).is_empty());
        for pid in 1000..1050 {
            assert_eq!(answer(&mut core, &format!("STATS {pid}"), ttl), "STATS\n");
            answer(&mut core, &format!("REGISTER {pid} 1"), ttl);
        }
        let all = answer(&mut core, "STATS ALL", ttl);
        let rows: Vec<&str> = all.trim_end().split('|').collect();
        assert_eq!(rows.len(), 51, "{all}");
        assert!(rows[0].ends_with("pid=2000 target=1 nworkers=4 jobs_run=5"));
        assert!(
            rows[1..].iter().all(|row| !row.contains("jobs_run")),
            "{all}"
        );
        wakeup(&mut core, half + ttl - ms(1), Due);
        assert_eq!(core.pids().next(), Some(2000));
        wakeup(&mut core, half + ttl, Due);
        assert_eq!(core.pids().next(), Some(1000));
    }

    /// `STATS ALL` joins rows with `|`, so a REPORT with one in it is
    /// refused and nothing of it is stored.
    #[test]
    fn a_report_with_a_pipe_can_neither_spoof_nor_break_stats_all() {
        let mut core = core(8);
        answer(&mut core, "REGISTER 1 4", ms(0));
        for report in ["x|pid=9 target=9 nworkers=9", "a|b", "jobs_run=1 |"] {
            let reply = answer(&mut core, &format!("REPORT 1 {report}"), ms(0));
            assert_eq!(reply, "ERR malformed\n", "REPORT 1 {report}");
        }
        assert_eq!(counter(&core, "malformed"), 3);
        let rows = answer(&mut core, "STATS ALL", ms(0));
        assert_eq!(rows, "STATS ALL pid=1 target=4 nworkers=4\n");
    }

    /// The `cpus` form names the processors; the plain form still works.
    #[test]
    fn cpus_poll_roundtrip_over_the_wire() {
        play(
            &mut core(8),
            &[
                (0, F("REGISTER 1 16"), "OK 7"),
                (0, F("POLL 1 cpus"), "TARGET 8 7 cpus=0-7"),
                (0, F("POLL 1"), "TARGET 8 7"),
                (0, F("REGISTER 2 2"), "OK 7"),
                (0, F("POLL 1 cpus"), "TARGET 6 7 cpus=0-5"),
                (0, F("POLL 2 cpus"), "TARGET 2 7 cpus=6-7"),
            ],
        );
    }

    #[test]
    fn journal_bounded_drops_oldest_and_counts() {
        let mut core = core_with(8, |cfg| cfg.journal_cap = 4);
        let batch: Vec<String> = (0..10).map(|i| format!("{i}:js:0:{i}")).collect();
        play(
            &mut core,
            &[
                (0, F("REGISTER 1 4"), "OK 7"),
                (0, F(&format!("EVENTS 1 {}", batch.join(","))), "OK 7"),
                (
                    0,
                    F("TRACE 1"),
                    &format!("TRACE 7 4 {}", batch[6..].join(",")),
                ),
            ],
        );
        assert_eq!(counter(&core, "journal_drops"), 6);
    }

    /// N back-to-back REGISTERs dirty the partition N times (each of a
    /// new core's six counted as coalesced, the partition never having
    /// been read); the next read recomputes it once.
    #[test]
    fn reactor_coalesces_register_bursts_into_one_recompute() {
        let mut core = core(8);
        let recomputes = core.recomputes();
        for pid in 1..=6 {
            answer(&mut core, &format!("REGISTER {pid} 4"), ms(0));
        }
        assert!(answer(&mut core, "POLL 1", ms(0)).starts_with("TARGET "));
        assert_eq!(core.recomputes(), recomputes + 1);
        assert_eq!(counter(&core, "recompute_coalesced"), 6);
    }

    /// A park released early takes its hold off the deadlines the driver
    /// sleeps until.
    #[test]
    fn a_park_released_early_leaves_the_reactor_asleep() {
        let mut core = core(8);
        play(
            &mut core,
            &[
                (0, F("REGISTER 1 8"), "OK 7"),
                (0, Sample(0, &[]), ""),
                (0, On(1, "POLL 1 wait 20 8 7"), ""),
            ],
        );
        assert_eq!(core.next_deadline(), Some(ms(20)));
        play(
            &mut core,
            &[(1, On(1, "REPORT 1 jobs_run=1"), "@1 TARGET 8 7 | @1 OK 7")],
        );
        assert_eq!(core.next_deadline(), Some(SAMPLE_PERIOD));
        assert!(wakeup(&mut core, ms(20), Due).is_empty());
    }

    /// One REGISTER releases a thousand parks in the one wakeup it
    /// arrives in.
    #[test]
    fn a_thousand_parked_connections_are_released_by_one_register() {
        let mut core = core(8);
        answer(&mut core, "REGISTER 1 8", ms(0));
        for conn in 1..=1000 {
            assert!(wakeup(&mut core, ms(0), On(conn, "POLL 1 wait 10000 8 7")).is_empty());
        }
        assert_eq!(gauge(&core, "parked"), 1000);
        let written = wakeup(&mut core, ms(1), On(1001, "REGISTER 2 8"));
        let released: Vec<u64> = written[1..].iter().map(|(c, _)| *c).collect();
        assert_eq!(released, (1..=1000).collect::<Vec<u64>>());
        assert!(written[1..].iter().all(|(_, r)| r == "TARGET 4 7\n"));
        assert_eq!(counter(&core, "park_released_changed"), 1000);
        assert_eq!(gauge(&core, "parked"), 0);
    }

    #[test]
    fn weighted_unequal_reports_skew_shares() {
        let reported = |weighted: bool| {
            let mut core = core_with(8, |cfg| cfg.weighted = weighted);
            for line in ["REGISTER 1 16", "REGISTER 2 16", "REPORT 1 jobs_run=3000"] {
                answer(&mut core, line, ms(0));
            }
            answer(&mut core, "REPORT 2 jobs_run=100", ms(0));
            targets(&mut core)
        };
        let shares = reported(true);
        assert!(
            shares[0] > shares[1],
            "throughput should skew shares: {shares:?}"
        );
        assert_eq!(
            shares[0] + shares[1],
            8,
            "still partitions the whole machine"
        );
        assert_eq!(reported(false), [4, 4], "unweighted, the same reports");
    }

    #[test]
    fn weighted_targets_survive_a_snapshot_restore() {
        let mut before = core_with(16, |cfg| cfg.weighted = true);
        for line in [
            "REGISTER 1 16",
            "REGISTER 2 16",
            "REGISTER 3 16",
            "REPORT 1 jobs_run=4000 steals=2",
            "REPORT 3 steals=5 jobs_run=1000",
        ] {
            answer(&mut before, line, ms(0));
        }
        let targets_before = targets(&mut before);
        assert!(
            targets_before[0] > targets_before[2] && targets_before[2] > targets_before[1],
            "reports should skew shares: {targets_before:?}"
        );
        let mut after = core_with(16, |cfg| cfg.weighted = true);
        after.restore(&before.to_snapshot(ms(0)), ms(0));
        assert_eq!(targets(&mut after), targets_before);
    }

    #[test]
    fn a_snapshot_does_not_depend_on_the_order_reports_arrived_in() {
        // Registered pids and pids that only report, spread out so that
        // they share hash buckets.
        let pids: Vec<u32> = (0..300).map(|i| 900_000 + i * 37).collect();
        let snapshot = |reporting: &mut dyn Iterator<Item = &u32>| {
            let mut core = core(64);
            for pid in pids.iter().step_by(2) {
                answer(&mut core, &format!("REGISTER {pid} 4"), ms(0));
            }
            for pid in reporting {
                answer(&mut core, &format!("REPORT {pid} jobs_run={pid}"), ms(0));
            }
            core.to_snapshot(ms(0)).encode()
        };
        let forward = snapshot(&mut pids.iter());
        let backward = snapshot(&mut pids.iter().rev());
        assert!(forward.contains("jobs_run=900037"), "{forward}");
        assert_eq!(forward, backward);
    }

    /// A snapshot records what is left of each lease, and a restore
    /// re-arms exactly that much — also at core time zero, where there is
    /// no earlier instant to backdate a last sign of life to.
    #[test]
    fn a_restored_lease_runs_out_what_the_snapshot_left() {
        let mut before = core(8);
        answer(&mut before, "REGISTER 1 8", ms(0));
        answer(&mut before, "REGISTER 2 8", ms(20_000));
        let snap = before.to_snapshot(ms(25_000));
        let left: Vec<Duration> = snap.apps.iter().map(|a| a.lease_remaining).collect();
        assert_eq!(left, [ms(5_000), ms(25_000)]);
        let mut after = core(8);
        after.restore(&snap, Duration::ZERO);
        assert_eq!(after.next_deadline(), Some(Duration::ZERO), "a sample");
        play(
            &mut after,
            &[
                (0, Sample(0, &[]), ""),
                (
                    4_999,
                    F("STATS ALL"),
                    "STATS ALL pid=1 target=4 nworkers=8|pid=2 target=4 nworkers=8",
                ),
                (5_000, F("STATS ALL"), "STATS ALL pid=2 target=8 nworkers=8"),
                (5_000, F("POLL 1"), "ERR unregistered"),
            ],
        );
        assert_eq!(counter(&after, "lease_expiries"), 1);
    }

    /// A sample is due at once after the first registration, then every
    /// [`SAMPLE_PERIOD`] while anybody is registered. One that names a
    /// dead pid departs it and answers its parked poll `ERR
    /// unregistered`; its load, with `account_system_load`, is taken off
    /// the processors the others share.
    #[test]
    fn a_sample_departs_a_dead_pid_and_answers_its_park_unregistered() {
        let mut core = core_with(8, |cfg| cfg.account_system_load = true);
        assert_eq!(core.next_deadline(), None, "nobody to sample for");
        play(
            &mut core,
            &[
                (0, F("REGISTER 1 8"), "OK 7"),
                (0, F("REGISTER 2 8"), "OK 7"),
                (0, F("POLL 1"), "TARGET 4 7"),
            ],
        );
        assert!(core.sample_due(ms(0)));
        play(
            &mut core,
            &[
                (0, Sample(2, &[]), ""),
                (0, F("POLL 1"), "TARGET 3 7"),
                (1, On(1, "POLL 1 wait 5000 3 7"), ""),
                (1, On(2, "POLL 2 cpus wait 5000 3 7 cpus=3-5"), ""),
            ],
        );
        assert_eq!(core.next_deadline(), Some(SAMPLE_PERIOD));
        assert!(!core.sample_due(SAMPLE_PERIOD - ms(1)));
        play(
            &mut core,
            &[
                (
                    500,
                    Sample(2, &[1]),
                    "@1 ERR unregistered | @2 TARGET 6 7 cpus=0-5",
                ),
                (500, F("STATS ALL"), "STATS ALL pid=2 target=6 nworkers=8"),
                (501, F("POLL 1"), "ERR unregistered"),
                (600, F("BYE 2"), "OK 7"),
            ],
        );
        assert!(!core.sample_due(ms(60_000)), "nobody left to sample for");
        // Without `prune_dead` a dead pid stays until its lease runs out.
        let mut core = core_with(8, |cfg| cfg.prune_dead = false);
        answer(&mut core, "REGISTER 1 8", ms(0));
        assert_eq!(
            core.next_deadline(),
            Some(DEFAULT_LEASE_TTL),
            "no sample wanted"
        );
        play(
            &mut core,
            &[(0, Sample(3, &[1]), ""), (1, F("POLL 1"), "TARGET 8 7")],
        );
    }

    /// With `account_system_load`, a load sample dirties the cached
    /// partition only when its count differs from the one the targets
    /// were computed with: an unchanged one leaves the recompute count
    /// and the parked polls alone, a changed one recomputes once and
    /// releases the parks whose reply it moved.
    #[test]
    fn a_load_sample_recomputes_only_when_its_count_changes() {
        let mut core = core_with(8, |cfg| cfg.account_system_load = true);
        play(
            &mut core,
            &[
                (0, Sample(0, &[]), ""),
                (0, F("REGISTER 900001 8"), "OK 7"),
                (0, F("REGISTER 900002 8"), "OK 7"),
                (0, F("POLL 900001"), "TARGET 4 7"),
                (0, F("POLL 900002 cpus"), "TARGET 4 7 cpus=4-7"),
                (0, On(1, "POLL 900001 wait 5000 4 7"), ""),
                (0, On(2, "POLL 900002 cpus wait 5000 4 7 cpus=4-7"), ""),
            ],
        );
        let recomputes = core.recomputes();
        play(
            &mut core,
            &[
                (500, Sample(0, &[]), ""),
                (500, F("POLL 900001"), "TARGET 4 7"),
            ],
        );
        assert_eq!(core.recomputes(), recomputes, "an unchanged sample");
        assert!(core.is_parked(1) && core.is_parked(2));
        // One runnable outsider: 7 processors, 4 + 3. Only the second
        // pid's reply moved.
        play(
            &mut core,
            &[(1000, Sample(1, &[]), "@2 TARGET 3 7 cpus=4-6")],
        );
        assert_eq!(core.recomputes(), recomputes + 1, "a changed sample");
        assert!(core.is_parked(1) && !core.is_parked(2));
    }

    /// The partition the server caches — slot weights parsed as reports
    /// arrive, targets recomputed behind the dirty gate, CPU sets cut on
    /// demand, the sampled load subtracted — always equals a from-scratch
    /// one. The model is the test's own table of live registrations (in
    /// order, with their lease deadlines), latest reports (an unregistered
    /// pid's for one lease) and sampled load, replayed into a fresh core
    /// after every step.
    ///
    /// On `cpus` processors (cut from an interleaved order) up to six pids
    /// of 1–9 workers meet all three regimes of the exact cache; the steps
    /// that ended in each are returned as `[floor takes every processor,
    /// weights divide the rest, every demand fits]`. In the first and last
    /// a weighted REPORT recomputes nothing.
    ///
    /// Parked polls ride along: some steps park a poll (each pid has a
    /// connection per form), fire the timer or hand in a sample (which may
    /// name a pid dead), and after every step the parks the core holds are
    /// exactly the ones the model expects, each for a pid still registered
    /// and each still owed the reply its client heard — whatever changed
    /// an answer also delivered it.
    fn replay_against_a_from_scratch_core(cpus: u32, steps: Vec<(u32, u32, u32, u64)>) -> [u64; 3] {
        let mut cfg = UdsServerConfig::new("/nonexistent", cpus as usize);
        cfg.weighted = true;
        cfg.account_system_load = true;
        let half = cpus / 2;
        cfg.cpu_order = Some((0..half).flat_map(|i| [i, half + i]).collect());
        let ttl = cfg.lease_ttl;
        let mut regimes = [0u64; 3];
        let mut real = ControlCore::new(cfg.clone(), 7);
        let mut regs: Vec<(u32, u32, Duration)> = Vec::new();
        let mut reports = BTreeMap::<u32, String>::new();
        // pid → when its report is dropped unless it registers first
        let mut unclaimed = BTreeMap::<u32, Duration>::new();
        // connection → (pid, the plain form of its poll, the reply heard,
        // the end of the hold)
        let mut parked = BTreeMap::<u64, (u32, String, String, Duration)>::new();
        let (mut now, mut load) = (Duration::ZERO, 0);
        for (op, pid, arg, gap_ms) in steps {
            now += ms(gap_ms);
            let pid = 900_000 + pid;
            let slot = regs.iter().position(|r| r.0 == pid);
            let mut own_conn = None;
            // POLL, STATS ALL, the timer and a sample expire lapsed leases
            // (and a POLL then refreshes its own); the other verbs leave
            // them for the next expiry.
            let step = |real: &mut ControlCore, conn, line: &str| wakeup(real, now, On(conn, line));
            let (written, prunes, polls) = match op {
                0 | 1 => {
                    let n = 1 + arg % 9;
                    let written = step(&mut real, 0, &format!("REGISTER {pid} {n}"));
                    match slot {
                        Some(i) => regs[i] = (pid, n, now + ttl),
                        None => regs.push((pid, n, now + ttl)),
                    }
                    unclaimed.remove(&pid);
                    (written, false, false)
                }
                2 => {
                    let written = step(&mut real, 0, &format!("BYE {pid}"));
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
                    let written = step(&mut real, 0, &format!("REPORT {pid} {line}"));
                    if slot.is_none() && !reports.contains_key(&pid) {
                        unclaimed.insert(pid, now + ttl);
                    }
                    reports.insert(pid, line);
                    if let Some(i) = slot {
                        regs[i].2 = now + ttl;
                    }
                    (written, false, false)
                }
                5 | 6 => (step(&mut real, 0, &format!("POLL {pid}")), true, true),
                7 => (step(&mut real, 0, &format!("POLL {pid} cpus")), true, true),
                8 => (step(&mut real, 0, "STATS ALL"), true, false),
                // A poll, then the same poll again in the wait form, saying
                // what the first one heard: it parks. (A park the
                // connection already held ends with the first.)
                9 | 10 => {
                    let cpus = arg % 2 == 1;
                    let conn = u64::from(1 + 2 * (pid - 900_000) + u32::from(cpus));
                    own_conn = Some(conn);
                    let plain = match cpus {
                        true => format!("POLL {pid} cpus"),
                        false => format!("POLL {pid}"),
                    };
                    let mut written = step(&mut real, conn, &plain);
                    parked.remove(&conn);
                    let heard = written
                        .iter()
                        .rfind(|w| w.0 == conn)
                        .expect("a reply")
                        .1
                        .clone();
                    if let Some(payload) = heard.strip_prefix("TARGET ") {
                        let hold = ms(u64::from(7 * arg));
                        let wait =
                            format!("{plain} wait {} {}", hold.as_millis(), payload.trim_end());
                        let before = written.len();
                        written.extend(step(&mut real, conn, &wait));
                        let until = now + hold.min(ttl / 2);
                        if until > now {
                            prop_assert!(real.is_parked(conn), "{} did not park", wait);
                            parked.insert(conn, (pid, plain, heard, until));
                        } else {
                            // A hold of 0 runs out as it starts: the wakeup
                            // that parks the poll releases it, with the
                            // reply the client already heard.
                            prop_assert!(!real.is_parked(conn), "{} stayed parked", wait);
                            let mine: Vec<_> =
                                written[before..].iter().filter(|w| w.0 == conn).collect();
                            prop_assert_eq!(mine.len(), 1, "{} answered once", wait);
                            prop_assert_eq!(&mine[0].1, &heard);
                        }
                    }
                    (written, true, true)
                }
                // A sample: a new load, and now and then the pid dead.
                12 => {
                    load = arg % 3;
                    let dead: &[u32] = if arg % 4 == 0 { &[pid] } else { &[] };
                    if !dead.is_empty() {
                        regs.retain(|r| r.0 != pid);
                        reports.remove(&pid);
                        unclaimed.remove(&pid);
                    }
                    (wakeup(&mut real, now, Sample(load, dead)), true, false)
                }
                _ => (wakeup(&mut real, now, Due), true, false),
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
                    let live = r.2 > now;
                    if !live {
                        reports.remove(&r.0);
                    }
                    live
                });
            }
            if polls {
                if let Some(r) = regs.iter_mut().find(|r| r.0 == pid) {
                    r.2 = now + ttl;
                }
            }
            // A reply to a connection the step did not talk on ends that
            // connection's park — which takes news or the end of the hold
            // — and, like any poll reply, refreshes the lease.
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
                    r.2 = now + ttl;
                }
            }

            let mut fresh = ControlCore::new(cfg.clone(), 7);
            for &(pid, n, _) in &regs {
                answer(&mut fresh, &format!("REGISTER {pid} {n}"), now);
            }
            for (pid, line) in &reports {
                answer(&mut fresh, &format!("REPORT {pid} {line}"), now);
            }
            wakeup(&mut fresh, now, Sample(load, &[]));
            prop_assert_eq!(assignments(&mut real), assignments(&mut fresh));
            prop_assert_eq!(gauge(&real, "parked"), parked.len() as i64);
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
            let free = cpus.saturating_sub(load + regs.len() as u32);
            let room: u32 = regs.iter().map(|r| r.1 - 1).sum();
            regimes[match free {
                0 => 0,
                free if room > free => 1,
                _ => 2,
            }] += 1;
        }
        regimes
    }

    /// Case 3913 of 20 000 of the replay, the first to draw a `wait 0`
    /// poll (the last step): the core answers it in the wakeup that parks
    /// it, its hold being over as it starts, where the model once
    /// expected a park.
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
    /// third each on 2, 4 and 8 processors. A failing case prints the call
    /// that replays it.
    #[test]
    #[ignore]
    fn sweep_cached_partition_replay() {
        const CASES: u64 = 20_000;
        let took = crate::trace::stopwatch();
        let mut regimes = [0u64; 3];
        for case in 0..CASES {
            let mut state = case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut below = |n: u64| crate::xorshift(&mut state) % n;
            let cpus = 2 << (case % 3);
            let len = 1 + below(47);
            let steps: Vec<(u32, u32, u32, u64)> = (0..len)
                .map(|_| {
                    let (op, pid, arg) = (below(13), below(6), below(5_000));
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
        let took = took().as_secs_f64();
        let [floor, weights, fit] = regimes;
        println!(
            "cached-partition sweep: {CASES} cases in {took:.2} s; steps ending with the floor \
             taking every processor {floor}, weights dividing the rest {weights}, every demand \
             fitting {fit}"
        );
    }

    /// The one reply to `line` of a fresh 8-CPU core with pid 1
    /// registered.
    fn fuzz_reply(line: &str) -> String {
        let mut core = core(8);
        answer(&mut core, "REGISTER 1 4", ms(0));
        answer(&mut core, line, ms(0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// [`replay_against_a_from_scratch_core`] on 2, 4 or 8 processors;
        /// each step is `(op, pid, arg, gap in ms)`.
        #[test]
        fn cached_partition_matches_a_from_scratch_replay(
            cpus in (1u32..4).prop_map(|k| 1 << k),
            steps in prop::collection::vec((0u32..13, 0u32..6, 0u32..5_000, 0u64..12_000), 1..48),
        ) {
            replay_against_a_from_scratch_core(cpus, steps);
        }

        /// The parser never panics and always writes exactly one
        /// newline-terminated reply — `ERR …` or a valid verb reply — for an
        /// arbitrary line.
        #[test]
        fn wire_parser_total_on_arbitrary_lines(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let reply = fuzz_reply(&String::from_utf8_lossy(&bytes));
            prop_assert!(
                reply.ends_with('\n'),
                "reply not newline-terminated: {:?}",
                reply
            );
            prop_assert_eq!(reply.matches('\n').count(), 1);
            let heads = ["ERR ", "OK ", "TARGET ", "TRACE ", "STATS"];
            let valid = heads.iter().any(|h| reply.starts_with(h));
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
            prop_assert!(fuzz_reply(&line).ends_with('\n'));
        }

        /// TRACE is total over arbitrary pid/max strings: every reply is one
        /// line, a well-formed `TRACE <epoch> <n> …` or an `ERR`.
        #[test]
        fn trace_verb_total_on_arbitrary_arguments(pid in "[ -~]{0,12}", max in "[ -~]{0,12}") {
            let reply = fuzz_reply(&format!("TRACE {pid} {max}"));
            prop_assert!(reply.ends_with('\n'));
            prop_assert_eq!(reply.matches('\n').count(), 1);
            let ok = reply.starts_with("TRACE ") || reply.starts_with("ERR ");
            prop_assert!(ok, "unclassifiable reply: {:?}", reply);
            if let Some(rest) = reply.strip_prefix("TRACE ") {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                prop_assert!(fields.len() >= 2, "short TRACE reply: {:?}", reply);
                prop_assert!(fields[0].parse::<u64>().is_ok());
                prop_assert!(fields[1].parse::<usize>().is_ok());
            }
        }
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_poll_frame_cost() {
        let mut core = core(8);
        for pid in 0..64 {
            core.admit(900_000 + pid, 4, ms(0));
        }
        let n = 1_000_000u32;
        let took = crate::trace::stopwatch();
        for i in 0..n {
            core.frame(0, b"POLL 900000", Duration::from_nanos(i.into()), |reply| {
                std::hint::black_box(reply);
            });
        }
        println!("handle_line POLL (64 apps): {:?}/frame", took() / n);
    }

    /// What one weighted REPORT costs the next POLL, and how many
    /// recomputes of the 64-app partition the pair makes. On 64
    /// processors the floor of one uses them all (`ctl_saturated`'s
    /// shape), so no weight moves a target; on 128 the other 64 are
    /// water-filled by weight. With `account_system_load` (on 64) a load
    /// sample arrives every 1 000 pairs, its count changing each time.
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_report_poll_pair_cost() {
        for (cpus, accounting) in [(64, false), (128, false), (64, true)] {
            let mut core = core_with(cpus, |cfg| {
                cfg.weighted = true;
                cfg.account_system_load = accounting;
            });
            let now = ms(0);
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
            let took = crate::trace::stopwatch();
            for i in 0..n {
                if accounting && i % 1_000 == 999 {
                    let runnable_excluding = (i / 1_000 % 2) as u32;
                    core.sample(
                        now,
                        super::Sample {
                            runnable_excluding,
                            dead_pids: Vec::new(),
                        },
                    );
                }
                for line in [reports[i % 64].as_str(), "POLL 900000"] {
                    core.frame(0, line.as_bytes(), now, |reply| {
                        std::hint::black_box(reply);
                    });
                }
            }
            let took = took() / n as u32;
            let per_pair = (core.recomputes() - recomputes) as f64 / n as f64;
            let load = if accounting { ", load sampled" } else { "" };
            println!(
                "handle_line REPORT+POLL (64 apps, weighted, {cpus} cpus{load}): {took:?}/pair, \
                 {per_pair:.3} recomputes/pair"
            );
        }
    }

    /// `ctl_saturated`'s frames through `ControlCore::frame`: 64 pids with
    /// `2 + pid % 7` workers on 64 processors, `weighted`, pids and job
    /// counts drawn at random. A POLL-only stream, a REPORT-only stream,
    /// and the benchmark's mix: POLL:REPORT 3:1 with one BYE/REGISTER pair
    /// per 1 024 frames.
    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_saturated_mix_cost() {
        const PIDS: u32 = 64;
        const BASE_PID: u32 = 100_000;
        let mut core = core_with(PIDS as usize, |cfg| cfg.weighted = true);
        let now = ms(0);
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
                    let took = crate::trace::stopwatch();
                    for _ in 0..25 {
                        for f in frames {
                            core.frame(0, f.as_bytes(), now, |reply| {
                                std::hint::black_box(reply);
                            });
                        }
                    }
                    took().as_nanos() as f64 / (25 * frames.len()) as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (mix_ns, poll_ns, report_ns) = (best_ns(&mix), best_ns(&polls), best_ns(&reports));
        println!(
            "ctl_saturated frames (64 apps, weighted, 64 cpus), best of 7: \
             POLL {poll_ns:.1} ns, REPORT {report_ns:.1} ns, 3:1 mix {mix_ns:.1} ns/frame"
        );
    }
}
