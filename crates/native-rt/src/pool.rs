//! A work-stealing worker pool over real OS threads, with process control.
//!
//! The native analog of the modified threads package, rebuilt around
//! per-worker [Chase–Lev deques](crate::deque) instead of one central
//! `Mutex<VecDeque>`:
//!
//! - each worker owns a lock-free deque and runs its own submissions
//!   LIFO off the bottom (the `local_hits` fast path — no lock, no CAS).
//!   A fork writes its task once, straight into a box the worker kept
//!   from a task it ran, and the worker runs the task in that box: once
//!   the worker has spare boxes, a fork allocates nothing and copies no
//!   task;
//! - external [`Pool::execute`] calls land in a [sharded
//!   injector](crate::injector) (the `injector_pops` path), unless the
//!   caller *is* a worker of this pool, in which case the job goes
//!   straight into that worker's deque. A worker takes from the
//!   injector in batches: in the one lock hold that finds a shard's
//!   oldest task it also takes its fair share of the rest, ⌊left ÷
//!   workers⌋ more, at most 31. It runs the oldest at once and queues
//!   the others on its own deque newest first, in spare boxes, so it
//!   runs them oldest first and a thief takes the newest. A job is
//!   counted by where its worker took it when it ran: a batch's first
//!   as an `injector_pops`, the others as `local_hits` or `steals`;
//! - an empty worker steals FIFO from the topologically *nearest*
//!   victims first — SMT sibling, then same-LLC, then same-socket, then
//!   remote rings (see [`crate::topology`]), randomizing only within a
//!   tier — with exponential backoff on CAS contention (`steals` /
//!   `steal_fails` / `steal_tier_*`). Suspended workers drop out of the
//!   victim rings (their deques are drained, by invariant empty);
//! - an idle worker spins through an *adaptive* budget of cheap
//!   re-checks — an EWMA of its recent wait-for-work latency, clamped
//!   to [1µs, 100µs] — and then parks on its *own* condvar, woken
//!   one-at-a-time by producers — no global `work_cv` thundering herd.
//!   The spin phase is measured into the `spin_before_park_ns`
//!   histogram and the live budget into the `spin_budget` gauge;
//! - when the control plane assigns a concrete CPU set
//!   ([`TargetSlot::set_cpus`]) and the pool was built with
//!   [`PoolConfig::pin`], each worker pins itself to its CPU via
//!   `sched_setaffinity` and re-pins on every assignment change
//!   (`affinity_applied` gauge); with no set assigned, pinned workers
//!   fall back to the whole machine (count-only / degraded mode).
//!
//! The per-job path writes no line another worker writes: counts, the
//! jobs-in-flight accounting behind [`Pool::wait_idle`] and the
//! watchdog's progress word live in per-worker single-writer cells
//! ([`crate::quiesce`]), and the clock is read only for sampled or
//! burst-opening pickups.
//!
//! Process control is the safe point [`crate::safepoint`] shared with
//! [`crate::CentralPool`], called **between** jobs. A suspending worker
//! first drains its own deque into the injector, so no submitted job is
//! stranded behind a parked worker; the rest of a batch it took goes
//! back that way, and the boxes stay with the worker for its next forks
//! and batches.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::addr_of_mut;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::controller::{Controller, TargetSlot};
use crate::deque::{self, Steal, Stealer, Worker};
use crate::injector::Injector;
use crate::quiesce::{self, Quiesce};
use crate::safepoint::{SafePoint, SuspendOutcome};
use crate::stats::{Counter, Gauge, Hist, Registry, Snapshot};
use crate::sync::{spin_loop, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};
use crate::topology::{self, CpuTopology, NUM_STEAL_TIERS, STEAL_TIER_NAMES};
use crate::trace::{self, EventKind, FlightRecorder};

/// A unit of work.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// One submission in this many is stamped with the clock and recorded
/// with this weight — counted per worker for its own spawns, and over
/// the pool's outside submissions for the rest.
const STAMP_EVERY: u64 = 32;

/// Four words of closure storage: a closure of at most this size and
/// alignment lives here itself, a larger one as a thin `Box<F>`.
#[repr(C, align(8))]
struct Inline(MaybeUninit<[u8; 32]>);

/// Whether a closure of type `F` is stored in [`Inline`] unboxed.
const fn fits_inline<F>() -> bool {
    size_of::<F>() <= size_of::<Inline>() && align_of::<F>() <= align_of::<Inline>()
}

/// Moves the closure out of a task's [`Inline`] and calls it (`true`)
/// or drops it (`false`).
///
/// # Safety
/// The storage must hold the initialised closure this function was
/// minted for ([`take`]), and nothing may take it again afterwards.
type TakeFn = unsafe fn(*mut Inline, bool);

/// A queued job: its closure — in the task itself when it fits
/// [`Inline`], a thin `Box<F>` otherwise — and, when it was chosen as a
/// queue-wait sample, its submission instant with the number of jobs
/// the sample stands for. A fork writes its task once, straight into
/// the box its worker's deque queues ([`Local::fork`]); an outside
/// submission is a task by value in the injector, so neither allocates
/// for a small closure once the worker has spare boxes. Either way the
/// worker runs the task where it lies ([`Task::run_in_place`]). The
/// closure is taken exactly once: called there, or dropped with a task
/// that never ran.
struct Task {
    stamp: Option<(Instant, u64)>,
    take: TakeFn,
    data: Inline,
}

// stamp 24 + take 8 + data 32: a field that grows the task fails here.
const _: () = assert!(size_of::<Task>() == 64);

impl Task {
    /// Writes a task for `job` into `slot`, each field once and the
    /// closure straight into `data` (or into a box of its own when it
    /// does not fit [`Inline`]). Every field is initialised on return.
    #[inline]
    fn init<F: FnOnce() + Send + 'static>(
        slot: &mut MaybeUninit<Task>,
        job: F,
        stamp: Option<(Instant, u64)>,
    ) {
        let task = slot.as_mut_ptr();
        // SAFETY: every pointer is to a field of `slot`, which is valid
        // for writes and aligned for a `Task`. `data` is at least as
        // large and aligned as an `F` when `fits_inline` says so, and
        // holds a `Box<F>` (one pointer, pointer-aligned) otherwise.
        unsafe {
            addr_of_mut!((*task).stamp).write(stamp);
            let data = addr_of_mut!((*task).data);
            if fits_inline::<F>() {
                data.cast::<F>().write(job);
                addr_of_mut!((*task).take).write(take::<F>);
            } else {
                data.cast::<Box<F>>().write(Box::new(job));
                addr_of_mut!((*task).take).write(take::<Box<F>>);
            }
        }
    }

    /// A task by value, for the injector.
    fn new<F: FnOnce() + Send + 'static>(job: F, stamp: Option<(Instant, u64)>) -> Task {
        let mut slot = MaybeUninit::uninit();
        Task::init(&mut slot, job, stamp);
        // SAFETY: `init` initialised every field.
        unsafe { slot.assume_init() }
    }

    /// Runs the job of the task at `task` where it lies: `take` moves
    /// the closure out of `data` once, at its own type, and calls it. A
    /// panic unwinds out of here with the closure's captures already
    /// dropped.
    ///
    /// # Safety
    /// `task` points to an initialised task, spent once this returns or
    /// unwinds: its storage may be reused, but not run or dropped again.
    #[inline]
    unsafe fn run_in_place(task: *mut Task) {
        // SAFETY: by the caller's contract, `data` holds the closure
        // `take` was minted for and nothing takes it after this call.
        unsafe { ((*task).take)(addr_of_mut!((*task).data), true) }
    }

    /// Runs the job of a task held by value (the injector's).
    fn run(self) {
        let mut task = ManuallyDrop::new(self);
        // SAFETY: the task is initialised, and `ManuallyDrop` keeps
        // `drop` from taking its closure again.
        unsafe { Task::run_in_place(&mut *task) }
    }
}

impl Drop for Task {
    fn drop(&mut self) {
        // SAFETY: a task reaches `drop` only if `run` never consumed it,
        // so its closure is still in `data`, and `drop` runs once.
        unsafe { (self.take)(&mut self.data, false) }
    }
}

/// The [`TakeFn`] for a closure stored as an `F` (itself a `Box` when
/// the closure did not fit).
///
/// # Safety
/// As for [`TakeFn`]: `data` holds an initialised `F` nobody takes again.
unsafe fn take<F: FnOnce()>(data: *mut Inline, call: bool) {
    // SAFETY: the caller's contract above.
    let job = unsafe { data.cast::<F>().read() };
    if call {
        job();
    }
}

/// The queue-wait stamp of the `nth` submission on one counter: the
/// first and then every [`STAMP_EVERY`]-th, standing for that many jobs.
#[inline]
fn stamp(nth: u64) -> Option<(Instant, u64)> {
    (nth % STAMP_EVERY == 1).then(|| (Instant::now(), STAMP_EVERY))
}

/// Most spent task boxes a worker keeps for its next forks; it frees
/// the box of a task it ran beyond this many. A binary tree of depth
/// `d` run depth-first keeps at most `d + 2` boxes in use at once.
const SPARE_BOXES: usize = 64;

/// A worker's half of the local fast path, which [`Pool::execute`]
/// reaches through `CURRENT_WORKER` from a job the worker runs: its
/// deque, and the boxes of the tasks it ran, in which its next forks
/// are built.
struct Local {
    worker: Worker<Task>,
    /// Spent task boxes, at most [`SPARE_BOXES`] (the capacity reserved
    /// up front). Only this worker's thread reaches them: `Local` is
    /// neither `Sync` nor handed to another thread. The boxes are the
    /// point: each is a task allocation kept for reuse, so `vec_box`'s
    /// advice to store the values in the `Vec` does not apply.
    #[allow(clippy::vec_box)]
    spares: UnsafeCell<Vec<Box<MaybeUninit<Task>>>>,
}

impl Local {
    fn new(worker: Worker<Task>) -> Local {
        Local {
            worker,
            spares: UnsafeCell::new(Vec::with_capacity(SPARE_BOXES)),
        }
    }

    /// Queues `job` on this worker's deque, its task written once in a
    /// spare box, or in a fresh one when none is left.
    #[inline]
    fn fork<F: FnOnce() + Send + 'static>(&self, job: F, stamp: Option<(Instant, u64)>) {
        // SAFETY: `init` initialises every field.
        unsafe { self.queue_with(|slot| Task::init(slot, job, stamp)) }
    }

    /// Queues a task taken from the injector in a batch on this worker's
    /// deque, moved into a spare box as a fork's task is written.
    #[inline]
    fn queue(&self, task: Task) {
        // SAFETY: `write` initialises the whole task.
        unsafe {
            self.queue_with(|slot| {
                slot.write(task);
            });
        }
    }

    /// Pushes a task onto this worker's deque in a spare box, or in a
    /// fresh one when none is left, once `init` has written it there.
    ///
    /// # Safety
    /// `init` initialises every field of the task in the slot.
    #[inline]
    unsafe fn queue_with(&self, init: impl FnOnce(&mut MaybeUninit<Task>)) {
        // SAFETY: only this thread reaches `spares` (see the field), and
        // no other reference into it is live: `recycle` is the one other
        // user, and neither holds one past a statement that could call
        // back into this pool.
        let spare = unsafe { (*self.spares.get()).pop() };
        let mut slot = spare.unwrap_or_else(|| Box::new(MaybeUninit::uninit()));
        init(&mut slot);
        // SAFETY: the caller's `init` initialised every field, and
        // `MaybeUninit<Task>` has `Task`'s layout, so this is the same
        // allocation, typed.
        let task = unsafe { Box::from_raw(Box::into_raw(slot).cast::<Task>()) };
        self.worker.push(task);
    }

    /// Moves a queued task out of its box, which goes to the spares.
    fn unbox(&self, task: Box<Task>) -> Task {
        let task = Box::into_raw(task);
        // SAFETY: `task` is the initialised task of a box this function
        // now owns. Reading it moves the task out; the box is then
        // uninitialised storage of the same layout, never dropped as a
        // `Task`.
        let (task, slot) = unsafe { (task.read(), Box::from_raw(task.cast())) };
        self.recycle(slot);
        task
    }

    /// Keeps the box of a spent task for a later fork or batch, or frees
    /// it when the spare list is full.
    fn recycle(&self, slot: Box<MaybeUninit<Task>>) {
        // SAFETY: as in `queue_with`; a push within the reserved capacity
        // allocates nothing, and a full list drops `slot` afterwards.
        let spares = unsafe { &mut *self.spares.get() };
        if spares.len() < SPARE_BOXES {
            spares.push(slot);
        }
    }
}

/// A task a worker acquired, where it lies. (`repr(u8)` gives it a tag
/// byte of its own: the niche in `stamp` had the worker store 4 bytes
/// of it and read them back as 8, a store-forwarding stall per job.)
#[repr(u8)]
enum Acquired {
    /// Popped off this worker's deque or stolen from another's: it runs
    /// in its box, which then goes to this worker's spares.
    Boxed(Box<Task>),
    /// Taken from the injector by value, onto the worker's stack.
    Injected(Task),
}

impl Acquired {
    fn stamp(&self) -> Option<(Instant, u64)> {
        match self {
            Acquired::Boxed(task) => task.stamp,
            Acquired::Injected(task) => task.stamp,
        }
    }

    /// Runs the job in place ([`Task::run_in_place`]). A boxed task's box
    /// goes to `local`'s spares once the job returned or unwound.
    #[inline]
    fn run(self, local: &Local) {
        match self {
            Acquired::Boxed(task) => {
                let spent = Spent {
                    local,
                    task: Box::into_raw(task),
                };
                // SAFETY: `spent.task` is the initialised task just taken
                // out of its box, and `spent` only ever hands the box back
                // as storage.
                unsafe { Task::run_in_place(spent.task) }
            }
            Acquired::Injected(task) => task.run(),
        }
    }
}

/// The box of a task running in place, handed back to its worker's
/// spares when the task is spent, whether its job returned or unwound.
struct Spent<'a> {
    local: &'a Local,
    task: *mut Task,
}

impl Drop for Spent<'_> {
    fn drop(&mut self) {
        // SAFETY: `task` came from `Box::into_raw` (`Acquired::run`) and
        // this guard is its only owner. The task is spent, so its box is
        // uninitialised storage of the same layout.
        let slot = unsafe { Box::from_raw(self.task.cast::<MaybeUninit<Task>>()) };
        self.local.recycle(slot);
    }
}

/// Pool counters, mirroring the simulated package's
/// [`uthreads::AppMetrics`].
///
/// `jobs_run == local_hits + injector_pops + steals` always (each
/// executed job is acquired through exactly one of the three paths) —
/// the job-conservation invariant the stress tests assert.
///
/// [`uthreads::AppMetrics`]: ../uthreads/struct.AppMetrics.html
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolMetrics {
    /// Jobs executed.
    pub jobs_run: u64,
    /// Worker self-suspensions.
    pub suspends: u64,
    /// Worker resumptions.
    pub resumes: u64,
    /// Jobs a worker popped from its own deque.
    pub local_hits: u64,
    /// Jobs taken from the shared injector to run at once: one per
    /// batch ([`crate::injector::Injector::pop_batch`]). The rest of a
    /// batch waits on the taker's deque and counts where it is taken
    /// when it runs, in `local_hits` or `steals`.
    pub injector_pops: u64,
    /// Jobs stolen from another worker's deque.
    pub steals: u64,
    /// Steal attempts that lost a CAS race and had to retry.
    pub steal_fails: u64,
    /// Successful steals broken out by victim distance
    /// ([`STEAL_TIER_NAMES`] order: smt, llc, socket, remote); the
    /// entries sum to `steals`.
    pub steal_tier_hits: [u64; NUM_STEAL_TIERS],
    /// Victims passed over because they were suspended (their deques
    /// are drained before parking, so probing them is pure waste).
    pub steal_skips_suspended: u64,
    /// Jobs whose panic the worker caught (every job runs under
    /// `catch_unwind`). Panicked jobs still count in `jobs_run` — they
    /// were acquired and executed, so the conservation invariant is
    /// unaffected; this counter is the failed subset.
    pub jobs_panicked: u64,
    /// Stall episodes the watchdog opened (a running worker's heartbeat
    /// went stale past the threshold).
    pub stalls_detected: u64,
    /// Unpark nudges the watchdog issued to long-parked workers while
    /// work was visibly available (missed-wakeup insurance).
    pub stall_nudges: u64,
}

/// One idle (out-of-work) worker's private wakeup channel.
struct IdleSlot {
    woken: Mutex<bool>,
    cv: Condvar,
}

/// Floor of the adaptive idle-spin budget: always worth a microsecond
/// of re-checks before paying for a park/unpark round trip.
const SPIN_BUDGET_MIN_NS: u64 = 1_000;
/// Ceiling of the adaptive idle-spin budget: past 100µs of spinning the
/// burned cycles dwarf any wakeup latency saved.
const SPIN_BUDGET_MAX_NS: u64 = 100_000;
/// Starting budget before any wait has been observed (≈ the old fixed
/// 64-poll spin on contemporary hardware).
const SPIN_BUDGET_START_NS: u64 = 20_000;
/// Upper bound for one idle park; a bounded wait guards the unlikely
/// missed-wake interleavings so they cost latency, never liveness.
const IDLE_PARK_POLL: Duration = Duration::from_millis(10);

/// Per-worker adaptive spin control: an EWMA (α = 1/4) of this worker's
/// observed wait-for-work latencies drives how long it spins before
/// parking. Short waits → spin a bit longer and skip the park; long
/// waits → park almost immediately and let the CPU go — the budget the
/// concurrency-restriction literature says must track observed latency.
struct SpinState {
    /// Smoothed wait latency; 0 until the first observation.
    ewma_ns: u64,
    /// Current spin budget, `2×ewma` clamped to
    /// [`SPIN_BUDGET_MIN_NS`, `SPIN_BUDGET_MAX_NS`] — except that waits
    /// far beyond the ceiling drop the budget to the floor (parking is
    /// then a rounding error, so spinning longer buys nothing).
    budget_ns: u64,
}

impl SpinState {
    fn new() -> SpinState {
        SpinState {
            ewma_ns: 0,
            budget_ns: SPIN_BUDGET_START_NS,
        }
    }

    /// Folds one observed wait (spin only, or spin + park) into the
    /// EWMA and recomputes the budget.
    fn observe_wait(&mut self, ns: u64) {
        self.ewma_ns = if self.ewma_ns == 0 {
            ns
        } else {
            self.ewma_ns - self.ewma_ns / 4 + ns / 4
        };
        self.budget_ns = if self.ewma_ns <= SPIN_BUDGET_MAX_NS {
            self.ewma_ns
                .saturating_mul(2)
                .clamp(SPIN_BUDGET_MIN_NS, SPIN_BUDGET_MAX_NS)
        } else {
            SPIN_BUDGET_MIN_NS
        };
    }
}

thread_local! {
    /// `(pool key, worker's [`Local`], worker index)` of the pool worker
    /// running on this thread, if any — lets `execute` from inside a job
    /// build its task in the submitting worker's own spare box, push it
    /// to that worker's own deque and count the spawn in its own cells.
    /// The key is the address of the pool's shared state; the worker's
    /// `Arc` keeps that address live (and unreusable) for as long as the
    /// entry is set.
    static CURRENT_WORKER: Cell<(usize, *const Local, usize)> =
        const { Cell::new((0, std::ptr::null(), 0)) };
}

/// Clears this worker thread's `CURRENT_WORKER` entry on scope exit.
struct TlsGuard;

impl TlsGuard {
    fn set(key: usize, local: &Local, index: usize) -> TlsGuard {
        CURRENT_WORKER.with(|c| c.set((key, local as *const Local, index)));
        TlsGuard
    }
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT_WORKER.with(|c| c.set((0, std::ptr::null(), 0)));
    }
}

struct PoolShared {
    /// External submissions (and jobs drained from suspending workers).
    injector: Injector<Task>,
    /// Steal handles for every worker's deque, indexed by worker.
    stealers: Box<[Stealer<Task>]>,
    /// Per-worker single-writer cells (path counts, spawned/finished,
    /// progress word) and the `wait_idle` rendezvous over them; also the
    /// registry's source for `jobs_run`, `local_hits`, `injector_pops`,
    /// `steals` and `steal_fails`.
    quiesce: Arc<Quiesce>,
    /// The unsuspended count, the suspended workers and their statistics.
    safepoint: SafePoint,
    /// Per-worker "suspended" flags, indexed like `stealers`: set after
    /// a suspending worker drains its deque (so the deque is provably
    /// empty while the flag is up) and cleared by the worker itself on
    /// resume. Stealers skip flagged victims instead of probing their
    /// permanently-empty deques.
    // sched-atomic(handoff): Release store after the drain publishes the
    // emptied deque; stealers' Acquire load pairs with it.
    suspended_flags: Box<[AtomicBool]>,
    /// Workers parked for lack of work.
    sleepers: Mutex<Vec<Arc<IdleSlot>>>,
    /// `sleepers.len()`, readable without the lock (producer fast path).
    // sched-atomic(seqcst): Dekker store-load with the producer: sleeper
    // publishes nsleepers then re-checks work; producer publishes work
    // then reads nsleepers. Both sides need the total order.
    nsleepers: AtomicUsize,
    target: Arc<TargetSlot>,
    // sched-atomic(handoff): Release store in shutdown() publishes the
    // final queue state to workers' Acquire re-check before they exit.
    shutdown: AtomicBool,
    /// Statistics registry behind the handles below (snapshot API).
    registry: Arc<Registry>,
    /// Successful steals by victim distance tier (`steal_tier_smt`,
    /// `steal_tier_llc`, `steal_tier_socket`, `steal_tier_remote`).
    steal_tier_hits: [Counter; NUM_STEAL_TIERS],
    /// Suspended victims skipped during steal sweeps.
    steal_skips_suspended: Counter,
    /// Workers currently holding a narrow (own-CPU) affinity pin.
    // sched-atomic(relaxed): feeds the affinity_applied gauge only; no
    // data is published under it.
    npinned: AtomicUsize,
    /// Gauge mirror of `npinned` (0 when pinning is off or count-only).
    affinity_applied: Gauge,
    /// The most recently recomputed adaptive spin budget, nanoseconds.
    spin_budget: Gauge,
    /// Submission-to-dequeue latency, nanoseconds: one in
    /// [`STAMP_EVERY`] of the outside submissions and of each worker's
    /// own spawns, recorded with that weight.
    queue_wait: Hist,
    /// How long an out-of-work worker spun before parking (or finding
    /// work), nanoseconds.
    spin_before_park: Hist,
    /// Wake signal (resume or idle unpark) to next job dequeue,
    /// nanoseconds — "how long did a runnable worker wait to run".
    wake_to_run: Hist,
    /// Suspension safe point entered to first job after resume,
    /// nanoseconds (the full decision→effect latency of one suspend).
    suspend_to_resume: Hist,
    /// Victim-ring rebuilds triggered by CPU-set changes (dynamic
    /// re-tiering around the new home CPU).
    retier_events: Counter,
    /// Job panics caught (the worker survived).
    jobs_panicked: Counter,
    /// Stall episodes the watchdog opened.
    stalls_detected: Counter,
    /// Unpark nudges issued to stale parked workers.
    stall_nudges: Counter,
    /// Duration of each completed stall episode (detection to first
    /// observed progress), nanoseconds.
    stall_ns: Hist,
    /// The per-worker flight-recorder rings (may be disabled).
    recorder: Arc<FlightRecorder>,
    /// Busy-wait (1989-style) instead of sleeping when the queues are
    /// empty but work is outstanding.
    idle_spin: bool,
    /// The machine layout victim rings and pinning are derived from.
    topology: Arc<CpuTopology>,
    /// Pin workers to their assigned CPUs via `sched_setaffinity`.
    pin: bool,
}

/// Construction options for a [`Pool`] beyond the worker count.
#[derive(Clone, Debug)]
pub struct PoolConfig {
    /// Worker thread count (must be ≥ 1).
    pub nworkers: usize,
    /// Busy-wait (1989-style) instead of the adaptive spin-then-park
    /// protocol when no work is queued.
    pub idle_spin: bool,
    /// Pin workers with `sched_setaffinity(2)`: to their own CPU while
    /// the control plane assigns a concrete set, to the whole machine
    /// otherwise. Best-effort — a no-op off Linux or when the kernel
    /// rejects the mask (e.g. synthetic CPU ids beyond the real ones).
    pub pin: bool,
    /// Topology override for victim rings and pin targets; `None` uses
    /// the process-wide detected topology
    /// ([`CpuTopology::shared`]).
    pub topology: Option<Arc<CpuTopology>>,
    /// Per-worker flight-recorder ring capacity in events (rounded up
    /// to a power of two). `0` disables the recorder entirely — the
    /// recorder-off arm of EXPERIMENTS.md's "Flight-recorder overhead
    /// A/B" (frozen at 04b0ca1).
    pub trace_capacity: usize,
    /// Run a stall watchdog with this stall threshold over the
    /// per-worker progress words; `None` (default) disables monitoring
    /// entirely — zero threads, zero hot-path cost beyond one relaxed
    /// store per job to a line only that worker writes. The watchdog
    /// flags a running worker whose word stays unchanged past the
    /// threshold (`stalls_detected`, [`EventKind::Stall`]) and nudges a
    /// parked one while work is visibly queued (`stall_nudges`). It
    /// scans every quarter threshold (at least 1 ms) and the word
    /// carries no timestamp, so it sees a pickup up to one scan late and
    /// flags a stall within threshold + 2 scans = 1.5× the threshold.
    pub watchdog: Option<Duration>,
}

/// Default flight-recorder ring capacity per worker ("always-on": large
/// enough to hold a poll interval's worth of scheduling transitions,
/// small enough that 8 workers cost ~50 KiB).
const DEFAULT_TRACE_CAPACITY: usize = 256;

impl PoolConfig {
    /// Defaults: spin-then-park idling, no pinning, detected topology,
    /// flight recorder on at 256 events per worker, no watchdog.
    pub fn new(nworkers: usize) -> Self {
        PoolConfig {
            nworkers,
            idle_spin: false,
            pin: false,
            topology: None,
            trace_capacity: DEFAULT_TRACE_CAPACITY,
            watchdog: None,
        }
    }
}

/// A controlled work-stealing worker pool.
pub struct Pool {
    shared: Arc<PoolShared>,
    /// The worker threads, indexed like `stealers`.
    workers: Vec<JoinHandle<()>>,
    watchdog: Option<WatchdogHandle>,
}

/// The running stall watchdog (see [`PoolConfig::watchdog`]). The stop flag
/// doubles as the scan-interval timer: the thread waits on the condvar
/// so shutdown interrupts a sleep instead of waiting it out.
struct WatchdogHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: JoinHandle<()>,
}

impl Pool {
    /// Creates a pool of `nworkers` threads registered with `controller`.
    /// `idle_spin` selects period-faithful busy-waiting (true) or the
    /// adaptive spin-then-park protocol (false) when no work is queued.
    pub fn new(controller: &Controller, nworkers: usize, idle_spin: bool) -> Self {
        let mut cfg = PoolConfig::new(nworkers);
        cfg.idle_spin = idle_spin;
        Self::with_config(controller, cfg)
    }

    /// Creates a pool registered with `controller` using the full
    /// [`PoolConfig`] (pinning, topology override).
    pub fn with_config(controller: &Controller, cfg: PoolConfig) -> Self {
        let target = controller.register(cfg.nworkers);
        Self::with_slot_config(target, cfg)
    }

    /// Creates a pool whose target is driven externally (e.g. by a
    /// [`crate::UdsClient`] poller talking to a cross-process server)
    /// through the given slot.
    ///
    /// For deployments that must survive server crashes, drive the slot
    /// with [`crate::SupervisedClient::spawn_poller`] (Unix only) and
    /// hand it this pool's [`Pool::registry`]: targets then fall back to
    /// degraded mode through outages, and the supervisor's fault
    /// counters travel with the pool's own stats through REPORT/STATS.
    pub fn with_slot(target: Arc<TargetSlot>, nworkers: usize, idle_spin: bool) -> Self {
        let mut cfg = PoolConfig::new(nworkers);
        cfg.idle_spin = idle_spin;
        Self::with_slot_config(target, cfg)
    }

    /// [`Pool::with_slot`] with the full [`PoolConfig`].
    pub fn with_slot_config(target: Arc<TargetSlot>, cfg: PoolConfig) -> Self {
        let nworkers = cfg.nworkers;
        assert!(nworkers >= 1);
        let topology = cfg
            .topology
            .unwrap_or_else(|| Arc::clone(CpuTopology::shared()));
        let registry = Arc::new(Registry::new());
        let mut locals = Vec::with_capacity(nworkers);
        let mut stealers = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let (w, s) = deque::deque::<Task>();
            locals.push(w);
            stealers.push(s);
        }
        // sched-counters: steal_tier_smt steal_tier_llc steal_tier_socket steal_tier_remote
        let steal_tier_hits = std::array::from_fn(|i| {
            registry.counter(&format!("steal_tier_{}", STEAL_TIER_NAMES[i]))
        });
        // One ring per worker plus one for the watchdog: rings are
        // single-producer, so the monitor needs its own to emit
        // Stall/Recovered events about (not from) a wedged worker.
        let recorder = FlightRecorder::new(nworkers + 1, cfg.trace_capacity, &registry);
        let quiesce = Arc::new(Quiesce::new(nworkers));
        // sched-counters: jobs_run local_hits injector_pops steals steal_fails
        registry.counter_source(Arc::clone(&quiesce) as _);
        let shared = Arc::new(PoolShared {
            injector: Injector::with_counter(nworkers, registry.counter("injector_sweep_skips")),
            stealers: stealers.into_boxed_slice(),
            quiesce,
            safepoint: SafePoint::new(nworkers, &registry),
            suspended_flags: (0..nworkers).map(|_| AtomicBool::new(false)).collect(),
            sleepers: Mutex::new(Vec::new()),
            nsleepers: AtomicUsize::new(0),
            target,
            shutdown: AtomicBool::new(false),
            steal_tier_hits,
            steal_skips_suspended: registry.counter("steal_skips_suspended"),
            npinned: AtomicUsize::new(0),
            affinity_applied: registry.gauge("affinity_applied"),
            spin_budget: registry.gauge("spin_budget"),
            queue_wait: registry.histogram("queue_wait_ns"),
            spin_before_park: registry.histogram("spin_before_park_ns"),
            wake_to_run: registry.histogram("wake_to_run_ns"),
            suspend_to_resume: registry.histogram("suspend_to_resume_ns"),
            retier_events: registry.counter("retier_events"),
            jobs_panicked: registry.counter("jobs_panicked"),
            stalls_detected: registry.counter("stalls_detected"),
            stall_nudges: registry.counter("stall_nudges"),
            stall_ns: registry.histogram("stall_ns"),
            recorder,
            registry,
            idle_spin: cfg.idle_spin,
            topology,
            pin: cfg.pin,
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(&sh, i, w))
                    .expect("spawn worker")
            })
            .collect();
        let watchdog = cfg.watchdog.map(|threshold| {
            let stop = Arc::new((Mutex::new(false), Condvar::new()));
            let sh = Arc::clone(&shared);
            let stop2 = Arc::clone(&stop);
            let handle = std::thread::Builder::new()
                .name("pool-watchdog".into())
                .spawn(move || watchdog_loop(&sh, threshold, &stop2))
                .expect("spawn watchdog");
            WatchdogHandle { stop, handle }
        });
        Pool {
            shared,
            workers,
            watchdog,
        }
    }

    /// Submits a job. Callers outside the pool go through the sharded
    /// injector, which holds the task by value; a job submitting from
    /// inside a worker pushes onto that worker's own deque (the
    /// fork-join fast path), its task built in one of the worker's spare
    /// boxes. A closure of at most four words and pointer alignment is
    /// stored in the task itself, so neither path allocates for it once
    /// the worker has spare boxes; a larger one is boxed on its own.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let key = Arc::as_ptr(&self.shared) as usize;
        let (tls_key, tls_ptr, index) = CURRENT_WORKER.with(Cell::get);
        // The job is counted (and stamped) before any queue can show it:
        // a finish is never visible ahead of its submission, and the
        // instrumentation cannot inflate the contention it measures. The
        // count doubles as the sampling tick.
        if tls_key == key {
            let nth = self.shared.quiesce.cells(index).count_spawn();
            // SAFETY: the entry was set by this thread's own worker_loop
            // for this pool; the `Local` lives (pinned) in that frame
            // until the loop returns, which clears the entry first.
            let local = unsafe { &*tls_ptr };
            local.fork(job, stamp(nth));
        } else {
            let nth = self.shared.quiesce.submit_external();
            self.shared.injector.push(Task::new(job, stamp(nth)));
        }
        wake_one(&self.shared);
    }

    /// Blocks until every submitted job has finished. Counters read
    /// right after it returns include every one of those jobs.
    pub fn wait_idle(&self) {
        self.shared.quiesce.wait_idle();
    }

    /// Current number of unsuspended workers.
    pub fn active(&self) -> usize {
        self.shared.safepoint.active()
    }

    /// Worker threads still running, suspended or not: every worker
    /// until the pool drops, since a job's panic cannot end one (not
    /// even a payload that panics again as it drops).
    pub fn live_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.is_finished()).count()
    }

    /// The controller's current target for this pool.
    pub fn target(&self) -> usize {
        self.shared.target.target.load(Ordering::Acquire)
    }

    /// Pool counters.
    pub fn metrics(&self) -> PoolMetrics {
        let cells = self.shared.quiesce.totals();
        PoolMetrics {
            jobs_run: cells.jobs_run,
            suspends: self.shared.safepoint.suspends(),
            resumes: self.shared.safepoint.resumes(),
            local_hits: cells.local_hits,
            injector_pops: cells.injector_pops,
            steals: cells.steals,
            steal_fails: cells.steal_fails,
            steal_tier_hits: std::array::from_fn(|i| self.shared.steal_tier_hits[i].get()),
            steal_skips_suspended: self.shared.steal_skips_suspended.get(),
            jobs_panicked: self.shared.jobs_panicked.get(),
            stalls_detected: self.shared.stalls_detected.get(),
            stall_nudges: self.shared.stall_nudges.get(),
        }
    }

    /// The pool's statistics registry (counters, live-vs-target gauges,
    /// queue-wait, park/unpark, and spin-before-park histograms).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// A point-in-time copy of every pool statistic.
    pub fn stats(&self) -> Snapshot {
        self.shared.registry.snapshot()
    }

    /// The pool's flight recorder: per-worker rings of scheduling events
    /// (job start/end, steals, park/unpark, suspend/resume, CPU-set and
    /// epoch changes). Drain it directly, or hand it to
    /// [`crate::SupervisedClient::with_recorder`] (Unix) so the poller
    /// ships events to the control server for `TRACE` and `schedtop`.
    pub fn recorder(&self) -> Arc<FlightRecorder> {
        Arc::clone(&self.shared.recorder)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let sh = &self.shared;
        sh.shutdown.store(true, Ordering::Release);
        if let Some(wd) = self.watchdog.take() {
            *wd.stop.0.lock() = true;
            wd.stop.1.notify_all();
            let _ = wd.handle.join();
        }
        // Wake idle sleepers...
        {
            let mut sleepers = sh.sleepers.lock();
            let n = sleepers.len();
            sh.nsleepers.fetch_sub(n, Ordering::SeqCst);
            for s in sleepers.drain(..) {
                *s.woken.lock() = true;
                s.cv.notify_one();
            }
        }
        // ...and suspended workers.
        sh.safepoint.release_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Wakes one idle-parked worker, if any (producer side).
#[inline]
fn wake_one(sh: &PoolShared) {
    if sh.nsleepers.load(Ordering::SeqCst) != 0 {
        wake_sleeper(sh);
    }
}

/// [`wake_one`] past its no-sleeper fast path: pops one parked worker,
/// if one is still listed, and signals it.
fn wake_sleeper(sh: &PoolShared) {
    let slot = {
        let mut sleepers = sh.sleepers.lock();
        let s = sleepers.pop();
        if s.is_some() {
            sh.nsleepers.fetch_sub(1, Ordering::SeqCst);
        }
        s
    };
    if let Some(s) = slot {
        *s.woken.lock() = true;
        s.cv.notify_one();
    }
}

/// True when some queue (injector or any worker deque) appears nonempty.
fn work_available(sh: &PoolShared) -> bool {
    !sh.injector.is_empty() || sh.stealers.iter().any(|s| !s.is_empty())
}

/// Acquires one task off the local fast path (the worker's own deque
/// came up empty): injector, then stealing.
fn find_shared_task(
    sh: &PoolShared,
    index: usize,
    local: &Local,
    rings: &VictimRings,
    rng: &mut u64,
) -> Option<Acquired> {
    if let Some(t) = injector_pop(sh, index, local) {
        sh.quiesce.cells(index).count_injector_pop();
        return Some(Acquired::Injected(t));
    }
    steal_task(sh, index, rings, rng).map(Acquired::Boxed)
}

/// The injector leg of [`find_shared_task`]: a batch
/// ([`Injector::pop_batch`]) whose oldest task is returned to run now
/// and whose others go onto `local`'s deque, newest first, so this
/// worker pops them oldest first and a thief takes the newest. Each is
/// counted by the path that later takes it off the deque (`local_hits`
/// or `steals`), only the first as an `injector_pops`.
fn injector_pop(sh: &PoolShared, index: usize, local: &Local) -> Option<Task> {
    sh.injector.pop_batch(index, |t| local.queue(t))
}

/// One worker's view of the others as steal victims, grouped by CPU
/// distance and tagged with the [`TargetSlot::cpus_generation`] it was
/// derived from (stale rings are rebuilt at the next safe point).
struct VictimRings {
    /// Victim worker indices, nearest tier first.
    tiers: [Vec<usize>; NUM_STEAL_TIERS],
    /// The CPU this worker maps to under the current assignment.
    my_cpu: u32,
    /// A concrete CPU set is assigned (pin narrow); false = count-only
    /// mode (pin wide).
    narrow: bool,
    /// Generation of the assignment the rings were built from.
    generation: usize,
}

impl VictimRings {
    /// Maps every worker to a CPU — round-robin over the assigned set
    /// when one is published, round-robin over the whole topology
    /// otherwise — and groups the other workers by distance tier.
    fn build(sh: &PoolShared, index: usize) -> VictimRings {
        let generation = sh.target.cpus_generation();
        let cpuset = sh.target.cpus();
        let assigned = cpuset.as_ref().filter(|c| !c.is_empty());
        let n = sh.stealers.len();
        let cpu_of_worker: Vec<u32> = (0..n)
            .map(|w| match assigned {
                Some(cs) => cs[w % cs.len()],
                None => sh.topology.cpu_at(w),
            })
            .collect();
        let tiers = topology::steal_tiers(&sh.topology, &cpu_of_worker, index);
        VictimRings {
            tiers,
            my_cpu: cpu_of_worker[index],
            narrow: assigned.is_some(),
            generation,
        }
    }
}

/// (Re)pins the calling worker after an assignment change: to its own
/// CPU while a set is assigned, to the whole machine in count-only /
/// degraded mode (so a server outage widens, never strands, affinity).
/// Returns whether a narrow pin is in force, maintaining the
/// `affinity_applied` gauge. No-op unless the pool was built with
/// [`PoolConfig::pin`].
fn apply_affinity(sh: &PoolShared, rings: &VictimRings, was_narrow: bool) -> bool {
    if !sh.pin {
        return false;
    }
    let narrow = if rings.narrow {
        topology::pin_current_thread(&[rings.my_cpu])
    } else {
        let all: Vec<u32> = (0..sh.topology.len())
            .map(|i| sh.topology.cpu_at(i))
            .collect();
        topology::pin_current_thread(&all);
        false
    };
    if narrow != was_narrow {
        if narrow {
            sh.npinned.fetch_add(1, Ordering::Relaxed);
        } else {
            sh.npinned.fetch_sub(1, Ordering::Relaxed);
        }
        sh.affinity_applied
            .set(sh.npinned.load(Ordering::Relaxed) as i64);
    }
    narrow
}

/// Sweeps the other workers' deques nearest-tier-first — randomizing
/// the start *within* each tier so same-distance victims share the
/// load — with exponential backoff between sweeps while CAS races
/// persist. Suspended victims are skipped outright: their deques were
/// drained before they parked.
fn steal_task(
    sh: &PoolShared,
    index: usize,
    rings: &VictimRings,
    rng: &mut u64,
) -> Option<Box<Task>> {
    if sh.stealers.len() <= 1 {
        return None;
    }
    let cells = sh.quiesce.cells(index);
    let mut backoff: u32 = 0;
    loop {
        let mut contended = false;
        for (tier, ring) in rings.tiers.iter().enumerate() {
            if ring.is_empty() {
                continue;
            }
            let start = (crate::xorshift(rng) as usize) % ring.len();
            for off in 0..ring.len() {
                let victim = ring[(start + off) % ring.len()];
                if sh.suspended_flags[victim].load(Ordering::Acquire) {
                    sh.steal_skips_suspended.incr();
                    continue;
                }
                match sh.stealers[victim].steal() {
                    Steal::Success(t) => {
                        cells.count_steal();
                        sh.steal_tier_hits[tier].incr();
                        sh.recorder.record(index, EventKind::Steal, tier as u32);
                        return Some(t);
                    }
                    Steal::Retry => {
                        cells.count_steal_fail();
                        contended = true;
                    }
                    Steal::Empty => {}
                }
            }
        }
        if !contended {
            return None;
        }
        for _ in 0..(1u32 << backoff) {
            spin_loop();
        }
        backoff = (backoff + 1).min(10);
    }
}

/// Empties a suspending worker's deque into the injector so its queued
/// jobs stay runnable while it is parked; their boxes go to its spares.
fn drain_local(sh: &PoolShared, local: &Local) {
    let mut drained = false;
    while let Some(t) = local.worker.pop() {
        sh.injector.push(local.unbox(t));
        drained = true;
    }
    if drained {
        wake_one(sh);
    }
}

/// Folds one completed wait into the worker's spin state and publishes
/// the recomputed budget on the `spin_budget` gauge.
fn observe_wait(sh: &PoolShared, spin: &mut SpinState, waited_ns: u64) {
    spin.observe_wait(waited_ns);
    sh.spin_budget.set(spin.budget_ns as i64);
}

/// Spins through this worker's adaptive budget of availability checks
/// (see [`SpinState`]), then parks on its private slot until a producer
/// wakes it (idle protocol). Every exit path feeds the total wait back
/// into the budget EWMA.
fn idle_spin_then_park(
    sh: &PoolShared,
    index: usize,
    slot: &Arc<IdleSlot>,
    spin: &mut SpinState,
) -> Option<Instant> {
    let started = Instant::now();
    let budget = Duration::from_nanos(spin.budget_ns);
    let mut poll: u32 = 0;
    loop {
        if sh.shutdown.load(Ordering::Acquire) || work_available(sh) {
            let waited = started.elapsed().as_nanos() as u64;
            sh.spin_before_park.record(waited);
            observe_wait(sh, spin, waited);
            return None;
        }
        if started.elapsed() >= budget {
            break;
        }
        for _ in 0..(1u32 << (poll / 8).min(6)) {
            spin_loop();
        }
        if poll % 8 == 7 {
            std::thread::yield_now();
        }
        poll = poll.wrapping_add(1);
    }
    // Commit to parking: publish the slot, then re-check, so a producer
    // either sees us in the list or we see its work.
    *slot.woken.lock() = false;
    {
        let mut sleepers = sh.sleepers.lock();
        sleepers.push(Arc::clone(slot));
        sh.nsleepers.fetch_add(1, Ordering::SeqCst);
    }
    sh.recorder.record(index, EventKind::Park, 0);
    sh.quiesce.cells(index).mark(quiesce::PARKED);
    sh.spin_before_park
        .record(started.elapsed().as_nanos() as u64);
    if sh.shutdown.load(Ordering::Acquire) || work_available(sh) {
        unregister_sleeper(sh, slot);
        observe_wait(sh, spin, started.elapsed().as_nanos() as u64);
        let woke = Instant::now();
        sh.quiesce.cells(index).mark(quiesce::IDLE);
        sh.recorder
            .record_at(index, trace::ns_since_origin(woke), EventKind::Unpark, 0);
        return Some(woke);
    }
    {
        let mut woken = slot.woken.lock();
        while !*woken && !sh.shutdown.load(Ordering::Acquire) {
            slot.cv.wait_for(&mut woken, IDLE_PARK_POLL);
            if !*woken && work_available(sh) {
                break; // timed-out liveness path
            }
        }
    }
    unregister_sleeper(sh, slot);
    observe_wait(sh, spin, started.elapsed().as_nanos() as u64);
    let woke = Instant::now();
    sh.quiesce.cells(index).mark(quiesce::IDLE);
    sh.recorder
        .record_at(index, trace::ns_since_origin(woke), EventKind::Unpark, 0);
    Some(woke)
}

/// Removes `slot` from the sleeper list if a waker has not already
/// popped it (the timeout and early-exit paths).
fn unregister_sleeper(sh: &PoolShared, slot: &Arc<IdleSlot>) {
    let mut sleepers = sh.sleepers.lock();
    if let Some(pos) = sleepers.iter().position(|s| Arc::ptr_eq(s, slot)) {
        sleepers.remove(pos);
        sh.nsleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Per-job accounting that must run whether the job returns or panics:
/// `jobs_run` counts every executed job (panicked ones included — they
/// were acquired through exactly one path, so conservation holds), and
/// it is the "finished" side of the quiescence scan, so `wait_idle`
/// cannot hang on a job that will never "finish" normally.
/// Runs the worker half of the `wait_idle` wakeup if this worker finished
/// any job since it last did.
fn announce_finishes(sh: &PoolShared, unannounced: &mut bool) {
    if std::mem::take(unannounced) {
        sh.quiesce.announce();
    }
}

/// Runs `job`, catching its panic; returns whether it panicked. A
/// panic's payload is dropped under a second `catch_unwind`, and a
/// payload whose drop panics too is forgotten, so no job can unwind out
/// of here and end the worker that runs it: the worker count that
/// process control partitions stays whole. Both pools run every job
/// through here. Jobs are asserted unwind-safe: a job that panics
/// mid-update of state it shares with other jobs may leave that state
/// inconsistent — the pool's own invariants hold either way.
pub(crate) fn run_caught(job: impl FnOnce()) -> bool {
    let Err(payload) = catch_unwind(AssertUnwindSafe(job)) else {
        return false;
    };
    drop_payload(payload);
    true
}

/// Drops a caught panic's payload, forgetting the payload of a panic
/// its drop raises. Out of line: the worker loop inlines [`run_caught`],
/// and this path runs only after a panic.
#[cold]
#[inline(never)]
fn drop_payload(payload: Box<dyn Any + Send>) {
    if let Err(again) = catch_unwind(AssertUnwindSafe(move || drop(payload))) {
        std::mem::forget(again);
    }
}

/// Armed for the lifetime of a worker loop: fault recovery for a panic
/// in the pool's own code (a job's cannot unwind the loop,
/// [`run_caught`]). If the loop unwinds, it repairs the shared
/// accounting the dead worker can no longer maintain: drains its deque
/// into the injector (the rest of a batch it took, or its forks: no
/// worker steals from its own index, and the injector is where every
/// worker looks), clears its suspended flag, removes it from the
/// `active` count so a suspended colleague resumes in its place, marks
/// it idle so the watchdog sees no stall, and announces its finishes,
/// which may include the last one a `wait_idle` caller is waiting for.
struct DeathWatch<'a> {
    sh: &'a PoolShared,
    local: &'a Local,
    index: usize,
    armed: bool,
}

impl Drop for DeathWatch<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        drain_local(self.sh, self.local);
        self.sh.suspended_flags[self.index].store(false, Ordering::Release);
        self.sh.safepoint.remove_worker();
        self.sh.quiesce.cells(self.index).mark(quiesce::IDLE);
        self.sh.quiesce.announce();
    }
}

/// The stall-watchdog monitor thread (see [`PoolConfig::watchdog`]):
/// samples every worker's progress word each quarter `threshold` and
/// ages it with its own clock (the workers read none for it), opens a
/// stall episode for a running worker whose word stayed unchanged past
/// the threshold (log + `stalls_detected` + [`EventKind::Stall`]),
/// closes it on the first observed progress (`stall_ns` +
/// [`EventKind::Recovered`]), and nudges long-parked workers while work
/// is visibly queued.
fn watchdog_loop(sh: &PoolShared, threshold: Duration, stop: &(Mutex<bool>, Condvar)) {
    let n = sh.stealers.len();
    // The recorder's extra ring (index n) belongs to the watchdog.
    let wd_ring = n;
    // Open episodes: the progress word observed at detection (progress
    // == any change) and the detection timestamp.
    let mut episodes: Vec<Option<(u64, u64)>> = vec![None; n];
    // Each worker's last sampled word and when this thread first saw it.
    let started_ns = trace::now_ns();
    let mut seen: Vec<(u64, u64)> = (0..n)
        .map(|i| (sh.quiesce.cells(i).progress(), started_ns))
        .collect();
    let threshold_ns = threshold.as_nanos() as u64;
    let interval = (threshold / 4).max(Duration::from_millis(1));
    loop {
        {
            let mut stopped = stop.0.lock();
            if !*stopped {
                stop.1.wait_for(&mut stopped, interval);
            }
            if *stopped {
                return;
            }
        }
        let now_ns = trace::now_ns();
        for (i, (episode, seen)) in episodes.iter_mut().zip(&mut seen).enumerate() {
            let hb = sh.quiesce.cells(i).progress();
            if hb != seen.0 {
                *seen = (hb, now_ns);
            }
            let state = hb & 0b11;
            let stale = now_ns - seen.1;
            let stalled = state == quiesce::RUNNING && stale > threshold_ns;
            match *episode {
                None if stalled => {
                    *episode = Some((hb, now_ns));
                    sh.stalls_detected.incr();
                    let ms = (stale / 1_000_000).min(u64::from(u32::MAX)) as u32;
                    sh.recorder
                        .record_from(wd_ring, i as u16, now_ns, EventKind::Stall, ms);
                    eprintln!(
                        "pool-watchdog: worker {i} stalled ({} ms since last progress, threshold {} ms)",
                        stale / 1_000_000,
                        threshold_ns / 1_000_000,
                    );
                }
                Some((hb_at_detect, detected_ns)) if hb != hb_at_detect => {
                    *episode = None;
                    let dur = now_ns.saturating_sub(detected_ns);
                    sh.stall_ns.record(dur);
                    let ms = (dur / 1_000_000).min(u64::from(u32::MAX)) as u32;
                    sh.recorder
                        .record_from(wd_ring, i as u16, now_ns, EventKind::Recovered, ms);
                }
                _ => {}
            }
            if state == quiesce::PARKED
                && stale > threshold_ns
                && !sh.quiesce.quiescent()
                && work_available(sh)
            {
                sh.stall_nudges.incr();
                wake_one(sh);
            }
        }
    }
}

fn worker_loop(sh: &Arc<PoolShared>, index: usize, worker: Worker<Task>) {
    let local = Local::new(worker);
    let _tls = TlsGuard::set(Arc::as_ptr(sh) as usize, &local, index);
    let cells = sh.quiesce.cells(index);
    let mut death = DeathWatch {
        sh,
        local: &local,
        index,
        armed: true,
    };
    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1) | 1;
    let idle_slot = Arc::new(IdleSlot {
        woken: Mutex::new(false),
        cv: Condvar::new(),
    });
    let mut spin = SpinState::new();
    let mut rings = VictimRings::build(sh, index);
    let mut narrow_pin = apply_affinity(sh, &rings, false);
    // Flight-recorder bookkeeping: the last wake signal not yet matched
    // to a job (wake-to-run), the pending suspension safe-point entry
    // (suspend-to-resume), the last decision epoch this worker saw, and
    // the length of the current uninterrupted running burst.
    let mut pending_wake: Option<Instant> = None;
    let mut pending_suspend: Option<Instant> = None;
    let mut last_target = usize::MAX;
    let mut burst_jobs: u32 = 0;
    // Jobs finished since this worker last ran `Quiesce::announce`.
    let mut unannounced = false;
    loop {
        if sh.shutdown.load(Ordering::Acquire) {
            if burst_jobs > 0 {
                sh.recorder.record(index, EventKind::JobEnd, burst_jobs);
            }
            death.armed = false;
            return;
        }
        // --- Safe suspension point: no job held, no lock held. ---
        if rings.generation != sh.target.cpus_generation() {
            // The control plane moved our CPU set: rebuild the victim
            // rings around the new home CPU (dynamic re-tiering) and
            // follow the assignment with the affinity mask.
            rings = VictimRings::build(sh, index);
            narrow_pin = apply_affinity(sh, &rings, narrow_pin);
            sh.retier_events.incr();
            sh.recorder
                .record(index, EventKind::CpuSet, rings.generation as u32);
            sh.recorder.record(index, EventKind::Retier, rings.my_cpu);
        }
        let target = sh.target.target.load(Ordering::Acquire);
        if target != last_target {
            sh.recorder.record(index, EventKind::Epoch, target as u32);
            last_target = target;
        }
        if sh.safepoint.check(target) {
            if burst_jobs > 0 {
                sh.recorder.record(index, EventKind::JobEnd, burst_jobs);
                burst_jobs = 0;
            }
            // Publish queued jobs before parking: nothing may be
            // stranded behind a suspended worker. Only then raise
            // the suspended flag — stealers may skip a flagged
            // victim only while its deque is provably empty.
            drain_local(sh, &local);
            sh.suspended_flags[index].store(true, Ordering::Release);
            let suspended_at = Instant::now();
            cells.mark(quiesce::SUSPENDED);
            // This worker may have finished the last job a
            // `wait_idle` caller waits for, and is about to sleep.
            announce_finishes(sh, &mut unannounced);
            sh.recorder.record_at(
                index,
                trace::ns_since_origin(suspended_at),
                EventKind::Suspend,
                target as u32,
            );
            let outcome = sh.safepoint.park_suspended(&sh.shutdown);
            sh.suspended_flags[index].store(false, Ordering::Release);
            match outcome {
                SuspendOutcome::Resumed(signaled_at) => {
                    let woke = Instant::now();
                    cells.mark(quiesce::IDLE);
                    let lat_us = signaled_at.map_or(0, |at| {
                        (woke.duration_since(at).as_micros()).min(u32::MAX as u128) as u32
                    });
                    sh.recorder.record_at(
                        index,
                        trace::ns_since_origin(woke),
                        EventKind::Resume,
                        lat_us,
                    );
                    pending_wake = signaled_at;
                    pending_suspend = Some(suspended_at);
                    continue; // re-enter the safe point
                }
                SuspendOutcome::Shutdown => {
                    death.armed = false;
                    return;
                }
            }
        }
        // --- Acquire and run. ---
        let task = match local.worker.pop() {
            Some(t) => {
                cells.count_local_hit();
                Some(Acquired::Boxed(t))
            }
            None => {
                // Leaving the local-deque fast path is where a finished
                // burst is announced to `wait_idle` callers: one fence
                // per burst, not two shared RMWs per job.
                announce_finishes(sh, &mut unannounced);
                find_shared_task(sh, index, &local, &rings, &mut rng)
            }
        };
        match task {
            Some(task) => {
                // One relaxed store to a line only this worker writes is
                // the entire hot-path cost of the watchdog, which ages
                // the word with its own clock.
                cells.mark(quiesce::RUNNING);
                // The clock is read only when something consumes it: a
                // queue-wait sample, a pending wake-to-run or
                // suspend-to-resume latency, or the JobStart event of a
                // burst's first pickup. Mid-burst pickups of unstamped
                // tasks — 31 in 32, forked or from outside — read none.
                let opens_burst = burst_jobs == 0;
                let stamp = task.stamp();
                if stamp.is_some()
                    || opens_burst
                    || pending_wake.is_some()
                    || pending_suspend.is_some()
                {
                    // Recorded with no lock held (the sample starts at
                    // submission time, before the producer touched a
                    // shard).
                    let now = Instant::now();
                    let wait = stamp.map(|(submitted, weight)| {
                        let wait = now.duration_since(submitted);
                        sh.queue_wait.record_n(wait.as_nanos() as u64, weight);
                        wait
                    });
                    if let Some(at) = pending_wake.take() {
                        sh.wake_to_run
                            .record(now.duration_since(at).as_nanos() as u64);
                    }
                    if let Some(at) = pending_suspend.take() {
                        sh.suspend_to_resume
                            .record(now.duration_since(at).as_nanos() as u64);
                    }
                    // JobStart is burst-coalesced like JobEnd: only the
                    // first pickup after idle/park/resume opens a burst
                    // event (arg = that pickup's queue wait, 0 when it
                    // was not a sample). Mid-burst pickups carry no
                    // scheduling signal and a per-job push would keep
                    // the full ring on its drop-oldest CAS path.
                    if opens_burst {
                        sh.recorder.record_at(
                            index,
                            trace::ns_since_origin(now),
                            EventKind::JobStart,
                            wait.map_or(0, |w| w.as_micros().min(u32::MAX as u128) as u32),
                        );
                    }
                }
                burst_jobs = burst_jobs.saturating_add(1);
                unannounced = true;
                if run_caught(|| task.run(&local)) {
                    sh.jobs_panicked.incr();
                }
                cells.count_finish();
            }
            None => {
                if burst_jobs > 0 {
                    sh.recorder.record(index, EventKind::JobEnd, burst_jobs);
                    burst_jobs = 0;
                }
                // Out of work: leave the running state so the watchdog
                // never mistakes an empty queue for a wedged job.
                cells.mark(quiesce::IDLE);
                if sh.idle_spin {
                    // Period-faithful busy wait: burn a short slice, then
                    // re-check (lets the OS preempt us naturally).
                    for _ in 0..2_000 {
                        spin_loop();
                    }
                    std::thread::yield_now();
                } else if let Some(woke) = idle_spin_then_park(sh, index, &idle_slot, &mut spin) {
                    pending_wake = Some(woke);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use std::time::Duration;

    fn controller(cpus: usize) -> Controller {
        Controller::new(cpus, Duration::from_millis(10))
    }

    #[test]
    fn runs_all_jobs() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.metrics().jobs_run, 100);
    }

    #[test]
    fn job_acquisition_paths_conserve_jobs() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..500 {
            pool.execute(|| std::hint::black_box(()));
        }
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 500);
        assert_eq!(
            m.local_hits + m.injector_pops + m.steals,
            m.jobs_run,
            "every job acquired exactly once: {m:?}"
        );
    }

    #[test]
    fn worker_submissions_take_the_local_fast_path() {
        let c = controller(2);
        let pool = Arc::new(Pool::new(&c, 2, false));
        let counter = Arc::new(AtomicUsize::new(0));
        // One root job fans out children from inside the pool.
        let (p, k) = (Arc::clone(&pool), Arc::clone(&counter));
        pool.execute(move || {
            for _ in 0..64 {
                let k2 = Arc::clone(&k);
                p.execute(move || {
                    k2.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        let m = pool.metrics();
        assert!(
            m.local_hits > 0,
            "in-pool submissions should hit the local deque: {m:?}"
        );
        assert_eq!(m.local_hits + m.injector_pops + m.steals, m.jobs_run);
    }

    crate::safepoint::suspend_resume_tests!(Pool);

    #[test]
    fn stats_cover_latency_histograms_and_gauges() {
        let c = controller(2);
        let pool = Pool::new(&c, 6, false);
        for _ in 0..300 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(100)));
        }
        // Wait for process control to actually park someone.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.metrics().suspends == 0 {
            assert!(std::time::Instant::now() < deadline, "no worker suspended");
            std::thread::sleep(Duration::from_millis(5));
        }
        pool.wait_idle();
        let snap = pool.stats();
        // The classic counters live in the registry too.
        assert_eq!(snap.counters["jobs_run"], 300);
        assert!(snap.counters["suspends"] >= 1);
        assert_eq!(
            snap.counters["local_hits"] + snap.counters["injector_pops"] + snap.counters["steals"],
            300
        );
        // Outside submissions 1, 33, …, 289 were stamped, each standing
        // for STAMP_EVERY jobs.
        assert_eq!(
            snap.histograms["queue_wait_ns"].count,
            300u64.div_ceil(STAMP_EVERY) * STAMP_EVERY
        );
        assert!(snap.histograms["queue_wait_ns"].quantile(0.5).is_some());
        // Gauges were sampled at safe points.
        assert_eq!(snap.gauges["target"], 2);
        assert!(snap.gauges["active"] >= 1);
        // Park duration is recorded when a parked worker wakes — which for
        // a still-suspended worker happens at shutdown. The registry
        // outlives the pool, so snapshot it after the drop.
        let registry = pool.registry();
        drop(pool);
        assert!(registry.snapshot().histograms["park_ns"].count >= 1);
    }

    #[test]
    fn idle_workers_record_spin_before_park() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..20 {
            pool.execute(|| {});
        }
        pool.wait_idle();
        // Give the workers time to run out of work and park.
        std::thread::sleep(Duration::from_millis(50));
        let snap = pool.stats();
        assert!(
            snap.histograms["spin_before_park_ns"].count >= 1,
            "idle workers should have measured their spin phase"
        );
    }

    #[test]
    fn arc_pool_handle_works() {
        let c = controller(2);
        let pool = Arc::new(Pool::new(&c, 2, false));
        let counter = Arc::new(AtomicUsize::new(0));
        let k = Arc::clone(&counter);
        pool.execute(move || {
            k.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn steal_tier_hits_partition_steals() {
        let c = controller(8);
        let mut cfg = PoolConfig::new(8);
        cfg.topology = Some(Arc::new(CpuTopology::synthetic(8)));
        let pool = Pool::with_config(&c, cfg);
        for _ in 0..2000 {
            pool.execute(|| std::hint::black_box(()));
        }
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 2000);
        assert_eq!(
            m.steal_tier_hits.iter().sum::<u64>(),
            m.steals,
            "per-tier counters must partition steals: {m:?}"
        );
        assert_eq!(m.local_hits + m.injector_pops + m.steals, m.jobs_run);
    }

    #[test]
    fn pinned_pool_runs_everything_and_reports_affinity() {
        let c = controller(2);
        let mut cfg = PoolConfig::new(4);
        cfg.pin = true;
        let pool = Pool::with_config(&c, cfg);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 200);
        // Pinning is best-effort; whatever happened, the gauge must
        // exist and never exceed the worker count.
        let snap = pool.stats();
        assert!(snap.gauges["affinity_applied"] <= 4);
    }

    #[test]
    fn spin_budget_gauge_tracks_idle_waits() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..50 {
            pool.execute(|| {});
            std::thread::sleep(Duration::from_micros(200));
        }
        pool.wait_idle();
        std::thread::sleep(Duration::from_millis(50));
        let snap = pool.stats();
        let budget = snap.gauges["spin_budget"];
        assert!(
            budget >= SPIN_BUDGET_MIN_NS as i64 && budget <= SPIN_BUDGET_MAX_NS as i64,
            "budget out of clamp range: {budget}"
        );
    }

    #[test]
    fn spin_state_adapts_and_clamps() {
        let mut s = SpinState::new();
        assert_eq!(s.budget_ns, SPIN_BUDGET_START_NS);
        s.observe_wait(500); // short waits → the floor, not zero
        assert_eq!(s.budget_ns, SPIN_BUDGET_MIN_NS);
        for _ in 0..64 {
            s.observe_wait(40_000); // moderate waits → ~2× the EWMA
        }
        assert!(
            s.budget_ns > 50_000 && s.budget_ns <= SPIN_BUDGET_MAX_NS,
            "budget should track 2×EWMA: {}",
            s.budget_ns
        );
        for _ in 0..64 {
            s.observe_wait(10_000_000); // very long waits → park at once
        }
        assert_eq!(s.budget_ns, SPIN_BUDGET_MIN_NS);
    }

    #[test]
    fn spin_mode_also_completes() {
        let c = controller(2);
        let pool = Pool::new(&c, 4, true);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let k = Arc::clone(&counter);
            pool.execute(move || {
                k.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn flight_recorder_captures_job_starts_with_ordered_timestamps() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        for _ in 0..100 {
            pool.execute(|| std::hint::black_box(()));
        }
        pool.wait_idle();
        let rec = pool.recorder();
        let registry = pool.registry();
        assert!(rec.is_enabled());
        drop(pool); // join the workers: no more producers, no races below
        let events = rec.drain(usize::MAX);
        let starts = events
            .iter()
            .filter(|e| e.kind == EventKind::JobStart)
            .count() as u64;
        let ended: u64 = events
            .iter()
            .filter(|e| e.kind == EventKind::JobEnd)
            .map(|e| u64::from(e.arg))
            .sum();
        let snap = registry.snapshot();
        // Burst coalescing conserves jobs: with nothing dropped (a
        // handful of events per 256-slot ring), the JobEnd burst lengths
        // sum to exactly the jobs run, and every burst that ended was
        // opened by a JobStart.
        assert_eq!(snap.counters["trace_dropped"], 0);
        assert_eq!(ended, 100, "JobEnd burst lengths must sum to jobs run");
        assert!(
            (1..=ended).contains(&starts),
            "burst starts out of range: {starts} starts for {ended} jobs"
        );
        // The drain is merged by timestamp and each worker's own events
        // are monotonic (single origin, single producer per ring).
        for w in events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns, "merged drain out of order");
        }
        // Every event the pool emits round-trips through the wire codec.
        for e in &events {
            assert_eq!(TraceEvent::parse(&e.to_wire()), Some(*e));
        }
        // Counter conservation: everything recorded was drained or
        // dropped (the drain above emptied the rings).
        assert_eq!(
            snap.counters["trace_events"],
            events.len() as u64 + snap.counters["trace_dropped"]
        );
    }

    #[test]
    fn disabled_recorder_pool_still_runs() {
        let c = controller(2);
        let mut cfg = PoolConfig::new(2);
        cfg.trace_capacity = 0;
        let pool = Pool::with_config(&c, cfg);
        for _ in 0..50 {
            pool.execute(|| {});
        }
        pool.wait_idle();
        let rec = pool.recorder();
        assert!(!rec.is_enabled());
        assert!(rec.drain(usize::MAX).is_empty());
        assert_eq!(pool.stats().counters["trace_events"], 0);
    }

    #[test]
    fn suspension_records_wake_to_run_and_trace_events() {
        let slot = Arc::new(TargetSlot::new(4));
        let pool = Pool::with_slot(Arc::clone(&slot), 4, false);
        // Force suspensions, then let everyone run again.
        slot.target.store(1, Ordering::Release);
        for _ in 0..200 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(50)));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.metrics().suspends == 0 {
            assert!(std::time::Instant::now() < deadline, "no worker suspended");
            std::thread::sleep(Duration::from_millis(2));
        }
        slot.target.store(4, Ordering::Release);
        for _ in 0..200 {
            pool.execute(|| std::thread::sleep(Duration::from_micros(50)));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.metrics().resumes == 0 {
            assert!(std::time::Instant::now() < deadline, "no worker resumed");
            std::thread::sleep(Duration::from_millis(2));
        }
        pool.wait_idle();
        let snap = pool.stats();
        assert!(
            snap.histograms["wake_to_run_ns"].count >= 1,
            "resume did not feed wake-to-run"
        );
        assert!(
            snap.histograms["suspend_to_resume_ns"].count >= 1,
            "suspension cycle did not feed suspend-to-resume"
        );
        let events = pool.recorder().drain(usize::MAX);
        let kinds: std::collections::BTreeSet<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Suspend), "no Suspend event");
        assert!(kinds.contains(&EventKind::Resume), "no Resume event");
        assert!(kinds.contains(&EventKind::Epoch), "no Epoch event");
    }

    #[test]
    fn panicking_jobs_are_isolated_and_conserved() {
        let c = controller(4);
        let pool = Pool::new(&c, 4, false);
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                if i % 5 == 0 {
                    panic!("chaos job {i}");
                }
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle(); // must not hang on the panicked jobs
        assert_eq!(done.load(Ordering::Relaxed), 80);
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 100, "panicked jobs still count as run");
        assert_eq!(m.jobs_panicked, 20);
        assert_eq!(
            m.local_hits + m.injector_pops + m.steals,
            m.jobs_run,
            "conservation must survive panics: {m:?}"
        );
        // The workers survived: fresh jobs still run on all paths.
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 81);
        assert_eq!(pool.active(), 4, "nobody died");
    }

    /// A panic payload whose drop panics too.
    struct PanicsOnDrop;

    impl Drop for PanicsOnDrop {
        fn drop(&mut self) {
            panic!("the payload panics as it drops");
        }
    }

    #[test]
    fn a_panic_payload_that_panics_on_drop_does_not_kill_its_worker() {
        let c = controller(2);
        let pool = Pool::new(&c, 2, false);
        pool.execute(|| std::panic::panic_any(PanicsOnDrop));
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!((m.jobs_run, m.jobs_panicked), (1, 1));
        assert_eq!(pool.active(), 2, "a worker died dropping the payload");
        assert_eq!(pool.live_workers(), 2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 64);
        assert_eq!(pool.metrics().jobs_run, 65);
    }

    #[test]
    fn watchdog_detects_stall_and_recovery_with_trace_events() {
        let c = controller(2);
        let mut cfg = PoolConfig::new(2);
        let threshold = Duration::from_millis(200);
        cfg.watchdog = Some(threshold);
        let pool = Pool::with_config(&c, cfg);
        // One wedged job: sleeps far past the stall threshold.
        let submitted = std::time::Instant::now();
        pool.execute(|| std::thread::sleep(Duration::from_millis(600)));
        let deadline = submitted + Duration::from_secs(5);
        while pool.metrics().stalls_detected == 0 {
            assert!(std::time::Instant::now() < deadline, "stall never detected");
            std::thread::sleep(Duration::from_millis(5));
        }
        let detected_after = submitted.elapsed();
        assert!(
            detected_after <= threshold * 2 + Duration::from_millis(150),
            "detection too slow: {detected_after:?} for threshold {threshold:?}"
        );
        // The job ends; the next heartbeat closes the episode.
        pool.wait_idle();
        pool.execute(|| {});
        pool.wait_idle();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().histograms["stall_ns"].count == 0 {
            assert!(std::time::Instant::now() < deadline, "never recovered");
            std::thread::sleep(Duration::from_millis(5));
        }
        let events = pool.recorder().drain(usize::MAX);
        let stall = events.iter().find(|e| e.kind == EventKind::Stall);
        let recovered = events.iter().find(|e| e.kind == EventKind::Recovered);
        let stall = stall.expect("Stall event emitted");
        assert!(recovered.is_some(), "Recovered event emitted");
        assert!(
            (stall.worker as usize) < 2,
            "Stall names the wedged worker: {stall:?}"
        );
        // Wire codec round-trips the new kinds.
        assert_eq!(TraceEvent::parse(&stall.to_wire()), Some(*stall));
    }

    /// Forks `n` children from inside a worker; `child(i)` is the body
    /// of the `i`-th pushed (the deque is LIFO: the last pushed runs
    /// first, all of them in one burst on a one-worker pool).
    fn fork_from_inside(pool: &Arc<Pool>, n: usize, child: impl Fn(usize) + Send + Sync + 'static) {
        let (p, child) = (Arc::clone(pool), Arc::new(child));
        pool.execute(move || {
            for i in 0..n {
                let child = Arc::clone(&child);
                p.execute(move || child(i));
            }
        });
    }

    #[test]
    fn own_spawns_are_sampled_with_the_weight_they_stand_for() {
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        fork_from_inside(&pool, 2 * STAMP_EVERY as usize, |_| {});
        pool.wait_idle();
        let snap = pool.stats();
        assert_eq!(snap.counters["jobs_run"], 1 + 2 * STAMP_EVERY);
        // Spawns 1 and 33 were stamped and stand for 32 jobs each; so
        // does the root, the pool's first outside submission.
        assert_eq!(snap.histograms["queue_wait_ns"].count, 3 * STAMP_EVERY);
    }

    #[test]
    fn outside_submissions_are_sampled_with_the_weight_they_stand_for() {
        let c = controller(1);
        let pool = Pool::new(&c, 1, false);
        // The first job holds the worker until the rest are queued, so
        // the worker takes them in batches.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            g.wait();
        });
        for _ in 1..2 * STAMP_EVERY {
            pool.execute(|| {});
        }
        gate.wait();
        pool.wait_idle();
        let snap = pool.stats();
        assert_eq!(snap.counters["jobs_run"], 2 * STAMP_EVERY);
        // The first job of each batch is an injector pop, the others
        // local hits.
        let (pops, hits) = (snap.counters["injector_pops"], snap.counters["local_hits"]);
        assert_eq!(pops + hits, 2 * STAMP_EVERY);
        assert!(pops < 2 * STAMP_EVERY, "no batch formed");
        // Submissions 1 and 33 were stamped and stand for 32 jobs each:
        // the histogram still estimates all jobs.
        assert_eq!(snap.histograms["queue_wait_ns"].count, 2 * STAMP_EVERY);
    }

    #[test]
    fn outside_jobs_behind_a_blocked_job_run_in_submission_order_shard_by_shard() {
        let c = controller(1);
        let pool = Pool::new(&c, 1, false);
        // Two rendezvous: the blocker has started (the injector is
        // empty), and the 40 jobs are queued behind it.
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.execute(move || {
            g.wait();
            g.wait();
        });
        gate.wait();
        let ran = Arc::new(Mutex::new(Vec::new()));
        let mut on_shard = vec![Vec::new(); pool.shared.injector.shards()];
        for i in 0..40 {
            on_shard[pool.shared.injector.next_shard()].push(i);
            let r = Arc::clone(&ran);
            pool.execute(move || r.lock().push(i));
        }
        gate.wait();
        pool.wait_idle();
        // The worker sweeps from shard 0 and takes each shard's 20 jobs
        // in one batch: the oldest runs at once, the other 19 off its
        // deque, oldest first.
        assert_eq!(*ran.lock(), on_shard.concat());
        let m = pool.metrics();
        assert_eq!((m.injector_pops, m.local_hits), (3, 38), "{m:?}");
    }

    /// Counts its drops: a task must drop its closure's captures once,
    /// whether the closure ran, panicked or never ran.
    struct DropCount(Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether `f` would be stored in the task itself.
    fn stored_inline<F>(_: &F) -> bool {
        fits_inline::<F>()
    }

    #[test]
    fn a_task_runs_its_job_exactly_once() {
        let (ran, drops) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let (r, d) = (Arc::clone(&ran), DropCount(Arc::clone(&drops)));
        let job = move || {
            let _d = &d;
            r.fetch_add(1, Ordering::Relaxed);
        };
        assert!(stored_inline(&job));
        Task::new(job, None).run();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&ran), 1);
    }

    #[test]
    fn a_task_dropped_unrun_drops_its_captures_once() {
        let probe = Arc::new(AtomicUsize::new(0));
        let p = Arc::clone(&probe);
        let job = move || {
            p.fetch_add(1, Ordering::Relaxed);
        };
        assert!(stored_inline(&job));
        drop(Task::new(job, None));
        assert_eq!(probe.load(Ordering::Relaxed), 0, "ran");
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn large_and_overaligned_closures_take_the_boxed_path_and_run() {
        #[repr(align(16))]
        struct Aligned(u64);
        let probe = Arc::new(AtomicUsize::new(0));
        let (p, wide) = (Arc::clone(&probe), [1u64; 4]);
        let large = move || {
            p.fetch_add(wide.iter().sum::<u64>() as usize, Ordering::Relaxed);
        };
        let (p, aligned) = (Arc::clone(&probe), Aligned(10));
        let overaligned = move || {
            let whole = aligned; // capture the struct, not just its field
            p.fetch_add(whole.0 as usize, Ordering::Relaxed);
        };
        assert!(size_of_val(&large) > size_of::<Inline>() && !stored_inline(&large));
        assert!(align_of_val(&overaligned) == 16 && !stored_inline(&overaligned));
        Task::new(large, None).run();
        Task::new(overaligned, None).run();
        assert_eq!(probe.load(Ordering::Relaxed), 14);
        // A boxed closure that never ran is freed with its captures.
        let p = Arc::clone(&probe);
        drop(Task::new(move || drop((p, wide)), None));
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    fn a_zero_sized_closure_runs() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let job = || {
            RAN.fetch_add(1, Ordering::Relaxed);
        };
        assert_eq!(size_of_val(&job), 0);
        Task::new(job, None).run();
        assert_eq!(RAN.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_inline_job_drops_its_captures_once() {
        let c = controller(1);
        let pool = Pool::new(&c, 1, false);
        let drops = Arc::new(AtomicUsize::new(0));
        let d = DropCount(Arc::clone(&drops));
        let job = move || {
            let _d = &d;
            panic!("inline job panics");
        };
        assert!(stored_inline(&job));
        pool.execute(job);
        pool.wait_idle();
        assert_eq!(pool.metrics().jobs_panicked, 1);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    fn a_pool_dropped_with_queued_jobs_releases_every_capture() {
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        let probe = Arc::new(());
        let shared = Arc::clone(&pool.shared);
        let (forked_tx, forked) = std::sync::mpsc::channel();
        // The one worker forks children onto its own deque, then holds
        // on until the pool is shutting down: nothing queued ever runs.
        let (p, k) = (Arc::clone(&pool), Arc::clone(&probe));
        pool.execute(move || {
            for _ in 0..8 {
                let k = Arc::clone(&k);
                p.execute(move || drop(k));
            }
            drop((p, k));
            forked_tx.send(()).expect("test alive");
            while !shared.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        forked.recv().expect("the root ran");
        for _ in 0..8 {
            let k = Arc::clone(&probe);
            pool.execute(move || drop(k));
        }
        assert_eq!(Arc::strong_count(&probe), 17, "16 queued jobs hold it");
        let pool = Arc::into_inner(pool).expect("the root dropped its handle");
        drop(pool);
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    /// Addresses of the calling worker's spare boxes; empty off a worker.
    fn spare_addrs() -> Vec<usize> {
        let (key, local, _) = CURRENT_WORKER.with(Cell::get);
        if key == 0 {
            return Vec::new();
        }
        // SAFETY: as in `Pool::execute`: the entry names this thread's own
        // live `Local`, and nothing else touches its spares while this
        // job runs.
        let spares = unsafe { &*(*local).spares.get() };
        spares.iter().map(|b| &**b as *const _ as usize).collect()
    }

    #[test]
    fn a_panicking_forked_job_drops_its_captures_once_and_its_box_is_reused() {
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        let drops = Arc::new(AtomicUsize::new(0));
        let d = DropCount(Arc::clone(&drops));
        let p = Arc::clone(&pool);
        pool.execute(move || {
            p.execute(move || {
                let _d = &d;
                panic!("forked job panics");
            });
        });
        pool.wait_idle();
        assert_eq!(pool.metrics().jobs_panicked, 1);
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        assert_eq!(Arc::strong_count(&drops), 1, "the panicked job leaked");
        // The panicked task's box is the worker's one spare (the root came
        // from outside, by value). The next fork is built in it: the
        // spare is gone while the fork runs, and back once it is spent.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let (p, s) = (Arc::clone(&pool), Arc::clone(&seen));
        pool.execute(move || {
            s.lock().push(spare_addrs());
            let s2 = Arc::clone(&s);
            p.execute(move || s2.lock().push(spare_addrs()));
            s.lock().push(spare_addrs());
        });
        pool.wait_idle();
        let s = Arc::clone(&seen);
        pool.execute(move || s.lock().push(spare_addrs()));
        pool.wait_idle();
        let seen = seen.lock();
        let [before, after_fork, in_fork, after] = &seen[..] else {
            panic!("four samples expected: {seen:?}");
        };
        assert_eq!(before.len(), 1, "the panicked job's box was not kept");
        assert!(after_fork.is_empty() && in_fork.is_empty(), "{seen:?}");
        assert_eq!(after, before, "the fork ran in the panicked job's box");
    }

    #[test]
    fn large_and_overaligned_forks_run_and_drop_their_captures_once() {
        #[repr(align(16))]
        struct Aligned(u64);
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        let (ran, drops) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        // One root per round: rounds 2 and 3 build their forks in the
        // boxes the rounds before them left spare.
        for round in 0..3 {
            let (p, r, d) = (Arc::clone(&pool), Arc::clone(&ran), Arc::clone(&drops));
            pool.execute(move || {
                let (r1, d1, wide) = (Arc::clone(&r), DropCount(Arc::clone(&d)), [1u64; 4]);
                let large = move || {
                    let _d = &d1;
                    r1.fetch_add(wide.iter().sum::<u64>() as usize, Ordering::Relaxed);
                };
                let (r2, d2, aligned) = (r, DropCount(Arc::clone(&d)), Aligned(10));
                let overaligned = move || {
                    let (_d, whole) = (&d2, aligned);
                    r2.fetch_add(whole.0 as usize, Ordering::Relaxed);
                };
                assert!(!stored_inline(&large) && !stored_inline(&overaligned));
                p.execute(large);
                p.execute(overaligned);
                if round == 1 {
                    let d3 = DropCount(d);
                    p.execute(move || {
                        let _d = (&d3, wide);
                        panic!("a boxed closure panics on the local path");
                    });
                }
            });
            pool.wait_idle();
        }
        assert_eq!(ran.load(Ordering::Relaxed), 3 * 14);
        assert_eq!(drops.load(Ordering::Relaxed), 7);
        assert_eq!(pool.metrics().jobs_panicked, 1);
        assert_eq!(pool.metrics().local_hits, 7);
        assert_eq!(Arc::strong_count(&ran), 1);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    fn a_pool_dropped_with_forked_tasks_queued_drops_each_capture_once() {
        #[repr(align(16))]
        struct Aligned(u64);
        let c = controller(1);
        let pool = Arc::new(Pool::new(&c, 1, false));
        // Four forks that run leave four spare boxes behind.
        let p = Arc::clone(&pool);
        pool.execute(move || {
            for _ in 0..4 {
                p.execute(|| {});
            }
        });
        pool.wait_idle();
        let (ran, drops) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let shared = Arc::clone(&pool.shared);
        let (forked_tx, forked) = std::sync::mpsc::channel();
        let (p, r, d) = (Arc::clone(&pool), Arc::clone(&ran), Arc::clone(&drops));
        // Nine forks, three of each kind: four in spare boxes, five in
        // fresh ones. The worker then holds on until the pool shuts down,
        // so none of them runs.
        pool.execute(move || {
            for _ in 0..3 {
                let (r1, d1) = (Arc::clone(&r), DropCount(Arc::clone(&d)));
                p.execute(move || drop((r1.fetch_add(1, Ordering::Relaxed), d1)));
                let (r2, d2, wide) = (Arc::clone(&r), DropCount(Arc::clone(&d)), [1u64; 4]);
                p.execute(move || drop((r2.fetch_add(1, Ordering::Relaxed), d2, wide)));
                let (r3, d3, aligned) = (Arc::clone(&r), DropCount(Arc::clone(&d)), Aligned(1));
                p.execute(move || {
                    let (_d, whole) = (&d3, aligned);
                    r3.fetch_add(whole.0 as usize, Ordering::Relaxed);
                });
            }
            drop((p, r, d));
            forked_tx.send(spare_addrs().len()).expect("test alive");
            while !shared.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(forked.recv().expect("the root ran"), 0, "spares unused");
        let pool = Arc::into_inner(pool).expect("the root dropped its handle");
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "a queued fork ran");
        assert_eq!(drops.load(Ordering::Relaxed), 9);
        assert_eq!(Arc::strong_count(&ran), 1);
        assert_eq!(Arc::strong_count(&drops), 1);
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_fork_join_cost() {
        fn tree(pool: &'static Pool, depth: u32) {
            if depth > 0 {
                for _ in 0..2 {
                    pool.execute(move || tree(pool, depth - 1));
                }
            }
        }
        let c = controller(1);
        // Leaked so that a job can capture it as a plain reference; its
        // one worker stays parked until the test process exits.
        let pool: &'static Pool = Box::leak(Box::new(Pool::new(&c, 1, false)));
        const DEPTH: u32 = 16;
        let jobs = (1u32 << (DEPTH + 1)) - 1;
        tree(pool, 10); // warm-up: the spare boxes and the deque's buffer
        pool.wait_idle();
        let best = (0..7)
            .map(|_| {
                let start = Instant::now();
                pool.execute(move || tree(pool, DEPTH));
                pool.wait_idle();
                start.elapsed() / jobs
            })
            .min()
            .expect("seven rounds");
        println!("fork + run of an empty job (1 worker, min of 7 rounds of {jobs}): {best:?}/job");
    }

    #[test]
    #[ignore] // microbenchmark, not an assertion: `cargo test --release -- --ignored micro_ --nocapture`
    fn micro_outside_submit_cost() {
        // One outside thread feeds a 1-worker pool, then a pool with a
        // worker on every CPU (`pool_external`'s phase A shape). A lock
        // hold that takes a batch counts one `injector_pops` for all of
        // its jobs, so pops per job is the consumers' shard-lock holds
        // per job (the producer takes one per job).
        let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
        for workers in [1, cpus] {
            let c = controller(workers);
            let pool = Pool::new(&c, workers, false);
            let n = 200_000u32;
            let start = Instant::now();
            for i in 0..n {
                pool.execute(move || {
                    std::hint::black_box(i);
                });
            }
            pool.wait_idle();
            let per_job = start.elapsed() / n;
            let pops = pool.metrics().injector_pops as f64 / f64::from(n);
            println!(
                "outside submit + run, {workers} worker(s): {per_job:?}/job, \
                 {pops:.3} injector lock holds/job"
            );
        }
    }

    #[test]
    fn watchdog_never_flags_a_long_burst_of_short_jobs() {
        let c = controller(1);
        let mut cfg = PoolConfig::new(1);
        let threshold = Duration::from_millis(100);
        cfg.watchdog = Some(threshold);
        let pool = Arc::new(Pool::with_config(&c, cfg));
        // One uninterrupted burst of ~1 ms jobs for 3x the threshold:
        // the worker reads no clock for the watchdog, but every pickup
        // changes its progress word.
        let started = std::time::Instant::now();
        fork_from_inside(&pool, 300, |_| {
            let t = std::time::Instant::now();
            while t.elapsed() < Duration::from_millis(1) {
                std::hint::spin_loop();
            }
        });
        pool.wait_idle();
        assert!(
            started.elapsed() >= threshold * 3,
            "burst too short to tell"
        );
        let m = pool.metrics();
        assert_eq!(m.jobs_run, 301);
        assert_eq!(m.stalls_detected, 0, "steady progress was flagged: {m:?}");
    }

    #[test]
    fn watchdog_flags_a_job_that_stalls_mid_burst() {
        let c = controller(1);
        let mut cfg = PoolConfig::new(1);
        let threshold = Duration::from_millis(100);
        cfg.watchdog = Some(threshold);
        let pool = Arc::new(Pool::with_config(&c, cfg));
        // Child 3 is neither the burst's first pickup nor a stamped
        // spawn (those are 1, 33, ...): the worker reads no clock at its
        // pickup, so only the watchdog's own aging can catch it.
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = Mutex::new(tx);
        fork_from_inside(&pool, 8, move |i| {
            if i == 3 {
                tx.lock()
                    .send(std::time::Instant::now())
                    .expect("test alive");
                std::thread::sleep(Duration::from_millis(600));
            }
        });
        let stalled_at = rx.recv().expect("the stalling job started");
        while pool.metrics().stalls_detected == 0 {
            assert!(
                stalled_at.elapsed() < Duration::from_secs(5),
                "mid-burst stall never detected"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        let detected_after = stalled_at.elapsed();
        assert!(
            detected_after <= threshold * 2,
            "detection too slow: {detected_after:?} for threshold {threshold:?}"
        );
        pool.wait_idle();
        assert_eq!(pool.metrics().jobs_run, 9);
    }

    #[test]
    fn cpu_set_change_retiers_victim_rings() {
        let slot = Arc::new(TargetSlot::new(4));
        let mut cfg = PoolConfig::new(4);
        cfg.topology = Some(Arc::new(CpuTopology::synthetic(8)));
        let pool = Pool::with_slot_config(Arc::clone(&slot), cfg);
        // Hold all four workers in one job each: a worker thread that
        // first runs after the set moved builds its rings from the new
        // generation and has nothing to re-tier.
        let all_running = Arc::new(std::sync::Barrier::new(4));
        for _ in 0..4 {
            let b = Arc::clone(&all_running);
            pool.execute(move || {
                b.wait();
            });
        }
        pool.wait_idle();
        assert_eq!(pool.stats().counters["retier_events"], 0);
        // Publish a concrete CPU set: every worker must rebuild its
        // victim rings around its new home CPU at the next safe point.
        slot.set_cpus(Some(vec![4, 5, 6, 7]));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().counters["retier_events"] < 4 {
            assert!(
                std::time::Instant::now() < deadline,
                "workers never re-tiered: {}",
                pool.stats().counters["retier_events"]
            );
            for _ in 0..10 {
                pool.execute(|| {});
            }
            pool.wait_idle();
            std::thread::sleep(Duration::from_millis(2));
        }
        // The re-tier is visible in the event stream with the new home.
        let events = pool.recorder().drain(usize::MAX);
        let retiers: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Retier)
            .collect();
        assert!(!retiers.is_empty(), "no Retier events");
        assert!(
            retiers.iter().all(|e| (4..=7).contains(&e.arg)),
            "re-tier did not move homes into the assigned set: {retiers:?}"
        );
        assert!(events.iter().any(|e| e.kind == EventKind::CpuSet));
    }
}
