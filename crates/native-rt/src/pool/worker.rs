//! The worker loop: what a pool worker thread runs, and the task
//! storage it owns. Each pass of the loop is process control's safe
//! point, taken between jobs with no job and no lock held. The spare
//! task boxes are this module's alone, so every unsafe step that
//! writes, runs or recycles a box is here. The loop's rare branches
//! (the suspension, the CPU-set re-tier) are out of line (`#[cold]`),
//! so an edit to one leaves the loop's own code unchanged.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr::addr_of_mut;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::fault::DeathWatch;
use super::{wake_one, PoolShared};
use crate::deque::{Steal, Worker};
use crate::quiesce;
use crate::safepoint::SuspendOutcome;
use crate::stats::Gauge;
use crate::sync::{spin_loop, Condvar, Mutex, Ordering};
use crate::topology::{self, NUM_STEAL_TIERS};
use crate::trace::{self, EventKind};

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
pub(super) struct Task {
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
    pub(super) fn new<F: FnOnce() + Send + 'static>(job: F, stamp: Option<(Instant, u64)>) -> Task {
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

/// Most spent task boxes a worker keeps for its next forks; it frees
/// the box of a task it ran beyond this many. A binary tree of depth
/// `d` run depth-first keeps at most `d + 2` boxes in use at once.
const SPARE_BOXES: usize = 64;

/// A worker's half of the local fast path, which [`crate::Pool::execute`]
/// reaches through `CURRENT_WORKER` from a job the worker runs: its
/// deque, and the boxes of the tasks it ran, in which its next forks
/// are built.
pub(super) struct Local {
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
    /// Queues `job` on this worker's deque, its task written once in a
    /// spare box, or in a fresh one when none is left.
    #[inline]
    pub(super) fn fork<F: FnOnce() + Send + 'static>(&self, job: F, stamp: Option<(Instant, u64)>) {
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

/// One idle (out-of-work) worker's private wakeup channel.
pub(super) struct IdleSlot {
    pub(super) woken: Mutex<bool>,
    pub(super) cv: Condvar,
}

/// Floor of the adaptive idle-spin budget: always worth a microsecond
/// of re-checks before paying for a park/unpark round trip.
pub(super) const SPIN_BUDGET_MIN_NS: u64 = 1_000;
/// Ceiling of the adaptive idle-spin budget: past 100µs of spinning the
/// burned cycles dwarf any wakeup latency saved.
pub(super) const SPIN_BUDGET_MAX_NS: u64 = 100_000;
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
    /// The pool's `spin_budget` gauge, which shows the latest budget.
    gauge: Gauge,
}

impl SpinState {
    fn new(gauge: Gauge) -> SpinState {
        SpinState {
            ewma_ns: 0,
            budget_ns: SPIN_BUDGET_START_NS,
            gauge,
        }
    }

    /// Folds one observed wait (spin only, or spin + park) into the
    /// EWMA, recomputes the budget and publishes it on the gauge.
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
        self.gauge.set(self.budget_ns as i64);
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
    pub(super) static CURRENT_WORKER: Cell<(usize, *const Local, usize)> =
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

/// True when some queue (injector or any worker deque) appears nonempty.
pub(super) fn work_available(sh: &PoolShared) -> bool {
    !sh.injector.is_empty() || sh.stealers.iter().any(|s| !s.is_empty())
}

/// Acquires one task off the local fast path (the worker's own deque
/// came up empty): injector, then stealing. The injector gives a batch
/// ([`crate::injector::Injector::pop_batch`]) whose oldest task is
/// returned to run now and whose others go onto `local`'s deque, newest
/// first, so this worker pops them oldest first and a thief takes the
/// newest. Each is counted by the path that later takes it off the
/// deque (`local_hits` or `steals`), only the first as an
/// `injector_pops`.
fn find_shared_task(
    sh: &PoolShared,
    index: usize,
    local: &Local,
    rings: &VictimRings,
    rng: &mut u64,
) -> Option<Acquired> {
    if let Some(t) = sh.injector.pop_batch(index, |t| local.queue(t)) {
        sh.quiesce.cells(index).count_injector_pop();
        return Some(Acquired::Injected(t));
    }
    steal_task(sh, index, rings, rng).map(Acquired::Boxed)
}

/// One worker's view of the others as steal victims, grouped by CPU
/// distance and tagged with the [`crate::TargetSlot::cpus_generation`]
/// it was derived from (stale rings are rebuilt at the next safe point).
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

/// Re-pins the calling worker for `rings`' assignment
/// ([`topology::repin_current_thread`]) and returns whether a narrow pin
/// is in force, maintaining the `affinity_applied` gauge. No-op unless
/// the pool was built with [`crate::PoolConfig::pin`].
fn apply_affinity(sh: &PoolShared, rings: &VictimRings, was_narrow: bool) -> bool {
    if !sh.pin {
        return false;
    }
    let narrow = topology::repin_current_thread(&sh.topology, rings.narrow.then_some(rings.my_cpu));
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
pub(super) fn drain_local(sh: &PoolShared, local: &Local) {
    let mut drained = false;
    while let Some(t) = local.worker.pop() {
        sh.injector.push(local.unbox(t));
        drained = true;
    }
    if drained {
        wake_one(sh);
    }
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
            spin.observe_wait(waited);
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
    if !sh.shutdown.load(Ordering::Acquire) && !work_available(sh) {
        let mut woken = slot.woken.lock();
        while !*woken && !sh.shutdown.load(Ordering::Acquire) {
            slot.cv.wait_for(&mut woken, IDLE_PARK_POLL);
            if !*woken && work_available(sh) {
                break; // timed-out liveness path
            }
        }
    }
    // Leave the sleeper list unless a waker already popped this slot.
    {
        let mut sleepers = sh.sleepers.lock();
        if let Some(pos) = sleepers.iter().position(|s| Arc::ptr_eq(s, slot)) {
            sleepers.remove(pos);
            sh.nsleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
    spin.observe_wait(started.elapsed().as_nanos() as u64);
    let woke = Instant::now();
    sh.quiesce.cells(index).mark(quiesce::IDLE);
    sh.recorder
        .record_at(index, trace::ns_since_origin(woke), EventKind::Unpark, 0);
    Some(woke)
}

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

/// The loop worker `index` runs until the pool shuts down, on the
/// owner's half of its deque.
pub(super) fn worker_loop(sh: &Arc<PoolShared>, index: usize, worker: Worker<Task>) {
    let local = Local {
        worker,
        spares: UnsafeCell::new(Vec::with_capacity(SPARE_BOXES)),
    };
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
    let mut spin = SpinState::new(sh.spin_budget.clone());
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
            narrow_pin = retier(sh, index, &mut rings, narrow_pin);
        }
        let target = sh.target.target.load(Ordering::Acquire);
        if target != last_target {
            sh.recorder.record(index, EventKind::Epoch, target as u32);
            last_target = target;
        }
        if sh.safepoint.check(target) {
            let resumed = suspend(sh, index, &local, target, burst_jobs, unannounced);
            (burst_jobs, unannounced) = (0, false);
            let Some((signaled_at, suspended_at)) = resumed else {
                death.armed = false;
                return;
            };
            pending_wake = signaled_at;
            pending_suspend = Some(suspended_at);
            continue; // re-enter the safe point
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

/// The control plane moved this worker's CPU set: rebuilds its victim
/// rings around the new home CPU (dynamic re-tiering) and follows the
/// assignment with the affinity mask. Out of line.
#[cold]
#[inline(never)]
fn retier(sh: &PoolShared, index: usize, rings: &mut VictimRings, was_narrow: bool) -> bool {
    *rings = VictimRings::build(sh, index);
    let narrow = apply_affinity(sh, rings, was_narrow);
    sh.retier_events.incr();
    sh.recorder
        .record(index, EventKind::CpuSet, rings.generation as u32);
    sh.recorder.record(index, EventKind::Retier, rings.my_cpu);
    narrow
}

/// The suspension: ends the running burst, hands the deque back to the
/// injector, parks until resumed, and returns the resume's wake signal
/// and the suspension's start, or `None` at shutdown. Out of line.
#[cold]
#[inline(never)]
fn suspend(
    sh: &PoolShared,
    index: usize,
    local: &Local,
    target: usize,
    burst_jobs: u32,
    mut unannounced: bool,
) -> Option<(Option<Instant>, Instant)> {
    let cells = sh.quiesce.cells(index);
    if burst_jobs > 0 {
        sh.recorder.record(index, EventKind::JobEnd, burst_jobs);
    }
    // Publish queued jobs before parking: nothing may be stranded
    // behind a suspended worker. Only then raise the suspended flag —
    // stealers may skip a flagged victim only while its deque is
    // provably empty.
    drain_local(sh, local);
    sh.suspended_flags[index].store(true, Ordering::Release);
    let suspended_at = Instant::now();
    cells.mark(quiesce::SUSPENDED);
    // This worker may have finished the last job a `wait_idle` caller
    // waits for, and is about to sleep.
    announce_finishes(sh, &mut unannounced);
    sh.recorder.record_at(
        index,
        trace::ns_since_origin(suspended_at),
        EventKind::Suspend,
        target as u32,
    );
    let outcome = sh.safepoint.park_suspended(&sh.shutdown);
    sh.suspended_flags[index].store(false, Ordering::Release);
    let SuspendOutcome::Resumed(signaled_at) = outcome else {
        return None;
    };
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
    Some((signaled_at, suspended_at))
}

#[cfg(test)]
pub(super) mod tests {
    //! The task storage and the spin state, unit by unit; the helpers
    //! marked `pub(in crate::pool)` also serve `pool::tests`, which runs
    //! them through whole pools.

    use super::*;
    use crate::stats::Registry;
    use crate::sync::AtomicUsize;

    /// Counts its drops: a task must drop its closure's captures once,
    /// whether the closure ran, panicked or never ran.
    pub(in crate::pool) struct DropCount(pub(in crate::pool) Arc<AtomicUsize>);

    impl Drop for DropCount {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether `f` would be stored in the task itself.
    pub(in crate::pool) fn stored_inline<F>(_: &F) -> bool {
        fits_inline::<F>()
    }

    /// Addresses of the calling worker's spare boxes; empty off a worker.
    pub(in crate::pool) fn spare_addrs() -> Vec<usize> {
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
    fn spin_state_adapts_and_clamps() {
        let registry = Registry::new();
        let mut s = SpinState::new(registry.gauge("spin_budget"));
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
}
