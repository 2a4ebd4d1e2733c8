//! Outside jobs taken in batches allocate nothing once the workers have
//! spare task boxes, and neither does handing a batch back when a
//! worker suspends: a warm 2-worker pool fed outside bursts while its
//! target flaps allocates one park token per suspension and at most one
//! task box per steal, and nothing per job.
//!
//! The counting allocator serves the whole test binary, so this file
//! holds one test: nothing else allocates while the bursts run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use native_rt::{Pool, TargetSlot};

/// The system allocator, counting allocations.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds `GlobalAlloc`'s contract; the count has no effect on it.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s, forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, forwarded as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Jobs run so far.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Rounds per measurement: each flaps the target 2 → 1 → 2 once.
const ROUNDS: usize = 40;

/// Queues `n` outside jobs.
fn submit(pool: &Pool, n: usize) {
    for _ in 0..n {
        pool.execute(|| {
            JOBS.fetch_add(1, Ordering::Relaxed);
        });
    }
}

/// What one measurement counted.
#[derive(Debug)]
struct Counted {
    allocations: usize,
    suspends: u64,
    steals: u64,
}

/// Runs [`ROUNDS`] outside bursts of `burst` jobs. In each, the target
/// drops to one worker once half the burst is queued, so a worker
/// suspends while its deque holds the rest of a batch, and rises back to
/// two for the next burst.
fn flapping_bursts(pool: &Pool, slot: &TargetSlot, burst: usize) -> Counted {
    let (m, before) = (pool.metrics(), ALLOCATIONS.load(Ordering::Relaxed));
    for _ in 0..ROUNDS {
        slot.target.store(2, Ordering::Release);
        submit(pool, burst / 2);
        slot.target.store(1, Ordering::Release);
        submit(pool, burst / 2);
        pool.wait_idle();
    }
    let after = pool.metrics();
    Counted {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - before,
        suspends: after.suspends - m.suspends,
        steals: after.steals - m.steals,
    }
}

/// Allocations a measurement may make beyond one park token per
/// suspension and one task box per steal (a stolen task's box joins the
/// thief's spares, so its victim may later need a fresh one): a
/// suspension counted just before the measurement whose token is
/// allocated inside it, and the growth of a shard that a drain made
/// deeper than any before.
const SLACK: usize = 8;

#[test]
fn outside_batches_under_a_flapping_target_allocate_nothing_per_job() {
    let slot = Arc::new(TargetSlot::new(2));
    let pool = Pool::with_slot(Arc::clone(&slot), 2, false);
    // The warm-up bursts are as deep as the deepest measured ones, so
    // the injector's shards and the spare lists have reached their size.
    let warm_up = flapping_bursts(&pool, &slot, 4096);
    assert!(
        warm_up.allocations > 0,
        "the counting allocator counted nothing"
    );
    let small = flapping_bursts(&pool, &slot, 512); // 20 480 jobs
    let large = flapping_bursts(&pool, &slot, 4096); // 163 840 jobs
    assert_eq!(JOBS.load(Ordering::Relaxed), ROUNDS * (2 * 4096 + 512));
    let m = pool.metrics();
    assert!(m.local_hits > 0, "no batch formed: {m:?}");
    assert!(
        small.suspends + large.suspends > 0,
        "no worker suspended: {m:?}"
    );
    for (c, jobs) in [(small, 512), (large, 4096)] {
        assert!(
            c.allocations <= (c.suspends + c.steals) as usize + SLACK,
            "{c:?} over {ROUNDS} bursts of {jobs} jobs"
        );
    }
}
