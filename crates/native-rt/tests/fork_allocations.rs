//! A fork allocates nothing once its worker has spare task boxes: the
//! allocations counted while a 1-worker pool runs a fork-join tree do
//! not grow with the tree.
//!
//! The counting allocator serves the whole test binary, so this file
//! holds one test: nothing else allocates while a tree runs.

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

/// Jobs run by the current tree.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// One node of a binary tree of depth `depth`: counts itself and forks
/// its two children onto its worker's deque. A job captures only `Copy`
/// data: the pool, the depth and the counter, 24 bytes.
fn node(pool: &'static Pool, depth: u32, jobs: &'static AtomicUsize) {
    jobs.fetch_add(1, Ordering::Relaxed);
    if depth > 0 {
        for _ in 0..2 {
            pool.execute(move || node(pool, depth - 1, jobs));
        }
    }
}

/// Allocations counted while `pool` runs one tree of `depth`, from the
/// root's outside submission to `wait_idle`'s return.
fn allocations_for_tree(pool: &'static Pool, depth: u32) -> usize {
    JOBS.store(0, Ordering::Relaxed);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pool.execute(move || node(pool, depth, &JOBS));
    pool.wait_idle();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(JOBS.load(Ordering::Relaxed), (1 << (depth + 1)) - 1);
    allocations
}

#[test]
fn a_forked_job_allocates_nothing_once_its_worker_has_spare_boxes() {
    // Leaked so that a job can capture it as a plain reference; its one
    // worker stays parked until the test process exits. No controller:
    // its recompute thread would allocate while a tree runs.
    let slot = Arc::new(TargetSlot::new(1));
    let pool: &'static Pool = Box::leak(Box::new(Pool::with_slot(slot, 1, false)));
    // The warm-up tree is as deep as the deepest measured one, so the
    // worker's deque and spare list have reached the size the measured
    // trees need.
    let warm_up = allocations_for_tree(pool, 13);
    assert!(warm_up > 0, "the counting allocator counted nothing");
    let small = allocations_for_tree(pool, 9); // 2^10 - 1 jobs
    let large = allocations_for_tree(pool, 13); // 2^14 - 1 jobs
    assert!(
        large <= small,
        "allocations grew with the tree: {small} for 2^10 jobs, {large} for 2^14"
    );
}
