//! A span log takes its chunks from the ones earlier logs on its thread
//! left behind: a second run of the same scenario on one thread allocates
//! no span chunk, and a thread keeps at most `SPAN_CACHE_CHUNKS` of them.
//!
//! The counting allocator serves the whole test binary, so this file
//! holds one test: nothing else allocates while a scenario runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use ctl_core::TraceEvent;
use desim::{SimDur, SimTime};
use procctl::{Server, ServerConfig};
use simkernel::policy::FifoRoundRobin;
use simkernel::{AppId, Kernel, KernelConfig};
use uthreads::{launch, AppSpec, Task, ThreadsApp, ThreadsConfig, SPAN_CACHE_CHUNKS, SPAN_CHUNK};

/// Bytes of one span chunk's allocation.
const CHUNK_BYTES: usize = SPAN_CHUNK * std::mem::size_of::<TraceEvent>();

/// The system allocator, counting allocations of a span chunk's size.
struct Counting;

/// Allocations of `CHUNK_BYTES` so far.
static CHUNK_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Blocks of `CHUNK_BYTES` allocated and not yet freed.
static CHUNKS_LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// which upholds `GlobalAlloc`'s contract; the counts have no effect on it.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract is `System.alloc`'s, forwarded as is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() == CHUNK_BYTES {
            CHUNK_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            CHUNKS_LIVE.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as above: same layout, same contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract is `System.dealloc`'s, forwarded as is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if layout.size() == CHUNK_BYTES {
            CHUNKS_LIVE.fetch_sub(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDur::from_millis(ms)
}

/// Two controlled applications of 4 workers on 4 processors, the second
/// started 50 ms after the first, run to completion. Returns each
/// application's span records and the span chunks allocated while the
/// scenario ran (counted before the records are copied out).
fn controlled_pair() -> (Vec<Vec<TraceEvent>>, usize) {
    let before = CHUNK_ALLOCATIONS.load(Ordering::Relaxed);
    let mut k = Kernel::new(
        KernelConfig::multimax().with_cpus(4),
        Box::new(FifoRoundRobin::new()),
    );
    let port = k.create_port();
    k.spawn_root(
        AppId(1000),
        64,
        Box::new(Server::new(ServerConfig::new(port))),
    );
    let mut apps: Vec<ThreadsApp> = Vec::new();
    for i in 0..2 {
        k.run_until(at(50 * i as u64));
        let tasks = (0..40)
            .map(|_| Task::compute("w", SimDur::from_millis(5)))
            .collect();
        let cfg = ThreadsConfig::new(4).with_control(port, SimDur::from_millis(20));
        apps.push(launch(&mut k, AppId(i), cfg, AppSpec::tasks(tasks)));
    }
    assert!(k.run_until_apps_done(&[AppId(0), AppId(1)], at(60_000)));
    let allocated = CHUNK_ALLOCATIONS.load(Ordering::Relaxed) - before;
    let spans: Vec<Vec<TraceEvent>> = apps.iter().map(ThreadsApp::spans).collect();
    for s in &spans {
        assert!(!s.is_empty() && s.len() < SPAN_CHUNK, "one chunk per log");
    }
    (spans, allocated)
}

#[test]
fn a_warm_thread_logs_spans_into_the_chunks_earlier_logs_left() {
    let (first, first_allocated) = controlled_pair();
    assert_eq!(first_allocated, 2, "a cold run allocates one chunk per log");
    let (second, second_allocated) = controlled_pair();
    assert_eq!(second_allocated, 0, "a warm run allocated span chunks");
    assert_eq!(first, second, "a warm run logged different records");

    // More logs alive at once than the cache holds: each takes a cached
    // chunk or allocates one, and on drop at most the cap stay cached.
    let logs = SPAN_CACHE_CHUNKS + 8;
    let mut k = Kernel::new(
        KernelConfig::multimax().with_cpus(4),
        Box::new(FifoRoundRobin::new()),
    );
    let apps: Vec<ThreadsApp> = (0..logs as u32)
        .map(|i| {
            let tasks = vec![Task::compute("w", SimDur::from_millis(1))];
            launch(
                &mut k,
                AppId(i),
                ThreadsConfig::new(1),
                AppSpec::tasks(tasks),
            )
        })
        .collect();
    assert!(k.run_to_completion(at(60_000)));
    assert!(apps.iter().all(|a| a.metrics().tasks_run == 1));
    assert_eq!(CHUNKS_LIVE.load(Ordering::Relaxed), logs as isize);
    drop(apps);
    drop(k);
    assert_eq!(
        CHUNKS_LIVE.load(Ordering::Relaxed),
        SPAN_CACHE_CHUNKS as isize,
        "the thread keeps exactly its cap of chunks"
    );
}
