//! Offline shim for the subset of `loom` this workspace uses.
//!
//! The build container cannot reach crates.io, so the workspace patches
//! `loom` to this fallback. Real loom exhaustively explores thread
//! interleavings under a simulated memory model; this shim keeps the
//! call-site API (`loom::model`, `loom::thread::spawn`, `loom::hint`,
//! and the `loom::sync` locks and atomics `native-rt`'s `sync` module
//! switches to) but explores stochastically instead: each `model`
//! closure runs many times on real threads, with the spawn wrapper
//! yielding at thread start to perturb schedules. That turns the
//! `cfg(loom)` tests into a deterministic-API stress harness — far weaker
//! than real loom, but it exercises the same interleaving-sensitive code
//! paths on real threads, and the tests run unchanged against real loom
//! when a network-enabled checkout swaps the shim out. No race detector
//! watches these replays: the ThreadSanitizer CI job runs the `stress`
//! and `chaos` tests only.

/// How many times [`model`] replays its closure.
pub const MODEL_ITERATIONS: usize = 256;

/// Runs `f` repeatedly, standing in for loom's exhaustive exploration.
///
/// Panics propagate out of the first failing iteration, like real loom's
/// first counterexample.
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    for _ in 0..MODEL_ITERATIONS {
        f();
    }
}

/// Mirror of `loom::thread`: real threads, with a scheduling perturbation
/// at spawn so successive [`model`] iterations interleave differently.
pub mod thread {
    pub use std::thread::{yield_now, JoinHandle};

    /// Spawns a real thread that yields once before running `f`, nudging
    /// the OS scheduler toward varied interleavings across iterations.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        std::thread::spawn(move || {
            std::thread::yield_now();
            f()
        })
    }
}

/// Mirror of `loom::hint`.
pub mod hint {
    pub use std::hint::spin_loop;
}

/// Mirror of `loom::sync`: the std types (real loom substitutes checked
/// versions; the shim's guarantees come from running on real hardware).
pub mod sync {
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    /// Mirror of `loom::sync::atomic`.
    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::Arc;

    #[test]
    fn model_replays_and_threads_run() {
        let total = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&total);
        super::model(move || {
            let n = Arc::new(AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let h = super::thread::spawn(move || n2.fetch_add(1, Ordering::SeqCst));
            n.fetch_add(1, Ordering::SeqCst);
            h.join().unwrap();
            assert_eq!(n.load(Ordering::SeqCst), 2);
            t2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), super::MODEL_ITERATIONS);
    }
}
