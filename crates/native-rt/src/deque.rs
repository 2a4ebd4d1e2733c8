//! A hand-rolled Chase–Lev work-stealing deque.
//!
//! One owner thread pushes and pops at the *bottom* of a circular buffer;
//! any number of stealers take from the *top*. The owner's fast path is a
//! pair of relaxed loads and one store — no locks, no CAS — so a worker
//! draining its own queue pays almost nothing. A CAS appears only when
//! owner and stealers race for the last element, exactly as in Chase &
//! Lev's *Dynamic Circular Work-Stealing Deque* with the memory orderings
//! of Lê et al., *Correct and Efficient Work-Stealing for Weak Memory
//! Models* (PPoPP '13).
//!
//! Two deliberate simplifications keep the unsafe surface small:
//!
//! - Elements are `Box<T>`, stored as raw pointers in `AtomicPtr` slots.
//!   Slot reads and writes are therefore atomic, so the racy speculative
//!   read in `steal` (reading a slot the owner may be about to overwrite)
//!   yields a stale *pointer*, never a torn value; the top-CAS then
//!   decides whether the read pointer is owned.
//! - Buffers grow by doubling, and retired buffers are kept alive until
//!   the deque drops (a stealer may still be reading a stale buffer
//!   pointer). A deque that peaked at `n` elements retains at most `2n`
//!   slots of garbage — bounded, and free of reclamation machinery.
//!
//! Built with `RUSTFLAGS="--cfg loom"` the atomics come from `loom`
//! (through `crate::sync`), so the model-checking tests in
//! `tests/loom_deque.rs` drive these exact push/pop/steal paths.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::sync::{fence, AtomicIsize, AtomicPtr, Mutex, Ordering};

/// Initial buffer capacity (must be a power of two).
const INITIAL_CAP: usize = 64;

/// One circular buffer generation. Indices grow without bound and are
/// masked into the slot array; capacity is always a power of two.
struct Buffer<T> {
    mask: isize,
    // sched-atomic(verified): Relaxed slot accesses are ordered by the
    // Release fence in push / the top CAS, per the Chase-Lev protocol
    // (Le et al., PPoPP'13); loom model-checks this in deque_tests.
    slots: Box<[AtomicPtr<T>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        Box::into_raw(Box::new(Buffer {
            mask: cap as isize - 1,
            slots,
        }))
    }

    fn cap(&self) -> isize {
        self.mask + 1
    }

    fn put(&self, index: isize, ptr: *mut T) {
        self.slots[(index & self.mask) as usize].store(ptr, Ordering::Relaxed);
    }

    fn get(&self, index: isize) -> *mut T {
        self.slots[(index & self.mask) as usize].load(Ordering::Relaxed)
    }
}

struct Inner<T> {
    /// Next index stealers take from.
    // sched-atomic(verified): orderings follow Le et al. (PPoPP'13)
    // exactly, including the SeqCst fences; loom-checked in deque_tests.
    top: AtomicIsize,
    /// Next index the owner pushes to.
    // sched-atomic(verified): see `top` — same proof covers the pair.
    bottom: AtomicIsize,
    /// Current buffer generation.
    // sched-atomic(verified): Release store in grow pairs with the
    // Acquire load in steal; owner-side Relaxed loads are single-thread.
    buffer: AtomicPtr<Buffer<T>>,
    /// Outgrown generations, freed on drop (stealers may hold stale
    /// buffer pointers until then).
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the raw buffer pointers are owned by `Inner` and only ever
// dereferenced under the Chase-Lev protocol (at most one owner thread,
// stealers arbitrated by the CAS on `top`); `T: Send` is the real
// requirement the bounds carry over.
unsafe impl<T: Send> Send for Inner<T> {}
// SAFETY: shared access is the whole point of the algorithm — every
// cross-thread path goes through the fences/CAS above, never through
// unsynchronized `&mut`.
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access: free unconsumed elements, then every buffer.
        let buf = self.buffer.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        // SAFETY: `drop(&mut self)` proves no Worker/Stealer handle is
        // left, so every slot in [t, b) and every retired buffer is
        // exclusively ours to free; the pointers were all minted by
        // Box::into_raw / Buffer::alloc.
        unsafe {
            for i in t..b {
                drop(Box::from_raw((*buf).get(i)));
            }
            drop(Box::from_raw(buf));
            for old in self.retired.lock().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

/// The owner handle: push and pop at the bottom. `Send` but deliberately
/// neither `Sync` nor `Clone` — exactly one thread may own it at a time,
/// which is what makes the lock-free fast path sound.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Opts out of `Sync` (a `&Worker` must not cross threads).
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

/// A thief handle: take from the top. Cheap to clone and fully
/// thread-safe.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Outcome of a steal attempt.
#[derive(Debug)]
pub enum Steal<T> {
    /// The deque had nothing to take.
    Empty,
    /// Lost a race with the owner or another stealer; worth retrying
    /// after backoff.
    Retry,
    /// Took the element.
    Success(Box<T>),
}

impl<T> Steal<T> {
    /// True for [`Steal::Retry`].
    pub fn is_retry(&self) -> bool {
        matches!(self, Steal::Retry)
    }
}

/// Creates a deque, returning the owner handle and a stealer.
pub fn deque<T: Send>() -> (Worker<T>, Stealer<T>) {
    let inner = Arc::new(Inner {
        top: AtomicIsize::new(0),
        bottom: AtomicIsize::new(0),
        buffer: AtomicPtr::new(Buffer::alloc(INITIAL_CAP)),
        retired: Mutex::new(Vec::new()),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
        },
        Stealer { inner },
    )
}

impl<T: Send> Worker<T> {
    /// Pushes an element at the bottom (owner only; never blocks, grows
    /// the buffer when full).
    pub fn push(&self, value: Box<T>) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: `buffer` always points at the live generation; only
        // the owner (us, single-threaded by !Sync + !Clone) retires it,
        // and retired generations are freed no earlier than Inner::drop.
        if b - t >= unsafe { (*buf).cap() } {
            buf = self.grow(t, b);
        }
        // SAFETY: same buffer liveness as above; slot `b` is outside
        // [top, bottom) so no stealer reads it until bottom is published.
        unsafe { (*buf).put(b, Box::into_raw(value)) };
        // Publish the slot before publishing the new bottom.
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pops from the bottom (owner only). LIFO relative to `push`.
    pub fn pop(&self) -> Option<Box<T>> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        // The store of bottom must be visible before we read top, and
        // symmetrically for stealers — the Dekker handshake of the
        // algorithm.
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);
        if t <= b {
            // SAFETY: buffer liveness as in push; slot `b` was filled by
            // a prior push on this same thread.
            let ptr = unsafe { (*buf).get(b) };
            if t == b {
                // Last element: race the stealers for it via top.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                // SAFETY: winning the CAS on `top` means no stealer took
                // slot `b`; the pointer is ours exclusively.
                return won.then(|| unsafe { Box::from_raw(ptr) });
            }
            // SAFETY: t < b leaves at least one element below the
            // stealers' range after our bottom store; exclusive.
            Some(unsafe { Box::from_raw(ptr) })
        } else {
            // Already empty; restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Approximate number of queued elements (exact when quiescent).
    pub fn len(&self) -> usize {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// True when [`Worker::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Doubles the buffer, copying live elements; retires the old
    /// generation (owner only).
    fn grow(&self, t: isize, b: isize) -> *mut Buffer<T> {
        let inner = &*self.inner;
        let old = inner.buffer.load(Ordering::Relaxed);
        // SAFETY: `old` is the live generation (owner-only call); `new`
        // was just allocated and is unshared until the Release store.
        let new = unsafe { Buffer::alloc(((*old).cap() as usize) * 2) };
        // SAFETY: same pointers as above; indices [t, b) are in range of
        // both generations by construction (new.cap = 2 * old.cap).
        unsafe {
            for i in t..b {
                (*new).put(i, (*old).get(i));
            }
        }
        inner.buffer.store(new, Ordering::Release);
        inner.retired.lock().push(old);
        new
    }
}

impl<T: Send> Stealer<T> {
    /// Attempts to take the oldest element (any thread). FIFO relative to
    /// the owner's `push`.
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        // Speculative read: the owner may be popping this very slot. The
        // CAS on top arbitrates; on failure the pointer is dead to us.
        let buf = inner.buffer.load(Ordering::Acquire);
        // SAFETY: the Acquire load sees a fully initialized generation
        // (grow publishes with Release); the slot read is speculative
        // and the value is only trusted after the CAS below succeeds.
        // TSan flags this read by design -- see .tsan-suppressions.
        let ptr = unsafe { (*buf).get(t) };
        if inner
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the CAS on `top` succeeded, so this thread (and
            // no other, owner included) owns slot `t`'s pointer.
            Steal::Success(unsafe { Box::from_raw(ptr) })
        } else {
            Steal::Retry
        }
    }

    /// Approximate number of queued elements.
    pub fn len(&self) -> usize {
        let t = self.inner.top.load(Ordering::Relaxed);
        let b = self.inner.bottom.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// True when [`Stealer::len`] is zero (approximate).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, Ordering as O};

    #[test]
    fn lifo_for_owner_fifo_for_stealer() {
        let (w, s) = deque::<u64>();
        for i in 0..4 {
            w.push(Box::new(i));
        }
        assert_eq!(w.len(), 4);
        assert_eq!(*w.pop().unwrap(), 3);
        match s.steal() {
            Steal::Success(v) => assert_eq!(*v, 0),
            other => panic!("expected success, got {other:?}"),
        }
        assert_eq!(*w.pop().unwrap(), 2);
        assert_eq!(*w.pop().unwrap(), 1);
        assert!(w.pop().is_none());
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn grows_past_initial_capacity() {
        let (w, s) = deque::<usize>();
        let n = INITIAL_CAP * 4 + 7;
        for i in 0..n {
            w.push(Box::new(i));
        }
        assert_eq!(w.len(), n);
        // Steal a few from the top (oldest first) ...
        for expect in 0..10 {
            match s.steal() {
                Steal::Success(v) => assert_eq!(*v, expect),
                other => panic!("expected success, got {other:?}"),
            }
        }
        // ... and pop the rest from the bottom (newest first).
        for expect in (10..n).rev() {
            assert_eq!(*w.pop().unwrap(), expect);
        }
        assert!(w.pop().is_none());
    }

    #[test]
    fn drop_frees_unconsumed_elements() {
        let (w, _s) = deque::<Vec<u8>>();
        for _ in 0..100 {
            w.push(Box::new(vec![0u8; 128]));
        }
        let _ = w.pop();
        // Dropping with 99 queued elements must not leak or double-free
        // (exercised under the CI sanitizer lane).
    }

    #[test]
    fn concurrent_stealers_take_each_element_once() {
        let (w, s) = deque::<usize>();
        let n = 10_000;
        let stop = Arc::new(AtomicBool::new(false));
        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let s = s.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while !stop.load(O::Acquire) {
                        match s.steal() {
                            Steal::Success(v) => got.push(*v),
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => std::thread::yield_now(),
                        }
                    }
                    got
                })
            })
            .collect();
        let mut popped = Vec::new();
        for i in 0..n {
            w.push(Box::new(i));
            if i % 3 == 0 {
                if let Some(v) = w.pop() {
                    popped.push(*v);
                }
            }
        }
        while let Some(v) = w.pop() {
            popped.push(*v);
        }
        stop.store(true, O::Release);
        let mut all: Vec<usize> = popped;
        for t in thieves {
            all.extend(t.join().unwrap());
        }
        assert_eq!(all.len(), n, "every element taken exactly once");
        let distinct: BTreeSet<usize> = all.iter().copied().collect();
        assert_eq!(distinct.len(), n, "no element duplicated");
    }
}
