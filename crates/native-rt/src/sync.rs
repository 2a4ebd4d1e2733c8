//! The one place the runtime takes its synchronization primitives from.
//!
//! Every atomic, [`fence`], [`spin_loop`], [`Mutex`] and [`Condvar`] in
//! the library comes through this module. Built with
//! `RUSTFLAGS="--cfg loom"` they come from `loom`, otherwise from std, so
//! the model tests in `tests/loom_*.rs` drive the runtime's own code: the
//! deque, the injector, the trace rings, the CR gate, quiescence and the
//! safe point.
//!
//! The lock keeps one shape across both builds: [`Mutex::lock`] returns
//! the guard itself, taking a poisoned lock as it stands (a thread that
//! panicked while holding it does not wedge the threads after it), and a
//! [`Condvar`] waits on `&mut` the guard, which holds the lock again when
//! the wait returns.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::TryLockError;
use std::time::Duration;

#[cfg(loom)]
use loom::{hint, sync as imp};
#[cfg(not(loom))]
use std::{hint, sync as imp};

pub(crate) use hint::spin_loop;
pub(crate) use imp::atomic::{
    fence, AtomicBool, AtomicI64, AtomicIsize, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};

/// A mutual-exclusion lock whose [`lock`](Mutex::lock) ignores poisoning.
pub(crate) struct Mutex<T> {
    inner: imp::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock around `value`.
    pub(crate) fn new(value: T) -> Self {
        Mutex {
            inner: imp::Mutex::new(value),
        }
    }

    /// Blocks until the lock is held.
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        MutexGuard { inner: Some(guard) }
    }

    /// The lock if it is free now, `None` if another thread holds it.
    pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(guard) })
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// A held [`Mutex`]. The inner guard is an `Option` only so a
/// [`Condvar`] wait can hand it to the by-value wait and put the
/// reacquired one back; it is `Some` whenever the caller sees it.
pub(crate) struct MutexGuard<'a, T> {
    inner: Option<imp::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A condition variable waited on with `&mut` a [`MutexGuard`].
#[derive(Default)]
pub(crate) struct Condvar {
    inner: imp::Condvar,
}

impl Condvar {
    /// A condition variable with no waiters.
    pub(crate) fn new() -> Self {
        Condvar {
            inner: imp::Condvar::new(),
        }
    }

    /// Releases `guard`'s lock until notified, then holds it again.
    pub(crate) fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard present");
        guard.inner = Some(self.inner.wait(held).unwrap_or_else(|p| p.into_inner()));
    }

    /// As [`Condvar::wait`], but also returns once `timeout` has passed.
    pub(crate) fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) {
        let held = guard.inner.take().expect("guard present");
        let (held, _) = self
            .inner
            .wait_timeout(held, timeout)
            .unwrap_or_else(|p| p.into_inner());
        guard.inner = Some(held);
    }

    /// Wakes one waiter.
    pub(crate) fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiter.
    pub(crate) fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn try_lock_contended() {
        let m = Mutex::new(0u32);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_wait_and_notify() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (mu, cv) = &*p2;
            *mu.lock() = true;
            cv.notify_one();
        });
        let (mu, cv) = &*pair;
        let mut done = mu.lock();
        while !*done {
            cv.wait(&mut done);
        }
        t.join().expect("join");
    }

    #[test]
    fn wait_for_times_out() {
        let mu = Mutex::new(());
        let cv = Condvar::new();
        let mut g = mu.lock();
        let start = Instant::now();
        cv.wait_for(&mut g, Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 7);
        assert_eq!(*m.try_lock().expect("free"), 7);
    }
}
