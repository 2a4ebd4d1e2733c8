//! User-level spinlock table.
//!
//! A spinlock is held by at most one process. Contenders *spin*: they occupy
//! their processor, remain runnable, and make no progress — which is exactly
//! what makes preemption of a lock holder expensive (the paper's degradation
//! mechanism #1). Grant order among spinners is FIFO by spin start, but only
//! a currently *running* spinner can observe a release; spinners that were
//! preempted re-test the lock when they are next dispatched.

use std::collections::VecDeque;

use desim::SimTime;

use crate::ids::{LockId, Pid};

#[derive(Debug, Default)]
pub(crate) struct Lock {
    pub holder: Option<Pid>,
    /// Spinning processes, in spin-start order (running or preempted).
    pub spinners: VecDeque<Pid>,
    /// Contention statistics.
    pub acquisitions: u64,
    pub contended_acquisitions: u64,
    pub held_since: Option<SimTime>,
}

/// Aggregate statistics for one lock, exposed for instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Total successful acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that had to spin first.
    pub contended: u64,
}

#[derive(Debug, Default)]
pub(crate) struct LockTable {
    locks: Vec<Lock>,
}

impl LockTable {
    pub(crate) fn create(&mut self) -> LockId {
        self.locks.push(Lock::default());
        LockId((self.locks.len() - 1) as u32)
    }

    pub(crate) fn get(&self, id: LockId) -> &Lock {
        &self.locks[id.0 as usize]
    }

    pub(crate) fn get_mut(&mut self, id: LockId) -> &mut Lock {
        &mut self.locks[id.0 as usize]
    }

    /// Attempts to take the lock for `pid`. Returns true on success.
    pub(crate) fn try_acquire(&mut self, id: LockId, pid: Pid, now: SimTime) -> bool {
        let lock = self.get_mut(id);
        debug_assert_ne!(lock.holder, Some(pid), "recursive spinlock acquire");
        if lock.holder.is_none() {
            lock.holder = Some(pid);
            lock.acquisitions += 1;
            lock.held_since = Some(now);
            true
        } else {
            false
        }
    }

    /// Adds `pid` to the spinner queue (it failed `try_acquire`).
    pub(crate) fn enqueue_spinner(&mut self, id: LockId, pid: Pid) {
        let lock = self.get_mut(id);
        debug_assert!(!lock.spinners.contains(&pid), "double-spin on {id}");
        lock.spinners.push_back(pid);
    }

    /// Removes `pid` from the spinner queue (granted, or exited abnormally).
    pub(crate) fn remove_spinner(&mut self, id: LockId, pid: Pid) {
        let lock = self.get_mut(id);
        lock.spinners.retain(|&p| p != pid);
    }

    /// Releases the lock held by `pid`. The caller decides which spinner (if
    /// any) to grant to next — walking [`Lock::spinners`], which is in FIFO
    /// (spin-start) order — via [`LockTable::grant_to`].
    pub(crate) fn release(&mut self, id: LockId, pid: Pid) {
        let lock = self.get_mut(id);
        assert_eq!(lock.holder, Some(pid), "release of a lock not held");
        lock.holder = None;
        lock.held_since = None;
    }

    /// Grants the (free) lock to a previously spinning process.
    pub(crate) fn grant_to(&mut self, id: LockId, pid: Pid, now: SimTime) {
        let lock = self.get_mut(id);
        assert!(lock.holder.is_none(), "grant of a held lock");
        lock.spinners.retain(|&p| p != pid);
        lock.holder = Some(pid);
        lock.acquisitions += 1;
        lock.contended_acquisitions += 1;
        lock.held_since = Some(now);
    }

    /// Statistics for one lock.
    pub(crate) fn stats(&self, id: LockId) -> LockStats {
        let lock = self.get(id);
        LockStats {
            acquisitions: lock.acquisitions,
            contended: lock.contended_acquisitions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_release() {
        let mut t = LockTable::default();
        let l = t.create();
        assert!(t.try_acquire(l, Pid(1), SimTime::ZERO));
        assert!(!t.try_acquire(l, Pid(2), SimTime::ZERO));
        t.release(l, Pid(1));
        assert!(t.get(l).spinners.is_empty());
        assert!(t.try_acquire(l, Pid(2), SimTime::ZERO));
        assert_eq!(t.stats(l).acquisitions, 2);
        assert_eq!(t.stats(l).contended, 0);
    }

    #[test]
    fn spinners_queue_fifo() {
        let mut t = LockTable::default();
        let l = t.create();
        assert!(t.try_acquire(l, Pid(1), SimTime::ZERO));
        t.enqueue_spinner(l, Pid(2));
        t.enqueue_spinner(l, Pid(3));
        t.release(l, Pid(1));
        assert_eq!(t.get(l).holder, None);
        assert_eq!(t.get(l).spinners, [Pid(2), Pid(3)]);
        t.grant_to(l, Pid(2), SimTime::ZERO);
        assert_eq!(t.get(l).holder, Some(Pid(2)));
        assert_eq!(t.get(l).spinners.len(), 1);
        assert_eq!(t.stats(l).contended, 1);
    }

    #[test]
    fn remove_spinner_handles_absent() {
        let mut t = LockTable::default();
        let l = t.create();
        t.enqueue_spinner(l, Pid(5));
        t.remove_spinner(l, Pid(6)); // not present: no-op
        t.remove_spinner(l, Pid(5));
        assert!(t.get(l).spinners.is_empty());
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn release_unheld_panics() {
        let mut t = LockTable::default();
        let l = t.create();
        t.release(l, Pid(1));
    }
}
