//! Starvation-bound properties for the CR gate's promotion policy.
//!
//! The culled list is LIFO on purpose (the most recently passivated
//! thread has the warmest cache), which is exactly the shape that
//! starves: a steady arrival stream keeps pushing fresh threads onto
//! the back and the front never moves. `promote_index`'s aging rule —
//! promote the *oldest* once it has waited `promotion_interval`
//! admissions — is the fairness backstop. These properties drive a
//! discrete model of the gate (admissions are the clock, exactly as in
//! `CrGate`) over arbitrary schedules and pin the bound the ISSUE
//! demands: no culled thread waits more than
//! `promotion_interval × active_set` admissions.

use std::collections::VecDeque;

use native_rt::crlock::promote_index;
use proptest::prelude::*;

#[derive(Clone, Copy, PartialEq)]
enum ThreadState {
    Idle,
    Culled,
    Active,
}

/// Replays `schedule` against a discrete gate model: each step picks a
/// thread; idle threads try to enter (admit or cull), active threads
/// exit (promote per `promote_index`, else free the slot). Returns the
/// maximum admissions any culled thread waited before promotion.
fn max_promotion_wait(
    nthreads: usize,
    active_max: usize,
    interval: u64,
    schedule: &[usize],
) -> u64 {
    let mut state = vec![ThreadState::Idle; nthreads];
    let mut culled: VecDeque<(usize, u64)> = VecDeque::new();
    let mut active = 0usize;
    let mut now = 0u64;
    let mut max_wait = 0u64;

    for &pick in schedule {
        let t = pick % nthreads;
        match state[t] {
            ThreadState::Culled => {} // parked — cannot act
            ThreadState::Idle => {
                if active < active_max {
                    active += 1;
                    now += 1;
                    state[t] = ThreadState::Active;
                } else {
                    culled.push_back((t, now));
                    state[t] = ThreadState::Culled;
                }
            }
            ThreadState::Active => {
                if let Some(&(_, oldest)) = culled.front() {
                    let idx = promote_index(oldest, culled.len(), now, interval);
                    let (w, stamp) = culled.remove(idx).unwrap();
                    now += 1;
                    max_wait = max_wait.max(now - stamp);
                    state[w] = ThreadState::Active;
                } else {
                    active -= 1;
                }
                state[t] = ThreadState::Idle;
            }
        }
    }
    max_wait
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The ISSUE's starvation bound: with an active set of `a` and a
    /// promotion interval of `i`, no culled thread is promoted after
    /// waiting more than `i × a` admissions, over arbitrary schedules.
    #[test]
    fn no_culled_thread_waits_more_than_interval_times_active_set(
        a in 2usize..9,
        i in 8u64..65,
        schedule in prop::collection::vec(0usize..64, 1..800),
    ) {
        // Enough threads to overflow the active set, few enough that the
        // aging backstop can cycle the whole list inside the bound.
        let nthreads = (a + (a as u64 * i / 2) as usize).min(64);
        let wait = max_promotion_wait(nthreads, a, i, &schedule);
        prop_assert!(
            wait <= i * a as u64,
            "a culled thread waited {wait} admissions (bound {})",
            i * a as u64
        );
    }

    /// `promote_index` always returns a valid index, and only ever the
    /// LIFO back or the overdue front.
    #[test]
    fn promote_index_picks_back_or_overdue_front(
        stamps in prop::collection::vec(0u64..1000, 1..32),
        advance in 0u64..200,
        interval in 1u64..128,
    ) {
        let mut q = stamps;
        q.sort_unstable();
        let now = q[q.len() - 1] + advance;
        let idx = promote_index(q[0], q.len(), now, interval);
        prop_assert!(idx < q.len());
        if idx == 0 {
            // Front only when overdue (or the list is length 1).
            prop_assert!(q.len() == 1 || now.saturating_sub(q[0]) >= interval);
        } else {
            prop_assert_eq!(idx, q.len() - 1);
        }
    }
}
