//! Property tests for the simulation engine.

use std::collections::BTreeSet;

use desim::{Calendar, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Popping the calendar yields events sorted by time, and insertion
    /// order is preserved among equal timestamps (stability).
    #[test]
    fn calendar_is_stable_priority_queue(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut cal = Calendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime(t), (t, i));
        }
        let mut out = Vec::new();
        while let Some((t, payload)) = cal.pop() {
            prop_assert_eq!(t.nanos(), payload.0);
            out.push(payload);
        }
        prop_assert_eq!(out.len(), times.len());
        // Expected: stable sort of (time, insertion index).
        let mut expected: Vec<(u64, usize)> = times.iter().copied().enumerate()
            .map(|(i, t)| (t, i)).collect();
        expected.sort(); // (time, seq) lexicographic == stable by time
        prop_assert_eq!(out, expected);
    }

    /// Interleaved `schedule`/`pop` agree, operation by operation, with a
    /// model that keeps a `Vec` sorted on `(time, seq)`: the heap may hold
    /// any mix of old and new entries when an equal timestamp arrives.
    #[test]
    fn calendar_matches_sorted_vec_model(
        ops in prop::collection::vec((any::<bool>(), 0u64..20), 1..300),
    ) {
        let mut cal = Calendar::new();
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut next_seq = 0u64;
        // Delivered time never goes backwards in a simulation; schedule at
        // or after it so the model exercises realistic inputs.
        let mut now = 0u64;
        for (is_pop, dt) in ops {
            if is_pop {
                let expect = if model.is_empty() { None } else { Some(model.remove(0)) };
                let got = cal.pop().map(|(t, seq)| (t.nanos(), seq));
                prop_assert_eq!(got, expect);
                if let Some((t, _)) = got {
                    now = t;
                }
            } else {
                let key = (now + dt, next_seq);
                cal.schedule(SimTime(key.0), key.1);
                let at = model.partition_point(|k| *k < key);
                model.insert(at, key);
                next_seq += 1;
            }
            prop_assert_eq!(cal.len(), model.len());
            prop_assert_eq!(cal.is_empty(), model.is_empty());
            prop_assert_eq!(cal.peek_time().map(|t| t.nanos()), model.first().map(|k| k.0));
        }
    }

    /// The calendar at the simulated kernel's shape, against a `BTreeSet`
    /// of `(time, seq)` keys: up to ~1 000 events pending; each pop
    /// followed by 0–3 schedules, as a `Kernel::step` does; runs of
    /// consecutive pops and of consecutive schedules; schedules at exactly
    /// the popped `now`. `len`, `is_empty` and `peek_time` are checked
    /// after every single operation, so every state the dirty root can be
    /// in is read.
    #[test]
    fn calendar_matches_model_at_kernel_shape(
        fill in 0usize..1_000,
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..8, 0u64..64), 1..600),
    ) {
        let mut cal = Calendar::new();
        let mut model = BTreeSet::new();
        let mut next_seq = 0u64;
        let mut now = 0u64;
        let mut rng = SimRng::new(seed);
        // A quarter of all schedules land on `now` exactly; the rest
        // within the next ~2 ms, or (one in eight) a 100 ms quantum out.
        let delay = |rng: &mut SimRng| match rng.range_u64(0, 8) {
            0 | 1 => 0,
            2 => 100_000_000,
            _ => rng.range_u64(1, 2_000_000),
        };
        macro_rules! check {
            () => {
                prop_assert_eq!(cal.len(), model.len());
                prop_assert_eq!(cal.is_empty(), model.is_empty());
                prop_assert_eq!(
                    cal.peek_time().map(|t| t.nanos()),
                    model.first().map(|k: &(u64, u64)| k.0)
                );
            };
        }
        macro_rules! schedule {
            () => {
                let t = now + delay(&mut rng);
                cal.schedule(SimTime(t), next_seq);
                model.insert((t, next_seq));
                next_seq += 1;
                check!();
            };
        }
        macro_rules! pop {
            () => {
                let got = cal.pop().map(|(t, seq)| (t.nanos(), seq));
                prop_assert_eq!(got, model.pop_first());
                if let Some((t, _)) = got {
                    now = t;
                }
                check!();
            };
        }
        for _ in 0..fill {
            schedule!();
        }
        for (op, arg) in ops {
            match op {
                // A step: one pop, then 0–3 schedules.
                0..=3 => {
                    pop!();
                    for _ in 0..op {
                        schedule!();
                    }
                }
                // A run of 2–9 pops.
                4 | 5 => {
                    for _ in 0..2 + arg % 8 {
                        pop!();
                    }
                }
                // A run of 1–4 schedules.
                _ => {
                    for _ in 0..1 + arg % 4 {
                        schedule!();
                    }
                }
            }
        }
        while let Some(first) = model.pop_first() {
            prop_assert_eq!(cal.pop().map(|(t, seq)| (t.nanos(), seq)), Some(first));
            check!();
        }
        prop_assert!(cal.pop().is_none());
    }

    /// `range_u64` stays within bounds for arbitrary non-empty ranges.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            let x = r.range_u64(lo, lo + span);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    /// The same seed always reproduces the same stream.
    #[test]
    fn rng_is_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
