//! Property tests for the partitioning algorithm.

use ctl_core::{partition, partition_into, AppDemand, PartitionScratch};
use proptest::prelude::*;

fn demands() -> impl Strategy<Value = Vec<AppDemand>> {
    prop::collection::vec((0u32..64).prop_map(AppDemand::new), 0..12)
}

fn weighted_demands() -> impl Strategy<Value = Vec<AppDemand>> {
    prop::collection::vec(
        (0u32..64, 0u32..2_000).prop_map(|(processes, jobs)| AppDemand {
            processes,
            weight: 1.0 + f64::from(jobs),
        }),
        0..12,
    )
}

proptest! {
    /// Feasibility: each target is within [floor, cap], and the total never
    /// exceeds the available processors unless forced up by the
    /// one-process-per-app starvation floor.
    #[test]
    fn targets_feasible(cpus in 1u32..64, uncontrolled in 0u32..80, apps in demands()) {
        let t = partition(cpus, uncontrolled, &apps);
        prop_assert_eq!(t.len(), apps.len());
        let mut floor = 0u32;
        for (i, a) in apps.iter().enumerate() {
            prop_assert!(t[i] <= a.processes, "target above cap");
            if a.processes > 0 {
                prop_assert!(t[i] >= 1, "starvation: app {} got 0", i);
                floor += 1;
            } else {
                prop_assert_eq!(t[i], 0);
            }
        }
        let available = cpus.saturating_sub(uncontrolled);
        let total: u32 = t.iter().sum();
        prop_assert!(total <= available.max(floor), "total {} > available {} (floor {})", total, available, floor);
    }

    /// Work conservation: if demand can absorb the available processors,
    /// they are all handed out.
    #[test]
    fn work_conserving(cpus in 1u32..64, apps in demands()) {
        let t = partition(cpus, 0, &apps);
        let demand: u32 = apps.iter().map(|a| a.processes).sum();
        let total: u32 = t.iter().sum();
        prop_assert_eq!(total, demand.min(cpus).max(total.min(demand)),
            "handed out {} of {} available with demand {}", total, cpus, demand);
        // Restated plainly: total == min(cpus, demand) when the floor fits.
        let napps = apps.iter().filter(|a| a.processes > 0).count() as u32;
        if napps <= cpus {
            prop_assert_eq!(total, demand.min(cpus));
        }
    }

    /// Equal-weight fairness: among uncapped applications, shares differ by
    /// at most one processor (envy-freeness up to integer rounding).
    #[test]
    fn equal_weights_envy_free(cpus in 1u32..64, apps in demands()) {
        let t = partition(cpus, 0, &apps);
        let uncapped: Vec<u32> = apps.iter().zip(&t)
            .filter(|(a, &ti)| ti < a.processes)
            .map(|(_, &ti)| ti)
            .collect();
        if let (Some(&max), Some(&min)) = (uncapped.iter().max(), uncapped.iter().min()) {
            prop_assert!(max - min <= 1, "uncapped shares differ by {}: {:?}", max - min, t);
        }
    }

    /// Monotonicity: more available processors never shrinks anyone's
    /// share total.
    #[test]
    fn monotone_in_cpus(cpus in 1u32..63, uncontrolled in 0u32..16, apps in demands()) {
        let t1: u32 = partition(cpus, uncontrolled, &apps).iter().sum();
        let t2: u32 = partition(cpus + 1, uncontrolled, &apps).iter().sum();
        prop_assert!(t2 >= t1);
    }

    /// Determinism: the function is pure.
    #[test]
    fn deterministic(cpus in 1u32..64, uncontrolled in 0u32..16, apps in demands()) {
        prop_assert_eq!(partition(cpus, uncontrolled, &apps), partition(cpus, uncontrolled, &apps));
    }

    /// What a cache of the targets may rely on: `partition_into` says
    /// the weights went unread exactly when the floor takes every free
    /// processor, no app has room above its floor, or every demand fits;
    /// and then any other positive weights give the same targets.
    #[test]
    fn unread_weights_change_no_target(
        cpus in 1u32..64,
        uncontrolled in 0u32..80,
        apps in weighted_demands(),
        other in weighted_demands(),
    ) {
        let mut targets = Vec::new();
        let read = partition_into(cpus, uncontrolled, &apps, &mut targets, &mut PartitionScratch::default());
        let floor = apps.iter().filter(|a| a.processes > 0).count() as u32;
        let free = cpus.saturating_sub(uncontrolled).saturating_sub(floor);
        let room: u32 = apps.iter().map(|a| a.processes.saturating_sub(1)).sum();
        prop_assert_eq!(read, free > 0 && room > free, "free {} room {}", free, room);
        if !read {
            let weights = other.iter().map(|o| o.weight).chain(std::iter::repeat(1.0));
            let reweighed: Vec<AppDemand> = apps
                .iter()
                .zip(weights)
                .map(|(a, weight)| AppDemand { processes: a.processes, weight })
                .collect();
            prop_assert_eq!(&targets, &partition(cpus, uncontrolled, &reweighed));
        }
    }

    /// Buffers a server keeps across recomputes change no result: with
    /// `targets` and the scratch left over from an unrelated problem,
    /// `partition_into` fills in what `partition` returns.
    #[test]
    fn reused_buffers_change_nothing(
        cpus in 1u32..64,
        uncontrolled in 0u32..80,
        before in weighted_demands(),
        equal in demands(),
        weighted in weighted_demands(),
    ) {
        let mut targets = vec![7; 3];
        let mut scratch = PartitionScratch::default();
        partition_into(64, 0, &before, &mut targets, &mut scratch);
        for apps in [&equal, &weighted] {
            partition_into(cpus, uncontrolled, apps, &mut targets, &mut scratch);
            prop_assert_eq!(&targets, &partition(cpus, uncontrolled, apps));
        }
    }
}
