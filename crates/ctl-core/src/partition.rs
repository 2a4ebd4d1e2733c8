//! The server's processor-partitioning algorithm.
//!
//! Section 5 of the paper: the server "determines the number of runnable
//! processes not belonging to controllable applications... subtracts this
//! from the number of processors in the system... then partitions these
//! processors among the applications fairly", with two provisos: an
//! application is never assigned more processors than it has processes, and
//! every application keeps at least one runnable process.
//!
//! The fair division with caps is a classic water-filling problem; we solve
//! it exactly by iterative redistribution, with an optional per-application
//! weight extension (the paper's "given that all three have the same
//! priority" aside generalized).

/// Largest machine size the control plane accepts. Bigger values are
/// assumed to be corruption (a garbled config or wire frame), not a real
/// machine: a 0-or-absurd `cpus` would otherwise flow into [`partition`]
/// and produce 0-targets that starve every registered application.
pub const MAX_CPUS: u32 = 4096;

/// Largest per-application process count the control plane accepts over
/// the wire (a `REGISTER` claiming more is rejected as malformed).
pub const MAX_PROCESSES: u32 = 1 << 20;

/// A control-plane size (cpus or processes) outside its sane range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeError {
    /// What was being validated (`"cpus"`, `"processes"`).
    pub what: &'static str,
    /// The offending value.
    pub value: u64,
    /// The inclusive upper bound.
    pub max: u64,
}

impl std::fmt::Display for SizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be in 1..={}, got {}",
            self.what, self.max, self.value
        )
    }
}

impl std::error::Error for SizeError {}

/// Validates a machine size before it reaches [`partition`].
pub fn validate_cpus(num_cpus: u32) -> Result<(), SizeError> {
    if num_cpus == 0 || num_cpus > MAX_CPUS {
        return Err(SizeError {
            what: "cpus",
            value: u64::from(num_cpus),
            max: u64::from(MAX_CPUS),
        });
    }
    Ok(())
}

/// Validates an application's claimed process count (wire-facing).
pub fn validate_processes(processes: u32) -> Result<(), SizeError> {
    if processes == 0 || processes > MAX_PROCESSES {
        return Err(SizeError {
            what: "processes",
            value: u64::from(processes),
            max: u64::from(MAX_PROCESSES),
        });
    }
    Ok(())
}

/// One controllable application, as the server sees it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppDemand {
    /// Total processes the application currently has (runnable or
    /// suspended) — the cap on how many processors it can use.
    pub processes: u32,
    /// Relative share weight (1.0 = equal priority).
    pub weight: f64,
}

impl AppDemand {
    /// An equal-priority application with `processes` processes.
    pub fn new(processes: u32) -> Self {
        AppDemand {
            processes,
            weight: 1.0,
        }
    }
}

/// Computes each controllable application's target number of runnable
/// processes.
///
/// `num_cpus` is the machine size; `uncontrolled` is the number of runnable
/// processes belonging to applications outside the scheme's control. The
/// result has one entry per element of `apps`, each at least 1 (unless the
/// application has no processes at all, in which case 0) and at most
/// `processes`.
///
/// # Examples
///
/// The paper's worked example (Section 5 / Figure 2): 8 processors, 2 used
/// by uncontrollable processes, three applications with 2, 3, and 3
/// processes:
///
/// ```
/// use ctl_core::{partition, AppDemand};
///
/// let t = partition(8, 2, &[AppDemand::new(2), AppDemand::new(3), AppDemand::new(3)]);
/// assert_eq!(t, vec![2, 2, 2]);
/// ```
pub fn partition(num_cpus: u32, uncontrolled: u32, apps: &[AppDemand]) -> Vec<u32> {
    let mut targets = Vec::new();
    partition_into(
        num_cpus,
        uncontrolled,
        apps,
        &mut targets,
        &mut PartitionScratch::default(),
    );
    targets
}

/// Working memory of [`partition_into`]. A server that recomputes on
/// every burst of events keeps one across calls, so a recompute
/// allocates nothing once the buffers have grown to the fleet's size.
/// What a previous call left in it never reaches the next result.
#[derive(Clone, Debug, Default)]
pub struct PartitionScratch {
    /// This round's `(app, fractional grant)` for each app with headroom.
    fractional: Vec<(usize, f64)>,
}

/// [`partition`] into caller-owned buffers: overwrites `targets` with one
/// entry per element of `apps`.
///
/// Returns whether the targets depend on the weights. They do not — any
/// positive weights give the same targets — when the floor of one takes
/// every free processor, when no application has room above its floor,
/// or when every demand fits in what the floor leaves and every
/// application with room has a positive weight: then each application is
/// granted its whole demand, without the water-fill. A cache of the
/// targets can then ignore a weight change.
pub fn partition_into(
    num_cpus: u32,
    uncontrolled: u32,
    apps: &[AppDemand],
    targets: &mut Vec<u32>,
    scratch: &mut PartitionScratch,
) -> bool {
    let available = num_cpus.saturating_sub(uncontrolled);

    // Start from the starvation floor: one process each (0 for empty apps).
    targets.clear();
    targets.extend(apps.iter().map(|a| u32::from(a.processes > 0)));
    let floor: u32 = targets.iter().sum();
    let mut remaining = available.saturating_sub(floor);
    if remaining == 0 {
        return false;
    }

    // The room above the floor, and whether every app with room has a
    // positive weight (the water-fill stops once only apps without one
    // have room left).
    let (mut room, mut positive) = (0u64, true);
    for (a, &t) in apps.iter().zip(targets.iter()) {
        if t < a.processes {
            room += u64::from(a.processes - t);
            positive &= a.weight > 0.0;
        }
    }
    if room == 0 {
        return false;
    }
    if positive && room <= u64::from(remaining) {
        // Every demand fits: the water-fill would fill every app to its
        // cap, whatever the weights.
        for (t, a) in targets.iter_mut().zip(apps) {
            *t = a.processes;
        }
        return false;
    }

    // Water-fill the remaining processors by weight, capped per app.
    // Each round distributes proportionally among apps with headroom;
    // integer rounding goes to the largest fractional remainders.
    let fractional = &mut scratch.fractional;
    while remaining > 0 {
        fractional.clear();
        let mut wsum = 0.0;
        for (i, a) in apps.iter().enumerate() {
            if targets[i] < a.processes {
                fractional.push((i, 0.0));
                wsum += a.weight.max(0.0);
            }
        }
        if fractional.is_empty() || wsum <= 0.0 {
            break;
        }
        let mut granted_any = false;
        // Ideal fractional grants for this round.
        for &mut (i, ref mut f) in fractional.iter_mut() {
            let ideal = remaining as f64 * apps[i].weight.max(0.0) / wsum;
            let room = (apps[i].processes - targets[i]) as f64;
            *f = ideal.min(room);
        }
        // Grant integer parts first.
        for &mut (i, ref mut f) in fractional.iter_mut() {
            let whole = (*f).floor() as u32;
            let grant = whole.min(remaining).min(apps[i].processes - targets[i]);
            if grant > 0 {
                targets[i] += grant;
                remaining -= grant;
                granted_any = true;
            }
            *f -= f64::from(grant);
        }
        // Then leftover single processors to the largest remainders,
        // earlier apps first among equals (the index tie-break is what a
        // stable sort would do, without its merge buffer).
        fractional.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite remainders")
                .then(a.0.cmp(&b.0))
        });
        for &(i, _) in fractional.iter() {
            if remaining == 0 {
                break;
            }
            if targets[i] < apps[i].processes {
                targets[i] += 1;
                remaining -= 1;
                granted_any = true;
            }
        }
        if !granted_any {
            break;
        }
    }
    true
}

/// The CPUs of one slot of the carve: `len` consecutive entries of
/// `cpu_order` (a topology-linearized CPU list — SMT siblings adjacent,
/// then LLC groups, then sockets) beginning `start` processors in, where
/// `start` is the sum of the targets of the slots before it. Wraps around
/// when the floor-of-one proviso oversubscribes the machine; empty for an
/// empty order.
///
/// Contiguity is the point: an application's processes land on
/// cache-sharing neighbors, and because a slot starts at the sum of the
/// targets before it, a *shrink* of application `i` (earlier targets
/// unchanged) keeps a prefix of its previous block — the workers it
/// retains stay where their cache state is.
pub fn cpu_range(cpu_order: &[u32], start: usize, len: u32) -> impl Iterator<Item = u32> + '_ {
    let n = if cpu_order.is_empty() {
        0
    } else {
        len as usize
    };
    (start..start + n).map(move |k| cpu_order[k % cpu_order.len()])
}

/// Assigns each application a *concrete* set of CPUs, not just a count:
/// every slot of the carve ([`cpu_range`]) materialised, one per entry of
/// `targets`.
pub fn assign_cpu_sets(cpu_order: &[u32], targets: &[u32]) -> Vec<Vec<u32>> {
    let mut start = 0usize;
    targets
        .iter()
        .map(|&t| {
            let set = cpu_range(cpu_order, start, t).collect();
            start += t as usize;
            set
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_apps(ps: &[u32]) -> Vec<AppDemand> {
        ps.iter().map(|&p| AppDemand::new(p)).collect()
    }

    #[test]
    fn paper_worked_example() {
        // 8 CPUs, 2 uncontrolled, apps with 2/3/3 processes → 2/2/2.
        let t = partition(8, 2, &eq_apps(&[2, 3, 3]));
        assert_eq!(t, vec![2, 2, 2]);
    }

    #[test]
    fn single_app_gets_whole_machine() {
        let t = partition(16, 0, &eq_apps(&[24]));
        assert_eq!(t, vec![16]);
    }

    #[test]
    fn cap_at_process_count() {
        let t = partition(16, 0, &eq_apps(&[4]));
        assert_eq!(t, vec![4]);
    }

    #[test]
    fn excess_from_capped_apps_redistributes() {
        // 16 CPUs, apps with 2 and 30 processes: fair share would be 8/8,
        // but the small app can only use 2, so the big one gets 14.
        let t = partition(16, 0, &eq_apps(&[2, 30]));
        assert_eq!(t, vec![2, 14]);
    }

    #[test]
    fn every_app_keeps_one_process() {
        // More apps than processors: everyone still gets 1 (the paper's
        // no-starvation proviso), even though that oversubscribes.
        let t = partition(4, 0, &eq_apps(&[8, 8, 8, 8, 8, 8]));
        assert_eq!(t, vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn uncontrolled_load_reduces_shares() {
        let t = partition(16, 8, &eq_apps(&[16, 16]));
        assert_eq!(t, vec![4, 4]);
    }

    #[test]
    fn uncontrolled_exceeding_machine_leaves_floor() {
        let t = partition(8, 20, &eq_apps(&[5, 5]));
        assert_eq!(t, vec![1, 1]);
    }

    #[test]
    fn empty_app_gets_zero() {
        let t = partition(8, 0, &eq_apps(&[0, 8]));
        assert_eq!(t, vec![0, 8]);
    }

    #[test]
    fn no_apps() {
        assert!(partition(8, 0, &[]).is_empty());
    }

    #[test]
    fn remainder_goes_somewhere() {
        // 16 CPUs, 3 equal apps: 16/3 = 5.33 → 6/5/5 in some order, total 16.
        let t = partition(16, 0, &eq_apps(&[24, 24, 24]));
        assert_eq!(t.iter().sum::<u32>(), 16);
        assert!(t.iter().all(|&x| x == 5 || x == 6));
    }

    #[test]
    fn weights_skew_shares() {
        let apps = vec![
            AppDemand {
                processes: 16,
                weight: 3.0,
            },
            AppDemand {
                processes: 16,
                weight: 1.0,
            },
        ];
        let t = partition(16, 0, &apps);
        assert_eq!(t.iter().sum::<u32>(), 16);
        assert!(t[0] > t[1], "weighted app should get more: {t:?}");
        assert_eq!(t[0], 12);
    }

    #[test]
    fn size_validation_bounds() {
        assert!(validate_cpus(1).is_ok());
        assert!(validate_cpus(MAX_CPUS).is_ok());
        assert_eq!(
            validate_cpus(0),
            Err(SizeError {
                what: "cpus",
                value: 0,
                max: u64::from(MAX_CPUS),
            })
        );
        assert!(validate_cpus(MAX_CPUS + 1).is_err());
        assert!(validate_processes(1).is_ok());
        assert!(validate_processes(0).is_err());
        assert!(validate_processes(MAX_PROCESSES + 1).is_err());
        let msg = validate_cpus(0).unwrap_err().to_string();
        assert!(msg.contains("cpus"), "error names the field: {msg}");
    }

    #[test]
    fn cpu_sets_are_contiguous_slices_of_the_order() {
        let order: Vec<u32> = (0..8).collect();
        let sets = assign_cpu_sets(&order, &[3, 2, 3]);
        assert_eq!(sets, vec![vec![0, 1, 2], vec![3, 4], vec![5, 6, 7]]);
    }

    #[test]
    fn cpu_sets_respect_a_nontrivial_order() {
        // A topology order interleaving sockets' SMT pairs.
        let order = vec![0, 4, 1, 5, 2, 6, 3, 7];
        let sets = assign_cpu_sets(&order, &[4, 4]);
        assert_eq!(sets, vec![vec![0, 4, 1, 5], vec![2, 6, 3, 7]]);
    }

    #[test]
    fn oversubscription_wraps_around() {
        let order: Vec<u32> = (0..2).collect();
        let sets = assign_cpu_sets(&order, &[1, 1, 1]);
        assert_eq!(sets, vec![vec![0], vec![1], vec![0]]);
    }

    #[test]
    fn shrink_keeps_a_prefix_of_the_old_block() {
        let order: Vec<u32> = (0..8).collect();
        let before = assign_cpu_sets(&order, &[2, 4, 2]);
        // App 1 shrinks 4 → 2 with app 0 unchanged: it keeps cpus 2,3.
        let after = assign_cpu_sets(&order, &[2, 2, 2]);
        assert_eq!(after[1], before[1][..2].to_vec());
    }

    #[test]
    fn empty_order_yields_empty_sets() {
        let sets = assign_cpu_sets(&[], &[2, 2]);
        assert_eq!(sets, vec![Vec::<u32>::new(), Vec::new()]);
    }

    #[test]
    fn weighted_still_capped() {
        let apps = vec![
            AppDemand {
                processes: 3,
                weight: 100.0,
            },
            AppDemand {
                processes: 16,
                weight: 1.0,
            },
        ];
        let t = partition(16, 0, &apps);
        assert_eq!(t, vec![3, 13]);
    }
}
