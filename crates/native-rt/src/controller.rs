//! The in-process central controller — the native analog of the paper's
//! user-level server.
//!
//! Thread pools register with one [`Controller`], which drives one
//! [`ControlCore`](crate::control): a pool is a registration, a dropped
//! pool a departure, and its target and CPU set are the core's partition
//! and carve — the same ones every `UdsServer` reply is cut from. A
//! background thread republishes them periodically; `register` and
//! `recompute_now` do so at once. Each recompute departs the dead pools,
//! reads the partition and stores it into the live pools' slots under one
//! lock, so two recomputes never interleave and the last one stored is
//! the newest. Pools read their target atomically at safe points.

use std::path::PathBuf;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::control::{ControlCore, UdsServerConfig};
use crate::sync::{AtomicBool, AtomicUsize, Mutex, Ordering};
use crate::topology::CpuTopology;

/// Per-pool slot the controller writes targets into.
#[derive(Debug)]
pub struct TargetSlot {
    /// Desired number of unsuspended workers.
    // sched-atomic(handoff): the controller's Release store publishes a
    // recomputed partition; workers' Acquire loads pair with it.
    pub target: AtomicUsize,
    /// Total workers in the pool (the cap).
    pub nworkers: usize,
    /// The concrete CPUs assigned to this pool, when the control plane
    /// hands out sets and not just counts (`None` = count-only mode:
    /// degraded mode, or no controller).
    cpuset: Mutex<Option<Arc<Vec<u32>>>>,
    /// Bumped on every *actual change* of `cpuset`, so workers can poll
    /// cheaply for "did my assignment move?" without taking the lock.
    // sched-atomic(handoff): the Release bump publishes the new cpuset
    // written under the lock just before; pollers load with Acquire and
    // then take the lock for the value.
    cpuset_gen: AtomicUsize,
}

impl TargetSlot {
    /// A slot for an `nworkers`-worker pool, initialized to all workers
    /// runnable (the uncontrolled default until a controller or poller
    /// writes a target) and no CPU set assigned.
    pub fn new(nworkers: usize) -> Self {
        TargetSlot {
            target: AtomicUsize::new(nworkers.max(1)),
            nworkers,
            cpuset: Mutex::new(None),
            cpuset_gen: AtomicUsize::new(0),
        }
    }

    /// Publishes a CPU-set assignment (`None` reverts to count-only
    /// mode). The generation only advances when the set actually
    /// changes, so a poller rewriting the same assignment every
    /// interval does not make workers rebuild their victim rings.
    pub fn set_cpus(&self, cpus: Option<Vec<u32>>) {
        let mut slot = self.cpuset.lock();
        let changed = match (&*slot, &cpus) {
            (None, None) => false,
            (Some(old), Some(new)) => old.as_slice() != new.as_slice(),
            _ => true,
        };
        if changed {
            *slot = cpus.map(Arc::new);
            self.cpuset_gen.fetch_add(1, Ordering::Release);
        }
    }

    /// The currently assigned CPU set, if any.
    pub fn cpus(&self) -> Option<Arc<Vec<u32>>> {
        self.cpuset.lock().clone()
    }

    /// The CPU-set change generation (see [`TargetSlot::set_cpus`]).
    pub fn cpus_generation(&self) -> usize {
        self.cpuset_gen.load(Ordering::Acquire)
    }
}

/// The registered pools and the core that partitions among them.
struct Pools {
    core: ControlCore,
    /// `(registration id, slot)` in registration order — the core's
    /// partition order.
    slots: Vec<(u32, Weak<TargetSlot>)>,
    next_id: u32,
}

impl Pools {
    /// Departs the pools that were dropped (the native analog of the BYE
    /// message) and stores the partition into the live ones.
    fn recompute(&mut self) {
        let Pools { core, slots, .. } = self;
        slots.retain(|(id, slot)| {
            let live = slot.strong_count() > 0;
            if !live {
                core.depart(*id);
            }
            live
        });
        for ((id, slot), (pid, target, cpus)) in slots.iter().zip(core.assignments()) {
            debug_assert_eq!(*id, pid, "pool slots out of partition order");
            // A pool dropped since the retain keeps its share until the
            // next recompute departs it.
            if let Some(slot) = slot.upgrade() {
                slot.target.store(target as usize, Ordering::Release);
                slot.set_cpus(Some(cpus.collect()));
            }
        }
    }
}

/// The centralized controller.
pub struct Controller {
    cpus: usize,
    pools: Arc<Mutex<Pools>>,
    // sched-atomic(handoff): Release store on shutdown; the ticker's
    // Acquire load pairs with it before the final recompute.
    stop: Arc<AtomicBool>,
    ticker: Option<JoinHandle<()>>,
}

impl Controller {
    /// Creates a controller for a machine with `cpus` processors,
    /// recomputing targets every `interval`.
    ///
    /// # Panics
    ///
    /// Panics when `cpus` is zero or absurd (beyond
    /// [`ctl_core::MAX_CPUS`]); use [`Controller::try_new`] to handle
    /// untrusted configuration without panicking.
    pub fn new(cpus: usize, interval: Duration) -> Self {
        Self::try_new(cpus, interval)
            .unwrap_or_else(|e| panic!("invalid controller configuration: {e}"))
    }

    /// Like [`Controller::new`], but rejects a zero/absurd `cpus` (e.g.
    /// from a config file) with a clear error instead of handing every
    /// pool a meaningless 0-target downstream.
    pub fn try_new(cpus: usize, interval: Duration) -> Result<Self, ctl_core::SizeError> {
        ctl_core::validate_cpus(u32::try_from(cpus).unwrap_or(u32::MAX))?;
        // Partition the real machine's layout when the controller spans
        // exactly its CPUs; otherwise (tests, simulated sizes) use the
        // deterministic synthetic layout of the requested size.
        let detected = CpuTopology::shared();
        let order = if detected.len() == cpus {
            detected.linear_order()
        } else {
            CpuTopology::synthetic(cpus).linear_order()
        };
        Ok(Self::start(cpus, order, interval))
    }

    /// A controller cutting CPU sets from `cpu_order` (topological order:
    /// SMT siblings adjacent, then LLC groups, then sockets).
    fn start(cpus: usize, cpu_order: Vec<u32>, interval: Duration) -> Self {
        let mut cfg = UdsServerConfig::new(PathBuf::new(), cpus);
        cfg.cpu_order = Some(cpu_order);
        let pools = Arc::new(Mutex::new(Pools {
            core: ControlCore::new(cfg, 0),
            slots: Vec::new(),
            next_id: 0,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let ticker = {
            let pools = Arc::clone(&pools);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("procctl-server".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        pools.lock().recompute();
                        sleep_unless_stopped(&stop, interval);
                    }
                })
                .expect("spawn controller thread")
        };
        Controller {
            cpus,
            pools,
            stop,
            ticker: Some(ticker),
        }
    }

    /// Registers a pool; returns its target slot, already holding the
    /// pool's share of the partition that includes it.
    pub fn register(&self, nworkers: usize) -> Arc<TargetSlot> {
        let slot = Arc::new(TargetSlot::new(nworkers));
        let mut pools = self.pools.lock();
        let id = pools.next_id;
        pools.next_id = id.wrapping_add(1);
        let nworkers = u32::try_from(nworkers).unwrap_or(u32::MAX);
        pools
            .core
            .admit(id, nworkers, crate::trace::clock_origin().elapsed());
        pools.slots.push((id, Arc::downgrade(&slot)));
        pools.recompute();
        slot
    }

    /// Recomputes all live pools' targets now (also called by the ticker).
    pub fn recompute_now(&self) {
        self.pools.lock().recompute();
    }

    /// Number of processors this controller partitions.
    pub fn cpus(&self) -> usize {
        self.cpus
    }
}

impl Drop for Controller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.ticker.take() {
            t.thread().unpark();
            let _ = t.join();
        }
    }
}

/// Sleeps `dur`, or until the owner of `stop` raises it and unparks this
/// thread (a [`Controller`]'s or a `PollerGuard`'s drop).
// sched-atomic(handoff): parameter view of Controller::stop.
pub(crate) fn sleep_unless_stopped(stop: &AtomicBool, dur: Duration) {
    let wake = Instant::now() + dur;
    while !stop.load(Ordering::Acquire) {
        let left = wake.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        std::thread::park_timeout(left);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_pool_gets_whole_machine() {
        let c = Controller::new(8, Duration::from_millis(50));
        let slot = c.register(16);
        assert_eq!(slot.target.load(Ordering::Acquire), 8);
    }

    #[test]
    fn two_pools_split() {
        let c = Controller::new(8, Duration::from_millis(50));
        let a = c.register(16);
        let b = c.register(16);
        c.recompute_now();
        assert_eq!(a.target.load(Ordering::Acquire), 4);
        assert_eq!(b.target.load(Ordering::Acquire), 4);
    }

    #[test]
    fn small_pool_capped_excess_redistributed() {
        let c = Controller::new(8, Duration::from_millis(50));
        let a = c.register(2);
        let b = c.register(16);
        c.recompute_now();
        assert_eq!(a.target.load(Ordering::Acquire), 2);
        assert_eq!(b.target.load(Ordering::Acquire), 6);
    }

    #[test]
    fn dead_pools_release_their_share() {
        let c = Controller::new(8, Duration::from_millis(50));
        let a = c.register(16);
        {
            let _b = c.register(16);
            c.recompute_now();
            assert_eq!(a.target.load(Ordering::Acquire), 4);
        } // b dropped
        c.recompute_now();
        assert_eq!(a.target.load(Ordering::Acquire), 8);
    }

    /// A pool dropped while another thread recomputes in a loop: once the
    /// dropping thread's own recompute has returned and the other thread
    /// has finished, the last partition stored must not include the dead
    /// pool.
    #[test]
    fn a_recompute_racing_a_drop_never_publishes_the_stale_partition() {
        let c = Controller::new(8, Duration::from_millis(50));
        let a = c.register(16);
        let mut stale = 0;
        for _ in 0..300 {
            let stop = AtomicBool::new(false);
            let spins = AtomicUsize::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    while !stop.load(Ordering::Acquire) {
                        c.recompute_now();
                        spins.fetch_add(1, Ordering::Release);
                    }
                });
                while spins.load(Ordering::Acquire) == 0 {
                    std::thread::yield_now();
                }
                drop(c.register(16));
                c.recompute_now();
                stop.store(true, Ordering::Release);
            });
            if a.target.load(Ordering::Acquire) != 8 || a.cpus().map(|s| s.len()) != Some(8) {
                stale += 1;
            }
        }
        assert_eq!(stale, 0, "{stale} of 300 rounds ended on a stale partition");
    }

    #[test]
    fn drop_does_not_wait_out_the_ticker_interval() {
        let c = Controller::new(8, Duration::from_secs(10));
        let _a = c.register(16);
        // Let the ticker reach its sleep.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        drop(c);
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "drop took {took:?}");
    }

    #[test]
    fn zero_and_absurd_cpus_rejected() {
        assert!(Controller::try_new(0, Duration::from_millis(50)).is_err());
        assert!(Controller::try_new(1 << 20, Duration::from_millis(50)).is_err());
        assert!(Controller::try_new(1, Duration::from_millis(50)).is_ok());
    }

    #[test]
    fn target_slot_new_starts_uncontrolled() {
        let slot = TargetSlot::new(6);
        assert_eq!(slot.nworkers, 6);
        assert_eq!(slot.target.load(Ordering::Acquire), 6);
        // Floor of one even for a degenerate pool.
        assert_eq!(TargetSlot::new(0).target.load(Ordering::Acquire), 1);
    }

    #[test]
    fn recompute_hands_out_disjoint_contiguous_cpu_sets() {
        let c = Controller::new(8, Duration::from_millis(50));
        let a = c.register(16);
        let b = c.register(16);
        c.recompute_now();
        let sa = a.cpus().expect("a gets a set");
        let sb = b.cpus().expect("b gets a set");
        assert_eq!(sa.len(), 4);
        assert_eq!(sb.len(), 4);
        assert!(sa.iter().all(|c| !sb.contains(c)), "{sa:?} vs {sb:?}");
        // An identical recompute must not churn the generation.
        let (ga, gb) = (a.cpus_generation(), b.cpus_generation());
        c.recompute_now();
        assert_eq!(a.cpus_generation(), ga);
        assert_eq!(b.cpus_generation(), gb);
    }

    #[test]
    fn set_cpus_generation_tracks_actual_changes_only() {
        let slot = TargetSlot::new(4);
        assert_eq!(slot.cpus_generation(), 0);
        slot.set_cpus(Some(vec![0, 1]));
        assert_eq!(slot.cpus_generation(), 1);
        slot.set_cpus(Some(vec![0, 1])); // same set — no bump
        assert_eq!(slot.cpus_generation(), 1);
        slot.set_cpus(None); // back to count-only mode
        assert_eq!(slot.cpus_generation(), 2);
        slot.set_cpus(None);
        assert_eq!(slot.cpus_generation(), 2);
        assert!(slot.cpus().is_none());
    }

    #[test]
    fn ticker_recomputes_in_background() {
        let c = Controller::new(8, Duration::from_millis(10));
        let a = c.register(16);
        let _b = c.register(16);
        // Wait for the ticker (no explicit recompute_now).
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while a.target.load(Ordering::Acquire) != 4 {
            assert!(std::time::Instant::now() < deadline, "ticker never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The wire reply to `POLL <pid> cpus`: the target and the CPU set,
    /// sorted.
    fn wire_target(core: &mut ControlCore, pid: u32, now: Duration) -> (usize, Vec<u32>) {
        let mut reply = String::new();
        core.frame(0, format!("POLL {pid} cpus").as_bytes(), now, |r| {
            reply.push_str(r)
        });
        let fields: Vec<&str> = reply.split_whitespace().collect();
        let ["TARGET", target, _, cpus] = fields.as_slice() else {
            panic!("unexpected reply {reply:?}");
        };
        let cpus = crate::topology::parse_cpulist(cpus.strip_prefix("cpus=").expect("cpus="))
            .expect("cpulist");
        (target.parse().expect("target"), cpus)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The in-process controller and the wire hand out the same
        /// carve: after each recompute, every pool's slot holds exactly
        /// the target and CPU set that `POLL <pid> cpus` answers for the
        /// same registrations, in the same order, on the same CPU order —
        /// also after a pool is dropped (a `BYE` on the wire).
        #[test]
        fn controller_slots_match_the_wire_replies(
            cpus in 1usize..65,
            shuffle in any::<u64>(),
            workers in prop::collection::vec(1usize..48, 1..13),
            dropped in any::<usize>(),
        ) {
            let mut order: Vec<u32> = (0..cpus as u32).collect();
            let mut x = shuffle;
            for i in (1..order.len()).rev() {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
            let controller = Controller::start(cpus, order.clone(), Duration::from_secs(3600));
            let mut cfg = UdsServerConfig::new(PathBuf::new(), cpus);
            cfg.cpu_order = Some(order);
            let mut wire = ControlCore::new(cfg, 1);
            let now = Duration::ZERO;
            let mut pools: Vec<Option<Arc<TargetSlot>>> = Vec::new();
            for (pid, &n) in workers.iter().enumerate() {
                pools.push(Some(controller.register(n)));
                wire.frame(0, format!("REGISTER {pid} {n}").as_bytes(), now, |_| {});
            }
            let dropped = dropped % pools.len();
            for round in 0..2 {
                if round == 1 {
                    pools[dropped] = None;
                    wire.frame(0, format!("BYE {dropped}").as_bytes(), now, |_| {});
                }
                controller.recompute_now();
                for (pid, slot) in pools.iter().enumerate() {
                    let Some(slot) = slot else { continue };
                    let (target, set) = wire_target(&mut wire, pid as u32, now);
                    prop_assert_eq!(slot.target.load(Ordering::Acquire), target);
                    let mut slot_set = slot.cpus().expect("a set").to_vec();
                    slot_set.sort_unstable();
                    slot_set.dedup();
                    prop_assert_eq!(slot_set, set, "pool {} of {:?} on {} cpus", pid, workers, cpus);
                }
            }
        }
    }
}
