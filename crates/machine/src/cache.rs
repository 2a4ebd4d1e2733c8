//! Per-processor cache warmth model.
//!
//! The paper's fourth degradation mechanism is *processor cache corruption*:
//! every time a different process runs on a processor it evicts the previous
//! process's working set, which must be refetched at 50–100 cycles per line
//! on "scalable" machines. We model this at working-set granularity rather
//! than simulating individual lines:
//!
//! - each process has a *working set* of `ws_lines` cache lines;
//! - each processor remembers, per process, how many of that process's lines
//!   are still resident (its *footprint*);
//! - footprints decay exponentially with the amount of **other** processes'
//!   execution on that processor since the footprint was last touched
//!   (time constant [`CacheConfig::evict_tau`]);
//! - when a process is dispatched, the missing `ws_lines − resident` lines
//!   are refetched at [`CacheConfig::line_refill_cost`] each (scaled by bus
//!   contention), and that refill time does no useful work.
//!
//! This reproduces the qualitative behaviour the paper relies on: staying on
//! the same processor with no intervening processes is free; being
//! multiplexed with other applications makes every redispatch pay a reload
//! whose cost scales with miss latency.

use desim::SimDur;

use crate::config::CpuId;

/// Cache model parameters.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Time to refetch one working-set line after it has been evicted
    /// (uncontended).
    pub line_refill_cost: SimDur,
    /// Processor cache capacity, in lines; a single footprint never exceeds
    /// this.
    pub capacity_lines: u64,
    /// Exponential decay constant of a footprint under other processes'
    /// execution: after `evict_tau` of foreign execution, ~63% of the
    /// footprint has been evicted.
    pub evict_tau: SimDur,
}

#[derive(Clone, Debug)]
struct Footprint {
    /// Lines of this process still resident (estimate).
    resident: f64,
    /// This process's working-set size, in lines.
    ws_lines: u64,
    /// Value of the owning CPU's `exec_clock` when `resident` was last
    /// brought up to date.
    clock_at_update: u64,
}

#[derive(Clone, Debug)]
struct Pending {
    tag: u64,
    lines_left: f64,
    ns_per_line: f64,
}

#[derive(Clone, Debug, Default)]
struct CpuCache {
    /// Total nanoseconds of execution this CPU has performed.
    exec_clock: u64,
    /// Footprints indexed by tag; `None` for a tag never dispatched here
    /// (or forgotten). Grows to the largest tag dispatched on this CPU.
    footprints: Vec<Option<Footprint>>,
    pending: Option<Pending>,
}

impl CpuCache {
    fn footprint(&self, tag: u64) -> Option<&Footprint> {
        self.footprints.get(tag as usize)?.as_ref()
    }
}

/// Cache state for every processor of the machine.
///
/// Processes are identified by a `tag` that indexes a per-processor slot
/// table directly, so tags must be *dense small integers* (the kernel
/// passes raw pids, which it hands out sequentially from 0). Memory is
/// O(processors × largest tag dispatched); a sparse tag space — hashes,
/// addresses — would allocate a table as large as its largest value.
/// Only [`CacheSim::dispatch`] grows a table; queries about a tag never
/// seen allocate nothing.
#[derive(Clone, Debug)]
pub struct CacheSim {
    cfg: CacheConfig,
    cpus: Vec<CpuCache>,
}

impl CacheSim {
    /// Creates cold caches for `num_cpus` processors.
    pub fn new(cfg: CacheConfig, num_cpus: usize) -> Self {
        CacheSim {
            cfg,
            cpus: vec![CpuCache::default(); num_cpus],
        }
    }

    /// Brings `tag`'s footprint on `cpu` up to date and returns resident lines.
    fn refresh(cfg: &CacheConfig, cpu: &mut CpuCache, tag: u64, ws_lines: u64) -> f64 {
        let clock = cpu.exec_clock;
        let slot = tag as usize;
        if slot >= cpu.footprints.len() {
            cpu.footprints.resize(slot + 1, None);
        }
        let fp = cpu.footprints[slot].get_or_insert(Footprint {
            resident: 0.0,
            ws_lines,
            clock_at_update: clock,
        });
        fp.ws_lines = ws_lines;
        let foreign_ns = clock - fp.clock_at_update;
        if foreign_ns > 0 {
            let tau = cfg.evict_tau.nanos().max(1) as f64;
            fp.resident *= (-(foreign_ns as f64) / tau).exp();
            fp.clock_at_update = clock;
        }
        fp.resident
    }

    /// Called when the kernel dispatches process `tag` on `cpu`.
    ///
    /// Returns the cache-reload penalty: simulated time the process will
    /// spend refetching its working set before doing useful work.
    /// `bus_multiplier` scales the per-line cost for bus contention.
    pub fn dispatch(&mut self, cpu: CpuId, tag: u64, ws_lines: u64, bus_multiplier: f64) -> SimDur {
        debug_assert!(bus_multiplier >= 1.0);
        let cfg = self.cfg;
        let c = &mut self.cpus[cpu.0];
        let ws = ws_lines.min(cfg.capacity_lines);
        let resident = Self::refresh(&cfg, c, tag, ws);
        let cold = (ws as f64 - resident).max(0.0);
        let ns_per_line = cfg.line_refill_cost.nanos() as f64 * bus_multiplier;
        c.pending = Some(Pending {
            tag,
            lines_left: cold,
            ns_per_line,
        });
        SimDur((cold * ns_per_line).round() as u64)
    }

    /// Accounts `dur` of execution by `tag` on `cpu`.
    ///
    /// Returns the portion of `dur` that was *useful work* — i.e. `dur`
    /// minus any remaining cache-refill time from the last dispatch.
    pub fn run(&mut self, cpu: CpuId, tag: u64, dur: SimDur) -> SimDur {
        let CpuCache {
            exec_clock,
            footprints,
            pending,
        } = &mut self.cpus[cpu.0];
        // One slot lookup serves both the refill credit and the clock stamp.
        let mut fp = footprints.get_mut(tag as usize).and_then(Option::as_mut);
        let mut refill_ns = 0u64;
        match pending {
            Some(p) if p.tag == tag => {
                let need = (p.lines_left * p.ns_per_line).round() as u64;
                refill_ns = need.min(dur.nanos());
                let gained = if p.ns_per_line > 0.0 {
                    refill_ns as f64 / p.ns_per_line
                } else {
                    p.lines_left
                };
                p.lines_left = (p.lines_left - gained).max(0.0);
                // A remainder under half a nanosecond is retired too. It
                // rounds to a `need` of 0, so every later `run` would gain
                // 0 lines and change nothing, and `pending_refill` would
                // read 0, until the next `dispatch` overwrites `pending`;
                // retiring it skips that arithmetic and changes no result.
                let done = p.lines_left <= f64::EPSILON || p.lines_left * p.ns_per_line < 0.5;
                let fp = fp.as_deref_mut().expect("dispatched process has footprint");
                fp.resident = (fp.resident + gained).min(fp.ws_lines as f64);
                if done {
                    *pending = None;
                }
            }
            _ => {
                // Dispatch bookkeeping was for someone else (or absent):
                // treat the whole duration as warm execution.
                *pending = None;
            }
        }
        // Execution advances the CPU's clock; refreshing our own marker
        // afterwards means our own execution never decays our footprint.
        *exec_clock += dur.nanos();
        if let Some(fp) = fp {
            fp.clock_at_update = *exec_clock;
        }
        SimDur(dur.nanos() - refill_ns)
    }

    /// Remaining refill time from the last [`CacheSim::dispatch`] of `tag`
    /// on `cpu` — zero if the refill completed or the dispatch bookkeeping
    /// belongs to another process. Used by the kernel to schedule operation
    /// completions for processes that were granted a lock mid-occupancy.
    pub fn pending_refill(&self, cpu: CpuId, tag: u64) -> SimDur {
        match &self.cpus[cpu.0].pending {
            Some(p) if p.tag == tag => SimDur((p.lines_left * p.ns_per_line).round() as u64),
            _ => SimDur::ZERO,
        }
    }

    /// Fraction of `tag`'s working set resident on `cpu`, in `[0, 1]`.
    /// Returns 0 for processes never seen on that processor.
    pub fn warmth(&self, cpu: CpuId, tag: u64) -> f64 {
        let c = &self.cpus[cpu.0];
        match c.footprint(tag) {
            Some(fp) if fp.ws_lines > 0 => {
                let foreign_ns = c.exec_clock - fp.clock_at_update;
                let tau = self.cfg.evict_tau.nanos().max(1) as f64;
                let resident = fp.resident * (-(foreign_ns as f64) / tau).exp();
                (resident / fp.ws_lines as f64).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }

    /// Drops all cache state for an exited process: clears its slot on
    /// every processor (the tables keep their length).
    pub fn forget(&mut self, tag: u64) {
        for c in &mut self.cpus {
            if let Some(slot) = c.footprints.get_mut(tag as usize) {
                *slot = None;
            }
            if c.pending.as_ref().is_some_and(|p| p.tag == tag) {
                c.pending = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            line_refill_cost: SimDur::from_nanos(1_000),
            capacity_lines: 1_000,
            evict_tau: SimDur::from_millis(10),
        }
    }

    const CPU: CpuId = CpuId(0);

    #[test]
    fn first_dispatch_is_fully_cold() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 100, 1.0);
        assert_eq!(pen, SimDur::from_micros(100)); // 100 lines * 1 us
    }

    #[test]
    fn redispatch_with_no_interference_is_free() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 100, 1.0);
        cs.run(CPU, 1, pen + SimDur::from_millis(1));
        let pen2 = cs.dispatch(CPU, 1, 100, 1.0);
        assert_eq!(pen2, SimDur::ZERO);
        assert!((cs.warmth(CPU, 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn foreign_execution_evicts() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 100, 1.0);
        cs.run(CPU, 1, pen);
        // Someone else runs for 3 tau: warmth should drop to ~5%.
        let p2 = cs.dispatch(CPU, 2, 100, 1.0);
        cs.run(CPU, 2, p2 + SimDur::from_millis(30));
        let w = cs.warmth(CPU, 1);
        assert!(w < 0.06, "warmth {w}");
        let pen2 = cs.dispatch(CPU, 1, 100, 1.0);
        assert!(pen2 > SimDur::from_micros(90), "penalty {pen2}");
    }

    #[test]
    fn refill_time_is_not_useful_work() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 100, 1.0);
        assert_eq!(pen, SimDur::from_micros(100));
        // Run for half the refill: zero useful work.
        let useful = cs.run(CPU, 1, SimDur::from_micros(50));
        assert_eq!(useful, SimDur::ZERO);
        // Next 100 us: 50 finish the refill, 50 are useful.
        let useful = cs.run(CPU, 1, SimDur::from_micros(100));
        assert_eq!(useful, SimDur::from_micros(50));
    }

    #[test]
    fn partial_refill_is_remembered() {
        let mut cs = CacheSim::new(cfg(), 1);
        cs.dispatch(CPU, 1, 100, 1.0);
        cs.run(CPU, 1, SimDur::from_micros(40)); // 40 lines refilled
                                                 // Preempted immediately; redispatched with no foreign execution.
        let pen = cs.dispatch(CPU, 1, 100, 1.0);
        assert_eq!(pen, SimDur::from_micros(60));
    }

    #[test]
    fn bus_contention_scales_penalty() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 100, 2.0);
        assert_eq!(pen, SimDur::from_micros(200));
    }

    #[test]
    fn working_set_capped_by_capacity() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 5_000, 1.0);
        assert_eq!(pen, SimDur::from_millis(1)); // capped at 1000 lines
    }

    #[test]
    fn per_cpu_footprints_are_independent() {
        let mut cs = CacheSim::new(cfg(), 2);
        let pen = cs.dispatch(CpuId(0), 1, 100, 1.0);
        cs.run(CpuId(0), 1, pen + SimDur::from_millis(1));
        // Warm on cpu0, cold on cpu1.
        assert!(cs.warmth(CpuId(0), 1) > 0.99);
        assert_eq!(cs.warmth(CpuId(1), 1), 0.0);
        let pen1 = cs.dispatch(CpuId(1), 1, 100, 1.0);
        assert_eq!(pen1, SimDur::from_micros(100));
    }

    #[test]
    fn forget_drops_state() {
        let mut cs = CacheSim::new(cfg(), 1);
        let pen = cs.dispatch(CPU, 1, 100, 1.0);
        cs.run(CPU, 1, pen);
        cs.forget(1);
        assert_eq!(cs.warmth(CPU, 1), 0.0);
    }

    #[test]
    fn unknown_process_is_cold() {
        let cs = CacheSim::new(cfg(), 1);
        assert_eq!(cs.warmth(CPU, 42), 0.0);
    }

    #[test]
    fn queries_on_unseen_tags_do_not_grow_the_table() {
        let mut cs = CacheSim::new(cfg(), 2);
        assert_eq!(cs.warmth(CPU, 1 << 40), 0.0);
        assert_eq!(cs.pending_refill(CPU, 1 << 40), SimDur::ZERO);
        cs.forget(1 << 40);
        assert_eq!(
            cs.run(CPU, 1 << 40, SimDur::from_millis(1)),
            SimDur::from_millis(1)
        );
        assert!(cs.cpus.iter().all(|c| c.footprints.is_empty()));
        // Only a dispatch grows it, and only on its own processor.
        cs.dispatch(CPU, 5, 100, 1.0);
        assert_eq!(cs.cpus[0].footprints.len(), 6);
        assert!(cs.cpus[1].footprints.is_empty());
        cs.forget(5);
        assert_eq!(cs.cpus[0].footprints.len(), 6);
        assert!(cs.cpus[0].footprint(5).is_none());
    }
}
