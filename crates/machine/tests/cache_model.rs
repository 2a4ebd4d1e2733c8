//! `CacheSim`'s slot table against a `HashMap`-backed model.
//!
//! The model below is the cache model written the obvious way — one
//! `HashMap<tag, footprint>` per processor — with the same floating-point
//! operations in the same order. Random `dispatch`/`run`/`forget`/`warmth`
//! sequences must return the same durations and the same warmth *bit for
//! bit*: the simulator's figures are byte-identical only while that holds.

use std::collections::HashMap;

use desim::SimDur;
use machine::{CacheConfig, CacheSim, CpuId};
use proptest::prelude::*;

struct Footprint {
    resident: f64,
    ws_lines: u64,
    clock_at_update: u64,
}

struct Pending {
    tag: u64,
    lines_left: f64,
    ns_per_line: f64,
}

#[derive(Default)]
struct ModelCpu {
    exec_clock: u64,
    footprints: HashMap<u64, Footprint>,
    pending: Option<Pending>,
}

struct Model {
    cfg: CacheConfig,
    cpus: Vec<ModelCpu>,
}

impl Model {
    fn new(cfg: CacheConfig, num_cpus: usize) -> Self {
        Model {
            cfg,
            cpus: (0..num_cpus).map(|_| ModelCpu::default()).collect(),
        }
    }

    fn tau(&self) -> f64 {
        self.cfg.evict_tau.nanos().max(1) as f64
    }

    fn dispatch(&mut self, cpu: usize, tag: u64, ws_lines: u64, bus_multiplier: f64) -> SimDur {
        let tau = self.tau();
        let ws = ws_lines.min(self.cfg.capacity_lines);
        let c = &mut self.cpus[cpu];
        let clock = c.exec_clock;
        let fp = c.footprints.entry(tag).or_insert(Footprint {
            resident: 0.0,
            ws_lines: ws,
            clock_at_update: clock,
        });
        fp.ws_lines = ws;
        let foreign_ns = clock - fp.clock_at_update;
        if foreign_ns > 0 {
            fp.resident *= (-(foreign_ns as f64) / tau).exp();
            fp.clock_at_update = clock;
        }
        let cold = (ws as f64 - fp.resident).max(0.0);
        let ns_per_line = self.cfg.line_refill_cost.nanos() as f64 * bus_multiplier;
        c.pending = Some(Pending {
            tag,
            lines_left: cold,
            ns_per_line,
        });
        SimDur((cold * ns_per_line).round() as u64)
    }

    fn run(&mut self, cpu: usize, tag: u64, dur: SimDur) -> SimDur {
        let c = &mut self.cpus[cpu];
        let mut refill_ns = 0u64;
        match c.pending.take() {
            Some(mut p) if p.tag == tag => {
                let need = (p.lines_left * p.ns_per_line).round() as u64;
                refill_ns = need.min(dur.nanos());
                let gained = if p.ns_per_line > 0.0 {
                    refill_ns as f64 / p.ns_per_line
                } else {
                    p.lines_left
                };
                p.lines_left = (p.lines_left - gained).max(0.0);
                let fp = c.footprints.get_mut(&tag).expect("dispatched");
                fp.resident = (fp.resident + gained).min(fp.ws_lines as f64);
                if p.lines_left > f64::EPSILON {
                    c.pending = Some(p);
                }
            }
            _ => {}
        }
        c.exec_clock += dur.nanos();
        if let Some(fp) = c.footprints.get_mut(&tag) {
            fp.clock_at_update = c.exec_clock;
        }
        SimDur(dur.nanos() - refill_ns)
    }

    fn pending_refill(&self, cpu: usize, tag: u64) -> SimDur {
        match &self.cpus[cpu].pending {
            Some(p) if p.tag == tag => SimDur((p.lines_left * p.ns_per_line).round() as u64),
            _ => SimDur::ZERO,
        }
    }

    fn warmth(&self, cpu: usize, tag: u64) -> f64 {
        let c = &self.cpus[cpu];
        match c.footprints.get(&tag) {
            Some(fp) if fp.ws_lines > 0 => {
                let foreign_ns = c.exec_clock - fp.clock_at_update;
                let resident = fp.resident * (-(foreign_ns as f64) / self.tau()).exp();
                (resident / fp.ws_lines as f64).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }

    fn forget(&mut self, tag: u64) {
        for c in &mut self.cpus {
            c.footprints.remove(&tag);
            if c.pending.as_ref().is_some_and(|p| p.tag == tag) {
                c.pending = None;
            }
        }
    }
}

const CPUS: usize = 3;
/// Tags 0..TAGS are dispatched; queries also use tags past the table's end.
const TAGS: u64 = 12;

fn cfg() -> CacheConfig {
    CacheConfig {
        line_refill_cost: SimDur::from_nanos(700),
        capacity_lines: 400,
        evict_tau: SimDur::from_millis(3),
    }
}

proptest! {
    #[test]
    fn slot_table_matches_hashmap_model(
        ops in prop::collection::vec(
            (0u8..8, 0usize..CPUS, 0u64..TAGS + 4, 0u64..6_000_000, 0u8..3),
            1..400,
        ),
    ) {
        let mut real = CacheSim::new(cfg(), CPUS);
        let mut model = Model::new(cfg(), CPUS);
        for (what, cpu, tag, amount, bus) in ops {
            match what {
                // Dispatch (with or without the run that normally follows)
                // only ever names a dense tag, as the kernel does.
                0..=2 => {
                    let tag = tag % TAGS;
                    let ws = 50 + (amount % 600); // some exceed capacity
                    let mult = 1.0 + f64::from(bus) * 0.37;
                    prop_assert_eq!(
                        real.dispatch(CpuId(cpu), tag, ws, mult),
                        model.dispatch(cpu, tag, ws, mult)
                    );
                }
                // Run: for the dispatched process, for another one, or for
                // a tag no table has a slot for.
                3..=5 => {
                    let dur = SimDur(amount);
                    prop_assert_eq!(real.run(CpuId(cpu), tag, dur), model.run(cpu, tag, dur));
                }
                6 => {
                    real.forget(tag);
                    model.forget(tag);
                }
                _ => {}
            }
            prop_assert_eq!(real.pending_refill(CpuId(cpu), tag), model.pending_refill(cpu, tag));
            for c in 0..CPUS {
                prop_assert_eq!(
                    real.warmth(CpuId(c), tag).to_bits(),
                    model.warmth(c, tag).to_bits()
                );
            }
        }
    }
}
