//! The `lock_bench` harness: CR lock vs its bare inner spinlock.
//!
//! Hammers one shared counter from a sweep of thread counts and
//! critical-section grains, through three lock builds: the bare
//! [`native_rt::RawSpin`] (the baseline whose collapse concurrency
//! restriction prevents), [`native_rt::CrLock`] with a fixed active set
//! of one thread per host processor, and `CrLock` with the adaptive
//! sizer. The interesting regime is threads ≫ processors: every spinning
//! thread is a preemption hazard for the lock holder, so the bare lock's
//! throughput decays while the CR builds park the excess and stay flat.
//! At or below the active-set size the gate never culls and the two
//! builds should be indistinguishable — that overhead bound and the
//! oversubscribed win are what `results/lock_bench.json` records.

use std::cell::UnsafeCell;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use metrics::{table, JsonValue};
use native_rt::{AdaptiveConfig, CrConfig, CrLock, RawLock, RawSpin};

/// Which lock build serves the threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockKind {
    /// The bare test-and-test-and-set spinlock.
    Bare,
    /// [`CrLock`] with a fixed active set (one slot per host processor).
    Cr,
    /// [`CrLock`] with the adaptive sizer, starting from the same size.
    CrAdaptive,
}

impl LockKind {
    fn name(self) -> &'static str {
        match self {
            LockKind::Bare => "bare",
            LockKind::Cr => "cr",
            LockKind::CrAdaptive => "cr-adaptive",
        }
    }
}

/// How long the lock is held per operation, relative to the work done
/// outside it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// ~100 ns held: pure hand-off throughput.
    Short,
    /// ~2 µs held: long enough that a preempted holder strands real work.
    Long,
}

impl Section {
    fn name(self) -> &'static str {
        match self {
            Section::Short => "short",
            Section::Long => "long",
        }
    }

    /// (spins inside the critical section, spins outside it). The short
    /// section is ~1 µs — long enough that the gate's two extra atomic
    /// operations per acquisition are noise, short enough that hand-off
    /// latency still dominates beyond saturation.
    fn spins(self) -> (u64, u64) {
        match self {
            Section::Short => (300, 600),
            Section::Long => (6_000, 3_000),
        }
    }
}

/// One benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Lock build under test.
    pub kind: LockKind,
    /// Contending thread count.
    pub threads: usize,
    /// Critical-section grain.
    pub section: Section,
    /// Total lock acquisitions across all threads.
    pub ops: usize,
    /// Active-set size for the CR builds (ignored by `Bare`).
    pub active_max: usize,
}

impl Config {
    /// A short unique label, e.g. `cr/short/t32`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/t{}",
            self.kind.name(),
            self.section.name(),
            self.threads
        )
    }
}

/// Measured outcome of one configuration.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Lock acquisitions performed (equals `Config::ops`; asserted).
    pub ops: usize,
    /// Wall-clock from the start barrier to the last thread's exit.
    pub elapsed: Duration,
    /// Acquisitions per second over that window.
    pub ops_per_sec: f64,
    /// Gate passivations (0 for the bare build).
    pub cr_passivations: u64,
    /// Gate promotions (0 for the bare build).
    pub cr_promotions: u64,
    /// Final active-set size (None for the bare build).
    pub active_max_end: Option<usize>,
}

/// The inner spinlock on its own, protecting the same payload — the
/// baseline whose collapse the gate prevents.
struct Bare<T> {
    raw: RawSpin,
    data: UnsafeCell<T>,
}

// SAFETY: mutual exclusion — `with` brackets every access between
// `lock` and `unlock`, so at most one `&mut T` exists at a time.
unsafe impl<T: Send> Sync for Bare<T> {}

impl<T> Bare<T> {
    fn new(data: T) -> Self {
        Bare {
            raw: RawSpin::default(),
            data: UnsafeCell::new(data),
        }
    }

    fn with(&self, f: impl FnOnce(&mut T)) {
        self.raw.lock();
        // SAFETY: the raw lock is held for the whole closure call.
        f(unsafe { &mut *self.data.get() });
        self.raw.unlock();
    }
}

enum AnyLock {
    Bare(Arc<Bare<u64>>),
    Cr(Arc<CrLock<u64>>),
}

impl AnyLock {
    fn clone_handle(&self) -> AnyLock {
        match self {
            AnyLock::Bare(l) => AnyLock::Bare(Arc::clone(l)),
            AnyLock::Cr(l) => AnyLock::Cr(Arc::clone(l)),
        }
    }

    fn bump(&self, hold_spins: u64) {
        match self {
            AnyLock::Bare(l) => l.with(|v| {
                burn(hold_spins);
                *v += 1;
            }),
            AnyLock::Cr(l) => {
                let mut g = l.lock();
                burn(hold_spins);
                *g += 1;
            }
        }
    }

    fn value(&self) -> u64 {
        match self {
            AnyLock::Bare(l) => {
                let mut v = 0;
                l.with(|d| v = *d);
                v
            }
            AnyLock::Cr(l) => *l.lock(),
        }
    }
}

/// Burns roughly `spins` iterations of untraceable arithmetic.
#[inline]
fn burn(spins: u64) {
    let mut acc = 0u64;
    for i in 0..spins {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
}

/// Runs one configuration and measures it.
pub fn run_config(cfg: &Config) -> Outcome {
    let lock = match cfg.kind {
        LockKind::Bare => AnyLock::Bare(Arc::new(Bare::new(0))),
        LockKind::Cr => AnyLock::Cr(Arc::new(CrLock::new(CrConfig::fixed(cfg.active_max), 0))),
        LockKind::CrAdaptive => AnyLock::Cr(Arc::new(CrLock::new(
            CrConfig::fixed(cfg.active_max).with_adaptive(AdaptiveConfig::default()),
            0,
        ))),
    };
    let (hold, outside) = cfg.section.spins();
    let per_thread = cfg.ops / cfg.threads;
    let ops = per_thread * cfg.threads;
    let gate = Arc::new(Barrier::new(cfg.threads + 1));
    let threads: Vec<_> = (0..cfg.threads)
        .map(|_| {
            let lock = lock.clone_handle();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                gate.wait();
                for _ in 0..per_thread {
                    lock.bump(hold);
                    burn(outside);
                }
            })
        })
        .collect();
    gate.wait();
    let start = Instant::now();
    for t in threads {
        t.join().expect("bench thread panicked");
    }
    let elapsed = start.elapsed();
    assert_eq!(lock.value(), ops as u64, "acquisitions lost");

    let (cr_passivations, cr_promotions, active_max_end) = match &lock {
        AnyLock::Bare(_) => (0, 0, None),
        AnyLock::Cr(l) => {
            let (p, pr) = l.gate().counters();
            (p, pr, Some(l.gate().active_max()))
        }
    };
    Outcome {
        ops,
        elapsed,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        cr_passivations,
        cr_promotions,
        active_max_end,
    }
}

/// The benchmark matrix. `smoke` shrinks it to a CI-friendly subset.
/// The CR builds' active set is one slot per host processor, capped at
/// the thread count — below the cap the gate should be invisible.
pub fn suite(smoke: bool) -> Vec<Config> {
    let cpus = std::thread::available_parallelism().map_or(4, |n| n.get());
    let (threads, ops_scale): (Vec<usize>, usize) = if smoke {
        (vec![1, 2, cpus, 4 * cpus], 1)
    } else {
        (vec![1, 2, cpus / 2, cpus, 2 * cpus, 4 * cpus, 8 * cpus], 8)
    };
    let mut seen = Vec::new();
    for t in threads {
        if t >= 1 && !seen.contains(&t) {
            seen.push(t);
        }
    }
    let threads = seen;
    let mut cfgs = Vec::new();
    for &kind in &[LockKind::Bare, LockKind::Cr, LockKind::CrAdaptive] {
        for &section in &[Section::Short, Section::Long] {
            for &t in &threads {
                let base = match section {
                    Section::Short => 40_000,
                    Section::Long => 5_000,
                };
                cfgs.push(Config {
                    kind,
                    threads: t,
                    section,
                    ops: base * ops_scale,
                    active_max: cpus.min(t.max(1)),
                });
            }
        }
    }
    cfgs
}

/// CR-over-bare throughput ratio for every matched (section, threads)
/// pair, as `(label, ratio)`.
pub fn speedups(results: &[(Config, Outcome)]) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (cfg, o) in results {
        if cfg.kind == LockKind::Bare {
            continue;
        }
        let twin = results.iter().find(|(c, _)| {
            c.kind == LockKind::Bare
                && c.section == cfg.section
                && c.threads == cfg.threads
                && c.ops == cfg.ops
        });
        if let Some((_, bare)) = twin {
            out.push((cfg.label(), o.ops_per_sec / bare.ops_per_sec.max(1e-9)));
        }
    }
    out
}

/// Renders the results as an aligned stdout table.
pub fn results_table(results: &[(Config, Outcome)]) -> String {
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(cfg, o)| {
            vec![
                cfg.label(),
                o.ops.to_string(),
                format!("{:.0}", o.ops_per_sec),
                o.cr_passivations.to_string(),
                o.cr_promotions.to_string(),
                o.active_max_end
                    .map_or_else(|| "-".to_string(), |m| m.to_string()),
            ]
        })
        .collect();
    table(
        &["config", "ops", "ops/sec", "culls", "promos", "set"],
        &rows,
    )
}

/// The machine-readable report (`results/lock_bench.json`).
pub fn results_json(results: &[(Config, Outcome)]) -> JsonValue {
    let runs: Vec<JsonValue> = results
        .iter()
        .map(|(cfg, o)| {
            JsonValue::obj([
                ("config", JsonValue::str(cfg.label())),
                ("kind", JsonValue::str(cfg.kind.name())),
                ("section", JsonValue::str(cfg.section.name())),
                ("threads", JsonValue::uint(cfg.threads as u64)),
                ("active_max", JsonValue::uint(cfg.active_max as u64)),
                ("ops", JsonValue::uint(o.ops as u64)),
                ("elapsed_us", JsonValue::uint(o.elapsed.as_micros() as u64)),
                ("ops_per_sec", JsonValue::num(o.ops_per_sec)),
                ("cr_passivations", JsonValue::uint(o.cr_passivations)),
                ("cr_promotions", JsonValue::uint(o.cr_promotions)),
                (
                    "active_max_end",
                    o.active_max_end
                        .map_or(JsonValue::Null, |m| JsonValue::uint(m as u64)),
                ),
            ])
        })
        .collect();
    let ratio_objs: Vec<JsonValue> = speedups(results)
        .into_iter()
        .map(|(label, s)| {
            JsonValue::obj([
                ("config", JsonValue::str(label)),
                ("cr_over_bare", JsonValue::num(s)),
            ])
        })
        .collect();
    JsonValue::obj([
        ("benchmark", JsonValue::str("lock_bench")),
        ("runs", JsonValue::Arr(runs)),
        ("speedups", JsonValue::Arr(ratio_objs)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_build_counts_exactly() {
        for kind in [LockKind::Bare, LockKind::Cr, LockKind::CrAdaptive] {
            let cfg = Config {
                kind,
                threads: 4,
                section: Section::Short,
                ops: 400,
                active_max: 2,
            };
            let o = run_config(&cfg);
            assert_eq!(o.ops, 400);
            if kind == LockKind::Bare {
                assert_eq!(o.cr_passivations, 0);
                assert!(o.active_max_end.is_none());
            }
        }
    }

    #[test]
    fn smoke_suite_is_small_and_full_is_larger() {
        let smoke = suite(true);
        let full = suite(false);
        assert!(!smoke.is_empty());
        assert!(smoke.len() < full.len());
    }

    #[test]
    fn json_report_round_trips() {
        let cfgs: Vec<Config> = [LockKind::Bare, LockKind::Cr]
            .iter()
            .map(|&kind| Config {
                kind,
                threads: 2,
                section: Section::Short,
                ops: 200,
                active_max: 2,
            })
            .collect();
        let results: Vec<_> = cfgs.iter().map(|c| (*c, run_config(c))).collect();
        let j = results_json(&results);
        assert_eq!(j.get("runs").and_then(JsonValue::as_arr).unwrap().len(), 2);
        assert_eq!(
            j.get("speedups").and_then(JsonValue::as_arr).unwrap().len(),
            1
        );
        metrics::json::parse(&j.render_pretty()).expect("valid json");
    }
}
