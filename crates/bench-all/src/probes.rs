//! Micro-probes: timed loops over one public function of one layer,
//! uncontended, on the calling thread. They bound how much a layer can
//! give back — a probe saving that does not reappear in the workload's
//! own per-job or per-frame cost is not a win. Each group runs only in
//! the traced run of the workloads that exercise its layer, so
//! `sim_fig4` still spawns no thread and `ctl_saturated` builds no pool.

use std::hint::black_box;
use std::time::{Duration, Instant};

use desim::{Calendar, SimDur, SimTime};
use machine::{CacheSim, CpuId, MachineConfig};
use native_rt::{
    Controller, CrConfig, CrGate, CrLock, EventKind, FlightRecorder, FrameBuffer, Injector,
    Registry, ServerSnapshot, SnapshotApp, SpscRing, Steal, TraceEvent,
};
use procctl::{assign_cpu_sets, partition, AppDemand};

use crate::harness::{median, Outcome};

/// Times `iters` calls of `f` (a hundredth of that under `--quick`), five
/// times over, and returns the median nanoseconds per call.
fn ns_per_call(quick: bool, iters: u32, mut f: impl FnMut()) -> f64 {
    let iters = if quick { (iters / 100).max(1) } else { iters };
    let rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&rounds)
}

/// `desim` and `machine`, the two layers under `simkernel`'s step.
pub fn sim_layers(out: &mut Outcome, quick: bool) {
    let mut cal: Calendar<u64> = Calendar::new();
    let mut now = 0u64;
    for i in 0..512u64 {
        cal.schedule(SimTime(i * 1_000), i);
    }
    out.set(
        "desim.calendar_ns_per_op",
        ns_per_call(quick, 200_000, || {
            let (t, e) = cal.pop().expect("steady size 512");
            now = t.nanos();
            cal.schedule(SimTime(now + 512_000 + (e % 7) * 1_000), e);
        }),
    );
    black_box(now);

    let cfg = MachineConfig::multimax16();
    let mut cache = CacheSim::new(cfg.cache, cfg.num_cpus);
    let mut i = 0u64;
    out.set(
        "machine.cache_ns_per_dispatch",
        ns_per_call(quick, 200_000, || {
            // 48 processes rotating over 16 processors: every dispatch
            // finds a partly evicted footprint, as in the overcommitted mix.
            let cpu = CpuId((i % 16) as usize);
            let tag = i % 48;
            black_box(cache.dispatch(cpu, tag, 512, 1.0));
            black_box(cache.run(cpu, tag, SimDur::from_millis(10)));
            i += 1;
        }),
    );
}

/// The partition arithmetic shared by all three server implementations.
pub fn control_core(out: &mut Outcome, quick: bool) {
    let three: Vec<AppDemand> = (0..3).map(|_| AppDemand::new(16)).collect();
    let many: Vec<AppDemand> = (0..64)
        .map(|i| AppDemand {
            processes: 2 + i % 7,
            weight: 1.0 + f64::from(i % 5),
        })
        .collect();
    out.set(
        "procctl.partition_ns_3apps",
        ns_per_call(quick, 200_000, || {
            black_box(partition(16, 2, black_box(&three)));
        }),
    );
    out.set(
        "procctl.partition_ns_64apps",
        ns_per_call(quick, 20_000, || {
            black_box(partition(64, 0, black_box(&many)));
        }),
    );
    let order: Vec<u32> = (0..64).collect();
    let targets: Vec<u32> = partition(64, 0, &many)
        .into_iter()
        .map(|t| t.max(1))
        .collect();
    out.set(
        "procctl.assign_cpu_sets_ns_64apps",
        ns_per_call(quick, 20_000, || {
            black_box(assign_cpu_sets(black_box(&order), black_box(&targets)));
        }),
    );
}

/// Frame reassembly and the snapshot codec, the reactor's two pure parts.
pub fn control_plane(out: &mut Outcome, quick: bool) {
    let mut wire = Vec::new();
    for i in 0..512u32 {
        wire.extend_from_slice(format!("POLL {}\n", 100_000 + i % 64).as_bytes());
    }
    let mut fb = FrameBuffer::new();
    out.set(
        "reactor.framebuffer_ns_per_frame",
        ns_per_call(quick, 400, || {
            fb.extend(black_box(&wire));
            while let Some(r) = fb.next_frame_range() {
                black_box(fb.frame_bytes(&r));
            }
        }) / 512.0,
    );

    let snap = ServerSnapshot {
        epoch: 1_700_000_000,
        apps: (0..64)
            .map(|i| SnapshotApp {
                pid: 100_000 + i,
                nworkers: 2 + i % 7,
                lease_remaining: Duration::from_millis(25_000 + u64::from(i)),
            })
            .collect(),
        reports: (0..64)
            .map(|i| (100_000 + i, format!("jobs_run={} steals={}", i * 1_000, i)))
            .collect(),
    };
    let text = snap.encode();
    out.set(
        "snapshot.encode_us_64apps",
        ns_per_call(quick, 2_000, || {
            black_box(black_box(&snap).encode());
        }) / 1e3,
    );
    out.set(
        "snapshot.decode_us_64apps",
        ns_per_call(quick, 2_000, || {
            black_box(ServerSnapshot::decode(black_box(&text)).expect("own encoding decodes"));
        }) / 1e3,
    );
}

/// The pool's building blocks, each on its uncontended path.
pub fn pool_blocks(out: &mut Outcome, nworkers: usize, quick: bool) {
    let (worker, stealer) = native_rt::deque::deque::<u64>();
    out.set(
        "deque.push_pop_ns",
        ns_per_call(quick, 500_000, || {
            worker.push(Box::new(1));
            black_box(worker.pop());
        }),
    );
    out.set(
        "deque.steal_ns",
        ns_per_call(quick, 500_000, || {
            worker.push(Box::new(1));
            match stealer.steal() {
                Steal::Success(v) => {
                    black_box(v);
                }
                Steal::Empty | Steal::Retry => unreachable!("one thread, one element"),
            }
        }),
    );

    let injector: Injector<u64> = Injector::new(nworkers);
    out.set(
        "injector.push_pop_ns",
        ns_per_call(quick, 500_000, || {
            injector.push(1);
            black_box(injector.pop(0));
        }),
    );

    let gate = CrGate::new(CrConfig::fixed(2));
    out.set(
        "crlock.gate_fast_ns",
        ns_per_call(quick, 500_000, || {
            black_box(gate.enter());
            black_box(gate.exit());
        }),
    );
    let lock: CrLock<u64> = CrLock::new(CrConfig::fixed(2), 0);
    out.set(
        "crlock.lock_ns",
        ns_per_call(quick, 500_000, || {
            *lock.lock() += 1;
        }),
    );

    let ring = SpscRing::new(256);
    let ev = TraceEvent {
        ts_ns: 1,
        worker: 0,
        kind: EventKind::JobStart,
        arg: 7,
    };
    out.set(
        "trace.ring_push_ns",
        ns_per_call(quick, 500_000, || {
            black_box(ring.push(black_box(ev)));
            black_box(ring.pop());
        }),
    );
    let registry = Registry::new();
    // Never drained, as between two polls of an always-on recorder: the
    // steady state is a full ring on its drop-oldest path.
    let recorder = FlightRecorder::new(1, 256, &registry);
    out.set(
        "trace.record_ns",
        ns_per_call(quick, 500_000, || {
            recorder.record(0, EventKind::Steal, 1);
        }),
    );

    let counter = registry.counter("probe_counter");
    out.set(
        "stats.counter_incr_ns",
        ns_per_call(quick, 2_000_000, || {
            counter.incr();
        }),
    );
    let hist = registry.histogram("probe_hist_ns");
    let mut v = 1u64;
    out.set(
        "stats.hist_record_ns",
        ns_per_call(quick, 2_000_000, || {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record(v >> 44);
        }),
    );
    // A registry the size of a pool's: ~25 counters, 4 gauges, 8 histograms.
    for i in 0..24 {
        registry.counter(&format!("probe_counter_{i}")).add(i);
    }
    for i in 0..4 {
        registry.gauge(&format!("probe_gauge_{i}")).set(i);
    }
    for i in 0..7 {
        let h = registry.histogram(&format!("probe_hist_{i}"));
        for s in 0..64u64 {
            h.record(1 << (s % 30));
        }
    }
    out.set(
        "stats.snapshot_us",
        ns_per_call(quick, 5_000, || {
            black_box(registry.snapshot());
        }) / 1e3,
    );

    // The ticker sleeps its whole interval before it notices a drop, so
    // the interval stays short; its own recomputes are noise here.
    let controller = Controller::new(nworkers, Duration::from_millis(50));
    let _slots: Vec<_> = (0..3).map(|_| controller.register(nworkers)).collect();
    out.set(
        "controller.recompute_us",
        ns_per_call(quick, 20_000, || {
            controller.recompute_now();
        }) / 1e3,
    );
}
