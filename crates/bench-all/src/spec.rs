//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is rendered from these tables
//! (`bench_all --print-benchmark-json`) and `tests/schema.rs` holds the
//! two byte-identical, so a name exists in exactly one place.

/// One workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric a user of the system would see, guarded by `bound`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A metric of a single layer (no bound; explains the end-to-end rows).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Seconds one run measures (`run_seconds` of the contract).
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "sim_fig4",
        why: "Sim stack only: the paper's Fig-4 mix, control on and off, over seed-jittered variants; native-rt does nothing, simulated statistics repeat exactly",
    },
    Workload {
        name: "native_mix",
        why: "The paper's metric on real threads: procctl-serverd + 3 staggered app processes running fft/sort/matmul kernels at 3x overcommit; control decisions set the result",
    },
    Workload {
        name: "pool_forkjoin",
        why: "Pool closed loop, binary trees of empty jobs forked inside workers: local-deque fast path only; injector, wake path and control plane idle",
    },
    Workload {
        name: "pool_external",
        why: "Same pool fed by one outside thread: saturated injector path, then an open loop at a fixed rate with an oscillating target, so park/unpark and suspend/resume set the latency",
    },
    Workload {
        name: "ctl_saturated",
        why: "In-process reactor server, 64 registered pids, pipelined 512-frame windows mixing POLL/REPORT/REGISTER/BYE: control-plane throughput with writes beside reads; no pool",
    },
    Workload {
        name: "ctl_effect",
        why: "Idle-server regime: serverd child competing with 2 overcommitted app processes while the driver polls each ms and toggles the partition: decision-to-effect latency",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

const fn up(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

const fn down(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

pub const PER_LAYER: &[Layer] = &[
    // The issue's workload-specific end-to-end rows. The contract wants
    // every end-to-end metric on every workload, so these live here
    // under the name of the layer that produces them.
    up("sim.events_per_s", "1/s"),
    down("sim.makespan_s", "s"),
    up("sim.ctl_speedup", "ratio"),
    down("sim.variant_p50_ms", "ms"),
    down("sim.variant_tail_ms", "ms"),
    down("mix.makespan_ctl_s", "s"),
    down("mix.makespan_noctl_s", "s"),
    up("mix.ctl_speedup", "ratio"),
    up("pool.jobs_per_s", "1/s"),
    up("pool.jobs_per_s_unpinned", "1/s"),
    down("pool.lat_p50_us", "us"),
    down("pool.lat_p99_us", "us"),
    up("ctl.frames_per_s", "1/s"),
    down("ctl.rtt_p50_us", "us"),
    down("ctl.rtt_p99_us", "us"),
    down("ctl.effect_p50_ms", "ms"),
    down("ctl.effect_p95_ms", "ms"),
    // Sim stack: host speed.
    down("desim.calendar_ns_per_op", "ns"),
    down("machine.cache_ns_per_dispatch", "ns"),
    down("simkernel.ns_per_step", "ns"),
    down("simkernel.steps", "count"),
    // Sim stack: exact simulated counts (must not move with host speed).
    up("simkernel.work_share", "ratio"),
    down("simkernel.spin_share", "ratio"),
    down("simkernel.refill_share", "ratio"),
    down("simkernel.switch_share", "ratio"),
    down("simkernel.spin_share_noctl", "ratio"),
    down("simkernel.preemptions", "count"),
    down("simkernel.dispatches", "count"),
    up("uthreads.tasks_run", "count"),
    down("uthreads.suspends", "count"),
    down("uthreads.resumes", "count"),
    down("uthreads.polls", "count"),
    down("uthreads.idle_spin_s", "s"),
    down("uthreads.converge_p50_s", "s"),
    down("procctl.sim_sweeps", "count"),
    // Control core probes.
    down("procctl.partition_ns_3apps", "ns"),
    down("procctl.partition_ns_64apps", "ns"),
    down("procctl.assign_cpu_sets_ns_64apps", "ns"),
    up("procctl.recompute_coalesced_ratio", "ratio"),
    // Kernels: single-threaded baselines, no pool.
    down("workloads.fft_solo_s", "s"),
    down("workloads.sort_solo_s", "s"),
    down("workloads.matmul_solo_s", "s"),
    down("workloads.sim_spec_build_ms", "ms"),
    // Pool counters and histograms.
    down("pool.worker_ns_per_job", "ns"),
    up("pool.local_share", "ratio"),
    down("pool.injector_share", "ratio"),
    down("pool.steal_share", "ratio"),
    down("pool.steal_fail_ratio", "ratio"),
    down("pool.injector_sweep_skips", "count"),
    down("pool.parks", "count"),
    down("pool.park_ns_p50", "ns"),
    down("pool.spin_before_park_ns_p50", "ns"),
    down("pool.wake_to_run_ns_p50", "ns"),
    down("pool.wake_to_run_ns_p99", "ns"),
    down("pool.queue_wait_ns_p99", "ns"),
    down("pool.suspends", "count"),
    down("pool.resumes", "count"),
    down("pool.suspend_to_resume_ns_p50", "ns"),
    down("pool.trace_dropped", "count"),
    down("pool.gen_late_p99_us", "us"),
    // Pool building blocks: uncontended micro-probes.
    down("deque.push_pop_ns", "ns"),
    down("deque.steal_ns", "ns"),
    down("injector.push_pop_ns", "ns"),
    down("crlock.gate_fast_ns", "ns"),
    down("crlock.lock_ns", "ns"),
    down("trace.ring_push_ns", "ns"),
    down("trace.record_ns", "ns"),
    down("stats.counter_incr_ns", "ns"),
    down("stats.hist_record_ns", "ns"),
    down("stats.snapshot_us", "us"),
    down("controller.recompute_us", "us"),
    // Control plane: reactor, wire, snapshot.
    down("reactor.framebuffer_ns_per_frame", "ns"),
    up("reactor.frames_per_wakeup", "ratio"),
    up("reactor.batched_share", "ratio"),
    down("reactor.timer_fires", "count"),
    down("uds.reply_p50_us", "us"),
    down("uds.reply_p99_us", "us"),
    up("uds.polls", "count"),
    up("uds.reports", "count"),
    up("uds.registers", "count"),
    down("uds.malformed", "count"),
    down("uds.lease_expiries", "count"),
    down("snapshot.encode_us_64apps", "us"),
    down("snapshot.decode_us_64apps", "us"),
    down("snapshot.writes", "count"),
    // Control loop as an app sees it.
    down("uds.server_cpu_ns_per_frame", "ns"),
    down("supervise.poll_target_us_p50", "us"),
    down("supervise.reconnects", "count"),
    down("supervise.degraded_enters", "count"),
    down("effect.decision_to_seen_ms_p50", "ms"),
    down("effect.seen_to_active_ms_p50", "ms"),
    // The harness itself.
    up("harness.nproc", "count"),
    down("harness.trace_overhead_ratio", "ratio"),
    down("harness.spans", "count"),
    down("harness.slowdown", "ratio"),
];

/// Renders `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"crates/bench-all/run.sh\"],\n");
    s.push_str("  \"paths\": [\"crates/bench-all\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}\n",
            w.name, w.why
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
