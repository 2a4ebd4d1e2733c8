//! Shared plumbing: seeded input generation, order statistics, the
//! result a workload hands back, in-memory spans written out as a
//! Perfetto trace, and the guards that keep multi-process workloads from
//! leaking children or sockets.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Directory (relative to the working directory, which keeps Unix
/// socket paths under their 108-byte limit) that holds everything a run
/// writes: per-run scratch directories, which are removed again, and
/// the traces of `--trace 1` runs, which are kept.
pub const OUT_DIR: &str = ".bench_all_out";

/// Set-ups per run (`setup_s` is their median), and under `--quick`.
const SETUPS: usize = 9;
const QUICK_SETUPS: usize = 2;

/// The machine's parallelism, read once at run time and recorded.
/// `available_parallelism` honours the calling thread's affinity mask,
/// which two workloads narrow: `main` asks before anything is pinned.
pub fn nproc() -> usize {
    static P: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *P.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// splitmix64. The benchmark's own generator, so that a change to the
/// simulator's `SimRng` cannot change the inputs both sides of an A/B see.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one named purpose.
    pub fn fork(&self, salt: u64) -> Rng {
        let mut r = Rng(self.0 ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Iterations of [`spin`] per microsecond on the container the job
/// lengths were calibrated on (a fixed count, never calibrated at run
/// time, so both sides of an A/B burn the same instructions).
pub const SPIN_ITERS_PER_US: u32 = 900;

/// A dependent multiply-add chain of `iters` steps: the "work" of the
/// synthetic pool jobs.
pub fn spin(iters: u32) {
    let mut x = u64::from(iters) | 1;
    for _ in 0..iters {
        x = std::hint::black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    std::hint::black_box(x);
}

/// A completion counter that jobs on different workers bump without
/// sharing a cache line (one shared counter would add the harness's own
/// line bouncing to every job it counts).
pub struct Striped([Stripe; 16]);

#[repr(align(128))]
#[derive(Default)]
struct Stripe(std::sync::atomic::AtomicU64);

impl Striped {
    /// Leaked, so that `'static` jobs can hold a plain reference instead
    /// of a reference count they would all contend on.
    pub fn leak() -> &'static Striped {
        Box::leak(Box::new(Striped(Default::default())))
    }

    pub fn add(&self) {
        self.0[this_tid() as usize % 16]
            .0
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    pub fn sum(&self) -> u64 {
        self.0
            .iter()
            .map(|s| s.0.load(std::sync::atomic::Ordering::Acquire))
            .sum()
    }
}

// ---------------------------------------------------------------------
// Contention meter
// ---------------------------------------------------------------------
//
// The sandbox's virtual CPUs share physical cores with other tenants: the
// same instruction stream runs up to 2x slower for seconds at a time, and
// identical runs of a compute-bound workload spread by 10-24 % (README,
// "Noise"). The meter runs a short fixed burst of arithmetic every few
// milliseconds beside such a workload; how much the burst is slowed is how
// much the core was shared at that moment, and the workload's timings are
// divided by it, sub-window by sub-window. On a quiet machine the factor
// is 1. The values as measured are reported beside the corrected ones.

/// Rounds of one reference burst and its uncontended duration on the
/// container this was calibrated on. On another CPU model the constant
/// scales every corrected number alike, on both sides of an A/B.
const REF_ROUNDS: u64 = 100_000;
const REF_NOMINAL_S: f64 = 195e-6;
/// How often the background meter runs its burst (~2 % of one CPU).
const METER_PERIOD: Duration = Duration::from_millis(10);

/// CPU time this thread has consumed, in seconds. The burst is timed on
/// this clock so that being descheduled in favour of the workload's own
/// threads does not read as a slow core.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime(2) writes one timespec through the pointer,
    // which is valid for the call; the layout is Linux's 64-bit one, the
    // only platform the multi-process workloads run on.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// One burst: eight independent multiply-rotate chains. CPU seconds it
/// took.
fn reference_burst() -> f64 {
    let t = thread_cpu_s();
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..REF_ROUNDS {
        for (k, v) in x.iter_mut().enumerate() {
            *v = (*v ^ (i + k as u64))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(13);
        }
    }
    std::hint::black_box(x);
    thread_cpu_s() - t
}

/// Records how slow the reference burst runs over time.
pub struct Meter {
    origin: Instant,
    /// `(seconds since origin, burst seconds)`.
    samples: std::sync::Arc<Mutex<Vec<(f64, f64)>>>,
    sampler: Option<(
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<()>,
    )>,
}

impl Meter {
    /// A meter the caller samples itself, on its own thread, between
    /// slices of its work (`sim_fig4`, which must not spawn threads).
    pub fn inline() -> Meter {
        Meter {
            origin: Instant::now(),
            samples: Default::default(),
            sampler: None,
        }
    }

    /// A meter sampled by a background thread, for workloads whose
    /// threads are the system under test.
    pub fn background() -> Meter {
        let mut m = Meter::inline();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (stop2, samples, origin) = (stop.clone(), m.samples.clone(), m.origin);
        let handle = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Acquire) {
                let at = origin.elapsed().as_secs_f64();
                let burst = reference_burst();
                samples.lock().expect("meter poisoned").push((at, burst));
                std::thread::sleep(METER_PERIOD);
            }
        });
        m.sampler = Some((stop, handle));
        m
    }

    /// Runs one burst on the calling thread; returns the seconds it took
    /// (so the caller can leave them out of what it times).
    pub fn sample(&self) -> f64 {
        let at = self.origin.elapsed().as_secs_f64();
        let burst = reference_burst();
        self.samples
            .lock()
            .expect("meter poisoned")
            .push((at, burst));
        burst
    }

    /// How much slower than nominal the reference ran between `t0` and
    /// `t1` seconds after the meter started (median of the bursts inside;
    /// the nearest burst when none is).
    fn slowdown(&self, t0: f64, t1: f64) -> f64 {
        let samples = self.samples.lock().expect("meter poisoned");
        let inside: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 >= t0 && s.0 <= t1)
            .map(|s| s.1)
            .collect();
        let burst = if inside.is_empty() {
            let mid = (t0 + t1) / 2.0;
            samples
                .iter()
                .min_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()))
                .map_or(REF_NOMINAL_S, |s| s.1)
        } else {
            median(&inside)
        };
        burst / REF_NOMINAL_S
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        if let Some((stop, handle)) = self.sampler.take() {
            stop.store(true, std::sync::atomic::Ordering::Release);
            let _ = handle.join();
        }
    }
}

/// Narrows the calling thread, and every thread it spawns meanwhile, to
/// the first CPU it is allowed on; the mask it had comes back on drop.
pub struct OneCpu(Vec<u32>);

impl OneCpu {
    pub fn pin() -> std::io::Result<OneCpu> {
        let status = std::fs::read_to_string("/proc/thread-self/status")?;
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .and_then(|l| native_rt::topology::parse_cpulist(l.trim()))
            .filter(|cpus| !cpus.is_empty())
            .ok_or_else(|| std::io::Error::other("no Cpus_allowed_list in /proc"))?;
        if !native_rt::topology::pin_current_thread(&allowed[..1]) {
            return Err(std::io::Error::other(format!(
                "could not pin to CPU {}",
                allowed[0]
            )));
        }
        Ok(OneCpu(allowed))
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        native_rt::topology::pin_current_thread(&self.0);
    }
}

/// Median of the values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of the values (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Splits timestamped samples `(seconds since window start, value)` into
/// `parts` equal sub-windows of a `span`-second window, applies `f` to
/// each sub-window's values, multiplies the result by `scale(from, to)`
/// of that sub-window and returns the median: stalled or crowded
/// sub-windows cannot move the reported number.
pub fn windowed(
    samples: &[(f64, f64)],
    (span, parts): (f64, usize),
    f: impl Fn(&[f64]) -> f64,
    scale: impl Fn(f64, f64) -> f64,
) -> f64 {
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); parts];
    for &(t, v) in samples {
        let i = ((t / span * parts as f64) as usize).min(parts - 1);
        bins[i].push(v);
    }
    let part = span / parts as f64;
    let per: Vec<f64> = bins
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(i, b)| f(b) * scale(i as f64 * part, (i + 1) as f64 * part))
        .collect();
    median(&per)
}

/// The `scale` of [`windowed`] for values reported as measured.
pub fn as_measured(_from: f64, _to: f64) -> f64 {
    1.0
}

/// What every workload run is given.
pub struct Ctx<'a> {
    pub seed: u64,
    /// Seconds to measure (or to size the fixed work for).
    pub seconds: f64,
    /// Tiny sizes: a smoke run, not a measurement.
    pub quick: bool,
    pub tracer: &'a Tracer,
    /// Set for the compute-bound workloads, whose end-to-end timings are
    /// corrected for how crowded the core was (`CORRECTED` in `main.rs`).
    pub meter: Option<&'a Meter>,
    /// Wall-clock cap: a hang becomes failed operations.
    pub deadline: Deadline,
}

impl Ctx<'_> {
    /// Seconds on the meter's clock: what [`Ctx::slowdown`] is asked in.
    pub fn now(&self) -> f64 {
        self.meter.map_or(0.0, |m| m.origin.elapsed().as_secs_f64())
    }

    /// The factor by which timings taken between `t0` and `t1` are
    /// corrected; 1 for a workload that is not.
    pub fn slowdown(&self, t0: f64, t1: f64) -> f64 {
        self.meter.map_or(1.0, |m| m.slowdown(t0, t1))
    }

    /// What the wall-clock interval from `t0` to `t1` would have lasted on
    /// an uncrowded core: every tenth of a second of it divided by the
    /// slowdown measured then. For fixed work whose makespan spans
    /// seconds, through which the crowding changes.
    pub fn corrected_secs(&self, t0: f64, t1: f64) -> f64 {
        const SLICE: f64 = 0.1;
        let mut total = 0.0;
        let mut from = t0;
        while from < t1 {
            let to = (from + SLICE).min(t1);
            total += (to - from) / self.slowdown(from, to);
            from = to;
        }
        total
    }

    /// Runs `f` as one set-up and records how long it took.
    pub fn timed_setup<T>(&self, out: &mut Outcome, f: impl FnOnce() -> T) -> T {
        let (t, at) = (Instant::now(), self.now());
        let v = f();
        let secs = t.elapsed().as_secs_f64();
        out.setups.push(secs / self.slowdown(at, at + secs));
        v
    }

    /// Sets up [`SETUPS`] times, timing each, and keeps the last. The
    /// previous set-up is torn down before the clock starts. A set-up
    /// that fails is a failed operation and ends the run (`None`).
    pub fn set_up<T>(
        &self,
        out: &mut Outcome,
        mut f: impl FnMut() -> std::io::Result<T>,
    ) -> Option<T> {
        let mut kept = None;
        for _ in 0..if self.quick { QUICK_SETUPS } else { SETUPS } {
            drop(kept.take());
            match self.timed_setup(out, &mut f) {
                Ok(v) => kept = Some(v),
                Err(e) => {
                    out.check(false, format!("set-up failed: {e}"));
                    return None;
                }
            }
        }
        kept
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (output checks included).
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for `failed`, printed to stderr.
    pub failures: Vec<String>,
    /// Set-up time of each set-up performed in this run.
    pub setups: Vec<f64>,
    /// The workload's headline rate and median latency (the contract's
    /// uniform end-to-end slots; README says what they are per workload).
    pub throughput_per_s: f64,
    pub latency_p50_us: f64,
    /// Per-layer metrics by declared name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Trace events child processes rendered, for the run's trace file.
    pub child_events: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.layer.insert(name, v);
    }

    /// Records a failed check.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        if n > 0 {
            self.failed += n;
            self.failures.push(why.into());
        }
    }

    /// Counts one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.fail(1, why);
        }
    }
}

/// A wall-clock cap: a hang becomes failed operations, not a stuck run.
#[derive(Clone, Copy)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(d: Duration) -> Deadline {
        Deadline(Instant::now() + d)
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }

    pub fn remaining(&self) -> Duration {
        self.0.saturating_duration_since(Instant::now())
    }
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock separate
/// processes share, used to stitch decision and effect across them.
pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One completed span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread, if any.
    pub parent: Option<u32>,
    pub id: u32,
    /// The workload operation (variant, tree, window, toggle) it belongs to.
    pub op: u64,
    pub tid: u32,
}

/// In-memory span recorder. Disabled (the `--trace 0` runs that produce
/// the end-to-end numbers) it costs one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin_wall_ns: u64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// Scheduling events drained from pool flight recorders
    /// `(ns since this tracer's origin, worker, kind code, arg)`.
    instants: Mutex<Vec<(u64, u16, &'static str, u32)>>,
}

/// Most spans kept per run; later ones are counted but dropped.
const SPAN_CAP: usize = 400_000;

thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
    static TID: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

static NEXT_TID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(1);

fn this_tid() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        }
        t.get()
    })
}

/// Open span; stamps its end into the tracer when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    /// `None` when tracing is off or the span cap was reached.
    id: Option<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin_wall_ns: wall_ns(),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            instants: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span around a call into `layer`.
    pub fn span(&self, layer: &'static str, name: &'static str, op: u64) -> SpanGuard<'_> {
        let mut guard = SpanGuard {
            tracer: self,
            id: None,
        };
        if !self.enabled {
            return guard;
        }
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        let start = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        if spans.len() >= SPAN_CAP {
            return guard;
        }
        let id = spans.len() as u32;
        spans.push(Span {
            layer,
            name,
            start_ns: start,
            end_ns: start,
            parent,
            id,
            op,
            tid: this_tid(),
        });
        drop(spans);
        SPAN_STACK.with(|s| s.borrow_mut().push(id));
        guard.id = Some(id);
        guard
    }

    /// Adds scheduling events drained from a pool's flight recorder,
    /// re-based from the recorder's clock origin onto this tracer's.
    pub fn add_recorder_events(&self, events: &[native_rt::TraceEvent]) {
        if !self.enabled {
            return;
        }
        let rec_origin = native_rt::trace::clock_origin();
        let shift = self.origin.saturating_duration_since(rec_origin).as_nanos() as u64;
        let mut out = self.instants.lock().expect("instants poisoned");
        for e in events {
            out.push((
                e.ts_ns.saturating_sub(shift),
                e.worker,
                e.kind.code(),
                e.arg,
            ));
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Self time per layer: each span's duration minus the part its
    /// children cover, summed by layer, in seconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                if let Some(c) = child_ns.get_mut(p as usize) {
                    *c += s.end_ns - s.start_ns;
                }
            }
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Records a span that ends now and lasted `dur`, for operations
    /// whose beginning is only known once they are over (overlapping
    /// windows on non-blocking connections).
    pub fn record(&self, layer: &'static str, name: &'static str, op: u64, dur: Duration) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
        let mut spans = self.spans.lock().expect("span list poisoned");
        if spans.len() < SPAN_CAP {
            let id = spans.len() as u32;
            spans.push(Span {
                layer,
                name,
                start_ns: end.saturating_sub(dur.as_nanos() as u64),
                end_ns: end,
                parent,
                id,
                op,
                tid: this_tid(),
            });
        }
    }

    /// Every span and recorder event as one Chrome/Perfetto trace event
    /// each, under process id `pid`. Timestamps are wall-clock
    /// microseconds, so events of different processes share one timeline.
    pub fn events(&self, pid: u32) -> Vec<String> {
        let spans = self.spans.lock().expect("span list poisoned");
        let instants = self.instants.lock().expect("instants poisoned");
        let wall_us = |ns: u64| (self.origin_wall_ns + ns) as f64 / 1e3;
        let mut out = Vec::with_capacity(spans.len() + instants.len());
        for s in spans.iter() {
            out.push(format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.tid,
                s.layer,
                s.name,
                wall_us(s.start_ns),
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent.map_or(-1, i64::from),
                s.op
            ));
        }
        for (ts, worker, code, arg) in instants.iter() {
            out.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"cat\":\"pool.recorder\",\"name\":\"{code}\",\"ts\":{:.3},\"args\":{{\"arg\":{arg}}}}}",
                1000 + u32::from(*worker),
                wall_us(*ts)
            ));
        }
        out
    }

    /// Writes this process's events, and `children` (events other
    /// processes rendered with [`Tracer::events`]), as one trace file,
    /// with the per-layer self time of this process's spans beside them.
    pub fn write_perfetto(
        &self,
        path: &Path,
        workload: &str,
        children: &[String],
    ) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            f,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"workload\":\"{workload}\",\"self_time_s\":{{"
        )?;
        for (i, (layer, s)) in self.self_time_by_layer().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}\"{layer}\":{s:.6}")?;
        }
        write!(f, "}}}},\"traceEvents\":[")?;
        let own = self.events(std::process::id());
        for (i, e) in own.iter().chain(children).enumerate() {
            if i > 0 {
                f.write_all(b",\n")?;
            }
            f.write_all(e.as_bytes())?;
        }
        write!(f, "]}}")?;
        f.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else {
            return;
        };
        let end = self.tracer.now_ns();
        SPAN_STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let mut spans = self.tracer.spans.lock().expect("span list poisoned");
        if let Some(s) = spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }
}

// ---------------------------------------------------------------------
// Processes and sockets
// ---------------------------------------------------------------------

/// A scratch directory unique to this run (pid + clock), removed with
/// everything in it — sockets, snapshots — when dropped, panics included.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn create(tag: &str) -> std::io::Result<RunDir> {
        let p = Path::new(OUT_DIR).join(format!(
            "run-{tag}-{}-{}",
            std::process::id(),
            wall_ns() % 1_000_000_000
        ));
        std::fs::create_dir_all(&p)?;
        Ok(RunDir(p))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pids of live children, for the wall-clock watchdog: it runs on its
/// own thread, where no guard's `Drop` will.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn forget_child(pid: u32) {
    if let Ok(mut c) = CHILDREN.lock() {
        c.retain(|&p| p != pid);
    }
}

/// SIGKILLs every child still registered (watchdog path only).
pub fn kill_registered_children() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    if let Ok(c) = CHILDREN.lock() {
        for &pid in c.iter() {
            // SAFETY: plain kill(2); the pids are children this process
            // spawned and has not reaped, so they cannot have been reused.
            unsafe {
                kill(pid as i32, 9);
            }
        }
    }
}

/// A child process that is killed and reaped when dropped, so a panic
/// or an early return never leaves `procctl-serverd` or an app behind.
pub struct ChildGuard {
    child: Option<Child>,
    pub stdin: Option<ChildStdin>,
    pub stdout: Option<BufReader<ChildStdout>>,
    pub name: String,
}

impl ChildGuard {
    /// Spawns `exe args…` with piped stdin/stdout (stderr inherited).
    pub fn spawn(name: &str, exe: &Path, args: &[String]) -> std::io::Result<ChildGuard> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().map(BufReader::new);
        if let Ok(mut c) = CHILDREN.lock() {
            c.push(child.id());
        }
        Ok(ChildGuard {
            child: Some(child),
            stdin,
            stdout,
            name: name.to_string(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Sends one line to the child's stdin.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self
            .stdin
            .as_mut()
            .ok_or_else(|| std::io::Error::other("stdin closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Reads stdout lines until one starts with `prefix`; an error if
    /// the stream ends first.
    pub fn wait_for_line(&mut self, prefix: &str) -> std::io::Result<()> {
        let out = self
            .stdout
            .as_mut()
            .ok_or_else(|| std::io::Error::other("stdout closed"))?;
        let mut line = String::new();
        loop {
            line.clear();
            if out.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other(format!(
                    "{} ended before printing {prefix}",
                    self.name
                )));
            }
            if line.starts_with(prefix) {
                return Ok(());
            }
        }
    }

    /// Waits (up to the deadline) for the child to exit by itself and
    /// returns whether it exited with status 0, plus the rest of stdout.
    pub fn finish(&mut self, deadline: Deadline) -> (bool, String) {
        self.stdin = None; // EOF tells a child waiting on stdin to stop
        let mut rest = String::new();
        let Some(mut child) = self.child.take() else {
            return (false, rest);
        };
        let pid = child.id();
        // Drain stdout on a helper thread so a chatty child cannot block
        // on a full pipe while we poll for its exit.
        let reader = self.stdout.take().map(|mut out| {
            std::thread::spawn(move || {
                let mut s = String::new();
                let _ = out.read_to_string(&mut s);
                s
            })
        });
        let ok = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if deadline.passed() => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(_) => break false,
            }
        };
        forget_child(pid);
        if let Some(r) = reader {
            rest = r.join().unwrap_or_default();
        }
        (ok, rest)
    }

    /// SIGTERM, so `procctl-serverd` runs its clean shutdown (removes its
    /// socket, writes its last snapshot); reaped like any other child.
    pub fn terminate(&mut self, deadline: Deadline) -> bool {
        if let Some(child) = &self.child {
            extern "C" {
                fn kill(pid: i32, sig: i32) -> i32;
            }
            // SAFETY: plain libc kill(2) on a pid we own and have not yet
            // reaped (the Child is still held), so it cannot be recycled.
            unsafe {
                kill(child.id() as i32, 15);
            }
        }
        self.finish(deadline).0
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            forget_child(child.id());
        }
    }
}

/// Path of a sibling binary built into the same directory as this one.
fn sibling_exe(name: &str) -> std::io::Result<PathBuf> {
    let me = std::env::current_exe()?;
    let dir = me
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no directory"))?;
    let p = dir.join(name);
    if p.exists() {
        Ok(p)
    } else {
        Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("{} not found beside {}", name, me.display()),
        ))
    }
}

/// Starts the real `procctl-serverd` on `sock` for `cpus` processors and
/// waits until it answers.
pub fn spawn_serverd(
    sock: &Path,
    cpus: usize,
    tracer: &Tracer,
    deadline: Deadline,
) -> std::io::Result<ChildGuard> {
    let _s = tracer.span("harness", "spawn_serverd", 0);
    let serverd = ChildGuard::spawn(
        "procctl-serverd",
        &sibling_exe("procctl-serverd")?,
        &[
            sock.to_string_lossy().into_owned(),
            "--cpus".into(),
            cpus.to_string(),
        ],
    )?;
    if !wait_for_socket(sock, deadline) {
        return Err(std::io::Error::other("procctl-serverd never answered"));
    }
    Ok(serverd)
}

/// Blocks until `path` accepts a connection (the server is up).
fn wait_for_socket(path: &Path, deadline: Deadline) -> bool {
    while !deadline.passed() {
        if std::os::unix::net::UnixStream::connect(path).is_ok() {
            return true;
        }
        // Short, so that set-up time is the server's start-up and not
        // where in this sleep it fell.
        std::thread::sleep(Duration::from_micros(200));
    }
    false
}

/// utime+stime of a process in nanoseconds, from `/proc/<pid>/stat`.
pub fn proc_cpu_ns(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12th and 13th after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut it = rest.split_whitespace();
    let utime: u64 = it.nth(11)?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux this runs on.
    Some((utime + stime) * 10_000_000)
}

/// `key=value` pairs of one line, as children report their results.
pub fn parse_kv(line: &str) -> BTreeMap<String, String> {
    line.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Numeric field of a parsed `key=value` line (0 when absent).
pub fn kv_f64(kv: &BTreeMap<String, String>, key: &str) -> f64 {
    kv.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Commit of the repository in the working directory, read from `.git`
/// there and nowhere above it (the driver's checkout is not a
/// repository, and nothing outside it is this benchmark's to read).
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.len() >= 7 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        commit[..7].to_string()
    } else {
        "unknown".to_string()
    }
}

/// `rustc --version`, or "unknown".
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}
