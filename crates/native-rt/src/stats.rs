//! Lock-free runtime statistics: named counters, gauges, and log-bucketed
//! latency histograms with a snapshot API.
//!
//! Hot paths (worker safe points, job dequeues, park/unpark) touch only
//! pre-registered atomics with `Relaxed` ordering — a statistic is a
//! statistic, not a synchronization edge. The registry's map is locked only
//! at registration and snapshot time. Snapshots are advisory under
//! concurrent updates: each histogram's totals are derived from one pass
//! over its buckets, so every snapshot is internally consistent even if it
//! interleaves with writers. Counters bumped once per job by every
//! worker do not live here at all: a [`CounterSource`] (the pool's
//! per-worker [cells](crate::quiesce)) is summed into the snapshot under
//! the same names, so the per-job path owns its lines.
//!
//! This is the workspace's one counters/gauges/histograms implementation;
//! the simulation side reports through its own ledgers and traces.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::sync::{AtomicI64, AtomicU64, Mutex, Ordering};

const BUCKETS: usize = 65;

/// The bucket index for a value: 0 for 0, else `ilog2(v) + 1`.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The smallest value bucket `b` can hold.
fn bucket_lo(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << (b - 1)
    }
}

/// The largest value bucket `b` can hold.
fn bucket_hi(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b == BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A log-bucketed histogram updated with relaxed atomics.
pub struct AtomicHistogram {
    // sched-atomic(relaxed): statistics only; snapshots tolerate torn
    // cross-field reads by design (see Hist docs).
    buckets: [AtomicU64; BUCKETS],
    // sched-atomic(relaxed): see `buckets`.
    sum: AtomicU64,
    // sched-atomic(relaxed): see `buckets`.
    min: AtomicU64,
    // sched-atomic(relaxed): see `buckets`.
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Records one sample (typically nanoseconds).
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v` — how a one-in-`n` sampled
    /// measurement keeps `count`, `sum` and the quantiles estimating the
    /// whole population.
    pub fn record_n(&self, v: u64, n: u64) {
        self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        // Almost every sample lies inside the range already seen: look
        // before paying for the two CAS-loop RMWs.
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Reads the current contents into a plain snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (b, c) in self.buckets.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                count += c;
                buckets.push((bucket_lo(b), bucket_hi(b), c));
            }
        }
        HistSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// A point-in-time copy of an [`AtomicHistogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded (sum of bucket counts at snapshot time).
    pub count: u64,
    /// Sum of all samples (wraps at `u64::MAX`; irrelevant for latencies).
    pub sum: u64,
    /// Smallest sample, or `None` when empty.
    pub min: Option<u64>,
    /// Largest sample, or `None` when empty.
    pub max: Option<u64>,
    /// Non-empty buckets as `(lo, hi, count)`, in increasing order.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistSnapshot {
    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile: the top of the first bucket
    /// whose cumulative count reaches `q × count`, clamped to the observed
    /// maximum. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(_, hi, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Some(hi.min(self.max.unwrap_or(hi)));
            }
        }
        self.max
    }
}

/// A monotonic counter handle (cheap to clone, updates are `Relaxed`).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle (e.g. live worker count vs target).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Stores the current value — only when it differs, so a gauge that
    /// many threads re-publish unchanged stays a read-shared line.
    pub fn set(&self, v: i64) {
        if self.0.load(Ordering::Relaxed) != v {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle.
#[derive(Clone)]
pub struct Hist(Arc<AtomicHistogram>);

impl Hist {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// Records `n` samples of value `v` (see
    /// [`AtomicHistogram::record_n`]).
    pub fn record_n(&self, v: u64, n: u64) {
        self.0.record_n(v, n);
    }

    /// Reads the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        self.0.snapshot()
    }
}

/// Counters that live outside the registry's own map — e.g. the pool's
/// per-worker single-writer cells — and are read when a snapshot is
/// taken, so exports see them under plain counter names with current
/// values.
pub trait CounterSource: Send + Sync {
    /// Calls `emit(name, value)` once per counter.
    fn read_counters(&self, emit: &mut dyn FnMut(&str, u64));
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
    sources: Vec<Arc<dyn CounterSource>>,
}

/// A named registry of counters, gauges, and histograms.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        Counter(Arc::clone(
            inner
                .counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        ))
    }

    /// Gets or creates the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        Gauge(Arc::clone(
            inner
                .gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0))),
        ))
    }

    /// Gets or creates the named histogram.
    pub fn histogram(&self, name: &str) -> Hist {
        let mut inner = self.inner.lock();
        Hist(Arc::clone(
            inner
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicHistogram::default())),
        ))
    }

    /// Adds a [`CounterSource`]: every snapshot from now on includes its
    /// counters (added to a registered counter of the same name, if any).
    pub fn counter_source(&self, source: Arc<dyn CounterSource>) {
        self.inner.lock().sources.push(source);
    }

    /// Copies every statistic out, in name order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut counters: BTreeMap<String, u64> = inner
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        for source in &inner.sources {
            source.read_counters(&mut |name, value| {
                *counters.entry(name.to_string()).or_default() += value;
            });
        }
        Snapshot {
            counters,
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Per-counter increase since an `earlier` snapshot of the same
    /// registry (saturating, so a counter absent earlier reports its full
    /// value) — what `bench_all` uses to attribute one measurement
    /// phase's jobs to the local/injector/steal acquisition paths.
    pub fn counters_delta(&self, earlier: &Snapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, &v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect()
    }

    /// Renders scalar statistics as sorted `name=value` pairs on one line
    /// (histograms contribute `name.count`, `name.mean`, `name.p50`, and
    /// `name.p99`) — the payload of the UDS `STATS` reply and the rows of
    /// `schedtop`.
    pub fn render_line(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (k, v) in &self.counters {
            parts.push(format!("{k}={v}"));
        }
        for (k, v) in &self.gauges {
            parts.push(format!("{k}={v}"));
        }
        for (k, h) in &self.histograms {
            parts.push(format!("{k}.count={}", h.count));
            parts.push(format!("{k}.mean={:.0}", h.mean()));
            parts.push(format!("{k}.p50={}", h.quantile(0.5).unwrap_or(0)));
            parts.push(format!("{k}.p99={}", h.quantile(0.99).unwrap_or(0)));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("jobs");
        c.incr();
        c.add(4);
        // Same name returns the same underlying counter.
        assert_eq!(r.counter("jobs").get(), 5);
        let g = r.gauge("active");
        g.set(-3);
        assert_eq!(r.gauge("active").get(), -3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["jobs"], 5);
        assert_eq!(snap.gauges["active"], -3);
    }

    #[test]
    fn histogram_snapshot_is_internally_consistent() {
        let r = Registry::new();
        let h = r.histogram("queue_wait_ns");
        for v in [0, 1, 3, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_001_004);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(1_000_000));
        let bucket_total: u64 = s.buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(bucket_total, s.count);
        assert!(s.quantile(0.5).unwrap() <= 3);
        assert_eq!(s.quantile(1.0), Some(1_000_000));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("n");
                    let h = r.histogram("lat");
                    for i in 0..10_000u64 {
                        c.incr();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counters["n"], 40_000);
        assert_eq!(snap.histograms["lat"].count, 40_000);
    }

    #[test]
    fn weighted_samples_count_for_the_population_they_stand_for() {
        let h = AtomicHistogram::default();
        h.record(10);
        h.record_n(1000, 32);
        let s = h.snapshot();
        assert_eq!(s.count, 33);
        assert_eq!(s.sum, 10 + 32 * 1000);
        assert_eq!((s.min, s.max), (Some(10), Some(1000)));
        assert!(
            s.quantile(0.5).unwrap() >= 512,
            "the weighted bucket holds the median"
        );
    }

    #[test]
    fn counter_sources_are_summed_into_snapshots_under_their_names() {
        struct Fixed;
        impl CounterSource for Fixed {
            fn read_counters(&self, emit: &mut dyn FnMut(&str, u64)) {
                emit("jobs_run", 40);
                emit("steals", 2);
            }
        }
        let r = Registry::new();
        r.counter("jobs_run").add(2); // same name: values add
        r.counter("suspends").incr();
        r.counter_source(Arc::new(Fixed));
        let snap = r.snapshot();
        assert_eq!(snap.counters["jobs_run"], 42);
        assert_eq!(snap.counters["steals"], 2);
        assert_eq!(snap.counters["suspends"], 1);
        assert!(snap
            .render_line()
            .starts_with("jobs_run=42 steals=2 suspends=1"));
    }

    #[test]
    fn counters_delta_subtracts_per_name() {
        let r = Registry::new();
        let c = r.counter("steals");
        c.add(5);
        let before = r.snapshot();
        c.add(7);
        r.counter("local_hits").add(3); // born after `before`
        let delta = r.snapshot().counters_delta(&before);
        assert_eq!(delta["steals"], 7);
        assert_eq!(delta["local_hits"], 3);
    }

    #[test]
    fn render_line_is_sorted_and_parsable() {
        let r = Registry::new();
        r.counter("polls").add(2);
        r.counter("byes").incr();
        r.gauge("apps").set(1);
        let line = r.snapshot().render_line();
        assert_eq!(line, "byes=1 polls=2 apps=1");
    }
}
