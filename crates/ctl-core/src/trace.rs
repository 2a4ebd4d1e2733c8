//! The worker-event vocabulary: what a scheduling event records and its
//! wire form.
//!
//! Both runtimes log the same [`TraceEvent`]s: the native pools into the
//! flight recorder's rings (`native_rt::trace`, which also owns the
//! process-wide clock the native timestamps are measured from), the
//! simulated threads package (`uthreads`) into its span log, timestamped
//! in simulated nanoseconds. The renderers (`metrics::perfetto`) read
//! them from either side.

/// What a trace event records. Discriminants are stable wire values.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum EventKind {
    /// A worker picked up a job; `arg` is its queue wait in microseconds
    /// (saturating), 0 when the pickup was not a queue-wait sample. A
    /// wait under 1 µs rounds to 0 too; the timeline omits a 0.
    JobStart = 0,
    /// A worker ran out of work (end of a running burst); `arg` is the
    /// number of jobs the burst completed.
    JobEnd = 1,
    /// A successful steal; `arg` is the topology tier (0 = SMT sibling,
    /// 1 = LLC mate, 2 = same socket, 3 = remote).
    Steal = 2,
    /// The worker committed to an idle park (pushed its sleeper slot).
    Park = 3,
    /// The worker woke from an idle park.
    Unpark = 4,
    /// The worker suspended itself at a safe point (process control).
    Suspend = 5,
    /// The worker resumed from suspension; `arg` is the wake-to-run
    /// signal latency in microseconds (saturating), 0 when the signal
    /// time is unknown. A latency under 1 µs rounds to 0 too; the
    /// timeline omits a 0.
    Resume = 6,
    /// The worker observed a CPU-set change; `arg` is the new generation.
    CpuSet = 7,
    /// The worker observed a new decision epoch (target change); `arg`
    /// is the new target.
    Epoch = 8,
    /// The worker rebuilt its distance-ordered victim rings around a new
    /// home CPU; `arg` is the new home CPU id.
    Retier = 9,
    /// A control-server partition decision (server journals only); `arg`
    /// is the target handed to the application.
    Decision = 10,
    /// The watchdog classified a worker as stalled: heartbeat state
    /// "running" but no progress for longer than the configured
    /// threshold. `worker` is the *stalled* worker (the event itself is
    /// emitted from the watchdog's own ring); `arg` is the observed
    /// staleness in milliseconds (saturating).
    Stall = 11,
    /// A previously-stalled worker made progress again; `arg` is the
    /// full stall episode duration in milliseconds (saturating).
    Recovered = 12,
    /// The worker was culled by a concurrency-restricting gate (parked
    /// on the passive list instead of contending); `arg` is the time it
    /// spent culled in microseconds (saturating), recorded on wake, 0
    /// when not measured. A time under 1 µs rounds to 0 too; the
    /// timeline omits a 0.
    CrCull = 13,
    /// The worker's gate exit promoted a culled thread back into the
    /// active set; `arg` is the gate's current active-set bound.
    CrPromote = 14,
    /// The worker acquired its run queue's lock; `arg` is how long it
    /// waited for it in nanoseconds (saturating). Simulated workers only:
    /// the native pools take no queue lock.
    LockWait = 15,
    /// The worker asked the control server for a new target (or started
    /// a decentralized load sweep). Simulated workers only: the native
    /// client polls from its own thread.
    Poll = 16,
}

impl EventKind {
    /// Every kind, in discriminant order.
    pub const ALL: [EventKind; 17] = [
        EventKind::JobStart,
        EventKind::JobEnd,
        EventKind::Steal,
        EventKind::Park,
        EventKind::Unpark,
        EventKind::Suspend,
        EventKind::Resume,
        EventKind::CpuSet,
        EventKind::Epoch,
        EventKind::Retier,
        EventKind::Decision,
        EventKind::Stall,
        EventKind::Recovered,
        EventKind::CrCull,
        EventKind::CrPromote,
        EventKind::LockWait,
        EventKind::Poll,
    ];

    /// The two-letter wire code (`js`, `je`, `st`, …).
    pub fn code(self) -> &'static str {
        match self {
            EventKind::JobStart => "js",
            EventKind::JobEnd => "je",
            EventKind::Steal => "st",
            EventKind::Park => "pk",
            EventKind::Unpark => "up",
            EventKind::Suspend => "su",
            EventKind::Resume => "re",
            EventKind::CpuSet => "cs",
            EventKind::Epoch => "ep",
            EventKind::Retier => "rt",
            EventKind::Decision => "dc",
            EventKind::Stall => "sl",
            EventKind::Recovered => "rc",
            EventKind::CrCull => "cc",
            EventKind::CrPromote => "cp",
            EventKind::LockWait => "lw",
            EventKind::Poll => "po",
        }
    }

    /// Parses a wire code back to a kind.
    pub fn from_code(s: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.code() == s)
    }

    #[inline]
    fn from_u8(b: u8) -> Option<EventKind> {
        EventKind::ALL.get(b as usize).copied()
    }
}

/// One fixed-size scheduling event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process-wide clock origin
    /// (`native_rt::trace::now_ns`).
    pub ts_ns: u64,
    /// The worker index that emitted the event (0 on server journals).
    pub worker: u16,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific payload (tier, target, generation, latency µs, …).
    pub arg: u32,
}

impl TraceEvent {
    /// Renders the compact wire form `ts:kind:worker:arg`.
    pub fn to_wire(&self) -> String {
        format!(
            "{}:{}:{}:{}",
            self.ts_ns,
            self.kind.code(),
            self.worker,
            self.arg
        )
    }

    /// Parses the wire form produced by [`TraceEvent::to_wire`].
    pub fn parse(s: &str) -> Option<TraceEvent> {
        let mut it = s.split(':');
        let ts_ns = it.next()?.parse().ok()?;
        let kind = EventKind::from_code(it.next()?)?;
        let worker = it.next()?.parse().ok()?;
        let arg = it.next()?.parse().ok()?;
        if it.next().is_some() {
            return None;
        }
        Some(TraceEvent {
            ts_ns,
            worker,
            kind,
            arg,
        })
    }

    /// Packs `kind`, `worker` and `arg` into the ring's one payload word
    /// (bits 48.., 32..48 and 0..32).
    #[inline]
    pub fn pack_meta(&self) -> u64 {
        ((self.kind as u64) << 48) | ((self.worker as u64) << 32) | self.arg as u64
    }

    /// Rebuilds an event from its timestamp and a [`TraceEvent::pack_meta`]
    /// word.
    #[inline]
    pub fn unpack(ts_ns: u64, meta: u64) -> TraceEvent {
        let kind = EventKind::from_u8((meta >> 48) as u8).unwrap_or(EventKind::JobStart);
        TraceEvent {
            ts_ns,
            worker: (meta >> 32) as u16,
            kind,
            arg: meta as u32,
        }
    }
}

/// Renders a batch of events as the comma-separated wire payload used by
/// the `EVENTS` and `TRACE` UDS verbs.
pub fn render_events(events: &[TraceEvent]) -> String {
    let parts: Vec<String> = events.iter().map(TraceEvent::to_wire).collect();
    parts.join(",")
}

/// Parses a comma-separated wire payload back into events. Returns
/// `None` if any element is malformed; an empty payload is an empty
/// batch.
pub fn parse_events(payload: &str) -> Option<Vec<TraceEvent>> {
    if payload.is_empty() {
        return Some(Vec::new());
    }
    payload.split(',').map(TraceEvent::parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, kind: EventKind, arg: u32) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            worker: 0,
            kind,
            arg,
        }
    }

    #[test]
    fn wire_roundtrip_every_kind() {
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            let e = TraceEvent {
                ts_ns: 1_000 + i as u64,
                worker: i as u16,
                kind,
                arg: u32::MAX - i as u32,
            };
            assert_eq!(TraceEvent::parse(&e.to_wire()), Some(e));
        }
    }

    #[test]
    fn wire_rejects_malformed() {
        for bad in [
            "",
            ":",
            "1:js:0",
            "1:zz:0:0",
            "x:js:0:0",
            "1:js:x:0",
            "1:js:0:x",
            "1:js:0:0:0",
        ] {
            assert_eq!(TraceEvent::parse(bad), None, "{bad:?} parsed");
        }
    }

    #[test]
    fn payload_roundtrip_and_rejection() {
        let batch = vec![ev(1, EventKind::JobStart, 9), ev(2, EventKind::Steal, 1)];
        let wire = render_events(&batch);
        assert_eq!(parse_events(&wire), Some(batch));
        assert_eq!(parse_events(""), Some(Vec::new()));
        assert_eq!(parse_events("1:js:0:0,bogus"), None);
    }

    #[test]
    fn packed_meta_roundtrip_every_kind_at_the_extremes() {
        for kind in EventKind::ALL {
            let e = TraceEvent {
                ts_ns: u64::MAX,
                worker: u16::MAX,
                kind,
                arg: u32::MAX,
            };
            assert_eq!(TraceEvent::unpack(e.ts_ns, e.pack_meta()), e, "{kind:?}");
        }
    }
}
