//! Lightweight structured tracing for simulation runs.
//!
//! Simulator components append [`TraceEvent`]s to a [`Tracer`]; harnesses
//! read the log back to build figures (e.g. runnable-process counts over
//! time, as in Figure 5 of the paper). Tracing can be disabled wholesale for
//! benchmark runs, in which case appends are nearly free. The log is
//! unbounded: the figures replay a run's full history.

use crate::time::SimTime;

/// One timestamped trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent<K> {
    /// When the event occurred.
    pub time: SimTime,
    /// Component-defined event kind.
    pub kind: K,
}

/// An append-only trace log.
#[derive(Clone, Debug)]
pub struct Tracer<K> {
    enabled: bool,
    /// Events in emission order.
    events: Vec<TraceEvent<K>>,
}

impl<K> Default for Tracer<K> {
    fn default() -> Self {
        Self::new(true)
    }
}

impl<K> Tracer<K> {
    /// Creates a tracer; if `enabled` is false all appends are dropped.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            events: Vec::new(),
        }
    }

    /// Appends an event (no-op when disabled).
    #[inline]
    pub fn emit(&mut self, time: SimTime, kind: K) {
        if self.enabled {
            self.events.push(TraceEvent { time, kind });
        }
    }

    /// Events in emission order (oldest first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent<K>> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns true if no events were retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over events matching a predicate, oldest first.
    pub fn filtered<'a, F>(&'a self, mut pred: F) -> impl Iterator<Item = &'a TraceEvent<K>>
    where
        F: FnMut(&K) -> bool + 'a,
    {
        self.events().filter(move |e| pred(&e.kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDur;

    #[test]
    fn records_in_order() {
        let mut t = Tracer::new(true);
        t.emit(SimTime::ZERO, "a");
        t.emit(SimTime::ZERO + SimDur::from_secs(1), "b");
        assert_eq!(t.len(), 2);
        let events: Vec<_> = t.events().collect();
        assert_eq!(events[0].kind, "a");
        assert_eq!(events[1].time, SimTime::ZERO + SimDur::from_secs(1));
    }

    #[test]
    fn disabled_drops_everything() {
        let mut t = Tracer::new(false);
        t.emit(SimTime::ZERO, 1u8);
        assert!(t.is_empty());
    }

    #[test]
    fn filtered_selects() {
        let mut t = Tracer::new(true);
        for i in 0..10u32 {
            t.emit(SimTime(i as u64), i);
        }
        let evens: Vec<u32> = t.filtered(|k| k % 2 == 0).map(|e| e.kind).collect();
        assert_eq!(evens, vec![0, 2, 4, 6, 8]);
    }
}
