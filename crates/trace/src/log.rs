//! The lock-sharded trace log.
//!
//! Events land in one of a fixed number of shards keyed by trace id, so
//! concurrent traced pipelines contend only when they interleave traces
//! onto the same shard. A [`snapshot`](TraceLog::snapshot) normalizes
//! the whole log into `(trace_id, seq)` order, which is what makes the
//! JSONL export byte-stable across replays *and* across checkpoint
//! resumes: the set of recorded events is identical, and the sort
//! erases any difference in arrival order.

use crate::event::TraceEvent;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

const SHARDS: usize = 16;

/// An append-only log of [`TraceEvent`]s behind an enable flag.
///
/// Like `consent_telemetry::Registry`, the disabled state is the
/// default for the process-global instance and costs exactly one
/// relaxed atomic load per instrumentation site.
#[derive(Debug, Default)]
pub struct TraceLog {
    enabled: AtomicBool,
    shards: [Mutex<Vec<TraceEvent>>; SHARDS],
}

impl TraceLog {
    /// A recording log.
    pub fn new() -> TraceLog {
        let log = TraceLog::default();
        log.enabled.store(true, Ordering::Relaxed);
        log
    }

    /// A log whose instrumentation entry points are no-ops (the global
    /// default).
    pub fn disabled() -> TraceLog {
        TraceLog::default()
    }

    /// Is this log recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Append one event unconditionally. The crate's free functions
    /// gate on [`enabled`](Self::enabled) *before*
    /// building the event; armed guards call this directly on drop so a
    /// span that emitted a Begin always emits its End, keeping trees
    /// well-formed even when recording is disabled mid-flight.
    pub fn record(&self, event: TraceEvent) {
        self.shards[(event.trace_id as usize) % SHARDS]
            .lock()
            .push(event);
    }

    /// Drop every recorded event (the enable flag is left unchanged).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every recorded event, sorted by `(trace_id, seq)`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            all.extend(shard.lock().iter().cloned());
        }
        all.sort_by_key(|e| (e.trace_id, e.seq));
        all
    }

    /// The events of one trace, sorted by `seq`.
    pub fn trace(&self, trace_id: u64) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self.shards[(trace_id as usize) % SHARDS]
            .lock()
            .iter()
            .filter(|e| e.trace_id == trace_id)
            .cloned()
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Every distinct trace id, sorted.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().iter().map(|e| e.trace_id));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// JSONL export: one event object per line, in `(trace_id, seq)`
    /// order. Byte-identical for identical seeds (and for interrupted +
    /// resumed replays of the same campaign).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.snapshot() {
            out.push_str(&e.to_json().to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;

    fn ev(trace_id: u64, seq: u64) -> TraceEvent {
        TraceEvent {
            trace_id,
            span_id: 1,
            parent: 0,
            seq,
            phase: Phase::Instant,
            name: "t",
            attrs: Vec::new(),
        }
    }

    #[test]
    fn snapshot_normalizes_arrival_order() {
        let log = TraceLog::new();
        // Interleave two traces out of order.
        log.record(ev(7, 1));
        log.record(ev(3, 0));
        log.record(ev(7, 0));
        log.record(ev(3, 1));
        assert_eq!(log.len(), 4);
        let snap = log.snapshot();
        let order: Vec<(u64, u64)> = snap.iter().map(|e| (e.trace_id, e.seq)).collect();
        assert_eq!(order, vec![(3, 0), (3, 1), (7, 0), (7, 1)]);
        assert_eq!(log.trace_ids(), vec![3, 7]);
        assert_eq!(log.trace(7).len(), 2);
        // Shard-crossing ids land in different shards but one export.
        let a = log.export_jsonl();
        let b = log.export_jsonl();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 4);
        log.clear();
        assert!(log.is_empty());
        assert!(log.export_jsonl().is_empty());
    }

    #[test]
    fn disabled_log_still_accepts_direct_records() {
        // record() is unconditional by contract: the enabled gate lives
        // in the free functions, and armed guards must always close.
        let log = TraceLog::disabled();
        assert!(!log.enabled());
        log.record(ev(1, 0));
        assert_eq!(log.len(), 1);
        log.set_enabled(true);
        assert!(log.enabled());
    }
}
