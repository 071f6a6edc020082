//! The trace log: one block per recorded trace.
//!
//! A finished trace arrives as one [`Block`] (its events, their
//! attribute records and one string of attribute values) and lands in
//! one of a fixed number of shards keyed by trace id, so concurrent
//! traced pipelines contend once per trace, and only when two traces
//! share a shard. The [JSONL export](TraceLog::export_jsonl) and a
//! [`snapshot`](TraceLog::snapshot) read the whole log in
//! `(trace_id, seq)` order, which is what makes the export byte-stable
//! across replays *and* across checkpoint resumes: the set of recorded
//! events is identical, and the sort erases any difference in arrival
//! order. The sort is over blocks, not events, because a block is
//! already in `seq` order; the export writes each line straight from
//! its block, with no [`TraceEvent`] copy and no `Json` tree.

use crate::block::Block;
use crate::event::TraceEvent;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};

const SHARDS: usize = 16;

/// An append-only log of recorded traces behind an enable flag, read
/// back as [`TraceEvent`]s.
///
/// Like `consent_telemetry::Registry`, the disabled state is the
/// default for the process-global instance and costs exactly one
/// relaxed atomic load per instrumentation site.
#[derive(Debug, Default)]
pub struct TraceLog {
    enabled: AtomicBool,
    shards: [Mutex<Vec<Block>>; SHARDS],
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

    /// Append one event unconditionally, as a block of its own. The
    /// crate's free functions gate on [`enabled`](Self::enabled) and
    /// hand the log whole traces instead; a closing trace guard commits
    /// its trace even when recording was disabled mid-flight, keeping
    /// trees well-formed.
    pub fn record(&self, event: TraceEvent) {
        self.commit(Block::of_event(&event));
    }

    /// Append one block, under its shard's lock.
    pub(crate) fn commit(&self, block: Block) {
        self.shards[(block.trace_id as usize) % SHARDS]
            .lock()
            .push(block);
    }

    /// Drop every recorded event (the enable flag is left unchanged).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().iter().map(Block::len).sum::<usize>())
            .sum()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every recorded event, sorted by `(trace_id, seq)`.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.in_order(events)
    }

    /// The events of one trace, sorted by `seq`.
    pub fn trace(&self, trace_id: u64) -> Vec<TraceEvent> {
        let shard = self.shards[(trace_id as usize) % SHARDS].lock();
        let blocks: Vec<&Block> = shard.iter().filter(|b| b.trace_id == trace_id).collect();
        events(&blocks)
    }

    /// Every distinct trace id, sorted.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().iter().map(|b| b.trace_id));
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// JSONL export: one event object per line, in `(trace_id, seq)`
    /// order. Byte-identical for identical seeds (and for interrupted +
    /// resumed replays of the same campaign). Each line is
    /// [`TraceEvent::to_json`] in compact form, written on this thread
    /// straight from the blocks into one string.
    pub fn export_jsonl(&self) -> String {
        self.in_order(|blocks| {
            let mut out = String::with_capacity(blocks.iter().map(|b| b.jsonl_len_hint()).sum());
            each_event(blocks, |block, i| block.write_jsonl(i, &mut out));
            out
        })
    }

    /// Run `f` on every block sorted by trace id, read in place with
    /// all shards locked (in index order; recording takes one shard at
    /// a time, so this cannot deadlock). The sort is stable and a trace
    /// lives in one shard, so blocks of one trace keep their arrival
    /// order.
    fn in_order<R>(&self, f: impl FnOnce(&[&Block]) -> R) -> R {
        let shards: Vec<_> = self.shards.iter().map(|s| s.lock()).collect();
        let mut blocks: Vec<&Block> = shards.iter().flat_map(|s| s.iter()).collect();
        blocks.sort_by_key(|b| b.trace_id);
        f(&blocks)
    }
}

/// The events of `blocks` (sorted as [`each_event`] takes them) as
/// [`TraceEvent`]s, in `(trace_id, seq)` order.
fn events(blocks: &[&Block]) -> Vec<TraceEvent> {
    let mut out = Vec::with_capacity(blocks.iter().map(|b| b.len()).sum());
    each_event(blocks, |block, i| out.push(block.event(i)));
    out
}

/// Call `f` on every event of `blocks` (sorted by trace id, a trace's
/// blocks in arrival order) in `(trace_id, seq)` order. A trace held in
/// one block, as every recorded trace is, is already in `seq` order;
/// the blocks of a trace recorded more than once without
/// [`clear`](TraceLog::clear), or of single [`record`](TraceLog::record)ed
/// events, are merged by a stable sort, so equal keys keep their
/// arrival order.
fn each_event(blocks: &[&Block], mut f: impl FnMut(&Block, usize)) {
    for trace in blocks.chunk_by(|a, b| a.trace_id == b.trace_id) {
        if let [block] = trace {
            (0..block.len()).for_each(|i| f(block, i));
        } else {
            let mut merged: Vec<(&Block, usize)> = trace
                .iter()
                .flat_map(|&block| (0..block.len()).map(move |i| (block, i)))
                .collect();
            merged.sort_by_key(|&(block, i)| block.seq(i));
            merged.into_iter().for_each(|(block, i)| f(block, i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Phase;
    use proptest::prelude::*;

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

    /// Attribute-value pieces past the 32 control characters: the two
    /// characters escaped with a backslash, DEL and non-ASCII text.
    const PIECES: [&str; 6] = ["\"", "\\", "\u{7f}", "köln", "😀", "plain /"];
    /// Trace ids 1, 17 and 33 share a shard.
    const IDS: [u64; 4] = [1, 17, 33, u64::MAX];
    const NAMES: [&str; 3] = ["pair", "fault.injected", "odd \"name\"\t"];
    const KEYS: [&str; 4] = ["vantage", "attempt", "a", "k\\ey"];
    const PHASES: [Phase; 3] = [Phase::Begin, Phase::End, Phase::Instant];

    /// Piece `i`: control character `i` below 32, else `PIECES[i - 32]`.
    fn value(pieces: &[usize]) -> String {
        pieces
            .iter()
            .map(|&i| match i.checked_sub(0x20) {
                Some(p) => PIECES[p].to_string(),
                None => char::from(i as u8).to_string(),
            })
            .collect()
    }

    /// The export as the `Json` tree of each snapshot event prints it.
    fn reference(log: &TraceLog) -> String {
        log.snapshot()
            .iter()
            .map(|e| e.to_json().to_compact() + "\n")
            .collect()
    }

    #[test]
    fn export_writes_the_json_tree_bytes_for_edge_cases() {
        let log = TraceLog::new();
        let all: Vec<usize> = (0..0x20 + PIECES.len()).collect();
        let mut big = ev(u64::MAX, 0);
        big.span_id = u64::MAX;
        big.parent = (1 << 53) + 1;
        big.attrs = vec![("b", value(&all)), ("a", "1".into()), ("b", "last".into())];
        log.record(big);
        // The same (trace_id, seq) twice: arrival order breaks the tie.
        let mut twin = ev(3, 0);
        twin.attrs = vec![("x", "first".into())];
        log.record(twin.clone());
        twin.attrs[0].1 = "second".into();
        log.record(twin);
        // Counters `Json` prints as exact integers (below 9e15), rounds
        // to an `f64` (past 2^53) and, once `as i64` turns them negative
        // (from 2^63), prints with a sign.
        let counters: [u64; 5] = [
            8_999_999_999_999_999,
            i64::MAX as u64,
            1 << 63,
            u64::MAX - (1 << 53),
            u64::MAX - 8_999_999_999_999_998,
        ];
        for (seq, n) in (1..).zip(counters) {
            let mut e = ev(0x0123_4567_89ab_cdef, seq);
            e.span_id = n;
            e.parent = n;
            log.record(e);
        }
        let export = log.export_jsonl();
        assert_eq!(export, reference(&log));
        assert!(export.contains(r#"{"args":{"a":"1","b":"last"},"kind""#));
        // A repeated key reads its last value, as the export writes it.
        assert_eq!(log.trace(u64::MAX)[0].attr("b"), Some("last"));
        assert!(export.find("first").unwrap() < export.find("second").unwrap());
        assert!(export.ends_with("\"trace\":\"ffffffffffffffff\"}\n"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Colliding shards, repeated `(trace_id, seq)` keys, empty and
        /// repeated attribute keys, and strings that need every escape:
        /// the snapshot is the arrival order stably sorted, and the
        /// export equals its `Json` tree rendering byte for byte.
        #[test]
        fn export_equals_the_json_tree_rendering(
            events in proptest::collection::vec(
                (
                    0usize..IDS.len(),
                    0u64..4,
                    0u64..1_000,
                    0u64..1_000,
                    0usize..PHASES.len(),
                    0usize..NAMES.len(),
                    proptest::collection::vec(
                        (
                            0usize..KEYS.len(),
                            proptest::collection::vec(0usize..0x20 + PIECES.len(), 0..4),
                        ),
                        0..5,
                    ),
                ),
                0..200,
            ),
        ) {
            let mut events: Vec<TraceEvent> = events
                .into_iter()
                .map(|(id, seq, span_id, parent, phase, name, attrs)| TraceEvent {
                    trace_id: IDS[id],
                    span_id,
                    parent,
                    seq,
                    phase: PHASES[phase],
                    name: NAMES[name],
                    attrs: attrs.iter().map(|(k, v)| (KEYS[*k], value(v))).collect(),
                })
                .collect();
            let log = TraceLog::new();
            for e in &events {
                log.record(e.clone());
            }
            // Ties on `(trace_id, seq)` keep their arrival order.
            events.sort_by_key(|e| (e.trace_id, e.seq));
            prop_assert_eq!(log.snapshot(), events);
            prop_assert_eq!(log.export_jsonl(), reference(&log));
        }
    }
}
