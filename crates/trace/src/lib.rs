//! consent-trace: causal tracing and per-capture provenance for the
//! consent-management measurement pipeline.
//!
//! The crate has two coupled layers:
//!
//! * **Tracing** — a process-global, disabled-by-default [`TraceLog`]
//!   of recorded traces, read back as [`TraceEvent`]s. The campaign
//!   opens one trace per `(domain, vantage)` pair via [`start_trace`];
//!   nested work records [`span`]s (attempts, page loads) and instant
//!   [`event`]s (injected faults, retry decisions, breaker transitions,
//!   CMP detections). An open trace writes its events into one
//!   per-thread buffer (fixed-size records plus one string of attribute
//!   values), and closing it moves the trace into the log as one block.
//!   Ids and sequence numbers are drawn from per-trace counters seeded
//!   by [`stable_id`], so a replay of the same campaign seed produces a
//!   byte-identical [JSONL export](TraceLog::export_jsonl) — and so
//!   does an interrupted-and-resumed replay, because the export sorts
//!   by `(trace_id, seq)` and every pair's events are self-numbered.
//! * **Provenance** — a [`Provenance`] record per pair, built by the
//!   campaign worker that crawled the pair *unconditionally* (tracing
//!   on or off) and persisted in `CampaignState` checkpoints via
//!   [`ProvenanceLog`]. The log is the campaign's only per-pair record:
//!   its dead letters are the records flagged `dead_lettered`. When
//!   tracing is on, [`Provenance::from_tree`] distills the identical
//!   record from the pair's [`TraceTree`], which cross-checks the two
//!   layers.
//!
//! Exporters: [`TraceLog::export_jsonl`] (byte-stable line format,
//! written straight from the blocks),
//! [`export_chrome`] (Chrome `trace_event` JSON loadable in Perfetto,
//! one thread track per vantage), and [`TraceTree::render`] (a
//! pretty-printed causal tree for single-capture debugging). Nothing
//! persists the log: a pair's events are a pure function of the pair,
//! so a resumed durable campaign re-crawls its applied pairs to rebuild
//! them instead of reading a copy back from its checkpoints.
//!
//! Disabled cost: each instrumentation site performs one relaxed atomic
//! load and returns; attribute closures never run, so nothing is
//! allocated or formatted (same discipline as `consent_telemetry`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod chrome;
mod ctx;
mod event;
mod log;
mod provenance;
mod tree;

pub use block::{AttrList, AttrValue};
pub use chrome::{export_chrome, export_chrome_string};
pub use ctx::{active, event, span, start_trace, SpanGuard, TraceGuard};
pub use event::{Phase, TraceEvent};
pub use log::TraceLog;
pub use provenance::{AttemptProvenance, Provenance, ProvenanceImportError, ProvenanceLog};
pub use tree::{TraceNode, TraceTree};

use std::sync::OnceLock;

static GLOBAL: OnceLock<TraceLog> = OnceLock::new();

/// The process-global trace log. Created disabled: until [`enable`] is
/// called, every instrumentation site is one relaxed atomic load.
pub fn global() -> &'static TraceLog {
    GLOBAL.get_or_init(TraceLog::disabled)
}

/// Turn global recording on.
pub fn enable() {
    global().set_enabled(true);
}

/// Turn global recording off. Spans already open still emit their End
/// events (armed guards record unconditionally), so recorded trees stay
/// well-formed.
pub fn disable() {
    global().set_enabled(false);
}

/// Is the global log recording?
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Drop every event in the global log (the enable flag is untouched).
pub fn clear() {
    global().clear();
}

/// Deterministic 64-bit id from a list of string parts. Same splitmix64
/// finalizer as `consent_util::SeedTree`, so ids are stable across runs,
/// platforms, and process restarts — the property that makes resumed
/// replays byte-identical to uninterrupted ones. Never returns 0 (0 is
/// the "no parent" sentinel in [`TraceEvent`]).
pub fn stable_id(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        // Separator step so ["ab","c"] != ["a","bc"].
        h ^= 0x9e37_79b9_7f4a_7c15;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if z == 0 {
        1
    } else {
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_id_is_deterministic_and_separator_safe() {
        let a = stable_id(&["pair", "a.example", "eu-fast-enus"]);
        let b = stable_id(&["pair", "a.example", "eu-fast-enus"]);
        assert_eq!(a, b);
        assert_ne!(a, 0);
        assert_ne!(a, stable_id(&["pair", "a.example", "us-fast-enus"]));
        assert_ne!(stable_id(&["ab", "c"]), stable_id(&["a", "bc"]));
        assert_ne!(stable_id(&[]), 0);
    }

    #[test]
    fn global_toggle_controls_the_free_functions() {
        // This is the only test in the crate touching the global log;
        // integration coverage lives in tests/it_trace.rs.
        assert!(!enabled());
        {
            let _t = start_trace("pair", 42, |a| a.push("vantage", "eu-fast-enus"));
            let _ = span("attempt", |_| {}); // inert: log is disabled
            event("fault.injected", |a| a.push("fault", "reset"));
        }
        assert!(global().is_empty(), "disabled log must record nothing");

        enable();
        assert!(enabled());
        let id = stable_id(&["pair", "test"]);
        {
            let _t = start_trace("pair", id, |a| a.push("vantage", "eu-fast-enus"));
            assert!(active());
            // A nested start_trace is inert and must not disturb ids.
            {
                let _nested = start_trace("pair", 7, |_| {});
                event("inner", |_| {});
            }
            let s = span("attempt", |a| a.push("attempt", "1"));
            event("fault.injected", |a| a.push("fault", "reset"));
            drop(s);
        }
        assert!(!active());
        let events = global().trace(id);
        let tree = TraceTree::build(&events).expect("well-formed tree");
        assert_eq!(tree.root.name(), "pair");
        assert_eq!(tree.find_all("inner").len(), 1);
        assert_eq!(tree.find_all("fault.injected").len(), 1);
        assert!(global().trace(7).is_empty(), "nested trace must be inert");

        // Mid-flight disable: the armed guard still closes its span.
        clear();
        let id2 = stable_id(&["pair", "midflight"]);
        {
            let _t = start_trace("pair", id2, |_| {});
            let s = span("attempt", |_| {});
            disable();
            assert!(!active());
            event("dropped", |_| {}); // gated off: no event
            drop(s);
        }
        let events = global().trace(id2);
        let tree = TraceTree::build(&events).expect("armed guards keep trees closed");
        assert_eq!(tree.find_all("dropped").len(), 0);
        assert_eq!(tree.find_all("attempt").len(), 1);

        // The guard path exports what the reference renders: a value
        // that needs escapes, integers and a repeated key.
        clear();
        enable();
        let id3 = stable_id(&["pair", "escapes"]);
        {
            let _t = start_trace("pair", id3, |a| {
                a.push("domain", "a\"b\\c\n\u{1}\u{7f}köln");
                a.push("rank", 12_345usize);
                a.push("bytes", u64::MAX);
                a.push("day", consent_util::Day::from_ymd(2020, 5, 15));
            });
            let _s = span("attempt", |a| {
                a.push("attempt", 1u8);
                a.push("attempt", 2u8);
            });
            event("detect", |a| {
                a.push_joined("cmps", ["onetrust", "quantcast"], ",");
            });
        }
        disable();
        let snapshot = global().snapshot();
        let reference: String = snapshot
            .iter()
            .map(|e| e.to_json().to_compact() + "\n")
            .collect();
        assert_eq!(snapshot.len(), 5);
        assert_eq!(global().export_jsonl(), reference);
        assert_eq!(snapshot[0].attr("bytes"), Some("18446744073709551615"));
        assert_eq!(snapshot[0].attr("day"), Some("2020-05-15"));
        assert_eq!(snapshot[1].attr("attempt"), Some("2"));
        assert!(reference.contains(r#"{"args":{"attempt":"2"},"kind""#));
        assert!(reference.contains("\"domain\":\"a\\\"b\\\\c\\n\\u0001\u{7f}köln\""));

        clear();
        assert!(!enabled());
    }
}
