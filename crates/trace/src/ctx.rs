//! The thread-local trace context and its RAII guards.
//!
//! A trace is opened with [`start_trace`], which installs a per-thread
//! context carrying the trace id and two monotonic counters: the next
//! span id and the next sequence number. [`span`] and [`event`] draw
//! from those counters, so id assignment is deterministic as long as
//! the traced code itself is deterministic — there is no global counter
//! whose value could depend on how traces interleave across threads.
//!
//! Every entry point first checks the global log's enable flag (one
//! relaxed atomic load) and only then runs the caller's attribute
//! closure, so a disabled run neither allocates nor formats anything.
//! Guards are *armed* at creation: a span that emitted its Begin event
//! always emits the matching End on drop, even if recording is turned
//! off mid-flight, keeping every recorded tree well-formed.

use crate::event::{Phase, TraceEvent};
use crate::global;
use std::cell::RefCell;

/// The root span id of every trace.
const ROOT_SPAN: u64 = 1;

/// Attribute accumulator passed to the closures of [`start_trace`],
/// [`span`], and [`event`]. The closure only runs when the event is
/// actually recorded.
#[derive(Debug, Default)]
pub struct AttrList {
    items: Vec<(&'static str, String)>,
}

impl AttrList {
    /// Append one key/value attribute.
    pub fn push(&mut self, key: &'static str, value: impl Into<String>) {
        self.items.push((key, value.into()));
    }
}

struct ActiveTrace {
    trace_id: u64,
    next_span: u64,
    next_seq: u64,
    stack: Vec<u64>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// True when the global log is recording *and* the current thread has
/// an open trace — gate any instrumentation loop that would allocate
/// per item behind this (mirrors `consent_telemetry::enabled`).
#[inline]
pub fn active() -> bool {
    global().enabled() && ACTIVE.with(|a| a.borrow().is_some())
}

/// Guard for a whole trace; closes the root span on drop.
#[must_use = "a trace guard closes its trace on drop; binding it to _ ends the trace immediately"]
#[derive(Debug)]
pub struct TraceGuard {
    armed: bool,
    name: &'static str,
}

/// Guard for one child span; closes it on drop.
#[must_use = "a span guard closes its span on drop; binding it to _ ends the span immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    armed: bool,
    name: &'static str,
    span_id: u64,
    parent: u64,
}

/// Open a trace rooted at span 1. Returns an inert guard when the
/// global log is disabled or the thread already has an open trace
/// (traces do not nest — use [`span`] inside an open trace).
pub fn start_trace(
    name: &'static str,
    trace_id: u64,
    attrs: impl FnOnce(&mut AttrList),
) -> TraceGuard {
    if !global().enabled() {
        return TraceGuard { armed: false, name };
    }
    let installed = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if slot.is_some() {
            return false;
        }
        *slot = Some(ActiveTrace {
            trace_id,
            next_span: ROOT_SPAN + 1,
            next_seq: 1,
            stack: vec![ROOT_SPAN],
        });
        true
    });
    if !installed {
        return TraceGuard { armed: false, name };
    }
    let mut list = AttrList::default();
    attrs(&mut list);
    global().record(TraceEvent {
        trace_id,
        span_id: ROOT_SPAN,
        parent: 0,
        seq: 0,
        phase: Phase::Begin,
        name,
        attrs: list.items,
    });
    TraceGuard { armed: true, name }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let Some(t) = ACTIVE.with(|a| a.borrow_mut().take()) else {
            return;
        };
        let seq = t.next_seq;
        global().record(TraceEvent {
            trace_id: t.trace_id,
            span_id: ROOT_SPAN,
            parent: 0,
            seq,
            phase: Phase::End,
            name: self.name,
            attrs: Vec::new(),
        });
        // Trace volume, counted into the telemetry registry when it is
        // recording too (OBS samples and the Prometheus exposition
        // carry it).
        consent_telemetry::count("trace.traces", 1);
        consent_telemetry::count("trace.events", seq + 1);
    }
}

/// Open a child span under the innermost open span. Inert without an
/// open trace on this thread (or while the log is disabled).
pub fn span(name: &'static str, attrs: impl FnOnce(&mut AttrList)) -> SpanGuard {
    let inert = SpanGuard {
        armed: false,
        name,
        span_id: 0,
        parent: 0,
    };
    if !global().enabled() {
        return inert;
    }
    let ids = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let t = slot.as_mut()?;
        let span_id = t.next_span;
        t.next_span += 1;
        let parent = *t.stack.last().expect("an open trace always has a root");
        let seq = t.next_seq;
        t.next_seq += 1;
        t.stack.push(span_id);
        Some((t.trace_id, span_id, parent, seq))
    });
    let Some((trace_id, span_id, parent, seq)) = ids else {
        return inert;
    };
    let mut list = AttrList::default();
    attrs(&mut list);
    global().record(TraceEvent {
        trace_id,
        span_id,
        parent,
        seq,
        phase: Phase::Begin,
        name,
        attrs: list.items,
    });
    SpanGuard {
        armed: true,
        name,
        span_id,
        parent,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let ids = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let t = slot.as_mut()?;
            debug_assert_eq!(
                t.stack.last(),
                Some(&self.span_id),
                "span guards must drop in LIFO order"
            );
            t.stack.pop();
            let seq = t.next_seq;
            t.next_seq += 1;
            Some((t.trace_id, seq))
        });
        if let Some((trace_id, seq)) = ids {
            global().record(TraceEvent {
                trace_id,
                span_id: self.span_id,
                parent: self.parent,
                seq,
                phase: Phase::End,
                name: self.name,
                attrs: Vec::new(),
            });
        }
    }
}

/// Record an instant event under the innermost open span. No-op without
/// an open trace on this thread (or while the log is disabled).
pub fn event(name: &'static str, attrs: impl FnOnce(&mut AttrList)) {
    if !global().enabled() {
        return;
    }
    let ids = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let t = slot.as_mut()?;
        let span_id = t.next_span;
        t.next_span += 1;
        let parent = *t.stack.last().expect("an open trace always has a root");
        let seq = t.next_seq;
        t.next_seq += 1;
        Some((t.trace_id, span_id, parent, seq))
    });
    let Some((trace_id, span_id, parent, seq)) = ids else {
        return;
    };
    let mut list = AttrList::default();
    attrs(&mut list);
    global().record(TraceEvent {
        trace_id,
        span_id,
        parent,
        seq,
        phase: Phase::Instant,
        name,
        attrs: list.items,
    });
}
