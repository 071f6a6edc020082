//! The thread-local trace context and its RAII guards.
//!
//! A trace is opened with [`start_trace`], which installs a per-thread
//! context carrying the trace id, the next span id and the buffer the
//! trace's events are written into. [`span`] and [`event`] draw span
//! ids from that counter and sequence numbers from the buffer's length,
//! so id assignment is deterministic as long as the traced code itself
//! is deterministic — there is no global counter whose value could
//! depend on how traces interleave across threads. The log sees a trace
//! only when it closes: the [`TraceGuard`]'s drop moves it into the log
//! as one block, under one shard lock.
//!
//! Every entry point first checks the global log's enable flag (one
//! relaxed atomic load) and only then runs the caller's attribute
//! closure, so a disabled run neither allocates nor formats anything.
//! Guards are *armed* at creation: a span that emitted its Begin event
//! always emits the matching End on drop, even if recording is turned
//! off mid-flight, keeping every recorded tree well-formed.

use crate::block::{AttrList, BlockBuf};
use crate::event::Phase;
use crate::global;
use std::cell::RefCell;

/// The root span id of every trace.
const ROOT_SPAN: u64 = 1;

/// The open trace of one thread. Its buffers outlive the trace, so a
/// thread's next trace reuses their capacity.
struct ActiveTrace {
    /// The open trace's id; `None` between traces.
    trace_id: Option<u64>,
    next_span: u64,
    stack: Vec<u64>,
    events: BlockBuf,
}

thread_local! {
    static ACTIVE: RefCell<ActiveTrace> = const {
        RefCell::new(ActiveTrace {
            trace_id: None,
            next_span: ROOT_SPAN,
            stack: Vec::new(),
            events: BlockBuf::new(),
        })
    };
}

impl ActiveTrace {
    /// Open a span or instant under the innermost open span, returning
    /// its `(span_id, parent)`; `None` without an open trace.
    fn open(
        &mut self,
        phase: Phase,
        name: &'static str,
        attrs: impl FnOnce(&mut AttrList<'_>),
    ) -> Option<(u64, u64)> {
        self.trace_id?;
        let span_id = self.next_span;
        self.next_span += 1;
        let parent = *self.stack.last().expect("an open trace always has a root");
        if phase == Phase::Begin {
            self.stack.push(span_id);
        }
        self.events.push(span_id, parent, phase, name, attrs);
        Some((span_id, parent))
    }
}

/// True when the global log is recording *and* the current thread has
/// an open trace — gate any instrumentation loop that would allocate
/// per item behind this (mirrors `consent_telemetry::enabled`).
#[inline]
pub fn active() -> bool {
    global().enabled() && ACTIVE.with(|a| a.borrow().trace_id.is_some())
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
    attrs: impl FnOnce(&mut AttrList<'_>),
) -> TraceGuard {
    if !global().enabled() {
        return TraceGuard { armed: false, name };
    }
    let armed = ACTIVE.with(|a| {
        let mut t = a.borrow_mut();
        if t.trace_id.is_some() {
            return false;
        }
        t.trace_id = Some(trace_id);
        t.next_span = ROOT_SPAN + 1;
        t.stack.clear();
        t.stack.push(ROOT_SPAN);
        t.events.push(ROOT_SPAN, 0, Phase::Begin, name, attrs);
        true
    });
    TraceGuard { armed, name }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let block = ACTIVE.with(|a| {
            let mut t = a.borrow_mut();
            let trace_id = t.trace_id.take()?;
            t.events.push(ROOT_SPAN, 0, Phase::End, self.name, |_| {});
            Some(t.events.finish(trace_id))
        });
        let Some(block) = block else {
            return;
        };
        let events = block.len() as u64;
        global().commit(block);
        // Trace volume, counted into the telemetry registry when it is
        // recording too (OBS samples and the Prometheus exposition
        // carry it).
        consent_telemetry::count("trace.traces", 1);
        consent_telemetry::count("trace.events", events);
    }
}

/// Open a child span under the innermost open span. Inert without an
/// open trace on this thread (or while the log is disabled).
pub fn span(name: &'static str, attrs: impl FnOnce(&mut AttrList<'_>)) -> SpanGuard {
    let ids = if global().enabled() {
        ACTIVE.with(|a| a.borrow_mut().open(Phase::Begin, name, attrs))
    } else {
        None
    };
    let (span_id, parent) = ids.unwrap_or_default();
    SpanGuard {
        armed: ids.is_some(),
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
        ACTIVE.with(|a| {
            let mut t = a.borrow_mut();
            if t.trace_id.is_none() {
                return;
            }
            debug_assert_eq!(
                t.stack.last(),
                Some(&self.span_id),
                "span guards must drop in LIFO order"
            );
            t.stack.pop();
            t.events
                .push(self.span_id, self.parent, Phase::End, self.name, |_| {});
        });
    }
}

/// Record an instant event under the innermost open span. No-op without
/// an open trace on this thread (or while the log is disabled).
pub fn event(name: &'static str, attrs: impl FnOnce(&mut AttrList<'_>)) {
    if global().enabled() {
        ACTIVE.with(|a| a.borrow_mut().open(Phase::Instant, name, attrs));
    }
}
