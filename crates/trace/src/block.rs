//! One trace's events in one buffer.
//!
//! A [`Block`] holds one finished trace: its events as fixed-size
//! records, their attributes as `(key, byte range)` records, and one
//! string holding every attribute value. However many events and
//! attributes a trace has, its block is three allocations, and
//! dropping it frees three. The open trace of a thread writes into a
//! [`BlockBuf`], whose buffers keep their capacity from one trace to
//! the next; closing the trace copies them into an exact-size block.
//!
//! [`Block::write_jsonl`] writes an event's JSONL line straight from
//! its block, with the counters and the hex trace id formatted by hand.

use crate::event::{Phase, TraceEvent};
use consent_util::{json, Day};
use std::fmt::Write as _;

/// One event of a block. Its attributes are the block's attribute
/// records from the previous event's `attrs_end` up to its own.
#[derive(Clone, Copy, Debug)]
struct Rec {
    span_id: u64,
    parent: u64,
    seq: u64,
    name: &'static str,
    phase: Phase,
    attrs_end: u32,
}

/// One attribute: a static key and its value's byte range in the
/// block's text.
#[derive(Clone, Copy, Debug)]
struct Attr {
    key: &'static str,
    start: u32,
    end: u32,
}

/// A buffer length as a `u32` range bound.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a trace's buffers stay below 4 GiB")
}

/// Attribute writer passed to the closures of
/// [`start_trace`](crate::start_trace), [`span`](crate::span) and
/// [`event`](crate::event). The closure runs only when the event is
/// recorded, and each value is written straight into its trace's
/// buffer. The closure must not record trace events itself.
#[derive(Debug)]
pub struct AttrList<'a> {
    attrs: &'a mut Vec<Attr>,
    text: &'a mut String,
}

impl AttrList<'_> {
    /// Append one key/value attribute: a string, an unsigned integer
    /// (in decimal) or a [`Day`] (as `YYYY-MM-DD`).
    pub fn push(&mut self, key: &'static str, value: impl AttrValue) {
        let start = offset(self.text.len());
        value.write_to(self.text);
        self.close(key, start);
    }

    /// Append one attribute whose value is `parts` joined by `sep`.
    pub fn push_joined<'s>(
        &mut self,
        key: &'static str,
        parts: impl IntoIterator<Item = &'s str>,
        sep: &str,
    ) {
        let start = offset(self.text.len());
        for (i, part) in parts.into_iter().enumerate() {
            if i > 0 {
                self.text.push_str(sep);
            }
            self.text.push_str(part);
        }
        self.close(key, start);
    }

    /// Record the value written since `start` under `key`.
    fn close(&mut self, key: &'static str, start: u32) {
        let end = offset(self.text.len());
        self.attrs.push(Attr { key, start, end });
    }
}

/// A value [`AttrList::push`] can write into a trace's attribute text.
pub trait AttrValue {
    /// Append the value's text to `out`.
    fn write_to(self, out: &mut String);
}

impl AttrValue for &str {
    fn write_to(self, out: &mut String) {
        out.push_str(self);
    }
}

impl AttrValue for &String {
    fn write_to(self, out: &mut String) {
        out.push_str(self);
    }
}

macro_rules! unsigned_attr_value {
    ($($t:ty),*) => {$(
        impl AttrValue for $t {
            fn write_to(self, out: &mut String) {
                write_u64(out, self as u64);
            }
        }
    )*};
}

unsigned_attr_value!(u8, u16, u64, usize);

impl AttrValue for Day {
    fn write_to(self, out: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
}

/// The events of the open trace of one thread, before they become a
/// [`Block`].
#[derive(Debug)]
pub(crate) struct BlockBuf {
    events: Vec<Rec>,
    attrs: Vec<Attr>,
    text: String,
}

impl BlockBuf {
    pub(crate) const fn new() -> BlockBuf {
        BlockBuf {
            events: Vec::new(),
            attrs: Vec::new(),
            text: String::new(),
        }
    }

    /// Append one event, its attributes written by `attrs`, with the
    /// next sequence number: events are pushed in `seq` order from 0.
    pub(crate) fn push(
        &mut self,
        span_id: u64,
        parent: u64,
        phase: Phase,
        name: &'static str,
        attrs: impl FnOnce(&mut AttrList<'_>),
    ) {
        attrs(&mut AttrList {
            attrs: &mut self.attrs,
            text: &mut self.text,
        });
        self.events.push(Rec {
            span_id,
            parent,
            seq: self.events.len() as u64,
            name,
            phase,
            attrs_end: offset(self.attrs.len()),
        });
    }

    /// The block of trace `trace_id` holding the buffered events, each
    /// buffer copied at its exact size. The buffer is left empty, with
    /// its capacity kept for the thread's next trace.
    pub(crate) fn finish(&mut self, trace_id: u64) -> Block {
        let block = Block {
            trace_id,
            events: self.events.as_slice().into(),
            attrs: self.attrs.as_slice().into(),
            text: self.text.as_str().into(),
        };
        self.events.clear();
        self.attrs.clear();
        self.text.clear();
        block
    }
}

/// One recorded trace (or one event passed to
/// [`TraceLog::record`](crate::TraceLog::record)), its events in the
/// order they were recorded.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) trace_id: u64,
    events: Box<[Rec]>,
    attrs: Box<[Attr]>,
    text: Box<str>,
}

impl Block {
    /// A block holding `event` alone, sequence number included.
    pub(crate) fn of_event(event: &TraceEvent) -> Block {
        let mut buf = BlockBuf::new();
        buf.push(event.span_id, event.parent, event.phase, event.name, |a| {
            for &(key, ref value) in &event.attrs {
                a.push(key, value);
            }
        });
        buf.events[0].seq = event.seq;
        buf.finish(event.trace_id)
    }

    /// Number of events.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Sequence number of event `i`.
    pub(crate) fn seq(&self, i: usize) -> u64 {
        self.events[i].seq
    }

    /// Attribute records of event `i`.
    fn attrs(&self, i: usize) -> &[Attr] {
        let start = i.checked_sub(1).map_or(0, |p| self.events[p].attrs_end);
        &self.attrs[start as usize..self.events[i].attrs_end as usize]
    }

    fn value(&self, attr: &Attr) -> &str {
        &self.text[attr.start as usize..attr.end as usize]
    }

    /// Event `i` as a [`TraceEvent`].
    pub(crate) fn event(&self, i: usize) -> TraceEvent {
        let e = &self.events[i];
        TraceEvent {
            trace_id: self.trace_id,
            span_id: e.span_id,
            parent: e.parent,
            seq: e.seq,
            phase: e.phase,
            name: e.name,
            attrs: self
                .attrs(i)
                .iter()
                .map(|a| (a.key, self.value(a).to_string()))
                .collect(),
        }
    }

    /// How many bytes the block's lines take when no string needs an
    /// escape, no key repeats, each counter has three digits and every
    /// event has attributes (an event without takes 9 bytes fewer).
    pub(crate) fn jsonl_len_hint(&self) -> usize {
        let events: usize = self.events.iter().map(|e| 112 + e.name.len()).sum();
        let attrs: usize = self.attrs.iter().map(|a| a.key.len() + 6).sum();
        events + attrs + self.text.len()
    }

    /// Append event `i`'s JSONL line, `\n` included: the bytes of
    /// [`TraceEvent::to_json`]`.to_compact()`. Keys follow `Json`'s
    /// `BTreeMap` order (`args, kind, name, parent, ph, seq, span,
    /// trace`); `args` appears only when the event has attributes, with
    /// its keys sorted and the last value of a repeated key winning.
    pub(crate) fn write_jsonl(&self, i: usize, out: &mut String) {
        let e = &self.events[i];
        let attrs = self.attrs(i);
        out.push('{');
        if !attrs.is_empty() {
            out.push_str("\"args\":{");
            // Each round writes the smallest key above the last one
            // written, taking its last value (the first met in reverse).
            let mut last: Option<&str> = None;
            while let Some(attr) = attrs
                .iter()
                .rev()
                .filter(|a| last.is_none_or(|l| a.key > l))
                .min_by_key(|a| a.key)
            {
                if last.is_some() {
                    out.push(',');
                }
                json::write_string(out, attr.key);
                out.push(':');
                json::write_string(out, self.value(attr));
                last = Some(attr.key);
            }
            out.push_str("},");
        }
        out.push_str("\"kind\":\"trace_event\",\"name\":");
        json::write_string(out, e.name);
        out.push_str(",\"parent\":");
        write_counter(out, e.parent);
        out.push_str(",\"ph\":\"");
        out.push_str(e.phase.code());
        out.push_str("\",\"seq\":");
        write_counter(out, e.seq);
        out.push_str(",\"span\":");
        write_counter(out, e.span_id);
        out.push_str(",\"trace\":\"");
        write_hex(out, self.trace_id);
        out.push_str("\"}\n");
    }
}

/// Append `n` in decimal.
fn write_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append a counter the way `Json::int(n as i64)` prints it: exact
/// integers below 9e15 in magnitude, `json::write_number` above.
fn write_counter(out: &mut String, n: u64) {
    let signed = n as i64;
    if signed.unsigned_abs() < 9_000_000_000_000_000 {
        if signed < 0 {
            out.push('-');
        }
        write_u64(out, signed.unsigned_abs());
    } else {
        json::write_number(out, signed as f64);
    }
}

/// Append `id` as 16 lowercase hex digits, as `{:016x}` prints it.
fn write_hex(out: &mut String, id: u64) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut digits = [0u8; 16];
    for (i, d) in digits.iter_mut().enumerate() {
        *d = HEX[((id >> (60 - 4 * i)) & 0xf) as usize];
    }
    out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
}
