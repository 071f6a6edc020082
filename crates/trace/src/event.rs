//! The trace event model.
//!
//! Every event carries a stable `(trace_id, span_id, parent)` triple
//! that places it in a causal tree, plus a per-trace sequence number
//! that orders it. There is deliberately **no wall-clock timestamp**:
//! the simulator is deterministic and its traces must be byte-stable
//! across replays of the same seed, so ordering is logical (`seq`) and
//! any simulated-time quantities travel as attributes.

use consent_util::Json;

/// The role of an event inside its span tree, mirroring the Chrome
/// trace-event phases the exporter emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point event inside the enclosing span (`ph: "i"`).
    Instant,
}

impl Phase {
    /// The Chrome trace-event phase code.
    pub fn code(&self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "i",
        }
    }
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Stable id of the trace this event belongs to (deterministically
    /// derived from the traced entity, e.g. a `(domain, vantage, day)`
    /// pair — see [`crate::stable_id`]).
    pub trace_id: u64,
    /// Id of the node this event creates or closes. The root span of a
    /// trace is always span 1; ids increase in creation order.
    pub span_id: u64,
    /// The enclosing span's id (0 for the root).
    pub parent: u64,
    /// Per-trace sequence number, dense from 0 in emission order.
    pub seq: u64,
    /// Begin/End/Instant.
    pub phase: Phase,
    /// Static event name (e.g. `pair`, `attempt`, `fault.injected`).
    pub name: &'static str,
    /// Key/value attributes. Keys are static; values are small strings.
    pub attrs: Vec<(&'static str, String)>,
}

impl TraceEvent {
    /// Look up an attribute value by key. A key recorded twice reads
    /// its last value, as the JSONL and Chrome exports write it.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// One JSON object for the JSONL export. The trace id is encoded as
    /// a 16-digit hex string (JSON numbers lose precision above 2^53).
    /// The export itself writes the same bytes from the log's per-trace
    /// blocks without building the tree; this is the reference its
    /// tests compare against.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("kind".to_string(), Json::str("trace_event")),
            (
                "trace".to_string(),
                Json::str(format!("{:016x}", self.trace_id)),
            ),
            ("span".to_string(), Json::int(self.span_id as i64)),
            ("parent".to_string(), Json::int(self.parent as i64)),
            ("seq".to_string(), Json::int(self.seq as i64)),
            ("ph".to_string(), Json::str(self.phase.code())),
            ("name".to_string(), Json::str(self.name)),
        ];
        if !self.attrs.is_empty() {
            fields.push((
                "args".to_string(),
                Json::object(
                    self.attrs
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::str(v.clone()))),
                ),
            ));
        }
        Json::object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_field() {
        let e = TraceEvent {
            trace_id: 0xdead_beef,
            span_id: 2,
            parent: 1,
            seq: 3,
            phase: Phase::Instant,
            name: "fault.injected",
            attrs: vec![("fault", "timeout".to_string())],
        };
        let line = e.to_json().to_compact();
        let back = Json::parse(&line).unwrap();
        assert_eq!(
            back.get("trace").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(back.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(back.get("seq").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            back.get("args")
                .and_then(|a| a.get("fault"))
                .and_then(Json::as_str),
            Some("timeout")
        );
        assert_eq!(e.attr("fault"), Some("timeout"));
        assert_eq!(e.attr("nope"), None);
    }
}
