//! Per-capture provenance records.
//!
//! A [`Provenance`] is the distilled acquisition record of one
//! `(domain, vantage)` campaign pair: every attempt with its day,
//! outcome status, and injected fault, plus the final classification
//! and quality flags. The campaign builds these records
//! *unconditionally* — they are state, not instrumentation, so a
//! checkpoint exported with tracing disabled is byte-identical to one
//! exported with tracing enabled. The log is the source of truth for
//! every per-pair fact, dead-lettering included; [`Provenance::from_tree`]
//! rebuilds the same record from a captured trace, which is how the
//! trace layer is cross-checked end to end.

use crate::tree::TraceTree;
use consent_util::Json;
use std::fmt::{self, Write as _};

/// One attempt inside a pair's provenance record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttemptProvenance {
    /// The schedule day the attempt ran (rendered `YYYY-MM-DD`).
    pub day: String,
    /// Final status of the attempt, as the stable capture-db status
    /// code (`ok`, `timeout`, `antibot`, …).
    pub status: String,
    /// The fault the chaos plan decided for this attempt, if any
    /// (stable fault name: `brownout`, `reset`, …). Always `None` under
    /// `FaultProfile::none`.
    pub fault: Option<String>,
}

/// The acquisition record of one `(domain, vantage)` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Toplist domain.
    pub domain: String,
    /// Toplist rank (1-based).
    pub rank: u64,
    /// Stable vantage code (e.g. `eu-fast-enus`).
    pub vantage: String,
    /// The campaign's nominal day (rendered `YYYY-MM-DD`).
    pub day: String,
    /// The pair's trace id (present even when tracing was disabled, so
    /// a later traced replay can be joined against this record).
    pub trace_id: u64,
    /// Every attempt, in schedule order (at least one).
    pub attempts: Vec<AttemptProvenance>,
    /// Final outcome classification (stable name: `success`, …).
    pub outcome: String,
    /// Status code of the final attempt.
    pub final_status: String,
    /// True if the anti-bot circuit breaker opened.
    pub breaker_opened: bool,
    /// True if the pair was abandoned without a usable capture: the
    /// campaign's dead letters are exactly the records with this set.
    pub dead_lettered: bool,
}

impl Provenance {
    /// True if the kept capture is usable but cut short (§3.5 counts
    /// these separately from clean captures).
    pub fn degraded(&self) -> bool {
        matches!(self.final_status.as_str(), "timeout" | "truncated")
    }

    /// The faults injected across this pair's attempts, in order.
    pub fn injected_faults(&self) -> impl Iterator<Item = &str> {
        self.attempts.iter().filter_map(|a| a.fault.as_deref())
    }

    /// One JSON object for reports and the `trace_explain` example.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("kind".to_string(), Json::str("provenance")),
            ("domain".to_string(), Json::str(self.domain.clone())),
            ("rank".to_string(), Json::int(self.rank as i64)),
            ("vantage".to_string(), Json::str(self.vantage.clone())),
            ("day".to_string(), Json::str(self.day.clone())),
            (
                "trace".to_string(),
                Json::str(format!("{:016x}", self.trace_id)),
            ),
            (
                "attempts".to_string(),
                Json::array(self.attempts.iter().map(|a| {
                    Json::object([
                        ("day".to_string(), Json::str(a.day.clone())),
                        ("status".to_string(), Json::str(a.status.clone())),
                        (
                            "fault".to_string(),
                            match &a.fault {
                                Some(f) => Json::str(f.clone()),
                                None => Json::Null,
                            },
                        ),
                    ])
                })),
            ),
            ("outcome".to_string(), Json::str(self.outcome.clone())),
            (
                "final_status".to_string(),
                Json::str(self.final_status.clone()),
            ),
            (
                "breaker_opened".to_string(),
                Json::Bool(self.breaker_opened),
            ),
            ("dead_lettered".to_string(), Json::Bool(self.dead_lettered)),
            ("degraded".to_string(), Json::Bool(self.degraded())),
        ])
    }

    /// Distill a provenance record from a captured pair trace. Returns
    /// `None` if the tree is not a well-formed `pair` trace. The result
    /// is field-identical to the record the campaign stored in its
    /// [`ProvenanceLog`] — asserted by `tests/it_trace.rs` and
    /// `examples/trace_explain.rs`.
    pub fn from_tree(tree: &TraceTree) -> Option<Provenance> {
        let root = &tree.root;
        if root.name() != "pair" {
            return None;
        }
        let domain = root.attr("domain")?.to_string();
        let rank: u64 = root.attr("rank")?.parse().ok()?;
        let vantage = root.attr("vantage")?.to_string();
        let day = root.attr("day")?.to_string();
        let mut attempts = Vec::new();
        let mut breaker_opened = false;
        let mut outcome = String::new();
        let mut final_status = String::new();
        for child in &root.children {
            if child.name() != "attempt" {
                continue;
            }
            let attempt_day = child.attr("day")?.to_string();
            let mut status = String::new();
            let mut fault = None;
            for inner in &child.children {
                match inner.name() {
                    "attempt.outcome" => {
                        status = inner.attr("status")?.to_string();
                        outcome = inner.attr("outcome")?.to_string();
                    }
                    "fault.injected" => fault = inner.attr("fault").map(str::to_string),
                    "breaker.open" => breaker_opened = true,
                    _ => {}
                }
            }
            final_status.clone_from(&status);
            attempts.push(AttemptProvenance {
                day: attempt_day,
                status,
                fault,
            });
        }
        if attempts.is_empty() {
            return None;
        }
        let dead_lettered = root.children.iter().any(|c| c.name() == "dead_letter");
        Some(Provenance {
            domain,
            rank,
            vantage,
            day,
            trace_id: root.begin.trace_id,
            attempts,
            outcome,
            final_status,
            breaker_opened,
            dead_lettered,
        })
    }
}

/// The campaign's provenance store: one record per processed pair, in
/// processing order, persisted inside `CampaignState` checkpoints.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProvenanceLog {
    records: Vec<Provenance>,
}

/// Import error for the provenance line format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvenanceImportError {
    /// 1-based line number (0 for header problems).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ProvenanceImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "provenance import error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ProvenanceImportError {}

const HEADER: &str = "#consent-provenance v1";

impl ProvenanceLog {
    /// Empty log.
    pub fn new() -> ProvenanceLog {
        ProvenanceLog::default()
    }

    /// Record one processed pair. Also bumps the
    /// `campaign.provenance{outcome=…}` telemetry family, so a
    /// registry window's counts reconcile with the stored records.
    pub fn push(&mut self, record: Provenance) {
        consent_telemetry::count_labeled("campaign.provenance", &[("outcome", &record.outcome)], 1);
        self.records.push(record);
    }

    /// All records, in processing order.
    pub fn records(&self) -> &[Provenance] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no pair has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for one `(domain, vantage-code)` pair, if present.
    pub fn find(&self, domain: &str, vantage: &str) -> Option<&Provenance> {
        self.records
            .iter()
            .find(|p| p.domain == domain && p.vantage == vantage)
    }

    /// The record with the given trace id, if present.
    pub fn by_trace(&self, trace_id: u64) -> Option<&Provenance> {
        self.records.iter().find(|p| p.trace_id == trace_id)
    }

    /// Serialize to the line format: one record per line, tab-separated,
    /// attempts as `day:status:fault` comma lists (`-` for no fault).
    pub fn export(&self) -> String {
        let mut out = String::with_capacity(HEADER.len() + 1 + self.line_bytes(0));
        out.push_str(HEADER);
        out.push('\n');
        self.write_lines(0, &mut out);
        out
    }

    /// The record lines of entries `from..` only, without the header —
    /// the body of a provenance delta checkpoint section. Appending
    /// these lines to the base export reconstructs the full export,
    /// which is how chain recovery reassembles the log (STORAGE.md).
    /// Cost is proportional to the records past `from`. `from` past the
    /// end yields an empty string.
    pub fn export_from(&self, from: usize) -> String {
        let mut out = String::with_capacity(self.line_bytes(from));
        self.write_lines(from, &mut out);
        out
    }

    /// The records past `from`, or none when `from` is past the end.
    fn records_from(&self, from: usize) -> &[Provenance] {
        self.records.get(from..).unwrap_or_default()
    }

    /// An upper bound on the bytes [`write_lines`](Self::write_lines)
    /// appends for the records past `from`: the record's strings, the
    /// largest number widths and every separator.
    fn line_bytes(&self, from: usize) -> usize {
        self.records_from(from)
            .iter()
            .map(|r| {
                let attempts: usize = r
                    .attempts
                    .iter()
                    .map(|a| {
                        a.day.len() + a.status.len() + a.fault.as_ref().map_or(1, String::len) + 3
                    })
                    .sum();
                let strings = r.domain.len()
                    + r.vantage.len()
                    + r.day.len()
                    + r.outcome.len()
                    + r.final_status.len();
                // 20 rank digits, 16 trace-id digits, two flags, nine
                // tabs and the newline.
                strings + attempts + 20 + 16 + 2 + 10
            })
            .sum()
    }

    /// Append the record lines of entries `from..` to `out`.
    fn write_lines(&self, from: usize, out: &mut String) {
        for r in self.records_from(from) {
            out.push_str(&r.domain);
            // Writing into a `String` cannot fail.
            let _ = write!(out, "\t{}\t", r.rank);
            out.push_str(&r.vantage);
            out.push('\t');
            out.push_str(&r.day);
            let _ = write!(out, "\t{:016x}\t", r.trace_id);
            out.push_str(&r.outcome);
            out.push('\t');
            out.push_str(&r.final_status);
            out.push_str(if r.breaker_opened { "\t1" } else { "\t0" });
            out.push_str(if r.dead_lettered { "\t1\t" } else { "\t0\t" });
            for (i, a) in r.attempts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&a.day);
                out.push(':');
                out.push_str(&a.status);
                out.push(':');
                out.push_str(a.fault.as_deref().unwrap_or("-"));
            }
            out.push('\n');
        }
    }

    /// Parse the line format back. Records go straight into the store —
    /// import must not re-count telemetry the original run counted.
    pub fn import(text: &str) -> Result<ProvenanceLog, ProvenanceImportError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ProvenanceImportError {
            line: 0,
            message: "empty input".into(),
        })?;
        if header != HEADER {
            return Err(ProvenanceImportError {
                line: 0,
                message: format!("unsupported header {header:?}"),
            });
        }
        let mut log = ProvenanceLog::new();
        for (i, line) in lines {
            if line.is_empty() {
                continue;
            }
            let err = |message: String| ProvenanceImportError {
                line: i + 1,
                message,
            };
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 10 {
                return Err(err(format!("expected 10 fields, got {}", fields.len())));
            }
            let rank: u64 = fields[1]
                .parse()
                .map_err(|e| err(format!("bad rank: {e}")))?;
            let trace_id = u64::from_str_radix(fields[4], 16)
                .map_err(|e| err(format!("bad trace id: {e}")))?;
            let flag = |s: &str, what: &str| match s {
                "0" => Ok(false),
                "1" => Ok(true),
                other => Err(err(format!("bad {what} flag {other:?}"))),
            };
            let breaker_opened = flag(fields[7], "breaker")?;
            let dead_lettered = flag(fields[8], "dead-letter")?;
            let mut attempts = Vec::new();
            if !fields[9].is_empty() {
                for part in fields[9].split(',') {
                    let bits: Vec<&str> = part.split(':').collect();
                    if bits.len() != 3 {
                        return Err(err(format!("bad attempt {part:?}")));
                    }
                    attempts.push(AttemptProvenance {
                        day: bits[0].to_string(),
                        status: bits[1].to_string(),
                        fault: (bits[2] != "-").then(|| bits[2].to_string()),
                    });
                }
            }
            if attempts.is_empty() {
                return Err(err("record without attempts".into()));
            }
            log.records.push(Provenance {
                domain: fields[0].to_string(),
                rank,
                vantage: fields[2].to_string(),
                day: fields[3].to_string(),
                trace_id,
                attempts,
                outcome: fields[5].to_string(),
                final_status: fields[6].to_string(),
                breaker_opened,
                dead_lettered,
            });
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Phase, TraceEvent};

    fn sample() -> Provenance {
        Provenance {
            domain: "a.example".into(),
            rank: 12,
            vantage: "eu-fast-enus".into(),
            day: "2020-05-15".into(),
            trace_id: 0xfeed_f00d_dead_beef,
            attempts: vec![
                AttemptProvenance {
                    day: "2020-05-15".into(),
                    status: "timeout".into(),
                    fault: Some("timeout".into()),
                },
                AttemptProvenance {
                    day: "2020-05-17".into(),
                    status: "ok".into(),
                    fault: None,
                },
            ],
            outcome: "success".into(),
            final_status: "ok".into(),
            breaker_opened: false,
            dead_lettered: false,
        }
    }

    #[test]
    fn log_roundtrips_through_the_line_format() {
        let mut log = ProvenanceLog::new();
        log.push(sample());
        log.push(Provenance {
            domain: "b.example".into(),
            rank: 40,
            vantage: "us-fast-enus".into(),
            outcome: "transient".into(),
            final_status: "antibot".into(),
            breaker_opened: true,
            dead_lettered: true,
            ..sample()
        });
        let text = log.export();
        let back = ProvenanceLog::import(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.export(), text);
        assert_eq!(back.len(), 2);
        assert!(
            back.find("b.example", "us-fast-enus")
                .unwrap()
                .dead_lettered
        );
        assert_eq!(
            back.by_trace(0xfeed_f00d_dead_beef).unwrap().domain,
            "a.example"
        );
        assert!(back.find("a.example", "uni-ext-de").is_none());
    }

    #[test]
    fn import_rejects_corruption() {
        assert!(ProvenanceLog::import("").is_err());
        assert!(ProvenanceLog::import("#nope\n").is_err());
        let h = format!("{HEADER}\n");
        assert!(ProvenanceLog::import(&format!("{h}too\tfew\n")).is_err());
        let ok = "a\t1\teu-fast-enus\t2020-05-15\t0000000000000001\tsuccess\tok\t0\t0\t2020-05-15:ok:-\n";
        assert!(ProvenanceLog::import(&format!("{h}{ok}")).is_ok());
        let bad_rank = ok.replace("a\t1", "a\tNaN");
        assert!(ProvenanceLog::import(&format!("{h}{bad_rank}")).is_err());
        let bad_trace = ok.replace("0000000000000001", "zzzz");
        assert!(ProvenanceLog::import(&format!("{h}{bad_trace}")).is_err());
        let bad_flag = ok.replace("\t0\t0\t", "\t2\t0\t");
        assert!(ProvenanceLog::import(&format!("{h}{bad_flag}")).is_err());
        let no_attempts = ok.replace("2020-05-15:ok:-", "");
        assert!(ProvenanceLog::import(&format!("{h}{no_attempts}")).is_err());
        let bad_attempt = ok.replace("2020-05-15:ok:-", "2020-05-15~ok");
        assert!(ProvenanceLog::import(&format!("{h}{bad_attempt}")).is_err());
        let e = ProvenanceLog::import(&format!("{h}bad\n")).unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn degraded_and_faults_derive_from_fields() {
        let p = sample();
        assert!(!p.degraded());
        assert_eq!(p.injected_faults().collect::<Vec<_>>(), vec!["timeout"]);
        let cut = Provenance {
            final_status: "truncated".into(),
            ..sample()
        };
        assert!(cut.degraded());
        let json = cut.to_json().to_compact();
        let doc = consent_util::Json::parse(&json).unwrap();
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(
            doc.get("attempts")
                .and_then(|a| a.at(1))
                .and_then(|a| a.get("fault")),
            Some(&Json::Null)
        );
    }

    #[test]
    fn from_tree_matches_the_stored_record() {
        // Hand-build the event stream the campaign emits for `sample()`.
        let a = |k: &'static str, v: &str| (k, v.to_string());
        let events = vec![
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 1,
                parent: 0,
                seq: 0,
                phase: Phase::Begin,
                name: "pair",
                attrs: vec![
                    a("domain", "a.example"),
                    a("rank", "12"),
                    a("vantage", "eu-fast-enus"),
                    a("day", "2020-05-15"),
                ],
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 2,
                parent: 1,
                seq: 1,
                phase: Phase::Begin,
                name: "attempt",
                attrs: vec![a("attempt", "1"), a("day", "2020-05-15")],
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 3,
                parent: 2,
                seq: 2,
                phase: Phase::Instant,
                name: "fault.injected",
                attrs: vec![a("fault", "timeout")],
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 4,
                parent: 2,
                seq: 3,
                phase: Phase::Instant,
                name: "attempt.outcome",
                attrs: vec![a("status", "timeout"), a("outcome", "degraded")],
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 2,
                parent: 1,
                seq: 4,
                phase: Phase::End,
                name: "attempt",
                attrs: Vec::new(),
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 5,
                parent: 1,
                seq: 5,
                phase: Phase::Begin,
                name: "attempt",
                attrs: vec![a("attempt", "2"), a("day", "2020-05-17")],
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 6,
                parent: 5,
                seq: 6,
                phase: Phase::Instant,
                name: "attempt.outcome",
                attrs: vec![a("status", "ok"), a("outcome", "success")],
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 5,
                parent: 1,
                seq: 7,
                phase: Phase::End,
                name: "attempt",
                attrs: Vec::new(),
            },
            TraceEvent {
                trace_id: 0xfeed_f00d_dead_beef,
                span_id: 1,
                parent: 0,
                seq: 8,
                phase: Phase::End,
                name: "pair",
                attrs: Vec::new(),
            },
        ];
        let tree = TraceTree::build(&events).unwrap();
        let mut expected = sample();
        expected.outcome = "success".into();
        assert_eq!(Provenance::from_tree(&tree), Some(expected));
        // A non-pair tree distills to nothing.
        let other = TraceTree::build(&[
            TraceEvent {
                trace_id: 1,
                span_id: 1,
                parent: 0,
                seq: 0,
                phase: Phase::Begin,
                name: "other",
                attrs: Vec::new(),
            },
            TraceEvent {
                trace_id: 1,
                span_id: 1,
                parent: 0,
                seq: 1,
                phase: Phase::End,
                name: "other",
                attrs: Vec::new(),
            },
        ])
        .unwrap();
        assert_eq!(Provenance::from_tree(&other), None);
    }
}
