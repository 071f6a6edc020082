//! The dead-letter view: pairs the campaign gave up on.
//!
//! Every `(domain, vantage)` pair that never produced a usable capture —
//! permanent failures, exhausted transient retries, breaker-opened
//! anti-bot escalations, contained panics — is a
//! [`Provenance`] record with
//! `dead_lettered` set. There is no second store: the
//! [`ProvenanceLog`] is the source of truth, and the `dead-letters`
//! checkpoint section is *rendered* from its dead-lettered records so a
//! longitudinal audit can reconcile what was measured against what was
//! abandoned, §3.5 style, without reading the provenance format. On
//! import the persisted section is checked against that rendering
//! instead of parsed, so the two sections of a checkpoint or bundle can
//! never disagree. Format v2 escapes the separator alphabet in the
//! domain field, so a rendered line always has six fields for *any*
//! domain string.

use crate::export::ImportError;
use consent_httpsim::{Language, Location, Timing, Vantage};
use consent_trace::{Provenance, ProvenanceLog};
use std::fmt::Write as _;

const HEADER: &str = "#consent-dead-letters v2";

/// Append `s` escaped for the tab-separated line format. v2 of the
/// format escapes the separator alphabet (`\t`, `\n`, `\r`) and the
/// escape character itself, so a hostile or garbage domain string can
/// never smuggle extra fields or records into an export.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// The `dead-letters` section of `log`: the header, then one line per
/// dead-lettered record (tab-separated, attempts as `day:status` comma
/// lists).
pub(crate) fn export(log: &ProvenanceLog) -> String {
    let mut out = String::with_capacity(HEADER.len() + 1 + line_bytes(log, 0));
    out.push_str(HEADER);
    out.push('\n');
    write_lines(log, 0, &mut out);
    out
}

/// The dead-letter lines of the records `from..` of `log` only, without
/// the header — the body of a dead-letter delta checkpoint section.
/// `from` counts provenance records, so a delta cut needs no cursor of
/// its own: appending these lines to the section rendered at the cut
/// reconstructs the full section (STORAGE.md). Cost is proportional to
/// the records past `from`; `from` past the end yields an empty string.
pub(crate) fn export_from(log: &ProvenanceLog, from: usize) -> String {
    let mut out = String::with_capacity(line_bytes(log, from));
    write_lines(log, from, &mut out);
    out
}

/// The dead-lettered records past `from`, in processing order.
fn letters(log: &ProvenanceLog, from: usize) -> impl Iterator<Item = &Provenance> {
    let records = log.records().get(from..).unwrap_or_default();
    records.iter().filter(|r| r.dead_lettered)
}

/// An upper bound on the bytes [`write_lines`] appends: every domain
/// byte escaped, the largest rank, every string and separator.
fn line_bytes(log: &ProvenanceLog, from: usize) -> usize {
    letters(log, from)
        .map(|r| {
            let attempts: usize = r
                .attempts
                .iter()
                .map(|a| a.day.len() + a.status.len() + 2)
                .sum();
            // 20 rank digits, the breaker flag, five tabs and the newline.
            2 * r.domain.len() + r.vantage.len() + r.outcome.len() + attempts + 20 + 1 + 6
        })
        .sum()
}

/// Append the dead-letter lines of the records `from..` to `out`.
fn write_lines(log: &ProvenanceLog, from: usize, out: &mut String) {
    for r in letters(log, from) {
        push_escaped(out, &r.domain);
        // Writing into a `String` cannot fail.
        let _ = write!(out, "\t{}\t", r.rank);
        out.push_str(&r.vantage);
        out.push('\t');
        out.push_str(&r.outcome);
        out.push_str(if r.breaker_opened { "\t1\t" } else { "\t0\t" });
        for (i, a) in r.attempts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&a.day);
            out.push(':');
            out.push_str(&a.status);
        }
        out.push('\n');
    }
}

/// Check a persisted `dead-letters` section against the section `log`
/// renders. Blank lines are skipped. The first line that differs — a
/// changed field, a record the log does not dead-letter, or a missing
/// one (reported one past the section's last line) — is an error with
/// its 1-based line number inside `section`.
pub(crate) fn check(section: &str, log: &ProvenanceLog) -> Result<(), ImportError> {
    let mut lines = section.lines().enumerate().filter(|(_, l)| !l.is_empty());
    let err = |line: usize, message: String| Err(ImportError { line, message });
    for want in export(log).lines() {
        match lines.next() {
            Some((_, got)) if got == want => {}
            Some((i, got)) => {
                return err(
                    i + 1,
                    format!("{got:?} disagrees with the provenance log, which renders {want:?}"),
                )
            }
            None => {
                return err(
                    section.lines().count() + 1,
                    format!("missing {want:?}, rendered from the provenance log"),
                )
            }
        }
    }
    match lines.next() {
        Some((i, got)) => err(
            i + 1,
            format!("{got:?} has no dead-lettered provenance record"),
        ),
        None => Ok(()),
    }
}

/// Compact stable code for a vantage, e.g. `uni-ext-de`. Shared by the
/// dead-letter and provenance line formats and by trace attributes, so
/// every persistence layer names the six Table 1 columns identically.
pub fn vantage_code(v: Vantage) -> String {
    let loc = match v.location {
        Location::UsCloud => "us",
        Location::EuCloud => "eu",
        Location::EuUniversity => "uni",
    };
    let timing = match v.timing {
        Timing::Aggressive => "fast",
        Timing::Extended => "ext",
    };
    let lang = match v.language {
        Language::EnUs => "enus",
        Language::De => "de",
        Language::EnGb => "engb",
    };
    format!("{loc}-{timing}-{lang}")
}

/// Parse a [`vantage_code`] back into its [`Vantage`].
pub fn vantage_from(code: &str) -> Option<Vantage> {
    let mut parts = code.split('-');
    let location = match parts.next()? {
        "us" => Location::UsCloud,
        "eu" => Location::EuCloud,
        "uni" => Location::EuUniversity,
        _ => return None,
    };
    let timing = match parts.next()? {
        "fast" => Timing::Aggressive,
        "ext" => Timing::Extended,
        _ => return None,
    };
    let language = match parts.next()? {
        "enus" => Language::EnUs,
        "de" => Language::De,
        "engb" => Language::EnGb,
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(Vantage {
        location,
        timing,
        language,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_trace::AttemptProvenance;
    use proptest::prelude::*;

    fn attempt(day: &str, status: &str) -> AttemptProvenance {
        AttemptProvenance {
            day: day.into(),
            status: status.into(),
            fault: None,
        }
    }

    /// A dead-lettered 451 at the EU cloud vantage.
    fn letter_for(domain: &str) -> Provenance {
        Provenance {
            domain: domain.into(),
            rank: 9,
            vantage: "eu-fast-enus".into(),
            day: "2020-05-15".into(),
            trace_id: 1,
            attempts: vec![attempt("2020-05-15", "blocked451")],
            outcome: "permanent".into(),
            final_status: "blocked451".into(),
            breaker_opened: false,
            dead_lettered: true,
        }
    }

    fn log_of(records: impl IntoIterator<Item = Provenance>) -> ProvenanceLog {
        let mut log = ProvenanceLog::new();
        for r in records {
            log.push(r);
        }
        log
    }

    /// Two dead letters around a pair that succeeded.
    fn sample() -> Vec<Provenance> {
        vec![
            Provenance {
                rank: 17,
                ..letter_for("blocked.example")
            },
            Provenance {
                rank: 18,
                attempts: vec![attempt("2020-05-15", "ok")],
                outcome: "success".into(),
                final_status: "ok".into(),
                dead_lettered: false,
                ..letter_for("fine.example")
            },
            Provenance {
                rank: 203,
                vantage: vantage_code(Vantage::table1_columns()[4]),
                attempts: vec![
                    attempt("2020-05-15", "antibot"),
                    attempt("2020-05-17", "antibot"),
                    attempt("2020-05-19", "antibot"),
                ],
                outcome: "transient".into(),
                final_status: "antibot".into(),
                breaker_opened: true,
                ..letter_for("fortress.example")
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let records = sample();
        let log = log_of(records.clone());
        let text = export(&log);
        assert_eq!(
            text,
            format!(
                "{HEADER}\n\
                 blocked.example\t17\teu-fast-enus\tpermanent\t0\t2020-05-15:blocked451\n\
                 fortress.example\t203\tuni-ext-de\ttransient\t1\t\
                 2020-05-15:antibot,2020-05-17:antibot,2020-05-19:antibot\n"
            )
        );
        assert_eq!(check(&text, &log), Ok(()));
        // The section rendered at any cut plus the delta body past it is
        // the whole section: how chain recovery reassembles it.
        for cut in 0..=records.len() + 1 {
            let at_cut = log_of(records.iter().take(cut).cloned());
            assert_eq!(export(&at_cut) + &export_from(&log, cut), text, "cut {cut}");
        }
    }

    #[test]
    fn vantage_codes_are_unique_and_roundtrip() {
        let mut codes: Vec<String> = Vantage::table1_columns()
            .iter()
            .map(|&v| vantage_code(v))
            .collect();
        for (code, &v) in codes.iter().zip(Vantage::table1_columns().iter()) {
            assert_eq!(vantage_from(code), Some(v));
        }
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), 6);
        assert_eq!(vantage_from("us-fast"), None);
        assert_eq!(vantage_from("us-fast-enus-extra"), None);
        assert_eq!(vantage_from("moon-fast-enus"), None);
    }

    #[test]
    fn rejects_bad_input() {
        let log = log_of(sample());
        let text = export(&log);
        let lines: Vec<&str> = text.lines().collect();
        let at = |section: &str| check(section, &log).unwrap_err().line;
        // Missing or wrong header.
        assert_eq!(at(""), 1);
        assert_eq!(at("#nope\n"), 1);
        // Garbage, a changed field, a flipped breaker flag.
        assert_eq!(at(&format!("{HEADER}\ntoo\tfew\n{}\n", lines[2])), 2);
        assert_eq!(at(&text.replace("\t17\t", "\tNaN\t")), 2);
        assert_eq!(at(&text.replace("\ttransient\t1\t", "\ttransient\t0\t")), 3);
        // A dropped record: the next one shows up in its place, or the
        // section ends one line early.
        assert_eq!(at(&format!("{HEADER}\n{}\n", lines[2])), 2);
        assert_eq!(at(&format!("{HEADER}\n{}\n", lines[1])), 3);
        // A record no provenance backs, even a copy of a real one.
        let e = check(&format!("{text}{}\n", lines[1]), &log).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("no dead-lettered provenance record"));
        // Blank lines are not records, and errors display their line.
        assert_eq!(check(&text.replace('\n', "\n\n"), &log), Ok(()));
        let e = check(&format!("{HEADER}\nbad\n"), &log).unwrap_err();
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn empty_queue_roundtrips() {
        let empty = ProvenanceLog::new();
        assert_eq!(export(&empty), format!("{HEADER}\n"));
        assert_eq!(check(&export(&empty), &empty), Ok(()));
        // A log that dead-lettered nothing renders the same section.
        let kept = log_of(sample().into_iter().filter(|p| !p.dead_lettered));
        assert_eq!(export(&kept), export(&empty));
        assert_eq!(export_from(&kept, 0), "");
        // ...and that section cannot stand in for one with records.
        assert_eq!(
            check(&export(&empty), &log_of(sample())).unwrap_err().line,
            2
        );
    }

    #[test]
    fn hostile_domains_cannot_smuggle_fields_or_records() {
        let log = log_of([
            letter_for("evil\t1\tco\nfake.example\t2\teu-fast-enus\tpermanent\t0\t"),
            letter_for("back\\slash.example\r"),
        ]);
        let text = export(&log);
        // Exactly header + 2 records, each still 6 tab-separated fields.
        assert_eq!(text.lines().count(), 3);
        for line in text.lines().skip(1) {
            assert_eq!(line.split('\t').count(), 6);
        }
        assert_eq!(check(&text, &log), Ok(()));
    }

    #[test]
    fn bad_escapes_are_structured_errors() {
        for domain in ["half\\", "bad\\q.example"] {
            let log = log_of([letter_for(domain)]);
            assert_eq!(check(&export(&log), &log), Ok(()));
            // The unescaped line an escaping bug would persist.
            let raw = format!(
                "{HEADER}\n{domain}\t9\teu-fast-enus\tpermanent\t0\t2020-05-15:blocked451\n"
            );
            let e = check(&raw, &log).unwrap_err();
            assert_eq!(e.line, 2, "{domain:?}");
            assert!(
                e.message.contains("disagrees"),
                "{domain:?} -> {}",
                e.message
            );
        }
        // v1 exports (no escaping) are a different format, not silently
        // reinterpreted.
        let e = check("#consent-dead-letters v1\n", &ProvenanceLog::new()).unwrap_err();
        assert_eq!(e.line, 1);
    }

    proptest! {
        #[test]
        fn prop_exports_roundtrip_any_domain(
            raw in proptest::collection::vec(0usize..10, 0..24),
            rank in 1u64..100_000,
            breaker in proptest::arbitrary::any::<bool>(),
        ) {
            const ALPHABET: [char; 10] =
                ['a', 'z', '0', '.', '-', '_', '\\', '\t', '\n', '\r'];
            let domain: String = raw.iter().map(|&i| ALPHABET[i]).collect();
            let log = log_of([Provenance {
                rank,
                breaker_opened: breaker,
                ..letter_for(&domain)
            }]);
            let text = export(&log);
            prop_assert_eq!(text.lines().count(), 2);
            let fields: Vec<&str> = text.lines().nth(1).unwrap().split('\t').collect();
            prop_assert_eq!(fields.len(), 6);
            prop_assert_eq!(fields[1], rank.to_string());
            prop_assert_eq!(fields[4], if breaker { "1" } else { "0" });
            prop_assert_eq!(check(&text, &log), Ok(()));
        }
    }
}
