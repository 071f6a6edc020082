//! Prometheus text-exposition rendering of a telemetry [`Snapshot`].
//!
//! Output follows the text format version 0.0.4: one `# TYPE` line per
//! metric family, counters suffixed `_total`, gauges verbatim, and
//! histograms rendered as `summary` families (the registry's histograms
//! already reduce to p50/p95/p99, which is exactly a summary's shape).
//! Registry keys like `campaign.outcome{outcome=ok}` are split by
//! [`parse_key`] into family + labels; names are sanitized to the
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` grammar and label values escaped per the
//! spec. Every family also gets a `# HELP` line: the text comes from a
//! small static registry of known metric prefixes ([`HELP`]), falling
//! back to the sanitized family name for metrics nobody documented.

use consent_telemetry::registry::parse_key;
use consent_telemetry::Snapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize a metric name: every character outside `[a-zA-Z0-9_:]`
/// becomes `_`, and a leading digit gets a `_` prefix.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// HELP text by metric-name prefix (matched against the sanitized
/// family name, longest-prefix-first is not needed — prefixes are
/// disjoint). Unknown families fall back to their sanitized name.
pub const HELP: &[(&str, &str)] = &[
    (
        "campaign.degrade",
        "Degradation-ladder descents and current rung of the checkpoint supervisor.",
    ),
    (
        "campaign.",
        "Campaign executor: pair processing, chunk progress, and per-pair outcomes.",
    ),
    (
        "capture_db.",
        "Capture database inserts by vantage location and capture status.",
    ),
    (
        "checkpoint.",
        "Durable checkpoint store: writes, opens, IO faults, retries, and maintenance.",
    ),
    (
        "supervisor.",
        "Self-healing write supervisor: logical backoff and recovery timing.",
    ),
    (
        "engine.",
        "Capture engine spans (page fetch and consent-dialog interaction).",
    ),
    (
        "fingerprint.",
        "CMP fingerprint detection verdicts (hits by CMP, misses, degraded inputs).",
    ),
    (
        "faultsim.",
        "Deterministically injected network and storage chaos.",
    ),
    ("trace.", "Structured trace log volume."),
    (
        "watch.",
        "Campaign watchdog: alert lifecycle transitions and currently pending/firing alerts.",
    ),
];

/// The `# HELP` text for one sanitized family name.
fn help_for(family: &str) -> String {
    for (prefix, help) in HELP {
        if family.starts_with(&sanitize_name(prefix)) {
            return (*help).to_string();
        }
    }
    format!("Metric {family}.")
}

/// Escape HELP text: backslash and newline per the exposition-format
/// spec (double quotes are legal in help text).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape a label value: backslash, double quote, and newline per the
/// exposition-format spec.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a label set (pre-sanitized names, raw values) as
/// `{k="v",…}`, or the empty string for no labels.
fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out.push('}');
    out
}

fn parsed_labels(key: &str) -> (String, Vec<(String, String)>) {
    let (base, labels) = parse_key(key);
    (
        sanitize_name(base),
        labels
            .into_iter()
            .map(|(k, v)| (sanitize_name(k), v.to_string()))
            .collect(),
    )
}

/// Label pairs for one series within a family.
type Labels = Vec<(String, String)>;

/// Group keys by sanitized family name, preserving per-key labels.
fn families<'a, T>(
    metrics: impl Iterator<Item = (&'a String, T)>,
) -> BTreeMap<String, Vec<(Labels, T)>> {
    let mut out: BTreeMap<String, Vec<(Labels, T)>> = BTreeMap::new();
    for (key, value) in metrics {
        let (family, labels) = parsed_labels(key);
        out.entry(family).or_default().push((labels, value));
    }
    out
}

/// Render `snapshot` in Prometheus text exposition format 0.0.4.
///
/// Deterministic: families and series appear in sorted key order, so
/// equal snapshots render to equal bytes.
pub fn exposition(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (family, series) in families(snapshot.counters.iter().map(|(k, v)| (k, *v))) {
        let name = format!("{family}_total");
        let _ = writeln!(out, "# HELP {name} {}", escape_help(&help_for(&family)));
        let _ = writeln!(out, "# TYPE {name} counter");
        for (labels, value) in series {
            let _ = writeln!(out, "{name}{} {value}", label_block(&labels));
        }
    }
    for (family, series) in families(snapshot.gauges.iter().map(|(k, v)| (k, *v))) {
        let _ = writeln!(out, "# HELP {family} {}", escape_help(&help_for(&family)));
        let _ = writeln!(out, "# TYPE {family} gauge");
        for (labels, value) in series {
            let _ = writeln!(out, "{family}{} {value}", label_block(&labels));
        }
    }
    for (family, series) in families(snapshot.histograms.iter().map(|(k, h)| (k, *h))) {
        let _ = writeln!(out, "# HELP {family} {}", escape_help(&help_for(&family)));
        let _ = writeln!(out, "# TYPE {family} summary");
        for (labels, h) in series {
            for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                let mut ql = labels.clone();
                ql.push(("quantile".to_string(), q.to_string()));
                let _ = writeln!(out, "{family}{} {v}", label_block(&ql));
            }
            let block = label_block(&labels);
            let _ = writeln!(out, "{family}_sum{block} {}", h.sum);
            let _ = writeln!(out, "{family}_count{block} {}", h.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_telemetry::Registry;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("campaign.pair"), "campaign_pair");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn escapes_label_values() {
        let block = label_block(&[("loc".to_string(), "EU \"cloud\"\n\\x".to_string())]);
        assert_eq!(block, "{loc=\"EU \\\"cloud\\\"\\n\\\\x\"}");
    }

    #[test]
    fn renders_all_three_kinds_with_one_type_line_per_family() {
        let reg = Registry::new();
        reg.counter_labeled("campaign.outcome", &[("outcome", "ok")])
            .add(7);
        reg.counter_labeled("campaign.outcome", &[("outcome", "dead letter")])
            .add(2);
        reg.gauge("queue.tracked_urls").set(-3);
        reg.histogram("campaign.pair").record(100);
        reg.histogram("campaign.pair").record(300);
        let text = exposition(&reg.snapshot());

        assert_eq!(
            text.matches("# TYPE campaign_outcome_total counter")
                .count(),
            1,
            "{text}"
        );
        assert!(text.contains("campaign_outcome_total{outcome=\"ok\"} 7"));
        assert!(text.contains("campaign_outcome_total{outcome=\"dead letter\"} 2"));
        assert!(text.contains("# TYPE queue_tracked_urls gauge"));
        assert!(text.contains("queue_tracked_urls -3"));
        assert!(text.contains("# TYPE campaign_pair summary"));
        assert!(text.contains("campaign_pair{quantile=\"0.5\"}"));
        assert!(text.contains("campaign_pair{quantile=\"0.95\"}"));
        assert!(text.contains("campaign_pair{quantile=\"0.99\"}"));
        assert!(text.contains("campaign_pair_sum 400"));
        assert!(text.contains("campaign_pair_count 2"));

        // HELP metadata: known prefixes get curated text, unknown
        // families fall back to their sanitized name; exactly one HELP
        // line per family, directly above its TYPE line.
        assert!(text.contains("# HELP campaign_outcome_total Campaign executor:"));
        assert!(text.contains("# HELP campaign_pair Campaign executor:"));
        assert!(text.contains("# HELP queue_tracked_urls Metric queue_tracked_urls."));
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("# TYPE ") {
                assert!(
                    i > 0 && lines[i - 1].starts_with("# HELP "),
                    "TYPE without preceding HELP: {line}"
                );
            }
        }

        // Structural invariants every line must satisfy.
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP name + text");
                assert!(!help.is_empty());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap();
                assert!(matches!(
                    parts.next(),
                    Some("counter" | "gauge" | "summary")
                ));
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            } else {
                let (series, value) = line.rsplit_once(' ').expect("sample line");
                assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
                let name = series.split('{').next().unwrap();
                assert!(!name.is_empty());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            }
        }
    }

    #[test]
    fn deterministic_for_equal_snapshots() {
        let mk = || {
            let reg = Registry::new();
            reg.counter("b").add(2);
            reg.counter("a").add(1);
            reg.gauge("g").set(4);
            reg.histogram("h").record(10);
            exposition(&reg.snapshot())
        };
        assert_eq!(mk(), mk());
    }
}
