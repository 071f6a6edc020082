//! The watch rule grammar: which detectors run, with what thresholds.
//!
//! Rules are integers end to end (per-mille ratios, centi-z-scores,
//! tick counts), so a spec round-trips exactly through
//! [`fmt::Display`] and [`WatchConfig::parse`] — the same property the
//! `CONSENT_IO_CHAOS` grammar has, and what the proptest in
//! `tests/it_watch.rs` pins.
//!
//! Spec grammar (also what [`fmt::Display`] emits):
//!
//! ```text
//! none                          no rules (the default)
//! default                       the named default rule set
//! slo:metric:permille:windows   burn-rate SLO rule;
//!                               metric ∈ usable|deadletter|iofault|retry,
//!                               permille ∈ 1..=1000, windows ≥ 1
//! drift:metric:centiz:warmup    EWMA drift rule;
//!                               metric ∈ cmp|throughput,
//!                               centiz ≥ 1 (z-score × 100), warmup ≥ 1
//! gap:ticks                     coverage-gap rule, ticks ≥ 1
//! a;b;c                         any of the above, semicolon-joined
//! ```

use std::fmt;

/// Which ratio a burn-rate SLO rule watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloMetric {
    /// Usable-capture rate per vantage location (`capture_db.insert`
    /// status deltas; usable = Ok/Timeout/Truncated). Breaches when the
    /// rate falls *below* the threshold.
    Usable,
    /// Dead-letter rate (`campaign.outcome` deltas; dead = any outcome
    /// other than success/degraded). Breaches *above* the threshold.
    DeadLetter,
    /// Checkpoint I/O-fault rate: the window's `checkpoint.io_fault`
    /// count over that count + 1, the durable write that closes the
    /// window. A window's write faults are judged in that window.
    /// Breaches *above* the threshold.
    IoFault,
    /// Checkpoint retry rate: the window's `checkpoint.retry` count
    /// over that count + 1, the durable write that closes the window.
    /// Breaches *above* the threshold.
    Retry,
}

impl SloMetric {
    /// Stable lowercase label used in specs and alert ids.
    pub fn label(&self) -> &'static str {
        match self {
            SloMetric::Usable => "usable",
            SloMetric::DeadLetter => "deadletter",
            SloMetric::IoFault => "iofault",
            SloMetric::Retry => "retry",
        }
    }

    fn parse(s: &str) -> Option<SloMetric> {
        match s {
            "usable" => Some(SloMetric::Usable),
            "deadletter" => Some(SloMetric::DeadLetter),
            "iofault" => Some(SloMetric::IoFault),
            "retry" => Some(SloMetric::Retry),
            _ => None,
        }
    }
}

/// Which series an EWMA drift rule watches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftMetric {
    /// CMP detection rate per window (per-mille of
    /// `fingerprint.detect.hit` over hits + misses).
    Cmp,
    /// Pairs processed per window (`campaign.progress` delta) — the
    /// logical-tick stand-in for pairs/sec.
    Throughput,
}

impl DriftMetric {
    /// Stable lowercase label used in specs and alert ids.
    pub fn label(&self) -> &'static str {
        match self {
            DriftMetric::Cmp => "cmp",
            DriftMetric::Throughput => "throughput",
        }
    }

    fn parse(s: &str) -> Option<DriftMetric> {
        match s {
            "cmp" => Some(DriftMetric::Cmp),
            "throughput" => Some(DriftMetric::Throughput),
            _ => None,
        }
    }
}

/// One multi-window burn-rate SLO rule.
///
/// The rule breaches when the *current* window's ratio crosses
/// `threshold_pm`; the alert escalates pending → firing only when the
/// aggregate ratio over the last `long_windows` windows crosses it too
/// (the classic short-window + long-window burn-rate pairing: the short
/// window reacts, the long window confirms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloRule {
    /// Which ratio to watch.
    pub metric: SloMetric,
    /// Threshold in parts per thousand (1..=1000).
    pub threshold_pm: u64,
    /// Long-window length in samples (≥ 1).
    pub long_windows: u64,
}

impl SloRule {
    /// True when `value_pm` (with `den > 0` data behind it) violates
    /// this rule's objective.
    pub fn breaches(&self, value_pm: u64) -> bool {
        match self.metric {
            SloMetric::Usable => value_pm < self.threshold_pm,
            _ => value_pm > self.threshold_pm,
        }
    }
}

impl fmt::Display for SloRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slo:{}:{}:{}",
            self.metric.label(),
            self.threshold_pm,
            self.long_windows
        )
    }
}

/// One EWMA z-score drift rule: after `warmup` observed windows, a
/// window whose value deviates from the EWMA mean by more than
/// `z_centi`/100 mean-absolute-deviations opens a drift alert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriftRule {
    /// Which series to watch.
    pub metric: DriftMetric,
    /// Z-score threshold × 100 (≥ 1).
    pub z_centi: u64,
    /// Windows observed before the detector arms (≥ 1).
    pub warmup: u64,
}

impl fmt::Display for DriftRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drift:{}:{}:{}",
            self.metric.label(),
            self.z_centi,
            self.warmup
        )
    }
}

/// The coverage-gap rule: alert when a vantage location has gone
/// `ticks` campaign-cursor positions without a usable capture — the
/// live counterpart of the paper's §3.5 interpolation-confidence
/// concern (a gap you see while the campaign runs is a gap you will
/// have to interpolate over later).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapRule {
    /// Gap threshold in ticks (≥ 1). Pending at `ticks`, firing at
    /// `2 × ticks`.
    pub ticks: u64,
}

impl fmt::Display for GapRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gap:{}", self.ticks)
    }
}

/// A full watch configuration: every rule the engine evaluates per
/// sample. Parsed from / rendered to the spec grammar (see the
/// [module docs](self)).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WatchConfig {
    /// Burn-rate SLO rules, in spec order.
    pub slo: Vec<SloRule>,
    /// Drift rules, in spec order.
    pub drift: Vec<DriftRule>,
    /// The optional coverage-gap rule (at most one; a later spec token
    /// replaces an earlier one).
    pub gap: Option<GapRule>,
}

impl WatchConfig {
    /// No rules: the engine observes samples but never alerts.
    pub fn none() -> WatchConfig {
        WatchConfig::default()
    }

    /// True when no rule is configured.
    pub fn is_none(&self) -> bool {
        self.slo.is_empty() && self.drift.is_empty() && self.gap.is_none()
    }

    /// The named `default` rule set: usable-capture ≥ 70% per vantage,
    /// dead-letter ≤ 30%, checkpoint fault/retry ≤ 25% (3-window
    /// confirmation each), 3.0-sigma drift on CMP detection rate and
    /// throughput after 8 warmup windows, and a 25-tick coverage gap.
    pub fn default_rules() -> WatchConfig {
        WatchConfig {
            slo: vec![
                SloRule {
                    metric: SloMetric::Usable,
                    threshold_pm: 700,
                    long_windows: 3,
                },
                SloRule {
                    metric: SloMetric::DeadLetter,
                    threshold_pm: 300,
                    long_windows: 3,
                },
                SloRule {
                    metric: SloMetric::IoFault,
                    threshold_pm: 250,
                    long_windows: 3,
                },
            ],
            drift: vec![
                DriftRule {
                    metric: DriftMetric::Cmp,
                    z_centi: 300,
                    warmup: 8,
                },
                DriftRule {
                    metric: DriftMetric::Throughput,
                    z_centi: 300,
                    warmup: 8,
                },
            ],
            gap: Some(GapRule { ticks: 25 }),
        }
    }

    /// Parse a spec (see the [module docs](self) for the grammar).
    pub fn parse(spec: &str) -> Option<WatchConfig> {
        let mut config = WatchConfig::none();
        for token in spec.split(';') {
            let token = token.trim();
            match token {
                "" => return None,
                "none" => {}
                "default" => {
                    let d = WatchConfig::default_rules();
                    config.slo.extend(d.slo);
                    config.drift.extend(d.drift);
                    config.gap = d.gap;
                }
                _ => {
                    if let Some(rest) = token.strip_prefix("slo:") {
                        let mut parts = rest.split(':');
                        let metric = SloMetric::parse(parts.next()?)?;
                        let threshold_pm: u64 = parts.next()?.parse().ok()?;
                        let long_windows: u64 = parts.next()?.parse().ok()?;
                        if parts.next().is_some()
                            || threshold_pm == 0
                            || threshold_pm > 1000
                            || long_windows == 0
                        {
                            return None;
                        }
                        config.slo.push(SloRule {
                            metric,
                            threshold_pm,
                            long_windows,
                        });
                    } else if let Some(rest) = token.strip_prefix("drift:") {
                        let mut parts = rest.split(':');
                        let metric = DriftMetric::parse(parts.next()?)?;
                        let z_centi: u64 = parts.next()?.parse().ok()?;
                        let warmup: u64 = parts.next()?.parse().ok()?;
                        if parts.next().is_some() || z_centi == 0 || warmup == 0 {
                            return None;
                        }
                        config.drift.push(DriftRule {
                            metric,
                            z_centi,
                            warmup,
                        });
                    } else if let Some(rest) = token.strip_prefix("gap:") {
                        let ticks: u64 = rest.parse().ok()?;
                        if ticks == 0 {
                            return None;
                        }
                        config.gap = Some(GapRule { ticks });
                    } else {
                        return None;
                    }
                }
            }
        }
        Some(config)
    }

    /// Stable description for logs and health reports.
    pub fn describe(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for WatchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                f.write_str(";")?;
            }
            first = false;
            Ok(())
        };
        for r in &self.slo {
            sep(f)?;
            write!(f, "{r}")?;
        }
        for r in &self.drift {
            sep(f)?;
            write!(f, "{r}")?;
        }
        if let Some(g) = &self.gap {
            sep(f)?;
            write!(f, "{g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for spec in [
            "none",
            "slo:usable:700:3",
            "slo:deadletter:300:1;slo:iofault:250:4",
            "drift:cmp:300:8",
            "drift:throughput:150:2;gap:12",
            "slo:retry:500:2;drift:cmp:100:1;gap:1",
        ] {
            let config = WatchConfig::parse(spec).expect(spec);
            assert_eq!(config.to_string(), spec, "canonical specs round-trip");
            assert_eq!(WatchConfig::parse(&config.to_string()), Some(config));
        }
    }

    #[test]
    fn default_rules_round_trip_and_match_the_named_token() {
        let d = WatchConfig::default_rules();
        assert!(!d.is_none());
        assert_eq!(WatchConfig::parse("default"), Some(d.clone()));
        assert_eq!(WatchConfig::parse(&d.to_string()), Some(d));
    }

    #[test]
    fn garbage_is_rejected() {
        for bad in [
            "",
            ";",
            "slo:usable:700",
            "slo:usable:0:3",
            "slo:usable:1001:3",
            "slo:usable:700:0",
            "slo:nope:700:3",
            "drift:cmp:0:8",
            "drift:cmp:300:0",
            "drift:what:300:8",
            "gap:0",
            "gap:x",
            "watch:me",
            "slo:usable:700:3:9",
        ] {
            assert_eq!(WatchConfig::parse(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn none_token_and_empty_config() {
        let c = WatchConfig::parse("none").unwrap();
        assert!(c.is_none());
        assert_eq!(c.to_string(), "none");
    }

    #[test]
    fn later_gap_token_replaces_earlier() {
        let c = WatchConfig::parse("gap:5;gap:9").unwrap();
        assert_eq!(c.gap, Some(GapRule { ticks: 9 }));
    }

    #[test]
    fn slo_breach_direction_depends_on_metric() {
        let usable = SloRule {
            metric: SloMetric::Usable,
            threshold_pm: 700,
            long_windows: 1,
        };
        assert!(usable.breaches(699));
        assert!(!usable.breaches(700));
        let dead = SloRule {
            metric: SloMetric::DeadLetter,
            threshold_pm: 300,
            long_windows: 1,
        };
        assert!(dead.breaches(301));
        assert!(!dead.breaches(300));
    }
}
