//! The detection engine: match fingerprint rules against captures.
//!
//! §3.5 "CMP Detection": network-pattern matching needs no HTML/DOM
//! parsing and detects CMPs even when no dialog is shown (e.g. visiting
//! an EU-centric site from the US). The detector here supports a minimum
//! specificity tier so the ablation bench can compare hostname-only
//! detection (the paper's final choice) against looser rule sets.

use crate::rules::{all_rules, Fingerprint, Signal, GDPR_PHRASES};
use consent_httpsim::Capture;
use consent_webgraph::Cmp;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// A compiled detector.
#[derive(Clone, Debug)]
pub struct Detector {
    rules: Vec<Fingerprint>,
    min_specificity: u8,
}

impl Default for Detector {
    fn default() -> Detector {
        Detector::hostname_only()
    }
}

impl Detector {
    /// The paper's production detector: hostname indicators only
    /// (Table A.2).
    pub fn hostname_only() -> Detector {
        Detector {
            rules: all_rules(),
            min_specificity: 3,
        }
    }

    /// Use every rule at or above `min_specificity` (0 = everything,
    /// including the text rules the paper discarded).
    pub fn with_min_specificity(min_specificity: u8) -> Detector {
        Detector {
            rules: all_rules(),
            min_specificity,
        }
    }

    /// Number of active rules.
    pub fn active_rules(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| r.specificity >= self.min_specificity)
            .count()
    }

    /// Detect every CMP present in a capture. Unusable captures (anti-bot
    /// interstitials, 451s, connection failures) yield nothing by
    /// construction — there is no page content to match. Degraded
    /// captures (timeout cut-offs, truncated records) are matched on
    /// whatever survived: hostname rules work on a partial request log,
    /// so detection degrades gracefully rather than failing closed.
    pub fn detect(&self, capture: &Capture) -> BTreeSet<Cmp> {
        let mut found = BTreeSet::new();
        if !capture.usable() {
            consent_telemetry::count("fingerprint.detect.unusable", 1);
            consent_trace::event("detect", |a| {
                a.push("result", "unusable");
            });
            return found;
        }
        let degraded = capture.degraded();
        if degraded {
            consent_telemetry::count("fingerprint.detect.degraded", 1);
        }
        // The URL rules read rendered URLs, and an asset URL is formatted
        // when rendered: render the log once, for the first such rule.
        let mut urls: Option<Vec<Cow<str>>> = None;
        for rule in &self.rules {
            if rule.specificity < self.min_specificity {
                continue;
            }
            let hit = match &rule.signal {
                Signal::Hostname(h) => capture.contacted(h),
                Signal::UrlSubstring(s) => urls
                    .get_or_insert_with(|| {
                        capture
                            .requests
                            .iter()
                            .map(|r| capture.url(&r.url))
                            .collect()
                    })
                    .iter()
                    .any(|u| u.contains(s)),
                Signal::CssClass(c) => capture
                    .dom
                    .as_ref()
                    .is_some_and(|d| d.dialog_css_classes.iter().any(|x| x == c)),
                Signal::TextPhrase(p) => capture
                    .dom
                    .as_ref()
                    .is_some_and(|d| d.body_text.contains(p)),
            };
            if hit {
                found.insert(rule.cmp);
            }
        }
        consent_trace::event("detect", |a| {
            a.push("result", if found.is_empty() { "miss" } else { "hit" });
            if !found.is_empty() {
                a.push_joined("cmps", found.iter().map(|c| c.name()), ",");
            }
            if degraded {
                a.push("degraded", "1");
            }
        });
        if consent_telemetry::enabled() {
            if found.is_empty() {
                // A miss on a degraded capture may just mean the evidence
                // was cut off — keep it out of the clean-miss count.
                if degraded {
                    consent_telemetry::count("fingerprint.detect.miss_degraded", 1);
                } else {
                    consent_telemetry::count("fingerprint.detect.miss", 1);
                }
            } else {
                for cmp in &found {
                    consent_telemetry::count_labeled(
                        "fingerprint.detect.hit",
                        &[("cmp", cmp.name())],
                        1,
                    );
                }
            }
        }
        found
    }

    /// The single detected CMP, or `None` if zero or ambiguous. The paper
    /// notes multi-CMP pages affect only 0.01 % of captures; analysis
    /// counts them once per CMP via [`Detector::detect`].
    pub fn detect_unique(&self, capture: &Capture) -> Option<Cmp> {
        let found = self.detect(capture);
        if found.len() == 1 {
            found.into_iter().next()
        } else {
            None
        }
    }
}

/// True if the capture's DOM text contains any GDPR phrase — the paper's
/// recall check that no consent dialog slips past the fingerprints.
pub fn has_gdpr_phrase(capture: &Capture) -> bool {
    capture.dom.as_ref().is_some_and(|d| {
        GDPR_PHRASES
            .iter()
            .any(|p| d.body_text.to_lowercase().contains(&p.to_lowercase()))
    })
}

/// Screening report: confusion counts of a detector against ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Screening {
    /// Capture had the CMP and the detector found it.
    pub true_positives: usize,
    /// Detector claimed a CMP that is not on the site.
    pub false_positives: usize,
    /// Site's CMP present in the capture window but missed.
    pub false_negatives: usize,
    /// Correctly empty.
    pub true_negatives: usize,
}

impl Screening {
    /// Precision; 1.0 when nothing was claimed.
    pub fn precision(&self) -> f64 {
        let claimed = self.true_positives + self.false_positives;
        if claimed == 0 {
            1.0
        } else {
            self.true_positives as f64 / claimed as f64
        }
    }

    /// Recall; 1.0 when nothing was present.
    pub fn recall(&self) -> f64 {
        let present = self.true_positives + self.false_negatives;
        if present == 0 {
            1.0
        } else {
            self.true_positives as f64 / present as f64
        }
    }

    /// Tally one capture against ground truth.
    pub fn record(&mut self, truth: Option<Cmp>, detected: &BTreeSet<Cmp>) {
        match truth {
            Some(t) => {
                if detected.contains(&t) {
                    self.true_positives += 1;
                } else {
                    self.false_negatives += 1;
                }
                self.false_positives += detected.iter().filter(|&&d| d != t).count();
            }
            None => {
                if detected.is_empty() {
                    self.true_negatives += 1;
                } else {
                    self.false_positives += detected.len();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_httpsim::{CaptureOptions, Engine, Vantage};
    use consent_util::{Day, SeedTree};
    use consent_webgraph::{AdoptionConfig, GeoBehavior, Reachability, World, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 20_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    #[test]
    fn detects_adopters_at_eu_university() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let engine = Engine::new(&w, SeedTree::new(1));
        let det = Detector::hostname_only();
        let vantage = Vantage::table1_columns()[3];
        let mut screening = Screening::default();
        for rank in 1..=3_000u32 {
            let p = w.profile(rank);
            if p.reachability != Reachability::Ok {
                continue;
            }
            // Restrict to embed-always, clean sites: at this vantage the
            // detector must be essentially perfect on them.
            let clean = p.behavior.as_ref().is_none_or(|b| {
                b.geo == GeoBehavior::EmbedAlways && !b.anti_bot_cdn && !b.slow_load
            });
            if !clean {
                continue;
            }
            let c = engine.capture(
                &format!("https://{}/", p.domain),
                day,
                vantage,
                CaptureOptions::default(),
            );
            screening.record(p.cmp_on(day), &det.detect(&c));
        }
        assert!(screening.true_positives > 50, "{screening:?}");
        assert_eq!(screening.false_positives, 0, "{screening:?}");
        assert!(screening.recall() > 0.99, "{screening:?}");
        assert_eq!(screening.precision(), 1.0);
    }

    #[test]
    fn unusable_captures_yield_nothing() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let engine = Engine::new(&w, SeedTree::new(1));
        let det = Detector::hostname_only();
        // Find an anti-bot adopter and crawl from the cloud.
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| b.anti_bot_cdn)
            })
            .unwrap();
        let c = engine.capture(
            &format!("https://{}/", p.domain),
            day,
            Vantage::eu_cloud(),
            CaptureOptions::default(),
        );
        assert!(det.detect(&c).is_empty());
        assert_eq!(det.detect_unique(&c), None);
    }

    #[test]
    fn hostname_only_has_fewest_rules() {
        let strict = Detector::hostname_only();
        let loose = Detector::with_min_specificity(0);
        let mid = Detector::with_min_specificity(2);
        assert!(strict.active_rules() < mid.active_rules());
        assert!(mid.active_rules() < loose.active_rules());
        assert_eq!(strict.active_rules(), 6);
    }

    #[test]
    fn text_rules_fire_only_with_dom() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let engine = Engine::new(&w, SeedTree::new(1));
        let adopter = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| {
                        b.geo == GeoBehavior::EmbedAlways && !b.anti_bot_cdn && !b.slow_load
                    })
            })
            .unwrap();
        let url = format!("https://{}/", adopter.domain);
        let vantage = Vantage::table1_columns()[3];
        let with_dom = engine.capture(&url, day, vantage, CaptureOptions { collect_dom: true });
        let without = engine.capture(&url, day, vantage, CaptureOptions::default());
        let loose = Detector::with_min_specificity(0);
        assert!(!loose.detect(&with_dom).is_empty());
        // Hostname rules still fire without DOM; CSS/text rules cannot.
        assert!(!loose.detect(&without).is_empty());
        assert!(has_gdpr_phrase(&with_dom));
        assert!(!has_gdpr_phrase(&without));
    }

    #[test]
    fn screening_counters() {
        let mut s = Screening::default();
        s.record(None, &BTreeSet::new());
        s.record(Some(Cmp::OneTrust), &[Cmp::OneTrust].into());
        s.record(Some(Cmp::OneTrust), &BTreeSet::new());
        s.record(None, &[Cmp::Quantcast].into());
        s.record(Some(Cmp::TrustArc), &[Cmp::TrustArc, Cmp::Quantcast].into());
        assert_eq!(s.true_negatives, 1);
        assert_eq!(s.true_positives, 2);
        assert_eq!(s.false_negatives, 1);
        assert_eq!(s.false_positives, 2);
        assert!((s.precision() - 0.5).abs() < 1e-9);
        assert!((s.recall() - 2.0 / 3.0).abs() < 1e-9);
        let empty = Screening::default();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }
}
