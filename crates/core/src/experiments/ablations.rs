//! The design-choice ablations of DESIGN.md, as the numbers each one
//! measures.
//!
//! 1. Right-censor handling: the paper's 30-day fade-out estimator vs
//!    naive last-observation-carried-forward at the window end.
//! 2. Fingerprint tiers: hostname-only vs the full rule ladder (§3.5's
//!    robustness/precision trade-off).
//! 3. Consent-string range vs bitfield vendor encoding (the TCF's own
//!    size trade-off).
//! 4. Tranco Dowdall vs Borda toplist aggregation.
//!
//! Only the first reads the study (its Figure 6 feed run); the other
//! three run on fixed inputs of their own, so they print the same lines
//! at any study scale.

use super::fig6::Fig6Result;
use crate::study::Study;
use consent_analysis::build_timelines;
use consent_fingerprint::{Detector, Screening};
use consent_httpsim::{CaptureOptions, Engine, Vantage};
use consent_tcf::{purposes::all_purpose_ids, ConsentString, VendorEncoding};
use consent_toplist::{default_providers, AggregationRule, Toplist};
use consent_util::{Day, SeedTree};
use consent_webgraph::{Reachability, World, WorldConfig};
use std::fmt::Write;

/// Domains counted as CMP users on the last window day by each
/// right-censor estimator.
pub struct RightCensor {
    /// The last day of the feed window.
    pub end: Day,
    /// Domains whose reconstructed timeline (30-day fade-out) has a CMP.
    pub faded: usize,
    /// Domains whose last observation up to `end` saw a CMP.
    pub locf: usize,
}

/// Compare the fade-out estimator with naive LOCF on `fig6`'s capture
/// database at the last day of `study`'s window.
pub fn right_censor(study: &Study, fig6: &Fig6Result) -> RightCensor {
    let end = study.config().window_end - 1;
    let timelines = build_timelines(&fig6.db, None);
    let faded = timelines
        .values()
        .filter(|t| t.cmp_on(end).is_some())
        .count();
    let locf = timelines
        .values()
        .filter(|t| {
            t.observations
                .iter()
                .rev()
                .find(|o| o.day <= end)
                .is_some_and(|o| o.cmp.is_some())
        })
        .count();
    RightCensor { end, faded, locf }
}

/// Precision and recall of one detector tier against ground truth.
pub struct TierScreening {
    /// The tier's label.
    pub label: &'static str,
    /// Fingerprint rules the tier activates.
    pub rules: usize,
    /// Share of detections that name the embedded CMP.
    pub precision: f64,
    /// Share of embedded CMPs detected.
    pub recall: f64,
}

/// Screen the reachable sites among the top 1,500 ranks of a
/// 20,000-site world (seed 42), captured with DOM from the
/// EU-university extended vantage on 2020-05-15, with each detector
/// tier.
pub fn detector_tiers() -> Vec<TierScreening> {
    let world = World::new(WorldConfig {
        n_sites: 20_000,
        seed: 42,
        ..WorldConfig::default()
    });
    let engine = Engine::new(&world, SeedTree::new(1));
    let day = Day::from_ymd(2020, 5, 15);
    let vantage = Vantage::eu_university_extended();
    let captures: Vec<_> = (1..=1_500u32)
        .map(|r| world.profile(r))
        .filter(|p| p.reachability == Reachability::Ok)
        .map(|p| {
            let url = format!("https://{}/", p.domain);
            let capture = engine.capture(&url, day, vantage, CaptureOptions { collect_dom: true });
            (p.cmp_on(day), capture)
        })
        .collect();
    [
        ("hostname-only (tier 3)", Detector::hostname_only()),
        ("hostname+url (tier 2+)", Detector::with_min_specificity(2)),
        (
            "all rules incl. text (tier 0+)",
            Detector::with_min_specificity(0),
        ),
    ]
    .into_iter()
    .map(|(label, det)| {
        let mut s = Screening::default();
        for (truth, capture) in &captures {
            s.record(*truth, &det.detect(capture));
        }
        TierScreening {
            label,
            rules: det.active_rules(),
            precision: s.precision(),
            recall: s.recall(),
        }
    })
    .collect()
}

/// Encoded length of one consent string under each vendor encoding.
pub struct EncodingSizes {
    /// The consent set's label.
    pub label: &'static str,
    /// Characters with the bitfield encoding.
    pub bitfield: usize,
    /// Characters with the range encoding.
    pub range: usize,
    /// Characters with the encoder's automatic choice.
    pub auto: usize,
}

/// Encode three 600-vendor consent sets (every 50th vendor, accept-all,
/// every 2nd vendor) with each vendor encoding.
pub fn consent_encodings() -> Vec<EncodingSizes> {
    let with_vendors = |keep: fn(&u16) -> bool| {
        let mut s = ConsentString::new(10, 215, 600);
        s.vendor_consents = (1..=600).filter(keep).collect();
        s
    };
    [
        ("sparse", with_vendors(|i| i % 50 == 0)),
        (
            "accept_all",
            ConsentString::new(10, 215, 600).accept_all(all_purpose_ids()),
        ),
        ("alternating", with_vendors(|i| i % 2 == 0)),
    ]
    .into_iter()
    .map(|(label, cs)| EncodingSizes {
        label,
        bitfield: cs.encode(VendorEncoding::BitField).len(),
        range: cs.encode(VendorEncoding::Range).len(),
        auto: cs.encode(VendorEncoding::Auto).len(),
    })
    .collect()
}

/// How many of the true top 100 of 5,000 sites each aggregation rule
/// ranks in its top 200, over the default noisy providers (seed 9).
pub fn toplist_rules() -> Vec<(AggregationRule, usize)> {
    let ground_truth: Vec<String> = (0..5_000).map(|i| format!("site{i:05}.com")).collect();
    let providers = default_providers(&ground_truth, SeedTree::new(9));
    [AggregationRule::Dowdall, AggregationRule::Borda]
        .into_iter()
        .map(|rule| {
            let t = Toplist::aggregate(&providers, rule);
            let recovered = ground_truth[..100]
                .iter()
                .filter(|d| t.rank_of(d).is_some_and(|r| r <= 200))
                .count();
            (rule, recovered)
        })
        .collect()
}

/// Render all four ablations; `fig6` is `study`'s Figure 6 run.
pub fn render(study: &Study, fig6: &Fig6Result) -> String {
    let rc = right_censor(study, fig6);
    let mut out = format!(
        "Ablations (DESIGN.md)\n\
         Ablation (right-censor handling at {}): fade-out estimator = {} domains, \
         naive LOCF = {} domains (LOCF overcounts by {:.1}%)\n\
         \nFingerprint tiers, 1,500 ranks of a 20,000-site world:\n",
        rc.end,
        rc.faded,
        rc.locf,
        (rc.locf as f64 / rc.faded.max(1) as f64 - 1.0) * 100.0
    );
    for t in detector_tiers() {
        let _ = writeln!(
            out,
            "{}: {} rules, precision {:.3}, recall {:.3}",
            t.label, t.rules, t.precision, t.recall
        );
    }
    out.push_str("\nConsent-string vendor encodings, 600 vendors:\n");
    for e in consent_encodings() {
        let _ = writeln!(
            out,
            "{}: bitfield {} chars, range {} chars, auto {} chars",
            e.label, e.bitfield, e.range, e.auto
        );
    }
    out.push_str("\nToplist aggregation, 5,000 sites:\n");
    for (rule, recovered) in toplist_rules() {
        let _ = writeln!(
            out,
            "{rule:?}: true top-100 recovered in aggregated top-200: {recovered}/100"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trade-offs DESIGN.md states for ablations 2 and 3.
    #[test]
    fn ablations_show_the_documented_trade_offs() {
        let tiers = detector_tiers();
        assert_eq!(tiers[0].precision, 1.0);
        assert!(tiers[2].precision < tiers[0].precision);
        assert!(tiers[2].rules > tiers[0].rules);
        for e in consent_encodings() {
            assert_eq!(e.auto, e.bitfield.min(e.range), "{}", e.label);
        }
    }
}
