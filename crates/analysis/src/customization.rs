//! Publisher customization of consent dialogs (item I3, §4.1).
//!
//! The paper inspects DOM trees and full-page screenshots from the EU
//! university vantage and classifies each CMP-embedding site's dialog.
//! We classify from the same observables: detected CMP (hostname),
//! vendor CSS classes (absent on API-only custom dialogs), button texts,
//! and footer links.

use consent_crawler::CampaignCapture;
use consent_httpsim::DomSnapshot;
use consent_webgraph::Cmp;
use std::collections::BTreeMap;

/// Observable customization class, reconstructed from page content.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObservedStyle {
    /// Conventional banner: accept + settings link.
    ConventionalBanner,
    /// Opt-out button in the banner ("Do Not Sell" etc.).
    OptOutButton,
    /// "Script banner" (reject/manage *scripts*).
    ScriptBanner,
    /// No banner; privacy link in the footer only.
    FooterLinkOnly,
    /// Direct reject button (Quantcast style).
    DirectReject,
    /// "More Options" second button.
    MoreOptions,
    /// Instant 1-click opt-out.
    InstantOptOut,
    /// Multi-partner opt-out flow.
    MultiPartnerOptOut,
    /// Autonomy-implying button without direct controls.
    AutonomyButton,
    /// Link/button not implying control.
    NoControlLink,
    /// CMP APIs with a publisher-drawn dialog.
    CustomApiOnly,
    /// Dialog not visible at this vantage (geo-gated etc.).
    NoDialog,
}

/// Accept-button wording class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObservedWording {
    /// "I agree / I accept / I consent" variants.
    AgreeVariant,
    /// Free-form text ("Whatever", "Sounds good", …).
    FreeForm,
    /// No accept button visible.
    None,
}

/// Classify one DOM snapshot.
pub fn classify_style(dom: &DomSnapshot, cmp_detected: bool) -> ObservedStyle {
    if !cmp_detected {
        return ObservedStyle::NoDialog;
    }
    // API-only: CMP traffic present but no vendor CSS on the dialog.
    let vendor_css = dom.dialog_css_classes.iter().any(|c| {
        c.contains("onetrust")
            || c.contains("qc-cmp")
            || c.contains("truste")
            || c.contains("Cybot")
            || c.contains("faktor")
            || c.contains("evidon")
    });
    let has_dialog = dom.accept_button_text.is_some();
    if !vendor_css && has_dialog {
        return ObservedStyle::CustomApiOnly;
    }
    let secondary = dom.secondary_button_text.as_deref().unwrap_or("");
    if !has_dialog {
        return match &dom.footer_privacy_link {
            Some(_) => ObservedStyle::FooterLinkOnly,
            None => ObservedStyle::NoDialog,
        };
    }
    match secondary {
        "I DO NOT ACCEPT" => ObservedStyle::DirectReject,
        "MORE OPTIONS" => ObservedStyle::MoreOptions,
        "Do Not Sell" => ObservedStyle::OptOutButton,
        "Reject/Manage Scripts" => ObservedStyle::ScriptBanner,
        "Decline All" => ObservedStyle::InstantOptOut,
        "Opt out of all" => ObservedStyle::MultiPartnerOptOut,
        "Manage Preferences" => ObservedStyle::AutonomyButton,
        "Learn more" => ObservedStyle::NoControlLink,
        "" => ObservedStyle::FooterLinkOnly,
        _ => ObservedStyle::ConventionalBanner,
    }
}

/// Classify the accept-button wording.
pub fn classify_wording(dom: &DomSnapshot) -> ObservedWording {
    match dom.accept_button_text.as_deref() {
        None => ObservedWording::None,
        Some(t) => {
            let t = t.to_lowercase();
            if t.contains("accept") && !t.contains("move on")
                || t.contains("agree")
                || t.contains("consent")
            {
                ObservedWording::AgreeVariant
            } else {
                ObservedWording::FreeForm
            }
        }
    }
}

/// Per-CMP customization report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CustomizationReport {
    /// Style counts per CMP.
    pub styles: BTreeMap<Cmp, BTreeMap<ObservedStyle, usize>>,
    /// `(agree, freeform)` wording counts per CMP.
    pub wording: BTreeMap<Cmp, (usize, usize)>,
    /// Sites classified per CMP (with a visible dialog or footer link).
    pub sites: BTreeMap<Cmp, usize>,
}

impl CustomizationReport {
    /// Share of `cmp` sites in a style class.
    pub fn style_share(&self, cmp: Cmp, style: ObservedStyle) -> f64 {
        let total = self.sites.get(&cmp).copied().unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let n = self
            .styles
            .get(&cmp)
            .and_then(|m| m.get(&style))
            .copied()
            .unwrap_or(0);
        n as f64 / total as f64
    }

    /// Share of `cmp` sites with free-form accept wording.
    pub fn freeform_share(&self, cmp: Cmp) -> f64 {
        match self.wording.get(&cmp) {
            Some(&(agree, freeform)) if agree + freeform > 0 => {
                freeform as f64 / (agree + freeform) as f64
            }
            _ => 0.0,
        }
    }

    /// Overall share of API-only custom dialogs across all CMPs.
    pub fn api_only_share(&self) -> f64 {
        let total: usize = self.sites.values().sum();
        if total == 0 {
            return 0.0;
        }
        let api: usize = self
            .styles
            .values()
            .filter_map(|m| m.get(&ObservedStyle::CustomApiOnly))
            .sum();
        api as f64 / total as f64
    }
}

/// Build the report from the records of a campaign's
/// [`Vantage::eu_university_extended`](consent_httpsim::Vantage::eu_university_extended)
/// column (the only one storing DOM snapshots), classifying each
/// snapshot under the first CMP detected on its capture.
pub fn customization_report(records: &[CampaignCapture]) -> CustomizationReport {
    let mut report = CustomizationReport::default();
    for c in records {
        let Some(dom) = c.dom.as_ref() else {
            continue;
        };
        let Some(cmp) = c.cmps.iter().next() else {
            continue;
        };
        let style = classify_style(dom, true);
        if style == ObservedStyle::NoDialog {
            continue;
        }
        *report
            .styles
            .entry(cmp)
            .or_default()
            .entry(style)
            .or_insert(0) += 1;
        *report.sites.entry(cmp).or_insert(0) += 1;
        let w = report.wording.entry(cmp).or_insert((0, 0));
        match classify_wording(dom) {
            ObservedWording::AgreeVariant => w.0 += 1,
            ObservedWording::FreeForm => w.1 += 1,
            ObservedWording::None => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_crawler::{build_toplist, run_campaign_parallel, CampaignConfig, ParallelOpts};
    use consent_faultsim::FaultProfile;
    use consent_httpsim::Vantage;
    use consent_util::{Day, SeedTree};
    use consent_webgraph::{AdoptionConfig, World, WorldConfig};

    fn dom(accept: Option<&str>, secondary: Option<&str>, css: &[&str]) -> DomSnapshot {
        DomSnapshot {
            accept_button_text: accept.map(str::to_owned),
            secondary_button_text: secondary.map(str::to_owned),
            dialog_css_classes: css.iter().map(|s| (*s).to_owned()).collect(),
            body_text: String::new(),
            footer_privacy_link: Some("Privacy Policy".into()),
        }
    }

    #[test]
    fn style_classification() {
        let d = dom(
            Some("I ACCEPT"),
            Some("I DO NOT ACCEPT"),
            &["qc-cmp2-container"],
        );
        assert_eq!(classify_style(&d, true), ObservedStyle::DirectReject);
        assert_eq!(classify_style(&d, false), ObservedStyle::NoDialog);
        let d = dom(
            Some("I agree"),
            Some("MORE OPTIONS"),
            &["qc-cmp2-container"],
        );
        assert_eq!(classify_style(&d, true), ObservedStyle::MoreOptions);
        let d = dom(
            Some("Accept all"),
            Some("Do Not Sell"),
            &["onetrust-banner-sdk"],
        );
        assert_eq!(classify_style(&d, true), ObservedStyle::OptOutButton);
        let d = dom(
            Some("OK"),
            Some("Cookie Settings"),
            &["site-consent-banner"],
        );
        assert_eq!(classify_style(&d, true), ObservedStyle::CustomApiOnly);
        let d = dom(None, None, &[]);
        assert_eq!(classify_style(&d, true), ObservedStyle::FooterLinkOnly);
    }

    #[test]
    fn wording_classification() {
        let agree = dom(Some("I consent"), None, &[]);
        assert_eq!(classify_wording(&agree), ObservedWording::AgreeVariant);
        let free = dom(Some("Whatever"), None, &[]);
        assert_eq!(classify_wording(&free), ObservedWording::FreeForm);
        let move_on = dom(Some("Accept and move on"), None, &[]);
        assert_eq!(classify_wording(&move_on), ObservedWording::FreeForm);
        let none = dom(None, None, &[]);
        assert_eq!(classify_wording(&none), ObservedWording::None);
    }

    #[test]
    fn end_to_end_report_matches_section_4_1() {
        let world = World::new(WorldConfig {
            n_sites: 30_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        // A deeper list gives enough CMP sites for stable shares.
        let list = build_toplist(&world, 4_000, SeedTree::new(7));
        let vantage = Vantage::eu_university_extended();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let result = run_campaign_parallel(
                &world,
                &list,
                Day::from_ymd(2020, 5, 15),
                &[vantage],
                SeedTree::new(9),
                &ParallelOpts {
                    config: CampaignConfig {
                        fault_profile: profile,
                        ..CampaignConfig::default()
                    },
                    ..ParallelOpts::default()
                },
            )
            .result;
            let report = customization_report(result.column(vantage).unwrap());
            // Quantcast: ~55 % direct reject among classified sites; ~13 %
            // free-form wording.
            let q_direct = report.style_share(Cmp::Quantcast, ObservedStyle::DirectReject);
            assert!(
                (0.35..0.70).contains(&q_direct),
                "direct share {q_direct} ({profile})"
            );
            let q_free = report.freeform_share(Cmp::Quantcast);
            assert!(
                (0.05..0.25).contains(&q_free),
                "freeform {q_free} ({profile})"
            );
            // OneTrust: conventional banner dominates.
            let o_conv = report.style_share(Cmp::OneTrust, ObservedStyle::ConventionalBanner);
            assert!(o_conv > 0.4, "conventional {o_conv} ({profile})");
            // API-only sits near 8 %.
            let api = report.api_only_share();
            assert!((0.03..0.14).contains(&api), "api-only {api} ({profile})");
            // Sites were actually classified.
            assert!(report.sites.values().sum::<usize>() > 100);
        }
    }
}
