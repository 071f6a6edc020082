//! Item I3 — publisher customization of embedded CMPs (§4.1).
//!
//! Reuses the EU-university column of the Table 1 campaign (the only
//! vantage with DOM snapshots, as in the paper) and runs the
//! customization classifier over it.

use crate::experiments::table1::Table1Result;
use consent_analysis::{
    customization_report, jurisdiction_report, CustomizationReport, JurisdictionReport,
    ObservedStyle,
};
use consent_httpsim::Vantage;
use consent_psl::PublicSuffixList;
use consent_util::table::{pct, Table};
use consent_webgraph::Cmp;

/// Output of the customization analysis.
pub struct I3Result {
    /// The per-CMP report.
    pub report: CustomizationReport,
}

impl I3Result {
    /// Render the §4.1 shares for the three largest CMPs.
    pub fn render(&self) -> String {
        let r = &self.report;
        let mut t = Table::with_columns(&["CMP", "Sites", "Customization shares"]);
        t.title("I3: Publisher customization of consent dialogs (EU university vantage)");
        t.row(vec![
            "OneTrust".into(),
            r.sites
                .get(&Cmp::OneTrust)
                .copied()
                .unwrap_or(0)
                .to_string(),
            format!(
                "banner {} | opt-out button {} | script banner {} | footer link {}",
                pct(r.style_share(Cmp::OneTrust, ObservedStyle::ConventionalBanner)),
                pct(r.style_share(Cmp::OneTrust, ObservedStyle::OptOutButton)),
                pct(r.style_share(Cmp::OneTrust, ObservedStyle::ScriptBanner)),
                pct(r.style_share(Cmp::OneTrust, ObservedStyle::FooterLinkOnly)),
            ),
        ]);
        t.row(vec![
            "Quantcast".into(),
            r.sites
                .get(&Cmp::Quantcast)
                .copied()
                .unwrap_or(0)
                .to_string(),
            format!(
                "direct reject {} | more-options {} | free-form wording {}",
                pct(r.style_share(Cmp::Quantcast, ObservedStyle::DirectReject)),
                pct(r.style_share(Cmp::Quantcast, ObservedStyle::MoreOptions)),
                pct(r.freeform_share(Cmp::Quantcast)),
            ),
        ]);
        t.row(vec![
            "TrustArc".into(),
            r.sites
                .get(&Cmp::TrustArc)
                .copied()
                .unwrap_or(0)
                .to_string(),
            format!(
                "instant opt-out {} | multi-partner {} | autonomy {} | no-control {}",
                pct(r.style_share(Cmp::TrustArc, ObservedStyle::InstantOptOut)),
                pct(r.style_share(Cmp::TrustArc, ObservedStyle::MultiPartnerOptOut)),
                pct(r.style_share(Cmp::TrustArc, ObservedStyle::AutonomyButton)),
                pct(r.style_share(Cmp::TrustArc, ObservedStyle::NoControlLink)),
            ),
        ]);
        format!(
            "{t}API-only custom dialogs across CMPs: {}\n",
            pct(self.report.api_only_share())
        )
    }
}

/// Run the analysis on an existing Table 1 campaign result.
pub fn i3_customization(table1: &Table1Result) -> I3Result {
    let vantage = Vantage::eu_university_extended();
    let records = table1
        .campaign
        .column(vantage)
        .expect("campaign includes the EU university column");
    I3Result {
        report: customization_report(records),
    }
}

/// Measure the §4.1 EU+UK TLD shares from the same campaign records
/// (the paper's Quantcast 38.3 % vs OneTrust 16.3 % comparison).
pub fn jurisdiction(table1: &Table1Result) -> JurisdictionReport {
    let vantage = Vantage::eu_university_extended();
    let records = table1
        .campaign
        .column(vantage)
        .expect("campaign includes the EU university column");
    jurisdiction_report(records, &PublicSuffixList::embedded())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::table1::table1;
    use crate::study::Study;

    #[test]
    fn report_covers_major_cmps() {
        for study in Study::quick_twins() {
            let profile = study.config().fault_profile;
            let t1 = table1(&study);
            let r = i3_customization(&t1);
            assert!(
                r.report.sites.get(&Cmp::OneTrust).copied().unwrap_or(0) > 10,
                "{profile}"
            );
            assert!(
                r.report.sites.get(&Cmp::Quantcast).copied().unwrap_or(0) > 5,
                "{profile}"
            );
            // Quantcast splits between the two modal styles.
            let d = r
                .report
                .style_share(Cmp::Quantcast, ObservedStyle::DirectReject);
            let m = r
                .report
                .style_share(Cmp::Quantcast, ObservedStyle::MoreOptions);
            assert!(d > 0.2 && m > 0.2, "direct {d} more {m} ({profile})");
            let rendered = r.render();
            assert!(rendered.contains("direct reject"));
            assert!(rendered.contains("API-only"));
        }
    }

    #[test]
    fn jurisdiction_shares_ordered() {
        use consent_webgraph::Cmp;
        for study in Study::quick_twins() {
            let t1 = table1(&study);
            let j = jurisdiction(&t1);
            // Quantcast's customer base is more EU-skewed than OneTrust's.
            assert!(
                j.eu_share(Cmp::Quantcast) > j.eu_share(Cmp::OneTrust),
                "Quantcast {} !> OneTrust {} ({})",
                j.eu_share(Cmp::Quantcast),
                j.eu_share(Cmp::OneTrust),
                study.config().fault_profile
            );
            assert!(j.render().contains("EU+UK"));
        }
    }
}
