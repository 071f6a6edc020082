//! Jurisdiction analysis: EU+UK TLD share per CMP (§4.1).
//!
//! The paper infers each CMP's regulatory target market from its
//! customers' TLDs: "the share of sites with a EU+UK TLD for each CMP
//! (Quantcast at 38.3 % and OneTrust with 16.3 %)". This module measures
//! the same statistic from campaign records — final hostnames and
//! detected CMPs — without touching ground truth.

use consent_crawler::CampaignCapture;
use consent_psl::PublicSuffixList;
use consent_util::table::{pct, Table};
use consent_webgraph::{site, Cmp, ALL_CMPS};
use std::collections::BTreeMap;

/// Per-CMP TLD composition of the customer base.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JurisdictionReport {
    /// Per CMP: `(eu_uk_sites, total_sites)`.
    pub per_cmp: BTreeMap<Cmp, (usize, usize)>,
}

impl JurisdictionReport {
    /// EU+UK TLD share for one CMP.
    pub fn eu_share(&self, cmp: Cmp) -> f64 {
        match self.per_cmp.get(&cmp) {
            Some(&(eu, total)) if total > 0 => eu as f64 / total as f64,
            _ => 0.0,
        }
    }

    /// Render the §4.1 comparison.
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&["CMP", "Sites", "EU+UK TLD share"]);
        t.numeric()
            .title("Jurisdiction: EU+UK TLD share of each CMP's customers (§4.1)");
        for cmp in ALL_CMPS {
            let (eu, total) = self.per_cmp.get(&cmp).copied().unwrap_or((0, 0));
            let _ = eu;
            t.row(vec![
                cmp.name().into(),
                total.to_string(),
                pct(self.eu_share(cmp)),
            ]);
        }
        t.to_string()
    }
}

/// Measure the report from campaign records: take the first detected
/// CMP of each usable capture, extract the final host's public suffix,
/// and classify it as EU+UK or not.
pub fn jurisdiction_report(
    records: &[CampaignCapture],
    psl: &PublicSuffixList,
) -> JurisdictionReport {
    let mut report = JurisdictionReport::default();
    for c in records {
        if !c.status.usable() {
            continue;
        }
        let Some(cmp) = c.cmps.iter().next() else {
            continue;
        };
        let Some(suffix) = psl.public_suffix(&c.final_host) else {
            continue;
        };
        let entry = report.per_cmp.entry(cmp).or_insert((0, 0));
        entry.1 += 1;
        if site::is_eu_tld(&suffix) || suffix == "uk" || suffix.ends_with(".uk") {
            entry.0 += 1;
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

    #[test]
    fn quantcast_skews_eu_onetrust_us() {
        let world = World::new(WorldConfig {
            n_sites: 30_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
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
            let report = jurisdiction_report(
                result.column(vantage).unwrap(),
                &PublicSuffixList::embedded(),
            );
            let q = report.eu_share(Cmp::Quantcast);
            let o = report.eu_share(Cmp::OneTrust);
            // Paper: Quantcast 38.3 %, OneTrust 16.3 %.
            assert!(
                (q - 0.383).abs() < 0.12,
                "Quantcast EU share {q} ({profile})"
            );
            assert!(
                (o - 0.163).abs() < 0.08,
                "OneTrust EU share {o} ({profile})"
            );
            assert!(
                q > 1.5 * o,
                "Quantcast ({q}) should dwarf OneTrust ({o}) ({profile})"
            );
            let rendered = report.render();
            assert!(rendered.contains("EU+UK"));
            assert!(rendered.contains("Quantcast"));
        }
    }

    #[test]
    fn empty_input_yields_zero_shares() {
        let report = jurisdiction_report(&[], &PublicSuffixList::embedded());
        for cmp in ALL_CMPS {
            assert_eq!(report.eu_share(cmp), 0.0);
        }
    }
}
