//! The six Consent Management Providers under study.
//!
//! The paper restricts its analysis to "the five major players already
//! identified by Nouwens et al. and LiveRamp, a new entrant that launched
//! in December 2019" (§3.2). Each CMP is identified in crawl data by a
//! unique indicator hostname (Table A.2).

use consent_util::{date::known, Day};
use std::fmt;

/// One of the six CMPs measured in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cmp {
    /// OneTrust — flexible, CCPA-oriented; became overall market leader.
    OneTrust,
    /// Quantcast — GDPR-oriented; early dominance, EU+UK-heavy customers.
    Quantcast,
    /// TrustArc — CCPA-tailored dialogs, slow multi-partner opt-out.
    TrustArc,
    /// Cookiebot — the "gateway CMP" that bleeds customers.
    Cookiebot,
    /// LiveRamp (Faktor) — new entrant, launched December 2019.
    LiveRamp,
    /// Crownpeak (Evidon) — small, stable share.
    Crownpeak,
}

/// All six CMPs in the paper's reporting order (Table 1 row order).
pub const ALL_CMPS: [Cmp; 6] = [
    Cmp::OneTrust,
    Cmp::Quantcast,
    Cmp::TrustArc,
    Cmp::Cookiebot,
    Cmp::LiveRamp,
    Cmp::Crownpeak,
];

impl Cmp {
    /// Human-readable name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Cmp::OneTrust => "OneTrust",
            Cmp::Quantcast => "Quantcast",
            Cmp::TrustArc => "TrustArc",
            Cmp::Cookiebot => "Cookiebot",
            Cmp::LiveRamp => "LiveRamp",
            Cmp::Crownpeak => "Crownpeak",
        }
    }

    /// The unique indicator hostname from Table A.2. Every page embedding
    /// this CMP performs an HTTP request to this host on load, regardless
    /// of dialog design — the paper's most robust detection signal.
    pub fn indicator_hostname(self) -> &'static str {
        self.embed().0
    }

    /// The script (`/consent.js`) and configuration (`/v2/config.json`)
    /// URLs an embed of this CMP loads from its indicator host.
    pub fn embed_urls(self) -> [&'static str; 2] {
        self.embed().1
    }

    /// The indicator host and the embed URLs, from one host literal.
    fn embed(self) -> (&'static str, [&'static str; 2]) {
        macro_rules! embed {
            ($host:literal) => {
                (
                    $host,
                    [
                        concat!("https://", $host, "/consent.js"),
                        concat!("https://", $host, "/v2/config.json"),
                    ],
                )
            };
        }
        match self {
            Cmp::OneTrust => embed!("cdn.cookielaw.org"),
            Cmp::Quantcast => embed!("quantcast.mgr.consensu.org"),
            Cmp::TrustArc => embed!("consent.trustarc.com"),
            Cmp::Cookiebot => embed!("consent.cookiebot.com"),
            Cmp::LiveRamp => embed!("cmp.choice.faktor.io"),
            Cmp::Crownpeak => embed!("iabmap.evidon.com"),
        }
    }

    /// First day this CMP's product was available for embedding.
    pub fn launch_date(self) -> Day {
        match self {
            // The five incumbents all predate the observation window.
            Cmp::OneTrust | Cmp::Quantcast | Cmp::TrustArc | Cmp::Cookiebot | Cmp::Crownpeak => {
                Day::from_ymd(2017, 6, 1)
            }
            Cmp::LiveRamp => known::liveramp_launch(),
        }
    }

    /// Share of this CMP's customers with an EU+UK TLD (§4.1: Quantcast
    /// 38.3 %, OneTrust 16.3 %; the rest interpolated from their market
    /// positioning — TrustArc and LiveRamp skew US, Cookiebot is Danish
    /// and skews strongly EU).
    pub fn eu_tld_share(self) -> f64 {
        match self {
            Cmp::OneTrust => 0.163,
            Cmp::Quantcast => 0.383,
            Cmp::TrustArc => 0.12,
            Cmp::Cookiebot => 0.55,
            Cmp::LiveRamp => 0.10,
            Cmp::Crownpeak => 0.20,
        }
    }

    /// Probability that a site embedding this CMP serves the embed *only*
    /// to EU visitors, making it invisible from a US vantage point.
    /// Derived from Table 1's US-cloud vs EU-cloud gaps.
    pub fn embed_only_eu_share(self) -> f64 {
        match self {
            Cmp::OneTrust => 0.07,
            Cmp::Quantcast => 0.16,
            Cmp::TrustArc => 0.09,
            Cmp::Cookiebot => 0.05,
            Cmp::LiveRamp => 0.11,
            Cmp::Crownpeak => 0.02,
        }
    }

    /// Probability that a site embedding this CMP hides it from EU IPs
    /// (CCPA-only products; §4.1 reports 4.4 % for TrustArc).
    pub fn hide_from_eu_share(self) -> f64 {
        match self {
            Cmp::TrustArc => 0.044,
            Cmp::OneTrust => 0.01,
            _ => 0.0,
        }
    }

    /// IAB CMP id used in consent strings (real registered ids).
    pub fn iab_cmp_id(self) -> u16 {
        match self {
            Cmp::Quantcast => 10,
            Cmp::OneTrust => 5,
            Cmp::TrustArc => 21,
            Cmp::Cookiebot => 14,
            Cmp::LiveRamp => 45,
            Cmp::Crownpeak => 76,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_complete_and_distinct() {
        assert_eq!(ALL_CMPS.len(), 6);
        let hosts: Vec<&str> = ALL_CMPS.iter().map(|c| c.indicator_hostname()).collect();
        let mut dedup = hosts.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "indicator hostnames must be unique");
        let ids: Vec<u16> = ALL_CMPS.iter().map(|c| c.iab_cmp_id()).collect();
        let mut ids_d = ids.clone();
        ids_d.sort();
        ids_d.dedup();
        assert_eq!(ids_d.len(), 6);
    }

    #[test]
    fn table_a2_hostnames() {
        assert_eq!(Cmp::OneTrust.indicator_hostname(), "cdn.cookielaw.org");
        assert_eq!(
            Cmp::Quantcast.indicator_hostname(),
            "quantcast.mgr.consensu.org"
        );
        assert_eq!(Cmp::TrustArc.indicator_hostname(), "consent.trustarc.com");
        assert_eq!(Cmp::Cookiebot.indicator_hostname(), "consent.cookiebot.com");
        assert_eq!(Cmp::LiveRamp.indicator_hostname(), "cmp.choice.faktor.io");
        assert_eq!(Cmp::Crownpeak.indicator_hostname(), "iabmap.evidon.com");
        assert_eq!(
            Cmp::OneTrust.embed_urls(),
            [
                "https://cdn.cookielaw.org/consent.js",
                "https://cdn.cookielaw.org/v2/config.json"
            ]
        );
    }

    #[test]
    fn liveramp_launches_late() {
        assert_eq!(Cmp::LiveRamp.launch_date(), Day::from_ymd(2019, 12, 1));
        assert!(Cmp::Quantcast.launch_date() < Day::from_ymd(2018, 1, 1));
    }

    #[test]
    fn paper_reported_shares() {
        assert!((Cmp::Quantcast.eu_tld_share() - 0.383).abs() < 1e-9);
        assert!((Cmp::OneTrust.eu_tld_share() - 0.163).abs() < 1e-9);
        assert!((Cmp::TrustArc.hide_from_eu_share() - 0.044).abs() < 1e-9);
        for c in ALL_CMPS {
            assert!(c.embed_only_eu_share() < 0.5);
            assert!(c.eu_tld_share() < 1.0);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Cmp::OneTrust.to_string(), "OneTrust");
        assert_eq!(format!("{}", Cmp::LiveRamp), "LiveRamp");
    }
}
