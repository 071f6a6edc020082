//! Crawl vantage points and browser configurations.
//!
//! Table 1 measures the Tranco 10k from six configurations: US cloud,
//! EU cloud, and an EU university network with default timing, extended
//! timing, and two browser-language variants. The measured CMP counts
//! differ systematically by location, address space, and timing — that
//! is the paper's §3.5 reliability analysis, and this module names the
//! axes.

use std::fmt;

/// Where the crawler runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Location {
    /// US datacenter of a public cloud.
    UsCloud,
    /// EU datacenter of a public cloud.
    EuCloud,
    /// European university network (residential-grade address space).
    EuUniversity,
}

impl Location {
    /// True if the visitor appears to be in the EU.
    pub fn appears_eu(self) -> bool {
        matches!(self, Location::EuCloud | Location::EuUniversity)
    }

    /// True if the address space belongs to a public cloud — the trigger
    /// for anti-bot CDN interstitials (§3.5: "the use of public cloud
    /// infrastructure makes us miss about 10 % of all CMP dialogs").
    pub fn is_cloud(self) -> bool {
        matches!(self, Location::UsCloud | Location::EuCloud)
    }

    /// Stable name for telemetry labels and reports; `Display` writes it.
    pub fn name(self) -> &'static str {
        match self {
            Location::UsCloud => "US cloud",
            Location::EuCloud => "EU cloud",
            Location::EuUniversity => "EU university",
        }
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Page-load timeout regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Timing {
    /// Netograph's production settings: 5 s idle timeout, 45 s total
    /// (§3.5 "Crawler Timeouts"). Misses late-loading CMP resources.
    Aggressive,
    /// Relaxed timeouts used for the toplist control crawls.
    Extended,
}

/// Preferred browser language (found to have no significant effect —
/// which the simulation reproduces).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Language {
    /// en-US (the crawler default).
    EnUs,
    /// German.
    De,
    /// British English.
    EnGb,
}

/// A complete crawl configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Vantage {
    /// Network location.
    pub location: Location,
    /// Timeout regime.
    pub timing: Timing,
    /// Browser language.
    pub language: Language,
}

impl Vantage {
    /// Netograph's production US-cloud configuration.
    pub fn us_cloud() -> Vantage {
        Vantage {
            location: Location::UsCloud,
            timing: Timing::Aggressive,
            language: Language::EnUs,
        }
    }

    /// Netograph's production EU-cloud configuration.
    pub fn eu_cloud() -> Vantage {
        Vantage {
            location: Location::EuCloud,
            timing: Timing::Aggressive,
            language: Language::EnUs,
        }
    }

    /// The EU-university vantage with extended timeouts and an en-US
    /// browser: Table 1's fourth column, and the one whose captures
    /// §4.1's customization and jurisdiction analyses read.
    pub fn eu_university_extended() -> Vantage {
        Vantage {
            location: Location::EuUniversity,
            timing: Timing::Extended,
            language: Language::EnUs,
        }
    }

    /// The six Table 1 configurations, in column order.
    pub fn table1_columns() -> [Vantage; 6] {
        [
            Vantage::us_cloud(),
            Vantage::eu_cloud(),
            Vantage {
                location: Location::EuUniversity,
                timing: Timing::Aggressive,
                language: Language::EnUs,
            },
            Vantage::eu_university_extended(),
            Vantage {
                location: Location::EuUniversity,
                timing: Timing::Extended,
                language: Language::De,
            },
            Vantage {
                location: Location::EuUniversity,
                timing: Timing::Extended,
                language: Language::EnGb,
            },
        ]
    }

    /// Short column label for table output, `location/timing/language`
    /// (e.g. `EUuni/ext/en-US`). It also names the vantage in every
    /// capture's and every fault decision's seed path.
    pub fn label(&self) -> &'static str {
        LABELS[self.location as usize][self.timing as usize][self.language as usize]
    }
}

/// [`Vantage::label`] of every vantage, indexed by location, timing and
/// language in declaration order.
const LABELS: [[[&str; 3]; 2]; 3] = [
    [
        ["US☁/fast/en-US", "US☁/fast/de", "US☁/fast/en-GB"],
        ["US☁/ext/en-US", "US☁/ext/de", "US☁/ext/en-GB"],
    ],
    [
        ["EU☁/fast/en-US", "EU☁/fast/de", "EU☁/fast/en-GB"],
        ["EU☁/ext/en-US", "EU☁/ext/de", "EU☁/ext/en-GB"],
    ],
    [
        ["EUuni/fast/en-US", "EUuni/fast/de", "EUuni/fast/en-GB"],
        ["EUuni/ext/en-US", "EUuni/ext/de", "EUuni/ext/en-GB"],
    ],
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geography_flags() {
        assert!(!Location::UsCloud.appears_eu());
        assert!(Location::EuCloud.appears_eu());
        assert!(Location::EuUniversity.appears_eu());
        assert!(Location::UsCloud.is_cloud());
        assert!(Location::EuCloud.is_cloud());
        assert!(!Location::EuUniversity.is_cloud());
    }

    #[test]
    fn table1_has_six_distinct_columns() {
        let cols = Vantage::table1_columns();
        for (i, a) in cols.iter().enumerate() {
            for b in cols.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(cols[0].location, Location::UsCloud);
        assert_eq!(cols[2].timing, Timing::Aggressive);
        assert_eq!(cols[3].timing, Timing::Extended);
        assert_eq!(cols[4].language, Language::De);
    }

    #[test]
    fn labels_name_location_timing_and_language() {
        for (location, loc) in [
            (Location::UsCloud, "US☁"),
            (Location::EuCloud, "EU☁"),
            (Location::EuUniversity, "EUuni"),
        ] {
            for (timing, t) in [(Timing::Aggressive, "fast"), (Timing::Extended, "ext")] {
                for (language, lang) in [
                    (Language::EnUs, "en-US"),
                    (Language::De, "de"),
                    (Language::EnGb, "en-GB"),
                ] {
                    let v = Vantage {
                        location,
                        timing,
                        language,
                    };
                    assert_eq!(v.label(), format!("{loc}/{t}/{lang}"));
                }
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        let cols = Vantage::table1_columns();
        let labels: Vec<&str> = cols.iter().map(Vantage::label).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert!(format!("{}", Location::UsCloud).contains("US"));
    }
}
