//! Figure 1 — how this study's window and sample compare to prior work.
//!
//! The paper's Figure 1 contrasts point-in-time snapshots of small
//! samples in related work against its own 2.5-year, 4.2M-domain window.
//! The underlying data is a small static table; we reproduce it as one.

use consent_util::table::{thousands, Table};
use consent_util::Day;

/// One related-work entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelatedStudy {
    /// Citation label.
    pub label: &'static str,
    /// Venue and year.
    pub venue: &'static str,
    /// Number of domains sampled.
    pub domains: u64,
    /// Measurement window start.
    pub start: Day,
    /// Measurement window end (same as start for snapshots).
    pub end: Day,
}

impl RelatedStudy {
    /// Window length in days (0 = snapshot).
    pub fn window_days(&self) -> i32 {
        self.end - self.start
    }
}

/// The comparison dataset underlying Figure 1.
pub fn related_work() -> Vec<RelatedStudy> {
    vec![
        RelatedStudy {
            label: "Degeling et al.",
            venue: "NDSS '19",
            domains: 6_357,
            start: Day::from_ymd(2018, 1, 1),
            end: Day::from_ymd(2018, 5, 31),
        },
        RelatedStudy {
            label: "Sanchez-Rola et al.",
            venue: "AsiaCCS '19",
            domains: 2_000,
            start: Day::from_ymd(2018, 9, 1),
            end: Day::from_ymd(2018, 9, 30),
        },
        RelatedStudy {
            label: "Utz et al.",
            venue: "CCS '19",
            domains: 1_000,
            start: Day::from_ymd(2018, 6, 1),
            end: Day::from_ymd(2018, 6, 30),
        },
        RelatedStudy {
            label: "van Eijk et al.",
            venue: "ConPro '19",
            domains: 1_500,
            start: Day::from_ymd(2018, 12, 1),
            end: Day::from_ymd(2018, 12, 31),
        },
        RelatedStudy {
            label: "Nouwens et al.",
            venue: "CHI '20",
            domains: 10_000,
            start: Day::from_ymd(2020, 1, 1),
            end: Day::from_ymd(2020, 1, 31),
        },
        RelatedStudy {
            label: "Matte et al.",
            venue: "S&P '20",
            domains: 28_257,
            start: Day::from_ymd(2019, 9, 1),
            end: Day::from_ymd(2020, 1, 31),
        },
        RelatedStudy {
            label: "This study (social feed)",
            venue: "IMC '20",
            domains: 4_200_000,
            start: Day::from_ymd(2018, 3, 1),
            end: Day::from_ymd(2020, 9, 30),
        },
        RelatedStudy {
            label: "This study (toplist)",
            venue: "IMC '20",
            domains: 10_000,
            start: Day::from_ymd(2020, 1, 15),
            end: Day::from_ymd(2020, 5, 15),
        },
    ]
}

/// Render Figure 1 as a table.
pub fn render() -> String {
    let mut t = Table::with_columns(&["Study", "Venue", "Domains", "Window", "Days"]);
    t.numeric()
        .title("Figure 1: Sample sizes and windows of consent measurements");
    for s in related_work() {
        t.row(vec![
            s.label.into(),
            s.venue.into(),
            thousands(s.domains),
            format!("{} – {}", s.start, s.end),
            s.window_days().to_string(),
        ]);
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_study_dominates_in_both_axes() {
        let studies = related_work();
        let ours = studies
            .iter()
            .find(|s| s.label.contains("social feed"))
            .unwrap();
        for other in studies.iter().filter(|s| !s.label.contains("This study")) {
            assert!(ours.domains > other.domains);
            assert!(ours.window_days() > other.window_days());
        }
    }

    #[test]
    fn windows_are_well_formed() {
        for s in related_work() {
            assert!(s.end >= s.start, "{}", s.label);
            assert!(s.domains > 0);
        }
    }

    #[test]
    fn renders() {
        let s = render();
        assert!(s.contains("Nouwens"));
        assert!(s.contains("4,200,000"));
        // title + header + separator + 8 data rows
        assert_eq!(s.lines().count(), 3 + 8);
    }
}
