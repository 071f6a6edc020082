//! Table 1 / Table A.3: CMP occurrence by vantage configuration.
//!
//! Counts, for each of the six crawl configurations, how many toplist
//! domains show each CMP, plus the coverage row (each column's total
//! relative to the best column).

use consent_crawler::CampaignResult;
use consent_httpsim::Vantage;
use consent_util::table::{pct, Table};
use consent_webgraph::{Cmp, ALL_CMPS};

/// The computed table.
#[derive(Clone, Debug, PartialEq)]
pub struct VantageTable {
    /// `(vantage, per-CMP domain counts in ALL_CMPS order)`.
    pub columns: Vec<(Vantage, [usize; 6])>,
}

impl VantageTable {
    /// Column total (the Σ row).
    pub fn total(&self, col: usize) -> usize {
        self.columns[col].1.iter().sum()
    }

    /// Coverage of column `col` relative to the best column.
    pub fn coverage(&self, col: usize) -> f64 {
        let best = (0..self.columns.len())
            .map(|i| self.total(i))
            .max()
            .unwrap_or(0);
        if best == 0 {
            0.0
        } else {
            self.total(col) as f64 / best as f64
        }
    }

    /// Count for one CMP in one column.
    pub fn count(&self, col: usize, cmp: Cmp) -> usize {
        self.columns[col].1[ALL_CMPS.iter().position(|&c| c == cmp).expect("known")]
    }

    /// Render in the paper's layout: one row per CMP, Σ and coverage.
    pub fn render(&self, title: &str) -> String {
        let mut header = vec!["CMP".to_owned()];
        header.extend(self.columns.iter().map(|(v, _)| v.label().to_owned()));
        let mut t = Table::new(header);
        t.numeric().title(title);
        for (i, cmp) in ALL_CMPS.iter().enumerate() {
            let mut row = vec![cmp.name().to_owned()];
            row.extend(self.columns.iter().map(|(_, c)| c[i].to_string()));
            t.row(row);
        }
        let mut sigma = vec!["Σ".to_owned()];
        sigma.extend((0..self.columns.len()).map(|i| self.total(i).to_string()));
        t.row(sigma);
        let mut cov = vec!["Coverage".to_owned()];
        cov.extend((0..self.columns.len()).map(|i| pct(self.coverage(i))));
        t.row(cov);
        t.to_string()
    }
}

/// Compute the table from a campaign result. Each domain is counted once
/// per CMP per column if its record in that column shows the CMP: the
/// set the campaign detected on the final capture.
pub fn vantage_table(result: &CampaignResult) -> VantageTable {
    let columns = result
        .columns
        .iter()
        .map(|(vantage, records)| {
            let mut counts = [0usize; 6];
            for c in records {
                for cmp in c.cmps {
                    counts[ALL_CMPS.iter().position(|&x| x == cmp).expect("known")] += 1;
                }
            }
            (*vantage, counts)
        })
        .collect();
    VantageTable { columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_crawler::{build_toplist, run_campaign_parallel, CampaignConfig, ParallelOpts};
    use consent_faultsim::FaultProfile;
    use consent_util::{Day, SeedTree};
    use consent_webgraph::{AdoptionConfig, World, WorldConfig};

    /// The table fault-free and under the mild profile: the paper's
    /// shape must hold in both.
    fn tables() -> impl Iterator<Item = (FaultProfile, VantageTable)> {
        [FaultProfile::none(), FaultProfile::mild()]
            .into_iter()
            .map(|profile| (profile, table(profile)))
    }

    fn table(fault_profile: FaultProfile) -> VantageTable {
        let world = World::new(WorldConfig {
            n_sites: 4_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 800, SeedTree::new(7));
        let result = run_campaign_parallel(
            &world,
            &list,
            Day::from_ymd(2020, 5, 15),
            &Vantage::table1_columns(),
            SeedTree::new(9),
            &ParallelOpts {
                config: CampaignConfig {
                    fault_profile,
                    ..CampaignConfig::default()
                },
                ..ParallelOpts::default()
            },
        )
        .result;
        vantage_table(&result)
    }

    #[test]
    fn column_ordering_matches_paper() {
        for (profile, t) in tables() {
            assert_eq!(t.columns.len(), 6);
            // US cloud ≤ EU cloud ≤ EU university extended.
            let (us, eu, uni) = (t.total(0), t.total(1), t.total(3));
            assert!(us <= eu, "{us} vs {eu} ({profile})");
            assert!(eu <= uni, "{eu} vs {uni} ({profile})");
            // Aggressive university timing misses a bit vs extended.
            assert!(t.total(2) <= uni, "{profile}");
            // Language variants are within noise of each other.
            let diff = (uni as i64 - t.total(5) as i64).abs();
            assert!(
                diff <= uni as i64 / 20 + 2,
                "language diff {diff} ({profile})"
            );
        }
    }

    #[test]
    fn coverage_row() {
        for (profile, t) in tables() {
            let best = (0..6).map(|i| t.coverage(i)).fold(0.0f64, f64::max);
            assert!((best - 1.0).abs() < 1e-9, "{profile}");
            // US cloud coverage is noticeably below 100 % (paper: 79 %).
            let us = t.coverage(0);
            assert!(us < 0.95 && us > 0.5, "US coverage {us} ({profile})");
        }
    }

    #[test]
    fn onetrust_is_largest_row() {
        for (profile, t) in tables() {
            let col = 3; // EU university extended
            let onetrust = t.count(col, Cmp::OneTrust);
            for cmp in ALL_CMPS.iter().filter(|&&c| c != Cmp::OneTrust) {
                assert!(
                    onetrust >= t.count(col, *cmp),
                    "OneTrust {} < {} {} ({profile})",
                    onetrust,
                    cmp,
                    t.count(col, *cmp)
                );
            }
        }
    }

    #[test]
    fn renders_paper_layout() {
        for (profile, t) in tables() {
            let s = t.render("Table 1: Occurrence of CMPs (May 2020)");
            assert!(s.contains("OneTrust"), "{profile}");
            assert!(s.contains("Crownpeak"), "{profile}");
            assert!(s.contains('Σ'));
            assert!(s.contains("Coverage"));
            assert!(s.contains('%'));
            assert_eq!(s.lines().count(), 1 + 2 + 6 + 2, "{profile}");
        }
    }
}
