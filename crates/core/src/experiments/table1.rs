//! Table 1 / Table A.3 — CMP occurrence by vantage point.

use crate::study::Study;
use consent_analysis::{vantage_table, VantageTable};
use consent_crawler::{build_toplist, run_campaign_parallel, CampaignResult, ParallelOpts};
use consent_httpsim::Vantage;
use consent_util::{date::known, Day};

/// Output of the Table 1 experiment.
pub struct Table1Result {
    /// Snapshot day the campaign ran on.
    pub snapshot: Day,
    /// The computed table.
    pub table: VantageTable,
    /// The campaign's per-pair records (kept for the I3 analysis, which
    /// reuses the EU-university DOM snapshots).
    pub campaign: CampaignResult,
}

impl Table1Result {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let title = format!(
            "Table 1: Occurrence of CMPs on websites in the Tranco toplist ({})",
            self.snapshot
        );
        self.table.render(&title)
    }
}

/// Run the toplist campaign for the May 2020 snapshot (Table 1).
pub fn table1(study: &Study) -> Table1Result {
    run_at(study, known::may_2020_snapshot())
}

/// Run the January 2020 variant (Table A.3).
pub fn table_a3(study: &Study) -> Table1Result {
    run_at(study, known::jan_2020_snapshot())
}

/// Run the campaign at an arbitrary snapshot day under the study's
/// fault profile, on one worker per available core
/// ([`ParallelOpts::default`]): the result is the same at any thread
/// count.
pub fn run_at(study: &Study, snapshot: Day) -> Table1Result {
    let list = build_toplist(
        study.world(),
        study.config().toplist_size,
        study.seed().child("toplist"),
    );
    let campaign = run_campaign_parallel(
        study.world(),
        &list,
        snapshot,
        &Vantage::table1_columns(),
        study.seed().child("campaign").child_idx(snapshot.0 as u64),
        &ParallelOpts {
            config: study.campaign_config(),
            ..ParallelOpts::default()
        },
    )
    .result;
    let table = vantage_table(&campaign);
    Table1Result {
        snapshot,
        table,
        campaign,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table1_has_paper_shape() {
        for study in Study::quick_twins() {
            let profile = study.config().fault_profile;
            let r = table1(&study);
            // Monotone coverage: US cloud < EU university extended.
            assert!(r.table.total(0) < r.table.total(3), "{profile}");
            // Coverage row ends at 100 % for the best column.
            let best: f64 = (0..6).map(|i| r.table.coverage(i)).fold(0.0, f64::max);
            assert!((best - 1.0).abs() < 1e-9, "{profile}");
            let rendered = r.render();
            assert!(rendered.contains("Quantcast"));
            assert!(rendered.contains("Coverage"));
        }
    }

    #[test]
    fn table_is_the_same_at_any_thread_count() {
        for study in Study::quick_twins() {
            let table = table1(&study);
            let snapshot = known::may_2020_snapshot();
            let list = build_toplist(
                study.world(),
                study.config().toplist_size,
                study.seed().child("toplist"),
            );
            for threads in [1, 3] {
                let campaign = run_campaign_parallel(
                    study.world(),
                    &list,
                    snapshot,
                    &Vantage::table1_columns(),
                    study.seed().child("campaign").child_idx(snapshot.0 as u64),
                    &ParallelOpts {
                        threads,
                        config: study.campaign_config(),
                        max_pairs: None,
                    },
                )
                .result;
                let again = vantage_table(&campaign);
                assert_eq!(
                    again.render("t"),
                    table.table.render("t"),
                    "{threads} threads ({})",
                    study.config().fault_profile
                );
            }
        }
    }

    #[test]
    fn january_snapshot_smaller_than_may() {
        for study in Study::quick_twins() {
            let profile = study.config().fault_profile;
            let may = table1(&study);
            let jan = table_a3(&study);
            // Adoption grows: the best column in January is below May's.
            let may_best = (0..6).map(|i| may.table.total(i)).max().unwrap();
            let jan_best = (0..6).map(|i| jan.table.total(i)).max().unwrap();
            assert!(
                jan_best < may_best,
                "jan {jan_best} !< may {may_best} ({profile})"
            );
            // §3.5: US coverage grows markedly between the snapshots as CCPA
            // adoption ramps (70 % → 79 % in the paper).
            assert!(
                jan.table.coverage(0) <= may.table.coverage(0) + 0.05,
                "{profile}"
            );
        }
    }
}
