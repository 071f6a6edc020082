//! Figure 6 — CMP adoption in the Tranco 10k over time — and
//! Figure 4 — inter-CMP switching flows.
//!
//! Both come from the same social-feed run: the platform crawls the
//! reshare-skewed URL stream over the full observation window, per-domain
//! timelines are reconstructed (interpolation + 30-day fade-out), and the
//! daily counts are restricted to the toplist membership set.

use crate::study::Study;
use consent_analysis::{
    adoption_series, build_timelines, switch_matrix, AdoptionPoint, SwitchMatrix,
};
use consent_crawler::{build_toplist, CaptureDb, FeedConfig, Platform, RunStats};
use consent_util::table::Table;
use consent_util::Day;
use consent_webgraph::ALL_CMPS;
use std::collections::HashSet;

/// Output of the social-feed longitudinal run.
pub struct Fig6Result {
    /// Monthly (default) sample points.
    pub series: Vec<AdoptionPoint>,
    /// The Figure 4 switching matrix from the same timelines.
    pub switching: SwitchMatrix,
    /// Feed/pipeline statistics (§3.4 numbers).
    pub stats: RunStats,
    /// The capture database (kept for the methodology experiment).
    pub db: CaptureDb,
    /// Toplist membership used for the restriction.
    pub toplist: Vec<String>,
}

impl Fig6Result {
    /// Render the adoption series as a table.
    pub fn render(&self) -> String {
        let mut header = vec!["Date".to_owned(), "Total".to_owned()];
        header.extend(ALL_CMPS.iter().map(|c| c.name().to_owned()));
        let mut t = Table::new(header);
        t.numeric()
            .title("Figure 6: Websites in the toplist embedding a CMP, over time");
        for p in &self.series {
            let mut row = vec![p.day.to_string(), p.total().to_string()];
            row.extend(ALL_CMPS.iter().map(|&c| p.count(c).to_string()));
            t.row(row);
        }
        t.to_string()
    }

    /// Render the switching flows (Figure 4).
    pub fn render_switching(&self) -> String {
        let mut t = Table::with_columns(&["From", "To", "Sites"]);
        t.numeric()
            .title("Figure 4: Websites switching between CMPs");
        for ((from, to), n) in &self.switching.flows {
            t.row(vec![from.name().into(), to.name().into(), n.to_string()]);
        }
        let mut net = Table::with_columns(&["CMP", "Gained", "Lost", "Net"]);
        net.numeric();
        for cmp in ALL_CMPS {
            net.row(vec![
                cmp.name().into(),
                self.switching.gained_by(cmp).to_string(),
                self.switching.lost_by(cmp).to_string(),
                self.switching.net(cmp).to_string(),
            ]);
        }
        format!("{t}\n{net}")
    }
}

/// Run the full longitudinal pipeline with monthly sampling.
pub fn fig6(study: &Study) -> Fig6Result {
    fig6_with_step(study, 30)
}

/// Run with a custom sampling step in days.
pub fn fig6_with_step(study: &Study, step_days: i32) -> Fig6Result {
    let config = study.config();
    let platform = Platform::with_faults(
        study.world(),
        FeedConfig {
            urls_per_day: config.feed_urls_per_day,
            ..FeedConfig::default()
        },
        config.fault_profile,
        study.seed().child("fig6-platform"),
    );
    let (db, stats) = platform.run(config.window_start, config.window_end);

    let toplist = build_toplist(
        study.world(),
        config.toplist_size,
        study.seed().child("toplist"),
    );
    let membership: HashSet<String> = toplist.iter().cloned().collect();
    let timelines = build_timelines(&db, Some(&membership));
    let series = adoption_series(
        &timelines,
        config.window_start,
        config.window_end - 1,
        step_days,
    );
    // Switching is computed over *all* observed domains (the paper's
    // Figure 4 is not toplist-restricted).
    let all_timelines = build_timelines(&db, None);
    let switching = switch_matrix(&all_timelines);
    Fig6Result {
        series,
        switching,
        stats,
        db,
        toplist,
    }
}

/// The adoption count interpolated at a given day (nearest sample at or
/// before `day`).
pub fn count_at(series: &[AdoptionPoint], day: Day) -> usize {
    series
        .iter()
        .rev()
        .find(|p| p.day <= day)
        .map_or(0, AdoptionPoint::total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_webgraph::Cmp;

    #[test]
    fn quick_series_grows() {
        for study in Study::quick_twins() {
            let profile = study.config().fault_profile;
            let r = fig6(&study);
            assert!(!r.series.is_empty());
            let first = r.series.first().unwrap().total();
            let last = r.series.last().unwrap().total();
            assert!(
                last > first,
                "adoption should grow across the window: {first} -> {last} ({profile})"
            );
            assert!(r.stats.captured > 10_000, "{profile}");
            assert!((r.stats.twitter_share() - 0.8).abs() < 0.05, "{profile}");
            let rendered = r.render();
            assert!(rendered.contains("Total"));
        }
    }

    #[test]
    fn switching_flows_present_and_cookiebot_loses() {
        for study in Study::quick_twins() {
            let profile = study.config().fault_profile;
            let r = fig6(&study);
            assert!(r.switching.total() > 0, "no switches observed ({profile})");
            let lost = r.switching.lost_by(Cmp::Cookiebot);
            let gained = r.switching.gained_by(Cmp::Cookiebot);
            assert!(
                lost > gained,
                "Cookiebot should lose more than it gains: {lost} vs {gained} ({profile})"
            );
            let rendered = r.render_switching();
            assert!(rendered.contains("Cookiebot"));
            assert!(rendered.contains("Net"));
        }
    }

    #[test]
    fn count_at_lookup() {
        for study in Study::quick_twins() {
            let profile = study.config().fault_profile;
            let r = fig6(&study);
            let w = study.config().window_start;
            assert_eq!(count_at(&r.series, w - 10), 0);
            let early = count_at(&r.series, w + 40);
            let mid = count_at(&r.series, w + 150);
            assert!(mid >= early, "mid {mid} < early {early} ({profile})");
            // The final sample sits at the right-censor boundary, where the
            // 30-day fade-out legitimately thins coverage; it should still be
            // in the same ballpark as mid-window.
            let end = count_at(&r.series, study.config().window_end);
            assert!(
                end * 2 >= mid,
                "end {end} collapsed vs mid {mid} ({profile})"
            );
        }
    }
}
