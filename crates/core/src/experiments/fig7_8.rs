//! Figures 7 and 8 — Global Vendor List dynamics.
//!
//! Figure 7 plots the number of vendors and per-purpose claims across all
//! published GVL versions; Figure 8 buckets the lawful-basis transitions
//! of existing vendors by month. Both run the longitudinal diff engine
//! over the replayed version history.

use crate::study::Study;
use consent_tcf::{
    diff_history, fig7_series, fig8_series, generate_history, gvl_diff::Fig7Point,
    gvl_diff::Fig8Month, HistoryConfig, VendorList,
};
use consent_util::table::Table;

/// Output of the GVL experiments.
pub struct GvlResult {
    /// The replayed version history.
    pub history: Vec<VendorList>,
    /// Figure 7 series (one point per version).
    pub fig7: Vec<Fig7Point>,
    /// Figure 8 monthly transition buckets.
    pub fig8: Vec<Fig8Month>,
}

impl GvlResult {
    /// Net shift toward consent over the whole window (Figure 8's
    /// headline: positive).
    pub fn net_toward_consent(&self) -> i64 {
        self.fig8.iter().map(Fig8Month::net_toward_consent).sum()
    }

    /// Render Figure 7 at a monthly cadence.
    pub fn render_fig7(&self) -> String {
        let mut t = Table::with_columns(&[
            "Date", "Version", "Vendors", "P1", "P2", "P3", "P4", "P5", "LI1", "LI2", "LI3", "LI4",
            "LI5",
        ]);
        t.numeric()
            .title("Figure 7: Vendors and purposes in the IAB Global Vendor List");
        let mut last_month = None;
        for p in &self.fig7 {
            let month = p.date.first_of_month();
            if last_month == Some(month) {
                continue;
            }
            last_month = Some(month);
            let mut row = vec![
                p.date.to_string(),
                p.version.to_string(),
                p.vendors.to_string(),
            ];
            row.extend(p.consent.iter().map(usize::to_string));
            row.extend(p.leg_int.iter().map(usize::to_string));
            t.row(row);
        }
        t.to_string()
    }

    /// Render Figure 8.
    pub fn render_fig8(&self) -> String {
        let mut t = Table::with_columns(&[
            "Month",
            "LI→Consent",
            "Consent→LI",
            "New consent",
            "New LI",
            "Dropped",
            "Net→Consent",
        ]);
        t.numeric()
            .title("Figure 8: Lawful-basis changes among existing GVL vendors");
        for m in &self.fig8 {
            t.row(vec![
                m.month.to_string(),
                m.li_to_consent.to_string(),
                m.consent_to_li.to_string(),
                m.new_consent.to_string(),
                m.new_leg_int.to_string(),
                m.dropped.to_string(),
                m.net_toward_consent().to_string(),
            ]);
        }
        t.to_string()
    }
}

/// Run the GVL experiments with the default (paper-calibrated) history.
pub fn gvl_figures(study: &Study) -> GvlResult {
    gvl_figures_with(study, &HistoryConfig::default())
}

/// Run with a custom history configuration.
pub fn gvl_figures_with(study: &Study, config: &HistoryConfig) -> GvlResult {
    let history = generate_history(config, study.seed().child("gvl"));
    let fig7 = fig7_series(&history);
    let events = diff_history(&history);
    let fig8 = fig8_series(&events);
    GvlResult {
        history,
        fig7,
        fig8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_tcf::PurposeId;
    use consent_util::Day;

    #[test]
    fn figures_have_paper_shape() {
        let study = Study::quick();
        let r = gvl_figures(&study);
        assert!(r.history.len() > 100);
        // Fig 7: growth with a GDPR spike; purpose 1 most popular.
        let first = r.fig7.first().unwrap();
        let last = r.fig7.last().unwrap();
        assert!(last.vendors > first.vendors * 5);
        for p in r.fig7.iter().step_by(25) {
            let p1 = p.consent[0] + p.leg_int[0];
            for i in 1..5 {
                assert!(p1 >= p.consent[i] + p.leg_int[i]);
            }
        }
        // Fig 8: net shift toward consent.
        assert!(r.net_toward_consent() > 0);
        // Activity concentrates in the burst months.
        let may18: usize = r
            .fig8
            .iter()
            .filter(|m| {
                m.month == Day::from_ymd(2018, 5, 1) || m.month == Day::from_ymd(2018, 6, 1)
            })
            .map(Fig8Month::total)
            .sum();
        let quiet: usize = r
            .fig8
            .iter()
            .filter(|m| m.month == Day::from_ymd(2019, 9, 1))
            .map(Fig8Month::total)
            .sum();
        assert!(may18 >= quiet, "burst {may18} < quiet {quiet}");
        // At least a fifth of vendors claim LI per purpose at the end.
        let final_list = r.history.last().unwrap();
        for p in 1..=5u8 {
            let total = final_list
                .vendors
                .iter()
                .filter(|v| v.uses_purpose(PurposeId(p)))
                .count();
            assert!(final_list.leg_int_count(PurposeId(p)) * 5 >= total.saturating_sub(total / 4));
        }
    }

    #[test]
    fn renders() {
        let study = Study::quick();
        let r = gvl_figures(&study);
        let f7 = r.render_fig7();
        assert!(f7.contains("Vendors"));
        assert!(f7.lines().count() > 20);
        let f8 = r.render_fig8();
        assert!(f8.contains("LI→Consent"));
    }
}
