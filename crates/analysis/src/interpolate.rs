//! From sparse captures to daily CMP presence (paper §3.2).
//!
//! The social feed samples domains at irregular intervals, so the paper
//! (1) classifies each observation day by whether the CMP appears in at
//! least a third of that day's captures, (2) interpolates gaps whose two
//! boundary observations agree, and (3) right-censors by fading out a
//! CMP 30 days after the last observation.

use consent_crawler::{CaptureSummary, CmpSet};
use consent_util::Day;
use consent_webgraph::{Cmp, ALL_CMPS};

/// The fade-out horizon for right censoring (§3.2: 30 days).
pub const FADE_OUT_DAYS: i32 = 30;

/// The ≥⅓ share a CMP needs among a day's captures (§3.5 "Subsites").
pub const DAY_SHARE_THRESHOLD: f64 = 1.0 / 3.0;

/// One observation day for a domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DayObservation {
    /// The day.
    pub day: Day,
    /// The CMP classified for this day, if any.
    pub cmp: Option<Cmp>,
    /// Usable captures that day.
    pub captures: u32,
    /// Captures containing the classified CMP.
    pub cmp_captures: u32,
}

impl DayObservation {
    /// Share of the day's captures containing the classified CMP.
    pub fn share(&self) -> f64 {
        if self.captures == 0 {
            0.0
        } else {
            f64::from(self.cmp_captures) / f64::from(self.captures)
        }
    }
}

/// A domain's reconstructed daily CMP timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Day-level observations, ascending.
    pub observations: Vec<DayObservation>,
}

impl Timeline {
    /// Classify each observation day of a domain's capture history, in
    /// any row order.
    ///
    /// Only usable captures count. A CMP is assigned to a day when it
    /// appears in at least [`DAY_SHARE_THRESHOLD`] of that day's
    /// captures; if several qualify, the most frequent wins, and of
    /// equally frequent ones the last in [`ALL_CMPS`] order. The usable
    /// rows are sorted by day once, and each day's CMPs are counted in
    /// one array indexed like [`ALL_CMPS`].
    pub fn from_history(history: &[CaptureSummary<'_>]) -> Timeline {
        // Usable includes degraded (timeout / truncated) captures: a
        // partial request log can still witness a CMP, and §3.5 counts
        // the degradation separately in the quality report.
        let mut usable: Vec<(Day, CmpSet)> = history
            .iter()
            .filter(|c| c.status.usable())
            .map(|c| (c.day, c.cmps))
            .collect();
        usable.sort_unstable_by_key(|&(day, _)| day);
        let observations = usable
            .chunk_by(|a, b| a.0 == b.0)
            .map(|captures| {
                let day = captures[0].0;
                let total = captures.len() as u32;
                let mut counts = [0u32; ALL_CMPS.len()];
                for (_, cmps) in captures.iter().filter(|(_, cmps)| !cmps.is_empty()) {
                    for (n, &cmp) in counts.iter_mut().zip(&ALL_CMPS) {
                        *n += u32::from(cmps.contains(cmp));
                    }
                }
                // `max_by_key` keeps the last of equal maxima.
                let best = counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .max_by_key(|&(_, &n)| n)
                    .filter(|&(_, &n)| f64::from(n) / f64::from(total) >= DAY_SHARE_THRESHOLD);
                DayObservation {
                    day,
                    cmp: best.map(|(i, _)| ALL_CMPS[i]),
                    captures: total,
                    cmp_captures: best.map_or(0, |(_, &n)| n),
                }
            })
            .collect();
        let timeline = Timeline { observations };
        if consent_telemetry::enabled() {
            // Gap lengths between consecutive observation days — the
            // paper's interpolation operates exactly on these.
            for pair in timeline.observations.windows(2) {
                consent_telemetry::observe("analysis.gap_days", (pair[1].day - pair[0].day) as u64);
            }
        }
        timeline
    }

    /// The CMP presumed active on `day`, applying interpolation and the
    /// 30-day fade-out.
    pub fn cmp_on(&self, day: Day) -> Option<Cmp> {
        // Last observation at or before `day`, and first after.
        let idx = self.observations.partition_point(|o| o.day <= day);
        let before = idx.checked_sub(1).map(|i| &self.observations[i]);
        let after = self.observations.get(idx);
        match (before, after) {
            (None, _) => None, // never observed yet
            (Some(b), _) if b.day == day => b.cmp,
            (Some(b), Some(a)) => {
                // Interpolate only when both boundaries agree (§3.2).
                if b.cmp == a.cmp {
                    if b.cmp.is_some() {
                        consent_telemetry::count("analysis.interpolated_days", 1);
                    }
                    b.cmp
                } else {
                    None
                }
            }
            (Some(b), None) => {
                // Right-censored: fade out after 30 days.
                if day - b.day <= FADE_OUT_DAYS {
                    b.cmp
                } else {
                    None
                }
            }
        }
    }

    /// Days on which the domain was observed.
    pub fn observed_days(&self) -> usize {
        self.observations.len()
    }

    /// True if every observation day has a CMP share below 5 % or above
    /// 95 % — the bimodality the paper reports for 99.8 % of domains.
    pub fn share_is_bimodal(&self) -> bool {
        self.observations.iter().all(|o| {
            let s = o.share();
            !(0.05..=0.95).contains(&s)
        })
    }

    /// Switch events `(day, from, to)` between *different* CMPs across
    /// consecutive CMP-bearing observations.
    pub fn switches(&self) -> Vec<(Day, Cmp, Cmp)> {
        let mut out = Vec::new();
        let mut last: Option<(Day, Cmp)> = None;
        for o in &self.observations {
            if let Some(cmp) = o.cmp {
                if let Some((_, prev)) = last {
                    if prev != cmp {
                        out.push((o.day, prev, cmp));
                    }
                }
                last = Some((o.day, cmp));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_httpsim::{CaptureStatus, Location};

    fn cap(day: Day, cmp: Option<Cmp>) -> CaptureSummary<'static> {
        CaptureSummary {
            domain: "x.com".into(),
            day,
            location: Location::EuCloud,
            status: CaptureStatus::Ok,
            cmps: cmp.map_or(CmpSet::empty(), |c| CmpSet::from_iter([c])),
            redirected: false,
            dialog_visible: false,
        }
    }

    fn failed_cap(day: Day) -> CaptureSummary<'static> {
        let mut c = cap(day, Some(Cmp::OneTrust));
        c.status = CaptureStatus::AntiBotInterstitial;
        c
    }

    #[test]
    fn day_classification_one_third_rule() {
        let d = Day::from_ymd(2020, 1, 1);
        // 1 of 3 captures has the CMP → exactly one third → classified.
        let history = vec![cap(d, Some(Cmp::Quantcast)), cap(d, None), cap(d, None)];
        let t = Timeline::from_history(&history);
        assert_eq!(t.observations.len(), 1);
        assert_eq!(t.observations[0].cmp, Some(Cmp::Quantcast));
        assert!((t.observations[0].share() - 1.0 / 3.0).abs() < 1e-9);
        // 1 of 4 → below the threshold.
        let history = vec![
            cap(d, Some(Cmp::Quantcast)),
            cap(d, None),
            cap(d, None),
            cap(d, None),
        ];
        let t = Timeline::from_history(&history);
        assert_eq!(t.observations[0].cmp, None);
    }

    #[test]
    fn unusable_captures_ignored() {
        let d = Day::from_ymd(2020, 1, 1);
        let history = vec![cap(d, Some(Cmp::OneTrust)), failed_cap(d), failed_cap(d)];
        let t = Timeline::from_history(&history);
        // Only the usable capture counts: share = 1/1.
        assert_eq!(t.observations[0].captures, 1);
        assert_eq!(t.observations[0].cmp, Some(Cmp::OneTrust));
    }

    #[test]
    fn interpolation_between_agreeing_boundaries() {
        let d = Day::from_ymd(2020, 1, 1);
        let history = vec![
            cap(d, Some(Cmp::Quantcast)),
            cap(d + 30, Some(Cmp::Quantcast)),
        ];
        let t = Timeline::from_history(&history);
        // The paper's example: seen a month ago and today → assume
        // present throughout.
        assert_eq!(t.cmp_on(d + 15), Some(Cmp::Quantcast));
        assert_eq!(t.cmp_on(d), Some(Cmp::Quantcast));
        assert_eq!(t.cmp_on(d - 1), None);
    }

    #[test]
    fn disagreement_blocks_interpolation() {
        let d = Day::from_ymd(2020, 1, 1);
        let history = vec![
            cap(d, Some(Cmp::Cookiebot)),
            cap(d + 40, Some(Cmp::OneTrust)),
        ];
        let t = Timeline::from_history(&history);
        assert_eq!(t.cmp_on(d + 20), None);
        assert_eq!(t.cmp_on(d), Some(Cmp::Cookiebot));
        assert_eq!(t.cmp_on(d + 40), Some(Cmp::OneTrust));
        assert_eq!(t.switches(), vec![(d + 40, Cmp::Cookiebot, Cmp::OneTrust)]);
    }

    #[test]
    fn fade_out_after_thirty_days() {
        let d = Day::from_ymd(2020, 2, 1);
        let history = vec![cap(d, Some(Cmp::TrustArc))];
        let t = Timeline::from_history(&history);
        // The paper's example: measured Feb 1 → assume none by Mar 1.
        assert_eq!(t.cmp_on(d + 7), Some(Cmp::TrustArc));
        assert_eq!(t.cmp_on(d + 30), Some(Cmp::TrustArc));
        assert_eq!(t.cmp_on(d + 31), None);
    }

    #[test]
    fn none_to_cmp_gap_is_not_interpolated() {
        let d = Day::from_ymd(2020, 1, 1);
        let history = vec![cap(d, None), cap(d + 20, Some(Cmp::OneTrust))];
        let t = Timeline::from_history(&history);
        assert_eq!(t.cmp_on(d + 10), None);
        assert_eq!(t.cmp_on(d + 20), Some(Cmp::OneTrust));
    }

    #[test]
    fn bimodality_check() {
        let d = Day::from_ymd(2020, 1, 1);
        // All-or-nothing days → bimodal.
        let history = vec![
            cap(d, Some(Cmp::OneTrust)),
            cap(d, Some(Cmp::OneTrust)),
            cap(d + 1, None),
        ];
        let t = Timeline::from_history(&history);
        assert!(t.share_is_bimodal());
        assert_eq!(t.observed_days(), 2);
        // A 50 % day breaks bimodality.
        let history = vec![cap(d, Some(Cmp::OneTrust)), cap(d, None)];
        let t = Timeline::from_history(&history);
        assert!(!t.share_is_bimodal());
    }

    #[test]
    fn multi_cmp_day_picks_majority() {
        let d = Day::from_ymd(2020, 1, 1);
        let history = vec![
            cap(d, Some(Cmp::OneTrust)),
            cap(d, Some(Cmp::OneTrust)),
            cap(d, Some(Cmp::Quantcast)),
        ];
        let t = Timeline::from_history(&history);
        assert_eq!(t.observations[0].cmp, Some(Cmp::OneTrust));
    }

    #[test]
    fn day_tie_picks_the_later_cmp_in_all_cmps_order() {
        let d = Day::from_ymd(2020, 1, 1);
        // OneTrust precedes Quantcast in ALL_CMPS, and Crownpeak comes
        // last: whatever order the captures arrive in, a tie goes to the
        // later CMP.
        for pair in [
            [Cmp::OneTrust, Cmp::Quantcast],
            [Cmp::Quantcast, Cmp::OneTrust],
        ] {
            let history: Vec<_> = pair.iter().map(|&c| cap(d, Some(c))).collect();
            let t = Timeline::from_history(&history);
            assert_eq!(t.observations[0].cmp, Some(Cmp::Quantcast), "{pair:?}");
            assert_eq!(t.observations[0].cmp_captures, 1);
        }
        let history = vec![
            cap(d, Some(Cmp::Crownpeak)),
            cap(d, Some(Cmp::Cookiebot)),
            cap(d, Some(Cmp::Cookiebot)),
            cap(d, Some(Cmp::Crownpeak)),
            cap(d, Some(Cmp::OneTrust)),
            cap(d, Some(Cmp::OneTrust)),
        ];
        let t = Timeline::from_history(&history);
        assert_eq!(t.observations[0].cmp, Some(Cmp::Crownpeak));
        assert_eq!(t.observations[0].cmp_captures, 2);
    }

    #[test]
    fn out_of_order_days_classify_like_sorted_ones() {
        let d = Day::from_ymd(2020, 1, 1);
        let sorted = vec![
            cap(d, Some(Cmp::OneTrust)),
            cap(d, None),
            failed_cap(d + 2),
            cap(d + 3, None),
            cap(d + 3, Some(Cmp::Cookiebot)),
            cap(d + 3, Some(Cmp::Cookiebot)),
            cap(d + 9, Some(Cmp::TrustArc)),
            cap(d + 9, Some(Cmp::Quantcast)),
            cap(d + 40, None),
        ];
        let want = Timeline::from_history(&sorted);
        let days: Vec<Day> = want.observations.iter().map(|o| o.day).collect();
        assert_eq!(days, [d, d + 3, d + 9, d + 40]);
        let mut shuffled = sorted.clone();
        shuffled.reverse();
        shuffled.swap(1, 6);
        assert_eq!(Timeline::from_history(&shuffled), want);
        shuffled.rotate_left(4);
        assert_eq!(Timeline::from_history(&shuffled), want);
    }
}
