//! CMP adoption over time (Figure 6) and switching flows (Figure 4).
//!
//! Both analyses consume the per-domain [`Timeline`]s reconstructed from
//! the capture database, restricted to a toplist membership set, exactly
//! as the paper counts "websites in the Tranco 10k toplist that embed a
//! CMP".

use crate::interpolate::Timeline;
use consent_crawler::CaptureDb;
use consent_util::Day;
use consent_webgraph::{Cmp, ALL_CMPS};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Reconstruct timelines for every domain in the capture DB (optionally
/// restricted to a membership set such as the Tranco 10k). One scan of
/// the store; only the map's keys are fresh strings.
pub fn build_timelines(
    db: &CaptureDb,
    restrict_to: Option<&HashSet<String>>,
) -> HashMap<String, Timeline> {
    db.iter()
        .filter(|(domain, _)| restrict_to.is_none_or(|s| s.contains(*domain)))
        .map(|(domain, history)| (domain.to_owned(), Timeline::from_history(&history)))
        .collect()
}

/// One point of the Figure 6 series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdoptionPoint {
    /// The day.
    pub day: Day,
    /// Domains per CMP, in [`ALL_CMPS`] order.
    pub counts: [usize; 6],
}

impl AdoptionPoint {
    /// Total CMP-using domains.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Count for one CMP.
    pub fn count(&self, cmp: Cmp) -> usize {
        self.counts[ALL_CMPS.iter().position(|&c| c == cmp).expect("known cmp")]
    }
}

/// Compute the Figure 6 series: per-CMP domain counts on each sample day.
///
/// Only timelines with a CMP-bearing observation are evaluated: on the
/// others [`Timeline::cmp_on`] is `None` on every day.
pub fn adoption_series(
    timelines: &HashMap<String, Timeline>,
    start: Day,
    end: Day,
    step_days: i32,
) -> Vec<AdoptionPoint> {
    assert!(step_days >= 1);
    let adopters: Vec<&Timeline> = timelines
        .values()
        .filter(|t| t.observations.iter().any(|o| o.cmp.is_some()))
        .collect();
    let mut out = Vec::new();
    let mut day = start;
    while day <= end {
        let mut point = AdoptionPoint {
            day,
            counts: [0; 6],
        };
        for timeline in &adopters {
            if let Some(cmp) = timeline.cmp_on(day) {
                point.counts[ALL_CMPS.iter().position(|&c| c == cmp).expect("known")] += 1;
            }
        }
        out.push(point);
        day += step_days;
    }
    out
}

/// The Figure 4 switching-flow matrix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SwitchMatrix {
    /// `flows[(from, to)]` = number of domains that switched.
    pub flows: BTreeMap<(Cmp, Cmp), usize>,
}

impl SwitchMatrix {
    /// Total domains that left `cmp` for another CMP.
    pub fn lost_by(&self, cmp: Cmp) -> usize {
        self.flows
            .iter()
            .filter(|((from, _), _)| *from == cmp)
            .map(|(_, n)| n)
            .sum()
    }

    /// Total domains `cmp` won from other CMPs.
    pub fn gained_by(&self, cmp: Cmp) -> usize {
        self.flows
            .iter()
            .filter(|((_, to), _)| *to == cmp)
            .map(|(_, n)| n)
            .sum()
    }

    /// Net gain (can be negative).
    pub fn net(&self, cmp: Cmp) -> i64 {
        self.gained_by(cmp) as i64 - self.lost_by(cmp) as i64
    }

    /// Total switch events.
    pub fn total(&self) -> usize {
        self.flows.values().sum()
    }
}

/// Extract the switching flows from all timelines.
pub fn switch_matrix(timelines: &HashMap<String, Timeline>) -> SwitchMatrix {
    let mut m = SwitchMatrix::default();
    for timeline in timelines.values() {
        for (_, from, to) in timeline.switches() {
            *m.flows.entry((from, to)).or_insert(0) += 1;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_crawler::{CaptureSummary, CmpSet};
    use consent_httpsim::{CaptureStatus, Location};

    fn cap(domain: &str, day: Day, cmp: Option<Cmp>) -> CaptureSummary<'_> {
        CaptureSummary {
            domain: domain.into(),
            day,
            location: Location::EuCloud,
            status: CaptureStatus::Ok,
            cmps: cmp.map_or(CmpSet::empty(), |c| CmpSet::from_iter([c])),
            redirected: false,
            dialog_visible: false,
        }
    }

    fn db() -> CaptureDb {
        let mut db = CaptureDb::new();
        let d = Day::from_ymd(2019, 1, 1);
        // a.com: Quantcast throughout January.
        db.insert(cap("a.com", d, Some(Cmp::Quantcast)));
        db.insert(cap("a.com", d + 30, Some(Cmp::Quantcast)));
        // b.com: Cookiebot, then switches to OneTrust.
        db.insert(cap("b.com", d, Some(Cmp::Cookiebot)));
        db.insert(cap("b.com", d + 20, Some(Cmp::OneTrust)));
        db.insert(cap("b.com", d + 40, Some(Cmp::OneTrust)));
        // c.com: no CMP.
        db.insert(cap("c.com", d + 5, None));
        db
    }

    #[test]
    fn timelines_respect_restriction() {
        let db = db();
        let all = build_timelines(&db, None);
        assert_eq!(all.len(), 3);
        let only: HashSet<String> = ["a.com".to_owned()].into();
        let restricted = build_timelines(&db, Some(&only));
        assert_eq!(restricted.len(), 1);
        assert!(restricted.contains_key("a.com"));
    }

    #[test]
    fn adoption_series_counts() {
        let db = db();
        let timelines = build_timelines(&db, None);
        let d = Day::from_ymd(2019, 1, 1);
        let series = adoption_series(&timelines, d, d + 40, 10);
        assert_eq!(series.len(), 5);
        // Day 0: a=Quantcast, b=Cookiebot.
        assert_eq!(series[0].count(Cmp::Quantcast), 1);
        assert_eq!(series[0].count(Cmp::Cookiebot), 1);
        assert_eq!(series[0].total(), 2);
        // Day 10: a interpolated Quantcast; b gap (boundaries disagree).
        assert_eq!(series[1].count(Cmp::Quantcast), 1);
        assert_eq!(series[1].count(Cmp::Cookiebot), 0);
        // Day 30: b OneTrust (interpolated 20→40), a Quantcast.
        assert_eq!(series[3].count(Cmp::OneTrust), 1);
        assert_eq!(series[3].total(), 2);
    }

    #[test]
    fn switching_matrix() {
        let db = db();
        let timelines = build_timelines(&db, None);
        let m = switch_matrix(&timelines);
        assert_eq!(m.total(), 1);
        assert_eq!(m.flows[&(Cmp::Cookiebot, Cmp::OneTrust)], 1);
        assert_eq!(m.lost_by(Cmp::Cookiebot), 1);
        assert_eq!(m.gained_by(Cmp::OneTrust), 1);
        assert_eq!(m.net(Cmp::Cookiebot), -1);
        assert_eq!(m.net(Cmp::OneTrust), 1);
        assert_eq!(m.net(Cmp::Quantcast), 0);
    }

    #[test]
    #[should_panic]
    fn series_rejects_zero_step() {
        let timelines = HashMap::new();
        adoption_series(&timelines, Day::EPOCH, Day::EPOCH + 1, 0);
    }
}
