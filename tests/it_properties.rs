//! Cross-crate property tests on the reconstruction invariants.

use consent_analysis::{Timeline, FADE_OUT_DAYS};
use consent_crawler::{Admission, CaptureSummary, CmpSet, DedupQueue};
use consent_httpsim::{CaptureStatus, Location};
use consent_util::Day;
use consent_webgraph::{Cmp, ALL_CMPS};
use proptest::prelude::*;

fn capture_strategy() -> impl Strategy<Value = CaptureSummary<'static>> {
    (
        0i32..400,
        proptest::option::of(0usize..6),
        any::<bool>(),
        0u8..10,
    )
        .prop_map(
            |(day_off, cmp_idx, redirected, status_sel)| CaptureSummary {
                domain: "site.example".into(),
                day: Day::from_ymd(2019, 1, 1) + day_off,
                location: Location::EuCloud,
                status: if status_sel == 0 {
                    CaptureStatus::AntiBotInterstitial
                } else {
                    CaptureStatus::Ok
                },
                cmps: cmp_idx.map_or(CmpSet::empty(), |i| CmpSet::from_iter([ALL_CMPS[i]])),
                redirected,
                dialog_visible: false,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reconstructed timeline never invents a CMP that was not
    /// observed, and never reports presence more than FADE_OUT_DAYS past
    /// the last observation.
    #[test]
    fn timeline_never_invents_cmps(history in proptest::collection::vec(capture_strategy(), 0..60)) {
        let timeline = Timeline::from_history(&history);
        let observed: Vec<Cmp> = history
            .iter()
            .filter(|c| matches!(c.status, CaptureStatus::Ok))
            .flat_map(|c| c.cmps.iter().collect::<Vec<_>>())
            .collect();
        let last_day = timeline.observations.last().map(|o| o.day);
        for off in -5i32..420 {
            let day = Day::from_ymd(2019, 1, 1) + off;
            if let Some(cmp) = timeline.cmp_on(day) {
                prop_assert!(observed.contains(&cmp), "invented {cmp}");
                let last = last_day.expect("presence implies an observation");
                if day > last {
                    prop_assert!(day - last <= FADE_OUT_DAYS, "presence beyond fade-out");
                }
            }
        }
        // Observation days are strictly ascending.
        for w in timeline.observations.windows(2) {
            prop_assert!(w[0].day < w[1].day);
        }
    }

    /// Dedup queue invariants: monotone counts, at most one acceptance
    /// per URL per 48h window, and acceptance is deterministic in the
    /// offer sequence.
    #[test]
    fn dedup_queue_invariants(
        offers in proptest::collection::vec((0u8..12, 0i64..200_000), 1..150)
    ) {
        let mut q1 = DedupQueue::new();
        let mut q2 = DedupQueue::new();
        let mut sorted = offers.clone();
        sorted.sort_by_key(|&(_, t)| t);
        let mut results = Vec::new();
        for &(url_id, ts) in &sorted {
            let url = format!("https://d{}.example/page{}", url_id % 4, url_id);
            let a = q1.offer(&url, ts);
            let b = q2.offer(&url, ts);
            prop_assert_eq!(a, b, "same sequence must decide identically");
            results.push((url, ts, a));
        }
        prop_assert_eq!(q1.accepted() + q1.skipped(), sorted.len() as u64);
        prop_assert!(q1.skip_rate() >= 0.0 && q1.skip_rate() <= 1.0);
        // No URL accepted twice within 48 hours.
        for (i, (url, ts, adm)) in results.iter().enumerate() {
            if *adm != Admission::Accepted {
                continue;
            }
            for (url2, ts2, adm2) in results.iter().skip(i + 1) {
                if url2 == url && ts2 - ts < 48 * 3_600 {
                    prop_assert_ne!(*adm2, Admission::Accepted,
                        "duplicate acceptance of {} at {} and {}", url, ts, ts2);
                }
            }
        }
    }

    /// eTLD+1 extraction is idempotent: normalizing a registrable domain
    /// yields itself.
    #[test]
    fn psl_idempotent(label in "[a-z]{1,8}", sub in "[a-z]{1,6}") {
        let psl = consent_psl::PublicSuffixList::embedded();
        for tld in ["com", "co.uk", "github.io", "de"] {
            let host = format!("{sub}.{label}.{tld}");
            if let Some(reg) = psl.registrable_domain(&host) {
                let again = psl.registrable_domain(&reg);
                prop_assert_eq!(again.as_deref(), Some(&*reg));
                prop_assert!(host.ends_with(&*reg));
            }
        }
    }
}
