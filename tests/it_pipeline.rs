//! End-to-end pipeline integration: synthetic web → crawler → detection
//! → analysis, crossing every crate boundary in one flow.

use consent_analysis::{build_timelines, Timeline};
use consent_crawler::{CaptureDb, CmpSet, FeedConfig, Platform};
use consent_faultsim::FaultProfile;
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, Engine, Vantage};
use consent_psl::PublicSuffixList;
use consent_util::{Day, SeedTree};
use consent_webgraph::{AdoptionConfig, Reachability, World, WorldConfig};

fn world() -> World {
    World::new(WorldConfig {
        n_sites: 30_000,
        seed: 99,
        adoption: AdoptionConfig::default(),
    })
}

#[test]
fn ground_truth_recovered_through_full_pipeline() {
    // For clean sites (no geo gating, no anti-bot, not slow), what the
    // pipeline measures at the EU-university vantage must equal ground
    // truth exactly.
    let w = world();
    let day = Day::from_ymd(2020, 5, 15);
    let engine = Engine::new(&w, SeedTree::new(1));
    let det = Detector::hostname_only();
    let psl = PublicSuffixList::embedded();
    let mut db = CaptureDb::new();
    let vantage = Vantage::table1_columns()[3];

    let mut truth = 0usize;
    for rank in 1..=2_000u32 {
        let p = w.profile(rank);
        if p.reachability != Reachability::Ok {
            continue;
        }
        let clean = p.behavior.as_ref().is_none_or(|b| {
            b.geo == consent_webgraph::GeoBehavior::EmbedAlways && !b.anti_bot_cdn && !b.slow_load
        });
        if !clean {
            continue;
        }
        if p.cmp_on(day).is_some() {
            truth += 1;
        }
        let c = engine.capture(
            &format!("https://{}/", p.domain),
            day,
            vantage,
            CaptureOptions::default(),
        );
        let cmps = CmpSet::from_iter(det.detect(&c));
        db.ingest(&c, cmps, &psl);
    }
    let timelines = build_timelines(&db, None);
    let measured = timelines
        .values()
        .filter(|t: &&Timeline| t.cmp_on(day).is_some())
        .count();
    assert_eq!(measured, truth, "clean-site measurement must be exact");
    assert!(
        truth > 50,
        "need a meaningful number of adopters, got {truth}"
    );
}

#[test]
fn social_pipeline_measures_within_tolerance_of_truth() {
    // Over the full pipeline with all distortions, injected faults
    // included, the measured count should be below but near ground truth.
    let w = world();
    for profile in [FaultProfile::none(), FaultProfile::mild()] {
        let platform = Platform::with_faults(
            &w,
            FeedConfig {
                urls_per_day: 2_500,
                ..FeedConfig::default()
            },
            profile,
            SeedTree::new(5),
        );
        let day = Day::from_ymd(2020, 5, 10);
        let (db, stats) = platform.run(day - 20, day + 1);
        assert!(stats.captured > 10_000, "{profile}");

        let timelines = build_timelines(&db, None);
        let measured = timelines
            .values()
            .filter(|t| t.cmp_on(day).is_some())
            .count();
        // Ground truth over the same domain set.
        let truth = timelines
            .keys()
            .filter_map(|d| w.site_by_host(d))
            .filter(|p| p.cmp_on(day).is_some())
            .count();
        assert!(truth > 100, "truth {truth} ({profile})");
        let ratio = measured as f64 / truth as f64;
        // Cloud vantages, geo gating and timeouts lose some CMPs; random
        // vantage mixing recovers most.
        assert!(
            (0.55..=1.02).contains(&ratio),
            "measured {measured} / truth {truth} = {ratio} ({profile})"
        );
    }
}

#[test]
fn etld1_normalization_spans_crates() {
    // A site hosted on a private suffix must be counted by its platform
    // subdomain, not the platform apex.
    let w = world();
    let platform_site = (1..=30_000u32)
        .map(|r| w.profile(r))
        .find(|p| p.domain.ends_with(".github.io") && p.reachability == Reachability::Ok)
        .expect("platform-hosted site exists");
    let engine = Engine::new(&w, SeedTree::new(2));
    let psl = PublicSuffixList::embedded();
    let c = engine.capture(
        &format!("https://{}/", platform_site.domain),
        Day::from_ymd(2020, 5, 15),
        Vantage::eu_cloud(),
        CaptureOptions::default(),
    );
    let mut db = CaptureDb::new();
    db.ingest(&c, CmpSet::empty(), &psl);
    assert_eq!(db.domain_history(&platform_site.domain).len(), 1);
    assert_eq!(db.domain_history("github.io").len(), 0);
}
