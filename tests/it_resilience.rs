//! Chaos determinism, checkpoint/resume, and failure-policy invariants.
//!
//! Telemetry stays disabled here (the global registry belongs to
//! `it_telemetry`); these tests pin down the *data* guarantees of the
//! robustness layer: seeded fault injection is reproducible, a none
//! profile is indistinguishable from the unwrapped engine, permanent
//! failures never retry, the breaker dead-letters escalating anti-bot
//! domains, and an interrupted campaign resumes to the exact same state
//! as an uninterrupted one.

use consent_crawler::{
    build_toplist, resume_campaign_parallel, run_campaign_parallel, BreakerConfig, CampaignConfig,
    CampaignState, CmpSet, Outcome, ParallelOpts, RetryPolicy,
};
use consent_faultsim::FaultProfile;
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, CaptureStatus, Engine, Vantage};
use consent_util::{Day, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};

fn world() -> World {
    World::new(WorldConfig {
        n_sites: 5_000,
        seed: 42,
        adoption: AdoptionConfig::default(),
    })
}

fn config(profile: FaultProfile) -> CampaignConfig {
    CampaignConfig {
        fault_profile: profile,
        retry: RetryPolicy::paper(),
        breaker: BreakerConfig::default(),
    }
}

/// Crawl in pair order on the calling thread, at most `max_pairs` pairs.
fn opts(config: CampaignConfig, max_pairs: Option<u64>) -> ParallelOpts {
    ParallelOpts {
        threads: 1,
        config,
        max_pairs,
    }
}

const DAY: fn() -> Day = || Day::from_ymd(2020, 5, 15);

#[test]
fn seeded_chaos_is_deterministic() {
    let w = world();
    let list = build_toplist(&w, 150, SeedTree::new(7));
    let vantages = [Vantage::eu_cloud(), Vantage::eu_university_extended()];
    let run = |_: u32| {
        run_campaign_parallel(
            &w,
            &list,
            DAY(),
            &vantages,
            SeedTree::new(9),
            &opts(config(FaultProfile::heavy()), None),
        )
    };
    let a = run(0);
    let b = run(1);
    assert!(a.complete && b.complete);
    // Same seed + same profile ⇒ identical capture db, dead letters, and
    // per-pair attempt histories, down to the serialized byte.
    assert_eq!(a.state.export(), b.state.export());
    assert!(
        a.state.dead_letters().next().is_some(),
        "heavy chaos produced no dead letters"
    );
    assert_eq!(a.result.columns, b.result.columns);
    // A different fault seed genuinely changes the injected faults.
    let c = run_campaign_parallel(
        &w,
        &list,
        DAY(),
        &vantages,
        SeedTree::new(10),
        &opts(config(FaultProfile::heavy()), None),
    );
    assert_ne!(a.state.export(), c.state.export());
}

#[test]
fn none_profile_matches_the_unwrapped_engine() {
    let w = world();
    let list = build_toplist(&w, 120, SeedTree::new(7));
    let vantages = [Vantage::us_cloud(), Vantage::eu_university_extended()];
    let seed = SeedTree::new(9);
    let run = run_campaign_parallel(
        &w,
        &list,
        DAY(),
        &vantages,
        seed,
        &opts(config(FaultProfile::none()), None),
    );
    // Replay every recorded pair through a bare engine built from the
    // same seed node the campaign uses: the fault layer must have been a
    // pure passthrough, so each record is what the bare capture yields.
    let bare = Engine::new(&w, seed.child("engine"));
    let detector = Detector::hostname_only();
    for (vantage, records) in &run.result.columns {
        let collect_dom = *vantage == Vantage::eu_university_extended();
        for c in records {
            let url = &run.result.seeds[c.rank - 1].url;
            let replay = bare.capture(url, c.day, *vantage, CaptureOptions { collect_dom });
            assert_eq!(
                (c.status, c.final_host.as_str(), c.dom.as_ref(), c.cmps),
                (
                    replay.status,
                    replay.final_host.as_str(),
                    replay.dom.as_ref(),
                    CmpSet::from_iter(detector.detect(&replay))
                ),
                "{} diverged from the bare engine",
                c.domain
            );
        }
    }
    // No injected statuses can exist without a fault profile.
    for (_, records) in &run.result.columns {
        for c in records {
            assert!(!matches!(
                c.status,
                CaptureStatus::ConnectionReset | CaptureStatus::Truncated | CaptureStatus::Timeout
            ));
        }
    }
}

#[test]
fn interrupted_campaign_resumes_to_the_uninterrupted_state() {
    let w = world();
    let list = build_toplist(&w, 90, SeedTree::new(7));
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let seed = SeedTree::new(9);
    let cfg = config(FaultProfile::mild());

    let full = run_campaign_parallel(&w, &list, DAY(), &vantages, seed, &opts(cfg, None));
    assert!(full.complete);
    let total_pairs = (vantages.len() * list.len()) as u64;
    assert_eq!(full.state.pairs_done, total_pairs);

    // Kill the campaign halfway (mid-column), checkpoint through the
    // text format, and resume.
    let half = total_pairs / 2;
    let first = resume_campaign_parallel(
        &w,
        &list,
        DAY(),
        &vantages,
        seed,
        &opts(cfg, Some(half)),
        CampaignState::new(),
    );
    assert!(!first.complete);
    assert_eq!(first.state.pairs_done, half);
    assert_eq!(first.state.db.len(), half);

    let checkpoint = first.state.export();
    let restored = CampaignState::import(&checkpoint).expect("checkpoint parses");
    let second = resume_campaign_parallel(
        &w,
        &list,
        DAY(),
        &vantages,
        seed,
        &opts(cfg, None),
        restored,
    );
    assert!(second.complete);

    // The merged halves equal the uninterrupted run: same cumulative
    // state (db rows, dead letters, cursor) and same per-pair records.
    assert_eq!(second.state.export(), full.state.export());
    let merged = first.result.merge(second.result);
    assert_eq!(merged.columns, full.result.columns);
}

#[test]
fn breaker_dead_letters_escalating_antibot_domains() {
    let w = world();
    let list = build_toplist(&w, 300, SeedTree::new(7));
    // Even without injected faults, anti-bot CDN sites serve
    // interstitials to cloud vantages on every attempt: the breaker must
    // open at the threshold instead of burning the full schedule.
    let run = run_campaign_parallel(
        &w,
        &list,
        DAY(),
        &[Vantage::eu_cloud()],
        SeedTree::new(9),
        &opts(config(FaultProfile::none()), None),
    );
    let opened: Vec<_> = run
        .state
        .dead_letters()
        .filter(|dl| dl.breaker_opened)
        .collect();
    assert!(!opened.is_empty(), "no breaker opens in 300 domains");
    for dl in &opened {
        assert_eq!(
            dl.attempts.len(),
            usize::from(BreakerConfig::default().antibot_threshold)
        );
        assert!(dl.attempts.iter().all(|a| a.status == "antibot"));
        assert_eq!(dl.outcome, Outcome::Transient.name());
    }
    // Breaker-opened pairs are dead-lettered *and* in the db
    // (one row per pair, final status preserved for §3.5 accounting).
    assert_eq!(run.state.db.len(), list.len() as u64);
}

#[test]
fn degraded_captures_are_kept_not_retried() {
    let w = world();
    let list = build_toplist(&w, 100, SeedTree::new(7));
    // Truncate every capture: all outcomes become Degraded.
    let profile = FaultProfile {
        truncation: 1.0,
        ..FaultProfile::none()
    };
    let run = run_campaign_parallel(
        &w,
        &list,
        DAY(),
        &[Vantage::us_cloud()],
        SeedTree::new(9),
        &opts(config(profile), None),
    );
    let captures = run.result.column(Vantage::us_cloud()).unwrap();
    let degraded: Vec<_> = captures
        .iter()
        .filter(|c| c.outcome == Outcome::Degraded)
        .collect();
    assert!(!degraded.is_empty());
    for c in &degraded {
        assert_eq!(c.attempts, 1, "degraded capture was retried");
        assert!(c.status.usable() && c.status.degraded());
        // Kept, not abandoned: degraded pairs are absent from the
        // dead letters.
        assert!(!run
            .state
            .dead_letters()
            .any(|dl| dl.rank as usize == c.rank));
    }
    // Opting in to degraded retries spends more attempts.
    let eager = CampaignConfig {
        retry: RetryPolicy {
            retry_degraded: true,
            ..RetryPolicy::paper()
        },
        ..config(profile)
    };
    let eager_run = run_campaign_parallel(
        &w,
        &list,
        DAY(),
        &[Vantage::us_cloud()],
        SeedTree::new(9),
        &opts(eager, None),
    );
    let eager_attempts: u64 = eager_run
        .result
        .column(Vantage::us_cloud())
        .unwrap()
        .iter()
        .map(|c| u64::from(c.attempts))
        .sum();
    let lazy_attempts: u64 = captures.iter().map(|c| u64::from(c.attempts)).sum();
    assert!(eager_attempts > lazy_attempts);
}

#[test]
fn schedule_is_explicit_and_stays_inside_the_week() {
    let day = DAY();
    let schedule = RetryPolicy::paper().schedule(day);
    assert_eq!(schedule, vec![day, day + 2, day + 4, day + 6]);
    assert!(schedule.iter().all(|&d| (d - day) <= 7));
    // Every attempt day recorded by a campaign comes from that schedule.
    let w = world();
    let list = build_toplist(&w, 80, SeedTree::new(7));
    let run = run_campaign_parallel(
        &w,
        &list,
        day,
        &[Vantage::eu_cloud()],
        SeedTree::new(9),
        &opts(config(FaultProfile::heavy()), None),
    );
    let schedule_days: Vec<String> = schedule.iter().map(Day::to_string).collect();
    for dl in run.state.dead_letters() {
        for a in &dl.attempts {
            assert!(
                schedule_days.contains(&a.day),
                "off-schedule attempt on {}",
                a.day
            );
        }
    }
    for c in run.result.column(Vantage::eu_cloud()).unwrap() {
        assert!(schedule.contains(&c.day));
    }
}
