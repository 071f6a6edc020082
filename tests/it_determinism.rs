//! Determinism guarantees: identical seeds must reproduce identical
//! results byte-for-byte across every experiment surface.

use consent_analysis::{build_timelines, standard_exports};
use consent_bundle::fnv64;
use consent_core::{experiments, Study, StudyConfig};
use consent_crawler::{
    build_toplist, vantage_code, ArchiveContext, CampaignState, FeedConfig, Platform,
};
use consent_faultsim::{FaultPlan, FaultProfile, FaultyEngine};
use consent_httpsim::{Capture, CaptureOptions, CaptureStatus, Vantage, WorldProber};
use consent_toplist::resolve_all;
use consent_util::{Day, SeedTree};
use consent_webgraph::{
    AdoptionConfig, GeoBehavior, Reachability, SiteProfile, World, WorldConfig,
};
use std::collections::BTreeSet;

fn study() -> Study {
    Study::new(StudyConfig::quick())
}

#[test]
fn table1_renders_identically() {
    for fault_profile in [FaultProfile::none(), FaultProfile::mild()] {
        let study = || {
            Study::new(StudyConfig {
                fault_profile,
                ..StudyConfig::quick()
            })
        };
        let a = experiments::table1::table1(&study()).render();
        let b = experiments::table1::table1(&study()).render();
        assert_eq!(a, b, "{fault_profile}");
    }
}

#[test]
fn fig10_identical_statistics() {
    let a = experiments::fig10::fig10(&study());
    let b = experiments::fig10::fig10(&study());
    assert_eq!(
        a.experiment.direct.accept_times,
        b.experiment.direct.accept_times
    );
    assert_eq!(a.render(), b.render());
}

#[test]
fn gvl_history_identical_json() {
    let a = experiments::fig7_8::gvl_figures(&study());
    let b = experiments::fig7_8::gvl_figures(&study());
    let ja = a.history.last().unwrap().to_json().to_compact();
    let jb = b.history.last().unwrap().to_json().to_compact();
    assert_eq!(ja, jb);
}

#[test]
fn different_seeds_differ() {
    let mut config = StudyConfig::quick();
    config.seed = 1;
    let a = experiments::fig9::fig9_with_hours(&Study::new(config.clone()), 48);
    config.seed = 2;
    let b = experiments::fig9::fig9_with_hours(&Study::new(config), 48);
    assert_ne!(a.median_wait_s, b.median_wait_s);
}

#[test]
fn fig9_stable_across_runs() {
    let a = experiments::fig9::fig9_with_hours(&study(), 48);
    let b = experiments::fig9::fig9_with_hours(&study(), 48);
    assert_eq!(a.median_wait_s, b.median_wait_s);
    assert_eq!(a.probes, b.probes);
}

/// Assert that `got` equals the fixture `want`, naming the first line
/// where they differ, or both line counts when one is a prefix of the
/// other.
fn assert_matches_fixture(what: &str, got: &str, want: &str) {
    if let Some((n, (got, want))) = got
        .lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "{what} differs from the fixture at line {}:\n  got  {got:?}\n  want {want:?}",
            n + 1
        );
    }
    assert!(
        got == want,
        "{what} has {} lines, the fixture {}",
        got.lines().count(),
        want.lines().count()
    );
}

/// Every table, figure and ablation the paper regenerator renders at
/// `Study::quick()`: the `reproduce` example's stdout. Two runs of one
/// build agree on their own; this pins what the experiments print
/// across builds.
const GOLDEN_PAPER: &str = include_str!("fixtures/paper_quick_v1.txt");

#[test]
fn reproduce_matches_the_committed_golden_fixture() {
    let text = experiments::reproduce(&Study::quick());
    assert_matches_fixture("reproduce", &text, GOLDEN_PAPER);
}

/// Every field of every capture the engine and its fault layer return
/// for a fixed set of URLs: one line per capture, whose last field is
/// the FNV-64 of the capture's canonical rendering ([`render_capture`]).
/// The other fixtures keep summaries of captures (rows, statuses, the
/// hosts of a traced campaign); this one pins request URLs, bytes,
/// cookies and the DOM across builds.
const GOLDEN_CAPTURES: &str = include_str!("fixtures/captures_v1.txt");

/// A capture's every field, one record per line.
fn render_capture(c: &Capture) -> String {
    let mut out = format!(
        "{} {} {} {} {} {} dialog={}\n",
        c.status.name(),
        c.day,
        vantage_code(c.vantage),
        c.seed_url,
        c.final_url,
        c.final_host,
        c.dialog_visible
    );
    for r in &c.requests {
        out.push_str(&format!(
            "req {} {} {} {} {} {}\n",
            c.url(&r.url),
            c.host(&r.host),
            r.status,
            r.bytes,
            r.started.as_millis(),
            r.third_party
        ));
    }
    for k in &c.cookies {
        out.push_str(&format!(
            "cookie {} {} {} {}\n",
            k.name,
            c.host(&k.host),
            k.value,
            k.third_party
        ));
    }
    if let Some(dom) = &c.dom {
        out.push_str(&format!("dom {dom:?}\n"));
    }
    out
}

/// What a site's ground truth makes its capture exercise.
fn site_tags(p: &SiteProfile) -> Vec<&'static str> {
    let mut tags = vec![match p.reachability {
        Reachability::Ok => "ok",
        Reachability::Unreachable => "unreachable",
        Reachability::NoValidHttp => "no-valid-http",
        Reachability::HttpError => "http-error",
        Reachability::RedirectsTo(_) => "redirect",
    }];
    if p.alias.is_some() {
        tags.push("alias");
    }
    if let Some(b) = &p.behavior {
        tags.push(match b.geo {
            GeoBehavior::EmbedAlways => "embed-always",
            GeoBehavior::EmbedOnlyEu => "embed-only-eu",
            GeoBehavior::HideFromEu => "hide-from-eu",
            GeoBehavior::Block451Eu => "block-451-eu",
        });
        for (on, tag) in [
            (b.anti_bot_cdn, "anti-bot"),
            (b.slow_load, "slow-load"),
            (b.bare_privacy_page, "bare-privacy"),
            (b.second_cmp.is_some(), "second-cmp"),
        ] {
            if on {
                tags.push(tag);
            }
        }
    }
    tags
}

/// The fixture's URLs: the campaign seed URL of each of the first eight
/// domains of the test world's top 400, and of each further domain that
/// brings a site tag none before it had; then the alias landing page of
/// each of those sites that has an alias, and the privacy page of each
/// whose privacy page is bare.
fn fixture_urls(day: Day) -> Vec<String> {
    let world = consent_integration_tests::world();
    let list = build_toplist(world, 400, SeedTree::new(7));
    let mut seen = BTreeSet::new();
    let picked: Vec<String> = list
        .into_iter()
        .enumerate()
        .filter(|(i, domain)| {
            let profile = world
                .site_by_host(domain)
                .expect("toplist domain is a site");
            let mut new = false;
            for tag in site_tags(&profile) {
                new |= seen.insert(tag);
            }
            *i < 8 || new
        })
        .map(|(_, domain)| domain)
        .collect();
    let prober = WorldProber::new(world, SeedTree::new(7).child("prober"));
    let seeds = resolve_all(picked, &prober, &[day - 7, day - 4, day - 1]);
    let mut urls: Vec<String> = seeds.iter().map(|s| s.url.clone()).collect();
    for s in &seeds {
        let profile = world
            .site_by_host(&s.domain)
            .expect("seed domain is a site");
        if let Some(alias) = &profile.alias {
            urls.push(format!("https://{alias}/"));
        }
        if profile
            .behavior
            .as_ref()
            .is_some_and(|b| b.bare_privacy_page)
        {
            urls.push(format!("https://www.{}/privacy", s.domain));
        }
    }
    urls
}

#[test]
fn captures_match_the_committed_golden_fixture() {
    let world = consent_integration_tests::world();
    let seed = SeedTree::new(7).child("campaign");
    let columns = Vantage::table1_columns();
    // The first day from the campaign day on which the mild profile
    // browns out a Table 1 column, so that every fault kind it injects
    // occurs.
    let mild_plan = FaultPlan::new(FaultProfile::mild(), seed);
    let day = (0..)
        .map(|d| consent_integration_tests::DAY() + d)
        .find(|&d| columns.iter().any(|&v| mild_plan.draw_brownout(d, v)))
        .expect("some day browns out");
    let urls = fixture_urls(day);

    let mut text = String::new();
    let mut statuses = BTreeSet::new();
    let mut faults = BTreeSet::new();
    let (mut alias_301, mut blocked_451, mut interstitial) = (false, false, false);
    for (name, profile) in [
        ("none", FaultProfile::none()),
        ("mild", FaultProfile::mild()),
    ] {
        let engine = FaultyEngine::from_world(world, profile, seed);
        for url in &urls {
            let (host, _) = consent_httpsim::split_url(url);
            for vantage in columns {
                let opts = CaptureOptions {
                    collect_dom: vantage == Vantage::eu_university_extended(),
                };
                for attempt in 1..=4 {
                    let fault = engine.plan().decide(host, day, vantage, attempt);
                    let c = engine.capture_attempt(url, day, vantage, opts, attempt);
                    statuses.insert(c.status.name());
                    if let Some(f) = fault {
                        faults.insert(f.name());
                    }
                    alias_301 |= host.ends_with("-alt.net")
                        && c.requests.first().is_some_and(|r| r.status == 301);
                    blocked_451 |= c.requests.iter().any(|r| r.status == 451);
                    interstitial |= c.contacted("challenge.cdn-shield.net");
                    text.push_str(&format!(
                        "{url} {} {name} {attempt} {} {} {:016x}\n",
                        vantage_code(vantage),
                        c.status.name(),
                        fault.map_or("-", |f| f.name()),
                        fnv64(render_capture(&c).as_bytes())
                    ));
                }
            }
        }
    }

    let all_statuses = [
        CaptureStatus::Ok,
        CaptureStatus::Timeout,
        CaptureStatus::AntiBotInterstitial,
        CaptureStatus::LegallyBlocked,
        CaptureStatus::HttpError,
        CaptureStatus::ConnectionFailed,
        CaptureStatus::ConnectionReset,
        CaptureStatus::Truncated,
    ];
    assert_eq!(
        statuses,
        all_statuses.iter().map(CaptureStatus::name).collect(),
        "every capture status occurs"
    );
    // `FaultProfile::mild()` injects every fault kind but the panic.
    assert_eq!(
        faults,
        BTreeSet::from([
            "antibot_escalation",
            "brownout",
            "reset",
            "timeout",
            "truncation"
        ])
    );
    assert!(alias_301, "an alias seed URL 301-redirects");
    assert!(blocked_451, "a site answers 451");
    assert!(interstitial, "an anti-bot interstitial is served");

    assert_matches_fixture("captures", &text, GOLDEN_CAPTURES);
}

/// The four `standard_exports` documents (timelines, adoption, shares,
/// quality) of a 90-day social-feed database on the 30,000-site test
/// world under [`FaultProfile::mild()`], with a 500-domain toplist as
/// the archive context. Each document follows a `== <label>` line.
/// Bundle replay compares two runs of one build; this pins the
/// documents across builds.
const GOLDEN_ANALYSIS: &str = include_str!("fixtures/analysis_v1.txt");

#[test]
fn analysis_exports_match_the_committed_golden_fixture() {
    let world = World::new(WorldConfig {
        n_sites: 30_000,
        seed: 99,
        adoption: AdoptionConfig::default(),
    });
    let platform = Platform::with_faults(
        &world,
        FeedConfig {
            urls_per_day: 300,
            ..FeedConfig::default()
        },
        FaultProfile::mild(),
        SeedTree::new(5),
    );
    let start = Day::from_ymd(2020, 2, 1);
    let end = start + 90;
    let (db, _) = platform.run(start, end);
    let list = build_toplist(&world, 500, SeedTree::new(7));
    let ctx =
        ArchiveContext::from_campaign(end - 1, &list, &[Vantage::eu_cloud()], &SeedTree::new(9));

    // The database exercises every step of the reconstruction: a gap
    // bridged between two agreeing observations, a CMP fading out after
    // its last observation, and a switch between two CMPs.
    let timelines = build_timelines(&db, None);
    let bridged = timelines.values().any(|t| {
        t.observations
            .windows(2)
            .any(|w| w[0].cmp.is_some() && w[0].cmp == w[1].cmp && w[1].day - w[0].day > 1)
    });
    let faded = timelines.values().any(|t| {
        t.observations.last().is_some_and(|last| {
            last.cmp.is_some()
                && last.day + consent_analysis::FADE_OUT_DAYS + 1 < end
                && t.cmp_on(last.day + consent_analysis::FADE_OUT_DAYS + 1)
                    .is_none()
        })
    });
    let switched = timelines.values().any(|t| !t.switches().is_empty());
    assert!(bridged && faded && switched, "{bridged} {faded} {switched}");

    let state = CampaignState {
        pairs_done: db.len(),
        db,
        ..CampaignState::new()
    };
    let mut text = String::new();
    for (label, doc) in standard_exports(&state, &ctx) {
        text.push_str(&format!("== {label}\n"));
        text.push_str(&doc);
    }
    assert_matches_fixture("analysis exports", &text, GOLDEN_ANALYSIS);
}
