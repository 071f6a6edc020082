//! Deterministic text renderings of the analysis results — the
//! documents archived in a campaign bundle's `analysis` section and
//! recomputed during bundle replay.
//!
//! Every renderer is a pure function of the capture database, of the
//! timelines [`build_timelines`] reconstructs from it (built once per
//! [`standard_exports`] call) and of the bundle's [`ArchiveContext`]:
//! sorted iteration orders, fixed-width float formatting (`{:.6}`), and
//! day ranges derived from the data itself, so the same state always
//! renders the same bytes. That is the
//! property [`consent_crawler::archive::replay_campaign_bundle`]
//! checks: it re-runs [`standard_exports`] over the re-imported state
//! and byte-compares against the archived documents.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use consent_crawler::archive::ArchiveContext;
use consent_crawler::{CampaignState, CaptureDb};
use consent_util::Day;
use consent_webgraph::ALL_CMPS;

use crate::interpolate::Timeline;
use crate::marketshare::{marketshare_curve, standard_sizes, RankObservation};
use crate::quality::capture_quality;
use crate::timeseries::{adoption_series, build_timelines, switch_matrix};

/// The first/last capture day in the database, if any captures exist.
fn day_range(db: &CaptureDb) -> Option<(Day, Day)> {
    let mut range: Option<(Day, Day)> = None;
    for (_, history) in db.iter() {
        for row in &history {
            range = Some(match range {
                None => (row.day, row.day),
                Some((lo, hi)) => (lo.min(row.day), hi.max(row.day)),
            });
        }
    }
    range
}

// Writing into a `String` cannot fail, so the renderers below ignore
// the `fmt::Result` of `write!`.

/// Per-domain timeline summary (Figure 1 / §3.2 interpolation layer):
/// observed days, switch count, and each switch as `day from>to`,
/// domains sorted.
pub fn render_timelines(timelines: &HashMap<String, Timeline>) -> String {
    let sorted: BTreeMap<&str, _> = timelines.iter().map(|(d, t)| (d.as_str(), t)).collect();
    let mut out = String::from("#consent-analysis-timelines v1\n");
    for (domain, t) in sorted {
        let switches = t.switches();
        let _ = write!(
            out,
            "{domain}\tdays={}\tswitches={}",
            t.observed_days(),
            switches.len()
        );
        for (day, from, to) in switches {
            let _ = write!(out, "\t{day} {from}>{to}");
        }
        out.push('\n');
    }
    out
}

/// The Figure 6 adoption series over the database's own day range
/// (daily step), one line per day with per-CMP domain counts in
/// [`ALL_CMPS`] order, then the switch matrix; `timelines` are the
/// database's.
pub fn render_adoption(db: &CaptureDb, timelines: &HashMap<String, Timeline>) -> String {
    let mut out = String::from("#consent-analysis-adoption v1\n");
    let _ = writeln!(out, "cmps={}", ALL_CMPS.map(|c| c.to_string()).join(" "));
    let Some((start, end)) = day_range(db) else {
        return out;
    };
    for point in adoption_series(timelines, start, end, 1) {
        let _ = write!(out, "{}", point.day);
        for n in point.counts {
            let _ = write!(out, "\t{n}");
        }
        out.push('\n');
    }
    let matrix = switch_matrix(timelines);
    for ((from, to), n) in &matrix.flows {
        let _ = writeln!(out, "switch\t{from}\t{to}\t{n}");
    }
    out
}

/// The Figure 5 rank-stratified market-share curve, computed from the
/// toplist rank order the bundle's [`ArchiveContext`] preserves and
/// each domain's interpolated CMP on the campaign day.
pub fn render_shares(timelines: &HashMap<String, Timeline>, ctx: &ArchiveContext) -> String {
    let observations: Vec<RankObservation> = ctx
        .domains
        .iter()
        .enumerate()
        .map(|(i, domain)| RankObservation {
            rank: i as u32 + 1,
            weight: 1.0,
            cmp: timelines.get(domain).and_then(|t| t.cmp_on(ctx.day)),
        })
        .collect();
    let curve = marketshare_curve(&observations, &standard_sizes());
    let mut out = String::from("#consent-analysis-shares v1\n");
    let _ = writeln!(out, "cmps={}", ALL_CMPS.map(|c| c.to_string()).join(" "));
    for (i, size) in curve.sizes.iter().enumerate() {
        let _ = write!(out, "{size}\tcovered={:.6}", curve.covered[i]);
        for share in curve.shares[i] {
            let _ = write!(out, "\t{share:.6}");
        }
        out.push('\n');
    }
    out
}

/// The §3.4–3.5 capture-quality accounting.
pub fn render_quality(db: &CaptureDb) -> String {
    let q = capture_quality(db);
    format!(
        "#consent-analysis-quality v1\n\
         total={}\nok={}\ntimeout={}\ntruncated={}\ninterstitial={}\n\
         blocked_451={}\nhttp_error={}\nconnection_failed={}\nconnection_reset={}\n\
         usable_rate={:.6}\ndegraded_rate={:.6}\n",
        q.total,
        q.ok,
        q.timeout,
        q.truncated,
        q.interstitial,
        q.blocked_451,
        q.http_error,
        q.connection_failed,
        q.connection_reset,
        q.usable_rate(),
        q.degraded_rate(),
    )
}

/// The standard analysis-export provider for campaign bundles: the
/// four `experiments::*` document classes, labeled `timelines`,
/// `adoption`, `shares`, and `quality`. Matches the
/// [`ExportFn`](consent_crawler::archive::ExportFn) signature, so it
/// plugs straight into `BundleSpec::provider` and
/// `replay_campaign_bundle`. The timelines are built once for the three
/// renderers that read them.
pub fn standard_exports(state: &CampaignState, ctx: &ArchiveContext) -> Vec<(String, String)> {
    let timelines = build_timelines(&state.db, None);
    vec![
        ("timelines".to_string(), render_timelines(&timelines)),
        (
            "adoption".to_string(),
            render_adoption(&state.db, &timelines),
        ),
        ("shares".to_string(), render_shares(&timelines, ctx)),
        ("quality".to_string(), render_quality(&state.db)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_crawler::{build_toplist, run_campaign_parallel, CampaignConfig, ParallelOpts};
    use consent_crawler::{BreakerConfig, RetryPolicy};
    use consent_faultsim::FaultProfile;
    use consent_httpsim::Vantage;
    use consent_util::SeedTree;
    use consent_webgraph::{AdoptionConfig, World, WorldConfig};

    fn small() -> (CampaignState, ArchiveContext) {
        let world = World::new(WorldConfig {
            n_sites: 500,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 12, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud()];
        let seed = SeedTree::new(9);
        let config = CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        };
        let opts = ParallelOpts {
            threads: 1,
            config,
            max_pairs: None,
        };
        let run = run_campaign_parallel(&world, &list, day, &vantages, seed, &opts);
        let ctx = ArchiveContext::from_campaign(day, &list, &vantages, &seed);
        (run.state, ctx)
    }

    #[test]
    fn exports_are_deterministic() {
        let (state, ctx) = small();
        let a = standard_exports(&state, &ctx);
        let b = standard_exports(&state, &ctx);
        assert_eq!(a, b);
        assert_eq!(
            a.iter().map(|(l, _)| l.as_str()).collect::<Vec<_>>(),
            vec!["timelines", "adoption", "shares", "quality"]
        );
    }

    #[test]
    fn exports_survive_a_state_round_trip() {
        // The replay contract in miniature: re-importing the state
        // through the checkpoint text must not change a single byte of
        // any rendered document.
        let (state, ctx) = small();
        let back = CampaignState::import(&state.export()).unwrap();
        assert_eq!(
            standard_exports(&state, &ctx),
            standard_exports(&back, &ctx)
        );
    }

    #[test]
    fn quality_document_is_consistent() {
        let (state, ctx) = small();
        let doc = render_quality(&state.db);
        assert!(doc.starts_with("#consent-analysis-quality v1\n"));
        let total: u64 = doc
            .lines()
            .find_map(|l| l.strip_prefix("total="))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(total, state.pairs_done);
        let shares = render_shares(&build_timelines(&state.db, None), &ctx);
        assert!(shares.lines().count() > 2, "{shares}");
    }
}
