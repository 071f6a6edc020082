//! Data-quality and methodology statistics (§3.4–§3.5).
//!
//! Reproduces the paper's reliability numbers: the missing-data breakdown
//! of toplist domains never seen on social media, the share of domains
//! with bimodal daily CMP shares (99.8 %), and the redirect / dedup /
//! source-mix rates reported in §3.4.

use crate::interpolate::Timeline;
use consent_crawler::CaptureDb;
use consent_httpsim::CaptureStatus;
use consent_webgraph::{Reachability, World};
use std::collections::HashSet;

/// Missing-data breakdown over a toplist (§3.5 "Missing Data": of the
/// 1 076 Tranco-10k domains never shared on social media, 315 were
/// unreachable, 4 returned no valid HTTP, 70 an error status, 192
/// redirected elsewhere, and >90 % of the rest were infrastructure).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissingDataReport {
    /// Toplist domains considered.
    pub toplist_size: usize,
    /// Domains never observed in the social-media capture DB.
    pub never_shared: usize,
    /// … of which unreachable via HTTP/HTTPS.
    pub unreachable: usize,
    /// … of which returned no valid HTTP response.
    pub no_valid_http: usize,
    /// … of which returned an HTTP error status.
    pub http_error: usize,
    /// … of which redirect to another domain.
    pub redirects_elsewhere: usize,
    /// … of which are reachable infrastructure (CDNs etc.).
    pub infrastructure: usize,
}

impl MissingDataReport {
    /// The remainder: reachable, user-facing, yet never shared.
    pub fn unexplained(&self) -> usize {
        self.never_shared
            .saturating_sub(self.unreachable)
            .saturating_sub(self.no_valid_http)
            .saturating_sub(self.http_error)
            .saturating_sub(self.redirects_elsewhere)
            .saturating_sub(self.infrastructure)
    }
}

/// Compute the missing-data breakdown: which toplist domains never
/// appear in the social capture DB, and why (using ground truth for the
/// manual-inspection step the paper performed by hand).
pub fn missing_data_report(
    world: &World,
    toplist_domains: &[String],
    db: &CaptureDb,
) -> MissingDataReport {
    let seen: HashSet<&str> = db.iter().map(|(d, _)| d).collect();
    let mut report = MissingDataReport {
        toplist_size: toplist_domains.len(),
        ..MissingDataReport::default()
    };
    for domain in toplist_domains {
        if seen.contains(domain.as_str()) {
            continue;
        }
        report.never_shared += 1;
        let Some(profile) = world.site_by_host(domain) else {
            continue;
        };
        match profile.reachability {
            Reachability::Unreachable => report.unreachable += 1,
            Reachability::NoValidHttp => report.no_valid_http += 1,
            Reachability::HttpError => report.http_error += 1,
            Reachability::RedirectsTo(_) => report.redirects_elsewhere += 1,
            Reachability::Ok => {
                if profile.infrastructure {
                    report.infrastructure += 1;
                }
            }
        }
    }
    report
}

/// Capture-quality breakdown: every stored capture mapped onto the §3.5
/// quality columns. Degraded captures (timeout cut-offs and truncated
/// records) are *usable* — their partial content is analyzed — but the
/// paper requires them to be visible in the accounting rather than
/// silently pooled with clean loads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CaptureQualityReport {
    /// All captures in the database.
    pub total: u64,
    /// Clean loads.
    pub ok: u64,
    /// Loads cut off by the page timeout (degraded, usable).
    pub timeout: u64,
    /// Truncated capture records (degraded, usable).
    pub truncated: u64,
    /// Anti-bot interstitials.
    pub interstitial: u64,
    /// HTTP 451 geo-blocks.
    pub blocked_451: u64,
    /// HTTP error statuses from the origin.
    pub http_error: u64,
    /// TCP/TLS connection never established.
    pub connection_failed: u64,
    /// Connection reset mid-load (transient network fault).
    pub connection_reset: u64,
}

impl CaptureQualityReport {
    /// Captures with analyzable content (ok + degraded).
    pub fn usable(&self) -> u64 {
        self.ok + self.timeout + self.truncated
    }

    /// Usable-but-incomplete captures.
    pub fn degraded(&self) -> u64 {
        self.timeout + self.truncated
    }

    /// Share of captures with analyzable content.
    pub fn usable_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.usable() as f64 / self.total as f64
        }
    }

    /// Share of captures that are degraded.
    pub fn degraded_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.degraded() as f64 / self.total as f64
        }
    }
}

/// Tally every capture in the database into the §3.5 quality columns.
pub fn capture_quality(db: &CaptureDb) -> CaptureQualityReport {
    let mut report = CaptureQualityReport::default();
    for (_, history) in db.iter() {
        for c in history {
            report.total += 1;
            match c.status {
                CaptureStatus::Ok => report.ok += 1,
                CaptureStatus::Timeout => report.timeout += 1,
                CaptureStatus::Truncated => report.truncated += 1,
                CaptureStatus::AntiBotInterstitial => report.interstitial += 1,
                CaptureStatus::LegallyBlocked => report.blocked_451 += 1,
                CaptureStatus::HttpError => report.http_error += 1,
                CaptureStatus::ConnectionFailed => report.connection_failed += 1,
                CaptureStatus::ConnectionReset => report.connection_reset += 1,
            }
        }
    }
    report
}

/// Share of multi-observation domains whose daily CMP share is always
/// below 5 % or above 95 % (paper: 99.8 %).
pub fn bimodal_share(timelines: &[&Timeline]) -> f64 {
    let eligible: Vec<&&Timeline> = timelines
        .iter()
        .filter(|t| t.observed_days() >= 2)
        .collect();
    if eligible.is_empty() {
        return 1.0;
    }
    let bimodal = eligible.iter().filter(|t| t.share_is_bimodal()).count();
    bimodal as f64 / eligible.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::build_timelines;
    use consent_crawler::{build_toplist, FeedConfig, Platform};
    use consent_faultsim::FaultProfile;
    use consent_util::{Day, SeedTree};
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 20_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    #[test]
    fn missing_data_breakdown_shape() {
        let w = world();
        let toplist = build_toplist(&w, 2_000, SeedTree::new(7));
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let platform = Platform::with_faults(
                &w,
                FeedConfig {
                    urls_per_day: 2_000,
                    ..FeedConfig::default()
                },
                profile,
                SeedTree::new(3),
            );
            let start = Day::from_ymd(2020, 5, 1);
            let (db, _) = platform.run(start, start + 7);
            let report = missing_data_report(&w, &toplist, &db);
            assert_eq!(report.toplist_size, 2_000);
            assert!(report.never_shared > 0, "{profile}");
            // The explained categories must not exceed the never-shared total.
            assert!(
                report.unreachable
                    + report.no_valid_http
                    + report.http_error
                    + report.redirects_elsewhere
                    + report.infrastructure
                    <= report.never_shared,
                "{profile}"
            );
            // Unreachable and infrastructure domains can never be shared, so
            // they must all be in the never-shared set: expect ~3.15 % and
            // ~4.5 % of the toplist respectively (minus CMP adopters).
            assert!(
                report.unreachable >= 40,
                "unreachable {} ({profile})",
                report.unreachable
            );
            assert!(
                report.infrastructure >= 40,
                "infrastructure {} ({profile})",
                report.infrastructure
            );
            let _ = report.unexplained();
        }
    }

    #[test]
    fn capture_quality_reconciles_and_surfaces_degradation() {
        let w = world();
        let start = Day::from_ymd(2020, 5, 1);
        let config = FeedConfig {
            urls_per_day: 800,
            ..FeedConfig::default()
        };
        // Clean run: no injected faults, so no resets/truncations.
        let clean =
            Platform::with_faults(&w, config.clone(), FaultProfile::none(), SeedTree::new(3));
        let (db, stats) = clean.run(start, start + 3);
        let q = capture_quality(&db);
        assert_eq!(q.total, stats.captured);
        assert_eq!(
            q.ok + q.timeout
                + q.truncated
                + q.interstitial
                + q.blocked_451
                + q.http_error
                + q.connection_failed
                + q.connection_reset,
            q.total,
            "columns must partition the database"
        );
        assert_eq!(q.truncated + q.connection_reset, 0);
        assert_eq!(q.degraded(), 0);
        assert!(q.usable_rate() > 0.8, "usable rate {}", q.usable_rate());

        // Chaos run: injected faults must show up as degraded/reset
        // columns, and degraded captures must still be analyzable.
        let chaotic = Platform::with_faults(&w, config, FaultProfile::heavy(), SeedTree::new(3));
        let (chaos_db, chaos_stats) = chaotic.run(start, start + 3);
        let cq = capture_quality(&chaos_db);
        assert_eq!(cq.total, chaos_stats.captured);
        assert!(cq.degraded() > 0, "heavy profile produced no degradation");
        assert!(cq.connection_reset > 0);
        assert!(cq.degraded_rate() > 0.0 && cq.usable_rate() < q.usable_rate());
        // Degraded captures flow into timelines instead of vanishing.
        let timelines = build_timelines(&chaos_db, None);
        assert!(!timelines.is_empty());

        assert_eq!(capture_quality(&CaptureDb::new()).usable_rate(), 1.0);
        assert_eq!(capture_quality(&CaptureDb::new()).degraded_rate(), 0.0);
    }

    #[test]
    fn bimodality_near_total() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let platform = Platform::with_faults(
                &w,
                FeedConfig {
                    urls_per_day: 1_500,
                    ..FeedConfig::default()
                },
                profile,
                SeedTree::new(5),
            );
            let start = Day::from_ymd(2020, 5, 1);
            let (db, _) = platform.run(start, start + 10);
            let timelines = build_timelines(&db, None);
            let refs: Vec<&Timeline> = timelines.values().collect();
            let share = bimodal_share(&refs);
            assert!(
                share > 0.95,
                "bimodal share {share} (paper: 0.998) ({profile})"
            );
        }
        assert_eq!(bimodal_share(&[]), 1.0);
    }
}
