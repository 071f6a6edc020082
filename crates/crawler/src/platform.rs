//! The end-to-end social-feed measurement platform (Figure 3).
//!
//! Feed → dedup queue → vantage assignment (50 % US cloud / 50 % EU
//! cloud, §3.2) → browser capture → CMP detection → capture database.
//! This is the pipeline behind the paper's 161M-capture dataset; ours is
//! volume-scaled by `FeedConfig::urls_per_day` but structurally
//! identical.
//!
//! # Who runs what
//!
//! Only two stages see URLs in order, and the calling thread runs both:
//! *admission* (the day's feed items, the dedup queue, the vantage draw
//! and the [`RunStats`]) and *insertion* into the [`CaptureDb`]. Each
//! capture in between is a pure function of `(url, day, vantage)`: the
//! fault plan is keyed by `(host, day, vantage, attempt)`. So capture →
//! CMP detection → [`CaptureSummary::of`] runs on the campaign
//! driver's streaming pool ([`parallel`](crate::parallel)), one day at
//! a time, on every crawling thread. The caller inserts each day's
//! rows in admission order, and admits the next day while the helpers
//! capture this one. The queue sees the same offers, the vantage RNG
//! draws once per admitted URL in admission order, and the rows are
//! inserted in that same order, so the database's bytes do not depend
//! on the thread count.

use crate::capture_db::{CaptureDb, CaptureSummary, CmpSet};
use crate::feed::{Feed, FeedConfig, FeedItem, FeedSource};
use crate::parallel::pool;
use crate::queue::{Admission, DedupQueue};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, Vantage};
use consent_psl::PublicSuffixList;
use consent_util::{Day, SeedTree};
use consent_webgraph::World;
use rand::Rng;
use std::thread;

/// Aggregate statistics of a platform run (§3.4 methodology numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunStats {
    /// URLs seen in the feed.
    pub submitted: u64,
    /// URLs skipped by deduplication (paper: ~40 %).
    pub skipped: u64,
    /// Captures performed.
    pub captured: u64,
    /// Captures assigned to the US cloud.
    pub us_captures: u64,
    /// Captures assigned to the EU cloud.
    pub eu_captures: u64,
    /// URLs from Twitter (paper: ~80 %).
    pub twitter_items: u64,
}

impl RunStats {
    /// Dedup skip rate.
    pub fn skip_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.skipped as f64 / self.submitted as f64
        }
    }

    /// Twitter share of feed items.
    pub fn twitter_share(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.twitter_items as f64 / self.submitted as f64
        }
    }
}

/// The measurement platform.
pub struct Platform<'w> {
    engine: FaultyEngine<'w>,
    feed: Feed<'w>,
    detector: Detector,
    psl: PublicSuffixList,
    seed: SeedTree,
}

impl<'w> Platform<'w> {
    /// Assemble the platform over a world with no injected faults:
    /// [`Platform::with_faults`] at [`FaultProfile::none`].
    pub fn new(world: &'w World, feed_config: FeedConfig, seed: SeedTree) -> Platform<'w> {
        Platform::with_faults(world, feed_config, FaultProfile::none(), seed)
    }

    /// Assemble the platform with an explicit fault profile.
    pub fn with_faults(
        world: &'w World,
        feed_config: FeedConfig,
        profile: FaultProfile,
        seed: SeedTree,
    ) -> Platform<'w> {
        Platform {
            engine: FaultyEngine::from_world(world, profile, seed),
            feed: Feed::new(world, feed_config, seed.child("feed")),
            detector: Detector::hostname_only(),
            psl: PublicSuffixList::embedded(),
            seed: seed.child("platform"),
        }
    }

    /// Run the pipeline over `[start, end)` on one crawling thread per
    /// available core, returning the capture database and run
    /// statistics. Neither depends on the core count.
    pub fn run(&self, start: Day, end: Day) -> (CaptureDb, RunStats) {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        self.run_on(start, end, threads)
    }

    /// [`run`](Self::run) on `threads` crawling threads, the caller
    /// included; `threads <= 1` spawns none and is the in-order
    /// reference.
    pub(crate) fn run_on(&self, start: Day, end: Day, threads: usize) -> (CaptureDb, RunStats) {
        let mut db = CaptureDb::new();
        let mut stats = RunStats::default();
        let mut queue = DedupQueue::new();
        let mut assign_rng = self.seed.child("assign").rng();
        let mut admit = |day: Day| {
            let mut admitted = Vec::new();
            for item in self.feed.day_items(day) {
                stats.submitted += 1;
                if item.source == FeedSource::Twitter {
                    stats.twitter_items += 1;
                }
                let ts = i64::from(day.0) * 86_400 + i64::from(item.seconds);
                if queue.offer(&item.url, ts) != Admission::Accepted {
                    stats.skipped += 1;
                    continue;
                }
                // §3.2: each URL is assigned randomly; 50 % of crawls
                // from the EU.
                let vantage = if assign_rng.gen::<bool>() {
                    stats.eu_captures += 1;
                    Vantage::eu_cloud()
                } else {
                    stats.us_captures += 1;
                    Vantage::us_cloud()
                };
                stats.captured += 1;
                admitted.push((item, vantage));
            }
            queue.compact(i64::from(day.0 + 1) * 86_400);
            admitted
        };
        let mut days = start.days_until(end);
        let mut next = days.next().map(&mut admit);
        while let Some(today) = next.take() {
            pool(
                0..today.len() as u64,
                threads,
                |i| self.capture(&today[i as usize]),
                |row| db.insert(row),
                || next = days.next().map(&mut admit),
            );
        }
        (db, stats)
    }

    /// Capture one admitted URL from its vantage, detect its CMPs and
    /// summarize it into its database row.
    fn capture(&self, (item, vantage): &(FeedItem, Vantage)) -> CaptureSummary<'static> {
        let capture = self
            .engine
            .capture(&item.url, item.day, *vantage, CaptureOptions::default());
        let cmps = CmpSet::from_iter(self.detector.detect(&capture));
        CaptureSummary::of(&capture, cmps, &self.psl)
    }
}

/// Every pipeline test runs fault-free and under the mild profile: the
/// paper's statistics must hold in both.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::export_db;
    use crate::parallel::BATCH;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 30_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn run_days(
        w: &World,
        profile: FaultProfile,
        urls_per_day: usize,
        start: Day,
        days: i32,
    ) -> (CaptureDb, RunStats) {
        let config = FeedConfig {
            urls_per_day,
            ..FeedConfig::default()
        };
        let platform = Platform::with_faults(w, config, profile, SeedTree::new(3));
        platform.run(start, start + days)
    }

    #[test]
    fn pipeline_produces_captures() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (db, stats) = run_days(&w, profile, 300, Day::from_ymd(2020, 5, 10), 3);
            assert!(
                stats.captured > 300,
                "captured {} ({profile})",
                stats.captured
            );
            assert_eq!(stats.captured, db.len());
            assert!(db.domain_count() > 100);
            // Twitter share ~80 %.
            assert!((stats.twitter_share() - 0.8).abs() < 0.05, "{profile}");
        }
    }

    #[test]
    fn dedup_skips_substantial_share() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            // High volume on a skewed feed → many duplicate head URLs/domains.
            let (_, stats) = run_days(&w, profile, 1_500, Day::from_ymd(2020, 5, 10), 3);
            let rate = stats.skip_rate();
            assert!(
                (0.25..0.60).contains(&rate),
                "skip rate {rate} (paper: ~0.40) ({profile})"
            );
        }
    }

    #[test]
    fn vantage_split_roughly_even() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (_, stats) = run_days(&w, profile, 500, Day::from_ymd(2020, 5, 10), 3);
            let eu_share = stats.eu_captures as f64 / stats.captured as f64;
            assert!(
                (eu_share - 0.5).abs() < 0.06,
                "eu share {eu_share} ({profile})"
            );
        }
    }

    #[test]
    fn redirect_rate_near_eleven_percent() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (db, _) = run_days(&w, profile, 800, Day::from_ymd(2020, 5, 10), 4);
            let rate = db.redirect_rate();
            assert!(
                (0.05..0.18).contains(&rate),
                "redirect rate {rate} (paper: ~0.11) ({profile})"
            );
        }
    }

    #[test]
    fn detects_cmps_in_the_stream() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (db, _) = run_days(&w, profile, 1_000, Day::from_ymd(2020, 5, 10), 4);
            let domains_with_cmp = db
                .iter()
                .filter(|(_, hist)| hist.iter().any(|c| !c.cmps.is_empty()))
                .count();
            assert!(
                domains_with_cmp > 20,
                "only {domains_with_cmp} CMP domains ({profile})"
            );
            // Multi-CMP pages are rare.
            assert!(
                db.multi_cmp_rate() < 0.005,
                "{} ({profile})",
                db.multi_cmp_rate()
            );
        }
    }

    #[test]
    fn run_is_byte_identical_at_any_thread_count() {
        let w = world();
        let start = Day::from_ymd(2020, 5, 10);
        // 200 URLs a day admit several 32-row batches a day; 0 admits
        // nothing on any day; 0 days is an empty range.
        for (urls_per_day, days) in [(200, 3), (0, 2), (200, 0)] {
            for profile in [FaultProfile::none(), FaultProfile::mild()] {
                let config = FeedConfig {
                    urls_per_day,
                    ..FeedConfig::default()
                };
                let platform = Platform::with_faults(&w, config, profile, SeedTree::new(3));
                let run = |threads| {
                    let (db, stats) = platform.run_on(start, start + days, threads);
                    (export_db(&db), stats)
                };
                let (bytes, stats) = run(1);
                let case = format!("{urls_per_day} URLs/day, {days} days ({profile})");
                if urls_per_day > 0 && days > 0 {
                    assert!(
                        stats.captured > 2 * BATCH * days as u64,
                        "{case}: {stats:?}"
                    );
                }
                for threads in [2, 3, 8] {
                    let (par_bytes, par_stats) = run(threads);
                    assert_eq!(par_stats, stats, "{case}: {threads} threads");
                    assert!(
                        par_bytes == bytes,
                        "{case}: export differs at {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let w = world();
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (db1, s1) = run_days(&w, profile, 200, Day::from_ymd(2019, 7, 1), 2);
            let (db2, s2) = run_days(&w, profile, 200, Day::from_ymd(2019, 7, 1), 2);
            assert_eq!(s1, s2, "{profile}");
            assert_eq!(db1.len(), db2.len());
            assert_eq!(db1.domain_count(), db2.domain_count());
            let d1: Vec<&str> = db1.iter().map(|(d, _)| d).collect();
            let d2: Vec<&str> = db2.iter().map(|(d, _)| d).collect();
            assert_eq!(d1, d2, "{profile}");
        }
    }
}
