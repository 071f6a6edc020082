//! The social-media URL feed seeding the crawlers.
//!
//! §3.4: Netograph ingests all URLs shared on Reddit and 1 % of public
//! tweets; Twitter accounts for 80 % of URLs, popular URLs get multiple
//! chances through resharing, and the sample "skews heavily towards
//! popular URLs". We model the feed as a Zipf process over socially
//! visible sites with per-site subsite selection and a share of
//! shortener/alias seed URLs that produce the paper's ~11 % top-level
//! redirect rate.

use consent_stats::Zipf;
use consent_util::{Day, SeedTree};
use consent_webgraph::{site, World};
use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Write;

/// Room for the longest feed URL, so that each is built in one
/// allocation: `https://` (8 bytes), a host of at most 34 (a 20-letter
/// rank label and `.wordpress.com`) and `/article/NNNN` (13).
const URL_CAPACITY: usize = 64;

/// Where a URL was spotted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeedSource {
    /// Twitter sample stream (~80 % of URLs).
    Twitter,
    /// Reddit firehose.
    Reddit,
}

/// One URL entering the capture queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeedItem {
    /// Submission time: day plus seconds within the day.
    pub day: Day,
    /// Seconds since midnight.
    pub seconds: u32,
    /// The shared URL.
    pub url: String,
    /// Source platform.
    pub source: FeedSource,
}

/// Feed-generation parameters.
#[derive(Clone, Debug)]
pub struct FeedConfig {
    /// URLs emitted per simulated day.
    pub urls_per_day: usize,
    /// Zipf exponent of the popularity skew (reshares + sampling).
    pub zipf_exponent: f64,
    /// Probability that the shared URL uses an alias/shortener domain
    /// rather than the canonical one (drives the 11 % redirect rate,
    /// together with toplist-level redirects).
    pub alias_share: f64,
    /// Twitter's share of items (§3.4: 80 %).
    pub twitter_share: f64,
}

impl Default for FeedConfig {
    fn default() -> FeedConfig {
        FeedConfig {
            urls_per_day: 2_000,
            zipf_exponent: 1.15,
            alias_share: 0.09,
            twitter_share: 0.80,
        }
    }
}

/// The feed generator.
pub struct Feed<'w> {
    world: &'w World,
    config: FeedConfig,
    zipf: Zipf,
    seed: SeedTree,
}

impl<'w> Feed<'w> {
    /// Create a feed over `world`.
    pub fn new(world: &'w World, config: FeedConfig, seed: SeedTree) -> Feed<'w> {
        let zipf = Zipf::new(u64::from(world.n_sites()), config.zipf_exponent);
        Feed {
            world,
            config,
            zipf,
            seed: seed.child("feed"),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FeedConfig {
        &self.config
    }

    /// Generate the feed items for one day, in submission-time order.
    pub fn day_items(&self, day: Day) -> Vec<FeedItem> {
        let _span = consent_telemetry::span("feed.day_items");
        let mut rng = self.seed.child_idx(day.0 as u64).rng();
        let mut items = Vec::with_capacity(self.config.urls_per_day);
        for _ in 0..self.config.urls_per_day {
            if let Some(item) = self.draw_item(day, &mut rng) {
                items.push(item);
            }
        }
        items.sort_by_key(|i| i.seconds);
        if consent_telemetry::enabled() {
            let twitter = items
                .iter()
                .filter(|i| i.source == FeedSource::Twitter)
                .count() as u64;
            consent_telemetry::count_labeled("feed.items", &[("source", "Twitter")], twitter);
            consent_telemetry::count_labeled(
                "feed.items",
                &[("source", "Reddit")],
                items.len() as u64 - twitter,
            );
            consent_telemetry::observe("feed.day_volume", items.len() as u64);
        }
        items
    }

    fn draw_item(&self, day: Day, rng: &mut StdRng) -> Option<FeedItem> {
        // Re-draw a few times if we land on a site users never share.
        for _ in 0..8 {
            let rank = self.zipf.sample(rng) as u32;
            let profile = self.world.profile(rank);
            if !profile.socially_visible() {
                continue;
            }
            // Subsite selection: landing pages are shared most, articles
            // follow a long tail.
            let idx = if rng.gen::<f64>() < 0.35 {
                0
            } else {
                rng.gen_range(0..profile.subsites)
            };
            let path = site::subsite_path(rank, idx);
            let mut url = String::with_capacity(URL_CAPACITY);
            // Writing to a `String` cannot fail.
            let _ = if rng.gen::<f64>() < self.config.alias_share {
                match &profile.alias {
                    Some(alias) => write!(url, "https://{alias}{path}"),
                    None => write!(url, "https://{}{path}", site::alias_domain_for(rank)),
                }
            } else {
                write!(url, "https://{}{path}", profile.domain)
            };
            let source = if rng.gen::<f64>() < self.config.twitter_share {
                FeedSource::Twitter
            } else {
                FeedSource::Reddit
            };
            return Some(FeedItem {
                day,
                seconds: rng.gen_range(0..86_400),
                url,
                source,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 50_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn feed(w: &World) -> Feed<'_> {
        Feed::new(w, FeedConfig::default(), SeedTree::new(5))
    }

    #[test]
    fn deterministic_per_day() {
        let w = world();
        let f = feed(&w);
        let d = Day::from_ymd(2019, 3, 3);
        assert_eq!(f.day_items(d), f.day_items(d));
        assert_ne!(f.day_items(d), f.day_items(d + 1));
    }

    #[test]
    fn emits_configured_volume() {
        let w = world();
        let f = feed(&w);
        let items = f.day_items(Day::from_ymd(2019, 3, 3));
        assert!(items.len() >= f.config().urls_per_day * 9 / 10);
        // Sorted by time-of-day.
        for pair in items.windows(2) {
            assert!(pair[0].seconds <= pair[1].seconds);
        }
    }

    #[test]
    fn twitter_share_near_eighty_percent() {
        let w = world();
        let f = feed(&w);
        let items = f.day_items(Day::from_ymd(2019, 6, 1));
        let twitter = items
            .iter()
            .filter(|i| i.source == FeedSource::Twitter)
            .count();
        let share = twitter as f64 / items.len() as f64;
        assert!((share - 0.80).abs() < 0.04, "twitter share {share}");
    }

    #[test]
    fn popularity_skew() {
        let w = world();
        let f = feed(&w);
        let mut head = 0usize;
        let mut total = 0usize;
        for d in 0..5 {
            for item in f.day_items(Day::from_ymd(2019, 6, 1) + d) {
                let (host, _) = consent_httpsim::split_url(&item.url);
                if let Some(rank) = site::rank_of_host(host) {
                    total += 1;
                    if rank <= 1_000 {
                        head += 1;
                    }
                }
            }
        }
        // Top 2 % of ranks should carry a large share of items.
        let share = head as f64 / total as f64;
        assert!(share > 0.3, "head share {share}");
    }

    #[test]
    fn some_urls_use_alias_domains() {
        let w = world();
        let f = feed(&w);
        let items = f.day_items(Day::from_ymd(2020, 1, 10));
        let aliased = items.iter().filter(|i| i.url.contains("-alt.")).count();
        let share = aliased as f64 / items.len() as f64;
        assert!((0.04..0.16).contains(&share), "alias share {share}");
    }

    #[test]
    fn subsites_are_sampled_not_just_landing_pages() {
        let w = world();
        let f = feed(&w);
        let items = f.day_items(Day::from_ymd(2020, 1, 10));
        let articles = items.iter().filter(|i| i.url.contains("/article/")).count();
        assert!(articles > items.len() / 4, "articles {articles}");
        let landings = items.iter().filter(|i| i.url.ends_with('/')).count();
        assert!(landings > items.len() / 5, "landings {landings}");
    }
}
