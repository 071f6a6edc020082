//! The synthetic web: a lazily-generated universe of ranked sites.
//!
//! `World` is the single source of ground truth for the simulator. Every
//! site's identity, CMP trajectory, and behaviour are pure functions of
//! `(seed, rank)`, generated on first access and cached. A 1M-site world
//! therefore costs memory only for the sites actually visited.

use crate::adoption::{trajectory, AdoptionConfig, Trajectory};
use crate::cmp::Cmp;
use crate::site::{
    alias_domain_for, domain_for, rank_of_host, region_for, subsite_count, Rank, Region,
};
use crate::site_config::{behavior_for, SiteBehavior};
use consent_util::{Day, SeedTree};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Why a site is (not) reachable in toplist crawls (§3.5 "Missing Data").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reachability {
    /// Normal website.
    Ok,
    /// No HTTP/HTTPS service at all.
    Unreachable,
    /// TCP answers but no valid HTTP response.
    NoValidHttp,
    /// Responds with an HTTP error status.
    HttpError,
    /// Top-level redirect to another site (counted under the target).
    RedirectsTo(Rank),
}

/// Ground-truth profile of one site.
#[derive(Clone, Debug)]
pub struct SiteProfile {
    /// True popularity rank.
    pub rank: Rank,
    /// Canonical registrable domain.
    pub domain: String,
    /// Audience region.
    pub region: Region,
    /// CMP adoption history.
    pub trajectory: Trajectory,
    /// Behaviour of the embed; `Some` iff the site ever adopts a CMP.
    pub behavior: Option<SiteBehavior>,
    /// An alias domain 301-redirects to the canonical one.
    pub alias: Option<String>,
    /// Toplist-crawl reachability class.
    pub reachability: Reachability,
    /// True for internet infrastructure (CDNs etc.) that users never
    /// share on social media (§3.5: >90 % of never-shared toplist
    /// domains).
    pub infrastructure: bool,
    /// Number of subsite paths.
    pub subsites: u32,
}

impl SiteProfile {
    /// The CMP embedded on `day` (ground truth, before any measurement
    /// distortion).
    pub fn cmp_on(&self, day: Day) -> Option<Cmp> {
        self.trajectory.cmp_on(day)
    }

    /// True if the site can appear in the social-media feed.
    pub fn socially_visible(&self) -> bool {
        !self.infrastructure && matches!(self.reachability, Reachability::Ok)
    }
}

/// World-generation parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Number of ranked sites (the paper's Fig 5 spans the top 1M).
    pub n_sites: Rank,
    /// Root seed.
    pub seed: u64,
    /// Adoption-model parameters.
    pub adoption: AdoptionConfig,
}

impl Default for WorldConfig {
    fn default() -> WorldConfig {
        WorldConfig {
            n_sites: 1_000_000,
            seed: 0xC0_2020,
            adoption: AdoptionConfig::default(),
        }
    }
}

/// The lazily-generated synthetic web.
pub struct World {
    config: WorldConfig,
    root: SeedTree,
    cache: RwLock<HashMap<Rank, Arc<SiteProfile>>>,
}

impl World {
    /// Create a world. No sites are generated until queried.
    pub fn new(config: WorldConfig) -> World {
        let root = SeedTree::new(config.seed).child("world");
        World {
            config,
            root,
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Number of ranked sites.
    pub fn n_sites(&self) -> Rank {
        self.config.n_sites
    }

    /// The generation config.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Ground-truth profile for the site at `rank` (1-based). Panics if
    /// the rank is out of range.
    pub fn profile(&self, rank: Rank) -> Arc<SiteProfile> {
        assert!(
            rank >= 1 && rank <= self.config.n_sites,
            "rank {rank} out of range 1..={}",
            self.config.n_sites
        );
        if let Some(p) = self.cache.read().get(&rank) {
            return Arc::clone(p);
        }
        let p = Arc::new(self.generate(rank));
        self.cache
            .write()
            .entry(rank)
            .or_insert_with(|| Arc::clone(&p));
        p
    }

    /// Resolve any synthetic-web hostname to its site profile.
    pub fn site_by_host(&self, host: &str) -> Option<Arc<SiteProfile>> {
        let rank = rank_of_host(host)?;
        if rank >= 1 && rank <= self.config.n_sites {
            Some(self.profile(rank))
        } else {
            None
        }
    }

    fn generate(&self, rank: Rank) -> SiteProfile {
        let site_seed = self.root.child_idx(u64::from(rank));
        let traj = trajectory(rank, &self.config.adoption, site_seed);

        // Region: CMP customers inherit their brand's EU-TLD skew (§4.1);
        // the rest of the web uses the global mix.
        let eu_share = traj.segments.last().map_or(0.25, |s| s.cmp.eu_tld_share());
        let region = region_for(site_seed, eu_share);
        let domain = domain_for(rank, site_seed, region);

        let behavior = traj
            .segments
            .last()
            .map(|s| behavior_for(s.cmp, s.from, site_seed));

        let alias = (site_seed.child("alias").unit_f64() < 0.08)
            .then(|| alias_domain_for(rank).to_string());

        // §3.5 "Missing Data" rates over the Tranco 10k, applied globally.
        let reachability = {
            let u = site_seed.child("reach").unit_f64();
            if u < 0.0315 {
                Reachability::Unreachable
            } else if u < 0.0315 + 0.0004 {
                Reachability::NoValidHttp
            } else if u < 0.0315 + 0.0004 + 0.007 {
                Reachability::HttpError
            } else if u < 0.0315 + 0.0004 + 0.007 + 0.0192 {
                // Redirect target: a deterministic other site.
                let target = (u64::from(rank) * 7919 + 13) % u64::from(self.config.n_sites) + 1;
                Reachability::RedirectsTo(target as Rank)
            } else {
                Reachability::Ok
            }
        };
        // CMP adopters are real consumer sites, never infrastructure.
        let infrastructure = !traj.ever_adopts() && site_seed.child("infra").unit_f64() < 0.045;

        SiteProfile {
            rank,
            domain,
            region,
            trajectory: traj,
            behavior,
            alias,
            reachability,
            infrastructure,
            subsites: subsite_count(rank),
        }
    }

    /// Ground-truth CMP counts over the top `n` sites on `day` — the
    /// reference the measurement pipeline is validated against.
    pub fn true_cmp_counts(&self, n: Rank, day: Day) -> BTreeMap<Cmp, usize> {
        let mut counts = BTreeMap::new();
        for rank in 1..=n.min(self.config.n_sites) {
            if let Some(cmp) = self.profile(rank).cmp_on(day) {
                *counts.entry(cmp).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Number of cached profiles (for memory diagnostics in benches).
    pub fn cached_sites(&self) -> usize {
        self.cache.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        World::new(WorldConfig {
            n_sites: 20_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    #[test]
    fn profiles_deterministic_and_cached() {
        let w = small_world();
        let a = w.profile(123);
        let b = w.profile(123);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(w.cached_sites(), 1);
        // Regenerating in a fresh world gives the same profile.
        let w2 = small_world();
        let c = w2.profile(123);
        assert_eq!(a.domain, c.domain);
        assert_eq!(a.trajectory, c.trajectory);
        assert_eq!(a.reachability, c.reachability);
    }

    #[test]
    fn host_lookup_roundtrip() {
        let w = small_world();
        let p = w.profile(777);
        let found = w.site_by_host(&p.domain).unwrap();
        assert_eq!(found.rank, 777);
        let via_www = w.site_by_host(&format!("www.{}", p.domain)).unwrap();
        assert_eq!(via_www.rank, 777);
        assert!(w.site_by_host("cdn.cookielaw.org").is_none());
    }

    #[test]
    #[should_panic]
    fn out_of_range_rank_panics() {
        small_world().profile(30_000);
    }

    #[test]
    fn adopters_have_behavior_and_vice_versa() {
        let w = small_world();
        for rank in 1..=3_000 {
            let p = w.profile(rank);
            assert_eq!(p.trajectory.ever_adopts(), p.behavior.is_some());
            if p.trajectory.ever_adopts() {
                assert!(!p.infrastructure, "adopter marked infrastructure");
            }
        }
    }

    #[test]
    fn true_counts_shape() {
        let w = small_world();
        let day = Day::from_ymd(2020, 5, 15);
        let counts = w.true_cmp_counts(10_000, day);
        let total: usize = counts.values().sum();
        assert!((600..=1300).contains(&total), "top-10k total {total}");
        let onetrust = counts.get(&Cmp::OneTrust).copied().unwrap_or(0);
        let quantcast = counts.get(&Cmp::Quantcast).copied().unwrap_or(0);
        assert!(
            onetrust > quantcast,
            "OneTrust {onetrust} <= Quantcast {quantcast}"
        );
        // Early 2018: almost nothing.
        let early = w.true_cmp_counts(10_000, Day::from_ymd(2018, 2, 15));
        let early_total: usize = early.values().sum();
        assert!(early_total < 150, "early total {early_total}");
    }

    #[test]
    fn missing_data_rates_plausible() {
        let w = small_world();
        let mut unreachable = 0;
        let mut redirects = 0;
        let mut infra = 0;
        let n = 10_000;
        for rank in 1..=n {
            let p = w.profile(rank);
            match p.reachability {
                Reachability::Unreachable => unreachable += 1,
                Reachability::RedirectsTo(t) => {
                    redirects += 1;
                    assert!(t >= 1 && t <= w.n_sites());
                }
                _ => {}
            }
            if p.infrastructure {
                infra += 1;
                assert!(!p.socially_visible());
            }
        }
        // §3.5: 315 unreachable, 192 redirecting, ~450 infrastructure
        // out of 10k.
        assert!(
            (200..=450).contains(&unreachable),
            "unreachable {unreachable}"
        );
        assert!((100..=300).contains(&redirects), "redirects {redirects}");
        assert!((300..=650).contains(&infra), "infrastructure {infra}");
    }

    #[test]
    fn quantcast_customers_skew_eu() {
        let w = World::new(WorldConfig {
            n_sites: 60_000,
            seed: 9,
            adoption: AdoptionConfig::default(),
        });
        let day = Day::from_ymd(2020, 5, 15);
        let mut q_eu = 0;
        let mut q_total = 0;
        let mut o_eu = 0;
        let mut o_total = 0;
        for rank in 1..=60_000 {
            let p = w.profile(rank);
            match p.cmp_on(day) {
                Some(Cmp::Quantcast) => {
                    q_total += 1;
                    if p.region == Region::Eu {
                        q_eu += 1;
                    }
                }
                Some(Cmp::OneTrust) => {
                    o_total += 1;
                    if p.region == Region::Eu {
                        o_eu += 1;
                    }
                }
                _ => {}
            }
        }
        let q_share = q_eu as f64 / q_total.max(1) as f64;
        let o_share = o_eu as f64 / o_total.max(1) as f64;
        // §4.1: Quantcast 38.3 % EU+UK vs OneTrust 16.3 %.
        assert!(
            (q_share - 0.383).abs() < 0.07,
            "quantcast EU share {q_share}"
        );
        assert!(
            (o_share - 0.163).abs() < 0.05,
            "onetrust EU share {o_share}"
        );
    }
}
