//! The `Study`: one configured reproduction of the paper.
//!
//! A `Study` owns a synthetic [`World`] and exposes one method per paper
//! table/figure (see [`crate::experiments`]). Everything is deterministic
//! in the root seed; `Study::quick()` shrinks the scale parameters for
//! tests and examples while `StudyConfig::default()` is the full
//! paper-scale configuration (`reproduce --full` runs it).

use consent_crawler::CampaignConfig;
use consent_faultsim::FaultProfile;
use consent_util::{date::known, Day, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};

/// Scale and seed parameters of a study.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Root seed; all randomness derives from it.
    pub seed: u64,
    /// Ranked sites in the synthetic web (paper: Tranco 1M).
    pub n_sites: u32,
    /// Toplist size for the Table 1 campaign (paper: 10 000).
    pub toplist_size: usize,
    /// Social-feed volume per day (the paper's 161M captures over 2.5
    /// years average far higher; this trades runtime for statistical
    /// resolution).
    pub feed_urls_per_day: usize,
    /// First day of the social-feed window.
    pub window_start: Day,
    /// Last day (exclusive) of the social-feed window.
    pub window_end: Day,
    /// Sites sampled per rank stratum for the Figure 5 census sweep.
    pub fig5_stratum_sample: u32,
    /// The chaos layer behind every capture of the Table 1 and Figure 6
    /// experiments. [`FaultProfile::none`] (the default) is
    /// byte-identical to the unwrapped engine.
    pub fault_profile: FaultProfile,
}

impl Default for StudyConfig {
    fn default() -> StudyConfig {
        StudyConfig {
            seed: 2020,
            n_sites: 1_000_000,
            toplist_size: 10_000,
            feed_urls_per_day: 1_000,
            window_start: known::observation_start(),
            window_end: known::observation_end(),
            fig5_stratum_sample: 2_000,
            fault_profile: FaultProfile::none(),
        }
    }
}

impl StudyConfig {
    /// A reduced configuration for fast tests and the examples;
    /// `tests/fixtures/paper_quick_v1.txt` pins what
    /// [`experiments::reproduce`](crate::experiments::reproduce) renders
    /// at this scale.
    pub fn quick() -> StudyConfig {
        StudyConfig {
            seed: 2020,
            n_sites: 50_000,
            toplist_size: 1_500,
            feed_urls_per_day: 400,
            window_start: Day::from_ymd(2019, 10, 1),
            window_end: Day::from_ymd(2020, 6, 1),
            fig5_stratum_sample: 400,
            fault_profile: FaultProfile::none(),
        }
    }
}

/// A configured study over one synthetic world.
pub struct Study {
    config: StudyConfig,
    world: World,
    seed: SeedTree,
}

impl Study {
    /// Create a study.
    pub fn new(config: StudyConfig) -> Study {
        let world = World::new(WorldConfig {
            n_sites: config.n_sites,
            seed: config.seed,
            adoption: AdoptionConfig::default(),
        });
        let seed = SeedTree::new(config.seed).child("study");
        Study {
            config,
            world,
            seed,
        }
    }

    /// A reduced-scale study for tests and examples.
    pub fn quick() -> Study {
        Study::new(StudyConfig::quick())
    }

    /// [`Study::quick`] fault-free, then under the mild profile: the
    /// two runs of every test whose statistics a fault could move.
    #[cfg(test)]
    pub(crate) fn quick_twins() -> impl Iterator<Item = Study> {
        [FaultProfile::none(), FaultProfile::mild()]
            .into_iter()
            .map(|fault_profile| {
                Study::new(StudyConfig {
                    fault_profile,
                    ..StudyConfig::quick()
                })
            })
    }

    /// The campaign behavior the study's experiments crawl with: the
    /// study's fault profile and the paper's retry and breaker policy.
    pub(crate) fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            fault_profile: self.config.fault_profile,
            ..CampaignConfig::default()
        }
    }

    /// The configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The synthetic web under measurement.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The study-level seed node.
    pub fn seed(&self) -> SeedTree {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_builds() {
        let s = Study::quick();
        assert_eq!(s.world().n_sites(), 50_000);
        assert_eq!(s.config().toplist_size, 1_500);
        assert!(s.config().window_start < s.config().window_end);
    }

    #[test]
    fn default_config_is_paper_scale() {
        let c = StudyConfig::default();
        assert_eq!(c.n_sites, 1_000_000);
        assert_eq!(c.toplist_size, 10_000);
        assert_eq!(c.window_start, Day::from_ymd(2018, 3, 1));
        assert_eq!(c.window_end, Day::from_ymd(2020, 9, 30));
    }

    #[test]
    fn same_seed_same_world() {
        let a = Study::new(StudyConfig::quick());
        let b = Study::new(StudyConfig::quick());
        assert_eq!(a.world().profile(42).domain, b.world().profile(42).domain);
        assert_eq!(a.seed(), b.seed());
    }
}
