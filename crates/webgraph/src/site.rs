//! Site identity: domains, TLDs, regions, subsites.
//!
//! Every site in the synthetic web is identified by its true popularity
//! rank. Domain names are generated with a reversible syllable code so
//! that any component (crawler, fingerprints, analysis) can map a
//! hostname back to its rank without a 1M-entry table — the generator is
//! a bijection, not a lookup.

use consent_util::SeedTree;
use std::fmt;

/// A site's true popularity rank (1 = most popular).
pub type Rank = u32;

/// Geographic orientation of a site's audience and infrastructure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// EU + UK.
    Eu,
    /// United States.
    Us,
    /// Rest of world.
    Other,
}

/// Syllables encoding the digits 0–9 in domain names. All pairwise
/// prefix-free (consonant+vowel), so decoding is unambiguous.
const SYLLABLES: [&str; 10] = ["ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne"];

/// Encode a rank as a pronounceable label, e.g. `1234` → `"cedifogu"`
/// (formatted, e.g. with `to_string`).
pub fn rank_to_label(rank: Rank) -> RankLabel {
    RankLabel(rank)
}

/// A rank's label (see [`rank_to_label`]), formatted without allocating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLabel(Rank);

impl fmt::Display for RankLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal digits, least significant first.
        let mut digits = [0u8; 10];
        let (mut rest, mut n) = (self.0, 0);
        loop {
            digits[n] = (rest % 10) as u8;
            n += 1;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        digits[..n]
            .iter()
            .rev()
            .try_for_each(|&d| f.write_str(SYLLABLES[usize::from(d)]))
    }
}

/// Decode a label back to its rank; `None` if it is not a valid code.
/// Allocates nothing.
pub fn label_to_rank(label: &str) -> Option<Rank> {
    // A code starts with a nonzero digit: leading zeros do not
    // round-trip, and rank 0 does not exist.
    if label.is_empty() || label.len() % 2 != 0 || label.starts_with(SYLLABLES[0]) {
        return None;
    }
    let mut rank: u64 = 0;
    for chunk in label.as_bytes().chunks(2) {
        let digit = SYLLABLES.iter().position(|s| s.as_bytes() == chunk)? as u64;
        rank = rank * 10 + digit;
        if rank > u64::from(u32::MAX) {
            return None;
        }
    }
    Some(rank as Rank)
}

/// TLD pools per region.
const EU_TLDS: [&str; 10] = [
    "co.uk", "de", "fr", "nl", "es", "it", "pl", "se", "eu", "at",
];
const US_TLDS: [&str; 4] = ["com", "org", "net", "us"];
const OTHER_TLDS: [&str; 8] = ["com", "io", "co", "com.br", "co.jp", "in", "com.au", "ru"];

/// Deterministic region draw for a site, given the probability of an EU
/// region. (The caller biases `eu_share` by CMP brand, §4.1.)
pub fn region_for(site_seed: SeedTree, eu_share: f64) -> Region {
    let u = site_seed.child("region").unit_f64();
    if u < eu_share {
        Region::Eu
    } else if u < eu_share + (1.0 - eu_share) * 0.62 {
        Region::Us
    } else {
        Region::Other
    }
}

/// Deterministic TLD draw for a site of the given region.
pub fn tld_for(site_seed: SeedTree, region: Region) -> &'static str {
    let u = site_seed.child("tld").unit_f64();
    match region {
        Region::Eu => EU_TLDS[(u * EU_TLDS.len() as f64) as usize % EU_TLDS.len()],
        Region::Us => US_TLDS[(u * US_TLDS.len() as f64) as usize % US_TLDS.len()],
        Region::Other => OTHER_TLDS[(u * OTHER_TLDS.len() as f64) as usize % OTHER_TLDS.len()],
    }
}

/// True if `tld` belongs to the EU+UK pool (used for §4.1's EU-TLD-share
/// statistics).
pub fn is_eu_tld(tld: &str) -> bool {
    EU_TLDS.contains(&tld)
}

/// Share of sites hosted on a private-suffix platform (their registrable
/// domain is `label.github.io`-style).
pub const PRIVATE_SUFFIX_SHARE: f64 = 0.015;

/// Platforms used for private-suffix hosting.
const PLATFORMS: [&str; 4] = ["github.io", "blogspot.com", "wordpress.com", "netlify.app"];

/// The canonical registrable domain of the site at `rank`.
pub fn domain_for(rank: Rank, site_seed: SeedTree, region: Region) -> String {
    let label = rank_to_label(rank);
    let u = site_seed.child("hosting").unit_f64();
    if u < PRIVATE_SUFFIX_SHARE {
        let p = PLATFORMS[(site_seed.child("platform").unit_f64() * PLATFORMS.len() as f64)
            as usize
            % PLATFORMS.len()];
        format!("{label}.{p}")
    } else {
        format!("{label}.{}", tld_for(site_seed, region))
    }
}

/// Extract the rank from any hostname belonging to the synthetic web:
/// strips optional `www.` / subdomain labels and the alias suffix.
pub fn rank_of_host(host: &str) -> Option<Rank> {
    for label in host.split('.') {
        let core = label.strip_suffix("-alt").unwrap_or(label);
        if let Some(rank) = label_to_rank(core) {
            return Some(rank);
        }
    }
    None
}

/// Alias (redirecting) domain for sites that have one: a `-alt` twin on a
/// generic TLD, standing in for vanity/legacy domains and shorteners.
/// Formats (e.g. with `to_string`) as `<rank label>-alt.net`.
pub fn alias_domain_for(rank: Rank) -> AliasDomain {
    AliasDomain(rank)
}

/// The alias domain of a rank (see [`alias_domain_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AliasDomain(Rank);

impl fmt::Display for AliasDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-alt.net", rank_to_label(self.0))
    }
}

/// Number of distinct subsites (paths) a site exposes, heavy-tailed in
/// popularity: big sites have many shareable articles.
pub fn subsite_count(rank: Rank) -> u32 {
    match rank {
        0..=100 => 5_000,
        101..=1_000 => 1_000,
        1_001..=10_000 => 200,
        10_001..=100_000 => 40,
        _ => 8,
    }
}

/// Path of subsite `idx` for a site. Subsite 0 is the landing page; the
/// last index is always the privacy-policy page (which on some sites
/// embeds no external scripts at all, §3.5 "Subsites").
pub fn subsite_path(rank: Rank, idx: u32) -> SubsitePath {
    let n = subsite_count(rank);
    if idx == 0 {
        SubsitePath::Landing
    } else if idx >= n - 1 {
        SubsitePath::Privacy
    } else {
        SubsitePath::Article(idx)
    }
}

/// A subsite's path (see [`subsite_path`]), formatted as a URL path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubsitePath {
    /// `/`.
    Landing,
    /// `/article/<idx>`.
    Article(u32),
    /// `/privacy`.
    Privacy,
}

impl fmt::Display for SubsitePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubsitePath::Landing => f.write_str("/"),
            SubsitePath::Article(idx) => write!(f, "/article/{idx}"),
            SubsitePath::Privacy => f.write_str("/privacy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn label_roundtrip_examples() {
        assert_eq!(rank_to_label(1).to_string(), "ce");
        assert_eq!(rank_to_label(1234).to_string(), "cedifogu");
        assert_eq!(label_to_rank("cedifogu"), Some(1234));
        assert_eq!(label_to_rank("ce"), Some(1));
        assert_eq!(label_to_rank("ne"), Some(9));
        assert_eq!(label_to_rank("ceba"), Some(10));
    }

    #[test]
    fn label_rejects_invalid() {
        assert_eq!(label_to_rank(""), None);
        assert_eq!(label_to_rank("x"), None);
        assert_eq!(label_to_rank("bax"), None);
        assert_eq!(label_to_rank("zz"), None);
        // Leading zero ("ba" = 0 prefix) does not round-trip.
        assert_eq!(label_to_rank("bace"), None);
        assert_eq!(label_to_rank("ba"), None); // rank 0 invalid
    }

    #[test]
    fn host_rank_extraction() {
        let seed = SeedTree::new(1).child_idx(1234);
        let region = region_for(seed, 0.25);
        let domain = domain_for(1234, seed, region);
        assert_eq!(rank_of_host(&domain), Some(1234));
        assert_eq!(rank_of_host(&format!("www.{domain}")), Some(1234));
        assert_eq!(
            rank_of_host(&alias_domain_for(1234).to_string()),
            Some(1234)
        );
        assert_eq!(rank_of_host("cdn.cookielaw.org"), None);
        assert_eq!(rank_of_host("example.com"), None);
    }

    #[test]
    fn regions_cover_expected_mix() {
        let n = 20_000;
        let mut eu = 0;
        let mut us = 0;
        for i in 0..n {
            match region_for(SeedTree::new(5).child_idx(i), 0.25) {
                Region::Eu => eu += 1,
                Region::Us => us += 1,
                Region::Other => {}
            }
        }
        let eu_frac = eu as f64 / n as f64;
        let us_frac = us as f64 / n as f64;
        assert!((eu_frac - 0.25).abs() < 0.02, "eu {eu_frac}");
        assert!(us_frac > 0.4, "us {us_frac}");
    }

    #[test]
    fn eu_regions_get_eu_tlds() {
        for i in 0..500 {
            let seed = SeedTree::new(9).child_idx(i);
            assert!(is_eu_tld(tld_for(seed, Region::Eu)));
            assert!(!is_eu_tld(tld_for(seed, Region::Us)));
        }
    }

    #[test]
    fn some_sites_on_private_suffixes() {
        let mut platform_hosted = 0;
        let n = 20_000u32;
        for rank in 1..=n {
            let seed = SeedTree::new(3).child_idx(u64::from(rank));
            let d = domain_for(rank, seed, Region::Us);
            if d.ends_with("github.io")
                || d.ends_with("blogspot.com")
                || d.ends_with("wordpress.com")
                || d.ends_with("netlify.app")
            {
                platform_hosted += 1;
            }
        }
        let frac = f64::from(platform_hosted) / f64::from(n);
        assert!((frac - PRIVATE_SUFFIX_SHARE).abs() < 0.006, "frac {frac}");
    }

    #[test]
    fn subsites_shape() {
        assert_eq!(subsite_path(5, 0).to_string(), "/");
        assert_eq!(subsite_path(5, 1).to_string(), "/article/1");
        let n = subsite_count(5);
        assert_eq!(subsite_path(5, n - 1).to_string(), "/privacy");
        assert!(subsite_count(50) > subsite_count(5_000));
        assert!(subsite_count(5_000) > subsite_count(500_000));
    }

    proptest! {
        #[test]
        fn prop_label_roundtrip(rank in 1u32..=100_000_000) {
            prop_assert_eq!(label_to_rank(&rank_to_label(rank).to_string()), Some(rank));
        }

        #[test]
        fn prop_only_codes_decode(digits in 0u64..=9_999_999_999, zeros in 0usize..3) {
            // Any digit string, with up to two leading zeros, decodes iff
            // it is the code of a rank.
            let label: String = "0".repeat(zeros)
                .chars()
                .chain(digits.to_string().chars())
                .map(|d| SYLLABLES[d as usize - '0' as usize])
                .collect();
            let want = (zeros == 0 && digits > 0 && digits <= u64::from(u32::MAX))
                .then_some(digits as Rank);
            prop_assert_eq!(label_to_rank(&label), want, "{}", label);
        }

        #[test]
        fn prop_domain_embeds_rank(rank in 1u32..=1_000_000, salt: u64) {
            let seed = SeedTree::new(salt).child_idx(u64::from(rank));
            let region = region_for(seed, 0.3);
            let d = domain_for(rank, seed, region);
            prop_assert_eq!(rank_of_host(&d), Some(rank));
        }
    }
}
