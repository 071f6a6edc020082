//! The capture queue with Netograph's deduplication rules.
//!
//! §3.4: "We skip a URL if we have captured the same domain in the last
//! hour or the precise URL in the last 48 hours. This applies to about
//! 40 % of all submitted URLs."

use consent_httpsim::split_url;
use consent_psl::PublicSuffixList;
use std::borrow::Cow;
use std::collections::HashMap;

/// Timestamp in seconds since the simulation epoch.
pub type Ts = i64;

/// Seconds in one hour / 48 hours.
const DOMAIN_WINDOW: Ts = 3_600;
const URL_WINDOW: Ts = 48 * 3_600;

/// Queue admission decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// URL accepted into the capture queue.
    Accepted,
    /// Skipped: same registrable domain captured within the last hour.
    SkippedDomain,
    /// Skipped: identical URL captured within the last 48 hours.
    SkippedUrl,
}

/// Dedup state over the submission stream.
pub struct DedupQueue {
    psl: PublicSuffixList,
    last_domain: HashMap<String, Ts>,
    last_url: HashMap<String, Ts>,
    accepted: u64,
    skipped_domain: u64,
    skipped_url: u64,
}

impl DedupQueue {
    /// Create an empty queue using the embedded PSL.
    pub fn new() -> DedupQueue {
        DedupQueue {
            psl: PublicSuffixList::embedded(),
            last_domain: HashMap::new(),
            last_url: HashMap::new(),
            accepted: 0,
            skipped_domain: 0,
            skipped_url: 0,
        }
    }

    /// Offer a URL at time `now`. Submissions must arrive in
    /// non-decreasing time order.
    pub fn offer(&mut self, url: &str, now: Ts) -> Admission {
        let decision = self.decide(url, now);
        if consent_telemetry::enabled() {
            let label = match decision {
                Admission::Accepted => "Accepted",
                Admission::SkippedDomain => "SkippedDomain",
                Admission::SkippedUrl => "SkippedUrl",
            };
            consent_telemetry::count_labeled("queue.offer", &[("decision", label)], 1);
            consent_telemetry::gauge_set("queue.tracked_urls", self.last_url.len() as i64);
        }
        decision
    }

    fn decide(&mut self, url: &str, now: Ts) -> Admission {
        if let Some(&t) = self.last_url.get(url) {
            if now - t < URL_WINDOW {
                self.skipped_url += 1;
                return Admission::SkippedUrl;
            }
        }
        let (host, _) = split_url(url);
        let domain = self
            .psl
            .registrable_domain(host)
            .unwrap_or(Cow::Borrowed(host));
        if let Some(&t) = self.last_domain.get(&*domain) {
            if now - t < DOMAIN_WINDOW {
                self.skipped_domain += 1;
                return Admission::SkippedDomain;
            }
        }
        stamp(&mut self.last_url, url, now);
        stamp(&mut self.last_domain, &domain, now);
        self.accepted += 1;
        Admission::Accepted
    }

    /// Accepted count.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total skipped (both rules).
    pub fn skipped(&self) -> u64 {
        self.skipped_domain + self.skipped_url
    }

    /// Fraction of submissions skipped (the paper reports ~40 %).
    pub fn skip_rate(&self) -> f64 {
        let total = self.accepted + self.skipped();
        if total == 0 {
            0.0
        } else {
            self.skipped() as f64 / total as f64
        }
    }

    /// Evict state older than the larger window to bound memory during
    /// multi-year runs.
    pub fn compact(&mut self, now: Ts) {
        self.last_url.retain(|_, &mut t| now - t < URL_WINDOW);
        self.last_domain.retain(|_, &mut t| now - t < DOMAIN_WINDOW);
    }
}

/// Record `key` at `now`, copying it only when it is new.
fn stamp(seen: &mut HashMap<String, Ts>, key: &str, now: Ts) {
    match seen.get_mut(key) {
        Some(t) => *t = now,
        None => {
            seen.insert(key.to_owned(), now);
        }
    }
}

impl Default for DedupQueue {
    fn default() -> DedupQueue {
        DedupQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_dedup_48_hours() {
        let mut q = DedupQueue::new();
        assert_eq!(q.offer("https://a.com/x", 0), Admission::Accepted);
        assert_eq!(q.offer("https://a.com/x", 1_000), Admission::SkippedUrl);
        assert_eq!(
            q.offer("https://a.com/x", URL_WINDOW - 1),
            Admission::SkippedUrl
        );
        assert_eq!(q.offer("https://a.com/x", URL_WINDOW), Admission::Accepted);
    }

    #[test]
    fn domain_dedup_one_hour() {
        let mut q = DedupQueue::new();
        assert_eq!(q.offer("https://a.com/x", 0), Admission::Accepted);
        // Different URL, same domain, within the hour.
        assert_eq!(q.offer("https://a.com/y", 30), Admission::SkippedDomain);
        // Subdomain of the same registrable domain is also deduplicated.
        assert_eq!(
            q.offer("https://www.a.com/z", 100),
            Admission::SkippedDomain
        );
        // After an hour, a new URL on the domain is fine.
        assert_eq!(q.offer("https://a.com/y", 3_601), Admission::Accepted);
    }

    #[test]
    fn different_domains_independent() {
        let mut q = DedupQueue::new();
        assert_eq!(q.offer("https://a.com/", 0), Admission::Accepted);
        assert_eq!(q.offer("https://b.com/", 1), Admission::Accepted);
        // Private-suffix domains count separately.
        assert_eq!(q.offer("https://x.github.io/", 2), Admission::Accepted);
        assert_eq!(q.offer("https://y.github.io/", 3), Admission::Accepted);
        assert_eq!(
            q.offer("https://x.github.io/p", 4),
            Admission::SkippedDomain
        );
    }

    #[test]
    fn statistics() {
        let mut q = DedupQueue::new();
        q.offer("https://a.com/", 0);
        q.offer("https://a.com/", 1);
        q.offer("https://a.com/b", 2);
        q.offer("https://c.com/", 3);
        assert_eq!(q.accepted(), 2);
        assert_eq!(q.skipped(), 2);
        assert!((q.skip_rate() - 0.5).abs() < 1e-9);
        assert_eq!(DedupQueue::new().skip_rate(), 0.0);
    }

    #[test]
    fn compaction_preserves_semantics() {
        let mut q = DedupQueue::new();
        q.offer("https://a.com/x", 0);
        q.compact(URL_WINDOW + 10);
        // Old entries evicted: the same URL is admissible again.
        assert_eq!(
            q.offer("https://a.com/x", URL_WINDOW + 20),
            Admission::Accepted
        );
    }
}
