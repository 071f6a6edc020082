//! Capture records — the schema the Netograph platform stores per crawl.
//!
//! §3.2: "For every capture, Netograph collects the following data points
//! … HTTP headers … for every domain in a capture, its relation to the
//! main page, all cookies … a screenshot of the visible area." The
//! analysis pipeline consumes only these records, never the synthetic web
//! directly, so the substitution boundary is exactly this module.

use crate::vantage::Vantage;
use consent_util::{Day, SimInstant};
use std::borrow::Cow;

/// One HTTP request observed during a page load.
///
/// The engine's constant requests borrow their strings: the tracker
/// hosts and their `/collect` URLs, the CMP hosts and their script and
/// configuration URLs, and the anti-bot challenge. Only first-party and
/// seed-URL requests own theirs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Full URL requested.
    pub url: Cow<'static, str>,
    /// Hostname component.
    pub host: Cow<'static, str>,
    /// Response status (0 if the request never completed).
    pub status: u16,
    /// Compressed transfer size in bytes.
    pub bytes: u64,
    /// When the request started, relative to navigation start.
    pub started: SimInstant,
    /// True if the host differs from the main document's eTLD+1.
    pub third_party: bool,
}

/// One cookie set during a page load. Names, third-party hosts and
/// constant values are borrowed, like [`RequestRecord`]'s strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CookieRecord {
    /// Cookie name.
    pub name: Cow<'static, str>,
    /// Host that set it.
    pub host: Cow<'static, str>,
    /// Value (consent cookies carry a TCF consent string).
    pub value: Cow<'static, str>,
    /// True if set by a third-party context.
    pub third_party: bool,
}

/// Why a capture ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureStatus {
    /// Page loaded normally (possibly cut short by the idle timeout).
    Ok,
    /// Total page timeout hit before the document finished.
    Timeout,
    /// An anti-bot CDN served an interstitial instead of the site.
    AntiBotInterstitial,
    /// HTTP 451 Unavailable For Legal Reasons (geo-blocked, §3.5).
    LegallyBlocked,
    /// HTTP error status from the origin.
    HttpError,
    /// TCP/TLS connection failed.
    ConnectionFailed,
    /// The connection was reset mid-load (transient network fault; the
    /// retry schedule of §3.2 exists for exactly this case).
    ConnectionReset,
    /// The capture is present but incomplete: a partial request log
    /// and/or a missing DOM snapshot. §3.5 requires these to be counted
    /// as degraded rather than silently analyzed as clean pages.
    Truncated,
}

impl CaptureStatus {
    /// Stable name for telemetry labels and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CaptureStatus::Ok => "Ok",
            CaptureStatus::Timeout => "Timeout",
            CaptureStatus::AntiBotInterstitial => "AntiBotInterstitial",
            CaptureStatus::LegallyBlocked => "LegallyBlocked",
            CaptureStatus::HttpError => "HttpError",
            CaptureStatus::ConnectionFailed => "ConnectionFailed",
            CaptureStatus::ConnectionReset => "ConnectionReset",
            CaptureStatus::Truncated => "Truncated",
        }
    }

    /// True if a capture with this status carries usable page content.
    pub fn usable(&self) -> bool {
        matches!(
            self,
            CaptureStatus::Ok | CaptureStatus::Timeout | CaptureStatus::Truncated
        )
    }

    /// True if the content is usable but incomplete (cut off or
    /// truncated): analyzed, but reported separately per §3.5.
    pub fn degraded(&self) -> bool {
        matches!(self, CaptureStatus::Timeout | CaptureStatus::Truncated)
    }
}

/// DOM-derived observations, stored only for toplist crawls from the EU
/// university vantage (§3.2: "we additionally stored the browser's DOM
/// tree including the computed CSS styles").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DomSnapshot {
    /// Visible text of the first (accept) dialog button, if any dialog.
    pub accept_button_text: Option<String>,
    /// Visible text of the second button/link, if present.
    pub secondary_button_text: Option<String>,
    /// CSS class fragments observed on the dialog container.
    pub dialog_css_classes: Vec<String>,
    /// Page body text excerpt (for GDPR-phrase search).
    pub body_text: String,
    /// A privacy-related link in the page footer, if present.
    pub footer_privacy_link: Option<String>,
}

/// One complete crawl of one URL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Capture {
    /// The URL submitted to the queue.
    pub seed_url: String,
    /// The final URL after redirects, as in the address bar.
    pub final_url: String,
    /// Hostname of `final_url`.
    pub final_host: String,
    /// Day the capture ran.
    pub day: Day,
    /// Crawl configuration.
    pub vantage: Vantage,
    /// Outcome.
    pub status: CaptureStatus,
    /// All requests, in start order.
    pub requests: Vec<RequestRecord>,
    /// All cookies present at the end of the load.
    pub cookies: Vec<CookieRecord>,
    /// Whether a consent dialog was visible in the screenshot.
    pub dialog_visible: bool,
    /// DOM snapshot (toplist EU-university crawls only).
    pub dom: Option<DomSnapshot>,
}

impl Capture {
    /// Hosts contacted during the load (deduplicated, order preserved).
    pub fn hosts(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.requests {
            if !seen.contains(&&*r.host) {
                seen.push(&*r.host);
            }
        }
        seen
    }

    /// True if any request went to `host`.
    pub fn contacted(&self, host: &str) -> bool {
        self.requests.iter().any(|r| r.host == host)
    }

    /// Total compressed bytes transferred.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.bytes).sum()
    }

    /// Number of third-party requests.
    pub fn third_party_requests(&self) -> usize {
        self.requests.iter().filter(|r| r.third_party).count()
    }

    /// True if the capture produced usable page content.
    pub fn usable(&self) -> bool {
        self.status.usable()
    }

    /// True if the capture is usable but incomplete: the load was cut
    /// off (timeout) or the record was truncated. Degraded captures are
    /// analyzed, but §3.5 accounting must report them separately.
    pub fn degraded(&self) -> bool {
        self.status.degraded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vantage::Vantage;

    fn req(host: &str, third_party: bool, bytes: u64) -> RequestRecord {
        RequestRecord {
            url: format!("https://{host}/x").into(),
            host: host.to_owned().into(),
            status: 200,
            bytes,
            started: SimInstant::ZERO,
            third_party,
        }
    }

    fn capture_with(requests: Vec<RequestRecord>) -> Capture {
        Capture {
            seed_url: "https://a.com/".into(),
            final_url: "https://a.com/".into(),
            final_host: "a.com".into(),
            day: Day::from_ymd(2020, 5, 15),
            vantage: Vantage::eu_cloud(),
            status: CaptureStatus::Ok,
            requests,
            cookies: vec![],
            dialog_visible: false,
            dom: None,
        }
    }

    #[test]
    fn host_dedup_and_queries() {
        let c = capture_with(vec![
            req("a.com", false, 1000),
            req("cdn.cookielaw.org", true, 300),
            req("a.com", false, 200),
        ]);
        assert_eq!(c.hosts(), ["a.com", "cdn.cookielaw.org"]);
        assert!(c.contacted("cdn.cookielaw.org"));
        assert!(!c.contacted("consent.trustarc.com"));
        assert_eq!(c.total_bytes(), 1500);
        assert_eq!(c.third_party_requests(), 1);
        assert!(c.usable());
    }

    #[test]
    fn unusable_statuses() {
        let mut c = capture_with(vec![]);
        for s in [
            CaptureStatus::AntiBotInterstitial,
            CaptureStatus::LegallyBlocked,
            CaptureStatus::HttpError,
            CaptureStatus::ConnectionFailed,
            CaptureStatus::ConnectionReset,
        ] {
            c.status = s;
            assert!(!c.usable(), "{s:?} should be unusable");
        }
        c.status = CaptureStatus::Timeout;
        assert!(c.usable());
        assert!(c.degraded());
        c.status = CaptureStatus::Truncated;
        assert!(c.usable());
        assert!(c.degraded());
        c.status = CaptureStatus::Ok;
        assert!(c.usable());
        assert!(!c.degraded());
    }
}
