//! Capture records — the schema the Netograph platform stores per crawl.
//!
//! §3.2: "For every capture, Netograph collects the following data points
//! … HTTP headers … for every domain in a capture, its relation to the
//! main page, all cookies … a screenshot of the visible area." The
//! analysis pipeline consumes only these records, never the synthetic web
//! directly, so the substitution boundary is exactly this module.
//!
//! A [`Capture`] owns its three strings (seed URL, final URL, final
//! host). Its request and cookie logs own none: a [`RequestRecord`] or
//! [`CookieRecord`] is a `Copy` value that *names* its strings — one of
//! the capture's own, a constant of the engine, or a first-party asset
//! by index — and readers render them through the capture's total
//! accessors, [`Capture::host`] and [`Capture::url`]. An asset URL is
//! formatted only when a reader asks for it.

use crate::engine::split_url;
use crate::vantage::Vantage;
use consent_util::{Day, SimInstant};
use std::borrow::Cow;
use std::fmt;

/// The host a request or cookie names, rendered by [`Capture::host`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Host {
    /// The host of the capture's seed URL (a redirect's first hop).
    Seed,
    /// The capture's final host.
    Final,
    /// A constant host: a tracker, a CMP or the anti-bot challenge.
    Static(&'static str),
}

/// The URL a request names, rendered by [`Capture::url`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Url {
    /// The capture's seed URL.
    Seed,
    /// The capture's final URL.
    Final,
    /// First-party asset `n`: `https://{final_host}/static/asset{n}.js`.
    Asset(u8),
    /// A constant URL: a tracker beacon, a CMP embed or the anti-bot
    /// challenge.
    Static(&'static str),
}

/// A cookie's value. [`fmt::Display`] renders it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CookieValue {
    /// A constant value, such as the consent marker's `1`.
    Static(&'static str),
    /// `prefix`, then `value` as `width` lowercase hex digits (zero
    /// padded).
    Hex {
        /// The leading character.
        prefix: char,
        /// The random part.
        value: u64,
        /// Hex digits, zero padded.
        width: u8,
    },
}

impl fmt::Display for CookieValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CookieValue::Static(s) => f.write_str(s),
            CookieValue::Hex {
                prefix,
                value,
                width,
            } => write!(f, "{prefix}{value:0width$x}", width = usize::from(width)),
        }
    }
}

/// One HTTP request observed during a page load. Its URL and host are
/// names, rendered by [`Capture::url`] and [`Capture::host`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestRecord {
    /// Full URL requested.
    pub url: Url,
    /// Hostname component.
    pub host: Host,
    /// Response status (0 if the request never completed).
    pub status: u16,
    /// Compressed transfer size in bytes.
    pub bytes: u64,
    /// When the request started, relative to navigation start.
    pub started: SimInstant,
    /// True if the host differs from the main document's eTLD+1.
    pub third_party: bool,
}

/// One cookie set during a page load. Its host is a name, rendered by
/// [`Capture::host`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CookieRecord {
    /// Cookie name.
    pub name: &'static str,
    /// Host that set it.
    pub host: Host,
    /// Value (consent cookies carry a TCF consent string).
    pub value: CookieValue,
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
///
/// Its seed URL, final URL and final host are the only strings it owns
/// (besides the DOM snapshot): the request and cookie logs name them,
/// and [`Capture::host`] and [`Capture::url`] render those names.
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
    /// The string `host` names in this capture.
    pub fn host(&self, host: &Host) -> &str {
        match *host {
            Host::Seed => split_url(&self.seed_url).0,
            Host::Final => &self.final_host,
            Host::Static(h) => h,
        }
    }

    /// The string `url` names in this capture: borrowed, except an
    /// asset URL, which is formatted here.
    pub fn url(&self, url: &Url) -> Cow<'_, str> {
        match *url {
            Url::Seed => Cow::Borrowed(&self.seed_url),
            Url::Final => Cow::Borrowed(&self.final_url),
            Url::Asset(n) => Cow::Owned(format!("https://{}/static/asset{n}.js", self.final_host)),
            Url::Static(u) => Cow::Borrowed(u),
        }
    }

    /// Hosts contacted during the load (deduplicated, order preserved).
    pub fn hosts(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.requests {
            let host = self.host(&r.host);
            if !seen.contains(&host) {
                seen.push(host);
            }
        }
        seen
    }

    /// True if any request went to `host`.
    pub fn contacted(&self, host: &str) -> bool {
        self.requests.iter().any(|r| self.host(&r.host) == host)
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

    fn req(url: Url, host: Host, third_party: bool, bytes: u64) -> RequestRecord {
        RequestRecord {
            url,
            host,
            status: 200,
            bytes,
            started: SimInstant::ZERO,
            third_party,
        }
    }

    fn capture_with(requests: Vec<RequestRecord>) -> Capture {
        Capture {
            seed_url: "https://a.com/".into(),
            final_url: "https://www.a.com/".into(),
            final_host: "www.a.com".into(),
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
            req(Url::Seed, Host::Seed, false, 320),
            req(Url::Final, Host::Final, false, 1000),
            req(
                Url::Static("https://cdn.cookielaw.org/consent.js"),
                Host::Static("cdn.cookielaw.org"),
                true,
                300,
            ),
            req(Url::Asset(0), Host::Final, false, 200),
        ]);
        assert_eq!(c.hosts(), ["a.com", "www.a.com", "cdn.cookielaw.org"]);
        assert!(c.contacted("a.com"));
        assert!(c.contacted("www.a.com"));
        assert!(c.contacted("cdn.cookielaw.org"));
        assert!(!c.contacted("consent.trustarc.com"));
        assert_eq!(c.total_bytes(), 1820);
        assert_eq!(c.third_party_requests(), 1);
        assert!(c.usable());
    }

    /// The strings an alias capture's records owned before they named
    /// them: a 301 from the alias, the final page and its assets, a
    /// tracker and its cookie.
    #[test]
    fn every_name_renders_the_string_it_stands_for() {
        let mut c = capture_with(Vec::new());
        c.seed_url = "https://ce-alt.net/".into();
        c.final_url = "https://www.ce.at/".into();
        c.final_host = "www.ce.at".into();

        assert_eq!(c.host(&Host::Seed), "ce-alt.net");
        assert_eq!(c.host(&Host::Final), "www.ce.at");
        let tracker = "pixel.adgrid.example";
        assert_eq!(c.host(&Host::Static(tracker)), "pixel.adgrid.example");

        assert_eq!(c.url(&Url::Seed), "https://ce-alt.net/");
        assert_eq!(c.url(&Url::Final), "https://www.ce.at/");
        assert_eq!(c.url(&Url::Asset(0)), "https://www.ce.at/static/asset0.js");
        assert_eq!(c.url(&Url::Asset(5)), "https://www.ce.at/static/asset5.js");
        let beacon = "https://pixel.adgrid.example/collect";
        assert_eq!(c.url(&Url::Static(beacon)), beacon);
        // Only an asset URL is formatted; the others are borrowed.
        for url in [Url::Seed, Url::Final, Url::Static(beacon)] {
            assert!(matches!(c.url(&url), Cow::Borrowed(_)), "{url:?}");
        }
        assert!(matches!(c.url(&Url::Asset(1)), Cow::Owned(_)));

        // A seed URL without a path still names its host.
        c.seed_url = "https://ce-alt.net".into();
        assert_eq!(c.host(&Host::Seed), "ce-alt.net");
    }

    #[test]
    fn cookie_values_render_as_zero_padded_hex() {
        let hex = |prefix, value, width| CookieValue::Hex {
            prefix,
            value,
            width,
        };
        assert_eq!(
            hex('s', 0x76ed_8f01_181a_1430, 16).to_string(),
            "s76ed8f01181a1430"
        );
        // Leading zero digits are kept: the value fills its width.
        assert_eq!(hex('u', 0x02c0_29a9_0685, 12).to_string(), "u02c029a90685");
        assert_eq!(hex('s', 0xbeef, 16).to_string(), "s000000000000beef");
        assert_eq!(hex('u', 0, 12).to_string(), "u000000000000");
        assert_eq!(CookieValue::Static("1").to_string(), "1");
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
