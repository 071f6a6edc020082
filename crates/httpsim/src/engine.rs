//! The page-load engine: turns (URL, day, vantage) into a [`Capture`].
//!
//! This is the simulator's stand-in for Google Chrome + Netograph
//! instrumentation. It is event-driven in simulated time: requests are
//! scheduled on a millisecond timeline, the idle/total timeouts of §3.5
//! cut the timeline off, and whatever requests fall inside the window
//! become the capture record. All Table 1 distortions arise here
//! mechanically — geo gating, anti-bot interstitials, and late-loading
//! CMP scripts that the aggressive timeout misses.

use crate::capture::{
    Capture, CaptureStatus, CookieRecord, CookieValue, DomSnapshot, Host, RequestRecord, Url,
};
use crate::vantage::{Timing, Vantage};
use consent_util::{Day, SeedTree, SimInstant};
use consent_webgraph::{
    AcceptWording, Cmp, DialogStyle, GeoBehavior, Reachability, SiteProfile, World,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Idle timeout under aggressive timing (§3.5: five seconds).
pub const IDLE_TIMEOUT_MS: u64 = 5_000;
/// Total page timeout (§3.5: 45 seconds).
pub const TOTAL_TIMEOUT_MS: u64 = 45_000;

/// The capture engine for one synthetic world.
pub struct Engine<'w> {
    world: &'w World,
    seed: SeedTree,
}

/// Options for a single capture.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaptureOptions {
    /// Store a DOM snapshot (toplist crawls from the EU university).
    pub collect_dom: bool,
}

impl<'w> Engine<'w> {
    /// Create an engine over `world`. The seed isolates crawl-level
    /// randomness (request timings, asset counts) from world generation.
    pub fn new(world: &'w World, seed: SeedTree) -> Engine<'w> {
        Engine {
            world,
            seed: seed.child("httpsim"),
        }
    }

    /// The world under measurement.
    pub fn world(&self) -> &World {
        self.world
    }

    /// Crawl one URL.
    pub fn capture(&self, url: &str, day: Day, vantage: Vantage, opts: CaptureOptions) -> Capture {
        let _span = consent_telemetry::span("engine.capture");
        let _trace_span = consent_trace::span("page_load", |a| {
            a.push("url", url);
            a.push("vantage", vantage.label());
        });
        let capture = self.capture_inner(url, day, vantage, opts);
        if consent_trace::active() {
            // Per-request events are the hot loop of a traced capture;
            // the whole block is gated so a disabled (or trace-less) run
            // never iterates the request log here.
            for r in &capture.requests {
                consent_trace::event("request", |a| {
                    a.push("host", capture.host(&r.host));
                    a.push("status", r.status);
                    a.push("ms", r.started.as_millis());
                    if r.third_party {
                        a.push("third_party", "1");
                    }
                });
            }
            if capture.final_host != split_url(url).0 {
                consent_trace::event("redirect", |a| {
                    a.push("to", &capture.final_host);
                });
            }
            consent_trace::event("page_load.status", |a| {
                a.push("status", capture.status.name());
                a.push("requests", capture.requests.len());
                a.push("bytes", capture.total_bytes());
            });
        }
        if consent_telemetry::enabled() {
            consent_telemetry::count_labeled(
                "engine.capture.outcome",
                &[
                    ("vantage", vantage.label()),
                    ("status", capture.status.name()),
                ],
                1,
            );
            consent_telemetry::observe("engine.capture.requests", capture.requests.len() as u64);
            consent_telemetry::observe("engine.capture.bytes", capture.total_bytes());
            // Simulated page-load time vs. the wall time the span records.
            let sim_ms = capture
                .requests
                .iter()
                .map(|r| r.started.as_millis())
                .max()
                .unwrap_or(0);
            consent_telemetry::observe("engine.capture.sim_ms", sim_ms);
        }
        capture
    }

    fn capture_inner(
        &self,
        url: &str,
        day: Day,
        vantage: Vantage,
        opts: CaptureOptions,
    ) -> Capture {
        let (host, path) = split_url(url);
        let mut rng = self
            .seed
            .child(url)
            .child_idx(day.0 as u64)
            .child(vantage.label())
            .rng();
        let unloaded = |status| failed(url, url.to_owned(), host.to_owned(), day, vantage, status);

        let Some(profile) = self.world.site_by_host(host) else {
            return unloaded(CaptureStatus::ConnectionFailed);
        };

        // Alias domains 301 to the canonical site; toplist-level redirects
        // land on another site entirely.
        let (profile, redirected) = match profile.reachability {
            Reachability::Unreachable | Reachability::NoValidHttp => {
                return unloaded(CaptureStatus::ConnectionFailed)
            }
            Reachability::HttpError => return unloaded(CaptureStatus::HttpError),
            Reachability::RedirectsTo(target) => (self.world.profile(target), true),
            Reachability::Ok => {
                let is_alias = profile.alias.as_deref().is_some_and(|a| {
                    host.strip_suffix(a)
                        .is_some_and(|sub| sub.is_empty() || sub.ends_with('.'))
                });
                (Arc::clone(&profile), is_alias)
            }
        };

        let final_host = ["www.", &profile.domain].concat();
        let final_url = ["https://", &final_host, path].concat();

        // HTTP 451 to EU visitors (§3.5).
        if profile
            .behavior
            .as_ref()
            .is_some_and(|b| b.geo == GeoBehavior::Block451Eu)
            && vantage.location.appears_eu()
        {
            let blocked = RequestRecord {
                url: Url::Final,
                host: Host::Final,
                status: 451,
                bytes: 512,
                started: SimInstant::ZERO,
                third_party: false,
            };
            let mut c = failed(
                url,
                final_url,
                final_host,
                day,
                vantage,
                CaptureStatus::LegallyBlocked,
            );
            c.requests.push(blocked);
            return c;
        }

        // Anti-bot CDN interstitial for cloud crawlers (§3.5).
        if profile.behavior.as_ref().is_some_and(|b| b.anti_bot_cdn) && vantage.location.is_cloud()
        {
            let refused = RequestRecord {
                url: Url::Final,
                host: Host::Final,
                status: 403,
                bytes: 2_048,
                started: SimInstant::ZERO,
                third_party: false,
            };
            let mut c = failed(
                url,
                final_url,
                final_host,
                day,
                vantage,
                CaptureStatus::AntiBotInterstitial,
            );
            c.requests.push(refused);
            c.requests.push(RequestRecord {
                url: Url::Static("https://challenge.cdn-shield.net/turnstile"),
                host: Host::Static("challenge.cdn-shield.net"),
                status: 200,
                bytes: 12_288,
                started: SimInstant::from_millis(120),
                third_party: true,
            });
            return c;
        }

        self.load_page(
            url, &profile, redirected, final_host, final_url, path, day, vantage, opts, &mut rng,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn load_page(
        &self,
        seed_url: &str,
        profile: &SiteProfile,
        redirected: bool,
        final_host: String,
        final_url: String,
        path: &str,
        day: Day,
        vantage: Vantage,
        opts: CaptureOptions,
        rng: &mut StdRng,
    ) -> Capture {
        let cutoff = match vantage.timing {
            Timing::Aggressive => IDLE_TIMEOUT_MS,
            Timing::Extended => TOTAL_TIMEOUT_MS,
        };
        let mut requests = Vec::new();
        let mut cookies = Vec::new();

        if redirected {
            requests.push(RequestRecord {
                url: Url::Seed,
                host: Host::Seed,
                status: 301,
                bytes: 320,
                started: SimInstant::ZERO,
                third_party: false,
            });
        }
        requests.push(RequestRecord {
            url: Url::Final,
            host: Host::Final,
            status: 200,
            bytes: rng.gen_range(8_000..60_000),
            started: SimInstant::from_millis(if redirected { 180 } else { 0 }),
            third_party: false,
        });
        cookies.push(CookieRecord {
            name: "session",
            host: Host::Final,
            value: CookieValue::Hex {
                prefix: 's',
                value: rng.gen::<u64>(),
                width: 16,
            },
            third_party: false,
        });

        // First-party assets. The count is drawn as an `i32`: the draw's
        // type is part of the RNG stream, which every later draw follows.
        let n_assets: i32 = rng.gen_range(2..8);
        for i in 0..n_assets as u8 {
            requests.push(RequestRecord {
                url: Url::Asset(i),
                host: Host::Final,
                status: 200,
                bytes: rng.gen_range(1_000..40_000),
                started: SimInstant::from_millis(rng.gen_range(100..1_500)),
                third_party: false,
            });
        }

        // The privacy-policy subsite on some sites carries no external
        // scripts at all (§3.5 "Subsites").
        let bare_page = path == "/privacy"
            && profile
                .behavior
                .as_ref()
                .is_some_and(|b| b.bare_privacy_page);

        // Third-party trackers/ads, skewed bigger for popular sites.
        if !bare_page {
            let n_third = match profile.rank {
                0..=1_000 => rng.gen_range(4..14),
                1_001..=100_000 => rng.gen_range(2..9),
                _ => rng.gen_range(0..5),
            };
            for _ in 0..n_third {
                let (host, url) = THIRD_PARTY_POOL[rng.gen_range(0..THIRD_PARTY_POOL.len())];
                requests.push(RequestRecord {
                    url: Url::Static(url),
                    host: Host::Static(host),
                    status: 200,
                    bytes: rng.gen_range(200..8_000),
                    started: SimInstant::from_millis(rng.gen_range(300..4_000)),
                    third_party: true,
                });
                if rng.gen::<f64>() < 0.5 {
                    cookies.push(CookieRecord {
                        name: "uid",
                        host: Host::Static(host),
                        value: CookieValue::Hex {
                            prefix: 'u',
                            value: rng.gen::<u64>() & 0xFFFF_FFFF_FFFF,
                            width: 12,
                        },
                        third_party: true,
                    });
                }
            }
        }

        // The CMP embed.
        let cmp_now = profile.cmp_on(day);
        let mut dialog_visible = false;
        let mut visible_cmp = None;
        if let (Some(cmp), Some(behavior), false) = (cmp_now, profile.behavior.as_ref(), bare_page)
        {
            let embeds_here = match behavior.geo {
                GeoBehavior::EmbedAlways => true,
                // EU-only embeds become globally visible once the site
                // adapts to CCPA (§3.5: US coverage grows Jan→May 2020).
                GeoBehavior::EmbedOnlyEu => {
                    vantage.location.appears_eu() || behavior.ccpa_adapted.is_some_and(|d| d <= day)
                }
                GeoBehavior::HideFromEu => !vantage.location.appears_eu(),
                GeoBehavior::Block451Eu => true, // handled earlier for EU
            };
            let start_ms = if behavior.slow_load {
                rng.gen_range(6_000..12_000)
            } else {
                rng.gen_range(400..2_200)
            };
            if embeds_here && start_ms < cutoff {
                push_cmp_requests(&mut requests, cmp, start_ms, rng);
                visible_cmp = Some(cmp);
                if let Some(second) = behavior.second_cmp {
                    push_cmp_requests(&mut requests, second, start_ms + 150, rng);
                }
                // Dialog visibility: GDPR products show dialogs to EU
                // visitors; CCPA-tailored configurations show them in the
                // US instead.
                dialog_visible = if vantage.location.appears_eu() {
                    behavior.geo != GeoBehavior::HideFromEu
                } else {
                    behavior.geo == GeoBehavior::HideFromEu
                        || behavior.geo == GeoBehavior::EmbedAlways
                            && matches!(
                                behavior.dialog,
                                DialogStyle::OptOutButtonBanner { .. }
                                    | DialogStyle::FooterLinkOnly
                            )
                };
                if dialog_visible {
                    // A fresh crawler never has a stored decision, so no
                    // consent cookie — but the CMP sets a "seen" marker.
                    cookies.push(CookieRecord {
                        name: "euconsent-seen",
                        host: Host::Static(cmp.indicator_hostname()),
                        value: CookieValue::Static("1"),
                        third_party: true,
                    });
                }
            }
        }

        // Trim to the timeout window and sort by start time.
        requests.retain(|r| r.started.as_millis() < cutoff);
        requests.sort_by_key(|r| r.started);

        let dom = opts
            .collect_dom
            .then(|| dom_snapshot(profile, visible_cmp, dialog_visible, rng));

        Capture {
            seed_url: seed_url.to_owned(),
            final_url,
            final_host,
            day,
            vantage,
            status: CaptureStatus::Ok,
            requests,
            cookies,
            dialog_visible,
            dom,
        }
    }
}

/// Each tracker host with the URL of its `/collect` beacon.
macro_rules! trackers {
    ($($host:literal),* $(,)?) => {
        [$(($host, concat!("https://", $host, "/collect"))),*]
    };
}

/// Stable pool of synthetic third-party tracker hosts, each with its
/// beacon URL.
const THIRD_PARTY_POOL: [(&str, &str); 12] = trackers![
    "metrics.analytico.net",
    "pixel.adgrid.example",
    "sync.cohortworks.example",
    "tags.primeserve.example",
    "cdn.fontlib.example",
    "beacon.reachmob.example",
    "ads.vertexlab.example",
    "rtb.sparkmedia.example",
    "id.deltagraph.example",
    "stats.atlassense.example",
    "img.kilopix.example",
    "api.signalscope.example",
];

fn push_cmp_requests(requests: &mut Vec<RequestRecord>, cmp: Cmp, start_ms: u64, rng: &mut StdRng) {
    let host = Host::Static(cmp.indicator_hostname());
    let [script, config] = cmp.embed_urls();
    requests.push(RequestRecord {
        url: Url::Static(script),
        host,
        status: 200,
        bytes: rng.gen_range(20_000..90_000),
        started: SimInstant::from_millis(start_ms),
        third_party: true,
    });
    requests.push(RequestRecord {
        url: Url::Static(config),
        host,
        status: 200,
        bytes: rng.gen_range(2_000..9_000),
        started: SimInstant::from_millis(start_ms + rng.gen_range(50..400)),
        third_party: true,
    });
}

fn dom_snapshot(
    profile: &SiteProfile,
    cmp: Option<Cmp>,
    dialog_visible: bool,
    rng: &mut StdRng,
) -> DomSnapshot {
    let Some(behavior) = profile.behavior.as_ref().filter(|_| cmp.is_some()) else {
        return DomSnapshot {
            accept_button_text: None,
            secondary_button_text: None,
            dialog_css_classes: Vec::new(),
            body_text: format!("Welcome to {}. Latest articles below.", profile.domain),
            footer_privacy_link: Some("Privacy Policy".into()),
        };
    };
    let accept = if dialog_visible {
        Some(match behavior.wording {
            AcceptWording::AgreeVariant => {
                const VARIANTS: [&str; 4] = ["I ACCEPT", "I agree", "Accept all", "I consent"];
                VARIANTS[rng.gen_range(0..VARIANTS.len())].to_owned()
            }
            AcceptWording::FreeForm => {
                const VARIANTS: [&str; 3] = ["Whatever", "Sounds good", "Accept and move on"];
                VARIANTS[rng.gen_range(0..VARIANTS.len())].to_owned()
            }
        })
    } else {
        None
    };
    let secondary = dialog_visible.then(|| secondary_text(behavior.dialog).to_owned());
    let footer = match behavior.dialog {
        DialogStyle::FooterLinkOnly => {
            const LINKS: [&str; 3] = ["Do Not Sell", "California Privacy Rights", "Privacy Policy"];
            Some(LINKS[rng.gen_range(0..LINKS.len())].to_owned())
        }
        _ => Some("Privacy Policy".to_owned()),
    };
    let body = if dialog_visible {
        "We value your privacy. We and our partners use technologies, such as cookies, \
         and process personal data. Click below to consent."
            .to_owned()
    } else {
        format!("Welcome to {}. Latest articles below.", profile.domain)
    };
    DomSnapshot {
        accept_button_text: accept,
        secondary_button_text: secondary,
        dialog_css_classes: css_classes(cmp.expect("behavior implies cmp"), behavior.dialog),
        body_text: body,
        footer_privacy_link: footer,
    }
}

fn secondary_text(style: DialogStyle) -> &'static str {
    match style {
        DialogStyle::ConventionalBanner => "Cookie Settings",
        DialogStyle::OptOutButtonBanner { needs_confirm: _ } => "Do Not Sell",
        DialogStyle::ScriptBanner => "Reject/Manage Scripts",
        DialogStyle::FooterLinkOnly => "",
        DialogStyle::DirectReject => "I DO NOT ACCEPT",
        DialogStyle::MoreOptions => "MORE OPTIONS",
        DialogStyle::InstantOptOut => "Decline All",
        DialogStyle::MultiPartnerOptOut => "Opt out of all",
        DialogStyle::AutonomyButton => "Manage Preferences",
        DialogStyle::NoControlLink => "Learn more",
        DialogStyle::CustomApiOnly => "Options",
    }
}

fn css_classes(cmp: Cmp, style: DialogStyle) -> Vec<String> {
    if style == DialogStyle::CustomApiOnly {
        // API-only sites draw their own dialog: no vendor CSS at all.
        return vec!["site-consent-banner".into()];
    }
    match cmp {
        Cmp::OneTrust => vec!["onetrust-banner-sdk".into(), "ot-sdk-container".into()],
        Cmp::Quantcast => vec!["qc-cmp2-container".into()],
        Cmp::TrustArc => vec!["truste_box_overlay".into()],
        Cmp::Cookiebot => vec!["CybotCookiebotDialog".into()],
        Cmp::LiveRamp => vec!["faktor-io-modal".into()],
        Cmp::Crownpeak => vec!["evidon-banner".into()],
    }
}

/// A capture that loaded no page: no requests, cookies or DOM.
fn failed(
    seed_url: &str,
    final_url: String,
    final_host: String,
    day: Day,
    vantage: Vantage,
    status: CaptureStatus,
) -> Capture {
    Capture {
        seed_url: seed_url.to_owned(),
        final_url,
        final_host,
        day,
        vantage,
        status,
        requests: Vec::new(),
        cookies: Vec::new(),
        dialog_visible: false,
        dom: None,
    }
}

/// Split a URL into (host, path), both borrowed from `url`; the path of
/// a URL without one is `/`. Tolerates missing scheme.
pub fn split_url(url: &str) -> (&str, &str) {
    let rest = url
        .strip_prefix("https://")
        .or_else(|| url.strip_prefix("http://"))
        .unwrap_or(url);
    match rest.find('/') {
        Some(i) => rest.split_at(i),
        None => (rest, "/"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 20_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn engine(w: &World) -> Engine<'_> {
        Engine::new(w, SeedTree::new(1))
    }

    fn find_adopter(w: &World, day: Day) -> Arc<SiteProfile> {
        (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| {
                        !b.anti_bot_cdn && !b.slow_load && b.geo == GeoBehavior::EmbedAlways
                    })
            })
            .expect("world contains a clean adopter")
    }

    #[test]
    fn url_splitting() {
        assert_eq!(split_url("https://a.com/x?y=1"), ("a.com", "/x?y=1"));
        assert_eq!(split_url("http://a.com"), ("a.com", "/"));
        assert_eq!(split_url("a.com/p"), ("a.com", "/p"));
    }

    #[test]
    fn constant_urls_name_their_hosts() {
        for (host, url) in THIRD_PARTY_POOL {
            assert_eq!(url, format!("https://{host}/collect"));
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = find_adopter(&w, day);
        let e = engine(&w);
        let url = format!("https://{}/", p.domain);
        let a = e.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        let b = e.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn adopter_contacts_indicator_host() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = find_adopter(&w, day);
        let cmp = p.cmp_on(day).unwrap();
        let e = engine(&w);
        let c = e.capture(
            &format!("https://{}/", p.domain),
            day,
            Vantage::table1_columns()[3], // EU university, extended
            CaptureOptions::default(),
        );
        assert_eq!(c.status, CaptureStatus::Ok);
        assert!(
            c.contacted(cmp.indicator_hostname()),
            "expected {} in {:?}",
            cmp.indicator_hostname(),
            c.hosts()
        );
        assert!(c.dialog_visible);
    }

    #[test]
    fn unknown_host_fails() {
        let w = world();
        let e = engine(&w);
        let c = e.capture(
            "https://totally-unknown.example/",
            Day::from_ymd(2020, 5, 15),
            Vantage::eu_cloud(),
            CaptureOptions::default(),
        );
        assert_eq!(c.status, CaptureStatus::ConnectionFailed);
        assert!(!c.usable());
    }

    #[test]
    fn anti_bot_blocks_cloud_but_not_university() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| b.anti_bot_cdn)
            })
            .expect("anti-bot adopter exists");
        let e = engine(&w);
        let url = format!("https://{}/", p.domain);
        let cloud = e.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        assert_eq!(cloud.status, CaptureStatus::AntiBotInterstitial);
        assert!(cloud.contacted("challenge.cdn-shield.net"));
        let uni = e.capture(
            &url,
            day,
            Vantage::table1_columns()[3],
            CaptureOptions::default(),
        );
        assert_eq!(uni.status, CaptureStatus::Ok);
    }

    #[test]
    fn slow_load_missed_only_under_aggressive_timing() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| {
                        b.slow_load && !b.anti_bot_cdn && b.geo == GeoBehavior::EmbedAlways
                    })
            })
            .expect("slow adopter exists");
        let cmp_host = p.cmp_on(day).unwrap().indicator_hostname();
        let e = engine(&w);
        let url = format!("https://{}/", p.domain);
        let cols = Vantage::table1_columns();
        let fast = e.capture(&url, day, cols[2], CaptureOptions::default());
        let slow = e.capture(&url, day, cols[3], CaptureOptions::default());
        assert!(!fast.contacted(cmp_host), "aggressive timing should miss");
        assert!(slow.contacted(cmp_host), "extended timing should catch");
    }

    #[test]
    fn geo_gated_site_invisible_from_us() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| {
                        b.geo == GeoBehavior::EmbedOnlyEu
                            && !b.anti_bot_cdn
                            && !b.slow_load
                            && b.ccpa_adapted.is_none()
                    })
            })
            .expect("EU-only adopter exists");
        let cmp_host = p.cmp_on(day).unwrap().indicator_hostname();
        let e = engine(&w);
        let url = format!("https://{}/", p.domain);
        let us = e.capture(&url, day, Vantage::us_cloud(), CaptureOptions::default());
        let eu = e.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        assert!(!us.contacted(cmp_host));
        assert!(eu.contacted(cmp_host));
    }

    #[test]
    fn bare_privacy_page_has_no_cmp() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| {
                        b.bare_privacy_page && !b.anti_bot_cdn && b.geo == GeoBehavior::EmbedAlways
                    })
            })
            .expect("bare-privacy adopter exists");
        let cmp_host = p.cmp_on(day).unwrap().indicator_hostname();
        let e = engine(&w);
        let landing = e.capture(
            &format!("https://{}/", p.domain),
            day,
            Vantage::table1_columns()[3],
            CaptureOptions::default(),
        );
        let privacy = e.capture(
            &format!("https://{}/privacy", p.domain),
            day,
            Vantage::table1_columns()[3],
            CaptureOptions::default(),
        );
        assert!(landing.contacted(cmp_host));
        assert!(!privacy.contacted(cmp_host));
        assert_eq!(privacy.third_party_requests(), 0);
    }

    #[test]
    fn dom_snapshot_collected_on_request() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = find_adopter(&w, day);
        let e = engine(&w);
        let c = e.capture(
            &format!("https://{}/", p.domain),
            day,
            Vantage::table1_columns()[3],
            CaptureOptions { collect_dom: true },
        );
        let dom = c.dom.expect("DOM requested");
        assert!(dom.accept_button_text.is_some());
        assert!(dom.body_text.contains("privacy") || dom.body_text.contains("cookies"));
        let no_dom = e.capture(
            &format!("https://{}/", p.domain),
            day,
            Vantage::table1_columns()[3],
            CaptureOptions::default(),
        );
        assert!(no_dom.dom.is_none());
    }

    #[test]
    fn alias_host_redirects_to_canonical() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| p.alias.is_some() && p.reachability == Reachability::Ok)
            .expect("aliased site exists");
        let e = engine(&w);
        let c = e.capture(
            &format!("https://{}/", p.alias.as_ref().unwrap()),
            day,
            Vantage::eu_cloud(),
            CaptureOptions::default(),
        );
        assert_eq!(c.status, CaptureStatus::Ok);
        assert_eq!(c.final_host, format!("www.{}", p.domain));
        assert_eq!(c.requests[0].status, 301);
    }

    /// The strings the same alias capture's records owned before they
    /// named them, rendered through the capture: the 301 from the seed
    /// URL and host, the final page, its assets by index, the trackers,
    /// and the session and tracker cookies with their hex values.
    #[test]
    fn alias_capture_renders_the_strings_its_records_owned() {
        let w = world();
        let c = engine(&w).capture(
            "https://ce-alt.net/",
            Day::from_ymd(2020, 5, 15),
            Vantage::eu_cloud(),
            CaptureOptions::default(),
        );
        assert_eq!(c.final_url, "https://www.ce.at/");
        assert_eq!(
            (c.requests[0].url, c.requests[0].host),
            (Url::Seed, Host::Seed)
        );
        assert_eq!(c.requests[3].url, Url::Asset(5));
        let requests: Vec<(String, &str, u16)> = c
            .requests
            .iter()
            .map(|r| (c.url(&r.url).into_owned(), c.host(&r.host), r.status))
            .collect();
        let tracker = |host: &'static str| (format!("https://{host}/collect"), host, 200);
        let asset = |i: u8| {
            (
                format!("https://www.ce.at/static/asset{i}.js"),
                "www.ce.at",
                200,
            )
        };
        assert_eq!(
            requests,
            [
                ("https://ce-alt.net/".to_owned(), "ce-alt.net", 301),
                ("https://www.ce.at/".to_owned(), "www.ce.at", 200),
                tracker("pixel.adgrid.example"),
                asset(5),
                tracker("rtb.sparkmedia.example"),
                asset(0),
                asset(2),
                tracker("stats.atlassense.example"),
                asset(1),
                asset(3),
                asset(4),
                tracker("tags.primeserve.example"),
                tracker("ads.vertexlab.example"),
                tracker("id.deltagraph.example"),
                tracker("ads.vertexlab.example"),
                tracker("tags.primeserve.example"),
                tracker("tags.primeserve.example"),
                tracker("rtb.sparkmedia.example"),
            ]
        );
        let cookies: Vec<(&str, &str, String)> = c
            .cookies
            .iter()
            .map(|k| (k.name, c.host(&k.host), k.value.to_string()))
            .collect();
        let owned = |name, host, value: &str| (name, host, value.to_owned());
        assert_eq!(
            cookies,
            [
                owned("session", "www.ce.at", "s76ed8f01181a1430"),
                owned("uid", "pixel.adgrid.example", "u9bbd42a3855a"),
                owned("uid", "tags.primeserve.example", "u02c029a90685"),
                owned("uid", "rtb.sparkmedia.example", "u11642082a0f8"),
                owned("uid", "id.deltagraph.example", "u3d950446b3a3"),
                owned("uid", "tags.primeserve.example", "ucaeee230fcc9"),
            ]
        );
    }

    #[test]
    fn non_adopter_never_contacts_cmp_hosts() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let p = (1..=20_000)
            .map(|r| w.profile(r))
            .find(|p| !p.trajectory.ever_adopts() && p.reachability == Reachability::Ok)
            .unwrap();
        let e = engine(&w);
        let c = e.capture(
            &format!("https://{}/", p.domain),
            day,
            Vantage::table1_columns()[3],
            CaptureOptions::default(),
        );
        for cmp in consent_webgraph::ALL_CMPS {
            assert!(!c.contacted(cmp.indicator_hostname()));
        }
        assert!(!c.dialog_visible);
    }
}
