//! The fault-injecting engine wrapper.

use crate::plan::{Fault, FaultPlan};
use crate::profile::FaultProfile;
use consent_httpsim::{
    split_url, Capture, CaptureOptions, CaptureStatus, Engine, Host, RequestRecord, Url, Vantage,
};
use consent_util::{Day, SeedTree, SimInstant};

/// An [`Engine`] wrapped by a [`FaultPlan`]. With
/// [`FaultProfile::none`] every capture passes through byte-identical;
/// otherwise each attempt first consults the plan and the decided fault
/// overrides or degrades the underlying capture.
pub struct FaultyEngine<'w> {
    inner: Engine<'w>,
    plan: FaultPlan,
}

impl<'w> FaultyEngine<'w> {
    /// Wrap an engine with a fault plan.
    pub fn new(inner: Engine<'w>, plan: FaultPlan) -> FaultyEngine<'w> {
        FaultyEngine { inner, plan }
    }

    /// Convenience constructor: build the engine and the plan from one
    /// seed node (the engine under `"engine"`, the plan under the whole
    /// node, which namespaces itself under `"faultsim"`).
    pub fn from_world(
        world: &'w consent_webgraph::World,
        profile: FaultProfile,
        seed: SeedTree,
    ) -> FaultyEngine<'w> {
        FaultyEngine::new(
            Engine::new(world, seed.child("engine")),
            FaultPlan::new(profile, seed),
        )
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &Engine<'w> {
        &self.inner
    }

    /// The fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Crawl one URL (first attempt). Identical to
    /// [`FaultyEngine::capture_attempt`] with `attempt = 1`.
    pub fn capture(&self, url: &str, day: Day, vantage: Vantage, opts: CaptureOptions) -> Capture {
        self.capture_attempt(url, day, vantage, opts, 1)
    }

    /// Crawl one URL as attempt number `attempt` (1-based). The attempt
    /// number only feeds the fault plan (anti-bot escalation arms on
    /// repeated hits); the underlying engine is attempt-agnostic.
    pub fn capture_attempt(
        &self,
        url: &str,
        day: Day,
        vantage: Vantage,
        opts: CaptureOptions,
        attempt: u8,
    ) -> Capture {
        if self.plan.profile().is_none() {
            return self.inner.capture(url, day, vantage, opts);
        }
        let (host, _) = split_url(url);
        let Some(fault) = self.plan.decide(host, day, vantage, attempt) else {
            return self.inner.capture(url, day, vantage, opts);
        };
        consent_telemetry::count_labeled("faultsim.injected", &[("fault", fault.name())], 1);
        consent_trace::event("fault.injected", |a| {
            a.push("fault", fault.name());
            a.push("attempt", attempt);
        });
        match fault {
            // An injected crawler bug: the panic unwinds out of the
            // engine and is contained by the executor's `catch_unwind`
            // (the `fault.injected` trace event above is already
            // recorded). The message is a pure function of the attempt
            // identity so contained outcomes stay deterministic.
            Fault::Panic => {
                panic!(
                    "consent-faultsim: injected panic for {host} day {} attempt {attempt}",
                    day.0
                );
            }
            // Connection-level faults preempt the origin entirely.
            Fault::Brownout | Fault::ConnectionReset => {
                no_content(url, host, day, vantage, CaptureStatus::ConnectionReset)
            }
            Fault::AntiBotEscalation => interstitial(url, host, day, vantage),
            // Record-level faults degrade whatever the origin returned;
            // a capture that already failed deterministically keeps its
            // more specific status.
            Fault::Timeout => {
                let c = self.inner.capture(url, day, vantage, opts);
                if c.status != CaptureStatus::Ok {
                    return c;
                }
                let cutoff =
                    1_000 + (self.plan.shape(host, day, vantage, attempt) * 4_000.0) as u64;
                truncate(c, CaptureStatus::Timeout, CutAt::Millis(cutoff))
            }
            Fault::Truncation => {
                let c = self.inner.capture(url, day, vantage, opts);
                if c.status != CaptureStatus::Ok {
                    return c;
                }
                let keep = 0.3 + self.plan.shape(host, day, vantage, attempt) * 0.5;
                truncate(c, CaptureStatus::Truncated, CutAt::Fraction(keep))
            }
        }
    }
}

enum CutAt {
    /// Drop requests that started at or after this millisecond.
    Millis(u64),
    /// Keep this fraction of the request log (at least one request).
    Fraction(f64),
}

fn truncate(mut c: Capture, status: CaptureStatus, cut: CutAt) -> Capture {
    match cut {
        CutAt::Millis(ms) => c.requests.retain(|r| r.started.as_millis() < ms),
        CutAt::Fraction(f) => {
            let keep = ((c.requests.len() as f64 * f).ceil() as usize).max(1);
            c.requests.truncate(keep);
        }
    }
    // The surviving request log defines the surviving record: cookies
    // from hosts that were cut are gone, and so is the DOM snapshot.
    // Hosts compare as rendered, whatever names them.
    let mut cookies = std::mem::take(&mut c.cookies);
    cookies.retain(|cookie| {
        let host = c.host(&cookie.host);
        c.requests.iter().any(|r| c.host(&r.host) == host)
    });
    c.cookies = cookies;
    c.dom = None;
    c.status = status;
    c
}

fn no_content(url: &str, host: &str, day: Day, vantage: Vantage, status: CaptureStatus) -> Capture {
    Capture {
        seed_url: url.to_owned(),
        final_url: url.to_owned(),
        final_host: host.to_owned(),
        day,
        vantage,
        status,
        requests: Vec::new(),
        cookies: Vec::new(),
        dialog_visible: false,
        dom: None,
    }
}

fn interstitial(url: &str, host: &str, day: Day, vantage: Vantage) -> Capture {
    let mut c = no_content(url, host, day, vantage, CaptureStatus::AntiBotInterstitial);
    c.requests.push(RequestRecord {
        url: Url::Seed,
        host: Host::Seed,
        status: 403,
        bytes: 2_048,
        started: SimInstant::ZERO,
        third_party: false,
    });
    c.requests.push(RequestRecord {
        url: Url::Static("https://challenge.cdn-shield.net/turnstile"),
        host: Host::Static("challenge.cdn-shield.net"),
        status: 200,
        bytes: 12_288,
        started: SimInstant::from_millis(120),
        third_party: true,
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use consent_webgraph::{AdoptionConfig, GeoBehavior, Reachability, World, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 10_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn clean_site(w: &World, day: Day) -> String {
        (1..=10_000)
            .map(|r| w.profile(r))
            .find(|p| {
                p.cmp_on(day).is_some()
                    && p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_some_and(|b| {
                        !b.anti_bot_cdn && !b.slow_load && b.geo == GeoBehavior::EmbedAlways
                    })
            })
            .map(|p| format!("https://{}/", p.domain))
            .expect("clean adopter exists")
    }

    #[test]
    fn none_profile_is_byte_identical() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let plain = Engine::new(&w, SeedTree::new(4).child("engine"));
        let faulty = FaultyEngine::from_world(&w, FaultProfile::none(), SeedTree::new(4));
        for rank in (1..=600u32).step_by(7) {
            let url = format!("https://{}/", w.profile(rank).domain);
            for vantage in [Vantage::us_cloud(), Vantage::eu_cloud()] {
                let a = plain.capture(&url, day, vantage, CaptureOptions { collect_dom: true });
                let b = faulty.capture(&url, day, vantage, CaptureOptions { collect_dom: true });
                assert_eq!(a, b, "divergence at {url} {}", vantage.label());
            }
        }
    }

    #[test]
    fn injected_faults_are_deterministic() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let a = FaultyEngine::from_world(&w, FaultProfile::heavy(), SeedTree::new(4));
        let b = FaultyEngine::from_world(&w, FaultProfile::heavy(), SeedTree::new(4));
        for rank in (1..=400u32).step_by(3) {
            let url = format!("https://{}/", w.profile(rank).domain);
            for attempt in 1..=4 {
                let ca = a.capture_attempt(
                    &url,
                    day,
                    Vantage::eu_cloud(),
                    CaptureOptions::default(),
                    attempt,
                );
                let cb = b.capture_attempt(
                    &url,
                    day,
                    Vantage::eu_cloud(),
                    CaptureOptions::default(),
                    attempt,
                );
                assert_eq!(ca, cb);
            }
        }
    }

    #[test]
    fn truncation_degrades_but_stays_usable() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let url = clean_site(&w, day);
        let (host, _) = split_url(&url);
        // A truncation-only profile: every attempt is truncated.
        let profile = FaultProfile {
            truncation: 1.0,
            ..FaultProfile::none()
        };
        let faulty = FaultyEngine::from_world(&w, profile, SeedTree::new(4));
        let plain = Engine::new(&w, SeedTree::new(4).child("engine"));
        let full = plain.capture(
            &url,
            day,
            Vantage::eu_cloud(),
            CaptureOptions { collect_dom: true },
        );
        let cut = faulty.capture(
            &url,
            day,
            Vantage::eu_cloud(),
            CaptureOptions { collect_dom: true },
        );
        assert_eq!(cut.status, CaptureStatus::Truncated);
        assert!(cut.usable() && cut.degraded());
        assert!(cut.dom.is_none(), "truncation drops the DOM");
        assert!(
            !cut.requests.is_empty() && cut.requests.len() < full.requests.len(),
            "kept {} of {}",
            cut.requests.len(),
            full.requests.len()
        );
        // Surviving cookies only reference surviving hosts.
        for cookie in &cut.cookies {
            let host = cut.host(&cookie.host);
            assert!(cut.requests.iter().any(|r| cut.host(&r.host) == host));
        }
        let _ = host;
    }

    /// Every cut of a redirected capture: a cookie survives exactly when
    /// a surviving request renders its host, so the session cookie
    /// lives exactly as long as a request to the final host, and the
    /// 301 from the alias alone keeps none of the final host's cookies.
    #[test]
    fn a_cookie_survives_truncation_exactly_with_a_request_to_its_host() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let alias = (1..=10_000)
            .map(|r| w.profile(r))
            .find_map(|p| {
                let ok = p.reachability == Reachability::Ok
                    && p.behavior.as_ref().is_none_or(|b| !b.anti_bot_cdn);
                p.alias.clone().filter(|_| ok)
            })
            .expect("aliased site exists");
        let url = format!("https://{alias}/");
        let plain = Engine::new(&w, SeedTree::new(4).child("engine"));
        let full = plain.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        assert_eq!(full.requests[0].host, Host::Seed);
        assert_eq!(full.host(&full.requests[0].host), alias);
        assert!(full.cookies.iter().any(|k| k.name == "session"));

        let cuts = full
            .requests
            .iter()
            .map(|r| CutAt::Millis(r.started.as_millis() + 1))
            .chain([CutAt::Fraction(0.0), CutAt::Fraction(0.5)]);
        let (mut kept, mut dropped) = (0, 0);
        for cut in cuts {
            let c = truncate(full.clone(), CaptureStatus::Truncated, cut);
            let survives = |host: &str| c.requests.iter().any(|r| c.host(&r.host) == host);
            for cookie in &full.cookies {
                assert_eq!(
                    c.cookies.contains(cookie),
                    survives(full.host(&cookie.host)),
                    "{cookie:?} after a cut to {} requests",
                    c.requests.len()
                );
            }
            let session = c.cookies.iter().any(|k| k.name == "session");
            assert_eq!(session, survives(&full.final_host));
            if session {
                kept += 1;
            } else {
                dropped += 1;
            }
        }
        // The 301 alone (the first millisecond, or a zero fraction)
        // drops the session cookie; later cuts keep it.
        assert!(kept > 0 && dropped >= 2, "kept {kept}, dropped {dropped}");
    }

    #[test]
    fn reset_yields_no_content() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let url = clean_site(&w, day);
        let profile = FaultProfile {
            reset: 1.0,
            ..FaultProfile::none()
        };
        let faulty = FaultyEngine::from_world(&w, profile, SeedTree::new(4));
        let c = faulty.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        assert_eq!(c.status, CaptureStatus::ConnectionReset);
        assert!(!c.usable());
        assert!(c.requests.is_empty());
    }

    #[test]
    fn escalation_serves_interstitial_on_retries_only() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let url = clean_site(&w, day);
        let profile = FaultProfile {
            escalation_after: 2,
            escalation: 1.0,
            ..FaultProfile::none()
        };
        let faulty = FaultyEngine::from_world(&w, profile, SeedTree::new(4));
        let first =
            faulty.capture_attempt(&url, day, Vantage::eu_cloud(), CaptureOptions::default(), 1);
        assert_eq!(first.status, CaptureStatus::Ok);
        let second =
            faulty.capture_attempt(&url, day, Vantage::eu_cloud(), CaptureOptions::default(), 2);
        assert_eq!(second.status, CaptureStatus::AntiBotInterstitial);
        assert!(second.contacted("challenge.cdn-shield.net"));
        // The refused request names the seed URL and its host; the
        // challenge names constants.
        let rendered: Vec<_> = second
            .requests
            .iter()
            .map(|r| (second.url(&r.url), second.host(&r.host), r.status))
            .collect();
        assert_eq!(
            rendered,
            [
                (url.as_str().into(), split_url(&url).0, 403),
                (
                    "https://challenge.cdn-shield.net/turnstile".into(),
                    "challenge.cdn-shield.net",
                    200
                ),
            ]
        );
    }

    #[test]
    fn timeout_cuts_late_requests() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let url = clean_site(&w, day);
        let profile = FaultProfile {
            timeout: 1.0,
            ..FaultProfile::none()
        };
        let faulty = FaultyEngine::from_world(&w, profile, SeedTree::new(4));
        let c = faulty.capture(&url, day, Vantage::eu_cloud(), CaptureOptions::default());
        assert_eq!(c.status, CaptureStatus::Timeout);
        assert!(c.usable() && c.degraded());
        let last = c
            .requests
            .iter()
            .map(|r| r.started.as_millis())
            .max()
            .unwrap_or(0);
        assert!(
            last < 5_000,
            "cutoff must be below the 5 s window, got {last}"
        );
    }

    #[test]
    fn world_failures_keep_their_status_under_record_faults() {
        let w = world();
        let day = Day::from_ymd(2020, 5, 15);
        let profile = FaultProfile {
            timeout: 1.0,
            ..FaultProfile::none()
        };
        let faulty = FaultyEngine::from_world(&w, profile, SeedTree::new(4));
        let c = faulty.capture(
            "https://totally-unknown.example/",
            day,
            Vantage::eu_cloud(),
            CaptureOptions::default(),
        );
        assert_eq!(c.status, CaptureStatus::ConnectionFailed);
    }
}
