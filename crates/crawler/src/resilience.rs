//! Failure classification, retry policy, and the per-domain circuit
//! breaker.
//!
//! §3.2 retries unsuccessful toplist captures "three times over a week";
//! §3.5 taxonomizes what "unsuccessful" means. This module makes both
//! explicit: a [`CaptureStatus`] is classified into an [`Outcome`]
//! (success / degraded / transient / permanent), a [`RetryPolicy`] turns
//! the §3.2 schedule into an explicit day list that provably fits the
//! one-week window, and a [`CircuitBreaker`] stops hammering domains
//! whose anti-bot protection escalates.

use consent_httpsim::CaptureStatus;
use consent_util::Day;

/// How a capture attempt's status bears on retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Outcome {
    /// Clean capture; no retry.
    Success,
    /// Usable but incomplete (timeout cut-off, truncated record). Kept
    /// and counted separately; retried only if the policy opts in.
    Degraded,
    /// Nothing usable, but a later attempt may succeed (connection
    /// reset, anti-bot interstitial). Retried on the §3.2 schedule.
    Transient,
    /// Deterministically unsuccessful (HTTP 451 geo-block, origin HTTP
    /// error, dead host). Retrying cannot help and must not happen.
    Permanent,
    /// The capture code itself panicked and the executor contained the
    /// unwind. The pair is dead-lettered with this classification; it is
    /// never retried in-run because the attempt history is gone.
    Panic,
}

impl Outcome {
    /// Classify a capture status.
    pub fn classify(status: CaptureStatus) -> Outcome {
        match status {
            CaptureStatus::Ok => Outcome::Success,
            CaptureStatus::Timeout | CaptureStatus::Truncated => Outcome::Degraded,
            CaptureStatus::ConnectionReset | CaptureStatus::AntiBotInterstitial => {
                Outcome::Transient
            }
            CaptureStatus::LegallyBlocked
            | CaptureStatus::HttpError
            | CaptureStatus::ConnectionFailed => Outcome::Permanent,
        }
    }

    /// Stable name for telemetry labels and dead-letter records.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Success => "success",
            Outcome::Degraded => "degraded",
            Outcome::Transient => "transient",
            Outcome::Permanent => "permanent",
            Outcome::Panic => "panic",
        }
    }

    /// Parse the [`name`](Self::name) form back.
    pub fn from_name(name: &str) -> Option<Outcome> {
        Some(match name {
            "success" => Outcome::Success,
            "degraded" => Outcome::Degraded,
            "transient" => Outcome::Transient,
            "permanent" => Outcome::Permanent,
            "panic" => Outcome::Panic,
            _ => return None,
        })
    }
}

/// When and how often to retry a capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (§3.2: 1 + 3 retries = 4).
    pub max_attempts: u8,
    /// Sim-days between consecutive attempts (§3.2's cadence is two
    /// days: attempts on day, day+2, day+4, day+6).
    pub spacing_days: i32,
    /// All attempts must fall within `[day, day + window_days]`. The
    /// schedule is validated against this window — a drifting schedule
    /// is a bug, not a silent widening of the measurement.
    pub window_days: i32,
    /// Also retry degraded (usable-but-incomplete) captures. The paper
    /// keeps them — degraded content still counts — so this is off by
    /// default.
    pub retry_degraded: bool,
}

impl RetryPolicy {
    /// The §3.2 policy: four attempts spaced two days apart, all within
    /// one week.
    pub fn paper() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            spacing_days: 2,
            window_days: 7,
            retry_degraded: false,
        }
    }

    /// The explicit attempt schedule starting at `day`.
    ///
    /// # Panics
    /// Panics if any attempt would fall outside the policy window —
    /// §3.2's "three times over a week" is a hard bound on how stale a
    /// snapshot's retries may be.
    pub fn schedule(&self, day: Day) -> Vec<Day> {
        let mut days = Vec::with_capacity(usize::from(self.max_attempts));
        let mut offset = 0i32;
        for attempt in 0..i32::from(self.max_attempts) {
            if attempt > 0 {
                offset += self.spacing_days;
            }
            assert!(
                offset <= self.window_days,
                "attempt {attempt} at day+{offset} exceeds the {}-day retry window",
                self.window_days
            );
            days.push(day + offset);
        }
        days
    }

    /// Whether `outcome` warrants another attempt under this policy.
    pub fn should_retry(&self, outcome: Outcome) -> bool {
        match outcome {
            Outcome::Success => false,
            Outcome::Permanent => false,
            Outcome::Panic => false,
            Outcome::Transient => true,
            Outcome::Degraded => self.retry_degraded,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::paper()
    }
}

/// Circuit-breaker configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Open the breaker after this many consecutive anti-bot
    /// interstitials from one `(domain, vantage)` pair. `0` disables
    /// the breaker.
    pub antibot_threshold: u8,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            antibot_threshold: 3,
        }
    }
}

/// Breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Attempts flow normally.
    Closed,
    /// The domain's protection escalated; remaining attempts are
    /// skipped and the pair is dead-lettered.
    Open,
}

/// A per-`(domain, vantage)` circuit breaker over one retry sequence.
/// Tracks consecutive anti-bot interstitials; once the threshold is
/// reached the breaker opens and stays open.
#[derive(Clone, Copy, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    consecutive_antibot: u8,
    state: BreakerState,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            consecutive_antibot: 0,
            state: BreakerState::Closed,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// True once the breaker has opened.
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }

    /// Record one attempt's status; returns `true` if this attempt
    /// opened the breaker.
    pub fn record(&mut self, status: CaptureStatus) -> bool {
        if self.config.antibot_threshold == 0 || self.is_open() {
            return false;
        }
        if status == CaptureStatus::AntiBotInterstitial {
            self.consecutive_antibot += 1;
            if self.consecutive_antibot >= self.config.antibot_threshold {
                self.state = BreakerState::Open;
                return true;
            }
        } else {
            self.consecutive_antibot = 0;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_status() {
        assert_eq!(Outcome::classify(CaptureStatus::Ok), Outcome::Success);
        assert_eq!(Outcome::classify(CaptureStatus::Timeout), Outcome::Degraded);
        assert_eq!(
            Outcome::classify(CaptureStatus::Truncated),
            Outcome::Degraded
        );
        assert_eq!(
            Outcome::classify(CaptureStatus::ConnectionReset),
            Outcome::Transient
        );
        assert_eq!(
            Outcome::classify(CaptureStatus::AntiBotInterstitial),
            Outcome::Transient
        );
        for s in [
            CaptureStatus::LegallyBlocked,
            CaptureStatus::HttpError,
            CaptureStatus::ConnectionFailed,
        ] {
            assert_eq!(Outcome::classify(s), Outcome::Permanent, "{s:?}");
        }
    }

    #[test]
    fn outcome_names_roundtrip() {
        for o in [
            Outcome::Success,
            Outcome::Degraded,
            Outcome::Transient,
            Outcome::Permanent,
            Outcome::Panic,
        ] {
            assert_eq!(Outcome::from_name(o.name()), Some(o));
        }
        assert_eq!(Outcome::from_name("weird"), None);
    }

    #[test]
    fn paper_schedule_fits_the_week() {
        let day = Day::from_ymd(2020, 5, 15);
        let sched = RetryPolicy::paper().schedule(day);
        assert_eq!(sched, vec![day, day + 2, day + 4, day + 6]);
        assert!(sched.iter().all(|&d| d - day <= 7));
    }

    #[test]
    #[should_panic(expected = "exceeds the 7-day retry window")]
    fn drifting_schedule_panics() {
        let policy = RetryPolicy {
            max_attempts: 5,
            spacing_days: 2,
            window_days: 7,
            retry_degraded: false,
        };
        // Attempt 5 would land on day+8 — outside §3.2's week.
        policy.schedule(Day::from_ymd(2020, 5, 15));
    }

    #[test]
    fn retry_decisions() {
        let p = RetryPolicy::paper();
        assert!(!p.should_retry(Outcome::Success));
        assert!(!p.should_retry(Outcome::Permanent));
        assert!(!p.should_retry(Outcome::Panic));
        assert!(!p.should_retry(Outcome::Degraded));
        assert!(p.should_retry(Outcome::Transient));
        let eager = RetryPolicy {
            retry_degraded: true,
            ..p
        };
        assert!(eager.should_retry(Outcome::Degraded));
    }

    #[test]
    fn breaker_opens_on_consecutive_antibot() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        assert!(!b.record(CaptureStatus::AntiBotInterstitial));
        assert!(!b.record(CaptureStatus::AntiBotInterstitial));
        assert!(b.record(CaptureStatus::AntiBotInterstitial));
        assert!(b.is_open());
        // Stays open; further records don't re-trigger.
        assert!(!b.record(CaptureStatus::AntiBotInterstitial));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_resets_on_other_statuses() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.record(CaptureStatus::AntiBotInterstitial);
        b.record(CaptureStatus::AntiBotInterstitial);
        b.record(CaptureStatus::ConnectionReset); // streak broken
        b.record(CaptureStatus::AntiBotInterstitial);
        b.record(CaptureStatus::AntiBotInterstitial);
        assert!(!b.is_open());
        b.record(CaptureStatus::AntiBotInterstitial);
        assert!(b.is_open());
    }

    #[test]
    fn disabled_breaker_never_opens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            antibot_threshold: 0,
        });
        for _ in 0..10 {
            assert!(!b.record(CaptureStatus::AntiBotInterstitial));
        }
        assert!(!b.is_open());
    }
}
