//! Fault-rate configuration.

use std::fmt;

/// Per-attempt fault rates for the chaos layer. All rates are
/// probabilities in `[0, 1]`, evaluated independently and
/// deterministically per `(host, day, vantage, attempt)` by
/// [`FaultPlan`](crate::FaultPlan).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability that an attempt times out at the network level,
    /// leaving a partial request log ([`CaptureStatus::Timeout`]).
    ///
    /// [`CaptureStatus::Timeout`]: consent_httpsim::CaptureStatus::Timeout
    pub timeout: f64,
    /// Probability that the connection is reset mid-load, yielding no
    /// content ([`CaptureStatus::ConnectionReset`]).
    ///
    /// [`CaptureStatus::ConnectionReset`]: consent_httpsim::CaptureStatus::ConnectionReset
    pub reset: f64,
    /// Probability that the capture record is truncated — the tail of
    /// the request log is lost and any DOM snapshot is dropped
    /// ([`CaptureStatus::Truncated`]).
    ///
    /// [`CaptureStatus::Truncated`]: consent_httpsim::CaptureStatus::Truncated
    pub truncation: f64,
    /// Probability that one vantage suffers a whole-day brownout: every
    /// attempt from that vantage on that day is reset, regardless of
    /// host. Models a capture-cluster outage rather than a site fault.
    pub brownout: f64,
    /// Anti-bot escalation: from this attempt number on (1-based, so
    /// `2` means "from the first retry"), each further attempt against
    /// the same `(host, vantage)` risks an interstitial with probability
    /// [`escalation`](Self::escalation). `0` disables escalation.
    pub escalation_after: u8,
    /// Probability of an anti-bot interstitial once escalation is armed.
    pub escalation: f64,
    /// Probability that the capture code itself panics mid-attempt
    /// (models a crawler bug tripping on hostile markup, not a network
    /// fault). The executors contain it: a panicking pair is
    /// dead-lettered with a `panic` outcome instead of poisoning the
    /// worker pool. Zero in every named profile — tests opt in
    /// explicitly.
    pub panic: f64,
}

impl FaultProfile {
    /// The identity profile: no faults are ever injected and the
    /// wrapped engine's captures pass through byte-identical.
    pub fn none() -> FaultProfile {
        FaultProfile {
            timeout: 0.0,
            reset: 0.0,
            truncation: 0.0,
            brownout: 0.0,
            escalation_after: 0,
            escalation: 0.0,
            panic: 0.0,
        }
    }

    /// Low-rate faults: enough to exercise the retry and degradation
    /// paths while leaving aggregate statistics within the tolerances
    /// the analysis tests assert. Every test whose statistics a fault
    /// could move runs under this profile beside its fault-free run.
    pub fn mild() -> FaultProfile {
        FaultProfile {
            timeout: 0.01,
            reset: 0.02,
            truncation: 0.01,
            brownout: 0.002,
            escalation_after: 2,
            escalation: 0.10,
            panic: 0.0,
        }
    }

    /// Aggressive faults for targeted resilience tests: most pairs see
    /// at least one failed attempt, brownouts recur, and escalation is
    /// near-certain once armed.
    pub fn heavy() -> FaultProfile {
        FaultProfile {
            timeout: 0.10,
            reset: 0.15,
            truncation: 0.08,
            brownout: 0.02,
            escalation_after: 2,
            escalation: 0.60,
            panic: 0.0,
        }
    }

    /// True if this profile can never inject a fault.
    pub fn is_none(&self) -> bool {
        self.timeout == 0.0
            && self.reset == 0.0
            && self.truncation == 0.0
            && self.brownout == 0.0
            && self.panic == 0.0
            && (self.escalation_after == 0 || self.escalation == 0.0)
    }

    /// Parse a named profile: `mild` or `heavy` select the named
    /// profiles; `none`, `0` or the empty string select
    /// [`FaultProfile::none`]. Anything else is `None`.
    pub fn parse(spec: &str) -> Option<FaultProfile> {
        match spec {
            "" | "none" | "0" => Some(FaultProfile::none()),
            "mild" => Some(FaultProfile::mild()),
            "heavy" => Some(FaultProfile::heavy()),
            _ => None,
        }
    }
}

impl Default for FaultProfile {
    fn default() -> FaultProfile {
        FaultProfile::none()
    }
}

impl fmt::Display for FaultProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            return f.write_str("none");
        }
        write!(
            f,
            "timeout={} reset={} truncation={} brownout={} escalation={}@{}",
            self.timeout,
            self.reset,
            self.truncation,
            self.brownout,
            self.escalation,
            self.escalation_after,
        )?;
        if self.panic > 0.0 {
            write!(f, " panic={}", self.panic)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_none() {
        assert!(FaultProfile::none().is_none());
        assert!(FaultProfile::default().is_none());
        assert!(!FaultProfile::mild().is_none());
        assert!(!FaultProfile::heavy().is_none());
        // Escalation alone counts as a fault source…
        let mut p = FaultProfile::none();
        p.escalation_after = 2;
        p.escalation = 0.5;
        assert!(!p.is_none());
        // …but only when both threshold and rate are set.
        p.escalation = 0.0;
        assert!(p.is_none());
    }

    #[test]
    fn parse_accepts_the_named_profiles_only() {
        for (spec, want) in [
            ("", FaultProfile::none()),
            ("none", FaultProfile::none()),
            ("0", FaultProfile::none()),
            ("mild", FaultProfile::mild()),
            ("heavy", FaultProfile::heavy()),
        ] {
            assert_eq!(FaultProfile::parse(spec), Some(want), "{spec:?}");
        }
        for spec in ["Mild", "mild ", "1", "timeout=0.1", "heavy;mild"] {
            assert_eq!(FaultProfile::parse(spec), None, "{spec:?} parsed");
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(FaultProfile::none().to_string(), "none");
        let s = FaultProfile::mild().to_string();
        assert!(s.contains("reset=0.02"), "{s}");
        assert!(s.contains("@2"), "{s}");
    }
}
