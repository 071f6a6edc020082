//! The deterministic fault decision function.

use crate::profile::FaultProfile;
use consent_httpsim::Vantage;
use consent_util::{Day, SeedTree};

/// One injected fault, in decreasing order of severity. At most one
/// fault applies per attempt; the variants earlier in this enum win
/// when several are drawn for the same attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The capture code itself panics mid-attempt (a crawler bug, not a
    /// network fault). The most severe variant: without containment it
    /// would take a worker thread down with it.
    Panic,
    /// Vantage-wide brownout: the whole capture cluster is down for the
    /// day and the attempt is reset regardless of host.
    Brownout,
    /// The target's anti-bot protection escalated after repeated hits
    /// from this vantage and serves an interstitial.
    AntiBotEscalation,
    /// Connection reset mid-load: no content at all.
    ConnectionReset,
    /// Network-level timeout: the request log is cut off early.
    Timeout,
    /// Truncated record: the tail of the request log is lost and any
    /// DOM snapshot is dropped.
    Truncation,
}

impl Fault {
    /// Stable name for telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::Panic => "panic",
            Fault::Brownout => "brownout",
            Fault::AntiBotEscalation => "antibot_escalation",
            Fault::ConnectionReset => "reset",
            Fault::Timeout => "timeout",
            Fault::Truncation => "truncation",
        }
    }
}

/// A seeded fault plan: a pure function from `(host, day, vantage,
/// attempt)` to an optional [`Fault`]. Because decisions carry no
/// state, a resumed campaign replays the exact fault sequence of an
/// uninterrupted one, and two runs with the same seed and profile are
/// bit-identical.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: SeedTree,
}

impl FaultPlan {
    /// Build a plan from a profile and a seed node. The seed is
    /// namespaced under `"faultsim"` so wiring the plan into an engine
    /// cannot perturb any other subsystem's randomness.
    pub fn new(profile: FaultProfile, seed: SeedTree) -> FaultPlan {
        FaultPlan {
            profile,
            seed: seed.child("faultsim"),
        }
    }

    /// The configured profile.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Decide the fault (if any) for one capture attempt. `attempt` is
    /// 1-based; escalation arms once `attempt >=
    /// profile.escalation_after`.
    pub fn decide(&self, host: &str, day: Day, vantage: Vantage, attempt: u8) -> Option<Fault> {
        if self.profile.is_none() {
            return None;
        }
        if self.draw_brownout(day, vantage) {
            return Some(Fault::Brownout);
        }
        let node = self
            .seed
            .child(host)
            .child_idx(day.0 as u64)
            .child(vantage.label())
            .child_idx(u64::from(attempt));
        if self.profile.panic > 0.0 && node.child("panic").unit_f64() < self.profile.panic {
            return Some(Fault::Panic);
        }
        if self.profile.escalation_after > 0
            && attempt >= self.profile.escalation_after
            && node.child("escalation").unit_f64() < self.profile.escalation
        {
            return Some(Fault::AntiBotEscalation);
        }
        if node.child("reset").unit_f64() < self.profile.reset {
            return Some(Fault::ConnectionReset);
        }
        if node.child("timeout").unit_f64() < self.profile.timeout {
            return Some(Fault::Timeout);
        }
        if node.child("truncation").unit_f64() < self.profile.truncation {
            return Some(Fault::Truncation);
        }
        None
    }

    /// True if `vantage` is browned out on `day` (host-independent).
    pub fn draw_brownout(&self, day: Day, vantage: Vantage) -> bool {
        self.profile.brownout > 0.0
            && self
                .seed
                .child("brownout")
                .child_idx(day.0 as u64)
                .child(vantage.label())
                .unit_f64()
                < self.profile.brownout
    }

    /// A fault-shape parameter in `[0, 1)` for the decided fault —
    /// e.g. where to cut a truncated request log. Deterministic and
    /// independent of the decision draws.
    pub fn shape(&self, host: &str, day: Day, vantage: Vantage, attempt: u8) -> f64 {
        self.seed
            .child(host)
            .child_idx(day.0 as u64)
            .child(vantage.label())
            .child_idx(u64::from(attempt))
            .child("shape")
            .unit_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn day() -> Day {
        Day::from_ymd(2020, 5, 15)
    }

    #[test]
    fn none_profile_never_faults() {
        let plan = FaultPlan::new(FaultProfile::none(), SeedTree::new(1));
        for i in 0..500u64 {
            let host = format!("site{i}.example");
            for attempt in 1..=4 {
                assert_eq!(
                    plan.decide(&host, day() + (i % 9) as i32, Vantage::eu_cloud(), attempt),
                    None
                );
            }
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::new(FaultProfile::heavy(), SeedTree::new(9));
        let b = FaultPlan::new(FaultProfile::heavy(), SeedTree::new(9));
        for i in 0..2_000u64 {
            let host = format!("site{i}.example");
            assert_eq!(
                a.decide(&host, day(), Vantage::us_cloud(), 1),
                b.decide(&host, day(), Vantage::us_cloud(), 1)
            );
        }
    }

    #[test]
    fn heavy_profile_injects_each_kind() {
        let plan = FaultPlan::new(FaultProfile::heavy(), SeedTree::new(3));
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..5_000u64 {
            let host = format!("site{i}.example");
            for attempt in 1..=4 {
                if let Some(f) =
                    plan.decide(&host, day() + (i % 30) as i32, Vantage::eu_cloud(), attempt)
                {
                    seen.insert(f.name());
                }
            }
        }
        for kind in ["antibot_escalation", "reset", "timeout", "truncation"] {
            assert!(seen.contains(kind), "never drew {kind}: {seen:?}");
        }
    }

    #[test]
    fn brownout_is_vantage_wide() {
        let profile = FaultProfile {
            brownout: 0.25,
            ..FaultProfile::heavy()
        };
        let plan = FaultPlan::new(profile, SeedTree::new(5));
        // Find a browned-out (day, vantage) and check host independence.
        let browned = (0..400)
            .map(|i| day() + i)
            .find(|&d| plan.draw_brownout(d, Vantage::us_cloud()))
            .expect("a brownout day exists at 25 %");
        for i in 0..50u64 {
            let host = format!("site{i}.example");
            assert_eq!(
                plan.decide(&host, browned, Vantage::us_cloud(), 1),
                Some(Fault::Brownout)
            );
        }
    }

    #[test]
    fn escalation_respects_threshold() {
        let profile = FaultProfile {
            timeout: 0.0,
            reset: 0.0,
            truncation: 0.0,
            brownout: 0.0,
            escalation_after: 3,
            escalation: 1.0,
            panic: 0.0,
        };
        let plan = FaultPlan::new(profile, SeedTree::new(7));
        assert_eq!(
            plan.decide("a.example", day(), Vantage::eu_cloud(), 1),
            None
        );
        assert_eq!(
            plan.decide("a.example", day(), Vantage::eu_cloud(), 2),
            None
        );
        assert_eq!(
            plan.decide("a.example", day(), Vantage::eu_cloud(), 3),
            Some(Fault::AntiBotEscalation)
        );
        assert_eq!(
            plan.decide("a.example", day(), Vantage::eu_cloud(), 4),
            Some(Fault::AntiBotEscalation)
        );
    }

    #[test]
    fn panic_fault_is_drawn_and_wins_over_lesser_faults() {
        let profile = FaultProfile {
            panic: 1.0,
            ..FaultProfile::heavy()
        };
        let plan = FaultPlan::new(profile, SeedTree::new(13));
        // Pick a non-browned-out day so the panic draw is reachable.
        let d = (0..60)
            .map(|i| day() + i)
            .find(|&d| !plan.draw_brownout(d, Vantage::eu_cloud()))
            .expect("a clear day exists");
        for i in 0..50u64 {
            let host = format!("site{i}.example");
            assert_eq!(
                plan.decide(&host, d, Vantage::eu_cloud(), 1),
                Some(Fault::Panic)
            );
        }
    }

    #[test]
    fn shape_is_deterministic_and_in_range() {
        let plan = FaultPlan::new(FaultProfile::heavy(), SeedTree::new(11));
        let a = plan.shape("x.example", day(), Vantage::eu_cloud(), 2);
        let b = plan.shape("x.example", day(), Vantage::eu_cloud(), 2);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
    }
}
