//! Deterministic process-crash points for crash-consistency testing.
//!
//! Network faults ([`Fault`](crate::Fault)) model the *world* failing;
//! a [`CrashPlan`] models the *process* failing: the campaign driver
//! dies after the Nth `apply_pair`, or a checkpoint write is torn after
//! N bytes. Both are deterministic, so a sweep can enumerate every
//! crashpoint of a small campaign and assert that resuming from disk
//! reproduces the uninterrupted run byte-for-byte.
//!
//! Crashes are simulated cooperatively: the durable campaign driver
//! consults the plan and returns a `Crashed` outcome (or routes the
//! write through the store's torn-write primitive) instead of calling
//! `abort()`, which keeps the sweep in-process and lets it inspect the
//! on-disk state the "dead" process left behind.

use std::fmt;

/// Where the simulated process dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crashpoint {
    /// Die immediately after the Nth successfully applied pair of this
    /// run (1-based; `0` dies before any pair is applied). Nothing
    /// applied after the last completed checkpoint survives.
    AfterApply(u64),
    /// Tear the Nth checkpoint write of this run (1-based), persisting
    /// only the first `keep_bytes` bytes of the serialized file, then
    /// die.
    TruncateWrite {
        /// Which checkpoint write of the run to tear (1-based).
        write: u64,
        /// How many leading bytes of the serialized checkpoint survive.
        keep_bytes: u64,
    },
}

/// A deterministic crash schedule for one driver run.
///
/// [`CrashPlan::none`] (the default) never crashes; resumed runs use it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashPlan {
    point: Option<Crashpoint>,
}

impl CrashPlan {
    /// Never crash.
    pub fn none() -> CrashPlan {
        CrashPlan { point: None }
    }

    /// Crash after the Nth applied pair (see [`Crashpoint::AfterApply`]).
    pub fn after_apply(n: u64) -> CrashPlan {
        CrashPlan {
            point: Some(Crashpoint::AfterApply(n)),
        }
    }

    /// Tear the Nth checkpoint write after `keep_bytes` bytes.
    pub fn truncate_write(write: u64, keep_bytes: u64) -> CrashPlan {
        CrashPlan {
            point: Some(Crashpoint::TruncateWrite { write, keep_bytes }),
        }
    }

    /// The configured crashpoint, if any.
    pub fn point(&self) -> Option<Crashpoint> {
        self.point
    }

    /// True when this plan never crashes.
    pub fn is_none(&self) -> bool {
        self.point.is_none()
    }

    /// The apply-count at which to die, if this is an apply crash.
    pub fn apply_point(&self) -> Option<u64> {
        match self.point {
            Some(Crashpoint::AfterApply(n)) => Some(n),
            _ => None,
        }
    }

    /// If the `write`-th checkpoint write of the run (1-based) should be
    /// torn, the number of bytes that survive.
    pub fn write_truncation(&self, write: u64) -> Option<u64> {
        match self.point {
            Some(Crashpoint::TruncateWrite {
                write: w,
                keep_bytes,
            }) if w == write => Some(keep_bytes),
            _ => None,
        }
    }

    /// Stable description for logs and `Crashed` outcomes.
    pub fn describe(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for CrashPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.point {
            None => f.write_str("none"),
            Some(Crashpoint::AfterApply(n)) => write!(f, "apply:{n}"),
            Some(Crashpoint::TruncateWrite { write, keep_bytes }) => {
                write!(f, "write:{write}:{keep_bytes}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_none() {
        assert!(CrashPlan::default().is_none());
        assert_eq!(CrashPlan::none().apply_point(), None);
        assert_eq!(CrashPlan::none().write_truncation(1), None);
    }

    #[test]
    fn accessors_match_variants() {
        let a = CrashPlan::after_apply(7);
        assert_eq!(a.apply_point(), Some(7));
        assert_eq!(a.write_truncation(1), None);

        let w = CrashPlan::truncate_write(2, 100);
        assert_eq!(w.apply_point(), None);
        assert_eq!(w.write_truncation(1), None);
        assert_eq!(w.write_truncation(2), Some(100));
        assert_eq!(w.write_truncation(3), None);
    }

    #[test]
    fn display_names_each_crashpoint() {
        assert_eq!(CrashPlan::none().to_string(), "none");
        assert_eq!(CrashPlan::after_apply(0).to_string(), "apply:0");
        assert_eq!(CrashPlan::after_apply(12).describe(), "apply:12");
        assert_eq!(CrashPlan::truncate_write(1, 0).to_string(), "write:1:0");
        assert_eq!(
            CrashPlan::truncate_write(3, 4096).describe(),
            "write:3:4096"
        );
    }
}
