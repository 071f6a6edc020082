//! Self-healing supervision of durable checkpoint writes.
//!
//! PR 2/5 hardened the *network* path (retries, breakers) and the
//! *crash* path (CRC manifests, salvage); this module hardens the
//! *storage* path. The durable driver routes every checkpoint write
//! through a [`Supervisor`], which classifies failures
//! ([`classify_io_error`]: `EIO` transient, `ENOSPC` persistent),
//! retries transient ones with capped deterministic backoff out of a
//! per-campaign retry budget, and — when the budget is exhausted or the
//! fault is persistent — descends a **degradation ladder** instead of
//! aborting:
//!
//! 1. [`DegradeLevel::Normal`] — complete checkpoints: full snapshots,
//!    or delta sections once a chain is open (see
//!    [`CheckpointMode::Delta`](crate::CheckpointMode)).
//! 2. [`DegradeLevel::WideCadence`] — the checkpoint interval is
//!    multiplied by [`SupervisorPolicy::cadence_factor`], trading crash
//!    re-crawl window for fewer chances to hit the failing disk.
//! 3. [`DegradeLevel::MemoryOnly`] — durable writes stop entirely; the
//!    campaign finishes in memory and the run ends
//!    [`Degraded`](crate::DurableOutcome::Degraded) with a loud
//!    [`HealthReport`].
//!
//! The ladder only descends, so a campaign always terminates
//! `Complete`, `Degraded(report)`, or `Crashed` — never wedged on a
//! dying disk. Backoff is *recorded, not slept*: the delays a
//! production deployment would wait are accumulated in
//! [`HealthReport::backoff_ms_total`] and the `supervisor.backoff_ms`
//! histogram, keeping fault sweeps fast and byte-identical. Recovery
//! wall time per healed write (first failure → eventual success) is
//! observed into the `supervisor.mttr_us` histogram.

use std::fmt;
use std::io;
use std::time::Instant;

use consent_faultsim::{classify_io_error, IoErrorClass};

/// A rung of the degradation ladder, in descent order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeLevel {
    /// Complete checkpoints at the configured cadence.
    #[default]
    Normal,
    /// Checkpoint cadence widened by the policy's factor.
    WideCadence,
    /// No durable writes at all; the campaign finishes in memory.
    MemoryOnly,
}

impl DegradeLevel {
    /// Ladder position, 0 (healthy) to 2 (memory-only) — also the value
    /// of the `campaign.degrade.level` gauge.
    pub fn gauge(&self) -> i64 {
        match self {
            DegradeLevel::Normal => 0,
            DegradeLevel::WideCadence => 1,
            DegradeLevel::MemoryOnly => 2,
        }
    }

    /// Stable lowercase label used in telemetry and reports.
    pub fn label(&self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::WideCadence => "wide-cadence",
            DegradeLevel::MemoryOnly => "memory-only",
        }
    }

    fn next(&self) -> Option<DegradeLevel> {
        match self {
            DegradeLevel::Normal => Some(DegradeLevel::WideCadence),
            DegradeLevel::WideCadence => Some(DegradeLevel::MemoryOnly),
            DegradeLevel::MemoryOnly => None,
        }
    }
}

impl fmt::Display for DegradeLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Tunables for the [`Supervisor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Total transient-failure retries allowed per campaign. When the
    /// budget runs dry, further failures descend the ladder instead.
    pub retry_budget: u64,
    /// First backoff delay (logical milliseconds; recorded, not slept).
    pub base_backoff_ms: u64,
    /// Backoff cap; doubling stops here.
    pub max_backoff_ms: u64,
    /// Checkpoint-interval multiplier applied at
    /// [`DegradeLevel::WideCadence`].
    pub cadence_factor: u64,
    /// Attempts to recover state from the store at startup before
    /// abandoning the on-disk history and restarting fresh.
    pub recover_attempts: u64,
}

impl Default for SupervisorPolicy {
    /// 8 retries, 1 ms backoff doubling to 64 ms, 4× cadence widening,
    /// 3 recovery attempts.
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            retry_budget: 8,
            base_backoff_ms: 1,
            max_backoff_ms: 64,
            cadence_factor: 4,
            recover_attempts: 3,
        }
    }
}

/// One recorded supervision event: a retry burst, a ladder descent, or
/// an abandoned recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthEvent {
    /// Campaign cursor (`pairs_done`) when the event fired.
    pub pairs_done: u64,
    /// Ladder level *after* the event.
    pub level: DegradeLevel,
    /// What happened and why.
    pub reason: String,
}

/// The loud part of a `Degraded` outcome: everything the supervisor
/// observed and did, renderable for logs and the obs flight report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Final ladder level.
    pub level: DegradeLevel,
    /// Storage faults observed (failed checkpoint/recovery operations).
    pub io_faults: u64,
    /// Transient-failure retries performed.
    pub retries: u64,
    /// The configured retry budget, for context.
    pub retry_budget: u64,
    /// Total logical backoff recorded (what production would have
    /// slept), milliseconds.
    pub backoff_ms_total: u64,
    /// Checkpoint writes skipped in memory-only mode.
    pub writes_skipped: u64,
    /// Every retry burst and ladder descent, in order.
    pub events: Vec<HealthEvent>,
    /// The most recent storage error message.
    pub last_error: Option<String>,
    /// Watchdog alerts that fired during the run (one summary line per
    /// firing transition), annotated by the durable driver when a
    /// `consent-watch` engine is attached.
    pub alerts: Vec<String>,
}

impl HealthReport {
    /// True when the campaign never saw a storage fault.
    pub fn is_healthy(&self) -> bool {
        self.level == DegradeLevel::Normal && self.io_faults == 0
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "level={} io_faults={} retries={}/{} backoff_ms={} writes_skipped={}",
            self.level.label(),
            self.io_faults,
            self.retries,
            self.retry_budget,
            self.backoff_ms_total,
            self.writes_skipped,
        );
        if !self.alerts.is_empty() {
            out.push_str(&format!(" alerts_fired={}", self.alerts.len()));
        }
        out
    }

    /// Multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("storage health report\n");
        out.push_str(&format!("  {}\n", self.summary()));
        if let Some(err) = &self.last_error {
            out.push_str(&format!("  last error: {err}\n"));
        }
        for e in &self.events {
            out.push_str(&format!(
                "  @{} pairs [{}] {}\n",
                e.pairs_done,
                e.level.label(),
                e.reason
            ));
        }
        for a in &self.alerts {
            out.push_str(&format!("  alert: {a}\n"));
        }
        out
    }
}

/// What [`Supervisor::save_with`] did about one checkpoint cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaveVerdict {
    /// The write is durable (possibly after retries/descent); carries
    /// the generation number.
    Saved(u64),
    /// Memory-only mode: the write was skipped by design.
    Skipped,
}

/// The self-healing write supervisor. One per durable campaign run.
#[derive(Debug)]
pub struct Supervisor {
    policy: SupervisorPolicy,
    level: DegradeLevel,
    retries_used: u64,
    io_faults: u64,
    backoff_ms_total: u64,
    writes_skipped: u64,
    events: Vec<HealthEvent>,
    last_error: Option<String>,
}

impl Supervisor {
    /// A fresh supervisor at [`DegradeLevel::Normal`].
    pub fn new(policy: SupervisorPolicy) -> Supervisor {
        Supervisor {
            policy,
            level: DegradeLevel::Normal,
            retries_used: 0,
            io_faults: 0,
            backoff_ms_total: 0,
            writes_skipped: 0,
            events: Vec::new(),
            last_error: None,
        }
    }

    /// Current ladder level.
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// The policy this supervisor runs under.
    pub fn policy(&self) -> &SupervisorPolicy {
        &self.policy
    }

    /// True when the campaign has left [`DegradeLevel::Normal`] — the
    /// driver maps this to a `Degraded` outcome.
    pub fn degraded(&self) -> bool {
        self.level != DegradeLevel::Normal
    }

    /// Snapshot the health ledger.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            level: self.level,
            io_faults: self.io_faults,
            retries: self.retries_used,
            retry_budget: self.policy.retry_budget,
            backoff_ms_total: self.backoff_ms_total,
            writes_skipped: self.writes_skipped,
            events: self.events.clone(),
            last_error: self.last_error.clone(),
            alerts: Vec::new(),
        }
    }

    fn record_fault(&mut self, err: &io::Error) {
        self.io_faults += 1;
        self.last_error = Some(err.to_string());
        consent_telemetry::count("checkpoint.io_fault", 1);
    }

    fn descend(&mut self, pairs_done: u64, reason: &str) {
        let Some(next) = self.level.next() else {
            return;
        };
        self.level = next;
        consent_telemetry::gauge_set("campaign.degrade.level", next.gauge());
        consent_telemetry::count_labeled("campaign.degrade", &[("level", next.label())], 1);
        self.events.push(HealthEvent {
            pairs_done,
            level: next,
            reason: reason.to_string(),
        });
    }

    /// Record (never sleep) one capped-exponential backoff delay.
    fn backoff(&mut self) {
        let exp = self.retries_used.saturating_sub(1).min(32);
        let ms = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << exp)
            .min(self.policy.max_backoff_ms);
        self.backoff_ms_total += ms;
        consent_telemetry::observe("supervisor.backoff_ms", ms);
    }

    /// Run one checkpoint write under supervision.
    ///
    /// `attempt` writes the cut and may be called repeatedly: transient
    /// failures retry out of the campaign budget, persistent failures
    /// and budget exhaustion descend the ladder.
    /// Never returns an error — on reaching
    /// [`DegradeLevel::MemoryOnly`] the write is skipped and the
    /// campaign carries on in memory.
    pub fn save_with<F>(&mut self, pairs_done: u64, mut attempt: F) -> SaveVerdict
    where
        F: FnMut() -> io::Result<u64>,
    {
        let mut first_fault: Option<Instant> = None;
        loop {
            if self.level == DegradeLevel::MemoryOnly {
                self.writes_skipped += 1;
                consent_telemetry::count("checkpoint.skipped", 1);
                return SaveVerdict::Skipped;
            }
            match attempt() {
                Ok(generation) => {
                    if let Some(t0) = first_fault {
                        // Healed: recovery time from first failure of
                        // this cut to the durable write.
                        consent_telemetry::observe(
                            "supervisor.mttr_us",
                            t0.elapsed().as_micros() as u64,
                        );
                    }
                    return SaveVerdict::Saved(generation);
                }
                Err(err) => {
                    first_fault.get_or_insert_with(Instant::now);
                    self.record_fault(&err);
                    match classify_io_error(&err) {
                        IoErrorClass::Persistent => {
                            // Retrying a full disk wastes the budget;
                            // descend immediately.
                            self.descend(pairs_done, &format!("persistent storage fault: {err}"));
                        }
                        IoErrorClass::Transient if self.retries_used < self.policy.retry_budget => {
                            self.retries_used += 1;
                            consent_telemetry::count("checkpoint.retry", 1);
                            self.backoff();
                        }
                        IoErrorClass::Transient => {
                            self.descend(
                                pairs_done,
                                &format!(
                                    "retry budget exhausted ({}): {err}",
                                    self.policy.retry_budget
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Run state recovery under supervision: up to
    /// [`SupervisorPolicy::recover_attempts`] tries, then give up on
    /// the on-disk history. Returns `Ok(v)` on success and `Err(last)`
    /// when every attempt failed — the driver then restarts the
    /// campaign from scratch (safe: deterministic re-crawl reproduces
    /// the same final state) after recording a loud event.
    pub fn recover_with<T, F>(&mut self, mut attempt: F) -> Result<T, io::Error>
    where
        F: FnMut() -> io::Result<T>,
    {
        let attempts = self.policy.recover_attempts.max(1);
        let mut last: Option<io::Error> = None;
        for i in 0..attempts {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(err) => {
                    self.record_fault(&err);
                    if i + 1 < attempts {
                        self.retries_used += 1;
                        consent_telemetry::count("checkpoint.retry", 1);
                        self.backoff();
                    }
                    last = Some(err);
                }
            }
        }
        let err = last.expect("attempts >= 1");
        self.events.push(HealthEvent {
            pairs_done: 0,
            level: self.level,
            reason: format!("recovery abandoned after {attempts} attempts: {err}"),
        });
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eio() -> io::Error {
        io::Error::other("EIO: injected i/o error at op 0 (sync)")
    }

    fn enospc() -> io::Error {
        io::Error::other("ENOSPC: injected out-of-space at op 0 (write)")
    }

    #[test]
    fn clean_save_stays_normal() {
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let v = sup.save_with(10, || Ok(7));
        assert_eq!(v, SaveVerdict::Saved(7));
        assert_eq!(sup.level(), DegradeLevel::Normal);
        assert!(sup.report().is_healthy());
    }

    #[test]
    fn transient_fault_retries_and_heals() {
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let mut calls = 0;
        let v = sup.save_with(10, || {
            calls += 1;
            if calls < 3 {
                Err(eio())
            } else {
                Ok(4)
            }
        });
        assert_eq!(v, SaveVerdict::Saved(4));
        assert_eq!(sup.level(), DegradeLevel::Normal, "healed, not degraded");
        let r = sup.report();
        assert_eq!((r.io_faults, r.retries), (2, 2));
        assert!(r.backoff_ms_total > 0, "backoff recorded");
    }

    #[test]
    fn persistent_fault_descends_without_burning_budget() {
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let mut calls = 0;
        let v = sup.save_with(10, || {
            calls += 1;
            if calls == 1 {
                Err(enospc())
            } else {
                Ok(9)
            }
        });
        assert_eq!(v, SaveVerdict::Saved(9));
        assert_eq!(sup.level(), DegradeLevel::WideCadence);
        assert_eq!(sup.report().retries, 0, "no retries spent on ENOSPC");
        assert_eq!(calls, 2, "one descent, then the write lands");
    }

    #[test]
    fn budget_exhaustion_walks_the_whole_ladder_and_terminates() {
        let policy = SupervisorPolicy {
            retry_budget: 2,
            ..SupervisorPolicy::default()
        };
        let mut sup = Supervisor::new(policy);
        let mut calls = 0u64;
        let v = sup.save_with(5, || {
            calls += 1;
            Err(eio())
        });
        // 3 attempts at Normal (initial + 2 retries), then one failing
        // attempt at WideCadence before MemoryOnly skips.
        assert_eq!(v, SaveVerdict::Skipped);
        assert_eq!(sup.level(), DegradeLevel::MemoryOnly);
        assert_eq!(calls, 3 + 1, "terminates instead of wedging");
        let r = sup.report();
        assert_eq!(r.retries, 2);
        assert_eq!(r.events.len(), 2, "one event per descent:\n{}", r.render());
        assert!(r.render().contains("retry budget exhausted"));
    }

    #[test]
    fn memory_only_skips_all_subsequent_writes() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            retry_budget: 0,
            ..SupervisorPolicy::default()
        });
        assert_eq!(sup.save_with(1, || Err(eio())), SaveVerdict::Skipped);
        let mut called = false;
        let v = sup.save_with(2, || {
            called = true;
            Ok(1)
        });
        assert_eq!(v, SaveVerdict::Skipped);
        assert!(!called, "memory-only never touches the disk again");
        assert_eq!(sup.report().writes_skipped, 2);
    }

    #[test]
    fn recover_retries_then_gives_up() {
        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let mut calls = 0;
        let out: Result<(), _> = sup.recover_with(|| {
            calls += 1;
            Err(eio())
        });
        assert!(out.is_err());
        assert_eq!(calls, 3, "default recover_attempts");
        assert!(sup
            .report()
            .events
            .iter()
            .any(|e| e.reason.contains("recovery abandoned")));

        let mut sup = Supervisor::new(SupervisorPolicy::default());
        let mut calls = 0;
        let out = sup.recover_with(|| {
            calls += 1;
            if calls < 2 {
                Err(eio())
            } else {
                Ok(41)
            }
        });
        assert_eq!(out.unwrap(), 41);
    }

    #[test]
    fn backoff_is_capped_and_deterministic() {
        let policy = SupervisorPolicy {
            retry_budget: 20,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
            ..SupervisorPolicy::default()
        };
        let run = || {
            let mut sup = Supervisor::new(policy);
            let mut calls = 0;
            sup.save_with(0, || {
                calls += 1;
                if calls <= 10 {
                    Err(eio())
                } else {
                    Ok(1)
                }
            });
            sup.report().backoff_ms_total
        };
        let total = run();
        // 1+2+4+8 then 8×6 = 63: doubling from base, capped at 8.
        assert_eq!(total, 63);
        assert_eq!(run(), total, "backoff totals are pure");
    }

    #[test]
    fn report_renders_summary_and_events() {
        let mut sup = Supervisor::new(SupervisorPolicy {
            retry_budget: 0,
            ..SupervisorPolicy::default()
        });
        let mut calls = 0;
        sup.save_with(3, || {
            calls += 1;
            if calls == 1 {
                Err(enospc())
            } else {
                Ok(1)
            }
        });
        let r = sup.report();
        assert!(!r.is_healthy());
        assert!(
            r.summary().contains("level=wide-cadence"),
            "{}",
            r.summary()
        );
        assert!(r.render().contains("persistent storage fault"));
        assert_eq!(r.events[0].pairs_done, 3);
    }
}
