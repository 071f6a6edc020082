//! The sampler: turns the observation windows `run_durable_campaign`
//! closes into [`ObsSample`]s.
//!
//! # One plane, inside the determinism boundary
//!
//! The sampler holds no baseline and runs no thread:
//! `run_durable_campaign` owns the one observation window (a registry
//! baseline and the cursor it was taken at) and hands
//! [`Sampler::record`] each window it closes, immediately after a
//! successful checkpoint save — so a sample exists iff the window it
//! describes survived a crash. A sample keeps only what is
//! deterministic: counter deltas and histogram event-count deltas (how
//! *many* pairs ran is deterministic; how long they took is not), minus
//! the keys matching [`DEFAULT_DENY`]. No wall time and no gauges
//! (point-in-time racy reads) enter a sample. The resulting
//! `OBS_*.jsonl` is byte-identical across 1/2/4 threads and
//! kill-halfway resumes — asserted by `tests/it_obs.rs`.
//!
//! # Resume
//!
//! After recovery a resumed process re-counts work it never performed
//! (checkpoint import counts its rows as inserts, the store counts
//! `checkpoint.opens`, the trace replay re-crawls recovered pairs). The
//! driver opens its window only after recovery and that replay, so
//! none of this traffic reaches a sample. Because a sample's identity
//! is its cursor window — `seq == tick == pairs_done` — no sampler
//! state needs to be persisted for the concatenated exports of a killed
//! run and its resume to equal an uninterrupted run's.

use crate::series::{ObsSample, TimeSeries};
use consent_telemetry::{Registry, Snapshot};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Metric-key prefixes dropped from every sample.
///
/// `checkpoint.pruned` depends on how many generations a crash left on
/// disk, which differs between an uninterrupted run and a kill-halfway
/// resume. `watch.` is the watchdog's own lifecycle telemetry: alert
/// counters land in the registry on commit — after the covering sample
/// was emitted — so they would surface one window late and vanish
/// across a resume. The delta-checkpoint families
/// (`checkpoint.delta.`, `checkpoint.rebase`, `checkpoint.chain.`)
/// encode chain *position* — every resume opens a fresh full base, so a
/// kill-halfway run's delta/rebase counts differ from an uninterrupted
/// run's even though the measurement bytes match.
pub const DEFAULT_DENY: &[&str] = &[
    "checkpoint.pruned",
    "checkpoint.delta.",
    "checkpoint.rebase",
    "checkpoint.chain.",
    "watch.",
];

/// Sampler configuration.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Ring-buffer capacity in samples (oldest evicted beyond this).
    pub capacity: usize,
}

impl ObsConfig {
    /// The standard configuration: a 4096-sample ring.
    pub fn deterministic() -> ObsConfig {
        ObsConfig { capacity: 4096 }
    }
}

/// Samples a [`Registry`]'s closed windows into a [`TimeSeries`] (see
/// the [module docs](self)).
pub struct Sampler {
    registry: &'static Registry,
    series: Mutex<TimeSeries>,
}

impl fmt::Debug for Sampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sampler")
            .field("samples", &self.len())
            .finish()
    }
}

impl Sampler {
    /// Attach a sampler to `registry`. It samples only the windows
    /// passed to [`record`](Self::record); `registry` is what
    /// [`prometheus`](Self::prometheus) renders.
    pub fn attach(registry: &'static Registry, config: ObsConfig) -> Arc<Sampler> {
        Arc::new(Sampler {
            registry,
            series: Mutex::new(TimeSeries::new(config.capacity)),
        })
    }

    /// Record one sample for the closed window `(from, to]` from
    /// `delta`, its registry traffic (see the [module docs](self)):
    /// counters and histogram event counts minus [`DEFAULT_DENY`].
    /// No-op for an empty window.
    pub fn record(&self, window: (u64, u64), delta: &Snapshot) {
        if window.1 <= window.0 {
            return;
        }
        let sample = ObsSample {
            window,
            counters: delta
                .counters
                .iter()
                .filter(|(k, _)| !denied(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            events: delta
                .histograms
                .iter()
                .filter(|(k, h)| h.count > 0 && !denied(k))
                .map(|(k, h)| (k.clone(), h.count))
                .collect(),
        };
        self.series.lock().push(sample);
    }

    /// A copy of the sampled series so far.
    pub fn series(&self) -> TimeSeries {
        self.series.lock().clone()
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.series.lock().len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.series.lock().dropped()
    }

    /// Export the retained samples as `OBS_*.jsonl` (see
    /// [`TimeSeries::export_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        self.series.lock().export_jsonl()
    }

    /// Prometheus text exposition of the registry's *current* state
    /// (cumulative, not per-window — what a scrape endpoint would
    /// serve).
    pub fn prometheus(&self) -> String {
        crate::prometheus::exposition(&self.registry.snapshot())
    }
}

fn denied(key: &str) -> bool {
    DEFAULT_DENY.iter().any(|p| key.starts_with(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn logical_ticks_window_counter_deltas() {
        let reg = leaked_registry();
        let sampler = Sampler::attach(reg, ObsConfig::deterministic());
        reg.counter("campaign.progress").add(3); // before the window opens
        let base = reg.snapshot();

        reg.counter("campaign.progress").add(5);
        reg.counter("checkpoint.pruned").add(9);
        reg.histogram("campaign.pair").record(40);
        reg.gauge("campaign.degrade.level").set(1);
        sampler.record((0, 5), &reg.delta(&base));
        let base = reg.snapshot();

        reg.counter("campaign.progress").add(4);
        let delta = reg.delta(&base);
        sampler.record((5, 9), &delta);
        sampler.record((9, 9), &delta); // empty window: no sample

        let series = sampler.series();
        assert_eq!(series.len(), 2);
        let samples: Vec<_> = series.samples().cloned().collect();
        assert_eq!(samples[0].window, (0, 5));
        assert_eq!(samples[0].tick(), 5);
        assert_eq!(samples[0].counters.get("campaign.progress"), Some(&5));
        assert_eq!(samples[0].events.get("campaign.pair"), Some(&1));
        assert!(
            !samples[0].counters.contains_key("checkpoint.pruned"),
            "deny prefix must drop the crash-dependent prune count"
        );
        let line = sampler.export_jsonl();
        assert!(
            !line.contains("campaign.degrade.level"),
            "gauges are nondeterministic: {line}"
        );
        assert_eq!(samples[1].window, (5, 9));
        assert_eq!(samples[1].counters.get("campaign.progress"), Some(&4));
        assert!(
            !samples[1].counters.contains_key("campaign.pairs_other"),
            "untouched counters are not re-reported"
        );
    }
}
