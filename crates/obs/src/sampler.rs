//! The live sampler: turns registry deltas into [`ObsSample`]s, either
//! periodically or for the durable driver's closed windows.
//!
//! # Two modes, one determinism boundary
//!
//! [`SampleMode::WallClock`] is the production mode: [`Sampler::start`]
//! spawns a monotonic background thread that samples every `interval`
//! against the sampler's own baseline. Its output carries wall-clock
//! timestamps, gauge readings, and per-window latency summaries — and
//! is explicitly **outside** the workspace's byte-identity guarantee
//! (when a sample lands depends on scheduling).
//!
//! [`SampleMode::LogicalTick`] keeps the determinism story testable.
//! Here the sampler holds no baseline: the durable campaign driver owns
//! the one observation window (a registry baseline and the cursor it
//! was taken at) and hands [`Sampler::record`] each window it closes,
//! immediately after a successful checkpoint save — so a sample exists
//! iff the window it describes survived a crash. In this mode the
//! sample drops everything nondeterministic: no wall time, no gauges
//! (point-in-time racy reads), histograms reduced to event-count deltas
//! (how *many* pairs ran is deterministic; how long they took is not),
//! and keys matching the [deny list](ObsConfig::deny) removed (e.g.
//! `campaign.parallel.*`, whose per-shard sample counts vary with the
//! thread count). The resulting `OBS_*.jsonl` is byte-identical across
//! 1/2/4 threads and kill-halfway resumes — asserted by
//! `tests/it_obs.rs`.
//!
//! # Resume
//!
//! After recovery a resumed process re-counts work it never performed
//! (checkpoint import calls `CaptureDb::insert`, the store counts
//! `checkpoint.opens`, the trace replay re-crawls recovered pairs). The
//! driver opens its window only after recovery and that replay, so
//! none of this traffic reaches a sample. Because a logical sample's
//! identity is its cursor window — `seq == tick == pairs_done` — no
//! sampler state needs to be persisted for the concatenated exports of
//! a killed run and its resume to equal an uninterrupted run's.

use crate::series::{ObsSample, TimeSeries};
use consent_telemetry::{Registry, Snapshot};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Metric-key prefixes dropped from logical-tick samples by default.
///
/// `campaign.parallel.` is thread-count-dependent by construction: its
/// `shard_pairs` histogram records one sample per worker shard and its
/// `workers` gauge is the thread count, so keeping the family would
/// break byte-identity across 1/2/4-thread runs. `checkpoint.pruned`
/// depends on how many generations a crash left on disk, which differs
/// between an uninterrupted run and a kill-halfway resume. `watch.` is
/// the watchdog's own lifecycle telemetry: alert counters land in the
/// registry on commit — after the covering sample was emitted — so
/// they would surface one window late and vanish across a resume. The
/// delta-checkpoint families (`checkpoint.delta.`, `checkpoint.rebase`,
/// `checkpoint.chain.`) encode chain *position* — every resume opens a
/// fresh full base, so a kill-halfway run's delta/rebase counts differ
/// from an uninterrupted run's even though the measurement bytes match.
pub const DEFAULT_DENY: &[&str] = &[
    "campaign.parallel.",
    "checkpoint.pruned",
    "checkpoint.delta.",
    "checkpoint.rebase",
    "checkpoint.chain.",
    "watch.",
];

/// When samples are taken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleMode {
    /// Background thread samples every `interval` (production; outside
    /// the byte-identity guarantee).
    WallClock {
        /// Time between samples.
        interval: Duration,
    },
    /// Samples only the windows passed to [`Sampler::record`] (the
    /// durable driver's checkpoint cuts); output is deterministic.
    LogicalTick,
}

/// Sampler configuration.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Ring-buffer capacity in samples (oldest evicted beyond this).
    pub capacity: usize,
    /// Wall-clock or logical-tick sampling.
    pub mode: SampleMode,
    /// Key prefixes removed from every sample.
    pub deny: Vec<String>,
}

impl Default for ObsConfig {
    /// Wall-clock sampling at 250 ms, 4096-sample ring, nothing denied.
    fn default() -> ObsConfig {
        ObsConfig {
            capacity: 4096,
            mode: SampleMode::WallClock {
                interval: Duration::from_millis(250),
            },
            deny: Vec::new(),
        }
    }
}

impl ObsConfig {
    /// The deterministic logical-tick configuration: samples at durable
    /// chunk boundaries, [`DEFAULT_DENY`] prefixes removed.
    pub fn deterministic() -> ObsConfig {
        ObsConfig {
            capacity: 4096,
            mode: SampleMode::LogicalTick,
            deny: DEFAULT_DENY.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Wall-clock sampling at `interval`, defaults otherwise.
    pub fn wall(interval: Duration) -> ObsConfig {
        ObsConfig {
            mode: SampleMode::WallClock { interval },
            ..ObsConfig::default()
        }
    }
}

struct Inner {
    /// Wall-clock baseline: the next wall sample is the registry delta
    /// since this (logical samples get their delta from the caller).
    base: Snapshot,
    series: TimeSeries,
    /// Wall-clock sample count (logical mode derives seq from the tick).
    wall_seq: u64,
    started: Instant,
}

/// Samples a [`Registry`] into a [`TimeSeries`] (see the
/// [module docs](self) for the two modes).
pub struct Sampler {
    registry: &'static Registry,
    mode: SampleMode,
    deny: Vec<String>,
    inner: Mutex<Inner>,
}

impl fmt::Debug for Sampler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Sampler")
            .field("mode", &self.mode)
            .field("deny", &self.deny)
            .field("samples", &inner.series.len())
            .finish()
    }
}

impl Sampler {
    /// Attach a sampler to `registry`, taking the baseline snapshot
    /// now: traffic before this call is not attributed to any window.
    pub fn attach(registry: &'static Registry, config: ObsConfig) -> Arc<Sampler> {
        Arc::new(Sampler {
            registry,
            mode: config.mode,
            deny: config.deny,
            inner: Mutex::new(Inner {
                base: registry.snapshot(),
                series: TimeSeries::new(config.capacity),
                wall_seq: 0,
                started: Instant::now(),
            }),
        })
    }

    /// The sampling mode this sampler was configured with.
    pub fn mode(&self) -> &SampleMode {
        &self.mode
    }

    /// Record one deterministic sample for the closed window
    /// `(from, to]` from `delta`, its registry traffic (see the
    /// [module docs](self)): counters and histogram event counts minus
    /// the [deny list](ObsConfig::deny). No-op unless the mode is
    /// [`SampleMode::LogicalTick`], and for an empty window.
    pub fn record(&self, window: (u64, u64), delta: &Snapshot) {
        if self.mode != SampleMode::LogicalTick || window.1 <= window.0 {
            return;
        }
        let sample = ObsSample {
            seq: window.1,
            tick: window.1,
            window,
            elapsed_us: None,
            counters: self.filter_counters(delta),
            events: self.filter_events(delta),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        };
        self.inner.lock().series.push(sample);
    }

    /// Take one wall-clock sample now. No-op in logical-tick mode
    /// (chunk boundaries own the sampling there).
    pub fn sample_now(&self) {
        if self.mode == SampleMode::LogicalTick {
            return;
        }
        let snap = self.registry.snapshot();
        let mut inner = self.inner.lock();
        let delta = snap.delta_since(&inner.base);
        inner.wall_seq += 1;
        let seq = inner.wall_seq;
        let sample = ObsSample {
            seq,
            tick: seq,
            window: (seq - 1, seq),
            elapsed_us: Some(inner.started.elapsed().as_micros() as u64),
            counters: self.filter_counters(&delta),
            events: BTreeMap::new(),
            gauges: delta
                .gauges
                .iter()
                .filter(|(k, _)| !self.denied(k))
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: delta
                .histograms
                .iter()
                .filter(|(k, _)| !self.denied(k))
                .map(|(k, h)| (k.clone(), *h))
                .collect(),
        };
        inner.base = snap;
        inner.series.push(sample);
    }

    /// Spawn the background sampling thread (wall-clock mode only; in
    /// logical-tick mode the returned handle is inert). The thread
    /// samples every `interval` until [`SamplerHandle::stop`] — which
    /// takes one final sample so trailing traffic is never lost — or
    /// the handle is dropped.
    pub fn start(self: &Arc<Self>) -> SamplerHandle {
        let SampleMode::WallClock { interval } = self.mode else {
            return SamplerHandle {
                stop: Arc::new((StdMutex::new(false), Condvar::new())),
                thread: None,
            };
        };
        let stop = Arc::new((StdMutex::new(false), Condvar::new()));
        let sampler = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("consent-obs-sampler".to_string())
            .spawn(move || {
                let (lock, cvar) = &*flag;
                let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                while !*stopped {
                    let (guard, _) = cvar
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(|e| e.into_inner());
                    stopped = guard;
                    if *stopped {
                        break;
                    }
                    sampler.sample_now();
                }
                // Final sample: traffic between the last periodic
                // sample and the stop signal is still recorded.
                drop(stopped);
                sampler.sample_now();
            })
            .expect("spawn obs sampler thread");
        SamplerHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// A copy of the sampled series so far.
    pub fn series(&self) -> TimeSeries {
        self.inner.lock().series.clone()
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().series.len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().series.dropped()
    }

    /// Export the retained samples as `OBS_*.jsonl` (see
    /// [`TimeSeries::export_jsonl`]).
    pub fn export_jsonl(&self) -> String {
        self.inner.lock().series.export_jsonl()
    }

    /// Prometheus text exposition of the registry's *current* state
    /// (cumulative, not per-window — what a scrape endpoint would
    /// serve).
    pub fn prometheus(&self) -> String {
        crate::prometheus::exposition(&self.registry.snapshot())
    }

    fn denied(&self, key: &str) -> bool {
        self.deny.iter().any(|p| key.starts_with(p.as_str()))
    }

    fn filter_counters(&self, delta: &Snapshot) -> BTreeMap<String, u64> {
        delta
            .counters
            .iter()
            .filter(|(k, _)| !self.denied(k))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    fn filter_events(&self, delta: &Snapshot) -> BTreeMap<String, u64> {
        delta
            .histograms
            .iter()
            .filter(|(k, h)| h.count > 0 && !self.denied(k))
            .map(|(k, h)| (k.clone(), h.count))
            .collect()
    }
}

/// Stops the background sampling thread when asked (or on drop).
#[derive(Debug)]
pub struct SamplerHandle {
    stop: Arc<(StdMutex<bool>, Condvar)>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl SamplerHandle {
    /// Signal the thread, wait for it to exit, then take one final
    /// sample so the window between the last periodic sample and the
    /// stop is recorded.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cvar.notify_all();
        let _ = thread.join();
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
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
        reg.counter("campaign.parallel.denied").add(9);
        reg.histogram("campaign.pair").record(40);
        reg.gauge("campaign.cursor").set(5);
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
        assert_eq!(samples[0].seq, 5);
        assert_eq!(samples[0].counters.get("campaign.progress"), Some(&5));
        assert_eq!(samples[0].events.get("campaign.pair"), Some(&1));
        assert!(samples[0].gauges.is_empty(), "gauges are nondeterministic");
        assert!(samples[0].histograms.is_empty());
        assert!(
            !samples[0].counters.contains_key("campaign.parallel.denied"),
            "deny prefix must drop the parallel family"
        );
        assert_eq!(samples[0].elapsed_us, None);
        assert_eq!(samples[1].window, (5, 9));
        assert_eq!(samples[1].counters.get("campaign.progress"), Some(&4));
        assert!(
            !samples[1].counters.contains_key("campaign.pairs_other"),
            "untouched counters are not re-reported"
        );
    }

    #[test]
    fn wall_mode_keeps_gauges_and_histograms() {
        let reg = leaked_registry();
        let sampler = Sampler::attach(reg, ObsConfig::default());
        reg.counter("c").add(2);
        reg.gauge("g").set(11);
        reg.histogram("h").record(30);
        sampler.sample_now();
        let series = sampler.series();
        let s = series.latest().unwrap();
        assert_eq!(s.seq, 1);
        assert!(s.elapsed_us.is_some());
        assert_eq!(s.gauges.get("g"), Some(&11));
        assert_eq!(s.histograms.get("h").unwrap().count, 1);
        // record is inert outside logical mode.
        sampler.record((0, 50), &reg.snapshot());
        assert_eq!(sampler.len(), 1);
    }

    #[test]
    fn background_thread_samples_and_stops() {
        let reg = leaked_registry();
        let sampler = Sampler::attach(reg, ObsConfig::wall(Duration::from_millis(5)));
        let handle = sampler.start();
        reg.counter("bg").add(1);
        std::thread::sleep(Duration::from_millis(40));
        handle.stop();
        let after_stop = sampler.len();
        assert!(after_stop >= 1, "background thread never sampled");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(sampler.len(), after_stop, "thread survived stop()");
    }

    #[test]
    fn logical_mode_start_is_inert() {
        let reg = leaked_registry();
        let sampler = Sampler::attach(reg, ObsConfig::deterministic());
        let handle = sampler.start();
        std::thread::sleep(Duration::from_millis(10));
        handle.stop();
        assert_eq!(sampler.len(), 0);
    }
}
