//! Metric names, timing primitives and the per-layer ledger.
//!
//! Every timing here is taken by the benchmark's own code around calls
//! into a crate's public functions; nothing inside the program is
//! instrumented.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// End-to-end metrics an untraced run reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("rep_s_p50", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics a traced run reports: `(name, unit)`. A layer a
/// workload bypasses reads 0 on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("toplist.build_s", "s"),
    ("toplist.resolve_s", "s"),
    ("toplist.seeds", "count"),
    ("httpsim.capture_us_p50", "us"),
    ("httpsim.capture_us_p99", "us"),
    ("httpsim.busy_s", "s"),
    ("fingerprint.detect_us_p50", "us"),
    ("fingerprint.detect_us_p99", "us"),
    ("fingerprint.busy_s", "s"),
    ("crawler.capture_db.ingest_us_p50", "us"),
    ("crawler.capture_db.ingest_us_p99", "us"),
    ("crawler.capture_db.rows", "count"),
    ("crawler.parallel.run_s", "s"),
    ("crawler.parallel.run_s_1t", "s"),
    ("crawler.parallel.speedup", "ratio"),
    ("crawler.parallel.non_capture_s", "s"),
    ("crawler.export.state_s", "s"),
    ("crawler.export.bytes", "bytes"),
    ("analysis.exports_s", "s"),
    ("crawler.feed.items", "count"),
    ("crawler.feed.day_items_s", "s"),
    ("crawler.queue.offers", "count"),
    ("crawler.queue.admit_ratio", "ratio"),
    ("crawler.queue.busy_s", "s"),
    ("analysis.timelines_s", "s"),
    ("analysis.series_s", "s"),
    ("analysis.switch_s", "s"),
    ("checkpoint.cuts", "count"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.bytes_per_pair", "bytes"),
    ("checkpoint.syncs", "count"),
    ("checkpoint.sync_s", "s"),
    ("checkpoint.write_s", "s"),
    ("checkpoint.recover_s", "s"),
    ("checkpoint.recrawled_pairs", "count"),
    ("supervisor.retries", "count"),
    ("recorders.off_s", "s"),
    ("recorders.telemetry_s", "s"),
    ("recorders.trace_s", "s"),
    ("recorders.obs_watch_s", "s"),
    ("trace.export_s", "s"),
    ("trace.export_bytes", "bytes"),
    ("obs.samples", "count"),
    ("obs.export_s", "s"),
    ("watch.alert_events", "count"),
    ("watch.export_s", "s"),
    ("bundle.input_s", "s"),
    ("bundle.pack_s", "s"),
    ("bundle.blobs_new", "count"),
    ("bundle.syncs", "count"),
    ("bundle.sync_s", "s"),
    ("bundle.bytes_written", "bytes"),
    ("bundle.dedup_ratio", "ratio"),
    ("bundle.verify_s", "s"),
    ("bundle.replay_s", "s"),
    ("bench.host_speed", "ratio"),
    ("bench.rep_s_wall_p50", "s"),
    ("bench.rep_s_traced", "s"),
    ("bench.unaccounted_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// The per-layer values of one traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Record `value` for a [`PER_LAYER`] metric.
    ///
    /// # Panics
    /// Panics if `name` is not a declared per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every [`PER_LAYER`] metric as `(name, value, unit)`, 0 where
    /// the workload did not touch the layer.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.get(name).unwrap_or(0.0), unit))
            .collect()
    }
}

/// Run `f`, returning its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Busy time and per-call latencies of one layer.
#[derive(Debug, Default)]
pub struct Busy {
    total: Duration,
    calls_ns: Vec<u64>,
}

impl Busy {
    /// Time one call into the layer.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.total += took;
        self.calls_ns
            .push(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
        out
    }

    /// Total time spent in the layer, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.total.as_secs_f64()
    }

    /// The `q`-quantile of per-call latency, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut us: Vec<f64> = self.calls_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        quantile(&us, q)
    }
}

/// Run `rep` back to back until `seconds` of wall time have passed and
/// it ran at least `min` times. `rep` returns the seconds it wants
/// counted (its timed region); the rest of its wall time is checking.
pub fn repeat_for(seconds: f64, min: usize, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min || start.elapsed().as_secs_f64() < seconds {
        times.push(rep());
    }
    times
}

/// The `q`-quantile of `sorted` by linear interpolation (0 if empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (0 if empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The calibration kernel's median time on the reference host, a
/// 2-vCPU KVM guest on a Xeon (Sapphire Rapids) with nothing else of
/// its own running.
pub const REFERENCE_KERNEL_S: f64 = 0.08;

/// Keys the calibration kernel inserts and looks up.
const KERNEL_KEYS: u64 = 150_000;

/// How fast the host runs right now, against the reference host: above
/// 1 when faster. Runs a fixed kernel of the benchmark's own, a
/// `HashMap` with `String` keys that is built, grown and probed (hashing,
/// allocation and cache misses, as in the workloads), and divides the
/// reference time by its wall time.
///
/// A shared host's speed drifts by tens of percent within a minute as
/// its neighbours load the memory system. The benchmark runs this right
/// after each set-up and each timed repetition and multiplies that
/// stretch's wall time by the speed, which gives its time at the
/// reference speed. The kernel calls nothing of the program, so a
/// change to the program moves the scaled time as much as the wall time.
pub fn host_speed() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<String, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for i in 0..KERNEL_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(format!("host{}.example", x % 100_000), i);
    }
    let hits = (0..KERNEL_KEYS)
        .filter(|i| map.contains_key(&format!("host{i}.example")))
        .count();
    std::hint::black_box(hits);
    REFERENCE_KERNEL_S / start.elapsed().as_secs_f64()
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(is_name(name), "bad metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit} of {name}"
            );
            assert!(
                all[..i].iter().all(|(n, _)| n != name),
                "duplicate metric {name}"
            );
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn host_speed_is_a_positive_ratio() {
        let speed = host_speed();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
    }

    #[test]
    fn ledger_reports_every_layer_metric() {
        let mut ledger = Ledger::default();
        ledger.set("bundle.pack_s", 1.5);
        let metrics = ledger.metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(metrics.contains(&("bundle.pack_s", 1.5, "s")));
        assert!(metrics.contains(&("toplist.seeds", 0.0, "count")));
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn ledger_rejects_undeclared_names() {
        Ledger::default().set("bundle.packs", 1.0);
    }
}
