//! The labeled metric registry and its snapshots/exporters.

use crate::counter::{Counter, Gauge};
use crate::histogram::{HistSummary, Histogram};
use crate::span::Span;
use consent_util::table::{thousands, Table};
use consent_util::Json;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Encode a labeled metric key: `name{k=v,k2=v2}` in caller order.
pub fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key.push('}');
    key
}

/// Split a metric key into its base name and label pairs.
pub fn parse_key(key: &str) -> (&str, Vec<(&str, &str)>) {
    match key.split_once('{') {
        None => (key, Vec::new()),
        Some((base, rest)) => {
            let rest = rest.strip_suffix('}').unwrap_or(rest);
            let labels = rest
                .split(',')
                .filter_map(|pair| pair.split_once('='))
                .collect();
            (base, labels)
        }
    }
}

/// A set of named counters, gauges, and histograms.
///
/// Metric families are flat: a "family" is the set of keys sharing a
/// base name with different labels (see [`labeled_key`]). Lookups take
/// a read lock on the hot path and upgrade to a write lock only on
/// first use of a name.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    /// Open `RunReport::collect` windows (see [`Registry::begin_collect`]).
    collects: AtomicUsize,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Guard for one open `RunReport::collect` window; closes it on drop.
#[derive(Debug)]
pub struct CollectGuard<'a> {
    registry: &'a Registry,
}

impl Drop for CollectGuard<'_> {
    fn drop(&mut self) {
        self.registry.collects.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Registry {
    /// A recording registry.
    pub fn new() -> Registry {
        let r = Registry::default();
        r.enabled.store(true, Ordering::Relaxed);
        r
    }

    /// A registry that hands out inert spans and whose convenience
    /// recording entry points are no-ops (used as the global default so
    /// un-instrumented runs pay one atomic load per site).
    pub fn disabled() -> Registry {
        Registry::default()
    }

    /// Is this registry recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, key: &str) -> Arc<T> {
        if let Some(existing) = map.read().get(key) {
            return Arc::clone(existing);
        }
        Arc::clone(map.write().entry(key.to_string()).or_default())
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, name)
    }

    /// The counter for `name` with `labels`.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        Self::get_or_insert(&self.counters, &labeled_key(name, labels))
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::get_or_insert(&self.gauges, name)
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, name)
    }

    /// The histogram for `name` with `labels`.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        Self::get_or_insert(&self.histograms, &labeled_key(name, labels))
    }

    /// Start a span recording into histogram `name` (micros), or an
    /// inert span while disabled.
    pub fn span(&self, name: &str) -> Span {
        if self.enabled() {
            Span::active(self.histogram(name))
        } else {
            Span::inert()
        }
    }

    /// Drop every registered metric, leaving the enable flag untouched.
    ///
    /// Tests and the benchmark call this between runs so each run's
    /// counters and histograms (and their p50/p95) describe that run alone.
    /// `Arc` handles obtained *before* the reset keep recording into
    /// their now-detached metrics — take them again afterwards. Do not
    /// reset inside an open [`RunReport::collect`](crate::RunReport::collect)
    /// window: the snapshot delta would go negative.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
    }

    /// Open a collect window (called by `RunReport::collect`). In debug
    /// builds, opening a second window while one is in flight panics:
    /// snapshot-delta reports attribute *all* registry traffic in their
    /// window to themselves, so overlapping windows on the same registry
    /// silently double-count each other's metrics. Release builds only
    /// track the count.
    pub fn begin_collect(&self) -> CollectGuard<'_> {
        let prev = self.collects.fetch_add(1, Ordering::Relaxed);
        debug_assert_eq!(
            prev, 0,
            "overlapping RunReport::collect windows on one registry double-count metrics"
        );
        CollectGuard { registry: self }
    }

    /// How many collect windows are currently open.
    pub fn open_collects(&self) -> usize {
        self.collects.load(Ordering::Relaxed)
    }

    /// The change since `earlier`: shorthand for
    /// `self.snapshot().delta_since(earlier)`. This is the sampling
    /// primitive the `consent-obs` flight recorder is built on — take a
    /// baseline [`snapshot`](Self::snapshot), then call `delta` at each
    /// sample point to get the traffic of that window alone.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        self.snapshot().delta_since(earlier)
    }

    /// Capture the current value of every metric.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A point-in-time copy of every metric in a [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by key.
    pub histograms: BTreeMap<String, HistSummary>,
}

impl Snapshot {
    /// Counter value by key (0 if absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All counters whose key starts with `prefix`, as
    /// `(key, value)` pairs.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .range(prefix.to_string()..)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_str(), *v))
    }

    /// The change from `earlier` to `self`: counters and histogram
    /// counts/sums subtract (saturating); gauges and histogram
    /// quantiles are taken from `self`, since they are point-in-time
    /// values. Metrics that are zero in the delta are dropped.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .filter(|(_, v)| *v > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let before = earlier.histograms.get(k).copied().unwrap_or_default();
                let count = h.count.saturating_sub(before.count);
                let sum = h.sum.saturating_sub(before.sum);
                let mean = if count == 0 {
                    0.0
                } else {
                    sum as f64 / count as f64
                };
                (
                    k.clone(),
                    HistSummary {
                        count,
                        sum,
                        mean,
                        ..*h
                    },
                )
            })
            .filter(|(_, h)| h.count > 0)
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Render every metric as human-readable tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let mut t = Table::with_columns(&["Counter", "Total"]);
            t.numeric().title("Counters");
            for (k, v) in &self.counters {
                t.row(vec![k.clone(), thousands(*v)]);
            }
            out.push_str(&t.to_string());
        }
        if !self.gauges.is_empty() {
            let mut t = Table::with_columns(&["Gauge", "Value"]);
            t.numeric().title("Gauges");
            for (k, v) in &self.gauges {
                t.row(vec![k.clone(), v.to_string()]);
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&t.to_string());
        }
        if !self.histograms.is_empty() {
            let mut t =
                Table::with_columns(&["Histogram", "Count", "Mean", "p50", "p95", "p99", "Max"]);
            t.numeric().title("Histograms");
            for (k, h) in &self.histograms {
                t.row(vec![
                    k.clone(),
                    thousands(h.count),
                    format!("{:.1}", h.mean),
                    thousands(h.p50),
                    thousands(h.p95),
                    thousands(h.p99),
                    thousands(h.max),
                ]);
            }
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&t.to_string());
        }
        out
    }

    /// Export as JSON Lines: one `{"kind": ...}` object per metric.
    pub fn to_jsonl(&self) -> String {
        let mut lines = Vec::new();
        for (k, v) in &self.counters {
            lines.push(
                Json::object([
                    ("kind".to_string(), Json::str("counter")),
                    ("name".to_string(), Json::str(k.clone())),
                    ("value".to_string(), Json::int(*v as i64)),
                ])
                .to_compact(),
            );
        }
        for (k, v) in &self.gauges {
            lines.push(
                Json::object([
                    ("kind".to_string(), Json::str("gauge")),
                    ("name".to_string(), Json::str(k.clone())),
                    ("value".to_string(), Json::int(*v)),
                ])
                .to_compact(),
            );
        }
        for (k, h) in &self.histograms {
            lines.push(
                Json::object([
                    ("kind".to_string(), Json::str("histogram")),
                    ("name".to_string(), Json::str(k.clone())),
                    ("count".to_string(), Json::int(h.count as i64)),
                    ("sum".to_string(), Json::int(h.sum as i64)),
                    ("mean".to_string(), Json::Number(h.mean)),
                    ("min".to_string(), Json::int(h.min as i64)),
                    ("max".to_string(), Json::int(h.max as i64)),
                    ("p50".to_string(), Json::int(h.p50 as i64)),
                    ("p95".to_string(), Json::int(h.p95 as i64)),
                    ("p99".to_string(), Json::int(h.p99 as i64)),
                ])
                .to_compact(),
            );
        }
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrip() {
        assert_eq!(labeled_key("a.b", &[]), "a.b");
        let key = labeled_key("cap", &[("loc", "EU cloud"), ("status", "Ok")]);
        assert_eq!(key, "cap{loc=EU cloud,status=Ok}");
        let (base, labels) = parse_key(&key);
        assert_eq!(base, "cap");
        assert_eq!(labels, vec![("loc", "EU cloud"), ("status", "Ok")]);
        assert_eq!(parse_key("plain"), ("plain", vec![]));
    }

    #[test]
    fn reset_clears_metrics_but_not_the_enable_flag() {
        let reg = Registry::new();
        reg.counter("c").add(4);
        reg.gauge("g").set(2);
        reg.histogram("h").record(7);
        reg.reset();
        assert!(reg.enabled());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        // Fresh handles after the reset record normally.
        reg.counter("c").add(1);
        assert_eq!(reg.snapshot().counter("c"), 1);
    }

    #[test]
    fn families_share_base_name() {
        let reg = Registry::new();
        reg.counter_labeled("f", &[("v", "a")]).add(2);
        reg.counter_labeled("f", &[("v", "b")]).add(3);
        reg.counter("other").inc();
        let snap = reg.snapshot();
        let family: u64 = snap.counters_with_prefix("f{").map(|(_, v)| v).sum();
        assert_eq!(family, 5);
        assert_eq!(snap.counter("other"), 1);
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let reg = Registry::new();
        reg.counter("c").add(10);
        reg.histogram("h").record(100);
        reg.gauge("g").set(5);
        let before = reg.snapshot();
        reg.counter("c").add(7);
        reg.counter("new").inc();
        reg.histogram("h").record(200);
        reg.gauge("g").set(9);
        let delta = reg.snapshot().delta_since(&before);
        assert_eq!(delta.counter("c"), 7);
        assert_eq!(delta.counter("new"), 1);
        assert!(!delta.counters.contains_key("untouched"));
        let h = delta.histograms.get("h").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 200);
        assert_eq!(delta.gauges.get("g"), Some(&9));
    }

    #[test]
    fn delta_across_reset_saturates_instead_of_wrapping() {
        let reg = Registry::new();
        reg.counter("c").add(10);
        for v in [100, 200, 300] {
            reg.histogram("h").record(v);
        }
        let before = reg.snapshot();
        reg.reset();
        reg.counter("c").add(3);
        reg.histogram("h").record(5);
        // Counter, histogram count and sum all fell below the baseline:
        // each saturates to 0, and zero deltas are dropped.
        let delta = reg.delta(&before);
        assert_eq!(delta.counter("c"), 0);
        assert!(!delta.counters.contains_key("c"));
        assert!(!delta.histograms.contains_key("h"));
        // The count climbs past the baseline while the sum stays below
        // it: only the sum saturates.
        for _ in 0..3 {
            reg.histogram("h").record(1);
        }
        let h = reg.delta(&before).histograms["h"];
        assert_eq!((h.count, h.sum), (1, 0));
    }

    #[test]
    fn exporters_cover_every_metric() {
        let reg = Registry::new();
        reg.counter("requests").add(1234);
        reg.gauge("depth").set(-2);
        reg.histogram("lat").record(50);
        let snap = reg.snapshot();

        let table = snap.render();
        assert!(table.contains("requests"));
        assert!(table.contains("1,234"));
        assert!(table.contains("depth"));
        assert!(table.contains("lat"));

        let jsonl = snap.to_jsonl();
        assert_eq!(jsonl.trim_end().lines().count(), 3);
        for line in jsonl.trim_end().lines() {
            let parsed = Json::parse(line).expect("each line is valid JSON");
            assert!(parsed.get("kind").is_some());
            assert!(parsed.get("name").is_some());
        }
    }
}
