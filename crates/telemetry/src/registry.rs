//! The labeled metric registry and its snapshots.

use crate::counter::{Counter, Gauge};
use crate::histogram::{HistSummary, Histogram};
use crate::span::Span;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
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
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
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
    /// their now-detached metrics — take them again afterwards. A
    /// [`delta`](Self::delta) across a reset saturates at zero instead
    /// of going negative.
    pub fn reset(&self) {
        self.counters.write().clear();
        self.gauges.write().clear();
        self.histograms.write().clear();
    }

    /// The change since `earlier`: shorthand for
    /// `self.snapshot().delta_since(earlier)`, and the registry's one
    /// window API. Take a baseline [`snapshot`](Self::snapshot) before
    /// the work and call `delta` after it: the result holds everything
    /// recorded in between, from any thread. Windows may nest or
    /// overlap; each counts all the traffic inside it.
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
}
