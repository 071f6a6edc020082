//! # consent-telemetry
//!
//! Observability for the capture pipeline: sharded atomic counters and
//! gauges ([`counter`]), log-bucketed latency/size histograms with
//! p50/p95/p99 ([`histogram`]), RAII span timers ([`span`](mod@span))
//! and a labeled metric [`registry`].
//!
//! Everything funnels through a process-global [`Registry`] that is
//! **disabled by default**: every free function first checks one
//! relaxed atomic, so an un-instrumented run (e.g. the benches) pays a
//! load-and-branch per site and nothing else. Call [`enable`] (as
//! `examples/flight_recorder.rs` does) to start recording.
//!
//! One window API reads the registry: take a [`Registry::snapshot`]
//! before the work and [`Registry::delta`] after it, and the delta holds
//! that window's traffic alone. The durable driver, `consent-obs`'s
//! sampler and `consent-watch` close their windows this way, and
//! `consent-obs` renders a registry as a flight report or a Prometheus
//! exposition. The paper's §3.5 data-quality account (captures per
//! status and vantage) is computed from the capture database by
//! `consent_analysis::capture_quality`; the [`CAPTURE_FAMILY`] counters
//! reconcile with it row for row.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod histogram;
pub mod registry;
pub mod span;

pub use counter::{Counter, Gauge};
pub use histogram::{HistSummary, Histogram};
pub use registry::{Registry, Snapshot};
pub use span::Span;

use std::sync::OnceLock;

/// The counter family the capture store increments once per stored
/// capture, inserted or imported, labeled with `location` and `status`.
pub const CAPTURE_FAMILY: &str = "capture_db.insert";

/// The process-global registry, created disabled.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::disabled)
}

/// Turn on recording for the global registry.
pub fn enable() {
    global().set_enabled(true);
}

/// Turn off recording for the global registry.
pub fn disable() {
    global().set_enabled(false);
}

/// Is the global registry recording? Guard any instrumentation that
/// must allocate (label strings etc.) behind this.
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

/// Drop every metric in the global registry (the enable flag is
/// untouched). See [`Registry::reset`] for the caveats.
pub fn reset() {
    global().reset();
}

/// Add `n` to the global counter `name` (no-op while disabled).
#[inline]
pub fn count(name: &str, n: u64) {
    let g = global();
    if g.enabled() {
        g.counter(name).add(n);
    }
}

/// Add `n` to the global counter `name` with labels (no-op while
/// disabled). Labels become part of the metric key, in caller order:
/// `name{k=v,k2=v2}`.
#[inline]
pub fn count_labeled(name: &str, labels: &[(&str, &str)], n: u64) {
    let g = global();
    if g.enabled() {
        g.counter_labeled(name, labels).add(n);
    }
}

/// Record `value` into the global histogram `name` (no-op while
/// disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    let g = global();
    if g.enabled() {
        g.histogram(name).record(value);
    }
}

/// Set the global gauge `name` (no-op while disabled).
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    let g = global();
    if g.enabled() {
        g.gauge(name).set(value);
    }
}

/// Add to the global gauge `name` (no-op while disabled).
#[inline]
pub fn gauge_add(name: &str, delta: i64) {
    let g = global();
    if g.enabled() {
        g.gauge(name).add(delta);
    }
}

/// Start a timing span recording into the global histogram `name`
/// (micros) when dropped. Returns an inert span while disabled.
#[inline]
#[must_use = "a span records on drop; binding it to _ discards the timing immediately"]
pub fn span(name: &str) -> Span {
    global().span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is shared by every test in this binary, so
    // this is the only test that touches it: it flips the flag and
    // restores the disabled default before exiting.
    #[test]
    fn global_disabled_by_default_and_toggles() {
        assert!(!enabled());
        count("lib.ignored", 5);
        assert_eq!(global().snapshot().counter("lib.ignored"), 0);

        enable();
        assert!(enabled());
        count("lib.counted", 2);
        count_labeled("lib.labeled", &[("k", "v")], 3);
        observe("lib.hist", 10);
        gauge_set("lib.gauge", -4);
        gauge_add("lib.gauge", 1);
        {
            let _s = span("lib.span");
        }
        let snap = global().snapshot();
        assert_eq!(snap.counter("lib.counted"), 2);
        assert_eq!(snap.counter("lib.labeled{k=v}"), 3);
        assert_eq!(snap.gauges.get("lib.gauge"), Some(&-3));
        assert_eq!(snap.histograms.get("lib.hist").unwrap().count, 1);
        assert_eq!(snap.histograms.get("lib.span").unwrap().count, 1);

        disable();
        assert!(!enabled());
    }
}
