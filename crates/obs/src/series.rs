//! The sampled time series: a bounded ring buffer of [`ObsSample`]s
//! with an append-only JSONL export.
//!
//! One sample is one observation window of `run_durable_campaign`:
//! counter deltas and histogram event-count deltas. The JSONL export
//! writes one `{"kind":"obs", ...}` object per sample with
//! deterministically ordered keys, so two series with the same samples
//! serialize to the same bytes.

use consent_util::Json;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Version stamped into every exported sample line.
pub const OBS_SCHEMA_VERSION: i64 = 1;

/// One sampled window of metric traffic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSample {
    /// The cursor window `(from, to]` this sample covers.
    pub window: (u64, u64),
    /// Counter deltas over the window (zero deltas dropped).
    pub counters: BTreeMap<String, u64>,
    /// Histogram sample-count deltas over the window (zero dropped):
    /// *how many* events happened is deterministic, how long they took
    /// is not.
    pub events: BTreeMap<String, u64>,
}

impl ObsSample {
    /// The window's end: the campaign cursor (`pairs_done`) when the
    /// window closed. Exported as both `seq` and `tick`.
    pub fn tick(&self) -> u64 {
        self.window.1
    }

    /// Serialize as one line of the `OBS_*.jsonl` format (no trailing
    /// newline). Keys and map entries are ordered, so equal samples
    /// yield equal bytes.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![
            ("kind".to_string(), Json::str("obs")),
            ("schema".to_string(), Json::int(OBS_SCHEMA_VERSION)),
            ("seq".to_string(), Json::int(self.tick() as i64)),
            ("tick".to_string(), Json::int(self.tick() as i64)),
            (
                "window".to_string(),
                Json::array([
                    Json::int(self.window.0 as i64),
                    Json::int(self.window.1 as i64),
                ]),
            ),
        ];
        if !self.counters.is_empty() {
            fields.push((
                "counters".to_string(),
                Json::object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::int(*v as i64))),
                ),
            ));
        }
        if !self.events.is_empty() {
            fields.push((
                "events".to_string(),
                Json::object(
                    self.events
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::int(*v as i64))),
                ),
            ));
        }
        Json::object(fields)
    }

    /// The number of `(domain, vantage)` pairs this window covered:
    /// the `campaign.progress` counter delta, falling back to the
    /// `campaign.pair` span count.
    pub fn pairs(&self) -> u64 {
        self.counters
            .get("campaign.progress")
            .copied()
            .or_else(|| self.events.get("campaign.pair").copied())
            .unwrap_or(0)
    }
}

/// A bounded, append-only series of [`ObsSample`]s.
///
/// When the ring is full the oldest sample is evicted (and counted in
/// [`dropped`](Self::dropped)) — a campaign that outlives its buffer
/// degrades to a sliding window instead of unbounded memory.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    samples: VecDeque<ObsSample>,
    capacity: usize,
    dropped: u64,
}

impl TimeSeries {
    /// An empty series retaining at most `capacity` samples (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Append a sample, evicting the oldest if the ring is full.
    pub fn push(&mut self, sample: ObsSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &ObsSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Is the series empty?
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recent sample, if any.
    pub fn latest(&self) -> Option<&ObsSample> {
        self.samples.back()
    }

    /// Export the retained samples as `OBS_*.jsonl`: one compact JSON
    /// object per line, trailing newline, byte-deterministic for equal
    /// samples. An empty series exports the empty string, so resuming
    /// processes can append their export to an existing file and the
    /// concatenation reads as one well-formed series.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&s.to_json().to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64) -> ObsSample {
        let mut counters = BTreeMap::new();
        counters.insert("campaign.progress".to_string(), 5);
        ObsSample {
            window: (tick.saturating_sub(5), tick),
            counters,
            ..ObsSample::default()
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ts = TimeSeries::new(3);
        for i in 1..=7u64 {
            ts.push(sample(i * 5));
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.dropped(), 4);
        let ticks: Vec<u64> = ts.samples().map(ObsSample::tick).collect();
        assert_eq!(ticks, vec![25, 30, 35]);
        assert_eq!(ts.latest().unwrap().tick(), 35);
    }

    #[test]
    fn export_is_one_valid_json_object_per_line() {
        let mut ts = TimeSeries::new(8);
        ts.push(sample(5));
        let mut with_events = sample(10);
        with_events.events.insert("campaign.pair".to_string(), 5);
        ts.push(with_events);
        let jsonl = ts.export_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let parsed = Json::parse(line).expect("valid JSON line");
            assert_eq!(parsed.get("kind").and_then(Json::as_str), Some("obs"));
            assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
            assert!(parsed.get("window").and_then(Json::as_array).is_some());
        }
        // `seq` and `tick` are both the window's end.
        assert_eq!(
            jsonl.lines().nth(1),
            Some(
                "{\"counters\":{\"campaign.progress\":5},\"events\":{\"campaign.pair\":5},\
                 \"kind\":\"obs\",\"schema\":1,\"seq\":10,\"tick\":10,\"window\":[5,10]}"
            )
        );
        // Identical samples serialize to identical bytes.
        let mut ts2 = TimeSeries::new(8);
        ts2.push(sample(5));
        assert_eq!(
            ts.export_jsonl().lines().next(),
            ts2.export_jsonl().lines().next()
        );
    }

    #[test]
    fn pairs_prefers_progress_counter() {
        let s = sample(5);
        assert_eq!(s.pairs(), 5);
        let mut by_event = ObsSample::default();
        by_event.events.insert("campaign.pair".to_string(), 7);
        assert_eq!(by_event.pairs(), 7);
        assert_eq!(ObsSample::default().pairs(), 0);
    }
}
