//! Post-run flight report: what the campaign did, rendered for humans
//! and exported as JSON for CI artifacts.
//!
//! Built from the two things the recorder leaves behind — the sampled
//! [`TimeSeries`] of `run_durable_campaign`'s observation windows and a
//! cumulative end-of-run [`Snapshot`] delta — the report has six
//! sections. Every per-window section uses the series' windows, so its
//! ticks are the cursor ticks of the `OBS_*.jsonl` export and the
//! watchdog's alerts:
//!
//! 1. **Phase breakdown**: time spent per instrumented span (pair
//!    processing, engine capture, checkpoint writes/opens, …), from the
//!    cumulative totals.
//! 2. **Throughput curve**: pairs per window as an ASCII bar chart.
//! 3. **Fault heatmap**: `faultsim.injected{fault=…}` intensity per
//!    fault kind per window.
//! 4. **Storage health** (only when something went wrong): checkpoint
//!    IO faults, retries, skipped writes, store-maintenance counters,
//!    and every degradation-ladder descent with the window that first
//!    recorded it.
//! 5. **Archive health** (only when a bundle was packed or replayed):
//!    pack/dedup totals, scrub repairs, and replay divergences from the
//!    `bundle.*` counters.
//! 6. **Pair latency**: the cumulative `campaign.pair` quantiles
//!    (per-window durations are outside the determinism boundary).

use crate::series::{ObsSample, TimeSeries};
use consent_telemetry::registry::parse_key;
use consent_telemetry::{HistSummary, Snapshot};
use consent_util::table::{thousands, Table};
use consent_util::Json;
use std::collections::BTreeMap;

/// Spans surfaced in the phase breakdown, with display names.
const PHASES: &[(&str, &str)] = &[
    ("campaign.run", "campaign run"),
    ("campaign.pair", "pair processing"),
    ("engine.capture", "engine capture"),
    ("checkpoint.write", "checkpoint write"),
    ("checkpoint.open", "checkpoint open"),
];

/// Width of the ASCII bars/heatmap in characters.
const BAR_WIDTH: usize = 40;

/// One row of the phase breakdown.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Display name of the phase.
    pub phase: String,
    /// Metric key of the underlying span histogram.
    pub key: String,
    /// Span count.
    pub count: u64,
    /// Total microseconds across all spans.
    pub total_us: u64,
    /// p50 / p95 microseconds.
    pub p50_us: u64,
    /// 95th percentile microseconds.
    pub p95_us: u64,
}

/// One point of the throughput curve.
#[derive(Clone, Debug)]
pub struct ThroughputPoint {
    /// Window end (the campaign cursor).
    pub tick: u64,
    /// Pairs completed in the window.
    pub pairs: u64,
}

/// One row of the fault heatmap: a fault kind and its per-window counts.
#[derive(Clone, Debug)]
pub struct FaultRow {
    /// The injected fault kind (label value).
    pub fault: String,
    /// Injection count per sample window, oldest first.
    pub per_window: Vec<u64>,
    /// Total injections.
    pub total: u64,
}

/// One degradation-ladder descent surfaced by the campaign supervisor.
#[derive(Clone, Debug)]
pub struct DegradeRow {
    /// Ladder rung entered (`wide-cadence`, `memory-only`).
    pub level: String,
    /// Times the rung was entered across the run.
    pub count: u64,
    /// Tick of the first sample window recording the descent (absent
    /// when the descent happened outside any sampled window).
    pub first_tick: Option<u64>,
}

/// Storage-health totals: what the checkpoint layer and the campaign
/// supervisor saw from the disk. All zeros on a healthy run — the
/// section is omitted entirely then.
#[derive(Clone, Debug, Default)]
pub struct StorageHealth {
    /// Checkpoint-write IO faults observed (`checkpoint.io_fault`).
    pub io_faults: u64,
    /// Supervised save retries (`checkpoint.retry`).
    pub retries: u64,
    /// Checkpoint writes skipped in memory-only mode
    /// (`checkpoint.skipped`).
    pub writes_skipped: u64,
    /// Directory-fsync failures surfaced by the store
    /// (`checkpoint.dir_fsync_fail`).
    pub dir_fsync_fails: u64,
    /// Orphaned temp files swept at store open (`checkpoint.tmp_swept`).
    pub tmp_swept: u64,
    /// Quarantined generations pruned to bound the quarantine
    /// (`checkpoint.quarantine.pruned`).
    pub quarantine_pruned: u64,
    /// Final degradation-ladder gauge (`campaign.degrade.level`,
    /// 0 = normal … 2 = memory-only).
    pub final_level: i64,
    /// Ladder descents, in rung order.
    pub degrades: Vec<DegradeRow>,
}

impl StorageHealth {
    /// True when nothing storage-related went wrong.
    pub fn is_quiet(&self) -> bool {
        self.io_faults == 0
            && self.retries == 0
            && self.writes_skipped == 0
            && self.dir_fsync_fails == 0
            && self.tmp_swept == 0
            && self.quarantine_pruned == 0
            && self.final_level == 0
            && self.degrades.is_empty()
    }
}

/// Archive-health totals: what the bundle packer, verifier, and
/// replayer reported through the `bundle.*` counters. Omitted entirely
/// when no bundle activity happened during the run.
#[derive(Clone, Debug, Default)]
pub struct ArchiveHealth {
    /// Bundles packed and verified clean (`bundle.packed`).
    pub packed: u64,
    /// Packs skipped because storage had degraded to memory-only
    /// (`bundle.pack.skipped`).
    pub packs_skipped: u64,
    /// Packs that failed outright (`bundle.pack.failures`).
    pub pack_failures: u64,
    /// Blobs physically written to the store (`bundle.blobs_written`).
    pub blobs_written: u64,
    /// Blobs deduplicated against already-stored content
    /// (`bundle.blobs_deduped`).
    pub blobs_deduped: u64,
    /// Logical bytes addressed by all manifests (`bundle.bytes_logical`).
    pub bytes_logical: u64,
    /// Bytes actually stored after dedup (`bundle.bytes_stored`).
    pub bytes_stored: u64,
    /// Corrupt blobs found by fsck (`bundle.verify.failures`).
    pub verify_failures: u64,
    /// Read faults absorbed by the bundle retry layer
    /// (`bundle.read.fault`).
    pub read_faults: u64,
    /// Write faults absorbed by the bundle retry layer
    /// (`bundle.write.fault`).
    pub write_faults: u64,
    /// Scrub rounds run by verified packing (`bundle.scrub.rounds`).
    pub scrub_rounds: u64,
    /// Condemned blobs repaired by the scrub loop
    /// (`bundle.scrub.repaired`).
    pub scrub_repaired: u64,
    /// Bundle replays executed (`bundle.replayed`).
    pub replays: u64,
    /// Replays that diverged from the archived documents
    /// (`bundle.replay.divergence`).
    pub replay_divergences: u64,
}

impl ArchiveHealth {
    /// True when no bundle was packed, replayed, skipped, or failed —
    /// the section carries no information then and is omitted.
    pub fn is_quiet(&self) -> bool {
        self.packed == 0 && self.packs_skipped == 0 && self.pack_failures == 0 && self.replays == 0
    }

    /// True when every pack verified clean, nothing was skipped or
    /// repaired under duress, and no replay diverged.
    pub fn is_healthy(&self) -> bool {
        self.packs_skipped == 0
            && self.pack_failures == 0
            && self.verify_failures == 0
            && self.scrub_repaired == 0
            && self.replay_divergences == 0
    }

    /// Blob-level dedup ratio (logical / stored bytes); 1.0 when
    /// nothing was stored.
    pub fn dedup_ratio(&self) -> f64 {
        if self.bytes_stored == 0 {
            1.0
        } else {
            self.bytes_logical as f64 / self.bytes_stored as f64
        }
    }
}

/// One watchdog alert surfaced in the report's alerts section: a full
/// lifecycle aggregated per stable alert id (produced by
/// `consent-watch`, attached via [`FlightReport::with_alerts`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightAlert {
    /// Stable FNV id shared by the alert's lifecycle events.
    pub id: String,
    /// Canonical rule spec (`slo:usable:700:3`, `drift:cmp:300:8`, …).
    pub rule: String,
    /// Instance label (vantage location); empty for global rules.
    pub label: String,
    /// Final lifecycle state seen: `pending`, `firing`, or `resolved`.
    pub state: String,
    /// Tick the alert opened.
    pub opened: u64,
    /// Tick it escalated to firing, if it did.
    pub fired: Option<u64>,
    /// Tick it resolved, if it did.
    pub resolved: Option<u64>,
    /// Last detector value observed.
    pub value: i64,
    /// Rule threshold the value is compared against.
    pub threshold: i64,
}

/// The assembled post-run report. Build with [`FlightReport::build`],
/// render with [`render`](FlightReport::render) or
/// [`to_json`](FlightReport::to_json).
#[derive(Clone, Debug)]
pub struct FlightReport {
    /// Phase breakdown rows (spans actually observed).
    pub phases: Vec<PhaseRow>,
    /// Throughput per window, oldest first.
    pub throughput: Vec<ThroughputPoint>,
    /// Fault heatmap rows (empty when chaos was off).
    pub faults: Vec<FaultRow>,
    /// Storage health and degradation events (`None` on a quiet run).
    pub storage: Option<StorageHealth>,
    /// Bundle pack/verify/replay health (`None` when no bundle
    /// activity happened).
    pub archive: Option<ArchiveHealth>,
    /// Watchdog alerts (empty without a watch; see
    /// [`with_alerts`](FlightReport::with_alerts)).
    pub alerts: Vec<FlightAlert>,
    /// Cumulative `campaign.pair` summary: the report's latency view.
    pub pair_total: Option<HistSummary>,
    /// Total pairs covered by the series.
    pub pairs_total: u64,
    /// Samples evicted from the ring before the report was built.
    pub samples_dropped: u64,
}

impl FlightReport {
    /// Assemble a report from the sampled `series` and the cumulative
    /// end-of-run snapshot delta `total` (e.g. a
    /// `RunReport`'s delta, or `Registry::delta` against a pre-run
    /// baseline).
    pub fn build(series: &TimeSeries, total: &Snapshot) -> FlightReport {
        let samples: Vec<&ObsSample> = series.samples().collect();
        let phases = PHASES
            .iter()
            .filter_map(|(key, name)| {
                let h = total.histograms.get(*key)?;
                if h.count == 0 {
                    return None;
                }
                Some(PhaseRow {
                    phase: name.to_string(),
                    key: key.to_string(),
                    count: h.count,
                    total_us: h.sum,
                    p50_us: h.p50,
                    p95_us: h.p95,
                })
            })
            .collect();

        let throughput = samples
            .iter()
            .map(|s| ThroughputPoint {
                tick: s.tick(),
                pairs: s.pairs(),
            })
            .collect();

        let mut fault_rows: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for (i, s) in samples.iter().enumerate() {
            for (key, n) in &s.counters {
                let (base, labels) = parse_key(key);
                if base != "faultsim.injected" {
                    continue;
                }
                let Some((_, fault)) = labels.iter().find(|(k, _)| *k == "fault") else {
                    continue;
                };
                let row = fault_rows
                    .entry(fault.to_string())
                    .or_insert_with(|| vec![0; samples.len()]);
                row[i] = *n;
            }
        }
        let faults = fault_rows
            .into_iter()
            .map(|(fault, per_window)| FaultRow {
                total: per_window.iter().sum(),
                fault,
                per_window,
            })
            .collect();

        let mut degrades: Vec<DegradeRow> = total
            .counters
            .iter()
            .filter_map(|(key, n)| {
                let (base, labels) = parse_key(key);
                if base != "campaign.degrade" {
                    return None;
                }
                let (_, level) = labels.iter().find(|(k, _)| *k == "level")?;
                let first_tick = samples
                    .iter()
                    .find(|s| s.counters.get(key).is_some_and(|&c| c > 0))
                    .map(|s| s.tick());
                Some(DegradeRow {
                    level: level.to_string(),
                    count: *n,
                    first_tick,
                })
            })
            .collect();
        // Rung order, not alphabetical: the ladder reads top-down.
        let rung = |l: &str| match l {
            "wide-cadence" => 1,
            "memory-only" => 2,
            _ => 3,
        };
        degrades.sort_by_key(|r| rung(&r.level));
        let storage = StorageHealth {
            io_faults: total.counter("checkpoint.io_fault"),
            retries: total.counter("checkpoint.retry"),
            writes_skipped: total.counter("checkpoint.skipped"),
            dir_fsync_fails: total.counter("checkpoint.dir_fsync_fail"),
            tmp_swept: total.counter("checkpoint.tmp_swept"),
            quarantine_pruned: total.counter("checkpoint.quarantine.pruned"),
            final_level: total
                .gauges
                .get("campaign.degrade.level")
                .copied()
                .unwrap_or(0),
            degrades,
        };
        let storage = (!storage.is_quiet()).then_some(storage);

        let archive = ArchiveHealth {
            packed: total.counter("bundle.packed"),
            packs_skipped: total.counter("bundle.pack.skipped"),
            pack_failures: total.counter("bundle.pack.failures"),
            blobs_written: total.counter("bundle.blobs_written"),
            blobs_deduped: total.counter("bundle.blobs_deduped"),
            bytes_logical: total.counter("bundle.bytes_logical"),
            bytes_stored: total.counter("bundle.bytes_stored"),
            verify_failures: total.counter("bundle.verify.failures"),
            read_faults: total.counter("bundle.read.fault"),
            write_faults: total.counter("bundle.write.fault"),
            scrub_rounds: total.counter("bundle.scrub.rounds"),
            scrub_repaired: total.counter("bundle.scrub.repaired"),
            replays: total.counter("bundle.replayed"),
            replay_divergences: total.counter("bundle.replay.divergence"),
        };
        let archive = (!archive.is_quiet()).then_some(archive);

        FlightReport {
            phases,
            throughput,
            faults,
            storage,
            archive,
            alerts: Vec::new(),
            pair_total: total.histograms.get("campaign.pair").copied(),
            pairs_total: samples.iter().map(|s| s.pairs()).sum(),
            samples_dropped: series.dropped(),
        }
    }

    /// Attach the watchdog's per-id alert lifecycles to the report's
    /// alerts section.
    pub fn with_alerts(mut self, alerts: Vec<FlightAlert>) -> FlightReport {
        self.alerts = alerts;
        self
    }

    /// Render the report as human-readable tables and ASCII charts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== Campaign flight report: {} pairs across {} sample windows ===\n",
            thousands(self.pairs_total),
            self.throughput.len()
        ));
        if self.samples_dropped > 0 {
            out.push_str(&format!(
                "(ring buffer evicted {} early samples; report covers the retained window)\n",
                thousands(self.samples_dropped)
            ));
        }

        if !self.phases.is_empty() {
            let mut t = Table::with_columns(&["Phase", "Spans", "Total ms", "p50 µs", "p95 µs"]);
            t.numeric().title("Phase breakdown");
            for p in &self.phases {
                t.row(vec![
                    p.phase.clone(),
                    thousands(p.count),
                    format!("{:.1}", p.total_us as f64 / 1000.0),
                    thousands(p.p50_us),
                    thousands(p.p95_us),
                ]);
            }
            out.push('\n');
            out.push_str(&t.to_string());
        }

        if !self.throughput.is_empty() {
            out.push_str("\nThroughput curve (pairs per window)\n");
            let max_pairs = self.throughput.iter().map(|p| p.pairs).max().unwrap_or(0);
            for p in &self.throughput {
                let bar_len = if max_pairs == 0 {
                    0
                } else {
                    ((p.pairs as f64 / max_pairs as f64) * BAR_WIDTH as f64).round() as usize
                };
                out.push_str(&format!(
                    "  @{:>8} |{:<width$}| {}\n",
                    thousands(p.tick),
                    "#".repeat(bar_len),
                    thousands(p.pairs),
                    width = BAR_WIDTH
                ));
            }
        }

        if !self.faults.is_empty() {
            out.push_str("\nFault heatmap (injections per window: · none, ░ low, ▒ mid, █ high)\n");
            let peak = self
                .faults
                .iter()
                .flat_map(|r| r.per_window.iter().copied())
                .max()
                .unwrap_or(0)
                .max(1);
            for row in &self.faults {
                let cells: String = compress(&row.per_window, BAR_WIDTH)
                    .into_iter()
                    .map(|n| {
                        if n == 0 {
                            '·'
                        } else if n * 3 <= peak {
                            '░'
                        } else if n * 3 <= peak * 2 {
                            '▒'
                        } else {
                            '█'
                        }
                    })
                    .collect();
                out.push_str(&format!(
                    "  {:<22} {} {}\n",
                    row.fault,
                    cells,
                    thousands(row.total)
                ));
            }
        }

        if let Some(sh) = &self.storage {
            out.push_str(&format!(
                "\nStorage health: {} io fault(s), {} retr{}, {} write(s) skipped, \
                 final ladder level {}\n",
                thousands(sh.io_faults),
                thousands(sh.retries),
                if sh.retries == 1 { "y" } else { "ies" },
                thousands(sh.writes_skipped),
                sh.final_level,
            ));
            if sh.dir_fsync_fails + sh.tmp_swept + sh.quarantine_pruned > 0 {
                out.push_str(&format!(
                    "  store: {} dir-fsync failure(s), {} orphaned tmp file(s) swept, \
                     {} quarantined generation(s) pruned\n",
                    thousands(sh.dir_fsync_fails),
                    thousands(sh.tmp_swept),
                    thousands(sh.quarantine_pruned),
                ));
            }
            for d in &sh.degrades {
                let at = match d.first_tick {
                    Some(t) => format!(" (first seen @{})", thousands(t)),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "  degraded -> {} x{}{at}\n",
                    d.level,
                    thousands(d.count)
                ));
            }
        }

        if let Some(ah) = &self.archive {
            out.push_str(&format!(
                "\nArchive health: {} bundle(s) packed, {} blob(s) written, \
                 {} deduped, dedup ratio {:.3}\n",
                thousands(ah.packed),
                thousands(ah.blobs_written),
                thousands(ah.blobs_deduped),
                ah.dedup_ratio(),
            ));
            if ah.replays > 0 {
                out.push_str(&format!(
                    "  replay: {} run(s), {} divergence(s)\n",
                    thousands(ah.replays),
                    thousands(ah.replay_divergences),
                ));
            }
            if !ah.is_healthy() {
                out.push_str(&format!(
                    "  trouble: {} pack(s) skipped, {} pack failure(s), \
                     {} corrupt blob(s) found, {} repaired over {} scrub round(s), \
                     {} read / {} write fault(s) absorbed\n",
                    thousands(ah.packs_skipped),
                    thousands(ah.pack_failures),
                    thousands(ah.verify_failures),
                    thousands(ah.scrub_repaired),
                    thousands(ah.scrub_rounds),
                    thousands(ah.read_faults),
                    thousands(ah.write_faults),
                ));
            }
        }

        if !self.alerts.is_empty() {
            let mut t = Table::with_columns(&[
                "Rule", "Label", "State", "Opened", "Fired", "Resolved", "Value",
            ]);
            t.numeric().title("Watchdog alerts");
            let opt = |tick: Option<u64>| tick.map(thousands).unwrap_or_else(|| "-".to_string());
            for a in &self.alerts {
                t.row(vec![
                    a.rule.clone(),
                    if a.label.is_empty() {
                        "-".to_string()
                    } else {
                        a.label.clone()
                    },
                    a.state.clone(),
                    thousands(a.opened),
                    opt(a.fired),
                    opt(a.resolved),
                    format!("{} (≥|< {})", a.value, a.threshold),
                ]);
            }
            out.push('\n');
            out.push_str(&t.to_string());
        }

        if let Some(h) = &self.pair_total {
            let mut t = Table::with_columns(&["Spans", "p50 µs", "p95 µs", "p99 µs", "Max µs"]);
            t.numeric().title("Pair latency (cumulative)");
            t.row(vec![
                thousands(h.count),
                thousands(h.p50),
                thousands(h.p95),
                thousands(h.p99),
                thousands(h.max),
            ]);
            out.push('\n');
            out.push_str(&t.to_string());
        }
        out
    }

    /// Export the report as a JSON document (the CI artifact format).
    pub fn to_json(&self) -> Json {
        let hist = |h: &HistSummary| {
            Json::object([
                ("count".to_string(), Json::int(h.count as i64)),
                ("sum_us".to_string(), Json::int(h.sum as i64)),
                ("p50_us".to_string(), Json::int(h.p50 as i64)),
                ("p95_us".to_string(), Json::int(h.p95 as i64)),
                ("p99_us".to_string(), Json::int(h.p99 as i64)),
                ("max_us".to_string(), Json::int(h.max as i64)),
            ])
        };
        let mut fields = vec![
            ("kind".to_string(), Json::str("flight_report")),
            ("schema".to_string(), Json::int(1)),
            (
                "pairs_total".to_string(),
                Json::int(self.pairs_total as i64),
            ),
            (
                "samples_dropped".to_string(),
                Json::int(self.samples_dropped as i64),
            ),
            (
                "phases".to_string(),
                Json::array(self.phases.iter().map(|p| {
                    Json::object([
                        ("phase".to_string(), Json::str(p.phase.clone())),
                        ("key".to_string(), Json::str(p.key.clone())),
                        ("count".to_string(), Json::int(p.count as i64)),
                        ("total_us".to_string(), Json::int(p.total_us as i64)),
                        ("p50_us".to_string(), Json::int(p.p50_us as i64)),
                        ("p95_us".to_string(), Json::int(p.p95_us as i64)),
                    ])
                })),
            ),
            (
                "throughput".to_string(),
                Json::array(self.throughput.iter().map(|p| {
                    Json::object([
                        ("tick".to_string(), Json::int(p.tick as i64)),
                        ("pairs".to_string(), Json::int(p.pairs as i64)),
                    ])
                })),
            ),
            (
                "faults".to_string(),
                Json::array(self.faults.iter().map(|r| {
                    Json::object([
                        ("fault".to_string(), Json::str(r.fault.clone())),
                        ("total".to_string(), Json::int(r.total as i64)),
                        (
                            "per_window".to_string(),
                            Json::array(r.per_window.iter().map(|n| Json::int(*n as i64))),
                        ),
                    ])
                })),
            ),
        ];
        if let Some(sh) = &self.storage {
            fields.push((
                "storage_health".to_string(),
                Json::object([
                    ("io_faults".to_string(), Json::int(sh.io_faults as i64)),
                    ("retries".to_string(), Json::int(sh.retries as i64)),
                    (
                        "writes_skipped".to_string(),
                        Json::int(sh.writes_skipped as i64),
                    ),
                    (
                        "dir_fsync_fails".to_string(),
                        Json::int(sh.dir_fsync_fails as i64),
                    ),
                    ("tmp_swept".to_string(), Json::int(sh.tmp_swept as i64)),
                    (
                        "quarantine_pruned".to_string(),
                        Json::int(sh.quarantine_pruned as i64),
                    ),
                    ("final_level".to_string(), Json::int(sh.final_level)),
                    (
                        "degrades".to_string(),
                        Json::array(sh.degrades.iter().map(|d| {
                            let mut f = vec![
                                ("level".to_string(), Json::str(d.level.clone())),
                                ("count".to_string(), Json::int(d.count as i64)),
                            ];
                            if let Some(t) = d.first_tick {
                                f.push(("first_tick".to_string(), Json::int(t as i64)));
                            }
                            Json::object(f)
                        })),
                    ),
                ]),
            ));
        }
        if let Some(ah) = &self.archive {
            fields.push((
                "archive_health".to_string(),
                Json::object([
                    ("packed".to_string(), Json::int(ah.packed as i64)),
                    (
                        "packs_skipped".to_string(),
                        Json::int(ah.packs_skipped as i64),
                    ),
                    (
                        "pack_failures".to_string(),
                        Json::int(ah.pack_failures as i64),
                    ),
                    (
                        "blobs_written".to_string(),
                        Json::int(ah.blobs_written as i64),
                    ),
                    (
                        "blobs_deduped".to_string(),
                        Json::int(ah.blobs_deduped as i64),
                    ),
                    (
                        "bytes_logical".to_string(),
                        Json::int(ah.bytes_logical as i64),
                    ),
                    (
                        "bytes_stored".to_string(),
                        Json::int(ah.bytes_stored as i64),
                    ),
                    ("dedup_ratio".to_string(), Json::Number(ah.dedup_ratio())),
                    (
                        "verify_failures".to_string(),
                        Json::int(ah.verify_failures as i64),
                    ),
                    ("read_faults".to_string(), Json::int(ah.read_faults as i64)),
                    (
                        "write_faults".to_string(),
                        Json::int(ah.write_faults as i64),
                    ),
                    (
                        "scrub_rounds".to_string(),
                        Json::int(ah.scrub_rounds as i64),
                    ),
                    (
                        "scrub_repaired".to_string(),
                        Json::int(ah.scrub_repaired as i64),
                    ),
                    ("replays".to_string(), Json::int(ah.replays as i64)),
                    (
                        "replay_divergences".to_string(),
                        Json::int(ah.replay_divergences as i64),
                    ),
                ]),
            ));
        }
        if !self.alerts.is_empty() {
            fields.push((
                "alerts".to_string(),
                Json::array(self.alerts.iter().map(|a| {
                    let mut f = vec![
                        ("id".to_string(), Json::str(a.id.clone())),
                        ("rule".to_string(), Json::str(a.rule.clone())),
                    ];
                    if !a.label.is_empty() {
                        f.push(("label".to_string(), Json::str(a.label.clone())));
                    }
                    f.push(("state".to_string(), Json::str(a.state.clone())));
                    f.push(("opened".to_string(), Json::int(a.opened as i64)));
                    if let Some(t) = a.fired {
                        f.push(("fired".to_string(), Json::int(t as i64)));
                    }
                    if let Some(t) = a.resolved {
                        f.push(("resolved".to_string(), Json::int(t as i64)));
                    }
                    f.push(("value".to_string(), Json::int(a.value)));
                    f.push(("threshold".to_string(), Json::int(a.threshold)));
                    Json::object(f)
                })),
            ));
        }
        if let Some(h) = &self.pair_total {
            fields.push(("pair_total".to_string(), hist(h)));
        }
        Json::object(fields)
    }
}

/// Downsample `values` to at most `width` cells by summing runs, so a
/// long campaign's heatmap still fits one terminal row.
fn compress(values: &[u64], width: usize) -> Vec<u64> {
    if values.len() <= width {
        return values.to_vec();
    }
    let mut out = vec![0u64; width];
    for (i, v) in values.iter().enumerate() {
        out[i * width / values.len()] += v;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn sample(tick: u64, pairs: u64, faults: &[(&str, u64)]) -> ObsSample {
        let mut counters = BTreeMap::new();
        counters.insert("campaign.progress".to_string(), pairs);
        for (f, n) in faults {
            counters.insert(format!("faultsim.injected{{fault={f}}}"), *n);
        }
        ObsSample {
            window: (tick.saturating_sub(pairs), tick),
            counters,
            ..ObsSample::default()
        }
    }

    fn total_snapshot() -> Snapshot {
        let mut s = Snapshot::default();
        s.histograms.insert(
            "campaign.pair".to_string(),
            HistSummary {
                count: 30,
                sum: 60_000,
                mean: 2000.0,
                min: 100,
                max: 9000,
                p50: 1500,
                p95: 7000,
                p99: 8800,
            },
        );
        s.histograms.insert(
            "checkpoint.write".to_string(),
            HistSummary {
                count: 3,
                sum: 4500,
                mean: 1500.0,
                min: 1000,
                max: 2000,
                p50: 1500,
                p95: 2000,
                p99: 2000,
            },
        );
        s
    }

    #[test]
    fn report_covers_all_sections() {
        let mut ts = TimeSeries::new(16);
        ts.push(sample(10, 10, &[("timeout", 2)]));
        ts.push(sample(20, 10, &[("timeout", 6), ("reset", 1)]));
        ts.push(sample(30, 10, &[]));
        let report = FlightReport::build(&ts, &total_snapshot());

        assert_eq!(report.pairs_total, 30);
        let ticks: Vec<u64> = report.throughput.iter().map(|p| p.tick).collect();
        assert_eq!(ticks, vec![10, 20, 30]);
        assert_eq!(report.faults.len(), 2);
        let timeout = report.faults.iter().find(|r| r.fault == "timeout").unwrap();
        assert_eq!(timeout.per_window, vec![2, 6, 0]);
        assert_eq!(timeout.total, 8);
        let phases: Vec<&str> = report.phases.iter().map(|p| p.key.as_str()).collect();
        assert_eq!(phases, vec!["campaign.pair", "checkpoint.write"]);
        assert_eq!(report.pair_total.unwrap().count, 30);
        // No storage trouble in this run: the section is omitted.
        assert!(report.storage.is_none());

        let text = report.render();
        assert!(text.contains("flight report"));
        assert!(text.contains("Phase breakdown"));
        assert!(text.contains("Throughput curve"));
        assert!(text.contains("Fault heatmap"));
        assert!(text.contains("cumulative"));

        let json = report.to_json();
        assert_eq!(
            json.get("kind").and_then(Json::as_str),
            Some("flight_report")
        );
        assert_eq!(
            json.get("faults").and_then(Json::as_array).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn storage_health_section_surfaces_degradations() {
        let mut ts = TimeSeries::new(16);
        ts.push(sample(10, 10, &[]));
        let mut s2 = sample(20, 10, &[("io-enospc", 3)]);
        s2.counters
            .insert("campaign.degrade{level=wide-cadence}".to_string(), 1);
        ts.push(s2);

        let mut total = total_snapshot();
        total.counters.insert("checkpoint.io_fault".to_string(), 4);
        total.counters.insert("checkpoint.retry".to_string(), 2);
        total.counters.insert("checkpoint.skipped".to_string(), 1);
        total
            .counters
            .insert("campaign.degrade{level=wide-cadence}".to_string(), 1);
        total
            .counters
            .insert("campaign.degrade{level=memory-only}".to_string(), 1);
        total.gauges.insert("campaign.degrade.level".to_string(), 2);

        let report = FlightReport::build(&ts, &total);
        let sh = report.storage.as_ref().expect("storage section present");
        assert!(!sh.is_quiet());
        assert_eq!((sh.io_faults, sh.retries, sh.writes_skipped), (4, 2, 1));
        assert_eq!(sh.final_level, 2);
        // Ladder order, not alphabetical; first_tick only where sampled.
        let levels: Vec<(&str, Option<u64>)> = sh
            .degrades
            .iter()
            .map(|d| (d.level.as_str(), d.first_tick))
            .collect();
        assert_eq!(
            levels,
            vec![("wide-cadence", Some(20)), ("memory-only", None)]
        );
        // IO faults also land in the ordinary fault heatmap via their
        // faultsim.injected labels.
        assert!(report.faults.iter().any(|r| r.fault == "io-enospc"));

        let text = report.render();
        assert!(text.contains("Storage health"));
        assert!(text.contains("degraded -> wide-cadence"));
        assert!(text.contains("first seen @20"));

        let json = report.to_json();
        let sh_json = json.get("storage_health").expect("json section");
        assert_eq!(
            sh_json.get("final_level").and_then(Json::as_f64),
            Some(2.0),
            "{}",
            json.to_pretty()
        );
        assert_eq!(
            sh_json
                .get("degrades")
                .and_then(Json::as_array)
                .map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn archive_health_section_surfaces_bundle_activity() {
        let mut ts = TimeSeries::new(16);
        ts.push(sample(10, 10, &[]));

        // No bundle counters: section omitted entirely.
        let report = FlightReport::build(&ts, &total_snapshot());
        assert!(report.archive.is_none());
        assert!(!report.render().contains("Archive health"));

        let mut total = total_snapshot();
        total.counters.insert("bundle.packed".to_string(), 1);
        total
            .counters
            .insert("bundle.blobs_written".to_string(), 40);
        total.counters.insert("bundle.blobs_deduped".to_string(), 8);
        total
            .counters
            .insert("bundle.bytes_logical".to_string(), 3000);
        total
            .counters
            .insert("bundle.bytes_stored".to_string(), 2000);
        total.counters.insert("bundle.scrub.rounds".to_string(), 1);
        total.counters.insert("bundle.replayed".to_string(), 1);

        let report = FlightReport::build(&ts, &total);
        let ah = report.archive.as_ref().expect("archive section present");
        assert!(!ah.is_quiet());
        assert!(ah.is_healthy(), "a clean pack+replay is healthy");
        assert_eq!((ah.packed, ah.blobs_written, ah.blobs_deduped), (1, 40, 8));
        assert!((ah.dedup_ratio() - 1.5).abs() < 1e-9);
        let text = report.render();
        assert!(text.contains("Archive health"));
        assert!(text.contains("dedup ratio 1.500"));
        assert!(text.contains("replay: 1 run(s), 0 divergence(s)"));
        assert!(!text.contains("trouble:"), "healthy run hides trouble line");

        // Trouble counters flip is_healthy and surface the detail line.
        total
            .counters
            .insert("bundle.verify.failures".to_string(), 2);
        total
            .counters
            .insert("bundle.scrub.repaired".to_string(), 2);
        total
            .counters
            .insert("bundle.replay.divergence".to_string(), 1);
        let report = FlightReport::build(&ts, &total);
        let ah = report.archive.as_ref().unwrap();
        assert!(!ah.is_healthy());
        let text = report.render();
        assert!(text.contains("trouble:"));
        assert!(text.contains("2 corrupt blob(s) found"));

        let json = report.to_json();
        let ah_json = json.get("archive_health").expect("json section");
        assert_eq!(ah_json.get("packed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            ah_json.get("dedup_ratio").and_then(Json::as_f64),
            Some(1.5),
            "{}",
            json.to_pretty()
        );
        assert_eq!(
            ah_json.get("replay_divergences").and_then(Json::as_f64),
            Some(1.0)
        );
    }

    #[test]
    fn compress_preserves_totals() {
        let values: Vec<u64> = (0..100).map(|i| i % 7).collect();
        let c = compress(&values, 40);
        assert_eq!(c.len(), 40);
        assert_eq!(c.iter().sum::<u64>(), values.iter().sum::<u64>());
        assert_eq!(compress(&[1, 2, 3], 40), vec![1, 2, 3]);
    }
}
