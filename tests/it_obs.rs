//! Flight-recorder observability, end to end.
//!
//! The deterministic claim under test: a durable campaign run with a
//! [`Sampler`] attached produces an `OBS` JSONL export that is
//! **byte-identical across thread counts and kill-halfway resumes**.
//! Samples are emitted only when a covering checkpoint is durable, the
//! driver opens its observation window after recovery's re-import
//! traffic, and the thread-count-dependent metric families are
//! deny-listed — so the export is a pure function of the workload,
//! like the state and trace exports the durability suite pins.
//!
//! The flight report built from that series must describe the same
//! windows, and the Prometheus exposition must follow the text format's
//! line grammar and escaping rules. A `Registry::reset` racing a live
//! sampler is lossy but never corrupting.
//!
//! Tests serialize on a lock because the trace log and telemetry
//! registry are process-global; each test leaves both cleared and
//! disabled, mirroring `it_durability`.

use consent_checkpoint::CheckpointStore;
use consent_crawler::{run_durable_campaign, DurableOpts, DurableOutcome, DurableRun};
use consent_faultsim::{CrashPlan, FaultProfile};
use consent_httpsim::Vantage;
use consent_integration_tests::{
    assert_prometheus_well_formed, config, ticks_of, tmp_dir, toplist, world, DAY,
};
use consent_obs::{FlightReport, ObsConfig, Sampler};
use consent_util::{Json, SeedTree};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());
const TMP: &str = "consent-it-obs";

/// Hold the global trace log + telemetry registry for one test.
fn lock() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    consent_trace::clear();
    consent_trace::enable();
    guard
}

fn unlock(guard: MutexGuard<'static, ()>) {
    consent_telemetry::disable();
    consent_telemetry::reset();
    consent_trace::disable();
    consent_trace::clear();
    drop(guard);
}

/// One durable-campaign incarnation with a fresh deterministic sampler:
/// trace and telemetry are wiped first (a new process starts empty),
/// and the sampler's `OBS` export is returned alongside the run.
fn obs_incarnation(
    store: &CheckpointStore,
    threads: usize,
    crash: CrashPlan,
) -> (DurableRun, String) {
    consent_trace::clear();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let sampler = Sampler::attach(consent_telemetry::global(), ObsConfig::deterministic());
    let run = obs_campaign(store, threads, crash, Some(sampler.clone()));
    (run, sampler.export_jsonl())
}

/// The campaign every incarnation runs: 8 domains × 2 vantages under
/// mild chaos, checkpointed every 5 pairs, with `sampler` attached.
fn obs_campaign(
    store: &CheckpointStore,
    threads: usize,
    crash: CrashPlan,
    sampler: Option<Arc<Sampler>>,
) -> DurableRun {
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    run_durable_campaign(
        world(),
        &toplist()[..8],
        DAY(),
        &vantages,
        SeedTree::new(9),
        store,
        &DurableOpts {
            threads,
            config: config(FaultProfile::mild()),
            checkpoint_every: 5,
            crash,
            sampler,
            ..DurableOpts::default()
        },
    )
    .expect("durable campaign io")
}

#[test]
fn obs_export_is_byte_identical_across_threads_and_kill_halfway_resume() {
    let guard = lock();

    // The uninterrupted single-thread export: the bytes every other
    // incarnation pattern must reproduce.
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    let (run, baseline) = obs_incarnation(&store, 1, CrashPlan::none());
    assert_eq!(run.outcome, DurableOutcome::Complete);
    std::fs::remove_dir_all(&dir).unwrap();

    // Recording never changes the measurement: the same campaign with
    // the registry off and no sampler attached exports the same state.
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    consent_trace::clear();
    consent_telemetry::disable();
    let plain = obs_campaign(&store, 1, CrashPlan::none(), None);
    assert_eq!(plain.outcome, DurableOutcome::Complete);
    assert!(
        plain.state.export() == run.state.export(),
        "sampling changed the campaign state"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // 8 domains × 2 vantages in chunks of 5: a sample per durable
    // checkpoint, nothing else.
    assert_eq!(ticks_of(&baseline), vec![5, 10, 15, 16]);
    for line in baseline.lines() {
        let j = Json::parse(line).unwrap();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("obs"));
        assert_eq!(
            j.get("seq").and_then(Json::as_f64),
            j.get("tick").and_then(Json::as_f64)
        );
        // Logical samples stay inside the determinism boundary: no wall
        // clock, no thread-count-dependent families.
        assert!(j.get("elapsed_us").is_none(), "wall clock leaked: {line}");
        assert!(j.get("gauges").is_none(), "gauges leaked: {line}");
        assert!(
            !line.contains("campaign.parallel."),
            "denied family leaked: {line}"
        );
        // Windows carry real traffic.
        assert!(j.get("counters").is_some(), "empty sample: {line}");
    }

    // Same bytes at every thread count.
    for threads in [2usize, 4] {
        let dir = tmp_dir(TMP);
        let store = CheckpointStore::open(&dir).unwrap();
        let (run, jsonl) = obs_incarnation(&store, threads, CrashPlan::none());
        assert_eq!(run.outcome, DurableOutcome::Complete);
        assert!(
            jsonl == baseline,
            "OBS export diverged at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Kill halfway (after applied pair 11, mid third chunk): the dead
    // process exported windows 5 and 10; the resumed process — fresh
    // registry, fresh sampler, window opened after recovery — exports 15
    // and 16. Concatenated, the two incarnations equal the uninterrupted
    // run byte for byte: no window is lost, re-emitted, or doubled.
    for threads in [1usize, 2, 4] {
        let dir = tmp_dir(TMP);
        let store = CheckpointStore::open(&dir).unwrap();
        let (crashed, first) = obs_incarnation(&store, threads, CrashPlan::after_apply(11));
        match crashed.outcome {
            DurableOutcome::Crashed { durable_pairs, .. } => assert_eq!(durable_pairs, 10),
            other => panic!("crashpoint apply:11 never fired: {other:?}"),
        }
        assert_eq!(ticks_of(&first), vec![5, 10], "undurable window sampled");
        let (resumed, second) = obs_incarnation(&store, threads, CrashPlan::none());
        assert_eq!(resumed.outcome, DurableOutcome::Complete);
        assert_eq!(ticks_of(&second), vec![15, 16]);
        assert!(
            format!("{first}{second}") == baseline,
            "concatenated OBS export diverged after kill at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    unlock(guard);
}

#[test]
fn resume_skips_are_counted_once_per_incarnation() {
    let guard = lock();
    let skipped = || {
        consent_telemetry::global()
            .snapshot()
            .counter("campaign.pairs_skipped")
    };

    // An uninterrupted run skips nothing, however many chunks it takes.
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    let (run, jsonl) = obs_incarnation(&store, 2, CrashPlan::none());
    assert_eq!(run.outcome, DurableOutcome::Complete);
    assert_eq!(skipped(), 0);
    assert!(!jsonl.contains("campaign.pairs_skipped"), "{jsonl}");
    std::fs::remove_dir_all(&dir).unwrap();

    // A resumed incarnation skips its recovered cursor, counted once and
    // before the observation window opens, so no window attributes it.
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    let (crashed, _) = obs_incarnation(&store, 2, CrashPlan::after_apply(11));
    let DurableOutcome::Crashed { durable_pairs, .. } = crashed.outcome else {
        panic!("crashpoint apply:11 never fired: {:?}", crashed.outcome);
    };
    assert_eq!(durable_pairs, 10);
    let (resumed, second) = obs_incarnation(&store, 2, CrashPlan::none());
    assert_eq!(resumed.outcome, DurableOutcome::Complete);
    assert_eq!(skipped(), durable_pairs);
    assert!(!second.contains("campaign.pairs_skipped"), "{second}");
    std::fs::remove_dir_all(&dir).unwrap();
    unlock(guard);
}

/// Re-parse the exposition like a scraper would: HELP/TYPE metadata per
/// family, then label blocks unescaped back to their raw values. Hostile
/// label values (quotes, newlines, backslashes) must round-trip exactly,
/// and every family must carry usable HELP metadata.
#[test]
fn prometheus_exposition_reparses_with_escaped_labels_and_help() {
    let guard = lock();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let hostile = "EU \"cloud\"\n\\x";
    consent_telemetry::count_labeled("esc.metric", &[("loc", hostile)], 3);
    consent_telemetry::count_labeled("watch.alert", &[("rule", "gap:3"), ("state", "firing")], 2);
    let prom = consent_obs::prometheus::exposition(&consent_telemetry::global().snapshot());
    assert_prometheus_well_formed(&prom);

    let unescape = |s: &str| {
        let mut out = String::new();
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => panic!("dangling escape in {s:?}"),
            }
        }
        out
    };

    let mut help: Vec<(String, String)> = Vec::new();
    let mut labels: Vec<(String, String, String)> = Vec::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').unwrap();
            help.push((name.to_string(), unescape(text)));
        } else if line.starts_with('#') {
            continue;
        } else if let Some((series, _)) = line.rsplit_once(' ') {
            if let Some((name, block)) = series.split_once('{') {
                let block = block.strip_suffix('}').expect("label block closes");
                // One label pair per k="v" segment; escaped quotes never
                // terminate a value, so split on `",` boundaries.
                for pair in block.split("\",") {
                    let pair = pair.strip_suffix('"').unwrap_or(pair);
                    let (k, v) = pair.split_once("=\"").expect("label pair");
                    labels.push((name.to_string(), k.to_string(), unescape(v)));
                }
            }
        }
    }
    assert!(
        labels
            .iter()
            .any(|(n, k, v)| n == "esc_metric_total" && k == "loc" && v == hostile),
        "hostile label value did not round-trip: {labels:?}"
    );
    assert!(
        labels
            .iter()
            .any(|(n, k, v)| n == "watch_alert_total" && k == "state" && v == "firing"),
        "watch alert series missing"
    );
    // Curated HELP for the watch family; fallback HELP for the unknown
    // one — and each family documented exactly once.
    let help_of = |name: &str| {
        let texts: Vec<&String> = help
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, t)| t)
            .collect();
        assert_eq!(
            texts.len(),
            1,
            "family {name} documented {} times",
            texts.len()
        );
        texts[0].clone()
    };
    assert!(help_of("watch_alert_total").starts_with("Campaign watchdog:"));
    assert_eq!(help_of("esc_metric_total"), "Metric esc_metric.");
    unlock(guard);
}

/// `consent_telemetry::reset` racing a live sampler on the global
/// registry: the test thread writes through the free functions and
/// resets, while a sampler thread closes windows with
/// `Registry::delta` and records them. Between resets the two run
/// freely; around each reset they hand off, so the reset lands inside
/// a window whose baseline holds the 250 writes before it and which
/// closes one write after it — the straddle an unsaturated delta would
/// wrap.
#[test]
fn registry_reset_racing_a_live_sampler_is_lossy_never_corrupt() {
    let guard = lock();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let registry = consent_telemetry::global();
    const WRITES: u64 = 5_000;
    const RESET_EVERY: u64 = 250;
    let sampler = Sampler::attach(
        registry,
        ObsConfig {
            capacity: 2 * WRITES as usize,
        },
    );

    let done = AtomicBool::new(false);
    let written = AtomicU64::new(0);
    let baselined = AtomicU64::new(0);
    let windows = std::thread::scope(|sc| {
        let sampling = sc.spawn(|| {
            let mut windows = Vec::new();
            let mut base = registry.snapshot();
            let mut covered = 0;
            for tick in 1.. {
                // A window closes only once it holds a new write.
                while written.load(Ordering::Acquire) == covered && !done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let last = done.load(Ordering::Acquire);
                // Read before the snapshot: the new baseline holds at
                // least this many writes.
                covered = written.load(Ordering::Acquire);
                let delta = registry.delta(&base);
                base = registry.snapshot();
                sampler.record((tick - 1, tick), &delta);
                let lat = delta.histograms.get("race.lat").map_or(0, |h| h.count);
                windows.push((delta.counter("race.counter"), lat));
                baselined.store(covered, Ordering::Release);
                if last {
                    break;
                }
            }
            windows
        });
        for i in 0..WRITES {
            consent_telemetry::count("race.counter", 1);
            consent_telemetry::observe("race.lat", i % 97);
            written.store(i + 1, Ordering::Release);
            // Hand off on the write before a reset and the one after.
            if i % RESET_EVERY <= 1 {
                while baselined.load(Ordering::Acquire) <= i && !sampling.is_finished() {
                    std::thread::yield_now();
                }
            }
            if i % RESET_EVERY == 0 {
                consent_telemetry::reset();
            }
        }
        done.store(true, Ordering::Release);
        sampling.join().expect("sampler thread")
    });

    // Deltas saturate at reset boundaries: a window straddling a reset
    // under-counts, it never wraps around to 2^64-ish.
    assert!(windows.len() as u64 > 2 * (WRITES / RESET_EVERY));
    for &(n, lat) in &windows {
        assert!(n <= WRITES, "counter delta wrapped: {n}");
        assert!(lat <= WRITES, "histogram count wrapped: {lat}");
    }
    let seen: u64 = windows.iter().map(|&(n, _)| n).sum();
    assert!(seen <= WRITES, "windows double-counted: {seen} > {WRITES}");
    // One OBS line per window, each carrying the delta its window read.
    let export = sampler.export_jsonl();
    let lines: Vec<&str> = export.lines().collect();
    assert_eq!(lines.len(), windows.len());
    for (line, &(n, lat)) in lines.iter().zip(&windows) {
        let j = Json::parse(line).expect("raced OBS line parses");
        let field = |section: &str, key: &str| {
            j.get(section)
                .and_then(|c| c.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64
        };
        assert_eq!(field("counters", "race.counter"), n, "{line}");
        assert_eq!(field("events", "race.lat"), lat, "{line}");
    }
    assert_prometheus_well_formed(&sampler.prometheus());
    unlock(guard);
}

#[test]
fn ring_buffer_evicts_oldest_samples_and_reports_drops() {
    let guard = lock();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let sampler = Sampler::attach(consent_telemetry::global(), ObsConfig { capacity: 4 });
    for tick in 1..=10u64 {
        let base = consent_telemetry::global().snapshot();
        consent_telemetry::count("ring.pairs", 1);
        sampler.record((tick - 1, tick), &consent_telemetry::global().delta(&base));
    }
    assert_eq!(sampler.len(), 4);
    assert_eq!(sampler.dropped(), 6);
    assert_eq!(ticks_of(&sampler.export_jsonl()), vec![7, 8, 9, 10]);
    unlock(guard);
}

#[test]
fn flight_report_covers_a_chaotic_durable_campaign() {
    let guard = lock();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let base = consent_telemetry::global().snapshot();
    let sampler = Sampler::attach(consent_telemetry::global(), ObsConfig::deterministic());
    // Chaos hot enough that fault injection is certain over 24 pairs.
    let profile = FaultProfile {
        timeout: 0.35,
        reset: 0.2,
        ..FaultProfile::none()
    };
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let run = run_durable_campaign(
        world(),
        toplist(),
        DAY(),
        &vantages,
        SeedTree::new(9),
        &store,
        &DurableOpts {
            threads: 2,
            config: config(profile),
            checkpoint_every: 5,
            crash: CrashPlan::none(),
            sampler: Some(Arc::clone(&sampler)),
            ..DurableOpts::default()
        },
    )
    .unwrap();
    assert_eq!(run.outcome, DurableOutcome::Complete);
    std::fs::remove_dir_all(&dir).unwrap();

    let total = consent_telemetry::global().delta(&base);
    let report = FlightReport::build(&sampler.series(), &total);

    assert_eq!(report.pairs_total, 24, "12 domains × 2 vantages");
    assert_eq!(report.samples_dropped, 0);
    assert!(
        report.phases.iter().any(|p| p.key == "campaign.pair"),
        "pair processing missing from the phase breakdown"
    );
    // The report's windows are the OBS export's windows.
    let ticks: Vec<u64> = report.throughput.iter().map(|p| p.tick).collect();
    assert_eq!(ticks, vec![5, 10, 15, 20, 24], "24 pairs in chunks of 5");
    assert_eq!(ticks, ticks_of(&sampler.export_jsonl()));
    assert!(report
        .faults
        .iter()
        .all(|r| r.per_window.len() == ticks.len()));
    // The heatmap reconciles with the registry: per-window injection
    // counts sum to the cumulative faultsim.injected totals.
    let injected: u64 = total
        .counters_with_prefix("faultsim.injected{")
        .map(|(_, n)| n)
        .sum();
    assert!(injected > 0, "hot chaos profile injected nothing");
    assert_eq!(report.faults.iter().map(|r| r.total).sum::<u64>(), injected);
    assert_eq!(report.pair_total.unwrap().count, 24);

    let text = report.render();
    for section in [
        "flight report",
        "Phase breakdown",
        "Throughput curve",
        "Fault heatmap",
        "cumulative",
    ] {
        assert!(text.contains(section), "missing {section:?}:\n{text}");
    }
    let json = report.to_json();
    assert_eq!(
        json.get("kind").and_then(Json::as_str),
        Some("flight_report")
    );
    assert_eq!(json.get("schema").and_then(Json::as_f64), Some(1.0));

    // What a scrape endpoint would serve at the end of the run.
    let prom = sampler.prometheus();
    assert_prometheus_well_formed(&prom);
    assert!(prom.contains("# TYPE campaign_pair summary"), "{prom}");
    assert!(prom.contains("campaign_pair_count"), "{prom}");
    unlock(guard);
}
