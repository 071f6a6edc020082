//! Watchdog alerting, end to end.
//!
//! The deterministic claim under test: a durable campaign run with a
//! [`Watch`] wired into the checkpoint driver produces an `ALERTS`
//! JSONL export that is **byte-identical across thread counts and
//! kill-halfway resumes** — the same contract `tests/it_obs.rs` pins
//! for the `OBS` export. The engine only evaluates detector windows at
//! checkpoint cuts, detector state rides inside every checkpoint
//! (section `watch-state`), and a window's alert events are committed
//! only after its checkpoint is durable, so the alert log is a pure
//! function of the workload.
//!
//! On top of the byte contract, a seeded-chaos campaign must actually
//! *fire* — at least one burn-rate SLO alert and one drift alert — and
//! everything the watchdog reports must reconcile: the event log, the
//! `watch.alert` telemetry counters, the firing gauges, and the
//! supervisor health report annotation all describe the same alerts.
//!
//! Tests serialize on a lock because the trace log and telemetry
//! registry are process-global; each test leaves both cleared and
//! disabled, mirroring `it_obs`.

use consent_checkpoint::{CheckpointStore, DEFAULT_KEEP};
use consent_crawler::{run_durable_campaign, DurableOpts, DurableOutcome, DurableRun};
use consent_faultsim::{CrashPlan, FaultProfile, FaultyVfs, IoFaultPlan};
use consent_httpsim::Vantage;
use consent_integration_tests::{config, ticks_of, tmp_dir, toplist, world, DAY};
use consent_util::{Json, SeedTree};
use consent_watch::rules::WatchConfig;
use consent_watch::Watch;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

static LOCK: Mutex<()> = Mutex::new(());
const TMP: &str = "consent-it-watch";

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

/// Thresholds tight enough that a mild-chaos 16-pair campaign walks
/// alerts through their whole lifecycle within four windows.
fn tight_rules() -> WatchConfig {
    WatchConfig::parse("slo:usable:995:2;slo:deadletter:5:2;drift:throughput:50:1;gap:3")
        .expect("tight rule spec parses")
}

/// One durable-campaign incarnation with a fresh watch on the tight
/// rules (see [`incarnation`]).
fn watch_incarnation(
    store: &CheckpointStore,
    threads: usize,
    crash: CrashPlan,
) -> (DurableRun, String) {
    incarnation(store, threads, crash, tight_rules())
}

/// One durable-campaign incarnation with a fresh watch on `rules`:
/// trace and telemetry are wiped first (a new process starts empty),
/// and the watch's `ALERTS` export is returned alongside the run. The
/// driver re-imports detector state from the checkpoint's `watch-state`
/// section, exactly like a restarted process would.
fn incarnation(
    store: &CheckpointStore,
    threads: usize,
    crash: CrashPlan,
    rules: WatchConfig,
) -> (DurableRun, String) {
    consent_trace::clear();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let watch = Watch::attach(consent_telemetry::global(), rules);
    let run = watch_campaign(store, threads, crash, Some(watch.clone()));
    (run, watch.export_jsonl())
}

/// The campaign every incarnation runs: 8 domains × 2 vantages under
/// mild chaos, checkpointed every 5 pairs, with `watch` attached.
fn watch_campaign(
    store: &CheckpointStore,
    threads: usize,
    crash: CrashPlan,
    watch: Option<Arc<Watch>>,
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
            watch,
            ..DurableOpts::default()
        },
    )
    .expect("durable campaign io")
}

#[test]
fn alerts_export_is_byte_identical_across_threads_and_kill_halfway_resume() {
    let guard = lock();

    // The uninterrupted single-thread export: the bytes every other
    // incarnation pattern must reproduce.
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    let (run, baseline) = watch_incarnation(&store, 1, CrashPlan::none());
    assert_eq!(run.outcome, DurableOutcome::Complete);
    std::fs::remove_dir_all(&dir).unwrap();

    // Watching never changes the measurement: the same campaign with
    // the registry off and no watch attached exports the same state.
    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    consent_trace::clear();
    consent_telemetry::disable();
    let plain = watch_campaign(&store, 1, CrashPlan::none(), None);
    assert_eq!(plain.outcome, DurableOutcome::Complete);
    assert!(
        plain.state.export() == run.state.export(),
        "watching changed the campaign state"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // The tight rules must actually exercise the lifecycle — an empty
    // log would make byte-identity trivially (and meaninglessly) true.
    assert!(!baseline.is_empty(), "tight rules produced no alerts");
    let states: Vec<String> = baseline
        .lines()
        .map(|l| {
            let j = Json::parse(l).expect("ALERTS line parses");
            assert_eq!(j.get("kind").and_then(Json::as_str), Some("alert"));
            assert_eq!(j.get("schema").and_then(Json::as_f64), Some(1.0));
            assert!(j.get("id").and_then(Json::as_str).is_some());
            assert!(j.get("rule").and_then(Json::as_str).is_some());
            j.get("state").and_then(Json::as_str).unwrap().to_string()
        })
        .collect();
    assert!(states.iter().any(|s| s == "firing"), "{states:?}");
    // Alert events only exist at durable window boundaries: 8 domains
    // × 2 vantages in chunks of 5 cuts checkpoints at 5, 10, 15, 16.
    for t in ticks_of(&baseline) {
        assert!([5, 10, 15, 16].contains(&t), "event at non-window tick {t}");
    }

    // Same bytes at every thread count.
    for threads in [2usize, 4] {
        let dir = tmp_dir(TMP);
        let store = CheckpointStore::open(&dir).unwrap();
        let (run, jsonl) = watch_incarnation(&store, threads, CrashPlan::none());
        assert_eq!(run.outcome, DurableOutcome::Complete);
        assert!(
            jsonl == baseline,
            "ALERTS export diverged at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Kill halfway (after applied pair 11, mid third chunk): the dead
    // process logged alerts for windows 5 and 10; the resumed process —
    // fresh registry, fresh watch, detector state re-imported from the
    // checkpoint — logs windows 15 and 16. Concatenated, the two
    // incarnations equal the uninterrupted run byte for byte: no alert
    // is lost, re-emitted, or doubled, and multi-window detector memory
    // (burn-rate rings, EWMA, gap anchors) survives the crash.
    for threads in [1usize, 2, 4] {
        let dir = tmp_dir(TMP);
        let store = CheckpointStore::open(&dir).unwrap();
        let (crashed, first) = watch_incarnation(&store, threads, CrashPlan::after_apply(11));
        match crashed.outcome {
            DurableOutcome::Crashed { durable_pairs, .. } => assert_eq!(durable_pairs, 10),
            other => panic!("crashpoint apply:11 never fired: {other:?}"),
        }
        assert!(
            ticks_of(&first).iter().all(|t| [5, 10].contains(t)),
            "undurable window alerted"
        );
        let (resumed, second) = watch_incarnation(&store, threads, CrashPlan::none());
        assert_eq!(resumed.outcome, DurableOutcome::Complete);
        assert!(
            format!("{first}{second}") == baseline,
            "concatenated ALERTS export diverged after kill at {threads} threads"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    unlock(guard);
}

/// A fresh store whose disk fails the cut-10 checkpoint write once: the
/// cut-5 save is operations 0–4 (create, write, sync, rename, directory
/// sync), so operation 6 is the cut-10 save's write.
fn store_failing_cut_10(dir: &Path) -> CheckpointStore {
    let plan = IoFaultPlan::parse("eio@write:6").expect("io plan parses");
    CheckpointStore::with_vfs(dir, DEFAULT_KEEP, Arc::new(FaultyVfs::new(plan)))
        .expect("store opens")
}

#[test]
fn storage_slo_alerts_are_crash_consistent() {
    let guard = lock();
    // Any fault or retry in a window breaches, and one window confirms.
    let rules = || WatchConfig::parse("slo:iofault:1:1;slo:retry:1:1").expect("rules parse");
    for threads in [1usize, 2, 4] {
        // Uninterrupted: the cut-10 write fails once and its retry
        // lands, so the window that write closes, (5, 10], holds one
        // fault and one retry over two attempts. Both rules open and
        // fire at tick 10 and resolve at the next durable cut.
        let dir = tmp_dir(TMP);
        let (run, baseline) = incarnation(
            &store_failing_cut_10(&dir),
            threads,
            CrashPlan::none(),
            rules(),
        );
        assert_eq!(run.outcome, DurableOutcome::Complete);
        assert_eq!(run.health.retries, 1, "{}", run.health.render());
        std::fs::remove_dir_all(&dir).unwrap();
        for rule in ["slo:iofault:1:1", "slo:retry:1:1"] {
            let lifecycle: Vec<(String, u64)> = baseline
                .lines()
                .map(|l| Json::parse(l).expect("ALERTS line parses"))
                .filter(|j| j.get("rule").and_then(Json::as_str) == Some(rule))
                .map(|j| {
                    (
                        j.get("state").and_then(Json::as_str).unwrap().to_string(),
                        j.get("tick").and_then(Json::as_f64).unwrap() as u64,
                    )
                })
                .collect();
            let want = [("pending", 10), ("firing", 10), ("resolved", 15)];
            assert_eq!(
                lifecycle,
                want.map(|(s, t)| (s.to_string(), t)),
                "{rule} at {threads} threads:\n{baseline}"
            );
        }

        // Kill after applied pair 11: the cut-10 write, its fault and
        // its retry are durable, so the dead process already logged
        // their alerts; the resumed process, on a fault-free disk,
        // logs only the resolutions.
        let dir = tmp_dir(TMP);
        let (crashed, first) = incarnation(
            &store_failing_cut_10(&dir),
            threads,
            CrashPlan::after_apply(11),
            rules(),
        );
        match crashed.outcome {
            DurableOutcome::Crashed { durable_pairs, .. } => assert_eq!(durable_pairs, 10),
            other => panic!("crashpoint apply:11 never fired: {other:?}"),
        }
        let store = CheckpointStore::open(&dir).unwrap();
        let (resumed, second) = incarnation(&store, threads, CrashPlan::none(), rules());
        assert_eq!(resumed.outcome, DurableOutcome::Complete);
        assert!(
            format!("{first}{second}") == baseline,
            "storage-SLO ALERTS diverged after kill at {threads} threads:\n\
             {first}{second}\nvs\n{baseline}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    unlock(guard);
}

#[test]
fn seeded_chaos_fires_and_reconciles_with_telemetry_and_health() {
    let guard = lock();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let base = consent_telemetry::global().snapshot();
    // Burn-rate thresholds a hot chaos profile is certain to breach,
    // plus a drift rule armed after two windows.
    let rules =
        WatchConfig::parse("slo:usable:950:2;slo:deadletter:10:2;drift:throughput:50:2;gap:2")
            .unwrap();
    let watch = Watch::attach(consent_telemetry::global(), rules);
    // Heavy chaos: near-certain anti-bot escalation dead-letters pairs
    // through the breaker, and failed attempts leave unusable statuses.
    let profile = FaultProfile::heavy();
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
            watch: Some(Arc::clone(&watch)),
            ..DurableOpts::default()
        },
    )
    .unwrap();
    assert_eq!(run.outcome, DurableOutcome::Complete);
    std::fs::remove_dir_all(&dir).unwrap();

    let events = watch.events();
    assert!(
        events.iter().any(|e| e.state == "resolved"),
        "no alert resolved — lifecycle not fully exercised"
    );
    assert!(
        events
            .iter()
            .any(|e| e.rule.starts_with("slo:") && e.state == "firing"),
        "no burn-rate alert fired under hot chaos"
    );
    assert!(
        events
            .iter()
            .any(|e| e.rule.starts_with("drift:") && e.state == "firing"),
        "no drift alert fired under hot chaos"
    );

    // The `watch.alert` counters are written exactly once per recorded
    // event, labeled by rule and state: the cumulative delta must
    // reconcile with the event log event-for-event.
    let total = consent_telemetry::global().delta(&base);
    let counted: u64 = total
        .counters_with_prefix("watch.alert{")
        .map(|(_, n)| n)
        .sum();
    assert_eq!(counted, events.len() as u64, "counter/event-log mismatch");
    for state in ["pending", "firing", "resolved"] {
        let by_state: u64 = total
            .counters_with_prefix("watch.alert{")
            .filter(|(k, _)| k.contains(&format!("state={state}")))
            .map(|(_, n)| n)
            .sum();
        assert_eq!(
            by_state,
            events.iter().filter(|e| e.state == state).count() as u64,
            "state {state} out of reconciliation"
        );
    }

    // The health report's alert annotation is the watch's firing
    // summary: one line per firing transition, verbatim.
    assert_eq!(run.health.alerts, watch.fired_summaries());
    assert_eq!(
        run.health.alerts.len(),
        events.iter().filter(|e| e.state == "firing").count()
    );
    assert!(run.health.summary().contains("alerts_fired="));

    // Still-open alerts show as gauges — what a scrape would see.
    let open = events.iter().filter(|e| e.state == "firing").count()
        - events.iter().filter(|e| e.state == "resolved").count();
    assert_eq!(watch.firing(), open);
    unlock(guard);
}

mod watch_grammar_properties {
    use super::*;
    use consent_watch::rules::{DriftMetric, DriftRule, GapRule, SloMetric, SloRule};
    use proptest::prelude::*;

    /// Structured configs drawn from the full rule grammar: up to four
    /// SLO rules, up to three drift rules, an optional gap rule.
    fn config_strategy() -> impl Strategy<Value = WatchConfig> {
        let slo = (0u8..4, 1u64..=1000, 1u64..9).prop_map(|(m, pm, w)| SloRule {
            metric: [
                SloMetric::Usable,
                SloMetric::DeadLetter,
                SloMetric::IoFault,
                SloMetric::Retry,
            ][m as usize],
            threshold_pm: pm,
            long_windows: w,
        });
        let drift = (0u8..2, 1u64..2000, 1u64..16).prop_map(|(m, z, w)| DriftRule {
            metric: [DriftMetric::Cmp, DriftMetric::Throughput][m as usize],
            z_centi: z,
            warmup: w,
        });
        (
            proptest::collection::vec(slo, 0..4),
            proptest::collection::vec(drift, 0..3),
            proptest::option::of(1u64..100),
        )
            .prop_map(|(slo, drift, gap)| WatchConfig {
                slo,
                drift,
                gap: gap.map(|ticks| GapRule { ticks }),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every config the grammar can express survives an env-spec
        /// round-trip: `parse(display(config)) == config` — the same
        /// property the `CONSENT_IO_CHAOS` grammar pins.
        #[test]
        fn watch_config_env_spec_round_trips(config in config_strategy()) {
            let spec = config.to_string();
            let reparsed = WatchConfig::parse(&spec);
            prop_assert_eq!(reparsed.as_ref(), Some(&config), "spec {}", spec);
            // Display is a fixpoint: re-displaying the reparse is stable.
            prop_assert_eq!(reparsed.unwrap().to_string(), spec);
        }
    }
}
