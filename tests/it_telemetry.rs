//! End-to-end telemetry reconciliation.
//!
//! The reconciliation test uses the process-global telemetry registry,
//! so it lives in its own integration-test binary and must stay the
//! only test fn that touches the global: nothing else may enable
//! recording or the deltas would mix. The reset-race test below is
//! safe to share the binary because it runs against its own leaked
//! local registry.

use consent_core::{experiments, Study, StudyConfig};
use consent_crawler::{FeedConfig, Platform};
use consent_faultsim::FaultProfile;
use consent_telemetry::{global, Registry, RunReport};
use consent_util::Day;
use std::collections::BTreeMap;

#[test]
fn run_reports_reconcile_with_capture_db() {
    let study = Study::quick();
    for profile in [FaultProfile::none(), FaultProfile::mild()] {
        reconcile(&study, profile);
        detections_are_counted_once(&Study::new(StudyConfig {
            fault_profile: profile,
            ..StudyConfig::quick()
        }));
    }
}

/// One detection per crawled pair. The campaign detects CMPs once, on
/// the worker that crawled the pair, and every reader takes the stored
/// set: the `table1` run's `fingerprint.detect.*` counters are exactly
/// the tallies of the records it returns, and the `i3` run, which
/// crawls nothing, counts no detection.
fn detections_are_counted_once(study: &Study) {
    consent_telemetry::enable();
    let profile = study.config().fault_profile;
    let t1 = experiments::run_reported(study, "table1", || experiments::table1::table1(study));
    let _i3 = experiments::run_reported(study, "i3", || experiments::i3::i3_customization(&t1));
    let reports = study.reports();
    let [table1, i3] = &reports[reports.len() - 2..] else {
        unreachable!("two reports were recorded");
    };
    assert_eq!((table1.name.as_str(), i3.name.as_str()), ("table1", "i3"));

    let mut want: BTreeMap<String, u64> = BTreeMap::new();
    let mut tally = |key: String| *want.entry(key).or_default() += 1;
    for (_, records) in &t1.campaign.columns {
        for c in records {
            if !c.status.usable() {
                tally("fingerprint.detect.unusable".into());
                continue;
            }
            if c.status.degraded() {
                tally("fingerprint.detect.degraded".into());
            }
            if c.cmps.is_empty() && c.status.degraded() {
                tally("fingerprint.detect.miss_degraded".into());
            } else if c.cmps.is_empty() {
                tally("fingerprint.detect.miss".into());
            }
            for cmp in c.cmps {
                tally(format!("fingerprint.detect.hit{{cmp={}}}", cmp.name()));
            }
        }
    }
    let got: BTreeMap<String, u64> = table1
        .delta
        .counters_with_prefix("fingerprint.detect.")
        .map(|(key, n)| (key.to_string(), n))
        .collect();
    assert!(want.contains_key("fingerprint.detect.miss"), "{profile}");
    assert_eq!(got, want, "table1 detections ({profile})");
    let i3_detections: Vec<_> = i3
        .delta
        .counters_with_prefix("fingerprint.detect.")
        .collect();
    assert!(i3_detections.is_empty(), "{i3_detections:?} ({profile})");
    consent_telemetry::disable();
}

/// The reconciliation itself, with the social-feed platform under
/// `profile`.
fn reconcile(study: &Study, profile: FaultProfile) {
    consent_telemetry::enable();

    // Social-feed pipeline: every insert into the CaptureDb increments
    // the capture_db.insert{location,status} family, so the report's
    // totals must equal the database row count exactly.
    let platform = Platform::with_faults(
        study.world(),
        FeedConfig {
            urls_per_day: 150,
            ..FeedConfig::default()
        },
        profile,
        study.seed().child("it-telemetry"),
    );
    let ((db, stats), report) = RunReport::collect(global(), "platform", || {
        platform.run(Day::from_ymd(2020, 5, 1), Day::from_ymd(2020, 5, 3))
    });
    assert!(!db.is_empty(), "pipeline produced no captures");
    assert_eq!(report.captures_total(), db.len());
    assert_eq!(report.captures_total(), stats.captured);

    let by_location = report.captures_by_location();
    assert_eq!(by_location.values().sum::<u64>(), db.len());
    // The social feed assigns US and EU cloud vantages only.
    assert_eq!(by_location.len(), 2);
    assert!(by_location.contains_key("US cloud"));
    assert!(by_location.contains_key("EU cloud"));
    let by_status = report.captures_by_status();
    assert_eq!(by_status.values().sum::<u64>(), db.len());

    // Every platform capture either ran through the engine or was
    // preempted by a connection-level injected fault (brownout, reset,
    // anti-bot escalation never reach the origin; injected timeouts and
    // truncations degrade a real engine capture). Fault-free, the fault
    // terms are zero and this reduces to engine outcomes == captures.
    let outcomes: u64 = report
        .delta
        .counters_with_prefix("engine.capture.outcome")
        .map(|(_, n)| n)
        .sum();
    let preempting: u64 = ["brownout", "reset", "antibot_escalation"]
        .iter()
        .map(|f| {
            report
                .delta
                .counter(&format!("faultsim.injected{{fault={f}}}"))
        })
        .sum();
    assert_eq!(outcomes + preempting, stats.captured, "{profile}");
    let skips = report.delta.counter("queue.offer{decision=SkippedUrl}")
        + report.delta.counter("queue.offer{decision=SkippedDomain}");
    assert_eq!(skips, stats.skipped);
    assert_eq!(
        report.delta.counter("queue.offer{decision=Accepted}"),
        stats.captured
    );

    // Campaign retry accounting: retries are attempts minus one, summed
    // over pairs, and permanent failures short-circuit after their first
    // attempt — a geo-blocked 451 must never burn retry budget, so the
    // retries counter reconciles exactly with the per-capture attempt
    // numbers.
    let toplist = consent_crawler::build_toplist(study.world(), 120, study.seed().child("it-top"));
    let (run, campaign_report) = RunReport::collect(global(), "campaign", || {
        consent_crawler::run_campaign_parallel(
            study.world(),
            &toplist,
            Day::from_ymd(2020, 5, 15),
            &[consent_httpsim::Vantage::eu_cloud()],
            study.seed().child("it-campaign"),
            &consent_crawler::ParallelOpts {
                threads: 1,
                config: consent_crawler::CampaignConfig {
                    fault_profile: consent_faultsim::FaultProfile::none(),
                    ..consent_crawler::CampaignConfig::default()
                },
                max_pairs: None,
            },
        )
    });
    let captures = run
        .result
        .column(consent_httpsim::Vantage::eu_cloud())
        .unwrap();
    let expected_retries: u64 = captures.iter().map(|c| u64::from(c.attempts) - 1).sum();
    assert_eq!(
        campaign_report.delta.counter("campaign.retries"),
        expected_retries
    );
    let permanents = captures
        .iter()
        .filter(|c| c.outcome == consent_crawler::Outcome::Permanent)
        .count() as u64;
    assert!(permanents > 0, "no permanent failures in 120 EU domains");
    for c in captures {
        if c.outcome == consent_crawler::Outcome::Permanent {
            assert_eq!(c.attempts, 1, "{} retried a permanent failure", c.domain);
        }
    }
    assert_eq!(
        campaign_report
            .delta
            .counter("campaign.outcome{outcome=permanent}"),
        permanents
    );
    // One db row per (domain, vantage) pair, reconciled via the insert
    // family like the platform above.
    assert_eq!(campaign_report.captures_total(), run.state.db.len());
    assert_eq!(run.state.db.len(), toplist.len() as u64);
    // Dead letters cover exactly the pairs without a usable capture, and
    // the campaign.dead_letter{outcome=…} family counts them per outcome.
    let dead: Vec<&consent_trace::Provenance> = run.state.dead_letters().collect();
    assert_eq!(
        dead.len(),
        captures.iter().filter(|c| !c.status.usable()).count()
    );
    for (counter, n) in campaign_report
        .delta
        .counters_with_prefix("campaign.dead_letter{")
    {
        let outcome = counter
            .strip_prefix("campaign.dead_letter{outcome=")
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unexpected counter {counter}"));
        assert_eq!(
            n,
            dead.iter().filter(|p| p.outcome == outcome).count() as u64,
            "{counter}"
        );
    }
    assert_eq!(
        campaign_report
            .delta
            .counters_with_prefix("campaign.dead_letter{")
            .map(|(_, n)| n)
            .sum::<u64>(),
        dead.len() as u64
    );

    // Provenance: one record per pair, counted into the
    // campaign.provenance{outcome=…} family; the dead letters above are
    // its dead_lettered records.
    let provenance = &run.state.provenance;
    assert_eq!(provenance.len() as u64, run.state.pairs_done);
    assert_eq!(
        campaign_report
            .delta
            .counters_with_prefix("campaign.provenance{")
            .map(|(_, n)| n)
            .sum::<u64>(),
        provenance.len() as u64
    );
    // No chaos profile ⇒ no recorded faults, and per-pair attempt counts
    // reconcile with the capture column.
    for (p, c) in provenance.records().iter().zip(captures.iter()) {
        assert_eq!(p.injected_faults().count(), 0);
        assert_eq!(p.attempts.len(), usize::from(c.attempts));
        assert_eq!(p.domain, c.domain);
    }

    // A reported experiment records onto the study, and a second report
    // only contains its own delta (snapshots isolate runs).
    let before_reports = study.reports().len();
    let _f9 = experiments::run_reported(study, "fig9", || experiments::fig9::fig9(study));
    let reports = study.reports();
    assert_eq!(reports.len(), before_reports + 1);
    let f9_report = reports.last().unwrap();
    assert_eq!(f9_report.name, "fig9");
    // fig9 is a dialog-interaction experiment: no captures are stored.
    assert_eq!(f9_report.captures_total(), 0);

    // Instrumentation is observational only: a re-run of the same
    // pipeline yields byte-identical capture sets.
    let platform2 = Platform::with_faults(
        study.world(),
        FeedConfig {
            urls_per_day: 150,
            ..FeedConfig::default()
        },
        profile,
        study.seed().child("it-telemetry"),
    );
    consent_telemetry::disable();
    let (db2, stats2) = platform2.run(Day::from_ymd(2020, 5, 1), Day::from_ymd(2020, 5, 3));
    assert_eq!(stats2, stats);
    assert_eq!(db2.len(), db.len());
    let d1: Vec<&str> = db.iter().map(|(d, _)| d).collect();
    let d2: Vec<&str> = db2.iter().map(|(d, _)| d).collect();
    assert_eq!(d1, d2);
}

/// `Registry::reset` racing a live flight-recorder sampler: two
/// writers, a resetter, and a sampler thread — which closes windows
/// with [`Registry::delta`], records them, and renders the Prometheus
/// exposition — all hit the same registry at once. Resets may drop
/// in-window traffic (they wipe it by design) but must never corrupt a
/// sample — deltas saturate instead of wrapping, the export and the
/// exposition stay well-formed, and nothing panics.
///
/// Runs against a leaked *local* registry, not the process-global one,
/// so it can share this binary with the reconciliation test above.
#[test]
fn reset_racing_a_live_sampler_is_lossy_never_corrupt() {
    use consent_integration_tests::assert_prometheus_well_formed;
    use consent_obs::{ObsConfig, Sampler};
    use consent_util::Json;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::sync::Barrier;

    /// Stops the writers and the resetter when the sampler thread
    /// finishes or panics, so a failed check never leaves them spinning.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Relaxed);
        }
    }

    const READS: usize = 2_000;
    const MAX_LAT: u64 = 89;
    let registry: &'static Registry = Box::leak(Box::new(Registry::new()));
    let sampler = Sampler::attach(registry, ObsConfig::deterministic());
    let stop = AtomicBool::new(false);
    let written = AtomicU64::new(0);
    let start = Barrier::new(4);
    let windows = std::thread::scope(|sc| {
        for w in 0..2u64 {
            let (stop, written, start) = (&stop, &written, &start);
            sc.spawn(move || {
                start.wait();
                let mut i = 0u64;
                while !stop.load(Relaxed) {
                    registry.counter("race.counter").inc();
                    written.fetch_add(1, Relaxed);
                    registry.histogram("race.lat").record(i % MAX_LAT + w);
                    registry.gauge("race.gauge").set(i as i64);
                    i += 1;
                }
            });
        }
        sc.spawn(|| {
            start.wait();
            while !stop.load(Relaxed) {
                registry.reset();
                std::thread::yield_now();
            }
        });
        let sampling = sc.spawn(|| {
            let _stop = StopOnDrop(&stop);
            start.wait();
            // Consecutive, non-overlapping windows: traffic between a
            // delta and the next baseline is lost, never counted twice.
            // Each window waits for at least one write, so reads
            // interleave with writes however the threads are scheduled.
            let mut windows = Vec::with_capacity(READS);
            let mut base = registry.snapshot();
            for tick in 1..=READS as u64 {
                let mark = written.load(Relaxed);
                while written.load(Relaxed) == mark {
                    std::thread::yield_now();
                }
                let delta = registry.delta(&base);
                base = registry.snapshot();
                sampler.record((tick - 1, tick), &delta);
                let lat = delta.histograms.get("race.lat").copied();
                windows.push((
                    delta.counter("race.counter"),
                    lat.map_or(0, |h| h.count),
                    lat.map_or(0, |h| h.sum),
                ));
                // Empty is fine right after a reset; malformed is not.
                let prom = sampler.prometheus();
                if !prom.is_empty() {
                    assert_prometheus_well_formed(&prom);
                }
            }
            windows
        });
        sampling.join().expect("sampler thread")
    });

    let total = written.load(Relaxed);
    for &(n, count, sum) in &windows {
        // A window straddling a reset under-counts; it never wraps
        // around to 2^64-ish.
        assert!(n <= total, "counter delta wrapped: {n} > {total}");
        assert!(count <= total, "histogram count wrapped: {count}");
        assert!(sum <= total * MAX_LAT, "histogram sum wrapped: {sum}");
    }
    // Resets lose traffic; they never invent it.
    let seen: u64 = windows.iter().map(|&(n, _, _)| n).sum();
    assert!(seen <= total, "windows double-counted: {seen} > {total}");

    // The sampler kept one sample per window, and each exports the
    // counter delta its window read.
    assert_eq!(sampler.len(), READS);
    let export = sampler.export_jsonl();
    let lines: Vec<&str> = export.lines().collect();
    assert_eq!(lines.len(), READS);
    for (line, &(n, _, _)) in lines.iter().zip(&windows) {
        let j = Json::parse(line).expect("raced OBS line must stay parseable");
        let exported = j
            .get("counters")
            .and_then(|c| c.get("race.counter"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64;
        assert_eq!(exported, n, "sample disagrees with its window: {line}");
    }
}
