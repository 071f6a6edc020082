//! Telemetry report: run a reduced-scale study end-to-end with metric
//! recording on, then print the per-experiment run reports, the study
//! summary, and the full registry — the simulator's analogue of the
//! paper's §3.5 data-quality accounting.
//!
//! ```sh
//! cargo run --release --bin telemetry_report
//! CONSENT_CHAOS=mild cargo run --release --bin telemetry_report  # + injected faults
//! ```

mod env_knobs;

use consent_core::experiments::{fig6, fig9, i3, methodology, run_reported, table1};
use consent_core::{Study, StudyConfig};
use consent_crawler::{FeedConfig, Platform};
use consent_telemetry::{global, RunReport};
use consent_util::Day;

fn main() {
    let fault_profile = env_knobs::chaos("none");
    consent_telemetry::enable();
    println!("consent-observatory telemetry report");
    println!("====================================\n");
    let study = Study::new(StudyConfig {
        fault_profile,
        ..StudyConfig::quick()
    });

    // Run a slice of the paper's experiments under run_reported; each
    // records a RunReport on the study.
    let t1 = run_reported(&study, "table1", || table1::table1(&study));
    let f6 = run_reported(&study, "fig6", || fig6::fig6(&study));
    let _f9 = run_reported(&study, "fig9", || fig9::fig9(&study));
    let _i3 = run_reported(&study, "i3", || i3::i3_customization(&t1));
    let _meth = run_reported(&study, "methodology", || {
        methodology::methodology(&study, &f6)
    });

    for report in study.reports() {
        println!("{}", report.render());
        println!();
    }
    println!("{}\n", study.report_summary());

    // Reconciliation: run the social-feed platform under a report and
    // check that the capture_db.insert counter family sums exactly to
    // the database's row count, per vantage and in total.
    let platform = Platform::with_faults(
        study.world(),
        FeedConfig {
            urls_per_day: 200,
            ..FeedConfig::default()
        },
        fault_profile,
        study.seed().child("telemetry-example"),
    );
    let ((db, stats), report) = RunReport::collect(global(), "platform", || {
        platform.run(Day::from_ymd(2020, 5, 1), Day::from_ymd(2020, 5, 4))
    });
    let by_vantage = report.captures_by_location();
    let telemetry_total: u64 = by_vantage.values().sum();
    assert_eq!(
        telemetry_total,
        db.len(),
        "per-vantage telemetry counts must sum to the CaptureDb row count"
    );
    assert_eq!(report.captures_total(), stats.captured);
    println!(
        "Reconciliation: {} telemetry captures == {} CaptureDb rows",
        telemetry_total,
        db.len()
    );
    for (location, n) in &by_vantage {
        println!("  {location}: {n}");
    }
    println!("\n{}\n", report.render());

    // The full registry state, as tables and as a JSONL sample.
    let snapshot = global().snapshot();
    println!("{}", snapshot.render());
    println!("JSONL sample (first 5 lines):");
    for line in snapshot.to_jsonl().lines().take(5) {
        println!("  {line}");
    }
}
