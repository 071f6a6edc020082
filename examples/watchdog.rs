//! Campaign watchdog: run a durable campaign under chaos with the
//! `consent-watch` rule engine wired into the checkpoint driver, then
//! print the alert log and the annotated health/flight reports.
//!
//! The watch engine evaluates deterministic detectors — burn-rate SLOs,
//! EWMA drift, and per-vantage coverage gaps — over the durable
//! driver's observation windows, the same windows the flight recorder
//! samples; a checkpoint write's storage faults and retries count in
//! the window that write closes. Detector state rides inside every
//! checkpoint (section `watch-state`), so alerts are crash-consistent:
//! an alert event exists iff the window that produced it is durable,
//! and the `ALERTS` export is byte-identical across thread counts and
//! kill-halfway resumes (see `tests/it_watch.rs`).
//!
//! ```sh
//! CONSENT_CHAOS=mild cargo run --release --bin watchdog
//! CONSENT_WATCH='slo:usable:900:2;gap:5' cargo run --release --bin watchdog
//! ```
//!
//! `CONSENT_CHAOS` defaults to `mild` and `CONSENT_IO_CHAOS` to no
//! storage faults; an unknown value of any of the three variables is an
//! error.
//!
//! Outputs land under `target/` (the CI watch job uploads all three):
//!
//! * `WATCH_ALERTS_OUT` (default `target/ALERTS_campaign.jsonl`) — the
//!   deterministic alert lifecycle log, one JSON object per line;
//! * `WATCH_REPORT_OUT` (default `target/watch_report.json`) — the
//!   flight report document with its watchdog-alerts section;
//! * `WATCH_PROM_OUT` (default `target/watch_metrics.prom`) —
//!   Prometheus exposition including the `watch_*` alert metrics.

mod env_knobs;

use consent_crawler::{build_toplist, run_durable_campaign, CampaignConfig, DurableOpts};
use consent_faultsim::CrashPlan;
use consent_httpsim::Vantage;
use consent_obs::{prometheus, FlightReport, ObsConfig, Sampler};
use consent_util::{Day, SeedTree};
use consent_watch::Watch;
use consent_webgraph::{AdoptionConfig, World, WorldConfig};

const DOMAINS: usize = 60;
const CHECKPOINT_EVERY: u64 = 25;

fn out_path(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| {
        // Default artifacts live under target/ — already gitignored,
        // and created here in case the example runs before any build.
        let _ = std::fs::create_dir_all("target");
        format!("target/{default}")
    })
}

fn main() {
    // Mild chaos unless CONSENT_CHAOS says otherwise: a watchdog run
    // where nothing can possibly fire demonstrates very little.
    let profile = env_knobs::chaos("mild");
    let io_plan = env_knobs::io_chaos();
    // `CONSENT_WATCH` overrides the rule set; tight thresholds here so
    // a mild-chaos demo run actually exercises the alert lifecycle.
    let rules = env_knobs::watch(
        "slo:usable:990:2;slo:deadletter:5:2;slo:iofault:250:3;\
         drift:throughput:150:2;gap:3",
    );
    consent_telemetry::enable();
    consent_trace::enable();

    let world = World::new(WorldConfig {
        n_sites: 4_000,
        seed: 42,
        adoption: AdoptionConfig::default(),
    });
    let list = build_toplist(&world, DOMAINS, SeedTree::new(7));
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];

    let registry = consent_telemetry::global();
    let before = registry.snapshot();
    let sampler = Sampler::attach(registry, ObsConfig::deterministic());
    println!("watch rules: {rules}");
    let watch = Watch::attach(registry, rules);

    let dir = std::env::temp_dir().join(format!("consent-watchdog-{}", std::process::id()));
    let store = env_knobs::open_store(&dir, io_plan);
    let run = run_durable_campaign(
        &world,
        &list,
        Day::from_ymd(2020, 5, 15),
        &vantages,
        SeedTree::new(9),
        &store,
        &DurableOpts {
            threads: 4,
            config: CampaignConfig {
                fault_profile: profile,
                ..CampaignConfig::default()
            },
            checkpoint_every: CHECKPOINT_EVERY,
            crash: CrashPlan::none(),
            sampler: Some(sampler.clone()),
            watch: Some(watch.clone()),
            ..DurableOpts::default()
        },
    )
    .expect("durable campaign io");
    assert!(run.outcome.finished(), "campaign wedged: {:?}", run.outcome);
    let total = registry.delta(&before);

    println!("{}", run.health.render());
    let report = FlightReport::build(&sampler.series(), &total).with_alerts(watch.flight_alerts());
    print!("{}", report.render());
    println!(
        "\n{} pairs durable, {} alert events ({} currently firing)",
        run.state.pairs_done,
        watch.len(),
        watch.firing(),
    );

    let alerts_out = out_path("WATCH_ALERTS_OUT", "ALERTS_campaign.jsonl");
    std::fs::write(&alerts_out, watch.export_jsonl()).expect("write ALERTS jsonl");
    let report_out = out_path("WATCH_REPORT_OUT", "watch_report.json");
    std::fs::write(&report_out, format!("{}\n", report.to_json().to_pretty()))
        .expect("write watch report");
    let prom_out = out_path("WATCH_PROM_OUT", "watch_metrics.prom");
    std::fs::write(&prom_out, prometheus::exposition(&registry.snapshot()))
        .expect("write prometheus exposition");
    eprintln!("wrote {alerts_out}, {report_out}, {prom_out}");

    std::fs::remove_dir_all(&dir).expect("clean up store");
}
