//! Campaign flight recorder: run a durable campaign under mild chaos
//! with both sampling planes armed, then print the post-run flight
//! report.
//!
//! Two samplers watch the same global telemetry registry:
//!
//! * a **logical-tick** sampler wired into [`DurableOpts::sampler`] —
//!   it records each observation window the durable driver closes at a
//!   durable checkpoint write, so its `OBS` JSONL export is
//!   deterministic (byte-identical across thread counts and
//!   kill-halfway resumes; see `tests/it_obs.rs`);
//! * a **wall-clock** sampler on a background thread — gauges, latency
//!   quantiles, and real pairs/sec, outside the byte-identity
//!   guarantee, feeding the human-facing flight report.
//!
//! ```sh
//! CONSENT_CHAOS=mild cargo run --release --bin flight_recorder
//! CONSENT_IO_CHAOS=mild cargo run --release --bin flight_recorder  # + storage faults
//! ```
//!
//! `CONSENT_CHAOS` defaults to `mild`; an unknown value of either
//! variable is an error.
//!
//! Outputs land under `target/` so a casual run never litters the repo
//! root (the CI `flight-recorder` job uploads all three, once per run):
//!
//! * `FLIGHT_OBS_OUT` (default `target/OBS_campaign.jsonl`) —
//!   deterministic per-checkpoint samples, one JSON object per line;
//! * `FLIGHT_REPORT_OUT` (default `target/flight_report.json`) — the
//!   flight report document rendered to stdout;
//! * `FLIGHT_PROM_OUT` (default `target/metrics.prom`) — Prometheus
//!   text exposition of the end-of-run registry, what a live scrape
//!   endpoint would have served.
//!
//! The finished campaign is also packed into a content-addressed bundle
//! at `target/flight_bundle` (replaced on every run), which the CI
//! `flight-recorder` job re-verifies against the format spec in
//! `docs/BUNDLES.md`; the pack's counters fill the flight report's
//! archive-health section.

mod env_knobs;

use consent_crawler::{
    build_toplist, run_durable_campaign, BundleSpec, CampaignConfig, DurableOpts,
};
use consent_faultsim::CrashPlan;
use consent_httpsim::Vantage;
use consent_obs::{FlightReport, ObsConfig, Sampler};
use consent_util::{Day, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::time::Duration;

const DOMAINS: usize = 60;
const CHECKPOINT_EVERY: u64 = 25;
const BUNDLE_DIR: &str = "target/flight_bundle";

fn out_path(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| {
        // Default artifacts live under target/ — already gitignored,
        // and created here in case the example runs before any build.
        let _ = std::fs::create_dir_all("target");
        format!("target/{default}")
    })
}

fn main() {
    // Mild chaos unless CONSENT_CHAOS says otherwise: a flight report
    // with an empty fault heatmap demonstrates very little.
    let profile = env_knobs::chaos("mild");
    let io_plan = env_knobs::io_chaos();
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
    let logical = Sampler::attach(registry, ObsConfig::deterministic());
    let wall = Sampler::attach(registry, ObsConfig::wall(Duration::from_millis(10)));
    let live = wall.start();

    let dir = std::env::temp_dir().join(format!("consent-flight-recorder-{}", std::process::id()));
    // `CONSENT_IO_CHAOS` routes the store through a fault-injecting
    // filesystem; the supervisor's degradations then show up in the
    // flight report's storage-health section.
    let store = env_knobs::open_store(&dir, io_plan);
    // Pack into an empty directory: blobs left by an earlier run would
    // turn this run's writes into dedup hits.
    let _ = std::fs::remove_dir_all(BUNDLE_DIR);
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
            sampler: Some(logical.clone()),
            bundle: Some(BundleSpec {
                dir: BUNDLE_DIR.into(),
                provider: None,
                gvl_json: None,
            }),
            ..DurableOpts::default()
        },
    )
    .expect("durable campaign io");
    assert!(run.outcome.finished(), "campaign wedged: {:?}", run.outcome);
    if !run.health.is_healthy() {
        eprintln!("storage degraded: {}", run.health.summary());
    }
    live.stop();
    let total = registry.delta(&before);

    // The wall series has real rates and per-window latency; fall back
    // to the deterministic series if the campaign outran the interval.
    let wall_series = wall.series();
    let series = if wall_series.is_empty() {
        logical.series()
    } else {
        wall_series
    };
    let report = FlightReport::build(&series, &total);
    print!("{}", report.render());
    println!(
        "\n{} pairs durable across {} checkpoint generations ({} logical windows, {} wall samples)",
        run.state.pairs_done,
        store.generations().expect("list generations").len(),
        logical.len(),
        wall.len(),
    );

    let obs_out = out_path("FLIGHT_OBS_OUT", "OBS_campaign.jsonl");
    std::fs::write(&obs_out, logical.export_jsonl()).expect("write OBS jsonl");
    let report_out = out_path("FLIGHT_REPORT_OUT", "flight_report.json");
    std::fs::write(&report_out, format!("{}\n", report.to_json().to_pretty()))
        .expect("write flight report");
    let prom_out = out_path("FLIGHT_PROM_OUT", "metrics.prom");
    std::fs::write(&prom_out, wall.prometheus()).expect("write prometheus exposition");
    eprintln!("wrote {obs_out}, {report_out}, {prom_out}");
    if let Some(pack) = &run.bundle {
        eprintln!("packed {BUNDLE_DIR}: {}", pack.summary());
    }

    std::fs::remove_dir_all(&dir).expect("clean up store");
}
