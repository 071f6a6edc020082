//! Campaign flight recorder: run a durable campaign under mild chaos
//! with a sampler attached, then print the post-run flight report.
//!
//! The sampler is wired into [`DurableOpts::sampler`]: it records each
//! observation window `run_durable_campaign` closes at a durable
//! checkpoint write, so its `OBS` JSONL export is deterministic
//! (byte-identical across thread counts and kill-halfway resumes; see
//! `tests/it_obs.rs`). The flight report's throughput curve and fault
//! heatmap are drawn over those same windows, and its phase breakdown
//! and pair latency come from the registry's run totals.
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
//! root (the CI `flight-recorder` job validates and uploads all three,
//! once per run):
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
    let sampler = Sampler::attach(registry, ObsConfig::deterministic());

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
            sampler: Some(sampler.clone()),
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
    let total = registry.delta(&before);

    let report = FlightReport::build(&sampler.series(), &total);
    print!("{}", report.render());
    println!(
        "\n{} pairs durable across {} checkpoint generations ({} windows)",
        run.state.pairs_done,
        store.generations().expect("list generations").len(),
        sampler.len(),
    );

    let obs_out = out_path("FLIGHT_OBS_OUT", "OBS_campaign.jsonl");
    std::fs::write(&obs_out, sampler.export_jsonl()).expect("write OBS jsonl");
    let report_out = out_path("FLIGHT_REPORT_OUT", "flight_report.json");
    std::fs::write(&report_out, format!("{}\n", report.to_json().to_pretty()))
        .expect("write flight report");
    let prom_out = out_path("FLIGHT_PROM_OUT", "metrics.prom");
    std::fs::write(&prom_out, sampler.prometheus()).expect("write prometheus exposition");
    eprintln!("wrote {obs_out}, {report_out}, {prom_out}");
    if let Some(pack) = &run.bundle {
        eprintln!("packed {BUNDLE_DIR}: {}", pack.summary());
    }

    std::fs::remove_dir_all(&dir).expect("clean up store");
}
