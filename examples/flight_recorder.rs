//! Campaign flight recorder: run a durable campaign under chaos with a
//! sampler and a watch attached, pack it into a bundle, then print the
//! health report and the post-run flight report with its alerts table.
//!
//! Both are wired into the durable driver ([`DurableOpts::sampler`],
//! [`DurableOpts::watch`]) and read the observation windows
//! `run_durable_campaign` closes at each durable checkpoint write, so
//! the `OBS` and `ALERTS` JSONL exports are deterministic
//! (byte-identical across thread counts and kill-halfway resumes; see
//! `tests/it_obs.rs` and `tests/it_watch.rs`). The watch evaluates
//! burn-rate SLOs, EWMA drift and per-vantage coverage gaps over those
//! windows; its detector state rides inside every checkpoint. The flight
//! report's throughput curve and fault heatmap are drawn over the same
//! windows, and its phase breakdown and pair latency come from the
//! registry's run totals.
//!
//! ```sh
//! CONSENT_CHAOS=mild cargo run --release --bin flight_recorder
//! CONSENT_IO_CHAOS=mild cargo run --release --bin flight_recorder  # + storage faults
//! CONSENT_WATCH='slo:usable:900:2;gap:5' cargo run --release --bin flight_recorder
//! ```
//!
//! `CONSENT_CHAOS` defaults to `mild`, `CONSENT_IO_CHAOS` to no storage
//! faults and `CONSENT_WATCH` to tight demo rules; an unknown value of
//! any of the three is an error.
//!
//! Every output lands in `FLIGHT_OUT_DIR` (default `target`, so a casual
//! run never litters the repo root; the CI `flight-recorder` job
//! validates and uploads one directory per run):
//!
//! * `OBS_campaign.jsonl` — deterministic per-checkpoint samples, one
//!   JSON object per line;
//! * `ALERTS_campaign.jsonl` — the deterministic alert lifecycle log;
//! * `flight_report.json` — the flight report document rendered to
//!   stdout, alerts section included;
//! * `metrics.prom` — Prometheus text exposition of the end-of-run
//!   registry, `watch_*` alert metrics included: what a live scrape
//!   endpoint would have served;
//! * `flight_bundle/` — the finished campaign's content-addressed bundle
//!   (replaced on every run), which the CI job re-verifies against the
//!   format spec in `docs/BUNDLES.md`; the pack's counters fill the
//!   flight report's archive-health section.

mod env_knobs;

use consent_crawler::{
    build_toplist, run_durable_campaign, BundleSpec, CampaignConfig, DurableOpts,
};
use consent_faultsim::CrashPlan;
use consent_httpsim::Vantage;
use consent_obs::{FlightReport, ObsConfig, Sampler};
use consent_util::{Day, SeedTree};
use consent_watch::Watch;
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::PathBuf;

const DOMAINS: usize = 60;
const CHECKPOINT_EVERY: u64 = 25;

fn main() {
    // Mild chaos unless CONSENT_CHAOS says otherwise: a flight report
    // with an empty fault heatmap demonstrates very little.
    let profile = env_knobs::chaos("mild");
    let io_plan = env_knobs::io_chaos();
    // Tight thresholds, so a mild-chaos run exercises the alert
    // lifecycle.
    let rules = env_knobs::watch(
        "slo:usable:990:2;slo:deadletter:5:2;slo:iofault:250:3;\
         drift:throughput:150:2;gap:3",
    );
    let out_dir =
        PathBuf::from(std::env::var("FLIGHT_OUT_DIR").unwrap_or_else(|_| "target".into()));
    std::fs::create_dir_all(&out_dir).expect("create FLIGHT_OUT_DIR");
    let bundle_dir = out_dir.join("flight_bundle");
    consent_telemetry::enable();
    // OBS samples count trace events, so tracing stays on.
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

    let dir = std::env::temp_dir().join(format!("consent-flight-recorder-{}", std::process::id()));
    // `CONSENT_IO_CHAOS` routes the store through a fault-injecting
    // filesystem; the supervisor's degradations then show up in the
    // health report and the flight report's storage-health section.
    let store = env_knobs::open_store(&dir, io_plan);
    // Pack into an empty directory: blobs left by an earlier run would
    // turn this run's writes into dedup hits.
    let _ = std::fs::remove_dir_all(&bundle_dir);
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
            bundle: Some(BundleSpec {
                dir: bundle_dir.clone(),
                provider: None,
                gvl_json: None,
            }),
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
        "\n{} pairs durable across {} checkpoint generations ({} windows), \
         {} alert events ({} currently firing)",
        run.state.pairs_done,
        store.generations().expect("list generations").len(),
        sampler.len(),
        watch.len(),
        watch.firing(),
    );

    let write = |name: &str, body: String| {
        let path = out_dir.join(name);
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    };
    write("OBS_campaign.jsonl", sampler.export_jsonl());
    write("ALERTS_campaign.jsonl", watch.export_jsonl());
    write(
        "flight_report.json",
        format!("{}\n", report.to_json().to_pretty()),
    );
    write("metrics.prom", sampler.prometheus());
    eprintln!(
        "wrote OBS_campaign.jsonl, ALERTS_campaign.jsonl, flight_report.json and metrics.prom to {}",
        out_dir.display()
    );
    if let Some(pack) = &run.bundle {
        eprintln!("packed {}: {}", bundle_dir.display(), pack.summary());
    }

    std::fs::remove_dir_all(&dir).expect("clean up store");
}
