//! Crash-consistency sweep: kill a durable campaign at every
//! deterministic crashpoint, resume it, and prove the bytes never
//! change.
//!
//! For each crash-after-apply index and each torn-write cut, the sweep
//! runs a campaign against a fresh [`CheckpointStore`], lets the
//! configured [`CrashPlan`] kill it, simulates the process death (the
//! in-memory trace log dies; only the store directory survives), then
//! resumes and asserts the final `CampaignState` export **and** the
//! trace JSONL are byte-identical to an uninterrupted run — at both 1
//! and 4 worker threads, under whatever `CONSENT_CHAOS` profile is set.
//!
//! ```sh
//! CONSENT_CHAOS=mild cargo run --release --bin crash_sweep
//! ```
//!
//! Outputs (the CI crash-consistency job uploads all three):
//!
//! * `SWEEP_OUT` (default `crash_sweep.json`) — summary document;
//! * `SWEEP_REPORTS` (default `crash_sweep.salvage.jsonl`) — one JSON
//!   salvage report per resumed run, labeled by crashpoint;
//! * `SWEEP_CHAIN_DIR` (default `crash_sweep.chain`) — a checkpoint
//!   store holding a real base-plus-deltas generation chain from a
//!   [`CheckpointMode::Delta`] run whose bytes were verified identical
//!   to the full-snapshot campaign.
//!
//! If `CONSENT_CRASHPOINT` is set (`apply:N` or `write:K:B`), that plan
//! is swept as an extra case. An unknown `CONSENT_CHAOS` or
//! `CONSENT_CRASHPOINT` value is an error.

mod env_knobs;

use consent_checkpoint::CheckpointStore;
use consent_crawler::{
    build_toplist, run_durable_campaign, CampaignConfig, CheckpointMode, DurableOpts,
    DurableOutcome, DurableRun,
};
use consent_faultsim::{CrashPlan, FaultProfile};
use consent_httpsim::Vantage;
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const DOMAINS: usize = 10;
const CHECKPOINT_EVERY: u64 = 5;
/// Every generation a self-contained snapshot: the sweep's mode.
const SNAPSHOTS: CheckpointMode = CheckpointMode::Delta { rebase_every: 0 };

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "consent-crash-sweep-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

struct Sweep {
    world: World,
    list: Vec<String>,
    vantages: Vec<Vantage>,
    profile: FaultProfile,
}

impl Sweep {
    fn run(
        &self,
        store: &CheckpointStore,
        threads: usize,
        crash: CrashPlan,
        mode: CheckpointMode,
    ) -> DurableRun {
        run_durable_campaign(
            &self.world,
            &self.list,
            Day::from_ymd(2020, 5, 15),
            &self.vantages,
            SeedTree::new(9),
            store,
            &DurableOpts {
                threads,
                config: CampaignConfig {
                    fault_profile: self.profile,
                    ..CampaignConfig::default()
                },
                checkpoint_every: CHECKPOINT_EVERY,
                crash,
                sampler: None,
                mode,
                ..DurableOpts::default()
            },
        )
        .expect("durable campaign io")
    }
}

fn main() {
    let profile = env_knobs::chaos("none");
    let extra = env_knobs::crashpoint();
    consent_trace::enable();
    let chaos = std::env::var("CONSENT_CHAOS").unwrap_or_else(|_| "none".to_string());
    let sweep = {
        let world = World::new(WorldConfig {
            n_sites: 2_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, DOMAINS, SeedTree::new(7));
        Sweep {
            world,
            list,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            profile,
        }
    };
    let pairs = (DOMAINS * sweep.vantages.len()) as u64;

    // The uninterrupted run: the bytes every crashed-and-resumed
    // variant must reproduce. Its generation files also give each
    // checkpoint write's exact size (the sweep re-writes identical
    // generations), which the torn-write cuts are derived from.
    let base_dir = tmp_dir();
    let base_store = CheckpointStore::open(&base_dir).expect("open store");
    consent_trace::clear();
    let base = sweep.run(&base_store, 1, CrashPlan::none(), SNAPSHOTS);
    assert_eq!(base.outcome, DurableOutcome::Complete);
    let state_bytes = base.state.export();
    let trace_bytes = consent_trace::global().export_jsonl();
    let write_sizes: Vec<u64> = base_store
        .generations()
        .expect("list generations")
        .iter()
        .map(|&g| {
            std::fs::metadata(base_store.path_for(g))
                .expect("stat generation")
                .len()
        })
        .collect();
    std::fs::remove_dir_all(&base_dir).ok();

    let mut plans: Vec<CrashPlan> = (1..=pairs).map(CrashPlan::after_apply).collect();
    for (i, &size) in write_sizes.iter().enumerate() {
        let write = (i + 1) as u64;
        for cut in [0, 1, size / 2, size - 1] {
            plans.push(CrashPlan::truncate_write(write, cut));
        }
    }
    if !extra.is_none() {
        plans.push(extra);
    }

    println!("crash-consistency sweep");
    println!("=======================");
    println!(
        "{} domains x {} vantages = {pairs} pairs, checkpoint every {CHECKPOINT_EVERY}, chaos={chaos}",
        DOMAINS,
        sweep.vantages.len()
    );
    println!(
        "{} crashpoints x 2 thread counts = {} crash/resume cycles\n",
        plans.len(),
        plans.len() * 2
    );

    let mut report_lines = String::new();
    let mut verified = 0u64;
    let mut quarantined_total = 0u64;
    for threads in [1usize, 4] {
        for plan in &plans {
            let label = format!("{} @ {threads} threads", plan.describe());
            let dir = tmp_dir();
            let store = CheckpointStore::open(&dir).expect("open store");
            consent_trace::clear();
            let crashed = sweep.run(&store, threads, *plan, SNAPSHOTS);
            let durable_pairs = match crashed.outcome {
                DurableOutcome::Crashed { durable_pairs, .. } => durable_pairs,
                _ => panic!("{label}: crashpoint never fired"),
            };
            // The process dies: the in-memory trace log goes with it.
            consent_trace::clear();
            let resumed = sweep.run(&store, threads, CrashPlan::none(), SNAPSHOTS);
            assert_eq!(resumed.outcome, DurableOutcome::Complete, "{label}");
            assert!(
                resumed.state.export() == state_bytes,
                "{label}: state diverged after resume"
            );
            assert!(
                consent_trace::global().export_jsonl() == trace_bytes,
                "{label}: trace diverged after resume"
            );
            verified += 1;
            quarantined_total += resumed.salvage.quarantined.len() as u64;
            let line = Json::object([
                ("crashpoint".to_string(), Json::str(plan.describe())),
                ("threads".to_string(), Json::int(threads as i64)),
                ("durable_pairs".to_string(), Json::int(durable_pairs as i64)),
                ("salvage".to_string(), resumed.salvage.to_json()),
            ]);
            report_lines.push_str(&line.to_compact());
            report_lines.push('\n');
            std::fs::remove_dir_all(&dir).ok();
        }
        println!(
            "threads={threads}: {} crashpoints resumed byte-identical",
            plans.len()
        );
    }

    // Sample delta chain: re-run the same campaign in Delta mode
    // against a store directory that is *kept* on disk, so CI can
    // upload a real base-plus-deltas generation chain as an
    // inspectable artifact. The run doubles as a cross-mode check:
    // delta checkpoints must reproduce the full-snapshot bytes exactly.
    let chain_dir =
        std::env::var("SWEEP_CHAIN_DIR").unwrap_or_else(|_| "crash_sweep.chain".to_string());
    std::fs::remove_dir_all(&chain_dir).ok();
    let chain_store = CheckpointStore::open(&chain_dir).expect("open chain store");
    consent_trace::clear();
    let chain = sweep.run(
        &chain_store,
        1,
        CrashPlan::none(),
        CheckpointMode::Delta { rebase_every: 64 },
    );
    assert_eq!(chain.outcome, DurableOutcome::Complete);
    assert!(
        chain.state.export() == state_bytes,
        "delta-mode state diverged from full-mode bytes"
    );
    assert!(
        consent_trace::global().export_jsonl() == trace_bytes,
        "delta-mode trace diverged from full-mode bytes"
    );
    let chain_gens = chain_store.generations().expect("list chain generations");
    assert!(
        chain_gens.len() >= 2,
        "sample chain must hold a base and at least one delta: {chain_gens:?}"
    );
    println!(
        "sample delta chain: {} generations (base + {} deltas) kept in {chain_dir}",
        chain_gens.len(),
        chain_gens.len() - 1
    );

    let summary = Json::object([
        ("sweep".to_string(), Json::str("crash_consistency")),
        ("schema".to_string(), Json::int(1)),
        ("chaos".to_string(), Json::str(chaos)),
        ("pairs".to_string(), Json::int(pairs as i64)),
        (
            "checkpoint_every".to_string(),
            Json::int(CHECKPOINT_EVERY as i64),
        ),
        ("crashpoints".to_string(), Json::int(plans.len() as i64)),
        ("cycles_verified".to_string(), Json::int(verified as i64)),
        (
            "generations_quarantined".to_string(),
            Json::int(quarantined_total as i64),
        ),
        ("delta_chain_dir".to_string(), Json::str(&chain_dir)),
        (
            "delta_chain_generations".to_string(),
            Json::int(chain_gens.len() as i64),
        ),
    ]);
    let out = std::env::var("SWEEP_OUT").unwrap_or_else(|_| "crash_sweep.json".to_string());
    let reports =
        std::env::var("SWEEP_REPORTS").unwrap_or_else(|_| "crash_sweep.salvage.jsonl".to_string());
    std::fs::write(&out, format!("{}\n", summary.to_pretty()))
        .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    std::fs::write(&reports, report_lines).unwrap_or_else(|e| panic!("writing {reports}: {e}"));
    println!(
        "\n{verified} cycles verified, {quarantined_total} generations quarantined and salvaged"
    );
    println!("wrote {out}, {reports} and {chain_dir}/");
}
