//! Content-addressed campaign bundles, end to end (see
//! `docs/BUNDLES.md`):
//!
//! * the durable driver's post-completion pack produces byte-identical
//!   manifests at 1/2/4 threads — archival is inside the determinism
//!   boundary;
//! * flipping one byte in *every* archived document is detected by
//!   `bundle verify` and localized to the exact blob and its owning
//!   section/label, and repairing the byte restores a clean fsck;
//! * replay is byte-identical, and a bundle packed by a resumed
//!   incarnation after a kill halfway through the campaign has the
//!   uninterrupted run's manifest byte for byte, with a sampler and a
//!   watch recording each incarnation.
//!
//! Every test runs on two disks: the real filesystem and one failing 1%
//! of its operations ([`IoFaultPlan::mild`]). Packs and replays go
//! through the faulty seam; like the durability binaries, structural
//! expectations relax on that disk, byte-identity of whatever was
//! packed never does.

use consent_analysis::standard_exports;
use consent_bundle::{verify, BlobStatus, BlobStore, Manifest};
use consent_crawler::{
    build_toplist, pack_campaign_bundle, replay_bundle, run_campaign_parallel,
    run_durable_campaign, ArchiveContext, BundleSpec, CampaignArtifacts, CampaignConfig,
    DurableOpts, ExportFn, ParallelOpts,
};
use consent_faultsim::{CrashPlan, FaultProfile, IoFaultPlan};
use consent_httpsim::Vantage;
use consent_integration_tests::{disks, open_store, seam, tmp_dir, DAY};
use consent_obs::{ObsConfig, Sampler};
use consent_telemetry::Registry;
use consent_util::SeedTree;
use consent_watch::rules::WatchConfig;
use consent_watch::Watch;
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A world wide enough that the toplist includes unreachable,
/// 451-blocked, and anti-bot domains, so the archived state carries
/// dead letters.
fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::new(WorldConfig {
            n_sites: 800,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    })
}

fn toplist() -> &'static [String] {
    static LIST: OnceLock<Vec<String>> = OnceLock::new();
    LIST.get_or_init(|| build_toplist(world(), 48, SeedTree::new(7)))
}

const VANTAGES: fn() -> [Vantage; 2] = || [Vantage::us_cloud(), Vantage::eu_cloud()];
const TMP: &str = "consent-it-bundle";

/// The bundle at `dir`, read through a disk that injects `disk`'s
/// faults.
fn bundle_on(dir: &Path, disk: &IoFaultPlan) -> BlobStore {
    BlobStore::with_vfs(dir, seam(disk)).expect("bundle open")
}

fn quiet() -> CampaignConfig {
    CampaignConfig {
        fault_profile: FaultProfile::none(),
        ..CampaignConfig::default()
    }
}

fn provider() -> Arc<ExportFn> {
    Arc::new(standard_exports)
}

/// A registry of one incarnation's own, leaked like the process-global
/// one: a sampler and a watch attach to a `&'static Registry`.
fn leaked_registry() -> &'static Registry {
    Box::leak(Box::new(Registry::new()))
}

/// One durable campaign over the shared toplist that packs a bundle
/// into `bundle_dir` on completion, both through a disk that injects
/// `disk`'s faults. A fresh sampler and watch record the incarnation's
/// windows, as in a restarted process.
fn durable_with_bundle(
    store_dir: &Path,
    bundle_dir: &Path,
    threads: usize,
    crash: CrashPlan,
    disk: &IoFaultPlan,
) -> consent_crawler::DurableRun {
    let store = open_store(store_dir, disk);
    let opts = DurableOpts {
        threads,
        config: quiet(),
        checkpoint_every: 16,
        crash,
        sampler: Some(Sampler::attach(
            leaked_registry(),
            ObsConfig::deterministic(),
        )),
        watch: Some(Watch::attach(
            leaked_registry(),
            WatchConfig::default_rules(),
        )),
        bundle: Some(BundleSpec {
            dir: bundle_dir.to_path_buf(),
            provider: Some(provider()),
            gvl_json: Some("{\"vendors\":[]}".to_string()),
        }),
        ..DurableOpts::default()
    };
    run_durable_campaign(
        world(),
        toplist(),
        DAY(),
        &VANTAGES(),
        SeedTree::new(9),
        &store,
        &opts,
    )
    .expect("durable campaign io")
}

#[test]
fn durable_pack_is_byte_identical_across_thread_counts() {
    for disk in disks() {
        let mut baseline: Option<String> = None;
        for threads in [1usize, 2, 4] {
            let (store_dir, bundle_dir) = (tmp_dir(TMP), tmp_dir(TMP));
            let run =
                durable_with_bundle(&store_dir, &bundle_dir, threads, CrashPlan::none(), &disk);
            assert!(run.outcome.finished(), "{:?}", run.outcome);
            let Some(report) = &run.bundle else {
                // Only a storage collapse to memory-only skips the pack,
                // and only the faulty disk may produce one.
                assert!(
                    !disk.is_none(),
                    "pack skipped on the real disk: {:?}",
                    run.outcome
                );
                std::fs::remove_dir_all(&store_dir).ok();
                std::fs::remove_dir_all(&bundle_dir).ok();
                continue;
            };
            // The manifest in the report and the manifest on disk agree.
            let store = BlobStore::open(&bundle_dir).unwrap();
            let on_disk = store.read_manifest().expect("bundle manifest readable");
            assert!(
                report.manifest.serialize() == on_disk,
                "reported and on-disk manifests disagree at {threads} threads (disk {disk})"
            );
            match &baseline {
                None => baseline = Some(on_disk),
                Some(b) => assert!(
                    *b == on_disk,
                    "bundle manifest diverged at {threads} threads (disk {disk})"
                ),
            }
            std::fs::remove_dir_all(&store_dir).unwrap();
            std::fs::remove_dir_all(&bundle_dir).unwrap();
        }
    }
}

/// Pack a fully-populated bundle (every section present) directly from
/// a campaign through a disk that injects `disk`'s faults, returning
/// the bundle directory.
fn packed_everything(disk: &IoFaultPlan) -> PathBuf {
    let seed = SeedTree::new(9);
    let run = run_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &VANTAGES(),
        seed,
        &ParallelOpts {
            threads: 1,
            config: quiet(),
            max_pairs: None,
        },
    );
    let ctx = ArchiveContext::from_campaign(DAY(), toplist(), &VANTAGES(), &seed);
    let artifacts = CampaignArtifacts {
        gvl_json: Some("{\"vendors\":[]}".to_string()),
        ..CampaignArtifacts::default()
    };
    let p = provider();
    // On the faulty disk a pack can die on a hard injected fault (e.g. a
    // directory fsync) before the scrub loop can absorb it; every
    // attempt shares one seam, so a retry continues the fault schedule
    // instead of replaying it. Retry a few times like an operator would.
    let vfs = seam(disk);
    let mut last_err = None;
    for _ in 0..5 {
        let dir = tmp_dir(TMP);
        let store = BlobStore::with_vfs(&dir, Arc::clone(&vfs)).expect("bundle open");
        match pack_campaign_bundle(&store, &run.state, &ctx, &artifacts, Some(&*p)) {
            Ok((_, fsck)) => {
                assert!(fsck.clean(), "{}", fsck.render());
                return dir;
            }
            Err(e) => {
                assert!(!disk.is_none(), "pack failed on the real disk: {e}");
                std::fs::remove_dir_all(&dir).ok();
                last_err = Some(e);
            }
        }
    }
    panic!("pack failed 5 times on disk {disk}: {last_err:?}");
}

#[test]
fn corruption_in_every_blob_class_is_detected_and_localized() {
    for disk in disks() {
        let dir = packed_everything(&disk);
        let store = BlobStore::open(&dir).unwrap();
        let manifest = Manifest::parse(&store.read_manifest().unwrap()).unwrap();

        // Every archived document gets a flipped byte.
        let sections: Vec<&str> = manifest.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(sections, ["config", "state", "gvl", "analysis"]);
        let targets: Vec<_> = manifest
            .sections
            .iter()
            .flat_map(|s| {
                s.blobs
                    .iter()
                    .map(|b| (s.name.clone(), b.label.clone(), b.addr))
            })
            .collect();
        // config 1, state 2 (the two logs), gvl 1, analysis 4.
        assert_eq!(targets.len(), 8, "documents: {targets:?}");

        for (section, label, addr) in targets {
            let path = store.blob_path(&addr);
            let pristine = std::fs::read(&path).expect("blob readable");
            let mut bytes = pristine.clone();
            match bytes.first().copied() {
                Some(b) => bytes[0] = b ^ 0x01,
                None => bytes.push(0x01),
            }
            std::fs::write(&path, &bytes).unwrap();

            let report = verify(&store).expect("verify runs");
            assert!(!report.clean(), "flipped byte in {section}/{label} missed");
            let corrupt = report.corrupt();
            assert!(
                corrupt.iter().all(|v| v.addr == addr),
                "corruption in {section}/{label} implicated other blobs: {:?}",
                corrupt.iter().map(|v| v.describe()).collect::<Vec<_>>()
            );
            assert!(
                corrupt
                    .iter()
                    .any(|v| v.section == section && v.label == label),
                "verdicts for {addr} did not name {section}/{label}"
            );
            assert!(
                corrupt
                    .iter()
                    .all(|v| matches!(v.status, BlobStatus::Corrupt(_))),
                "flipped bytes must verify as corrupt, not unreadable"
            );

            std::fs::write(&path, &pristine).unwrap();
            assert!(
                verify(&store).expect("verify runs").clean(),
                "restoring {section}/{label} did not restore a clean fsck"
            );
        }
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn replay_is_byte_identical_including_after_a_kill_halfway() {
    for disk in disks() {
        // The uninterrupted reference run.
        let (store_a, bundle_a) = (tmp_dir(TMP), tmp_dir(TMP));
        let full = durable_with_bundle(&store_a, &bundle_a, 1, CrashPlan::none(), &disk);
        assert!(full.outcome.finished(), "{:?}", full.outcome);
        if full.bundle.is_some() {
            let replay =
                replay_bundle(&bundle_on(&bundle_a, &disk), Some(&*provider())).expect("replay io");
            assert!(replay.ok(), "{}", replay.summary());
            assert_eq!(replay.pairs, full.state.pairs_done);
        } else {
            assert!(!disk.is_none(), "pack skipped on the real disk");
        }

        // Kill halfway; the crashed incarnation packs nothing.
        let (store_b, bundle_b) = (tmp_dir(TMP), tmp_dir(TMP));
        let crashed =
            durable_with_bundle(&store_b, &bundle_b, 1, CrashPlan::after_apply(40), &disk);
        assert!(!crashed.outcome.finished(), "{:?}", crashed.outcome);
        assert!(crashed.bundle.is_none(), "a crashed run must not pack");

        // The resumed incarnation completes, reconverges on the same state
        // bytes, and packs a bundle whose replay is byte-identical.
        let resumed = durable_with_bundle(&store_b, &bundle_b, 2, CrashPlan::none(), &disk);
        assert!(resumed.outcome.finished(), "{:?}", resumed.outcome);
        assert!(
            resumed.state.export() == full.state.export(),
            "resume did not reconverge on the reference state (disk {disk})"
        );
        let Some(_) = &resumed.bundle else {
            assert!(!disk.is_none(), "pack skipped on the real disk");
            continue;
        };
        let replay =
            replay_bundle(&bundle_on(&bundle_b, &disk), Some(&*provider())).expect("replay io");
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.pairs, resumed.state.pairs_done);

        // Every section is content-addressed and none records the
        // incarnation (no trace, OBS or ALERTS), so the reconverged
        // campaign packs the uninterrupted one's manifest byte for byte.
        if full.bundle.is_some() {
            let manifest = |dir: &Path| BlobStore::open(dir).unwrap().read_manifest().unwrap();
            assert_eq!(
                manifest(&bundle_a),
                manifest(&bundle_b),
                "uninterrupted and resumed bundle manifests diverged (disk {disk})"
            );
        }
        for d in [&store_a, &bundle_a, &store_b, &bundle_b] {
            std::fs::remove_dir_all(d).unwrap();
        }
    }
}
