//! Tests of the benchmark's own code: declared names, every workload at
//! a tiny size, and the two stand-ins (feed replica, counting seam)
//! against the real paths.

use crate::feed_replica::run_feed_replica;
use crate::ledger::{END_TO_END, PER_LAYER};
use crate::vfs::{CountingVfs, Op};
use crate::workloads::{self, RunArgs, Size, WORKLOADS};
use consent_analysis::standard_exports;
use consent_bundle::BlobStore;
use consent_checkpoint::{CheckpointStore, DEFAULT_KEEP};
use consent_crawler::{
    build_bundle_input, build_toplist, export_db, run_campaign_parallel, run_durable_campaign,
    ArchiveContext, BreakerConfig, CampaignArtifacts, CampaignConfig, CheckpointMode, DurableOpts,
    DurableOutcome, ExportFn, FeedConfig, ParallelOpts, Platform, RetryPolicy,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The durable workload switches the process-global trace log and
/// metric registry; tests that run campaigns hold this lock so no test
/// records into another's checkpoints.
static RECORDERS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    RECORDERS.lock().unwrap_or_else(|e| e.into_inner())
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(".bench_work").join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn world(n_sites: u32) -> World {
    World::new(WorldConfig {
        n_sites,
        seed: 5,
        adoption: AdoptionConfig::default(),
    })
}

fn config() -> CampaignConfig {
    CampaignConfig {
        fault_profile: FaultProfile::none(),
        retry: RetryPolicy::paper(),
        breaker: BreakerConfig::default(),
    }
}

fn names(list: &[(&str, &str)]) -> Vec<String> {
    list.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn every_workload_completes_at_tiny_size_without_errors() {
    let _guard = lock();
    for name in WORKLOADS {
        for trace in [false, true] {
            let args = RunArgs {
                seed: 3,
                seconds: 0.0,
                trace,
                size: Size::Tiny,
            };
            let r = workloads::run(name, &args).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(r.checked.attempted > 0, "{name} checked nothing");
            assert_eq!(r.checked.failed, 0, "{name} trace={trace} failed");
            let declared = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<String> = r.metrics.iter().map(|(n, _, _)| n.to_string()).collect();
            assert_eq!(got, names(declared), "{name} trace={trace}");
            for (metric, value, _) in &r.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if !trace {
                    assert!(*value > 0.0, "{name}: {metric} = {value}");
                }
            }
        }
    }
}

#[test]
fn unknown_workloads_are_refused() {
    let args = RunArgs {
        seed: 1,
        seconds: 0.0,
        trace: false,
        size: Size::Tiny,
    };
    assert!(workloads::run("table2", &args).is_err());
}

#[test]
fn feed_replica_exports_the_platform_bytes() {
    let _guard = lock();
    let w = world(20_000);
    let config = FeedConfig {
        urls_per_day: 300,
        ..FeedConfig::default()
    };
    let seed = SeedTree::new(11);
    let start = Day::from_ymd(2019, 6, 1);
    let (db, _) =
        Platform::with_faults(&w, config.clone(), FaultProfile::none(), seed).run(start, start + 5);
    let (replica, layers) = run_feed_replica(&w, config, seed, start, start + 5);
    assert!(db.len() > 300);
    assert_eq!(export_db(&replica), export_db(&db));
    assert_eq!(layers.admitted, db.len());
    assert!(
        layers.items > layers.admitted,
        "the dedup queue skipped nothing"
    );
}

#[test]
fn counting_vfs_checkpoints_the_same_bytes_as_the_real_one() {
    let _guard = lock();
    let w = world(600);
    let list = build_toplist(&w, 12, SeedTree::new(5));
    let run = |store: &CheckpointStore| {
        run_durable_campaign(
            &w,
            &list,
            Day::from_ymd(2020, 5, 15),
            &[Vantage::eu_cloud(), Vantage::us_cloud()],
            SeedTree::new(6),
            store,
            &DurableOpts {
                threads: 2,
                config: config(),
                checkpoint_every: 5,
                mode: CheckpointMode::Delta { rebase_every: 2 },
                ..DurableOpts::default()
            },
        )
        .expect("durable campaign io")
    };
    let (real_dir, counted_dir) = (scratch("ckpt-real"), scratch("ckpt-counted"));
    let real = run(&CheckpointStore::open(&real_dir).unwrap());
    let vfs = Arc::new(CountingVfs::default());
    let counted = run(&CheckpointStore::with_vfs(&counted_dir, DEFAULT_KEEP, vfs.clone()).unwrap());
    assert_eq!(real.outcome, DurableOutcome::Complete);
    assert_eq!(counted.outcome, DurableOutcome::Complete);
    assert_eq!(counted.state.export(), real.state.export());

    let real_store = CheckpointStore::open(&real_dir).unwrap();
    let counted_store = CheckpointStore::open(&counted_dir).unwrap();
    let gens = real_store.generations().unwrap();
    assert!(!gens.is_empty());
    assert_eq!(counted_store.generations().unwrap(), gens);
    for g in gens {
        assert_eq!(
            std::fs::read(counted_store.path_for(g)).unwrap(),
            std::fs::read(real_store.path_for(g)).unwrap(),
            "generation {g} differs"
        );
    }
    let tally = vfs.tally();
    // 24 pairs in cuts of 5: five generations, each one durable write.
    assert_eq!(tally.calls(Op::Rename), 5);
    assert_eq!(tally.calls(Op::Write), 5);
    assert_eq!(tally.syncs(), 10);
    assert!(tally.bytes_written > 0);
    let _ = std::fs::remove_dir_all(&real_dir);
    let _ = std::fs::remove_dir_all(&counted_dir);
}

#[test]
fn counting_vfs_packs_the_same_bundle_as_the_real_one() {
    let _guard = lock();
    let w = world(300);
    let list = build_toplist(&w, 6, SeedTree::new(5));
    let vantages = [Vantage::us_cloud(), Vantage::eu_cloud()];
    let day = Day::from_ymd(2020, 5, 15);
    let seed = SeedTree::new(8);
    let run = run_campaign_parallel(
        &w,
        &list,
        day,
        &vantages,
        seed,
        &ParallelOpts {
            threads: 2,
            config: config(),
            max_pairs: None,
        },
    );
    let ctx = ArchiveContext::from_campaign(day, &list, &vantages, &seed);
    let artifacts = CampaignArtifacts {
        results: vec![&run.result],
        ..CampaignArtifacts::default()
    };
    let provider: &ExportFn = &standard_exports;
    let input = build_bundle_input(&run.state, &ctx, &artifacts, Some(provider));

    let (real_dir, counted_dir) = (scratch("bundle-real"), scratch("bundle-counted"));
    let real = BlobStore::open(&real_dir).unwrap();
    let vfs = Arc::new(CountingVfs::default());
    let counted = BlobStore::with_vfs(&counted_dir, vfs.clone()).unwrap();
    let real_report = consent_bundle::pack(&real, &input).unwrap();
    let counted_report = consent_bundle::pack(&counted, &input).unwrap();
    assert_eq!(
        counted_report.manifest.serialize(),
        real_report.manifest.serialize()
    );
    assert_eq!(
        counted.read_manifest().unwrap(),
        real.read_manifest().unwrap()
    );
    let blobs = real.list_blobs().unwrap();
    assert_eq!(counted.list_blobs().unwrap(), blobs);
    for section in &real_report.manifest.sections {
        for blob in &section.blobs {
            assert_eq!(
                counted.get(&blob.addr).unwrap(),
                real.get(&blob.addr).unwrap()
            );
        }
    }
    let tally = vfs.tally();
    // One write per new blob plus the manifest, each with a file and a
    // directory fsync.
    assert_eq!(tally.calls(Op::Write), counted_report.new_blobs + 1);
    assert_eq!(tally.syncs(), 2 * (counted_report.new_blobs + 1));
    let _ = std::fs::remove_dir_all(&real_dir);
    let _ = std::fs::remove_dir_all(&counted_dir);
}

#[test]
fn benchmark_json_declares_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to this directory");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let declared = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    // Every declared workload exists here, in the same order.
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    assert!(!workloads.is_empty());
    let mut known = WORKLOADS.iter();
    for w in &workloads {
        assert!(
            known.any(|k| k == w),
            "{w} is not a workload, or out of order"
        );
    }
    assert_eq!(list("end_to_end"), declared(END_TO_END));
    assert_eq!(list("per_layer"), declared(PER_LAYER));
}
