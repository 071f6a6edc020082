//! Shared helpers for the integration tests.

use consent_checkpoint::{CheckpointStore, RealVfs, Vfs, DEFAULT_KEEP};
use consent_core::{Study, StudyConfig};
use consent_crawler::{build_toplist, CampaignConfig};
use consent_faultsim::{FaultProfile, FaultyVfs, IoFaultPlan};
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A mid-sized study: larger than `Study::quick()` for statistical
/// stability, still fast enough for CI.
pub fn midsize_study(fault_profile: FaultProfile) -> Study {
    Study::new(StudyConfig {
        seed: 7_777,
        n_sites: 80_000,
        toplist_size: 3_000,
        feed_urls_per_day: 600,
        window_start: consent_util::Day::from_ymd(2018, 3, 1),
        window_end: consent_util::Day::from_ymd(2020, 9, 30),
        fig5_stratum_sample: 600,
        fault_profile,
    })
}

/// The world of the durable-campaign tests: 2,000 sites at seed 42,
/// built once per test binary.
pub fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::new(WorldConfig {
            n_sites: 2_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    })
}

/// The top 12 domains of [`world`] (toplist seed 7).
pub fn toplist() -> &'static [String] {
    static LIST: OnceLock<Vec<String>> = OnceLock::new();
    LIST.get_or_init(|| build_toplist(world(), 12, SeedTree::new(7)))
}

/// The day every durable-campaign test crawls.
pub const DAY: fn() -> Day = || Day::from_ymd(2020, 5, 15);

/// The default campaign config under `profile`'s network faults.
pub fn config(profile: FaultProfile) -> CampaignConfig {
    CampaignConfig {
        fault_profile: profile,
        ..CampaignConfig::default()
    }
}

/// A fresh path `<temp>/<prefix>-<pid>-<n>` (not created).
pub fn tmp_dir(prefix: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The `tick` of every line of an OBS or ALERTS JSONL export.
pub fn ticks_of(jsonl: &str) -> Vec<u64> {
    jsonl
        .lines()
        .map(|l| {
            Json::parse(l)
                .expect("JSONL line parses")
                .get("tick")
                .and_then(Json::as_f64)
                .expect("JSONL line has a tick") as u64
        })
        .collect()
}

/// The two disks every storage test runs on: the real filesystem and
/// one failing 1% of its operations ([`IoFaultPlan::mild`]).
pub fn disks() -> [IoFaultPlan; 2] {
    [IoFaultPlan::none(), IoFaultPlan::mild()]
}

/// The filesystem seam of a disk that injects `plan`'s faults: the real
/// filesystem when `plan` is none, a fresh [`FaultyVfs`] otherwise.
pub fn seam(plan: &IoFaultPlan) -> Arc<dyn Vfs> {
    if plan.is_none() {
        Arc::new(RealVfs)
    } else {
        Arc::new(FaultyVfs::new(plan.clone()))
    }
}

/// Open a checkpoint store on a disk that injects `plan`'s faults.
pub fn open_store(dir: &Path, plan: &IoFaultPlan) -> CheckpointStore {
    CheckpointStore::with_vfs(dir, DEFAULT_KEEP, seam(plan)).expect("store open")
}

/// Structural check against the Prometheus text format 0.0.4 line
/// grammar: every line is a `# HELP`/`# TYPE` comment or
/// `name[{labels}] value` with a sane metric name and a parseable
/// value, and every TYPE is directly preceded by its family's HELP.
pub fn assert_prometheus_well_formed(text: &str) {
    assert!(!text.is_empty());
    assert!(text.ends_with('\n'), "exposition must end with a newline");
    let name_ok = |name: &str| {
        !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    };
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has name + text");
            assert!(name_ok(name), "bad HELP name: {line}");
            assert!(!help.is_empty(), "empty HELP text: {line}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(name_ok(name), "bad TYPE name: {line}");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "bad TYPE kind: {line}"
            );
            let help_line = format!("# HELP {name} ");
            assert!(
                i > 0 && lines[i - 1].starts_with(&help_line),
                "TYPE without its family's HELP directly above: {line}"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment: {line}");
        let (series, value) = line.rsplit_once(' ').expect("metric line has a value");
        let name = series.split('{').next().unwrap();
        assert!(name_ok(name), "bad metric name: {line}");
        if let Some(labels) = series.strip_prefix(name) {
            assert!(
                labels.is_empty() || (labels.starts_with('{') && labels.ends_with('}')),
                "bad label block: {line}"
            );
        }
        assert!(value.parse::<f64>().is_ok(), "bad value: {line}");
    }
}
