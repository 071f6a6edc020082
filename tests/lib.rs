//! Shared helpers for the integration tests.

use consent_checkpoint::{CheckpointStore, RealVfs, Vfs, DEFAULT_KEEP};
use consent_core::{Study, StudyConfig};
use consent_faultsim::{FaultProfile, FaultyVfs, IoFaultPlan};
use std::path::Path;
use std::sync::Arc;

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
