//! The `CONSENT_*` environment variables of the example binaries: the
//! only code in the workspace that reads them. Libraries take the same
//! settings as explicit values; a binary turns a variable into one here.
//! An unknown value ends the process with exit code 2, naming the
//! variable and its grammar. An empty value means `none`.

// Each binary includes this module and uses a subset of it.
#![allow(dead_code)]

use consent_checkpoint::CheckpointStore;
use consent_faultsim::{FaultProfile, FaultyVfs, IoFaultPlan};
use consent_watch::rules::WatchConfig;
use std::path::Path;
use std::sync::Arc;

/// `CONSENT_CHAOS`: the network fault profile, `default` when unset.
pub fn chaos(default: &str) -> FaultProfile {
    read(
        "CONSENT_CHAOS",
        default,
        "none, 0, mild or heavy",
        FaultProfile::parse,
    )
}

/// `CONSENT_IO_CHAOS`: the storage fault plan, none when unset.
pub fn io_chaos() -> IoFaultPlan {
    read(
        "CONSENT_IO_CHAOS",
        "none",
        "none, mild, kind@op:at[:count] or rate:seed:permille, ;-joined",
        IoFaultPlan::parse,
    )
}

/// Open the checkpoint store at `dir` on a disk that injects `plan`'s
/// storage faults: the real filesystem when `plan` is none.
pub fn open_store(dir: &Path, plan: IoFaultPlan) -> CheckpointStore {
    if plan.is_none() {
        CheckpointStore::open(dir)
    } else {
        CheckpointStore::with_vfs(
            dir,
            consent_checkpoint::DEFAULT_KEEP,
            Arc::new(FaultyVfs::new(plan)),
        )
    }
    .expect("open checkpoint store")
}

/// `CONSENT_WATCH`: the watch rules, the spec `default` when unset.
pub fn watch(default: &str) -> WatchConfig {
    read(
        "CONSENT_WATCH",
        default,
        "none, default, slo:metric:permille:windows, drift:metric:centiz:warmup or \
         gap:ticks, ;-joined",
        WatchConfig::parse,
    )
}

fn read<T>(var: &str, default: &str, grammar: &str, parse: impl Fn(&str) -> Option<T>) -> T {
    let value = std::env::var(var).unwrap_or_else(|_| default.to_string());
    let spec = if value.is_empty() { "none" } else { &value };
    parse(spec).unwrap_or_else(|| {
        eprintln!("{var}={value:?} is not one of: {grammar}");
        std::process::exit(2);
    })
}
