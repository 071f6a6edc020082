//! Checkpoint write / open / salvage latency.
//!
//! Times the crash-safe store's three operations over a small but
//! realistic campaign state. The authoritative trajectory numbers come
//! from the JSON entry point (`cargo run -p consent-bench --release`,
//! see BENCHMARKS.md); this bench exists so `cargo bench -p
//! consent-bench` shows the same shape interactively. The salvage case
//! times the full corrupt-and-recover cycle (the vendored criterion has
//! no batched setup), so read it relative to `write`, not in isolation.

use consent_bench::CheckpointBench;
use consent_checkpoint::CheckpointStore;
use consent_crawler::{recover_state, state_sections};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "consent-criterion-ckpt-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn corrupt_meta_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint");
    let marker = b"#end-header\n";
    let start = bytes
        .windows(marker.len())
        .position(|w| w == marker)
        .expect("checkpoint has a header terminator")
        + marker.len();
    bytes[start + 1] ^= 0x01;
    std::fs::write(path, &bytes).expect("write corrupted checkpoint");
}

fn checkpoint_durability(c: &mut Criterion) {
    let state = CheckpointBench {
        n_sites: 1_000,
        domains: 40,
        ..CheckpointBench::default()
    }
    .build_state();
    let sections = state_sections(&state);

    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(20);

    let write_dir = tmp_dir();
    let write_store = CheckpointStore::open(&write_dir).expect("open store");
    group.bench_function("write", |b| {
        b.iter(|| write_store.save(black_box(&sections)).expect("save"))
    });

    let open_dir = tmp_dir();
    let open_store = CheckpointStore::open(&open_dir).expect("open store");
    open_store.save(&sections).expect("save");
    group.bench_function("open", |b| {
        b.iter(|| recover_state(black_box(&open_store)).expect("recover"))
    });

    let salvage_dir = tmp_dir();
    let salvage_store = CheckpointStore::open(&salvage_dir).expect("open store");
    salvage_store.save(&sections).expect("save");
    group.bench_function("salvage_cycle", |b| {
        b.iter(|| {
            let g = salvage_store.save(&sections).expect("save");
            corrupt_meta_byte(&salvage_store.path_for(g));
            recover_state(black_box(&salvage_store)).expect("salvage")
        })
    });

    group.finish();
    for dir in [write_dir, open_dir, salvage_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

criterion_group!(benches, checkpoint_durability);
criterion_main!(benches);
