//! Delta-chain durability and storage-format compatibility, end to end.
//!
//! `it_durability` sweeps the crash space of the *full*-checkpoint
//! driver; this binary pins the guarantees that delta generations add
//! on top (see `docs/STORAGE.md`):
//!
//! * delta chains never change the measurement: exports are
//!   byte-identical to full snapshots at 1/2/4 threads;
//! * a kill halfway between delta cuts — including right at a columnar
//!   segment seal, the store's only internal boundary — resumes
//!   byte-identical at 1/2/4 threads;
//! * corrupting one member of a delta chain quarantines the head down
//!   to the break and recovery falls back to the longest intact prefix
//!   of the chain, then re-crawls to the same bytes;
//! * the committed v3 capture-db fixture pins the columnar grammar:
//!   it imports and re-exports byte for byte.
//!
//! The thread-count and kill-halfway sweeps run on two disks: the real
//! filesystem and one failing 1% of its operations
//! ([`IoFaultPlan::mild`]). On the faulty disk the expected generation
//! layout is relaxed; state and trace byte-identity and the finished
//! verdict never are.
//!
//! The segment-boundary legs use a toplist drawn from a single shard,
//! so shard row counts equal pairs done and the seal at row
//! [`SEGMENT_ROWS`] lands at a known pair index between two cuts.
//!
//! Tests serialize on a lock because the trace log and telemetry
//! registry are process-global; each test leaves both cleared and
//! disabled, mirroring `it_durability`.

use consent_checkpoint::CheckpointStore;
use consent_crawler::{
    build_toplist, export_db, import_db, recover_state, run_durable_campaign, shard_of,
    CampaignConfig, CheckpointMode, DurableOpts, DurableOutcome, SECTION_DELTA_META, SEGMENT_ROWS,
    SHARD_COUNT,
};
use consent_faultsim::{CrashPlan, FaultProfile, IoFaultPlan};
use consent_httpsim::Vantage;
use consent_integration_tests::{disks, open_store, tmp_dir, DAY};
use consent_util::SeedTree;
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::sync::{Mutex, MutexGuard, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());
const TMP: &str = "consent-it-delta";

/// Hold the global trace log + telemetry registry for one test.
fn lock() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    consent_trace::clear();
    consent_trace::enable();
    guard
}

fn unlock(guard: MutexGuard<'static, ()>) {
    consent_trace::disable();
    consent_trace::clear();
    consent_telemetry::reset();
    drop(guard);
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::new(WorldConfig {
            n_sites: 6_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    })
}

/// A toplist drawn entirely from one capture-db shard: nearly every
/// crawled pair appends to the same shard (redirects can move a
/// captured host to a sibling shard), so the segment seal at row
/// [`SEGMENT_ROWS`] falls within a pair or two of a known index. The
/// list is long enough to cross one seal.
fn same_shard_list() -> &'static [String] {
    static LIST: OnceLock<Vec<String>> = OnceLock::new();
    LIST.get_or_init(|| {
        let full = build_toplist(world(), 5_000, SeedTree::new(7));
        let mut counts = [0usize; SHARD_COUNT];
        for d in &full {
            counts[shard_of(d)] += 1;
        }
        let shard = (0..SHARD_COUNT).max_by_key(|&s| counts[s]).expect("shards");
        let list: Vec<String> = full
            .iter()
            .filter(|d| shard_of(d) == shard)
            .take(SEGMENT_ROWS + 4)
            .cloned()
            .collect();
        assert_eq!(
            list.len(),
            SEGMENT_ROWS + 4,
            "5000 domains over {SHARD_COUNT} shards must fill one shard past a seal"
        );
        list
    })
}

/// One single-vantage durable campaign over `list` at `mode`.
fn durable(
    store: &CheckpointStore,
    list: &[String],
    threads: usize,
    mode: CheckpointMode,
    checkpoint_every: u64,
    crash: CrashPlan,
) -> consent_crawler::DurableRun {
    let vantages = [Vantage::eu_cloud()];
    let opts = DurableOpts {
        threads,
        config: CampaignConfig {
            fault_profile: FaultProfile::none(),
            ..CampaignConfig::default()
        },
        checkpoint_every,
        mode,
        crash,
        sampler: None,
        ..DurableOpts::default()
    };
    run_durable_campaign(
        world(),
        list,
        DAY(),
        &vantages,
        SeedTree::new(9),
        store,
        &opts,
    )
    .expect("durable campaign io")
}

/// The uninterrupted full-snapshot (`rebase_every: 0`) run's exports:
/// the bytes every delta-chain variant must reproduce. Also pins the
/// workload shape the boundary sweep relies on: one row per pair, all
/// in one shard, at least one sealed segment. The run checkpoints to a
/// disk that injects `disk`'s faults.
fn baseline(list: &[String], checkpoint_every: u64, disk: &IoFaultPlan) -> (String, String) {
    let dir = tmp_dir(TMP);
    let store = open_store(&dir, disk);
    consent_trace::clear();
    let run = durable(
        &store,
        list,
        1,
        CheckpointMode::Delta { rebase_every: 0 },
        checkpoint_every,
        CrashPlan::none(),
    );
    assert!(run.outcome.finished(), "{:?}", run.outcome);
    assert_eq!(run.state.db.len(), list.len() as u64, "one row per pair");
    if list.len() > SEGMENT_ROWS {
        // Rows are keyed by the *captured* host, which a redirect can
        // move to a sibling shard — so the target shard holds nearly,
        // not exactly, one row per pair. It must still cross its seal.
        let shard = shard_of(&list[0]);
        assert!(
            run.state.db.marks().shard_rows[shard] as usize > SEGMENT_ROWS,
            "shard {shard} holds {} rows, not enough to seal",
            run.state.db.marks().shard_rows[shard]
        );
        assert!(
            run.state.db.sealed_segments() >= 1,
            "the workload must cross a segment seal"
        );
    }
    let out = (run.state.export(), consent_trace::global().export_jsonl());
    std::fs::remove_dir_all(dir).unwrap();
    out
}

/// Simulate the process dying and restarting: the in-memory trace log
/// dies with it; the store directory is all that survives.
fn die() {
    consent_trace::clear();
}

#[test]
fn delta_mode_is_byte_identical_across_thread_counts() {
    let guard = lock();
    let list = &same_shard_list()[..48];
    for disk in disks() {
        let (state_bytes, trace_bytes) = baseline(list, 16, &disk);

        for threads in [1usize, 2, 4] {
            let dir = tmp_dir(TMP);
            let store = open_store(&dir, &disk);
            consent_trace::clear();
            let run = durable(
                &store,
                list,
                threads,
                CheckpointMode::Delta { rebase_every: 8 },
                16,
                CrashPlan::none(),
            );
            assert!(run.outcome.finished(), "{:?}", run.outcome);
            assert!(
                run.state.export() == state_bytes,
                "delta-mode state diverged at {threads} threads (disk {disk})"
            );
            assert!(
                consent_trace::global().export_jsonl() == trace_bytes,
                "delta-mode trace diverged at {threads} threads (disk {disk})"
            );
            if disk.is_none() {
                // The store really holds a chain, not disguised full writes:
                // 48 pairs at cadence 16 → full base + two delta members.
                let gens = store.generations().unwrap();
                assert_eq!(gens, vec![1, 2, 3]);
                for g in [2u64, 3] {
                    let scan = store.scan_generation(g).unwrap();
                    assert!(
                        scan.section(SECTION_DELTA_META).is_some(),
                        "generation {g} is not a delta"
                    );
                }
            }
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
    unlock(guard);
}

#[test]
fn kill_halfway_between_delta_cuts_at_segment_boundaries_resumes_byte_identical() {
    let guard = lock();
    let list = same_shard_list();
    let pairs = list.len() as u64; // SEGMENT_ROWS + 4 = 260
    let cadence = 64u64; // cuts at 64, 128, 192, 256 — the last IS the seal
    for disk in disks() {
        let (state_bytes, trace_bytes) = baseline(list, cadence, &disk);

        let seal = SEGMENT_ROWS as u64;
        // Halfway between cuts, the insert that fills the segment, and the
        // straddling inserts either side of the seal.
        let crashpoints = [cadence / 2, 3 * cadence / 2, seal - 1, seal, seal + 1];
        for threads in [1usize, 2, 4] {
            for &k in &crashpoints {
                assert!(k < pairs);
                let dir = tmp_dir(TMP);
                let store = open_store(&dir, &disk);
                consent_trace::clear();
                let mode = CheckpointMode::Delta { rebase_every: 8 };
                let crashed = durable(
                    &store,
                    list,
                    threads,
                    mode,
                    cadence,
                    CrashPlan::after_apply(k),
                );
                match crashed.outcome {
                    DurableOutcome::Crashed { durable_pairs, .. } => {
                        assert!(durable_pairs < k, "crash fires before the covering write");
                    }
                    other => panic!("crashpoint apply:{k} never fired: {other:?}"),
                }
                die();
                let resumed = durable(&store, list, threads, mode, cadence, CrashPlan::none());
                assert!(resumed.outcome.finished(), "{:?}", resumed.outcome);
                assert!(
                    resumed.state.export() == state_bytes,
                    "state diverged after apply:{k} at {threads} threads (disk {disk})"
                );
                assert!(
                    consent_trace::global().export_jsonl() == trace_bytes,
                    "trace diverged after apply:{k} at {threads} threads (disk {disk})"
                );
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }
    unlock(guard);
}

#[test]
fn corrupt_one_delta_falls_back_to_last_intact_chain_and_reconverges() {
    let guard = lock();
    let list = &same_shard_list()[..40];
    let [real, faulty] = disks();
    let bytes = baseline(list, 8, &real);
    assert!(
        baseline(list, 8, &faulty) == bytes,
        "the baseline on disk {faulty} diverged"
    );
    let (state_bytes, trace_bytes) = bytes;

    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    consent_trace::clear();
    // 40 pairs at cadence 8, never rebasing → full base 1, deltas 2–5.
    let mode = CheckpointMode::Delta { rebase_every: 100 };
    let run = durable(&store, list, 1, mode, 8, CrashPlan::none());
    assert!(run.outcome.finished(), "{:?}", run.outcome);
    assert_eq!(store.generations().unwrap(), vec![1, 2, 3, 4, 5]);

    // Flip one byte in the middle of delta generation 4.
    let path = store.path_for(4);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    die();

    // Recovery quarantines the head (5) and the corrupt member (4), then
    // reassembles the longest intact prefix of the chain: 1 ← 2 ← 3.
    let (state, _, report) = recover_state(&store).expect("recover io");
    assert_eq!(report.used_generation, Some(3), "{}", report.render());
    assert_eq!(
        report
            .quarantined
            .iter()
            .map(|q| q.generation)
            .collect::<Vec<_>>(),
        vec![5, 4],
        "{}",
        report.render()
    );
    assert!(
        report
            .actions
            .iter()
            .any(|a| a.contains("recovered delta chain")),
        "{}",
        report.render()
    );
    assert_eq!(state.pairs_done, 24, "generation 3 covers three cuts of 8");
    assert!(store.quarantine_dir().is_dir(), "corrupt files kept");

    // Resuming re-crawls pairs 25–40 and reconverges on the same bytes.
    let resumed = durable(&store, list, 1, mode, 8, CrashPlan::none());
    assert!(resumed.outcome.finished(), "{:?}", resumed.outcome);
    assert!(
        resumed.state.export() == state_bytes,
        "resume after chain break did not reconverge"
    );
    assert!(
        consent_trace::global().export_jsonl() == trace_bytes,
        "trace diverged after chain break"
    );
    std::fs::remove_dir_all(dir).unwrap();
    unlock(guard);
}

/// The committed v3 columnar fixture pins the *current* on-disk
/// grammar: the host table, shard headers, and per-column lines must
/// re-export byte-for-byte. Any accidental format drift (reordered
/// columns, changed separators, new header fields) fails here before
/// it silently invalidates every archived checkpoint and bundle.
#[test]
fn committed_v3_fixture_pins_the_columnar_grammar() {
    let text = include_str!("fixtures/capture_db_v3.txt");
    let db = import_db(text).expect("committed v3 fixture must import");
    assert_eq!(db.len(), 20);
    assert_eq!(db.domain_count(), 8);
    assert!(
        export_db(&db) == text,
        "v3 re-export drifted from the committed fixture bytes"
    );

    // Spot-check the columnar round-trip kept the histories intact.
    let hist = db.domain_history("travel.example");
    assert_eq!(hist.len(), 3);
    assert!(hist[2].dialog_visible);
}
