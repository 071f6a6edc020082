//! Crash safety of the durable campaign driver, end to end.
//!
//! This binary sweeps every deterministic crashpoint of a small
//! campaign and asserts the recovery invariant the checkpoint layer
//! exists for: **no crash, torn write, or corruption can change the
//! bytes**. A resumed campaign's `CampaignState` export and trace JSONL
//! are byte-identical to an uninterrupted run's, at any thread count,
//! under chaos, whatever the store looked like when the process died.
//! Every test that opens a store for a crashed or uninterrupted run
//! opens it on two disks: the real filesystem and one failing 1% of its
//! operations ([`IoFaultPlan::mild`]). On the faulty disk, *structural*
//! durability expectations — exact generation counts, chunk-loss
//! bounds, quarantines — are relaxed: faults may legitimately degrade
//! them. State and trace byte-identity and the finished (complete or
//! cleanly degraded) verdict are never relaxed.
//!
//! Five pinned guarantees:
//!
//! * crash-after-apply at *every* pair index resumes byte-identical
//!   (both executors, with and without mild chaos);
//! * a torn checkpoint write at every write index × several byte cuts
//!   falls back to an older generation (or scratch) and still resumes
//!   byte-identical, with and without mild chaos;
//! * a seeded fuzzer over bit flips and truncations of a real
//!   checkpoint file never produces a silently wrong state — every
//!   mutation is either salvaged to the exact original bytes or
//!   rejected back to a state the driver re-crawls to convergence;
//! * an injected panic is contained: the pair is dead-lettered with
//!   provenance and counted, the rest of the campaign completes, and
//!   exports stay byte-identical across thread counts;
//! * the state export of a small chaotic campaign equals the committed
//!   `fixtures/campaign_state.txt` byte for byte and round-trips
//!   through import.
//!
//! Tests serialize on a lock because the trace log and telemetry
//! registry are process-global; each test leaves both cleared and
//! disabled, mirroring `it_trace` and `it_telemetry`.

use consent_checkpoint::CheckpointStore;
use consent_crawler::{
    build_toplist, recover_state, run_campaign_parallel, run_durable_campaign, CampaignState,
    DegradeLevel, DurableOpts, DurableOutcome, ParallelOpts,
};
use consent_faultsim::{CrashPlan, FaultProfile, FaultyVfs, IoFaultKind, IoFaultPlan};
use consent_httpsim::Vantage;
use consent_integration_tests::{config, disks, open_store, tmp_dir, toplist, world, DAY};
use consent_util::SeedTree;
use consent_watch::rules::WatchConfig;
use consent_watch::Watch;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());
const TMP: &str = "consent-it-durability";

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

fn opts(threads: usize, profile: FaultProfile, crash: CrashPlan) -> DurableOpts {
    DurableOpts {
        threads,
        config: config(profile),
        checkpoint_every: 5,
        crash,
        sampler: None,
        ..DurableOpts::default()
    }
}

/// Run one durable campaign over the shared 8-domain × 2-vantage
/// workload against `store`.
fn durable(
    store: &CheckpointStore,
    threads: usize,
    profile: FaultProfile,
    crash: CrashPlan,
) -> consent_crawler::DurableRun {
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    run_durable_campaign(
        world(),
        &toplist()[..8],
        DAY(),
        &vantages,
        SeedTree::new(9),
        store,
        &opts(threads, profile, crash),
    )
    .expect("durable campaign io")
}

/// [`durable`] on one thread without network faults, with a fresh
/// default-rules watch attached, so that every generation also carries
/// the watchdog's `watch-state` section, after the two logs.
fn durable_watched(store: &CheckpointStore, crash: CrashPlan) -> consent_crawler::DurableRun {
    let watch = Watch::attach(consent_telemetry::global(), WatchConfig::default_rules());
    run_durable_campaign(
        world(),
        &toplist()[..8],
        DAY(),
        &[Vantage::eu_cloud(), Vantage::us_cloud()],
        SeedTree::new(9),
        store,
        &DurableOpts {
            watch: Some(watch),
            ..opts(1, FaultProfile::none(), crash)
        },
    )
    .expect("durable campaign io")
}

/// The uninterrupted run's exports on a disk that injects `disk`'s
/// faults: the bytes every crashed-and-resumed variant must reproduce.
fn baseline(profile: FaultProfile, disk: &IoFaultPlan) -> (String, String) {
    let dir = tmp_dir(TMP);
    let store = open_store(&dir, disk);
    consent_trace::clear();
    let run = durable(&store, 1, profile, CrashPlan::none());
    assert!(run.outcome.finished(), "{:?}", run.outcome);
    assert!(run.salvage.is_clean(), "{}", run.salvage.render());
    let out = (run.state.export(), consent_trace::global().export_jsonl());
    std::fs::remove_dir_all(dir).unwrap();
    out
}

/// The baseline on every disk of [`disks`], which must agree: storage
/// faults never change the bytes.
fn baseline_on_every_disk(profile: FaultProfile) -> (String, String) {
    let [real, faulty] = disks();
    let bytes = baseline(profile, &real);
    assert!(
        baseline(profile, &faulty) == bytes,
        "the baseline on disk {faulty} diverged ({profile})"
    );
    bytes
}

/// Simulate the process dying and restarting: the in-memory trace log
/// dies with it; the store directory is all that survives.
fn die() {
    consent_trace::clear();
}

#[test]
fn every_crash_after_apply_resumes_byte_identical() {
    let guard = lock();
    let pairs = 16u64; // 8 domains × 2 vantages
    for disk in disks() {
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (state_bytes, trace_bytes) = baseline(profile, &disk);
            for threads in [1usize, 4] {
                for k in 1..=pairs {
                    let dir = tmp_dir(TMP);
                    let store = open_store(&dir, &disk);
                    consent_trace::clear();
                    let crashed = durable(&store, threads, profile, CrashPlan::after_apply(k));
                    match crashed.outcome {
                        DurableOutcome::Crashed { durable_pairs, .. } => {
                            assert!(durable_pairs < k, "crash fires before the covering write");
                            if disk.is_none() {
                                assert!(k - durable_pairs <= 5, "at most one chunk is lost");
                            }
                        }
                        other => panic!("crashpoint apply:{k} never fired: {other:?}"),
                    }
                    die();
                    let resumed = durable(&store, threads, profile, CrashPlan::none());
                    assert!(resumed.outcome.finished(), "{:?}", resumed.outcome);
                    assert!(
                        resumed.state.export() == state_bytes,
                        "state diverged after apply:{k} at {threads} threads ({profile}, disk {disk})"
                    );
                    assert!(
                        consent_trace::global().export_jsonl() == trace_bytes,
                        "trace diverged after apply:{k} at {threads} threads ({profile}, disk {disk})"
                    );
                    std::fs::remove_dir_all(dir).unwrap();
                }
            }
        }
    }
    unlock(guard);
}

#[test]
fn every_torn_write_falls_back_and_resumes_byte_identical() {
    let guard = lock();
    for disk in disks() {
        for profile in [FaultProfile::none(), FaultProfile::mild()] {
            let (state_bytes, trace_bytes) = baseline(profile, &disk);

            // Probe the write sizes: the sweep's crashed runs write the
            // same generations (same campaign, same chunking), so the
            // baseline store's files give each write's exact byte length.
            let probe = tmp_dir(TMP);
            let probe_store = open_store(&probe, &disk);
            consent_trace::clear();
            durable(&probe_store, 1, profile, CrashPlan::none());
            let gens = probe_store.generations().unwrap();
            if disk.is_none() {
                assert_eq!(gens, vec![1, 2, 3, 4], "16 pairs in chunks of 5 → 4 writes");
            }
            let sizes: Vec<u64> = gens
                .iter()
                .map(|&g| std::fs::metadata(probe_store.path_for(g)).unwrap().len())
                .collect();
            std::fs::remove_dir_all(&probe).unwrap();

            for threads in [1usize, 4] {
                for (i, &size) in sizes.iter().enumerate() {
                    let write = (i + 1) as u64;
                    for cut in [0, 1, size / 2, size - 1] {
                        let dir = tmp_dir(TMP);
                        let store = open_store(&dir, &disk);
                        consent_trace::clear();
                        let crashed = durable(
                            &store,
                            threads,
                            profile,
                            CrashPlan::truncate_write(write, cut),
                        );
                        let at = format!(
                            "write:{write}:{cut} at {threads} threads ({profile}, disk {disk})"
                        );
                        match crashed.outcome {
                            DurableOutcome::Crashed { durable_pairs, .. } => {
                                // Only the writes before the torn one are durable.
                                if disk.is_none() {
                                    assert_eq!(durable_pairs, (write - 1) * 5, "{at}");
                                }
                            }
                            other => panic!("crashpoint {at} never fired: {other:?}"),
                        }
                        die();
                        let resumed = durable(&store, threads, profile, CrashPlan::none());
                        assert!(resumed.outcome.finished(), "{:?}", resumed.outcome);
                        assert!(
                            resumed.state.export() == state_bytes,
                            "state diverged after {at}"
                        );
                        assert!(
                            consent_trace::global().export_jsonl() == trace_bytes,
                            "trace diverged after {at}"
                        );
                        if disk.is_none() {
                            assert!(
                                !resumed.salvage.is_clean(),
                                "the torn generation must be quarantined, not used ({at})"
                            );
                            // The torn file was preserved for post-mortem.
                            assert!(store.quarantine_dir().is_dir());
                        }
                        std::fs::remove_dir_all(dir).unwrap();
                    }
                }
            }
        }
    }
    unlock(guard);
}

#[test]
fn fuzzed_checkpoints_are_salvaged_or_rejected_never_wrong() {
    let guard = lock();
    let (state_bytes, _) = baseline_on_every_disk(FaultProfile::none());

    // A real checkpoint file to mutate.
    let seed_dir = tmp_dir(TMP);
    let seed_store = CheckpointStore::open(&seed_dir).unwrap();
    consent_trace::clear();
    durable_watched(&seed_store, CrashPlan::none());
    let last = *seed_store.generations().unwrap().last().unwrap();
    let original = std::fs::read(seed_store.path_for(last)).unwrap();
    let name = format!("gen-{last:08}.ckpt");
    std::fs::remove_dir_all(&seed_dir).unwrap();
    consent_trace::disable();
    consent_trace::clear();

    // Deterministic xorshift64* so the mutation set never drifts.
    let mut rng_state = 0x9E37_79B9_7F4A_7C15u64;
    let mut rng = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };

    // The file's last section is the watch-state blob, which recovery
    // can lose without losing a pair: flips aimed there exercise the
    // salvage of the two intact logs, which blind flips over a
    // multi-kilobyte file would rarely hit.
    let watch_len: usize = String::from_utf8_lossy(&original)
        .lines()
        .find_map(|l| l.strip_prefix("section=watch-state "))
        .and_then(|entry| entry.split(' ').next()?.parse().ok())
        .expect("checkpoint has a watch-state section");
    let watch_start = original.len() - watch_len;

    let mut salvaged = 0usize;
    let mut rejected = 0usize;
    for case in 0..64u32 {
        let mut mutated = original.clone();
        let label = match case % 4 {
            3 => {
                // Truncation at a seeded length (strictly shorter).
                let keep = (rng() as usize) % mutated.len();
                mutated.truncate(keep);
                format!("truncate:{keep}")
            }
            2 => {
                // Seeded bit flip inside the watch-state body.
                let pos = watch_start + (rng() as usize) % 20;
                let bit = 1u8 << (rng() % 8);
                mutated[pos] ^= bit;
                format!("watch-flip:{pos}:{bit:#04x}")
            }
            _ => {
                // Seeded bit flip anywhere in the file.
                let pos = (rng() as usize) % mutated.len();
                let bit = 1u8 << (rng() % 8);
                mutated[pos] ^= bit;
                format!("flip:{pos}:{bit:#04x}")
            }
        };

        let dir = tmp_dir(TMP);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(&name), &mutated).unwrap();
        let store = CheckpointStore::open(&dir).unwrap();
        let (state, _, report) = recover_state(&store).expect("recover io");
        if state.export() == state_bytes {
            // Exact original bytes back — either the intact path (only
            // possible if the mutation was a no-op, which ours never
            // are) or an honest salvage that says so.
            assert!(
                !report.is_clean(),
                "{label}: corrupted file recovered without a salvage action"
            );
            salvaged += 1;
        } else {
            // Rejected: the driver falls back to scratch and must say
            // so. Anything else would be a silently wrong state.
            assert_eq!(
                state.pairs_done,
                0,
                "{label}: recovered a state that is neither the original nor fresh:\n{}",
                report.render()
            );
            assert!(!report.is_clean(), "{label}: silent rejection");
            rejected += 1;
        }
        // Whatever recovery decided, resuming re-crawls the gap and
        // reconverges on the same bytes.
        let resumed = durable(&store, 1, FaultProfile::none(), CrashPlan::none());
        assert_eq!(resumed.outcome, DurableOutcome::Complete);
        assert!(
            resumed.state.export() == state_bytes,
            "{label}: resume did not reconverge"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
    // The sweep exercises both recovery paths, not just one.
    assert!(salvaged > 0, "no mutation was salvaged");
    assert!(rejected > 0, "no mutation was rejected");
    unlock(guard);
}

/// Silence the default panic hook for the faults this suite injects on
/// purpose; genuine panics still print.
fn silence_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected panic") {
                prev(info);
            }
        }));
    });
}

#[test]
fn injected_panics_are_contained_and_dead_lettered() {
    let guard = lock();
    silence_injected_panics();
    let profile = FaultProfile {
        panic: 0.15,
        ..FaultProfile::none()
    };
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let list = &toplist()[..12];
    let pairs = (list.len() * vantages.len()) as u64;

    let run_at = |threads: usize| {
        consent_trace::clear();
        consent_telemetry::reset();
        consent_telemetry::enable();
        let run = run_campaign_parallel(
            world(),
            list,
            DAY(),
            &vantages,
            SeedTree::new(9),
            &ParallelOpts {
                threads,
                config: config(profile),
                max_pairs: None,
            },
        );
        consent_telemetry::disable();
        let counted = consent_telemetry::global()
            .snapshot()
            .counter("campaign.panic");
        (run, counted)
    };

    let (base, counted) = run_at(1);
    assert!(base.complete, "panics must not abort the campaign");
    assert_eq!(base.state.pairs_done, pairs, "every pair is accounted for");
    let panicked: Vec<_> = base
        .state
        .provenance
        .records()
        .iter()
        .filter(|p| p.outcome == "panic")
        .collect();
    assert!(!panicked.is_empty(), "0.15 panic rate injected nothing");
    assert!(
        (panicked.len() as u64) < pairs,
        "the whole campaign panicked — nothing was contained"
    );
    assert_eq!(counted, panicked.len() as u64, "campaign.panic counter");
    for p in &panicked {
        assert!(p.dead_lettered, "{} not dead-lettered", p.domain);
        assert_eq!(p.attempts.len(), 1, "synthetic history is one attempt");
        assert_eq!(p.attempts[0].fault.as_deref(), Some("panic"));
    }
    // Every panicked pair also leaves a containment marker trace
    // (counted by distinct trace id — a span is two events).
    let marker_traces = consent_trace::global()
        .snapshot()
        .iter()
        .filter(|e| e.name == "pair.panic")
        .map(|e| e.trace_id)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert_eq!(marker_traces, panicked.len());
    let baseline_state = base.state.export();
    let baseline_trace = consent_trace::global().export_jsonl();

    // Containment is deterministic: the pool survives and the exports
    // match at every thread count.
    for threads in [2usize, 4] {
        let (run, counted) = run_at(threads);
        assert!(run.complete);
        assert_eq!(counted, panicked.len() as u64);
        assert!(
            run.state.export() == baseline_state,
            "state diverged at {threads} threads"
        );
        assert!(
            consent_trace::global().export_jsonl() == baseline_trace,
            "trace diverged at {threads} threads"
        );
    }
    unlock(guard);
}

/// The committed export of a small fixed campaign: 24 domains at the EU
/// cloud vantage under heavy chaos plus a 15% injected-panic rate, on
/// one thread. Byte-identity suites compare two runs of one build; this
/// pins the bytes across builds.
const GOLDEN_STATE: &str = include_str!("fixtures/campaign_state.txt");

#[test]
fn state_export_matches_the_committed_golden_fixture() {
    let guard = lock();
    silence_injected_panics();
    let profile = FaultProfile {
        panic: 0.15,
        ..FaultProfile::heavy()
    };
    let list = build_toplist(world(), 24, SeedTree::new(7));
    let run = run_campaign_parallel(
        world(),
        &list,
        DAY(),
        &[Vantage::eu_cloud()],
        SeedTree::new(9),
        &ParallelOpts {
            threads: 1,
            config: config(profile),
            max_pairs: None,
        },
    );
    assert!(run.complete);
    let export = run.state.export();
    if let Some((n, (got, want))) = export
        .lines()
        .zip(GOLDEN_STATE.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "export differs from the fixture at line {}:\n  got  {got:?}\n  want {want:?}",
            n + 1
        );
    }
    assert_eq!(export, GOLDEN_STATE);
    let back = CampaignState::import(GOLDEN_STATE).expect("fixture imports");
    assert_eq!(back.export(), GOLDEN_STATE, "import→export round-trip");

    // The fixture covers every kind of dead letter: the three
    // abandoning outcomes and a breaker-opened pair. A dead letter is a
    // provenance line whose dead-letter field (the ninth) is `1`.
    let dead_letters: Vec<Vec<&str>> = GOLDEN_STATE
        .split_once("#consent-provenance v1\n")
        .expect("provenance section")
        .1
        .lines()
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .filter(|f| f[8] == "1")
        .collect();
    for outcome in ["permanent", "transient", "panic"] {
        assert!(
            dead_letters.iter().any(|f| f[5] == outcome),
            "no {outcome} dead letter in the fixture"
        );
    }
    assert!(
        dead_letters.iter().any(|f| f[7] == "1"),
        "no breaker-opened dead letter in the fixture"
    );
    unlock(guard);
}

/// A generation whose only damaged section is the watchdog's
/// `watch-state` still holds both logs: recovery salvages them rather
/// than falling back a generation, and losing the blob only restarts
/// the detectors.
#[test]
fn damaged_watch_state_on_newest_generation_is_salvaged() {
    let guard = lock();
    let (state_bytes, trace_bytes) = baseline_on_every_disk(FaultProfile::none());

    let dir = tmp_dir(TMP);
    let store = CheckpointStore::open(&dir).unwrap();
    consent_trace::clear();
    // Die mid-campaign with two durable generations on disk…
    durable_watched(&store, CrashPlan::after_apply(11));
    die();
    assert_eq!(store.generations().unwrap(), vec![1, 2]);
    // …then flip a byte in the newest generation's last section, the
    // watch-state blob.
    let path = store.path_for(2);
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let scan = store.scan_generation(2).unwrap();
    let verdicts: Vec<(&str, &str)> = scan
        .verdicts
        .iter()
        .map(|v| (v.name.as_str(), v.status.name()))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("capture-db", "intact"),
            ("provenance", "intact"),
            ("watch-state", "corrupt"),
        ]
    );

    let resumed = durable_watched(&store, CrashPlan::none());
    assert_eq!(resumed.outcome, DurableOutcome::Complete);
    // Salvage kept generation 2's ten pairs instead of falling back to
    // generation 1's five.
    assert!(
        resumed
            .salvage
            .actions
            .iter()
            .any(|a| a.contains("salvaged state (10 pairs) from quarantined generation 2")),
        "{}",
        resumed.salvage.render()
    );
    assert!(resumed.state.export() == state_bytes);
    assert!(consent_trace::global().export_jsonl() == trace_bytes);
    std::fs::remove_dir_all(dir).unwrap();
    unlock(guard);
}

/// A resumed run rebuilds its trace from the campaign, not from
/// anything the dead process recorded: an untraced incarnation that
/// crashes leaves no events behind, and a traced resume on a different
/// thread count still exports the uninterrupted traced run's bytes.
#[test]
fn resumed_trace_does_not_depend_on_the_dead_process() {
    let guard = lock();
    for disk in disks() {
        let profile = FaultProfile::mild();
        let (state_bytes, trace_bytes) = baseline(profile, &disk);

        let dir = tmp_dir(TMP);
        let store = open_store(&dir, &disk);
        consent_trace::disable();
        consent_trace::clear();
        let crashed = durable(&store, 1, profile, CrashPlan::after_apply(11));
        assert!(
            matches!(crashed.outcome, DurableOutcome::Crashed { .. }),
            "{:?}",
            crashed.outcome
        );
        assert!(
            consent_trace::global().is_empty(),
            "first incarnation traced"
        );
        die();
        consent_trace::enable();
        let resumed = durable(&store, 2, profile, CrashPlan::none());
        assert!(resumed.outcome.finished(), "{:?}", resumed.outcome);
        assert!(
            resumed.state.export() == state_bytes,
            "state diverged (disk {disk})"
        );
        assert!(
            consent_trace::global().export_jsonl() == trace_bytes,
            "resumed trace diverged from the uninterrupted run on disk {disk} ({})",
            resumed.salvage.render()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
    unlock(guard);
}

// ---------------------------------------------------------------------------
// Storage-fault injection: the IO-fault sweep and the degradation ladder.
// ---------------------------------------------------------------------------

/// A store whose filesystem seam is a [`FaultyVfs`] driven by `plan`,
/// returned alongside the vfs handle for op/injection accounting.
fn store_with_plan(dir: &Path, plan: IoFaultPlan) -> (CheckpointStore, Arc<FaultyVfs>) {
    let vfs = Arc::new(FaultyVfs::new(plan));
    let store = CheckpointStore::with_vfs(dir, consent_checkpoint::DEFAULT_KEEP, vfs.clone())
        .expect("store open");
    (store, vfs)
}

/// The tentpole sweep: inject each fault kind at **every** filesystem
/// operation index of the campaign, at 1/2/4 threads, under mild
/// network chaos — and assert the run either heals to byte-identical
/// state or degrades cleanly, then that a kill-and-resume on the
/// survivor store reconverges on the same bytes. Never silent
/// divergence, never a wedged campaign.
#[test]
fn every_io_fault_at_every_op_heals_or_degrades_byte_identical() {
    let guard = lock();
    let profile = FaultProfile::mild();
    let (state_bytes, trace_bytes) = baseline_on_every_disk(profile);

    for threads in [1usize, 2, 4] {
        // Probe: a fault-free instrumented run counts the campaign's
        // vfs operations, which the sweep then enumerates. The probe
        // also pins the passthrough invariant: a FaultyVfs with no
        // plan changes nothing.
        let probe = tmp_dir(TMP);
        let (pstore, pvfs) = store_with_plan(&probe, IoFaultPlan::none());
        consent_trace::clear();
        let run = durable(&pstore, threads, profile, CrashPlan::none());
        assert_eq!(run.outcome, DurableOutcome::Complete);
        assert!(run.health.is_healthy());
        assert!(
            run.state.export() == state_bytes,
            "fault-free FaultyVfs changed campaign bytes"
        );
        let ops = pvfs.ops();
        assert_eq!(pvfs.injected(), 0);
        assert!(ops >= 20, "4 writes x 5 ops minimum, saw {ops}");
        std::fs::remove_dir_all(&probe).unwrap();

        for kind in [IoFaultKind::Enospc, IoFaultKind::Eio, IoFaultKind::Short] {
            for at in 0..ops {
                let dir = tmp_dir(TMP);
                let (store, _vfs) = store_with_plan(&dir, IoFaultPlan::rule(kind, None, at, 1));
                consent_trace::clear();
                let run = durable(&store, threads, profile, CrashPlan::none());
                assert!(
                    run.outcome.finished(),
                    "{kind:?}@{at} x{threads}: wedged: {:?}",
                    run.outcome
                );
                assert!(
                    run.state.export() == state_bytes,
                    "{kind:?}@{at} x{threads}: state diverged ({})",
                    run.health.summary()
                );
                // No rung of the ladder touches the trace.
                assert!(
                    consent_trace::global().export_jsonl() == trace_bytes,
                    "{kind:?}@{at} x{threads}: trace diverged (level={})",
                    run.health.level
                );
                // Kill the process and resume on whatever the fault
                // left on disk: corrupt generations (short writes) are
                // quarantined, gaps re-crawled, bytes reconverge.
                die();
                let resumed = durable(&store, threads, profile, CrashPlan::none());
                assert!(
                    resumed.outcome.finished(),
                    "{kind:?}@{at} x{threads}: resume wedged: {:?}",
                    resumed.outcome
                );
                assert!(
                    resumed.state.export() == state_bytes,
                    "{kind:?}@{at} x{threads}: resume did not reconverge"
                );
                assert!(
                    consent_trace::global().export_jsonl() == trace_bytes,
                    "{kind:?}@{at} x{threads}: resumed trace diverged (level={} {})",
                    run.health.level,
                    resumed.salvage.render()
                );
                std::fs::remove_dir_all(dir).unwrap();
            }
        }
    }
    unlock(guard);
}

/// Faults aimed at the *recovery* path (the reads and re-writes of a
/// resumed process) must also heal or degrade — a half-dead disk at
/// startup cannot wedge or silently corrupt the campaign.
#[test]
fn io_faults_during_recovery_still_converge() {
    let guard = lock();
    let (state_bytes, _) = baseline_on_every_disk(FaultProfile::none());

    // Probe the op index ranges of the crashed run and the resume leg.
    let probe = tmp_dir(TMP);
    let (pstore, pvfs) = store_with_plan(&probe, IoFaultPlan::none());
    consent_trace::clear();
    durable(&pstore, 1, FaultProfile::none(), CrashPlan::after_apply(11));
    let crashed_ops = pvfs.ops();
    die();
    durable(&pstore, 1, FaultProfile::none(), CrashPlan::none());
    let resume_ops = pvfs.ops() - crashed_ops;
    assert!(
        resume_ops >= 6,
        "resume must at least read a generation and finish the campaign, saw {resume_ops}"
    );
    std::fs::remove_dir_all(&probe).unwrap();

    for kind in [IoFaultKind::Enospc, IoFaultKind::Eio, IoFaultKind::Short] {
        for at in crashed_ops..crashed_ops + resume_ops {
            let dir = tmp_dir(TMP);
            let (store, _vfs) = store_with_plan(&dir, IoFaultPlan::rule(kind, None, at, 1));
            consent_trace::clear();
            let crashed = durable(&store, 1, FaultProfile::none(), CrashPlan::after_apply(11));
            assert!(
                matches!(crashed.outcome, DurableOutcome::Crashed { .. }),
                "{kind:?}@{at}: {:?}",
                crashed.outcome
            );
            die();
            let resumed = durable(&store, 1, FaultProfile::none(), CrashPlan::none());
            assert!(
                resumed.outcome.finished(),
                "{kind:?}@{at}: resume wedged: {:?}",
                resumed.outcome
            );
            assert!(
                resumed.state.export() == state_bytes,
                "{kind:?}@{at}: resume diverged ({})",
                resumed.health.summary()
            );
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
    unlock(guard);
}

/// A disk that is persistently full walks the whole ladder — widen
/// cadence, then memory-only — and still finishes with byte-identical
/// state and a loud health report.
#[test]
fn persistent_enospc_descends_ladder_and_finishes_loud() {
    let guard = lock();
    let (state_bytes, _) = baseline_on_every_disk(FaultProfile::none());

    let dir = tmp_dir(TMP);
    let (store, vfs) = store_with_plan(
        &dir,
        IoFaultPlan::rule(IoFaultKind::Enospc, None, 0, u64::MAX),
    );
    consent_trace::clear();
    consent_telemetry::reset();
    consent_telemetry::enable();
    let run = durable(&store, 1, FaultProfile::none(), CrashPlan::none());
    consent_telemetry::disable();

    let DurableOutcome::Degraded(report) = &run.outcome else {
        panic!("dead disk must degrade, got {:?}", run.outcome);
    };
    assert_eq!(report.level, DegradeLevel::MemoryOnly);
    assert_eq!(run.health, *report, "run.health mirrors the outcome report");
    assert_eq!(
        report.events.len(),
        2,
        "one descent event per rung:\n{}",
        report.render()
    );
    assert!(report.render().contains("persistent storage fault"));
    assert_eq!(report.retries, 0, "no retry budget wasted on ENOSPC");
    assert!(report.writes_skipped > 0, "{}", report.summary());
    assert!(
        run.state.export() == state_bytes,
        "degradation must never change the measurement"
    );
    assert!(
        store.generations().unwrap().is_empty(),
        "nothing can be durable on a dead disk"
    );
    assert!(vfs.injected() > 0);

    let snap = consent_telemetry::global().snapshot();
    // At least one failed write per rung descended.
    assert!(snap.counter("checkpoint.io_fault") >= 2);
    assert!(snap.counter("checkpoint.skipped") > 0);
    assert_eq!(snap.counter("campaign.degrade{level=wide-cadence}"), 1);
    assert_eq!(snap.counter("campaign.degrade{level=memory-only}"), 1);
    consent_telemetry::reset();
    std::fs::remove_dir_all(dir).unwrap();
    unlock(guard);
}

/// Transient faults inside the retry budget heal in place: the run
/// stays `Complete`, every generation lands, and the health ledger
/// records the faults, retries, and recorded (never slept) backoff.
#[test]
fn transient_faults_retry_heal_and_complete() {
    let guard = lock();
    let (state_bytes, trace_bytes) = baseline_on_every_disk(FaultProfile::none());

    let dir = tmp_dir(TMP);
    // Two consecutive failing ops starting inside the second write —
    // transient-then-recovers, well within the default budget of 8.
    let (store, _vfs) = store_with_plan(&dir, IoFaultPlan::rule(IoFaultKind::Eio, None, 7, 2));
    consent_trace::clear();
    let run = durable(&store, 1, FaultProfile::none(), CrashPlan::none());
    assert_eq!(
        run.outcome,
        DurableOutcome::Complete,
        "healed, not degraded"
    );
    assert_eq!(run.health.level, DegradeLevel::Normal);
    assert_eq!(run.health.io_faults, 2, "{}", run.health.summary());
    assert_eq!(run.health.retries, 2);
    assert!(run.health.backoff_ms_total > 0, "backoff recorded");
    assert!(run.state.export() == state_bytes);
    assert!(consent_trace::global().export_jsonl() == trace_bytes);
    assert_eq!(
        store.generations().unwrap(),
        vec![1, 2, 3, 4],
        "every generation eventually landed"
    );
    std::fs::remove_dir_all(dir).unwrap();
    unlock(guard);
}

/// A background fault rate instead of one scheduled fault: with 10‰
/// and 50‰ of filesystem operations failing at seeded positions, every
/// campaign heals or degrades cleanly and still exports the fault-free
/// control's bytes.
#[test]
fn rate_faults_heal_or_degrade_byte_identical() {
    let guard = lock();
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let run = |plan: IoFaultPlan| {
        let dir = tmp_dir(TMP);
        let (store, vfs) = store_with_plan(&dir, plan);
        consent_trace::clear();
        let run = run_durable_campaign(
            world(),
            toplist(),
            DAY(),
            &vantages,
            SeedTree::new(9),
            &store,
            &DurableOpts {
                checkpoint_every: 2,
                ..opts(2, FaultProfile::none(), CrashPlan::none())
            },
        )
        .expect("durable campaign io");
        std::fs::remove_dir_all(dir).unwrap();
        (run, vfs.injected())
    };

    let (control, _) = run(IoFaultPlan::none());
    assert_eq!(control.outcome, DurableOutcome::Complete);
    let state_bytes = control.state.export();

    for per_mille in [10, 50] {
        let mut injected = 0;
        for seed in 0..4 {
            let (run, faults) = run(IoFaultPlan::rate(seed, per_mille));
            assert!(
                run.outcome.finished(),
                "{per_mille}\u{2030} seed {seed}: wedged: {:?}",
                run.outcome
            );
            assert!(
                run.state.export() == state_bytes,
                "{per_mille}\u{2030} seed {seed}: state diverged ({})",
                run.health.summary()
            );
            injected += faults;
        }
        if per_mille == 50 {
            assert!(injected > 0, "a 50\u{2030} fault rate injected nothing");
        }
    }
    unlock(guard);
}

mod io_fault_plan_properties {
    use consent_faultsim::{IoFaultKind, IoFaultPlan, IoOp};
    use proptest::prelude::*;

    /// Structured plans drawn from the full spec grammar: up to three
    /// scheduled rules plus an optional background rate.
    fn plan_strategy() -> impl Strategy<Value = IoFaultPlan> {
        let rule = (0u8..3, 0usize..8, 0u64..1000, 0u64..52).prop_map(|(k, o, at, c)| {
            let kind = [IoFaultKind::Enospc, IoFaultKind::Eio, IoFaultKind::Short][k as usize];
            let op = if o == 7 { None } else { Some(IoOp::ALL[o]) };
            // 0 → the implicit single-shot count, 51 → forever.
            let count = match c {
                0 => 1,
                51 => u64::MAX,
                n => n + 1,
            };
            (kind, op, at, count)
        });
        (
            proptest::collection::vec(rule, 0..4),
            proptest::option::of((0u64..1_000_000, 1u64..1001)),
        )
            .prop_map(|(rules, rate)| {
                let mut plan = match rate {
                    Some((seed, per_mille)) => IoFaultPlan::rate(seed, per_mille),
                    None => IoFaultPlan::none(),
                };
                for (kind, op, at, count) in rules {
                    plan = plan.with_rule(kind, op, at, count);
                }
                plan
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every plan the grammar can express survives an env-spec
        /// round-trip: `parse(display(plan)) == plan`.
        #[test]
        fn io_fault_plan_env_spec_round_trips(plan in plan_strategy()) {
            let spec = plan.to_string();
            let reparsed = IoFaultPlan::parse(&spec);
            prop_assert_eq!(reparsed.as_ref(), Some(&plan), "spec {}", spec);
            // Display is a fixpoint: re-displaying the reparse is stable.
            prop_assert_eq!(reparsed.unwrap().to_string(), spec);
        }

        /// Fault decisions are a pure function of (index, op): two
        /// identical plans always agree everywhere.
        #[test]
        fn io_fault_plan_decisions_are_pure(plan in plan_strategy(), index in 0u64..5000) {
            let clone = IoFaultPlan::parse(&plan.to_string()).unwrap();
            for op in IoOp::ALL {
                prop_assert_eq!(plan.decide(index, op), clone.decide(index, op));
            }
        }
    }
}
