//! Worker-pool equivalence guarantees, end to end.
//!
//! The campaign driver (`run_campaign_parallel`) promises that
//! parallelism is *invisible* in every artifact the pipeline persists:
//! checkpoint exports, per-pair captures, dead letters, and the causal
//! trace JSONL are byte-identical to the in-order run (`threads = 1`)
//! at any thread count — with and without chaos, and across a
//! kill-halfway checkpoint/resume cycle. This binary pins those
//! promises.
//!
//! The trace test enables the process-global `consent_trace` log, and
//! the pool test replaces the process-global panic hook. Cargo runs one
//! binary's test fns concurrently, so every test serializes on one lock
//! — a campaign crawling while the trace test records would leak its
//! pair traces into that test's export, and another test's panic would
//! reach the pool test's hook — and leaves the trace log cleared and
//! disabled, mirroring `it_trace`.

use consent_crawler::{
    build_toplist, resume_campaign_parallel, run_campaign_parallel, BreakerConfig, CampaignConfig,
    CampaignRun, CampaignState, ParallelOpts, RetryPolicy,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_util::{Day, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

static LOCK: Mutex<()> = Mutex::new(());

/// Hold the process-global state for one test without turning the
/// trace log on.
fn hold() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hold the global recorders for one test, with the trace log recording.
fn lock() -> MutexGuard<'static, ()> {
    let guard = hold();
    consent_trace::clear();
    consent_trace::enable();
    guard
}

fn unlock(guard: MutexGuard<'static, ()>) {
    consent_trace::disable();
    consent_trace::clear();
    drop(guard);
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        World::new(WorldConfig {
            n_sites: 5_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    })
}

fn toplist() -> &'static [String] {
    static LIST: OnceLock<Vec<String>> = OnceLock::new();
    LIST.get_or_init(|| build_toplist(world(), 110, SeedTree::new(7)))
}

fn config(profile: FaultProfile) -> CampaignConfig {
    CampaignConfig {
        fault_profile: profile,
        retry: RetryPolicy::paper(),
        breaker: BreakerConfig::default(),
    }
}

const DAY: fn() -> Day = || Day::from_ymd(2020, 5, 15);

fn vantages() -> [Vantage; 2] {
    [Vantage::eu_cloud(), Vantage::us_cloud()]
}

/// The in-order reference run: one thread, pairs in order.
fn sequential(profile: FaultProfile) -> CampaignRun {
    parallel(profile, 1)
}

fn parallel(profile: FaultProfile, threads: usize) -> CampaignRun {
    run_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &ParallelOpts {
            threads,
            config: config(profile),
            max_pairs: None,
        },
    )
}

/// Every persisted artifact of `a` equals `b`: checkpoint bytes and the
/// full per-pair result record, column by column.
fn assert_same_run(a: &CampaignRun, b: &CampaignRun) {
    assert_eq!(a.state.export(), b.state.export());
    assert_eq!(a.result.seeds.len(), b.result.seeds.len());
    assert_eq!(a.result.columns, b.result.columns);
}

#[test]
fn parallel_matches_sequential_bytes_without_chaos() {
    let _guard = hold();
    let seq = sequential(FaultProfile::none());
    assert!(seq.complete);
    for threads in [1usize, 2, 4] {
        let par = parallel(FaultProfile::none(), threads);
        assert!(par.complete);
        assert_same_run(&par, &seq);
    }
}

#[test]
fn parallel_matches_sequential_bytes_under_mild_chaos() {
    let _guard = hold();
    let seq = sequential(FaultProfile::mild());
    assert!(seq.complete);
    // Chaos means retries, breaker opens, and dead letters — all of
    // which must land identically regardless of which worker crawled
    // the pair.
    for threads in [1usize, 2, 4] {
        let par = parallel(FaultProfile::mild(), threads);
        assert!(par.complete);
        assert_same_run(&par, &seq);
        assert_eq!(
            par.state.dead_letters().count(),
            seq.state.dead_letters().count()
        );
    }
}

#[test]
fn killed_halfway_parallel_run_resumes_to_the_same_bytes() {
    let _guard = hold();
    let cfg = config(FaultProfile::mild());
    let full = sequential(FaultProfile::mild());
    let total = (toplist().len() * vantages().len()) as u64;
    assert_eq!(full.state.pairs_done, total);

    // Kill a 4-thread run mid-column, round-trip the checkpoint through
    // its text format, and finish on a *different* thread count.
    let half = total / 2;
    let first = run_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &ParallelOpts {
            threads: 4,
            config: cfg,
            max_pairs: Some(half),
        },
    );
    assert!(!first.complete);
    assert_eq!(first.state.pairs_done, half);

    let checkpoint = first.state.export();
    let restored = CampaignState::import(&checkpoint).expect("checkpoint parses");
    let second = resume_campaign_parallel(
        world(),
        toplist(),
        DAY(),
        &vantages(),
        SeedTree::new(9),
        &ParallelOpts {
            threads: 2,
            config: cfg,
            max_pairs: None,
        },
        restored,
    );
    assert!(second.complete);
    assert_eq!(second.state.export(), full.state.export());

    // The two halves stitch back into the uninterrupted result records.
    let merged = first.result.merge(second.result);
    assert_eq!(merged.columns, full.result.columns);
}

#[test]
fn trace_jsonl_is_byte_identical_across_thread_counts() {
    let guard = lock();
    let seq = sequential(FaultProfile::mild());
    let baseline = consent_trace::global().export_jsonl();
    assert!(baseline.contains("attempt.outcome"));

    for threads in [2usize, 4] {
        consent_trace::clear();
        consent_trace::enable();
        let par = parallel(FaultProfile::mild(), threads);
        let jsonl = consent_trace::global().export_jsonl();
        assert_same_run(&par, &seq);
        assert!(
            jsonl == baseline,
            "trace JSONL diverged at {threads} threads"
        );
    }
    unlock(guard);
}

/// The distinct threads that crawl the pairs of `parallel(_, threads)`.
///
/// Every capture attempt panics, and a panic hook runs on the
/// panicking thread, so the hook sees each thread that crawls a pair.
/// It also holds every crawling thread, the caller included, at its
/// first pair until `threads` of them have one (or ten seconds pass),
/// so no crawler can finish every batch before the others start.
fn crawling_threads(threads: usize) -> Vec<ThreadId> {
    static SEEN: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    static ARRIVED: Condvar = Condvar::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    std::panic::set_hook(Box::new(move |_| {
        let me = thread::current().id();
        let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
        if !seen.contains(&me) {
            seen.push(me);
            ARRIVED.notify_all();
        }
        while seen.len() < threads {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            seen = ARRIVED
                .wait_timeout(seen, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }));
    let every_attempt_panics = FaultProfile {
        panic: 1.0,
        ..FaultProfile::none()
    };
    let run = parallel(every_attempt_panics, threads);
    // Back to the default hook before any assertion can fail.
    drop(std::panic::take_hook());
    assert!(run.complete);
    std::mem::take(&mut *SEEN.lock().unwrap_or_else(|e| e.into_inner()))
}

#[test]
fn in_order_runs_never_start_the_pool() {
    let guard = hold();
    let caller = thread::current().id();
    for threads in [0usize, 1] {
        assert_eq!(
            crawling_threads(threads),
            vec![caller],
            "{threads} threads crawled off the calling thread"
        );
    }
    // At 3 threads the caller crawls beside two helpers.
    let pool = crawling_threads(3);
    assert_eq!(pool.len(), 3, "3 threads crawled on {} threads", pool.len());
    assert!(pool.contains(&caller), "the caller did not crawl");
    drop(guard);
}
