//! Causal-trace and provenance guarantees, end to end.
//!
//! This binary owns the process-global `consent_trace` log (nothing
//! else in the workspace enables it), the same way `it_telemetry` owns
//! the telemetry registry. Tests serialize on a lock because cargo runs
//! test fns of one binary concurrently and the log is global; each test
//! leaves the log cleared and disabled.
//!
//! Pinned guarantees: a traced chaos campaign replays to byte-identical
//! JSONL; an interrupted + resumed campaign produces the *same bytes*
//! as the uninterrupted one; `FaultProfile::none` emits zero fault
//! events; every recorded trace is a well-formed causal tree whose
//! distilled [`Provenance`] equals the record the campaign persisted;
//! the Chrome export is valid trace-event JSON with one thread track
//! per vantage; and the JSONL export of a small chaotic campaign equals
//! the committed `fixtures/trace_v1.jsonl` byte for byte.

use consent_crawler::{
    build_toplist, resume_campaign_parallel, run_campaign_parallel, vantage_code, BreakerConfig,
    CampaignConfig, CampaignRun, CampaignState, ParallelOpts, RetryPolicy,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_trace::{Phase, Provenance, TraceEvent, TraceTree};
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

static LOCK: Mutex<()> = Mutex::new(());

/// Hold the global trace log for one test (or one property case).
fn lock() -> MutexGuard<'static, ()> {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
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
    LIST.get_or_init(|| build_toplist(world(), 120, SeedTree::new(7)))
}

fn config(profile: FaultProfile) -> CampaignConfig {
    CampaignConfig {
        fault_profile: profile,
        retry: RetryPolicy::paper(),
        breaker: BreakerConfig::default(),
    }
}

/// Crawl in pair order on the calling thread, at most `max_pairs` pairs.
fn opts(config: CampaignConfig, max_pairs: Option<u64>) -> ParallelOpts {
    ParallelOpts {
        threads: 1,
        config,
        max_pairs,
    }
}

const DAY: fn() -> Day = || Day::from_ymd(2020, 5, 15);

fn campaign(
    domains: &[String],
    vantages: &[Vantage],
    seed: u64,
    profile: FaultProfile,
) -> CampaignRun {
    run_campaign_parallel(
        world(),
        domains,
        DAY(),
        vantages,
        SeedTree::new(seed),
        &opts(config(profile), None),
    )
}

/// Structural well-formedness of one trace's event stream, beyond what
/// `TraceTree::build` checks: dense sequence numbers, known parents,
/// exactly one root pair span.
fn assert_well_formed(events: &[TraceEvent]) {
    assert!(!events.is_empty());
    let mut seen_spans = BTreeSet::new();
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "seq numbers must be dense from 0");
        assert_eq!(e.trace_id, events[0].trace_id);
        match e.phase {
            Phase::Begin => {
                if e.parent == 0 {
                    assert_eq!(e.span_id, 1, "only the root has no parent");
                } else {
                    assert!(seen_spans.contains(&e.parent), "parent must exist");
                }
                assert!(seen_spans.insert(e.span_id), "span ids are unique");
            }
            Phase::Instant => {
                assert!(seen_spans.contains(&e.parent), "parent must exist");
                assert!(seen_spans.insert(e.span_id), "span ids are unique");
            }
            Phase::End => assert!(seen_spans.contains(&e.span_id)),
        }
    }
    let tree = TraceTree::build(events).expect("trace builds into a tree");
    assert_eq!(tree.root.name(), "pair");
    // The pretty-printer covers every event name.
    let rendered = tree.render();
    for e in events {
        assert!(rendered.contains(e.name), "render misses {}", e.name);
    }
}

#[test]
fn chaos_replay_and_resume_are_byte_identical() {
    let guard = lock();
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let list = &toplist()[..60];

    let full = campaign(list, &vantages, 9, FaultProfile::heavy());
    assert!(full.complete);
    let jsonl = consent_trace::global().export_jsonl();
    assert!(!jsonl.is_empty());
    assert_eq!(
        jsonl.lines().count() as u64,
        consent_trace::global().len() as u64
    );

    // Same seed, same profile: the whole trace log replays to the byte.
    consent_trace::clear();
    let replay = campaign(list, &vantages, 9, FaultProfile::heavy());
    assert_eq!(consent_trace::global().export_jsonl(), jsonl);
    assert_eq!(replay.state.export(), full.state.export());

    // A different seed diverges (ids are stable but attempt events are
    // seeded): the export is not trivially constant.
    consent_trace::clear();
    campaign(list, &vantages, 10, FaultProfile::heavy());
    assert_ne!(consent_trace::global().export_jsonl(), jsonl);

    // Kill the campaign halfway, checkpoint through the text format,
    // resume — the accumulated trace log is byte-identical to the
    // uninterrupted run's, because ids and seqs are per-pair.
    consent_trace::clear();
    let half = (vantages.len() * list.len()) as u64 / 2;
    let first = resume_campaign_parallel(
        world(),
        list,
        DAY(),
        &vantages,
        SeedTree::new(9),
        &opts(config(FaultProfile::heavy()), Some(half)),
        CampaignState::new(),
    );
    assert!(!first.complete);
    let restored = CampaignState::import(&first.state.export()).expect("checkpoint parses");
    assert_eq!(restored.provenance.len() as u64, half);
    let second = resume_campaign_parallel(
        world(),
        list,
        DAY(),
        &vantages,
        SeedTree::new(9),
        &opts(config(FaultProfile::heavy()), None),
        restored,
    );
    assert!(second.complete);
    assert_eq!(consent_trace::global().export_jsonl(), jsonl);
    assert_eq!(second.state.export(), full.state.export());

    unlock(guard);
}

#[test]
fn traces_reconcile_with_provenance_and_faults() {
    let guard = lock();
    let vantages = [Vantage::eu_cloud()];
    let list = &toplist()[..50];

    // Under a none profile: zero fault events, zero provenance faults.
    let clean = campaign(list, &vantages, 9, FaultProfile::none());
    let snapshot = consent_trace::global().snapshot();
    assert!(
        !snapshot.iter().any(|e| e.name == "fault.injected"),
        "none profile must inject nothing"
    );
    for p in clean.state.provenance.records() {
        assert_eq!(p.injected_faults().count(), 0);
    }

    // Under chaos: every trace is well-formed, its distilled provenance
    // equals the persisted record, and fault events reconcile 1:1 with
    // the provenance fault entries.
    consent_trace::clear();
    let run = campaign(list, &vantages, 9, FaultProfile::heavy());
    let log = consent_trace::global();
    let ids = log.trace_ids();
    assert_eq!(ids.len(), list.len());
    let mut fault_events = 0usize;
    for id in &ids {
        let events = log.trace(*id);
        assert_well_formed(&events);
        let tree = TraceTree::build(&events).unwrap();
        fault_events += tree.find_all("fault.injected").len();
        let distilled = Provenance::from_tree(&tree).expect("pair trace distills");
        let stored = run
            .state
            .provenance
            .by_trace(*id)
            .expect("every trace has a stored record");
        assert_eq!(&distilled, stored);
        // Dead-lettered pairs end their trace with the dead_letter
        // event; kept pairs never carry one.
        assert_eq!(
            tree.find_all("dead_letter").len(),
            usize::from(stored.dead_lettered)
        );
        // Each attempt span contains exactly one page_load span or is a
        // connection-level fault preemption (still one attempt.outcome).
        let attempts = tree.find_all("attempt");
        assert_eq!(attempts.len(), stored.attempts.len());
        for a in &attempts {
            assert_eq!(
                a.children
                    .iter()
                    .filter(|c| c.name() == "attempt.outcome")
                    .count(),
                1
            );
        }
    }
    assert!(fault_events > 0, "heavy chaos injected nothing");
    let provenance_faults: usize = run
        .state
        .provenance
        .records()
        .iter()
        .map(|p| p.injected_faults().count())
        .sum();
    assert_eq!(fault_events, provenance_faults);

    unlock(guard);
}

#[test]
fn chrome_export_is_valid_with_one_track_per_vantage() {
    let guard = lock();
    let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
    let list = &toplist()[..12];
    campaign(list, &vantages, 9, FaultProfile::mild());

    let events = consent_trace::global().snapshot();
    let text = consent_trace::export_chrome_string(&events);
    let doc = Json::parse(&text).expect("chrome export is valid JSON");
    let list_json = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!list_json.is_empty());

    let mut tracks = Vec::new();
    let mut tids = BTreeSet::new();
    for e in list_json {
        for key in ["ph", "ts", "pid", "tid"] {
            assert!(e.get(key).is_some(), "event missing {key}");
        }
        assert_eq!(e.get("pid").and_then(Json::as_f64), Some(1.0));
        let ph = e.get("ph").and_then(Json::as_str).unwrap();
        assert!(["B", "E", "i", "M"].contains(&ph), "unknown phase {ph}");
        if ph == "M" {
            tracks.push(
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        } else {
            tids.insert(e.get("tid").and_then(Json::as_f64).unwrap() as u64);
        }
    }
    // One thread track per vantage, named after its code, and every
    // non-metadata event rides on one of them.
    let expected: Vec<String> = {
        let mut codes: Vec<String> = vantages
            .iter()
            .map(|&v| format!("vantage {}", vantage_code(v)))
            .collect();
        codes.sort();
        codes
    };
    assert_eq!(tracks, expected);
    assert_eq!(tids.len(), vantages.len());

    unlock(guard);
}

/// The committed export of a small fixed campaign: the first 18 pairs of
/// `it_durability`'s golden campaign (24 domains of a 2,000-site world
/// at the EU cloud vantage, heavy chaos plus a 15% injected-panic rate,
/// one thread). Byte-identity suites compare two runs of one build; this
/// pins the trace bytes across builds.
const GOLDEN_TRACE: &str = include_str!("fixtures/trace_v1.jsonl");

#[test]
fn trace_export_matches_the_committed_golden_fixture() {
    let guard = lock();
    let world = World::new(WorldConfig {
        n_sites: 2_000,
        seed: 42,
        adoption: AdoptionConfig::default(),
    });
    let profile = FaultProfile {
        panic: 0.15,
        ..FaultProfile::heavy()
    };
    let list = build_toplist(&world, 24, SeedTree::new(7));
    let run = run_campaign_parallel(
        &world,
        &list,
        DAY(),
        &[Vantage::eu_cloud()],
        SeedTree::new(9),
        &opts(config(profile), Some(18)),
    );
    assert_eq!(run.state.provenance.len(), 18);
    let export = consent_trace::global().export_jsonl();
    if let Some((n, (got, want))) = export
        .lines()
        .zip(GOLDEN_TRACE.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "export differs from the fixture at line {}:\n  got  {got:?}\n  want {want:?}",
            n + 1
        );
    }
    assert_eq!(export, GOLDEN_TRACE);

    // The fixture covers a contained panic's trace and the fault,
    // breaker and dead-letter events.
    for name in [
        "pair.panic",
        "fault.injected",
        "breaker.open",
        "dead_letter",
    ] {
        assert!(
            GOLDEN_TRACE.contains(&format!("\"name\":\"{name}\"")),
            "no {name} event in the fixture"
        );
    }
    unlock(guard);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any small campaign slice, any seed, any chaos tier: every trace
    /// is a well-formed causal tree and distills to the stored
    /// provenance, and the JSONL export replays byte-identically.
    #[test]
    fn any_campaign_produces_well_formed_replayable_traces(
        seed in 11u64..1_000,
        start in 0usize..100,
        n in 2usize..8,
        chaos in 0u8..3,
    ) {
        let guard = lock();
        let profile = match chaos {
            0 => FaultProfile::none(),
            1 => FaultProfile::mild(),
            _ => FaultProfile::heavy(),
        };
        let list = &toplist()[start..start + n];
        let vantages = [Vantage::eu_cloud()];
        let run = campaign(list, &vantages, seed, profile);
        let log = consent_trace::global();
        let ids = log.trace_ids();
        prop_assert_eq!(ids.len(), n);
        for id in &ids {
            let events = log.trace(*id);
            assert_well_formed(&events);
            let tree = TraceTree::build(&events).unwrap();
            let distilled = Provenance::from_tree(&tree).expect("pair trace distills");
            let stored = run.state.provenance.by_trace(*id).expect("stored record");
            prop_assert_eq!(&distilled, stored);
        }
        let jsonl = log.export_jsonl();
        consent_trace::clear();
        campaign(list, &vantages, seed, profile);
        prop_assert_eq!(log.export_jsonl(), jsonl);
        unlock(guard);
    }
}
