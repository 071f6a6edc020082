//! `Platform::run` rebuilt from the crawler's public parts, with the
//! benchmark's timer around each layer call.
//!
//! The loop, the seed tree and the vantage-assignment RNG are the
//! platform's own, so the capture database it builds must export to the
//! same bytes as `Platform::run`'s; the feed workload checks that on
//! every traced repetition, which is what lets the per-layer numbers
//! stand for the untraced program.

use crate::ledger::Busy;
use consent_crawler::{Admission, CaptureDb, CmpSet, DedupQueue, Feed, FeedConfig};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, Vantage};
use consent_psl::PublicSuffixList;
use consent_util::{Day, SeedTree};
use consent_webgraph::World;
use rand::Rng;

/// Where one replica run spent its time.
#[derive(Debug, Default)]
pub struct FeedLayers {
    /// `Feed::day_items`, one call per day.
    pub day_items: Busy,
    /// `DedupQueue::offer` and `compact`.
    pub queue: Busy,
    /// `FaultyEngine::capture`.
    pub capture: Busy,
    /// `Detector::detect`.
    pub detect: Busy,
    /// `CaptureDb::ingest`.
    pub ingest: Busy,
    /// Feed items generated.
    pub items: u64,
    /// URLs the queue admitted.
    pub admitted: u64,
}

/// Run the platform pipeline over `[start, end)` exactly as
/// `Platform::with_faults(world, config, FaultProfile::none(), seed)`
/// followed by `run(start, end)` does, timing each layer call.
pub fn run_feed_replica(
    world: &World,
    config: FeedConfig,
    seed: SeedTree,
    start: Day,
    end: Day,
) -> (CaptureDb, FeedLayers) {
    let engine = FaultyEngine::from_world(world, FaultProfile::none(), seed);
    let feed = Feed::new(world, config, seed.child("feed"));
    let detector = Detector::hostname_only();
    let psl = PublicSuffixList::embedded();
    let mut assign_rng = seed.child("platform").child("assign").rng();

    let mut layers = FeedLayers::default();
    let mut db = CaptureDb::new();
    let mut queue = DedupQueue::new();
    for day in start.days_until(end) {
        for item in layers.day_items.time(|| feed.day_items(day)) {
            layers.items += 1;
            let ts = i64::from(day.0) * 86_400 + i64::from(item.seconds);
            if layers.queue.time(|| queue.offer(&item.url, ts)) != Admission::Accepted {
                continue;
            }
            layers.admitted += 1;
            let vantage = if assign_rng.gen::<bool>() {
                Vantage::eu_cloud()
            } else {
                Vantage::us_cloud()
            };
            let capture = layers
                .capture
                .time(|| engine.capture(&item.url, item.day, vantage, CaptureOptions::default()));
            let cmps = layers
                .detect
                .time(|| CmpSet::from_iter(detector.detect(&capture)));
            layers.ingest.time(|| db.ingest(&capture, cmps, &psl));
        }
        layers
            .queue
            .time(|| queue.compact(i64::from(day.0 + 1) * 86_400));
    }
    (db, layers)
}
