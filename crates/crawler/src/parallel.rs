//! The campaign driver.
//!
//! The paper's scale (Tranco-10k × six vantages × a week of retries,
//! ~161 M crawls over the study) makes pair throughput the ceiling of
//! the whole pipeline. [`resume_campaign_parallel`] is the one loop that
//! runs a campaign: it builds the campaign's set-up once (engine,
//! resolved seeds, retry schedule, detector, public suffix list), then
//! produces the `(domain, vantage)` pairs of the requested range either
//! on the calling thread in pair order (`threads <= 1`, no thread is
//! spawned) or on a `std::thread` worker pool, and folds them into one
//! [`CampaignState`] through the same apply loop. The state's export is
//! **byte-identical** at any thread count; the in-order case is the
//! reference the pool is tested against.
//!
//! # Why the merge can be deterministic
//!
//! Each pair is crawled by `process_pair_contained` (a panic-containing
//! wrapper), whose underlying `process_pair` is a pure function of
//! the pair identity: every random draw inside the engine and the fault
//! plan is keyed by `(host, day, vantage, attempt)`, trace ids come from
//! [`consent_trace::stable_id`], and the per-pair
//! [`CircuitBreaker`](crate::resilience::CircuitBreaker) lives on the
//! worker's stack. Workers therefore never race on campaign state: a
//! worker's only shared-mutable touchpoints are the commutative
//! telemetry registry and the lock-sharded trace log (whose JSONL export
//! sorts by `(trace_id, seq)`, with sequence numbers drawn from
//! per-trace counters — so the interleaving of workers is invisible in
//! the export).
//!
//! Each worker turns its pair's final capture into the
//! [`CaptureDb`](crate::CaptureDb) row, the result record and the
//! provenance record, and drops the capture. Pair *application* —
//! inserting the row, pushing the record to its column and the
//! provenance to the log — is order-sensitive, so it never happens on
//! a worker. Workers push `(pair_index, PairOutput)`
//! into private shards; after the pool joins, the shards are flattened,
//! sorted by pair index (the vantage-major, rank-minor order the
//! in-order case walks), and applied on the calling thread. Because
//! application is single-threaded and the capture store is append-only
//! (columnar segments that seal at fixed capacity, never at cut
//! boundaries — see `docs/STORAGE.md`), the store's physical layout is
//! a pure function of the insert history: host interning order, segment
//! boundaries, and per-shard row order are identical at any thread
//! count. A checkpoint cut anywhere — including a kill halfway through
//! a budgeted run — resumes to the same bytes because the first
//! `pairs_done` pairs of the order are exactly the ones already
//! applied, and that same property is what lets delta checkpoints
//! describe "everything since the last cut" as plain per-shard row
//! ranges ([`CaptureDb::marks`](crate::CaptureDb::marks)).

use crate::campaign::{
    apply_pair, process_pair_contained, CampaignCapture, CampaignConfig, CampaignResult,
    CampaignRun, CampaignState, PairOutput,
};
use consent_faultsim::FaultyEngine;
use consent_fingerprint::Detector;
use consent_httpsim::{Vantage, WorldProber};
use consent_psl::PublicSuffixList;
use consent_toplist::{resolve_all, SeedUrl};
use consent_util::{Day, SeedTree};
use consent_webgraph::World;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// How a parallel campaign shards its work.
#[derive(Clone, Debug)]
pub struct ParallelOpts {
    /// Worker threads. `0` and `1` spawn no thread: pairs are crawled
    /// and applied on the calling thread in pair order — the in-order
    /// reference the pool's output is byte-identical to.
    pub threads: usize,
    /// Campaign behavior: chaos profile, retry schedule, breaker.
    pub config: CampaignConfig,
    /// Cap on pairs processed by this invocation (for incremental
    /// checkpointing); `None` runs to completion.
    pub max_pairs: Option<u64>,
}

impl Default for ParallelOpts {
    /// One worker per available core, default [`CampaignConfig`], no
    /// pair budget.
    fn default() -> ParallelOpts {
        ParallelOpts {
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            config: CampaignConfig::default(),
            max_pairs: None,
        }
    }
}

impl ParallelOpts {
    /// Options with an explicit worker count and defaults elsewhere.
    pub fn with_threads(threads: usize) -> ParallelOpts {
        ParallelOpts {
            threads,
            ..ParallelOpts::default()
        }
    }
}

/// Run a full campaign on `day` for the given vantage columns:
/// [`resume_campaign_parallel`] from a fresh [`CampaignState`].
pub fn run_campaign_parallel(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    opts: &ParallelOpts,
) -> CampaignRun {
    resume_campaign_parallel(
        world,
        domains,
        day,
        vantages,
        seed,
        opts,
        CampaignState::new(),
    )
}

/// Run (or continue) a campaign from a checkpoint.
///
/// Pairs are processed in a deterministic vantage-major, rank-minor
/// order; the first `state.pairs_done` pairs are skipped without
/// re-crawling, and at most `opts.max_pairs` further pairs are processed
/// (`None` runs to completion). `opts.threads <= 1` crawls in pair order
/// on the calling thread; more threads only finish sooner. Because every
/// random draw is keyed by `(host, day, vantage, attempt)` rather than
/// by call order, and application order is restored before any state is
/// touched, a run interrupted anywhere — even mid-merge, where the
/// checkpoint on disk still holds the previous cut — resumes to the same
/// bytes as an uninterrupted one, at any thread count:
///
/// ```
/// use consent_crawler::{
///     build_toplist, resume_campaign_parallel, run_campaign_parallel, BreakerConfig,
///     CampaignConfig, CampaignState, ParallelOpts, RetryPolicy,
/// };
/// use consent_faultsim::FaultProfile;
/// use consent_httpsim::Vantage;
/// use consent_util::{Day, SeedTree};
/// use consent_webgraph::{AdoptionConfig, World, WorldConfig};
///
/// let world = World::new(WorldConfig {
///     n_sites: 300,
///     seed: 42,
///     adoption: AdoptionConfig::default(),
/// });
/// let list = build_toplist(&world, 8, SeedTree::new(7));
/// let (day, vantages) = (Day::from_ymd(2020, 5, 15), [Vantage::eu_cloud()]);
/// let config = CampaignConfig {
///     fault_profile: FaultProfile::mild(),
///     retry: RetryPolicy::paper(),
///     breaker: BreakerConfig::default(),
/// };
/// let opts = |threads, max_pairs| ParallelOpts { threads, config, max_pairs };
///
/// // Process three pairs in order, then "crash": only the checkpoint
/// // text survives.
/// let partial = resume_campaign_parallel(
///     &world, &list, day, &vantages, SeedTree::new(9), &opts(1, Some(3)), CampaignState::new(),
/// );
/// assert!(!partial.complete);
/// let checkpoint = partial.state.export();
///
/// // A fresh process imports the checkpoint and finishes on two workers.
/// let restored = CampaignState::import(&checkpoint).unwrap();
/// let resumed = resume_campaign_parallel(
///     &world, &list, day, &vantages, SeedTree::new(9), &opts(2, None), restored,
/// );
/// assert!(resumed.complete);
///
/// // Same bytes as an uninterrupted in-order run.
/// let full = run_campaign_parallel(&world, &list, day, &vantages, SeedTree::new(9), &opts(1, None));
/// assert_eq!(resumed.state.export(), full.state.export());
/// ```
pub fn resume_campaign_parallel(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    opts: &ParallelOpts,
    state: CampaignState,
) -> CampaignRun {
    let plan = CampaignPlan::new(world, domains, day, vantages, seed, &opts.config);
    consent_telemetry::count("campaign.pairs_skipped", plan.skipped(&state));
    plan.run(state, opts.threads, opts.max_pairs)
}

/// Everything a campaign derives from its inputs before the first pair:
/// the fault-injecting engine, the resolved seed URLs, the retry
/// schedule, the detector and the public suffix list. Built once per
/// driver call — once per process incarnation for the durable driver,
/// which then [`run`](Self::run)s it chunk by chunk.
pub(crate) struct CampaignPlan<'a> {
    pub(crate) engine: FaultyEngine<'a>,
    seeds: Vec<SeedUrl>,
    vantages: &'a [Vantage],
    pub(crate) day: Day,
    pub(crate) schedule: Vec<Day>,
    pub(crate) config: CampaignConfig,
    pub(crate) detector: Detector,
    pub(crate) psl: PublicSuffixList,
}

impl<'a> CampaignPlan<'a> {
    pub(crate) fn new(
        world: &'a World,
        domains: &[String],
        day: Day,
        vantages: &'a [Vantage],
        seed: SeedTree,
        config: &CampaignConfig,
    ) -> CampaignPlan<'a> {
        let prober = WorldProber::new(world, seed.child("prober"));
        // Three resolution rounds over a week (§3.2). Resolution is a
        // pure function of the seed, so a resumed run re-derives
        // identical URLs.
        let attempt_days = [day - 7, day - 4, day - 1];
        CampaignPlan {
            engine: FaultyEngine::from_world(world, config.fault_profile, seed),
            seeds: resolve_all(domains.iter().cloned(), &prober, &attempt_days),
            vantages,
            day,
            schedule: config.retry.schedule(day),
            config: *config,
            detector: Detector::hostname_only(),
            psl: PublicSuffixList::embedded(),
        }
    }

    /// `(domain, vantage)` pairs in the whole campaign.
    fn total_pairs(&self) -> u64 {
        (self.vantages.len() * self.seeds.len()) as u64
    }

    /// Pairs of the order a run starting from `state` skips.
    pub(crate) fn skipped(&self, state: &CampaignState) -> u64 {
        state.pairs_done.min(self.total_pairs())
    }

    /// The pair at position `idx` of the vantage-major order: its seed
    /// URL, 1-based rank, vantage column and vantage.
    pub(crate) fn locate(&self, idx: u64) -> (&SeedUrl, usize, usize, Vantage) {
        let n_seeds = self.seeds.len() as u64;
        let col = (idx / n_seeds) as usize;
        let i = (idx % n_seeds) as usize;
        (&self.seeds[i], i + 1, col, self.vantages[col])
    }

    /// Process the next `max_pairs` pairs after `state.pairs_done`
    /// (`None`: all of them) and fold them into `state`. With
    /// `threads <= 1` each pair is crawled on the calling thread and
    /// applied at once; otherwise the worker pool crawls the range and
    /// its outputs are applied in pair order after the join. Either
    /// way [`apply_pair`] sees the same outputs in the same order.
    pub(crate) fn run(
        &self,
        mut state: CampaignState,
        threads: usize,
        max_pairs: Option<u64>,
    ) -> CampaignRun {
        let _span = consent_telemetry::span("campaign.run");
        let total_pairs = self.total_pairs();
        let start = self.skipped(&state);
        let end = start
            .saturating_add(max_pairs.unwrap_or(u64::MAX))
            .min(total_pairs);
        let outputs: Box<dyn Iterator<Item = PairOutput> + '_> = if threads > 1 {
            let outputs = self.pool(start..end, threads);
            Box::new(outputs.into_iter().map(|(_, out)| out))
        } else {
            Box::new((start..end).map(|idx| process_pair_contained(self, idx)))
        };
        let mut columns: Vec<(Vantage, Vec<CampaignCapture>)> =
            self.vantages.iter().map(|&v| (v, Vec::new())).collect();
        for out in outputs {
            apply_pair(&mut state, &mut columns, out);
        }
        let complete = state.pairs_done == total_pairs;
        CampaignRun {
            result: CampaignResult {
                columns,
                seeds: self.seeds.clone(),
            },
            state,
            complete,
        }
    }

    /// Re-crawl the first `pairs` pairs of the order and drop their
    /// outputs, leaving only what crawling records: the trace events
    /// and the crawl-side telemetry. The durable driver uses it to
    /// rebuild a resumed process's trace. With `threads > 1` the pool
    /// crawls `chunk` pairs at a time, so the replay never holds more
    /// outputs than a normal chunk of that size.
    pub(crate) fn replay(&self, pairs: u64, threads: usize, chunk: u64) {
        let end = pairs.min(self.total_pairs());
        if threads <= 1 {
            for idx in 0..end {
                process_pair_contained(self, idx);
            }
            return;
        }
        let chunk = chunk.max(1);
        for start in (0..end).step_by(chunk as usize) {
            self.pool(start..end.min(start.saturating_add(chunk)), threads);
        }
    }

    /// Crawl `range` on `threads` workers and return the outputs sorted
    /// into pair order.
    fn pool(&self, range: Range<u64>, threads: usize) -> Vec<(u64, PairOutput)> {
        // Work distribution: a shared cursor over the pair order.
        // Claiming one index per fetch keeps the pool balanced when
        // per-pair cost varies (retries, breaker opens). A pair is only
        // ~5–8 µs of work (2-vCPU host), so the contended fetch per pair
        // is a small but not free share of it.
        let next = AtomicU64::new(range.start);
        let shards: Vec<Vec<(u64, PairOutput)>> = thread::scope(|sc| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    sc.spawn(|| {
                        let mut shard: Vec<(u64, PairOutput)> = Vec::new();
                        loop {
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= range.end {
                                break;
                            }
                            shard.push((idx, process_pair_contained(self, idx)));
                        }
                        shard
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });

        // Order-restoring merge: pair indices are unique, so the sort is
        // deterministic no matter how the pool interleaved, and applying
        // in ascending order reproduces the in-order insertion order
        // exactly.
        let mut outputs: Vec<(u64, PairOutput)> = shards.into_iter().flatten().collect();
        outputs.sort_unstable_by_key(|&(idx, _)| idx);
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::build_toplist;
    use crate::resilience::{BreakerConfig, RetryPolicy};
    use consent_faultsim::FaultProfile;
    use consent_webgraph::{AdoptionConfig, WorldConfig};

    fn world() -> World {
        World::new(WorldConfig {
            n_sites: 2_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        })
    }

    fn opts(threads: usize, profile: FaultProfile) -> ParallelOpts {
        ParallelOpts {
            threads,
            config: CampaignConfig {
                fault_profile: profile,
                retry: RetryPolicy::paper(),
                breaker: BreakerConfig::default(),
            },
            max_pairs: None,
        }
    }

    #[test]
    fn zero_and_one_thread_take_the_sequential_path() {
        let w = world();
        let list = build_toplist(&w, 30, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let run = |threads| {
            run_campaign_parallel(
                &w,
                &list,
                day,
                &[Vantage::us_cloud()],
                SeedTree::new(9),
                &opts(threads, FaultProfile::none()),
            )
        };
        let pooled = run(2);
        for threads in [0, 1] {
            let in_order = run(threads);
            assert!(in_order.complete);
            assert_eq!(in_order.state.export(), pooled.state.export());
        }
    }

    #[test]
    fn worker_pool_matches_sequential_bytes() {
        let w = world();
        let list = build_toplist(&w, 40, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let run = |threads| {
            run_campaign_parallel(
                &w,
                &list,
                day,
                &vantages,
                SeedTree::new(9),
                &opts(threads, FaultProfile::mild()),
            )
        };
        let seq = run(1);
        for threads in [2, 3, 8] {
            let par = run(threads);
            assert!(par.complete);
            assert_eq!(
                par.state.export(),
                seq.state.export(),
                "divergence at {threads} threads"
            );
            assert_eq!(par.result.columns, seq.result.columns);
        }
    }

    #[test]
    fn budgeted_parallel_run_stops_at_the_cut() {
        let w = world();
        let list = build_toplist(&w, 30, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let mut o = opts(4, FaultProfile::mild());
        o.max_pairs = Some(25);
        let first = run_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o);
        assert!(!first.complete);
        assert_eq!(first.state.pairs_done, 25);
        assert_eq!(first.state.db.len(), 25);
        // Resume the remainder in parallel and land on the in-order bytes.
        o.max_pairs = None;
        let second =
            resume_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o, first.state);
        assert!(second.complete);
        o.threads = 1;
        let seq = run_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o);
        assert_eq!(second.state.export(), seq.state.export());
    }
}
