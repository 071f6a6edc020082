//! The campaign driver, and the pool it shares with the social feed.
//!
//! The paper's scale (Tranco-10k × six vantages × a week of retries,
//! ~161 M crawls over the study) makes pair throughput the ceiling of
//! the whole pipeline. [`resume_campaign_parallel`] is the one loop that
//! runs a campaign: it builds the campaign's set-up once (engine,
//! resolved seeds, retry schedule, detector, public suffix list), then
//! produces the `(domain, vantage)` pairs of the requested range either
//! on the calling thread in pair order (`threads <= 1`, no thread is
//! spawned) or on a streaming pool of `threads` crawling threads (the
//! caller and `threads - 1` scoped helpers), and folds them into one
//! [`CampaignState`] through the same apply step. The state's export is
//! **byte-identical** at any thread count; the in-order case is the
//! reference the pool is tested against.
//!
//! # One pool, two drivers
//!
//! The crate has one executor, the crate-private `pool`: it maps a
//! range of indices through a pure `produce` on every crawling thread
//! and hands the results to an `apply` on the calling thread, in index
//! order. Campaigns produce one pair per index and apply it to the
//! [`CampaignState`]. The social feed
//! ([`Platform::run`](crate::Platform::run)) produces one capture row
//! per URL the day admitted and inserts it into its
//! [`CaptureDb`](crate::CaptureDb); the pool's `first` hook lets the
//! caller admit the next day's URLs while the helpers capture this
//! day's.
//!
//! # Why the merge can be deterministic
//!
//! Each pair is crawled by `process_pair_contained` (a panic-containing
//! wrapper), whose underlying `process_pair` is a pure function of
//! the pair identity: every random draw inside the engine and the fault
//! plan is keyed by `(host, day, vantage, attempt)`, trace ids come from
//! [`consent_trace::stable_id`], and the per-pair
//! [`CircuitBreaker`](crate::resilience::CircuitBreaker) lives on the
//! crawling thread's stack. Crawlers therefore never race on campaign
//! state: a crawler's only shared-mutable touchpoints are the
//! commutative telemetry registry and the trace log, which takes each
//! pair's trace as one block when it closes (its JSONL export sorts by
//! `(trace_id, seq)`, with sequence numbers drawn from per-trace
//! counters — so the interleaving of crawlers is invisible in the
//! export).
//!
//! Each crawling thread turns its pair's final capture into the
//! [`CaptureDb`](crate::CaptureDb) row, the result record and the
//! provenance record, and drops the capture. Pair *application* —
//! inserting the row, pushing the record to its column and the
//! provenance to the log — is order-sensitive, so only the calling
//! thread does it. The pool streams: the caller crawls beside `threads
//! - 1` helpers, every crawler claims [`BATCH`] consecutive pair
//! indices at a time from a shared cursor, and helpers send each
//! finished batch to the caller over a channel. Between its own
//! batches, and again once the cursor runs out, the caller files what
//! it received into a reorder buffer keyed by batch start and applies
//! every batch that starts at the next unapplied pair index, so pairs
//! are applied in the vantage-major, rank-minor order the in-order case
//! walks while the helpers are still crawling. Because
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
    CampaignRun, CampaignState,
};
use consent_faultsim::FaultyEngine;
use consent_fingerprint::Detector;
use consent_httpsim::{Vantage, WorldProber};
use consent_psl::PublicSuffixList;
use consent_toplist::{resolve_all, SeedUrl};
use consent_util::{Day, SeedTree};
use consent_webgraph::World;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;

/// Indices a crawling thread claims from the pool's cursor at a time:
/// about 0.3 ms of campaign pairs, or 0.2 ms of feed captures, on a
/// 2-vCPU host.
pub(crate) const BATCH: u64 = 32;

/// How a parallel campaign shards its work.
#[derive(Clone, Debug)]
pub struct ParallelOpts {
    /// Crawling threads, the calling thread included: `threads - 1`
    /// helpers are spawned and the caller crawls beside them. `0` and
    /// `1` spawn no thread: pairs are crawled and applied on the calling
    /// thread in pair order — the in-order reference the pool's output
    /// is byte-identical to.
    pub threads: usize,
    /// Campaign behavior: chaos profile, retry schedule, breaker.
    pub config: CampaignConfig,
    /// Cap on pairs processed by this invocation (for incremental
    /// checkpointing); `None` runs to completion.
    pub max_pairs: Option<u64>,
}

impl Default for ParallelOpts {
    /// One crawling thread per available core (the caller and a helper
    /// for each other core), default [`CampaignConfig`], no pair budget.
    fn default() -> ParallelOpts {
        ParallelOpts {
            threads: thread::available_parallelism().map_or(1, |n| n.get()),
            config: CampaignConfig::default(),
            max_pairs: None,
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
    /// `day` as every pair's provenance record writes it, rendered once.
    pub(crate) day_text: String,
    /// The retry schedule's days, each with its rendering for the
    /// attempt records.
    pub(crate) schedule: Vec<(Day, String)>,
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
            day_text: day.to_string(),
            schedule: config
                .retry
                .schedule(day)
                .into_iter()
                .map(|d| (d, d.to_string()))
                .collect(),
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
    /// (`None`: all of them) and fold them into `state`: the [`pool`]
    /// crawls the range on `threads` crawling threads and the caller
    /// applies each output in pair order, so [`apply_pair`] sees the
    /// same outputs in the same order at any thread count.
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
        let mut columns: Vec<(Vantage, Vec<CampaignCapture>)> =
            self.vantages.iter().map(|&v| (v, Vec::new())).collect();
        pool(
            start..end,
            threads,
            |idx| process_pair_contained(self, idx),
            |out| apply_pair(&mut state, &mut columns, out),
            || {},
        );
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
    /// rebuild a resumed process's trace. The pool holds no more than
    /// the batches still waiting for their turn, so one call covers the
    /// whole range.
    pub(crate) fn replay(&self, pairs: u64, threads: usize) {
        let end = pairs.min(self.total_pairs());
        pool(
            0..end,
            threads,
            |idx| process_pair_contained(self, idx),
            drop,
            || {},
        );
    }
}

/// Run `produce` over every index of `range` on `threads` crawling
/// threads — the caller and `threads - 1` scoped helpers — and hand each
/// result to `apply` on the calling thread, in index order. `first`
/// runs once on the caller, after the helpers start and before it
/// claims its first batch, so a driver can prepare its next range while
/// the helpers work through this one.
///
/// With `threads <= 1`, or an empty range, no thread is spawned:
/// `first` runs, then every index is produced and applied in order on
/// the caller. That run is the reference the pool is tested against.
///
/// A panic that escapes `produce` on a helper drops its sender: the
/// caller's receive loop ends once every sender is gone, and the scope
/// re-raises the panic when it joins the helper, so the run fails
/// instead of hanging.
pub(crate) fn pool<T: Send>(
    range: Range<u64>,
    threads: usize,
    produce: impl Fn(u64) -> T + Sync,
    mut apply: impl FnMut(T),
    first: impl FnOnce(),
) {
    if threads <= 1 || range.is_empty() {
        first();
        range.map(produce).for_each(apply);
        return;
    }
    // Work distribution: a shared cursor over the index order. Each
    // claim takes `BATCH` consecutive indices, so the contended fetch is
    // paid once per batch rather than once per few-µs item, and a batch
    // is still small enough to keep the crawlers balanced when per-item
    // cost varies (retries, breaker opens).
    let next = AtomicU64::new(range.start);
    let claim = || {
        let lo = next.fetch_add(BATCH, Ordering::Relaxed);
        (lo < range.end).then(|| lo..range.end.min(lo + BATCH))
    };
    let crawl = |batch: Range<u64>| (batch.start, batch.map(&produce).collect::<Vec<T>>());
    thread::scope(|sc| {
        let (tx, rx) = mpsc::channel();
        for _ in 1..threads {
            let tx = tx.clone();
            sc.spawn(move || {
                while let Some(batch) = claim() {
                    if tx.send(crawl(batch)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        first();
        // The reorder buffer: finished batches keyed by their first
        // index, and the next index to apply. Batch starts are unique,
        // so draining it in index order reproduces the in-order
        // application order exactly.
        let mut pending: BTreeMap<u64, Vec<T>> = BTreeMap::new();
        let mut applied = range.start;
        let mut file = |(start, outputs): (u64, Vec<T>)| {
            pending.insert(start, outputs);
            while let Some(outputs) = pending.remove(&applied) {
                applied += outputs.len() as u64;
                outputs.into_iter().for_each(&mut apply);
            }
        };
        while let Some(batch) = claim() {
            file(crawl(batch));
            rx.try_iter().for_each(&mut file);
        }
        rx.into_iter().for_each(file);
    });
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
        let list = build_toplist(&w, 100, SeedTree::new(7));
        let day = Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let total = (list.len() * vantages.len()) as u64;
        let run = |threads, max_pairs, state| {
            let o = ParallelOpts {
                max_pairs,
                ..opts(threads, FaultProfile::mild())
            };
            resume_campaign_parallel(&w, &list, day, &vantages, SeedTree::new(9), &o, state)
        };
        let seq = run(1, None, CampaignState::new());
        assert!(seq.complete);
        // Cuts on both sides of a batch boundary, then a resume chain
        // of budgets that are not multiples of `BATCH`, so every resumed
        // pool claims its batches off the first run's grid. The
        // remainder runs to the end in parallel and must land on the
        // in-order bytes and result columns.
        let b = BATCH;
        let chains: [&[u64]; 5] = [&[1], &[b - 1], &[b], &[b + 1], &[5, 40, 17, 2 * b + 3]];
        for threads in [2, 3, 8] {
            for budgets in chains {
                let mut state = CampaignState::new();
                let mut result = CampaignResult::default();
                for &budget in budgets {
                    let before = state.pairs_done;
                    let cut = run(threads, Some(budget), state);
                    assert!(!cut.complete);
                    assert_eq!(cut.state.pairs_done, before + budget);
                    assert_eq!(cut.state.db.len(), before + budget);
                    result = result.merge(cut.result);
                    state = cut.state;
                }
                let rest = run(threads, None, state);
                assert!(rest.complete);
                assert_eq!(rest.state.pairs_done, total);
                let case = format!("{threads} threads, budgets {budgets:?}");
                assert_eq!(rest.state.export(), seq.state.export(), "{case}");
                let merged = result.merge(rest.result);
                assert_eq!(merged.columns, seq.result.columns, "{case}");
            }
        }
    }
}
