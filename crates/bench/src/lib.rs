//! # consent-bench
//!
//! The repo's performance harness. Two consumers share this crate:
//!
//! * the criterion benches under `benches/` (paper-table micro-benches
//!   plus `campaign_parallel`, the sequential-vs-parallel throughput
//!   comparison), and
//! * the `cargo run -p consent-bench --release` entry point
//!   (`src/main.rs`), which sweeps the campaign executor across thread
//!   counts and writes `BENCH_campaign.json` — the repo's recorded perf
//!   trajectory (see `BENCHMARKS.md`) — plus the checkpoint durability
//!   sweep ([`CheckpointBench`], `BENCH_checkpoint.json`), the sampler
//!   overhead sweep ([`ObsBench`], `BENCH_obs.json`), the watchdog
//!   overhead sweep ([`WatchBench`], `BENCH_watch.json`), and the
//!   bundle archival sweep ([`BundleBench`], `BENCH_bundle.json`).
//!
//! The JSON schema is deliberately tiny and stable: a document header
//! ([`bench_document`]) plus one [`BenchRecord`] per swept
//! configuration, with throughput (pairs/sec) and per-pair latency
//! quantiles (p50/p95 µs) read from the `campaign.pair` histogram in
//! `consent-telemetry`. The sweep is also a correctness check: it
//! asserts that every thread count exports byte-identical
//! [`CampaignState`] bytes before it
//! reports a single number.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod soak;

pub use diff::{
    diff_documents, BenchDiff, DiffRow, DEFAULT_THRESHOLD_P95_PCT, DEFAULT_THRESHOLD_PCT,
};
pub use soak::{SoakBench, SoakRecord};

use consent_analysis::standard_exports;
use consent_checkpoint::CheckpointStore;
use consent_crawler::{
    apply_delta, build_toplist, delta_state_sections, export_db, import_db, pack_campaign_bundle,
    recover_state, replay_campaign_bundle, resume_campaign_parallel, run_campaign_parallel,
    state_sections, ArchiveContext, BreakerConfig, CampaignArtifacts, CampaignConfig,
    CampaignState, DeltaMarks, ExportFn, ParallelOpts, RetryPolicy, SECTION_DB_DELTA,
};
use consent_faultsim::FaultProfile;
use consent_httpsim::Vantage;
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Version written into the `schema` field of every `BENCH_*.json`.
pub const BENCH_SCHEMA_VERSION: i64 = 1;

/// One measured configuration of a bench sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Record name, e.g. `campaign/threads=4`.
    pub name: String,
    /// Worker threads used (1 = pairs in order on the calling thread).
    pub threads: usize,
    /// `(domain, vantage)` pairs processed.
    pub pairs: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Throughput: `pairs / elapsed_secs`.
    pub pairs_per_sec: f64,
    /// Median per-pair latency in microseconds, from the
    /// `campaign.pair` histogram.
    pub p50_us: u64,
    /// 95th-percentile per-pair latency in microseconds.
    pub p95_us: u64,
}

impl BenchRecord {
    /// Serialize as one record object of the `BENCH_*.json` schema.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("name".to_string(), Json::str(self.name.clone())),
            ("threads".to_string(), Json::int(self.threads as i64)),
            ("pairs".to_string(), Json::int(self.pairs as i64)),
            ("elapsed_secs".to_string(), Json::Number(self.elapsed_secs)),
            (
                "pairs_per_sec".to_string(),
                Json::Number(self.pairs_per_sec),
            ),
            ("p50_us".to_string(), Json::int(self.p50_us as i64)),
            ("p95_us".to_string(), Json::int(self.p95_us as i64)),
        ])
    }
}

/// Assemble a full `BENCH_*.json` document: `bench` (the sweep name),
/// `schema` ([`BENCH_SCHEMA_VERSION`]), the caller's `workload`
/// description, and the `records` array.
pub fn bench_document(bench: &str, workload: Json, records: &[BenchRecord]) -> Json {
    Json::object([
        ("bench".to_string(), Json::str(bench)),
        ("schema".to_string(), Json::int(BENCH_SCHEMA_VERSION)),
        ("workload".to_string(), workload),
        (
            "records".to_string(),
            Json::array(records.iter().map(BenchRecord::to_json)),
        ),
    ])
}

/// The campaign throughput sweep: one synthetic world and toplist,
/// crawled once per entry in [`threads`](CampaignBench::threads).
#[derive(Clone, Debug)]
pub struct CampaignBench {
    /// Synthetic world size.
    pub n_sites: u32,
    /// Toplist entries to crawl.
    pub domains: usize,
    /// Vantage columns (each multiplies the pair count).
    pub vantages: Vec<Vantage>,
    /// Thread counts to sweep, in order.
    pub threads: Vec<usize>,
    /// Chaos profile the campaign runs under.
    pub profile: FaultProfile,
    /// Human label for the profile (`none`, `mild`, `heavy`) recorded in
    /// the workload description.
    pub chaos: String,
    /// Timed campaign repetitions per thread count (throughput and
    /// latency aggregate over all of them).
    pub repeats: usize,
    /// Root seed for world, toplist, and campaign.
    pub seed: u64,
}

impl Default for CampaignBench {
    /// The CI-sized workload: 4 000 sites, 600 domains × 2 vantages
    /// (1 200 pairs), threads 1/2/4/8, no chaos. The pair count is
    /// deliberately large enough that per-pair work dominates the
    /// worker-pool spawn/merge fixed cost — smaller sweeps measure
    /// thread overhead, not the executor.
    fn default() -> CampaignBench {
        CampaignBench {
            n_sites: 4_000,
            domains: 600,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            threads: vec![1, 2, 4, 8],
            profile: FaultProfile::none(),
            chaos: "none".to_string(),
            repeats: 5,
            seed: 42,
        }
    }
}

impl CampaignBench {
    /// Total `(domain, vantage)` pairs each swept run processes.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len()) as u64
    }

    /// Run the sweep and return one record per thread count.
    ///
    /// Uses the **global** telemetry registry: it is reset and enabled
    /// around every configuration so the `campaign.pair` histogram
    /// describes exactly one run, then reset and disabled on exit. Do
    /// not call concurrently with other users of the registry.
    ///
    /// Panics if any configuration's `CampaignState` export differs
    /// from the first one — a bench run that breaks determinism must
    /// not produce a trajectory point.
    pub fn run(&self) -> Vec<BenchRecord> {
        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let day = Day::from_ymd(2020, 5, 15);
        let config = CampaignConfig {
            fault_profile: self.profile,
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        };

        let repeats = self.repeats.max(1);
        let campaign_seed = root.child("campaign");
        let run_once = |threads: usize| {
            run_campaign_parallel(
                &world,
                &list,
                day,
                &self.vantages,
                campaign_seed,
                &ParallelOpts {
                    threads,
                    config,
                    max_pairs: None,
                },
            )
        };
        // One untimed warm-up so the first timed configuration does not
        // additionally pay for allocator growth and cold caches.
        let warmup = run_once(*self.threads.first().unwrap_or(&1));
        assert!(warmup.complete, "bench campaign did not complete");
        let baseline = warmup.state.export();

        let mut records = Vec::with_capacity(self.threads.len());
        for &threads in &self.threads {
            consent_telemetry::reset();
            consent_telemetry::enable();
            let start = Instant::now();
            let mut pairs = 0u64;
            for _ in 0..repeats {
                let run = run_once(threads);
                pairs += run.state.pairs_done;
                assert!(
                    baseline == run.state.export(),
                    "CampaignState export diverged at {threads} threads — refusing to record"
                );
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            consent_telemetry::disable();
            let pair = consent_telemetry::global()
                .histogram("campaign.pair")
                .summary();

            records.push(BenchRecord {
                name: format!("campaign/threads={threads}"),
                threads,
                pairs,
                elapsed_secs: elapsed,
                pairs_per_sec: pairs as f64 / elapsed,
                p50_us: pair.p50,
                p95_us: pair.p95,
            });
        }
        consent_telemetry::reset();
        records
    }

    /// The workload object recorded next to the records.
    pub fn workload(&self) -> Json {
        Json::object([
            ("n_sites".to_string(), Json::int(i64::from(self.n_sites))),
            ("domains".to_string(), Json::int(self.domains as i64)),
            (
                "vantages".to_string(),
                Json::array(self.vantages.iter().map(|v| Json::str(v.label()))),
            ),
            ("pairs".to_string(), Json::int(self.pairs() as i64)),
            ("repeats".to_string(), Json::int(self.repeats.max(1) as i64)),
            ("chaos".to_string(), Json::str(self.chaos.clone())),
            ("seed".to_string(), Json::int(self.seed as i64)),
        ])
    }

    /// The complete `BENCH_campaign.json` document for `records`.
    pub fn document(&self, records: &[BenchRecord]) -> Json {
        bench_document("campaign_throughput", self.workload(), records)
    }
}

/// The checkpoint durability sweep: write / open / salvage throughput
/// of the crash-safe [`CheckpointStore`] over a realistic
/// [`CampaignState`], written to `BENCH_checkpoint.json`.
///
/// Three operations are timed, each over [`repeats`](Self::repeats)
/// iterations:
///
/// * `checkpoint_write` — [`CheckpointStore::save`] of the four-section
///   state snapshot (serialize + CRC + fsync + rename + prune);
/// * `checkpoint_open` — [`recover_state`] of an intact store (scan,
///   CRC validation, state reassembly and import);
/// * `checkpoint_salvage` — [`recover_state`] of a store whose newest
///   generation has a flipped byte in the `meta` section: quarantine,
///   per-section salvage, and meta rebuild from the capture count.
///   Setup (writing and corrupting the doomed generation) is excluded
///   from the timing.
#[derive(Clone, Debug)]
pub struct CheckpointBench {
    /// Synthetic world size for the state-building campaign.
    pub n_sites: u32,
    /// Toplist entries crawled into the benched state.
    pub domains: usize,
    /// Vantage columns of the state-building campaign.
    pub vantages: Vec<Vantage>,
    /// Timed iterations per operation.
    pub repeats: usize,
    /// Root seed for world, toplist, and campaign.
    pub seed: u64,
}

impl Default for CheckpointBench {
    /// The CI-sized workload: a 200-domain × 2-vantage state (400
    /// captures — large enough that serialization and CRC work dominate
    /// the per-call fixed cost), 20 iterations per operation.
    fn default() -> CheckpointBench {
        CheckpointBench {
            n_sites: 2_000,
            domains: 200,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            repeats: 20,
            seed: 42,
        }
    }
}

impl CheckpointBench {
    /// Crawl the synthetic world once and return the state every
    /// checkpoint operation is measured against.
    pub fn build_state(&self) -> CampaignState {
        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let run = run_campaign_parallel(
            &world,
            &list,
            Day::from_ymd(2020, 5, 15),
            &self.vantages,
            root.child("campaign"),
            &ParallelOpts {
                threads: 1,
                config: CampaignConfig {
                    fault_profile: FaultProfile::none(),
                    retry: RetryPolicy::paper(),
                    breaker: BreakerConfig::default(),
                },
                max_pairs: None,
            },
        );
        assert!(run.complete, "checkpoint bench campaign did not complete");
        run.state
    }

    fn record(name: &str, pairs: u64, elapsed: Duration, histogram: &str) -> BenchRecord {
        let h = consent_telemetry::global().histogram(histogram).summary();
        let elapsed_secs = elapsed.as_secs_f64().max(1e-9);
        BenchRecord {
            name: name.to_string(),
            threads: 1,
            pairs,
            elapsed_secs,
            pairs_per_sec: pairs as f64 / elapsed_secs,
            p50_us: h.p50,
            p95_us: h.p95,
        }
    }

    /// Run the sweep and return one record per operation.
    ///
    /// Like [`CampaignBench::run`] this uses the **global** telemetry
    /// registry (reset and enabled around every operation, reset on
    /// exit — do not call concurrently with other users), and it is a
    /// correctness check too: it panics if an opened or salvaged state
    /// does not export byte-identical to the one that was saved.
    pub fn run(&self) -> Vec<BenchRecord> {
        let state = self.build_state();
        let baseline = state.export();
        let sections = state_sections(&state);
        let pairs = state.pairs_done;
        let repeats = self.repeats.max(1) as u64;
        let dir = bench_tmp_dir();
        let store = CheckpointStore::open(&dir).expect("open checkpoint store");
        let mut records = Vec::with_capacity(3);

        consent_telemetry::reset();
        consent_telemetry::enable();
        let start = Instant::now();
        for _ in 0..repeats {
            store.save(&sections).expect("checkpoint save");
        }
        records.push(Self::record(
            "checkpoint_write",
            pairs * repeats,
            start.elapsed(),
            "checkpoint.write",
        ));

        consent_telemetry::reset();
        consent_telemetry::enable();
        let start = Instant::now();
        for _ in 0..repeats {
            let (back, _, report) = recover_state(&store).expect("recover intact store");
            assert!(report.is_clean(), "intact store produced salvage actions");
            assert!(
                back.export() == baseline,
                "recovered state diverged from the saved one — refusing to record"
            );
        }
        records.push(Self::record(
            "checkpoint_open",
            pairs * repeats,
            start.elapsed(),
            "checkpoint.open",
        ));

        consent_telemetry::reset();
        consent_telemetry::enable();
        let mut salvage_elapsed = Duration::ZERO;
        for _ in 0..repeats {
            let g = store.save(&sections).expect("checkpoint save");
            corrupt_meta_byte(&store.path_for(g));
            let start = Instant::now();
            let (back, _, report) = recover_state(&store).expect("salvage corrupt store");
            salvage_elapsed += start.elapsed();
            assert!(!report.is_clean(), "corrupt generation went unnoticed");
            assert!(
                back.export() == baseline,
                "salvaged state diverged from the saved one — refusing to record"
            );
        }
        records.push(Self::record(
            "checkpoint_salvage",
            pairs * repeats,
            salvage_elapsed,
            "checkpoint.open",
        ));

        consent_telemetry::reset();
        let _ = std::fs::remove_dir_all(&dir);
        records
    }

    /// The delta-vs-full progress sweep: cut cost as the campaign grows.
    ///
    /// At each progress point (10/50/90% of the campaign's pairs) the
    /// campaign is advanced to that cursor, then two checkpoint writes
    /// are timed over [`repeats`](Self::repeats) iterations each:
    ///
    /// * `checkpoint_full/progress=P` — a full four-section snapshot of
    ///   the whole state ([`CheckpointStore::save`]); its cost grows
    ///   with the campaign.
    /// * `checkpoint_delta/progress=P` — the delta sections covering
    ///   only the last checkpoint interval (10% of the pairs), built by
    ///   [`delta_state_sections`] — the exact payload the durable
    ///   driver writes under `CheckpointMode::Delta`; its cost tracks
    ///   the interval, not the campaign.
    ///
    /// The acceptance bar (BENCHMARKS.md): the delta record at 90%
    /// stays within 2× of the one at 10%, while the full record grows
    /// roughly linearly. Like the durability sweep this is also a
    /// correctness check — each progress point's delta is applied onto
    /// the prior snapshot and must reproduce the grown store's export.
    pub fn run_progress_sweep(&self) -> Vec<BenchRecord> {
        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let day = Day::from_ymd(2020, 5, 15);
        let config = CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        };
        let campaign_seed = root.child("campaign");
        let vantages = self.vantages.clone();
        let advance = |state: CampaignState, upto: u64| {
            let done = state.pairs_done;
            resume_campaign_parallel(
                &world,
                &list,
                day,
                &vantages,
                campaign_seed,
                &ParallelOpts {
                    threads: 1,
                    config,
                    max_pairs: Some(upto.saturating_sub(done)),
                },
                state,
            )
            .state
        };
        let total = self.pairs();
        let interval = (total / 10).max(1);
        let repeats = self.repeats.max(1) as u64;
        let mut records = Vec::with_capacity(6);
        let mut state = CampaignState::new();
        for pct in [10u64, 50, 90] {
            let upto = (total * pct / 100).max(interval);
            // Advance to the previous cut, mark, then cover one interval.
            state = advance(state, upto - interval);
            let prior_db = export_db(&state.db);
            let marks = DeltaMarks::capture(&state);
            state = advance(state, upto);

            let dir = bench_tmp_dir();
            let store = CheckpointStore::open(&dir).expect("open checkpoint store");
            consent_telemetry::reset();
            consent_telemetry::enable();
            let start = Instant::now();
            for _ in 0..repeats {
                store
                    .save(&state_sections(&state))
                    .expect("full checkpoint save");
            }
            records.push(Self::record(
                &format!("checkpoint_full/progress={pct}"),
                upto * repeats,
                start.elapsed(),
                "checkpoint.write",
            ));

            consent_telemetry::reset();
            consent_telemetry::enable();
            let start = Instant::now();
            for _ in 0..repeats {
                let sections = delta_state_sections(&state, &marks, 1, 1);
                store
                    .save_with_min_retained(&sections, 1)
                    .expect("delta checkpoint save");
            }
            records.push(Self::record(
                &format!("checkpoint_delta/progress={pct}"),
                interval * repeats,
                start.elapsed(),
                "checkpoint.write",
            ));

            // Correctness: the delta applied onto the prior snapshot
            // must reproduce the grown store exactly.
            let delta_body = delta_state_sections(&state, &marks, 1, 1)
                .into_iter()
                .find(|s| s.name == SECTION_DB_DELTA)
                .expect("delta sections carry a capture-db delta")
                .body;
            let mut check = import_db(&prior_db).expect("prior snapshot imports");
            apply_delta(&mut check, &delta_body).expect("delta applies");
            assert!(
                export_db(&check) == export_db(&state.db),
                "base+delta diverged from the grown store at progress={pct} — refusing to record"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
        consent_telemetry::reset();
        records
    }

    /// Total `(domain, vantage)` pairs in the benched state.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len()) as u64
    }

    /// The workload object recorded next to the records.
    pub fn workload(&self) -> Json {
        Json::object([
            ("n_sites".to_string(), Json::int(i64::from(self.n_sites))),
            ("domains".to_string(), Json::int(self.domains as i64)),
            (
                "vantages".to_string(),
                Json::array(self.vantages.iter().map(|v| Json::str(v.label()))),
            ),
            ("pairs".to_string(), Json::int(self.pairs() as i64)),
            ("repeats".to_string(), Json::int(self.repeats.max(1) as i64)),
            ("seed".to_string(), Json::int(self.seed as i64)),
        ])
    }

    /// The complete `BENCH_checkpoint.json` document for `records`.
    pub fn document(&self, records: &[BenchRecord]) -> Json {
        bench_document("checkpoint_durability", self.workload(), records)
    }
}

/// The sampler-overhead sweep: the same campaign workload run with the
/// flight recorder off, in deterministic logical-tick mode, and with
/// the wall-clock background thread — written to `BENCH_obs.json`.
///
/// The acceptance bar (BENCHMARKS.md): sampler on vs off within 2%
/// pairs/sec on the bench-smoke workload. The sampler's steady-state
/// cost is one registry snapshot per sample (a read-locked walk of
/// every metric), so overhead scales with metric count and sample
/// rate, not with campaign size.
#[derive(Clone, Debug)]
pub struct ObsBench {
    /// Synthetic world size.
    pub n_sites: u32,
    /// Toplist entries to crawl.
    pub domains: usize,
    /// Vantage columns.
    pub vantages: Vec<Vantage>,
    /// Worker threads for every mode (identical so only the sampler
    /// varies).
    pub threads: usize,
    /// Timed campaign repetitions per mode.
    pub repeats: usize,
    /// Wall-mode sampling interval.
    pub interval: Duration,
    /// Root seed for world, toplist, and campaign.
    pub seed: u64,
}

impl Default for ObsBench {
    /// The bench-smoke-sized workload: 600 domains × 2 vantages, 4
    /// threads, 5 repeats, 25 ms wall sampling (aggressive on purpose —
    /// production would sample far less often).
    fn default() -> ObsBench {
        ObsBench {
            n_sites: 4_000,
            domains: 600,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            threads: 4,
            repeats: 5,
            interval: Duration::from_millis(25),
            seed: 42,
        }
    }
}

impl ObsBench {
    /// Total `(domain, vantage)` pairs each swept run processes.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len()) as u64
    }

    /// Run the three modes and return one record each
    /// (`obs/sampler=off|logical|wall`).
    ///
    /// Uses the **global** telemetry registry like the other sweeps
    /// (reset + enabled per mode, reset on exit; not concurrency-safe),
    /// and asserts byte-identical state exports across modes —
    /// observation must not change the observed.
    pub fn run(&self) -> Vec<BenchRecord> {
        use consent_obs::{ObsConfig, SampleMode, Sampler};

        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let day = Day::from_ymd(2020, 5, 15);
        let config = CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        };
        let campaign_seed = root.child("campaign");
        let repeats = self.repeats.max(1);
        let run_once = || {
            run_campaign_parallel(
                &world,
                &list,
                day,
                &self.vantages,
                campaign_seed,
                &ParallelOpts {
                    threads: self.threads,
                    config,
                    max_pairs: None,
                },
            )
        };
        let warmup = run_once();
        assert!(warmup.complete, "obs bench campaign did not complete");
        let baseline = warmup.state.export();

        let mut records = Vec::with_capacity(3);
        for mode in ["off", "logical", "wall"] {
            consent_telemetry::reset();
            consent_telemetry::enable();
            let sampler = match mode {
                "logical" => Some(Sampler::attach(
                    consent_telemetry::global(),
                    ObsConfig::deterministic(),
                )),
                "wall" => Some(Sampler::attach(
                    consent_telemetry::global(),
                    ObsConfig {
                        mode: SampleMode::WallClock {
                            interval: self.interval,
                        },
                        ..ObsConfig::default()
                    },
                )),
                _ => None,
            };
            let handle = sampler.as_ref().map(|s| s.start());
            let start = Instant::now();
            let mut pairs = 0u64;
            for rep in 0..repeats {
                let run = run_once();
                pairs += run.state.pairs_done;
                assert!(
                    baseline == run.state.export(),
                    "state export diverged with sampler={mode} — refusing to record"
                );
                // Logical mode samples at chunk boundaries in the
                // durable driver; here one repeat is the chunk.
                if let Some(s) = &sampler {
                    s.tick_at((rep as u64 + 1) * self.pairs());
                }
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            if let Some(h) = handle {
                h.stop();
            }
            consent_telemetry::disable();
            let pair = consent_telemetry::global()
                .histogram("campaign.pair")
                .summary();
            if let Some(s) = &sampler {
                assert!(!s.is_empty(), "sampler={mode} recorded no samples");
            }
            records.push(BenchRecord {
                name: format!("obs/sampler={mode}"),
                threads: self.threads,
                pairs,
                elapsed_secs: elapsed,
                pairs_per_sec: pairs as f64 / elapsed,
                p50_us: pair.p50,
                p95_us: pair.p95,
            });
        }
        consent_telemetry::reset();
        records
    }

    /// Sampler overhead in percent relative to the `off` record:
    /// `(off - on) / off * 100` for each `on` mode.
    pub fn overhead_pct(records: &[BenchRecord]) -> Vec<(String, f64)> {
        let Some(off) = records
            .iter()
            .find(|r| r.name.ends_with("=off"))
            .map(|r| r.pairs_per_sec)
        else {
            return Vec::new();
        };
        records
            .iter()
            .filter(|r| !r.name.ends_with("=off"))
            .map(|r| {
                (
                    r.name.clone(),
                    (off - r.pairs_per_sec) / off.max(1e-12) * 100.0,
                )
            })
            .collect()
    }

    /// The workload object recorded next to the records.
    pub fn workload(&self) -> Json {
        Json::object([
            ("n_sites".to_string(), Json::int(i64::from(self.n_sites))),
            ("domains".to_string(), Json::int(self.domains as i64)),
            (
                "vantages".to_string(),
                Json::array(self.vantages.iter().map(|v| Json::str(v.label()))),
            ),
            ("pairs".to_string(), Json::int(self.pairs() as i64)),
            ("threads".to_string(), Json::int(self.threads as i64)),
            ("repeats".to_string(), Json::int(self.repeats.max(1) as i64)),
            (
                "wall_interval_ms".to_string(),
                Json::int(self.interval.as_millis() as i64),
            ),
            ("seed".to_string(), Json::int(self.seed as i64)),
        ])
    }

    /// The complete `BENCH_obs.json` document for `records`.
    pub fn document(&self, records: &[BenchRecord]) -> Json {
        bench_document("obs_overhead", self.workload(), records)
    }
}

/// The watchdog-overhead sweep: the same campaign workload run with the
/// watch rule engine detached vs attached with the default rule set —
/// written to `BENCH_watch.json`.
///
/// The acceptance bar (BENCHMARKS.md): detectors on vs off within 5%
/// pairs/sec. The watchdog's steady-state cost is one registry snapshot
/// plus integer detector math per staged window, so — like the sampler —
/// overhead scales with metric count and window rate, not campaign size.
#[derive(Clone, Debug)]
pub struct WatchBench {
    /// Synthetic world size.
    pub n_sites: u32,
    /// Toplist entries to crawl.
    pub domains: usize,
    /// Vantage columns.
    pub vantages: Vec<Vantage>,
    /// Worker threads for both modes (identical so only the watchdog
    /// varies).
    pub threads: usize,
    /// Timed campaign repetitions per mode (one staged window each).
    pub repeats: usize,
    /// Root seed for world, toplist, and campaign.
    pub seed: u64,
}

impl Default for WatchBench {
    /// The bench-smoke-sized workload, matching [`ObsBench`] so the two
    /// sweeps are directly comparable.
    fn default() -> WatchBench {
        WatchBench {
            n_sites: 4_000,
            domains: 600,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            threads: 4,
            repeats: 5,
            seed: 42,
        }
    }
}

impl WatchBench {
    /// Total `(domain, vantage)` pairs each swept run processes.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len()) as u64
    }

    /// Run both modes and return one record each
    /// (`watch/detectors=off|on`).
    ///
    /// Uses the **global** telemetry registry like the other sweeps
    /// (reset + enabled per mode, reset on exit; not concurrency-safe),
    /// and asserts byte-identical state exports across modes — the
    /// watchdog must not change what it watches.
    pub fn run(&self) -> Vec<BenchRecord> {
        use consent_watch::Watch;

        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let day = Day::from_ymd(2020, 5, 15);
        let config = CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        };
        let campaign_seed = root.child("campaign");
        let repeats = self.repeats.max(1);
        let run_once = || {
            run_campaign_parallel(
                &world,
                &list,
                day,
                &self.vantages,
                campaign_seed,
                &ParallelOpts {
                    threads: self.threads,
                    config,
                    max_pairs: None,
                },
            )
        };
        let warmup = run_once();
        assert!(warmup.complete, "watch bench campaign did not complete");
        let baseline = warmup.state.export();

        let mut records = Vec::with_capacity(2);
        for mode in ["off", "on"] {
            consent_telemetry::reset();
            consent_telemetry::enable();
            let watch = (mode == "on").then(|| {
                Watch::attach(
                    consent_telemetry::global(),
                    consent_watch::rules::WatchConfig::default_rules(),
                )
            });
            let start = Instant::now();
            let mut pairs = 0u64;
            for rep in 0..repeats {
                let run = run_once();
                pairs += run.state.pairs_done;
                assert!(
                    baseline == run.state.export(),
                    "state export diverged with watch={mode} — refusing to record"
                );
                // The durable driver stages a window per checkpoint cut;
                // here one repeat is the window, always committed.
                if let Some(w) = &watch {
                    w.stage((rep as u64 + 1) * self.pairs());
                    w.commit();
                }
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            consent_telemetry::disable();
            let pair = consent_telemetry::global()
                .histogram("campaign.pair")
                .summary();
            records.push(BenchRecord {
                name: format!("watch/detectors={mode}"),
                threads: self.threads,
                pairs,
                elapsed_secs: elapsed,
                pairs_per_sec: pairs as f64 / elapsed,
                p50_us: pair.p50,
                p95_us: pair.p95,
            });
        }
        consent_telemetry::reset();
        records
    }

    /// Watchdog overhead in percent relative to the `off` record.
    pub fn overhead_pct(records: &[BenchRecord]) -> Vec<(String, f64)> {
        ObsBench::overhead_pct(records)
    }

    /// The workload object recorded next to the records.
    pub fn workload(&self) -> Json {
        Json::object([
            ("n_sites".to_string(), Json::int(i64::from(self.n_sites))),
            ("domains".to_string(), Json::int(self.domains as i64)),
            (
                "vantages".to_string(),
                Json::array(self.vantages.iter().map(|v| Json::str(v.label()))),
            ),
            ("pairs".to_string(), Json::int(self.pairs() as i64)),
            ("threads".to_string(), Json::int(self.threads as i64)),
            ("repeats".to_string(), Json::int(self.repeats.max(1) as i64)),
            ("seed".to_string(), Json::int(self.seed as i64)),
        ])
    }

    /// The complete `BENCH_watch.json` document for `records`.
    pub fn document(&self, records: &[BenchRecord]) -> Json {
        bench_document("watch_overhead", self.workload(), records)
    }
}

/// The bundle archival sweep: pack / verify / replay throughput of the
/// content-addressed campaign bundle over a multi-day × multi-vantage
/// workload — written to `BENCH_bundle.json`.
///
/// Three operations are timed, each over [`repeats`](Self::repeats)
/// iterations:
///
/// * `bundle_pack` — [`pack_campaign_bundle`] of the full bundle input
///   (checkpoint sections, split capture artifacts, analysis exports)
///   into a fresh directory, including the post-pack fsck;
/// * `bundle_verify` — [`consent_bundle::verify`] of the packed store
///   (re-read and CRC-check every blob against the manifest);
/// * `bundle_replay` — [`replay_campaign_bundle`] with the
///   [`standard_exports`] provider: re-import the state from the bundle,
///   recompute every analysis document, byte-compare all of them.
///
/// Like the other sweeps it is a correctness gate first: before any
/// number is recorded it packs the same campaign built at every entry
/// of [`threads`](Self::threads) and asserts the serialized manifests
/// are byte-identical, and it asserts the workload's dedup ratio
/// exceeds 1.0 — the multi-day × multi-vantage capture classes
/// (connection failures, 451 blocks, anti-bot interstitials) must
/// actually collapse into shared blobs.
#[derive(Clone, Debug)]
pub struct BundleBench {
    /// Synthetic world size.
    pub n_sites: u32,
    /// Toplist entries crawled into the archived state.
    pub domains: usize,
    /// Vantage columns.
    pub vantages: Vec<Vantage>,
    /// Campaign days archived together (each adds one result to the
    /// bundle's `artifacts` section).
    pub days: Vec<Day>,
    /// Thread counts the byte-identity precheck builds the campaign at.
    pub threads: Vec<usize>,
    /// Timed iterations per operation.
    pub repeats: usize,
    /// Root seed for world, toplist, and campaign.
    pub seed: u64,
    /// Keep the verify/replay bundle at this path instead of a scratch
    /// directory (CI inspects the packed `MANIFEST` afterwards); `None`
    /// packs into temp space and cleans up.
    pub keep_dir: Option<PathBuf>,
}

impl Default for BundleBench {
    /// The CI-sized workload: 48 domains × 2 vantages × 2 days over an
    /// 800-site world — wide enough that the jitter-free capture
    /// classes appear and dedup materializes — with the campaign built
    /// at 1/2/4 threads for the identity precheck.
    fn default() -> BundleBench {
        BundleBench {
            n_sites: 800,
            domains: 48,
            vantages: vec![Vantage::us_cloud(), Vantage::eu_cloud()],
            days: vec![Day::from_ymd(2020, 5, 15), Day::from_ymd(2020, 5, 16)],
            threads: vec![1, 2, 4],
            repeats: 5,
            seed: 42,
            keep_dir: None,
        }
    }
}

/// The outcome of a [`BundleBench`] sweep: the timed records plus the
/// dedup accounting measured during the identity precheck (identical
/// across thread counts by the precheck's own assertion).
#[derive(Clone, Debug)]
pub struct BundleSweep {
    /// One record per operation (`bundle_pack`, `bundle_verify`,
    /// `bundle_replay`).
    pub records: Vec<BenchRecord>,
    /// Manifest dedup ratio (logical / stored bytes); the run already
    /// asserted it exceeds 1.0.
    pub dedup_ratio: f64,
    /// Bytes the bundle represents (sum over references).
    pub logical_bytes: u64,
    /// Bytes actually stored after dedup.
    pub stored_bytes: u64,
}

impl BundleBench {
    /// Total `(domain, vantage)` pairs archived across all days.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len() * self.days.len()) as u64
    }

    /// Run the sweep and return its records and dedup accounting
    /// (see [`BundleSweep`]).
    ///
    /// Uses the **global** telemetry registry like the other sweeps
    /// (reset + enabled per operation, reset on exit; not
    /// concurrency-safe). Panics if manifests diverge across thread
    /// counts, if the dedup ratio does not exceed 1.0, or if any replay
    /// is not byte-identical.
    pub fn run(&self) -> BundleSweep {
        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let config = CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        };
        let campaign_seed = root.child("campaign");
        let provider: &ExportFn = &standard_exports;
        let last_day = *self.days.last().expect("bundle bench needs a day");

        let crawl = |threads: usize| {
            let runs: Vec<_> = self
                .days
                .iter()
                .map(|&day| {
                    run_campaign_parallel(
                        &world,
                        &list,
                        day,
                        &self.vantages,
                        campaign_seed,
                        &ParallelOpts {
                            threads,
                            config,
                            max_pairs: None,
                        },
                    )
                })
                .collect();
            assert!(
                runs.iter().all(|r| r.complete),
                "bundle bench campaign did not complete"
            );
            runs
        };
        let ctx = ArchiveContext::from_campaign(last_day, &list, &self.vantages, &campaign_seed);
        let pack_to = |dir: &std::path::Path, runs: &[consent_crawler::CampaignRun]| {
            let artifacts = CampaignArtifacts {
                results: runs.iter().map(|r| &r.result).collect(),
                ..CampaignArtifacts::default()
            };
            pack_campaign_bundle(
                dir,
                &runs[runs.len() - 1].state,
                &ctx,
                &artifacts,
                Some(provider),
            )
        };

        // Identity precheck: every thread count's campaign packs to the
        // exact same manifest (addresses, order, stats — everything).
        let mut baseline_manifest: Option<String> = None;
        let mut runs = Vec::new();
        let mut stats = None;
        for &threads in &self.threads {
            let these = crawl(threads.max(1));
            let dir = bench_tmp_dir();
            let (report, fsck) = pack_to(&dir, &these).expect("bundle pack");
            assert!(fsck.clean(), "fresh pack failed fsck: {}", fsck.render());
            assert!(
                report.dedup_ratio() > 1.0,
                "bundle workload produced no dedup — refusing to record: {}",
                report.summary()
            );
            stats = Some(report.manifest.stats);
            let manifest = report.manifest.serialize();
            match &baseline_manifest {
                None => baseline_manifest = Some(manifest),
                Some(b) => assert!(
                    *b == manifest,
                    "bundle manifest diverged at {threads} threads — refusing to record"
                ),
            }
            let _ = std::fs::remove_dir_all(&dir);
            runs = these;
        }

        let pairs = self.pairs();
        let repeats = self.repeats.max(1) as u64;
        let mut records = Vec::with_capacity(3);

        consent_telemetry::reset();
        consent_telemetry::enable();
        let start = Instant::now();
        for _ in 0..repeats {
            let dir = bench_tmp_dir();
            pack_to(&dir, &runs).expect("bundle pack");
            let _ = std::fs::remove_dir_all(&dir);
        }
        records.push(CheckpointBench::record(
            "bundle_pack",
            pairs * repeats,
            start.elapsed(),
            "bundle.pack",
        ));

        let dir = self.keep_dir.clone().unwrap_or_else(bench_tmp_dir);
        let (_, fsck) = pack_to(&dir, &runs).expect("bundle pack");
        assert!(fsck.clean(), "{}", fsck.render());
        let store = consent_bundle::open_chaos_bundle(&dir).expect("open bundle");

        consent_telemetry::reset();
        consent_telemetry::enable();
        let start = Instant::now();
        for _ in 0..repeats {
            let report = consent_bundle::verify(&store).expect("bundle verify");
            assert!(
                report.clean(),
                "packed bundle failed fsck: {}",
                report.render()
            );
        }
        records.push(CheckpointBench::record(
            "bundle_verify",
            pairs * repeats,
            start.elapsed(),
            "bundle.verify",
        ));

        consent_telemetry::reset();
        consent_telemetry::enable();
        let start = Instant::now();
        for _ in 0..repeats {
            let replay = replay_campaign_bundle(&dir, Some(provider)).expect("bundle replay");
            assert!(
                replay.ok(),
                "replay diverged — refusing to record: {}",
                replay.summary()
            );
        }
        records.push(CheckpointBench::record(
            "bundle_replay",
            pairs * repeats,
            start.elapsed(),
            "bundle.replay",
        ));

        consent_telemetry::reset();
        if self.keep_dir.is_none() {
            let _ = std::fs::remove_dir_all(&dir);
        }
        let stats = stats.expect("bundle bench needs a thread count");
        BundleSweep {
            records,
            dedup_ratio: stats.dedup_ratio(),
            logical_bytes: stats.logical_bytes,
            stored_bytes: stats.stored_bytes,
        }
    }

    /// The workload object recorded next to the records.
    pub fn workload(&self) -> Json {
        Json::object([
            ("n_sites".to_string(), Json::int(i64::from(self.n_sites))),
            ("domains".to_string(), Json::int(self.domains as i64)),
            (
                "vantages".to_string(),
                Json::array(self.vantages.iter().map(|v| Json::str(v.label()))),
            ),
            ("days".to_string(), Json::int(self.days.len() as i64)),
            ("pairs".to_string(), Json::int(self.pairs() as i64)),
            (
                "threads".to_string(),
                Json::array(self.threads.iter().map(|&t| Json::int(t as i64))),
            ),
            ("repeats".to_string(), Json::int(self.repeats.max(1) as i64)),
            ("seed".to_string(), Json::int(self.seed as i64)),
        ])
    }

    /// The complete `BENCH_bundle.json` document for a sweep: the
    /// shared schema plus the measured dedup accounting under
    /// `workload.dedup` (the acceptance gate `ratio > 1.0` is asserted
    /// during [`BundleBench::run`] and recorded here for the CI schema
    /// check).
    pub fn document(&self, sweep: &BundleSweep) -> Json {
        let mut workload = match self.workload() {
            Json::Object(fields) => fields,
            _ => unreachable!("workload is an object"),
        };
        workload.insert(
            "dedup".to_string(),
            Json::object([
                ("ratio".to_string(), Json::Number(sweep.dedup_ratio)),
                (
                    "logical_bytes".to_string(),
                    Json::int(sweep.logical_bytes as i64),
                ),
                (
                    "stored_bytes".to_string(),
                    Json::int(sweep.stored_bytes as i64),
                ),
            ]),
        );
        bench_document("bundle_archive", Json::Object(workload), &sweep.records)
    }
}

/// A unique scratch directory for one bench run.
pub(crate) fn bench_tmp_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "consent-bench-ckpt-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Flip one byte inside the first section body (`meta`) of a checkpoint
/// file, so that recovery has to quarantine it and rebuild the cursor
/// from the intact `capture-db` section.
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

/// Serializes the tests whose sweeps reset and read the process-global
/// telemetry registry: a reset from one sweep in the middle of another
/// erases the counters that sweep is about to read.
#[cfg(test)]
pub(crate) fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_serializes_every_schema_key() {
        let r = BenchRecord {
            name: "campaign/threads=2".into(),
            threads: 2,
            pairs: 240,
            elapsed_secs: 1.5,
            pairs_per_sec: 160.0,
            p50_us: 900,
            p95_us: 2_400,
        };
        let json = r.to_json();
        for key in [
            "name",
            "threads",
            "pairs",
            "elapsed_secs",
            "pairs_per_sec",
            "p50_us",
            "p95_us",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert_eq!(json.get("threads").and_then(Json::as_u32), Some(2));
        assert_eq!(
            json.get("pairs_per_sec").and_then(Json::as_f64),
            Some(160.0)
        );
    }

    #[test]
    fn document_roundtrips_through_the_parser() {
        let _registry = registry_lock();
        let bench = CampaignBench {
            n_sites: 400,
            domains: 8,
            vantages: vec![Vantage::us_cloud()],
            threads: vec![1, 2],
            repeats: 2,
            ..CampaignBench::default()
        };
        let records = bench.run();
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.pairs, bench.pairs() * 2);
            assert!(r.pairs_per_sec > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        let doc = bench.document(&records);
        let parsed = Json::parse(&doc.to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("campaign_throughput")
        );
        assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
        let workload = parsed.get("workload").expect("workload");
        assert_eq!(workload.get("pairs").and_then(Json::as_u32), Some(8));
        let recs = parsed.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0].get("name").and_then(Json::as_str),
            Some("campaign/threads=1")
        );
    }

    #[test]
    fn progress_sweep_pairs_full_and_delta_records() {
        let _registry = registry_lock();
        let bench = CheckpointBench {
            n_sites: 400,
            domains: 20,
            vantages: vec![Vantage::eu_cloud()],
            repeats: 2,
            ..CheckpointBench::default()
        };
        let records = bench.run_progress_sweep();
        assert_eq!(
            records.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec![
                "checkpoint_full/progress=10",
                "checkpoint_delta/progress=10",
                "checkpoint_full/progress=50",
                "checkpoint_delta/progress=50",
                "checkpoint_full/progress=90",
                "checkpoint_delta/progress=90",
            ],
        );
        for r in &records {
            assert!(r.pairs > 0);
            assert!(r.elapsed_secs > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        // Delta cuts cover one interval regardless of progress; full
        // cuts cover the growing campaign.
        let pairs_of = |name: &str| records.iter().find(|r| r.name == name).unwrap().pairs;
        assert_eq!(
            pairs_of("checkpoint_delta/progress=10"),
            pairs_of("checkpoint_delta/progress=90"),
        );
        assert!(pairs_of("checkpoint_full/progress=90") > pairs_of("checkpoint_full/progress=10"));
    }

    #[test]
    fn bundle_sweep_covers_pack_verify_and_replay() {
        let _registry = registry_lock();
        let bench = BundleBench {
            threads: vec![1, 2],
            repeats: 2,
            ..BundleBench::default()
        };
        let sweep = bench.run();
        assert_eq!(
            sweep
                .records
                .iter()
                .map(|r| r.name.as_str())
                .collect::<Vec<_>>(),
            vec!["bundle_pack", "bundle_verify", "bundle_replay"],
        );
        for r in &sweep.records {
            assert_eq!(r.pairs, bench.pairs() * 2);
            assert!(r.pairs_per_sec > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        assert!(sweep.dedup_ratio > 1.0);
        assert!(sweep.stored_bytes < sweep.logical_bytes);
        let doc = bench.document(&sweep);
        let parsed = Json::parse(&doc.to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("bundle_archive")
        );
        assert_eq!(
            parsed
                .get("workload")
                .and_then(|w| w.get("days"))
                .and_then(Json::as_u32),
            Some(2)
        );
        let ratio = parsed
            .get("workload")
            .and_then(|w| w.get("dedup"))
            .and_then(|d| d.get("ratio"))
            .and_then(Json::as_f64)
            .expect("document records the dedup ratio");
        assert!(ratio > 1.0, "recorded dedup ratio {ratio}");
    }

    #[test]
    fn checkpoint_sweep_covers_write_open_and_salvage() {
        let _registry = registry_lock();
        let bench = CheckpointBench {
            n_sites: 400,
            domains: 8,
            vantages: vec![Vantage::eu_cloud()],
            repeats: 2,
            ..CheckpointBench::default()
        };
        let records = bench.run();
        assert_eq!(
            records.iter().map(|r| r.name.as_str()).collect::<Vec<_>>(),
            vec!["checkpoint_write", "checkpoint_open", "checkpoint_salvage"],
        );
        for r in &records {
            assert_eq!(r.pairs, bench.pairs() * 2);
            assert!(r.pairs_per_sec > 0.0);
            assert!(r.p50_us <= r.p95_us);
        }
        let doc = bench.document(&records);
        let parsed = Json::parse(&doc.to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("checkpoint_durability")
        );
        assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
        assert_eq!(
            parsed
                .get("workload")
                .and_then(|w| w.get("pairs"))
                .and_then(Json::as_u32),
            Some(8)
        );
    }
}
