//! The storage-fault soak sweep: durable campaigns under increasing
//! background IO-fault rates, written to `BENCH_soak.json`.
//!
//! For each configured fault rate (per-mille of filesystem operations,
//! injected by a [`FaultyVfs`] with an [`IoFaultPlan::rate`] plan), the
//! sweep runs [`repeats`](SoakBench::repeats) durable campaigns against
//! fresh stores and records, per rate:
//!
//! * throughput (`pairs_per_sec`) and per-pair latency quantiles — the
//!   shared `BENCH_*.json` columns, so the `diff` gate can compare soak
//!   points across commits;
//! * **completion rate**: the fraction of campaigns that finished fully
//!   healthy (`Complete`) versus cleanly degraded (`Degraded`) — a
//!   crash or wedge fails the sweep outright;
//! * **MTTR** (mean time to repair): mean and p95 of the
//!   `supervisor.mttr_us` histogram, the wall time from a checkpoint
//!   save's first injected failure to its eventual success;
//! * the raw fault/retry/skip counters behind those outcomes.
//!
//! The sweep is a correctness check like the other benches: every
//! campaign, at every fault rate, must export byte-identical
//! [`CampaignState`](consent_crawler::CampaignState) bytes — storage
//! faults may cost durability and time, never measurement bytes.

use crate::{bench_document, bench_tmp_dir, BenchRecord};
use consent_checkpoint::{CheckpointStore, DEFAULT_KEEP};
use consent_crawler::{
    build_toplist, run_durable_campaign, BreakerConfig, CampaignConfig, DurableOpts,
    DurableOutcome, DurableRun, RetryPolicy,
};
use consent_faultsim::{CrashPlan, FaultProfile, FaultyVfs, IoFaultPlan};
use consent_httpsim::Vantage;
use consent_util::{Day, Json, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::sync::Arc;
use std::time::Instant;

/// One fault-rate row of the soak sweep: the shared bench columns plus
/// the soak-specific health columns.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakRecord {
    /// The shared `BENCH_*.json` columns (`soak/io_rate=N‰`).
    pub record: BenchRecord,
    /// Injected IO-fault rate in per-mille of filesystem operations.
    pub rate_per_mille: u64,
    /// Campaigns that finished fully healthy.
    pub completed: u64,
    /// Campaigns that finished degraded (loud, never silent).
    pub degraded: u64,
    /// `completed / (completed + degraded)`.
    pub completion_rate: f64,
    /// Checkpoint IO faults observed across the row's campaigns.
    pub io_faults: u64,
    /// Supervised save retries across the row's campaigns.
    pub retries: u64,
    /// Checkpoint writes skipped in memory-only mode.
    pub writes_skipped: u64,
    /// Saves that needed repair (count of `supervisor.mttr_us`).
    pub repairs: u64,
    /// Mean time to repair a failing save, in microseconds.
    pub mttr_us_mean: f64,
    /// 95th-percentile time to repair, in microseconds.
    pub mttr_us_p95: u64,
}

impl SoakRecord {
    /// Serialize as one record object: the shared schema keys plus the
    /// soak columns.
    pub fn to_json(&self) -> Json {
        let Json::Object(mut fields) = self.record.to_json() else {
            unreachable!("BenchRecord::to_json returns an object");
        };
        fields.insert(
            "rate_per_mille".to_string(),
            Json::int(self.rate_per_mille as i64),
        );
        fields.insert("completed".to_string(), Json::int(self.completed as i64));
        fields.insert("degraded".to_string(), Json::int(self.degraded as i64));
        fields.insert(
            "completion_rate".to_string(),
            Json::Number(self.completion_rate),
        );
        fields.insert("io_faults".to_string(), Json::int(self.io_faults as i64));
        fields.insert("retries".to_string(), Json::int(self.retries as i64));
        fields.insert(
            "writes_skipped".to_string(),
            Json::int(self.writes_skipped as i64),
        );
        fields.insert("repairs".to_string(), Json::int(self.repairs as i64));
        fields.insert("mttr_us_mean".to_string(), Json::Number(self.mttr_us_mean));
        fields.insert(
            "mttr_us_p95".to_string(),
            Json::int(self.mttr_us_p95 as i64),
        );
        Json::Object(fields)
    }
}

/// The soak sweep configuration. See the module docs for what is
/// measured.
#[derive(Clone, Debug)]
pub struct SoakBench {
    /// Synthetic world size.
    pub n_sites: u32,
    /// Toplist entries to crawl per campaign.
    pub domains: usize,
    /// Vantage columns.
    pub vantages: Vec<Vantage>,
    /// Worker threads for every campaign.
    pub threads: usize,
    /// IO-fault rates to sweep, in per-mille of filesystem operations
    /// (0 = the fault-free control row).
    pub rates_per_mille: Vec<u64>,
    /// Campaigns per rate (outcome counts aggregate over all of them).
    pub repeats: usize,
    /// Checkpoint cadence of each campaign.
    pub checkpoint_every: u64,
    /// Root seed for world, toplist, campaign, and fault plans.
    pub seed: u64,
}

impl Default for SoakBench {
    /// The CI-sized workload: 120 domains × 2 vantages (240 pairs,
    /// enough for ~12 checkpoint writes per campaign), 4 threads,
    /// rates 0/5/10/50‰, 3 campaigns per rate.
    fn default() -> SoakBench {
        SoakBench {
            n_sites: 2_000,
            domains: 120,
            vantages: vec![Vantage::eu_cloud(), Vantage::us_cloud()],
            threads: 4,
            rates_per_mille: vec![0, 5, 10, 50],
            repeats: 3,
            checkpoint_every: 20,
            seed: 42,
        }
    }
}

impl SoakBench {
    /// Total `(domain, vantage)` pairs each campaign processes.
    pub fn pairs(&self) -> u64 {
        (self.domains * self.vantages.len()) as u64
    }

    /// Run the sweep and return one record per fault rate.
    ///
    /// Uses the **global** telemetry registry (reset + enabled per
    /// rate, reset on exit; not concurrency-safe) and panics if any
    /// campaign crashes, wedges, or exports different bytes than the
    /// fault-free control — a soak run that breaks the supervisor's
    /// guarantees must not produce a trajectory point.
    pub fn run(&self) -> Vec<SoakRecord> {
        let world = World::new(WorldConfig {
            n_sites: self.n_sites,
            seed: self.seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(self.seed);
        let list = build_toplist(&world, self.domains, root.child("toplist"));
        let campaign_seed = root.child("campaign");
        let repeats = self.repeats.max(1) as u64;

        let run_once = |dir: &std::path::Path, plan: IoFaultPlan| -> DurableRun {
            let store =
                CheckpointStore::with_vfs(dir, DEFAULT_KEEP, Arc::new(FaultyVfs::new(plan)))
                    .expect("open soak store");
            run_durable_campaign(
                &world,
                &list,
                Day::from_ymd(2020, 5, 15),
                &self.vantages,
                campaign_seed,
                &store,
                &DurableOpts {
                    threads: self.threads,
                    config: CampaignConfig {
                        fault_profile: FaultProfile::none(),
                        retry: RetryPolicy::paper(),
                        breaker: BreakerConfig::default(),
                    },
                    checkpoint_every: self.checkpoint_every,
                    crash: CrashPlan::none(),
                    sampler: None,
                    ..DurableOpts::default()
                },
            )
            .expect("durable campaign io")
        };

        // The fault-free control run pins the bytes every faulted
        // campaign must still produce (and warms caches).
        let control_dir = bench_tmp_dir();
        let control = run_once(&control_dir, IoFaultPlan::none());
        assert_eq!(control.outcome, DurableOutcome::Complete);
        let baseline = control.state.export();
        let _ = std::fs::remove_dir_all(&control_dir);

        let mut records = Vec::with_capacity(self.rates_per_mille.len());
        for &pm in &self.rates_per_mille {
            consent_telemetry::reset();
            consent_telemetry::enable();
            let start = Instant::now();
            let (mut pairs, mut completed, mut degraded) = (0u64, 0u64, 0u64);
            for rep in 0..repeats {
                let plan = if pm == 0 {
                    IoFaultPlan::none()
                } else {
                    // A distinct seed per repeat so the faults land on
                    // different operations, same rate.
                    IoFaultPlan::rate(self.seed.wrapping_add(rep), pm)
                };
                let dir = bench_tmp_dir();
                let run = run_once(&dir, plan);
                match &run.outcome {
                    DurableOutcome::Complete => completed += 1,
                    DurableOutcome::Degraded(_) => degraded += 1,
                    DurableOutcome::Crashed { .. } => {
                        panic!("soak campaign crashed at {pm}\u{2030} — refusing to record")
                    }
                }
                assert!(
                    run.state.export() == baseline,
                    "state diverged at {pm}\u{2030} (repeat {rep}) — refusing to record"
                );
                pairs += run.state.pairs_done;
                let _ = std::fs::remove_dir_all(&dir);
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            consent_telemetry::disable();
            let pair = consent_telemetry::global()
                .histogram("campaign.pair")
                .summary();
            let mttr = consent_telemetry::global()
                .histogram("supervisor.mttr_us")
                .summary();
            let snap = consent_telemetry::global().snapshot();

            records.push(SoakRecord {
                record: BenchRecord {
                    name: format!("soak/io_rate={pm}permille"),
                    threads: self.threads,
                    pairs,
                    elapsed_secs: elapsed,
                    pairs_per_sec: pairs as f64 / elapsed,
                    p50_us: pair.p50,
                    p95_us: pair.p95,
                },
                rate_per_mille: pm,
                completed,
                degraded,
                completion_rate: completed as f64 / (completed + degraded).max(1) as f64,
                io_faults: snap.counter("checkpoint.io_fault"),
                retries: snap.counter("checkpoint.retry"),
                writes_skipped: snap.counter("checkpoint.skipped"),
                repairs: mttr.count,
                mttr_us_mean: mttr.mean,
                mttr_us_p95: mttr.p95,
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
            ("threads".to_string(), Json::int(self.threads as i64)),
            (
                "rates_per_mille".to_string(),
                Json::array(self.rates_per_mille.iter().map(|&r| Json::int(r as i64))),
            ),
            ("repeats".to_string(), Json::int(self.repeats.max(1) as i64)),
            (
                "checkpoint_every".to_string(),
                Json::int(self.checkpoint_every as i64),
            ),
            ("seed".to_string(), Json::int(self.seed as i64)),
        ])
    }

    /// The complete `BENCH_soak.json` document for `records`.
    pub fn document(&self, records: &[SoakRecord]) -> Json {
        let base: Vec<BenchRecord> = records.iter().map(|r| r.record.clone()).collect();
        let Json::Object(mut doc) = bench_document("storage_soak", self.workload(), &base) else {
            unreachable!("bench_document returns an object");
        };
        // Replace the plain records with the extended soak rows; the
        // shared keys stay, so `diff` keeps working on soak documents.
        doc.insert(
            "records".to_string(),
            Json::array(records.iter().map(SoakRecord::to_json)),
        );
        Json::Object(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SoakBench {
        SoakBench {
            n_sites: 400,
            domains: 8,
            vantages: vec![Vantage::eu_cloud()],
            threads: 2,
            rates_per_mille: vec![0, 200],
            repeats: 2,
            checkpoint_every: 4,
            ..SoakBench::default()
        }
    }

    #[test]
    fn soak_sweep_records_health_columns_per_rate() {
        let _registry = crate::registry_lock();
        let bench = small();
        let records = bench.run();
        assert_eq!(records.len(), 2);

        let control = &records[0];
        assert_eq!(control.record.name, "soak/io_rate=0permille");
        assert_eq!(control.completed, 2);
        assert_eq!(control.degraded, 0);
        assert_eq!(control.completion_rate, 1.0);
        assert_eq!(control.io_faults, 0);
        assert_eq!(control.repairs, 0);

        // 20% of filesystem operations failing must hurt (faults
        // observed, repairs attempted) but never crash or change bytes
        // (run() asserts both).
        let hot = &records[1];
        assert_eq!(hot.record.name, "soak/io_rate=200permille");
        assert_eq!(hot.completed + hot.degraded, 2);
        assert!(hot.io_faults > 0, "20% fault rate produced no faults");
        assert!(hot.completion_rate <= 1.0);
        for r in &records {
            assert_eq!(r.record.pairs, bench.pairs() * 2);
            assert!(r.record.pairs_per_sec > 0.0);
        }
    }

    #[test]
    fn soak_document_keeps_diff_compatible_keys() {
        let _registry = crate::registry_lock();
        let bench = small();
        let records = bench.run();
        let doc = bench.document(&records);
        let parsed = Json::parse(&doc.to_pretty()).expect("document parses");
        assert_eq!(
            parsed.get("bench").and_then(Json::as_str),
            Some("storage_soak")
        );
        assert_eq!(parsed.get("schema").and_then(Json::as_u32), Some(1));
        let recs = parsed.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 2);
        for rec in recs {
            // The shared columns the diff gate needs...
            for key in ["name", "pairs_per_sec", "p50_us", "p95_us"] {
                assert!(rec.get(key).is_some(), "missing shared key {key}");
            }
            // ...and the soak-specific health columns.
            for key in [
                "rate_per_mille",
                "completed",
                "degraded",
                "completion_rate",
                "io_faults",
                "retries",
                "writes_skipped",
                "repairs",
                "mttr_us_mean",
                "mttr_us_p95",
            ] {
                assert!(rec.get(key).is_some(), "missing soak key {key}");
            }
        }
        // The diff tool accepts the document end-to-end.
        let diff = crate::diff_documents(&parsed, &parsed).expect("diff accepts soak docs");
        assert!(diff.regressions(crate::DEFAULT_THRESHOLD_PCT).is_empty());
    }
}
