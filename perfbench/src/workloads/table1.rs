//! `table1_campaign`: the Table 1 toplist campaign, in memory.
//!
//! One repetition crawls a toplist at the six Table 1 vantages with
//! the parallel executor at two threads, exports the campaign state and
//! computes the standard analysis exports. No disk and no recorder is
//! involved, so executor, engine, detector and capture-store changes
//! show here and checkpoint, bundle or recorder changes must not.

use super::{campaign_config, campaign_day, digest, Checked, Size, Workload};
use crate::ledger::{median, repeat_for, timed, Busy, Ledger};
use consent_analysis::standard_exports;
use consent_crawler::{
    build_toplist, run_campaign_parallel, ArchiveContext, CampaignRun, CaptureDb, CmpSet,
    ParallelOpts, RetryPolicy,
};
use consent_faultsim::{FaultProfile, FaultyEngine};
use consent_fingerprint::Detector;
use consent_httpsim::{CaptureOptions, Location, Vantage, WorldProber};
use consent_psl::PublicSuffixList;
use consent_toplist::resolve_all;
use consent_util::SeedTree;
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::io;
use std::path::Path;

/// Worker threads of the timed campaign (the benchmark host's cores).
const THREADS: usize = 2;

/// The `table1_campaign` workload.
pub struct Table1Campaign {
    world: World,
    list: Vec<String>,
    seed: SeedTree,
    ctx: ArchiveContext,
    reference_state: String,
    reference_exports: Vec<(String, String)>,
    build_s: f64,
}

/// One repetition's outputs. The campaign run rides along so that
/// freeing its captures happens after the timed region.
pub struct Table1Output {
    run: CampaignRun,
    state: String,
    exports: Vec<(String, String)>,
}

impl Table1Campaign {
    fn crawl(&self, threads: usize) -> CampaignRun {
        run_campaign_parallel(
            &self.world,
            &self.list,
            campaign_day(),
            &Vantage::table1_columns(),
            self.seed,
            &ParallelOpts {
                threads,
                config: campaign_config(),
                max_pairs: None,
            },
        )
    }

    fn check(&self, out: &Table1Output) -> Checked {
        let mut checked = Checked::default();
        checked.op(out.run.complete && out.state == self.reference_state);
        checked.op(out.exports == self.reference_exports);
        checked
    }

    /// Resolve the toplist and replay each pair's first attempt through
    /// the engine, the detector and the capture store, one call at a
    /// time, to split a campaign's crawl work by layer.
    fn layer_replay(&self, ledger: &mut Ledger) {
        let day = campaign_day();
        let prober = WorldProber::new(&self.world, self.seed.child("prober"));
        let (seeds, resolve_s) = timed(|| {
            resolve_all(
                self.list.iter().cloned(),
                &prober,
                &[day - 7, day - 4, day - 1],
            )
        });
        ledger.set("toplist.build_s", self.build_s);
        ledger.set("toplist.resolve_s", resolve_s);
        ledger.set("toplist.seeds", seeds.len() as f64);

        let engine = FaultyEngine::from_world(&self.world, FaultProfile::none(), self.seed);
        let detector = Detector::hostname_only();
        let psl = PublicSuffixList::embedded();
        let first_day = RetryPolicy::paper().schedule(day)[0];
        let (mut capture, mut detect, mut ingest) =
            (Busy::default(), Busy::default(), Busy::default());
        let mut db = CaptureDb::new();
        for vantage in Vantage::table1_columns() {
            let opts = CaptureOptions {
                collect_dom: vantage.location == Location::EuUniversity,
            };
            for s in &seeds {
                let c =
                    capture.time(|| engine.capture_attempt(&s.url, first_day, vantage, opts, 1));
                let cmps = detect.time(|| CmpSet::from_iter(detector.detect(&c)));
                ingest.time(|| db.ingest(&c, cmps, &psl));
            }
        }
        ledger.set("httpsim.capture_us_p50", capture.quantile_us(0.5));
        ledger.set("httpsim.capture_us_p99", capture.quantile_us(0.99));
        ledger.set("httpsim.busy_s", capture.busy_s());
        ledger.set("fingerprint.detect_us_p50", detect.quantile_us(0.5));
        ledger.set("fingerprint.detect_us_p99", detect.quantile_us(0.99));
        ledger.set("fingerprint.busy_s", detect.busy_s());
        ledger.set("crawler.capture_db.ingest_us_p50", ingest.quantile_us(0.5));
        ledger.set("crawler.capture_db.ingest_us_p99", ingest.quantile_us(0.99));
        ledger.set("crawler.capture_db.rows", db.len() as f64);
    }
}

impl Workload for Table1Campaign {
    type Output = Table1Output;
    const OPS: u64 = 2;

    fn setup(seed: u64, size: Size, _work: &Path) -> io::Result<Self> {
        let (n_sites, domains) = match size {
            Size::Full => (100_000, 10_000),
            Size::Tiny => (400, 20),
        };
        let world = World::new(WorldConfig {
            n_sites,
            seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(seed);
        let (list, build_s) = timed(|| build_toplist(&world, domains, root.child("toplist")));
        let campaign = root.child("campaign");
        let ctx = ArchiveContext::from_campaign(
            campaign_day(),
            &list,
            &Vantage::table1_columns(),
            &campaign,
        );
        let mut w = Table1Campaign {
            world,
            list,
            seed: campaign,
            ctx,
            reference_state: String::new(),
            reference_exports: Vec::new(),
            build_s,
        };
        // The sequential executor is the reference every thread count
        // must reproduce byte for byte.
        let sequential = w.crawl(1);
        if !sequential.complete {
            return Err(io::Error::other("sequential reference campaign incomplete"));
        }
        w.reference_state = sequential.state.export();
        w.reference_exports = standard_exports(&sequential.state, &w.ctx);
        Ok(w)
    }

    fn items(&self) -> u64 {
        (self.list.len() * Vantage::table1_columns().len()) as u64
    }

    fn digest(&self) -> u64 {
        digest(&self.reference_state)
    }

    fn rep(&mut self) -> io::Result<Table1Output> {
        let run = self.crawl(THREADS);
        let state = run.state.export();
        let exports = standard_exports(&run.state, &self.ctx);
        Ok(Table1Output {
            run,
            state,
            exports,
        })
    }

    fn finish(&mut self, out: Table1Output) -> Checked {
        self.check(&out)
    }

    fn traced(&mut self, seconds: f64, ledger: &mut Ledger) -> io::Result<(Vec<f64>, Checked)> {
        self.layer_replay(ledger);
        let mut checked = Checked::default();

        let (sequential, run_s_1t) = timed(|| self.crawl(1));
        checked.op(sequential.complete && sequential.state.export() == self.reference_state);
        drop(sequential);

        let (mut run_s, mut state_s, mut exports_s, mut unaccounted) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut bytes = 0;
        let traced = repeat_for(seconds, 1, || {
            let (out, rep_s) = timed(|| {
                let (run, run_secs) = timed(|| self.crawl(THREADS));
                let (state, state_secs) = timed(|| run.state.export());
                let (exports, exports_secs) = timed(|| standard_exports(&run.state, &self.ctx));
                run_s.push(run_secs);
                state_s.push(state_secs);
                exports_s.push(exports_secs);
                Table1Output {
                    run,
                    state,
                    exports,
                }
            });
            let layers =
                run_s.last().unwrap() + state_s.last().unwrap() + exports_s.last().unwrap();
            unaccounted.push(rep_s - layers);
            bytes = out.state.len();
            checked.add(self.check(&out));
            rep_s
        });

        let run_s = median(&run_s);
        let crawl_busy = ledger.get("httpsim.busy_s").unwrap_or(0.0)
            + ledger.get("fingerprint.busy_s").unwrap_or(0.0);
        ledger.set("crawler.parallel.run_s", run_s);
        ledger.set("crawler.parallel.run_s_1t", run_s_1t);
        ledger.set("crawler.parallel.speedup", run_s_1t / run_s);
        ledger.set("crawler.parallel.non_capture_s", run_s_1t - crawl_busy);
        ledger.set("crawler.export.state_s", median(&state_s));
        ledger.set("crawler.export.bytes", bytes as f64);
        ledger.set("analysis.exports_s", median(&exports_s));
        ledger.set("bench.unaccounted_s", median(&unaccounted));
        Ok((traced, checked))
    }
}
