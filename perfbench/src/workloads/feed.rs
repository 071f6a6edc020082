//! `feed_longitudinal`: a year of the social-feed platform, then the
//! Figure 4/6 analyses.
//!
//! Same engine, detector and capture store as the campaign, but
//! single-threaded, with the dedup queue in front and a working set
//! several times wider; no executor, checkpoint or recorder. An engine
//! or capture-store change must pay off here too; an executor change
//! should read as unchanged.

use super::{digest, Checked, Size, Workload};
use crate::feed_replica::run_feed_replica;
use crate::ledger::{median, repeat_for, timed, Ledger};
use consent_analysis::{
    adoption_series, build_timelines, switch_matrix, AdoptionPoint, SwitchMatrix,
};
use consent_crawler::{export_db, CaptureDb, FeedConfig, Platform};
use consent_faultsim::FaultProfile;
use consent_util::{Day, SeedTree};
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::io;
use std::path::Path;

/// Days between points of the adoption series.
const SERIES_STEP_DAYS: i32 = 7;

/// The `feed_longitudinal` workload.
pub struct FeedLongitudinal {
    world: World,
    config: FeedConfig,
    seed: SeedTree,
    start: Day,
    end: Day,
    captures: u64,
    reference_db: u64,
    reference_series: Vec<AdoptionPoint>,
    reference_switch: SwitchMatrix,
}

/// One repetition's outputs.
pub struct FeedOutput {
    db: CaptureDb,
    series: Vec<AdoptionPoint>,
    switch: SwitchMatrix,
}

impl FeedLongitudinal {
    fn analyses(&self, db: &CaptureDb) -> (Vec<AdoptionPoint>, SwitchMatrix) {
        let timelines = build_timelines(db, None);
        let series = adoption_series(&timelines, self.start, self.end - 1, SERIES_STEP_DAYS);
        (series, switch_matrix(&timelines))
    }

    fn check(&self, out: &FeedOutput) -> Checked {
        let mut checked = Checked::default();
        checked
            .op(out.db.len() == self.captures && digest(&export_db(&out.db)) == self.reference_db);
        checked.op(out.series == self.reference_series);
        checked.op(out.switch == self.reference_switch);
        checked
    }
}

impl Workload for FeedLongitudinal {
    type Output = FeedOutput;
    const OPS: u64 = 3;

    fn setup(seed: u64, size: Size, _work: &Path) -> io::Result<Self> {
        let (n_sites, days, urls_per_day) = match size {
            Size::Full => (1_000_000, 365, 1_000),
            Size::Tiny => (20_000, 6, 150),
        };
        let start = Day::from_ymd(2019, 6, 1);
        let mut w = FeedLongitudinal {
            world: World::new(WorldConfig {
                n_sites,
                seed,
                adoption: AdoptionConfig::default(),
            }),
            config: FeedConfig {
                urls_per_day,
                ..FeedConfig::default()
            },
            seed: SeedTree::new(seed).child("feed"),
            start,
            end: start + days,
            captures: 0,
            reference_db: 0,
            reference_series: Vec::new(),
            reference_switch: SwitchMatrix::default(),
        };
        let out = w.rep()?;
        w.captures = out.db.len();
        w.reference_db = digest(&export_db(&out.db));
        w.reference_series = out.series;
        w.reference_switch = out.switch;
        Ok(w)
    }

    fn items(&self) -> u64 {
        self.captures
    }

    fn digest(&self) -> u64 {
        self.reference_db
    }

    fn rep(&mut self) -> io::Result<FeedOutput> {
        let platform = Platform::with_faults(
            &self.world,
            self.config.clone(),
            FaultProfile::none(),
            self.seed,
        );
        let (db, _) = platform.run(self.start, self.end);
        let (series, switch) = self.analyses(&db);
        Ok(FeedOutput { db, series, switch })
    }

    fn finish(&mut self, out: FeedOutput) -> Checked {
        self.check(&out)
    }

    fn traced(&mut self, seconds: f64, ledger: &mut Ledger) -> io::Result<(Vec<f64>, Checked)> {
        let mut checked = Checked::default();
        let mut layers = None;
        let (mut timelines_s, mut series_s, mut switch_s, mut unaccounted) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let traced = repeat_for(seconds, 1, || {
            let mut accounted = 0.0;
            let (out, rep_s) = timed(|| {
                let (db, l) = run_feed_replica(
                    &self.world,
                    self.config.clone(),
                    self.seed,
                    self.start,
                    self.end,
                );
                let (timelines, t_s) = timed(|| build_timelines(&db, None));
                let (series, s_s) = timed(|| {
                    adoption_series(&timelines, self.start, self.end - 1, SERIES_STEP_DAYS)
                });
                let (switch, w_s) = timed(|| switch_matrix(&timelines));
                accounted = l.day_items.busy_s()
                    + l.queue.busy_s()
                    + l.capture.busy_s()
                    + l.detect.busy_s()
                    + l.ingest.busy_s()
                    + t_s
                    + s_s
                    + w_s;
                timelines_s.push(t_s);
                series_s.push(s_s);
                switch_s.push(w_s);
                layers = Some(l);
                FeedOutput { db, series, switch }
            });
            unaccounted.push(rep_s - accounted);
            checked.add(self.check(&out));
            rep_s
        });

        let l = layers.expect("at least one traced repetition");
        ledger.set("httpsim.capture_us_p50", l.capture.quantile_us(0.5));
        ledger.set("httpsim.capture_us_p99", l.capture.quantile_us(0.99));
        ledger.set("httpsim.busy_s", l.capture.busy_s());
        ledger.set("fingerprint.detect_us_p50", l.detect.quantile_us(0.5));
        ledger.set("fingerprint.detect_us_p99", l.detect.quantile_us(0.99));
        ledger.set("fingerprint.busy_s", l.detect.busy_s());
        ledger.set(
            "crawler.capture_db.ingest_us_p50",
            l.ingest.quantile_us(0.5),
        );
        ledger.set(
            "crawler.capture_db.ingest_us_p99",
            l.ingest.quantile_us(0.99),
        );
        ledger.set("crawler.capture_db.rows", l.admitted as f64);
        ledger.set("crawler.feed.items", l.items as f64);
        ledger.set("crawler.feed.day_items_s", l.day_items.busy_s());
        ledger.set("crawler.queue.offers", l.items as f64);
        ledger.set(
            "crawler.queue.admit_ratio",
            l.admitted as f64 / l.items as f64,
        );
        ledger.set("crawler.queue.busy_s", l.queue.busy_s());
        ledger.set("analysis.timelines_s", median(&timelines_s));
        ledger.set("analysis.series_s", median(&series_s));
        ledger.set("analysis.switch_s", median(&switch_s));
        ledger.set("bench.unaccounted_s", median(&unaccounted));
        Ok((traced, checked))
    }
}
