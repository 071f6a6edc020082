//! `durable_observed`: a checkpointed campaign with every recorder on,
//! killed halfway and resumed.
//!
//! One repetition runs `run_durable_campaign` with delta checkpoints, the
//! global telemetry registry and trace log, a logical-tick flight
//! sampler and a default-rules watch. A crashpoint kills the first
//! incarnation; a second one (fresh trace log, registry, sampler and
//! watch, as a restarted process would have) recovers from the same
//! store and completes. Then the trace, OBS and ALERTS exports.
//! Checkpoint I/O, recovery and the four recorders carry most of the
//! time here, so recorder, observability and checkpoint changes show;
//! a pure executor change should barely move it.
//!
//! The traced run also archives one finished campaign into a
//! content-addressed bundle, verifies and replays it: the bundle
//! layer's ledger, outside the timed repetitions.

use super::{campaign_config, campaign_day, digest, fresh_dir, Checked, Size, Workload};
use crate::ledger::{median, repeat_for, timed, Ledger};
use crate::vfs::{CountingVfs, Op};
use consent_analysis::standard_exports;
use consent_bundle::{
    pack_verified, verify, BlobAddr, BlobRef, BlobStore, BundleInput, BundleSection, Manifest,
};
use consent_checkpoint::{CheckpointStore, DEFAULT_KEEP};
use consent_crawler::archive::SCRUB_ROUNDS;
use consent_crawler::{
    build_bundle_input, build_toplist, recover_state, replay_campaign_bundle, run_durable_campaign,
    ArchiveContext, CampaignArtifacts, CheckpointMode, DurableOpts, DurableOutcome, DurableRun,
    ExportFn, SupervisorPolicy,
};
use consent_faultsim::CrashPlan;
use consent_httpsim::Vantage;
use consent_obs::{ObsConfig, Sampler};
use consent_util::SeedTree;
use consent_watch::rules::WatchConfig;
use consent_watch::Watch;
use consent_webgraph::{AdoptionConfig, World, WorldConfig};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Worker threads per checkpoint chunk.
const THREADS: usize = 2;

/// Delta cuts between full checkpoint bases.
const REBASE_EVERY: u64 = 8;

/// Round-robin passes over the recorder ladder's rungs.
const LADDER_ROUNDS: usize = 2;

/// The analysis exports the bundle archives and replay recomputes.
const PROVIDER: &ExportFn = &standard_exports;

/// Recorders switched on, each rung adding one to the previous.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Recorders {
    Off,
    Telemetry,
    Trace,
    ObsWatch,
}

/// Switch the process-global recorders to `level`. Recorded data stays
/// until [`clear_recorders`].
fn set_recorders(level: Recorders) {
    if level >= Recorders::Telemetry {
        consent_telemetry::enable();
    } else {
        consent_telemetry::disable();
    }
    if level >= Recorders::Trace {
        consent_trace::enable();
    } else {
        consent_trace::disable();
    }
}

/// Drop everything the process-global recorders hold.
fn clear_recorders() {
    consent_trace::clear();
    consent_telemetry::reset();
}

/// One incarnation's run and the sampler and watch it recorded into.
type Incarnation = (DurableRun, Option<Arc<Sampler>>, Option<Arc<Watch>>);

/// The `durable_observed` workload.
pub struct DurableObserved {
    world: World,
    list: Vec<String>,
    seed: SeedTree,
    work: PathBuf,
    every: u64,
    crash_at: u64,
    reference_state: String,
}

/// One repetition's outputs.
pub struct Observed {
    dir: PathBuf,
    first: DurableRun,
    second: DurableRun,
    trace_bytes: usize,
    obs_samples: usize,
    alert_events: usize,
    trace_s: f64,
    obs_s: f64,
    watch_s: f64,
}

impl DurableObserved {
    fn pairs(&self) -> u64 {
        (self.list.len() * Vantage::table1_columns().len()) as u64
    }

    /// One process incarnation on `store`: fresh trace log and metric
    /// registry, and with `ObsWatch` a fresh sampler and watch.
    fn incarnation(
        &self,
        store: &CheckpointStore,
        recorders: Recorders,
        threads: usize,
        crash: CrashPlan,
    ) -> io::Result<Incarnation> {
        clear_recorders();
        let observe = recorders >= Recorders::ObsWatch;
        let registry = consent_telemetry::global();
        let sampler = observe.then(|| Sampler::attach(registry, ObsConfig::deterministic()));
        let watch = observe.then(|| Watch::attach(registry, WatchConfig::default_rules()));
        let run = run_durable_campaign(
            &self.world,
            &self.list,
            campaign_day(),
            &Vantage::table1_columns(),
            self.seed,
            store,
            &DurableOpts {
                threads,
                config: campaign_config(),
                checkpoint_every: self.every,
                crash,
                sampler: sampler.clone(),
                watch: watch.clone(),
                supervisor: SupervisorPolicy::default(),
                mode: CheckpointMode::Delta {
                    rebase_every: REBASE_EVERY,
                },
                bundle: None,
            },
        )?;
        Ok((run, sampler, watch))
    }

    /// The repetition: crash, resume to completion, export.
    fn observed(
        &self,
        store: &CheckpointStore,
        dir: PathBuf,
        recorders: Recorders,
    ) -> io::Result<Observed> {
        set_recorders(recorders);
        let result = (|| -> io::Result<Observed> {
            let crash = CrashPlan::after_apply(self.crash_at);
            let (first, _, _) = self.incarnation(store, recorders, THREADS, crash)?;
            let (second, sampler, watch) =
                self.incarnation(store, recorders, THREADS, CrashPlan::none())?;
            let (trace, trace_s) = timed(|| {
                (recorders >= Recorders::Trace).then(|| consent_trace::global().export_jsonl())
            });
            let (obs, obs_s) = timed(|| sampler.as_ref().map(|s| s.export_jsonl()));
            let (alerts, watch_s) = timed(|| watch.as_ref().map(|w| w.export_jsonl()));
            Ok(Observed {
                dir,
                first,
                second,
                trace_bytes: trace.map_or(0, |t| t.len()),
                obs_samples: obs.map_or(0, |o| o.lines().count()),
                alert_events: alerts.map_or(0, |a| a.lines().count()),
                trace_s,
                obs_s,
                watch_s,
            })
        })();
        set_recorders(Recorders::Off);
        result
    }

    fn check(&self, out: &Observed) -> Checked {
        let mut checked = Checked::default();
        checked.op(matches!(out.first.outcome, DurableOutcome::Crashed { .. }));
        checked.op(out.second.outcome == DurableOutcome::Complete);
        checked.op(out.second.state.export() == self.reference_state);
        checked
    }

    /// Check `out`, then drop its store directory and what the
    /// recorders hold.
    fn settle(&self, out: &Observed) -> Checked {
        let checked = self.check(out);
        let _ = std::fs::remove_dir_all(&out.dir);
        clear_recorders();
        checked
    }

    /// Pairs durable when the first incarnation died.
    fn durable_pairs(out: &Observed) -> u64 {
        match out.first.outcome {
            DurableOutcome::Crashed { durable_pairs, .. } => durable_pairs,
            _ => 0,
        }
    }

    /// Repetition time added as each recorder is switched on: the
    /// rungs run round-robin, and each rung's time is its median.
    fn recorder_ladder(&self, ledger: &mut Ledger, checked: &mut Checked) -> io::Result<()> {
        const RUNGS: [Recorders; 4] = [
            Recorders::Off,
            Recorders::Telemetry,
            Recorders::Trace,
            Recorders::ObsWatch,
        ];
        let mut times = vec![Vec::new(); RUNGS.len()];
        for _ in 0..LADDER_ROUNDS {
            for (recorders, times) in RUNGS.into_iter().zip(&mut times) {
                let dir = fresh_dir(&self.work);
                let (out, secs) = timed(|| {
                    let store = CheckpointStore::open(&dir)?;
                    self.observed(&store, dir.clone(), recorders)
                });
                checked.add(self.settle(&out?));
                times.push(secs);
            }
        }
        let rungs: Vec<f64> = times.iter().map(|t| median(t)).collect();
        ledger.set("recorders.off_s", rungs[0]);
        ledger.set("recorders.telemetry_s", rungs[1] - rungs[0]);
        ledger.set("recorders.trace_s", rungs[2] - rungs[1]);
        ledger.set("recorders.obs_watch_s", rungs[3] - rungs[2]);
        Ok(())
    }

    /// Recovery alone: kill a recorder-free run, then time opening its
    /// newest state.
    fn recover_probe(&self, ledger: &mut Ledger, checked: &mut Checked) -> io::Result<()> {
        let dir = fresh_dir(&self.work);
        let store = CheckpointStore::open(&dir)?;
        set_recorders(Recorders::Off);
        let crash = CrashPlan::after_apply(self.crash_at);
        let (first, _, _) = self.incarnation(&store, Recorders::Off, THREADS, crash)?;
        let (recovered, recover_s) = timed(|| recover_state(&store));
        let (state, _, _) = recovered?;
        checked.op(matches!(
            first.outcome,
            DurableOutcome::Crashed { durable_pairs, .. } if durable_pairs == state.pairs_done
        ));
        ledger.set("checkpoint.recover_s", recover_s);
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

/// The manifest `pack` must publish for `input`: one content-addressed
/// reference per document, in input order, and the stats over them.
fn expected_manifest(input: &BundleInput) -> String {
    let mut manifest = Manifest {
        meta: input.meta.clone(),
        sections: input
            .sections
            .iter()
            .map(|s| BundleSection {
                name: s.name.clone(),
                blobs: s
                    .docs
                    .iter()
                    .map(|d| BlobRef {
                        addr: BlobAddr::of(d.body.as_bytes()),
                        len: d.body.len() as u64,
                        label: d.label.clone(),
                    })
                    .collect(),
            })
            .collect(),
        ..Manifest::default()
    };
    manifest.compute_stats();
    manifest.serialize()
}

/// Pack `input` once into a fresh directory under `work` through a
/// counting seam, verify and replay it, and record the `bundle.*`
/// ledger. The pack must publish the manifest computed from the input
/// alone, its own fsck and `verify` must be clean and the replay `ok()`.
fn bundle_probe(work: &Path, input: &BundleInput, ledger: &mut Ledger) -> io::Result<Checked> {
    let dir = fresh_dir(work);
    let vfs = Arc::new(CountingVfs::default());
    let store = BlobStore::with_vfs(&dir, vfs.clone())?;
    let (packed, pack_s) = timed(|| pack_verified(&store, input, SCRUB_ROUNDS));
    let (pack, fsck) = packed?;
    let (verified, verify_s) = timed(|| verify(&store));
    let (replay, replay_s) = timed(|| replay_campaign_bundle(&dir, Some(PROVIDER)));
    let mut checked = Checked::default();
    checked.op(fsck.clean() && pack.manifest.serialize() == expected_manifest(input));
    checked.op(verified?.clean());
    checked.op(replay?.ok());
    let tally = vfs.tally();
    ledger.set("bundle.pack_s", pack_s);
    ledger.set("bundle.blobs_new", pack.new_blobs as f64);
    ledger.set("bundle.syncs", tally.syncs() as f64);
    ledger.set("bundle.sync_s", tally.sync_s());
    ledger.set("bundle.bytes_written", tally.bytes_written as f64);
    ledger.set("bundle.dedup_ratio", pack.dedup_ratio());
    ledger.set("bundle.verify_s", verify_s);
    ledger.set("bundle.replay_s", replay_s);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(checked)
}

impl Workload for DurableObserved {
    type Output = Observed;
    const OPS: u64 = 3;

    fn setup(seed: u64, size: Size, work: &Path) -> io::Result<Self> {
        let (n_sites, domains, every, crash_at) = match size {
            Size::Full => (100_000, 1_000, 250, 3_000),
            Size::Tiny => (2_000, 20, 10, 60),
        };
        let world = World::new(WorldConfig {
            n_sites,
            seed,
            adoption: AdoptionConfig::default(),
        });
        let root = SeedTree::new(seed);
        let list = build_toplist(&world, domains, root.child("toplist"));
        let mut w = DurableObserved {
            world,
            list,
            seed: root.child("campaign"),
            work: work.to_path_buf(),
            every,
            crash_at,
            reference_state: String::new(),
        };
        // Reference: the uninterrupted, sequential, recorder-free run.
        let dir = fresh_dir(work);
        let store = CheckpointStore::open(&dir)?;
        set_recorders(Recorders::Off);
        let (run, _, _) = w.incarnation(&store, Recorders::Off, 1, CrashPlan::none())?;
        let _ = std::fs::remove_dir_all(&dir);
        if run.outcome != DurableOutcome::Complete {
            return Err(io::Error::other(format!(
                "reference durable run ended {:?}",
                run.outcome
            )));
        }
        w.reference_state = run.state.export();
        Ok(w)
    }

    fn items(&self) -> u64 {
        self.pairs()
    }

    fn digest(&self) -> u64 {
        digest(&self.reference_state)
    }

    fn rep(&mut self) -> io::Result<Observed> {
        let dir = fresh_dir(&self.work);
        let store = CheckpointStore::open(&dir)?;
        self.observed(&store, dir, Recorders::ObsWatch)
    }

    fn finish(&mut self, out: Observed) -> Checked {
        self.settle(&out)
    }

    fn traced(&mut self, seconds: f64, ledger: &mut Ledger) -> io::Result<(Vec<f64>, Checked)> {
        let mut checked = Checked::default();
        let mut last = None;
        let (mut trace_s, mut obs_s, mut watch_s, mut unaccounted) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut failure = None;
        let traced = repeat_for(seconds, 1, || {
            let dir = fresh_dir(&self.work);
            let vfs = Arc::new(CountingVfs::default());
            let (out, rep_s) = timed(|| {
                let store = CheckpointStore::with_vfs(&dir, DEFAULT_KEEP, vfs.clone())?;
                self.observed(&store, dir.clone(), Recorders::ObsWatch)
            });
            match out {
                Ok(out) => {
                    let tally = vfs.tally();
                    trace_s.push(out.trace_s);
                    obs_s.push(out.obs_s);
                    watch_s.push(out.watch_s);
                    unaccounted
                        .push(rep_s - tally.total_s() - out.trace_s - out.obs_s - out.watch_s);
                    checked.add(self.settle(&out));
                    last = Some((out, tally));
                }
                Err(e) => {
                    checked.fail(Self::OPS);
                    failure = Some(e);
                }
            }
            rep_s
        });
        if let Some(e) = failure {
            return Err(e);
        }
        let (out, tally) = last.expect("at least one traced repetition");
        let pairs = self.pairs() as f64;
        ledger.set("checkpoint.cuts", tally.calls(Op::Rename) as f64);
        ledger.set("checkpoint.bytes_written", tally.bytes_written as f64);
        ledger.set(
            "checkpoint.bytes_per_pair",
            tally.bytes_written as f64 / pairs,
        );
        ledger.set("checkpoint.syncs", tally.syncs() as f64);
        ledger.set("checkpoint.sync_s", tally.sync_s());
        ledger.set(
            "checkpoint.write_s",
            tally.seconds(Op::Create) + tally.seconds(Op::Write) + tally.seconds(Op::Rename),
        );
        ledger.set(
            "checkpoint.recrawled_pairs",
            self.crash_at.saturating_sub(Self::durable_pairs(&out)) as f64,
        );
        ledger.set(
            "supervisor.retries",
            (out.first.health.retries + out.second.health.retries) as f64,
        );
        ledger.set("trace.export_s", median(&trace_s));
        ledger.set("trace.export_bytes", out.trace_bytes as f64);
        ledger.set("obs.samples", out.obs_samples as f64);
        ledger.set("obs.export_s", median(&obs_s));
        ledger.set("watch.alert_events", out.alert_events as f64);
        ledger.set("watch.export_s", median(&watch_s));
        ledger.set("bench.unaccounted_s", median(&unaccounted));

        // Archiving the finished campaign gives the bundle layer's
        // ledger without putting its fsyncs into the timed repetitions.
        let ctx = ArchiveContext::from_campaign(
            campaign_day(),
            &self.list,
            &Vantage::table1_columns(),
            &self.seed,
        );
        let artifacts = CampaignArtifacts {
            results: vec![&out.second.result],
            ..CampaignArtifacts::default()
        };
        let (input, input_s) =
            timed(|| build_bundle_input(&out.second.state, &ctx, &artifacts, Some(PROVIDER)));
        ledger.set("bundle.input_s", input_s);
        checked.add(bundle_probe(&self.work, &input, ledger)?);

        self.recover_probe(ledger, &mut checked)?;
        self.recorder_ladder(ledger, &mut checked)?;
        Ok((traced, checked))
    }
}
