//! Crash-safe campaign execution over a durable checkpoint store.
//!
//! The plain driver
//! ([`resume_campaign_parallel`](crate::resume_campaign_parallel))
//! keeps state in memory and leaves persistence to the caller. This
//! module closes the loop: [`run_durable_campaign`] builds the
//! campaign's set-up once per process incarnation, processes pairs in
//! chunks through the same driver loop, and writes each cut to a
//! [`CheckpointStore`] as the two `CampaignState` logs (the capture-db
//! and provenance sections), plus the watchdog's `watch-state` blob
//! when one is attached — so a process death at any instant loses at
//! most one chunk of work. Checkpoints hold nothing a log can derive:
//! no cursor (it is the row count), no dead-letter list (it is the
//! provenance records with the dead-letter flag set), and no copy of
//! the trace log; see [below](#the-trace-on-resume).
//!
//! # Recovery and salvage rules
//!
//! On start, [`recover_state`] walks the store newest-generation-first:
//!
//! 1. A generation that validates end-to-end (every section CRC intact)
//!    is reassembled and imported. If the *semantic* import fails despite
//!    intact CRCs, the generation is quarantined like a corrupt one and
//!    the walk continues.
//! 2. A corrupt generation is quarantined by the store, but its
//!    individually intact sections are still considered: if `capture-db`
//!    and `provenance` both survived, the state is salvaged from them (a
//!    lost `watch-state` only restarts the watchdog's detectors).
//! 3. Otherwise the next-older generation is tried; with none left the
//!    campaign restarts fresh.
//!
//! Every decision is recorded in the returned
//! [`SalvageReport`]. Because pair processing is deterministic, any
//! pairs lost to a quarantined generation are simply re-crawled, and the
//! final exports reconcile byte-for-byte with an uninterrupted run.
//! Generations written in an older layout — with a copy of the trace
//! log, a `meta` cursor section or a `dead-letters` view — recover the
//! same way: recovery reads only the sections named here.
//!
//! # The trace on resume
//!
//! A pair's trace, like its capture, is a pure function of the pair, so
//! the driver recomputes it instead of persisting it. When tracing is
//! on and the global trace log is empty after recovery — a freshly
//! restarted process — the driver re-crawls the recovered pairs
//! `0..pairs_done` and drops their outputs. The replay is one pass of
//! the streaming pool over the whole range on the run's thread count
//! (at least the calling thread): outputs are dropped in pair order as
//! they arrive, so it holds only the batches still waiting for their
//! turn, and the resumed trace export equals an uninterrupted run's
//! byte for byte.
//!
//! The replay runs before the observation window opens (see
//! [below](#one-observation-window)), so no sample or alert window
//! counts its telemetry or recovery's. The registry's totals do: a
//! resumed incarnation's counters, gauges and histograms also count
//! the replayed crawl — engine captures, injected faults, detections,
//! breaker opens, contained panics and `campaign.pair` spans — though
//! not its application (`campaign.outcome`, `campaign.dead_letter` and
//! the other counts taken when a pair is applied).
//!
//! # One observation window
//!
//! The [sampler](DurableOpts::sampler) and the
//! [watch](DurableOpts::watch) read one window the driver owns: a
//! global-registry baseline and the cursor it was taken at, opened
//! after recovery, the `watch-state` import and the trace replay. The
//! watch judges it at every attempt of the next checkpoint write,
//! counting the write that will close it, so a write's faults and
//! retries are judged in the window this write closes. Once the write
//! is durable the sampler records the window, the watch commits, and
//! the window moves to that point; a skipped or torn write leaves it
//! open. A window thus reaches the OBS and ALERTS exports iff it is
//! durable, so both are byte-identical across thread counts and
//! kill-halfway resumes.
//!
//! # Delta chains
//!
//! With [`CheckpointMode::Delta`] and a nonzero `rebase_every`,
//! generations form *chains*: a full base followed by delta generations
//! whose sections carry only what was appended since the previous cut —
//! new capture rows (in the capture-db delta format, see
//! `docs/STORAGE.md`) and new provenance record lines. A delta cut
//! therefore costs O(captures since the last cut) instead of
//! O(campaign so far). Chain structure lives in the
//! [`SECTION_DELTA_META`] section (`parent=`/`base=` links); filenames
//! and generation numbering are unchanged, and the chain base is pinned
//! against rotation via
//! [`CheckpointStore::save_with_min_retained`]. Recovery walks the
//! parent links and replays deltas in order through the same importers
//! a full generation uses; a corrupt or missing chain member
//! quarantines itself, the head, and everything between — the walk then
//! retries from the shorter chain below the break, an older full
//! generation, or scratch. After `rebase_every` deltas (and at the
//! first cut of every process incarnation) the driver writes a fresh
//! full base, bounding chain length and unpinning the old base. None of
//! this changes the bytes: the reassembled state passes the identical
//! semantic import, and exports stay byte-identical across modes,
//! thread counts, and kill-halfway resumes.
//!
//! # Deterministic crashes
//!
//! [`DurableOpts::crash`] accepts a [`CrashPlan`]: the driver dies —
//! cooperatively, returning [`DurableOutcome::Crashed`] — immediately
//! after the Nth applied pair (before the covering checkpoint is
//! written) or by tearing the Nth checkpoint write after a byte budget.
//! `tests/it_durability.rs` sweeps every such crashpoint of a small
//! campaign and asserts resumed runs are byte-identical to
//! uninterrupted ones.
//!
//! # Storage faults and self-healing
//!
//! Every checkpoint write runs under a
//! [`Supervisor`]: transient storage
//! errors are retried with capped deterministic backoff out of a
//! per-campaign budget, persistent ones (`ENOSPC`) descend the
//! degradation ladder — widen cadence → memory-only — so the run always
//! ends [`DurableOutcome::Complete`],
//! [`DurableOutcome::Degraded`] (with a loud
//! [`HealthReport`]), or
//! [`DurableOutcome::Crashed`], never wedged. Faults are injected
//! deterministically at the store's [`Vfs`](consent_checkpoint::Vfs)
//! seam: the caller opens the store with
//! [`CheckpointStore::with_vfs`] over `consent-faultsim`'s
//! `FaultyVfs`, and the campaign's bundle is packed through the same
//! seam. Whatever the disk does, the final `CampaignState` and trace
//! exports stay byte-identical — only *durability* degrades, never the
//! measurement.

use std::io;
use std::sync::Arc;

use consent_bundle::BlobStore;
use consent_checkpoint::{CheckpointStore, Section};
use consent_faultsim::CrashPlan;
use consent_httpsim::Vantage;
use consent_obs::Sampler;
use consent_util::{Day, SeedTree};
use consent_watch::{Watch, WATCH_STATE_SECTION};
use consent_webgraph::World;

pub use consent_checkpoint::SalvageReport;

use crate::archive::{pack_campaign_bundle, ArchiveContext, CampaignArtifacts, ExportFn};
use crate::campaign::{CampaignConfig, CampaignResult, CampaignState};
use crate::capture_db::DbMarks;
use crate::export::export as export_db;
use crate::export::import as import_db;
use crate::export::{apply_delta, check_domains, export_delta};
use crate::parallel::CampaignPlan;
use crate::supervisor::{DegradeLevel, HealthReport, SaveVerdict, Supervisor, SupervisorPolicy};

/// Checkpoint section holding the capture database.
pub const SECTION_DB: &str = "capture-db";
/// Checkpoint section holding the provenance log.
pub const SECTION_PROVENANCE: &str = "provenance";

/// Checkpoint section marking a generation as a delta and carrying its
/// chain links (`parent=`/`base=`). Its *presence* is what
/// distinguishes a delta generation from a full one — filenames are
/// identical, so generation numbering and rotation stay uniform.
pub const SECTION_DELTA_META: &str = "delta-meta";
/// Delta section: capture rows appended since the parent generation, in
/// the `#consent-capture-db-delta v1` format
/// (see [`export_delta`]).
pub(crate) const SECTION_DB_DELTA: &str = "capture-db-delta";
/// Delta section: provenance record lines appended since the parent.
pub(crate) const SECTION_PROVENANCE_DELTA: &str = "provenance-delta";

/// First line of a [`SECTION_DELTA_META`] body.
pub const DELTA_META_HEADER: &str = "#consent-delta-meta v1";

/// What each checkpoint generation contains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointMode {
    /// Generations form chains: a full *base* followed by deltas that
    /// carry only the rows/records appended since the previous cut, so
    /// each write costs O(new captures) instead of O(campaign).
    Delta {
        /// Delta cuts between full bases. After this many deltas the
        /// next cut rebases (writes a fresh full snapshot), bounding
        /// both recovery reassembly work and how long rotation must
        /// pin the chain base. `0` (the default) writes every
        /// generation as a self-contained snapshot and keeps no chain.
        rebase_every: u64,
    },
}

/// Post-completion archival: pack the finished campaign into a
/// content-addressed bundle (see [`crate::archive`]).
///
/// The pack runs after the final checkpoint is durable, through
/// [`pack_campaign_bundle`] on the checkpoint store's own
/// [`Vfs`](consent_checkpoint::Vfs) (so a faulty store faults its
/// archive too), with scrub-until-clean verification
/// ([`SCRUB_ROUNDS`](crate::archive::SCRUB_ROUNDS)). It is
/// supervisor-aware: a campaign that degraded to memory-only skips the
/// pack (the disk has proven unusable) and records why in the
/// [`HealthReport`]; a pack failure downgrades the outcome to
/// [`DurableOutcome::Degraded`] without touching the campaign state.
#[derive(Clone)]
pub struct BundleSpec {
    /// Bundle directory (created if needed).
    pub dir: std::path::PathBuf,
    /// Analysis-export provider for the bundle's `analysis` section —
    /// the code replay later re-runs for the byte-identity check.
    pub provider: Option<Arc<ExportFn>>,
    /// A GVL snapshot (compact JSON) to archive alongside the state.
    pub gvl_json: Option<String>,
}

impl std::fmt::Debug for BundleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BundleSpec")
            .field("dir", &self.dir)
            .field("provider", &self.provider.as_ref().map(|_| "<fn>"))
            .field("gvl_json", &self.gvl_json.as_ref().map(String::len))
            .finish()
    }
}

/// How a durable campaign runs.
#[derive(Clone, Debug)]
pub struct DurableOpts {
    /// Crawling threads per chunk, the calling thread included, as in
    /// [`ParallelOpts::threads`](crate::ParallelOpts::threads):
    /// `threads - 1` helpers are spawned, and `<= 1` crawls each chunk
    /// in pair order on the calling thread.
    pub threads: usize,
    /// Campaign behavior: chaos profile, retry schedule, breaker.
    pub config: CampaignConfig,
    /// Pairs per checkpoint: after every `checkpoint_every` applied
    /// pairs a new generation is written. Clamped to at least 1.
    pub checkpoint_every: u64,
    /// Deterministic crash schedule for this run ([`CrashPlan::none`]
    /// for production use).
    pub crash: CrashPlan,
    /// Optional flight-recorder sampler, which
    /// [records](Sampler::record) each observation window right after
    /// the checkpoint write that makes it durable (see the
    /// [module docs](self#one-observation-window)).
    pub sampler: Option<Arc<Sampler>>,
    /// Optional SLO/anomaly watchdog over the same window. The driver
    /// imports the `watch-state` section the previous incarnation
    /// persisted, [stages](Watch::stage) the open window at every write
    /// attempt (the state blob rides inside the checkpoint), then
    /// *commits* on a durable write or *aborts* on a skipped or torn
    /// one.
    pub watch: Option<Arc<Watch>>,
    /// Self-healing policy for storage faults: retry budget, backoff
    /// caps, cadence widening, recovery attempts (see
    /// [`Supervisor`]).
    pub supervisor: SupervisorPolicy,
    /// Full snapshots every cut, or delta chains (see
    /// [`CheckpointMode`]). A resumed run always opens its incarnation
    /// with a full base, so chains never span process restarts.
    pub mode: CheckpointMode,
    /// Pack the completed campaign into a content-addressed bundle
    /// (see [`BundleSpec`]). `None` skips archival entirely.
    pub bundle: Option<BundleSpec>,
}

impl Default for DurableOpts {
    /// One thread (pairs in order), default config, checkpoint every 25
    /// pairs, no crash, full snapshots (`rebase_every: 0`).
    fn default() -> DurableOpts {
        DurableOpts {
            threads: 1,
            config: CampaignConfig::default(),
            checkpoint_every: 25,
            crash: CrashPlan::none(),
            sampler: None,
            watch: None,
            supervisor: SupervisorPolicy::default(),
            mode: CheckpointMode::Delta { rebase_every: 0 },
            bundle: None,
        }
    }
}

/// How a durable run ended. Never "wedged": a campaign always reaches
/// one of these three verdicts, whatever the disk does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurableOutcome {
    /// Every pair was processed and the final checkpoint is on disk.
    Complete,
    /// Every pair was processed, but storage faults forced the
    /// supervisor down its degradation ladder — the campaign *state* is
    /// still byte-identical to a healthy run, but durability guarantees
    /// were shed along the way (see the report's ladder level).
    Degraded(HealthReport),
    /// The configured [`CrashPlan`] fired: the simulated process died.
    Crashed {
        /// The crashpoint that fired (its `Display` form).
        crashpoint: String,
        /// `pairs_done` of the last checkpoint known durable on disk —
        /// everything after it dies with the process and is re-crawled
        /// on resume.
        durable_pairs: u64,
    },
}

impl DurableOutcome {
    /// True when every pair was processed (`Complete` or `Degraded`).
    pub fn finished(&self) -> bool {
        !matches!(self, DurableOutcome::Crashed { .. })
    }
}

/// The result of one [`run_durable_campaign`] invocation.
#[derive(Debug)]
pub struct DurableRun {
    /// Cumulative state at exit (on a crash, the in-memory state the
    /// dead process would have lost back to `durable_pairs`).
    pub state: CampaignState,
    /// Records of the pairs processed by this invocation only.
    pub result: CampaignResult,
    /// Whether the run completed, degraded, or a crashpoint fired.
    pub outcome: DurableOutcome,
    /// Everything recovery found and did when opening the store.
    pub salvage: SalvageReport,
    /// The supervisor's full ledger for this run — populated even for
    /// `Complete` outcomes (a healed transient fault leaves traces
    /// here without degrading the run).
    pub health: HealthReport,
    /// The archival pack report, when [`DurableOpts::bundle`] was set
    /// and the pack ran (i.e. the campaign finished and storage had not
    /// degraded to memory-only). The report's manifest has a clean fsck
    /// behind it — `pack_campaign_bundle` scrubs until verification
    /// passes or gives up with an error.
    pub bundle: Option<consent_bundle::PackReport>,
}

/// Build the two sections of a full checkpoint. Their concatenation
/// is exactly [`CampaignState::export`], and recovery imports them with
/// [`CampaignState::from_sections`].
pub(crate) fn state_sections(state: &CampaignState) -> Vec<Section> {
    state
        .sections()
        .into_iter()
        .map(|(name, body)| Section::new(name, body))
        .collect()
}

/// Where each appendable store component stood at one checkpoint cut —
/// the cursor a delta generation is written *from*. Captured on the
/// merge thread at a quiescent point, so every field is deterministic.
#[derive(Clone, Debug)]
pub(crate) struct DeltaMarks {
    /// Capture-db per-shard row counts + host count.
    db: DbMarks,
    /// Provenance records.
    prov: usize,
}

impl DeltaMarks {
    /// Snapshot the cursors of `state` now.
    pub(crate) fn capture(state: &CampaignState) -> DeltaMarks {
        DeltaMarks {
            db: state.db.marks(),
            prov: state.provenance.len(),
        }
    }
}

/// The driver's cursor into an open delta chain: where each store
/// component stood at the last durable cut. Marks advance only on
/// [`SaveVerdict::Saved`] — a skipped (memory-only) write leaves them
/// alone so the next delta covers both chunks.
#[derive(Debug)]
struct ChainMarks {
    /// Generation of the chain's full base.
    base: u64,
    /// Newest durable chain member (the next delta's `parent=`).
    head: u64,
    /// Delta cuts since the base, for the rebase cadence.
    deltas: u64,
    /// Component cursors at the head.
    marks: DeltaMarks,
}

/// Build the sections of one delta generation: the chain links
/// (`parent`/`base` generation numbers), then one appended-only section
/// per log. Total size is O(captures since `marks`).
pub(crate) fn delta_state_sections(
    state: &CampaignState,
    marks: &DeltaMarks,
    parent: u64,
    base: u64,
) -> Vec<Section> {
    vec![
        Section::new(
            SECTION_DELTA_META,
            format!("{DELTA_META_HEADER}\nparent={parent}\nbase={base}\n"),
        ),
        Section::new(SECTION_DB_DELTA, export_delta(&state.db, &marks.db)),
        Section::new(
            SECTION_PROVENANCE_DELTA,
            state.provenance.export_from(marks.prov),
        ),
    ]
}

/// Parse a [`SECTION_DELTA_META`] body into `(parent, base)`.
fn parse_delta_meta(body: &str) -> Option<(u64, u64)> {
    let mut lines = body.lines();
    if lines.next()? != DELTA_META_HEADER {
        return None;
    }
    let parent = lines.next()?.strip_prefix("parent=")?.parse().ok()?;
    let base = lines.next()?.strip_prefix("base=")?.parse().ok()?;
    Some((parent, base))
}

/// Try to salvage a state (and its watch-state snapshot) from the
/// individually intact sections of one quarantined generation. The
/// `watch-state` section is optional — losing it only resets detector
/// windows, never measurement state.
fn salvage_from(q: &consent_checkpoint::QuarantinedGeneration) -> Option<(CampaignState, String)> {
    let sec = |name: &str| q.salvaged.iter().find(|s| s.name == name);
    let state =
        CampaignState::from_sections(&sec(SECTION_DB)?.body, &sec(SECTION_PROVENANCE)?.body)
            .ok()?;
    let watch = sec(WATCH_STATE_SECTION)
        .map(|s| s.body.clone())
        .unwrap_or_default();
    Some((state, watch))
}

/// A fully reassembled delta chain.
struct AssembledChain {
    state: CampaignState,
    /// The head's `watch-state` blob (empty if absent).
    watch: String,
    /// Chain length excluding the base, for the report.
    deltas: u64,
    /// The base generation, for the report.
    base: u64,
}

/// Why a chain could not be used, and which generations it takes down.
struct ChainFailure {
    reason: String,
    /// Chain members to quarantine: the head, every delta walked before
    /// the failure, and the failed member itself. Members *older* than
    /// the failure stay live — the next recovery pass reassembles the
    /// shorter chain that ends just below it.
    implicated: Vec<u64>,
}

/// Walk a delta chain from its head down the `parent=` links to the
/// full base, then replay every delta in ascending order: capture rows
/// through [`apply_delta`] (the normal insert path, so seals and
/// telemetry reconcile), provenance lines by text concatenation. The
/// reassembled state passes the same semantic import as a full
/// generation.
fn assemble_chain(
    store: &CheckpointStore,
    head: consent_checkpoint::Checkpoint,
) -> Result<AssembledChain, ChainFailure> {
    let sec = |c: &consent_checkpoint::Checkpoint, name: &str| {
        c.section(name).map(|s| s.body.clone()).unwrap_or_default()
    };
    // Newest-first walk; `members` collects the delta generations.
    let mut members = vec![head];
    let mut implicated = vec![members[0].generation];
    let base = loop {
        let Some(cur) = members.last() else {
            // Unreachable by construction (the walk starts with the
            // head), but a graceful chain failure beats a panic inside
            // recovery.
            return Err(ChainFailure {
                reason: "chain walk lost its head".into(),
                implicated,
            });
        };
        let Some((parent, _chain_base)) = parse_delta_meta(&sec(cur, SECTION_DELTA_META)) else {
            return Err(ChainFailure {
                reason: format!(
                    "generation {}: malformed delta-meta section",
                    cur.generation
                ),
                implicated,
            });
        };
        if parent >= cur.generation {
            return Err(ChainFailure {
                reason: format!(
                    "generation {}: non-decreasing parent link {parent}",
                    cur.generation
                ),
                implicated,
            });
        }
        let scan = match store.scan_generation(parent) {
            Ok(scan) => scan,
            Err(e) => {
                return Err(ChainFailure {
                    reason: format!("chain parent generation {parent} unreadable: {e}"),
                    implicated,
                })
            }
        };
        if !scan.intact() {
            implicated.push(parent);
            return Err(ChainFailure {
                reason: format!(
                    "chain member generation {parent} corrupt: {}",
                    scan.describe()
                ),
                implicated,
            });
        }
        let Some(ckpt) = scan.into_checkpoint() else {
            implicated.push(parent);
            return Err(ChainFailure {
                reason: format!(
                    "chain member generation {parent} scanned intact but yielded no checkpoint"
                ),
                implicated,
            });
        };
        if ckpt.section(SECTION_DELTA_META).is_some() {
            implicated.push(parent);
            members.push(ckpt);
            continue;
        }
        break ckpt;
    };
    // Semantic failures below poison the whole chain, base included.
    let whole_chain = || {
        let mut all = implicated.clone();
        all.push(base.generation);
        all
    };
    let mut db = match import_db(&sec(&base, SECTION_DB)) {
        Ok(db) => db,
        Err(e) => {
            return Err(ChainFailure {
                reason: format!(
                    "chain base generation {} capture-db unimportable: line {}: {}",
                    base.generation, e.line, e.message
                ),
                implicated: whole_chain(),
            })
        }
    };
    let mut provenance = sec(&base, SECTION_PROVENANCE);
    members.reverse(); // ascending: oldest delta first, head last
    for member in &members {
        if let Err(e) = apply_delta(&mut db, &sec(member, SECTION_DB_DELTA)) {
            return Err(ChainFailure {
                reason: format!(
                    "generation {} capture-db delta rejected: line {}: {}",
                    member.generation, e.line, e.message
                ),
                implicated: whole_chain(),
            });
        }
        provenance.push_str(&sec(member, SECTION_PROVENANCE_DELTA));
    }
    let Some(head) = members.last() else {
        return Err(ChainFailure {
            reason: "chain reassembly lost its members".into(),
            implicated: whole_chain(),
        });
    };
    let state =
        CampaignState::from_sections(&export_db(&db), &provenance).map_err(|e| ChainFailure {
            reason: format!("reassembled chain failed state import: {e}"),
            implicated: whole_chain(),
        })?;
    Ok(AssembledChain {
        state,
        watch: sec(head, WATCH_STATE_SECTION),
        deltas: members.len() as u64,
        base: base.generation,
    })
}

/// Open the newest usable state in `store` per the salvage rules in the
/// [module docs](self). Returns the state, the persisted `watch-state`
/// section body (empty when the generation predates the watchdog or
/// lost it to corruption), and the full salvage report. A clean empty
/// store yields a fresh state and a clean report.
pub fn recover_state(
    store: &CheckpointStore,
) -> io::Result<(CampaignState, String, SalvageReport)> {
    let mut report = SalvageReport::default();
    loop {
        let (ckpt, found) = store.open_latest()?;
        report.absorb(found);
        // A quarantined-but-partially-intact newer generation beats the
        // older fully intact one: fewer pairs to re-crawl.
        for q in report.quarantined.clone() {
            if let Some((state, watch)) = salvage_from(&q) {
                report.used_generation = None;
                report.note(format!(
                    "salvaged state ({} pairs) from quarantined generation {}",
                    state.pairs_done, q.generation
                ));
                return Ok((state, watch, report));
            }
        }
        let Some(ckpt) = ckpt else {
            if !report.is_clean() {
                report.note("no generation usable: restarting campaign from scratch".to_string());
            }
            return Ok((CampaignState::new(), String::new(), report));
        };
        if ckpt.section(SECTION_DELTA_META).is_some() {
            let head_gen = ckpt.generation;
            match assemble_chain(store, ckpt) {
                Ok(chain) => {
                    report.used_generation = Some(head_gen);
                    report.note(format!(
                        "recovered delta chain: base generation {} + {} delta(s), head {} ({} pairs)",
                        chain.base, chain.deltas, head_gen, chain.state.pairs_done
                    ));
                    consent_telemetry::count("checkpoint.chain.recovered", 1);
                    consent_telemetry::observe("checkpoint.chain.deltas", chain.deltas);
                    return Ok((chain.state, chain.watch, report));
                }
                Err(fail) => {
                    // A broken link takes down the head and everything
                    // between it and the break; older members stay live
                    // so the next pass can use the shorter chain (or an
                    // older generation, or restart from scratch).
                    report.used_generation = None;
                    for g in fail.implicated {
                        let scan = store.scan_generation(g).ok();
                        match store.quarantine_generation(g, scan, fail.reason.clone()) {
                            Ok(q) => report.record_quarantine(q),
                            Err(_) => report.note(format!(
                                "chain member generation {g} vanished before quarantine"
                            )),
                        }
                    }
                    continue;
                }
            }
        }
        let get = |name: &str| ckpt.section(name).map(|s| s.body.as_str()).unwrap_or("");
        match CampaignState::from_sections(get(SECTION_DB), get(SECTION_PROVENANCE)) {
            Ok(state) => return Ok((state, get(WATCH_STATE_SECTION).to_string(), report)),
            Err(e) => {
                // CRC-intact but semantically unimportable (e.g. a
                // hand-edited file): quarantine and fall back like any
                // other corruption.
                let g = ckpt.generation;
                let scan = store.scan_generation(g).ok();
                let reason = format!("sections intact but state import failed: {e}");
                report.record_quarantine(store.quarantine_generation(g, scan, reason)?);
                report.used_generation = None;
            }
        }
    }
}

/// Run (or resume) a campaign with durable checkpoints.
///
/// Refuses, with [`io::ErrorKind::InvalidInput`] and before touching
/// `store`, a domain its own checkpoints could not hold: one with a
/// tab, newline or carriage return, or whose host (the part before any
/// `/`) is empty or has a dot-separated label that starts with `#`.
/// Then recovers the newest usable state from `store` (salvaging or
/// quarantining corrupt generations as needed), builds the campaign's
/// set-up once, re-crawls the recovered pairs to rebuild their trace
/// (only when tracing is enabled and the global trace log is empty — a
/// freshly restarted process; see the [module docs](self)), then
/// processes the remaining pairs in chunks of `opts.checkpoint_every`,
/// writing a checkpoint generation after each chunk.
///
/// Determinism: chunking, thread count, crashes, and salvage never
/// change the bytes — a resumed run's final `state.export()` and trace
/// export equal an uninterrupted run's, because pair processing is a
/// pure function of the pair identity and application order is always
/// the deterministic pair order.
pub fn run_durable_campaign(
    world: &World,
    domains: &[String],
    day: Day,
    vantages: &[Vantage],
    seed: SeedTree,
    store: &CheckpointStore,
    opts: &DurableOpts,
) -> io::Result<DurableRun> {
    check_domains(domains)?;
    let mut sup = Supervisor::new(opts.supervisor);
    let (mut state, watch_jsonl, salvage) = match sup.recover_with(|| recover_state(store)) {
        Ok(v) => v,
        Err(err) => {
            // The on-disk history is unreadable even after retries.
            // Restart from scratch rather than wedge: pair processing
            // is deterministic, so a full re-crawl reproduces the same
            // final state the history would have yielded.
            let mut report = SalvageReport::default();
            report.note(format!(
                "storage recovery abandoned ({err}): restarting campaign from scratch"
            ));
            (CampaignState::new(), String::new(), report)
        }
    };
    let mut durable_pairs = state.pairs_done;
    let mut every = opts.checkpoint_every.max(1);
    let CheckpointMode::Delta { rebase_every } = opts.mode;

    // The campaign's set-up, once for this incarnation; every chunk
    // below runs through it. The recovered cursor is this incarnation's
    // resume skip, counted once and before the observation window
    // opens, so no window attributes it.
    let plan = CampaignPlan::new(world, domains, day, vantages, seed, &opts.config);
    consent_telemetry::count("campaign.pairs_skipped", plan.skipped(&state));
    // A traced process that starts with an empty log has no events for
    // the recovered pairs: re-crawl them, since checkpoints hold no
    // copy of the trace.
    if consent_trace::enabled() && consent_trace::global().is_empty() {
        plan.replay(state.pairs_done, opts.threads);
    }

    // Restore the detector state the previous incarnation persisted
    // (only into a fresh watch — a rejected blob, e.g. after a
    // rule-config change, just restarts the detectors).
    if let Some(watch) = &opts.watch {
        if !watch_jsonl.is_empty() && watch.is_fresh() && watch.import_state(&watch_jsonl).is_err()
        {
            consent_telemetry::count("watch.state.rejected", 1);
        }
    }
    // Open the observation window only now: recovery and the replay
    // re-count work this process never performed (checkpoint import,
    // `checkpoint.opens`, the re-crawl), which no window may attribute.
    let registry = consent_telemetry::global();
    let mut window = (opts.sampler.is_some() || opts.watch.is_some())
        .then(|| (registry.snapshot(), state.pairs_done));

    let mut cadence_widened = false;
    let mut applied_this_run = 0u64;
    let mut writes_this_run = 0u64;
    let mut result: Option<CampaignResult> = None;
    // The open delta chain, if any. Always `None` at process start —
    // even a resumed run writes a fresh full base at its first cut, so
    // chains never span incarnations and the driver never has to
    // reconstruct disk-relative marks from a recovered state — and
    // always `None` with `rebase_every: 0`, where every cut is full.
    let mut chain: Option<ChainMarks> = None;
    // The health report carries the watchdog's fired alerts on every
    // exit path — a crashed run's report still names what was firing.
    let health_of = |sup: &Supervisor| {
        let mut health = sup.report();
        if let Some(watch) = &opts.watch {
            health.alerts = watch.fired_summaries();
        }
        health
    };
    let crashed = |state: CampaignState,
                   result: Option<CampaignResult>,
                   durable_pairs,
                   salvage,
                   sup: &Supervisor| DurableRun {
        state,
        result: result.unwrap_or_default(),
        outcome: DurableOutcome::Crashed {
            crashpoint: opts.crash.describe(),
            durable_pairs,
        },
        salvage,
        health: health_of(sup),
        bundle: None,
    };
    loop {
        let mut chunk = every;
        if let Some(n) = opts.crash.apply_point() {
            let remaining = n.saturating_sub(applied_this_run);
            if remaining == 0 {
                // Died immediately after the Nth applied pair — before
                // any checkpoint covering it could be written.
                return Ok(crashed(state, result, durable_pairs, salvage, &sup));
            }
            chunk = chunk.min(remaining);
        }
        let before = state.pairs_done;
        let run = plan.run(state, opts.threads, Some(chunk));
        state = run.state;
        let did = state.pairs_done - before;
        // Heartbeat: cumulative pairs applied, advanced once per chunk.
        // Executor-agnostic (counted here, not in the workers), so its
        // per-window delta is deterministic at any thread count.
        consent_telemetry::count("campaign.progress", did);
        applied_this_run += did;
        result = Some(match result {
            Some(acc) => acc.merge(run.result),
            None => run.result,
        });
        if opts
            .crash
            .apply_point()
            .is_some_and(|n| applied_this_run >= n)
        {
            return Ok(crashed(state, result, durable_pairs, salvage, &sup));
        }
        if did > 0 || durable_pairs != state.pairs_done {
            writes_this_run += 1;
            // Checkpoint cadence: pairs of work covered by this write
            // (write size/latency are recorded by the store itself).
            consent_telemetry::observe("campaign.checkpoint.cadence_pairs", did);
            // This cut is a delta iff a chain is open and its rebase
            // cadence hasn't elapsed; otherwise it's a full snapshot
            // (which opens or rebases the chain when `rebase_every > 0`).
            let delta = chain.as_ref().filter(|c| c.deltas < rebase_every);
            let delta_write = delta.is_some();
            let build = || match delta {
                Some(c) => delta_state_sections(&state, &c.marks, c.head, c.base),
                None => state_sections(&state),
            };
            // Judge the open window at a write attempt, faults of this
            // cut's earlier attempts included; the detector state rides
            // inside the checkpoint and commits once it is durable.
            let stage = |sections: &mut Vec<Section>| {
                let (Some(watch), Some((base, from))) = (&opts.watch, &window) else {
                    return;
                };
                sections.retain(|s| s.name != WATCH_STATE_SECTION);
                if let Some(blob) = watch.stage((*from, state.pairs_done), &registry.delta(base)) {
                    sections.push(Section::new(WATCH_STATE_SECTION, blob));
                }
            };
            if let Some(keep_bytes) = opts.crash.write_truncation(writes_this_run) {
                let mut sections = build();
                stage(&mut sections);
                if store.save_torn(&sections, keep_bytes).is_err() {
                    // The dying process's torn write failed outright
                    // (e.g. injected storage chaos): even fewer bytes
                    // reached the disk, which changes nothing about the
                    // crash semantics — nothing durable was added.
                    consent_telemetry::count("checkpoint.io_fault", 1);
                }
                // The torn generation is not durable; the previous cut
                // is — and the staged watch window dies with the
                // process, like the window the sampler never recorded.
                if let Some(watch) = &opts.watch {
                    watch.abort();
                }
                return Ok(crashed(state, result, durable_pairs, salvage, &sup));
            }
            // Supervised write: retries, backoff, and ladder descent
            // all happen inside. The state sections are built at the
            // first attempt and reused by retries (only the watch is
            // re-staged); a memory-only supervisor makes no attempt, so
            // it never builds them. A delta write pins the chain base
            // against rotation; a full write imposes no floor.
            let mut sections = None;
            let verdict = sup.save_with(state.pairs_done, || {
                let sections = sections.get_or_insert_with(build);
                stage(sections);
                match delta {
                    Some(c) => store.save_with_min_retained(sections, c.base),
                    None => store.save(sections),
                }
            });
            if let SaveVerdict::Saved(generation) = verdict {
                durable_pairs = state.pairs_done;
                if rebase_every > 0 {
                    // Advance the chain cursor to this durable cut.
                    let marks = DeltaMarks::capture(&state);
                    let rebased = !delta_write && chain.is_some();
                    chain = Some(match chain.take() {
                        Some(mut c) if delta_write => {
                            c.head = generation;
                            c.deltas += 1;
                            c.marks = marks;
                            consent_telemetry::count("checkpoint.delta.writes", 1);
                            c
                        }
                        _ => ChainMarks {
                            base: generation,
                            head: generation,
                            deltas: 0,
                            marks,
                        },
                    });
                    if rebased {
                        consent_telemetry::count("checkpoint.rebase", 1);
                    }
                    consent_telemetry::gauge_set(
                        "checkpoint.chain.len",
                        chain.as_ref().map_or(0, |c| c.deltas as i64 + 1),
                    );
                }
                // Close the window only once its checkpoint is durable:
                // a window a crash could still lose must never reach an
                // export, or a resumed run would re-emit (double) it.
                if let Some((base, from)) = &mut window {
                    let now = registry.snapshot();
                    if let Some(sampler) = &opts.sampler {
                        sampler.record((*from, state.pairs_done), &now.delta_since(base));
                    }
                    if let Some(watch) = &opts.watch {
                        watch.commit();
                    }
                    *base = now;
                    *from = state.pairs_done;
                }
            } else if let Some(watch) = &opts.watch {
                // Skipped write (memory-only): the window stays open and
                // the next durable cut will cover it too.
                watch.abort();
            }
            // Entering wide-cadence widens the interval once, for the
            // rest of the run (memory-only keeps the widened value;
            // the chunk size also paces crashpoint checks).
            if !cadence_widened && sup.level() >= DegradeLevel::WideCadence {
                cadence_widened = true;
                every = every.saturating_mul(opts.supervisor.cadence_factor.max(1));
            }
        }
        if run.complete {
            let mut health = health_of(&sup);
            let result = result.unwrap_or_default();
            let mut bundle = None;
            let mut bundle_failed = false;
            if let Some(spec) = &opts.bundle {
                if sup.level() >= DegradeLevel::MemoryOnly {
                    // The supervisor has already concluded this disk
                    // cannot hold a checkpoint; don't fight it for an
                    // archive. The caller still has the in-memory state.
                    consent_telemetry::count("bundle.pack.skipped", 1);
                    health.events.push(crate::supervisor::HealthEvent {
                        pairs_done: state.pairs_done,
                        level: sup.level(),
                        reason: "bundle pack skipped: storage degraded to memory-only".into(),
                    });
                } else {
                    let ctx = ArchiveContext::from_campaign(day, domains, vantages, &seed);
                    let artifacts = CampaignArtifacts {
                        gvl_json: spec.gvl_json.clone(),
                        ..CampaignArtifacts::default()
                    };
                    let packed = BlobStore::with_vfs(&spec.dir, store.vfs()).and_then(|bundle| {
                        pack_campaign_bundle(
                            &bundle,
                            &state,
                            &ctx,
                            &artifacts,
                            spec.provider.as_deref(),
                        )
                    });
                    match packed {
                        Ok((report, _fsck)) => bundle = Some(report),
                        Err(e) => {
                            // The campaign itself finished; only the
                            // archive is missing. Degrade instead of
                            // erroring so the measurement survives.
                            bundle_failed = true;
                            consent_telemetry::count("bundle.pack.failures", 1);
                            health.events.push(crate::supervisor::HealthEvent {
                                pairs_done: state.pairs_done,
                                level: sup.level(),
                                reason: format!("bundle pack failed: {e}"),
                            });
                            health.last_error = Some(format!("bundle pack: {e}"));
                        }
                    }
                }
            }
            let outcome = if sup.degraded() || bundle_failed {
                DurableOutcome::Degraded(health.clone())
            } else {
                DurableOutcome::Complete
            };
            return Ok(DurableRun {
                state,
                result,
                outcome,
                salvage,
                health,
                bundle,
            });
        }
        debug_assert!(did > 0, "incomplete campaign made no progress");
        if did == 0 {
            return Err(io::Error::other(
                "durable campaign made no progress on an incomplete state",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::build_toplist;
    use crate::parallel::{resume_campaign_parallel, run_campaign_parallel, ParallelOpts};
    use crate::resilience::{BreakerConfig, RetryPolicy};
    use consent_faultsim::FaultProfile;
    use consent_webgraph::{AdoptionConfig, WorldConfig};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir() -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "consent-durable-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn quiet() -> CampaignConfig {
        CampaignConfig {
            fault_profile: FaultProfile::none(),
            retry: RetryPolicy::paper(),
            breaker: BreakerConfig::default(),
        }
    }

    fn small_state() -> CampaignState {
        let world = World::new(WorldConfig {
            n_sites: 400,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 6, SeedTree::new(7));
        run_campaign_parallel(
            &world,
            &list,
            consent_util::Day::from_ymd(2020, 5, 15),
            &[Vantage::eu_cloud()],
            SeedTree::new(9),
            &ParallelOpts {
                threads: 1,
                config: quiet(),
                max_pairs: None,
            },
        )
        .state
    }

    #[test]
    fn sections_concatenate_to_the_state_export() {
        let state = small_state();
        let sections = state_sections(&state);
        assert_eq!(
            sections.iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec![SECTION_DB, SECTION_PROVENANCE],
        );
        let concat: String = sections.iter().map(|s| s.body.as_str()).collect();
        assert_eq!(concat, state.export());
    }

    #[test]
    fn save_then_recover_round_trips() {
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let state = small_state();
        let mut sections = state_sections(&state);
        sections.push(Section::new(WATCH_STATE_SECTION, "watch\n"));
        store.save(&sections).unwrap();
        // "watch\n" is not a valid watch state, but recover_state only
        // carries the blob; importing it is the driver's job.
        let (back, watch, report) = recover_state(&store).unwrap();
        assert_eq!(back.export(), state.export());
        assert_eq!(watch, "watch\n");
        assert!(report.is_clean());
        assert_eq!(report.used_generation, Some(1));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_watch_state_is_salvaged_from_intact_sections() {
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let state = small_state();
        let mut sections = state_sections(&state);
        sections.push(Section::new(WATCH_STATE_SECTION, "watch\n"));
        let g = store.save(&sections).unwrap();
        // Flip one byte inside the watch-state body: it is the last
        // section, so its bytes end the file.
        let path = store.path_for(g);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - "watch\n".len();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let (back, watch, report) = recover_state(&store).unwrap();
        assert_eq!(back.export(), state.export(), "{}", report.render());
        assert!(watch.is_empty(), "a corrupt watch-state is dropped");
        assert_eq!(report.used_generation, None);
        assert_eq!(report.quarantined.len(), 1);
        assert!(
            report.actions.iter().any(|a| a.contains(&format!(
                "salvaged state ({} pairs) from quarantined generation {g}",
                state.pairs_done
            ))),
            "{}",
            report.render()
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn generation_with_a_trace_section_still_recovers() {
        // The layout full generations and bundle states had while they
        // also stored the `meta` cursor and the `dead-letters` view, and
        // a generation also a copy of the trace log. Recovery and replay
        // pick the capture-db and provenance sections by name, so the
        // older sections' bodies are never parsed; these stand in for
        // them.
        let state = small_state();
        let [db, provenance] = state.sections().map(|(_, body)| body);
        let older = [
            ("meta", format!("pairs_done={}\n", state.pairs_done)),
            (SECTION_DB, db),
            (
                "dead-letters",
                format!("{} dead letters\n", state.dead_letters().count()),
            ),
            (SECTION_PROVENANCE, provenance),
        ];
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let mut sections: Vec<Section> = older
            .iter()
            .map(|(name, body)| Section::new(*name, body.as_str()))
            .collect();
        sections.push(Section::new(
            "trace-jsonl",
            "{\"kind\":\"trace_event\",\"name\":\"pair\"}\n",
        ));
        store.save(&sections).unwrap();
        let (back, watch, report) = recover_state(&store).unwrap();
        assert_eq!(back.export(), state.export());
        assert_eq!(back.pairs_done, state.pairs_done);
        assert!(watch.is_empty());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.used_generation, Some(1));

        // A bundle whose `state` section holds the four older documents
        // replays to the same state and compares the two logs.
        let bundle_dir = tmp_dir();
        let ctx = ArchiveContext::from_campaign(
            consent_util::Day::from_ymd(2020, 5, 15),
            &[],
            &[Vantage::eu_cloud()],
            &SeedTree::new(9),
        );
        let mut input =
            crate::archive::build_bundle_input(&state, &ctx, &CampaignArtifacts::default(), None);
        let state_section = input
            .sections
            .iter_mut()
            .find(|s| s.name == "state")
            .unwrap();
        state_section.docs = older
            .iter()
            .map(|(name, body)| consent_bundle::BundleDoc::new(*name, body.as_str()))
            .collect();
        let blobs = BlobStore::open(&bundle_dir).unwrap();
        consent_bundle::pack_verified(&blobs, &input, 1).unwrap();
        let replay = crate::archive::replay_bundle(&blobs, None).unwrap();
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.pairs, state.pairs_done);
        assert_eq!(replay.docs_compared, 2, "the two logs");
        std::fs::remove_dir_all(dir).unwrap();
        std::fs::remove_dir_all(bundle_dir).unwrap();
    }

    #[test]
    fn empty_store_recovers_fresh() {
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let (state, watch, report) = recover_state(&store).unwrap();
        assert_eq!(state.pairs_done, 0);
        assert!(watch.is_empty());
        assert!(report.is_clean());
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn small_world() -> (World, Vec<String>) {
        let world = World::new(WorldConfig {
            n_sites: 400,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 6, SeedTree::new(7));
        (world, list)
    }

    #[test]
    fn delta_mode_matches_full_mode_and_recovers() {
        let (world, list) = small_world();
        let day = consent_util::Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud()];
        let run = |mode: CheckpointMode| {
            let dir = tmp_dir();
            let store = CheckpointStore::open(&dir).unwrap();
            let opts = DurableOpts {
                config: quiet(),
                checkpoint_every: 4,
                mode,
                ..DurableOpts::default()
            };
            let out = run_durable_campaign(
                &world,
                &list,
                day,
                &vantages,
                SeedTree::new(9),
                &store,
                &opts,
            )
            .unwrap();
            assert!(out.outcome.finished());
            (dir, store, out)
        };
        let (dir_full, _, full) = run(CheckpointMode::Delta { rebase_every: 0 });
        let (dir_delta, store, delta) = run(CheckpointMode::Delta { rebase_every: 3 });
        // Byte-identity across modes: deltas change durability cost,
        // never the measurement.
        assert_eq!(full.state.export(), delta.state.export());
        // 6 pairs at cadence 4 → a full base then one delta head.
        let gens = store.generations().unwrap();
        assert_eq!(gens, vec![1, 2]);
        let head = store.scan_generation(2).unwrap();
        assert!(
            head.section(SECTION_DELTA_META).is_some(),
            "head not a delta"
        );
        assert!(
            head.section(SECTION_DB).is_none(),
            "delta carries a full db"
        );
        // Recovery walks the chain back to the final state.
        let (back, _, report) = recover_state(&store).unwrap();
        assert_eq!(back.export(), delta.state.export(), "{}", report.render());
        assert_eq!(report.used_generation, Some(2));
        assert!(
            report
                .actions
                .iter()
                .any(|a| a.contains("recovered delta chain")),
            "{}",
            report.render()
        );
        std::fs::remove_dir_all(dir_full).unwrap();
        std::fs::remove_dir_all(dir_delta).unwrap();
    }

    #[test]
    fn delta_cut_bytes_do_not_grow_with_campaign_progress() {
        // A delta cut serializes only what the last interval appended,
        // so its size must stay flat as the campaign grows; a full cut
        // re-serializes everything and grows with it.
        let world = World::new(WorldConfig {
            n_sites: 2_000,
            seed: 42,
            adoption: AdoptionConfig::default(),
        });
        let list = build_toplist(&world, 400, SeedTree::new(7));
        let day = consent_util::Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud(), Vantage::us_cloud()];
        let total = (list.len() * vantages.len()) as u64;
        let advance = |state: CampaignState, pairs: u64| {
            resume_campaign_parallel(
                &world,
                &list,
                day,
                &vantages,
                SeedTree::new(9),
                &ParallelOpts {
                    threads: 1,
                    config: quiet(),
                    max_pairs: Some(pairs),
                },
                state,
            )
            .state
        };
        let bytes =
            |sections: Vec<Section>| -> usize { sections.iter().map(|s| s.body.len()).sum() };

        let mut state = CampaignState::new();
        let mut cuts = Vec::new();
        for pct in [10, 50, 90] {
            let to_mark = total * pct / 100 - state.pairs_done;
            state = advance(state, to_mark);
            let marks = DeltaMarks::capture(&state);
            state = advance(state, 40);
            let delta = bytes(delta_state_sections(&state, &marks, 1, 1));
            cuts.push((pct, delta, bytes(state_sections(&state))));
        }

        let (_, delta_10, full_10) = cuts[0];
        for &(pct, delta, _) in &cuts {
            assert!(
                delta <= 2 * delta_10 && delta_10 <= 2 * delta,
                "delta cut at {pct}% is {delta} B vs {delta_10} B at 10%: {cuts:?}"
            );
        }
        let (_, _, full_90) = cuts[2];
        assert!(
            full_90 >= 4 * full_10,
            "full snapshot grew only {full_10} B -> {full_90} B: {cuts:?}"
        );
    }

    #[test]
    fn corrupt_delta_falls_back_to_its_base() {
        let (world, list) = small_world();
        let day = consent_util::Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud()];
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let opts = DurableOpts {
            config: quiet(),
            checkpoint_every: 4,
            mode: CheckpointMode::Delta { rebase_every: 8 },
            ..DurableOpts::default()
        };
        run_durable_campaign(
            &world,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &store,
            &opts,
        )
        .unwrap();
        // Flip a byte in the delta head's payload; the chain must fall
        // back to the intact full base (4 of 6 pairs).
        let path = store.path_for(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (back, _, report) = recover_state(&store).unwrap();
        assert_eq!(back.pairs_done, 4, "{}", report.render());
        assert_eq!(report.used_generation, Some(1));
        assert!(store.quarantine_dir().join("gen-00000002.ckpt").is_file());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn broken_chain_middle_quarantines_down_to_the_break() {
        let (world, list) = small_world();
        let day = consent_util::Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud()];
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let opts = DurableOpts {
            config: quiet(),
            checkpoint_every: 2,
            mode: CheckpointMode::Delta { rebase_every: 8 },
            ..DurableOpts::default()
        };
        let run = run_durable_campaign(
            &world,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &store,
            &opts,
        )
        .unwrap();
        // 6 pairs at cadence 2 → base + two deltas.
        assert_eq!(store.generations().unwrap(), vec![1, 2, 3]);
        // Corrupt the *middle* delta: the head (3) is intact but
        // unusable without it, so both quarantine; the base survives.
        let path = store.path_for(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (back, _, report) = recover_state(&store).unwrap();
        assert_eq!(back.pairs_done, 2, "{}", report.render());
        assert_eq!(report.used_generation, Some(1));
        assert!(store.quarantine_dir().join("gen-00000002.ckpt").is_file());
        assert!(store.quarantine_dir().join("gen-00000003.ckpt").is_file());
        // Resuming from the shortened chain still reconciles.
        let resumed = run_durable_campaign(
            &world,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &store,
            &opts,
        )
        .unwrap();
        assert_eq!(resumed.state.export(), run.state.export());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn rebase_cadence_writes_fresh_bases() {
        let (world, list) = small_world();
        let day = consent_util::Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud()];
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let opts = DurableOpts {
            config: quiet(),
            checkpoint_every: 1,
            mode: CheckpointMode::Delta { rebase_every: 2 },
            ..DurableOpts::default()
        };
        run_durable_campaign(
            &world,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &store,
            &opts,
        )
        .unwrap();
        // 6 cuts with rebase_every=2 wrote full, Δ, Δ, full, Δ, Δ; the
        // rebase at generation 4 unpinned the first chain, so rotation
        // (keep 4) then shed its base and first delta. Generation 3
        // survives as an orphaned delta — harmless, because recovery
        // starts from the head's chain, not from stray members.
        let gens = store.generations().unwrap();
        assert_eq!(gens, vec![3, 4, 5, 6]);
        let kinds: Vec<bool> = gens
            .into_iter()
            .map(|g| {
                store
                    .scan_generation(g)
                    .unwrap()
                    .section(SECTION_DELTA_META)
                    .is_some()
            })
            .collect();
        assert_eq!(kinds, vec![true, false, true, true]);
        let (back, _, report) = recover_state(&store).unwrap();
        assert_eq!(back.pairs_done, 6, "{}", report.render());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn intact_but_unimportable_generation_is_quarantined() {
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        let state = small_state();
        store.save(&state_sections(&state)).unwrap();
        // A second generation whose sections checksum fine but whose
        // provenance log is one record short of the capture rows.
        let mut lying = state_sections(&state);
        let provenance = &mut lying[1];
        assert_eq!(provenance.name, SECTION_PROVENANCE);
        let kept = provenance
            .body
            .trim_end_matches('\n')
            .rsplit_once('\n')
            .unwrap()
            .0;
        provenance.body = format!("{kept}\n");
        store.save(&lying).unwrap();

        let (back, _, report) = recover_state(&store).unwrap();
        assert_eq!(back.export(), state.export());
        assert_eq!(report.used_generation, Some(1));
        assert!(
            report
                .actions
                .iter()
                .any(|a| a.contains("state import failed")),
            "{}",
            report.render()
        );
        // The quarantined generation is in the report, not only in a
        // note, with its reason and its still-intact sections.
        assert_eq!(report.quarantined.len(), 1, "{}", report.render());
        let q = &report.quarantined[0];
        assert_eq!(q.generation, 2);
        assert!(q.reason.contains("state import failed"), "{}", q.reason);
        assert_eq!(q.valid_prefix, lying.len());
        assert!(store.quarantine_dir().join("gen-00000002.ckpt").is_file());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn hostile_domains_are_refused_before_crawling() {
        let (world, list) = small_world();
        let dir = tmp_dir();
        let store = CheckpointStore::open(&dir).unwrap();
        // Each would store a capture-db host line or a provenance field
        // that the state import rejects or splits: a tab, a `#` header
        // (the second through the registrable host `#b.example`), an
        // empty host, a newline.
        for hostile in [
            "evil\tdomain.example",
            "#hash.example",
            "a.#b.example",
            "",
            "smuggle.example\nnext",
        ] {
            let mut domains = list.clone();
            domains.insert(2, hostile.to_string());
            let err = run_durable_campaign(
                &world,
                &domains,
                consent_util::Day::from_ymd(2020, 5, 15),
                &[Vantage::eu_cloud()],
                SeedTree::new(9),
                &store,
                &DurableOpts {
                    config: quiet(),
                    ..DurableOpts::default()
                },
            )
            .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{hostile:?}");
            assert!(
                err.to_string().contains(&format!("{hostile:?}")),
                "{hostile:?}: {err}"
            );
        }
        // Refused before the store was touched.
        assert!(store.generations().unwrap().is_empty());
        // The list itself is held to the same rule and passes.
        assert!(check_domains(&list).is_ok());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn completed_run_packs_a_verified_replayable_bundle() {
        let (world, list) = small_world();
        let day = consent_util::Day::from_ymd(2020, 5, 15);
        let vantages = [Vantage::eu_cloud()];
        let ckpt_dir = tmp_dir();
        let bundle_dir = tmp_dir();
        let provider: Arc<ExportFn> = Arc::new(|state: &CampaignState, ctx: &ArchiveContext| {
            vec![(
                "summary".to_string(),
                format!(
                    "pairs={}\ndomains={}\n",
                    state.pairs_done,
                    ctx.domains.len()
                ),
            )]
        });
        let store = CheckpointStore::open(&ckpt_dir).unwrap();
        let run = run_durable_campaign(
            &world,
            &list,
            day,
            &vantages,
            SeedTree::new(9),
            &store,
            &DurableOpts {
                config: quiet(),
                checkpoint_every: 3,
                bundle: Some(BundleSpec {
                    dir: bundle_dir.clone(),
                    provider: Some(Arc::clone(&provider)),
                    gvl_json: Some("{}".into()),
                }),
                ..DurableOpts::default()
            },
        )
        .unwrap();
        assert_eq!(run.outcome, DurableOutcome::Complete);
        let report = run.bundle.expect("completed run packed a bundle");
        assert!(report.manifest.section("state").is_some());
        assert!(report.manifest.section("analysis").is_some());
        assert!(report.manifest.section("gvl").is_some());
        // The archive alone reproduces the campaign state and the
        // provider's exports byte-for-byte.
        let replay = crate::archive::replay_campaign_bundle(&bundle_dir, Some(&*provider)).unwrap();
        assert!(replay.ok(), "{}", replay.summary());
        assert_eq!(replay.pairs, run.state.pairs_done);
        std::fs::remove_dir_all(ckpt_dir).unwrap();
        std::fs::remove_dir_all(bundle_dir).unwrap();
    }
}
